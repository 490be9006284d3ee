//! Hand-rolled binary codecs for the persisted artifact classes: solve
//! records (with the summaries and caller evidence inside them) and PFGs.
//!
//! The format is deliberately boring: little-endian fixed-width integers,
//! `f64`s by exact bit pattern (round-trips are bit-identical, which the
//! determinism contract requires), length-prefixed UTF-8 strings, and
//! one-byte tags for enums and `Option`s. There is no reflection and no
//! external dependency; every decoder validates lengths, tags and indices
//! and returns a structured [`CodecError`] instead of panicking — a
//! corrupted payload must always degrade into a counted cache miss.

use analysis::pfg::{CallRole, ParamNodes, Pfg, PfgNode, PfgNodeKind};
use analysis::types::{Callee, MethodId};
use anek_core::memo::SolvedRecord;
use anek_core::{CallerEvidence, MethodSummary, SlotProbs};
use factor_graph::GuardEvents;
use java_syntax::ast::ExprId;
use java_syntax::span::{Pos, Span};
use std::collections::BTreeMap;
use std::fmt;

/// A decoding failure (any structural problem with a payload).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// What was being decoded and what went wrong.
    pub message: String,
}

impl CodecError {
    fn new(message: impl Into<String>) -> CodecError {
        CodecError { message: message.into() }
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "codec error: {}", self.message)
    }
}

impl std::error::Error for CodecError {}

/// Encoder: appends fields to a growing byte buffer.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// A fresh encoder.
    pub fn new() -> Enc {
        Enc::default()
    }

    /// Finishes, yielding the payload bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends an `f64` by bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Decoder: reads fields back out of a byte slice, validating as it goes.
#[derive(Debug)]
pub struct Dec<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A decoder over `data`.
    pub fn new(data: &'a [u8]) -> Dec<'a> {
        Dec { data, pos: 0 }
    }

    /// Fails unless every byte was consumed (trailing garbage is corruption).
    pub fn finish(self) -> Result<(), CodecError> {
        if self.pos == self.data.len() {
            Ok(())
        } else {
            Err(CodecError::new(format!(
                "{} trailing bytes after payload",
                self.data.len() - self.pos
            )))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.data.len())
            .ok_or_else(|| CodecError::new("payload truncated"))?;
        let slice = &self.data[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Reads a `usize`, rejecting values that cannot fit.
    pub fn usize(&mut self) -> Result<usize, CodecError> {
        usize::try_from(self.u64()?).map_err(|_| CodecError::new("usize overflow"))
    }

    /// Reads a length that must also be plausible given the bytes left —
    /// catches truncation/corruption before any huge allocation.
    // Not a container: `len` decodes a length prefix, `is_empty` has no analogue.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&mut self) -> Result<usize, CodecError> {
        let n = self.usize()?;
        if n > self.data.len().saturating_sub(self.pos) {
            return Err(CodecError::new(format!("length {n} exceeds remaining payload")));
        }
        Ok(n)
    }

    /// Reads an `f64` by bit pattern.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a bool, rejecting non-0/1 bytes.
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(CodecError::new(format!("invalid bool byte {b}"))),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, CodecError> {
        let n = self.len()?;
        String::from_utf8(self.take(n)?.to_vec())
            .map_err(|_| CodecError::new("invalid UTF-8 in string"))
    }
}

// ---- Slot probabilities / summaries / evidence ----

fn enc_slot(e: &mut Enc, slot: &SlotProbs) {
    for k in slot.kinds {
        e.f64(k);
    }
    e.usize(slot.states.len());
    for (name, p) in &slot.states {
        e.str(name);
        e.f64(*p);
    }
}

fn dec_slot(d: &mut Dec<'_>) -> Result<SlotProbs, CodecError> {
    let mut kinds = [0.0f64; 5];
    for k in &mut kinds {
        *k = d.f64()?;
    }
    let n = d.len()?;
    let mut states = BTreeMap::new();
    for _ in 0..n {
        let name = d.str()?;
        let p = d.f64()?;
        states.insert(name, p);
    }
    Ok(SlotProbs { kinds, states })
}

fn enc_opt_slot(e: &mut Enc, slot: &Option<SlotProbs>) {
    match slot {
        Some(s) => {
            e.bool(true);
            enc_slot(e, s);
        }
        None => e.bool(false),
    }
}

fn dec_opt_slot(d: &mut Dec<'_>) -> Result<Option<SlotProbs>, CodecError> {
    Ok(if d.bool()? { Some(dec_slot(d)?) } else { None })
}

/// Encodes a method summary.
pub fn enc_summary(e: &mut Enc, s: &MethodSummary) {
    e.usize(s.params.len());
    for (name, pre, post) in &s.params {
        e.str(name);
        enc_slot(e, pre);
        enc_slot(e, post);
    }
    enc_opt_slot(e, &s.result);
}

/// Decodes a method summary.
pub fn dec_summary(d: &mut Dec<'_>) -> Result<MethodSummary, CodecError> {
    let n = d.len()?;
    let mut params = Vec::with_capacity(n);
    for _ in 0..n {
        let name = d.str()?;
        let pre = dec_slot(d)?;
        let post = dec_slot(d)?;
        params.push((name, pre, post));
    }
    Ok(MethodSummary { params, result: dec_opt_slot(d)? })
}

fn enc_evidence(e: &mut Enc, ev: &CallerEvidence) {
    for map in [&ev.param_pre, &ev.param_post] {
        e.usize(map.len());
        for (name, slot) in map {
            e.str(name);
            enc_slot(e, slot);
        }
    }
    enc_opt_slot(e, &ev.result);
}

fn dec_evidence(d: &mut Dec<'_>) -> Result<CallerEvidence, CodecError> {
    let mut maps = [BTreeMap::new(), BTreeMap::new()];
    for map in &mut maps {
        let n = d.len()?;
        for _ in 0..n {
            let name = d.str()?;
            let slot = dec_slot(d)?;
            map.insert(name, slot);
        }
    }
    let [param_pre, param_post] = maps;
    Ok(CallerEvidence { param_pre, param_post, result: dec_opt_slot(d)? })
}

fn enc_method_id(e: &mut Enc, id: &MethodId) {
    e.str(&id.class);
    e.str(&id.method);
}

fn dec_method_id(d: &mut Dec<'_>) -> Result<MethodId, CodecError> {
    let class = d.str()?;
    let method = d.str()?;
    Ok(MethodId { class, method })
}

/// Encodes a committed solve record (the memoization unit).
pub fn enc_solved(e: &mut Enc, s: &SolvedRecord) {
    enc_summary(e, &s.summary);
    e.usize(s.call_evidence.len());
    for (callee, sites) in &s.call_evidence {
        enc_method_id(e, callee);
        e.usize(sites.len());
        for (site, ev) in sites {
            e.u32(site.0);
            enc_evidence(e, ev);
        }
    }
    e.usize(s.iterations);
    e.usize(s.updates);
    e.bool(s.converged);
    e.usize(s.guards.non_finite);
    e.usize(s.guards.zero_sum);
}

/// Decodes a committed solve record.
pub fn dec_solved(d: &mut Dec<'_>) -> Result<SolvedRecord, CodecError> {
    let summary = dec_summary(d)?;
    let n = d.len()?;
    let mut call_evidence = BTreeMap::new();
    for _ in 0..n {
        let callee = dec_method_id(d)?;
        let sites_n = d.len()?;
        let mut sites = BTreeMap::new();
        for _ in 0..sites_n {
            let site = ExprId(d.u32()?);
            let ev = dec_evidence(d)?;
            sites.insert(site, ev);
        }
        call_evidence.insert(callee, sites);
    }
    let iterations = d.usize()?;
    let updates = d.usize()?;
    let converged = d.bool()?;
    let guards = GuardEvents { non_finite: d.usize()?, zero_sum: d.usize()? };
    Ok(SolvedRecord { summary, call_evidence, iterations, updates, converged, guards })
}

// ---- Permissions Flow Graphs ----

fn enc_opt_str(e: &mut Enc, s: &Option<String>) {
    match s {
        Some(s) => {
            e.bool(true);
            e.str(s);
        }
        None => e.bool(false),
    }
}

fn dec_opt_str(d: &mut Dec<'_>) -> Result<Option<String>, CodecError> {
    Ok(if d.bool()? { Some(d.str()?) } else { None })
}

fn enc_pos(e: &mut Enc, p: Pos) {
    e.usize(p.offset);
    e.u32(p.line);
    e.u32(p.col);
}

fn dec_pos(d: &mut Dec<'_>) -> Result<Pos, CodecError> {
    Ok(Pos { offset: d.usize()?, line: d.u32()?, col: d.u32()? })
}

fn enc_callee(e: &mut Enc, c: &Callee) {
    match c {
        Callee::Program(id) => {
            e.u8(0);
            enc_method_id(e, id);
        }
        Callee::Api { type_name, method } => {
            e.u8(1);
            e.str(type_name);
            e.str(method);
        }
        Callee::Unknown { method } => {
            e.u8(2);
            e.str(method);
        }
    }
}

fn dec_callee(d: &mut Dec<'_>) -> Result<Callee, CodecError> {
    match d.u8()? {
        0 => Ok(Callee::Program(dec_method_id(d)?)),
        1 => Ok(Callee::Api { type_name: d.str()?, method: d.str()? }),
        2 => Ok(Callee::Unknown { method: d.str()? }),
        t => Err(CodecError::new(format!("invalid callee tag {t}"))),
    }
}

fn enc_role(e: &mut Enc, role: CallRole) {
    match role {
        CallRole::Receiver => e.u8(0),
        CallRole::Arg(i) => {
            e.u8(1);
            e.usize(i);
        }
    }
}

fn dec_role(d: &mut Dec<'_>) -> Result<CallRole, CodecError> {
    match d.u8()? {
        0 => Ok(CallRole::Receiver),
        1 => Ok(CallRole::Arg(d.usize()?)),
        t => Err(CodecError::new(format!("invalid call-role tag {t}"))),
    }
}

fn enc_node_kind(e: &mut Enc, kind: &PfgNodeKind) {
    match kind {
        PfgNodeKind::ParamPre { name } => {
            e.u8(0);
            e.str(name);
        }
        PfgNodeKind::ParamPost { name } => {
            e.u8(1);
            e.str(name);
        }
        PfgNodeKind::ResultPost => e.u8(2),
        PfgNodeKind::Split => e.u8(3),
        PfgNodeKind::Merge => e.u8(4),
        PfgNodeKind::CallPre { callee, role, site } => {
            e.u8(5);
            enc_callee(e, callee);
            enc_role(e, *role);
            e.u32(site.0);
        }
        PfgNodeKind::CallPost { callee, role, site } => {
            e.u8(6);
            enc_callee(e, callee);
            enc_role(e, *role);
            e.u32(site.0);
        }
        PfgNodeKind::CallResult { callee, site } => {
            e.u8(7);
            enc_callee(e, callee);
            e.u32(site.0);
        }
        PfgNodeKind::New { callee } => {
            e.u8(8);
            enc_callee(e, callee);
        }
        PfgNodeKind::FieldRead { field } => {
            e.u8(9);
            e.str(field);
        }
        PfgNodeKind::FieldWrite { field } => {
            e.u8(10);
            e.str(field);
        }
        PfgNodeKind::Refine { state } => {
            e.u8(11);
            e.str(state);
        }
    }
}

fn dec_node_kind(d: &mut Dec<'_>) -> Result<PfgNodeKind, CodecError> {
    Ok(match d.u8()? {
        0 => PfgNodeKind::ParamPre { name: d.str()? },
        1 => PfgNodeKind::ParamPost { name: d.str()? },
        2 => PfgNodeKind::ResultPost,
        3 => PfgNodeKind::Split,
        4 => PfgNodeKind::Merge,
        5 => PfgNodeKind::CallPre {
            callee: dec_callee(d)?,
            role: dec_role(d)?,
            site: ExprId(d.u32()?),
        },
        6 => PfgNodeKind::CallPost {
            callee: dec_callee(d)?,
            role: dec_role(d)?,
            site: ExprId(d.u32()?),
        },
        7 => PfgNodeKind::CallResult { callee: dec_callee(d)?, site: ExprId(d.u32()?) },
        8 => PfgNodeKind::New { callee: dec_callee(d)? },
        9 => PfgNodeKind::FieldRead { field: d.str()? },
        10 => PfgNodeKind::FieldWrite { field: d.str()? },
        11 => PfgNodeKind::Refine { state: d.str()? },
        t => return Err(CodecError::new(format!("invalid pfg-node-kind tag {t}"))),
    })
}

/// Encodes a permissions flow graph (public fields; adjacency is
/// recomputed on decode by [`Pfg::from_parts`]).
pub fn enc_pfg(e: &mut Enc, pfg: &Pfg) {
    enc_method_id(e, &pfg.method);
    e.usize(pfg.nodes.len());
    for n in &pfg.nodes {
        e.usize(n.id);
        enc_node_kind(e, &n.kind);
        enc_opt_str(e, &n.type_name);
        enc_pos(e, n.span.start);
        enc_pos(e, n.span.end);
        match n.receiver_link {
            Some(link) => {
                e.bool(true);
                e.usize(link);
            }
            None => e.bool(false),
        }
    }
    e.usize(pfg.edges.len());
    for &(a, b) in &pfg.edges {
        e.usize(a);
        e.usize(b);
    }
    e.usize(pfg.params.len());
    for p in &pfg.params {
        e.str(&p.name);
        e.str(&p.type_name);
        e.usize(p.pre);
        e.usize(p.post);
    }
    match &pfg.result {
        Some((ty, node)) => {
            e.bool(true);
            e.str(ty);
            e.usize(*node);
        }
        None => e.bool(false),
    }
    e.usize(pfg.sync_targets.len());
    for &t in &pfg.sync_targets {
        e.usize(t);
    }
}

/// Decodes a permissions flow graph, validating every node reference.
pub fn dec_pfg(d: &mut Dec<'_>) -> Result<Pfg, CodecError> {
    let method = dec_method_id(d)?;
    let n_nodes = d.len()?;
    let check = |id: usize, what: &str| {
        if id < n_nodes {
            Ok(id)
        } else {
            Err(CodecError::new(format!("{what} {id} out of range ({n_nodes} nodes)")))
        }
    };
    let mut nodes = Vec::with_capacity(n_nodes);
    for _ in 0..n_nodes {
        let id = check(d.usize()?, "node id")?;
        let kind = dec_node_kind(d)?;
        let type_name = dec_opt_str(d)?;
        let span = Span { start: dec_pos(d)?, end: dec_pos(d)? };
        let receiver_link =
            if d.bool()? { Some(check(d.usize()?, "receiver link")?) } else { None };
        nodes.push(PfgNode { id, kind, type_name, span, receiver_link });
    }
    let n_edges = d.len()?;
    let mut edges = Vec::with_capacity(n_edges);
    for _ in 0..n_edges {
        let a = check(d.usize()?, "edge source")?;
        let b = check(d.usize()?, "edge target")?;
        edges.push((a, b));
    }
    let n_params = d.len()?;
    let mut params = Vec::with_capacity(n_params);
    for _ in 0..n_params {
        let name = d.str()?;
        let type_name = d.str()?;
        let pre = check(d.usize()?, "param pre node")?;
        let post = check(d.usize()?, "param post node")?;
        params.push(ParamNodes { name, type_name, pre, post });
    }
    let result = if d.bool()? {
        let ty = d.str()?;
        let node = check(d.usize()?, "result node")?;
        Some((ty, node))
    } else {
        None
    };
    let n_sync = d.len()?;
    let mut sync_targets = Vec::with_capacity(n_sync);
    for _ in 0..n_sync {
        sync_targets.push(check(d.usize()?, "sync target")?);
    }
    Ok(Pfg::from_parts(method, nodes, edges, params, result, sync_targets))
}

// ---- Whole-payload helpers ----

/// Encodes any artifact with the matching encoder into payload bytes.
pub fn to_bytes(encode: impl FnOnce(&mut Enc)) -> Vec<u8> {
    let mut e = Enc::new();
    encode(&mut e);
    e.into_bytes()
}

/// Decodes a whole payload, requiring full consumption.
pub fn from_bytes<T>(
    data: &[u8],
    decode: impl FnOnce(&mut Dec<'_>) -> Result<T, CodecError>,
) -> Result<T, CodecError> {
    let mut d = Dec::new(data);
    let value = decode(&mut d)?;
    d.finish()?;
    Ok(value)
}
