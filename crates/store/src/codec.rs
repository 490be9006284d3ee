//! Hand-rolled binary codec for the persisted artifact: solve records,
//! with the summaries and caller evidence inside them.
//!
//! The format is deliberately boring: little-endian fixed-width integers,
//! `f64`s by exact bit pattern (round-trips are bit-identical, which the
//! determinism contract requires), length-prefixed UTF-8 strings, and
//! one-byte tags for enums and `Option`s. There is no reflection and no
//! external dependency; every decoder validates lengths, tags and indices
//! and returns a structured [`CodecError`] instead of panicking — a
//! corrupted payload must always degrade into a counted cache miss.

use analysis::types::MethodId;
use anek_core::memo::SolvedRecord;
use anek_core::{CallerEvidence, MethodSummary, SlotProbs, VecMap};
use factor_graph::GuardEvents;
use java_syntax::ast::ExprId;
use std::fmt;
use std::sync::Arc;

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
    let states = dec_map(d, |d| Ok((Arc::from(d.str()?), d.f64()?)))?;
    Ok(SlotProbs { kinds, states })
}

/// Decodes a length-prefixed run of map entries. Entries out of key order
/// are sorted, and of a repeated key the last wins.
fn dec_map<K: Ord, V>(
    d: &mut Dec<'_>,
    mut entry: impl FnMut(&mut Dec<'_>) -> Result<(K, V), CodecError>,
) -> Result<VecMap<K, V>, CodecError> {
    let n = d.len()?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        entries.push(entry(d)?);
    }
    Ok(entries.into_iter().collect())
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
    let param_pre = dec_map(d, |d| Ok((d.str()?, dec_slot(d)?)))?;
    let param_post = dec_map(d, |d| Ok((d.str()?, dec_slot(d)?)))?;
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
    let call_evidence = dec_map(d, |d| {
        let callee = dec_method_id(d)?;
        Ok((callee, dec_map(d, |d| Ok((ExprId(d.u32()?), dec_evidence(d)?)))?))
    })?;
    let iterations = d.usize()?;
    let updates = d.usize()?;
    let converged = d.bool()?;
    let guards = GuardEvents { non_finite: d.usize()?, zero_sum: d.usize()? };
    Ok(SolvedRecord { summary, call_evidence, iterations, updates, converged, guards })
}

// ---- Whole-payload helpers ----

/// Encodes an artifact with the matching encoder into payload bytes.
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
