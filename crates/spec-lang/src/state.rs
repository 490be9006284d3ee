//! Abstract state spaces (typestates).
//!
//! Every reference type has a hierarchy of abstract states rooted at `ALIVE`
//! (paper §1: "The ALIVE state in the PLURAL methodology is the root of the
//! state hierarchy"). For the iterator protocol (paper Figure 1) the
//! hierarchy is `ALIVE ⊇ {HASNEXT, END}`.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// The distinguished root state every object is always in.
pub const ALIVE: &str = "ALIVE";

/// The state hierarchy for one reference type: a tree of state names rooted
/// at [`ALIVE`].
#[derive(Clone, PartialEq, Eq)]
pub struct StateSpace {
    /// Type this space belongs to (simple name).
    type_name: String,
    /// child state -> parent state; `ALIVE` has no entry.
    parents: BTreeMap<String, String>,
    /// [`StateSpace::states`] as shared names, kept in step with `parents`.
    names: Arc<[Arc<str>]>,
}

// By hand, to leave out `names`, which `parents` determines: the store's
// interface fingerprint hashes the API registry's `Debug` form.
impl fmt::Debug for StateSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StateSpace")
            .field("type_name", &self.type_name)
            .field("parents", &self.parents)
            .finish()
    }
}

impl StateSpace {
    /// A space containing only `ALIVE` (types without a protocol).
    pub fn trivial(type_name: impl Into<String>) -> StateSpace {
        let names = Arc::clone(StateSpace::alive_only());
        StateSpace { type_name: type_name.into(), parents: BTreeMap::new(), names }
    }

    /// The names of a space containing only `ALIVE`, one list for the whole
    /// process.
    pub fn alive_only() -> &'static Arc<[Arc<str>]> {
        static ALIVE_ONLY: OnceLock<Arc<[Arc<str>]>> = OnceLock::new();
        ALIVE_ONLY.get_or_init(|| Arc::new([Arc::from(ALIVE)]))
    }

    /// Builds a flat space: every given state refines `ALIVE` directly.
    pub fn flat<S: Into<String>>(
        type_name: impl Into<String>,
        states: impl IntoIterator<Item = S>,
    ) -> StateSpace {
        let mut space = StateSpace::trivial(type_name);
        for s in states {
            space.add_state(s.into(), ALIVE.to_string());
        }
        space
    }

    /// Adds a state refining `parent`. Re-adding an existing state replaces
    /// its parent.
    pub fn add_state(&mut self, state: String, parent: String) {
        if state == ALIVE {
            return;
        }
        if let Err(i) = self.names[1..].binary_search_by(|n| (**n).cmp(&state)) {
            let mut names = self.names.to_vec();
            names.insert(i + 1, Arc::from(state.as_str()));
            self.names = names.into();
        }
        self.parents.insert(state, parent);
    }

    /// Parses a comma-separated state declaration as written in `@States`:
    /// plain names refine `ALIVE`; `PARENT > CHILD` entries declare nested
    /// refinements (e.g. `"OPEN, CLOSED, OPEN > EOF"`).
    pub fn parse_decl(type_name: impl Into<String>, decl: &str) -> StateSpace {
        let mut space = StateSpace::trivial(type_name);
        for entry in decl.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            match entry.split_once('>') {
                Some((parent, child)) => {
                    let parent = parent.trim().to_string();
                    let child = child.trim().to_string();
                    if !space.contains(&parent) {
                        space.add_state(parent.clone(), ALIVE.to_string());
                    }
                    space.add_state(child, parent);
                }
                None => space.add_state(entry.to_string(), ALIVE.to_string()),
            }
        }
        space
    }

    /// The type this space describes.
    pub fn type_name(&self) -> &str {
        &self.type_name
    }

    /// Whether `state` is declared in this space (including `ALIVE`).
    pub fn contains(&self, state: &str) -> bool {
        state == ALIVE || self.parents.contains_key(state)
    }

    /// All states, `ALIVE` first, then declared states in sorted order.
    pub fn states(&self) -> Vec<&str> {
        self.names.iter().map(|n| &**n).collect()
    }

    /// [`StateSpace::states`] as one list of names, shared with every slot
    /// and summary that ranges over this space, so a model build copies no
    /// name and no list.
    pub fn names(&self) -> &Arc<[Arc<str>]> {
        &self.names
    }

    /// Number of states including `ALIVE`.
    pub fn len(&self) -> usize {
        self.parents.len() + 1
    }

    /// Whether only `ALIVE` exists.
    pub fn is_empty(&self) -> bool {
        self.parents.is_empty()
    }

    /// Whether an object in `sub` is necessarily also in `sup`
    /// (reflexive-transitive refinement towards the root).
    pub fn refines(&self, sub: &str, sup: &str) -> bool {
        if sub == sup {
            return true;
        }
        let mut cur = sub;
        while let Some(p) = self.parents.get(cur) {
            if p == sup {
                return true;
            }
            cur = p;
        }
        // Every declared state refines ALIVE.
        sup == ALIVE && self.contains(sub)
    }

    /// The parent of a state, or `None` for `ALIVE`/unknown states.
    pub fn parent(&self, state: &str) -> Option<&str> {
        self.parents.get(state).map(String::as_str)
    }

    /// The *concrete* states an object "in `state`" may inhabit: every
    /// declared (non-`ALIVE`) state refining `state`, in sorted order.
    /// `concrete_states(ALIVE)` is all declared states; a leaf state expands
    /// to itself; the result is empty for trivial spaces or unknown states.
    pub fn concrete_states(&self, state: &str) -> Vec<&str> {
        self.states().into_iter().filter(|s| *s != ALIVE && self.refines(s, state)).collect()
    }
}

impl fmt::Display for StateSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{{{}}}", self.type_name, self.states().join(", "))
    }
}

/// A registry of state spaces for all reference types in a program.
///
/// Types that never declared a protocol get the trivial `{ALIVE}` space on
/// lookup, so analyses can treat every reference type uniformly.
#[derive(Debug, Clone, Default)]
pub struct StateRegistry {
    spaces: BTreeMap<String, StateSpace>,
}

impl StateRegistry {
    /// An empty registry.
    pub fn new() -> StateRegistry {
        StateRegistry::default()
    }

    /// Registers (or replaces) a space.
    pub fn insert(&mut self, space: StateSpace) {
        self.spaces.insert(space.type_name().to_string(), space);
    }

    /// Looks up the space for a type, if declared.
    pub fn get(&self, type_name: &str) -> Option<&StateSpace> {
        self.spaces.get(type_name)
    }

    /// The states a variable of `type_name` can inhabit, as shared names
    /// ([`StateSpace::names`]); `[ALIVE]` when the type declared no
    /// protocol.
    pub fn states_of(&self, type_name: &str) -> &Arc<[Arc<str>]> {
        self.spaces.get(type_name).map_or(StateSpace::alive_only(), StateSpace::names)
    }

    /// Iterates over all registered spaces.
    pub fn iter(&self) -> impl Iterator<Item = &StateSpace> {
        self.spaces.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iterator_space() -> StateSpace {
        StateSpace::flat("Iterator", ["HASNEXT", "END"])
    }

    #[test]
    fn trivial_space_has_only_alive() {
        let s = StateSpace::trivial("Row");
        assert_eq!(s.states(), vec![ALIVE]);
        assert!(s.is_empty());
        assert!(s.contains(ALIVE));
        assert!(!s.contains("OPEN"));
    }

    #[test]
    fn iterator_protocol_space() {
        let s = iterator_space();
        assert_eq!(s.len(), 3);
        assert!(s.contains("HASNEXT"));
        assert!(s.contains("END"));
        assert!(s.refines("HASNEXT", ALIVE));
        assert!(s.refines("END", ALIVE));
        assert!(!s.refines("HASNEXT", "END"));
        assert!(s.refines("HASNEXT", "HASNEXT"));
    }

    #[test]
    fn nested_refinement() {
        let mut s = StateSpace::trivial("File");
        s.add_state("OPEN".into(), ALIVE.into());
        s.add_state("EOF".into(), "OPEN".into());
        assert!(s.refines("EOF", "OPEN"));
        assert!(s.refines("EOF", ALIVE));
        assert!(!s.refines("OPEN", "EOF"));
        assert_eq!(s.parent("EOF"), Some("OPEN"));
        assert_eq!(s.parent(ALIVE), None);
    }

    #[test]
    fn registry_defaults_to_alive() {
        let mut reg = StateRegistry::new();
        reg.insert(iterator_space());
        assert_eq!(reg.states_of("Iterator").len(), 3);
        assert_eq!(**reg.states_of("Row"), [Arc::from(ALIVE)]);
        assert!(reg.get("Iterator").is_some());
        assert!(reg.get("Row").is_none());
    }

    #[test]
    fn parse_decl_supports_nesting() {
        let s = StateSpace::parse_decl("File", "OPEN, CLOSED, OPEN > EOF");
        assert!(s.contains("OPEN"));
        assert!(s.contains("CLOSED"));
        assert!(s.contains("EOF"));
        assert!(s.refines("EOF", "OPEN"));
        assert!(s.refines("EOF", ALIVE));
        assert!(!s.refines("CLOSED", "OPEN"));
        // Forward references create the parent on demand.
        let t = StateSpace::parse_decl("T", "A > B");
        assert!(t.refines("B", "A"));
    }

    #[test]
    fn concrete_states_expand_refinements() {
        let s = iterator_space();
        assert_eq!(s.concrete_states(ALIVE), vec!["END", "HASNEXT"]);
        assert_eq!(s.concrete_states("HASNEXT"), vec!["HASNEXT"]);
        assert!(s.concrete_states("UNKNOWN").is_empty());
        assert!(StateSpace::trivial("Row").concrete_states(ALIVE).is_empty());
        let nested = StateSpace::parse_decl("File", "OPEN, CLOSED, OPEN > EOF");
        assert_eq!(nested.concrete_states("OPEN"), vec!["EOF", "OPEN"]);
    }

    #[test]
    fn alive_cannot_be_reparented() {
        let mut s = StateSpace::trivial("X");
        s.add_state(ALIVE.into(), "Y".into());
        assert_eq!(s.states(), vec![ALIVE]);
    }
}
