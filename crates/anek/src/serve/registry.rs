//! The session registry: many named workspaces sharing one server process
//! and one content-addressed store.
//!
//! Each session owns its sources, configuration and last inference result;
//! all sessions share the `Arc<Store>`, so a solve paid for by one tenant
//! warms every other tenant with the same code. Under a configurable
//! memory budget the registry evicts the *heavyweight* state (the last
//! result) of least-recently-used sessions — sources and
//! configuration are kept, so the next query transparently re-solves, and
//! because every re-solve replays warm store records the rebuilt state is
//! byte-identical to the evicted one.

use anek_core::InferConfig;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use store::Store;

use super::session::ServeSession;

/// One registered session plus the bookkeeping the registry reads without
/// taking the session lock.
pub struct SessionSlot {
    /// The session name (registry key).
    pub name: String,
    /// The session itself. Locked for the duration of each request.
    pub session: Mutex<ServeSession>,
    /// Mirror of the session's generation counter (bumped per inference
    /// run), readable without the session lock.
    pub generation: AtomicU64,
    /// Mirror of the session's coarse resident-size estimate in bytes.
    pub resident: AtomicUsize,
    /// LRU clock tick of the last completed request.
    pub last_used: AtomicU64,
    /// Mirror of the last run's committed solves.
    pub solves: AtomicUsize,
    /// Mirror of the last run's committed solve-cache hits.
    pub memo_hits: AtomicUsize,
    /// Mirror of the last run's committed solve-cache misses.
    pub memo_misses: AtomicUsize,
    /// Mirror of the last run's screened (skipped) methods.
    pub screened_methods: AtomicUsize,
}

/// One row of [`SessionRegistry::snapshot`]: the per-session counter
/// breakdown `server_stats` reports, read entirely from slot mirrors (no
/// session lock taken).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotSnapshot {
    /// Session name.
    pub name: String,
    /// Inference runs the session has performed.
    pub generation: u64,
    /// Coarse evictable footprint estimate in bytes.
    pub resident: usize,
    /// Committed solves of the last run.
    pub solves: usize,
    /// Committed solve-cache hits of the last run.
    pub memo_hits: usize,
    /// Committed solve-cache misses of the last run.
    pub memo_misses: usize,
    /// Methods the screening pre-pass skipped in the last run.
    pub screened_methods: usize,
}

/// The multi-tenant session table (see the module docs).
pub struct SessionRegistry {
    slots: Mutex<BTreeMap<String, Arc<SessionSlot>>>,
    base_config: InferConfig,
    store: Option<Arc<Store>>,
    /// Byte budget for the sum of all sessions' resident estimates;
    /// `0` disables eviction.
    pub memory_budget_bytes: usize,
    clock: AtomicU64,
    /// How many heavyweight evictions the budget has forced.
    pub evictions: AtomicU64,
}

impl SessionRegistry {
    /// A registry whose sessions start from `base_config` and share `store`.
    pub fn new(
        base_config: InferConfig,
        store: Option<Arc<Store>>,
        memory_budget_bytes: usize,
    ) -> SessionRegistry {
        SessionRegistry {
            slots: Mutex::new(BTreeMap::new()),
            base_config,
            store,
            memory_budget_bytes,
            clock: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Fetches the named session, creating it on first use. Returns the
    /// slot and whether this call created it.
    pub fn open(&self, name: &str) -> (Arc<SessionSlot>, bool) {
        let mut slots = self.slots.lock().unwrap();
        if let Some(slot) = slots.get(name) {
            return (Arc::clone(slot), false);
        }
        let slot = Arc::new(SessionSlot {
            name: name.to_string(),
            session: Mutex::new(ServeSession::new(self.base_config.clone(), self.store.clone())),
            generation: AtomicU64::new(0),
            resident: AtomicUsize::new(0),
            last_used: AtomicU64::new(0),
            solves: AtomicUsize::new(0),
            memo_hits: AtomicUsize::new(0),
            memo_misses: AtomicUsize::new(0),
            screened_methods: AtomicUsize::new(0),
        });
        slots.insert(name.to_string(), Arc::clone(&slot));
        (slot, true)
    }

    /// Removes the named session entirely. Returns whether it existed.
    pub fn close(&self, name: &str) -> bool {
        self.slots.lock().unwrap().remove(name).is_some()
    }

    /// Runs `f` under the named session's lock (creating the session on
    /// first use), then refreshes the slot mirrors, stamps the LRU clock
    /// and enforces the memory budget.
    pub fn with_session<T>(&self, name: &str, f: impl FnOnce(&mut ServeSession) -> T) -> T {
        let (slot, _) = self.open(name);
        let out = {
            let mut session = slot.session.lock().unwrap();
            let out = f(&mut session);
            slot.generation.store(session.generation, Ordering::Relaxed);
            slot.resident.store(session.resident_bytes(), Ordering::Relaxed);
            let (solves, memo_hits, memo_misses, screened) = session.counter_snapshot();
            slot.solves.store(solves, Ordering::Relaxed);
            slot.memo_hits.store(memo_hits, Ordering::Relaxed);
            slot.memo_misses.store(memo_misses, Ordering::Relaxed);
            slot.screened_methods.store(screened, Ordering::Relaxed);
            out
        };
        slot.last_used.store(self.clock.fetch_add(1, Ordering::Relaxed) + 1, Ordering::Relaxed);
        self.enforce_budget();
        out
    }

    /// Session names in deterministic order.
    pub fn names(&self) -> Vec<String> {
        self.slots.lock().unwrap().keys().cloned().collect()
    }

    /// Per-session snapshot (identity, footprint and last-run counters),
    /// read from the lock-free slot mirrors.
    pub fn snapshot(&self) -> Vec<SlotSnapshot> {
        self.slots
            .lock()
            .unwrap()
            .values()
            .map(|s| SlotSnapshot {
                name: s.name.clone(),
                generation: s.generation.load(Ordering::Relaxed),
                resident: s.resident.load(Ordering::Relaxed),
                solves: s.solves.load(Ordering::Relaxed),
                memo_hits: s.memo_hits.load(Ordering::Relaxed),
                memo_misses: s.memo_misses.load(Ordering::Relaxed),
                screened_methods: s.screened_methods.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Sum of the per-session resident estimates.
    pub fn total_resident(&self) -> usize {
        self.slots.lock().unwrap().values().map(|s| s.resident.load(Ordering::Relaxed)).sum()
    }

    /// Evicts heavyweight state from least-recently-used sessions until the
    /// total resident estimate fits the budget. The most-recently-used
    /// session and sessions whose lock is currently held are skipped, so a
    /// request in flight never loses its own state.
    fn enforce_budget(&self) {
        if self.memory_budget_bytes == 0 {
            return;
        }
        loop {
            let candidates: Vec<Arc<SessionSlot>> = {
                let slots = self.slots.lock().unwrap();
                let total: usize = slots.values().map(|s| s.resident.load(Ordering::Relaxed)).sum();
                if total <= self.memory_budget_bytes {
                    return;
                }
                let newest =
                    slots.values().map(|s| s.last_used.load(Ordering::Relaxed)).max().unwrap_or(0);
                let mut by_age: Vec<Arc<SessionSlot>> = slots
                    .values()
                    .filter(|s| {
                        s.resident.load(Ordering::Relaxed) > 0
                            && s.last_used.load(Ordering::Relaxed) != newest
                    })
                    .cloned()
                    .collect();
                by_age.sort_by_key(|s| s.last_used.load(Ordering::Relaxed));
                by_age
            };
            let mut evicted = false;
            for slot in candidates {
                if let Ok(mut session) = slot.session.try_lock() {
                    session.evict_heavy();
                    slot.resident.store(session.resident_bytes(), Ordering::Relaxed);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                    evicted = true;
                    break;
                }
            }
            if !evicted {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(reg: &SessionRegistry, name: &str) {
        reg.with_session(name, |s| {
            s.handle_line(
                r#"{"id":1,"method":"load_sources","params":{"sources":[{"name":"App.java","text":"class App { void drain(Iterator<Integer> it) { while (it.hasNext()) { it.next(); } } }"}]}}"#,
            )
        });
    }

    #[test]
    fn sessions_are_created_on_first_use_and_closable() {
        let reg = SessionRegistry::new(InferConfig::default(), None, 0);
        let (_, created) = reg.open("a");
        assert!(created);
        let (_, created_again) = reg.open("a");
        assert!(!created_again);
        assert_eq!(reg.names(), ["a"]);
        assert!(reg.close("a"));
        assert!(!reg.close("a"));
        assert!(reg.names().is_empty());
    }

    #[test]
    fn budget_evicts_the_least_recently_used_heavy_session() {
        // A budget of one byte cannot hold two loaded sessions; the older
        // one loses its heavyweight state, the newest keeps it.
        let reg = SessionRegistry::new(InferConfig::default(), None, 1);
        load(&reg, "old");
        load(&reg, "new");
        assert!(reg.evictions.load(Ordering::Relaxed) >= 1);
        let snap = reg.snapshot();
        let resident =
            |name: &str| snap.iter().find(|s| s.name == name).map(|s| s.resident).unwrap();
        assert!(resident("new") > resident("old"), "{snap:?}");
        // The evicted session still answers queries: it re-solves lazily.
        let line = reg.with_session("old", |s| {
            s.handle_line(r#"{"id":2,"method":"query_spec","params":{"method":"App.drain"}}"#)
                .response
        });
        assert!(line.contains("\"requires\""), "{line}");
    }
}
