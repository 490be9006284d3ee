//! A small map kept as one vector of entries sorted by key.
//!
//! Slot marginals and caller evidence hold a handful of entries each: a
//! slot's few abstract states, a call site's few parameters, a method's
//! few callees. A `BTreeMap` spends a 368-byte leaf on even one entry; a
//! [`VecMap`] holds exactly its entries. It iterates in key order, as the
//! `BTreeMap`s it replaced did, so hashes, store blobs and `Debug` output
//! are unchanged.

use std::borrow::Borrow;
use std::fmt;
use std::iter::Map;
use std::slice;

/// A map over a vector of `(key, value)` entries sorted by key.
///
/// It offers the `BTreeMap` methods its users call, with the same
/// semantics: collecting keeps the last value of a repeated key, and
/// iteration runs in key order. A lookup is a binary search. Collecting
/// builds the map at its final size, and inserting a new key grows it by
/// exactly one entry, shifting the entries after it, which suits maps of a
/// few entries.
#[derive(Clone, PartialEq)]
pub struct VecMap<K, V> {
    entries: Vec<(K, V)>,
}

impl<K, V> Default for VecMap<K, V> {
    fn default() -> VecMap<K, V> {
        VecMap { entries: Vec::new() }
    }
}

impl<K: Ord, V> VecMap<K, V> {
    fn find<Q: Ord + ?Sized>(&self, key: &Q) -> Result<usize, usize>
    where
        K: Borrow<Q>,
    {
        self.entries.binary_search_by(|(k, _)| k.borrow().cmp(key))
    }

    /// The value under `key`.
    pub fn get<Q: Ord + ?Sized>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
    {
        self.find(key).ok().map(|i| &self.entries[i].1)
    }

    /// Sets `key` to `value`, returning the value it replaced.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.find(&key) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                self.entries.reserve_exact(1);
                self.entries.insert(i, (key, value));
                None
            }
        }
    }
}

impl<K, V> VecMap<K, V> {
    /// The number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries in key order.
    pub fn iter(&self) -> Iter<'_, K, V> {
        self.into_iter()
    }

    /// The keys in order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.entries.iter().map(|(k, _)| k)
    }

    /// The values in key order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.iter().map(|(_, v)| v)
    }
}

impl<K: Ord, V> FromIterator<(K, V)> for VecMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> VecMap<K, V> {
        let mut entries: Vec<(K, V)> = iter.into_iter().collect();
        // Stable, so equal keys keep their collection order, and the dedup
        // keeps the last value of each, as `BTreeMap` does.
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries.dedup_by(|later, kept| {
            let repeated = later.0 == kept.0;
            if repeated {
                std::mem::swap(later, kept);
            }
            repeated
        });
        entries.shrink_to_fit();
        VecMap { entries }
    }
}

/// Borrowing iterator over a [`VecMap`]'s entries, in key order.
pub type Iter<'a, K, V> = Map<slice::Iter<'a, (K, V)>, fn(&'a (K, V)) -> (&'a K, &'a V)>;

impl<'a, K, V> IntoIterator for &'a VecMap<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = Iter<'a, K, V>;

    fn into_iter(self) -> Iter<'a, K, V> {
        self.entries.iter().map(|(k, v)| (k, v))
    }
}

impl<K, V> IntoIterator for VecMap<K, V> {
    type Item = (K, V);
    type IntoIter = std::vec::IntoIter<(K, V)>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for VecMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn behaves_like_a_btree_map() {
        let pairs = [(3, "c"), (1, "a"), (2, "b"), (1, "z"), (5, "e"), (3, "y")];
        let map: VecMap<i32, &str> = pairs.into_iter().collect();
        let tree: BTreeMap<i32, &str> = pairs.into_iter().collect();
        assert_eq!(map.iter().collect::<Vec<_>>(), tree.iter().collect::<Vec<_>>());
        assert_eq!(format!("{map:?}"), format!("{tree:?}"));
        assert_eq!(map.len(), 4);
        assert_eq!(map.get(&1), Some(&"z"), "the last value of a repeated key wins");
        assert_eq!(map.get(&4), None);
        assert_eq!(map.keys().copied().collect::<Vec<_>>(), [1, 2, 3, 5]);
        assert_eq!(map.values().copied().collect::<Vec<_>>(), ["z", "b", "y", "e"]);
        assert_eq!(map.into_iter().collect::<Vec<_>>(), tree.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn insert_keeps_key_order_and_exact_size() {
        let mut map: VecMap<String, u32> = VecMap::default();
        assert!(map.is_empty());
        for (i, key) in ["m", "c", "x", "a"].into_iter().enumerate() {
            assert_eq!(map.insert(key.to_string(), i as u32), None);
            assert_eq!(map.entries.capacity(), map.len());
        }
        assert_eq!(map.insert("c".into(), 9), Some(1));
        assert_eq!(map.keys().map(String::as_str).collect::<Vec<_>>(), ["a", "c", "m", "x"]);
        assert_eq!(map.get("c"), Some(&9), "looks up by a borrowed key");
    }
}
