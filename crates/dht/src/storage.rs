//! Per-node soft-state storage.
//!
//! DHS deletion is *implicit* (paper §3.3): every stored tuple carries a
//! time-to-live; tuples not refreshed within their TTL age out. The store
//! is keyed by an opaque `u64` the layer above composes (DHS packs
//! `(metric, vector, bit)` into it) and tracks the encoded byte size of
//! each record so storage-load experiments can read real numbers.

use std::collections::BTreeMap;

/// A stored soft-state record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoredRecord {
    /// Logical time at which the record expires (`u64::MAX` = never).
    pub expires_at: u64,
    /// Encoded (wire/storage) size in bytes, for accounting.
    pub size_bytes: u32,
    /// The overlay key this record was routed/stored under. Refreshes
    /// overwrite it; join handoff uses it to decide ownership.
    pub routing_key: u64,
}

/// A node's local key/value store with TTL semantics.
///
/// Reads at logical time `now` treat expired records as absent; expired
/// entries are compacted opportunistically by [`NodeStore::sweep`].
///
/// Keyed by a `BTreeMap` so that [`NodeStore::iter`] and
/// [`NodeStore::drain`] — the churn handoff path — walk records in key
/// order; hash-ordered handoff made replays depend on `HashMap` seed
/// state (clippy's `disallowed_types` now rejects `HashMap` outright).
#[derive(Debug, Clone, Default)]
pub struct NodeStore {
    records: BTreeMap<u64, StoredRecord>,
}

impl NodeStore {
    /// Fresh empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert or refresh a record. Re-insertion of an existing key only
    /// updates expiry/size (the paper's "update its timestamp field"):
    /// duplicate bits are deduplicated at the node.
    pub fn put(&mut self, key: u64, record: StoredRecord) {
        self.records.insert(key, record);
    }

    /// Read a live record at logical time `now`.
    pub fn get(&self, key: u64, now: u64) -> Option<&StoredRecord> {
        self.records.get(&key).filter(|r| r.expires_at > now)
    }

    /// Whether a live record exists for `key` at time `now`.
    pub fn contains(&self, key: u64, now: u64) -> bool {
        self.get(key, now).is_some()
    }

    /// Remove a record explicitly (used by graceful-leave handoff).
    pub fn remove(&mut self, key: u64) -> Option<StoredRecord> {
        self.records.remove(&key)
    }

    /// Drop every record that has expired by `now`; returns how many were
    /// dropped.
    pub fn sweep(&mut self, now: u64) -> usize {
        let before = self.records.len();
        self.records.retain(|_, r| r.expires_at > now);
        before - self.records.len()
    }

    /// Number of records currently held (including not-yet-swept expired
    /// ones; call [`sweep`](Self::sweep) first for live counts).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the store holds no records at all.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total stored bytes of *live* records at time `now`.
    pub fn live_bytes(&self, now: u64) -> u64 {
        self.records
            .values()
            .filter(|r| r.expires_at > now)
            .map(|r| u64::from(r.size_bytes))
            .sum()
    }

    /// Iterate over all (key, record) pairs, live or not (handoff path).
    pub fn iter(&self) -> impl Iterator<Item = (u64, &StoredRecord)> {
        self.records.iter().map(|(&k, r)| (k, r))
    }

    /// Drain the whole store (graceful leave: hand every record to the
    /// successor), in key order.
    pub fn drain(&mut self) -> impl Iterator<Item = (u64, StoredRecord)> + '_ {
        std::mem::take(&mut self.records).into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(expires_at: u64, size: u32) -> StoredRecord {
        StoredRecord {
            expires_at,
            size_bytes: size,
            routing_key: 0,
        }
    }

    #[test]
    fn put_get_roundtrip() {
        let mut s = NodeStore::new();
        s.put(42, rec(100, 8));
        assert!(s.contains(42, 0));
        assert!(s.contains(42, 99));
        assert_eq!(s.get(42, 0).unwrap().size_bytes, 8);
        assert!(!s.contains(7, 0));
    }

    #[test]
    fn ttl_expiry_is_exclusive() {
        let mut s = NodeStore::new();
        s.put(1, rec(10, 8));
        assert!(s.contains(1, 9));
        assert!(!s.contains(1, 10), "expires exactly at its deadline");
        assert!(!s.contains(1, 11));
    }

    #[test]
    fn reinsert_refreshes_expiry() {
        let mut s = NodeStore::new();
        s.put(1, rec(10, 8));
        s.put(1, rec(20, 8));
        assert!(s.contains(1, 15));
        assert_eq!(s.len(), 1, "refresh must not duplicate");
    }

    #[test]
    fn sweep_drops_only_expired() {
        let mut s = NodeStore::new();
        s.put(1, rec(10, 8));
        s.put(2, rec(30, 8));
        s.put(3, rec(u64::MAX, 8));
        assert_eq!(s.sweep(20), 1);
        assert_eq!(s.len(), 2);
        assert_eq!(s.sweep(20), 0);
    }

    #[test]
    fn live_bytes_ignores_expired() {
        let mut s = NodeStore::new();
        s.put(1, rec(10, 100));
        s.put(2, rec(1000, 28));
        assert_eq!(s.live_bytes(5), 128);
        assert_eq!(s.live_bytes(500), 28);
    }

    #[test]
    fn drain_empties() {
        let mut s = NodeStore::new();
        s.put(1, rec(10, 8));
        s.put(2, rec(20, 8));
        let drained: Vec<_> = s.drain().collect();
        assert_eq!(drained.len(), 2);
        assert!(s.is_empty());
    }
}
