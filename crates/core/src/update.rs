//! Updates (stream chunks) and the per-node update store.

use std::collections::BTreeMap;
use std::sync::Arc;

use pag_crypto::StoredResidue;

/// Identifier of an update: its sequence number in the source stream.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UpdateId(pub u64);

impl std::fmt::Display for UpdateId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "u{}", self.0)
    }
}

/// An update as held by a node.
///
/// Payload and residue are `Arc`-shared: the exchange path snapshots
/// updates into per-successor serve sets and per-round SA caches, and
/// every such copy used to deep-clone both fields. Shared buffers make
/// those copies refcount bumps.
#[derive(Clone, Debug)]
pub struct StoredUpdate {
    /// Identifier.
    pub id: UpdateId,
    /// Round the source created it (drives expiration).
    pub created_round: u64,
    /// Payload bytes, shared with serve sets that reference this update.
    /// Simulations use small synthetic payloads; the wire footprint is
    /// governed by `WireConfig::update_payload`.
    pub payload: Arc<[u8]>,
    /// Cached residue `payload mod M`, shared with the products computed
    /// over it, and — while the update is inside the buffermap window —
    /// its power table for hashing under each round's fresh primes.
    pub residue: StoredResidue,
    /// Round this node first obtained the update.
    pub first_received_round: u64,
}

/// Synthesizes the canonical payload of update `id` of `session`.
///
/// Deterministic: every node derives the same bytes, so residues agree
/// network-wide without shipping real video data around the test suite.
pub fn synthetic_payload(session: u64, id: UpdateId) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(16);
    bytes.extend_from_slice(&session.to_be_bytes());
    bytes.extend_from_slice(&(id.0 ^ 0xC0FF_EE00_D15E_A5E5).to_be_bytes());
    bytes
}

/// The set of updates a node owns, with window queries for buffermaps.
#[derive(Clone, Debug, Default)]
pub struct UpdateStore {
    updates: BTreeMap<UpdateId, StoredUpdate>,
}

impl UpdateStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of updates held.
    pub fn len(&self) -> usize {
        self.updates.len()
    }

    /// True when no updates are held.
    pub fn is_empty(&self) -> bool {
        self.updates.is_empty()
    }

    /// True if `id` is owned.
    pub fn contains(&self, id: UpdateId) -> bool {
        self.updates.contains_key(&id)
    }

    /// Looks up an owned update.
    pub fn get(&self, id: UpdateId) -> Option<&StoredUpdate> {
        self.updates.get(&id)
    }

    /// Inserts an update; returns `false` if it was already owned.
    pub fn insert(&mut self, update: StoredUpdate) -> bool {
        if self.updates.contains_key(&update.id) {
            return false;
        }
        self.updates.insert(update.id, update);
        true
    }

    /// Builds an update from raw parts and inserts it. `residue` runs
    /// only for an update not yet owned, so a duplicate never pays for
    /// a power table.
    pub fn insert_parts(
        &mut self,
        id: UpdateId,
        created_round: u64,
        payload: impl Into<Arc<[u8]>>,
        received_round: u64,
        residue: impl FnOnce() -> StoredResidue,
    ) -> bool {
        if self.updates.contains_key(&id) {
            return false;
        }
        self.insert(StoredUpdate {
            id,
            created_round,
            payload: payload.into(),
            residue: residue(),
            first_received_round: received_round,
        })
    }

    /// Updates first received in rounds `[from, to]` (the buffermap
    /// window), in id order.
    pub fn received_in_window(&self, from: u64, to: u64) -> Vec<&StoredUpdate> {
        self.updates
            .values()
            .filter(|u| u.first_received_round >= from && u.first_received_round <= to)
            .collect()
    }

    /// Drops updates that expired before round `round` (created more than
    /// `lifetime + slack` rounds ago). Returns how many were pruned.
    pub fn prune_expired(&mut self, round: u64, lifetime: u64, slack: u64) -> usize {
        let before = self.updates.len();
        self.updates
            .retain(|_, u| u.created_round + lifetime + slack > round);
        before - self.updates.len()
    }

    /// Drops the power tables of updates first received before round
    /// `before`: they left the buffermap window, so no buffermap or
    /// serve set hashes them any more. Bounds the tables to one per
    /// update of the window.
    pub fn release_tables(&mut self, before: u64) {
        for u in self.updates.values_mut() {
            if u.first_received_round < before {
                u.residue.drop_table();
            }
        }
    }

    /// Iterates over all owned updates in id order.
    pub fn iter(&self) -> impl Iterator<Item = &StoredUpdate> {
        self.updates.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use pag_bignum::BigUint;
    use pag_crypto::HomomorphicParams;

    const PRIME_BITS: usize = 24;

    fn params() -> HomomorphicParams {
        let mut rng = StdRng::seed_from_u64(5);
        HomomorphicParams::generate(64, &mut rng)
    }

    fn store_with(params: &HomomorphicParams, entries: &[(u64, u64, u64)]) -> UpdateStore {
        // entries: (id, created_round, received_round)
        let mut s = UpdateStore::new();
        for &(id, created, received) in entries {
            let payload = synthetic_payload(1, UpdateId(id));
            let residue = params.stored_residue(params.residue(&payload), PRIME_BITS);
            assert!(s.insert_parts(UpdateId(id), created, payload, received, || residue));
        }
        s
    }

    #[test]
    fn insert_and_dedup() {
        let p = params();
        let mut s = store_with(&p, &[(1, 0, 0)]);
        assert!(s.contains(UpdateId(1)));
        let dup = s.insert_parts(UpdateId(1), 0, vec![1], 5, || unreachable!("owned already"));
        assert!(!dup, "duplicate");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn release_tables_keeps_the_window_and_the_values() {
        let p = params();
        let mut s = store_with(&p, &[(1, 0, 0), (2, 1, 1), (3, 2, 2), (4, 3, 3)]);
        s.release_tables(2);
        let exp = BigUint::from(16_777_213u64); // 24 bits
        for u in s.iter() {
            let in_window = u.first_received_round >= 2;
            assert_eq!(u.residue.has_table(), in_window, "{}", u.id);
            let expected = p.hash_residue(&p.residue(&u.payload), &exp);
            assert_eq!(u.residue.hash(&p, &exp), expected, "{}", u.id);
        }
    }

    #[test]
    fn window_query() {
        let p = params();
        let s = store_with(&p, &[(1, 0, 0), (2, 1, 1), (3, 2, 2), (4, 5, 5)]);
        let w: Vec<u64> = s.received_in_window(1, 2).iter().map(|u| u.id.0).collect();
        assert_eq!(w, vec![2, 3]);
    }

    #[test]
    fn pruning_by_creation_round() {
        let p = params();
        let mut s = store_with(&p, &[(1, 0, 0), (2, 8, 8)]);
        // Round 12, lifetime 10, slack 1: update created at 0 expires
        // (0 + 10 + 1 <= 12), update created at 8 survives.
        assert_eq!(s.prune_expired(12, 10, 1), 1);
        assert!(!s.contains(UpdateId(1)));
        assert!(s.contains(UpdateId(2)));
    }

    #[test]
    fn synthetic_payload_is_deterministic_and_distinct() {
        assert_eq!(synthetic_payload(1, UpdateId(5)), synthetic_payload(1, UpdateId(5)));
        assert_ne!(synthetic_payload(1, UpdateId(5)), synthetic_payload(1, UpdateId(6)));
        assert_ne!(synthetic_payload(1, UpdateId(5)), synthetic_payload(2, UpdateId(5)));
    }

    #[test]
    fn residue_cached_correctly() {
        let p = params();
        let s = store_with(&p, &[(9, 0, 0)]);
        let u = s.get(UpdateId(9)).unwrap();
        assert_eq!(u.residue.value(), &p.residue(&u.payload));
    }
}
