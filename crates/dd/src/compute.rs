//! Memoization caches ("compute tables") for DD operations.
//!
//! Multiplication caches key on node ids only: for edges `w_a·A` and `w_b·B`
//! the product is `w_a·w_b · (A×B)`, so the weights factor out and one cache
//! entry serves every weighted occurrence of the same node pair. Addition
//! does not factor this way, so its cache keys include a weight ratio-free
//! canonical form: the full `(node, weight)` pairs, ordered.
//!
//! # Table design
//!
//! Each operation owns a [`ComputeTable`]: a fixed-capacity, power-of-two,
//! direct-mapped array indexed by an FxHash of the key. Collisions replace
//! the resident entry (the cache is lossy — a displaced result is merely
//! recomputed later, and hash-consing guarantees the recomputation is
//! bit-identical). Compared to the former `HashMap` tables this removes
//! SipHash, probing, and growth from the hot path and bounds memory.
//!
//! Entries survive garbage collection: instead of clearing the caches on
//! every GC, each entry records the manager *epoch* at insertion and each
//! arena slot records the epoch at which it was last freed. An entry is
//! valid iff every node it references lives in a slot that has not been
//! freed since the entry was written (see `DdManager::collect_garbage`),
//! which is sound even when freed slots are reused by new nodes.
//!
//! Every table also keeps a *base* epoch: a slot whose entry is older than
//! the base reads as empty. Forgetting the whole table is therefore O(1)
//! — the manager moves to a fresh epoch and raises the base to it
//! (`DdManager::clear_caches`, `DdManager::reset`) — instead of a write to
//! every slot.

use crate::edge::{MatEdge, NodeId, VecEdge};
use crate::hash::fx_hash;
use ddsim_complex::ComplexTableStats;
use std::hash::Hash;

/// Counters of one cache table. All counters are cumulative; use
/// [`TableStats::delta`] for per-run accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TableStats {
    /// Lookups attempted.
    pub lookups: u64,
    /// Lookups that returned a valid entry.
    pub hits: u64,
    /// Lookups that landed on a slot holding a *different* key.
    pub collisions: u64,
    /// Inserts that displaced a live entry (direct-mapped replacement).
    pub evictions: u64,
    /// Lookups that matched a key but failed epoch validation (the entry
    /// referenced a node freed by GC since it was written).
    pub stale: u64,
}

impl TableStats {
    /// Hit rate over all lookups (0.0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }

    /// Field-wise `self − before` (for per-run deltas of cumulative stats).
    #[must_use]
    pub fn delta(&self, before: &TableStats) -> TableStats {
        TableStats {
            lookups: self.lookups - before.lookups,
            hits: self.hits - before.hits,
            collisions: self.collisions - before.collisions,
            evictions: self.evictions - before.evictions,
            stale: self.stale - before.stale,
        }
    }

    /// Field-wise accumulation.
    pub fn accumulate(&mut self, other: &TableStats) {
        self.lookups += other.lookups;
        self.hits += other.hits;
        self.collisions += other.collisions;
        self.evictions += other.evictions;
        self.stale += other.stale;
    }
}

/// Counters of one unique (hash-consing) table.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UniqueTableStats {
    /// Lookups attempted.
    pub lookups: u64,
    /// Lookups that found an existing node.
    pub hits: u64,
    /// Extra probe steps beyond the home slot (open addressing).
    pub probes: u64,
    /// Capacity doublings.
    pub grows: u64,
    /// Full rebuilds after garbage collection.
    pub rebuilds: u64,
}

impl UniqueTableStats {
    /// Hit rate over all lookups (0.0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }

    /// Field-wise `self − before`.
    #[must_use]
    pub fn delta(&self, before: &UniqueTableStats) -> UniqueTableStats {
        UniqueTableStats {
            lookups: self.lookups - before.lookups,
            hits: self.hits - before.hits,
            probes: self.probes - before.probes,
            grows: self.grows - before.grows,
            rebuilds: self.rebuilds - before.rebuilds,
        }
    }

    /// Field-wise accumulation.
    pub fn accumulate(&mut self, other: &UniqueTableStats) {
        self.lookups += other.lookups;
        self.hits += other.hits;
        self.probes += other.probes;
        self.grows += other.grows;
        self.rebuilds += other.rebuilds;
    }
}

/// Per-table counters of every cache in a manager, snapshot by
/// [`DdManager::stats`](crate::DdManager::stats).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Vector-addition cache.
    pub add_vec: TableStats,
    /// Matrix-addition cache.
    pub add_mat: TableStats,
    /// Matrix-vector multiplication cache.
    pub mat_vec: TableStats,
    /// Matrix-matrix multiplication cache.
    pub mat_mat: TableStats,
    /// Conjugate-transpose cache.
    pub conj_transpose: TableStats,
    /// Vector Kronecker-product cache.
    pub kron_vec: TableStats,
    /// Matrix Kronecker-product cache.
    pub kron_mat: TableStats,
    /// Specialized gate-application cache (identity-skipping kernels).
    pub apply_gate: TableStats,
    /// Vector unique (hash-consing) table.
    pub vec_unique: UniqueTableStats,
    /// Matrix unique (hash-consing) table.
    pub mat_unique: UniqueTableStats,
    /// Complex-weight interning table (probe-length / unification
    /// telemetry; see [`ComplexTableStats`]).
    pub complex: ComplexTableStats,
}

impl CacheStats {
    /// The compute tables as `(name, stats)` pairs, in a stable order
    /// (for reports and JSON emission).
    pub fn named_compute(&self) -> [(&'static str, TableStats); 8] {
        [
            ("add_vec", self.add_vec),
            ("add_mat", self.add_mat),
            ("mat_vec", self.mat_vec),
            ("mat_mat", self.mat_mat),
            ("conj_transpose", self.conj_transpose),
            ("kron_vec", self.kron_vec),
            ("kron_mat", self.kron_mat),
            ("apply_gate", self.apply_gate),
        ]
    }

    /// The unique tables as `(name, stats)` pairs.
    pub fn named_unique(&self) -> [(&'static str, UniqueTableStats); 2] {
        [
            ("vec_unique", self.vec_unique),
            ("mat_unique", self.mat_unique),
        ]
    }

    /// Sum over all compute tables.
    pub fn compute_total(&self) -> TableStats {
        let mut total = TableStats::default();
        for (_, t) in self.named_compute() {
            total.accumulate(&t);
        }
        total
    }

    /// Field-wise `self − before`.
    #[must_use]
    pub fn delta(&self, before: &CacheStats) -> CacheStats {
        CacheStats {
            add_vec: self.add_vec.delta(&before.add_vec),
            add_mat: self.add_mat.delta(&before.add_mat),
            mat_vec: self.mat_vec.delta(&before.mat_vec),
            mat_mat: self.mat_mat.delta(&before.mat_mat),
            conj_transpose: self.conj_transpose.delta(&before.conj_transpose),
            kron_vec: self.kron_vec.delta(&before.kron_vec),
            kron_mat: self.kron_mat.delta(&before.kron_mat),
            apply_gate: self.apply_gate.delta(&before.apply_gate),
            vec_unique: self.vec_unique.delta(&before.vec_unique),
            mat_unique: self.mat_unique.delta(&before.mat_unique),
            complex: self.complex.delta(&before.complex),
        }
    }

    /// Field-wise accumulation.
    pub fn accumulate(&mut self, other: &CacheStats) {
        self.add_vec.accumulate(&other.add_vec);
        self.add_mat.accumulate(&other.add_mat);
        self.mat_vec.accumulate(&other.mat_vec);
        self.mat_mat.accumulate(&other.mat_mat);
        self.conj_transpose.accumulate(&other.conj_transpose);
        self.kron_vec.accumulate(&other.kron_vec);
        self.kron_mat.accumulate(&other.kron_mat);
        self.apply_gate.accumulate(&other.apply_gate);
        self.vec_unique.accumulate(&other.vec_unique);
        self.mat_unique.accumulate(&other.mat_unique);
        self.complex.accumulate(&other.complex);
    }
}

/// One direct-mapped slot. An `epoch` below the table's base marks an
/// empty slot (fresh slots carry 0, the manager epoch starts at 1); this
/// avoids an `Option` discriminant and keeps entries small and `Copy`.
#[derive(Clone, Copy, Debug)]
struct Entry<K, V> {
    key: K,
    value: V,
    epoch: u32,
}

/// A fixed-capacity, direct-mapped, replace-on-collision memoization table.
///
/// `lookup` takes a validation closure receiving `(key, value, entry
/// epoch)`; the caller checks every referenced node against the arenas'
/// free-epoch stamps. Invalid (stale) entries are cleared on sight.
#[derive(Debug)]
pub(crate) struct ComputeTable<K, V> {
    entries: Vec<Entry<K, V>>,
    mask: u64,
    /// Entries written before this epoch are forgotten (read as empty).
    base: u32,
    enabled: bool,
    pub stats: TableStats,
}

impl<K: Copy + PartialEq + Hash, V: Copy> ComputeTable<K, V> {
    /// A table with `2^bits` slots, every slot pre-filled with
    /// `(empty_key, empty_value)` at epoch 0, below the initial base of 1
    /// (never matched).
    fn with_bits(bits: u32, enabled: bool, empty_key: K, empty_value: V) -> Self {
        let capacity = 1usize << bits;
        ComputeTable {
            entries: vec![
                Entry {
                    key: empty_key,
                    value: empty_value,
                    epoch: 0,
                };
                capacity
            ],
            mask: (capacity - 1) as u64,
            base: 1,
            enabled,
            stats: TableStats::default(),
        }
    }

    /// Looks up `key`; a resident entry is returned only if `valid`
    /// accepts it (epoch check against the arenas, done by the caller).
    #[inline]
    pub fn lookup(&mut self, key: &K, valid: impl FnOnce(&K, &V, u32) -> bool) -> Option<V> {
        if !self.enabled {
            return None;
        }
        self.stats.lookups += 1;
        let slot = (fx_hash(key) & self.mask) as usize;
        let entry = &mut self.entries[slot];
        if entry.epoch < self.base {
            return None;
        }
        if entry.key != *key {
            self.stats.collisions += 1;
            return None;
        }
        if !valid(&entry.key, &entry.value, entry.epoch) {
            // Referenced nodes were freed; drop the entry so the slot is
            // reusable without re-validating.
            entry.epoch = 0;
            self.stats.stale += 1;
            return None;
        }
        self.stats.hits += 1;
        Some(entry.value)
    }

    /// Inserts at the key's slot, displacing whatever lives there.
    ///
    /// `epoch` is the manager's current epoch (≥ the table's base).
    #[inline]
    pub fn insert(&mut self, key: K, value: V, epoch: u32) {
        if !self.enabled {
            return;
        }
        debug_assert!(epoch >= self.base, "entry written below the base epoch");
        let slot = (fx_hash(&key) & self.mask) as usize;
        let entry = &mut self.entries[slot];
        if entry.epoch >= self.base && entry.key != key {
            self.stats.evictions += 1;
        }
        *entry = Entry { key, value, epoch };
    }

    /// Number of occupied slots (diagnostics; linear scan).
    pub fn len(&self) -> usize {
        self.entries.iter().filter(|e| e.epoch >= self.base).count()
    }

    /// Heap bytes held by the entry array (capacity-based, O(1)).
    pub fn bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<Entry<K, V>>()
    }

    /// Forgets every entry written before epoch `base` in O(1)
    /// (capacity is kept). `base` must exceed every epoch already stored.
    pub fn forget(&mut self, base: u32) {
        debug_assert!(base > self.base, "the base epoch only rises");
        self.base = base;
    }
}

/// All operation caches of a manager.
#[derive(Debug)]
pub(crate) struct ComputeTables {
    pub add_vec: ComputeTable<(VecEdge, VecEdge), VecEdge>,
    pub add_mat: ComputeTable<(MatEdge, MatEdge), MatEdge>,
    pub mat_vec: ComputeTable<(NodeId, NodeId), VecEdge>,
    pub mat_mat: ComputeTable<(NodeId, NodeId), MatEdge>,
    pub conj_transpose: ComputeTable<NodeId, MatEdge>,
    pub kron_vec: ComputeTable<(NodeId, VecEdge), VecEdge>,
    pub kron_mat: ComputeTable<(NodeId, MatEdge), MatEdge>,
    /// Keyed on (interned gate-operation tag, state node); see
    /// [`DdManager::apply_single_qubit`](crate::DdManager::apply_single_qubit).
    pub apply_gate: ComputeTable<(u32, NodeId), VecEdge>,
}

impl ComputeTables {
    pub fn new(bits: u32, enabled: bool) -> Self {
        let zv = VecEdge::ZERO;
        let zm = MatEdge::ZERO;
        let t = NodeId::TERMINAL;
        ComputeTables {
            add_vec: ComputeTable::with_bits(bits, enabled, (zv, zv), zv),
            add_mat: ComputeTable::with_bits(bits, enabled, (zm, zm), zm),
            mat_vec: ComputeTable::with_bits(bits, enabled, (t, t), zv),
            mat_mat: ComputeTable::with_bits(bits, enabled, (t, t), zm),
            conj_transpose: ComputeTable::with_bits(bits, enabled, t, zm),
            kron_vec: ComputeTable::with_bits(bits, enabled, (t, zv), zv),
            kron_mat: ComputeTable::with_bits(bits, enabled, (t, zm), zm),
            apply_gate: ComputeTable::with_bits(bits, enabled, (u32::MAX, t), zv),
        }
    }

    /// Forgets every cached entry written before epoch `base` (see
    /// [`ComputeTable::forget`]). GC does *not* call this; entries are
    /// invalidated per-node via epochs.
    pub fn forget(&mut self, base: u32) {
        self.add_vec.forget(base);
        self.add_mat.forget(base);
        self.mat_vec.forget(base);
        self.mat_mat.forget(base);
        self.conj_transpose.forget(base);
        self.kron_vec.forget(base);
        self.kron_mat.forget(base);
        self.apply_gate.forget(base);
    }

    /// Total heap bytes across every table (capacity-based, O(1)); feeds
    /// the governor's `max_table_bytes` accounting.
    pub fn bytes(&self) -> usize {
        self.add_vec.bytes()
            + self.add_mat.bytes()
            + self.mat_vec.bytes()
            + self.mat_mat.bytes()
            + self.conj_transpose.bytes()
            + self.kron_vec.bytes()
            + self.kron_mat.bytes()
            + self.apply_gate.bytes()
    }

    /// Total number of cached entries (diagnostics).
    pub fn len(&self) -> usize {
        self.add_vec.len()
            + self.add_mat.len()
            + self.mat_vec.len()
            + self.mat_mat.len()
            + self.conj_transpose.len()
            + self.kron_vec.len()
            + self.kron_mat.len()
            + self.apply_gate.len()
    }

    /// Zeroes every table's counters.
    pub fn reset_stats(&mut self) {
        self.add_vec.stats = TableStats::default();
        self.add_mat.stats = TableStats::default();
        self.mat_vec.stats = TableStats::default();
        self.mat_mat.stats = TableStats::default();
        self.conj_transpose.stats = TableStats::default();
        self.kron_vec.stats = TableStats::default();
        self.kron_mat.stats = TableStats::default();
        self.apply_gate.stats = TableStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddsim_complex::ComplexId;

    fn table() -> ComputeTable<(NodeId, NodeId), VecEdge> {
        ComputeTable::with_bits(4, true, (NodeId::TERMINAL, NodeId::TERMINAL), VecEdge::ZERO)
    }

    fn edge(node: u32) -> VecEdge {
        VecEdge {
            node: NodeId(node),
            weight: ComplexId::ONE,
        }
    }

    #[test]
    fn miss_then_hit() {
        let mut t = table();
        let key = (NodeId(1), NodeId(2));
        assert_eq!(t.lookup(&key, |_, _, _| true), None);
        t.insert(key, edge(7), 1);
        assert_eq!(t.lookup(&key, |_, _, _| true), Some(edge(7)));
        assert_eq!(t.stats.lookups, 2);
        assert_eq!(t.stats.hits, 1);
    }

    #[test]
    fn failed_validation_clears_the_entry() {
        let mut t = table();
        let key = (NodeId(1), NodeId(2));
        t.insert(key, edge(7), 1);
        assert_eq!(t.lookup(&key, |_, _, _| false), None);
        assert_eq!(t.stats.stale, 1);
        // The slot was cleared: the next probe is a plain miss, not stale.
        assert_eq!(t.lookup(&key, |_, _, _| true), None);
        assert_eq!(t.stats.stale, 1);
    }

    #[test]
    fn validation_sees_the_insertion_epoch() {
        let mut t = table();
        let key = (NodeId(3), NodeId(4));
        t.insert(key, edge(9), 42);
        let mut seen = 0;
        t.lookup(&key, |_, _, epoch| {
            seen = epoch;
            true
        });
        assert_eq!(seen, 42);
    }

    #[test]
    fn collision_replaces_on_insert() {
        // With 2^0 = 1 slot every distinct key collides.
        let mut t: ComputeTable<(NodeId, NodeId), VecEdge> =
            ComputeTable::with_bits(0, true, (NodeId::TERMINAL, NodeId::TERMINAL), VecEdge::ZERO);
        let k1 = (NodeId(1), NodeId(2));
        let k2 = (NodeId(3), NodeId(4));
        t.insert(k1, edge(1), 1);
        t.insert(k2, edge(2), 1);
        assert_eq!(t.stats.evictions, 1);
        assert_eq!(t.lookup(&k1, |_, _, _| true), None);
        assert_eq!(t.stats.collisions, 1);
        assert_eq!(t.lookup(&k2, |_, _, _| true), Some(edge(2)));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn forgotten_slot_is_a_plain_miss() {
        // With 2^0 = 1 slot every key maps to the same slot. A forgotten
        // entry must behave like a fresh empty slot: no hit, no collision
        // or stale drop on lookup, no eviction when it is overwritten.
        let mut t: ComputeTable<(NodeId, NodeId), VecEdge> =
            ComputeTable::with_bits(0, true, (NodeId::TERMINAL, NodeId::TERMINAL), VecEdge::ZERO);
        let k1 = (NodeId(1), NodeId(2));
        let k2 = (NodeId(3), NodeId(4));
        t.insert(k1, edge(1), 1);
        t.forget(2);
        assert_eq!(t.len(), 0);
        assert_eq!(t.lookup(&k1, |_, _, _| true), None);
        assert_eq!(t.lookup(&k2, |_, _, _| true), None);
        t.insert(k2, edge(2), 2);
        assert_eq!(t.lookup(&k2, |_, _, _| true), Some(edge(2)));
        assert_eq!(
            t.stats,
            TableStats {
                lookups: 3,
                hits: 1,
                collisions: 0,
                evictions: 0,
                stale: 0,
            }
        );
    }

    #[test]
    fn disabled_table_never_stores() {
        let mut t: ComputeTable<(NodeId, NodeId), VecEdge> = ComputeTable::with_bits(
            4,
            false,
            (NodeId::TERMINAL, NodeId::TERMINAL),
            VecEdge::ZERO,
        );
        let key = (NodeId(1), NodeId(2));
        t.insert(key, edge(7), 1);
        assert_eq!(t.lookup(&key, |_, _, _| true), None);
        assert_eq!(t.len(), 0);
        assert_eq!(t.stats.lookups, 0, "disabled tables do not count");
    }

    #[test]
    fn stats_delta_and_accumulate() {
        let before = TableStats {
            lookups: 10,
            hits: 4,
            collisions: 1,
            evictions: 2,
            stale: 0,
        };
        let after = TableStats {
            lookups: 25,
            hits: 14,
            collisions: 3,
            evictions: 2,
            stale: 1,
        };
        let d = after.delta(&before);
        assert_eq!(d.lookups, 15);
        assert_eq!(d.hits, 10);
        let mut acc = TableStats::default();
        acc.accumulate(&d);
        acc.accumulate(&d);
        assert_eq!(acc.lookups, 30);
        assert!((d.hit_rate() - 10.0 / 15.0).abs() < 1e-12);
    }
}
