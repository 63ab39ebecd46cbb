//! The [`DdManager`]: arenas, unique tables, normalization, reference
//! counting, and garbage collection for vector and matrix decision diagrams.
//!
//! All DD operations go through a manager; edges returned by one manager must
//! never be fed to another. Nodes are arena-allocated and hash-consed through
//! the unique tables, so structural equality of sub-diagrams is pointer
//! (index) equality — the property that makes memoized DD operations sound.
//!
//! # Epochs
//!
//! Garbage collection does **not** clear the compute tables. The manager
//! keeps a monotonically increasing `epoch` (starting at 1); every arena
//! slot records the epoch at which it was last freed (`free_epoch`, 0 for
//! never) and every compute-table entry records the epoch at which it was
//! written. An entry is valid iff every node it references satisfies
//! `free_epoch[node] < entry.epoch` — i.e. the slot has not been freed
//! (and possibly reused by an unrelated node) since the entry was written.
//! Cached results whose diagrams survive a collection keep paying off
//! across it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ddsim_complex::{Complex, ComplexId, ComplexTable};

use crate::compute::{CacheStats, ComputeTables};
use crate::edge::{Level, MatEdge, NodeId, VecEdge};
use crate::error::{BudgetBreach, CancelToken, DdError, Resource};
use crate::par::{Par, SharedLiveBudget};
use crate::unique::UniqueTable;

/// A vector-DD node: two successors (upper / lower half of the sub-vector).
///
/// 24 bytes: level + two (node, weight) edges. With the slot's `free_epoch`
/// alongside (see [`Slot`]), a node and everything the kernels read about
/// it — children, weights, cache-validation epoch — sit in 28 contiguous
/// bytes, at most one cache-line boundary away from each other.
#[derive(Clone, Copy, Debug)]
pub(crate) struct VecNode {
    pub level: Level,
    pub edges: [VecEdge; 2],
}

/// A matrix-DD node: four successors (the four quadrants, row-major).
#[derive(Clone, Copy, Debug)]
pub(crate) struct MatNode {
    pub level: Level,
    pub edges: [MatEdge; 4],
    /// Whether this node denotes the identity matrix of its level.
    ///
    /// Computed once at construction: the node is an identity iff its
    /// off-diagonal quadrants are zero and both diagonal edges are the
    /// *same* unit-weight edge to the identity one level below (or the
    /// terminal at level 1). Normalization guarantees any scalar multiple
    /// of the identity canonicalizes to this node with the scalar on the
    /// incoming edge, which is what makes the O(1) check sound.
    pub identity: bool,
}

/// Node types the [`Arena`] can store: they designate a sentinel value for
/// freed slots (a level no real node can have — levels start at 1), so the
/// arena needs no `Option`/enum discriminant around the node payload.
pub(crate) trait ArenaNode: Copy {
    /// The freed-slot sentinel.
    const FREE: Self;
    /// Whether this is the freed-slot sentinel.
    fn is_free(&self) -> bool;
}

impl ArenaNode for VecNode {
    const FREE: VecNode = VecNode {
        level: Level::MAX,
        edges: [VecEdge::ZERO; 2],
    };

    #[inline]
    fn is_free(&self) -> bool {
        self.level == Level::MAX
    }
}

impl ArenaNode for MatNode {
    const FREE: MatNode = MatNode {
        level: Level::MAX,
        edges: [MatEdge::ZERO; 4],
        identity: false,
    };

    #[inline]
    fn is_free(&self) -> bool {
        self.level == Level::MAX
    }
}

/// One arena slot: the node plus the epoch at which this slot was last
/// freed (0 = never). Freed slots hold [`ArenaNode::FREE`] and are chained
/// through the free list.
///
/// `free_epoch` lives *in* the slot (PR 7; it used to be a separate
/// parallel vector): the compute-table validity check reads a node's
/// `free_epoch` immediately before or after the kernels read the node's
/// edges, so keeping them on the same cache line turns two random accesses
/// per child into one. It is deliberately **not** reset when a slot is
/// reused — stale compute entries must never alias a new resident.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Slot<N> {
    pub(crate) node: N,
    pub(crate) free_epoch: u32,
}

pub(crate) struct Arena<N> {
    pub(crate) slots: Vec<Slot<N>>,
    pub(crate) refcounts: Vec<u32>,
    pub(crate) free: Vec<u32>,
}

impl<N: ArenaNode> Arena<N> {
    fn new() -> Self {
        Arena {
            slots: Vec::new(),
            refcounts: Vec::new(),
            free: Vec::new(),
        }
    }

    fn get(&self, id: NodeId) -> &N {
        let slot = &self.slots[id.index()];
        assert!(!slot.node.is_free(), "use-after-free of DD node {id:?}");
        &slot.node
    }

    /// Whether a compute-table entry written at `entry_epoch` may still
    /// reference `id`: the slot has not been freed (and possibly reused by
    /// an unrelated node) since the entry was written.
    #[inline]
    pub(crate) fn is_live(&self, id: NodeId, entry_epoch: u32) -> bool {
        id.is_terminal() || self.slots[id.index()].free_epoch < entry_epoch
    }

    fn alloc(&mut self, node: N) -> NodeId {
        if let Some(idx) = self.free.pop() {
            // Keep the old free_epoch: entries cached before the previous
            // occupant was freed must stay invalid for the new resident.
            self.slots[idx as usize].node = node;
            self.refcounts[idx as usize] = 0;
            NodeId(idx)
        } else {
            let idx = u32::try_from(self.slots.len()).expect("DD arena overflow");
            self.slots.push(Slot {
                node,
                free_epoch: 0,
            });
            self.refcounts.push(0);
            NodeId(idx)
        }
    }

    fn free_slot(&mut self, id: NodeId, epoch: u32) -> N {
        let slot = &mut self.slots[id.index()];
        assert!(!slot.node.is_free(), "double free of DD node {id:?}");
        let node = std::mem::replace(&mut slot.node, N::FREE);
        slot.free_epoch = epoch;
        self.free.push(id.0);
        node
    }

    fn live_count(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Heap bytes held by the arena's parallel vectors (capacity-based,
    /// O(1)); feeds the governor's table-byte accounting.
    fn bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Slot<N>>()
            + self.refcounts.capacity() * std::mem::size_of::<u32>()
            + self.free.capacity() * std::mem::size_of::<u32>()
    }

    /// `(key, id)` pairs of every occupied slot, for unique-table rebuilds.
    fn live_entries<'a, K>(
        &'a self,
        key_of: impl Fn(&N) -> K + 'a,
    ) -> impl Iterator<Item = (K, NodeId)> + 'a
    where
        K: 'static,
    {
        self.slots.iter().enumerate().filter_map(move |(i, slot)| {
            if slot.node.is_free() {
                None
            } else {
                Some((key_of(&slot.node), NodeId(i as u32)))
            }
        })
    }
}

/// Cumulative operation statistics, used by the paper's Example-3-style
/// traces and by the benchmark harness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DdStats {
    /// Matrix-vector multiplications performed (top-level calls).
    pub mat_vec_mults: u64,
    /// Matrix-matrix multiplications performed (top-level calls).
    pub mat_mat_mults: u64,
    /// Recursive multiply steps (both kinds), a machine-independent cost proxy.
    pub mult_recursions: u64,
    /// Recursive addition steps.
    pub add_recursions: u64,
    /// Compute-table hits across all operation caches.
    pub compute_hits: u64,
    /// Compute-table lookups across all operation caches.
    pub compute_lookups: u64,
    /// Multiplications short-circuited on a recognized identity operand.
    pub identity_skips: u64,
    /// Gate applications served by the specialized identity-skipping
    /// kernels ([`DdManager::apply_single_qubit`] /
    /// [`DdManager::apply_controlled`]) without building a matrix DD.
    pub specialized_applies: u64,
    /// Garbage collections run.
    pub gc_runs: u64,
    /// Per-table cache counters (compute and unique tables).
    pub cache: CacheStats,
}

/// Configuration for a [`DdManager`].
#[derive(Clone, Copy, Debug)]
pub struct DdConfig {
    /// Numerical tolerance for unifying edge weights.
    pub tolerance: f64,
    /// Run garbage collection once the live node count exceeds this value
    /// (checked only inside [`DdManager::maybe_collect`]).
    pub gc_threshold: usize,
    /// log2 of each compute table's slot count. The tables are
    /// direct-mapped and lossy, so this bounds cache memory; larger values
    /// trade memory for fewer collision evictions.
    pub compute_table_bits: u32,
    /// log2 of each unique table's *initial* slot count (they grow, and
    /// GC rebuilds shrink back toward this floor).
    pub unique_table_bits: u32,
    /// Disables all compute-table memoization when `false` (the diagrams
    /// produced are identical; only the work to build them changes).
    pub cache_enabled: bool,
    /// Enables identity recognition in the multiplication kernels and the
    /// specialized gate-application fast paths when `true`. Disabling
    /// routes everything through the generic recursions (the diagrams
    /// produced are identical; only the work to build them changes).
    pub identity_skip: bool,
    /// Budget on live (allocated, not freed) nodes across both arenas.
    /// `None` disables the check. Enforced at amortized O(1) cost inside
    /// the operation recursions (see `DdManager::charge`); overshoot is
    /// bounded by one check interval of allocations.
    pub max_live_nodes: Option<usize>,
    /// Budget on bytes held by the arenas, unique tables, and compute
    /// tables. `None` disables the check. Because unique-table growth
    /// stays infallible (a failed rehash mid-insert would strand nodes),
    /// the budget is enforced at the next amortized check; overshoot is
    /// bounded by one capacity doubling of the largest table.
    pub max_table_bytes: Option<usize>,
    /// Test-only fault injection used by the fuzzing harness's
    /// `--self-check` to prove its oracles catch engine defects. Must stay
    /// [`FaultKind::None`] everywhere else.
    pub fault: crate::FaultKind,
}

impl Default for DdConfig {
    fn default() -> Self {
        DdConfig {
            tolerance: ddsim_complex::DEFAULT_TOLERANCE,
            gc_threshold: 250_000,
            compute_table_bits: 16,
            unique_table_bits: 14,
            cache_enabled: true,
            identity_skip: true,
            max_live_nodes: None,
            max_table_bytes: None,
            fault: crate::FaultKind::None,
        }
    }
}

/// Owner of all decision-diagram state: node arenas, unique tables, the
/// complex-weight table, memoization caches, and statistics.
///
/// # Examples
///
/// ```
/// use ddsim_dd::DdManager;
///
/// let mut dd = DdManager::new();
/// let state = dd.vec_basis(3, 0b010);
/// assert_eq!(dd.vec_node_count(state), 3);
/// ```
pub struct DdManager {
    pub(crate) complex: ComplexTable,
    pub(crate) vec_arena: Arena<VecNode>,
    pub(crate) mat_arena: Arena<MatNode>,
    pub(crate) vec_unique: UniqueTable<(Level, [VecEdge; 2])>,
    pub(crate) mat_unique: UniqueTable<(Level, [MatEdge; 4])>,
    pub(crate) compute: ComputeTables,
    /// Current epoch (starts at 1; 0 is the compute tables' empty
    /// sentinel). Incremented by every garbage collection.
    pub(crate) epoch: u32,
    pub(crate) stats: DdStats,
    pub(crate) config: DdConfig,
    /// Canonical identity edges by qubit count (`identity_cache[i]` is the
    /// identity over `i + 1` qubits). Nodes are ref-pinned so they survive
    /// garbage collection; all weights are ONE.
    pub(crate) identity_cache: Vec<MatEdge>,
    /// Interned specialized gate operations (see `apply.rs`).
    pub(crate) apply_ops: crate::apply::ApplyOpRegistry,
    /// Wall-clock deadline; operations unwind with
    /// [`DdError::DeadlineExceeded`] once it passes.
    deadline: Option<Instant>,
    /// Cooperative cancellation flag; operations unwind with
    /// [`DdError::Cancelled`] once it latches.
    cancel: Option<CancelToken>,
    /// Countdown to the next full governor check (see [`charge`](Self::charge)).
    charge_countdown: u32,
    /// Depth of governor suspensions: while positive, `charge` never
    /// fails. Used by infallible constructors (gate building) whose work
    /// per call is O(qubits) and therefore cannot run away.
    governor_suspended: u32,
    /// Cached "any limit configured?" flag: true iff a budget, deadline,
    /// or cancel token is set. Read once per top-level operation by the
    /// entry points in `ops.rs` / `apply.rs` to pick the governed or
    /// ungoverned kernel instantiation (see `govern.rs`) — when false,
    /// the recursions carry no charge branches at all.
    governed: bool,
    /// Details of the most recent budget trip (the matching
    /// [`DdError::BudgetExceeded`] is a bare discriminant; see
    /// [`BudgetBreach`]).
    last_breach: Option<BudgetBreach>,
    /// Execution policy for the multiplication kernels (see `par.rs`).
    /// [`Par::Seq`] by default; the sequential path is untouched by it.
    par: Par,
    /// Worker-side view of a fork-join coordinator's shared live-node
    /// budget (see [`SharedLiveBudget`]); `None` outside fork-join workers.
    shared_live: Option<SharedLiveBudget>,
    /// The qubit↔level permutation (see `reorder.rs`). Identity until a
    /// [`swap_levels`](Self::swap_levels) / [`sift_state`](Self::sift_state)
    /// changes it; every qubit-indexed accessor translates through it.
    pub(crate) var_order: crate::VarOrder,
}

/// Recursion steps between full governor checks. Keeps the per-step cost
/// of budget enforcement to a decrement-and-branch while bounding budget
/// overshoot to one interval's worth of allocations.
const CHARGE_INTERVAL: u32 = 1024;

impl DdManager {
    /// Creates a manager with the default configuration.
    pub fn new() -> Self {
        Self::with_config(DdConfig::default())
    }

    /// Creates a manager with an explicit configuration.
    pub fn with_config(config: DdConfig) -> Self {
        DdManager {
            complex: ComplexTable::with_tolerance(config.tolerance),
            vec_arena: Arena::new(),
            mat_arena: Arena::new(),
            vec_unique: UniqueTable::with_bits(config.unique_table_bits, (0, [VecEdge::ZERO; 2])),
            mat_unique: UniqueTable::with_bits(config.unique_table_bits, (0, [MatEdge::ZERO; 4])),
            compute: ComputeTables::new(config.compute_table_bits, config.cache_enabled),
            epoch: 1,
            stats: DdStats::default(),
            config,
            identity_cache: Vec::new(),
            apply_ops: crate::apply::ApplyOpRegistry::default(),
            deadline: None,
            cancel: None,
            charge_countdown: CHARGE_INTERVAL,
            governor_suspended: 0,
            governed: config.max_live_nodes.is_some() || config.max_table_bytes.is_some(),
            last_breach: None,
            par: Par::default(),
            shared_live: None,
            var_order: crate::VarOrder::identity(),
        }
    }

    /// The active qubit↔level permutation (identity unless a reorder ran).
    pub fn var_order(&self) -> &crate::VarOrder {
        &self.var_order
    }

    /// Installs a qubit↔level permutation directly, **without** rebuilding
    /// any diagram. Only sound on a manager whose vector diagrams were
    /// built under (or already denote) that order — snapshot restore and
    /// tests; everyone else goes through
    /// [`swap_levels`](Self::swap_levels) / [`sift_state`](Self::sift_state).
    pub fn set_var_order(&mut self, order: crate::VarOrder) {
        self.var_order = order;
    }

    /// Sets the execution policy for subsequent multiplication kernels.
    /// [`Par::Seq`] (the default) and any pool of parallelism 1 run the
    /// exact sequential code path.
    pub fn set_par(&mut self, par: Par) {
        self.par = par;
    }

    /// The active execution policy.
    pub fn par(&self) -> &Par {
        &self.par
    }

    /// The active configuration.
    pub fn config(&self) -> DdConfig {
        self.config
    }

    /// Cumulative operation statistics, including the per-table cache
    /// counters (collected live from the tables).
    pub fn stats(&self) -> DdStats {
        let cache = self.cache_stats();
        let totals = cache.compute_total();
        DdStats {
            compute_hits: totals.hits,
            compute_lookups: totals.lookups,
            cache,
            ..self.stats
        }
    }

    /// Per-table cache counters only.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            add_vec: self.compute.add_vec.stats,
            add_mat: self.compute.add_mat.stats,
            mat_vec: self.compute.mat_vec.stats,
            mat_mat: self.compute.mat_mat.stats,
            conj_transpose: self.compute.conj_transpose.stats,
            kron_vec: self.compute.kron_vec.stats,
            kron_mat: self.compute.kron_mat.stats,
            apply_gate: self.compute.apply_gate.stats,
            vec_unique: self.vec_unique.stats,
            mat_unique: self.mat_unique.stats,
            complex: self.complex.stats(),
        }
    }

    /// Live occupancy of the complex-weight interning table:
    /// `(occupied grid buckets, longest bucket)`. Reported by `--stats`
    /// alongside the [`ComplexTableStats`](ddsim_complex::ComplexTableStats)
    /// counters; computed on demand (O(buckets)), not kept hot.
    pub fn complex_table_occupancy(&self) -> (usize, usize) {
        (self.complex.bucket_count(), self.complex.max_bucket_len())
    }

    /// Merges a fork-join worker's statistics into this manager's, so a
    /// threaded run reports the combined work of every shard. Operation
    /// counters add directly; cache telemetry accumulates into the live
    /// tables' counters (`compute_hits` / `compute_lookups` are *derived*
    /// from those by [`stats`](Self::stats), so they are never added
    /// here — doing so would double-count).
    pub(crate) fn absorb_worker(&mut self, w: &DdStats) {
        self.stats.mat_vec_mults += w.mat_vec_mults;
        self.stats.mat_mat_mults += w.mat_mat_mults;
        self.stats.mult_recursions += w.mult_recursions;
        self.stats.add_recursions += w.add_recursions;
        self.stats.identity_skips += w.identity_skips;
        self.stats.specialized_applies += w.specialized_applies;
        self.stats.gc_runs += w.gc_runs;
        self.compute.add_vec.stats.accumulate(&w.cache.add_vec);
        self.compute.add_mat.stats.accumulate(&w.cache.add_mat);
        self.compute.mat_vec.stats.accumulate(&w.cache.mat_vec);
        self.compute.mat_mat.stats.accumulate(&w.cache.mat_mat);
        self.compute
            .conj_transpose
            .stats
            .accumulate(&w.cache.conj_transpose);
        self.compute.kron_vec.stats.accumulate(&w.cache.kron_vec);
        self.compute.kron_mat.stats.accumulate(&w.cache.kron_mat);
        self.compute
            .apply_gate
            .stats
            .accumulate(&w.cache.apply_gate);
        self.vec_unique.stats.accumulate(&w.cache.vec_unique);
        self.mat_unique.stats.accumulate(&w.cache.mat_unique);
        self.complex.stats_mut().accumulate(&w.cache.complex);
    }

    /// Resets the statistics counters (the diagrams are untouched).
    pub fn reset_stats(&mut self) {
        self.stats = DdStats::default();
        self.compute.reset_stats();
        self.vec_unique.stats = Default::default();
        self.mat_unique.stats = Default::default();
        *self.complex.stats_mut() = Default::default();
    }

    /// Interns a raw complex value, returning its canonical id.
    pub fn intern(&mut self, c: Complex) -> ComplexId {
        self.complex.lookup(c)
    }

    /// The complex value behind an interned id.
    pub fn complex_value(&self, id: ComplexId) -> Complex {
        self.complex.value(id)
    }

    /// Number of live (allocated, not freed) vector nodes.
    pub fn live_vec_nodes(&self) -> usize {
        self.vec_arena.live_count()
    }

    /// Number of live (allocated, not freed) matrix nodes.
    pub fn live_mat_nodes(&self) -> usize {
        self.mat_arena.live_count()
    }

    /// Total entries across all memoization caches (diagnostics).
    pub fn compute_table_entries(&self) -> usize {
        self.compute.len()
    }

    /// Total registered nodes across both unique tables (diagnostics).
    /// Unlike the live counts this includes nodes awaiting collection.
    pub fn unique_table_entries(&self) -> usize {
        self.vec_unique.len() + self.mat_unique.len()
    }

    /// Drops every memoized result (the unique tables and diagrams are
    /// untouched). Garbage collection does *not* do this — entries are
    /// invalidated per-node via epochs — so this is a benchmarking /
    /// diagnostics hook for forcing cold caches.
    pub fn clear_caches(&mut self) {
        self.compute.clear();
    }

    /// Number of distinct interned edge weights (diagnostics).
    pub fn distinct_weights(&self) -> usize {
        self.complex.len()
    }

    // ------------------------------------------------------------------
    // Resource governor
    // ------------------------------------------------------------------

    /// Sets (or clears) the wall-clock deadline. Operations in flight
    /// unwind with [`DdError::DeadlineExceeded`] at their next governor
    /// check once the instant passes.
    pub fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.deadline = deadline;
        self.refresh_governed();
        // Force the next charge to do a full check so a freshly expired
        // deadline is observed promptly.
        self.charge_countdown = self.charge_countdown.min(1);
    }

    /// The active wall-clock deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Registers (or clears) a cooperative [`CancelToken`]. Operations in
    /// flight unwind with [`DdError::Cancelled`] at their next governor
    /// check once the token latches.
    pub fn set_cancel_token(&mut self, token: Option<CancelToken>) {
        self.cancel = token;
        self.refresh_governed();
        self.charge_countdown = self.charge_countdown.min(1);
    }

    /// A clone of the registered [`CancelToken`], if any (clones share the
    /// latch).
    pub fn cancel_token(&self) -> Option<CancelToken> {
        self.cancel.clone()
    }

    /// Bytes currently held by the node arenas, unique tables, and compute
    /// tables — the quantity governed by
    /// [`DdConfig::max_table_bytes`]. O(1): computed from capacities.
    pub fn tracked_bytes(&self) -> usize {
        self.vec_arena.bytes()
            + self.mat_arena.bytes()
            + self.vec_unique.bytes()
            + self.mat_unique.bytes()
            + self.compute.bytes()
    }

    /// Whether any limit (budget, deadline, or cancel token) is configured.
    /// The public entry points in `ops.rs` / `apply.rs` read this **once
    /// per top-level operation** to pick the [`Governed`](crate::govern)
    /// or [`Ungoverned`](crate::govern) kernel instantiation.
    #[inline]
    pub(crate) fn is_governed(&self) -> bool {
        self.governed
    }

    /// One amortized governor step, called from every *governed* operation
    /// recursion: a decrement-and-branch on the hot path, with a full
    /// budget / deadline / cancellation check every [`CHARGE_INTERVAL`]
    /// steps. The ungoverned kernel instantiation compiles to code that
    /// never calls this (see `govern.rs`).
    #[inline]
    pub(crate) fn charge(&mut self) -> Result<(), DdError> {
        debug_assert!(
            self.governed,
            "charge reached through the ungoverned dispatch"
        );
        self.charge_countdown -= 1;
        if self.charge_countdown == 0 {
            self.charge_countdown = CHARGE_INTERVAL;
            self.charge_full()
        } else {
            Ok(())
        }
    }

    /// Records breach details and returns the matching error.
    fn breach(&mut self, resource: Resource, limit: u64, observed: u64) -> DdError {
        self.last_breach = Some(BudgetBreach {
            resource,
            limit,
            observed,
        });
        DdError::BudgetExceeded
    }

    /// Details of the most recent [`DdError::BudgetExceeded`] raised by
    /// this manager, if any.
    pub fn last_breach(&self) -> Option<BudgetBreach> {
        self.last_breach
    }

    /// Records breach details harvested from a fork-join worker, so the
    /// coordinator surfaces them exactly as a sequential trip would.
    pub(crate) fn record_breach(&mut self, breach: BudgetBreach) {
        self.last_breach = Some(breach);
    }

    /// Enrolls this (worker) manager in a fork-join coordinator's shared
    /// live-node budget: each full governor check flushes the worker's
    /// arena-count delta into `counter` and trips on the combined total.
    pub(crate) fn install_shared_live(&mut self, counter: Arc<AtomicUsize>, limit: usize) {
        self.shared_live = Some(SharedLiveBudget {
            counter,
            limit,
            flushed: 0,
        });
        self.refresh_governed();
        // First charge must do a full check: imports allocate nodes before
        // any recursion runs, and short workloads may never reach the
        // amortization interval.
        self.charge_countdown = self.charge_countdown.min(1);
    }

    /// Recomputes the [`governed`](field@Self::governed) fast-path flag;
    /// call after any change to budgets, deadline, or cancel token.
    pub(crate) fn refresh_governed(&mut self) {
        self.governed = self.cancel.is_some()
            || self.deadline.is_some()
            || self.config.max_live_nodes.is_some()
            || self.config.max_table_bytes.is_some()
            || self.shared_live.is_some();
    }

    /// The full governor check (cold path of [`charge`](Self::charge)).
    /// Kept out of line so the inlined `charge` stays a decrement-and-branch
    /// at its many recursion call sites.
    #[cold]
    #[inline(never)]
    fn charge_full(&mut self) -> Result<(), DdError> {
        if self.governor_suspended > 0 {
            return Ok(());
        }
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Err(DdError::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(DdError::DeadlineExceeded);
            }
        }
        if let Some(limit) = self.config.max_live_nodes {
            let live = self.vec_arena.live_count() + self.mat_arena.live_count();
            if live > limit {
                return Err(self.breach(Resource::LiveNodes, limit as u64, live as u64));
            }
        }
        if self.shared_live.is_some() {
            let local = self.vec_arena.live_count() + self.mat_arena.live_count();
            let (total, limit) = {
                let shared = self.shared_live.as_mut().expect("checked above");
                // Flush this worker's delta into the fleet-wide counter.
                // Relaxed suffices: the counter is a monotonic-ish tally,
                // not a synchronization point, and overshoot is already
                // bounded by the amortization interval.
                let total = if local >= shared.flushed {
                    shared
                        .counter
                        .fetch_add(local - shared.flushed, Ordering::Relaxed)
                        + (local - shared.flushed)
                } else {
                    shared
                        .counter
                        .fetch_sub(shared.flushed - local, Ordering::Relaxed)
                        - (shared.flushed - local)
                };
                shared.flushed = local;
                (total, shared.limit)
            };
            if total > limit {
                return Err(self.breach(Resource::LiveNodes, limit as u64, total as u64));
            }
        }
        if let Some(limit) = self.config.max_table_bytes {
            let bytes = self.tracked_bytes();
            if bytes > limit {
                return Err(self.breach(Resource::TableBytes, limit as u64, bytes as u64));
            }
        }
        Ok(())
    }

    /// An immediate interrupt check (cancellation and deadline), for
    /// callers that sit between operations (e.g. the engine's per-op
    /// loop) and want prompt observation without waiting out the
    /// amortization interval.
    ///
    /// Deliberately does NOT include the resource budgets: between ops
    /// the arena legitimately carries garbage that the next governed
    /// operation's degradation ladder would collect, so a budget check
    /// here would turn recoverable pressure into a hard
    /// `BudgetExceeded` with no rescue path (it did, before checkpointed
    /// runs under a live-node budget exposed it).
    pub fn check_interrupts(&mut self) -> Result<(), DdError> {
        if self.governor_suspended > 0 {
            return Ok(());
        }
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Err(DdError::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(DdError::DeadlineExceeded);
            }
        }
        Ok(())
    }

    /// Runs `f` with the governor suspended: `charge` cannot fail inside.
    ///
    /// Reserved for gate *construction* (`mat_controlled`'s internal
    /// matrix addition), whose work is O(qubits) per call and therefore
    /// cannot blow past a budget by more than a gate's worth of nodes —
    /// the next governed operation observes any excess.
    ///
    /// The suspension depth is restored by an RAII guard, so a panic
    /// inside `f` (reachable via the fuzz harness's `catch_unwind` replay
    /// of a reused manager) cannot leave the governor permanently
    /// suspended.
    pub(crate) fn with_governor_suspended<R>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<R, DdError>,
    ) -> R {
        struct Suspend<'a>(&'a mut DdManager);
        impl Drop for Suspend<'_> {
            fn drop(&mut self) {
                self.0.governor_suspended -= 1;
            }
        }
        self.governor_suspended += 1;
        let guard = Suspend(self);
        let result = f(&mut *guard.0);
        match result {
            Ok(r) => r,
            // Unreachable: charge_full returns Ok while suspended.
            Err(e) => unreachable!("governed failure while suspended: {e}"),
        }
    }

    // ------------------------------------------------------------------
    // Node access
    // ------------------------------------------------------------------

    pub(crate) fn vec_node(&self, id: NodeId) -> &VecNode {
        self.vec_arena.get(id)
    }

    pub(crate) fn mat_node(&self, id: NodeId) -> &MatNode {
        self.mat_arena.get(id)
    }

    /// The level of a vector edge (0 for terminal edges).
    pub fn vec_level(&self, e: VecEdge) -> Level {
        if e.node.is_terminal() {
            0
        } else {
            self.vec_node(e.node).level
        }
    }

    /// The level of a matrix edge (0 for terminal edges).
    pub fn mat_level(&self, e: MatEdge) -> Level {
        if e.node.is_terminal() {
            0
        } else {
            self.mat_node(e.node).level
        }
    }

    /// The two children of a vector edge's node, with the edge weight
    /// already multiplied in. A unit incoming weight (the common case after
    /// normalization) returns the stored edges untouched; otherwise each
    /// child weight is multiplied in, in child order.
    pub(crate) fn vec_children_weighted(&mut self, e: VecEdge) -> [VecEdge; 2] {
        debug_assert!(!e.node.is_terminal());
        let mut out = self.vec_node(e.node).edges;
        if !e.weight.is_one() {
            for child in &mut out {
                child.weight = self.complex.mul(e.weight, child.weight);
            }
        }
        out
    }

    /// The four children of a matrix edge's node, with the edge weight
    /// already multiplied in, as in
    /// [`vec_children_weighted`](Self::vec_children_weighted).
    pub(crate) fn mat_children_weighted(&mut self, e: MatEdge) -> [MatEdge; 4] {
        debug_assert!(!e.node.is_terminal());
        let mut out = self.mat_node(e.node).edges;
        if !e.weight.is_one() {
            for child in &mut out {
                child.weight = self.complex.mul(e.weight, child.weight);
            }
        }
        out
    }

    // ------------------------------------------------------------------
    // Normalizing constructors
    // ------------------------------------------------------------------

    /// Creates (or reuses) the canonical vector node at `level` with the
    /// given children, returning a normalized edge to it.
    ///
    /// Normalization pushes the largest-magnitude child weight (ties broken
    /// by child order) onto the returned edge so that structurally equal
    /// sub-vectors (up to a scalar) share one node. Normalizing by the
    /// *largest* weight keeps all stored weights at magnitude ≤ 1, where the
    /// absolute unification tolerance is meaningful — normalizing by an
    /// arbitrary (e.g. leftmost) weight lets magnitudes drift across scales
    /// and the distinct-weight population explode.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if a nonzero child is not exactly one level
    /// below `level` (QMDDs never skip levels).
    pub fn make_vec_node(&mut self, level: Level, mut edges: [VecEdge; 2]) -> VecEdge {
        debug_assert!(level >= 1);
        for e in &edges {
            debug_assert!(
                e.is_zero() || self.vec_level(*e) == level - 1,
                "child level mismatch when building vector node"
            );
        }
        // Zero children must be the canonical zero edge.
        for e in &mut edges {
            if e.weight.is_zero() {
                *e = VecEdge::ZERO;
            }
        }
        let top = match self.pivot_weight(edges.iter().map(|e| e.weight)) {
            Some(w) => w,
            None => return VecEdge::ZERO,
        };
        for e in &mut edges {
            e.weight = self.complex.div(e.weight, top);
        }
        let key = (level, edges);
        let node = match self.vec_unique.get(&key) {
            Some(id) => id,
            None => {
                let id = self.vec_arena.alloc(VecNode { level, edges });
                self.vec_unique.insert(key, id);
                // Structural references to children.
                for e in &edges {
                    self.inc_ref_node_vec(e.node);
                }
                id
            }
        };
        VecEdge { node, weight: top }
    }

    /// Creates (or reuses) the canonical matrix node at `level` with the
    /// given quadrant children, returning a normalized edge to it.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if a nonzero child is not exactly one level
    /// below `level`.
    pub fn make_mat_node(&mut self, level: Level, mut edges: [MatEdge; 4]) -> MatEdge {
        debug_assert!(level >= 1);
        for e in &edges {
            debug_assert!(
                e.is_zero() || self.mat_level(*e) == level - 1,
                "child level mismatch when building matrix node"
            );
        }
        for e in &mut edges {
            if e.weight.is_zero() {
                *e = MatEdge::ZERO;
            }
        }
        let top = match self.pivot_weight(edges.iter().map(|e| e.weight)) {
            Some(w) => w,
            None => return MatEdge::ZERO,
        };
        for e in &mut edges {
            e.weight = self.complex.div(e.weight, top);
        }
        let key = (level, edges);
        let node = match self.mat_unique.get(&key) {
            Some(id) => id,
            None => {
                // Identity recognition happens once, here: after
                // normalization a (scaled) identity always has zero
                // off-diagonal quadrants and the *same* unit-weight edge to
                // an identity child in both diagonal slots, so the check is
                // purely structural and O(1).
                let identity = if self.config.fault == crate::FaultKind::DiagonalCountsAsIdentity {
                    // Injected fault: any block-diagonal node passes, so
                    // diagonal gates get skipped as identities downstream.
                    edges[1].is_zero() && edges[2].is_zero() && !edges[0].is_zero()
                } else {
                    edges[1].is_zero()
                        && edges[2].is_zero()
                        && edges[0] == edges[3]
                        && !edges[0].is_zero()
                        && edges[0].weight.is_one()
                        && self.is_identity_node(edges[0].node)
                };
                let id = self.mat_arena.alloc(MatNode {
                    level,
                    edges,
                    identity,
                });
                self.mat_unique.insert(key, id);
                for e in &edges {
                    self.inc_ref_node_mat(e.node);
                }
                id
            }
        };
        MatEdge { node, weight: top }
    }

    /// Whether `id` denotes an identity matrix node (the terminal counts:
    /// it is the 1x1 identity when reached with weight ONE). O(1) — reads
    /// the flag stamped at construction.
    #[inline]
    pub(crate) fn is_identity_node(&self, id: NodeId) -> bool {
        id.is_terminal() || self.mat_node(id).identity
    }

    /// Whether `e` is *exactly* the identity matrix of its level: a
    /// unit-weight edge to an identity node. O(1).
    ///
    /// Scaled identities (`c·I` with `c ≠ 1`) return `false`; the
    /// multiplication kernels check the node flag directly because the
    /// scalar factors out of products anyway.
    #[inline]
    pub fn is_identity(&self, e: MatEdge) -> bool {
        e.weight.is_one() && self.is_identity_node(e.node)
    }

    /// The normalization pivot: the first weight of strictly maximal
    /// magnitude (`None` if all are zero). Deterministic given interned
    /// child ids, which keeps node construction canonical.
    pub(crate) fn pivot_weight(
        &self,
        weights: impl Iterator<Item = ComplexId>,
    ) -> Option<ComplexId> {
        let mut best: Option<(ComplexId, f64)> = None;
        for w in weights {
            if w.is_zero() {
                continue;
            }
            let mag = self.complex.norm_sqr(w);
            match best {
                Some((_, best_mag)) if best_mag >= mag => {}
                _ => best = Some((w, mag)),
            }
        }
        best.map(|(w, _)| w)
    }

    // ------------------------------------------------------------------
    // Reference counting & garbage collection
    // ------------------------------------------------------------------

    fn inc_ref_node_vec(&mut self, id: NodeId) {
        if !id.is_terminal() {
            self.vec_arena.refcounts[id.index()] += 1;
        }
    }

    fn inc_ref_node_mat(&mut self, id: NodeId) {
        if !id.is_terminal() {
            self.mat_arena.refcounts[id.index()] += 1;
        }
    }

    /// Registers an external reference to a vector edge's root node,
    /// protecting the whole sub-diagram from garbage collection.
    pub fn inc_ref_vec(&mut self, e: VecEdge) {
        self.inc_ref_node_vec(e.node);
    }

    /// Releases an external reference previously taken with
    /// [`inc_ref_vec`](Self::inc_ref_vec).
    ///
    /// # Panics
    ///
    /// Panics if the node's reference count is already zero.
    pub fn dec_ref_vec(&mut self, e: VecEdge) {
        if !e.node.is_terminal() {
            let rc = &mut self.vec_arena.refcounts[e.node.index()];
            assert!(*rc > 0, "vector refcount underflow");
            *rc -= 1;
        }
    }

    /// Registers an external reference to a matrix edge's root node.
    pub fn inc_ref_mat(&mut self, e: MatEdge) {
        self.inc_ref_node_mat(e.node);
    }

    /// Releases an external reference previously taken with
    /// [`inc_ref_mat`](Self::inc_ref_mat).
    ///
    /// # Panics
    ///
    /// Panics if the node's reference count is already zero.
    pub fn dec_ref_mat(&mut self, e: MatEdge) {
        if !e.node.is_terminal() {
            let rc = &mut self.mat_arena.refcounts[e.node.index()];
            assert!(*rc > 0, "matrix refcount underflow");
            *rc -= 1;
        }
    }

    /// Runs garbage collection if the live node count exceeds the configured
    /// threshold. Returns whether a collection ran.
    ///
    /// Must only be called between operations: any edge not protected by an
    /// external reference (via [`inc_ref_vec`](Self::inc_ref_vec) /
    /// [`inc_ref_mat`](Self::inc_ref_mat)) is reclaimed.
    pub fn maybe_collect(&mut self) -> bool {
        if self.vec_arena.live_count() + self.mat_arena.live_count() > self.config.gc_threshold {
            self.collect_garbage();
            true
        } else {
            false
        }
    }

    /// Unconditionally reclaims every node whose reference count is zero
    /// (cascading) and rebuilds the unique tables over the survivors.
    ///
    /// The compute tables are **not** cleared: every slot freed here is
    /// stamped with the current epoch, which invalidates exactly the
    /// cached entries referencing it (entries carry their insertion
    /// epoch; validity is `free_epoch < entry_epoch`). Entries whose
    /// diagrams survive keep serving hits across the collection.
    pub fn collect_garbage(&mut self) {
        self.stats.gc_runs += 1;
        let free_epoch = self.epoch;

        // Sweep vector nodes to a fixpoint, remembering the freed keys.
        let mut freed_vec: Vec<(Level, [VecEdge; 2])> = Vec::new();
        let mut worklist: Vec<u32> = (0..self.vec_arena.slots.len() as u32)
            .filter(|&i| {
                !self.vec_arena.slots[i as usize].node.is_free()
                    && self.vec_arena.refcounts[i as usize] == 0
            })
            .collect();
        while let Some(idx) = worklist.pop() {
            let id = NodeId(idx);
            if self.vec_arena.slots[idx as usize].node.is_free()
                || self.vec_arena.refcounts[idx as usize] != 0
            {
                continue;
            }
            let node = self.vec_arena.free_slot(id, free_epoch);
            freed_vec.push((node.level, node.edges));
            for e in node.edges {
                if !e.node.is_terminal() {
                    let rc = &mut self.vec_arena.refcounts[e.node.index()];
                    *rc -= 1;
                    if *rc == 0 {
                        worklist.push(e.node.0);
                    }
                }
            }
        }

        // Sweep matrix nodes to a fixpoint.
        let mut freed_mat: Vec<(Level, [MatEdge; 4])> = Vec::new();
        let mut worklist: Vec<u32> = (0..self.mat_arena.slots.len() as u32)
            .filter(|&i| {
                !self.mat_arena.slots[i as usize].node.is_free()
                    && self.mat_arena.refcounts[i as usize] == 0
            })
            .collect();
        while let Some(idx) = worklist.pop() {
            let id = NodeId(idx);
            if self.mat_arena.slots[idx as usize].node.is_free()
                || self.mat_arena.refcounts[idx as usize] != 0
            {
                continue;
            }
            let node = self.mat_arena.free_slot(id, free_epoch);
            freed_mat.push((node.level, node.edges));
            for e in node.edges {
                if !e.node.is_terminal() {
                    let rc = &mut self.mat_arena.refcounts[e.node.index()];
                    *rc -= 1;
                    if *rc == 0 {
                        worklist.push(e.node.0);
                    }
                }
            }
        }

        // Entries written from here on must outrank this collection's
        // free stamps.
        self.epoch += 1;

        // A rebuild refills the whole slot array, so it only pays when it
        // can shrink the table back toward the configured floor; any other
        // sweep deletes exactly the freed keys (backward-shift, no
        // allocation — the steady-state GC-per-op path touches only the
        // freed keys' probe clusters instead of `O(capacity)` slots).
        let live_vec = self.vec_unique.len() - freed_vec.len();
        if freed_vec.len() * 4 >= self.vec_unique.len().max(1)
            && self.vec_unique.would_shrink(live_vec)
        {
            self.vec_unique
                .rebuild(self.vec_arena.live_entries(|n| (n.level, n.edges)));
        } else {
            for key in &freed_vec {
                self.vec_unique.remove(key);
            }
        }
        let live_mat = self.mat_unique.len() - freed_mat.len();
        if freed_mat.len() * 4 >= self.mat_unique.len().max(1)
            && self.mat_unique.would_shrink(live_mat)
        {
            self.mat_unique
                .rebuild(self.mat_arena.live_entries(|n| (n.level, n.edges)));
        } else {
            for key in &freed_mat {
                self.mat_unique.remove(key);
            }
        }
    }
}

impl Default for DdManager {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for DdManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DdManager")
            .field("live_vec_nodes", &self.live_vec_nodes())
            .field("live_mat_nodes", &self.live_mat_nodes())
            .field("distinct_weights", &self.complex.len())
            .field("epoch", &self.epoch)
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Regression test for the suspension leak: a panic inside the closure
    /// used to skip the depth decrement, leaving a reused manager's
    /// governor permanently suspended (budgets silently stopped tripping).
    /// The RAII guard must restore the depth on unwind.
    #[test]
    fn governor_suspension_unwinds_on_panic_and_budgets_still_trip() {
        let config = DdConfig {
            max_live_nodes: Some(8),
            ..DdConfig::default()
        };
        let mut dd = DdManager::with_config(config);
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            dd.with_governor_suspended::<()>(|_| panic!("injected panic inside suspension"));
        }));
        assert!(unwound.is_err(), "the injected panic must propagate");
        assert_eq!(
            dd.governor_suspended, 0,
            "RAII guard must restore the suspension depth on unwind"
        );

        // The reused manager still enforces budgets: a 10-node basis state
        // exceeds the 8-node limit, and both the full charge and the
        // amortized in-operation check observe it. (`check_interrupts`
        // deliberately skips budgets — between-ops garbage is the
        // ladder's to collect, not an error.)
        let v = dd.vec_basis(10, 0);
        assert_eq!(dd.charge_full(), Err(DdError::BudgetExceeded));
        assert_eq!(dd.check_interrupts(), Ok(()));

        let s = Complex::SQRT2_INV;
        let h = dd.mat_single_qubit(10, 0, [[s, s], [s, -s]]);
        dd.charge_countdown = 1; // next charge performs the full check
        assert_eq!(dd.mat_vec_mul(h, v), Err(DdError::BudgetExceeded));
        let breach = dd.last_breach().expect("breach details recorded");
        assert_eq!(breach.resource, Resource::LiveNodes);
        assert_eq!(breach.limit, 8);
    }

    /// Non-panicking suspensions still balance (nesting included).
    #[test]
    fn governor_suspension_balances_when_nested() {
        let mut dd = DdManager::new();
        let out = dd.with_governor_suspended(|dd| {
            let inner = dd.with_governor_suspended(|dd| {
                assert_eq!(dd.governor_suspended, 2);
                Ok(21)
            });
            assert_eq!(dd.governor_suspended, 1);
            Ok(inner * 2)
        });
        assert_eq!(out, 42);
        assert_eq!(dd.governor_suspended, 0);
    }
}
