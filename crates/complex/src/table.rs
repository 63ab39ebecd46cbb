//! Tolerance-aware interning of complex values.
//!
//! Decision-diagram canonicity depends on *identical* edge weights hashing
//! identically. Floating-point arithmetic produces values such as
//! `1/√2 · 1/√2` and `0.5` that are mathematically equal but bit-wise
//! different; without unification the unique table would treat them as
//! distinct and node sharing would collapse (see footnote 2 of the paper and
//! its reference [21]). The [`ComplexTable`] assigns a stable [`ComplexId`]
//! to every value, mapping any value within the configured tolerance of an
//! already-stored representative onto that representative.
//!
//! The tolerance is **absolute** and tight (default `1e-13`, ~500 f64
//! epsilons): two values unify when their components differ by at most the
//! tolerance. The choice is deliberate, measured both ways on this code
//! base (see DESIGN.md §6): a *relative* tolerance fails to re-merge the
//! cancellation noise that iterated algorithms (Grover) produce on small
//! amplitudes, splitting mathematically-equal nodes until the diagram and
//! the distinct-weight population explode; a *loose absolute* tolerance
//! (1e-10) destroys the relative precision of structurally tiny weights.
//! Tight-absolute is the working middle ground, matching mature QMDD
//! packages.
//!
//! # Layout (DESIGN.md §13)
//!
//! `lookup` sits under every interned multiply/add/divide, so its storage
//! is arranged for the probe:
//!
//! * Representatives live in one `entries` vector indexed by id, each value
//!   next to its `norm_sqr`, so normalization pivot selection touches the
//!   cache line the value itself occupies.
//! * A [`FxHashMap`] maps each occupied tolerance-grid cell to its
//!   candidates. The cell's first `(value, id)` candidate sits inline in the
//!   map slot; only later candidates spill into one `Vec` per cell. The
//!   common single-weight cell therefore owns no heap allocation, and a
//!   crowded cell is still scanned as one contiguous run of values with
//!   their ids alongside, never gathered through `entries`.
//! * The neighbour probe visits only grid cells that can actually contain a
//!   match: the cell width is `2·tolerance`, so a candidate within
//!   tolerance of `c` lies in `c`'s own cell or the *one* neighbour on the
//!   side `c` is nearer to — 4 cells typically, not 9 (a conservative FP
//!   slack falls back to 3 cells per axis near half-cell positions).
//!
//! Cells are visited in a fixed order and scanned in insertion order, and
//! the first candidate within tolerance wins, so the representative a
//! value resolves to depends only on the lookup history.

use crate::hash::FxHashMap;
use crate::value::{Complex, DEFAULT_TOLERANCE};

/// Handle to an interned complex value inside a [`ComplexTable`].
///
/// Ids are only meaningful relative to the table that produced them. The two
/// distinguished values zero and one have fixed ids in every table so that
/// hot-path checks need no table access.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ComplexId(u32);

impl ComplexId {
    /// The id of the additive identity in every table.
    pub const ZERO: ComplexId = ComplexId(0);
    /// The id of the multiplicative identity in every table.
    pub const ONE: ComplexId = ComplexId(1);

    /// Whether this id denotes exactly zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self == ComplexId::ZERO
    }

    /// Whether this id denotes exactly one.
    #[inline]
    pub fn is_one(self) -> bool {
        self == ComplexId::ONE
    }

    /// The raw index (for diagnostics / serialization).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuilds an id from a table index (snapshot restore).
    ///
    /// The caller is responsible for the index being in range of the table
    /// the id will be used with; out-of-range ids panic on first `value`
    /// lookup rather than aliasing another entry.
    #[inline]
    pub fn from_index(index: usize) -> ComplexId {
        ComplexId(u32::try_from(index).expect("complex table index overflow"))
    }
}

/// Bucket key: grid coordinates at the tolerance scale.
type BucketKey = (i64, i64);

/// One stored representative: the value and its squared magnitude,
/// interleaved so normalization pivot reads (`norm`) land on the cache line
/// the value itself (`val`) occupies — the "norm_sqr adjacent to the weight
/// it describes" layout from DESIGN.md §13.
#[derive(Clone, Copy, Debug)]
struct Stored {
    val: Complex,
    norm: f64,
}

/// One interned value as a grid cell holds it: the value, for the
/// tolerance compare, and the id it resolves to.
#[derive(Clone, Copy, Debug)]
struct Candidate {
    val: Complex,
    id: u32,
}

/// One tolerance-grid cell: its first candidate inline, later ones
/// in insertion order in `rest`, which stays unallocated until a second
/// value lands in the cell.
#[derive(Clone, Debug)]
struct Bucket {
    first: Candidate,
    rest: Vec<Candidate>,
}

/// Counters of the interning table, reported through `DdStats::cache`
/// alongside the compute/unique-table counters (`--stats`, bench JSON).
///
/// All counters are defined from probe outcomes, so they depend only on
/// the lookup history.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ComplexTableStats {
    /// `lookup` calls (interning requests), including the pinned zero/one
    /// fast paths.
    pub lookups: u64,
    /// Lookups resolved to an existing non-pinned representative by the
    /// bucket probe.
    pub unified: u64,
    /// Lookups that inserted a new representative.
    pub inserts: u64,
    /// Grid cells examined across all probes (4 per lookup typically; up
    /// to 9 near half-cell positions).
    pub buckets_probed: u64,
    /// Candidate representatives compared across all probes: the probe
    /// length. On a hit this counts the matched candidate's position + 1;
    /// on a miss, the full bucket lengths scanned.
    pub probe_entries: u64,
}

impl ComplexTableStats {
    /// Share of lookups resolved without inserting (pinned or unified).
    pub fn unify_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            1.0 - self.inserts as f64 / self.lookups as f64
        }
    }

    /// Mean candidates compared per lookup that reached the probe.
    pub fn mean_probe_len(&self) -> f64 {
        let probed = self.unified + self.inserts;
        if probed == 0 {
            0.0
        } else {
            self.probe_entries as f64 / probed as f64
        }
    }

    /// Field-wise `self − before`.
    #[must_use]
    pub fn delta(&self, before: &ComplexTableStats) -> ComplexTableStats {
        ComplexTableStats {
            lookups: self.lookups - before.lookups,
            unified: self.unified - before.unified,
            inserts: self.inserts - before.inserts,
            buckets_probed: self.buckets_probed - before.buckets_probed,
            probe_entries: self.probe_entries - before.probe_entries,
        }
    }

    /// Field-wise accumulation.
    pub fn accumulate(&mut self, other: &ComplexTableStats) {
        self.lookups += other.lookups;
        self.unified += other.unified;
        self.inserts += other.inserts;
        self.buckets_probed += other.buckets_probed;
        self.probe_entries += other.probe_entries;
    }
}

/// Interning table unifying complex values up to an absolute tolerance.
///
/// # Examples
///
/// ```
/// use ddsim_complex::{Complex, ComplexTable};
///
/// let mut table = ComplexTable::new();
/// let a = table.lookup(Complex::SQRT2_INV * Complex::SQRT2_INV);
/// let b = table.lookup(Complex::real(0.5));
/// assert_eq!(a, b);
/// ```
#[derive(Clone, Debug)]
pub struct ComplexTable {
    entries: Vec<Stored>,
    buckets: FxHashMap<BucketKey, Bucket>,
    tolerance: f64,
    stats: ComplexTableStats,
}

impl ComplexTable {
    /// Creates a table with the [`DEFAULT_TOLERANCE`].
    pub fn new() -> Self {
        Self::with_tolerance(DEFAULT_TOLERANCE)
    }

    /// Creates a table with a caller-chosen absolute tolerance.
    ///
    /// # Panics
    ///
    /// Panics if `tolerance` is not a finite positive number below 0.1.
    pub fn with_tolerance(tolerance: f64) -> Self {
        assert!(
            tolerance.is_finite() && tolerance > 0.0 && tolerance < 0.1,
            "tolerance must be finite, positive, and small"
        );
        let mut table = ComplexTable {
            entries: Vec::with_capacity(1024),
            buckets: FxHashMap::default(),
            tolerance,
            stats: ComplexTableStats::default(),
        };
        table.buckets.reserve(1024);
        // Ids 0 and 1 are pinned (see `ComplexId::{ZERO, ONE}`).
        table.insert_raw(Complex::ZERO);
        table.insert_raw(Complex::ONE);
        table
    }

    /// The unification tolerance (absolute).
    #[inline]
    pub fn tolerance(&self) -> f64 {
        self.tolerance
    }

    /// Interning counters (see [`ComplexTableStats`]).
    #[inline]
    pub fn stats(&self) -> ComplexTableStats {
        self.stats
    }

    /// Mutable access to the counters (worker absorption, resets).
    #[inline]
    pub fn stats_mut(&mut self) -> &mut ComplexTableStats {
        &mut self.stats
    }

    /// Number of distinct stored values (including zero and one).
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table holds only the two pinned values.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.len() <= 2
    }

    /// Number of occupied tolerance-grid buckets (occupancy telemetry).
    #[inline]
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Longest bucket candidate list (occupancy telemetry; the worst-case
    /// probe length within one cell).
    pub fn max_bucket_len(&self) -> usize {
        self.buckets
            .values()
            .map(|b| 1 + b.rest.len())
            .max()
            .unwrap_or(0)
    }

    /// The value a given id denotes.
    ///
    /// # Panics
    ///
    /// Panics if `id` was produced by a different table (index out of range).
    #[inline]
    pub fn value(&self, id: ComplexId) -> Complex {
        self.entries[id.index()].val
    }

    /// Squared magnitude of a stored value, precomputed at intern time and
    /// stored adjacent to the value itself.
    #[inline]
    pub fn norm_sqr(&self, id: ComplexId) -> f64 {
        self.entries[id.index()].norm
    }

    /// Interns `c`, returning the id of its representative.
    ///
    /// Values within the tolerance of zero or one collapse onto the pinned
    /// ids; any other value within the tolerance of an existing
    /// representative reuses that representative's id.
    ///
    /// # Panics
    ///
    /// Panics if `c` is not finite — non-finite edge weights indicate a bug
    /// upstream (e.g. division by a zero weight) and must not be interned.
    pub fn lookup(&mut self, c: Complex) -> ComplexId {
        assert!(
            c.is_finite(),
            "cannot intern non-finite complex value {c:?}"
        );
        self.stats.lookups += 1;
        if c.approx_zero(self.tolerance) {
            return ComplexId::ZERO;
        }
        if c.approx_one(self.tolerance) {
            return ComplexId::ONE;
        }
        let (qre, re_lo, re_hi) = self.axis_cells(c.re);
        let (qim, im_lo, im_hi) = self.axis_cells(c.im);
        let mut buckets_probed = 0u64;
        let mut probe_entries = 0u64;
        let mut found: Option<u32> = None;
        'probe: for dre in -1i64..=1 {
            if (dre == -1 && !re_lo) || (dre == 1 && !re_hi) {
                continue;
            }
            for dim in -1i64..=1 {
                if (dim == -1 && !im_lo) || (dim == 1 && !im_hi) {
                    continue;
                }
                // Saturating: huge values (e.g. weight ratios across many
                // magnitude scales) clamp the grid to the i64 edge.
                let key = (qre.saturating_add(dre), qim.saturating_add(dim));
                buckets_probed += 1;
                if let Some(bucket) = self.buckets.get(&key) {
                    for cand in std::iter::once(&bucket.first).chain(&bucket.rest) {
                        probe_entries += 1;
                        if cand.val.approx_eq(c, self.tolerance) {
                            found = Some(cand.id);
                            break 'probe;
                        }
                    }
                }
            }
        }
        self.stats.buckets_probed += buckets_probed;
        self.stats.probe_entries += probe_entries;
        match found {
            Some(raw) => {
                self.stats.unified += 1;
                ComplexId(raw)
            }
            None => {
                self.stats.inserts += 1;
                self.insert_raw(c)
            }
        }
    }

    /// Interns the product of two interned values.
    #[inline]
    pub fn mul(&mut self, a: ComplexId, b: ComplexId) -> ComplexId {
        if a.is_zero() || b.is_zero() {
            return ComplexId::ZERO;
        }
        if a.is_one() {
            return b;
        }
        if b.is_one() {
            return a;
        }
        let product = self.value(a) * self.value(b);
        self.lookup(product)
    }

    /// Interns the sum of two interned values.
    #[inline]
    pub fn add(&mut self, a: ComplexId, b: ComplexId) -> ComplexId {
        if a.is_zero() {
            return b;
        }
        if b.is_zero() {
            return a;
        }
        let sum = self.value(a) + self.value(b);
        self.lookup(sum)
    }

    /// Interns the quotient `a / b`.
    ///
    /// # Panics
    ///
    /// Panics if `b` denotes zero.
    #[inline]
    pub fn div(&mut self, a: ComplexId, b: ComplexId) -> ComplexId {
        assert!(!b.is_zero(), "division by interned zero");
        if a.is_zero() {
            return ComplexId::ZERO;
        }
        if b.is_one() {
            return a;
        }
        if a == b {
            return ComplexId::ONE;
        }
        let quotient = self.value(a) / self.value(b);
        self.lookup(quotient)
    }

    /// Interns the negation of an interned value.
    #[inline]
    pub fn neg(&mut self, a: ComplexId) -> ComplexId {
        if a.is_zero() {
            return ComplexId::ZERO;
        }
        let negated = -self.value(a);
        self.lookup(negated)
    }

    /// Interns the conjugate of an interned value.
    #[inline]
    pub fn conj(&mut self, a: ComplexId) -> ComplexId {
        if a.is_zero() || a.is_one() {
            return a;
        }
        let conjugated = self.value(a).conj();
        self.lookup(conjugated)
    }

    /// All stored values in insertion order (index `i` is the value of
    /// `ComplexId` with raw index `i`). For snapshot serialization: because
    /// tolerance bucketing makes representatives depend on insertion
    /// history, a bitwise-faithful restore must replay the *entire* table,
    /// not merely the reachable ids. (Returns an owned vector since PR 7:
    /// values are stored interleaved with their norms.)
    pub fn values(&self) -> Vec<Complex> {
        self.entries.iter().map(|s| s.val).collect()
    }

    /// Rebuilds a table holding exactly `values`, id-for-id.
    ///
    /// `values` must be a sequence previously produced by
    /// [`values`](Self::values): entry 0 must be zero, entry 1 must be one,
    /// and every entry must be finite. Values are re-inserted raw, in
    /// order, so every id, representative, and bucket layout matches the
    /// captured table exactly and subsequent [`lookup`](Self::lookup) calls
    /// resolve identically to the original.
    pub fn from_values(tolerance: f64, values: &[Complex]) -> Result<Self, String> {
        let mut table = Self::with_tolerance(tolerance);
        if values.len() < 2 {
            return Err("complex table dump must contain the pinned zero and one".into());
        }
        if values[0] != Complex::ZERO {
            return Err(format!("entry 0 must be exactly zero, got {:?}", values[0]));
        }
        if values[1] != Complex::ONE {
            return Err(format!("entry 1 must be exactly one, got {:?}", values[1]));
        }
        for (i, &c) in values.iter().enumerate().skip(2) {
            if !c.is_finite() {
                return Err(format!("entry {i} is not finite: {c:?}"));
            }
            table.insert_raw(c);
        }
        Ok(table)
    }

    /// One probe axis: the value's grid cell plus which neighbours could
    /// hold a match. The cell width is `2·tolerance`, so the tolerance
    /// window `x ± tol` spans exactly half a cell each way: only the
    /// neighbour on the side `x` is nearer to can contain a matching
    /// candidate. `slack` (in cell units) conservatively covers the
    /// rounding of `x / width` and of the fraction itself, so a skipped
    /// cell provably contains no match — the probe result is *identical*
    /// to scanning all three cells, just cheaper. Near half-cell positions
    /// (or at magnitudes where an ulp exceeds the slack) both neighbours
    /// are probed, restoring the full 3-cell axis.
    fn axis_cells(&self, x: f64) -> (i64, bool, bool) {
        let width = 2.0 * self.tolerance;
        let r = x / width;
        let q = r.floor();
        let frac = r - q;
        let slack = 8.0 * f64::EPSILON * r.abs() + 1e-9;
        if !frac.is_finite() {
            // r overflowed to infinity (astronomically large weight ratio):
            // grid coordinates saturate; probe everything like the old
            // unconditional 3×3 did.
            return (r as i64, true, true);
        }
        (q as i64, frac <= 0.5 + slack, frac >= 0.5 - slack)
    }

    fn insert_raw(&mut self, c: Complex) -> ComplexId {
        let raw = u32::try_from(self.entries.len()).expect("complex table overflow");
        self.entries.push(Stored {
            val: c,
            norm: c.norm_sqr(),
        });
        let (qre, _, _) = self.axis_cells(c.re);
        let (qim, _, _) = self.axis_cells(c.im);
        let cand = Candidate { val: c, id: raw };
        self.buckets
            .entry((qre, qim))
            .and_modify(|cell| cell.rest.push(cand))
            .or_insert(Bucket {
                first: cand,
                rest: Vec::new(),
            });
        ComplexId(raw)
    }
}

impl Default for ComplexTable {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_ids() {
        let mut t = ComplexTable::new();
        assert_eq!(t.lookup(Complex::ZERO), ComplexId::ZERO);
        assert_eq!(t.lookup(Complex::ONE), ComplexId::ONE);
        assert_eq!(t.lookup(Complex::new(1e-16, -1e-16)), ComplexId::ZERO);
        assert_eq!(t.lookup(Complex::new(1.0 + 1e-15, 0.0)), ComplexId::ONE);
    }

    #[test]
    fn unifies_within_tolerance() {
        let mut t = ComplexTable::with_tolerance(1e-10);
        let a = t.lookup(Complex::new(0.5, 0.25));
        let b = t.lookup(Complex::new(0.5 + 1e-12, 0.25 - 1e-12));
        assert_eq!(a, b);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn tiny_values_keep_their_relative_identity_at_tight_tolerance() {
        // At the tight default (1e-13), values of magnitude ~1e-7 (Grover
        // diffusion entries at n=22) with a 1e-6 relative difference stay
        // distinct, preserving the precision of structurally tiny weights.
        let mut t = ComplexTable::new();
        let v = 4.768e-7;
        let a = t.lookup(Complex::real(v));
        let b = t.lookup(Complex::real(v * (1.0 + 1e-12)));
        assert_eq!(a, b, "FP-noise-level differences must unify");
        let c = t.lookup(Complex::real(v * (1.0 + 1e-6)));
        assert_ne!(a, c, "genuinely distinct tiny values must stay distinct");
    }

    #[test]
    fn distinguishes_beyond_tolerance() {
        let mut t = ComplexTable::new();
        let a = t.lookup(Complex::real(0.5));
        let b = t.lookup(Complex::real(0.5001));
        assert_ne!(a, b);
    }

    #[test]
    fn hadamard_product_unifies_with_half() {
        let mut t = ComplexTable::new();
        let h = t.lookup(Complex::SQRT2_INV);
        let prod = t.mul(h, h);
        let half = t.lookup(Complex::real(0.5));
        assert_eq!(prod, half);
    }

    #[test]
    fn arithmetic_shortcuts() {
        let mut t = ComplexTable::new();
        let z = t.lookup(Complex::new(0.3, -0.4));
        assert_eq!(t.mul(ComplexId::ZERO, z), ComplexId::ZERO);
        assert_eq!(t.mul(ComplexId::ONE, z), z);
        assert_eq!(t.add(ComplexId::ZERO, z), z);
        assert_eq!(t.div(z, ComplexId::ONE), z);
        assert_eq!(t.div(z, z), ComplexId::ONE);
        let minus = t.neg(z);
        assert!(t.value(minus).approx_eq(Complex::new(-0.3, 0.4), 1e-12));
        let back = t.neg(minus);
        assert_eq!(back, z);
    }

    #[test]
    fn division_roundtrip() {
        let mut t = ComplexTable::new();
        let a = t.lookup(Complex::new(0.7, 0.1));
        let b = t.lookup(Complex::new(-0.2, 0.9));
        let q = t.div(a, b);
        let back = t.mul(q, b);
        assert_eq!(back, a);
    }

    #[test]
    fn conjugation() {
        let mut t = ComplexTable::new();
        let z = t.lookup(Complex::new(0.6, 0.8));
        let c = t.conj(z);
        assert!(t.value(c).approx_eq(Complex::new(0.6, -0.8), 1e-12));
        assert_eq!(t.conj(c), z);
        assert_eq!(t.conj(ComplexId::ONE), ComplexId::ONE);
    }

    #[test]
    #[should_panic(expected = "division by interned zero")]
    fn division_by_zero_panics() {
        let mut t = ComplexTable::new();
        let a = t.lookup(Complex::real(2.0));
        let _ = t.div(a, ComplexId::ZERO);
    }

    #[test]
    fn values_straddling_a_grid_cell_unify() {
        let mut t = ComplexTable::with_tolerance(1e-10);
        let a = t.lookup(Complex::real(2.0 - 1e-12));
        let b = t.lookup(Complex::real(2.0 + 1e-12));
        assert_eq!(a, b);
    }

    #[test]
    fn grid_boundary_values_unify() {
        let mut t = ComplexTable::with_tolerance(1e-10);
        // Construct two values straddling a quantization-cell edge.
        let width = 2e-10;
        let edge = 1234.0 * width;
        let a = t.lookup(Complex::real(edge - 1e-14));
        let b = t.lookup(Complex::real(edge + 1e-14));
        assert_eq!(a, b);
    }

    #[test]
    fn narrowed_probe_still_finds_matches_at_every_cell_fraction() {
        // Sweep probe positions across a full grid cell (including the
        // half-cell point where the neighbour choice flips and the exact
        // boundaries): a stored value within tolerance must always be
        // found, proving the skipped cells never hide a match.
        let tol = 1e-10;
        let width = 2.0 * tol;
        for base_cell in [-3i64, 0, 7, 12345] {
            let base = base_cell as f64 * width;
            for frac_num in 0..=20 {
                let x = base + width * (frac_num as f64 / 20.0);
                let probe = Complex::real(x);
                if probe.approx_zero(tol) || probe.approx_one(tol) {
                    continue; // the pinned fast paths preempt the probe
                }
                for offset in [-tol, -0.5 * tol, 0.0, 0.5 * tol, tol] {
                    let mut t = ComplexTable::with_tolerance(tol);
                    let stored = t.lookup(Complex::real(x + offset));
                    if stored == ComplexId::ZERO || stored == ComplexId::ONE {
                        continue; // pinned fast path, probe not exercised
                    }
                    // Ground truth from the stored bits: `x + offset` rounds,
                    // so an offset of exactly ±tol can land a hair outside
                    // the tolerance predicate — legitimately a miss.
                    let within = (t.value(stored).re - x).abs() <= tol;
                    let found = t.lookup(Complex::real(x));
                    assert_eq!(
                        found == stored,
                        within,
                        "cell {base_cell}, frac {frac_num}/20, offset {offset:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn stats_count_lookups_unifications_and_probe_work() {
        let mut t = ComplexTable::new();
        assert_eq!(t.stats().lookups, 0);
        let a = t.lookup(Complex::new(0.5, 0.25)); // insert
        let b = t.lookup(Complex::new(0.5, 0.25)); // unify
        let _ = t.lookup(Complex::ZERO); // pinned
        assert_eq!(a, b);
        let s = t.stats();
        assert_eq!(s.lookups, 3);
        assert_eq!(s.inserts, 1);
        assert_eq!(s.unified, 1);
        assert!(s.buckets_probed >= 2, "both probing lookups walked cells");
        assert!(
            s.probe_entries >= 1,
            "the unifying lookup compared a candidate"
        );
        assert!(s.unify_rate() > 0.5);
        assert!(t.bucket_count() >= 3, "zero, one, and the new value");
        assert!(t.max_bucket_len() >= 1);

        let mut other = ComplexTableStats::default();
        other.accumulate(&s);
        assert_eq!(other, s);
        assert_eq!(s.delta(&s), ComplexTableStats::default());
    }

    #[test]
    fn crowded_cell_scans_in_insertion_order() {
        // Raw-inserted through `from_values`, so all three values share one
        // grid cell even though the first two lie within tolerance of each
        // other: the cell holds one inline candidate and two spilled ones.
        let tol = 1e-10;
        let base = 1234.0 * 2.0 * tol;
        let values = [
            Complex::ZERO,
            Complex::ONE,
            Complex::real(base + 0.2e-10),
            Complex::real(base + 0.6e-10),
            Complex::real(base + 1.8e-10),
        ];
        let mut t = ComplexTable::from_values(tol, &values).unwrap();
        assert_eq!(t.max_bucket_len(), 3);
        // Within tolerance of both of the first two: the first inserted wins.
        assert_eq!(t.lookup(Complex::real(base + 0.4e-10)).index(), 2);
        // Only the last matches, after the scan passed the two before it.
        let before = t.stats();
        assert_eq!(t.lookup(Complex::real(base + 1.9e-10)).index(), 4);
        assert_eq!(t.stats().delta(&before).probe_entries, 3);
        assert_eq!(t.len(), values.len(), "no lookup inserted");
    }

    #[test]
    fn from_values_restores_ids_and_lookup_behavior() {
        let mut t = ComplexTable::new();
        let ids: Vec<ComplexId> = [
            Complex::SQRT2_INV,
            Complex::new(0.3, -0.4),
            Complex::real(0.5),
            Complex::new(-0.1, 0.2),
        ]
        .iter()
        .map(|&c| t.lookup(c))
        .collect();
        let restored = ComplexTable::from_values(t.tolerance(), &t.values()).unwrap();
        assert_eq!(restored.len(), t.len());
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(restored.value(id), t.value(id), "value {i}");
            assert_eq!(restored.norm_sqr(id), t.norm_sqr(id), "norm {i}");
        }
        // Future lookups resolve to the same representatives.
        let mut a = t.clone();
        let mut b = restored;
        let probe = Complex::new(0.3 + 1e-14, -0.4);
        assert_eq!(a.lookup(probe), b.lookup(probe));
        let fresh = Complex::new(0.77, 0.12);
        assert_eq!(a.lookup(fresh), b.lookup(fresh));
    }

    #[test]
    fn from_values_rejects_corrupt_dumps() {
        assert!(ComplexTable::from_values(1e-13, &[]).is_err());
        assert!(
            ComplexTable::from_values(1e-13, &[Complex::ONE, Complex::ONE]).is_err(),
            "entry 0 must be zero"
        );
        assert!(
            ComplexTable::from_values(1e-13, &[Complex::ZERO, Complex::ZERO]).is_err(),
            "entry 1 must be one"
        );
        assert!(ComplexTable::from_values(
            1e-13,
            &[Complex::ZERO, Complex::ONE, Complex::new(f64::NAN, 0.0)]
        )
        .is_err());
    }

    #[test]
    fn widely_separated_scales_coexist() {
        // Stay above the zero floor (the tolerance, 1e-13): 2^-40 ≈ 9e-13.
        let mut t = ComplexTable::new();
        let ids: Vec<ComplexId> = (0..40)
            .map(|k| t.lookup(Complex::real(2f64.powi(-k))))
            .collect();
        // 2^0 is ONE; all others distinct.
        for (i, &a) in ids.iter().enumerate() {
            for (j, &b) in ids.iter().enumerate() {
                if i != j {
                    assert_ne!(a, b, "2^-{i} vs 2^-{j}");
                }
            }
        }
    }
}
