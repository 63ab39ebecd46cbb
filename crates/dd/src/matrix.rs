//! Construction and inspection of matrix decision diagrams (quantum
//! operations).
//!
//! Elementary gate DDs are linear in the qubit count (one node per level, as
//! the paper's Section III observes); oracle unitaries can additionally be
//! built *directly* from a permutation function or a sparse entry list — the
//! primitive behind the paper's *DD-construct* strategy.

use ddsim_complex::{Complex, ComplexId};

use crate::edge::{Level, MatEdge, NodeId};
use crate::hash::FxHashSet;
use crate::manager::DdManager;

/// A dense 2x2 unitary, row-major: `[[m00, m01], [m10, m11]]`.
pub type Matrix2 = [[Complex; 2]; 2];

/// Polarity of a control qubit.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ControlPolarity {
    /// Gate fires when the control is |1⟩ (the usual filled dot).
    Positive,
    /// Gate fires when the control is |0⟩ (open dot).
    Negative,
}

/// A control specification: qubit index (0 = topmost) plus polarity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Control {
    /// Qubit index, 0-based from the top (most significant).
    pub qubit: u32,
    /// Fire on |1⟩ or |0⟩.
    pub polarity: ControlPolarity,
}

impl Control {
    /// A positive control on `qubit`.
    pub fn pos(qubit: u32) -> Self {
        Control {
            qubit,
            polarity: ControlPolarity::Positive,
        }
    }

    /// A negative control on `qubit`.
    pub fn neg(qubit: u32) -> Self {
        Control {
            qubit,
            polarity: ControlPolarity::Negative,
        }
    }
}

impl DdManager {
    /// The identity matrix DD over `n` qubits (one node per level).
    ///
    /// Served from a per-level cache: each level's canonical identity edge
    /// is built at most once per manager, ref-pinned against garbage
    /// collection, and returned in O(1) afterwards — repeated calls touch
    /// neither the arena nor the unique table.
    pub fn mat_identity(&mut self, n: u32) -> MatEdge {
        while (self.identity_cache.len() as u32) < n {
            let level = self.identity_cache.len() as Level + 1;
            let below = match level {
                1 => MatEdge::terminal(ComplexId::ONE),
                _ => self.identity_cache[level as usize - 2],
            };
            let edge = self.make_mat_node(level, [below, MatEdge::ZERO, MatEdge::ZERO, below]);
            debug_assert!(self.is_identity(edge));
            self.inc_ref_mat(edge);
            self.identity_cache.push(edge);
        }
        match n {
            0 => MatEdge::terminal(ComplexId::ONE),
            _ => self.identity_cache[n as usize - 1],
        }
    }

    /// Builds the `n`-qubit unitary applying the 2x2 matrix `u` to qubit
    /// `target` (identity elsewhere).
    ///
    /// # Panics
    ///
    /// Panics if `target >= n`.
    pub fn mat_single_qubit(&mut self, n: u32, target: u32, u: Matrix2) -> MatEdge {
        assert!(target < n, "target qubit out of range");
        let target_level = self.var_order.level_of(n, target);
        let w = [
            self.intern(u[0][0]),
            self.intern(u[0][1]),
            self.intern(u[1][0]),
            self.intern(u[1][1]),
        ];
        let mut edge = MatEdge::terminal(ComplexId::ONE);
        for level in 1..=n {
            if level == target_level {
                let children = [
                    scaled(edge, w[0]),
                    scaled(edge, w[1]),
                    scaled(edge, w[2]),
                    scaled(edge, w[3]),
                ];
                edge = self.make_mat_node(level, children);
            } else {
                edge = self.make_mat_node(level, [edge, MatEdge::ZERO, MatEdge::ZERO, edge]);
            }
        }
        edge
    }

    /// Builds the `n`-qubit controlled unitary: `u` on `target`, firing only
    /// when every control matches its polarity; identity otherwise.
    ///
    /// Uses the decomposition `M = I + P ⊗ (U − I)` where `P` projects onto
    /// the active control pattern — a construction that works for controls
    /// above *and* below the target and costs one small matrix addition.
    ///
    /// # Panics
    ///
    /// Panics if `target >= n`, a control is out of range, or a control
    /// coincides with the target.
    pub fn mat_controlled(
        &mut self,
        n: u32,
        controls: &[Control],
        target: u32,
        u: Matrix2,
    ) -> MatEdge {
        assert!(target < n, "target qubit out of range");
        for c in controls {
            assert!(c.qubit < n, "control qubit out of range");
            assert_ne!(c.qubit, target, "control coincides with target");
        }
        if controls.is_empty() {
            return self.mat_single_qubit(n, target, u);
        }
        let target_level = self.var_order.level_of(n, target);
        // Difference gate D = U - I on the target, projected on controls,
        // identity elsewhere. Built bottom-up like a single-qubit gate.
        let d = [
            self.intern(u[0][0] - Complex::ONE),
            self.intern(u[0][1]),
            self.intern(u[1][0]),
            self.intern(u[1][1] - Complex::ONE),
        ];
        let mut edge = MatEdge::terminal(ComplexId::ONE);
        for level in 1..=n {
            let qubit = self.var_order.qubit_at(n, level);
            if level == target_level {
                let children = [
                    scaled(edge, d[0]),
                    scaled(edge, d[1]),
                    scaled(edge, d[2]),
                    scaled(edge, d[3]),
                ];
                edge = self.make_mat_node(level, children);
            } else if let Some(c) = controls.iter().find(|c| c.qubit == qubit) {
                let children = match c.polarity {
                    ControlPolarity::Positive => {
                        [MatEdge::ZERO, MatEdge::ZERO, MatEdge::ZERO, edge]
                    }
                    ControlPolarity::Negative => {
                        [edge, MatEdge::ZERO, MatEdge::ZERO, MatEdge::ZERO]
                    }
                };
                edge = self.make_mat_node(level, children);
            } else {
                edge = self.make_mat_node(level, [edge, MatEdge::ZERO, MatEdge::ZERO, edge]);
            }
        }
        let identity = self.mat_identity(n);
        // Gate construction is O(n) work per call and must stay infallible
        // for callers that assemble circuits; the governor is suspended for
        // this one addition and the next governed operation observes any
        // excess the construction produced.
        self.with_governor_suspended(|dd| dd.add_mat(identity, edge))
    }

    /// Builds a permutation unitary `|x⟩ → |f(x)⟩` over `n` qubits directly
    /// as a DD (the *DD-construct* primitive).
    ///
    /// `f` must be a bijection on `0..2^n`; this is checked.
    ///
    /// # Panics
    ///
    /// Panics if `f` is not a bijection on the domain, or `n > 28`
    /// (the check materializes the permutation).
    pub fn mat_permutation(&mut self, n: u32, f: impl Fn(u64) -> u64) -> MatEdge {
        assert!(
            (1..=28).contains(&n),
            "permutation qubit count out of range"
        );
        let size = 1u64 << n;
        let mut image = vec![u64::MAX; size as usize];
        let mut seen = vec![false; size as usize];
        for x in 0..size {
            let y = f(x);
            assert!(y < size, "permutation image out of range");
            assert!(!seen[y as usize], "permutation is not injective");
            seen[y as usize] = true;
            image[x as usize] = y;
        }
        // Entries sorted by column (x), value 1 at row image[x].
        let entries: Vec<(u64, u64, Complex)> = image
            .iter()
            .enumerate()
            .map(|(x, &y)| (y, x as u64, Complex::ONE))
            .collect();
        self.mat_from_sparse(n, &entries)
    }

    /// Builds the diagonal matrix with `default` everywhere on the diagonal
    /// except at the listed basis indices — directly, in `O(n + exceptions)`
    /// nodes.
    ///
    /// This is the *DD-construct* primitive for phase oracles: Grover's
    /// oracle is `diag(1, …, 1, −1, 1, …)` with `−1` at the marked element,
    /// which this builds as a DD of `n + O(1)` nodes per exception without
    /// touching elementary gates.
    ///
    /// # Panics
    ///
    /// Panics if an exception index is out of range or duplicated.
    pub fn mat_diagonal(
        &mut self,
        n: u32,
        default: Complex,
        exceptions: &[(u64, Complex)],
    ) -> MatEdge {
        assert!((1..=63).contains(&n), "qubit count out of range");
        let size = 1u64 << n;
        let mut sorted: Vec<(u64, ComplexId)> = exceptions
            .iter()
            .map(|&(i, v)| {
                assert!(i < size, "diagonal exception out of range");
                // The recursion splits on path (level) bits, so exception
                // indices move to internal order first.
                (self.var_order.internal_index(n, i), self.intern(v))
            })
            .collect();
        sorted.sort_unstable_by_key(|&(i, _)| i);
        for pair in sorted.windows(2) {
            assert_ne!(pair[0].0, pair[1].0, "duplicate diagonal exception");
        }
        let default = self.intern(default);
        self.mat_diagonal_rec(default, &sorted, n)
    }

    fn mat_diagonal_rec(
        &mut self,
        default: ComplexId,
        exceptions: &[(u64, ComplexId)],
        level: Level,
    ) -> MatEdge {
        if level == 0 {
            let w = exceptions.first().map_or(default, |&(_, v)| v);
            return if w.is_zero() {
                MatEdge::ZERO
            } else {
                MatEdge::terminal(w)
            };
        }
        if exceptions.is_empty() {
            // Uniform diagonal: shares one node per level via the unique
            // table, so repeated subcalls are free.
            let child = self.mat_diagonal_rec(default, &[], level - 1);
            return self.make_mat_node(level, [child, MatEdge::ZERO, MatEdge::ZERO, child]);
        }
        let bit = 1u64 << (level - 1);
        let split = exceptions.partition_point(|&(i, _)| i & bit == 0);
        let (low, high) = exceptions.split_at(split);
        let high: Vec<(u64, ComplexId)> = high.iter().map(|&(i, v)| (i & !bit, v)).collect();
        let e00 = self.mat_diagonal_rec(default, low, level - 1);
        let e11 = self.mat_diagonal_rec(default, &high, level - 1);
        self.make_mat_node(level, [e00, MatEdge::ZERO, MatEdge::ZERO, e11])
    }

    /// Builds the matrix with every entry equal to `value` — one node per
    /// level. (`2/2^n · J − I` is Grover's diffusion operator, so this is
    /// the second *DD-construct* primitive for Grover.)
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0 or greater than 63.
    pub fn mat_constant(&mut self, n: u32, value: Complex) -> MatEdge {
        assert!((1..=63).contains(&n), "qubit count out of range");
        let w = self.intern(value);
        if w.is_zero() {
            return MatEdge::ZERO;
        }
        let mut edge = MatEdge::terminal(ComplexId::ONE);
        for level in 1..=n {
            edge = self.make_mat_node(level, [edge; 4]);
        }
        MatEdge {
            node: edge.node,
            weight: self.complex.mul(edge.weight, w),
        }
    }

    /// Scales a matrix by a scalar.
    pub fn mat_scale(&mut self, e: MatEdge, factor: Complex) -> MatEdge {
        let f = self.intern(factor);
        if f.is_zero() || e.is_zero() {
            return MatEdge::ZERO;
        }
        MatEdge {
            node: e.node,
            weight: self.complex.mul(e.weight, f),
        }
    }

    /// Builds a matrix DD from sparse `(row, column, value)` entries; missing
    /// entries are zero. Duplicate `(row, column)` pairs are rejected.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range or a position is duplicated.
    pub fn mat_from_sparse(&mut self, n: u32, entries: &[(u64, u64, Complex)]) -> MatEdge {
        assert!((1..=28).contains(&n), "sparse qubit count out of range");
        let size = 1u64 << n;
        let mut sorted: Vec<(u64, u64, ComplexId)> = entries
            .iter()
            .map(|&(r, c, v)| {
                assert!(r < size && c < size, "sparse entry out of range");
                // Row/column indices are external; the recursion splits on
                // path (level) bits.
                (
                    self.var_order.internal_index(n, r),
                    self.var_order.internal_index(n, c),
                    self.intern(v),
                )
            })
            .filter(|&(_, _, v)| !v.is_zero())
            .collect();
        sorted.sort_unstable_by_key(|&(r, c, _)| (r, c));
        for pair in sorted.windows(2) {
            assert!(
                (pair[0].0, pair[0].1) != (pair[1].0, pair[1].1),
                "duplicate sparse entry"
            );
        }
        self.mat_from_sorted_sparse(&sorted, n)
    }

    fn mat_from_sorted_sparse(
        &mut self,
        entries: &[(u64, u64, ComplexId)],
        level: Level,
    ) -> MatEdge {
        if entries.is_empty() {
            return MatEdge::ZERO;
        }
        if level == 0 {
            debug_assert_eq!(entries.len(), 1);
            return MatEdge::terminal(entries[0].2);
        }
        let bit = 1u64 << (level - 1);
        // Entries are sorted by (row, col); split by row bit first (binary
        // search), then by column bit within each half.
        let row_split = entries.partition_point(|&(r, _, _)| r & bit == 0);
        let (top, bottom) = entries.split_at(row_split);
        let quadrant = |chunk: &[(u64, u64, ComplexId)]| -> [Vec<(u64, u64, ComplexId)>; 2] {
            let mut q0 = Vec::new();
            let mut q1 = Vec::new();
            for &(r, c, v) in chunk {
                if c & bit == 0 {
                    q0.push((r & !bit, c, v));
                } else {
                    q1.push((r & !bit, c & !bit, v));
                }
            }
            [q0, q1]
        };
        let [q00, q01] = quadrant(top);
        let [q10, q11] = quadrant(bottom);
        let e00 = self.mat_from_sorted_sparse(&q00, level - 1);
        let e01 = self.mat_from_sorted_sparse(&q01, level - 1);
        let e10 = self.mat_from_sorted_sparse(&q10, level - 1);
        let e11 = self.mat_from_sorted_sparse(&q11, level - 1);
        self.make_mat_node(level, [e00, e01, e10, e11])
    }

    /// Builds a matrix DD from a dense row-major matrix (tests / small
    /// instances only).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square with power-of-two dimension ≥ 2.
    pub fn mat_from_dense(&mut self, rows: &[Vec<Complex>]) -> MatEdge {
        let dim = rows.len();
        assert!(
            dim.is_power_of_two() && dim >= 2,
            "dense matrix dimension must be a power of two >= 2"
        );
        for row in rows {
            assert_eq!(row.len(), dim, "dense matrix must be square");
        }
        let n = dim.trailing_zeros();
        let entries: Vec<(u64, u64, Complex)> = rows
            .iter()
            .enumerate()
            .flat_map(|(r, row)| {
                row.iter()
                    .enumerate()
                    .map(move |(c, &v)| (r as u64, c as u64, v))
            })
            .collect();
        self.mat_from_sparse(n, &entries)
    }

    /// Materializes the full dense matrix, indexed by the external basis
    /// convention (tests / small instances only).
    pub fn mat_to_dense(&self, e: MatEdge) -> Vec<Vec<Complex>> {
        let level = self.mat_level(e);
        let dim = 1usize << level;
        let mut out = vec![vec![Complex::ZERO; dim]; dim];
        self.fill_dense(e, Complex::ONE, 0, 0, level, &mut out);
        if !self.var_order.is_identity() && level > 0 {
            // `fill_dense` indexes by paths (internal order): scatter rows
            // and columns to external basis indices.
            let mut external = vec![vec![Complex::ZERO; dim]; dim];
            for (r, row) in out.iter().enumerate() {
                let er = self.var_order.external_index(level, r as u64) as usize;
                for (c, v) in row.iter().enumerate() {
                    let ec = self.var_order.external_index(level, c as u64) as usize;
                    external[er][ec] = *v;
                }
            }
            out = external;
        }
        out
    }

    fn fill_dense(
        &self,
        e: MatEdge,
        acc: Complex,
        row: u64,
        col: u64,
        level: Level,
        out: &mut [Vec<Complex>],
    ) {
        if e.is_zero() {
            return;
        }
        let acc = acc * self.complex_value(e.weight);
        if e.node.is_terminal() {
            out[row as usize][col as usize] = acc;
            return;
        }
        let node = *self.mat_node(e.node);
        debug_assert_eq!(node.level, level);
        let half = 1u64 << (level - 1);
        for (i, child) in node.edges.iter().enumerate() {
            let r = row + if i >= 2 { half } else { 0 };
            let c = col + if i % 2 == 1 { half } else { 0 };
            self.fill_dense(*child, acc, r, c, level - 1, out);
        }
    }

    /// One matrix entry `M[row][col]`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range for the edge's level.
    pub fn mat_entry(&self, e: MatEdge, row: u64, col: u64) -> Complex {
        let level = self.mat_level(e);
        assert!(
            row < (1u64 << level) && col < (1u64 << level),
            "matrix index out of range"
        );
        let row = self.var_order.internal_index(level, row);
        let col = self.var_order.internal_index(level, col);
        let mut weight = self.complex_value(e.weight);
        let mut node_id = e.node;
        let mut lvl = level;
        while !node_id.is_terminal() {
            let node = self.mat_node(node_id);
            let rb = (row >> (lvl - 1)) & 1;
            let cb = (col >> (lvl - 1)) & 1;
            let child = node.edges[(2 * rb + cb) as usize];
            if child.is_zero() {
                return Complex::ZERO;
            }
            weight *= self.complex_value(child.weight);
            node_id = child.node;
            lvl -= 1;
        }
        weight
    }

    /// Number of distinct nodes reachable from `e` (excluding the terminal).
    ///
    /// This is the paper's "size of the DD" for matrices, and the quantity
    /// the *max-size* strategy bounds with `s_max`.
    pub fn mat_node_count(&self, e: MatEdge) -> usize {
        let mut seen = FxHashSet::default();
        self.count_mat_rec(e.node, &mut seen);
        seen.len()
    }

    fn count_mat_rec(&self, node: NodeId, seen: &mut FxHashSet<NodeId>) {
        if node.is_terminal() || !seen.insert(node) {
            return;
        }
        let n = *self.mat_node(node);
        for child in n.edges {
            self.count_mat_rec(child.node, seen);
        }
    }
}

#[inline]
fn scaled(e: MatEdge, w: ComplexId) -> MatEdge {
    // Children of a freshly built gate level all point at the same
    // normalized sub-identity whose weight is ONE, so a plain weight
    // replacement (rather than a table multiplication) is exact.
    debug_assert!(e.weight.is_one());
    if w.is_zero() {
        MatEdge::ZERO
    } else {
        MatEdge {
            node: e.node,
            weight: w,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge::MatEdge;

    fn x_gate() -> Matrix2 {
        [[Complex::ZERO, Complex::ONE], [Complex::ONE, Complex::ZERO]]
    }

    fn h_gate() -> Matrix2 {
        let h = Complex::SQRT2_INV;
        [[h, h], [h, -h]]
    }

    #[test]
    fn identity_structure() {
        let mut dd = DdManager::new();
        let id = dd.mat_identity(5);
        assert_eq!(dd.mat_node_count(id), 5);
        let dense = dd.mat_to_dense(id);
        for (r, row) in dense.iter().enumerate() {
            for (c, v) in row.iter().enumerate() {
                let want = if r == c { Complex::ONE } else { Complex::ZERO };
                assert!(v.approx_eq(want, 1e-12));
            }
        }
    }

    #[test]
    fn repeated_identity_requests_allocate_nothing() {
        let mut dd = DdManager::new();
        let first = dd.mat_identity(8);
        let smaller = dd.mat_identity(3); // prefix of the same cache
        let nodes = dd.live_mat_nodes();
        let lookups = dd.stats().cache.mat_unique.lookups;
        for _ in 0..16 {
            assert_eq!(dd.mat_identity(8), first);
            assert_eq!(dd.mat_identity(3), smaller);
        }
        // Cache hits must bypass the unique table entirely.
        assert_eq!(dd.live_mat_nodes(), nodes);
        assert_eq!(dd.stats().cache.mat_unique.lookups, lookups);
    }

    #[test]
    fn identity_cache_survives_garbage_collection() {
        let mut dd = DdManager::new();
        let id = dd.mat_identity(5);
        dd.collect_garbage();
        assert_eq!(dd.mat_identity(5), id);
        assert_eq!(dd.mat_node_count(id), 5);
    }

    #[test]
    fn identity_flag_tracks_structure() {
        let mut dd = DdManager::new();
        let id = dd.mat_identity(4);
        assert!(dd.is_identity(id));
        let h = dd.mat_single_qubit(4, 1, h_gate());
        assert!(!dd.is_identity(h));
        // An identity produced by arithmetic (H·H) must be recognized too.
        let hh = dd.mat_mat_mul(h, h).unwrap();
        assert!(dd.is_identity(hh));
        // A global phase i·I normalizes to the identity node with weight i:
        // identity structure, but not the multiplicative neutral element.
        let phased = dd.mat_single_qubit(
            4,
            0,
            [[Complex::I, Complex::ZERO], [Complex::ZERO, Complex::I]],
        );
        assert_eq!(phased.node, id.node);
        assert!(!dd.is_identity(phased));
    }

    #[test]
    fn single_qubit_gate_is_linear_in_qubits() {
        let mut dd = DdManager::new();
        for n in 2..8 {
            let g = dd.mat_single_qubit(n, 1, h_gate());
            assert_eq!(dd.mat_node_count(g), n as usize);
        }
    }

    #[test]
    fn x_on_one_qubit_matches_dense() {
        let mut dd = DdManager::new();
        let g = dd.mat_single_qubit(1, 0, x_gate());
        let dense = dd.mat_to_dense(g);
        assert!(dense[0][0].approx_eq(Complex::ZERO, 1e-12));
        assert!(dense[0][1].approx_eq(Complex::ONE, 1e-12));
        assert!(dense[1][0].approx_eq(Complex::ONE, 1e-12));
        assert!(dense[1][1].approx_eq(Complex::ZERO, 1e-12));
    }

    #[test]
    fn cx_matches_paper_matrix() {
        let mut dd = DdManager::new();
        // CX with control q0 (top), target q1: the 4x4 matrix from Sec. II-A.
        let g = dd.mat_controlled(2, &[Control::pos(0)], 1, x_gate());
        let dense = dd.mat_to_dense(g);
        let want = [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [0.0, 0.0, 1.0, 0.0],
        ];
        for r in 0..4 {
            for c in 0..4 {
                assert!(
                    dense[r][c].approx_eq(Complex::real(want[r][c]), 1e-12),
                    "entry ({r},{c})"
                );
            }
        }
    }

    #[test]
    fn control_below_target() {
        let mut dd = DdManager::new();
        // CX with control q1 (bottom), target q0 (top).
        let g = dd.mat_controlled(2, &[Control::pos(1)], 0, x_gate());
        let dense = dd.mat_to_dense(g);
        // Basis order |q0 q1⟩: 00,01,10,11. Control q1=1 flips q0:
        // |01⟩→|11⟩, |11⟩→|01⟩; |00⟩,|10⟩ fixed.
        let want = [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
        ];
        for r in 0..4 {
            for c in 0..4 {
                assert!(
                    dense[r][c].approx_eq(Complex::real(want[r][c]), 1e-12),
                    "entry ({r},{c})"
                );
            }
        }
    }

    #[test]
    fn negative_control() {
        let mut dd = DdManager::new();
        let g = dd.mat_controlled(2, &[Control::neg(0)], 1, x_gate());
        let dense = dd.mat_to_dense(g);
        // Fires when q0=0: |00⟩↔|01⟩.
        assert!(dense[0][1].approx_eq(Complex::ONE, 1e-12));
        assert!(dense[1][0].approx_eq(Complex::ONE, 1e-12));
        assert!(dense[2][2].approx_eq(Complex::ONE, 1e-12));
        assert!(dense[3][3].approx_eq(Complex::ONE, 1e-12));
    }

    #[test]
    fn toffoli_via_two_controls() {
        let mut dd = DdManager::new();
        let g = dd.mat_controlled(3, &[Control::pos(0), Control::pos(1)], 2, x_gate());
        let dense = dd.mat_to_dense(g);
        for x in 0u64..8 {
            let y = if x >> 1 == 0b11 { x ^ 1 } else { x };
            for r in 0u64..8 {
                let want = if r == y { Complex::ONE } else { Complex::ZERO };
                assert!(
                    dense[r as usize][x as usize].approx_eq(want, 1e-12),
                    "column {x}, row {r}"
                );
            }
        }
    }

    #[test]
    fn permutation_construct_matches_function() {
        let mut dd = DdManager::new();
        // x -> 3x mod 8 is a bijection on 0..8 (gcd(3,8)=1).
        let g = dd.mat_permutation(3, |x| (3 * x) % 8);
        for x in 0u64..8 {
            for r in 0u64..8 {
                let want = if r == (3 * x) % 8 {
                    Complex::ONE
                } else {
                    Complex::ZERO
                };
                assert!(dd.mat_entry(g, r, x).approx_eq(want, 1e-12));
            }
        }
    }

    #[test]
    #[should_panic(expected = "not injective")]
    fn non_bijective_permutation_rejected() {
        let mut dd = DdManager::new();
        let _ = dd.mat_permutation(2, |_| 0);
    }

    #[test]
    fn sparse_and_dense_agree() {
        let mut dd = DdManager::new();
        let rows = vec![
            vec![Complex::real(1.0), Complex::ZERO, Complex::I, Complex::ZERO],
            vec![
                Complex::ZERO,
                Complex::real(-1.0),
                Complex::ZERO,
                Complex::ZERO,
            ],
            vec![
                Complex::ZERO,
                Complex::ZERO,
                Complex::real(0.5),
                Complex::ZERO,
            ],
            vec![
                Complex::new(0.5, 0.5),
                Complex::ZERO,
                Complex::ZERO,
                Complex::real(2.0),
            ],
        ];
        let e = dd.mat_from_dense(&rows);
        let back = dd.mat_to_dense(e);
        for r in 0..4 {
            for c in 0..4 {
                assert!(back[r][c].approx_eq(rows[r][c], 1e-10), "({r},{c})");
            }
        }
    }

    #[test]
    fn diagonal_with_single_exception() {
        let mut dd = DdManager::new();
        // Grover oracle shape: -1 at index 5, +1 elsewhere.
        let oracle = dd.mat_diagonal(3, Complex::ONE, &[(5, Complex::real(-1.0))]);
        for i in 0u64..8 {
            for j in 0u64..8 {
                let want = if i != j {
                    Complex::ZERO
                } else if i == 5 {
                    Complex::real(-1.0)
                } else {
                    Complex::ONE
                };
                assert!(
                    dd.mat_entry(oracle, i, j).approx_eq(want, 1e-12),
                    "({i},{j})"
                );
            }
        }
        // Direct construction stays near-linear in qubits.
        assert!(dd.mat_node_count(oracle) <= 2 * 3);
    }

    #[test]
    fn diagonal_squares_to_identity_when_signs() {
        let mut dd = DdManager::new();
        let oracle = dd.mat_diagonal(4, Complex::ONE, &[(3, Complex::real(-1.0))]);
        let squared = dd.mat_mat_mul(oracle, oracle).unwrap();
        let id = dd.mat_identity(4);
        assert_eq!(squared, id);
    }

    #[test]
    #[should_panic(expected = "duplicate diagonal exception")]
    fn diagonal_rejects_duplicates() {
        let mut dd = DdManager::new();
        let _ = dd.mat_diagonal(2, Complex::ONE, &[(1, Complex::I), (1, Complex::ONE)]);
    }

    #[test]
    fn constant_matrix_is_one_node_per_level() {
        let mut dd = DdManager::new();
        let j = dd.mat_constant(4, Complex::real(0.25));
        assert_eq!(dd.mat_node_count(j), 4);
        for i in 0u64..16 {
            for k in 0u64..16 {
                assert!(dd.mat_entry(j, i, k).approx_eq(Complex::real(0.25), 1e-12));
            }
        }
    }

    #[test]
    fn diffusion_from_constant_and_identity() {
        // D = 2/2^n · J − I must be unitary and equal H⊗ⁿ·(2|0⟩⟨0|−I)·H⊗ⁿ.
        let mut dd = DdManager::new();
        let n = 3u32;
        let j = dd.mat_constant(n, Complex::real(2.0 / 8.0));
        let neg_id = {
            let id = dd.mat_identity(n);
            dd.mat_scale(id, Complex::real(-1.0))
        };
        let diffusion = dd.add_mat(j, neg_id).unwrap();
        let ddag = dd.mat_conj_transpose(diffusion).unwrap();
        let product = dd.mat_mat_mul(ddag, diffusion).unwrap();
        let id = dd.mat_identity(n);
        assert_eq!(product, id, "diffusion must be unitary");
    }

    #[test]
    fn scale_distributes_over_product() {
        let mut dd = DdManager::new();
        let h = dd.mat_single_qubit(2, 0, h_gate());
        let scaled = dd.mat_scale(h, Complex::I);
        let entry = dd.mat_entry(scaled, 0, 0);
        assert!(entry.approx_eq(Complex::I * Complex::SQRT2_INV, 1e-12));
    }

    #[test]
    fn zero_matrix_from_empty_sparse() {
        let mut dd = DdManager::new();
        let e = dd.mat_from_sparse(3, &[]);
        assert_eq!(e, MatEdge::ZERO);
        assert_eq!(dd.mat_node_count(e), 0);
    }
}
