//! Measurement, collapse, and sampling on vector DDs.
//!
//! Needed by the semiclassical (single-control-qubit) Shor circuit the
//! paper's *DD-construct* strategy relies on: the control qubit is measured
//! and reset 2n times, with classically controlled phase corrections.

use ddsim_complex::Complex;

use crate::edge::{Level, NodeId, VecEdge};
use crate::hash::FxHashMap;
use crate::manager::DdManager;

impl DdManager {
    /// Probability that measuring `qubit` (0 = topmost) yields `1`.
    ///
    /// The state is assumed normalized; un-normalized states return the
    /// weighted fraction `P(1) / (P(0) + P(1))` scaled by the total norm.
    ///
    /// # Panics
    ///
    /// Panics if `qubit` is out of range for the edge's level.
    pub fn prob_one(&self, v: VecEdge, qubit: u32) -> f64 {
        let n = self.vec_level(v);
        assert!(qubit < n, "measured qubit out of range");
        let target_level = self.var_order.level_of(n, qubit);
        let mut norm_cache = FxHashMap::default();
        let mut prob_cache = FxHashMap::default();
        let w2 = self.complex_value(v.weight).norm_sqr();
        w2 * self.prob_one_rec(v.node, target_level, &mut prob_cache, &mut norm_cache)
    }

    fn prob_one_rec(
        &self,
        node: NodeId,
        target_level: Level,
        prob_cache: &mut FxHashMap<NodeId, f64>,
        norm_cache: &mut FxHashMap<NodeId, f64>,
    ) -> f64 {
        debug_assert!(!node.is_terminal());
        if let Some(&p) = prob_cache.get(&node) {
            return p;
        }
        let n = *self.vec_node(node);
        let p = if n.level == target_level {
            let child = n.edges[1];
            if child.is_zero() {
                0.0
            } else {
                self.complex_value(child.weight).norm_sqr()
                    * self.norm_sqr_rec(child.node, norm_cache)
            }
        } else {
            let mut total = 0.0;
            for child in n.edges {
                if !child.is_zero() {
                    total += self.complex_value(child.weight).norm_sqr()
                        * self.prob_one_rec(child.node, target_level, prob_cache, norm_cache);
                }
            }
            total
        };
        prob_cache.insert(node, p);
        p
    }

    /// Projects the state onto `qubit = outcome` and renormalizes.
    ///
    /// Returns the collapsed state. The probability of `outcome` must be
    /// positive.
    ///
    /// # Panics
    ///
    /// Panics if `qubit` is out of range or the outcome has (numerically)
    /// zero probability.
    pub fn collapse(&mut self, v: VecEdge, qubit: u32, outcome: bool) -> VecEdge {
        let n = self.vec_level(v);
        assert!(qubit < n, "measured qubit out of range");
        let p1 = self.prob_one(v, qubit);
        let p = if outcome { p1 } else { 1.0 - p1 };
        assert!(
            p > 1e-15,
            "collapse onto an outcome with zero probability (p = {p})"
        );
        let target_level = self.var_order.level_of(n, qubit);
        let mut memo = FxHashMap::default();
        let projected = self.project_rec(v, target_level, outcome, &mut memo);
        if self.config.fault == crate::FaultKind::CollapseSkipsRenormalize {
            // Injected fault: return the bare projection, leaving the
            // state with norm p instead of 1.
            return projected;
        }
        // Renormalize: divide the root weight by sqrt(p).
        let scale = self.intern(Complex::real(1.0 / p.sqrt()));
        VecEdge {
            node: projected.node,
            weight: self.complex.mul(projected.weight, scale),
        }
    }

    fn project_rec(
        &mut self,
        e: VecEdge,
        target_level: Level,
        outcome: bool,
        memo: &mut FxHashMap<NodeId, VecEdge>,
    ) -> VecEdge {
        if e.is_zero() {
            return VecEdge::ZERO;
        }
        debug_assert!(!e.node.is_terminal());
        if let Some(&unit) = memo.get(&e.node) {
            return VecEdge {
                node: unit.node,
                weight: self.complex.mul(unit.weight, e.weight),
            };
        }
        let node = *self.vec_node(e.node);
        let unit = if node.level == target_level {
            let children = if outcome {
                [VecEdge::ZERO, node.edges[1]]
            } else {
                [node.edges[0], VecEdge::ZERO]
            };
            self.make_vec_node(node.level, children)
        } else {
            let lo = self.project_rec(node.edges[0], target_level, outcome, memo);
            let hi = self.project_rec(node.edges[1], target_level, outcome, memo);
            self.make_vec_node(node.level, [lo, hi])
        };
        memo.insert(e.node, unit);
        VecEdge {
            node: unit.node,
            weight: self.complex.mul(unit.weight, e.weight),
        }
    }

    /// Measures `qubit`, choosing the outcome with `unit_random ∈ [0, 1)`,
    /// and returns `(outcome, collapsed_state)`.
    ///
    /// # Panics
    ///
    /// Panics if `qubit` is out of range.
    pub fn measure_qubit(&mut self, v: VecEdge, qubit: u32, unit_random: f64) -> (bool, VecEdge) {
        let p1 = self.prob_one(v, qubit);
        let outcome = unit_random < p1;
        let collapsed = self.collapse(v, qubit, outcome);
        (outcome, collapsed)
    }

    /// Squared norm of every node of the DD below `v`, keyed by node: the
    /// branch weights [`sample`](Self::sample) draws by. Computed once per
    /// state, it serves every shot drawn from that state.
    pub fn subtree_norms(&self, v: VecEdge) -> FxHashMap<NodeId, f64> {
        let mut norms = FxHashMap::default();
        self.norm_sqr_rec(v.node, &mut norms);
        norms
    }

    /// Samples a full computational-basis measurement without collapsing the
    /// state, drawing one uniform random number per qubit from `rand_fn`.
    /// `norms` must be [`subtree_norms`](Self::subtree_norms) of the same
    /// `v`.
    ///
    /// Returns the sampled basis index (qubit 0 in the top bit, matching
    /// [`vec_basis`](Self::vec_basis)).
    pub fn sample(
        &self,
        v: VecEdge,
        norms: &FxHashMap<NodeId, f64>,
        rand_fn: &mut dyn FnMut() -> f64,
    ) -> u64 {
        let branch = |e: VecEdge| {
            if e.is_zero() {
                return 0.0;
            }
            let below = if e.node.is_terminal() {
                1.0
            } else {
                norms[&e.node]
            };
            self.complex_value(e.weight).norm_sqr() * below
        };
        let mut index = 0u64;
        let mut node = v.node;
        let width = self.vec_level(v);
        let mut level = width;
        while !node.is_terminal() {
            let n = *self.vec_node(node);
            let w0 = branch(n.edges[0]);
            let w1 = branch(n.edges[1]);
            let total = w0 + w1;
            let bit = if total <= 0.0 {
                0
            } else if rand_fn() * total < w1 {
                1
            } else {
                0
            };
            if bit == 1 {
                // Level `level` decides the qubit the order puts there; the
                // returned index is always externally (qubit-)indexed.
                index |= 1 << (width - 1 - self.var_order.qubit_at(width, level));
                node = n.edges[1].node;
            } else {
                node = n.edges[0].node;
            }
            level -= 1;
        }
        index
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix2;

    fn h_gate() -> Matrix2 {
        let h = Complex::SQRT2_INV;
        [[h, h], [h, -h]]
    }

    #[test]
    fn basis_state_probabilities() {
        let mut dd = DdManager::new();
        let v = dd.vec_basis(3, 0b101);
        assert!((dd.prob_one(v, 0) - 1.0).abs() < 1e-12);
        assert!(dd.prob_one(v, 1).abs() < 1e-12);
        assert!((dd.prob_one(v, 2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn superposition_probability_is_half() {
        let mut dd = DdManager::new();
        let v0 = dd.vec_basis(2, 0);
        let h = dd.mat_single_qubit(2, 0, h_gate());
        let v = dd.mat_vec_mul(h, v0).unwrap();
        assert!((dd.prob_one(v, 0) - 0.5).abs() < 1e-12);
        assert!(dd.prob_one(v, 1).abs() < 1e-12);
    }

    #[test]
    fn collapse_renormalizes() {
        let mut dd = DdManager::new();
        let v0 = dd.vec_basis(2, 0);
        let h = dd.mat_single_qubit(2, 0, h_gate());
        let v = dd.mat_vec_mul(h, v0).unwrap();
        let c = dd.collapse(v, 0, true);
        assert!((dd.vec_norm_sqr(c) - 1.0).abs() < 1e-10);
        assert!((dd.prob_one(c, 0) - 1.0).abs() < 1e-10);
        // Collapsed onto |10⟩.
        assert!(dd.vec_amplitude(c, 0b10).abs() > 0.999);
    }

    #[test]
    fn collapse_of_entangled_pair_fixes_partner() {
        // Bell state (|00⟩+|11⟩)/√2: measuring q0=1 forces q1=1.
        let mut dd = DdManager::new();
        let amps = [
            Complex::SQRT2_INV,
            Complex::ZERO,
            Complex::ZERO,
            Complex::SQRT2_INV,
        ];
        let v = dd.vec_from_amplitudes(&amps);
        let c = dd.collapse(v, 0, true);
        assert!((dd.prob_one(c, 1) - 1.0).abs() < 1e-10);
        let c0 = dd.collapse(v, 0, false);
        assert!(dd.prob_one(c0, 1).abs() < 1e-10);
    }

    #[test]
    fn measure_qubit_follows_random_draw() {
        let mut dd = DdManager::new();
        let amps = [
            Complex::SQRT2_INV,
            Complex::ZERO,
            Complex::ZERO,
            Complex::SQRT2_INV,
        ];
        let v = dd.vec_from_amplitudes(&amps);
        let (o_low, _) = dd.measure_qubit(v, 0, 0.1);
        let (o_high, _) = dd.measure_qubit(v, 0, 0.9);
        assert!(o_low, "draw below p1=0.5 must give outcome 1");
        assert!(!o_high, "draw above p1=0.5 must give outcome 0");
    }

    #[test]
    fn sampling_respects_distribution() {
        let mut dd = DdManager::new();
        // |ψ⟩ = |11⟩ deterministic: every sample must be 3.
        let v = dd.vec_basis(2, 3);
        let mut counter = 0.0;
        let mut next = move || {
            counter += 0.37;
            counter % 1.0
        };
        let norms = dd.subtree_norms(v);
        for _ in 0..16 {
            assert_eq!(dd.sample(v, &norms, &mut next), 3);
        }
    }

    #[test]
    fn sampling_uniform_superposition_hits_all_outcomes() {
        let mut dd = DdManager::new();
        let amps = vec![Complex::real(0.5); 4];
        let v = dd.vec_from_amplitudes(&amps);
        // Low-discrepancy deterministic sequence covering [0,1).
        let mut x = 0.0f64;
        let mut next = move || {
            x = (x + 0.381_966) % 1.0;
            x
        };
        let norms = dd.subtree_norms(v);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..64 {
            seen.insert(dd.sample(v, &norms, &mut next));
        }
        assert_eq!(seen.len(), 4, "all four outcomes must appear");
    }

    #[test]
    #[should_panic(expected = "zero probability")]
    fn collapse_on_impossible_outcome_panics() {
        let mut dd = DdManager::new();
        let v = dd.vec_basis(2, 0);
        let _ = dd.collapse(v, 0, true);
    }
}
