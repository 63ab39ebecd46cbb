//! Construction and inspection of vector decision diagrams (quantum states).

use std::collections::HashMap;

use ddsim_complex::{Complex, ComplexId};

use crate::edge::{Level, NodeId, VecEdge};
use crate::hash::{FxHashMap, FxHashSet};
use crate::manager::DdManager;

impl DdManager {
    /// Builds the computational-basis state `|index⟩` over `n` qubits.
    ///
    /// Bit `n-1-q` of `index` is the value of qubit `q` (qubit 0 is the
    /// topmost / most significant, as in the paper's figures) — regardless
    /// of the manager's current variable order, which only changes which
    /// *level* hosts each qubit.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 2^n` or `n == 0` or `n > 63`.
    pub fn vec_basis(&mut self, n: u32, index: u64) -> VecEdge {
        assert!((1..=63).contains(&n), "qubit count out of range");
        assert!(index < (1u64 << n), "basis index out of range");
        let mut edge = VecEdge::terminal(ComplexId::ONE);
        for level in 1..=n {
            let bit = (index >> (n - 1 - self.var_order.qubit_at(n, level))) & 1;
            let children = if bit == 0 {
                [edge, VecEdge::ZERO]
            } else {
                [VecEdge::ZERO, edge]
            };
            edge = self.make_vec_node(level, children);
        }
        edge
    }

    /// Builds the all-zeros state `|0…0⟩` over `n` qubits.
    pub fn vec_zero_state(&mut self, n: u32) -> VecEdge {
        self.vec_basis(n, 0)
    }

    /// Builds the uniform superposition `H^{⊗n}|0…0⟩` directly — one node
    /// per level, no gate applications.
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0 or greater than 63.
    pub fn vec_uniform(&mut self, n: u32) -> VecEdge {
        assert!((1..=63).contains(&n), "qubit count out of range");
        let mut edge = VecEdge::terminal(ComplexId::ONE);
        for level in 1..=n {
            edge = self.make_vec_node(level, [edge, edge]);
        }
        let amplitude = self.intern(Complex::real(1.0 / ((1u64 << n) as f64).sqrt()));
        VecEdge {
            node: edge.node,
            weight: self.complex.mul(edge.weight, amplitude),
        }
    }

    /// Builds a state vector from `2^n` dense amplitudes.
    ///
    /// Intended for tests and small instances: the input is exponential in
    /// the qubit count.
    ///
    /// # Panics
    ///
    /// Panics if the length of `amplitudes` is not a power of two.
    pub fn vec_from_amplitudes(&mut self, amplitudes: &[Complex]) -> VecEdge {
        assert!(
            amplitudes.len().is_power_of_two() && amplitudes.len() >= 2,
            "amplitude vector length must be a power of two >= 2"
        );
        let n = amplitudes.len().trailing_zeros();
        if self.var_order.is_identity() {
            return self.vec_from_slice(amplitudes, n);
        }
        // Gather into internal path order (level ℓ's branch in bit ℓ-1),
        // then run the plain half-split recursion.
        let permuted: Vec<Complex> = (0..amplitudes.len() as u64)
            .map(|p| amplitudes[self.var_order.external_index(n, p) as usize])
            .collect();
        self.vec_from_slice(&permuted, n)
    }

    fn vec_from_slice(&mut self, amplitudes: &[Complex], level: Level) -> VecEdge {
        if level == 0 {
            let w = self.intern(amplitudes[0]);
            return if w.is_zero() {
                VecEdge::ZERO
            } else {
                VecEdge::terminal(w)
            };
        }
        let half = amplitudes.len() / 2;
        let lo = self.vec_from_slice(&amplitudes[..half], level - 1);
        let hi = self.vec_from_slice(&amplitudes[half..], level - 1);
        self.make_vec_node(level, [lo, hi])
    }

    /// The amplitude of basis state `index` in the vector denoted by `e`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range for the edge's level.
    pub fn vec_amplitude(&self, e: VecEdge, index: u64) -> Complex {
        let level = self.vec_level(e);
        assert!(index < (1u64 << level), "basis index out of range");
        let internal = self.var_order.internal_index(level, index);
        let mut weight = self.complex_value(e.weight);
        let mut node_id = e.node;
        let mut lvl = level;
        while !node_id.is_terminal() {
            let node = self.vec_node(node_id);
            let bit = (internal >> (lvl - 1)) & 1;
            let child = node.edges[bit as usize];
            weight *= self.complex_value(child.weight);
            node_id = child.node;
            lvl -= 1;
            if child.is_zero() {
                return Complex::ZERO;
            }
        }
        weight
    }

    /// Materializes all `2^level` amplitudes, indexed by the external basis
    /// convention (tests / small instances only).
    pub fn vec_to_amplitudes(&self, e: VecEdge) -> Vec<Complex> {
        let level = self.vec_level(e);
        let mut out = vec![Complex::ZERO; 1usize << level];
        self.fill_amplitudes(e, Complex::ONE, 0, level, &mut out);
        if !self.var_order.is_identity() && level > 0 {
            // `fill_amplitudes` walks paths, i.e. internal order: scatter
            // to external basis indices.
            let mut external = vec![Complex::ZERO; out.len()];
            for (p, amp) in out.iter().enumerate() {
                external[self.var_order.external_index(level, p as u64) as usize] = *amp;
            }
            out = external;
        }
        out
    }

    fn fill_amplitudes(
        &self,
        e: VecEdge,
        acc: Complex,
        offset: u64,
        level: Level,
        out: &mut [Complex],
    ) {
        if e.is_zero() {
            return;
        }
        let acc = acc * self.complex_value(e.weight);
        if e.node.is_terminal() {
            out[offset as usize] = acc;
            return;
        }
        let node = *self.vec_node(e.node);
        debug_assert_eq!(node.level, level);
        let half = 1u64 << (level - 1);
        self.fill_amplitudes(
            VecEdge {
                node: node.edges[0].node,
                weight: node.edges[0].weight,
            },
            acc,
            offset,
            level - 1,
            out,
        );
        self.fill_amplitudes(
            VecEdge {
                node: node.edges[1].node,
                weight: node.edges[1].weight,
            },
            acc,
            offset + half,
            level - 1,
            out,
        );
    }

    /// Squared L2 norm of the vector (1.0 for a normalized quantum state).
    pub fn vec_norm_sqr(&self, e: VecEdge) -> f64 {
        let mut cache = FxHashMap::default();
        self.norm_sqr_rec(e.node, &mut cache) * self.complex_value(e.weight).norm_sqr()
    }

    pub(crate) fn norm_sqr_rec(&self, node: NodeId, cache: &mut FxHashMap<NodeId, f64>) -> f64 {
        if node.is_terminal() {
            return 1.0;
        }
        if let Some(&v) = cache.get(&node) {
            return v;
        }
        let n = *self.vec_node(node);
        let mut total = 0.0;
        for child in n.edges {
            if !child.is_zero() {
                total += self.complex_value(child.weight).norm_sqr()
                    * self.norm_sqr_rec(child.node, cache);
            }
        }
        cache.insert(node, total);
        total
    }

    /// Inner product `⟨a|b⟩` of two vectors of equal level.
    ///
    /// # Panics
    ///
    /// Panics if the edges have different levels.
    pub fn vec_inner_product(&mut self, a: VecEdge, b: VecEdge) -> Complex {
        assert_eq!(
            self.vec_level(a),
            self.vec_level(b),
            "inner product of vectors with different levels"
        );
        let mut cache = HashMap::new();
        self.inner_rec(a, b, &mut cache)
    }

    fn inner_rec(
        &mut self,
        a: VecEdge,
        b: VecEdge,
        cache: &mut HashMap<(VecEdge, VecEdge), Complex>,
    ) -> Complex {
        if a.is_zero() || b.is_zero() {
            return Complex::ZERO;
        }
        if a.node.is_terminal() && b.node.is_terminal() {
            return self.complex_value(a.weight).conj() * self.complex_value(b.weight);
        }
        if let Some(&v) = cache.get(&(a, b)) {
            return v;
        }
        let an = *self.vec_node(a.node);
        let bn = *self.vec_node(b.node);
        let wa = self.complex_value(a.weight).conj();
        let wb = self.complex_value(b.weight);
        let mut total = Complex::ZERO;
        for i in 0..2 {
            total += self.inner_rec(an.edges[i], bn.edges[i], cache);
        }
        let result = total * (wa * wb);
        cache.insert((a, b), result);
        result
    }

    /// Fidelity `|⟨a|b⟩|²` between two states.
    pub fn vec_fidelity(&mut self, a: VecEdge, b: VecEdge) -> f64 {
        self.vec_inner_product(a, b).norm_sqr()
    }

    /// Number of distinct nodes reachable from `e` (excluding the terminal).
    ///
    /// This is the paper's "size of the DD" for vectors.
    pub fn vec_node_count(&self, e: VecEdge) -> usize {
        let mut seen = FxHashSet::default();
        self.count_vec_rec(e.node, &mut seen);
        seen.len()
    }

    fn count_vec_rec(&self, node: NodeId, seen: &mut FxHashSet<NodeId>) {
        if node.is_terminal() || !seen.insert(node) {
            return;
        }
        let n = *self.vec_node(node);
        for child in n.edges {
            self.count_vec_rec(child.node, seen);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basis_state_amplitudes() {
        let mut dd = DdManager::new();
        let e = dd.vec_basis(3, 0b011);
        let amps = dd.vec_to_amplitudes(e);
        for (i, a) in amps.iter().enumerate() {
            if i == 0b011 {
                assert!(a.approx_eq(Complex::ONE, 1e-12));
            } else {
                assert!(a.approx_eq(Complex::ZERO, 1e-12));
            }
        }
        assert!((dd.vec_norm_sqr(e) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn basis_states_share_nodes() {
        let mut dd = DdManager::new();
        let a = dd.vec_basis(4, 0);
        let b = dd.vec_basis(4, 0);
        assert_eq!(a, b);
    }

    #[test]
    fn from_amplitudes_roundtrip() {
        let mut dd = DdManager::new();
        let amps = vec![
            Complex::new(0.5, 0.0),
            Complex::new(0.0, 0.5),
            Complex::new(-0.5, 0.0),
            Complex::new(0.0, -0.5),
        ];
        let e = dd.vec_from_amplitudes(&amps);
        let back = dd.vec_to_amplitudes(e);
        for (x, y) in amps.iter().zip(back.iter()) {
            assert!(x.approx_eq(*y, 1e-10));
        }
    }

    #[test]
    fn node_sharing_for_repeated_subvectors() {
        let mut dd = DdManager::new();
        // [1, 1, 1, 1]/2: maximal sharing, one node per level.
        let amps = vec![Complex::real(0.5); 4];
        let e = dd.vec_from_amplitudes(&amps);
        assert_eq!(dd.vec_node_count(e), 2);
    }

    #[test]
    fn scalar_multiples_share_nodes() {
        let mut dd = DdManager::new();
        // [1, 2] and [2, 4] are multiples: same node, different edge weight.
        let a = dd.vec_from_amplitudes(&[Complex::real(1.0), Complex::real(2.0)]);
        let b = dd.vec_from_amplitudes(&[Complex::real(2.0), Complex::real(4.0)]);
        assert_eq!(a.node, b.node);
        assert_ne!(a.weight, b.weight);
    }

    #[test]
    fn inner_product_orthogonal_and_self() {
        let mut dd = DdManager::new();
        let a = dd.vec_basis(2, 0);
        let b = dd.vec_basis(2, 3);
        assert!(dd.vec_inner_product(a, b).approx_eq(Complex::ZERO, 1e-12));
        assert!(dd.vec_inner_product(a, a).approx_eq(Complex::ONE, 1e-12));
        assert!((dd.vec_fidelity(a, a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn amplitude_query_matches_dense() {
        let mut dd = DdManager::new();
        let amps = vec![
            Complex::new(0.1, 0.2),
            Complex::new(0.3, -0.1),
            Complex::new(-0.2, 0.4),
            Complex::new(0.0, 0.0),
            Complex::new(0.5, 0.5),
            Complex::new(-0.1, -0.3),
            Complex::new(0.2, 0.0),
            Complex::new(0.0, 0.1),
        ];
        let e = dd.vec_from_amplitudes(&amps);
        for (i, want) in amps.iter().enumerate() {
            let got = dd.vec_amplitude(e, i as u64);
            assert!(got.approx_eq(*want, 1e-9), "index {i}: {got} vs {want}");
        }
    }
}
