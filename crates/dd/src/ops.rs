//! The DD operations at the heart of the paper: addition, matrix-vector
//! multiplication (Fig. 3/4), matrix-matrix multiplication, conjugate
//! transpose, and Kronecker products.
//!
//! All operations are memoized. Multiplication caches key on node-id pairs
//! only — edge weights factor out of products, so one entry serves every
//! weighted occurrence of the same node pair. The recursion counters in
//! [`DdStats`](crate::DdStats) give the machine-independent cost measure the
//! paper's Section III reasons about: MxM on two small gate DDs takes more
//! steps *per node* but touches far fewer nodes than MxV through a large
//! state DD.
//!
//! Every operation is *governable*: the public entry points dispatch once
//! per top-level call — never per recursion step — onto one of two
//! monomorphized kernel instantiations (see `govern.rs`). When a budget,
//! deadline, or cancel token is configured, the governed instantiation
//! charges the manager's amortized resource counter at each recursion step
//! and unwinds with a [`DdError`] once a limit trips; otherwise the
//! ungoverned instantiation runs infallible recursions with zero charge
//! branches. An unwound operation leaves no dangling state — partially
//! built nodes carry no external references (the next GC reclaims them)
//! and every compute-table entry already written is a complete, valid
//! result, so retrying after recovery is bitwise-safe. Both instantiations
//! build identical diagrams (property-tested below).

use ddsim_complex::ComplexId;

use crate::edge::{MatEdge, NodeId, VecEdge};
use crate::error::DdError;
use crate::govern::{gtry, Governance, Governed, Ungoverned};
use crate::manager::{Arena, ArenaNode, DdManager};

/// Whether a node referenced by a compute-table entry is still the node the
/// entry saw: its slot must not have been freed at or after the entry was
/// written (terminals are never freed). The free-epoch stamp lives inside
/// the arena slot (same cache line as the node, PR 7). See the epoch
/// scheme documented on [`DdManager::collect_garbage`].
#[inline]
pub(crate) fn live<N: ArenaNode>(arena: &Arena<N>, id: NodeId, entry_epoch: u32) -> bool {
    arena.is_live(id, entry_epoch)
}

impl DdManager {
    // ------------------------------------------------------------------
    // Addition
    // ------------------------------------------------------------------

    /// Adds two vector DDs of equal level.
    ///
    /// # Errors
    ///
    /// Returns a [`DdError`] if a resource budget, the deadline, or a
    /// cancellation trips mid-operation; the manager stays consistent.
    ///
    /// # Panics
    ///
    /// Panics if the (nonzero) operands have different levels.
    pub fn add_vec(&mut self, a: VecEdge, b: VecEdge) -> Result<VecEdge, DdError> {
        if a.is_zero() {
            return Ok(b);
        }
        if b.is_zero() {
            return Ok(a);
        }
        assert_eq!(
            self.vec_level(a),
            self.vec_level(b),
            "adding vectors of different levels"
        );
        if self.is_governed() {
            self.add_vec_inner::<Governed>(a, b)
        } else {
            Ok(self.add_vec_inner::<Ungoverned>(a, b))
        }
    }

    fn add_vec_rec<G: Governance>(&mut self, a: VecEdge, b: VecEdge) -> G::Res<VecEdge> {
        self.stats.add_recursions += 1;
        gtry!(G::charge(self));
        if a.node.is_terminal() && b.node.is_terminal() {
            return G::wrap(VecEdge::terminal(self.complex.add(a.weight, b.weight)));
        }
        let level = self.vec_level(a);
        let ac = self.vec_children_weighted(a);
        let bc = self.vec_children_weighted(b);
        let lo = gtry!(self.add_vec_inner::<G>(ac[0], bc[0]));
        let hi = gtry!(self.add_vec_inner::<G>(ac[1], bc[1]));
        G::wrap(self.make_vec_node(level, [lo, hi]))
    }

    /// Like [`add_vec`](Self::add_vec) but without the level assertion
    /// (children of validated parents are already consistent).
    pub(crate) fn add_vec_inner<G: Governance>(
        &mut self,
        a: VecEdge,
        b: VecEdge,
    ) -> G::Res<VecEdge> {
        if a.is_zero() {
            return G::wrap(b);
        }
        if b.is_zero() {
            return G::wrap(a);
        }
        // Commutative: canonical operand order doubles the cache hit rate.
        let (a, b) = if (a.node, a.weight) <= (b.node, b.weight) {
            (a, b)
        } else {
            (b, a)
        };
        // Factor the first operand's weight out so the cache key carries
        // only the weight *ratio*.
        let ratio = self.complex.div(b.weight, a.weight);
        let key = (
            VecEdge {
                node: a.node,
                weight: ComplexId::ONE,
            },
            VecEdge {
                node: b.node,
                weight: ratio,
            },
        );
        let fe = &self.vec_arena;
        if let Some(cached) = self.compute.add_vec.lookup(&key, |k, v, ep| {
            live(fe, k.0.node, ep) && live(fe, k.1.node, ep) && live(fe, v.node, ep)
        }) {
            return G::wrap(VecEdge {
                node: cached.node,
                weight: self.complex.mul(cached.weight, a.weight),
            });
        }
        let result = gtry!(self.add_vec_rec::<G>(key.0, key.1));
        let epoch = self.epoch;
        self.compute.add_vec.insert(key, result, epoch);
        G::wrap(VecEdge {
            node: result.node,
            weight: self.complex.mul(result.weight, a.weight),
        })
    }

    /// Adds two matrix DDs of equal level.
    ///
    /// # Errors
    ///
    /// Returns a [`DdError`] if a resource budget, the deadline, or a
    /// cancellation trips mid-operation; the manager stays consistent.
    ///
    /// # Panics
    ///
    /// Panics if the (nonzero) operands have different levels.
    pub fn add_mat(&mut self, a: MatEdge, b: MatEdge) -> Result<MatEdge, DdError> {
        if a.is_zero() {
            return Ok(b);
        }
        if b.is_zero() {
            return Ok(a);
        }
        assert_eq!(
            self.mat_level(a),
            self.mat_level(b),
            "adding matrices of different levels"
        );
        if self.is_governed() {
            self.add_mat_inner::<Governed>(a, b)
        } else {
            Ok(self.add_mat_inner::<Ungoverned>(a, b))
        }
    }

    pub(crate) fn add_mat_inner<G: Governance>(
        &mut self,
        a: MatEdge,
        b: MatEdge,
    ) -> G::Res<MatEdge> {
        if a.is_zero() {
            return G::wrap(b);
        }
        if b.is_zero() {
            return G::wrap(a);
        }
        let (a, b) = if (a.node, a.weight) <= (b.node, b.weight) {
            (a, b)
        } else {
            (b, a)
        };
        let ratio = self.complex.div(b.weight, a.weight);
        let key = (
            MatEdge {
                node: a.node,
                weight: ComplexId::ONE,
            },
            MatEdge {
                node: b.node,
                weight: ratio,
            },
        );
        let fe = &self.mat_arena;
        if let Some(cached) = self.compute.add_mat.lookup(&key, |k, v, ep| {
            live(fe, k.0.node, ep) && live(fe, k.1.node, ep) && live(fe, v.node, ep)
        }) {
            return G::wrap(MatEdge {
                node: cached.node,
                weight: self.complex.mul(cached.weight, a.weight),
            });
        }
        let result = gtry!(self.add_mat_rec::<G>(key.0, key.1));
        let epoch = self.epoch;
        self.compute.add_mat.insert(key, result, epoch);
        G::wrap(MatEdge {
            node: result.node,
            weight: self.complex.mul(result.weight, a.weight),
        })
    }

    fn add_mat_rec<G: Governance>(&mut self, a: MatEdge, b: MatEdge) -> G::Res<MatEdge> {
        self.stats.add_recursions += 1;
        gtry!(G::charge(self));
        if a.node.is_terminal() && b.node.is_terminal() {
            return G::wrap(MatEdge::terminal(self.complex.add(a.weight, b.weight)));
        }
        let level = self.mat_level(a);
        let ac = self.mat_children_weighted(a);
        let bc = self.mat_children_weighted(b);
        let mut children = [MatEdge::ZERO; 4];
        for i in 0..4 {
            children[i] = gtry!(self.add_mat_inner::<G>(ac[i], bc[i]));
        }
        G::wrap(self.make_mat_node(level, children))
    }

    // ------------------------------------------------------------------
    // Matrix-vector multiplication (the simulation step, Eq. 1)
    // ------------------------------------------------------------------

    /// Computes `M × v` (Fig. 3 of the paper).
    ///
    /// # Errors
    ///
    /// Returns a [`DdError`] if a resource budget, the deadline, or a
    /// cancellation trips mid-operation; the manager stays consistent.
    ///
    /// # Panics
    ///
    /// Panics if the (nonzero) operands have different levels.
    pub fn mat_vec_mul(&mut self, m: MatEdge, v: VecEdge) -> Result<VecEdge, DdError> {
        if m.is_zero() || v.is_zero() {
            return Ok(VecEdge::ZERO);
        }
        assert_eq!(
            self.mat_level(m),
            self.vec_level(v),
            "matrix and vector levels differ"
        );
        self.stats.mat_vec_mults += 1;
        // Parallel dispatch: under `Par::Threaded` with a real pool and a
        // large enough operand, fork the top quadrant products (see
        // `par.rs`). `Par::Seq` never takes this branch.
        if let Some(pool) = self.par_pool(self.mat_level(m)) {
            return self.mat_vec_mul_par(m, v, &pool);
        }
        self.mat_vec_mul_seq(m, v)
    }

    /// The strictly sequential `M × v` kernel: one `is_governed` read
    /// decides which monomorphized recursion runs the whole operation.
    /// Also the fallback for fork-join tasks too small to split.
    pub(crate) fn mat_vec_mul_seq(&mut self, m: MatEdge, v: VecEdge) -> Result<VecEdge, DdError> {
        if m.is_zero() || v.is_zero() {
            return Ok(VecEdge::ZERO);
        }
        if self.is_governed() {
            self.charge()?;
            self.mat_vec_inner::<Governed>(m, v)
        } else {
            Ok(self.mat_vec_inner::<Ungoverned>(m, v))
        }
    }

    fn mat_vec_inner<G: Governance>(&mut self, m: MatEdge, v: VecEdge) -> G::Res<VecEdge> {
        if m.is_zero() || v.is_zero() {
            return G::wrap(VecEdge::ZERO);
        }
        // Weights factor out: cache on the node pair with unit tops.
        let outer = self.complex.mul(m.weight, v.weight);
        if m.node.is_terminal() && v.node.is_terminal() {
            return G::wrap(VecEdge::terminal(outer));
        }
        // I·v = v: the scalar already lives in `outer`, so an identity
        // operand needs no recursion, no cache entry, and no new nodes.
        if self.config.identity_skip && self.is_identity_node(m.node) {
            self.stats.identity_skips += 1;
            return G::wrap(VecEdge {
                node: v.node,
                weight: outer,
            });
        }
        let faulted = self.config.fault == crate::FaultKind::MatVecCacheKeyDropsVector;
        let key = if faulted {
            // Injected fault: the vector operand is dropped from the cache
            // key, so a hit can return the product for a *different* state.
            (m.node, m.node)
        } else {
            (m.node, v.node)
        };
        let mfe = &self.mat_arena;
        let vfe = &self.vec_arena;
        let unit = if let Some(cached) = self.compute.mat_vec.lookup(&key, |k, v, ep| {
            let second_live = if faulted {
                live(mfe, k.1, ep)
            } else {
                live(vfe, k.1, ep)
            };
            live(mfe, k.0, ep) && second_live && live(vfe, v.node, ep)
        }) {
            cached
        } else {
            let computed = gtry!(self.mat_vec_rec::<G>(m.node, v.node));
            let epoch = self.epoch;
            self.compute.mat_vec.insert(key, computed, epoch);
            computed
        };
        G::wrap(VecEdge {
            node: unit.node,
            weight: self.complex.mul(unit.weight, outer),
        })
    }

    fn mat_vec_rec<G: Governance>(
        &mut self,
        m_node: crate::edge::NodeId,
        v_node: crate::edge::NodeId,
    ) -> G::Res<VecEdge> {
        self.stats.mult_recursions += 1;
        gtry!(G::charge(self));
        let mn = *self.mat_node(m_node);
        let vn = *self.vec_node(v_node);
        debug_assert_eq!(mn.level, vn.level);
        let level = mn.level;
        // [M00 M01; M10 M11] × [v0; v1] = [M00·v0 + M01·v1; M10·v0 + M11·v1]
        // (the paper's Fig. 3, with the two intermediate vectors fused into
        // pairwise additions of the sub-products). A structural zero in the
        // matrix row elides its sub-product and the addition outright —
        // every level of a controlled gate above its target has two zero
        // children, so this is the common shape — and `x + 0 = x` keeps the
        // result bitwise identical to the unelided recursion.
        let lo = if mn.edges[1].is_zero() {
            gtry!(self.mat_vec_inner::<G>(mn.edges[0], vn.edges[0]))
        } else if mn.edges[0].is_zero() {
            gtry!(self.mat_vec_inner::<G>(mn.edges[1], vn.edges[1]))
        } else {
            let x0 = gtry!(self.mat_vec_inner::<G>(mn.edges[0], vn.edges[0]));
            let y0 = gtry!(self.mat_vec_inner::<G>(mn.edges[1], vn.edges[1]));
            gtry!(self.add_vec_inner::<G>(x0, y0))
        };
        let hi = if mn.edges[3].is_zero() {
            gtry!(self.mat_vec_inner::<G>(mn.edges[2], vn.edges[0]))
        } else if mn.edges[2].is_zero() {
            gtry!(self.mat_vec_inner::<G>(mn.edges[3], vn.edges[1]))
        } else {
            let x1 = gtry!(self.mat_vec_inner::<G>(mn.edges[2], vn.edges[0]));
            let y1 = gtry!(self.mat_vec_inner::<G>(mn.edges[3], vn.edges[1]));
            gtry!(self.add_vec_inner::<G>(x1, y1))
        };
        G::wrap(self.make_vec_node(level, [lo, hi]))
    }

    // ------------------------------------------------------------------
    // Matrix-matrix multiplication (combining operations, Eq. 2)
    // ------------------------------------------------------------------

    /// Computes the matrix product `A × B` (apply `B` first, then `A`).
    ///
    /// # Errors
    ///
    /// Returns a [`DdError`] if a resource budget, the deadline, or a
    /// cancellation trips mid-operation; the manager stays consistent.
    ///
    /// # Panics
    ///
    /// Panics if the (nonzero) operands have different levels.
    pub fn mat_mat_mul(&mut self, a: MatEdge, b: MatEdge) -> Result<MatEdge, DdError> {
        if a.is_zero() || b.is_zero() {
            return Ok(MatEdge::ZERO);
        }
        assert_eq!(
            self.mat_level(a),
            self.mat_level(b),
            "matrix operand levels differ"
        );
        self.stats.mat_mat_mults += 1;
        if let Some(pool) = self.par_pool(self.mat_level(a)) {
            return self.mat_mat_mul_par(a, b, &pool);
        }
        self.mat_mat_mul_seq(a, b)
    }

    /// The strictly sequential `A × B` kernel (see
    /// [`mat_vec_mul_seq`](Self::mat_vec_mul_seq)).
    pub(crate) fn mat_mat_mul_seq(&mut self, a: MatEdge, b: MatEdge) -> Result<MatEdge, DdError> {
        if a.is_zero() || b.is_zero() {
            return Ok(MatEdge::ZERO);
        }
        if self.is_governed() {
            self.charge()?;
            self.mat_mat_inner::<Governed>(a, b)
        } else {
            Ok(self.mat_mat_inner::<Ungoverned>(a, b))
        }
    }

    fn mat_mat_inner<G: Governance>(&mut self, a: MatEdge, b: MatEdge) -> G::Res<MatEdge> {
        if a.is_zero() || b.is_zero() {
            return G::wrap(MatEdge::ZERO);
        }
        let outer = self.complex.mul(a.weight, b.weight);
        if a.node.is_terminal() && b.node.is_terminal() {
            return G::wrap(MatEdge::terminal(outer));
        }
        // I·B = B and A·I = A, with the scalars already folded into `outer`.
        if self.config.identity_skip {
            if self.is_identity_node(a.node) {
                self.stats.identity_skips += 1;
                return G::wrap(MatEdge {
                    node: b.node,
                    weight: outer,
                });
            }
            if self.is_identity_node(b.node) {
                self.stats.identity_skips += 1;
                return G::wrap(MatEdge {
                    node: a.node,
                    weight: outer,
                });
            }
        }
        let key = (a.node, b.node);
        let fe = &self.mat_arena;
        let unit = if let Some(cached) = self.compute.mat_mat.lookup(&key, |k, v, ep| {
            live(fe, k.0, ep) && live(fe, k.1, ep) && live(fe, v.node, ep)
        }) {
            cached
        } else {
            let computed = gtry!(self.mat_mat_rec::<G>(a.node, b.node));
            let epoch = self.epoch;
            self.compute.mat_mat.insert(key, computed, epoch);
            computed
        };
        G::wrap(MatEdge {
            node: unit.node,
            weight: self.complex.mul(unit.weight, outer),
        })
    }

    fn mat_mat_rec<G: Governance>(
        &mut self,
        a_node: crate::edge::NodeId,
        b_node: crate::edge::NodeId,
    ) -> G::Res<MatEdge> {
        self.stats.mult_recursions += 1;
        gtry!(G::charge(self));
        let an = *self.mat_node(a_node);
        let bn = *self.mat_node(b_node);
        debug_assert_eq!(an.level, bn.level);
        let level = an.level;
        let mut children = [MatEdge::ZERO; 4];
        for r in 0..2usize {
            for c in 0..2usize {
                // (A×B)_{rc} = A_{r0}·B_{0c} + A_{r1}·B_{1c}, with the same
                // structural-zero elision as the matrix-vector recursion
                // (gate DDs are mostly zeros, and `x + 0 = x` bitwise).
                children[2 * r + c] = if an.edges[2 * r + 1].is_zero() || bn.edges[2 + c].is_zero()
                {
                    gtry!(self.mat_mat_inner::<G>(an.edges[2 * r], bn.edges[c]))
                } else if an.edges[2 * r].is_zero() || bn.edges[c].is_zero() {
                    gtry!(self.mat_mat_inner::<G>(an.edges[2 * r + 1], bn.edges[2 + c]))
                } else {
                    let p0 = gtry!(self.mat_mat_inner::<G>(an.edges[2 * r], bn.edges[c]));
                    let p1 = gtry!(self.mat_mat_inner::<G>(an.edges[2 * r + 1], bn.edges[2 + c]));
                    gtry!(self.add_mat_inner::<G>(p0, p1))
                };
            }
        }
        G::wrap(self.make_mat_node(level, children))
    }

    // ------------------------------------------------------------------
    // Conjugate transpose
    // ------------------------------------------------------------------

    /// Computes the conjugate transpose `M†` (e.g. for inverse circuits and
    /// unitarity checks).
    ///
    /// # Errors
    ///
    /// Returns a [`DdError`] if a resource budget, the deadline, or a
    /// cancellation trips mid-operation; the manager stays consistent.
    pub fn mat_conj_transpose(&mut self, m: MatEdge) -> Result<MatEdge, DdError> {
        if self.is_governed() {
            self.conj_transpose_inner::<Governed>(m)
        } else {
            Ok(self.conj_transpose_inner::<Ungoverned>(m))
        }
    }

    fn conj_transpose_inner<G: Governance>(&mut self, m: MatEdge) -> G::Res<MatEdge> {
        if m.is_zero() {
            return G::wrap(MatEdge::ZERO);
        }
        let w = self.complex.conj(m.weight);
        if m.node.is_terminal() {
            return G::wrap(MatEdge::terminal(w));
        }
        // The identity is Hermitian: I† = I, only the weight conjugates.
        if self.config.identity_skip && self.is_identity_node(m.node) {
            self.stats.identity_skips += 1;
            return G::wrap(MatEdge {
                node: m.node,
                weight: w,
            });
        }
        gtry!(G::charge(self));
        let fe = &self.mat_arena;
        let unit = if let Some(cached) = self
            .compute
            .conj_transpose
            .lookup(&m.node, |k, v, ep| live(fe, *k, ep) && live(fe, v.node, ep))
        {
            cached
        } else {
            let node = *self.mat_node(m.node);
            let children = [
                gtry!(self.conj_transpose_inner::<G>(node.edges[0])),
                // Transpose swaps the off-diagonal quadrants.
                gtry!(self.conj_transpose_inner::<G>(node.edges[2])),
                gtry!(self.conj_transpose_inner::<G>(node.edges[1])),
                gtry!(self.conj_transpose_inner::<G>(node.edges[3])),
            ];
            let computed = self.make_mat_node(node.level, children);
            let epoch = self.epoch;
            self.compute.conj_transpose.insert(m.node, computed, epoch);
            computed
        };
        G::wrap(MatEdge {
            node: unit.node,
            weight: self.complex.mul(unit.weight, w),
        })
    }

    // ------------------------------------------------------------------
    // Kronecker products
    // ------------------------------------------------------------------

    /// Computes `a ⊗ b` for vectors (`a` supplies the upper levels).
    ///
    /// # Errors
    ///
    /// Returns a [`DdError`] if a resource budget, the deadline, or a
    /// cancellation trips mid-operation; the manager stays consistent.
    pub fn kron_vec(&mut self, a: VecEdge, b: VecEdge) -> Result<VecEdge, DdError> {
        if self.is_governed() {
            self.kron_vec_inner::<Governed>(a, b)
        } else {
            Ok(self.kron_vec_inner::<Ungoverned>(a, b))
        }
    }

    fn kron_vec_inner<G: Governance>(&mut self, a: VecEdge, b: VecEdge) -> G::Res<VecEdge> {
        if a.is_zero() || b.is_zero() {
            return G::wrap(VecEdge::ZERO);
        }
        let outer = a.weight;
        let unit = gtry!(self.kron_vec_unit::<G>(
            VecEdge {
                node: a.node,
                weight: ComplexId::ONE,
            },
            b,
        ));
        G::wrap(VecEdge {
            node: unit.node,
            weight: self.complex.mul(unit.weight, outer),
        })
    }

    fn kron_vec_unit<G: Governance>(&mut self, a: VecEdge, b: VecEdge) -> G::Res<VecEdge> {
        if a.node.is_terminal() {
            return G::wrap(VecEdge {
                node: b.node,
                weight: self.complex.mul(a.weight, b.weight),
            });
        }
        gtry!(G::charge(self));
        let key = (a.node, b);
        let fe = &self.vec_arena;
        if let Some(cached) = self.compute.kron_vec.lookup(&key, |k, v, ep| {
            live(fe, k.0, ep) && live(fe, k.1.node, ep) && live(fe, v.node, ep)
        }) {
            return G::wrap(cached);
        }
        let node = *self.vec_node(a.node);
        let b_level = self.vec_level(b);
        let lo = gtry!(self.kron_vec_unit::<G>(node.edges[0], b));
        let hi = gtry!(self.kron_vec_unit::<G>(node.edges[1], b));
        let result = self.make_vec_node(node.level + b_level, [lo, hi]);
        let epoch = self.epoch;
        self.compute.kron_vec.insert(key, result, epoch);
        G::wrap(result)
    }

    /// Computes `a ⊗ b` for matrices (`a` supplies the upper levels) — the
    /// operation behind the paper's `H ⊗ I` example in Section II-A.
    ///
    /// # Errors
    ///
    /// Returns a [`DdError`] if a resource budget, the deadline, or a
    /// cancellation trips mid-operation; the manager stays consistent.
    pub fn kron_mat(&mut self, a: MatEdge, b: MatEdge) -> Result<MatEdge, DdError> {
        if self.is_governed() {
            self.kron_mat_inner::<Governed>(a, b)
        } else {
            Ok(self.kron_mat_inner::<Ungoverned>(a, b))
        }
    }

    fn kron_mat_inner<G: Governance>(&mut self, a: MatEdge, b: MatEdge) -> G::Res<MatEdge> {
        if a.is_zero() || b.is_zero() {
            return G::wrap(MatEdge::ZERO);
        }
        // I(k) ⊗ I(l) = I(k+l): serve the canonical identity from the
        // per-level cache instead of recursing (hash-consing makes the
        // result identical to what the recursion would build).
        if self.config.identity_skip
            && self.is_identity_node(a.node)
            && self.is_identity_node(b.node)
        {
            self.stats.identity_skips += 1;
            let levels = self.mat_level(a) + self.mat_level(b);
            let id = self.mat_identity(levels);
            let weight = self.complex.mul(a.weight, b.weight);
            return G::wrap(MatEdge {
                node: id.node,
                weight,
            });
        }
        let outer = a.weight;
        let unit = gtry!(self.kron_mat_unit::<G>(
            MatEdge {
                node: a.node,
                weight: ComplexId::ONE,
            },
            b,
        ));
        G::wrap(MatEdge {
            node: unit.node,
            weight: self.complex.mul(unit.weight, outer),
        })
    }

    fn kron_mat_unit<G: Governance>(&mut self, a: MatEdge, b: MatEdge) -> G::Res<MatEdge> {
        if a.node.is_terminal() {
            return G::wrap(MatEdge {
                node: b.node,
                weight: self.complex.mul(a.weight, b.weight),
            });
        }
        gtry!(G::charge(self));
        let key = (a.node, b);
        let fe = &self.mat_arena;
        if let Some(cached) = self.compute.kron_mat.lookup(&key, |k, v, ep| {
            live(fe, k.0, ep) && live(fe, k.1.node, ep) && live(fe, v.node, ep)
        }) {
            return G::wrap(cached);
        }
        let node = *self.mat_node(a.node);
        let b_level = self.mat_level(b);
        let mut children = [MatEdge::ZERO; 4];
        for (child, &edge) in children.iter_mut().zip(node.edges.iter()) {
            *child = gtry!(self.kron_mat_unit::<G>(edge, b));
        }
        let result = self.make_mat_node(node.level + b_level, children);
        let epoch = self.epoch;
        self.compute.kron_mat.insert(key, result, epoch);
        G::wrap(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Resource;
    use crate::manager::DdConfig;
    use crate::matrix::{Control, Matrix2};
    use ddsim_complex::Complex;

    fn h_gate() -> Matrix2 {
        let h = Complex::SQRT2_INV;
        [[h, h], [h, -h]]
    }

    fn x_gate() -> Matrix2 {
        [[Complex::ZERO, Complex::ONE], [Complex::ONE, Complex::ZERO]]
    }

    /// Dense reference multiplication for validation.
    fn dense_mat_vec(m: &[Vec<Complex>], v: &[Complex]) -> Vec<Complex> {
        m.iter()
            .map(|row| {
                row.iter()
                    .zip(v.iter())
                    .fold(Complex::ZERO, |acc, (a, b)| acc + *a * *b)
            })
            .collect()
    }

    fn dense_mat_mat(a: &[Vec<Complex>], b: &[Vec<Complex>]) -> Vec<Vec<Complex>> {
        let n = a.len();
        (0..n)
            .map(|r| {
                (0..n)
                    .map(|c| (0..n).fold(Complex::ZERO, |acc, k| acc + a[r][k] * b[k][c]))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn paper_example1_bell_state() {
        // Fig. 1: |ψ⟩ = |01⟩, H on q0, CX(q0→q1) ⇒ (|01⟩ + |10⟩)/√2.
        let mut dd = DdManager::new();
        let v0 = dd.vec_basis(2, 0b01);
        let h = dd.mat_single_qubit(2, 0, h_gate());
        let cx = dd.mat_controlled(2, &[Control::pos(0)], 1, x_gate());
        let v1 = dd.mat_vec_mul(h, v0).unwrap();
        let v2 = dd.mat_vec_mul(cx, v1).unwrap();
        let amps = dd.vec_to_amplitudes(v2);
        let s = Complex::SQRT2_INV;
        assert!(amps[0b00].approx_eq(Complex::ZERO, 1e-12));
        assert!(amps[0b01].approx_eq(s, 1e-12));
        assert!(amps[0b10].approx_eq(s, 1e-12));
        assert!(amps[0b11].approx_eq(Complex::ZERO, 1e-12));
    }

    #[test]
    fn combining_matches_sequential_paper_eq1_vs_eq2() {
        // (M2 × M1) × v == M2 × (M1 × v) — the paper's core identity.
        let mut dd = DdManager::new();
        let v0 = dd.vec_basis(3, 0b010);
        let m1 = dd.mat_single_qubit(3, 0, h_gate());
        let m2 = dd.mat_controlled(3, &[Control::pos(0)], 2, x_gate());

        let seq = {
            let t = dd.mat_vec_mul(m1, v0).unwrap();
            dd.mat_vec_mul(m2, t).unwrap()
        };
        let combined = {
            let p = dd.mat_mat_mul(m2, m1).unwrap();
            dd.mat_vec_mul(p, v0).unwrap()
        };
        // Canonicity: identical states are identical edges.
        assert_eq!(seq, combined);
    }

    #[test]
    fn mat_vec_matches_dense_reference() {
        let mut dd = DdManager::new();
        let rows = vec![
            vec![
                Complex::new(0.5, 0.1),
                Complex::ZERO,
                Complex::I,
                Complex::real(0.2),
            ],
            vec![
                Complex::ZERO,
                Complex::real(-1.0),
                Complex::ZERO,
                Complex::new(0.1, 0.1),
            ],
            vec![
                Complex::real(0.3),
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
        let v = vec![
            Complex::new(0.1, 0.2),
            Complex::real(0.4),
            Complex::new(-0.3, 0.1),
            Complex::I,
        ];
        let m_dd = dd.mat_from_dense(&rows);
        let v_dd = dd.vec_from_amplitudes(&v);
        let r_dd = dd.mat_vec_mul(m_dd, v_dd).unwrap();
        let got = dd.vec_to_amplitudes(r_dd);
        let want = dense_mat_vec(&rows, &v);
        for i in 0..4 {
            assert!(got[i].approx_eq(want[i], 1e-9), "index {i}");
        }
    }

    #[test]
    fn mat_mat_matches_dense_reference() {
        let mut dd = DdManager::new();
        let a = vec![
            vec![Complex::real(1.0), Complex::I, Complex::ZERO, Complex::ZERO],
            vec![
                Complex::ZERO,
                Complex::real(0.5),
                Complex::real(0.5),
                Complex::ZERO,
            ],
            vec![
                Complex::new(0.2, -0.1),
                Complex::ZERO,
                Complex::ONE,
                Complex::ZERO,
            ],
            vec![
                Complex::ZERO,
                Complex::ZERO,
                Complex::ZERO,
                Complex::new(0.0, -1.0),
            ],
        ];
        let b = vec![
            vec![
                Complex::real(0.3),
                Complex::ZERO,
                Complex::ZERO,
                Complex::ONE,
            ],
            vec![Complex::ZERO, Complex::I, Complex::ZERO, Complex::ZERO],
            vec![
                Complex::ONE,
                Complex::ZERO,
                Complex::real(-0.5),
                Complex::ZERO,
            ],
            vec![
                Complex::ZERO,
                Complex::real(0.7),
                Complex::ZERO,
                Complex::real(0.2),
            ],
        ];
        let a_dd = dd.mat_from_dense(&a);
        let b_dd = dd.mat_from_dense(&b);
        let p_dd = dd.mat_mat_mul(a_dd, b_dd).unwrap();
        let got = dd.mat_to_dense(p_dd);
        let want = dense_mat_mat(&a, &b);
        for r in 0..4 {
            for c in 0..4 {
                assert!(got[r][c].approx_eq(want[r][c], 1e-9), "({r},{c})");
            }
        }
    }

    #[test]
    fn addition_matches_dense_reference() {
        let mut dd = DdManager::new();
        let a = vec![Complex::real(0.25); 8];
        let mut b = vec![Complex::ZERO; 8];
        b[3] = Complex::new(0.5, -0.5);
        b[6] = Complex::I;
        let a_dd = dd.vec_from_amplitudes(&a);
        let b_dd = dd.vec_from_amplitudes(&b);
        let s_dd = dd.add_vec(a_dd, b_dd).unwrap();
        let got = dd.vec_to_amplitudes(s_dd);
        for i in 0..8 {
            assert!(got[i].approx_eq(a[i] + b[i], 1e-10), "index {i}");
        }
    }

    #[test]
    fn addition_is_commutative_on_dds() {
        let mut dd = DdManager::new();
        let a = dd.vec_basis(3, 1);
        let b = dd.vec_basis(3, 5);
        let ab = dd.add_vec(a, b).unwrap();
        let ba = dd.add_vec(b, a).unwrap();
        assert_eq!(ab, ba);
    }

    #[test]
    fn identity_is_multiplicative_neutral() {
        let mut dd = DdManager::new();
        let id = dd.mat_identity(4);
        let h = dd.mat_single_qubit(4, 2, h_gate());
        let left = dd.mat_mat_mul(id, h).unwrap();
        let right = dd.mat_mat_mul(h, id).unwrap();
        assert_eq!(left, h);
        assert_eq!(right, h);

        let v = dd.vec_basis(4, 7);
        let iv = dd.mat_vec_mul(id, v).unwrap();
        assert_eq!(iv, v);
    }

    #[test]
    fn hadamard_squares_to_identity() {
        let mut dd = DdManager::new();
        let h = dd.mat_single_qubit(3, 1, h_gate());
        let hh = dd.mat_mat_mul(h, h).unwrap();
        let id = dd.mat_identity(3);
        assert_eq!(hh, id);
    }

    #[test]
    fn unitarity_u_dagger_u_is_identity() {
        let mut dd = DdManager::new();
        let cx = dd.mat_controlled(3, &[Control::pos(2)], 0, x_gate());
        let h = dd.mat_single_qubit(3, 1, h_gate());
        let u = dd.mat_mat_mul(cx, h).unwrap();
        let udag = dd.mat_conj_transpose(u).unwrap();
        let product = dd.mat_mat_mul(udag, u).unwrap();
        let id = dd.mat_identity(3);
        assert_eq!(product, id);
    }

    #[test]
    fn conj_transpose_is_involution() {
        let mut dd = DdManager::new();
        let s_gate: Matrix2 = [[Complex::ONE, Complex::ZERO], [Complex::ZERO, Complex::I]];
        let m = dd.mat_single_qubit(2, 0, s_gate);
        let back = {
            let t = dd.mat_conj_transpose(m).unwrap();
            dd.mat_conj_transpose(t).unwrap()
        };
        assert_eq!(back, m);
    }

    #[test]
    fn kron_matches_paper_h_tensor_i() {
        // Section II-A: H ⊗ I₂ as the 4x4 matrix in Example 1.
        let mut dd = DdManager::new();
        let h1 = dd.mat_single_qubit(1, 0, h_gate());
        let i1 = dd.mat_identity(1);
        let hi = dd.kron_mat(h1, i1).unwrap();
        let h_top = dd.mat_single_qubit(2, 0, h_gate());
        assert_eq!(hi, h_top);
    }

    #[test]
    fn kron_vec_composes_basis_states() {
        let mut dd = DdManager::new();
        let a = dd.vec_basis(2, 0b10);
        let b = dd.vec_basis(3, 0b011);
        let ab = dd.kron_vec(a, b).unwrap();
        let direct = dd.vec_basis(5, 0b10011);
        assert_eq!(ab, direct);
    }

    #[test]
    fn multiplication_stats_are_counted() {
        let mut dd = DdManager::new();
        dd.reset_stats();
        let v = dd.vec_basis(2, 0);
        let h = dd.mat_single_qubit(2, 0, h_gate());
        let _ = dd.mat_vec_mul(h, v).unwrap();
        let _ = dd.mat_mat_mul(h, h).unwrap();
        let stats = dd.stats();
        assert_eq!(stats.mat_vec_mults, 1);
        assert_eq!(stats.mat_mat_mults, 1);
        assert!(stats.mult_recursions > 0);
    }

    #[test]
    fn compute_cache_hits_on_repetition() {
        let mut dd = DdManager::new();
        let v = dd.vec_basis(6, 0);
        let h = dd.mat_single_qubit(6, 3, h_gate());
        let r1 = dd.mat_vec_mul(h, v).unwrap();
        let before = dd.stats().mult_recursions;
        let r2 = dd.mat_vec_mul(h, v).unwrap();
        let after = dd.stats().mult_recursions;
        assert_eq!(r1, r2);
        assert_eq!(before, after, "second multiply must be fully cached");
    }

    #[test]
    fn gc_reclaims_unreferenced_nodes() {
        let mut dd = DdManager::new();
        let keep = dd.vec_basis(5, 3);
        dd.inc_ref_vec(keep);
        // Create garbage.
        for i in 0..20 {
            let _ = dd.vec_basis(5, i);
        }
        let before = dd.live_vec_nodes();
        dd.collect_garbage();
        let after = dd.live_vec_nodes();
        assert!(after < before);
        // The protected state is intact.
        assert!((dd.vec_norm_sqr(keep) - 1.0).abs() < 1e-12);
        assert!(dd.vec_amplitude(keep, 3).approx_eq(Complex::ONE, 1e-12));
    }

    #[test]
    fn gc_then_rebuild_is_consistent() {
        let mut dd = DdManager::new();
        let a = dd.vec_basis(4, 9);
        dd.inc_ref_vec(a);
        dd.collect_garbage();
        let b = dd.vec_basis(4, 9);
        assert_eq!(a, b, "rebuilding after GC must reuse the protected nodes");
    }

    // ------------------------------------------------------------------
    // Governor
    // ------------------------------------------------------------------

    /// One round of budget-tripping work: H everywhere, then a ladder of
    /// round-dependent controlled phases. Varying `round` defeats the
    /// compute caches and keeps allocating fresh nodes and weights, so the
    /// live-node count and table footprint both keep climbing.
    fn budget_workload(dd: &mut DdManager, n: u32, round: u32) -> Result<VecEdge, DdError> {
        let mut v = dd.vec_basis(n, 0);
        for q in 0..n {
            let h = dd.mat_single_qubit(n, q, h_gate());
            v = dd.mat_vec_mul(h, v)?;
        }
        for q in 1..n {
            let theta = 0.37 * (q as f64 + 1.0) + 1e-3 * round as f64;
            let p: Matrix2 = [
                [Complex::ONE, Complex::ZERO],
                [Complex::ZERO, Complex::from_polar(1.0, theta)],
            ];
            let g = dd.mat_controlled(n, &[Control::pos(q - 1)], q, p);
            v = dd.mat_vec_mul(g, v)?;
        }
        Ok(v)
    }

    /// Repeats the workload until the governor trips (or gives up).
    fn run_until_err(dd: &mut DdManager, n: u32, rounds: u32) -> Result<VecEdge, DdError> {
        let mut result = Ok(VecEdge::ZERO);
        for round in 0..rounds {
            result = budget_workload(dd, n, round);
            if result.is_err() {
                break;
            }
        }
        result
    }

    /// One pass over the full kernel surface: generic and specialized
    /// multiplication, addition, Kronecker products, conjugate transpose,
    /// plus a mid-stream garbage collection. Used to compare the two
    /// governance instantiations bit for bit.
    fn full_surface_workload(dd: &mut DdManager) -> (VecEdge, MatEdge) {
        let n = 6;
        let mut v = dd.vec_basis(n, 0b010110);
        for q in 0..n {
            let h = dd.mat_single_qubit(n, q, h_gate());
            v = dd.mat_vec_mul(h, v).unwrap();
        }
        for q in 1..n {
            let theta = 0.41 * q as f64;
            let p: Matrix2 = [
                [Complex::ONE, Complex::ZERO],
                [Complex::ZERO, Complex::from_polar(1.0, theta)],
            ];
            let g = dd.mat_controlled(n, &[Control::pos(q - 1)], q, p);
            v = dd.mat_vec_mul(g, v).unwrap();
        }
        v = dd.apply_single_qubit(2, h_gate(), v).unwrap();
        v = dd
            .apply_controlled(&[Control::pos(0), Control::neg(4)], 3, x_gate(), v)
            .unwrap();
        dd.inc_ref_vec(v);
        dd.collect_garbage();
        dd.dec_ref_vec(v);
        let b = dd.vec_basis(n, 0b000111);
        let sum = dd.add_vec(v, b).unwrap();
        let a3 = dd.vec_basis(3, 0b101);
        let k = dd.kron_vec(a3, a3).unwrap();
        let v2 = dd.add_vec(sum, k).unwrap();
        let h = dd.mat_single_qubit(n, 1, h_gate());
        let cx = dd.mat_controlled(n, &[Control::pos(4)], 2, x_gate());
        let prod = dd.mat_mat_mul(cx, h).unwrap();
        let dag = dd.mat_conj_transpose(prod).unwrap();
        let h3 = dd.mat_single_qubit(3, 0, h_gate());
        let km = dd.kron_mat(h3, h3).unwrap();
        let m = dd.mat_mat_mul(dag, km).unwrap();
        let v3 = dd.mat_vec_mul(m, v2).unwrap();
        (v3, m)
    }

    /// Tentpole property: the governed and ungoverned instantiations build
    /// byte-identical diagrams. With deterministic arena allocation, the
    /// same operation replay must yield the same edges (node ids *and*
    /// interned weight ids), the same statistics, and the same live node
    /// counts — the governance policy only decides whether the governor is
    /// consulted, never what gets built.
    #[test]
    fn governed_and_ungoverned_instantiations_are_bitwise_identical() {
        let mut ungoverned = DdManager::new();
        // A budget far above anything the workload allocates: the manager
        // dispatches every operation onto the governed instantiation, but
        // no limit ever trips.
        let mut governed = DdManager::with_config(DdConfig {
            max_live_nodes: Some(usize::MAX),
            ..DdConfig::default()
        });
        assert!(!ungoverned.is_governed());
        assert!(governed.is_governed());

        let (vu, mu) = full_surface_workload(&mut ungoverned);
        let (vg, mg) = full_surface_workload(&mut governed);
        assert_eq!(vu, vg, "state edges must be bitwise identical");
        assert_eq!(mu, mg, "matrix edges must be bitwise identical");
        assert_eq!(ungoverned.stats(), governed.stats());
        assert_eq!(ungoverned.live_vec_nodes(), governed.live_vec_nodes());
        assert_eq!(ungoverned.live_mat_nodes(), governed.live_mat_nodes());
        assert_eq!(ungoverned.distinct_weights(), governed.distinct_weights());

        let au = ungoverned.vec_to_amplitudes(vu);
        let ag = governed.vec_to_amplitudes(vg);
        for (i, (x, y)) in au.iter().zip(ag.iter()).enumerate() {
            assert_eq!(x.re.to_bits(), y.re.to_bits(), "amplitude {i} (re)");
            assert_eq!(x.im.to_bits(), y.im.to_bits(), "amplitude {i} (im)");
        }
    }

    /// Satellite: a limit armed *between* top-level operations must flip
    /// the next operation onto the governed instantiation — the dispatch
    /// reads `is_governed()` per call, so nothing is latched at manager
    /// construction.
    #[test]
    fn deadline_armed_mid_run_flips_dispatch_to_governed() {
        let mut dd = DdManager::new();
        assert!(!dd.is_governed());
        // The first gates run on the ungoverned instantiation.
        budget_workload(&mut dd, 10, 0).unwrap();
        // Arm an already-expired deadline between operations…
        dd.set_deadline(Some(std::time::Instant::now()));
        assert!(dd.is_governed());
        // …and the very next operation observes it.
        let h = dd.mat_single_qubit(10, 0, h_gate());
        let s = dd.vec_basis(10, 0);
        assert_eq!(dd.mat_vec_mul(h, s), Err(DdError::DeadlineExceeded));
        // Clearing the deadline restores the ungoverned fast path.
        dd.set_deadline(None);
        assert!(!dd.is_governed());
        budget_workload(&mut dd, 10, 0).unwrap();

        // Same contract for a cancel token registered mid-run.
        let token = crate::CancelToken::new();
        token.cancel();
        dd.set_cancel_token(Some(token));
        assert!(dd.is_governed());
        let err = run_until_err(&mut dd, 10, 4).unwrap_err();
        assert_eq!(err, DdError::Cancelled);
        dd.set_cancel_token(None);
        assert!(!dd.is_governed());
    }

    #[test]
    fn live_node_budget_trips_with_typed_error() {
        let config = DdConfig {
            max_live_nodes: Some(8),
            ..DdConfig::default()
        };
        let mut dd = DdManager::with_config(config);
        match run_until_err(&mut dd, 12, 200) {
            Err(DdError::BudgetExceeded) => {
                let b = dd.last_breach().expect("breach details recorded");
                assert_eq!((b.resource, b.limit), (Resource::LiveNodes, 8));
                assert!(b.observed > 8);
            }
            other => panic!("expected live-node budget error, got {other:?}"),
        }
        // The manager is still consistent: GC runs and fresh work succeeds.
        dd.collect_garbage();
        dd.config.max_live_nodes = None;
        let v = dd.vec_basis(3, 1);
        let h = dd.mat_single_qubit(3, 0, h_gate());
        let _ = dd.mat_vec_mul(h, v).unwrap();
    }

    #[test]
    fn expired_deadline_trips_promptly() {
        let mut dd = DdManager::new();
        dd.set_deadline(Some(std::time::Instant::now()));
        let err = run_until_err(&mut dd, 10, 4).unwrap_err();
        assert_eq!(err, DdError::DeadlineExceeded);
        dd.set_deadline(None);
        budget_workload(&mut dd, 10, 0).unwrap();
    }

    #[test]
    fn cancel_token_unwinds_within_one_interval() {
        let mut dd = DdManager::new();
        let token = crate::CancelToken::new();
        dd.set_cancel_token(Some(token.clone()));
        budget_workload(&mut dd, 10, 0).unwrap();
        token.cancel();
        // An immediate check observes the latch without waiting for the
        // amortized countdown…
        assert_eq!(dd.check_interrupts(), Err(DdError::Cancelled));
        // …and in-flight op streams unwind within one charge interval.
        let err = run_until_err(&mut dd, 10, 50).unwrap_err();
        assert_eq!(err, DdError::Cancelled);
        dd.set_cancel_token(None);
        budget_workload(&mut dd, 10, 0).unwrap();
    }

    #[test]
    fn table_byte_budget_trips_with_typed_error() {
        // Tiny tables so the baseline fits; growth then trips the budget.
        let config = DdConfig {
            compute_table_bits: 4,
            unique_table_bits: 4,
            max_table_bytes: Some(64 * 1024),
            max_live_nodes: None,
            ..DdConfig::default()
        };
        let mut dd = DdManager::with_config(config);
        match run_until_err(&mut dd, 14, 400) {
            Err(DdError::BudgetExceeded) => {
                let b = dd.last_breach().expect("breach details recorded");
                assert_eq!(b.resource, Resource::TableBytes);
                assert!(b.observed > b.limit);
            }
            other => panic!("expected table-byte budget error, got {other:?}"),
        }
    }
}
