//! Reference results the benchmark compares the program's outputs with.
//! None of this runs inside a timed region.

use ddsim_algorithms::numtheory::{multiplicative_order, pow_mod};
use ddsim_algorithms::shor::ShorInstance;
use ddsim_circuit::{lower_swap, Circuit, GateOp, Operation};
use ddsim_complex::Complex;
use ddsim_dd::reference::DenseVector;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Amplitude tolerance against the dense reference.
pub const AMP_TOL: f64 = 1e-6;

/// Lowers a unitary circuit to elementary gates (repeats and swaps
/// expanded), the form both dense references consume.
fn elementary_gates(circuit: &Circuit) -> Vec<(GateOp, Vec<u32>)> {
    let mut gates = Vec::new();
    for op in circuit.flattened().ops() {
        match op {
            Operation::Gate(g) => {
                let touched = g.controls.iter().map(|c| c.qubit).chain([g.target]);
                gates.push((g.clone(), touched.collect()));
            }
            Operation::Swap { a, b, controls } => {
                let lowered = lower_swap(*a, *b, controls);
                let last = lowered.len() - 1;
                for (i, g) in lowered.into_iter().enumerate() {
                    // One noise step per swap, after its last gate, as in
                    // the program's noise model.
                    let touched = if i == last {
                        controls.iter().map(|c| c.qubit).chain([*a, *b]).collect()
                    } else {
                        Vec::new()
                    };
                    gates.push((g, touched));
                }
            }
            Operation::Barrier => {}
            other => panic!("dense reference takes unitary circuits only, got {other:?}"),
        }
    }
    gates
}

/// Final state of a unitary circuit on the dense state-vector reference.
pub fn dense_state(circuit: &Circuit) -> Vec<Complex> {
    let mut v = DenseVector::basis(circuit.qubits(), 0);
    for (g, _) in elementary_gates(circuit) {
        v.apply_controlled(g.gate.matrix(), g.target, &g.controls);
    }
    v.amplitudes().to_vec()
}

/// Largest absolute amplitude difference.
pub fn max_abs_diff(a: &[Complex], b: &[Complex]) -> f64 {
    assert_eq!(a.len(), b.len(), "state dimensions differ");
    a.iter()
        .zip(b)
        .map(|(x, y)| (*x - *y).abs())
        .fold(0.0, f64::max)
}

/// Exact ρ of a unitary circuit under per-gate, per-touched-qubit
/// depolarizing noise of probability `p`, as a dense `2^n × 2^n` matrix.
pub fn dense_density(circuit: &Circuit, p: f64) -> Vec<Vec<Complex>> {
    let n = circuit.qubits();
    let dim = 1usize << n;
    let mut rho = vec![vec![Complex::ZERO; dim]; dim];
    rho[0][0] = Complex::ONE;
    // U·M on every column of M.
    let left = |m: &mut Vec<Vec<Complex>>, u: [[Complex; 2]; 2], g: &GateOp| {
        for col in 0..dim {
            let column: Vec<Complex> = m.iter().map(|row| row[col]).collect();
            let mut v = DenseVector::from_amplitudes(column);
            v.apply_controlled(u, g.target, &g.controls);
            for (row, a) in m.iter_mut().zip(v.amplitudes()) {
                row[col] = *a;
            }
        }
    };
    let dagger = |m: &Vec<Vec<Complex>>| -> Vec<Vec<Complex>> {
        (0..dim)
            .map(|r| (0..dim).map(|c| m[c][r].conj()).collect())
            .collect()
    };
    // U·ρ·U† = U·(U·ρ)† for Hermitian ρ.
    let conjugate = |m: &mut Vec<Vec<Complex>>, u: [[Complex; 2]; 2], g: &GateOp| {
        left(m, u, g);
        *m = dagger(m);
        left(m, u, g);
    };
    for (g, touched) in elementary_gates(circuit) {
        conjugate(&mut rho, g.gate.matrix(), &g);
        for q in touched {
            let mut acc: Vec<Vec<Complex>> = rho
                .iter()
                .map(|row| row.iter().map(|a| *a * (1.0 - p)).collect())
                .collect();
            for pauli in [
                ddsim_circuit::StandardGate::X,
                ddsim_circuit::StandardGate::Y,
                ddsim_circuit::StandardGate::Z,
            ] {
                let mut term = rho.clone();
                let op = GateOp {
                    gate: pauli,
                    target: q,
                    controls: Vec::new(),
                };
                conjugate(&mut term, pauli.matrix(), &op);
                for (r, row) in term.iter().enumerate() {
                    for (c, a) in row.iter().enumerate() {
                        acc[r][c] += *a * (p / 3.0);
                    }
                }
            }
            rho = acc;
        }
    }
    rho
}

/// Analytic success probability of Grover search after `iterations`
/// rounds over `search_qubits` qubits with one marked element.
pub fn grover_success(search_qubits: u32, iterations: u32) -> f64 {
    let theta = (1.0 / f64::from(1u32 << search_qubits).sqrt()).asin();
    ((2.0 * f64::from(iterations) + 1.0) * theta).sin().powi(2)
}

/// The phase `x` a correct semiclassical order-finding run measures for a
/// measurement seed, replaying the program's draw stream (one uniform
/// draw per round, outcome 1 iff `draw < P(1)`, bit `i` measured in round
/// `i`) against the exact conditional probabilities.
///
/// The work register starts in `|1⟩ = Σ_k |u_k⟩/√r`, so the low `j`
/// measured bits are distributed as a `j`-bit phase estimate of
/// `2^{t−j}·k/r`, `k` uniform: `P_j(c) = (1/r) Σ_k F_j(2^{t−j}k/r − c/2^j)`
/// with the Fejér kernel `F_j(δ) = sin²(π2^jδ) / (4^j sin²(πδ))`.
pub fn shor_reference_phase(inst: ShorInstance, seed: u64) -> u64 {
    let t = inst.phase_bits();
    let r = multiplicative_order(inst.base, inst.modulus);
    let marginal = |j: u32, c: u64| -> f64 {
        let scale = f64::from(1u32 << j);
        let mut total = 0.0;
        for k in 0..r {
            // 2^{t−j}·k mod r, kept exact in integers.
            let num = (u128::from(pow_mod(2, u64::from(t - j), r)) * u128::from(k)) % u128::from(r);
            let delta = num as f64 / r as f64 - c as f64 / scale;
            let s = (std::f64::consts::PI * delta).sin();
            total += if s.abs() < 1e-12 {
                1.0
            } else {
                ((std::f64::consts::PI * scale * delta).sin() / (scale * s)).powi(2)
            };
        }
        total / r as f64
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut x = 0u64;
    for i in 0..t {
        let one = marginal(i + 1, x | (1 << i));
        let zero = marginal(i + 1, x);
        let draw = rng.gen::<f64>();
        if draw < one / (one + zero) {
            x |= 1 << i;
        }
    }
    x
}

/// Per-qubit `P(1)` marginals of a diagonal indexed like the program's
/// outcomes (qubit `q` is bit `q` of the index, as sampled outcomes are).
pub fn marginals_from_diagonal(diagonal: &[f64], n: u32) -> Vec<f64> {
    (0..n)
        .map(|q| {
            diagonal
                .iter()
                .enumerate()
                .filter(|(idx, _)| (idx >> q) & 1 == 1)
                .map(|(_, p)| p)
                .sum()
        })
        .collect()
}

/// Largest deviation of trajectory marginals from the exact ones, and
/// whether every qubit stays within the `5σ + 0.03` bound.
pub fn trajectory_marginals_ok(
    exact_p1: &[f64],
    counts: &[(u64, u32)],
    trajectories: u32,
) -> (f64, bool) {
    let shots = f64::from(trajectories);
    let mut worst = 0.0f64;
    let mut ok = true;
    for (q, &p) in exact_p1.iter().enumerate() {
        let ones: u64 = counts
            .iter()
            .filter(|(o, _)| (o >> q) & 1 == 1)
            .map(|(_, c)| u64::from(*c))
            .sum();
        let estimate = ones as f64 / shots;
        let p = p.clamp(0.0, 1.0);
        let bound = 5.0 * (p * (1.0 - p) / shots).sqrt() + 0.03;
        let dev = (p - estimate).abs();
        worst = worst.max(dev);
        ok &= dev <= bound;
    }
    (worst, ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddsim_algorithms::shor::shor_circuit;
    use ddsim_core::{run_shor_dd_construct, simulate, SimOptions};

    #[test]
    fn shor_reference_matches_both_program_paths() {
        for (n, a) in [(15, 7), (21, 2), (55, 17)] {
            let inst = ShorInstance::new(n, a);
            let circuit = shor_circuit(inst);
            for seed in 0..4 {
                let want = shor_reference_phase(inst, seed);
                let options = SimOptions {
                    seed,
                    ..SimOptions::default()
                };
                let (sim, _) = simulate(&circuit, options).expect("shor run");
                assert_eq!(
                    sim.classical_value(),
                    want,
                    "circuit N={n} a={a} seed={seed}"
                );
                let construct = run_shor_dd_construct(inst, seed);
                assert_eq!(
                    construct.measured_phase, want,
                    "construct N={n} seed={seed}"
                );
            }
        }
    }

    #[test]
    fn dense_density_of_a_noiseless_circuit_is_the_pure_state() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).t(1);
        let psi = dense_state(&c);
        let rho = dense_density(&c, 0.0);
        for (r, row) in rho.iter().enumerate() {
            for (col, v) in row.iter().enumerate() {
                assert!((*v - psi[r] * psi[col].conj()).abs() < 1e-12);
            }
        }
        let noisy = dense_density(&c, 0.1);
        let trace: f64 = (0..4).map(|i| noisy[i][i].re).sum();
        assert!((trace - 1.0).abs() < 1e-12);
    }
}
