//! Randomized cross-validation: the DD simulator under every strategy must
//! agree with a dense array-based simulation on random circuits.

use ddsim_repro::circuit::{Circuit, StandardGate};
use ddsim_repro::complex::Complex;
use ddsim_repro::core::{simulate, DdConfig, ReorderMode, SimOptions, Strategy};
use ddsim_repro::dd::reference::DenseVector;
use ddsim_repro::dd::{Control, DdManager};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generates a random circuit over `n` qubits with `gates` gates, drawing
/// from the full unitary surface: single-qubit gates, rotations, CX/CZ,
/// swaps, Toffolis, and multi-controlled gates with mixed control
/// polarities.
fn random_circuit(n: u32, gates: usize, seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::new(n);
    // `count` distinct qubits, the first being the target.
    let draw_qubits = |rng: &mut StdRng, count: usize| -> Vec<u32> {
        let mut pool: Vec<u32> = (0..n).collect();
        for i in 0..count.min(pool.len()) {
            let j = rng.gen_range(i..pool.len());
            pool.swap(i, j);
        }
        pool.truncate(count.min(n as usize));
        pool
    };
    for _ in 0..gates {
        let target = rng.gen_range(0..n);
        match rng.gen_range(0..14) {
            0 => c.x(target),
            1 => c.y(target),
            2 => c.z(target),
            3 => c.h(target),
            4 => c.s(target),
            5 => c.t(target),
            6 => c.rx(rng.gen_range(0.0..std::f64::consts::TAU), target),
            7 => c.rz(rng.gen_range(0.0..std::f64::consts::TAU), target),
            8 | 9 => {
                let control = (target + rng.gen_range(1..n)) % n;
                if rng.gen_bool(0.5) {
                    c.cx(control, target)
                } else {
                    c.cz(control, target)
                }
            }
            10 => {
                let q = draw_qubits(&mut rng, 2);
                c.swap(q[0], q[1])
            }
            11 if n >= 3 => {
                let q = draw_qubits(&mut rng, 3);
                c.ccx(q[1], q[2], q[0])
            }
            12 => {
                // Negative-control single gate.
                let q = draw_qubits(&mut rng, 2);
                let gate = if rng.gen_bool(0.5) {
                    StandardGate::X
                } else {
                    StandardGate::H
                };
                c.controlled_gate(gate, vec![Control::neg(q[1])], q[0])
            }
            _ if n >= 4 => {
                // Multi-controlled gate with mixed polarities.
                let q = draw_qubits(&mut rng, 4);
                let controls = vec![
                    Control::pos(q[1]),
                    Control::neg(q[2]),
                    if rng.gen_bool(0.5) {
                        Control::pos(q[3])
                    } else {
                        Control::neg(q[3])
                    },
                ];
                c.controlled_gate(StandardGate::X, controls, q[0])
            }
            _ => c.h(target),
        };
    }
    c
}

/// Dense reference simulation of a unitary-only circuit (polarity-aware
/// controls, swaps lowered exactly as the engine lowers them).
fn dense_reference(c: &Circuit) -> DenseVector {
    use ddsim_repro::circuit::{lower_swap, Operation};
    let mut v = DenseVector::basis(c.qubits(), 0);
    for op in c.flattened().ops() {
        match op {
            Operation::Gate(g) => v.apply_controlled(g.gate.matrix(), g.target, &g.controls),
            Operation::Swap { a, b, controls } => {
                for g in lower_swap(*a, *b, controls) {
                    v.apply_controlled(g.gate.matrix(), g.target, &g.controls);
                }
            }
            other => panic!("random circuits are unitary, got {other:?}"),
        }
    }
    v
}

fn check_agreement_with(n: u32, gates: usize, seed: u64, options: SimOptions) {
    let circuit = random_circuit(n, gates, seed);
    let dense = dense_reference(&circuit);
    let (sim, _) = simulate(&circuit, options).expect("run");
    let strategy = options.strategy;
    for (i, want) in dense.amplitudes().iter().enumerate() {
        let got = sim.amplitude(i as u64);
        assert!(
            got.approx_eq(*want, 1e-6),
            "seed {seed}, {strategy}, amplitude {i}: {got} vs {want}"
        );
    }
}

fn check_agreement(n: u32, gates: usize, seed: u64, strategy: Strategy) {
    check_agreement_with(n, gates, seed, SimOptions::with_strategy(strategy));
}

#[test]
fn sequential_matches_dense_on_random_circuits() {
    for seed in 0..8 {
        check_agreement(6, 60, seed, Strategy::Sequential);
    }
}

#[test]
fn k_operations_matches_dense_on_random_circuits() {
    for seed in 0..8 {
        check_agreement(6, 60, seed, Strategy::KOperations { k: 5 });
    }
}

#[test]
fn max_size_matches_dense_on_random_circuits() {
    for seed in 0..8 {
        check_agreement(6, 60, seed, Strategy::MaxSize { s_max: 48 });
    }
}

#[test]
fn dd_repeating_and_adaptive_match_dense() {
    for seed in 0..4 {
        check_agreement(6, 60, seed, Strategy::DdRepeating { k: 4 });
        check_agreement(6, 60, seed, Strategy::adaptive());
    }
}

#[test]
fn no_cache_matches_dense_on_random_circuits() {
    // Disabling memoization must change only the work done, never the
    // diagrams produced.
    for seed in 0..4 {
        for strategy in [Strategy::Sequential, Strategy::KOperations { k: 5 }] {
            let options = SimOptions {
                strategy,
                dd_config: DdConfig {
                    cache_enabled: false,
                    ..DdConfig::default()
                },
                ..SimOptions::default()
            };
            check_agreement_with(6, 50, seed, options);
        }
    }
}

#[test]
fn no_identity_skip_matches_dense_on_random_circuits() {
    // Disabling identity short-circuits forces the generic recursions and
    // the matrix-building gate path; results must be bit-compatible.
    for seed in 0..4 {
        for strategy in [Strategy::Sequential, Strategy::MaxSize { s_max: 48 }] {
            let options = SimOptions {
                strategy,
                dd_config: DdConfig {
                    identity_skip: false,
                    ..DdConfig::default()
                },
                ..SimOptions::default()
            };
            check_agreement_with(6, 50, seed, options);
        }
    }
}

#[test]
fn no_cache_no_identity_skip_matches_dense() {
    for seed in 0..3 {
        let options = SimOptions {
            strategy: Strategy::KOperations { k: 3 },
            dd_config: DdConfig {
                cache_enabled: false,
                identity_skip: false,
                ..DdConfig::default()
            },
            ..SimOptions::default()
        };
        check_agreement_with(5, 40, seed, options);
    }
}

#[test]
fn governed_and_ungoverned_runs_are_bitwise_identical() {
    // The governed and ungoverned kernel instantiations must build the
    // SAME diagrams — not merely tolerance-equal ones. A lax budget
    // (never trips) forces the governed instantiation end to end; the
    // default config takes the ungoverned fast path. Amplitudes must
    // match bit for bit and the machine-independent run statistics must
    // be identical, under both a gate-at-a-time and a matrix-combining
    // strategy.
    for seed in 0..4u64 {
        for strategy in [Strategy::Sequential, Strategy::KOperations { k: 5 }] {
            let circuit = random_circuit(6, 60, seed);
            let ungoverned = SimOptions::with_strategy(strategy);
            let governed = SimOptions {
                strategy,
                dd_config: DdConfig {
                    max_live_nodes: Some(usize::MAX),
                    ..DdConfig::default()
                },
                ..SimOptions::default()
            };
            let (sim_u, stats_u) = simulate(&circuit, ungoverned).expect("ungoverned run");
            let (sim_g, stats_g) = simulate(&circuit, governed).expect("governed run");
            for i in 0..(1u64 << 6) {
                let a = sim_u.amplitude(i);
                let b = sim_g.amplitude(i);
                assert_eq!(
                    (a.re.to_bits(), a.im.to_bits()),
                    (b.re.to_bits(), b.im.to_bits()),
                    "seed {seed}, {strategy}, amplitude {i}: {a} vs {b}"
                );
            }
            let shape_u = (
                stats_u.elementary_gates,
                stats_u.mat_vec_mults,
                stats_u.mat_mat_mults,
                stats_u.identity_skips,
                stats_u.specialized_applies,
                stats_u.mult_recursions,
                stats_u.add_recursions,
                stats_u.peak_state_nodes,
                stats_u.peak_matrix_nodes,
                stats_u.final_state_nodes,
                stats_u.gc_runs,
            );
            let shape_g = (
                stats_g.elementary_gates,
                stats_g.mat_vec_mults,
                stats_g.mat_mat_mults,
                stats_g.identity_skips,
                stats_g.specialized_applies,
                stats_g.mult_recursions,
                stats_g.add_recursions,
                stats_g.peak_state_nodes,
                stats_g.peak_matrix_nodes,
                stats_g.final_state_nodes,
                stats_g.gc_runs,
            );
            assert_eq!(
                shape_u, shape_g,
                "seed {seed}, {strategy}: run statistics diverged between instantiations"
            );
        }
    }
}

#[test]
fn explicit_single_thread_is_bitwise_identical_to_default() {
    // `threads: 1` is the documented sequential contract: no pool is
    // built, the `Par::Seq` kernels run, and the results — amplitudes AND
    // machine-independent statistics — must be bit-for-bit what the
    // default options produce. This pins the promise that turning the
    // threading knob to 1 can never change behavior.
    for seed in 0..4u64 {
        for strategy in [Strategy::Sequential, Strategy::KOperations { k: 5 }] {
            let circuit = random_circuit(6, 60, seed);
            let single = SimOptions {
                strategy,
                threads: 1,
                ..SimOptions::default()
            };
            let (sim_d, stats_d) =
                simulate(&circuit, SimOptions::with_strategy(strategy)).expect("default run");
            let (sim_s, stats_s) = simulate(&circuit, single).expect("threads=1 run");
            for i in 0..(1u64 << 6) {
                let a = sim_d.amplitude(i);
                let b = sim_s.amplitude(i);
                assert_eq!(
                    (a.re.to_bits(), a.im.to_bits()),
                    (b.re.to_bits(), b.im.to_bits()),
                    "seed {seed}, {strategy}, amplitude {i}: {a} vs {b}"
                );
            }
            let shape = |s: &ddsim_repro::core::RunStats| {
                (
                    s.elementary_gates,
                    s.mat_vec_mults,
                    s.mat_mat_mults,
                    s.identity_skips,
                    s.specialized_applies,
                    s.mult_recursions,
                    s.add_recursions,
                    s.peak_state_nodes,
                    s.peak_matrix_nodes,
                    s.final_state_nodes,
                    s.gc_runs,
                )
            };
            assert_eq!(
                shape(&stats_d),
                shape(&stats_s),
                "seed {seed}, {strategy}: threads=1 changed the run statistics"
            );
        }
    }
}

#[test]
fn threaded_runs_match_dense_on_random_circuits() {
    // A 3-lane pool on 6-qubit circuits (top level ≥ the fork cutoff, so
    // the fork-join kernels genuinely engage) must agree with the dense
    // reference under every combining strategy.
    for seed in 0..4 {
        for strategy in [
            Strategy::Sequential,
            Strategy::KOperations { k: 5 },
            Strategy::MaxSize { s_max: 48 },
            Strategy::adaptive(),
        ] {
            let options = SimOptions {
                strategy,
                threads: 3,
                ..SimOptions::default()
            };
            check_agreement_with(6, 60, seed, options);
        }
    }
}

#[test]
fn threaded_and_sequential_agree_to_normalization_tolerance() {
    // Threaded results are tolerance-equal to sequential, not bitwise:
    // worker managers intern complex values in a different order, so
    // representatives within a tolerance bucket can differ by ~1e-15.
    // The agreement bound here (1e-9) is far tighter than the dense
    // cross-check (1e-6) — any merge bug shows up as a gross mismatch,
    // not a rounding artifact.
    for seed in 0..4u64 {
        for strategy in [Strategy::Sequential, Strategy::KOperations { k: 5 }] {
            let circuit = random_circuit(6, 60, seed);
            let threaded = SimOptions {
                strategy,
                threads: 3,
                ..SimOptions::default()
            };
            let (sim_s, _) =
                simulate(&circuit, SimOptions::with_strategy(strategy)).expect("sequential run");
            let (sim_t, _) = simulate(&circuit, threaded).expect("threaded run");
            for i in 0..(1u64 << 6) {
                let a = sim_s.amplitude(i);
                let b = sim_t.amplitude(i);
                assert!(
                    a.approx_eq(b, 1e-9),
                    "seed {seed}, {strategy}, amplitude {i}: {a} vs {b}"
                );
            }
        }
    }
}

#[test]
fn threaded_runs_are_deterministic_across_reruns() {
    // Parallelism must not introduce run-to-run nondeterminism: the fork
    // planner, task order, and fixed-order result merge make two threaded
    // runs of the same circuit bit-for-bit identical even though worker
    // scheduling differs.
    for seed in 0..3u64 {
        let circuit = random_circuit(6, 60, seed);
        let options = SimOptions {
            strategy: Strategy::KOperations { k: 5 },
            threads: 3,
            ..SimOptions::default()
        };
        let (sim_a, _) = simulate(&circuit, options).expect("first threaded run");
        let (sim_b, _) = simulate(&circuit, options).expect("second threaded run");
        for i in 0..(1u64 << 6) {
            let a = sim_a.amplitude(i);
            let b = sim_b.amplitude(i);
            assert_eq!(
                (a.re.to_bits(), a.im.to_bits()),
                (b.re.to_bits(), b.im.to_bits()),
                "seed {seed}, amplitude {i}: {a} vs {b}"
            );
        }
    }
}

#[test]
fn threaded_sampling_is_reproducible_and_conserves_shots() {
    // The pooled sampler derives every shot's RNG stream from
    // (base draw, shot index) alone and merges lane histograms
    // commutatively, so at a fixed engine seed the histogram is exactly
    // reproducible across runs — worker scheduling can never change
    // counts — and every shot lands in exactly one bucket.
    let circuit = random_circuit(6, 60, 9);
    let run = || {
        let options = SimOptions {
            threads: 3,
            ..SimOptions::default()
        };
        let (mut sim, _) = simulate(&circuit, options).expect("run");
        sim.sample_counts(512)
    };
    let first = run();
    let second = run();
    assert_eq!(first.values().sum::<u32>(), 512, "shots lost or duplicated");
    assert_eq!(
        first.len(),
        second.len(),
        "distinct-outcome counts diverged"
    );
    for (outcome, count) in &first {
        assert_eq!(
            second.get(outcome),
            Some(count),
            "outcome {outcome:#b} count diverged across reruns"
        );
    }
}

#[test]
fn sifting_matches_dense_on_random_circuits() {
    // Dynamic variable reordering must be invisible in the amplitudes:
    // every qubit-indexed accessor translates through the live variable
    // order, so a sifted run agrees with the dense reference exactly as
    // an unsifted one does — under every combining strategy.
    let strategies = [
        Strategy::Sequential,
        Strategy::KOperations { k: 5 },
        Strategy::MaxSize { s_max: 48 },
        Strategy::DdRepeating { k: 4 },
        Strategy::adaptive(),
    ];
    for seed in 0..3 {
        for strategy in strategies {
            let options = SimOptions {
                strategy,
                reorder: ReorderMode::Sifting,
                ..SimOptions::default()
            };
            check_agreement_with(6, 60, seed, options);
        }
    }
}

#[test]
fn sifted_and_unsifted_runs_agree_to_tight_tolerance() {
    // Sifted amplitudes are tolerance-equal to unsifted ones, not
    // bitwise: swap normalization re-derives edge weights, so
    // representatives within a complex-table tolerance bucket can move by
    // ~1e-15. The 1e-9 bound here is far tighter than the dense
    // cross-check — a broken swap shows up as a gross mismatch. Checked
    // across strategies and on the threaded engine.
    for seed in 0..3u64 {
        for strategy in [Strategy::Sequential, Strategy::KOperations { k: 5 }] {
            for threads in [1u32, 3] {
                let circuit = random_circuit(6, 60, seed);
                let plain = SimOptions {
                    strategy,
                    threads,
                    ..SimOptions::default()
                };
                let sifted = SimOptions {
                    strategy,
                    threads,
                    reorder: ReorderMode::Sifting,
                    ..SimOptions::default()
                };
                let (sim_p, _) = simulate(&circuit, plain).expect("plain run");
                let (sim_r, stats_r) = simulate(&circuit, sifted).expect("sifted run");
                assert!(
                    stats_r.reorders + stats_r.ladder_reorders > 0,
                    "seed {seed}, {strategy}, threads {threads}: sifting mode never sifted"
                );
                for i in 0..(1u64 << 6) {
                    let a = sim_p.amplitude(i);
                    let b = sim_r.amplitude(i);
                    assert!(
                        a.approx_eq(b, 1e-9),
                        "seed {seed}, {strategy}, threads {threads}, amplitude {i}: {a} vs {b}"
                    );
                }
            }
        }
    }
}

#[test]
fn sifting_never_increases_node_count_on_random_states() {
    // `sift_state` is monotone by construction (it pins the smallest
    // diagram seen and jumps back to it), and a sift-then-restore round
    // trip through the identity order must reproduce the original
    // amplitudes bit for bit through the order-aware accessor.
    let mut rng = StdRng::seed_from_u64(0x51F7);
    for _ in 0..6 {
        let n = 6u32;
        let dim = 1usize << n;
        let amps: Vec<Complex> = (0..dim)
            .map(|_| {
                // A sparse-ish random vector so the DD has genuine
                // structure for sifting to exploit.
                if rng.gen_bool(0.4) {
                    Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
                } else {
                    Complex::ZERO
                }
            })
            .collect();
        if amps.iter().all(|a| a.norm_sqr() == 0.0) {
            continue;
        }
        let mut dd = DdManager::new();
        let state = dd.vec_from_amplitudes(&amps);
        dd.inc_ref_vec(state);
        let before: Vec<Complex> = (0..dim as u64)
            .map(|i| dd.vec_amplitude(state, i))
            .collect();
        let count_before = dd.vec_node_count(state);
        let (sifted, stats) = dd.sift_state(state, usize::MAX);
        assert!(
            stats.nodes_after <= stats.nodes_before,
            "sifting grew the DD: {} -> {}",
            stats.nodes_before,
            stats.nodes_after
        );
        assert!(dd.vec_node_count(sifted) <= count_before);
        // Amplitudes are preserved at the sifted order...
        for (i, want) in before.iter().enumerate() {
            let got = dd.vec_amplitude(sifted, i as u64);
            assert!(got.approx_eq(*want, 1e-9), "amplitude {i}: {got} vs {want}");
        }
        // ...and restoring the identity order is an exact round trip.
        let restored = dd.restore_identity_order(sifted);
        assert!(dd.var_order().is_identity());
        for (i, want) in before.iter().enumerate() {
            let got = dd.vec_amplitude(restored, i as u64);
            assert_eq!(
                (got.re.to_bits(), got.im.to_bits()),
                (want.re.to_bits(), want.im.to_bits()),
                "amplitude {i} not bitwise after round trip: {got} vs {want}"
            );
        }
    }
}

#[test]
fn deep_circuit_stays_normalized() {
    let circuit = random_circuit(8, 400, 123);
    let (sim, _) = simulate(
        &circuit,
        SimOptions::with_strategy(Strategy::KOperations { k: 8 }),
    )
    .expect("run");
    let norm = sim.dd().vec_norm_sqr(sim.state());
    assert!((norm - 1.0).abs() < 1e-6, "norm drifted to {norm}");
}

#[test]
fn wide_circuit_with_diagonal_tail_is_exact() {
    // Diagonal gates commute; an easy exactness check on a larger register.
    let n = 12u32;
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.h(q);
    }
    for q in 0..n {
        c.t(q);
        c.z(q);
    }
    let (sim, _) = simulate(
        &c,
        SimOptions::with_strategy(Strategy::KOperations { k: 6 }),
    )
    .expect("run");
    // Every amplitude has magnitude 2^{-n/2}.
    let want_mag = (1.0f64 / (1u64 << n) as f64).sqrt();
    for idx in [0u64, 1, 77, 4095] {
        let a = sim.amplitude(idx);
        assert!(
            (a.abs() - want_mag).abs() < 1e-9,
            "amplitude {idx} magnitude {}",
            a.abs()
        );
    }
    // And the T/Z phases are as predicted: phase = (π/4 + π) · popcount.
    let idx = 0b101u64;
    let phase = Complex::cis((std::f64::consts::FRAC_PI_4 + std::f64::consts::PI) * 2.0);
    let want = phase * want_mag;
    assert!(sim.amplitude(idx).approx_eq(want, 1e-9));
}
