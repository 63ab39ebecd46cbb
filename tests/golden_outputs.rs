//! Golden fingerprints of final outputs, pinned across commits.
//!
//! The other property tests compare two configurations of one build, so a
//! change that shifts every configuration alike (a different interning
//! representative, a reordered sum, a changed draw) passes them all. This
//! file pins the outputs themselves: for each fixed input it asserts an
//! FNV-1a fingerprint of the final amplitude (or ρ) bits, the number of
//! interned weights, and a fingerprint of the `RunStats` counters.
//!
//! A change that alters an output on purpose updates the constants below
//! and says so in CHANGES.md; any other change must leave them untouched.

use ddsim_repro::algorithms::grover::{grover_circuit, GroverInstance};
use ddsim_repro::algorithms::hamiltonian::{trotter_circuit, PauliHamiltonian, TrotterOrder};
use ddsim_repro::algorithms::supremacy::{supremacy_circuit, SupremacyInstance};
use ddsim_repro::circuit::Circuit;
use ddsim_repro::complex::Complex;
use ddsim_repro::core::density::simulate_density;
use ddsim_repro::core::noise::DepolarizingNoise;
use ddsim_repro::core::{simulate, CheckpointConfig, RunStats, SimOptions, Simulator, Strategy};
use ddsim_repro::dd::fnv1a;

/// What one golden input produced.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    /// FNV-1a over the final amplitudes' (or ρ's) bits.
    output: u64,
    /// `distinct_weights()` of the final manager (`None` where the
    /// simulator does not expose its manager).
    weights: Option<usize>,
    /// FNV-1a over the `RunStats` counters (wall time excluded).
    counters: u64,
}

fn fingerprint_words(words: impl IntoIterator<Item = u64>) -> u64 {
    let bytes: Vec<u8> = words.into_iter().flat_map(u64::to_le_bytes).collect();
    fnv1a(&bytes)
}

fn complex_words(values: &[Complex]) -> impl Iterator<Item = u64> + '_ {
    values.iter().flat_map(|c| [c.re.to_bits(), c.im.to_bits()])
}

fn amplitudes(sim: &Simulator) -> Vec<Complex> {
    (0..1u64 << sim.qubits())
        .map(|i| sim.amplitude(i))
        .collect()
}

/// Every deterministic counter of a run, in a fixed order. Listed field
/// by field so that a counter added later does not move the fingerprint.
fn counter_words(stats: &RunStats) -> Vec<u64> {
    let mut w = vec![
        stats.elementary_gates,
        stats.mat_vec_mults,
        stats.mat_mat_mults,
        stats.identity_skips,
        stats.specialized_applies,
        stats.mult_recursions,
        stats.add_recursions,
        stats.peak_state_nodes as u64,
        stats.peak_matrix_nodes as u64,
        stats.final_state_nodes as u64,
        stats.gc_runs,
        stats.ladder_gc_rescues,
        stats.ladder_cache_flushes,
        stats.ladder_strategy_downgrades,
        stats.reorders,
        stats.ladder_reorders,
        u64::from(stats.degraded),
        stats.checkpoints_written,
    ];
    for (_, t) in stats.cache.named_compute() {
        w.extend([t.lookups, t.hits, t.collisions, t.evictions, t.stale]);
    }
    for (_, u) in stats.cache.named_unique() {
        w.extend([u.lookups, u.hits, u.probes, u.grows, u.rebuilds]);
    }
    let c = stats.cache.complex;
    w.extend([
        c.lookups,
        c.unified,
        c.inserts,
        c.buckets_probed,
        c.probe_entries,
    ]);
    w
}

fn golden_state(sim: &Simulator, stats: &RunStats) -> Golden {
    Golden {
        output: fingerprint_words(complex_words(&amplitudes(sim))),
        weights: Some(sim.dd().distinct_weights()),
        counters: fingerprint_words(counter_words(stats)),
    }
}

fn run(circuit: &Circuit, strategy: Strategy) -> Golden {
    let options = SimOptions::with_strategy(strategy);
    let (sim, stats) = simulate(circuit, options).expect("golden run");
    golden_state(&sim, &stats)
}

fn supremacy() -> Circuit {
    supremacy_circuit(SupremacyInstance::new(3, 4, 10, 1))
}

/// A 256-shot histogram, fingerprinted in outcome order, next to the
/// sampled state's own fingerprint.
fn histogram(threads: u32) -> (Golden, u64) {
    let options = SimOptions {
        seed: 7,
        threads,
        ..SimOptions::default()
    };
    let (mut sim, stats) = simulate(&supremacy(), options).expect("golden run");
    let state = golden_state(&sim, &stats);
    let mut sorted: Vec<(u64, u32)> = sim.sample_counts(256).into_iter().collect();
    sorted.sort_unstable();
    let shots = fingerprint_words(sorted.iter().flat_map(|&(o, c)| [o, u64::from(c)]));
    (state, shots)
}

#[test]
fn grover_under_max_size_is_pinned() {
    let circuit = grover_circuit(GroverInstance::new(10, 5));
    assert_eq!(
        run(&circuit, Strategy::MaxSize { s_max: 512 }),
        Golden {
            output: 6083887945091615041,
            weights: Some(21303),
            counters: 7098664311737660482,
        }
    );
}

#[test]
fn supremacy_sequential_is_pinned() {
    assert_eq!(
        run(&supremacy(), Strategy::Sequential),
        Golden {
            output: 18297458017997182512,
            weights: Some(8816),
            counters: 2901949340151894275,
        }
    );
}

#[test]
fn supremacy_k_operations_is_pinned() {
    assert_eq!(
        run(&supremacy(), Strategy::KOperations { k: 16 }),
        Golden {
            output: 7626480978667635643,
            weights: Some(9143),
            counters: 4382490746573403580,
        }
    );
}

#[test]
fn trotter_ising_is_pinned() {
    let circuit = trotter_circuit(
        &PauliHamiltonian::ising_chain(6, 1.0, 0.8),
        1.0,
        10,
        TrotterOrder::First,
    );
    assert_eq!(
        run(&circuit, Strategy::DdRepeating { k: 8 }),
        Golden {
            output: 5593154591786210429,
            weights: Some(16033),
            counters: 452943657722505393,
        }
    );
}

#[test]
fn exact_density_is_pinned() {
    let circuit = supremacy_circuit(SupremacyInstance::new(2, 2, 6, 3));
    let (rho, stats) = simulate_density(
        &circuit,
        DepolarizingNoise::new(0.01),
        SimOptions::default(),
    )
    .expect("density run");
    let dense: Vec<Complex> = rho.dense().into_iter().flatten().collect();
    assert_eq!(
        Golden {
            output: fingerprint_words(complex_words(&dense)),
            weights: None,
            counters: fingerprint_words(counter_words(&stats)),
        },
        Golden {
            output: 734091507034051798,
            weights: None,
            counters: 17330375728868482531,
        }
    );
}

#[test]
fn checkpoint_resume_is_pinned() {
    let circuit = supremacy();
    let options = SimOptions::with_strategy(Strategy::KOperations { k: 4 });
    let mut path = std::env::temp_dir();
    path.push(format!("ddsim-golden-{}.snapshot", std::process::id()));
    let cfg = CheckpointConfig {
        every_ops: 25,
        path: path.clone(),
    };
    let mut full = Simulator::with_options(circuit.qubits(), options);
    full.run_from(&circuit, 0, Some(&cfg))
        .expect("checkpointed run");
    let (mut resumed, next_op) =
        Simulator::resume_from(&path, &circuit, options).expect("snapshot loads");
    let _ = std::fs::remove_file(&path);
    assert!(next_op > 0, "the run wrote at least one checkpoint");
    let stats = resumed
        .run_from(&circuit, next_op, None)
        .expect("resumed run");
    assert_eq!(
        golden_state(&resumed, &stats),
        Golden {
            output: 2751596552417825227,
            weights: Some(10867),
            counters: 5648106594109562674,
        }
    );
}

#[test]
fn shot_histogram_at_one_thread_is_pinned() {
    assert_eq!(
        histogram(1),
        (
            Golden {
                output: 18297458017997182512,
                weights: Some(8816),
                counters: 2901949340151894275,
            },
            15593344798833440229
        )
    );
}

#[test]
fn shot_histogram_at_two_threads_is_pinned() {
    assert_eq!(
        histogram(2),
        (
            Golden {
                output: 18297458017997182512,
                weights: Some(8816),
                counters: 2901949340151894275,
            },
            2622430161302459965
        )
    );
}
