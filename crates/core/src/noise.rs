//! Stochastic Pauli-noise simulation via quantum trajectories — an
//! extension beyond the paper, mirroring what production DD simulators
//! offer: after every elementary gate, each touched qubit suffers a
//! depolarizing error with a configurable probability; averaging over many
//! seeded trajectories approximates the noisy density-matrix evolution
//! while each individual trajectory stays a pure state (and thus a plain
//! vector DD).

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use ddsim_circuit::{Circuit, Operation, StandardGate};
use ddsim_dd::{CancelToken, FxHashMap, ThreadPool};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::engine::{SimOptions, Simulator};
use crate::error::SimError;

/// A depolarizing-noise model: with probability `probability` after each
/// elementary gate, each qubit the gate touched suffers a uniformly random
/// Pauli error (X, Y, or Z).
///
/// Noise attaches to *unitary* operations only ([`Operation::Gate`] and
/// [`Operation::Swap`], the latter treated as one elementary op touching
/// controls plus both swapped qubits). `Measure` and `Reset` are ideal
/// instruments in this model — no error is inserted after them, even at
/// probability 1.0 — matching the exact density-matrix path
/// ([`DensitySimulator`](crate::density::DensitySimulator)), which applies
/// their Kraus maps without a depolarizing step. Model readout error by
/// appending explicit gates before measurement if needed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DepolarizingNoise {
    /// Per-gate, per-touched-qubit error probability.
    pub probability: f64,
}

impl DepolarizingNoise {
    /// Creates a model.
    ///
    /// # Panics
    ///
    /// Panics if `probability` is outside `[0, 1]`.
    pub fn new(probability: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&probability),
            "error probability must lie in [0, 1]"
        );
        DepolarizingNoise { probability }
    }
}

/// Aggregated result of a trajectory ensemble.
#[derive(Clone, Debug)]
pub struct NoisyEnsemble {
    /// Trajectories run.
    pub trajectories: u32,
    /// Counts of sampled outcomes across all trajectories (one sample per
    /// trajectory).
    pub counts: FxHashMap<u64, u32>,
}

impl NoisyEnsemble {
    /// Empirical probability of an outcome.
    pub fn probability_of(&self, outcome: u64) -> f64 {
        f64::from(*self.counts.get(&outcome).unwrap_or(&0)) / f64::from(self.trajectories)
    }
}

/// Inserts random Pauli errors into a copy of the circuit according to the
/// noise model (one trajectory). Exposed so callers can inspect or re-run
/// an interesting trajectory.
pub fn sample_noisy_circuit(circuit: &Circuit, noise: DepolarizingNoise, seed: u64) -> Circuit {
    noisy_trajectory(&circuit.flattened(), noise, seed)
}

/// [`sample_noisy_circuit`] of a circuit already flattened, so an ensemble
/// flattens once rather than once per trajectory.
fn noisy_trajectory(flat: &Circuit, noise: DepolarizingNoise, seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Circuit::with_cbits(flat.qubits(), flat.cbits());
    out.set_name(format!("{}_noisy_{seed}", flat.name()));
    for op in flat.ops() {
        out.push(op.clone());
        let touched: Vec<u32> = match op {
            Operation::Gate(g) => g
                .controls
                .iter()
                .map(|c| c.qubit)
                .chain(std::iter::once(g.target))
                .collect(),
            Operation::Swap { a, b, controls } => {
                controls.iter().map(|c| c.qubit).chain([*a, *b]).collect()
            }
            // Measure/Reset are ideal instruments (see the model rustdoc);
            // classical ops and barriers touch no quantum state.
            Operation::Measure { .. }
            | Operation::Reset { .. }
            | Operation::Classical { .. }
            | Operation::Repeat { .. }
            | Operation::Barrier => Vec::new(),
        };
        for q in touched {
            if rng.gen::<f64>() < noise.probability {
                let pauli = match rng.gen_range(0..3) {
                    0 => StandardGate::X,
                    1 => StandardGate::Y,
                    _ => StandardGate::Z,
                };
                out.gate(pauli, q);
            }
        }
    }
    out
}

/// Runs `trajectories` noisy trajectories of a circuit, sampling one full
/// measurement from each, and aggregates the outcome counts.
///
/// # Errors
///
/// Returns [`SimError`] if a trajectory run fails — a width mismatch cannot
/// happen for circuits built by this crate's generators, but resource
/// budgets configured in the default [`SimOptions`] still apply.
pub fn run_noisy_ensemble(
    circuit: &Circuit,
    noise: DepolarizingNoise,
    trajectories: u32,
    seed: u64,
) -> Result<NoisyEnsemble, SimError> {
    let template = SimOptions {
        seed,
        ..SimOptions::default()
    };
    run_noisy_ensemble_with(circuit, noise, trajectories, &template, None)
}

/// The fully governed ensemble runner: every per-trajectory simulator is
/// built from `template` — strategy, DD configuration (budgets, tolerance,
/// fault injection), reorder mode — with only the seed overridden to
/// `template.seed + t`. `template.threads` parallelizes the *trajectory*
/// loop on a work-stealing pool (`0` = all cores, `≤ 1` = sequential).
/// Each lane owns one simulator and [resets](Simulator::reset) it between
/// its trajectories, which makes every trajectory bit for bit the run a
/// fresh simulator would make. Every trajectory's circuit, run, and sample
/// derive from its seed alone, so the aggregated counts are identical at
/// every thread count — parallelism changes wall-clock time, never the
/// result.
///
/// `template.deadline` bounds the *whole ensemble*: the budget is
/// converted to an absolute instant up front and each trajectory gets
/// only the remaining window, so a deadline actually stops the ensemble
/// rather than re-arming per trajectory. A `cancel` token is observed
/// before each trajectory and inside the DD recursions of the running
/// ones.
///
/// # Errors
///
/// Returns the failing trajectory's [`SimError`]. When several lanes fail
/// concurrently, the error with the lowest trajectory index among those
/// attempted is reported (the sequential loop's choice); remaining lanes
/// stop at their next trajectory boundary.
pub fn run_noisy_ensemble_with(
    circuit: &Circuit,
    noise: DepolarizingNoise,
    trajectories: u32,
    template: &SimOptions,
    cancel: Option<&CancelToken>,
) -> Result<NoisyEnsemble, SimError> {
    let ensemble_deadline = template.deadline.map(|d| Instant::now() + d);
    let flat = circuit.flattened();
    // Runs trajectory `t` on the lane's simulator, built on first use and
    // recycled after.
    let one_trajectory = |lane_sim: &mut Option<Simulator>, t: u32| -> Result<u64, SimError> {
        if let Some(token) = cancel {
            if token.is_cancelled() {
                return Err(SimError::Cancelled);
            }
        }
        let remaining = match ensemble_deadline {
            Some(at) => {
                let now = Instant::now();
                if now >= at {
                    return Err(SimError::DeadlineExceeded);
                }
                Some(at - now)
            }
            None => None,
        };
        let trajectory_seed = template.seed.wrapping_add(u64::from(t));
        let noisy = noisy_trajectory(&flat, noise, trajectory_seed);
        let options = SimOptions {
            seed: trajectory_seed,
            deadline: remaining,
            ..*template
        };
        let sim = match lane_sim.take() {
            Some(used) => used.reset(options),
            None => Simulator::with_options(circuit.qubits(), options),
        };
        let sim = lane_sim.insert(sim);
        sim.set_cancel_token(cancel.cloned());
        sim.run(&noisy)?;
        Ok(sim.sample())
    };
    let pool = if trajectories >= 2 {
        build_pool(template.threads)
    } else {
        None
    };
    let mut counts = FxHashMap::default();
    match pool {
        None => {
            let mut sim = None;
            for t in 0..trajectories {
                *counts.entry(one_trajectory(&mut sim, t)?).or_insert(0) += 1;
            }
        }
        Some(pool) => {
            // Lane-sharded harvest: one histogram slot per lane instead of
            // one mutex per trajectory.
            // Lanes own disjoint slots, so plain indexed writes through
            // `iter_mut` suffice — no locking anywhere.
            // A lane's histogram plus its first failure, if any.
            type LaneSlot = (FxHashMap<u64, u32>, Option<(u32, SimError)>);
            let lanes = pool.parallelism().min(trajectories as usize).max(1);
            let mut slots: Vec<LaneSlot> =
                (0..lanes).map(|_| (FxHashMap::default(), None)).collect();
            let stop = AtomicBool::new(false);
            {
                let stop = &stop;
                let one_trajectory = &one_trajectory;
                let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = slots
                    .iter_mut()
                    .enumerate()
                    .map(|(lane, slot)| {
                        Box::new(move || {
                            let mut sim = None;
                            let mut t = lane as u32;
                            while t < trajectories && !stop.load(Ordering::Relaxed) {
                                match one_trajectory(&mut sim, t) {
                                    Ok(outcome) => {
                                        *slot.0.entry(outcome).or_insert(0) += 1;
                                    }
                                    Err(e) => {
                                        slot.1 = Some((t, e));
                                        stop.store(true, Ordering::Relaxed);
                                        break;
                                    }
                                }
                                t += lanes as u32;
                            }
                        }) as Box<dyn FnOnce() + Send + '_>
                    })
                    .collect();
                pool.run_batch(tasks);
            }
            let mut first_error: Option<(u32, SimError)> = None;
            for (lane_counts, lane_error) in slots {
                if let Some((t, e)) = lane_error {
                    if first_error.as_ref().is_none_or(|(bt, _)| t < *bt) {
                        first_error = Some((t, e));
                    }
                }
                for (outcome, c) in lane_counts {
                    *counts.entry(outcome).or_insert(0) += c;
                }
            }
            if let Some((_, e)) = first_error {
                return Err(e);
            }
        }
    }
    Ok(NoisyEnsemble {
        trajectories,
        counts,
    })
}

/// The trajectory pool for a [`SimOptions::threads`] setting (`0` = all
/// available cores), or `None` when the setting resolves to one lane.
fn build_pool(threads: u32) -> Option<ThreadPool> {
    let lanes = match threads {
        0 => std::thread::available_parallelism().map_or(1, |p| p.get()),
        n => n as usize,
    };
    (lanes > 1).then(|| ThreadPool::new(lanes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_noise_is_the_ideal_circuit() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let noisy = sample_noisy_circuit(&c, DepolarizingNoise::new(0.0), 1);
        assert_eq!(noisy.elementary_count(), c.elementary_count());
    }

    #[test]
    fn full_noise_inserts_errors_everywhere() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let noisy = sample_noisy_circuit(&c, DepolarizingNoise::new(1.0), 1);
        // h touches 1 qubit, cx touches 2: 3 inserted Paulis.
        assert_eq!(noisy.elementary_count(), c.elementary_count() + 3);
    }

    #[test]
    fn trajectories_are_deterministic_per_seed() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2);
        let noise = DepolarizingNoise::new(0.3);
        assert_eq!(
            sample_noisy_circuit(&c, noise, 42),
            sample_noisy_circuit(&c, noise, 42)
        );
        assert_ne!(
            sample_noisy_circuit(&c, noise, 42),
            sample_noisy_circuit(&c, noise, 43)
        );
    }

    #[test]
    fn noiseless_ensemble_reproduces_bell_statistics() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let ensemble = run_noisy_ensemble(&c, DepolarizingNoise::new(0.0), 200, 7).expect("run");
        let p00 = ensemble.probability_of(0b00);
        let p11 = ensemble.probability_of(0b11);
        assert!((p00 + p11 - 1.0).abs() < 1e-9, "only correlated outcomes");
        assert!((p00 - 0.5).abs() < 0.15, "p00 = {p00}");
    }

    #[test]
    fn noise_degrades_ghz_correlations() {
        let mut c = Circuit::new(4);
        c.h(0);
        for q in 1..4 {
            c.cx(q - 1, q);
        }
        let ideal = run_noisy_ensemble(&c, DepolarizingNoise::new(0.0), 150, 1).expect("run");
        let noisy = run_noisy_ensemble(&c, DepolarizingNoise::new(0.2), 150, 1).expect("run");
        let correlated = |e: &NoisyEnsemble| e.probability_of(0) + e.probability_of(0b1111);
        assert!((correlated(&ideal) - 1.0).abs() < 1e-9);
        assert!(
            correlated(&noisy) < 0.9,
            "20% depolarizing noise must visibly break GHZ correlations, got {}",
            correlated(&noisy)
        );
    }

    #[test]
    #[should_panic(expected = "must lie in [0, 1]")]
    fn invalid_probability_rejected() {
        let _ = DepolarizingNoise::new(1.5);
    }

    #[test]
    fn measure_and_reset_are_noiseless_even_at_p_one() {
        // The documented model exclusion: ideal instruments. At p = 1.0
        // every gate-touched qubit gains a Pauli, but measure/reset do not.
        let mut c = Circuit::with_cbits(2, 1);
        c.h(0); // 1 touched qubit → 1 inserted Pauli
        c.measure(0, 0); // 0 inserted
        c.reset(1); // 0 inserted
        c.cx(0, 1); // 2 touched qubits → 2 inserted
        let noisy = sample_noisy_circuit(&c, DepolarizingNoise::new(1.0), 9);
        assert_eq!(noisy.elementary_count(), c.elementary_count() + 3);
    }

    #[test]
    fn ensemble_deadline_stops_runs_at_every_thread_count() {
        let mut c = Circuit::new(3);
        for _ in 0..30 {
            c.h(0).cx(0, 1).cx(1, 2).t(2);
        }
        for threads in [1u32, 3] {
            let template = SimOptions {
                deadline: Some(std::time::Duration::ZERO),
                threads,
                ..SimOptions::default()
            };
            let err = run_noisy_ensemble_with(&c, DepolarizingNoise::new(0.1), 64, &template, None)
                .map(|_| ())
                .expect_err("zero ensemble deadline must trip");
            assert_eq!(err, SimError::DeadlineExceeded, "threads={threads}");
        }
    }

    #[test]
    fn ensemble_cancel_stops_runs_at_every_thread_count() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        for threads in [1u32, 3] {
            let token = CancelToken::new();
            token.cancel();
            let template = SimOptions {
                threads,
                ..SimOptions::default()
            };
            let err = run_noisy_ensemble_with(
                &c,
                DepolarizingNoise::new(0.0),
                64,
                &template,
                Some(&token),
            )
            .map(|_| ())
            .expect_err("pre-cancelled ensemble must trip");
            assert_eq!(err, SimError::Cancelled, "threads={threads}");
        }
    }

    #[test]
    fn ensemble_respects_template_budgets() {
        // The bug this PR fixes: the threaded runner used to rebuild
        // SimOptions::default() per trajectory, silently dropping every
        // caller-configured budget. A 1-node budget must now fail the
        // ensemble at every thread count.
        // Deep enough that the amortized governor performs full checks and
        // the entangled state cannot fit in the budget at any ladder rung.
        let mut c = Circuit::new(10);
        for layer in 0..12 {
            for q in 0..10 {
                c.h(q);
                c.t(q);
            }
            for q in 0..9 {
                c.cx(q, (q + 1 + layer) % 10);
            }
        }
        for threads in [1u32, 3] {
            let template = SimOptions {
                dd_config: ddsim_dd::DdConfig {
                    max_live_nodes: Some(4),
                    ..ddsim_dd::DdConfig::default()
                },
                threads,
                ..SimOptions::default()
            };
            let err = run_noisy_ensemble_with(&c, DepolarizingNoise::new(0.0), 8, &template, None)
                .map(|_| ())
                .expect_err("4-node budget must trip");
            assert!(
                matches!(err, SimError::BudgetExceeded { .. }),
                "threads={threads}: {err:?}"
            );
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        // Satellite coverage: ensemble counts are bitwise-identical
        // across thread counts, at p = 0 and under real noise alike
        // (every trajectory derives from `seed + t` only).
        #[test]
        fn ensemble_counts_identical_across_thread_counts(
            seed in 0u64..u64::MAX,
            p in prop_oneof![Just(0.0), Just(0.25)],
        ) {
            let mut c = Circuit::new(3);
            c.h(0).cx(0, 1).cx(1, 2).t(1);
            let noise = DepolarizingNoise::new(p);
            let run = |threads: u32| {
                let template = SimOptions {
                    seed,
                    threads,
                    ..SimOptions::default()
                };
                run_noisy_ensemble_with(&c, noise, 24, &template, None)
            };
            let single = run(1).expect("threads=1");
            let triple = run(3).expect("threads=3");
            prop_assert_eq!(&single.counts, &triple.counts);
        }
    }
}
