//! The simulation workloads: fixed rows of (circuit, strategy, threads,
//! read-out), with every input drawn from the workload seed.

use ddsim_algorithms::grover::{grover_circuit, GroverInstance};
use ddsim_algorithms::hamiltonian::{trotter_circuit, PauliHamiltonian, TrotterOrder};
use ddsim_algorithms::shor::{shor_circuit, ShorInstance};
use ddsim_algorithms::supremacy::{supremacy_circuit, SupremacyInstance};
use ddsim_circuit::Circuit;
use ddsim_core::Strategy;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Inputs the workload seed chooses among: supremacy gate seeds whose
/// runs cost the same work, so the seed changes the gates but not the
/// size of a run. A free gate seed makes supremacy_12_16 anything from 7k
/// to 65k state nodes (0.3–1.9 s), which would swamp every change a
/// later PR makes. Each pool is what [`derive_pools`] selects
/// (`perfbench pools` prints them again).
const POOL_12_16: &[u64] = &[2, 6, 12, 23, 45, 56, 64, 83, 87];
const POOL_12_16_MXM: &[u64] = &[17, 42, 87];
const POOL_10_16: &[u64] = &[
    3, 8, 12, 14, 17, 18, 27, 46, 52, 56, 62, 64, 65, 70, 77, 79, 80, 85,
];
const POOL_8_6: &[u64] = &[1, 6, 8, 14, 17, 24, 36, 43, 44, 48, 61, 63, 65, 80, 86];
/// The grover_13 `maxsize:512` row searches for this fixed mark (the
/// repository's `grover:13:5` example): under `maxsize:512` it ends at
/// 363 state nodes where sequential ends at 24, the pathology ROADMAP
/// item 4 must fix. Marks move that row's recursions over 80×.
const GROVER_13_MARK: u64 = 5;

/// What a row builds in set-up.
#[derive(Clone, Debug, PartialEq)]
pub enum Source {
    /// Grover search over `qubits − 1` search qubits.
    Grover { qubits: u32, marked: u64 },
    /// Beauregard's semiclassical Shor circuit.
    Shor(ShorInstance),
    /// Supremacy-style random grid circuit.
    Supremacy(SupremacyInstance),
    /// First-order Trotter circuit of the transverse Ising chain
    /// (J = 1.0, h = 0.8, t = 1.0, 10 steps).
    Ising(u32),
    /// Second-order Trotter circuit of the Heisenberg chain (J = 1.0,
    /// t = 1.0, 10 steps).
    Heisenberg(u32),
}

impl Source {
    /// Builds the circuit (the `algorithms` layer).
    pub fn build(&self) -> Circuit {
        match self {
            Source::Grover { qubits, marked } => {
                grover_circuit(GroverInstance::new(*qubits, *marked))
            }
            Source::Shor(inst) => shor_circuit(*inst),
            Source::Supremacy(inst) => supremacy_circuit(*inst),
            Source::Ising(n) => trotter_circuit(
                &PauliHamiltonian::ising_chain(*n, 1.0, 0.8),
                1.0,
                10,
                TrotterOrder::First,
            ),
            Source::Heisenberg(n) => trotter_circuit(
                &PauliHamiltonian::heisenberg_chain(*n, 1.0),
                1.0,
                10,
                TrotterOrder::Second,
            ),
        }
    }

    /// Key under which set-up builds this source once.
    pub fn key(&self) -> String {
        format!("{self:?}")
    }

    /// The drawn inputs, recorded on the trace's build spans.
    pub fn inputs(&self) -> Vec<(String, f64)> {
        let kv = |pairs: &[(&str, u64)]| {
            pairs
                .iter()
                .map(|(k, v)| (k.to_string(), *v as f64))
                .collect()
        };
        match self {
            Source::Grover { qubits, marked } => {
                kv(&[("qubits", u64::from(*qubits)), ("marked", *marked)])
            }
            Source::Shor(i) => kv(&[("modulus", i.modulus), ("base", i.base)]),
            Source::Supremacy(i) => kv(&[
                ("qubits", u64::from(i.qubits())),
                ("depth", u64::from(i.depth)),
                ("gate_seed", i.seed),
            ]),
            Source::Ising(n) | Source::Heisenberg(n) => kv(&[("qubits", u64::from(*n))]),
        }
    }
}

/// What a row runs and reads out.
#[derive(Clone, Debug, PartialEq)]
pub enum Task {
    /// `simulate`, then `sample_counts(shots)` when `shots > 0`.
    Simulate {
        strategy: Strategy,
        threads: u32,
        shots: u32,
    },
    /// `run_noisy_ensemble_with` under depolarizing noise.
    Trajectories {
        p: f64,
        trajectories: u32,
        threads: u32,
    },
    /// `simulate_density` under depolarizing noise.
    Density { p: f64 },
    /// `run_shor_dd_construct` (Table II's DD-construct).
    DdConstruct,
}

/// One fixed row of a workload.
#[derive(Clone, Debug)]
pub struct Row {
    /// Stable row id, e.g. `supremacy_12_16.kops16`.
    pub name: String,
    pub source: Source,
    pub task: Task,
    /// Measurement / trajectory seed.
    pub seed: u64,
    /// Executions per timed sample (short rows are batched so each
    /// sample lasts long enough to time steadily).
    pub reps: u32,
    /// Timed samples per pass (short rows take several, so their medians
    /// rest on more samples than the passes a run has time for).
    pub samples: u32,
}

impl Row {
    fn sampled(self, samples: u32) -> Row {
        Row { samples, ..self }
    }

    /// Whether the row runs fork-join kernels (threads ≥ 2 simulate).
    pub fn fork_join(&self) -> bool {
        matches!(self.task, Task::Simulate { threads, shots: 0, .. } if threads >= 2)
    }
}

/// SplitMix64 finalizer: derives independent sub-seeds from the workload
/// seed.
pub fn mix(seed: u64, salt: &str) -> u64 {
    let mut z = seed ^ ddsim_dd::fnv1a(salt.as_bytes());
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A marked element over `search` bits with exactly `search / 2` bits
/// set, so every seed yields the same oracle gate count.
fn grover_mark(seed: u64, search: u32) -> u64 {
    let mut rng = StdRng::seed_from_u64(mix(seed, &format!("grover{search}")));
    let mut bits: Vec<u32> = (0..search).collect();
    for i in (1..bits.len()).rev() {
        let j = rng.gen_range(0..=i);
        bits.swap(i, j);
    }
    bits[..(search / 2) as usize]
        .iter()
        .map(|b| 1u64 << b)
        .sum()
}

fn pick(pool: &[u64], seed: u64, salt: &str) -> u64 {
    pool[(mix(seed, salt) % pool.len() as u64) as usize]
}

/// The sources of one workload seed, at full or toy size.
struct Sources {
    toy: bool,
    seed: u64,
}

impl Sources {
    fn grover(&self, qubits: u32) -> Source {
        let qubits = if self.toy { qubits.min(7) } else { qubits };
        Source::Grover {
            qubits,
            marked: grover_mark(self.seed, qubits - 1),
        }
    }

    /// Grover with a fixed mark.
    fn grover_fixed(&self, qubits: u32, marked: u64) -> Source {
        if self.toy {
            return self.grover(qubits);
        }
        Source::Grover { qubits, marked }
    }

    fn shor(&self, modulus: u64, base: u64) -> Source {
        Source::Shor(if self.toy {
            ShorInstance::new(15, 7)
        } else {
            ShorInstance::new(modulus, base)
        })
    }

    fn supremacy(&self, rows: u32, cols: u32, depth: u32, pool: &[u64]) -> Source {
        let gate_seed = pick(
            pool,
            self.seed,
            &format!("supremacy_{depth}_{}", rows * cols),
        );
        Source::Supremacy(if self.toy {
            SupremacyInstance::new(2, 3, 6, gate_seed)
        } else {
            SupremacyInstance::new(rows, cols, depth, gate_seed)
        })
    }

    fn ising(&self, n: u32) -> Source {
        Source::Ising(if self.toy { 4 } else { n })
    }

    fn heisenberg(&self, n: u32) -> Source {
        Source::Heisenberg(if self.toy { 4 } else { n })
    }
}

fn sim(strategy: &str, threads: u32, shots: u32) -> Task {
    Task::Simulate {
        strategy: strategy.parse().expect("row strategies parse"),
        threads,
        shots,
    }
}

/// The rows of a simulation workload, or `None` for an unknown name.
pub fn rows(workload: &str, seed: u64, toy: bool) -> Option<Vec<Row>> {
    let s = Sources { toy, seed };
    let row = |name: &str, source: Source, task: Task, reps: u32| Row {
        name: name.to_string(),
        source,
        task,
        seed: mix(seed, name),
        reps: if toy { 1 } else { reps },
        samples: 1,
    };
    let rows = match workload {
        // The paper's t_sota column: one MxV per gate through the
        // specialized apply kernels, the vector unique table and complex
        // interning; no MxM and no flush policy.
        "mxv_sequential" => vec![
            row(
                "grover_17.sequential",
                s.grover(17),
                sim("sequential", 1, 0),
                1,
            )
            .sampled(2),
            row(
                "shor_221_4_19.sequential",
                s.shor(221, 4),
                sim("sequential", 1, 0),
                1,
            )
            .sampled(2),
            row(
                "supremacy_12_16.sequential",
                s.supremacy(4, 4, 12, POOL_12_16),
                sim("sequential", 1, 0),
                1,
            ),
            row(
                "ising_10.sequential",
                s.ising(10),
                sim("sequential", 1, 0),
                1,
            ),
            row(
                "heisenberg_8.sequential",
                s.heisenberg(8),
                sim("sequential", 1, 0),
                16,
            )
            .sampled(4),
        ],
        // The paper's combining rows (Fig. 8 k-operations, Fig. 9
        // max-size, Table I DD-repeating, Table II DD-construct), the
        // two-sided Trotter pair under every combining strategy, the
        // adaptive extension and one exact density row.
        "mxm_combining" => {
            let sup = s.supremacy(4, 4, 12, POOL_12_16_MXM);
            let mut rows = vec![
                row("grover_17.kops16", s.grover(17), sim("kops:16", 1, 0), 1),
                row(
                    "shor_55_17_15.kops16",
                    s.shor(55, 17),
                    sim("kops:16", 1, 0),
                    1,
                ),
                row(
                    "supremacy_12_16.kops16",
                    sup.clone(),
                    sim("kops:16", 1, 0),
                    1,
                ),
                row(
                    "supremacy_12_16.maxsize512",
                    sup.clone(),
                    sim("maxsize:512", 1, 0),
                    1,
                ),
                row(
                    "shor_55_17_15.maxsize512",
                    s.shor(55, 17),
                    sim("maxsize:512", 1, 0),
                    1,
                ),
                row(
                    "grover_13.maxsize512",
                    s.grover_fixed(13, GROVER_13_MARK),
                    sim("maxsize:512", 1, 0),
                    1,
                ),
                row(
                    "grover_17.ddrepeating16",
                    s.grover(17),
                    sim("ddrepeating:16", 1, 0),
                    2,
                ),
                row(
                    "shor_1007_602_23.ddconstruct",
                    s.shor(1007, 602),
                    Task::DdConstruct,
                    4,
                ),
            ];
            for (strategy, label) in [
                ("ddrepeating:8", "ddrepeating8"),
                ("kops:16", "kops16"),
                ("maxsize:512", "maxsize512"),
                ("adaptive", "adaptive"),
            ] {
                rows.push(row(
                    &format!("ising_9.{label}"),
                    s.ising(9),
                    sim(strategy, 1, 0),
                    1,
                ));
                // Heisenberg rows under kops:16 and adaptive last ~10 ms.
                let reps = if label == "kops16" || label == "adaptive" {
                    16
                } else {
                    1
                };
                rows.push(row(
                    &format!("heisenberg_8.{label}"),
                    s.heisenberg(8),
                    sim(strategy, 1, 0),
                    reps,
                ));
            }
            rows.push(row(
                "supremacy_12_16.adaptive",
                sup,
                sim("adaptive", 1, 0),
                1,
            ));
            rows.push(row(
                "shor_55_17_15.adaptive",
                s.shor(55, 17),
                sim("adaptive", 1, 0),
                1,
            ));
            rows.push(row(
                "supremacy_8_6.density_p0.01",
                s.supremacy(2, 3, 8, POOL_8_6),
                Task::Density { p: 0.01 },
                1,
            ));
            rows
        }
        // The only rows that reach the fork-join kernels (dd::par) and
        // the pooled shot and trajectory loops (dd::pool).
        "threads2" => {
            let sup = s.supremacy(4, 4, 10, POOL_10_16);
            vec![
                row("grover_15.kops16.t2", s.grover(15), sim("kops:16", 2, 0), 1),
                row(
                    "supremacy_10_16.kops16.t2",
                    sup.clone(),
                    sim("kops:16", 2, 0),
                    1,
                ),
                row(
                    "supremacy_10_16.sample256.t2",
                    sup,
                    sim("sequential", 2, 256),
                    1,
                ),
                row(
                    "supremacy_8_6.trajectories1024.t2",
                    s.supremacy(2, 3, 8, POOL_8_6),
                    Task::Trajectories {
                        p: 0.01,
                        trajectories: if toy { 64 } else { 1024 },
                        threads: 2,
                    },
                    1,
                ),
            ]
        }
        _ => return None,
    };
    Some(rows)
}

/// Candidates whose recursions under every strategy lie within `tol` (a
/// share) of that strategy's median over all candidates.
fn near_median(work: Vec<(u64, Vec<u64>)>, tol: f64) -> Vec<u64> {
    let strategies = work.first().map_or(0, |(_, w)| w.len());
    let mids: Vec<f64> = (0..strategies)
        .map(|i| crate::stats::median(&work.iter().map(|(_, w)| w[i] as f64).collect::<Vec<_>>()))
        .collect();
    work.into_iter()
        .filter(|(_, w)| {
            w.iter()
                .zip(&mids)
                .all(|(x, m)| (*x as f64 - m).abs() <= tol * m)
        })
        .map(|(c, _)| c)
        .collect()
}

/// Multiply+add recursions of `circuit` under each of `strategies`, and
/// the sequential run's final state size.
fn work(circuit: &Circuit, strategies: &[&str]) -> (Vec<u64>, usize) {
    let run = |spec: &str| {
        let options = ddsim_core::SimOptions::with_strategy(spec.parse().expect("strategy spec"));
        ddsim_core::simulate(circuit, options)
            .expect("ungoverned runs succeed")
            .1
    };
    let per_strategy = strategies
        .iter()
        .map(|spec| {
            let st = run(spec);
            st.mult_recursions + st.add_recursions
        })
        .collect();
    (per_strategy, run("sequential").final_state_nodes)
}

/// Re-derives every input pool. A supremacy pool holds the gate seeds in
/// `0..96` whose recursions under each strategy named for it lie within
/// a tolerance of that strategy's median: ±4% for the single-strategy
/// pools, ±15% for the three combining strategies together (no seed
/// meets ±10% on all three). All but the combining pool consider only
/// seeds whose sequential state is saturated (at least 90% of the
/// `2^q − 1` nodes a `q`-qubit state can have).
pub fn derive_pools() -> Vec<(&'static str, Vec<u64>)> {
    let supremacy =
        |rows: u32, cols: u32, depth: u32, strategies: &[&str], saturated: bool, tol: f64| {
            let full = (1u64 << (rows * cols)) - 1;
            let candidates = (0..96u64)
                .filter_map(|gate_seed| {
                    let circuit =
                        supremacy_circuit(SupremacyInstance::new(rows, cols, depth, gate_seed));
                    let (w, nodes) = work(&circuit, strategies);
                    (!saturated || nodes as u64 * 10 >= full * 9).then_some((gate_seed, w))
                })
                .collect();
            near_median(candidates, tol)
        };
    vec![
        (
            "POOL_12_16",
            supremacy(4, 4, 12, &["sequential"], true, 0.04),
        ),
        (
            "POOL_12_16_MXM",
            supremacy(
                4,
                4,
                12,
                &["kops:16", "maxsize:512", "adaptive"],
                false,
                0.15,
            ),
        ),
        (
            "POOL_10_16",
            supremacy(4, 4, 10, &["sequential"], true, 0.04),
        ),
        ("POOL_8_6", supremacy(2, 3, 8, &["sequential"], true, 0.04)),
    ]
}
