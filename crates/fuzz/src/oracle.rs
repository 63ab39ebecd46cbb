//! Multi-oracle cross-checking.
//!
//! Three independent oracles gang up on each generated circuit:
//!
//! 1. **Dense reference** — [`dense_run`] replays the circuit on a flat
//!    amplitude array, sharing the engine's measurement-outcome stream
//!    (same seed, one uniform draw per measure/reset, outcome =
//!    `draw < P(1)`), so even non-unitary circuits compare exactly.
//! 2. **Config lattice** — [`config_lattice`] enumerates engine
//!    configurations across every combining strategy, caches on/off,
//!    identity skipping on/off, shrunken table capacities, an aggressive
//!    GC threshold, and a `reorder` axis running sifting-based dynamic
//!    variable reordering. All points must agree with the dense reference
//!    amplitude-for-amplitude; the lattice is what turns a single
//!    differential test into a schedule/caching/GC cross-check. The
//!    points are independent of each other, so they run on a shared
//!    work-stealing pool, with failures reported in deterministic lattice
//!    order.
//! 3. **Equivalence** — for unitary circuits the full unitary DD is built
//!    and checked against structural identities (flattening invariance and
//!    `C·C⁻¹ ≈ I`), catching matrix-construction defects that a single
//!    state-vector comparison can miss.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use ddsim_circuit::{lower_swap, Circuit, Operation};
use ddsim_core::density::simulate_density;
use ddsim_core::equivalence::{circuit_unitary, mat_equivalence};
use ddsim_core::noise::{run_noisy_ensemble_with, DepolarizingNoise};
use ddsim_core::{
    DdConfig, FaultKind, ReorderMode, SimError, SimOptions, Simulator, Strategy, ThreadPool,
};
use ddsim_dd::reference::DenseVector;
use ddsim_dd::{DdManager, MatEdge};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The pool the lattice points run on, shared across every circuit the
/// harness checks (spawning threads per circuit would dominate small
/// probes). Sized to the machine; a single-core host degenerates to the
/// sequential sweep.
fn lattice_pool() -> &'static Arc<ThreadPool> {
    static POOL: OnceLock<Arc<ThreadPool>> = OnceLock::new();
    POOL.get_or_init(|| {
        let lanes = std::thread::available_parallelism().map_or(1, |p| p.get());
        Arc::new(ThreadPool::new(lanes))
    })
}

/// Maximum width for the dense amplitude sweep. The generator never
/// exceeds this, but replayed circuits might.
const MAX_DENSE_QUBITS: u32 = 14;

/// Maximum width for building full unitary DDs in the equivalence oracle.
const MAX_EQUIV_QUBITS: u32 = 7;

/// Maximum width for the exact density-matrix oracles (ρ is a 2n-level
/// matrix DD and the diagonal sweep walks 2ⁿ entries).
const MAX_DENSITY_QUBITS: u32 = 6;

/// One engine configuration in the cross-check lattice.
pub struct LatticePoint {
    /// Combining strategy.
    pub strategy: Strategy,
    /// DD-manager configuration.
    pub dd_config: DdConfig,
    /// Wall-clock deadline for the run (budget-axis points only).
    pub deadline: Option<Duration>,
    /// Dynamic variable reordering policy (`reorder` axis).
    pub reorder: ReorderMode,
    /// Human-readable name used in failure reports.
    pub label: String,
}

impl LatticePoint {
    /// Whether this point runs under a resource budget. Governed points
    /// are allowed to end in a *clean* governor error ([`SimError`]
    /// budget/deadline variants); everything else must succeed and agree
    /// with the dense reference.
    pub fn governed(&self) -> bool {
        self.dd_config.max_live_nodes.is_some()
            || self.dd_config.max_table_bytes.is_some()
            || self.deadline.is_some()
    }
}

/// Settings for [`check_circuit`].
#[derive(Clone, Copy, Debug)]
pub struct CheckSettings {
    /// Seed shared by the engine and the dense reference.
    pub seed: u64,
    /// Maximum tolerated per-amplitude deviation.
    pub tolerance: f64,
    /// Use the full lattice (every strategy × every DD variant) instead of
    /// the quick subset.
    pub full_lattice: bool,
    /// Fault injected into every *engine* configuration (never the dense
    /// reference) — [`FaultKind::None`] outside `--self-check`.
    pub fault: FaultKind,
}

impl Default for CheckSettings {
    fn default() -> Self {
        CheckSettings {
            seed: 0,
            tolerance: 1e-6,
            full_lattice: false,
            fault: FaultKind::None,
        }
    }
}

/// One oracle disagreement.
#[derive(Clone, Debug)]
pub struct Failure {
    /// Which lattice point (or pseudo-oracle) disagreed.
    pub lattice_label: String,
    /// What went wrong, with enough numbers to eyeball.
    pub detail: String,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.lattice_label, self.detail)
    }
}

fn dd_variants(full: bool) -> Vec<(&'static str, DdConfig)> {
    let base = DdConfig::default();
    let mut variants = vec![
        ("dd=default", base),
        (
            "dd=no-cache",
            DdConfig {
                cache_enabled: false,
                ..base
            },
        ),
        (
            "dd=no-idskip",
            DdConfig {
                identity_skip: false,
                ..base
            },
        ),
        (
            "dd=tiny-gc",
            DdConfig {
                gc_threshold: 64,
                ..base
            },
        ),
        // A budget lax enough to never trip: the run takes the *governed*
        // kernel instantiation end to end but must still agree with the
        // dense reference amplitude-for-amplitude, pinning down that the
        // governed and ungoverned monomorphizations build identical
        // diagrams (the budget axis below only checks clean-error exits).
        (
            "dd=governed-lax",
            DdConfig {
                max_live_nodes: Some(1 << 30),
                ..base
            },
        ),
    ];
    if full {
        variants.extend([
            (
                "dd=no-cache-no-idskip",
                DdConfig {
                    cache_enabled: false,
                    identity_skip: false,
                    ..base
                },
            ),
            (
                "dd=tiny-tables",
                DdConfig {
                    compute_table_bits: 4,
                    unique_table_bits: 3,
                    ..base
                },
            ),
            (
                "dd=tiny-tables-tiny-gc",
                DdConfig {
                    compute_table_bits: 4,
                    unique_table_bits: 3,
                    gc_threshold: 64,
                    ..base
                },
            ),
        ]);
    }
    variants
}

/// The budget axis: configurations whose resource governor is armed
/// aggressively enough to trip on realistic fuzz circuits. Each point must
/// end in `Ok` (then agree with the dense reference) or a clean typed
/// governor error — never a panic or an inconsistent manager.
fn budget_variants(full: bool) -> Vec<(&'static str, DdConfig, Option<Duration>)> {
    let base = DdConfig::default();
    let mut variants = vec![(
        "budget=nodes256",
        DdConfig {
            max_live_nodes: Some(256),
            ..base
        },
        None,
    )];
    if full {
        variants.extend([
            (
                "budget=bytes64k",
                DdConfig {
                    compute_table_bits: 4,
                    unique_table_bits: 4,
                    max_table_bytes: Some(64 * 1024),
                    ..base
                },
                None,
            ),
            ("budget=deadline1ms", base, Some(Duration::from_millis(1))),
        ]);
    }
    variants
}

/// The `reorder` axis: points running with sifting-based dynamic variable
/// reordering. Every amplitude and classical bit must still match the
/// dense reference exactly — amplitude queries translate through the live
/// variable order, so a reordered diagram that disagrees means a swap or
/// an order-translating accessor is broken. The engine guarantees at
/// least one sifting pass per run in this mode (end-of-run pass when the
/// growth trigger never fired), so the axis genuinely exercises
/// `swap_levels` on every generated circuit. The tiny-GC variant forces
/// collections between sifting passes, cross-checking that reordered
/// diagrams survive the mark phase.
fn reorder_variants(full: bool) -> Vec<(&'static str, DdConfig)> {
    let base = DdConfig::default();
    let mut variants = vec![("reorder=sifting", base)];
    if full {
        variants.push((
            "reorder=sifting-tiny-gc",
            DdConfig {
                gc_threshold: 64,
                ..base
            },
        ));
    }
    variants
}

/// The engine-configuration lattice: every combining strategy crossed with
/// the DD-manager variants plus the budget and `reorder` axes
/// (quick: 5 × (5 + 1 + 1) = 35 points; full: 5 × (8 + 3 + 2) = 65).
pub fn config_lattice(full: bool) -> Vec<LatticePoint> {
    let strategies = [
        Strategy::Sequential,
        Strategy::KOperations { k: 4 },
        Strategy::MaxSize { s_max: 32 },
        Strategy::DdRepeating { k: 4 },
        Strategy::adaptive(),
    ];
    let mut points = Vec::new();
    for strategy in strategies {
        for (name, dd_config) in dd_variants(full) {
            points.push(LatticePoint {
                strategy,
                dd_config,
                deadline: None,
                reorder: ReorderMode::None,
                label: format!("{} {}", strategy.label(), name),
            });
        }
        for (name, dd_config, deadline) in budget_variants(full) {
            points.push(LatticePoint {
                strategy,
                dd_config,
                deadline,
                reorder: ReorderMode::None,
                label: format!("{} {}", strategy.label(), name),
            });
        }
        for (name, dd_config) in reorder_variants(full) {
            points.push(LatticePoint {
                strategy,
                dd_config,
                deadline: None,
                reorder: ReorderMode::Sifting,
                label: format!("{} {}", strategy.label(), name),
            });
        }
    }
    points
}

/// Replays a circuit on the dense reference backend, mirroring the
/// engine's measurement-outcome stream: the same `StdRng` seed, exactly
/// one uniform draw per measure and per reset (in operation order), the
/// same `draw < P(1)` outcome rule, and classical gates firing on the
/// recorded bits.
pub fn dense_run(circuit: &Circuit, seed: u64) -> (DenseVector, Vec<bool>) {
    let n = circuit.qubits();
    assert!(
        n <= MAX_DENSE_QUBITS,
        "dense reference capped at {MAX_DENSE_QUBITS} qubits"
    );
    let mut v = DenseVector::basis(n, 0);
    let mut classical = vec![false; circuit.cbits()];
    let mut rng = StdRng::seed_from_u64(seed);
    for op in circuit.flattened().ops() {
        match op {
            Operation::Gate(g) => {
                v.apply_controlled(g.gate.matrix(), g.target, &g.controls);
            }
            Operation::Swap { a, b, controls } => {
                for g in lower_swap(*a, *b, controls) {
                    v.apply_controlled(g.gate.matrix(), g.target, &g.controls);
                }
            }
            Operation::Measure { qubit, cbit } => {
                let draw = rng.gen::<f64>();
                classical[*cbit] = v.measure(*qubit, draw);
            }
            Operation::Reset { qubit } => {
                let draw = rng.gen::<f64>();
                v.reset(*qubit, draw);
            }
            Operation::Classical { gate, cbit, value } => {
                if classical[*cbit] == *value {
                    v.apply_controlled(gate.gate.matrix(), gate.target, &gate.controls);
                }
            }
            Operation::Barrier => {}
            Operation::Repeat { .. } => unreachable!("flattened() removes repeats"),
        }
    }
    (v, classical)
}

/// Serializes panic-hook suppression: the hook is process-global, so
/// concurrent probes (e.g. parallel tests) must not race on swapping it.
static PANIC_HOOK_LOCK: Mutex<()> = Mutex::new(());

fn payload_to_string(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panicked: {s}")
    } else {
        "panicked".to_string()
    }
}

/// [`catch_unwind`] with payload formatting but **no** hook manipulation —
/// for call sites that already hold the quiet hook ([`probe`], or the
/// pooled lattice sweep in [`check_circuit`], which quiets the hook once
/// around the whole batch so points don't serialize on the hook lock).
fn quiet_catch<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(payload_to_string)
}

fn probe<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    let guard = PANIC_HOOK_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let saved = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = quiet_catch(f);
    std::panic::set_hook(saved);
    drop(guard);
    result
}

fn check_point(
    circuit: &Circuit,
    point: &LatticePoint,
    settings: &CheckSettings,
    reference: &DenseVector,
    reference_bits: &[bool],
) -> Option<Failure> {
    let options = SimOptions {
        strategy: point.strategy,
        seed: settings.seed,
        collect_trace: false,
        dd_config: DdConfig {
            fault: settings.fault,
            ..point.dd_config
        },
        deadline: point.deadline,
        reorder: point.reorder,
        ..SimOptions::default()
    };
    let run = quiet_catch(|| {
        let mut sim = Simulator::with_options(circuit.qubits(), options);
        if let Err(e) = sim.run(circuit) {
            // Even after a governor unwind the simulator must stay
            // consistent and queryable — exercise it before reporting.
            let _ = sim.state_nodes();
            let _ = sim.amplitude(0);
            return Err(e);
        }
        let dim = 1u64 << circuit.qubits();
        let amplitudes: Vec<_> = (0..dim).map(|i| sim.amplitude(i)).collect();
        Ok::<_, SimError>((amplitudes, sim.classical_bits().to_vec()))
    });
    let (amplitudes, bits) = match run {
        Ok(Ok(out)) => out,
        Ok(Err(
            e
            @ (SimError::BudgetExceeded { .. } | SimError::DeadlineExceeded | SimError::Cancelled),
        )) if point.governed() => {
            // A governed point ending in a clean typed governor error is a
            // pass: the whole claim under test is "Ok or clean error,
            // never a panic or inconsistent state".
            let _ = e;
            return None;
        }
        Ok(Err(e)) => {
            return Some(Failure {
                lattice_label: point.label.clone(),
                detail: format!("engine error: {e}"),
            })
        }
        Err(panic) => {
            return Some(Failure {
                lattice_label: point.label.clone(),
                detail: panic,
            })
        }
    };
    for (cbit, &reference_bit) in reference_bits.iter().enumerate() {
        let engine = bits.get(cbit).copied().unwrap_or(false);
        if engine != reference_bit {
            return Some(Failure {
                lattice_label: point.label.clone(),
                detail: format!("classical bit {cbit}: engine={engine} dense={reference_bit}"),
            });
        }
    }
    for (index, (&expected, &actual)) in reference
        .amplitudes()
        .iter()
        .zip(amplitudes.iter())
        .enumerate()
    {
        let deviation = (actual - expected).abs();
        // NaN deviations (e.g. from a skipped renormalization dividing by
        // zero) must register as disagreement, hence the explicit check.
        if deviation.is_nan() || deviation > settings.tolerance {
            return Some(Failure {
                lattice_label: point.label.clone(),
                detail: format!(
                    "amplitude {index:#b}: engine={actual} dense={expected} (|Δ|={deviation:.3e})"
                ),
            });
        }
    }
    None
}

/// Numeric matrix equivalence up to global phase: the backstop behind
/// [`mat_equivalence`]'s pointer comparison. Canonical-DD equality
/// requires edge weights to intern to identical table entries, but two
/// mathematically equal products evaluated in different association
/// orders (structured repeat vs. flattened stream) can drift by an ulp
/// across a tolerance bucket and land on structurally different nodes.
/// Before the oracle declares such a pair a failure it compares the dense
/// matrices entry-for-entry at the differential-testing tolerance.
fn mats_numerically_equivalent(dd: &DdManager, a: MatEdge, b: MatEdge, tol: f64) -> bool {
    let da = dd.mat_to_dense(a);
    let db = dd.mat_to_dense(b);
    if da.len() != db.len() {
        return false;
    }
    // Anchor the global phase on b's largest-magnitude entry.
    let (mut bi, mut bj, mut best) = (0usize, 0usize, -1.0f64);
    for (i, row) in db.iter().enumerate() {
        for (j, entry) in row.iter().enumerate() {
            if entry.norm_sqr() > best {
                best = entry.norm_sqr();
                (bi, bj) = (i, j);
            }
        }
    }
    if best <= tol * tol {
        return da
            .iter()
            .flatten()
            .all(|entry| entry.norm_sqr() <= tol * tol);
    }
    let ratio = da[bi][bj] / db[bi][bj];
    if (ratio.abs() - 1.0).abs() > tol {
        return false;
    }
    da.iter().zip(db.iter()).all(|(ra, rb)| {
        ra.iter()
            .zip(rb.iter())
            .all(|(&ea, &eb)| (ea - ratio * eb).abs() <= tol)
    })
}

/// Structural equivalence checks on the full unitary DD (unitary circuits
/// up to [`MAX_EQUIV_QUBITS`] wide only): the flattened circuit must build
/// the *same* unitary, and `C⁻¹·C` must be the identity up to global
/// phase. The DD manager carries the injected fault so matrix-construction
/// defects surface here even when state-vector runs dodge them.
fn check_equivalence_oracle(circuit: &Circuit, settings: &CheckSettings) -> Option<Failure> {
    if circuit.has_nonunitary() || circuit.qubits() > MAX_EQUIV_QUBITS {
        return None;
    }
    let label = "equivalence".to_string();
    let fault = settings.fault;
    let result = probe(|| {
        let mut dd = DdManager::with_config(DdConfig {
            fault,
            ..DdConfig::default()
        });
        let u = circuit_unitary(&mut dd, circuit).map_err(|e| format!("{e:?}"))?;
        dd.inc_ref_mat(u);
        let flat = circuit_unitary(&mut dd, &circuit.flattened()).map_err(|e| format!("{e:?}"))?;
        dd.inc_ref_mat(flat);
        let flat_verdict = mat_equivalence(&mut dd, u, flat);
        if !flat_verdict.is_equivalent()
            && !mats_numerically_equivalent(&dd, u, flat, settings.tolerance)
        {
            return Ok::<_, String>(Some(
                "flattened circuit builds a different unitary".to_string(),
            ));
        }
        let mut round_trip = circuit.clone();
        round_trip.append(&circuit.inverse().expect("unitary circuit inverts"));
        let rt = circuit_unitary(&mut dd, &round_trip).map_err(|e| format!("{e:?}"))?;
        dd.inc_ref_mat(rt);
        let identity = dd.mat_identity(circuit.qubits());
        if !mat_equivalence(&mut dd, rt, identity).is_equivalent()
            && !mats_numerically_equivalent(&dd, rt, identity, settings.tolerance)
        {
            return Ok(Some("C⁻¹·C is not the identity".to_string()));
        }
        Ok(None)
    });
    match result {
        Ok(Ok(None)) => None,
        Ok(Ok(Some(detail))) => Some(Failure {
            lattice_label: label,
            detail,
        }),
        Ok(Err(e)) => Some(Failure {
            lattice_label: label,
            detail: format!("equivalence oracle error: {e}"),
        }),
        Err(panic) => Some(Failure {
            lattice_label: label,
            detail: panic,
        }),
    }
}

/// The noiseless density pseudo-oracle: at `p = 0` the density matrix is
/// the pure-state projector, so its diagonal must reproduce the dense
/// reference probabilities entry-for-entry. This drags the Kraus/conjugation
/// path (matrix-matrix products, conjugate transpose, matrix addition)
/// through every ordinary fuzz iteration on fully unitary circuits, where
/// the two backends share no measurement stream to diverge on.
fn check_density_p0_oracle(
    circuit: &Circuit,
    settings: &CheckSettings,
    reference: &DenseVector,
) -> Option<Failure> {
    if circuit.has_nonunitary() || circuit.qubits() > MAX_DENSITY_QUBITS {
        return None;
    }
    let label = "density-p0".to_string();
    let fault = settings.fault;
    let options = SimOptions {
        dd_config: DdConfig {
            fault,
            ..DdConfig::default()
        },
        ..SimOptions::default()
    };
    let result = probe(|| {
        simulate_density(circuit, DepolarizingNoise::new(0.0), options)
            .map(|(sim, _)| sim.diagonal())
    });
    let diagonal = match result {
        Ok(Ok(d)) => d,
        Ok(Err(e)) => {
            return Some(Failure {
                lattice_label: label,
                detail: format!("density engine error: {e}"),
            })
        }
        Err(panic) => {
            return Some(Failure {
                lattice_label: label,
                detail: panic,
            })
        }
    };
    for (index, (&amplitude, &p)) in reference
        .amplitudes()
        .iter()
        .zip(diagonal.iter())
        .enumerate()
    {
        let expected = amplitude.norm_sqr();
        let deviation = (p - expected).abs();
        if deviation.is_nan() || deviation > settings.tolerance {
            return Some(Failure {
                lattice_label: label,
                detail: format!(
                    "diagonal {index:#b}: density={p} dense={expected} (|Δ|={deviation:.3e})"
                ),
            });
        }
    }
    None
}

/// Trajectory count used by [`check_noisy_circuit`]'s statistical
/// cross-check. Small enough to keep shrinking cheap; the deterministic
/// trace oracle does the heavy lifting.
const NOISY_TRAJECTORIES: u32 = 256;

/// Depolarizing probability injected by [`check_noisy_circuit`].
const NOISY_P: f64 = 0.08;

/// Oracles for the exact density-matrix noise path. The injected fault
/// goes into the *density* run only; the trajectory ensemble is the honest
/// statistical reference (it shares no code with the Kraus path).
///
/// 1. **Exact vs. trajectories** — per-qubit marginals from the exact
///    diagonal must bound the Monte-Carlo estimates within five standard
///    errors (plus slack for the finite sample).
/// 2. **Trace** — a depolarizing channel is trace-preserving, so
///    `tr ρ = 1` to near machine precision. Dropping a Kraus term (the
///    [`FaultKind::KrausDropsChannel`] injection) loses exactly `p/3` of
///    the trace per application and trips this deterministically.
///
/// Circuits wider than [`MAX_DENSITY_QUBITS`] or carrying classical
/// control (which the exact path rejects by design) check out vacuously.
pub fn check_noisy_circuit(circuit: &Circuit, settings: &CheckSettings) -> Vec<Failure> {
    if circuit.qubits() > MAX_DENSITY_QUBITS
        || circuit
            .flattened()
            .ops()
            .iter()
            .any(|op| matches!(op, Operation::Classical { .. }))
    {
        return Vec::new();
    }
    let noise = DepolarizingNoise::new(NOISY_P);
    let options = SimOptions {
        seed: settings.seed,
        dd_config: DdConfig {
            fault: settings.fault,
            ..DdConfig::default()
        },
        ..SimOptions::default()
    };
    let exact = probe(|| {
        simulate_density(circuit, noise, options).map(|(sim, _)| (sim.trace(), sim.diagonal()))
    });
    let (trace, diagonal) = match exact {
        Ok(Ok(out)) => out,
        Ok(Err(e)) => {
            return vec![Failure {
                lattice_label: "density-exact".to_string(),
                detail: format!("density engine error: {e}"),
            }]
        }
        Err(panic) => {
            return vec![Failure {
                lattice_label: "density-exact".to_string(),
                detail: panic,
            }]
        }
    };
    let mut failures = Vec::new();
    let trace_deviation = (trace - 1.0).abs();
    if trace_deviation.is_nan() || trace_deviation > 1e-6 {
        failures.push(Failure {
            lattice_label: "density-trace".to_string(),
            detail: format!("tr ρ = {trace} (must be 1 ± 1e-6)"),
        });
    }
    // The honest trajectory reference: default engine config, no fault.
    let template = SimOptions {
        seed: settings.seed,
        threads: 1,
        ..SimOptions::default()
    };
    let ensemble =
        probe(|| run_noisy_ensemble_with(circuit, noise, NOISY_TRAJECTORIES, &template, None));
    let ensemble = match ensemble {
        Ok(Ok(e)) => e,
        Ok(Err(e)) => {
            failures.push(Failure {
                lattice_label: "density-vs-trajectories".to_string(),
                detail: format!("trajectory reference error: {e}"),
            });
            return failures;
        }
        Err(panic) => {
            failures.push(Failure {
                lattice_label: "density-vs-trajectories".to_string(),
                detail: panic,
            });
            return failures;
        }
    };
    let n = circuit.qubits();
    let shots = f64::from(NOISY_TRAJECTORIES);
    for q in 0..n {
        let exact_p1: f64 = diagonal
            .iter()
            .enumerate()
            .filter(|(idx, _)| (*idx >> q) & 1 == 1)
            .map(|(_, p)| p)
            .sum();
        let ones: u64 = ensemble
            .counts
            .iter()
            .filter(|(outcome, _)| (**outcome >> q) & 1 == 1)
            .map(|(_, &c)| u64::from(c))
            .sum();
        let estimate = ones as f64 / shots;
        let sigma = (exact_p1.clamp(0.0, 1.0) * (1.0 - exact_p1.clamp(0.0, 1.0)) / shots).sqrt();
        let bound = 5.0 * sigma + 0.03;
        let deviation = (exact_p1 - estimate).abs();
        if deviation.is_nan() || deviation > bound {
            failures.push(Failure {
                lattice_label: "density-vs-trajectories".to_string(),
                detail: format!(
                    "qubit {q}: exact P(1)={exact_p1:.6} trajectory estimate={estimate:.6} \
                     (|Δ|={deviation:.4} > bound {bound:.4} at {NOISY_TRAJECTORIES} trajectories)"
                ),
            });
        }
    }
    failures
}

/// Runs every oracle against one circuit and returns all disagreements
/// (empty = the circuit checks out everywhere).
pub fn check_circuit(circuit: &Circuit, settings: &CheckSettings) -> Vec<Failure> {
    if circuit.qubits() > MAX_DENSE_QUBITS {
        return vec![Failure {
            lattice_label: "harness".to_string(),
            detail: format!(
                "circuit is {} qubits wide; the dense oracle is capped at {MAX_DENSE_QUBITS}",
                circuit.qubits()
            ),
        }];
    }
    let reference = probe(|| dense_run(circuit, settings.seed));
    let (reference, reference_bits) = match reference {
        Ok(out) => out,
        Err(panic) => {
            return vec![Failure {
                lattice_label: "dense-reference".to_string(),
                detail: panic,
            }]
        }
    };
    let points = config_lattice(settings.full_lattice);
    let slots: Vec<Mutex<Option<Failure>>> = points.iter().map(|_| Mutex::new(None)).collect();
    {
        // Quiet the process-global panic hook once for the whole pooled
        // sweep; per-point swapping (what `probe` does) would serialize
        // the lattice on the hook lock.
        let guard = PANIC_HOOK_LOCK
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let saved = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let sweep = catch_unwind(AssertUnwindSafe(|| {
            lattice_pool().par_for_each_index(points.len(), |i| {
                *slots[i].lock().expect("lattice slot poisoned") =
                    check_point(circuit, &points[i], settings, &reference, &reference_bits);
            });
        }));
        std::panic::set_hook(saved);
        drop(guard);
        if let Err(p) = sweep {
            resume_unwind(p);
        }
    }
    // Slots are harvested in lattice order, so failure reports stay
    // deterministic no matter how the pool interleaved the points.
    let mut failures: Vec<Failure> = slots
        .into_iter()
        .filter_map(|slot| slot.into_inner().expect("lattice slot poisoned"))
        .collect();
    if let Some(f) = check_equivalence_oracle(circuit, settings) {
        failures.push(f);
    }
    if let Some(f) = check_density_p0_oracle(circuit, settings, &reference) {
        failures.push(f);
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bell_circuit_passes_every_oracle() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let failures = check_circuit(&c, &CheckSettings::default());
        assert!(failures.is_empty(), "unexpected failures: {failures:?}");
    }

    #[test]
    fn teleportation_style_feedback_passes() {
        // Mid-circuit measurement + classically controlled corrections:
        // exercises the shared outcome stream on both backends.
        let mut c = Circuit::with_cbits(3, 2);
        c.h(1).cx(1, 2); // entangle q1,q2
        c.rx(0.7, 0); // payload on q0
        c.cx(0, 1).h(0);
        c.measure(0, 0).measure(1, 1);
        c.classical_gate(ddsim_circuit::StandardGate::X, 2, 1, true);
        c.classical_gate(ddsim_circuit::StandardGate::Z, 2, 0, true);
        for seed in [0u64, 1, 7, 1234] {
            let failures = check_circuit(
                &c,
                &CheckSettings {
                    seed,
                    ..CheckSettings::default()
                },
            );
            assert!(failures.is_empty(), "seed {seed}: {failures:?}");
        }
    }

    #[test]
    fn dense_run_matches_engine_bits() {
        let mut c = Circuit::with_cbits(2, 2);
        c.h(0).cx(0, 1).measure(0, 0).measure(1, 1);
        for seed in 0..8u64 {
            let (_, dense_bits) = dense_run(&c, seed);
            let mut sim = Simulator::with_options(
                2,
                SimOptions {
                    seed,
                    ..SimOptions::default()
                },
            );
            sim.run(&c).unwrap();
            assert_eq!(sim.classical_bits(), &dense_bits[..], "seed {seed}");
            // A Bell measurement must be perfectly correlated.
            assert_eq!(dense_bits[0], dense_bits[1]);
        }
    }

    #[test]
    fn lattice_sizes() {
        assert_eq!(config_lattice(false).len(), 35);
        assert_eq!(config_lattice(true).len(), 65);
    }

    #[test]
    fn lattice_carries_a_reorder_axis() {
        let quick: Vec<_> = config_lattice(false)
            .into_iter()
            .filter(|p| p.reorder == ReorderMode::Sifting)
            .collect();
        assert_eq!(quick.len(), 5, "1 quick reorder variant × 5 strategies");
        let full: Vec<_> = config_lattice(true)
            .into_iter()
            .filter(|p| p.reorder == ReorderMode::Sifting)
            .collect();
        assert_eq!(full.len(), 10, "2 full reorder variants × 5 strategies");
        assert!(full.iter().all(|p| !p.governed()));
    }

    #[test]
    fn budget_points_end_cleanly_on_heavy_circuits() {
        // A QFT-like all-to-all circuit at 10 qubits blows straight through
        // a 256-live-node budget; the governed lattice points must swallow
        // that as a clean typed error (or degrade and succeed) while the
        // ungoverned points still agree with the dense oracle.
        let n = 10u32;
        let mut c = Circuit::new(n);
        for q in 0..n {
            c.h(q);
            for p in (q + 1)..n {
                c.controlled_gate(
                    ddsim_circuit::StandardGate::Phase(
                        std::f64::consts::PI / f64::from(1u32 << (p - q)),
                    ),
                    vec![ddsim_dd::Control::pos(p)],
                    q,
                );
            }
        }
        let failures = check_circuit(
            &c,
            &CheckSettings {
                full_lattice: true,
                ..CheckSettings::default()
            },
        );
        assert!(failures.is_empty(), "unexpected failures: {failures:?}");
    }

    #[test]
    fn noisy_oracle_passes_on_a_healthy_engine() {
        let mut c = Circuit::with_cbits(3, 1);
        c.h(0).cx(0, 1).rz(0.4, 2).measure(2, 0);
        let failures = check_noisy_circuit(&c, &CheckSettings::default());
        assert!(failures.is_empty(), "unexpected failures: {failures:?}");
    }

    #[test]
    fn noisy_oracle_flags_the_dropped_kraus_term() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let failures = check_noisy_circuit(
            &c,
            &CheckSettings {
                fault: FaultKind::KrausDropsChannel,
                ..CheckSettings::default()
            },
        );
        assert!(
            failures.iter().any(|f| f.lattice_label == "density-trace"),
            "trace oracle missed the dropped channel: {failures:?}"
        );
    }

    #[test]
    fn noisy_oracle_skips_classically_controlled_circuits() {
        // The exact path rejects classical feedback by design, so the
        // battery must check out vacuously instead of reporting the typed
        // rejection as a disagreement.
        let mut c = Circuit::with_cbits(2, 1);
        c.h(0).measure(0, 0);
        c.classical_gate(ddsim_circuit::StandardGate::X, 1, 0, true);
        assert!(check_noisy_circuit(&c, &CheckSettings::default()).is_empty());
    }

    #[test]
    fn trotterized_circuits_pass_every_oracle() {
        use crate::generator::{generate, GenConfig, Profile};
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(7);
        let cfg = GenConfig::sample(&mut rng, Profile::Trotterized, false);
        let circuit = generate(&mut rng, &cfg);
        assert!(!circuit.has_nonunitary());
        let failures = check_circuit(&circuit, &CheckSettings::default());
        assert!(failures.is_empty(), "unexpected failures: {failures:?}");
    }

    #[test]
    fn injected_fault_is_flagged() {
        // Negative-control ignoring flips which branch a negctrl-X fires
        // on; the dense oracle sees it immediately.
        let mut c = Circuit::new(2);
        c.controlled_gate(
            ddsim_circuit::StandardGate::X,
            vec![ddsim_dd::Control::neg(0)],
            1,
        );
        let failures = check_circuit(
            &c,
            &CheckSettings {
                fault: FaultKind::NegativeControlsIgnored,
                ..CheckSettings::default()
            },
        );
        assert!(!failures.is_empty(), "fault went undetected");
    }
}
