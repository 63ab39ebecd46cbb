//! Runner for the simulation workloads: set-up, one checked warm-up pass,
//! then interleaved timed passes over the fixed rows.

use std::collections::BTreeMap;
use std::time::Instant;

use ddsim_circuit::{qasm, Circuit};
use ddsim_complex::Complex;
use ddsim_core::density::simulate_density;
use ddsim_core::noise::{run_noisy_ensemble_with, DepolarizingNoise};
use ddsim_core::{run_shor_dd_construct, simulate, CacheStats, RunStats, SimOptions};

use crate::checks;
use crate::probe::{HostProbe, REFERENCE_S};
use crate::stats::{geomean, median, peak_rss_mb};
use crate::trace::{SpanId, Tracer};
use crate::workloads::{Row, Source, Task};
use crate::{Config, Fault, Metrics, Outcome};

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 21;
/// Timed passes run even when one pass outlasts `--seconds`.
const MIN_PASSES: usize = 3;
/// The same for a traced run, which alternates untraced and traced passes.
const MIN_TRACED_PASSES: usize = 4;
/// threads=1 control executions of each fork-join row in a traced run.
const CONTROL_REPS: usize = 3;

/// Wall time of each layer call in one row execution.
#[derive(Clone, Copy, Debug, Default)]
struct Layers {
    simulate: f64,
    sample: f64,
    noise: f64,
    density: f64,
    ddconstruct: f64,
    drop: f64,
}

impl Layers {
    fn total(&self) -> f64 {
        self.simulate + self.sample + self.noise + self.density + self.ddconstruct + self.drop
    }

    fn scaled(&self, k: f64) -> Layers {
        Layers {
            simulate: self.simulate * k,
            sample: self.sample * k,
            noise: self.noise * k,
            density: self.density * k,
            ddconstruct: self.ddconstruct * k,
            drop: self.drop * k,
        }
    }

    fn add(&mut self, o: &Layers) {
        self.simulate += o.simulate;
        self.sample += o.sample;
        self.noise += o.noise;
        self.density += o.density;
        self.ddconstruct += o.ddconstruct;
        self.drop += o.drop;
    }
}

/// One row execution.
struct Exec {
    layers: Layers,
    stats: Option<RunStats>,
    /// Deterministic fingerprint of the outputs; every timed execution
    /// must reproduce the checked warm-up's.
    signature: String,
}

/// Accuracy observed by the checks.
#[derive(Default)]
struct Accuracy {
    max_amp_err: f64,
    norm_drift: f64,
}

/// Set-up products: every row's circuit, built and QASM round-tripped.
struct Setup {
    circuits: BTreeMap<String, Circuit>,
    build_s: f64,
    parse_s: f64,
    total_s: f64,
    ok: bool,
}

fn setup(rows: &[Row], tracer: &mut Tracer) -> Setup {
    let started = Instant::now();
    let root = tracer.begin("setup", "", 0);
    let mut s = Setup {
        circuits: BTreeMap::new(),
        build_s: 0.0,
        parse_s: 0.0,
        total_s: 0.0,
        ok: true,
    };
    for row in rows {
        let key = row.source.key();
        if row.task == Task::DdConstruct || s.circuits.contains_key(&key) {
            continue;
        }
        let t = Instant::now();
        let span = tracer.begin("algorithms.build", &row.name, root);
        let circuit = row.source.build();
        let mut counters = row.source.inputs();
        counters.push(("gates".into(), circuit.elementary_count() as f64));
        tracer.end(span, counters);
        s.build_s += t.elapsed().as_secs_f64();

        let span = tracer.begin("circuit.qasm_write", &row.name, root);
        let text = qasm::write(&circuit);
        tracer.end(span, vec![]);

        let t = Instant::now();
        let span = tracer.begin("circuit.qasm_parse", &row.name, root);
        let parsed = text
            .as_deref()
            .map_err(|e| e.clone())
            .and_then(|t| qasm::parse(t).map_err(|e| e.to_string()));
        tracer.end(span, vec![]);
        s.parse_s += t.elapsed().as_secs_f64();

        // QASM flattens repeat blocks, so rows run the generated circuit
        // (DD-repeating needs its blocks) and the round trip must
        // reproduce its flattened op stream exactly.
        match parsed {
            Ok(p) if p.ops() == circuit.flattened().ops() => {}
            Ok(_) => {
                eprintln!("setup: {} does not survive a QASM round trip", row.name);
                s.ok = false;
            }
            Err(e) => {
                eprintln!("setup: QASM round trip of {} failed: {e}", row.name);
                s.ok = false;
            }
        }
        s.circuits.insert(key, circuit);
    }
    tracer.end(root, vec![]);
    s.total_s = started.elapsed().as_secs_f64();
    s
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The `RunStats` counters attached to a `core.*` span.
fn stats_counters(s: &RunStats) -> Vec<(String, f64)> {
    let mut c: Vec<(String, f64)> = vec![
        ("gates".into(), s.elementary_gates as f64),
        ("mxv".into(), s.mat_vec_mults as f64),
        ("mxm".into(), s.mat_mat_mults as f64),
        ("mult_recursions".into(), s.mult_recursions as f64),
        ("add_recursions".into(), s.add_recursions as f64),
        ("specialized_applies".into(), s.specialized_applies as f64),
        ("identity_skips".into(), s.identity_skips as f64),
        ("gc_runs".into(), s.gc_runs as f64),
        ("peak_state_nodes".into(), s.peak_state_nodes as f64),
        ("peak_matrix_nodes".into(), s.peak_matrix_nodes as f64),
        ("final_state_nodes".into(), s.final_state_nodes as f64),
        ("ladder_events".into(), ladder_events(s) as f64),
    ];
    for (name, t) in s.cache.named_compute() {
        c.push((format!("ct.{name}.lookups"), t.lookups as f64));
        c.push((format!("ct.{name}.hits"), t.hits as f64));
    }
    for (name, u) in s.cache.named_unique() {
        c.push((format!("ut.{name}.lookups"), u.lookups as f64));
        c.push((format!("ut.{name}.hits"), u.hits as f64));
        c.push((format!("ut.{name}.probes"), u.probes as f64));
    }
    c.push(("complex.lookups".into(), s.cache.complex.lookups as f64));
    c.push(("complex.inserts".into(), s.cache.complex.inserts as f64));
    c
}

fn ladder_events(s: &RunStats) -> u64 {
    s.ladder_gc_rescues + s.ladder_cache_flushes + s.ladder_strategy_downgrades + s.ladder_reorders
}

fn sorted_counts(counts: impl IntoIterator<Item = (u64, u32)>) -> Vec<(u64, u32)> {
    let mut v: Vec<(u64, u32)> = counts.into_iter().collect();
    v.sort_unstable();
    v
}

/// Checks of one row execution against its references (warm-up only).
struct Checker<'a> {
    fault: Option<Fault>,
    references: &'a mut BTreeMap<String, Vec<Complex>>,
    accuracy: &'a mut Accuracy,
}

impl Checker<'_> {
    fn dense_reference(&mut self, row: &Row, circuit: &Circuit) -> Vec<Complex> {
        self.references
            .entry(row.source.key())
            .or_insert_with(|| checks::dense_state(circuit))
            .clone()
    }

    /// Compares an amplitude vector with the dense reference.
    fn amplitudes(
        &mut self,
        row: &Row,
        circuit: &Circuit,
        mut got: Vec<Complex>,
    ) -> Result<(), String> {
        if self.fault == Some(Fault::Amp) {
            got[0] += Complex::new(1e-3, 0.0);
        }
        let want = self.dense_reference(row, circuit);
        let err = checks::max_abs_diff(&got, &want);
        self.accuracy.max_amp_err = self.accuracy.max_amp_err.max(err);
        if err > checks::AMP_TOL {
            return Err(format!(
                "max amplitude error {err:e} > {:e}",
                checks::AMP_TOL
            ));
        }
        Ok(())
    }

    fn norm(&mut self, norm_sqr: f64) -> Result<(), String> {
        let drift = (norm_sqr - 1.0).abs();
        self.accuracy.norm_drift = self.accuracy.norm_drift.max(drift);
        if drift.is_nan() || drift > checks::AMP_TOL {
            return Err(format!("norm drift {drift:e}"));
        }
        Ok(())
    }

    fn shots(&self, counts: &mut [(u64, u32)], shots: u32) -> Result<(), String> {
        if self.fault == Some(Fault::Shot) {
            if let Some(first) = counts.first_mut() {
                first.1 -= 1;
            }
        }
        let total: u64 = counts.iter().map(|(_, c)| u64::from(*c)).sum();
        if total != u64::from(shots) {
            return Err(format!("counts sum to {total}, not {shots}"));
        }
        Ok(())
    }

    fn simulated(
        &mut self,
        row: &Row,
        circuit: &Circuit,
        sim: &ddsim_core::Simulator,
        counts: Option<&mut Vec<(u64, u32)>>,
        shots: u32,
    ) -> Result<(), String> {
        self.norm(sim.dd().vec_norm_sqr(sim.state()))?;
        match &row.source {
            Source::Grover { qubits, marked } => {
                let inst = ddsim_algorithms::grover::GroverInstance::new(*qubits, *marked);
                let mark = if self.fault == Some(Fault::Mark) {
                    marked ^ 1
                } else {
                    *marked
                };
                let p = sim.probability_of(mark << 1) + sim.probability_of((mark << 1) | 1);
                let want = checks::grover_success(inst.search_qubits, inst.iterations);
                if (p - want).abs() > checks::AMP_TOL {
                    return Err(format!("marked probability {p} != {want}"));
                }
                if *qubits <= 15 {
                    self.amplitudes(row, circuit, sim.dd().vec_to_amplitudes(sim.state()))?;
                }
            }
            Source::Shor(inst) => {
                let want = checks::shor_reference_phase(*inst, row.seed);
                if sim.classical_value() != want {
                    return Err(format!(
                        "phase {} != reference {want}",
                        sim.classical_value()
                    ));
                }
            }
            Source::Supremacy(_) | Source::Ising(_) | Source::Heisenberg(_) => {
                self.amplitudes(row, circuit, sim.dd().vec_to_amplitudes(sim.state()))?;
            }
        }
        if let Some(counts) = counts {
            self.shots(counts, shots)?;
        }
        Ok(())
    }
}

/// Executes one row once; `check` is set on the warm-up pass only.
fn execute(
    row: &Row,
    circuit: Option<&Circuit>,
    check: Option<&mut Checker<'_>>,
    tracer: &mut Tracer,
    parent: SpanId,
    threads_override: Option<u32>,
) -> Result<Exec, String> {
    let mut layers = Layers::default();
    match &row.task {
        Task::Simulate {
            strategy,
            threads,
            shots,
        } => {
            let circuit = circuit.expect("simulate rows have a circuit");
            let options = SimOptions {
                strategy: *strategy,
                seed: row.seed,
                threads: threads_override.unwrap_or(*threads),
                ..SimOptions::default()
            };
            let t = Instant::now();
            let span = tracer.begin("core.simulate", &row.name, parent);
            let (mut sim, stats) = simulate(circuit, options).map_err(|e| e.to_string())?;
            layers.simulate = secs(t);
            tracer.end(span, stats_counters(&stats));
            let mut counts = None;
            if *shots > 0 {
                let t = Instant::now();
                let span = tracer.begin("core.sample_counts", &row.name, parent);
                let c = sim.sample_counts(*shots);
                layers.sample = secs(t);
                tracer.end(span, vec![("shots".into(), f64::from(*shots))]);
                counts = Some(sorted_counts(c));
            }
            let signature = format!(
                "{} {} {:?}",
                stats.final_state_nodes,
                sim.classical_value(),
                counts
                    .as_ref()
                    .map(|c| ddsim_dd::fnv1a(format!("{c:?}").as_bytes()))
            );
            if let Some(checker) = check {
                checker.simulated(row, circuit, &sim, counts.as_mut(), *shots)?;
            }
            let t = Instant::now();
            let span = tracer.begin("core.drop", &row.name, parent);
            drop(sim);
            layers.drop = secs(t);
            tracer.end(span, vec![]);
            Ok(Exec {
                layers,
                stats: Some(stats),
                signature,
            })
        }
        Task::Trajectories {
            p,
            trajectories,
            threads,
        } => {
            let circuit = circuit.expect("trajectory rows have a circuit");
            let template = SimOptions {
                seed: row.seed,
                threads: threads_override.unwrap_or(*threads),
                ..SimOptions::default()
            };
            let noise = DepolarizingNoise::new(*p);
            let t = Instant::now();
            let span = tracer.begin("core.noise_ensemble", &row.name, parent);
            let ensemble = run_noisy_ensemble_with(circuit, noise, *trajectories, &template, None)
                .map_err(|e| e.to_string())?;
            layers.noise = secs(t);
            tracer.end(
                span,
                vec![("trajectories".into(), f64::from(*trajectories))],
            );
            let mut counts = sorted_counts(ensemble.counts);
            let signature = format!("{:x}", ddsim_dd::fnv1a(format!("{counts:?}").as_bytes()));
            if let Some(checker) = check {
                checker.shots(&mut counts, *trajectories)?;
                let (rho, _) = simulate_density(circuit, noise, SimOptions::default())
                    .map_err(|e| e.to_string())?;
                let exact = checks::marginals_from_diagonal(&rho.diagonal(), circuit.qubits());
                let (_, ok) = checks::trajectory_marginals_ok(&exact, &counts, *trajectories);
                if !ok {
                    return Err("trajectory marginals outside 5σ+0.03 of the exact ρ".into());
                }
            }
            Ok(Exec {
                layers,
                stats: None,
                signature,
            })
        }
        Task::Density { p } => {
            let circuit = circuit.expect("density rows have a circuit");
            let options = SimOptions {
                seed: row.seed,
                ..SimOptions::default()
            };
            let t = Instant::now();
            let span = tracer.begin("core.simulate_density", &row.name, parent);
            let (rho, stats) = simulate_density(circuit, DepolarizingNoise::new(*p), options)
                .map_err(|e| e.to_string())?;
            layers.density = secs(t);
            tracer.end(span, stats_counters(&stats));
            let signature = format!("{}", rho.rho_nodes());
            if let Some(checker) = check {
                checker.norm(rho.trace())?;
                let mut got = rho.dense();
                if checker.fault == Some(Fault::Amp) {
                    got[0][0] += Complex::new(1e-3, 0.0);
                }
                let want = checks::dense_density(circuit, *p);
                let err = got
                    .iter()
                    .zip(&want)
                    .map(|(a, b)| checks::max_abs_diff(a, b))
                    .fold(0.0, f64::max);
                checker.accuracy.max_amp_err = checker.accuracy.max_amp_err.max(err);
                if err > checks::AMP_TOL {
                    return Err(format!("ρ deviates from the dense ρ by {err:e}"));
                }
            }
            let t = Instant::now();
            let span = tracer.begin("core.drop", &row.name, parent);
            drop(rho);
            layers.drop = secs(t);
            tracer.end(span, vec![]);
            Ok(Exec {
                layers,
                stats: Some(stats),
                signature,
            })
        }
        Task::DdConstruct => {
            let Source::Shor(inst) = row.source else {
                unreachable!("DD-construct rows are Shor rows")
            };
            let t = Instant::now();
            let span = tracer.begin("core.shor_dd_construct", &row.name, parent);
            let outcome = run_shor_dd_construct(inst, row.seed);
            layers.ddconstruct = secs(t);
            tracer.end(span, stats_counters(&outcome.stats));
            if check.is_some() {
                let want = checks::shor_reference_phase(inst, row.seed);
                if outcome.measured_phase != want {
                    return Err(format!(
                        "phase {} != reference {want}",
                        outcome.measured_phase
                    ));
                }
            }
            Ok(Exec {
                layers,
                signature: format!("{}", outcome.measured_phase),
                stats: Some(outcome.stats),
            })
        }
    }
}

/// Per-row samples of the timed passes.
#[derive(Default)]
struct RowSamples {
    /// Mean layer times per execution, one entry per timed sample.
    times: Vec<Layers>,
    stats: Option<RunStats>,
}

impl RowSamples {
    fn median_total(&self) -> Option<f64> {
        let totals: Vec<f64> = self.times.iter().map(Layers::total).collect();
        (!totals.is_empty()).then(|| median(&totals))
    }

    fn median_layers(&self) -> Layers {
        let pick = |f: fn(&Layers) -> f64| median(&self.times.iter().map(f).collect::<Vec<_>>());
        Layers {
            simulate: pick(|l| l.simulate),
            sample: pick(|l| l.sample),
            noise: pick(|l| l.noise),
            density: pick(|l| l.density),
            ddconstruct: pick(|l| l.ddconstruct),
            drop: pick(|l| l.drop),
        }
    }
}

/// One timed pass over every row, each row preceded by a host probe
/// whose time goes to `probes`.
#[allow(clippy::too_many_arguments)]
fn timed_pass(
    rows: &[Row],
    setup: &Setup,
    samples: &mut [RowSamples],
    signatures: &[Option<String>],
    probe: &HostProbe,
    probes: &mut Vec<f64>,
    tracer: &mut Tracer,
    attempted: &mut u64,
    failed: &mut u64,
) {
    let pass = tracer.begin("pass", "", 0);
    for (i, row) in rows.iter().enumerate() {
        let Some(expected) = &signatures[i] else {
            continue; // failed its warm-up; counted there
        };
        let circuit = setup.circuits.get(&row.source.key());
        probes.push(probe.run());
        let span = tracer.begin("row", &row.name, pass);
        for _ in 0..row.samples {
            let mut sum = Layers::default();
            let mut ok = true;
            for _ in 0..row.reps {
                *attempted += 1;
                match execute(row, circuit, None, tracer, span, None) {
                    Ok(exec) if &exec.signature == expected => {
                        sum.add(&exec.layers);
                        if samples[i].stats.is_none() {
                            samples[i].stats = exec.stats;
                        }
                    }
                    Ok(exec) => {
                        eprintln!(
                            "{}: output {} differs from warm-up {expected}",
                            row.name, exec.signature
                        );
                        *failed += 1;
                        ok = false;
                    }
                    Err(e) => {
                        eprintln!("{}: {e}", row.name);
                        *failed += 1;
                        ok = false;
                    }
                }
            }
            if ok {
                samples[i].times.push(sum.scaled(1.0 / f64::from(row.reps)));
            }
        }
        tracer.end(span, vec![]);
    }
    tracer.end(pass, vec![]);
}

/// Sums of per-row medians over the rows with samples.
fn wall_and_geomean(samples: &[RowSamples]) -> (f64, f64, Vec<f64>) {
    let medians: Vec<f64> = samples
        .iter()
        .filter_map(RowSamples::median_total)
        .collect();
    if medians.is_empty() {
        return (0.0, 0.0, medians);
    }
    (medians.iter().sum(), geomean(&medians), medians)
}

/// Runs a simulation workload.
pub fn run(rows: Vec<Row>, cfg: &Config) -> Result<Outcome, String> {
    let mut tracer = Tracer::new(cfg.trace);
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let probe = HostProbe::new();

    // Set-up, repeated, each repetition preceded by the host probe; each
    // repetition frees the previous one's circuits first, and the last
    // repetition's are used.
    let (mut totals, mut builds, mut parses) = (Vec::new(), Vec::new(), Vec::new());
    let mut setup_probes = Vec::new();
    let mut kept: Option<Setup> = None;
    for _ in 0..SETUP_REPS {
        drop(kept.take());
        setup_probes.push(probe.run());
        let s = setup(&rows, &mut tracer);
        totals.push(s.total_s);
        builds.push(s.build_s);
        parses.push(s.parse_s);
        kept = Some(s);
    }
    let (setup_s, build_s, parse_s) = (median(&totals), median(&builds), median(&parses));
    let setup = kept.expect("at least one set-up");
    attempted += 1;
    if !setup.ok {
        failed += 1;
    }

    // Warm-up pass: every row once, each output checked (untimed).
    let mut references = BTreeMap::new();
    let mut accuracy = Accuracy::default();
    let warm = tracer.begin("warmup", "", 0);
    let signatures: Vec<Option<String>> = rows
        .iter()
        .map(|row| {
            attempted += 1;
            let mut checker = Checker {
                fault: cfg.fault,
                references: &mut references,
                accuracy: &mut accuracy,
            };
            let circuit = setup.circuits.get(&row.source.key());
            match execute(row, circuit, Some(&mut checker), &mut tracer, warm, None) {
                Ok(exec) => Some(exec.signature),
                Err(e) => {
                    eprintln!("{}: check failed: {e}", row.name);
                    failed += 1;
                    None
                }
            }
        })
        .collect();
    tracer.end(warm, vec![]);
    drop(references);

    // Timed passes, interleaved over rows. A traced run alternates traced
    // and untraced passes so it can report its own overhead.
    let mut plain: Vec<RowSamples> = rows.iter().map(|_| RowSamples::default()).collect();
    let mut traced: Vec<RowSamples> = rows.iter().map(|_| RowSamples::default()).collect();
    let mut untraced_tracer = Tracer::new(false);
    let mut probes = Vec::new();
    let started = Instant::now();
    let mut passes = 0usize;
    loop {
        let elapsed = started.elapsed().as_secs_f64();
        let per_pass = if passes == 0 {
            0.0
        } else {
            elapsed / passes as f64
        };
        let min_passes = if cfg.trace {
            MIN_TRACED_PASSES
        } else {
            MIN_PASSES
        };
        if passes >= min_passes && elapsed + per_pass > cfg.seconds {
            break;
        }
        let (samples, pass_tracer) = if cfg.trace && passes % 2 == 1 {
            (&mut traced, &mut tracer)
        } else {
            (&mut plain, &mut untraced_tracer)
        };
        timed_pass(
            &rows,
            &setup,
            samples,
            &signatures,
            &probe,
            &mut probes,
            pass_tracer,
            &mut attempted,
            &mut failed,
        );
        passes += 1;
    }
    let timed_s = started.elapsed().as_secs_f64();

    // Times are stated at the reference host speed: measured seconds
    // times REFERENCE_S over the median time of the probes run among them.
    let probe_s = median(&probes);
    let speed = REFERENCE_S / probe_s;
    let setup_speed = REFERENCE_S / median(&setup_probes);
    let (wall_s, geo, medians) = wall_and_geomean(&plain);
    let mut metrics = Metrics::default();
    metrics.end("wall_s", wall_s * speed, "s");
    metrics.end("row_s.geomean", geo * speed, "s");
    // The job metrics belong to `server_jobs`; a simulation workload has
    // too few rows for a latency percentile, so they repeat the row
    // aggregates (a row is the job).
    metrics.end("jobs_per_s", medians.len() as f64 / (wall_s * speed), "1/s");
    metrics.end("job_latency_s.p50", geo * speed, "s");
    metrics.end("job_latency_s.p90", geo * speed, "s");
    metrics.end("setup_s", setup_s * setup_speed, "s");
    metrics.end("peak_rss_mb", peak_rss_mb(None), "MB");

    if cfg.trace {
        layer_metrics(
            &mut metrics,
            &rows,
            &traced,
            wall_s,
            build_s,
            parse_s,
            &accuracy,
        );
        metrics.layer("host.probe_s", probe_s, "s");
        if rows.iter().any(Row::fork_join) {
            par_metrics(&mut metrics, &rows, &setup, &traced, &mut tracer);
        }
        let path = cfg
            .out_dir
            .join(format!("trace-{}-{}.json", cfg.workload, cfg.seed));
        if let Err(e) = tracer.write(&path, &cfg.workload, cfg.seed) {
            eprintln!("cannot write {}: {e}", path.display());
        }
    }
    eprintln!(
        "{}: {passes} timed passes in {timed_s:.1} s over {} rows; measured wall {wall_s:.6} s, \
         row geomean {geo:.6} s, set-up {setup_s:.6} s; median probe {probe_s:.6} s over {} \
         (speed factor {speed:.4}; set-up {setup_speed:.4})",
        cfg.workload,
        rows.len(),
        probes.len()
    );
    for (row, s) in rows.iter().zip(&plain) {
        if let Some(m) = s.median_total() {
            eprintln!(
                "  {:<36} median {:>10.6} s over {} samples",
                row.name,
                m,
                s.times.len()
            );
        }
    }
    Ok(Outcome {
        attempted,
        failed,
        metrics,
    })
}

/// Per-layer metrics from the traced passes.
#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    m: &mut Metrics,
    rows: &[Row],
    traced: &[RowSamples],
    untraced_wall_s: f64,
    build_s: f64,
    parse_s: f64,
    accuracy: &Accuracy,
) {
    let (traced_wall_s, _, _) = wall_and_geomean(traced);
    let mut layers = Layers::default();
    let mut total = RunStats::default();
    let mut shots = 0.0;
    let mut trajectories = 0.0;
    for (row, s) in rows.iter().zip(traced) {
        if s.times.is_empty() {
            continue;
        }
        layers.add(&s.median_layers());
        if let Some(st) = &s.stats {
            accumulate(&mut total, st);
        }
        match row.task {
            Task::Simulate { shots: n, .. } => shots += f64::from(n),
            Task::Trajectories {
                trajectories: n, ..
            } => trajectories += f64::from(n),
            _ => {}
        }
    }
    let engine_s = layers.simulate + layers.density + layers.ddconstruct;
    let recursions = (total.mult_recursions + total.add_recursions) as f64;
    let rate = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    m.layer("trace.overhead_s", traced_wall_s - untraced_wall_s, "s");
    m.layer("algorithms.build_s", build_s, "s");
    m.layer("circuit.qasm_parse_s", parse_s, "s");
    m.layer("core.simulate_s", layers.simulate, "s");
    m.layer("core.gates", total.elementary_gates as f64, "count");
    m.layer(
        "core.ns_per_gate",
        rate(engine_s * 1e9, total.elementary_gates as f64),
        "ns",
    );
    m.layer("core.mxv", total.mat_vec_mults as f64, "count");
    m.layer("core.mxm", total.mat_mat_mults as f64, "count");
    m.layer("core.ladder_events", ladder_events(&total) as f64, "count");
    m.layer("core.drop_s", layers.drop, "s");
    m.layer("core.sample_s", layers.sample, "s");
    m.layer("core.shots_per_s", rate(shots, layers.sample), "1/s");
    m.layer("core.noise_s", layers.noise, "s");
    m.layer(
        "core.trajectories_per_s",
        rate(trajectories, layers.noise),
        "1/s",
    );
    m.layer("core.density_s", layers.density, "s");
    m.layer("core.ddconstruct_s", layers.ddconstruct, "s");
    m.layer("dd.mult_recursions", total.mult_recursions as f64, "count");
    m.layer("dd.add_recursions", total.add_recursions as f64, "count");
    m.layer(
        "dd.specialized_applies",
        total.specialized_applies as f64,
        "count",
    );
    m.layer("dd.identity_skips", total.identity_skips as f64, "count");
    m.layer(
        "dd.ns_per_recursion",
        rate(engine_s * 1e9, recursions),
        "ns",
    );
    let c = &total.cache;
    for (name, t) in [
        ("apply_gate", c.apply_gate),
        ("mat_vec", c.mat_vec),
        ("mat_mat", c.mat_mat),
        ("add_vec", c.add_vec),
        ("add_mat", c.add_mat),
        ("conj_transpose", c.conj_transpose),
    ] {
        m.layer(&format!("ct.{name}.lookups"), t.lookups as f64, "count");
        m.layer(&format!("ct.{name}.hit_rate"), t.hit_rate(), "ratio");
    }
    for (name, u) in [("vec", c.vec_unique), ("mat", c.mat_unique)] {
        m.layer(&format!("ut.{name}.lookups"), u.lookups as f64, "count");
        m.layer(&format!("ut.{name}.hit_rate"), u.hit_rate(), "ratio");
        m.layer(
            &format!("ut.{name}.probes_per_lookup"),
            rate(u.probes as f64, u.lookups as f64),
            "ratio",
        );
    }
    m.layer("dd.gc_runs", total.gc_runs as f64, "count");
    m.layer(
        "dd.peak_state_nodes",
        total.peak_state_nodes as f64,
        "count",
    );
    m.layer(
        "dd.peak_matrix_nodes",
        total.peak_matrix_nodes as f64,
        "count",
    );
    m.layer(
        "dd.final_state_nodes",
        total.final_state_nodes as f64,
        "count",
    );
    m.layer("complex.lookups", c.complex.lookups as f64, "count");
    m.layer("complex.unify_rate", c.complex.unify_rate(), "ratio");
    m.layer(
        "complex.mean_probe_len",
        c.complex.mean_probe_len(),
        "count",
    );
    m.layer("check.max_amp_err", accuracy.max_amp_err, "abs");
    m.layer("check.norm_drift", accuracy.norm_drift, "abs");
}

/// Counters summed over rows (node counts too: they are per-row sizes
/// whose sum tracks the memory the rows need).
fn accumulate(total: &mut RunStats, s: &RunStats) {
    total.elementary_gates += s.elementary_gates;
    total.mat_vec_mults += s.mat_vec_mults;
    total.mat_mat_mults += s.mat_mat_mults;
    total.identity_skips += s.identity_skips;
    total.specialized_applies += s.specialized_applies;
    total.mult_recursions += s.mult_recursions;
    total.add_recursions += s.add_recursions;
    total.gc_runs += s.gc_runs;
    total.peak_state_nodes += s.peak_state_nodes;
    total.peak_matrix_nodes += s.peak_matrix_nodes;
    total.final_state_nodes += s.final_state_nodes;
    total.ladder_gc_rescues += s.ladder_gc_rescues;
    total.ladder_cache_flushes += s.ladder_cache_flushes;
    total.ladder_strategy_downgrades += s.ladder_strategy_downgrades;
    total.ladder_reorders += s.ladder_reorders;
    let mut cache: CacheStats = total.cache;
    cache.accumulate(&s.cache);
    total.cache = cache;
}

/// `par.speedup` and `par.counter_inflation`: each fork-join row re-run
/// at threads=1, outside the timed passes.
fn par_metrics(
    m: &mut Metrics,
    rows: &[Row],
    setup: &Setup,
    traced: &[RowSamples],
    tracer: &mut Tracer,
) {
    let control = tracer.begin("par_control", "", 0);
    let (mut t1, mut t2, mut mxm1, mut mxm2) = (0.0, 0.0, 0u64, 0u64);
    for (row, s) in rows.iter().zip(traced) {
        let (true, Some(total2)) = (row.fork_join(), s.median_total()) else {
            continue;
        };
        let circuit = setup.circuits.get(&row.source.key());
        let mut times = Vec::new();
        let mut mxm = 0;
        for _ in 0..CONTROL_REPS {
            match execute(row, circuit, None, tracer, control, Some(1)) {
                Ok(exec) => {
                    times.push(exec.layers.total());
                    mxm = exec.stats.map_or(0, |st| st.mat_mat_mults);
                }
                Err(e) => eprintln!("{}: threads=1 control failed: {e}", row.name),
            }
        }
        if times.is_empty() {
            continue;
        }
        t1 += median(&times);
        t2 += total2;
        mxm1 += mxm;
        mxm2 += s.stats.as_ref().map_or(0, |st| st.mat_mat_mults);
    }
    tracer.end(control, vec![]);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    m.layer("par.speedup", ratio(t1, t2), "ratio");
    m.layer(
        "par.counter_inflation",
        ratio(mxm2 as f64, mxm1 as f64),
        "ratio",
    );
}
