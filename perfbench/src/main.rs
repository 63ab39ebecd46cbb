//! `perfbench` — end-to-end and per-layer benchmark of the DD simulator.
//!
//! ```text
//! perfbench --workload <mxv_sequential|mxm_combining|threads2|server_jobs>
//!           [--seed N] [--seconds S] [--trace 0|1] [--toy] [--fault amp|mark|shot]
//! perfbench pools      # re-derive the supremacy gate-seed pools
//! perfbench serve ...  # the ddsim-server daemon (spawned by server_jobs)
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: every end-to-end metric with
//! `--trace 0`, every per-layer metric with `--trace 1`. A human summary
//! goes to standard error. See README.md for the workloads and metrics.

mod checks;
mod probe;
mod server;
mod sim;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;

use stats::{json_num, json_str};

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// Every end-to-end metric, in output order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("row_s.geomean", "s"),
    ("jobs_per_s", "1/s"),
    ("job_latency_s.p50", "s"),
    ("job_latency_s.p90", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Every per-layer metric, in output order. A workload that does not
/// load a layer reports 0 for its metrics.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.overhead_s", "s"),
    ("host.probe_s", "s"),
    ("algorithms.build_s", "s"),
    ("circuit.qasm_parse_s", "s"),
    ("core.simulate_s", "s"),
    ("core.gates", "count"),
    ("core.ns_per_gate", "ns"),
    ("core.mxv", "count"),
    ("core.mxm", "count"),
    ("core.ladder_events", "count"),
    ("core.drop_s", "s"),
    ("core.sample_s", "s"),
    ("core.shots_per_s", "1/s"),
    ("core.noise_s", "s"),
    ("core.trajectories_per_s", "1/s"),
    ("core.density_s", "s"),
    ("core.ddconstruct_s", "s"),
    ("dd.mult_recursions", "count"),
    ("dd.add_recursions", "count"),
    ("dd.specialized_applies", "count"),
    ("dd.identity_skips", "count"),
    ("dd.ns_per_recursion", "ns"),
    ("ct.apply_gate.lookups", "count"),
    ("ct.apply_gate.hit_rate", "ratio"),
    ("ct.mat_vec.lookups", "count"),
    ("ct.mat_vec.hit_rate", "ratio"),
    ("ct.mat_mat.lookups", "count"),
    ("ct.mat_mat.hit_rate", "ratio"),
    ("ct.add_vec.lookups", "count"),
    ("ct.add_vec.hit_rate", "ratio"),
    ("ct.add_mat.lookups", "count"),
    ("ct.add_mat.hit_rate", "ratio"),
    ("ct.conj_transpose.lookups", "count"),
    ("ct.conj_transpose.hit_rate", "ratio"),
    ("ut.vec.lookups", "count"),
    ("ut.vec.hit_rate", "ratio"),
    ("ut.vec.probes_per_lookup", "ratio"),
    ("ut.mat.lookups", "count"),
    ("ut.mat.hit_rate", "ratio"),
    ("ut.mat.probes_per_lookup", "ratio"),
    ("dd.gc_runs", "count"),
    ("dd.peak_state_nodes", "count"),
    ("dd.peak_matrix_nodes", "count"),
    ("dd.final_state_nodes", "count"),
    ("complex.lookups", "count"),
    ("complex.unify_rate", "ratio"),
    ("complex.mean_probe_len", "count"),
    ("par.speedup", "ratio"),
    ("par.counter_inflation", "ratio"),
    ("check.max_amp_err", "abs"),
    ("check.norm_drift", "abs"),
    ("server.submit_s.p50", "s"),
    ("server.plain_job_s.p50", "s"),
    ("server.ckpt_job_s.p50", "s"),
    ("server.retries", "count"),
    ("server.shed", "count"),
];

/// A deliberate output corruption, used by the self-test to show that
/// each check can fail.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Perturb one amplitude (and one ρ entry) before the dense check.
    Amp,
    /// Check Grover rows against the wrong marked element.
    Mark,
    /// Drop one shot from every sampled histogram before its check.
    Shot,
}

/// Parsed command line.
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub toy: bool,
    pub fault: Option<Fault>,
    /// Where traces and server data go (inside the checkout).
    pub out_dir: PathBuf,
}

/// Metrics of one run, in insertion order.
#[derive(Default)]
pub struct Metrics {
    end_to_end: Vec<(String, f64, String)>,
    per_layer: Vec<(String, f64, String)>,
}

impl Metrics {
    pub fn end(&mut self, name: &str, value: f64, unit: &str) {
        self.end_to_end.push((name.into(), value, unit.into()));
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &str) {
        self.per_layer.push((name.into(), value, unit.into()));
    }
}

/// What a workload run returns.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

const USAGE: &str =
    "usage: perfbench --workload <mxv_sequential|mxm_combining|threads2|server_jobs> \
[--seed N] [--seconds S] [--trace 0|1] [--toy] [--fault amp|mark|shot]";

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        toy: false,
        fault: None,
        out_dir: PathBuf::from(".perfbench"),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => cfg.workload = value("--workload")?,
            "--seed" => {
                cfg.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed needs an unsigned integer")?
            }
            "--seconds" => {
                cfg.seconds = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds needs a number")?
            }
            "--trace" => {
                cfg.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--toy" => cfg.toy = true,
            "--fault" => {
                cfg.fault = Some(match value("--fault")?.as_str() {
                    "amp" => Fault::Amp,
                    "mark" => Fault::Mark,
                    "shot" => Fault::Shot,
                    other => return Err(format!("unknown fault `{other}`")),
                })
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if cfg.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if !(cfg.seconds.is_finite() && cfg.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(cfg)
}

/// The result line: end-to-end metrics untraced, per-layer metrics traced.
fn result_json(outcome: &Outcome, trace: bool) -> String {
    let (wanted, got) = if trace {
        (PER_LAYER, &outcome.metrics.per_layer)
    } else {
        (END_TO_END, &outcome.metrics.end_to_end)
    };
    let metrics: Vec<String> = wanted
        .iter()
        .map(|(name, unit)| {
            let value = got.iter().find(|(n, _, _)| n == name).map_or(0.0, |m| m.1);
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(value),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => std::process::exit(ddsim_server::run_cli(&args[1..])),
        Some("pools") => {
            for (name, pool) in workloads::derive_pools() {
                println!("{name}: {pool:?}");
            }
            return;
        }
        _ => {}
    }
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = if cfg.workload == "server_jobs" {
        server::run(&cfg)
    } else if let Some(rows) = workloads::rows(&cfg.workload, cfg.seed, cfg.toy) {
        sim::run(rows, &cfg)
    } else {
        eprintln!("error: unknown workload `{}`\n{USAGE}", cfg.workload);
        std::process::exit(2);
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let fail_share = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    let shown = if cfg.trace {
        &outcome.metrics.per_layer
    } else {
        &outcome.metrics.end_to_end
    };
    for (name, value, unit) in shown {
        eprintln!("{name:<28} {value:>16.6} {unit}");
    }
    eprintln!(
        "{:<28} {fail_share:>16.6} ratio ({} of {} failed)",
        "fail_share", outcome.failed, outcome.attempted
    );
    println!("{}", result_json(&outcome, cfg.trace));
}
