//! Hand-rolled argument parsing for the `ddsim` binary (no external
//! dependencies beyond the approved set).

use std::fmt;
use std::time::Duration;

use ddsim_core::{DdConfig, ReorderMode, Strategy};

/// Where the circuit comes from.
#[derive(Clone, Debug, PartialEq)]
pub enum CircuitSource {
    /// An OpenQASM 2.0 file.
    QasmFile(String),
    /// A built-in benchmark generator spec like `grover:13:5`,
    /// `shor:55:17`, `supremacy:4:4:12:42`, `ghz:8`, `qft:6`,
    /// `bv:8:37`, `qaoa-ring:6:0.6:0.3`.
    Generator(String),
}

/// What the run should print.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OutputMode {
    /// Sampled measurement counts (`--shots`).
    Counts,
    /// The nonzero amplitudes (small registers only).
    Amplitudes,
    /// Statistics only.
    Stats,
}

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// Circuit source.
    pub source: CircuitSource,
    /// Combining strategy.
    pub strategy: Strategy,
    /// Dynamic variable reordering policy.
    pub reorder: ReorderMode,
    /// Measurement seed.
    pub seed: u64,
    /// Shots for `--counts`.
    pub shots: u32,
    /// Output mode.
    pub output: OutputMode,
    /// Export the final state DD as Graphviz DOT to this path.
    pub dot_out: Option<String>,
    /// Record and print the per-step trace.
    pub trace: bool,
    /// DD-manager tuning (table sizes, cache switch, GC threshold,
    /// resource budgets).
    pub dd_config: DdConfig,
    /// Wall-clock budget for the run (`--deadline`, seconds).
    pub deadline: Option<Duration>,
    /// Write a checkpoint every this many executed ops (0 = never).
    pub checkpoint_every: u64,
    /// Checkpoint destination (`--checkpoint-file`).
    pub checkpoint_file: String,
    /// Resume from this snapshot instead of starting fresh.
    pub resume: Option<String>,
}

/// A parse failure with a user-facing message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseArgsError(pub String);

impl fmt::Display for ParseArgsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseArgsError {}

/// Usage text shown on `--help` or errors.
pub const USAGE: &str = "\
ddsim — DD-based quantum-circuit simulator (DATE'19 reproduction)

USAGE:
    ddsim <circuit.qasm | --generate SPEC> [OPTIONS]
    ddsim serve [SERVER OPTIONS]      run as a multi-tenant TCP daemon
                                      (see `ddsim serve --help`)
    ddsim trotter [OPTIONS]           Trotterized Hamiltonian evolution swept
                                      across combining strategies
                                      (see `ddsim trotter --help`)
    ddsim noisy <circuit> [OPTIONS]   depolarizing noise: trajectory ensemble
                                      or exact density matrix
                                      (see `ddsim noisy --help`)

CIRCUIT SOURCES:
    circuit.qasm             OpenQASM 2.0 subset file
    --generate grover:Q:M    Grover with Q total qubits, marked element M
    --generate shor:N:A      Beauregard Shor circuit for N with base A
    --generate supremacy:R:C:D:S   RxC grid, depth D, seed S
    --generate ghz:N | qft:N | bv:N:SECRET | qaoa-ring:N:GAMMA:BETA

OPTIONS:
    --strategy sequential | kops:K | maxsize:S | ddrepeating:K | adaptive
                             combining strategy [default: sequential]
    --reorder none | sifting dynamic variable reordering: sifting shrinks
                             the state DD when it outgrows its post-sift
                             baseline (amplitudes are unchanged)
                             [default: none]
    --seed N                 measurement seed [default: 0]
    --shots N                samples for --counts [default: 1024]
    --counts | --amplitudes | --stats
                             output mode [default: counts]
    --dot FILE               write the final state DD as Graphviz DOT
    --trace                  print the per-step DD-size trace
    --ct-bits N              log2 of each compute-table capacity [default: 16]
    --ut-bits N              log2 of the initial unique-table capacity
                             [default: 14]
    --no-cache               disable compute-table memoization (identical
                             results, for ablation)
    --no-identity-skip       disable identity short-circuits and the
                             specialized gate-apply kernels (for ablation)
    --gc-threshold N         live-node count that triggers garbage
                             collection [default: 250000]
    --help                   show this text

RESOURCE LIMITS:
    --max-nodes N            abort (after degradation) when the DD exceeds
                             N live nodes
    --max-table-bytes N      abort (after degradation) when table memory
                             exceeds N bytes
    --deadline SECS          wall-clock budget for the run (fractional
                             seconds allowed)
    --checkpoint-every OPS   write a resumable snapshot every OPS executed
                             operations (implies flattened execution)
    --checkpoint-file FILE   snapshot path [default: ddsim.snapshot]
    --resume FILE            continue a run from a snapshot written by
                             --checkpoint-every

EXIT CODES:
    0  success
    1  usage, I/O, or parse error
    2  resource budget exceeded (--max-nodes / --max-table-bytes)
    3  wall-clock deadline exceeded (--deadline)
    4  cancelled
    5  circuit/simulator width mismatch
    6  checkpoint error (unreadable, corrupt, or wrong circuit)
    7  suspended at an op boundary (resumable; server eviction)
";

/// Parses argv (excluding the program name).
///
/// # Errors
///
/// Returns a message describing the first problem encountered.
pub fn parse(argv: &[String]) -> Result<Args, ParseArgsError> {
    let mut source: Option<CircuitSource> = None;
    let mut strategy = Strategy::Sequential;
    let mut reorder = ReorderMode::None;
    let mut seed = 0u64;
    let mut shots = 1024u32;
    let mut output = OutputMode::Counts;
    let mut dot_out = None;
    let mut trace = false;
    let mut dd_config = DdConfig::default();
    let mut deadline = None;
    let mut checkpoint_every = 0u64;
    let mut checkpoint_file = "ddsim.snapshot".to_string();
    let mut resume = None;

    let mut i = 0usize;
    while i < argv.len() {
        let arg = argv[i].as_str();
        match arg {
            "--help" | "-h" => return Err(ParseArgsError(USAGE.to_string())),
            "--generate" => {
                let spec = argv
                    .get(i + 1)
                    .ok_or_else(|| ParseArgsError("--generate needs a spec".into()))?;
                source = Some(CircuitSource::Generator(spec.clone()));
                i += 1;
            }
            "--strategy" => {
                let spec = argv
                    .get(i + 1)
                    .ok_or_else(|| ParseArgsError("--strategy needs a value".into()))?;
                strategy = parse_strategy(spec)?;
                i += 1;
            }
            "--reorder" => {
                let spec = argv
                    .get(i + 1)
                    .ok_or_else(|| ParseArgsError("--reorder needs a value".into()))?;
                reorder = ReorderMode::parse(spec).ok_or_else(|| {
                    ParseArgsError(format!("unknown reorder mode `{spec}` (see --help)"))
                })?;
                i += 1;
            }
            "--seed" => {
                seed = parse_value(argv.get(i + 1), "--seed")?;
                i += 1;
            }
            "--shots" => {
                shots = parse_value(argv.get(i + 1), "--shots")?;
                i += 1;
            }
            "--counts" => output = OutputMode::Counts,
            "--amplitudes" => output = OutputMode::Amplitudes,
            "--stats" => output = OutputMode::Stats,
            "--dot" => {
                let path = argv
                    .get(i + 1)
                    .ok_or_else(|| ParseArgsError("--dot needs a path".into()))?;
                dot_out = Some(path.clone());
                i += 1;
            }
            "--trace" => trace = true,
            "--ct-bits" => {
                let bits: u32 = parse_value(argv.get(i + 1), "--ct-bits")?;
                if !(1..=28).contains(&bits) {
                    return Err(ParseArgsError("--ct-bits must be in 1..=28".into()));
                }
                dd_config.compute_table_bits = bits;
                i += 1;
            }
            "--ut-bits" => {
                let bits: u32 = parse_value(argv.get(i + 1), "--ut-bits")?;
                if !(1..=28).contains(&bits) {
                    return Err(ParseArgsError("--ut-bits must be in 1..=28".into()));
                }
                dd_config.unique_table_bits = bits;
                i += 1;
            }
            "--no-cache" => dd_config.cache_enabled = false,
            "--no-identity-skip" => dd_config.identity_skip = false,
            "--gc-threshold" => {
                dd_config.gc_threshold = parse_value(argv.get(i + 1), "--gc-threshold")?;
                i += 1;
            }
            "--max-nodes" => {
                let nodes: usize = parse_value(argv.get(i + 1), "--max-nodes")?;
                if nodes == 0 {
                    return Err(ParseArgsError("--max-nodes must be positive".into()));
                }
                dd_config.max_live_nodes = Some(nodes);
                i += 1;
            }
            "--max-table-bytes" => {
                let bytes: usize = parse_value(argv.get(i + 1), "--max-table-bytes")?;
                if bytes == 0 {
                    return Err(ParseArgsError("--max-table-bytes must be positive".into()));
                }
                dd_config.max_table_bytes = Some(bytes);
                i += 1;
            }
            "--deadline" => {
                let secs: f64 = parse_value(argv.get(i + 1), "--deadline")?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err(ParseArgsError(
                        "--deadline needs a positive number of seconds".into(),
                    ));
                }
                deadline = Some(Duration::from_secs_f64(secs));
                i += 1;
            }
            "--checkpoint-every" => {
                checkpoint_every = parse_value(argv.get(i + 1), "--checkpoint-every")?;
                if checkpoint_every == 0 {
                    return Err(ParseArgsError("--checkpoint-every must be positive".into()));
                }
                i += 1;
            }
            "--checkpoint-file" => {
                let path = argv
                    .get(i + 1)
                    .ok_or_else(|| ParseArgsError("--checkpoint-file needs a path".into()))?;
                checkpoint_file = path.clone();
                i += 1;
            }
            "--resume" => {
                let path = argv
                    .get(i + 1)
                    .ok_or_else(|| ParseArgsError("--resume needs a path".into()))?;
                resume = Some(path.clone());
                i += 1;
            }
            other if !other.starts_with('-') => {
                if source.is_some() {
                    return Err(ParseArgsError(format!(
                        "unexpected extra positional argument `{other}`"
                    )));
                }
                source = Some(CircuitSource::QasmFile(other.to_string()));
            }
            other => {
                return Err(ParseArgsError(format!("unknown option `{other}`")));
            }
        }
        i += 1;
    }

    let source = source.ok_or_else(|| ParseArgsError(format!("no circuit given\n\n{USAGE}")))?;
    Ok(Args {
        source,
        strategy,
        reorder,
        seed,
        shots,
        output,
        dot_out,
        trace,
        dd_config,
        deadline,
        checkpoint_every,
        checkpoint_file,
        resume,
    })
}

fn parse_value<T: std::str::FromStr>(
    raw: Option<&String>,
    flag: &str,
) -> Result<T, ParseArgsError> {
    raw.ok_or_else(|| ParseArgsError(format!("{flag} needs a value")))?
        .parse()
        .map_err(|_| ParseArgsError(format!("bad value for {flag}")))
}

fn parse_strategy(spec: &str) -> Result<Strategy, ParseArgsError> {
    // The grammar lives on `Strategy` itself (`FromStr`), shared with the
    // server's SUBMIT option parser.
    spec.parse()
        .map_err(|e: ddsim_core::ParseStrategyError| ParseArgsError(format!("{e} (see --help)")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_qasm_file_with_defaults() {
        let a = parse(&argv(&["bell.qasm"])).expect("valid");
        assert_eq!(a.source, CircuitSource::QasmFile("bell.qasm".into()));
        assert_eq!(a.strategy, Strategy::Sequential);
        assert_eq!(a.output, OutputMode::Counts);
        assert_eq!(a.shots, 1024);
    }

    #[test]
    fn parses_generator_and_strategy() {
        let a = parse(&argv(&[
            "--generate",
            "grover:13:5",
            "--strategy",
            "ddrepeating:8",
            "--stats",
        ]))
        .expect("valid");
        assert_eq!(a.source, CircuitSource::Generator("grover:13:5".into()));
        assert_eq!(a.strategy, Strategy::DdRepeating { k: 8 });
        assert_eq!(a.output, OutputMode::Stats);
    }

    #[test]
    fn parses_all_strategies() {
        for (spec, want) in [
            ("sequential", Strategy::Sequential),
            ("kops:16", Strategy::KOperations { k: 16 }),
            ("maxsize:512", Strategy::MaxSize { s_max: 512 }),
            ("adaptive", Strategy::adaptive()),
        ] {
            let a = parse(&argv(&["x.qasm", "--strategy", spec])).expect("valid");
            assert_eq!(a.strategy, want, "{spec}");
        }
    }

    #[test]
    fn reorder_flag() {
        let a = parse(&argv(&["x.qasm"])).expect("valid");
        assert_eq!(a.reorder, ReorderMode::None, "reordering off by default");
        let b = parse(&argv(&["x.qasm", "--reorder", "sifting"])).expect("valid");
        assert_eq!(b.reorder, ReorderMode::Sifting);
        let c = parse(&argv(&["x.qasm", "--reorder", "none"])).expect("valid");
        assert_eq!(c.reorder, ReorderMode::None);
        let e = parse(&argv(&["x.qasm", "--reorder", "bubble"])).expect_err("invalid");
        assert!(e.0.contains("unknown reorder mode"));
        assert!(parse(&argv(&["x.qasm", "--reorder"])).is_err());
    }

    #[test]
    fn rejects_unknown_flag() {
        let e = parse(&argv(&["x.qasm", "--frobnicate"])).expect_err("invalid");
        assert!(e.0.contains("unknown option"));
    }

    #[test]
    fn rejects_missing_source() {
        let e = parse(&argv(&["--stats"])).expect_err("invalid");
        assert!(e.0.contains("no circuit given"));
    }

    #[test]
    fn seed_and_shots() {
        let a = parse(&argv(&["x.qasm", "--seed", "7", "--shots", "99"])).expect("valid");
        assert_eq!(a.seed, 7);
        assert_eq!(a.shots, 99);
    }

    #[test]
    fn dd_config_defaults() {
        let a = parse(&argv(&["x.qasm"])).expect("valid");
        let d = DdConfig::default();
        assert_eq!(a.dd_config.compute_table_bits, d.compute_table_bits);
        assert_eq!(a.dd_config.unique_table_bits, d.unique_table_bits);
        assert!(a.dd_config.cache_enabled);
        assert!(a.dd_config.identity_skip);
        assert_eq!(a.dd_config.gc_threshold, d.gc_threshold);
    }

    #[test]
    fn dd_config_flags() {
        let a = parse(&argv(&[
            "x.qasm",
            "--ct-bits",
            "12",
            "--ut-bits",
            "10",
            "--no-cache",
            "--no-identity-skip",
            "--gc-threshold",
            "5000",
        ]))
        .expect("valid");
        assert_eq!(a.dd_config.compute_table_bits, 12);
        assert_eq!(a.dd_config.unique_table_bits, 10);
        assert!(!a.dd_config.cache_enabled);
        assert!(!a.dd_config.identity_skip);
        assert_eq!(a.dd_config.gc_threshold, 5000);
    }

    #[test]
    fn budget_flags() {
        let a = parse(&argv(&[
            "x.qasm",
            "--max-nodes",
            "5000",
            "--max-table-bytes",
            "1048576",
            "--deadline",
            "2.5",
        ]))
        .expect("valid");
        assert_eq!(a.dd_config.max_live_nodes, Some(5000));
        assert_eq!(a.dd_config.max_table_bytes, Some(1048576));
        assert_eq!(a.deadline, Some(Duration::from_secs_f64(2.5)));
    }

    #[test]
    fn budget_flags_default_off() {
        let a = parse(&argv(&["x.qasm"])).expect("valid");
        assert_eq!(a.dd_config.max_live_nodes, None);
        assert_eq!(a.dd_config.max_table_bytes, None);
        assert_eq!(a.deadline, None);
        assert_eq!(a.checkpoint_every, 0);
        assert_eq!(a.resume, None);
    }

    #[test]
    fn rejects_degenerate_budgets() {
        assert!(parse(&argv(&["x.qasm", "--max-nodes", "0"])).is_err());
        assert!(parse(&argv(&["x.qasm", "--deadline", "0"])).is_err());
        assert!(parse(&argv(&["x.qasm", "--deadline", "-1"])).is_err());
        assert!(parse(&argv(&["x.qasm", "--checkpoint-every", "0"])).is_err());
    }

    #[test]
    fn checkpoint_and_resume_flags() {
        let a = parse(&argv(&[
            "x.qasm",
            "--checkpoint-every",
            "100",
            "--checkpoint-file",
            "/tmp/run.snapshot",
        ]))
        .expect("valid");
        assert_eq!(a.checkpoint_every, 100);
        assert_eq!(a.checkpoint_file, "/tmp/run.snapshot");
        let b = parse(&argv(&["x.qasm", "--resume", "old.snapshot"])).expect("valid");
        assert_eq!(b.resume, Some("old.snapshot".to_string()));
        assert_eq!(b.checkpoint_file, "ddsim.snapshot");
    }

    #[test]
    fn rejects_out_of_range_table_bits() {
        let e = parse(&argv(&["x.qasm", "--ct-bits", "40"])).expect_err("invalid");
        assert!(e.0.contains("--ct-bits"));
        let e = parse(&argv(&["x.qasm", "--ut-bits", "0"])).expect_err("invalid");
        assert!(e.0.contains("--ut-bits"));
    }
}
