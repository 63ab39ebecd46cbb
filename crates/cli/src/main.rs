//! `ddsim` — command-line DD-based quantum-circuit simulator.
//!
//! ```text
//! ddsim bell.qasm --counts --shots 2048
//! ddsim --generate grover:13:5 --strategy ddrepeating:8 --stats
//! ddsim --generate shor:55:17 --strategy kops:16 --stats
//! ```

mod args;
mod generate;
mod noisy;
mod trotter;

use std::path::Path;
use std::process::ExitCode;

use ddsim_circuit::{qasm, Circuit};
use ddsim_core::{CheckpointConfig, SimError, SimOptions, Simulator};

use crate::args::{Args, CircuitSource, OutputMode};

/// Maps a simulation error onto the documented exit codes (see
/// `args::USAGE`): 2 budget, 3 deadline, 4 cancelled, 5 width mismatch,
/// 6 checkpoint, 7 suspended (resumable), 1 everything else.
fn exit_code_for(e: &SimError) -> u8 {
    match e {
        SimError::BudgetExceeded { .. } => 2,
        SimError::DeadlineExceeded => 3,
        SimError::Cancelled => 4,
        SimError::WidthMismatch { .. } => 5,
        SimError::Snapshot(_) => 6,
        SimError::Suspended => 7,
        SimError::Internal(_) => 1,
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // `ddsim serve ...` delegates wholesale to the server crate; every
    // other invocation goes through the regular argument parser.
    if argv.first().map(String::as_str) == Some("serve") {
        return ExitCode::from(ddsim_server::run_cli(&argv[1..]) as u8);
    }
    if argv.first().map(String::as_str) == Some("trotter") {
        return trotter::run_cli(&argv[1..]);
    }
    if argv.first().map(String::as_str) == Some("noisy") {
        return noisy::run_cli(&argv[1..]);
    }
    let parsed = match args::parse(&argv) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    match run(&parsed) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            let code = e.downcast_ref::<SimError>().map(exit_code_for).unwrap_or(1);
            ExitCode::from(code)
        }
    }
}

fn load_circuit(source: &CircuitSource) -> Result<Circuit, Box<dyn std::error::Error>> {
    match source {
        CircuitSource::QasmFile(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            Ok(qasm::parse(&text)?)
        }
        CircuitSource::Generator(spec) => Ok(generate::generate(spec)?),
    }
}

fn run(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let circuit = load_circuit(&args.source)?;
    let name = if circuit.name().is_empty() {
        "circuit".to_string()
    } else {
        circuit.name().to_string()
    };
    eprintln!(
        "{name}: {} qubits, {} classical bits, {} elementary gates",
        circuit.qubits(),
        circuit.cbits(),
        circuit.elementary_count()
    );

    let options = SimOptions {
        strategy: args.strategy,
        reorder: args.reorder,
        seed: args.seed,
        collect_trace: args.trace,
        dd_config: args.dd_config,
        deadline: args.deadline,
        ..SimOptions::default()
    };
    let checkpoint_cfg = (args.checkpoint_every > 0).then(|| CheckpointConfig {
        every_ops: args.checkpoint_every,
        path: args.checkpoint_file.clone().into(),
    });
    let (mut sim, stats) = if let Some(snapshot) = &args.resume {
        let (mut sim, next_op) = Simulator::resume_from(Path::new(snapshot), &circuit, options)?;
        eprintln!(
            "resumed from {snapshot} at op {next_op}/{}",
            circuit.flattened().ops().len()
        );
        let stats = sim.run_from(&circuit, next_op, checkpoint_cfg.as_ref())?;
        (sim, stats)
    } else if let Some(cfg) = &checkpoint_cfg {
        let mut sim = Simulator::with_options(circuit.qubits(), options);
        let stats = sim.run_from(&circuit, 0, Some(cfg))?;
        (sim, stats)
    } else {
        let mut sim = Simulator::with_options(circuit.qubits(), options);
        let stats = sim.run(&circuit)?;
        (sim, stats)
    };

    eprintln!(
        "strategy {}: {:?}, {} MxV, {} MxM, final DD {} nodes",
        args.strategy,
        stats.wall_time,
        stats.mat_vec_mults,
        stats.mat_mat_mults,
        stats.final_state_nodes
    );

    if args.trace {
        println!("step_gate combined matrix_nodes state_nodes");
        for t in &stats.trace {
            println!(
                "{:<9} {:<8} {:<12} {}",
                t.gate_index, t.combined_gates, t.matrix_nodes, t.state_nodes
            );
        }
    }

    if circuit.cbits() > 0 {
        let bits: String = sim
            .classical_bits()
            .iter()
            .rev()
            .map(|&b| if b { '1' } else { '0' })
            .collect();
        println!(
            "classical register: {bits} (decimal {})",
            sim.classical_value()
        );
    }

    match args.output {
        OutputMode::Counts => {
            let mut counts: Vec<(u64, u32)> = sim.sample_counts(args.shots).into_iter().collect();
            counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            println!("outcome  count  (of {} shots)", args.shots);
            for (outcome, count) in counts.iter().take(32) {
                println!(
                    "{outcome:0width$b}  {count}",
                    width = circuit.qubits() as usize
                );
            }
            if counts.len() > 32 {
                println!("… {} more distinct outcomes", counts.len() - 32);
            }
        }
        OutputMode::Amplitudes => {
            let n = circuit.qubits();
            if n > 16 {
                return Err("--amplitudes is limited to 16 qubits (65536 rows)".into());
            }
            println!("basis  amplitude  probability");
            for idx in 0..(1u64 << n) {
                let a = sim.amplitude(idx);
                if a.norm_sqr() > 1e-12 {
                    println!(
                        "{idx:0width$b}  {a}  {:.6}",
                        a.norm_sqr(),
                        width = n as usize
                    );
                }
            }
        }
        OutputMode::Stats => {
            println!("wall_time_s        {:.6}", stats.wall_time.as_secs_f64());
            println!("elementary_gates   {}", stats.elementary_gates);
            println!("mat_vec_mults      {}", stats.mat_vec_mults);
            println!("mat_mat_mults      {}", stats.mat_mat_mults);
            println!("identity_skips     {}", stats.identity_skips);
            println!("specialized_applies {}", stats.specialized_applies);
            println!("mult_recursions    {}", stats.mult_recursions);
            println!("add_recursions     {}", stats.add_recursions);
            println!("peak_state_nodes   {}", stats.peak_state_nodes);
            println!("peak_matrix_nodes  {}", stats.peak_matrix_nodes);
            println!("final_state_nodes  {}", stats.final_state_nodes);
            println!("gc_runs            {}", stats.gc_runs);
            println!("ladder_gc_rescues  {}", stats.ladder_gc_rescues);
            println!("ladder_cache_flushes {}", stats.ladder_cache_flushes);
            println!("ladder_downgrades  {}", stats.ladder_strategy_downgrades);
            println!("reorders           {}", stats.reorders);
            println!("ladder_reorders    {}", stats.ladder_reorders);
            println!("degraded           {}", stats.degraded);
            println!("checkpoints_written {}", stats.checkpoints_written);
            for (name, t) in stats.cache.named_compute() {
                if t.lookups == 0 {
                    continue;
                }
                println!(
                    "cache_{name:<14} lookups {} hits {} ({:.1}%) evictions {} stale {}",
                    t.lookups,
                    t.hits,
                    100.0 * t.hit_rate(),
                    t.evictions,
                    t.stale
                );
            }
            for (name, u) in stats.cache.named_unique() {
                if u.lookups == 0 {
                    continue;
                }
                println!(
                    "{name:<20} lookups {} hits {} ({:.1}%) probes {} grows {} rebuilds {}",
                    u.lookups,
                    u.hits,
                    100.0 * u.hit_rate(),
                    u.probes,
                    u.grows,
                    u.rebuilds
                );
            }
            let c = &stats.cache.complex;
            if c.lookups > 0 {
                let (buckets, longest) = sim.dd().complex_table_occupancy();
                println!(
                    "complex_table        lookups {} unified {} ({:.1}%) inserts {} mean_probe {:.2} buckets {} longest {}",
                    c.lookups,
                    c.unified,
                    100.0 * c.unify_rate(),
                    c.inserts,
                    c.mean_probe_len(),
                    buckets,
                    longest
                );
            }
        }
    }

    if let Some(path) = &args.dot_out {
        let dot = sim.dd().vec_to_dot(sim.state());
        std::fs::write(path, dot).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("final state DD written to {path}");
    }
    Ok(())
}
