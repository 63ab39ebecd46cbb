//! End-to-end tests of the `ddsim` binary via `CARGO_BIN_EXE`.

use std::process::Command;

fn ddsim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ddsim"))
}

#[test]
fn generates_and_reports_stats() {
    let output = ddsim()
        .args(["--generate", "ghz:5", "--stats"])
        .output()
        .expect("binary runs");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("mat_vec_mults      5"), "stdout: {stdout}");
    assert!(stdout.contains("final_state_nodes"), "stdout: {stdout}");
}

#[test]
fn counts_mode_shows_ghz_outcomes() {
    let output = ddsim()
        .args([
            "--generate",
            "ghz:4",
            "--counts",
            "--shots",
            "64",
            "--seed",
            "3",
        ])
        .output()
        .expect("binary runs");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    // Only the two cat outcomes appear.
    let outcome_lines: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with('0') || l.starts_with('1'))
        .collect();
    assert!(!outcome_lines.is_empty());
    for line in outcome_lines {
        let outcome = line.split_whitespace().next().expect("outcome column");
        assert!(
            outcome == "0000" || outcome == "1111",
            "unexpected GHZ outcome line: {line}"
        );
    }
}

#[test]
fn amplitudes_mode_prints_nonzero_rows() {
    let output = ddsim()
        .args(["--generate", "bv:4:9", "--amplitudes"])
        .output()
        .expect("binary runs");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("basis  amplitude"), "stdout: {stdout}");
}

#[test]
fn qasm_file_roundtrip() {
    let dir = std::env::temp_dir().join("ddsim_cli_test");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("bell.qasm");
    std::fs::write(&path, "OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n")
        .expect("write qasm");
    let output = ddsim()
        .args([path.to_str().expect("utf-8 path"), "--stats"])
        .output()
        .expect("binary runs");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("mat_vec_mults      2"), "stdout: {stdout}");
}

#[test]
fn dot_export_writes_a_digraph() {
    let dir = std::env::temp_dir().join("ddsim_cli_test");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let dot_path = dir.join("state.dot");
    let output = ddsim()
        .args([
            "--generate",
            "ghz:3",
            "--stats",
            "--dot",
            dot_path.to_str().expect("utf-8 path"),
        ])
        .output()
        .expect("binary runs");
    assert!(output.status.success());
    let dot = std::fs::read_to_string(&dot_path).expect("dot written");
    assert!(dot.starts_with("digraph vectordd"));
}

#[test]
fn strategy_flag_changes_multiplication_profile() {
    let run = |strategy: &str| -> String {
        let output = ddsim()
            .args(["--generate", "qft:6", "--stats", "--strategy", strategy])
            .output()
            .expect("binary runs");
        assert!(output.status.success(), "{strategy}");
        String::from_utf8_lossy(&output.stdout).to_string()
    };
    let seq = run("sequential");
    let combined = run("kops:8");
    assert!(seq.contains("mat_mat_mults      0"));
    assert!(!combined.contains("mat_mat_mults      0"));
}

#[test]
fn bad_arguments_fail_with_message() {
    let output = ddsim()
        .args(["--generate", "nonsense:1"])
        .output()
        .expect("binary runs");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("bad generator spec"), "stderr: {stderr}");
}

#[test]
fn missing_file_fails_cleanly() {
    let output = ddsim()
        .arg("/nonexistent/circuit.qasm")
        .output()
        .expect("binary runs");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("cannot read"), "stderr: {stderr}");
}

#[test]
fn trace_flag_prints_step_table() {
    let output = ddsim()
        .args(["--generate", "ghz:3", "--stats", "--trace"])
        .output()
        .expect("binary runs");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("step_gate combined matrix_nodes state_nodes"));
}

#[test]
fn noisy_counts_are_the_same_at_every_thread_count() {
    let run = |threads: &str| {
        let output = ddsim()
            .args([
                "noisy",
                "--generate",
                "supremacy:2:3:8:43",
                "-p",
                "0.05",
                "--trajectories",
                "300",
                "--seed",
                "3",
                "--threads",
                threads,
            ])
            .output()
            .expect("binary runs");
        assert!(output.status.success(), "threads={threads}");
        String::from_utf8(output.stdout).expect("utf-8 stdout")
    };
    let single = run("1");
    assert!(single.contains("of 300 trajectories"), "stdout: {single}");
    assert_eq!(single, run("2"));
}
