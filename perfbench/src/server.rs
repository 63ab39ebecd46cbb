//! The `server_jobs` workload: one `ddsim-server` process (this binary's
//! `serve` mode) with two workers and a fresh journal directory on disk,
//! loaded by two client connections in a closed loop. Each connection
//! submits the next job of the seeded stream, polls `RESULT` until the
//! job ends, checks it, and submits again.

use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ddsim_circuit::qasm;
use ddsim_fuzz::load::{workload, LoadConfig};
use ddsim_server::protocol::{read_frame, write_frame};

use crate::probe::{HostProbe, REFERENCE_S};
use crate::stats::{median, peak_rss_mb, percentile};
use crate::trace::Tracer;
use crate::workloads::mix;
use crate::{Config, Fault, Metrics, Outcome};

/// Set-up repetitions (each on a fresh data directory); `setup_s` is
/// their median and the last server serves the timed loop.
const SETUP_REPS: usize = 15;
/// Jobs in the seeded stream; the loop wraps around if it runs out.
const STREAM_JOBS: usize = 1024;
/// Every `CKPT_EVERY_NTH`-th job asks for engine checkpoints.
const CKPT_EVERY_NTH: usize = 4;
/// `ckpt_every` value of those jobs (ops between snapshots).
const CKPT_OPS: u32 = 8;
const SHOTS: u32 = 64;
/// Client connections; at most the host's two hardware threads.
const CONNECTIONS: usize = 2;
/// A job not finished after this long counts as failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(30);

/// One job of the seeded stream.
struct Job {
    tenant: String,
    options: String,
    qasm: String,
    qubits: u32,
    ckpt: bool,
}

/// One finished (or failed) job.
struct Sample {
    latency: f64,
    submit: f64,
    ckpt: bool,
    traced: bool,
    ok: bool,
    done_at: Instant,
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            reader,
            writer: stream,
        })
    }

    fn request(&mut self, payload: &str) -> Result<String, String> {
        write_frame(&mut self.writer, payload).map_err(|e| format!("send: {e}"))?;
        read_frame(&mut self.reader)
            .map_err(|e| format!("recv: {e}"))?
            .ok_or_else(|| "server closed the connection".to_string())
    }
}

/// The server child; killed and reaped on drop unless shut down cleanly.
struct Daemon {
    child: Child,
    addr: String,
    dir: PathBuf,
}

impl Daemon {
    fn spawn(dir: PathBuf) -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "2",
                "--data-dir",
            ])
            .arg(&dir)
            // One glibc malloc arena: with one per worker thread, whether
            // a second arena ends up holding a job's freed tables is
            // chance, and the server's VmHWM splits between ~43 and
            // ~57 MB from run to run.
            .env("MALLOC_ARENA_MAX", "1")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let mut line = String::new();
        let stdout = child.stdout.take().expect("piped stdout");
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .map(str::to_string);
        let mut daemon = Daemon {
            child,
            addr: addr.clone().unwrap_or_default(),
            dir,
        };
        match (read, addr) {
            (Ok(_), Some(_)) => {}
            _ => {
                daemon.kill();
                return Err(format!(
                    "server did not report its address: `{}`",
                    line.trim()
                ));
            }
        }
        Ok(daemon)
    }

    /// Polls `HEALTH` until the server answers.
    fn wait_healthy(&self) -> Result<Conn, String> {
        let until = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(mut conn) = Conn::open(&self.addr) {
                if conn.request("HEALTH").is_ok_and(|r| r.starts_with("OK")) {
                    return Ok(conn);
                }
            }
            if Instant::now() > until {
                return Err("server never answered HEALTH".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn shutdown(mut self) {
        if let Ok(mut conn) = Conn::open(&self.addr) {
            let _ = conn.request("SHUTDOWN");
        }
        let until = Instant::now() + Duration::from_secs(20);
        while Instant::now() < until {
            if let Ok(Some(_)) = self.child.try_wait() {
                let _ = std::fs::remove_dir_all(&self.dir);
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        self.kill();
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            self.kill();
        }
    }
}

fn stats_counter(stats: &str, key: &str) -> f64 {
    stats
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix('='))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0.0)
}

/// Builds the seeded job stream and parses every job's QASM (the client
/// side of set-up); returns the stream with build and parse seconds.
fn job_stream(seed: u64, jobs: usize) -> Result<(Vec<Job>, f64, f64), String> {
    let t = Instant::now();
    let raw = workload(&LoadConfig {
        addr: String::new(),
        jobs,
        tenants: 2,
        seed: mix(seed, "server_jobs"),
        shots: SHOTS,
    });
    let build_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut stream = Vec::with_capacity(raw.len());
    for (i, (tenant, options, text)) in raw.into_iter().enumerate() {
        let qubits = qasm::parse(&text)
            .map_err(|e| format!("job {i} QASM does not parse: {e}"))?
            .qubits();
        let ckpt = i % CKPT_EVERY_NTH == CKPT_EVERY_NTH - 1;
        let options = if ckpt {
            format!("{options} ckpt_every={CKPT_OPS}")
        } else {
            options
        };
        stream.push(Job {
            tenant,
            options,
            qasm: text,
            qubits,
            ckpt,
        });
    }
    Ok((stream, build_s, t.elapsed().as_secs_f64()))
}

/// Checks a finished job's `RESULT`: `DONE`, its width, and counts that
/// sum to the shots.
fn check_result(reply: &str, job: &Job, fault: Option<Fault>) -> Result<(), String> {
    let body = reply
        .strip_prefix("DONE\n")
        .ok_or_else(|| format!("job ended `{}`", reply.lines().next().unwrap_or("")))?;
    let mut lines = body.lines();
    let header = lines.next().unwrap_or("");
    if !header.contains(&format!("qubits={} ", job.qubits))
        || !header.contains(&format!("shots={SHOTS} "))
    {
        return Err(format!("unexpected header `{header}`"));
    }
    let mut total: u64 = lines
        .map(|l| {
            l.split_whitespace()
                .nth(1)
                .and_then(|c| c.parse::<u64>().ok())
                .unwrap_or(0)
        })
        .sum();
    if fault == Some(Fault::Shot) {
        total -= 1;
    }
    if total != u64::from(SHOTS) {
        return Err(format!("counts sum to {total}, not {SHOTS}"));
    }
    Ok(())
}

/// One closed-loop client connection.
fn client(
    addr: &str,
    stream: &[Job],
    next: &AtomicUsize,
    deadline: Instant,
    cfg: &Config,
    tracer: &Mutex<Tracer>,
) -> Result<(Vec<Sample>, u64), String> {
    let mut conn = Conn::open(addr)?;
    let mut samples = Vec::new();
    let mut shed = 0u64;
    while Instant::now() < deadline {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let job = &stream[i % stream.len()];
        // A traced run traces every other block of jobs, so traced and
        // untraced jobs share the same load and the same plain/checkpointed
        // mix, and the difference is the tracing overhead.
        let traced = cfg.trace && (i / CKPT_EVERY_NTH) % 2 == 1;
        let class = if job.ckpt { "ckpt" } else { "plain" };
        let row = format!("job{i}.{class}");
        let span = |name, parent| {
            if traced {
                tracer
                    .lock()
                    .expect("tracer lock")
                    .begin(name, &row, parent)
            } else {
                0
            }
        };
        let end = |id| {
            if id != 0 {
                tracer.lock().expect("tracer lock").end(id, vec![]);
            }
        };
        let job_span = span("server.job", 0);
        let started = Instant::now();
        let submit_span = span("server.submit", job_span);
        let id = loop {
            let reply = conn.request(&format!(
                "SUBMIT {} {}\n{}",
                job.tenant, job.options, job.qasm
            ))?;
            if let Some(id) = reply.strip_prefix("OK ") {
                break id.trim().to_string();
            }
            if let Some(rest) = reply.strip_prefix("BUSY retry-after=") {
                shed += 1;
                let secs: u64 = rest
                    .split_whitespace()
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(1);
                std::thread::sleep(Duration::from_secs(secs).min(Duration::from_millis(100)));
                continue;
            }
            return Err(format!("submission rejected: {reply}"));
        };
        let submit = started.elapsed().as_secs_f64();
        end(submit_span);
        let poll_span = span("server.result_poll", job_span);
        let (reply, timed_out) = loop {
            let reply = conn.request(&format!("RESULT {id}"))?;
            if !reply.starts_with("PENDING") {
                break (reply, false);
            }
            if started.elapsed() > JOB_TIMEOUT {
                break (reply, true);
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        let latency = started.elapsed().as_secs_f64();
        let done_at = Instant::now();
        end(poll_span);
        end(job_span);
        let checked = if timed_out {
            Err(format!("job {id} timed out"))
        } else {
            check_result(&reply, job, cfg.fault)
        };
        if let Err(e) = &checked {
            eprintln!("job {i} (server id {id}): {e}");
        }
        samples.push(Sample {
            latency,
            submit,
            ckpt: job.ckpt,
            traced,
            ok: checked.is_ok(),
            done_at,
        });
    }
    Ok((samples, shed))
}

/// Median latency of the finished jobs in `samples` that pass `keep`
/// (0 when there are none).
fn median_latency(samples: &[&Sample], keep: impl Fn(&Sample) -> bool) -> f64 {
    let v: Vec<f64> = samples
        .iter()
        .filter(|s| s.ok && keep(s))
        .map(|s| s.latency)
        .collect();
    if v.is_empty() {
        0.0
    } else {
        median(&v)
    }
}

/// Runs the `server_jobs` workload.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let tracer = Mutex::new(Tracer::new(cfg.trace));
    let jobs = if cfg.toy { 16 } else { STREAM_JOBS };
    std::fs::create_dir_all(&cfg.out_dir).map_err(|e| format!("{}: {e}", cfg.out_dir.display()))?;
    let data_dir = |k: usize| -> PathBuf {
        let dir = cfg
            .out_dir
            .join(format!("server-{}-{k}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    };

    // Set-up: the job stream, then a server on a fresh directory up to
    // its first HEALTH answer. Each repetition is preceded by the host
    // probe: generating and parsing the stream is most of the set-up, and
    // `setup_s` is stated at the reference host speed as on the
    // simulation workloads. The loop's times, which go to fsync, are not.
    let probe = HostProbe::new();
    let mut setup_probes = Vec::new();
    let mut setups = Vec::new();
    let mut builds = Vec::new();
    let mut parses = Vec::new();
    let mut kept = None;
    for k in 0..SETUP_REPS {
        setup_probes.push(probe.run());
        let t = Instant::now();
        let span = tracer.lock().expect("tracer lock").begin("setup", "", 0);
        let (stream, build_s, parse_s) = job_stream(cfg.seed, jobs)?;
        let daemon = Daemon::spawn(data_dir(k))?;
        let conn = daemon.wait_healthy()?;
        setups.push(t.elapsed().as_secs_f64());
        tracer.lock().expect("tracer lock").end(span, vec![]);
        builds.push(build_s);
        parses.push(parse_s);
        if k + 1 == SETUP_REPS {
            kept = Some((stream, daemon, conn));
        } else {
            drop(conn);
            daemon.shutdown();
        }
    }
    let (stream, daemon, mut control) = kept.expect("set-up ran");

    let stats_before = control.request("STATS")?;
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(cfg.seconds);
    let results: Vec<Result<(Vec<Sample>, u64), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|_| scope.spawn(|| client(&daemon.addr, &stream, &next, deadline, cfg, &tracer)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let stats_after = control.request("STATS")?;
    let peak_rss = peak_rss_mb(Some(daemon.child.id()));
    drop(control);
    daemon.shutdown();

    let mut samples = Vec::new();
    let mut client_shed = 0u64;
    for r in results {
        let (s, shed) = r?;
        samples.extend(s);
        client_shed += shed;
    }
    let attempted = samples.len() as u64 + SETUP_REPS as u64;
    let failed = samples.iter().filter(|s| !s.ok).count() as u64;
    let last = samples.iter().map(|s| s.done_at).max().unwrap_or(started);
    let window = last.duration_since(started).as_secs_f64().max(1e-9);
    let done = samples.iter().filter(|s| s.ok).count() as f64;

    let untraced: Vec<&Sample> = samples.iter().filter(|s| !s.traced).collect();
    let latencies: Vec<f64> = untraced
        .iter()
        .filter(|s| s.ok)
        .map(|s| s.latency)
        .collect();
    let p50 = median_latency(&untraced, |_| true);
    let p90 = percentile(&latencies, 0.9, 10);
    if p90.is_none() {
        eprintln!("server_jobs: fewer than ten jobs above p90; p90 reported as 0");
    }
    let mut metrics = Metrics::default();
    // The row metrics belong to the simulation workloads; here they
    // repeat the median job latency.
    metrics.end("wall_s", p50, "s");
    metrics.end("row_s.geomean", p50, "s");
    metrics.end("jobs_per_s", done / window, "1/s");
    metrics.end("job_latency_s.p50", p50, "s");
    metrics.end("job_latency_s.p90", p90.unwrap_or(0.0), "s");
    let probe_s = median(&setup_probes);
    metrics.end("setup_s", median(&setups) * REFERENCE_S / probe_s, "s");
    metrics.end("peak_rss_mb", peak_rss, "MB");

    if cfg.trace {
        let traced: Vec<&Sample> = samples.iter().filter(|s| s.traced).collect();
        let submits: Vec<f64> = traced.iter().map(|s| s.submit).collect();
        metrics.layer(
            "trace.overhead_s",
            median_latency(&traced, |_| true) - p50,
            "s",
        );
        metrics.layer("host.probe_s", probe_s, "s");
        metrics.layer("algorithms.build_s", median(&builds), "s");
        metrics.layer("circuit.qasm_parse_s", median(&parses), "s");
        metrics.layer(
            "server.submit_s.p50",
            if submits.is_empty() {
                0.0
            } else {
                median(&submits)
            },
            "s",
        );
        metrics.layer(
            "server.plain_job_s.p50",
            median_latency(&traced, |s| !s.ckpt),
            "s",
        );
        metrics.layer(
            "server.ckpt_job_s.p50",
            median_latency(&traced, |s| s.ckpt),
            "s",
        );
        let delta = |key| stats_counter(&stats_after, key) - stats_counter(&stats_before, key);
        metrics.layer("server.retries", delta("retries"), "count");
        metrics.layer(
            "server.shed",
            delta("shed").max(client_shed as f64),
            "count",
        );
        let mut t = tracer.lock().expect("tracer lock");
        let span = t.begin("server.stats", "", 0);
        t.end(
            span,
            [
                "submitted",
                "done",
                "failed",
                "retries",
                "shed",
                "evictions",
            ]
            .iter()
            .map(|k| (k.to_string(), delta(k)))
            .collect(),
        );
        let path = cfg
            .out_dir
            .join(format!("trace-{}-{}.json", cfg.workload, cfg.seed));
        if let Err(e) = t.write(&path, &cfg.workload, cfg.seed) {
            eprintln!("cannot write {}: {e}", path.display());
        }
    }
    eprintln!(
        "server_jobs: {} jobs ({} checkpointed) in {window:.1} s, {client_shed} shed; \
         measured set-up {:.6} s; median probe {probe_s:.6} s over {} (set-up {:.4})",
        samples.len(),
        samples.iter().filter(|s| s.ckpt).count(),
        median(&setups),
        setup_probes.len(),
        REFERENCE_S / probe_s
    );
    Ok(Outcome {
        attempted,
        failed,
        metrics,
    })
}
