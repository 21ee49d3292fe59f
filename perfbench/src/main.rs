//! perfbench — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload bin_filter|text_delta_paced|cluster_repl \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! A run repeats rounds until `--seconds` have passed. Each round is a
//! fresh process of this program (so its peak RSS and allocator state are
//! its own): it boots the system under test in-process (`datacelld` or
//! `dccluster`), sets it up, drives it over sockets from one seeded
//! generator, checks every result row, and shuts it down. Reported
//! figures are medians over the faster half of the rounds (see
//! [`faster_half`]). `--trace 0` prints the end-to-end metrics (daemons at
//! their shipped defaults); `--trace 1` alternates untraced rounds with rounds
//! at `trace_sample = 1`, reads the daemons' counters after each traced
//! round and times the layers' public functions from outside, and
//! prints the per-layer metrics. The last line of standard output is one
//! JSON object; see README.md for the metrics and why each workload
//! exists.

mod binflow;
mod daemon;
mod gen;
mod layers;
mod outside;
mod scrape;
mod stats;
mod textflow;
mod wire;

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use binflow::BinFlow;
use layers::{median_over, Layers, PER_LAYER};
use scrape::kv;
use stats::{LatencyHist, Summary};
use textflow::TextFlow;

pub type Res<T> = Result<T, String>;

/// A reader gives up after this long without a byte of results.
pub const STALL: Duration = Duration::from_secs(10);
/// Rounds of each kind (untraced, traced) every run makes, whatever
/// `--seconds` says.
const MIN_ROUNDS: usize = 3;

/// Every end-to-end metric, in report order, with its unit.
const END_TO_END: &[(&str, &str)] = &[
    ("tuples_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("correct_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// One round: boot, set up, timed window, checks, shutdown.
pub struct Round {
    /// From just before bind to the first tuple that can be sent.
    pub setup_s: f64,
    pub rows: u64,
    /// Rejected input rows plus missing, duplicated or wrong result rows.
    pub errors: u64,
    /// From the first send to the last expected result.
    pub elapsed_s: f64,
    /// Per result row, µs from the due time of its newest input row.
    pub latency: LatencyHist,
    /// Per-layer metrics, on traced rounds.
    pub layers: Option<Layers>,
    /// Oracle failures, in words.
    pub notes: Vec<String>,
}

/// What a round process reports back to the run.
struct RoundReport {
    setup_s: f64,
    rows: u64,
    errors: u64,
    elapsed_s: f64,
    p50_ms: f64,
    /// The tail percentile the round's sample supports, and its value.
    tail_p: f64,
    tail_ms: f64,
    samples: u64,
    /// VmHWM of the round's process: daemon, generator and checker.
    peak_rss_mb: f64,
    layers: Option<Layers>,
    notes: Vec<String>,
}

impl RoundReport {
    fn tuples_per_s(&self) -> f64 {
        self.rows as f64 / self.elapsed_s
    }

    /// The `round ...` line a round process prints last.
    fn render(round: &Round, peak_rss_mb: f64) -> String {
        let (tail_p, tail) = round.latency.tail();
        let mut line = format!(
            "round setup_s={} rows={} errors={} elapsed_s={} p50_ms={} tail_p={tail_p} tail_ms={} samples={} peak_rss_mb={peak_rss_mb} traced={}",
            round.setup_s,
            round.rows,
            round.errors,
            round.elapsed_s,
            round.latency.percentile(50.0) / 1e3,
            tail / 1e3,
            round.latency.count(),
            round.layers.is_some() as u8,
        );
        for (name, v) in round.layers.iter().flatten() {
            line.push_str(&format!(" {name}={v}"));
        }
        line
    }

    fn parse(stdout: &str) -> Res<RoundReport> {
        let line = stdout
            .lines()
            .rfind(|l| l.starts_with("round "))
            .ok_or("round process printed no result")?;
        let get = |key: &str| kv(line, key).ok_or(format!("round result lacks {key}"));
        let layers = (get("traced")? > 0.0).then(|| {
            PER_LAYER
                .iter()
                .filter_map(|&(name, _)| Some((name, kv(line, name)?)))
                .collect()
        });
        Ok(RoundReport {
            setup_s: get("setup_s")?,
            rows: get("rows")? as u64,
            errors: get("errors")? as u64,
            elapsed_s: get("elapsed_s")?,
            p50_ms: get("p50_ms")?,
            tail_p: get("tail_p")?,
            tail_ms: get("tail_ms")?,
            samples: get("samples")? as u64,
            peak_rss_mb: get("peak_rss_mb")?,
            layers,
            notes: stdout
                .lines()
                .filter_map(|l| l.strip_prefix("note "))
                .map(str::to_string)
                .collect(),
        })
    }
}

enum Workload {
    Bin(BinFlow),
    Text(TextFlow),
}

impl Workload {
    fn new(name: &str, seed: u64) -> Res<Workload> {
        Ok(match name {
            "bin_filter" => Workload::Bin(BinFlow::new(seed, false)),
            "cluster_repl" => Workload::Bin(BinFlow::new(seed, true)),
            "text_delta_paced" => Workload::Text(TextFlow::new(seed)),
            other => return Err(format!("unknown workload {other:?}")),
        })
    }

    fn round(&self, traced: bool, dir: &Path, i: usize) -> Res<Round> {
        match self {
            Workload::Bin(w) => w.round(traced, dir, i),
            Workload::Text(w) => w.round(traced, dir, i),
        }
    }

    fn outside(&self, peak_rows: usize, out: &mut Layers) {
        match self {
            Workload::Bin(w) => w.outside(peak_rows, out),
            Workload::Text(w) => w.outside(peak_rows, out),
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Set in a round process: which round, and whether it is traced.
    round: Option<(usize, bool)>,
}

fn parse_args() -> Res<Args> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<Res<String>> {
        let i = argv.iter().position(|a| a == flag)?;
        Some(
            argv.get(i + 1)
                .cloned()
                .ok_or(format!("{flag} needs a value")),
        )
    };
    let need = |flag: &str| get(flag).unwrap_or(Err(format!("missing {flag}")));
    let num = |flag: &str| -> Res<u64> {
        need(flag)?
            .parse()
            .map_err(|_| format!("{flag} takes a whole number"))
    };
    let flag01 = |flag: &str| -> Res<bool> {
        match need(flag)?.as_str() {
            "0" => Ok(false),
            "1" => Ok(true),
            _ => Err(format!("{flag} takes 0 or 1")),
        }
    };
    let round = match get("--round") {
        Some(r) => Some((
            r?.parse().map_err(|_| "--round takes a whole number")?,
            flag01("--trace")?,
        )),
        None => None,
    };
    Ok(Args {
        workload: need("--workload")?,
        seed: num("--seed")?,
        seconds: if round.is_some() {
            0
        } else {
            num("--seconds")?
        },
        trace: flag01("--trace")?,
        round,
    })
}

/// VmHWM of this process, in MB.
fn peak_rss_mb() -> Res<f64> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Where a process keeps its data directories: inside the checkout,
/// under the benchmark's own directory.
fn run_dir(pid: u32) -> PathBuf {
    PathBuf::from("perfbench/.run").join(pid.to_string())
}

/// Round process: run round `i` of the workload and print its report.
fn round_main(args: &Args, i: usize, traced: bool) -> Res<()> {
    let workload = Workload::new(&args.workload, args.seed)?;
    let dir = run_dir(std::process::id());
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let round = workload.round(traced, &dir, i);
    let _ = std::fs::remove_dir_all(&dir);
    let round = round?;
    for note in &round.notes {
        println!("note {note}");
    }
    println!("{}", RoundReport::render(&round, peak_rss_mb()?));
    Ok(())
}

/// The faster half of a run's rounds, by throughput. Interference from
/// the shared host only ever slows a round down, and it comes in episodes
/// of seconds to minutes, so medians over the faster half do not move
/// while an episode covers less than half of a run. Every round still
/// counts for correctness.
fn faster_half(rounds: &[RoundReport]) -> Vec<&RoundReport> {
    let mut rounds: Vec<&RoundReport> = rounds.iter().collect();
    rounds.sort_by(|a, b| b.tuples_per_s().total_cmp(&a.tuples_per_s()));
    rounds.truncate(rounds.len().div_ceil(2));
    rounds
}

/// Run one round in a fresh process, so its peak RSS and allocator state
/// are its own, and wait for it.
fn spawn_round(args: &Args, i: usize, traced: bool) -> Res<RoundReport> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let child = Command::new(exe)
        .args([
            "--workload",
            &args.workload,
            "--seed",
            &args.seed.to_string(),
        ])
        .args([
            "--round",
            &i.to_string(),
            "--trace",
            if traced { "1" } else { "0" },
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn round: {e}"))?;
    let pid = child.id();
    let out = child
        .wait_with_output()
        .map_err(|e| format!("wait for round: {e}"))?;
    let _ = std::fs::remove_dir_all(run_dir(pid));
    if !out.status.success() {
        return Err(format!("round {i} failed ({})", out.status));
    }
    RoundReport::parse(&String::from_utf8_lossy(&out.stdout))
}

type Outcome = (bool, u64, u64, Vec<(&'static str, &'static str, f64)>);

fn run(args: &Args) -> Res<Outcome> {
    let workload = Workload::new(&args.workload, args.seed)?;
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let min_rounds = if args.trace {
        2 * MIN_ROUNDS
    } else {
        MIN_ROUNDS
    };
    let (mut plain, mut traced): (Vec<RoundReport>, Vec<RoundReport>) = (Vec::new(), Vec::new());
    let mut i = 0;
    loop {
        if i >= min_rounds && Instant::now() >= deadline {
            break;
        }
        let trace_round = args.trace && i % 2 == 1;
        let round = spawn_round(args, i, trace_round)?;
        println!(
            "round {i}: traced={} tuples_per_s={:.0} p50_ms={:.3} p{}_ms={:.3} setup_s={:.4} peak_rss_mb={:.1}",
            trace_round as u8,
            round.tuples_per_s(),
            round.p50_ms,
            round.tail_p,
            round.tail_ms,
            round.setup_s,
            round.peak_rss_mb,
        );
        for note in &round.notes {
            println!("round {i}: {note}");
        }
        if trace_round {
            traced.push(round)
        } else {
            plain.push(round)
        }
        i += 1;
    }
    let all = || plain.iter().chain(&traced);
    let attempted: u64 = all().map(|r| r.rows).sum();
    let failed: u64 = all().map(|r| r.errors).sum();
    let correct = failed == 0 && all().all(|r| r.notes.is_empty());
    let per_round = |rounds: &[&RoundReport], f: &dyn Fn(&RoundReport) -> f64| {
        Summary::of(&rounds.iter().map(|r| f(r)).collect::<Vec<_>>())
    };
    println!(
        "{i} rounds ({} traced), {attempted} rows sent, {failed} errors, error_rate {:.3e}",
        traced.len(),
        failed as f64 / attempted as f64
    );
    // set-up comes before the timed window, so every round's counts
    let setup = Summary::of(&plain.iter().map(|r| r.setup_s).collect::<Vec<_>>());
    let (plain, traced) = (faster_half(&plain), faster_half(&traced));
    println!(
        "medians over the faster half of the rounds ({} untraced, {} traced); setup_s over all",
        plain.len(),
        traced.len()
    );
    let tput = per_round(&plain, &|r| r.tuples_per_s());
    let show = |name: &str, s: Summary| {
        println!(
            "{name}: median {:.6} q1 {:.6} q3 {:.6} over {} rounds",
            s.median, s.q1, s.q3, s.count
        )
    };
    show("tuples_per_s", tput);

    if !args.trace {
        let tail_p = plain.iter().map(|r| r.tail_p).fold(100.0, f64::min);
        let samples: Vec<u64> = plain.iter().map(|r| r.samples).collect();
        println!(
            "latency per result row, {}..{} rows per round; p{tail_p} is the highest percentile with {} rows beyond it",
            samples.iter().min().unwrap_or(&0),
            samples.iter().max().unwrap_or(&0),
            stats::TAIL_SAMPLES,
        );
        let summaries = [
            tput,
            per_round(&plain, &|r| r.p50_ms),
            per_round(&plain, &|r| r.tail_ms),
            Summary::of(&[1.0 - failed as f64 / attempted as f64]),
            setup,
            per_round(&plain, &|r| r.peak_rss_mb),
        ];
        for (&(name, _), s) in END_TO_END.iter().zip(&summaries).skip(1) {
            show(name, *s);
        }
        let metrics = END_TO_END
            .iter()
            .zip(summaries)
            .map(|(&(n, u), s)| (n, u, s.median))
            .collect();
        return Ok((correct, attempted, failed, metrics));
    }

    let rounds: Vec<Layers> = traced.iter().filter_map(|r| r.layers.clone()).collect();
    let mut layers = median_over(&rounds);
    let peak_rows = layers["basket.rows_peak"] as usize;
    workload.outside(peak_rows.max(1), &mut layers);
    let traced_tput = per_round(&traced, &|r| r.tuples_per_s());
    show("traced tuples_per_s", traced_tput);
    layers.insert(
        "trace.overhead_pct",
        (tput.median / traced_tput.median - 1.0) * 100.0,
    );
    let metrics = PER_LAYER
        .iter()
        .map(|&(n, u)| (n, u, layers.get(n).copied().unwrap_or(0.0)))
        .collect();
    Ok((correct, attempted, failed, metrics))
}

fn json_metrics(metrics: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    let outcome = parse_args().and_then(|args| match args.round {
        Some((i, traced)) => round_main(&args, i, traced).map(|()| None),
        None => run(&args).map(Some),
    });
    match outcome {
        Ok(None) => {}
        Ok(Some((correct, attempted, failed, metrics))) => {
            for (name, unit, v) in &metrics {
                println!("{name} = {v} {unit}");
            }
            println!(
                "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
                json_metrics(&metrics)
            );
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
