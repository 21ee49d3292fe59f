//! `bin_filter` and `cluster_repl`: binary 4096-row frames sent as fast
//! as backpressure allows into a consuming 10%-selective filter, on one
//! in-memory `datacelld` or on a 2-shard replicated `PERSIST` `dccluster`.
//! Closed loop: one sender (this thread) and one reader thread, with at
//! most [`WINDOW`] frames sent but not yet answered in full.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use datacell::frame::WireFormat;
use dccluster::ClusterConfig;
use dcserver::client::Client;
use dcserver::ServerConfig;

use crate::daemon::{fresh_dir, request, Daemon};
use crate::gen::{mix, FilterInput, FRAME_ROWS, V_CUT};
use crate::layers::{scrape, Layers, Scope};
use crate::scrape::{kv, sum_kv};
use crate::stats::LatencyHist;
use crate::wire::{Fill, Tap};
use crate::{outside, Res, Round, STALL};

const QUERY: &str = "select id, v from [select * from S] as Z where Z.v < 10";
/// Frames in flight: the sender waits while this many frames have not
/// had all their result rows back. Large enough to keep every stage busy,
/// small enough that latency measures the pipeline, not a queue of
/// unbounded depth in socket buffers and the basket.
const WINDOW: usize = 64;
/// How long the followers get to catch up after the timed window.
const CATCHUP_LIMIT: Duration = Duration::from_secs(10);

pub struct BinFlow {
    pub input: FilterInput,
    /// `cluster_repl` when set, `bin_filter` otherwise.
    pub cluster: bool,
}

/// What the reader thread saw.
#[derive(Default)]
struct Seen {
    valid: u64,
    dup: u64,
    wrong: u64,
    checksum: u64,
    last_us: u64,
    bytes: u64,
    latency: LatencyHist,
}

impl BinFlow {
    pub fn new(seed: u64, cluster: bool) -> BinFlow {
        // one round: 4096 frames (16M rows) on one engine, 1024 frames
        // (4M rows) through the replicated cluster
        let frames = if cluster { 1024 } else { 4096 };
        BinFlow {
            input: FilterInput::new(seed, frames),
            cluster,
        }
    }

    pub fn round(&self, traced: bool, run_dir: &Path, round: usize) -> Res<Round> {
        let input = &self.input;
        let data_dir = if self.cluster {
            Some(fresh_dir(run_dir, &format!("r{round}"))?)
        } else {
            None
        };
        let setup = Instant::now();
        let daemon = if self.cluster {
            let mut config = ClusterConfig::in_process_replicated(2);
            config.engine.data_dir = data_dir;
            if traced {
                config.engine.trace_sample = 1;
            }
            Daemon::cluster(config)?
        } else {
            let mut config = ServerConfig::default();
            if traced {
                config.trace_sample = 1;
            }
            Daemon::engine(config)?
        };
        let mut c = daemon.client()?;
        let ddl = if self.cluster {
            "CREATE STREAM S (id int, v int) PERSIST SHARD BY (id)"
        } else {
            "CREATE STREAM S (id int, v int)"
        };
        request(&mut c, ddl)?;
        request(&mut c, &format!("REGISTER QUERY f AS {QUERY}"))?;
        let rport = c
            .attach_receptor_fmt("S", 0, WireFormat::Binary)
            .map_err(|e| format!("attach receptor: {e}"))?;
        let eport = c
            .attach_emitter_fmt("f", 0, WireFormat::Binary)
            .map_err(|e| format!("attach emitter: {e}"))?;
        let mut sink = c
            .open_receptor_with(rport, WireFormat::Binary, &input.schema)
            .map_err(|e| format!("open receptor: {e}"))?;
        let mut tap = Tap::connect(eport, Some(Duration::from_millis(50)))?;
        let setup_s = setup.elapsed().as_secs_f64();

        // ---- timed window: first send → last expected result ----------
        let sent_at: Vec<AtomicU64> = (0..input.frames).map(|_| AtomicU64::new(0)).collect();
        let window = Window::default();
        let t0 = Instant::now();
        let mut send_block = Duration::ZERO;
        let seen = std::thread::scope(|s| -> Res<Seen> {
            let reader = s.spawn(|| {
                let seen = read_results(&mut tap, input, &sent_at, &window, t0);
                window.finish();
                seen
            });
            for (f, at) in sent_at.iter().enumerate() {
                if !window.admit(f) {
                    break;
                }
                let rel = input.frame(f);
                at.store(t0.elapsed().as_micros() as u64, Ordering::SeqCst);
                let t = Instant::now();
                sink.send_batch(&rel).map_err(|e| format!("send: {e}"))?;
                send_block += t.elapsed();
            }
            let t = Instant::now();
            sink.flush().map_err(|e| format!("flush: {e}"))?;
            send_block += t.elapsed();
            reader.join().map_err(|_| "reader panicked".to_string())?
        })?;
        let window_end = Instant::now();

        // ---- oracle ---------------------------------------------------
        let mut notes = Vec::new();
        let missing = input.expected - seen.valid;
        if seen.valid == input.expected && seen.checksum != input.checksum {
            notes.push("filtered-id checksum differs".to_string());
        }
        let mut layers = Layers::new();
        let mut repl_errors = 0;
        if self.cluster {
            let repl = await_followers(&mut c, window_end)?;
            repl_errors = (repl.behind * input.rows() as f64).ceil() as u64;
            if repl_errors > 0 {
                notes.push(format!(
                    "followers {repl_errors} rows behind their primaries after {CATCHUP_LIMIT:?}"
                ));
            }
            if repl.failovers > 0.0 {
                notes.push(format!("{} failovers during the run", repl.failovers));
            }
            layers.insert("repl.lag_rows_max", repl.lag_max);
            layers.insert("repl.catchup_s", repl.seconds);
            layers.insert("repl.failovers", repl.failovers);
        }
        let stats = request(&mut c, "STATS")?;
        let rejected = sum_kv(&stats, "receptor S ", "rejected") as u64;
        let errors = rejected + seen.dup + seen.wrong + missing + repl_errors;
        if errors > 0 {
            notes.push(format!(
                "rejected={rejected} duplicated={} wrong={} missing={missing}",
                seen.dup, seen.wrong
            ));
        }

        let layers = if traced {
            scrape(
                &mut c,
                &Scope {
                    stream: "S",
                    queries: &["f"],
                    row_bytes: 24.0,
                },
                &mut layers,
            )?;
            layers.insert("client.send_block_ms", send_block.as_secs_f64() * 1e3);
            layers.insert("emitter.bytes_out", seen.bytes as f64);
            Some(layers)
        } else {
            None
        };
        daemon.stop(c)?;

        let first = sent_at[0].load(Ordering::SeqCst);
        Ok(Round {
            setup_s,
            rows: input.rows(),
            errors,
            elapsed_s: seen.last_us.saturating_sub(first) as f64 / 1e6,
            latency: seen.latency,
            layers,
            notes,
        })
    }

    /// Outside timings on this workload's own frames.
    pub fn outside(&self, peak_rows: usize, out: &mut Layers) {
        let batches: Vec<_> = (0..64).map(|f| self.input.frame(f)).collect();
        let codec = outside::frame(&batches);
        out.insert("frame.encode_ns_per_row", codec.encode_ns_per_row);
        out.insert("frame.decode_ns_per_row", codec.decode_ns_per_row);
        out.insert("frame.bytes_per_row", codec.bytes_per_row);
        let (append, snapshot) = outside::basket(&batches, peak_rows);
        out.insert("basket.append_ns_per_row", append);
        out.insert("basket.snapshot_us", snapshot);
        if self.cluster {
            out.insert("partition.split_ns_per_row", outside::split(&batches, 2));
        }
    }
}

/// Frames answered in full, in order, shared by reader and sender.
#[derive(Default)]
struct Window {
    /// (frames answered, reader finished)
    state: Mutex<(usize, bool)>,
    moved: Condvar,
}

impl Window {
    fn answered(&self, frames: usize) {
        self.state.lock().expect("window lock").0 = frames;
        self.moved.notify_all();
    }

    fn finish(&self) {
        self.state.lock().expect("window lock").1 = true;
        self.moved.notify_all();
    }

    /// Wait until frame `f` may be sent; false once the reader gave up.
    fn admit(&self, f: usize) -> bool {
        let mut st = self.state.lock().expect("window lock");
        while st.0 + WINDOW <= f && !st.1 {
            st = self.moved.wait(st).expect("window lock");
        }
        !st.1
    }
}

/// Read result frames until every expected row arrived or the stream
/// stalls, checking each row against the generator.
fn read_results(
    tap: &mut Tap,
    input: &FilterInput,
    sent_at: &[AtomicU64],
    window: &Window,
    t0: Instant,
) -> Res<Seen> {
    let mut seen = Seen::default();
    let mut bits = vec![0u64; (input.rows() as usize).div_ceil(64)];
    let mut kept = vec![0u32; input.frames];
    let mut answered = 0;
    let mut idle = Instant::now();
    while seen.valid < input.expected {
        let Some(rel) = tap.frame(&input.schema)? else {
            match tap.fill() {
                Fill::Data => idle = Instant::now(),
                Fill::Idle if idle.elapsed() < STALL => {}
                Fill::Idle | Fill::Closed => break,
            }
            continue;
        };
        let now = t0.elapsed().as_micros() as u64;
        let ids = rel.col_at(0).ints().map_err(|e| e.to_string())?;
        let vs = rel.col_at(1).ints().map_err(|e| e.to_string())?;
        for (&id, &v) in ids.iter().zip(vs) {
            if id < 0 || id as u64 >= input.rows() || v != input.v_of(id) || v >= V_CUT {
                seen.wrong += 1;
                continue;
            }
            let (word, bit) = (id as usize / 64, 1u64 << (id % 64));
            if bits[word] & bit != 0 {
                seen.dup += 1;
                continue;
            }
            bits[word] |= bit;
            seen.valid += 1;
            seen.checksum = seen.checksum.wrapping_add(mix(id));
            let f = id as usize / FRAME_ROWS;
            kept[f] += 1;
            seen.latency
                .record(now.saturating_sub(sent_at[f].load(Ordering::SeqCst)));
        }
        seen.last_us = now;
        let before = answered;
        while answered < input.frames && kept[answered] == input.kept_in(answered) {
            answered += 1;
        }
        if answered > before {
            window.answered(answered);
        }
    }
    seen.bytes = tap.bytes;
    Ok(seen)
}

/// Replication after the timed window.
struct Catchup {
    lag_max: f64,
    /// From the end of the timed window until every follower's durable
    /// cursor equals its primary's.
    seconds: f64,
    failovers: f64,
    /// Share of the primaries' rows not on their followers when the
    /// wait ended (1 when a shard has no follower).
    behind: f64,
}

/// Wait until every follower holds exactly its primary's WAL and
/// segments, reading `REPL STATUS` on the router and on each engine.
fn await_followers(c: &mut Client, window_end: Instant) -> Res<Catchup> {
    let addr = |line: &str, key: &str| -> Option<String> {
        line.split_whitespace()
            .find_map(|t| t.strip_prefix(key)?.strip_prefix('='))
            .map(str::to_string)
    };
    let connect = |a: &str| Client::connect(a).map_err(|e| format!("connect {a}: {e}"));
    let status = request(c, "REPL STATUS S")?;
    let mut pairs = Vec::new();
    for line in status.iter().filter(|l| l.starts_with("shard ")) {
        if let (Some(p), Some(f)) = (addr(line, "primary"), addr(line, "follower")) {
            if f != "-" {
                pairs.push((connect(&p)?, connect(&f)?));
            }
        }
    }
    let failovers = sum_kv(&status, "shard ", "failovers");
    let mut lag_max = 0.0f64;
    loop {
        let status = request(c, "REPL STATUS S")?;
        lag_max = status
            .iter()
            .filter_map(|l| kv(l, "lag_rows"))
            .fold(lag_max, f64::max);
        let (mut primary_bytes, mut behind_bytes) = (0u64, 0u64);
        for (p, f) in &mut pairs {
            let ps = p
                .repl_status("S")
                .map_err(|e| format!("primary REPL STATUS: {e}"))?;
            // a follower the pump has not opened the stream on yet holds nothing
            let fs = f.repl_status("S").ok();
            primary_bytes += ps.wal_bytes;
            if fs != Some(ps) {
                behind_bytes += ps
                    .wal_bytes
                    .saturating_sub(fs.map_or(0, |s| s.wal_bytes))
                    .max(1);
            }
        }
        let caught_up = pairs.len() == 2 && behind_bytes == 0;
        if caught_up || window_end.elapsed() > CATCHUP_LIMIT {
            // WAL records hold fixed-width rows, so the unshipped share of
            // the primaries' WAL bytes is the unshipped share of the rows
            let behind = if pairs.len() < 2 {
                1.0
            } else {
                behind_bytes as f64 / primary_bytes.max(1) as f64
            };
            let seconds = window_end.elapsed().as_secs_f64();
            return Ok(Catchup {
                lag_max,
                seconds,
                failovers,
                behind,
            });
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}
