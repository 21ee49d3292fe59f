//! `text_delta_paced`: text rows on an open-loop schedule (20k rows/s in
//! 20-row sends) into a `PERSIST` stream on one `datacelld`, under two
//! read-only standing queries on the delta path: an equi-join with a
//! small build side (about 4% of rows match) and a 64-group `GROUP BY`.
//! Both re-emit their whole result on every firing; a result row counts
//! once, on first receipt.

use std::collections::HashSet;
use std::path::Path;
use std::time::{Duration, Instant};

use datacell::frame::WireFormat;
use dcserver::ServerConfig;
use monet::prelude::*;

use crate::daemon::{fresh_dir, request, Daemon};
use crate::gen::{PacedInput, FRAME_ROWS, GROUPS, SEND_INTERVAL_US};
use crate::layers::{scrape, Layers, Scope};
use crate::scrape::sum_kv;
use crate::stats::LatencyHist;
use crate::wire::{Fill, Tap};
use crate::{outside, Res, Round, STALL};

const JOIN: &str = "select S.id, T.m from S, T where S.k = T.k";
const GROUP: &str = "select g, count(*) as n, sum(v) as s from S group by g";
/// Rows per round: 3 s of input at the offered rate.
const ROUND_ROWS: usize = 60_000;
/// `T` rows per `EXEC insert` statement while loading the build side.
const INSERT_CHUNK: usize = 250;

pub struct TextFlow {
    pub input: PacedInput,
}

/// What the reader thread saw.
#[derive(Default)]
struct Seen {
    pairs: u64,
    finals: usize,
    wrong: HashSet<String>,
    last_us: u64,
    bytes: u64,
    latency: LatencyHist,
}

impl TextFlow {
    pub fn new(seed: u64) -> TextFlow {
        TextFlow {
            input: PacedInput::new(seed, ROUND_ROWS),
        }
    }

    pub fn round(&self, traced: bool, run_dir: &Path, round: usize) -> Res<Round> {
        let input = &self.input;
        let data_dir = fresh_dir(run_dir, &format!("r{round}"))?;
        let setup = Instant::now();
        let mut config = ServerConfig {
            data_dir: Some(data_dir),
            ..ServerConfig::default()
        };
        if traced {
            config.trace_sample = 1;
        }
        let daemon = Daemon::engine(config)?;
        let mut c = daemon.client()?;
        request(
            &mut c,
            "CREATE STREAM S (id int, k int, g int, v int) PERSIST",
        )?;
        // the build side is a stream nobody consumes: a CREATE TABLE
        // relation is not tracked by the delta premise, and the join
        // would fall back to full re-execution on every firing
        request(&mut c, "CREATE STREAM T (k int, m int)")?;
        for chunk in input.table.chunks(INSERT_CHUNK) {
            let values: Vec<String> = chunk.iter().map(|(k, m)| format!("({k}, {m})")).collect();
            request(
                &mut c,
                &format!("EXEC insert into T values {}", values.join(", ")),
            )?;
        }
        request(&mut c, &format!("REGISTER QUERY j AS {JOIN}"))?;
        request(&mut c, &format!("REGISTER QUERY a AS {GROUP}"))?;
        let attach = |c: &mut dcserver::Client, q: &str| {
            c.attach_emitter_fmt(q, 0, WireFormat::Text)
                .map_err(|e| format!("attach emitter {q}: {e}"))
        };
        let (jport, aport) = (attach(&mut c, "j")?, attach(&mut c, "a")?);
        let rport = c
            .attach_receptor_fmt("S", 0, WireFormat::Text)
            .map_err(|e| format!("attach receptor: {e}"))?;
        let mut sink = c
            .open_receptor_with(rport, WireFormat::Text, &input.schema)
            .map_err(|e| format!("open receptor: {e}"))?;
        let mut taps = [Tap::connect(jport, None)?, Tap::connect(aport, None)?];
        let setup_s = setup.elapsed().as_secs_f64();

        // ---- timed window: open-loop sends on a fixed schedule ---------
        let t0 = Instant::now();
        let mut late = LatencyHist::default();
        let mut send_block = Duration::ZERO;
        let seen = std::thread::scope(|s| -> Res<Seen> {
            let reader = s.spawn(|| read_results(&mut taps, input, t0));
            for (i, rel) in input.sends.iter().enumerate() {
                let due = i as u64 * SEND_INTERVAL_US;
                let now = t0.elapsed().as_micros() as u64;
                if now < due {
                    std::thread::sleep(Duration::from_micros(due - now));
                }
                late.record((t0.elapsed().as_micros() as u64).saturating_sub(due));
                let t = Instant::now();
                sink.send_batch(rel).map_err(|e| format!("send: {e}"))?;
                sink.flush().map_err(|e| format!("flush: {e}"))?;
                send_block += t.elapsed();
            }
            reader.join().map_err(|_| "reader panicked".to_string())?
        })?;

        // ---- oracle ---------------------------------------------------
        let missing = (input.join_pairs - seen.pairs) + (GROUPS - seen.finals) as u64;
        let stats = request(&mut c, "STATS")?;
        let rejected = sum_kv(&stats, "receptor S ", "rejected") as u64;
        let errors = rejected + missing + seen.wrong.len() as u64;
        let mut notes = Vec::new();
        if errors > 0 {
            notes.push(format!(
                "rejected={rejected} wrong={} missing={missing}",
                seen.wrong.len()
            ));
        }

        let layers = if traced {
            let mut layers = Layers::new();
            scrape(
                &mut c,
                &Scope {
                    stream: "S",
                    queries: &["j", "a"],
                    row_bytes: 40.0,
                },
                &mut layers,
            )?;
            layers.insert("client.gen_late_p99_ms", late.percentile(99.0) / 1e3);
            layers.insert("client.send_block_ms", send_block.as_secs_f64() * 1e3);
            layers.insert("emitter.bytes_out", seen.bytes as f64);
            Some(layers)
        } else {
            None
        };
        daemon.stop(c)?;

        Ok(Round {
            setup_s,
            rows: input.rows(),
            errors,
            elapsed_s: seen.last_us as f64 / 1e6,
            latency: seen.latency,
            layers,
            notes,
        })
    }

    /// Outside timings on this workload's own rows: the text codec on the
    /// 20-row sends, the basket on receptor-sized batches of them.
    pub fn outside(&self, peak_rows: usize, out: &mut Layers) {
        let codec = outside::text(&self.input.sends);
        out.insert("net.parse_ns_per_row", codec.decode_ns_per_row);
        out.insert("net.encode_ns_per_row", codec.encode_ns_per_row);
        out.insert("net.bytes_per_row", codec.bytes_per_row);
        let mut batches = Vec::new();
        for chunk in self
            .input
            .sends
            .chunks(FRAME_ROWS / self.input.sends[0].len())
        {
            let mut rel = Relation::new(&self.input.schema);
            for part in chunk {
                rel.append_relation(part).expect("same schema");
            }
            batches.push(rel);
        }
        let (append, snapshot) = outside::basket(&batches, peak_rows);
        out.insert("basket.append_ns_per_row", append);
        out.insert("basket.snapshot_us", snapshot);
    }
}

fn field(parts: &[&str], i: usize) -> Option<i64> {
    parts.get(i)?.parse().ok()
}

/// Read both emitters until every join pair and every group's final
/// count/sum arrived, or the streams stall.
fn read_results(taps: &mut [Tap; 2], input: &PacedInput, t0: Instant) -> Res<Seen> {
    let mut seen = Seen::default();
    let mut pair_seen = vec![false; input.rows() as usize];
    let mut group_seen: Vec<Vec<bool>> = input
        .group_ids
        .iter()
        .map(|ids| vec![false; ids.len()])
        .collect();
    seen.finals = input.group_ids.iter().filter(|ids| ids.is_empty()).count();
    let mut idle = Instant::now();
    while seen.pairs < input.join_pairs || seen.finals < GROUPS {
        let mut progress = false;
        for (q, tap) in taps.iter_mut().enumerate() {
            // a closed emitter leaves its missing rows to the oracle
            progress |= tap.fill() == Fill::Data;
            let now = t0.elapsed().as_micros() as u64;
            while let Some(line) = tap.line() {
                let parts: Vec<&str> = line.split('|').collect();
                // a fresh result row is due when the newest input row it
                // depends on was due to be sent
                let fresh = if q == 0 {
                    check_pair(&parts, input, &mut pair_seen).map(|id| id.map(|id| (id, false)))
                } else {
                    check_group(&parts, input, &mut group_seen)
                };
                match fresh {
                    Ok(Some((id, last))) => {
                        if q == 0 {
                            seen.pairs += 1;
                        } else {
                            seen.finals += last as usize;
                        }
                        seen.latency
                            .record(now.saturating_sub(PacedInput::due_us(id)));
                        seen.last_us = now;
                    }
                    Ok(None) => {}
                    Err(()) => {
                        seen.wrong.insert(format!("{q}:{line}"));
                    }
                }
            }
        }
        if progress {
            idle = Instant::now();
        } else if idle.elapsed() > STALL {
            break;
        } else {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    seen.bytes = taps.iter().map(|t| t.bytes).sum();
    Ok(seen)
}

/// A join row `id|m`: `Ok(Some(id))` on first receipt, `Ok(None)` when
/// re-emitted, `Err` when the pair is not in the expected join.
fn check_pair(
    parts: &[&str],
    input: &PacedInput,
    seen: &mut [bool],
) -> std::result::Result<Option<i64>, ()> {
    let (Some(id), Some(m), 2) = (field(parts, 0), field(parts, 1), parts.len()) else {
        return Err(());
    };
    if id < 0 || id as u64 >= input.rows() || input.partner[id as usize] != Some(m) {
        return Err(());
    }
    Ok((!std::mem::replace(&mut seen[id as usize], true)).then_some(id))
}

/// A group row `g|n|s`: valid when `s` is the sum of `v` over the first
/// `n` rows of group `g`. On first receipt returns the id of the group's
/// `n`-th row and whether `n` is the group's final count.
fn check_group(
    parts: &[&str],
    input: &PacedInput,
    seen: &mut [Vec<bool>],
) -> std::result::Result<Option<(i64, bool)>, ()> {
    let (Some(g), Some(n), Some(s), 3) = (
        field(parts, 0),
        field(parts, 1),
        field(parts, 2),
        parts.len(),
    ) else {
        return Err(());
    };
    let ids = input.group_ids.get(g as usize).ok_or(())?;
    if g < 0 || n < 1 || n as usize > ids.len() || input.group_sums[g as usize][n as usize - 1] != s
    {
        return Err(());
    }
    let i = n as usize - 1;
    let first = !std::mem::replace(&mut seen[g as usize][i], true);
    Ok(first.then_some((ids[i], i + 1 == ids.len())))
}
