//! Outside timings: the benchmark calls a layer's public functions on
//! the workload's own seeded batches and times them with
//! `std::time::Instant`. Each figure is the median of several timed
//! repetitions, each long enough to dwarf the clock's resolution.

use std::hint::black_box;
use std::time::{Duration, Instant};

use datacell::basket::Basket;
use datacell::clock::SystemClock;
use datacell::frame::{decode_frame, encode_frame};
use datacell::net::{encode_batch_text, parse_row};
use datacell::partition::Partitioner;
use monet::prelude::*;

use crate::stats::median;

const REPS: usize = 5;
const MIN_REP: Duration = Duration::from_millis(30);

/// Median over [`REPS`] repetitions of the time per unit of `work`,
/// which returns how many units (rows) one call processed.
fn per_unit(mut work: impl FnMut() -> usize) -> f64 {
    let reps: Vec<f64> = (0..REPS)
        .map(|_| {
            let (start, mut units) = (Instant::now(), 0usize);
            while start.elapsed() < MIN_REP {
                units += work();
            }
            start.elapsed().as_nanos() as f64 / units.max(1) as f64
        })
        .collect();
    median(&reps)
}

pub struct Codec {
    pub encode_ns_per_row: f64,
    pub decode_ns_per_row: f64,
    pub bytes_per_row: f64,
}

/// `encode_frame` as the client calls it, `decode_frame` as the receptor
/// does, over the given batches.
pub fn frame(batches: &[Relation]) -> Codec {
    let schema = batches[0].schema();
    let rows: usize = batches.iter().map(Relation::len).sum();
    let mut wire = Vec::new();
    for b in batches {
        encode_frame(&mut wire, b).expect("workload batches encode");
    }
    let mut out = Vec::with_capacity(wire.len());
    let encode = per_unit(|| {
        out.clear();
        for b in batches {
            encode_frame(&mut out, black_box(b)).expect("workload batches encode");
        }
        rows
    });
    let decode = per_unit(|| {
        let mut at = 0;
        while let Some((rel, used)) =
            decode_frame(black_box(&wire[at..]), &schema).expect("frames decode")
        {
            black_box(rel);
            at += used;
        }
        rows
    });
    Codec {
        encode_ns_per_row: encode,
        decode_ns_per_row: decode,
        bytes_per_row: wire.len() as f64 / rows as f64,
    }
}

/// `encode_batch_text` as the client calls it, `parse_row` per line as
/// the text receptor does.
pub fn text(batches: &[Relation]) -> Codec {
    let schema = batches[0].schema();
    let rows: usize = batches.iter().map(Relation::len).sum();
    let mut wire = String::new();
    for b in batches {
        encode_batch_text(&mut wire, b);
    }
    let mut out = String::with_capacity(wire.len());
    let encode = per_unit(|| {
        out.clear();
        for b in batches {
            encode_batch_text(&mut out, black_box(b));
        }
        rows
    });
    let decode = per_unit(|| {
        for line in black_box(&wire).lines() {
            black_box(parse_row(line, &schema).expect("rows parse"));
        }
        rows
    });
    Codec {
        encode_ns_per_row: encode,
        decode_ns_per_row: decode,
        bytes_per_row: wire.len() as f64 / rows as f64,
    }
}

/// `Basket::append_relation` of the batches into a fresh arrival-stamping
/// basket, then `Basket::snapshot` once it holds `snapshot_rows` rows.
/// Returns (ns per appended row, µs per snapshot).
pub fn basket(batches: &[Relation], snapshot_rows: usize) -> (f64, f64) {
    let schema = batches[0].schema();
    let clock = SystemClock;
    let append = per_unit(|| {
        let b = Basket::new("S", &schema, true);
        let mut n = 0;
        for rel in batches {
            n += b
                .append_relation(black_box(rel.clone()), &clock)
                .expect("append");
        }
        n
    });
    let b = Basket::new("S", &schema, true);
    let mut i = 0;
    while b.len() < snapshot_rows {
        let rel = &batches[i % batches.len()];
        let take = rel.len().min(snapshot_rows - b.len());
        let part = if take == rel.len() {
            rel.clone()
        } else {
            rel.gather_positions(&(0..take as u32).collect::<Vec<_>>())
                .expect("prefix")
        };
        b.append_relation(part, &clock).expect("append");
        i += 1;
    }
    let snapshot = per_unit(|| {
        black_box(b.snapshot());
        1
    });
    (append, snapshot / 1_000.0)
}

/// `Partitioner::split` over `shards` shards, keyed on column 0.
pub fn split(batches: &[Relation], shards: usize) -> f64 {
    let p = Partitioner::new(0, shards).expect("partitioner");
    let rows: usize = batches.iter().map(Relation::len).sum();
    per_unit(|| {
        for b in batches {
            black_box(p.split(black_box(b)).expect("split"));
        }
        rows
    })
}
