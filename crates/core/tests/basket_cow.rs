//! Logical-delete / compaction equivalence and zero-copy snapshot
//! isolation at the basket level, plus the generation-guarded concurrent
//! firing protocol.
//!
//! * `delete_sel` marks rows in a deleted-bitmap and compacts lazily; a
//!   basket with any compaction threshold must be observationally
//!   identical to one that rewrites columns eagerly on every delete.
//! * `snapshot()` is a copy-on-write share — later appends/deletes on the
//!   basket must never show through.
//! * Two Apply-mode factories consuming one shared basket concurrently
//!   must process every tuple exactly once (the delete-generation check
//!   forces the loser of a conflicting firing to re-execute under lock).
//! * A model test runs random interleavings of appends (with and without
//!   an outstanding snapshot), full and pruned snapshots, prefix and
//!   predicate consumption, drains and seals against a plain `Vec` of
//!   rows. Appends under a snapshot go to the basket's private tail and
//!   prefix consumption drops rows directly, so these are the paths that
//!   must stay invisible.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use datacell::basket::Basket;
use datacell::clock::VirtualClock;
use datacell::factory::{ConsumeMode, QueryFactory};
use datacell::persist::{PersistStats, StreamPersist};
use datacell::scheduler::ThreadedScheduler;
use datacell::varstore::VarStore;
use dcsql::parse_statements;
use monet::catalog::Catalog;
use monet::prelude::*;
use parking_lot::Mutex;
use proptest::prelude::*;

fn schema() -> Schema {
    Schema::from_pairs(&[("v", ValueType::Int)])
}

fn rows_of(vals: &[i64]) -> Vec<Vec<Value>> {
    vals.iter().map(|&v| vec![Value::Int(v)]).collect()
}

fn contents(b: &Arc<Basket>) -> Vec<i64> {
    b.snapshot().column("v").unwrap().ints().unwrap().to_vec()
}

#[derive(Debug, Clone)]
enum BasketOp {
    Append(Vec<i64>),
    /// Live-view positions, interpreted modulo the current live length.
    Delete(Vec<u32>),
    Drain,
}

fn decode_basket_op(x: u64) -> BasketOp {
    let payload = x >> 4;
    match x % 9 {
        0..=3 => BasketOp::Append(
            (0..1 + payload % 40)
                .map(|i| ((payload.wrapping_mul(i + 7)) % 199) as i64 - 99)
                .collect(),
        ),
        4..=7 => BasketOp::Delete(
            (0..1 + payload % 20)
                .map(|i| (payload.wrapping_mul(2 * i + 1) >> 2) as u32)
                .collect(),
        ),
        _ => BasketOp::Drain,
    }
}

fn basket_ops() -> impl Strategy<Value = Vec<BasketOp>> {
    prop::collection::vec(any::<u64>(), 1..20)
        .prop_map(|seeds| seeds.into_iter().map(decode_basket_op).collect())
}

fn apply(b: &Arc<Basket>, clock: &VirtualClock, op: &BasketOp) {
    match op {
        BasketOp::Append(vals) => {
            b.append_rows(&rows_of(vals), clock).unwrap();
        }
        BasketOp::Delete(raw) => {
            let len = b.len();
            if len == 0 {
                return;
            }
            let positions: Vec<u32> = raw.iter().map(|&p| p % len as u32).collect();
            b.delete_sel(&SelVec::from_unsorted(positions)).unwrap();
        }
        BasketOp::Drain => {
            let _ = b.drain();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Eager compaction (threshold 0), never-compact (huge threshold) and
    /// the default lazy threshold are observationally identical.
    #[test]
    fn logical_delete_equals_eager_delete(ops in basket_ops()) {
        let clock = VirtualClock::new();
        let eager = Basket::new("E", &schema(), false);
        let lazy = Basket::new("L", &schema(), false);
        let dflt = Basket::new("D", &schema(), false);
        eager.set_compact_threshold(0);
        lazy.set_compact_threshold(usize::MAX);

        for op in &ops {
            apply(&eager, &clock, op);
            apply(&lazy, &clock, op);
            apply(&dflt, &clock, op);
            prop_assert_eq!(eager.len(), lazy.len());
            prop_assert_eq!(contents(&eager), contents(&lazy), "op {:?}", op);
            prop_assert_eq!(contents(&eager), contents(&dflt), "op {:?}", op);
            prop_assert_eq!(eager.compaction_stats().0, 0, "eager never leaves marks");
        }

        // forcing a physical compaction must not change the visible state
        let before = contents(&lazy);
        lazy.compact_now();
        prop_assert_eq!(contents(&lazy), before);
        prop_assert_eq!(lazy.compaction_stats().0, 0, "compact clears pending marks");

        // both report identical lifetime in/out totals
        prop_assert_eq!(eager.stats().snapshot(), lazy.stats().snapshot());
    }

    /// A snapshot is frozen at snapshot time regardless of subsequent
    /// appends, deletes, drains or compactions on the basket.
    #[test]
    fn snapshot_is_isolated(setup in prop::collection::vec(-50i64..50, 1..60), ops in basket_ops()) {
        let clock = VirtualClock::new();
        let b = Basket::new("B", &schema(), false);
        b.set_compact_threshold(4); // compact often to exercise rewrites
        b.append_rows(&rows_of(&setup), &clock).unwrap();

        let snap = b.snapshot();
        let frozen: Vec<i64> = snap.column("v").unwrap().ints().unwrap().to_vec();
        for op in &ops {
            apply(&b, &clock, op);
            let now: Vec<i64> = snap.column("v").unwrap().ints().unwrap().to_vec();
            prop_assert_eq!(&now, &frozen, "op {:?} leaked into snapshot", op);
        }
    }
}

/// Two Apply-mode factories race on one shared input; the generation check
/// must make their consumption exactly-once (no lost, no duplicated rows).
#[test]
fn concurrent_consumers_are_exactly_once() {
    let clock: Arc<VirtualClock> = Arc::new(VirtualClock::new());
    let catalog = Arc::new(Catalog::new());
    let vars = Arc::new(VarStore::new());
    let input = Basket::new("S", &schema(), false);
    let output = Basket::new("OUT", &schema(), false);

    let mk = |name: &str| {
        let i2 = Arc::clone(&input);
        let o2 = Arc::clone(&output);
        QueryFactory::new(
            name,
            parse_statements("insert into OUT select * from [select * from S] as Z").unwrap(),
            &move |n: &str| match n {
                "S" => Some(Arc::clone(&i2)),
                "OUT" => Some(Arc::clone(&o2)),
                _ => None,
            },
            Arc::clone(&catalog),
            Arc::clone(&vars),
            clock.clone() as Arc<dyn datacell::clock::Clock>,
            ConsumeMode::Apply,
            None,
        )
        .unwrap()
    };

    let sched = ThreadedScheduler::spawn_with_backoff(
        vec![Box::new(mk("qa")), Box::new(mk("qb"))],
        Duration::from_micros(10),
    );

    const TOTAL: i64 = 20_000;
    let mut next = 0i64;
    while next < TOTAL {
        let hi = (next + 97).min(TOTAL);
        let vals: Vec<i64> = (next..hi).collect();
        input.append_rows(&rows_of(&vals), clock.as_ref()).unwrap();
        next = hi;
    }

    let deadline = Instant::now() + Duration::from_secs(60);
    while (output.len() as i64) < TOTAL && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    sched.stop();

    assert!(input.is_empty(), "everything consumed");
    let mut got = contents(&output);
    got.sort_unstable();
    let want: Vec<i64> = (0..TOTAL).collect();
    assert_eq!(got.len() as i64, TOTAL, "no duplicated or lost tuples");
    assert_eq!(got, want);
}

// ---- model test ------------------------------------------------------------

fn wide_schema() -> Schema {
    Schema::from_pairs(&[("v", ValueType::Int), ("w", ValueType::Int)])
}

/// The model's row for value `v`: `w` is derived, so a pruned snapshot of
/// `w` alone still identifies its rows.
fn model_row(v: i64) -> (i64, i64) {
    (v, 3 * v + 1)
}

fn rows_of_wide(vals: &[i64]) -> Vec<Vec<Value>> {
    vals.iter()
        .map(|&v| {
            let (v, w) = model_row(v);
            vec![Value::Int(v), Value::Int(w)]
        })
        .collect()
}

fn pairs(rel: &Relation) -> Vec<(i64, i64)> {
    let v = rel.column("v").unwrap().ints().unwrap();
    let w = rel.column("w").unwrap().ints().unwrap();
    v.iter().copied().zip(w.iter().copied()).collect()
}

#[derive(Debug, Clone)]
enum ModelOp {
    Append(Vec<i64>),
    /// Take a full snapshot and hold it until `Release`.
    Snapshot,
    /// Take a snapshot of column `w` only and hold it until `Release`.
    SnapshotPruned,
    Release,
    /// Consume the first `k` live rows, `k` modulo the live length + 1.
    ConsumePrefix(u32),
    /// Consume the live rows whose value is `r` modulo `m`.
    ConsumeWhere { m: i64, r: i64 },
    Drain,
    Seal,
}

fn decode_model_op(x: u64) -> ModelOp {
    let payload = x >> 5;
    match x % 16 {
        0..=4 => ModelOp::Append(
            (0..1 + payload % 30)
                .map(|i| (payload.wrapping_mul(i + 3) % 97) as i64 - 48)
                .collect(),
        ),
        5 | 6 => ModelOp::Snapshot,
        7 => ModelOp::SnapshotPruned,
        8 => ModelOp::Release,
        9..=11 => ModelOp::ConsumePrefix(payload as u32),
        12 | 13 => {
            let m = 2 + (payload % 4) as i64;
            ModelOp::ConsumeWhere { m, r: (payload >> 3) as i64 % m }
        }
        14 => ModelOp::Drain,
        _ => ModelOp::Seal,
    }
}

fn model_ops() -> impl Strategy<Value = Vec<ModelOp>> {
    prop::collection::vec(any::<u64>(), 1..40)
        .prop_map(|seeds| seeds.into_iter().map(decode_model_op).collect())
}

/// A durability sink that keeps every sealed snapshot in memory.
#[derive(Default)]
struct MemorySink {
    sealed: Mutex<Vec<Relation>>,
    threshold: usize,
}

impl StreamPersist for MemorySink {
    fn log_append(
        &self,
        _batch: &Relation,
        _uniform_ts: Option<i64>,
    ) -> datacell::error::Result<()> {
        Ok(())
    }

    fn seal(&self, snapshot: &Relation) -> datacell::error::Result<()> {
        self.sealed.lock().push(snapshot.clone());
        Ok(())
    }

    fn seal_threshold(&self) -> usize {
        self.threshold
    }

    fn stats(&self) -> PersistStats {
        PersistStats::default()
    }
}

/// A snapshot held across later operations, with what it showed.
struct Held {
    rel: Relation,
    pruned: bool,
    frozen: Vec<(i64, i64)>,
}

impl Held {
    fn now(&self) -> Vec<(i64, i64)> {
        if self.pruned {
            let w = self.rel.column("w").unwrap().ints().unwrap();
            w.iter().map(|&w| (0, w)).collect()
        } else {
            pairs(&self.rel)
        }
    }
}

fn pruned_view(rows: &[(i64, i64)]) -> Vec<(i64, i64)> {
    rows.iter().map(|&(_, w)| (0, w)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every basket operation matches a plain `Vec` of rows: contents,
    /// `len()`, when `delete_gen` moves, sealed rows, and the isolation of
    /// every snapshot still held.
    #[test]
    fn basket_matches_a_vec_model(
        ops in model_ops(),
        persist in any::<bool>(),
        seal_at in 0usize..80,
        compact_at in 0usize..6,
        observe_every_step in any::<bool>(),
    ) {
        let clock = VirtualClock::new();
        let b = Basket::new("B", &wide_schema(), false);
        // 5 stands for the default threshold; smaller values compact often
        if compact_at < 5 {
            b.set_compact_threshold(compact_at);
        }
        let sink = Arc::new(MemorySink { threshold: seal_at, ..MemorySink::default() });
        if persist {
            b.set_persist(Arc::clone(&sink) as Arc<dyn StreamPersist>);
        }
        let gen = |b: &Basket| b.lock().delete_gen();
        let mut model: Vec<(i64, i64)> = Vec::new();
        let mut sealed: Vec<(i64, i64)> = Vec::new();
        let mut held: Vec<Held> = Vec::new();

        for op in &ops {
            let before = gen(&b);
            // whether the op must move the generation: Some(true) = bumps,
            // Some(false) = unchanged, None = may bump (it may release
            // logically-deleted rows that the model cannot see)
            let bumps: Option<bool> = match op {
                ModelOp::Append(vals) => {
                    b.append_rows(&rows_of_wide(vals), &clock).unwrap();
                    model.extend(vals.iter().map(|&v| model_row(v)));
                    if persist && seal_at > 0 && model.len() >= seal_at {
                        sealed.append(&mut model);
                        Some(true)
                    } else {
                        Some(false)
                    }
                }
                ModelOp::Snapshot => {
                    let rel = b.snapshot();
                    prop_assert_eq!(pairs(&rel), model.clone(), "snapshot shows the live rows");
                    held.push(Held { rel, pruned: false, frozen: model.clone() });
                    Some(false)
                }
                ModelOp::SnapshotPruned => {
                    let wanted: BTreeSet<String> = ["w".to_string()].into();
                    let rel = b.snapshot_cols(Some(&wanted));
                    prop_assert_eq!(rel.width(), 1);
                    let held_now = Held { rel, pruned: true, frozen: pruned_view(&model) };
                    prop_assert_eq!(held_now.now(), held_now.frozen.clone());
                    held.push(held_now);
                    Some(false)
                }
                ModelOp::Release => {
                    held.clear();
                    Some(false)
                }
                ModelOp::ConsumePrefix(raw) => {
                    let k = *raw as usize % (model.len() + 1);
                    b.delete_sel(&SelVec::range(0, k as u32)).unwrap();
                    model.drain(..k);
                    Some(k > 0)
                }
                ModelOp::ConsumeWhere { m, r } => {
                    let hit = |v: i64| v.rem_euclid(*m) == *r;
                    let positions: Vec<u32> = (0..model.len() as u32)
                        .filter(|&i| hit(model[i as usize].0))
                        .collect();
                    let any = !positions.is_empty();
                    b.delete_sel(&SelVec::from_sorted(positions).unwrap()).unwrap();
                    model.retain(|&(v, _)| !hit(v));
                    Some(any)
                }
                ModelOp::Drain => {
                    let out = b.drain();
                    let drained = std::mem::take(&mut model);
                    prop_assert_eq!(pairs(&out), drained);
                    Some(!out.is_empty())
                }
                ModelOp::Seal => {
                    if persist {
                        let n = b.seal_now().unwrap();
                        prop_assert_eq!(n, model.len());
                        let nonempty = !model.is_empty();
                        sealed.append(&mut model);
                        if nonempty { Some(true) } else { None }
                    } else {
                        prop_assert!(b.seal_now().is_err());
                        Some(false)
                    }
                }
            };
            let after = gen(&b);
            prop_assert!(after >= before, "delete_gen went back after {:?}", op);
            if let Some(bumps) = bumps {
                prop_assert_eq!(after > before, bumps, "delete_gen after {:?}", op);
            }
            prop_assert_eq!(b.len(), model.len(), "len after {:?}", op);
            prop_assert_eq!(b.lock().live_len(), model.len());
            if observe_every_step {
                prop_assert_eq!(pairs(&b.snapshot()), model.clone(), "contents after {:?}", op);
            }
            for h in &held {
                prop_assert_eq!(h.now(), h.frozen.clone(), "{:?} leaked into a held snapshot", op);
            }
        }

        prop_assert_eq!(pairs(&b.snapshot()), model.clone());
        let sink_rows: Vec<(i64, i64)> = sink.sealed.lock().iter().flat_map(pairs).collect();
        prop_assert_eq!(sink_rows, sealed);
    }
}

/// An append while a snapshot is out goes to the private tail: the
/// snapshot's columns stay shared with the store (nothing was copied),
/// and consuming exactly what the snapshot showed hands the store over
/// to the tail without a bitmap or compaction.
#[test]
fn append_under_a_snapshot_copies_nothing() {
    let clock = VirtualClock::new();
    let b = Basket::new("B", &wide_schema(), false);
    let first: Vec<i64> = (0..100).collect();
    b.append_rows(&rows_of_wide(&first), &clock).unwrap();

    let wanted: BTreeSet<String> = ["w".to_string()].into();
    let full = b.snapshot();
    let pruned = b.snapshot_cols(Some(&wanted));
    assert!(pruned.col_at(0).shares_data(full.column("w").unwrap()));
    b.append_rows(&rows_of_wide(&[100, 101, 102]), &clock).unwrap();
    // the store still holds the very payloads the snapshots share
    for i in 0..full.width() {
        assert!(full.col_at(i).is_shared(), "column {i} was copied by the append");
    }
    assert!(pruned.col_at(0).shares_data(full.column("w").unwrap()));
    assert_eq!(b.len(), 103);

    let (pending, compactions) = b.compaction_stats();
    assert_eq!((pending, compactions), (0, 0));
    b.delete_sel(&SelVec::all(full.len())).unwrap();
    assert_eq!(b.compaction_stats(), (0, 0), "prefix consumption needs no compaction");
    // the store let go of the consumed payload instead of rewriting it
    assert!(!full.column("v").unwrap().is_shared());
    drop(pruned);
    assert!(!full.column("w").unwrap().is_shared());
    assert_eq!(
        pairs(&b.snapshot()),
        vec![model_row(100), model_row(101), model_row(102)]
    );
}

/// A consuming standing query fired by the scheduler while a producer
/// appends concurrently: every firing consumes a prefix of what it saw
/// while later rows land behind it, so the input basket never compacts,
/// and every row is delivered exactly once.
#[test]
fn consuming_firings_under_concurrent_appends_never_compact() {
    let clock: Arc<VirtualClock> = Arc::new(VirtualClock::new());
    let catalog = Arc::new(Catalog::new());
    let vars = Arc::new(VarStore::new());
    let input = Basket::new("S", &schema(), false);
    let output = Basket::new("OUT", &schema(), false);
    let (i2, o2) = (Arc::clone(&input), Arc::clone(&output));
    let factory = QueryFactory::new(
        "q",
        parse_statements("insert into OUT select * from [select * from S] as Z").unwrap(),
        &move |n: &str| match n {
            "S" => Some(Arc::clone(&i2)),
            "OUT" => Some(Arc::clone(&o2)),
            _ => None,
        },
        Arc::clone(&catalog),
        Arc::clone(&vars),
        clock.clone() as Arc<dyn datacell::clock::Clock>,
        ConsumeMode::Apply,
        None,
    )
    .unwrap();
    let sched =
        ThreadedScheduler::spawn_with_backoff(vec![Box::new(factory)], Duration::from_micros(10));

    const TOTAL: i64 = 20_000;
    let mut next = 0i64;
    while next < TOTAL {
        let hi = (next + 97).min(TOTAL);
        let vals: Vec<i64> = (next..hi).collect();
        input.append_rows(&rows_of(&vals), clock.as_ref()).unwrap();
        next = hi;
    }
    let deadline = Instant::now() + Duration::from_secs(60);
    while (output.len() as i64) < TOTAL && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    sched.stop();

    assert!(input.is_empty(), "everything consumed");
    assert_eq!(input.compaction_stats(), (0, 0), "no bitmap, no compaction");
    assert_eq!(contents(&output), (0..TOTAL).collect::<Vec<i64>>());
}
