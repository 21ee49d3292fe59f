//! Replication primitives: shipping a stream's durable state to a
//! follower store, and promoting a follower to a primary.
//!
//! The unit of replication is exactly the on-disk layout [`crate`]
//! already defines — sealed `seg-*.dcs` files plus the WAL tail — so a
//! follower's directory is byte-compatible with a primary's and its
//! catch-up/promotion replay is the same decode path boot recovery
//! uses. The protocol is a cursor-driven pull:
//!
//! * the follower-side cursor is `(segments, wal_epoch, wal_offset)`;
//!   segments are append-only, so a count suffices;
//! * [`Store::export_since`] (on the primary) returns every segment past
//!   the cursor plus a WAL chunk from `wal_offset`, cut at a record
//!   boundary under [`WAL_CHUNK_MAX`];
//! * [`Store::apply_segment`] / [`Store::apply_wal`] (on the follower)
//!   land that state durably. An epoch change means the primary sealed
//!   (and truncated its WAL), so the follower truncates its copy too;
//! * [`Store::promote_replicas`] replays the follower's WAL tails into
//!   live baskets and attaches persistence — after which the follower
//!   *is* a primary.
//!
//! A follower is a **cold standby**: durable state only, no live
//! baskets, until promotion. Payloads cross the control plane
//! hex-encoded ([`hex_encode`] / [`hex_decode`]) to stay line-safe.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use datacell::error::{EngineError, Result};
use datacell::frame;
use datacell::persist::StreamPersist;
use datacell::prelude::DataCell;
use monet::prelude::*;

use crate::manifest::SegmentRef;
use crate::wal::{scan_records, RECORD_HEADER};
use crate::{
    decode_record, seg_id_of, segment, validate_col, validate_name, RecoveryReport, Store,
    REC_FULL, REC_UNIFORM,
};

/// Cap on the WAL bytes one export ships (cut at a record boundary; a
/// single over-sized record still ships alone so catch-up always makes
/// progress). Bounds control-plane response line lengths.
pub const WAL_CHUNK_MAX: usize = 1 << 20;

/// A follower stream's durable position, as reported by `REPL STATUS`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaStatus {
    pub epoch: u64,
    pub wal_bytes: u64,
    pub segments: usize,
}

/// One sealed segment shipped whole.
#[derive(Debug, Clone)]
pub struct SegmentChunk {
    pub file: String,
    pub rows: u64,
    pub data: Vec<u8>,
}

/// What one [`Store::export_since`] round returns.
#[derive(Debug, Clone)]
pub struct ExportChunk {
    /// The primary's current seal epoch.
    pub epoch: u64,
    /// The primary's total WAL length at export time.
    pub wal_bytes: u64,
    /// Rows in WAL records *beyond* the shipped chunk — the replication
    /// lag remaining after the follower applies this chunk (0 = caught
    /// up, modulo writes that land after the export).
    pub pending_rows: u64,
    /// Segments past the follower's cursor, in inventory order.
    pub segments: Vec<SegmentChunk>,
    /// Offset `wal_data` starts at (0 after an epoch change).
    pub wal_from: u64,
    /// Framed WAL records (header + CRC + payload), record-aligned.
    pub wal_data: Vec<u8>,
}

/// Lowercase hex — payloads must survive the line-oriented control
/// plane, and hex needs no dependency and no padding rules.
pub fn hex_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push(char::from_digit((b >> 4) as u32, 16).unwrap());
        out.push(char::from_digit((b & 0xf) as u32, 16).unwrap());
    }
    out
}

pub fn hex_decode(s: &str) -> Result<Vec<u8>> {
    let s = s.as_bytes();
    if !s.len().is_multiple_of(2) {
        return Err(EngineError::Io("hex payload has odd length".into()));
    }
    let mut out = Vec::with_capacity(s.len() / 2);
    for pair in s.chunks_exact(2) {
        let hi = (pair[0] as char).to_digit(16);
        let lo = (pair[1] as char).to_digit(16);
        match (hi, lo) {
            (Some(h), Some(l)) => out.push(((h << 4) | l) as u8),
            _ => return Err(EngineError::Io("hex payload has a non-hex byte".into())),
        }
    }
    Ok(out)
}

/// Declared row count of one WAL record payload (header varints only —
/// no column decode).
fn record_rows(payload: &[u8]) -> u64 {
    let frame = match payload.split_first() {
        Some((&REC_FULL, rest)) => rest,
        Some((&REC_UNIFORM, rest)) if rest.len() >= 8 => &rest[8..],
        _ => return 0,
    };
    match frame::frame_meta(frame) {
        Ok(Some((_, rows))) => rows,
        _ => 0,
    }
}

impl Store {
    /// Open (or idempotently re-open) a stream in **replica mode**: the
    /// manifest entry and stream directory exist and replication applies
    /// land durably, but no live basket is created — that happens at
    /// [`Store::promote_replicas`]. Re-opening with the same schema is a
    /// no-op; a different schema is an error.
    pub fn open_replica(&self, name: &str, user_schema: &Schema) -> Result<()> {
        validate_name(name)?;
        for f in user_schema.fields() {
            validate_col(&f.name)?;
        }
        {
            let mut m = self.manifest.lock();
            match m.get(name) {
                Some(e) if e.schema == *user_schema => {
                    drop(m);
                    if self.stream(name).is_none() {
                        let (stream, _) = self.build_stream(name, user_schema)?;
                        self.streams.lock().insert(name.to_string(), stream);
                    }
                    return Ok(());
                }
                Some(_) => {
                    return Err(EngineError::Config(format!(
                        "replica stream {name} already exists with a different schema"
                    )))
                }
                None => {
                    m.add_stream(name, user_schema);
                    m.save()?;
                }
            }
        }
        let (stream, replay) = self.build_stream(name, user_schema)?;
        if !replay.records.is_empty() || replay.torn {
            // a stale log from a dead incarnation — the primary's state
            // supersedes it entirely
            stream.state.lock().wal.truncate_all()?;
            stream.wal_bytes.store(0, Ordering::Relaxed);
        }
        self.streams.lock().insert(name.to_string(), stream);
        Ok(())
    }

    /// A stream's durable position (`REPL STATUS`): the catch-up cursor
    /// a primary needs to resume shipping to this follower.
    pub fn replica_status(&self, name: &str) -> Result<ReplicaStatus> {
        let stream = self
            .stream(name)
            .ok_or_else(|| EngineError::Unknown(format!("replica stream {name}")))?;
        let st = stream.state.lock();
        let epoch = self
            .manifest
            .lock()
            .get(name)
            .map(|e| e.wal_epoch)
            .ok_or_else(|| EngineError::Unknown(format!("manifest stream {name}")))?;
        Ok(ReplicaStatus {
            epoch,
            wal_bytes: st.wal.bytes(),
            segments: st.segments.len(),
        })
    }

    /// Primary side of one replication round: everything past the
    /// follower's `(have_segs, have_epoch, have_offset)` cursor. Taken
    /// under the stream's state lock, so the segment inventory, epoch
    /// and WAL bytes are mutually consistent (the same lock seals hold).
    pub fn export_since(
        &self,
        name: &str,
        have_segs: usize,
        have_epoch: u64,
        have_offset: u64,
    ) -> Result<ExportChunk> {
        let stream = self
            .stream(name)
            .ok_or_else(|| EngineError::Unknown(format!("durable stream {name}")))?;
        let st = stream.state.lock();
        let epoch = self
            .manifest
            .lock()
            .get(name)
            .map(|e| e.wal_epoch)
            .ok_or_else(|| EngineError::Unknown(format!("manifest stream {name}")))?;
        if have_segs > st.segments.len() {
            return Err(EngineError::Io(format!(
                "stream {name}: follower reports {have_segs} segments, primary has {}",
                st.segments.len()
            )));
        }
        let mut segments = Vec::new();
        for s in &st.segments[have_segs..] {
            let data = std::fs::read(stream.dir.join(&s.file))?;
            segments.push(SegmentChunk {
                file: s.file.clone(),
                rows: s.rows,
                data,
            });
        }
        let wal_bytes = st.wal.bytes();
        let from = if epoch == have_epoch { have_offset } else { 0 };
        if from > wal_bytes {
            return Err(EngineError::Io(format!(
                "stream {name}: follower wal cursor {from} is past the primary's {wal_bytes}"
            )));
        }
        let bytes = std::fs::read(st.wal.path())?;
        let tail = &bytes[from as usize..wal_bytes as usize];
        let replay = scan_records(tail);
        // the chunk is the longest record-aligned prefix under the cap
        // (at least one record); every record after the first that does
        // not fit is pending, however small, or the prefix would skip it
        let mut take = 0usize;
        let mut pending_rows = 0u64;
        let mut full = false;
        for rec in &replay.records {
            let framed = RECORD_HEADER + rec.len();
            full = full || (take > 0 && take + framed > WAL_CHUNK_MAX);
            if full {
                pending_rows += record_rows(rec);
            } else {
                take += framed;
            }
        }
        Ok(ExportChunk {
            epoch,
            wal_bytes,
            pending_rows,
            segments,
            wal_from: from,
            wal_data: tail[..take].to_vec(),
        })
    }

    /// Follower side: land one shipped segment durably (file write via
    /// tmp+fsync+rename, then manifest adoption). Re-shipping a file the
    /// inventory already holds is a no-op, so a retried export round is
    /// harmless.
    pub fn apply_segment(&self, name: &str, file: &str, rows: u64, data: &[u8]) -> Result<()> {
        let stream = self
            .stream(name)
            .ok_or_else(|| EngineError::Unknown(format!("replica stream {name}")))?;
        let Some(id) = seg_id_of(file) else {
            return Err(EngineError::Io(format!(
                "stream {name}: {file:?} is not a segment file name"
            )));
        };
        let mut st = stream.state.lock();
        if st.segments.iter().any(|s| s.file == file) {
            return Ok(());
        }
        let path = stream.dir.join(file);
        let tmp = path.with_extension("tmp");
        {
            use std::io::Write;
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(data)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, &path)?;
        // the shipped bytes must parse as a segment with the declared
        // row count before the manifest adopts them
        let (meta, _) = segment::read_meta(&path)?;
        if meta.rows != rows {
            let _ = std::fs::remove_file(&path);
            return Err(EngineError::Io(format!(
                "stream {name}: segment {file} declares {rows} rows but holds {}",
                meta.rows
            )));
        }
        let seg = SegmentRef {
            file: file.to_string(),
            rows,
            bytes: data.len() as u64,
        };
        st.segments.push(seg.clone());
        {
            let mut m = self.manifest.lock();
            m.add_segment(name, seg, rows)?;
            m.save()?;
        }
        stream
            .segment_count
            .store(st.segments.len() as u64, Ordering::Relaxed);
        stream.sealed_rows.fetch_add(rows, Ordering::Relaxed);
        stream.next_seg.fetch_max(id + 1, Ordering::Relaxed);
        Ok(())
    }

    /// Follower side: append one shipped WAL chunk. An epoch ahead of
    /// ours means the primary sealed — truncate our copy and adopt the
    /// new epoch first. `from` must equal our current WAL length; a
    /// mismatch means the cursor desynced and the primary should re-read
    /// [`Store::replica_status`].
    pub fn apply_wal(&self, name: &str, epoch: u64, from: u64, data: &[u8]) -> Result<()> {
        let stream = self
            .stream(name)
            .ok_or_else(|| EngineError::Unknown(format!("replica stream {name}")))?;
        let mut st = stream.state.lock();
        let cur_epoch = self
            .manifest
            .lock()
            .get(name)
            .map(|e| e.wal_epoch)
            .ok_or_else(|| EngineError::Unknown(format!("manifest stream {name}")))?;
        if epoch != cur_epoch {
            st.wal.truncate_all()?;
            stream.wal_bytes.store(0, Ordering::Relaxed);
            let mut m = self.manifest.lock();
            m.set_wal_epoch(name, epoch)?;
            m.save()?;
        }
        if from != st.wal.bytes() {
            return Err(EngineError::Io(format!(
                "stream {name}: wal chunk starts at {from}, replica is at {}",
                st.wal.bytes()
            )));
        }
        if data.is_empty() {
            return Ok(());
        }
        let replay = scan_records(data);
        if replay.torn || replay.valid_bytes as usize != data.len() {
            return Err(EngineError::Io(format!(
                "stream {name}: shipped wal chunk is not record-aligned"
            )));
        }
        st.wal.append_framed(data)?;
        stream.wal_bytes.store(st.wal.bytes(), Ordering::Relaxed);
        Ok(())
    }

    /// Turn every replica stream into a live primary stream: create its
    /// basket, replay the replicated WAL tail into it (exactly what boot
    /// recovery does), and attach the persistence sink so new appends
    /// keep logging into the same WAL. Streams that already have a live
    /// basket are skipped, so a store mixing primary and replica streams
    /// promotes only the replicas.
    pub fn promote_replicas(&self, engine: &DataCell) -> Result<RecoveryReport> {
        let entries = self.manifest.lock().stream_list();
        let mut report = RecoveryReport::default();
        for (name, user_schema) in entries {
            if engine.basket(&name).is_ok() {
                continue;
            }
            let stream = match self.stream(&name) {
                Some(s) => s,
                None => {
                    let (s, _) = self.build_stream(&name, &user_schema)?;
                    self.streams.lock().insert(name.clone(), Arc::clone(&s));
                    s
                }
            };
            let basket = engine.create_stream(&name, &user_schema)?;
            {
                let st = stream.state.lock();
                let bytes = std::fs::read(st.wal.path())?;
                let replay = scan_records(&bytes[..st.wal.bytes() as usize]);
                if replay.torn {
                    report.torn_tails += 1;
                }
                for payload in &replay.records {
                    let rel =
                        decode_record(&name, payload, &stream.full_schema, &stream.user_schema)?;
                    report.replayed_batches += 1;
                    report.replayed_rows +=
                        basket.append_relation(rel, engine.clock().as_ref())? as u64;
                }
            }
            report.segments += stream.stats().segments;
            basket.set_persist(Arc::clone(&stream) as Arc<dyn StreamPersist>);
            report.streams += 1;
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StoreOptions;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "dcstore-replica-{name}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn user_schema() -> Schema {
        Schema::from_pairs(&[("id", ValueType::Int), ("payload", ValueType::Int)])
    }

    fn open(root: &PathBuf) -> Arc<Store> {
        Store::open(root, StoreOptions::default(), dctrace::Telemetry::disabled()).unwrap()
    }

    fn ship_once(primary: &Store, follower: &Store, name: &str) -> ExportChunk {
        let status = follower.replica_status(name).unwrap();
        let chunk = primary
            .export_since(name, status.segments, status.epoch, status.wal_bytes)
            .unwrap();
        for seg in &chunk.segments {
            follower
                .apply_segment(name, &seg.file, seg.rows, &seg.data)
                .unwrap();
        }
        follower
            .apply_wal(name, chunk.epoch, chunk.wal_from, &chunk.wal_data)
            .unwrap();
        chunk
    }

    #[test]
    fn hex_roundtrip_and_rejects() {
        let data = [0u8, 1, 0x7f, 0xff, 0xab];
        assert_eq!(hex_decode(&hex_encode(&data)).unwrap(), data);
        assert!(hex_decode("abc").is_err());
        assert!(hex_decode("zz").is_err());
    }

    #[test]
    fn ship_wal_and_segments_then_promote() {
        let proot = tmp("ship-p");
        let froot = tmp("ship-f");
        let engine = DataCell::new();
        let primary = open(&proot);
        engine.set_durability(primary.clone());
        engine.create_stream_persistent("S", &user_schema()).unwrap();
        engine
            .ingest(
                "S",
                &[vec![Value::Int(1), Value::Int(10)], vec![Value::Int(2), Value::Int(20)]],
            )
            .unwrap();
        engine.flush_stream("S").unwrap(); // rows 1,2 sealed into a segment
        engine
            .ingest("S", &[vec![Value::Int(3), Value::Int(30)]])
            .unwrap(); // row 3 in the WAL tail

        let follower = open(&froot);
        follower.open_replica("S", &user_schema()).unwrap();
        let chunk = ship_once(&primary, &follower, "S");
        assert_eq!(chunk.segments.len(), 1);
        assert_eq!(chunk.pending_rows, 0);
        let fs = follower.replica_status("S").unwrap();
        let ps = primary.replica_status("S").unwrap();
        assert_eq!(fs, ps, "follower caught up to the primary's cursor");

        // a second round ships nothing new and stays applied
        let chunk = ship_once(&primary, &follower, "S");
        assert!(chunk.segments.is_empty());
        assert!(chunk.wal_data.is_empty());

        // "kill" the primary; promote the follower and check both the
        // sealed rows and the acknowledged WAL tail survived
        drop((engine, primary));
        let engine2 = DataCell::new();
        let report = follower.promote_replicas(&engine2).unwrap();
        assert_eq!(report.streams, 1);
        assert_eq!(report.replayed_rows, 1);
        assert_eq!(report.segments, 1);
        let snap = engine2.basket("S").unwrap().snapshot();
        assert_eq!(snap.column("id").unwrap().ints().unwrap(), &[3]);
        let seg = follower.stream("S").unwrap();
        let rel = seg.read_segment(&seg.segments()[0].file).unwrap();
        assert_eq!(rel.column("id").unwrap().ints().unwrap(), &[1, 2]);

        // the promoted stream keeps logging durably
        engine2.set_durability(follower.clone());
        engine2
            .ingest("S", &[vec![Value::Int(4), Value::Int(40)]])
            .unwrap();
        assert!(follower.replica_status("S").unwrap().wal_bytes > 0);
    }

    #[test]
    fn epoch_change_truncates_the_replica_wal() {
        let proot = tmp("epoch-p");
        let froot = tmp("epoch-f");
        let engine = DataCell::new();
        let primary = open(&proot);
        engine.set_durability(primary.clone());
        engine.create_stream_persistent("S", &user_schema()).unwrap();
        engine
            .ingest("S", &[vec![Value::Int(1), Value::Int(1)]])
            .unwrap();

        let follower = open(&froot);
        follower.open_replica("S", &user_schema()).unwrap();
        ship_once(&primary, &follower, "S");
        assert!(follower.replica_status("S").unwrap().wal_bytes > 0);

        // the primary seals: epoch bumps, WAL truncates
        engine.flush_stream("S").unwrap();
        engine
            .ingest("S", &[vec![Value::Int(2), Value::Int(2)]])
            .unwrap();
        ship_once(&primary, &follower, "S");
        let fs = follower.replica_status("S").unwrap();
        let ps = primary.replica_status("S").unwrap();
        assert_eq!(fs, ps);
        assert_eq!(fs.segments, 1);

        // promotion sees exactly the primary's surviving state
        let engine2 = DataCell::new();
        let report = follower.promote_replicas(&engine2).unwrap();
        assert_eq!(report.replayed_rows, 1);
        let snap = engine2.basket("S").unwrap().snapshot();
        assert_eq!(snap.column("id").unwrap().ints().unwrap(), &[2]);
    }

    #[test]
    fn apply_wal_rejects_cursor_desync_and_garbage() {
        let froot = tmp("desync-f");
        let follower = open(&froot);
        follower.open_replica("S", &user_schema()).unwrap();
        // wrong offset
        assert!(follower.apply_wal("S", 0, 999, &[]).is_err());
        // non-record-aligned payload
        assert!(follower.apply_wal("S", 0, 0, b"not a wal record").is_err());
        // unknown stream
        assert!(follower.apply_wal("ghost", 0, 0, &[]).is_err());
    }

    #[test]
    fn open_replica_is_idempotent_but_schema_checked() {
        let froot = tmp("idem-f");
        let follower = open(&froot);
        follower.open_replica("S", &user_schema()).unwrap();
        follower.open_replica("S", &user_schema()).unwrap();
        let other = Schema::from_pairs(&[("x", ValueType::Str)]);
        assert!(follower.open_replica("S", &other).is_err());
    }

    #[test]
    fn export_chunk_is_bounded_and_reports_pending_rows() {
        let proot = tmp("cap-p");
        let froot = tmp("cap-f");
        let engine = DataCell::new();
        let primary = open(&proot);
        engine.set_durability(primary.clone());
        engine.create_stream_persistent("S", &user_schema()).unwrap();
        // enough batches that the framed records exceed one chunk
        let wide: Vec<Vec<Value>> = (0..2048)
            .map(|i| vec![Value::Int(i), Value::Int(i)])
            .collect();
        for _ in 0..40 {
            engine.ingest("S", &wide).unwrap();
        }
        let chunk = primary.export_since("S", 0, 0, 0).unwrap();
        if chunk.wal_data.len() < chunk.wal_bytes as usize {
            assert!(chunk.pending_rows > 0, "rows beyond the chunk are counted");
            assert!(chunk.wal_data.len() <= WAL_CHUNK_MAX);
        }
        // chained rounds drain it fully
        let follower = open(&froot);
        follower.open_replica("S", &user_schema()).unwrap();
        loop {
            let c = ship_once(&primary, &follower, "S");
            if c.pending_rows == 0 && c.wal_data.len() == c.wal_bytes as usize - c.wal_from as usize
            {
                break;
            }
        }
        assert_eq!(
            follower.replica_status("S").unwrap(),
            primary.replica_status("S").unwrap()
        );
    }

    #[test]
    fn export_chunk_stops_at_the_first_record_that_does_not_fit() {
        let proot = tmp("align-p");
        let froot = tmp("align-f");
        let engine = DataCell::new();
        let primary = open(&proot);
        engine.set_durability(primary.clone());
        engine.create_stream_persistent("S", &user_schema()).unwrap();
        let batch = |lo: i64, n: i64| -> Vec<Vec<Value>> {
            (lo..lo + n).map(|i| vec![Value::Int(i), Value::Int(i)]).collect()
        };
        let wal_bytes = || primary.replica_status("S").unwrap().wal_bytes as usize;
        // a small record, sized to learn the framed bytes per row
        engine.ingest("S", &batch(0, 1000)).unwrap();
        let first = wal_bytes();
        let big = (WAL_CHUNK_MAX * 6 / 10 / (first / 1000)) as i64;
        // two records of ~0.6 cap each: the second does not fit after the
        // first, but the small record behind it would
        engine.ingest("S", &batch(1000, big)).unwrap();
        let aligned = wal_bytes();
        engine.ingest("S", &batch(1000 + big, big)).unwrap();
        let straddling = wal_bytes();
        engine.ingest("S", &batch(1000 + 2 * big, 100)).unwrap();
        let small = wal_bytes() - straddling;
        assert!(aligned <= WAL_CHUNK_MAX && straddling > WAL_CHUNK_MAX);
        assert!(aligned + small <= WAL_CHUNK_MAX, "the small record alone would fit");

        let chunk = primary.export_since("S", 0, 0, 0).unwrap();
        assert_eq!(chunk.wal_data.len(), aligned, "the chunk ends on a record boundary");
        assert_eq!(chunk.pending_rows, big as u64 + 100, "pending counts every later record");
        // the follower accepts the chunk, and the next round ships the rest
        let follower = open(&froot);
        follower.open_replica("S", &user_schema()).unwrap();
        follower
            .apply_wal("S", chunk.epoch, chunk.wal_from, &chunk.wal_data)
            .unwrap();
        let rest = ship_once(&primary, &follower, "S");
        assert_eq!(rest.pending_rows, 0);
        assert_eq!(
            follower.replica_status("S").unwrap(),
            primary.replica_status("S").unwrap()
        );
    }

    #[test]
    fn orphan_segment_is_gced_and_its_id_never_reused() {
        let root = tmp("orphan");
        {
            let engine = DataCell::new();
            let store = open(&root);
            engine.set_durability(store);
            engine.create_stream_persistent("S", &user_schema()).unwrap();
            engine
                .ingest("S", &[vec![Value::Int(1), Value::Int(1)]])
                .unwrap();
            engine.flush_stream("S").unwrap(); // seg-000001.dcs adopted
            engine
                .ingest("S", &[vec![Value::Int(2), Value::Int(2)]])
                .unwrap();
        }
        // simulate a crash between the segment write and the manifest
        // save: a valid-looking orphan appears with the *next* id, plus
        // a leftover tmp file
        let sdir = root.join("streams/S");
        std::fs::copy(sdir.join("seg-000001.dcs"), sdir.join("seg-000002.dcs")).unwrap();
        std::fs::write(sdir.join("seg-000003.tmp"), b"partial segment write").unwrap();

        let engine = DataCell::new();
        let store = open(&root);
        let report = store.recover_into(&engine).unwrap();
        assert_eq!(report.segments, 1, "orphan not adopted");
        assert_eq!(report.replayed_rows, 1, "wal tail intact");
        assert!(!sdir.join("seg-000002.dcs").exists(), "orphan removed");
        assert!(!sdir.join("seg-000003.tmp").exists(), "tmp litter removed");
        // a fresh seal must skip the orphan's id even though it is gone
        engine.set_durability(store.clone());
        engine
            .ingest("S", &[vec![Value::Int(3), Value::Int(3)]])
            .unwrap();
        engine.flush_stream("S").unwrap();
        let segs = store.stream("S").unwrap().segments();
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[1].file, "seg-000003.dcs", "orphan ids 2 skipped");
    }
}
