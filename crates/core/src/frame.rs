//! Columnar wire frames — the batch-first data-plane codec.
//!
//! The paper keeps the *interchange* format textual (§3.1) but everything
//! inside the kernel is column-at-a-time: baskets are aligned BATs and
//! "tuple reconstruction is positional and free" (§2.1). This module
//! closes the gap on the wire: a [`WireFormat::Binary`] frame ships a
//! whole [`Relation`] column-at-a-time so receptors can append it with a
//! handful of `memcpy`s instead of a parse per field.
//!
//! ## Binary frame layout
//!
//! ```text
//! u8          version            (FRAME_VERSION = 1, FRAME_VERSION_TRACED = 2)
//! u32 LE      payload length     (bytes after this word)
//! payload:
//!   [v2 only] u64 LE batch id + u64 LE origin µs   (16-byte trace header)
//!   varint    column count       (must match the negotiated schema)
//!   varint    row count
//!   per column:
//!     u8      type tag           (0 bool, 1 int, 2 double, 3 str, 4 ts)
//!     u8      null flag          (1 = validity bitmap present)
//!     [nulls] ceil(rows/8) bytes (bit i set = row i is non-NULL, LSB first)
//!     values  bool: 1 byte/row; int/ts/double: 8 bytes LE/row;
//!             str: per row varint byte-length + UTF-8 bytes
//! ```
//!
//! Varints are unsigned LEB128. NULL slots still carry a (zero/empty)
//! payload value so decoding stays branch-light; the bitmap restores
//! them. Empty strings are distinguishable from NULL by construction —
//! no escape convention needed, unlike the text protocol.
//!
//! Frames are self-delimiting: [`decode_frame`] on a partial buffer
//! reports "incomplete" rather than failing, so socket loops with read
//! timeouts can accumulate bytes and drain complete frames as they land.

use std::io::{BufRead, Write};
use std::sync::{Arc, OnceLock};

use monet::bitset::Bitset;
use monet::prelude::*;

use crate::error::{EngineError, Result};
use crate::net;

/// Version byte leading every binary frame.
pub const FRAME_VERSION: u8 = 1;

/// Version byte of a frame carrying a trace header: the payload starts
/// with a 16-byte trace prefix (u64 LE batch id + u64 LE origin
/// timestamp in µs) before the usual column payload. Decoders that
/// understand only [`FRAME_VERSION`] reject these, so tracing is
/// version-gated — untraced frames are byte-identical to v1.
pub const FRAME_VERSION_TRACED: u8 = 2;

/// Bytes of frame header preceding the payload (version + u32 length).
const HEADER_LEN: usize = 5;

/// Bytes of the in-payload trace prefix on a v2 frame.
const TRACE_HEADER_LEN: usize = 16;

/// Upper bound on a frame payload (64 MiB). Decoders reject larger
/// declared lengths before allocating, bounding per-connection memory
/// against malicious or corrupt peers; encoders error instead of
/// producing a frame no receiver would accept. At 8 bytes/value that is
/// ~8M int tuples per frame — far above any sane batch.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// The data-plane encodings a receptor/emitter port can speak.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireFormat {
    /// `|`-separated text lines (§3.1) — the default, wire-compatible
    /// with every existing client.
    #[default]
    Text,
    /// Length-prefixed columnar binary frames (this module).
    Binary,
}

impl WireFormat {
    pub fn as_str(&self) -> &'static str {
        match self {
            WireFormat::Text => "text",
            WireFormat::Binary => "binary",
        }
    }

    /// A fresh codec for this format (owns its scratch buffers).
    pub fn new_codec(&self) -> Box<dyn FrameCodec> {
        match self {
            WireFormat::Text => Box::new(TextCodec::default()),
            WireFormat::Binary => Box::new(BinaryCodec),
        }
    }
}

impl std::fmt::Display for WireFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for WireFormat {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, String> {
        if s.eq_ignore_ascii_case("text") {
            Ok(WireFormat::Text)
        } else if s.eq_ignore_ascii_case("binary") {
            Ok(WireFormat::Binary)
        } else {
            Err(format!("unknown wire format {s:?} (expected TEXT or BINARY)"))
        }
    }
}

// ---- varints ----------------------------------------------------------------

fn varint_len(mut v: u64) -> usize {
    let mut n = 1;
    while v >= 0x80 {
        v >>= 7;
        n += 1;
    }
    n
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Decode one varint; `Ok(None)` when the buffer ends mid-varint.
fn get_varint(bytes: &[u8], pos: usize) -> Result<Option<(u64, usize)>> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    let mut at = pos;
    loop {
        let Some(&b) = bytes.get(at) else {
            return Ok(None);
        };
        at += 1;
        if shift >= 64 {
            return Err(EngineError::Io("varint overflows u64".into()));
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(Some((v, at)));
        }
        shift += 7;
    }
}

// ---- type tags --------------------------------------------------------------

fn type_tag(t: ValueType) -> u8 {
    match t {
        ValueType::Bool => 0,
        ValueType::Int => 1,
        ValueType::Double => 2,
        ValueType::Str => 3,
        ValueType::Ts => 4,
    }
}

fn tag_type(b: u8) -> Result<ValueType> {
    Ok(match b {
        0 => ValueType::Bool,
        1 => ValueType::Int,
        2 => ValueType::Double,
        3 => ValueType::Str,
        4 => ValueType::Ts,
        other => return Err(EngineError::Io(format!("unknown frame type tag {other}"))),
    })
}

// ---- trace header -----------------------------------------------------------

/// The sampled-batch trace carried by a [`FRAME_VERSION_TRACED`] frame:
/// a cluster-unique batch id plus the origin timestamp (µs, on the
/// stamping process's monotonic clock) so every hop can report dwell
/// relative to where the batch entered the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceHeader {
    pub batch: u64,
    pub origin_micros: u64,
}

impl TraceHeader {
    fn write_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.batch.to_le_bytes());
        out.extend_from_slice(&self.origin_micros.to_le_bytes());
    }

    fn read_from(p: &[u8]) -> Result<TraceHeader> {
        if p.len() < TRACE_HEADER_LEN {
            return Err(EngineError::Io(format!(
                "traced frame payload of {} bytes is shorter than the {TRACE_HEADER_LEN}-byte trace header",
                p.len()
            )));
        }
        Ok(TraceHeader {
            batch: u64::from_le_bytes(p[..8].try_into().unwrap()),
            origin_micros: u64::from_le_bytes(p[8..16].try_into().unwrap()),
        })
    }
}

// ---- encoding ---------------------------------------------------------------

/// Exact encoded payload size of `rel` — computed before encoding so an
/// over-limit batch is rejected without allocating its serialization.
fn payload_len_of(rel: &Relation) -> usize {
    let rows = rel.len();
    let mut len = varint_len(rel.width() as u64) + varint_len(rows as u64);
    for c in 0..rel.width() {
        let col = rel.col_at(c);
        len += 2; // type tag + null flag
        if col.validity().is_some() {
            len += rows.div_ceil(8);
        }
        len += match col.data() {
            ColumnData::Bool(_) => rows,
            ColumnData::Int(_) | ColumnData::Ts(_) | ColumnData::Double(_) => rows * 8,
            ColumnData::Str(v) => v
                .iter()
                .map(|s| varint_len(s.len() as u64) + s.len())
                .sum(),
        };
    }
    len
}

/// Append one binary frame carrying `rel` to `out`. Errors (leaving
/// `out` unchanged) when the encoding would exceed [`MAX_FRAME_LEN`] —
/// split the batch instead of producing a frame no receiver accepts.
pub fn encode_frame(out: &mut Vec<u8>, rel: &Relation) -> Result<()> {
    encode_frame_traced(out, rel, None)
}

/// [`encode_frame`] with an optional trace header. `Some(trace)`
/// produces a [`FRAME_VERSION_TRACED`] frame whose payload leads with
/// the 16-byte trace prefix; `None` is byte-identical to a v1 frame.
pub fn encode_frame_traced(out: &mut Vec<u8>, rel: &Relation, trace: Option<&TraceHeader>) -> Result<()> {
    let body_len = payload_len_of(rel);
    let payload_len = body_len + if trace.is_some() { TRACE_HEADER_LEN } else { 0 };
    if payload_len > MAX_FRAME_LEN {
        return Err(frame_too_big(payload_len));
    }
    out.reserve(HEADER_LEN + payload_len);
    out.push(if trace.is_some() { FRAME_VERSION_TRACED } else { FRAME_VERSION });
    out.extend_from_slice(&(payload_len as u32).to_le_bytes());
    let payload_start = out.len();
    if let Some(t) = trace {
        t.write_into(out);
    }

    let rows = rel.len();
    put_varint(out, rel.width() as u64);
    put_varint(out, rows as u64);
    for c in 0..rel.width() {
        let col = rel.col_at(c);
        out.push(type_tag(col.vtype()));
        match col.validity() {
            Some(mask) => {
                out.push(1);
                let mut acc = 0u8;
                for i in 0..rows {
                    if mask.get(i) {
                        acc |= 1 << (i % 8);
                    }
                    if i % 8 == 7 {
                        out.push(acc);
                        acc = 0;
                    }
                }
                if !rows.is_multiple_of(8) {
                    out.push(acc);
                }
            }
            None => out.push(0),
        }
        match col.data() {
            ColumnData::Bool(v) => out.extend(v.iter().map(|&b| b as u8)),
            ColumnData::Int(v) | ColumnData::Ts(v) => {
                for x in v {
                    out.extend_from_slice(&x.to_le_bytes());
                }
            }
            ColumnData::Double(v) => {
                for x in v {
                    out.extend_from_slice(&x.to_le_bytes());
                }
            }
            ColumnData::Str(v) => {
                for s in v {
                    put_varint(out, s.len() as u64);
                    out.extend_from_slice(s.as_bytes());
                }
            }
        }
    }
    debug_assert_eq!(
        out.len() - payload_start,
        payload_len,
        "payload_len_of must match the actual encoding"
    );
    Ok(())
}

/// Encode and write one frame; returns the tuple count.
pub fn write_frame<W: Write>(w: &mut W, rel: &Relation) -> Result<usize> {
    let mut buf = Vec::with_capacity(HEADER_LEN + 16 + rel.len() * rel.width() * 8);
    encode_frame(&mut buf, rel)?;
    w.write_all(&buf)?;
    w.flush()?;
    Ok(rel.len())
}

// ---- decoding ---------------------------------------------------------------

/// Try to decode one frame from the front of `bytes`.
///
/// * `Ok(Some((rel, consumed)))` — a complete frame; `consumed` bytes used.
/// * `Ok(None)` — the buffer holds only a partial frame (or is empty).
/// * `Err(_)` — corrupt stream (bad version/tag/UTF-8/lengths).
pub fn decode_frame(bytes: &[u8], schema: &Schema) -> Result<Option<(Relation, usize)>> {
    let Some((rel, total, _trace)) = decode_frame_traced(bytes, schema)? else {
        return Ok(None);
    };
    Ok(Some((rel, total)))
}

/// [`decode_frame`] additionally surfacing the trace header of a
/// [`FRAME_VERSION_TRACED`] frame (`None` for plain v1 frames).
pub fn decode_frame_traced(
    bytes: &[u8],
    schema: &Schema,
) -> Result<Option<(Relation, usize, Option<TraceHeader>)>> {
    let Some(total) = frame_len(bytes)? else {
        return Ok(None);
    };
    let payload = &bytes[HEADER_LEN..total];
    let trace = if bytes[0] == FRAME_VERSION_TRACED {
        Some(TraceHeader::read_from(payload)?)
    } else {
        None
    };
    let body = if trace.is_some() { &payload[TRACE_HEADER_LEN..] } else { payload };
    let rel = decode_payload(body, schema)?;
    Ok(Some((rel, total, trace)))
}

/// Total byte length (header + payload) of the frame at the front of
/// `bytes`, without decoding it.
///
/// * `Ok(Some(len))` — a complete frame of `len` bytes is buffered.
/// * `Ok(None)` — only a partial frame (or nothing) so far.
/// * `Err(_)` — bad version or over-limit declared length.
///
/// This is the schema-free half of [`decode_frame`]: relays (e.g. the
/// cluster router's emitter merge) use it to peel whole frames off a
/// byte stream and forward them verbatim, never paying a decode.
pub fn frame_len(bytes: &[u8]) -> Result<Option<usize>> {
    let Some(&version) = bytes.first() else {
        return Ok(None);
    };
    if version != FRAME_VERSION && version != FRAME_VERSION_TRACED {
        return Err(EngineError::Io(format!(
            "unsupported frame version {version} (expected {FRAME_VERSION} or {FRAME_VERSION_TRACED})"
        )));
    }
    if bytes.len() < HEADER_LEN {
        return Ok(None);
    }
    let payload_len = u32::from_le_bytes(bytes[1..HEADER_LEN].try_into().unwrap()) as usize;
    if payload_len > MAX_FRAME_LEN {
        return Err(frame_too_big(payload_len));
    }
    let total = HEADER_LEN + payload_len;
    if bytes.len() < total {
        return Ok(None);
    }
    Ok(Some(total))
}

/// Like [`frame_len`], additionally returning the frame's declared row
/// count — decoded from the first two payload varints, without touching
/// the column data. Relays use it to keep tuple counters while
/// forwarding frames verbatim.
pub fn frame_meta(bytes: &[u8]) -> Result<Option<(usize, u64)>> {
    let Some(total) = frame_len(bytes)? else {
        return Ok(None);
    };
    let mut payload = &bytes[HEADER_LEN..total];
    if bytes[0] == FRAME_VERSION_TRACED {
        TraceHeader::read_from(payload)?;
        payload = &payload[TRACE_HEADER_LEN..];
    }
    let truncated = || EngineError::Io("truncated frame payload".into());
    let (_ncols, at) = get_varint(payload, 0)?.ok_or_else(truncated)?;
    let (rows, _) = get_varint(payload, at)?.ok_or_else(truncated)?;
    Ok(Some((total, rows)))
}

fn frame_too_big(len: usize) -> EngineError {
    EngineError::Io(format!(
        "frame payload of {len} bytes exceeds the {MAX_FRAME_LEN}-byte limit"
    ))
}

/// Blocking read of one frame; `Ok(None)` on clean EOF before a frame.
pub fn read_frame<R: BufRead + ?Sized>(r: &mut R, schema: &Schema) -> Result<Option<Relation>> {
    let mut header = [0u8; HEADER_LEN];
    match r.read_exact(&mut header[..1]) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e.into()),
    }
    if header[0] != FRAME_VERSION && header[0] != FRAME_VERSION_TRACED {
        return Err(EngineError::Io(format!(
            "unsupported frame version {} (expected {FRAME_VERSION} or {FRAME_VERSION_TRACED})",
            header[0]
        )));
    }
    r.read_exact(&mut header[1..])?;
    let payload_len = u32::from_le_bytes(header[1..].try_into().unwrap()) as usize;
    if payload_len > MAX_FRAME_LEN {
        return Err(frame_too_big(payload_len));
    }
    let mut payload = vec![0u8; payload_len];
    r.read_exact(&mut payload)?;
    let body = if header[0] == FRAME_VERSION_TRACED {
        TraceHeader::read_from(&payload)?;
        &payload[TRACE_HEADER_LEN..]
    } else {
        &payload[..]
    };
    Ok(Some(decode_payload(body, schema)?))
}

/// Decode a frame payload against the negotiated schema (names come from
/// the schema; types must agree with the frame's tags).
fn decode_payload(p: &[u8], schema: &Schema) -> Result<Relation> {
    let truncated = || EngineError::Io("truncated frame payload".into());
    let (ncols, mut at) = get_varint(p, 0)?.ok_or_else(truncated)?;
    let (rows, next) = get_varint(p, at)?.ok_or_else(truncated)?;
    at = next;
    if ncols as usize != schema.width() {
        return Err(EngineError::Io(format!(
            "frame has {} columns, schema expects {}",
            ncols,
            schema.width()
        )));
    }
    // every encoding spends at least one byte per row per column, so a
    // declared row count beyond the payload size is definitionally
    // corrupt — reject it BEFORE any row-count-sized allocation (an
    // attacker-controlled `Vec::with_capacity(2^50)` aborts the process,
    // it does not return an Err)
    if rows > p.len() as u64 {
        return Err(EngineError::Io(format!(
            "frame declares {rows} rows in a {}-byte payload",
            p.len()
        )));
    }
    let rows = rows as usize;
    let mut cols: Vec<(String, Column)> = Vec::with_capacity(schema.width());
    for field in schema.fields() {
        let &tag = p.get(at).ok_or_else(truncated)?;
        let vtype = tag_type(tag)?;
        if vtype != field.vtype {
            return Err(EngineError::Io(format!(
                "frame column {} is {}, schema expects {}",
                field.name, vtype, field.vtype
            )));
        }
        let &null_flag = p.get(at + 1).ok_or_else(truncated)?;
        at += 2;
        let validity = if null_flag != 0 {
            let nbytes = rows.div_ceil(8);
            let bits = p.get(at..at + nbytes).ok_or_else(truncated)?;
            at += nbytes;
            let mut mask = Bitset::new();
            for i in 0..rows {
                mask.push(bits[i / 8] & (1 << (i % 8)) != 0);
            }
            Some(mask)
        } else {
            None
        };
        let data = match vtype {
            ValueType::Bool => {
                let raw = p.get(at..at + rows).ok_or_else(truncated)?;
                at += rows;
                ColumnData::Bool(raw.iter().map(|&b| b != 0).collect())
            }
            ValueType::Int | ValueType::Ts => {
                let raw = p.get(at..at + rows * 8).ok_or_else(truncated)?;
                at += rows * 8;
                let v: Vec<i64> = raw
                    .chunks_exact(8)
                    .map(|c| i64::from_le_bytes(c.try_into().unwrap()))
                    .collect();
                if vtype == ValueType::Ts {
                    ColumnData::Ts(v)
                } else {
                    ColumnData::Int(v)
                }
            }
            ValueType::Double => {
                let raw = p.get(at..at + rows * 8).ok_or_else(truncated)?;
                at += rows * 8;
                ColumnData::Double(
                    raw.chunks_exact(8)
                        .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
                        .collect(),
                )
            }
            ValueType::Str => {
                // capacity bounded by the bytes actually present (each
                // string costs ≥1 varint byte), not the declared row
                // count — 24-byte String headers would otherwise amplify
                // a hostile row count ~25x before the truncation error
                let mut v = Vec::with_capacity(rows.min(p.len() - at));
                for _ in 0..rows {
                    let (len, next) = get_varint(p, at)?.ok_or_else(truncated)?;
                    at = next;
                    // checked: a huge declared string length must surface
                    // as "truncated", not as an overflow or allocation
                    let len = usize::try_from(len).map_err(|_| truncated())?;
                    let end = at.checked_add(len).ok_or_else(truncated)?;
                    let raw = p.get(at..end).ok_or_else(truncated)?;
                    at = end;
                    v.push(
                        std::str::from_utf8(raw)
                            .map_err(|_| EngineError::Io("frame string is not UTF-8".into()))?
                            .to_string(),
                    );
                }
                ColumnData::Str(v)
            }
        };
        let col = Column::from_parts(data, validity)
            .map_err(|e| EngineError::Io(format!("frame column rebuild: {e}")))?;
        cols.push((field.name.clone(), col));
    }
    if at != p.len() {
        return Err(EngineError::Io(format!(
            "frame payload has {} trailing bytes",
            p.len() - at
        )));
    }
    Relation::from_columns(cols).map_err(|e| EngineError::Io(format!("frame relation: {e}")))
}

// ---- the codec abstraction --------------------------------------------------

/// One wire encoding of `Relation` batches. The text protocol (§3.1) and
/// the binary frame format are the two implementations; emitters encode
/// through this trait so a session's negotiated format is one
/// constructor argument, not a code path. Decoding is per format:
/// [`net::TextBatcher`] for text, [`read_frame`] for binary.
pub trait FrameCodec: Send {
    fn format(&self) -> WireFormat;

    /// Append one encoded frame carrying `rel` to `out`. Scratch space is
    /// owned by the codec, so repeated calls reuse allocations.
    fn encode(&mut self, rel: &Relation, out: &mut Vec<u8>) -> Result<()>;
}

/// The §3.1 textual protocol as a [`FrameCodec`]. One frame = one line
/// per tuple; the whole batch is rendered into a single reused buffer.
#[derive(Default)]
pub struct TextCodec {
    scratch: String,
}

impl FrameCodec for TextCodec {
    fn format(&self) -> WireFormat {
        WireFormat::Text
    }

    fn encode(&mut self, rel: &Relation, out: &mut Vec<u8>) -> Result<()> {
        self.scratch.clear();
        net::encode_batch_text(&mut self.scratch, rel);
        out.extend_from_slice(self.scratch.as_bytes());
        Ok(())
    }
}

/// The binary columnar frame format as a [`FrameCodec`].
#[derive(Default)]
pub struct BinaryCodec;

impl FrameCodec for BinaryCodec {
    fn format(&self) -> WireFormat {
        WireFormat::Binary
    }

    fn encode(&mut self, rel: &Relation, out: &mut Vec<u8>) -> Result<()> {
        encode_frame(out, rel)
    }
}

// ---- encode-once fan-out ----------------------------------------------------

/// A result batch shared across emitter subscribers. Each wire encoding
/// is produced at most once, on first demand, no matter how many
/// subscribers (of either format) deliver the batch.
pub struct SharedFrame {
    rel: Relation,
    text: OnceLock<Arc<Vec<u8>>>,
    /// `None` once encoding failed (batch beyond [`MAX_FRAME_LEN`]).
    binary: OnceLock<Option<Arc<Vec<u8>>>>,
}

impl SharedFrame {
    pub fn new(rel: Relation) -> Arc<SharedFrame> {
        Arc::new(SharedFrame {
            rel,
            text: OnceLock::new(),
            binary: OnceLock::new(),
        })
    }

    pub fn relation(&self) -> &Relation {
        &self.rel
    }

    /// Tuples in the batch.
    pub fn len(&self) -> usize {
        self.rel.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rel.is_empty()
    }

    /// The encoded frame for `format`, encoding on first use only.
    /// Errors when a batch cannot be framed (binary, beyond
    /// [`MAX_FRAME_LEN`]); the error repeats on every call.
    pub fn bytes(&self, format: WireFormat) -> Result<Arc<Vec<u8>>> {
        match format {
            WireFormat::Text => Ok(Arc::clone(self.text.get_or_init(|| {
                let mut s = String::new();
                net::encode_batch_text(&mut s, &self.rel);
                Arc::new(s.into_bytes())
            }))),
            WireFormat::Binary => self
                .binary
                .get_or_init(|| {
                    let mut buf = Vec::new();
                    encode_frame(&mut buf, &self.rel).ok()?;
                    Some(Arc::new(buf))
                })
                .clone()
                .ok_or_else(|| {
                    EngineError::Io("result batch exceeds the binary frame size limit".into())
                }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Relation {
        let mut rel = Relation::from_columns(vec![
            ("id".into(), Column::from_ints(vec![1, -2, 3])),
            (
                "name".into(),
                Column::from_strs(vec!["a|b".into(), String::new(), "☂ line\n2".into()]),
            ),
            ("score".into(), Column::from_doubles(vec![0.5, -1.25, 3.0])),
            ("ok".into(), Column::from_bools(vec![true, false, true])),
            ("at".into(), Column::from_ts(vec![10, 20, 30])),
        ])
        .unwrap();
        rel.append_row(&[Value::Null, Value::Null, Value::Null, Value::Null, Value::Null])
            .unwrap();
        rel
    }

    #[test]
    fn binary_roundtrip_all_types_and_nulls() {
        let rel = sample();
        let mut buf = Vec::new();
        encode_frame(&mut buf, &rel).unwrap();
        let (back, used) = decode_frame(&buf, &rel.schema()).unwrap().unwrap();
        assert_eq!(used, buf.len());
        assert_eq!(back, rel);
    }

    #[test]
    fn empty_batch_roundtrip() {
        let schema = Schema::from_pairs(&[("a", ValueType::Int), ("s", ValueType::Str)]);
        let rel = Relation::new(&schema);
        let mut buf = Vec::new();
        encode_frame(&mut buf, &rel).unwrap();
        let (back, used) = decode_frame(&buf, &schema).unwrap().unwrap();
        assert_eq!(used, buf.len());
        assert!(back.is_empty());
        assert_eq!(back.schema(), schema);
    }

    #[test]
    fn partial_buffers_report_incomplete() {
        let rel = sample();
        let mut buf = Vec::new();
        encode_frame(&mut buf, &rel).unwrap();
        let schema = rel.schema();
        for cut in 0..buf.len() {
            assert!(
                decode_frame(&buf[..cut], &schema).unwrap().is_none(),
                "prefix of {cut} bytes must be incomplete"
            );
        }
    }

    #[test]
    fn back_to_back_frames_decode_in_order() {
        let a = sample();
        let schema = a.schema();
        let b = Relation::new(&schema);
        let mut buf = Vec::new();
        encode_frame(&mut buf, &a).unwrap();
        encode_frame(&mut buf, &b).unwrap();
        let (first, used) = decode_frame(&buf, &schema).unwrap().unwrap();
        assert_eq!(first, a);
        let (second, used2) = decode_frame(&buf[used..], &schema).unwrap().unwrap();
        assert!(second.is_empty());
        assert_eq!(used + used2, buf.len());
    }

    #[test]
    fn frame_len_peels_without_schema() {
        let rel = sample();
        let mut buf = Vec::new();
        encode_frame(&mut buf, &rel).unwrap();
        encode_frame(&mut buf, &rel).unwrap();
        let first = frame_len(&buf).unwrap().unwrap();
        assert_eq!(frame_len(&buf[first..]).unwrap().unwrap(), buf.len() - first);
        for cut in 0..first {
            assert!(frame_len(&buf[..cut]).unwrap().is_none());
        }
        let mut bad = buf.clone();
        bad[0] = 99;
        assert!(frame_len(&bad).is_err());
        let mut huge = vec![FRAME_VERSION];
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(frame_len(&huge).is_err());
        // frame_meta reports (total, rows) without a schema
        let (total, rows) = frame_meta(&buf).unwrap().unwrap();
        assert_eq!(total, first);
        assert_eq!(rows, rel.len() as u64);
        assert!(frame_meta(&buf[..3]).unwrap().is_none());
    }

    #[test]
    fn version_and_type_mismatches_are_errors() {
        let rel = sample();
        let schema = rel.schema();
        let mut buf = Vec::new();
        encode_frame(&mut buf, &rel).unwrap();
        let mut bad = buf.clone();
        bad[0] = 99;
        assert!(decode_frame(&bad, &schema).is_err());
        let wrong = Schema::from_pairs(&[
            ("id", ValueType::Str),
            ("name", ValueType::Str),
            ("score", ValueType::Double),
            ("ok", ValueType::Bool),
            ("at", ValueType::Ts),
        ]);
        assert!(decode_frame(&buf, &wrong).is_err());
        let narrow = Schema::from_pairs(&[("id", ValueType::Int)]);
        assert!(decode_frame(&buf, &narrow).is_err());
    }

    #[test]
    fn hostile_row_count_is_an_error_not_an_abort() {
        // a ~20-byte frame declaring 2^50 rows must surface as Err — a
        // row-count-sized allocation would abort the whole process
        let schema = Schema::from_pairs(&[("s", ValueType::Str)]);
        let mut frame = vec![FRAME_VERSION];
        let mut payload = Vec::new();
        super::put_varint(&mut payload, 1); // ncols
        super::put_varint(&mut payload, 1 << 50); // rows
        payload.push(3); // tag: Str
        payload.push(0); // no nulls
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&payload);
        assert!(decode_frame(&frame, &schema).is_err());

        // same for a hostile per-string length
        let mut payload = Vec::new();
        super::put_varint(&mut payload, 1); // ncols
        super::put_varint(&mut payload, 1); // rows
        payload.push(3); // tag: Str
        payload.push(0); // no nulls
        super::put_varint(&mut payload, u64::MAX); // string "length"
        let mut frame = vec![FRAME_VERSION];
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&payload);
        assert!(decode_frame(&frame, &schema).is_err());
    }

    #[test]
    fn traced_frame_roundtrips_and_stays_self_delimiting() {
        let rel = sample();
        let schema = rel.schema();
        let trace = TraceHeader { batch: 0xDEAD_BEEF_CAFE, origin_micros: 123_456_789 };
        let mut buf = Vec::new();
        encode_frame_traced(&mut buf, &rel, Some(&trace)).unwrap();
        assert_eq!(buf[0], FRAME_VERSION_TRACED);

        // traced decode surfaces the header; plain decode ignores it
        let (back, used, got) = decode_frame_traced(&buf, &schema).unwrap().unwrap();
        assert_eq!(used, buf.len());
        assert_eq!(back, rel);
        assert_eq!(got, Some(trace));
        let (back2, used2) = decode_frame(&buf, &schema).unwrap().unwrap();
        assert_eq!((back2, used2), (rel.clone(), buf.len()));

        // schema-free peeling skips the trace prefix
        assert_eq!(frame_len(&buf).unwrap().unwrap(), buf.len());
        let (total, rows) = frame_meta(&buf).unwrap().unwrap();
        assert_eq!((total, rows), (buf.len(), rel.len() as u64));

        // still self-delimiting: every proper prefix is incomplete
        for cut in 0..buf.len() {
            assert!(decode_frame_traced(&buf[..cut], &schema).unwrap().is_none());
        }

        // blocking reader accepts v2 frames too
        let mut r = std::io::BufReader::new(&buf[..]);
        assert_eq!(read_frame(&mut r, &schema).unwrap().unwrap(), rel);

        // an untraced encode through the traced entry point is a byte-
        // identical v1 frame
        let mut plain = Vec::new();
        encode_frame_traced(&mut plain, &rel, None).unwrap();
        let mut v1 = Vec::new();
        encode_frame(&mut v1, &rel).unwrap();
        assert_eq!(plain, v1);
        let (_, _, none) = decode_frame_traced(&v1, &schema).unwrap().unwrap();
        assert!(none.is_none());
    }

    #[test]
    fn traced_frame_shorter_than_trace_header_is_an_error() {
        let schema = Schema::from_pairs(&[("a", ValueType::Int)]);
        let mut frame = vec![FRAME_VERSION_TRACED];
        frame.extend_from_slice(&8u32.to_le_bytes());
        frame.extend_from_slice(&[0u8; 8]); // 8-byte payload < 16-byte trace header
        assert!(decode_frame_traced(&frame, &schema).is_err());
        assert!(frame_meta(&frame).is_err());
    }

    #[test]
    fn oversized_declared_payload_is_rejected_before_allocation() {
        let schema = Schema::from_pairs(&[("a", ValueType::Int)]);
        let mut frame = vec![FRAME_VERSION];
        frame.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_frame(&frame, &schema).is_err());
        let mut r = std::io::BufReader::new(&frame[..]);
        assert!(read_frame(&mut r, &schema).is_err());
    }

    #[test]
    fn stream_read_write_roundtrip() {
        let rel = sample();
        let schema = rel.schema();
        let mut wire = Vec::new();
        write_frame(&mut wire, &rel).unwrap();
        write_frame(&mut wire, &rel).unwrap();
        let mut r = std::io::BufReader::new(&wire[..]);
        assert_eq!(read_frame(&mut r, &schema).unwrap().unwrap(), rel);
        assert_eq!(read_frame(&mut r, &schema).unwrap().unwrap(), rel);
        assert!(read_frame(&mut r, &schema).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn codecs_roundtrip_equivalently() {
        let rel = sample();
        let schema = rel.schema();
        for format in [WireFormat::Text, WireFormat::Binary] {
            let mut codec = format.new_codec();
            let mut wire = Vec::new();
            codec.encode(&rel, &mut wire).unwrap();
            // decoded the way a receptor reads each format
            let back = match format {
                WireFormat::Text => read_text(&wire, &schema),
                WireFormat::Binary => {
                    let mut r = std::io::BufReader::new(&wire[..]);
                    let back = read_frame(&mut r, &schema).unwrap().unwrap();
                    assert!(read_frame(&mut r, &schema).unwrap().is_none());
                    back
                }
            };
            assert_eq!(back, rel, "{format} codec must round-trip");
        }
    }

    /// Every row of text wire bytes, decoded through a
    /// [`net::TextBatcher`] on a loopback socket; no line may be rejected.
    fn read_text(wire: &[u8], schema: &Schema) -> Relation {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let wire = wire.to_vec();
        let writer = std::thread::spawn(move || peer.write_all(&wire));
        let mut batcher = net::TextBatcher::new(listener.accept().unwrap().0, schema.clone());
        let rejected = net::Rejects::default();
        let mut rows = Relation::new(schema);
        while let Some(batch) = batcher.next_batch(&rejected, || false) {
            rows.append_relation(&batch.rows).unwrap();
        }
        writer.join().unwrap().unwrap();
        assert_eq!(rejected.total(), 0);
        rows
    }

    #[test]
    fn shared_frame_encodes_once_per_format() {
        let frame = SharedFrame::new(sample());
        let t1 = frame.bytes(WireFormat::Text).unwrap();
        let t2 = frame.bytes(WireFormat::Text).unwrap();
        assert!(Arc::ptr_eq(&t1, &t2), "text encoded exactly once");
        let b1 = frame.bytes(WireFormat::Binary).unwrap();
        let b2 = frame.bytes(WireFormat::Binary).unwrap();
        assert!(Arc::ptr_eq(&b1, &b2), "binary encoded exactly once");
        assert_ne!(t1.as_slice(), b1.as_slice());
        let (rel, _) = decode_frame(&b1, &frame.relation().schema()).unwrap().unwrap();
        assert_eq!(&rel, frame.relation());
    }

    #[test]
    fn wire_format_parse_and_display() {
        assert_eq!("TEXT".parse::<WireFormat>().unwrap(), WireFormat::Text);
        assert_eq!("binary".parse::<WireFormat>().unwrap(), WireFormat::Binary);
        assert!("csv".parse::<WireFormat>().is_err());
        assert_eq!(WireFormat::Binary.to_string(), "binary");
        assert_eq!(WireFormat::default(), WireFormat::Text);
    }
}
