//! Text wire protocol for receptors/emitters.
//!
//! "The interchange format between the various components is purposely
//! kept simple using a textual interface for exchanging flat relational
//! tuples" (§3.1). Tuples travel as `|`-separated lines; NULL is the empty
//! field. [`LineReader`] frames such lines off a socket with a length
//! cap, and [`TextBatcher`] collects them into bounded-delay batches for
//! every text receptor (engine, router, in-process). [`Listener`] is the
//! one accept loop behind every port the daemons listen on.

use std::io::{BufRead, BufReader, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use monet::prelude::*;

use crate::error::{EngineError, Result};

/// Escape one string field onto a wire buffer.
fn escape_str_into(out: &mut String, s: &str) {
    if s.is_empty() {
        // an empty field means NULL on the wire, so the empty string
        // needs an explicit escape to stay distinguishable
        out.push_str("\\e");
        return;
    }
    // escape the separator and newlines
    for c in s.chars() {
        match c {
            '|' => out.push_str("\\p"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\\' => out.push_str("\\\\"),
            other => out.push(other),
        }
    }
}

/// Render one tuple onto an existing buffer (no trailing newline).
pub fn format_row_into(out: &mut String, row: &[Value]) {
    use std::fmt::Write as _;
    for (i, v) in row.iter().enumerate() {
        if i > 0 {
            out.push('|');
        }
        match v {
            Value::Null => {}
            Value::Str(s) => escape_str_into(out, s),
            other => {
                let _ = write!(out, "{other}");
            }
        }
    }
}

/// Render one tuple as a wire line (no trailing newline).
pub fn format_row(row: &[Value]) -> String {
    let mut out = String::new();
    format_row_into(&mut out, row);
    out
}

/// Render a whole batch into `out`, one line per tuple, reading the
/// columns directly — no per-row `Vec<Value>` materialization and no
/// per-row `String`. This is the hot path of every text emitter.
pub fn encode_batch_text(out: &mut String, rel: &Relation) {
    use std::fmt::Write as _;
    for i in 0..rel.len() {
        for c in 0..rel.width() {
            if c > 0 {
                out.push('|');
            }
            let col = rel.col_at(c);
            if !col.is_valid(i) {
                continue; // NULL is the empty field
            }
            match col.data() {
                ColumnData::Bool(v) => {
                    let _ = write!(out, "{}", v[i]);
                }
                ColumnData::Int(v) | ColumnData::Ts(v) => {
                    let _ = write!(out, "{}", v[i]);
                }
                ColumnData::Double(v) => {
                    let _ = write!(out, "{}", v[i]);
                }
                ColumnData::Str(v) => escape_str_into(out, &v[i]),
            }
        }
        out.push('\n');
    }
}

/// Decode one wire line read as raw bytes up to and including its `\n`.
/// UTF-8 is checked only here, on a complete line, so a multi-byte
/// character split across two socket reads is never seen in halves.
/// `None` means the line is not valid UTF-8.
pub fn decode_line(line: &[u8]) -> Option<&str> {
    std::str::from_utf8(line)
        .ok()
        .map(|s| s.trim_end_matches(['\n', '\r']))
}

/// How long a blocking socket read waits before its caller re-checks
/// the stop flag, how long a text batch's first row waits at most
/// before [`TextBatcher`] hands the batch over, and how long an accept
/// loop backs off after a failed `accept`.
pub const POLL_INTERVAL: Duration = Duration::from_millis(20);

/// [`TextBatcher`] hands a batch over once it holds this many rows.
pub const TEXT_BATCH_ROWS: usize = 4096;

/// Longest line, in bytes before its `\n`, a [`LineReader`] buffers. A
/// longer line is reported once as [`LineEvent::TooLong`] and its bytes
/// up to the next `\n` are discarded, so a peer cannot grow one line
/// until the process runs out of memory.
pub const MAX_LINE_LEN: usize = 1 << 20;

/// What [`LineReader`] found next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineEvent {
    /// A complete line is in [`LineReader::line`], `\n` included (EOF
    /// may cut the last line short).
    Line,
    /// A line grew past [`MAX_LINE_LEN`]; the rest of it is discarded.
    TooLong,
    /// The socket read timed out before a line completed. The bytes of
    /// a partial line are kept for the next read.
    Idle,
    /// The peer closed the connection or the socket failed.
    Closed,
}

/// `\n`-framed reader over a socket, capped at [`MAX_LINE_LEN`] bytes
/// per line. It deals in raw bytes: UTF-8 is checked by [`decode_line`]
/// on a complete line, so a character split across reads stays whole.
pub struct LineReader {
    reader: BufReader<TcpStream>,
    line: Vec<u8>,
    /// `line` was reported; clear it before collecting the next one.
    taken: bool,
    /// Discarding the rest of an over-long line up to its `\n`.
    skipping: bool,
    /// The socket reached EOF or failed.
    closed: bool,
    /// The read timeout armed on the socket.
    timeout: Duration,
}

impl LineReader {
    /// Frame lines off `sock`, arming a [`POLL_INTERVAL`] read timeout.
    pub fn new(sock: TcpStream) -> LineReader {
        let _ = sock.set_read_timeout(Some(POLL_INTERVAL));
        LineReader {
            reader: BufReader::new(sock),
            line: Vec::new(),
            taken: false,
            skipping: false,
            closed: false,
            timeout: POLL_INTERVAL,
        }
    }

    /// The line the last [`LineEvent::Line`] reported.
    pub fn line(&self) -> &[u8] {
        &self.line
    }

    /// Block until the next event, waiting at most [`POLL_INTERVAL`] on
    /// the socket.
    pub fn next_line(&mut self) -> LineEvent {
        loop {
            if let Some(event) = self.take_line() {
                return event;
            }
            if self.closed {
                return LineEvent::Closed;
            }
            if !self.fill(POLL_INTERVAL) {
                return LineEvent::Idle;
            }
        }
    }

    /// The next event from bytes already buffered, without touching the
    /// socket; `None` once the buffer is drained.
    fn take_line(&mut self) -> Option<LineEvent> {
        if self.taken {
            self.line.clear();
            self.taken = false;
        }
        loop {
            let buf = self.reader.buffer();
            if buf.is_empty() {
                // EOF cut the last line short: it still counts
                if self.closed && !self.line.is_empty() {
                    self.taken = true;
                    return Some(LineEvent::Line);
                }
                return None;
            }
            let newline = buf.iter().position(|&b| b == b'\n');
            let len = newline.unwrap_or(buf.len());
            let used = newline.map_or(buf.len(), |i| i + 1);
            if self.skipping {
                self.skipping = newline.is_none();
            } else if self.line.len() + len > MAX_LINE_LEN {
                self.line.clear();
                self.skipping = newline.is_none();
                self.reader.consume(used);
                return Some(LineEvent::TooLong);
            } else {
                self.line.extend_from_slice(&buf[..used]);
                if newline.is_some() {
                    self.reader.consume(used);
                    self.taken = true;
                    return Some(LineEvent::Line);
                }
            }
            self.reader.consume(used);
        }
    }

    /// One socket read into the drained buffer, waiting at most
    /// `timeout` (non-zero). `false` means the read timed out; EOF and
    /// socket errors mark the reader closed (an error also drops the
    /// partial line, which may be torn).
    fn fill(&mut self, timeout: Duration) -> bool {
        if timeout != self.timeout {
            let _ = self.reader.get_ref().set_read_timeout(Some(timeout));
            self.timeout = timeout;
        }
        match self.reader.fill_buf() {
            Ok([]) => self.closed = true,
            Ok(_) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return false
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => {
                self.closed = true;
                self.line.clear();
                self.skipping = false;
            }
        }
        true
    }
}

/// Why a text line was discarded: the `reason` label of
/// `dc_rejected_rows_total{stream,reason}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The line is not valid UTF-8.
    Utf8,
    /// The line does not parse as a row of the stream's schema.
    Parse,
    /// The line is longer than [`MAX_LINE_LEN`].
    TooLong,
}

impl RejectReason {
    const ALL: [RejectReason; 3] = [
        RejectReason::Utf8,
        RejectReason::Parse,
        RejectReason::TooLong,
    ];

    pub fn label(self) -> &'static str {
        match self {
            RejectReason::Utf8 => "utf8",
            RejectReason::Parse => "parse",
            RejectReason::TooLong => "too_long",
        }
    }
}

/// Rows one ingest port discarded: the total STATS reports as
/// `rejected`, and for text lines one
/// `dc_rejected_rows_total{stream,reason}` counter per [`RejectReason`]
/// when the port was built with [`Rejects::labelled`] on enabled
/// telemetry.
#[derive(Default)]
pub struct Rejects {
    total: AtomicU64,
    by_reason: Option<[Arc<AtomicU64>; 3]>,
}

impl Rejects {
    /// Register the per-reason counters of `stream` on `t` (none when
    /// telemetry is disabled).
    pub fn labelled(t: &dctrace::Telemetry, stream: &str) -> Rejects {
        let by_reason = t.is_enabled().then(|| {
            RejectReason::ALL.map(|r| {
                t.counter(
                    "dc_rejected_rows_total",
                    &[("stream", stream), ("reason", r.label())],
                )
                .expect("telemetry is enabled")
            })
        });
        Rejects {
            total: AtomicU64::new(0),
            by_reason,
        }
    }

    /// Count one discarded line under `reason`.
    pub fn note(&self, reason: RejectReason) {
        self.total.fetch_add(1, Ordering::AcqRel);
        if let Some(by_reason) = &self.by_reason {
            by_reason[reason as usize].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Count `n` rows discarded for no line-level reason (the basket
    /// refused them, or a binary frame was corrupt).
    pub fn add(&self, n: u64) {
        self.total.fetch_add(n, Ordering::AcqRel);
    }

    /// Every row counted so far.
    pub fn total(&self) -> u64 {
        self.total.load(Ordering::Acquire)
    }
}

/// One batch handed over by [`TextBatcher`].
pub struct TextBatch {
    /// The parsed rows, in the user schema the batcher was built with.
    pub rows: Relation,
    /// How long the batch's first row waited for the hand-off.
    pub waited: Duration,
}

/// Collects §3.1 text rows off a socket into columnar batches. A batch
/// is handed over at the first of: [`TEXT_BATCH_ROWS`] rows; its first
/// row having waited [`POLL_INTERVAL`]; the read going idle; EOF. The
/// deadline bounds how long a row sits in the receptor under a trickle
/// that never lets the read time out.
pub struct TextBatcher {
    lines: LineReader,
    schema: Schema,
    rows: Relation,
    /// When the batch's first row arrived; `Some` iff `rows` is not
    /// empty.
    first_row: Option<Instant>,
    /// Arrival time of the buffered bytes: when the last socket read
    /// with no batch open returned, or the last hand-off happened.
    arrived: Instant,
}

impl TextBatcher {
    /// Batch rows of `schema` (user columns only) read off `sock`.
    pub fn new(sock: TcpStream, schema: Schema) -> TextBatcher {
        TextBatcher {
            lines: LineReader::new(sock),
            rows: Relation::new(&schema),
            schema,
            first_row: None,
            arrived: Instant::now(),
        }
    }

    /// The next batch. `None` once the peer closed and every row was
    /// handed over, or when `stop` holds while the socket is idle. Each
    /// malformed, non-UTF-8 or over-long line is noted in `rejected`
    /// under its reason as soon as it is read.
    pub fn next_batch(&mut self, rejected: &Rejects, stop: impl Fn() -> bool) -> Option<TextBatch> {
        loop {
            while let Some(event) = self.lines.take_line() {
                let pushed = match event {
                    LineEvent::Line => self.push_line(),
                    _ => Err(RejectReason::TooLong),
                };
                if let Err(reason) = pushed {
                    rejected.note(reason);
                }
                if self.rows.len() >= TEXT_BATCH_ROWS {
                    return self.hand_over();
                }
            }
            if self.lines.closed {
                return self.hand_over();
            }
            // the buffer is drained: one clock read per socket read
            // checks the deadline and arms the read timeout with the
            // time left, so a sender that goes quiet mid-batch is
            // flushed on time too
            let timeout = match self.first_row {
                None => POLL_INTERVAL,
                Some(first) => {
                    let left = (first + POLL_INTERVAL).saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return self.hand_over();
                    }
                    left
                }
            };
            if self.lines.fill(timeout) {
                if self.first_row.is_none() {
                    self.arrived = Instant::now();
                }
            } else if self.first_row.is_some() {
                return self.hand_over();
            } else if stop() {
                return None;
            }
        }
    }

    /// Parse the line just read into the batch, or say why it is
    /// rejected. Empty lines are skipped, not rejected.
    fn push_line(&mut self) -> std::result::Result<(), RejectReason> {
        let row = match decode_line(self.lines.line()) {
            Some("") => return Ok(()),
            Some(text) => parse_row(text, &self.schema).map_err(|_| RejectReason::Parse)?,
            None => return Err(RejectReason::Utf8),
        };
        self.rows
            .append_row(&row)
            .map_err(|_| RejectReason::Parse)?;
        self.first_row.get_or_insert(self.arrived);
        Ok(())
    }

    /// Hand the open batch over (`None` if it is empty).
    fn hand_over(&mut self) -> Option<TextBatch> {
        let first = self.first_row.take()?;
        let now = Instant::now();
        // rows still buffered arrived no later than now
        self.arrived = now;
        let rows = std::mem::replace(&mut self.rows, Relation::new(&self.schema));
        Some(TextBatch {
            rows,
            waited: now - first,
        })
    }
}

/// Parse one wire line against a schema (user columns only).
pub fn parse_row(line: &str, schema: &Schema) -> Result<Vec<Value>> {
    let fields: Vec<&str> = line.split('|').collect();
    if fields.len() != schema.width() {
        return Err(EngineError::Io(format!(
            "wire row has {} fields, schema expects {}",
            fields.len(),
            schema.width()
        )));
    }
    let mut row = Vec::with_capacity(fields.len());
    for (raw, field) in fields.iter().zip(schema.fields()) {
        if raw.is_empty() {
            row.push(Value::Null);
            continue;
        }
        let v = match field.vtype {
            ValueType::Int => Value::Int(raw.parse().map_err(|_| bad(raw, "int"))?),
            ValueType::Ts => Value::Ts(raw.parse().map_err(|_| bad(raw, "timestamp"))?),
            ValueType::Double => Value::Double(raw.parse().map_err(|_| bad(raw, "double"))?),
            ValueType::Bool => Value::Bool(raw.parse().map_err(|_| bad(raw, "bool"))?),
            ValueType::Str => Value::Str(unescape(raw)),
        };
        row.push(v);
    }
    Ok(row)
}

fn bad(raw: &str, ty: &str) -> EngineError {
    EngineError::Io(format!("cannot parse {raw:?} as {ty}"))
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('p') => out.push('|'),
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                Some('e') => {} // explicit empty string
                Some('\\') => out.push('\\'),
                Some(other) => {
                    out.push('\\');
                    out.push(other);
                }
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// Write a batch of rows to a writer, one line per tuple. The whole
/// batch is rendered into a single buffer and written with one call.
pub fn write_batch<W: Write>(w: &mut W, rel: &Relation) -> Result<usize> {
    let mut buf = String::new();
    encode_batch_text(&mut buf, rel);
    w.write_all(buf.as_bytes())?;
    w.flush()?;
    Ok(rel.len())
}

/// Read one `\n`-terminated line of `r` into `line` (cleared first),
/// refusing to buffer more than [`MAX_LINE_LEN`] bytes before the `\n`.
/// Returns the bytes read, 0 at EOF (a line cut short by EOF is
/// returned without its `\n`). For readers of replies from a peer
/// that should know better: an over-long line is an `InvalidData`
/// error, and the reader is then mid-line.
pub fn read_line_capped<R: BufRead>(r: &mut R, line: &mut Vec<u8>) -> std::io::Result<usize> {
    line.clear();
    loop {
        let buf = match r.fill_buf() {
            Ok(buf) => buf,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if buf.is_empty() {
            return Ok(line.len());
        }
        let newline = buf.iter().position(|&b| b == b'\n');
        if line.len() + newline.unwrap_or(buf.len()) > MAX_LINE_LEN {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("line longer than {MAX_LINE_LEN} bytes"),
            ));
        }
        let used = newline.map_or(buf.len(), |i| i + 1);
        line.extend_from_slice(&buf[..used]);
        r.consume(used);
        if newline.is_some() {
            return Ok(line.len());
        }
    }
}

/// A listening port served by one blocking accept loop
/// ([`Listener::serve`]): a connection is handed over the moment it
/// arrives. Its [`PortCloser`] ends the loop from any thread.
pub struct Listener {
    inner: TcpListener,
    closer: Arc<PortCloser>,
}

/// The close switch of one [`Listener`].
pub struct PortCloser {
    closed: AtomicBool,
    /// Where the wake connection goes: the bound address, an
    /// unspecified IP (`0.0.0.0`, `::`) replaced by loopback of its
    /// family.
    wake: SocketAddr,
}

/// Bound on each step of [`PortCloser::close`]: the wake connect, and
/// the wait for the accept loop to release the port.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

impl Listener {
    pub fn bind(addr: impl ToSocketAddrs) -> std::io::Result<Listener> {
        let inner = TcpListener::bind(addr)?;
        let mut wake = inner.local_addr()?;
        if wake.ip().is_unspecified() {
            wake.set_ip(if wake.is_ipv4() {
                Ipv4Addr::LOCALHOST.into()
            } else {
                Ipv6Addr::LOCALHOST.into()
            });
        }
        let closed = AtomicBool::new(false);
        let closer = Arc::new(PortCloser { closed, wake });
        Ok(Listener { inner, closer })
    }

    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.inner.local_addr()
    }

    pub fn closer(&self) -> Arc<PortCloser> {
        Arc::clone(&self.closer)
    }

    /// Accept connections and hand each to `on_conn` until the port is
    /// closed, then release it. A failed `accept` (EMFILE,
    /// ECONNABORTED, ...) backs off [`POLL_INTERVAL`] and retries: it
    /// must not end the port.
    pub fn serve(self, mut on_conn: impl FnMut(TcpStream, SocketAddr)) {
        let wake = loop {
            match self.inner.accept() {
                // the wake connection, or a peer racing the close
                Ok((sock, _)) if self.closer.is_closed() => break Some(sock),
                Ok((sock, peer)) => on_conn(sock, peer),
                Err(_) if self.closer.is_closed() => break None,
                Err(_) => std::thread::sleep(POLL_INTERVAL),
            }
        };
        // release the port before the closer sees its connection end
        drop(self.inner);
        drop(wake);
    }

    /// [`Listener::serve`] with one thread per connection, named `name`,
    /// running `handle`. Returns once the port is closed and every
    /// connection thread has ended.
    pub fn serve_each<F>(self, name: &str, handle: F)
    where
        F: Fn(TcpStream, SocketAddr) + Sync,
    {
        let handle = &handle;
        std::thread::scope(|scope| {
            self.serve(|sock, peer| {
                std::thread::Builder::new()
                    .name(name.to_string())
                    .spawn_scoped(scope, move || handle(sock, peer))
                    .expect("spawn connection thread");
            })
        });
    }
}

impl PortCloser {
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Close the port: set the flag, wake the blocked `accept` with a
    /// self-connect, and wait until the loop has released the port, so
    /// the same port can be bound again at once. `false` if it was
    /// already closed.
    pub fn close(&self) -> bool {
        if self.closed.swap(true, Ordering::AcqRel) {
            return false;
        }
        // the loop checks the flag after every accept; this connection
        // ends (EOF, or a reset from the closed backlog) once the
        // listener is gone
        if let Ok(mut wake) = TcpStream::connect_timeout(&self.wake, WAKE_TIMEOUT) {
            let _ = wake.set_read_timeout(Some(WAKE_TIMEOUT));
            let _ = std::io::Read::read(&mut wake, &mut [0]);
        }
        true
    }
}

/// One daemon's stop switch. [`Shutdown::request`] sets the flag, wakes
/// every [`Shutdown::sleep`] and closes every listener handed to
/// [`Shutdown::watch`]; a listener watched after that is closed at once,
/// so no accept loop outlives a shutdown.
#[derive(Default)]
pub struct Shutdown {
    requested: AtomicBool,
    /// Listeners still to close; taken by the request.
    listeners: Mutex<Vec<Arc<PortCloser>>>,
    woken: Condvar,
}

impl Shutdown {
    pub fn is_requested(&self) -> bool {
        self.requested.load(Ordering::Acquire)
    }

    /// Request the stop (idempotent).
    pub fn request(&self) {
        let listeners = {
            let mut listeners = self.listeners.lock().expect("shutdown state poisoned");
            self.requested.store(true, Ordering::Release);
            std::mem::take(&mut *listeners)
        };
        self.woken.notify_all();
        for closer in listeners {
            closer.close();
        }
    }

    /// Close `closer` on the stop. Call it once the listener's accept
    /// loop runs: closing waits for the loop (a loop not yet running
    /// costs the closer [`WAKE_TIMEOUT`]).
    pub fn watch(&self, closer: Arc<PortCloser>) {
        let mut listeners = self.listeners.lock().expect("shutdown state poisoned");
        if self.is_requested() {
            drop(listeners);
            closer.close();
            return;
        }
        listeners.retain(|c| !c.is_closed());
        listeners.push(closer);
    }

    /// Sleep for `d`, less if the stop is requested first; `false` once
    /// it is.
    pub fn sleep(&self, d: Duration) -> bool {
        let listeners = self.listeners.lock().expect("shutdown state poisoned");
        let _ = self
            .woken
            .wait_timeout_while(listeners, d, |_| !self.is_requested());
        !self.is_requested()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::from_pairs(&[
            ("ts", ValueType::Ts),
            ("id", ValueType::Int),
            ("score", ValueType::Double),
            ("name", ValueType::Str),
            ("ok", ValueType::Bool),
        ])
    }

    #[test]
    fn roundtrip_all_types() {
        let row = vec![
            Value::Ts(123456),
            Value::Int(-9),
            Value::Double(2.5),
            Value::Str("hello world".into()),
            Value::Bool(true),
        ];
        let line = format_row(&row);
        let back = parse_row(&line, &schema()).unwrap();
        assert_eq!(back, row);
    }

    #[test]
    fn null_roundtrip() {
        let row = vec![
            Value::Null,
            Value::Int(1),
            Value::Null,
            Value::Null,
            Value::Null,
        ];
        let line = format_row(&row);
        assert_eq!(line, "|1|||");
        let back = parse_row(&line, &schema()).unwrap();
        assert_eq!(back, row);
    }

    #[test]
    fn string_escaping() {
        let row = vec![
            Value::Ts(0),
            Value::Int(0),
            Value::Double(0.0),
            Value::Str("a|b\\c\nd\re".into()),
            Value::Bool(false),
        ];
        let line = format_row(&row);
        assert!(!line.contains('\n') && !line.contains('\r'));
        let back = parse_row(&line, &schema()).unwrap();
        assert_eq!(back, row);
    }

    #[test]
    fn empty_string_distinct_from_null() {
        let row = vec![
            Value::Ts(1),
            Value::Int(2),
            Value::Double(3.0),
            Value::Str(String::new()),
            Value::Bool(true),
        ];
        let line = format_row(&row);
        assert_eq!(line, "1|2|3|\\e|true");
        let back = parse_row(&line, &schema()).unwrap();
        assert_eq!(back, row);
    }

    #[test]
    fn arity_and_type_errors() {
        assert!(parse_row("1|2", &schema()).is_err());
        assert!(parse_row("x|1|1.0|s|true", &schema()).is_err());
    }

    #[test]
    fn columnar_text_encoding_matches_row_path() {
        let mut rel = Relation::from_columns(vec![
            ("a".into(), Column::from_ints(vec![1, -7])),
            (
                "s".into(),
                Column::from_strs(vec!["a|b\nc".into(), String::new()]),
            ),
            ("d".into(), Column::from_doubles(vec![2.5, -0.75])),
            ("b".into(), Column::from_bools(vec![true, false])),
        ])
        .unwrap();
        rel.append_row(&[Value::Null, Value::Null, Value::Null, Value::Null])
            .unwrap();
        let mut columnar = String::new();
        encode_batch_text(&mut columnar, &rel);
        let mut by_rows = String::new();
        for row in rel.iter_rows() {
            by_rows.push_str(&format_row(&row));
            by_rows.push('\n');
        }
        assert_eq!(columnar, by_rows);
    }

    /// A connected socket pair: (the peer's writer, our reader).
    fn socket_pair() -> (std::net::TcpStream, std::net::TcpStream) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        (peer, listener.accept().unwrap().0)
    }

    #[test]
    fn line_reader_caps_line_length() {
        let (mut peer, sock) = socket_pair();
        let mut lines = LineReader::new(sock);
        peer.write_all(&vec![b'x'; MAX_LINE_LEN + 1]).unwrap();
        // reported before the newline arrives
        assert_eq!(lines.next_line(), LineEvent::TooLong);
        peer.write_all(b"xx\nok\nlast").unwrap();
        drop(peer);
        assert_eq!(lines.next_line(), LineEvent::Line);
        assert_eq!(lines.line(), b"ok\n");
        // EOF cuts the last line short; it still counts
        assert_eq!(lines.next_line(), LineEvent::Line);
        assert_eq!(lines.line(), b"last");
        assert_eq!(lines.next_line(), LineEvent::Closed);
    }

    #[test]
    fn line_reader_accepts_a_line_of_exactly_max_len() {
        let (mut peer, sock) = socket_pair();
        let mut lines = LineReader::new(sock);
        let mut line = vec![b'y'; MAX_LINE_LEN];
        line.push(b'\n');
        std::thread::spawn(move || peer.write_all(&line));
        assert_eq!(lines.next_line(), LineEvent::Line);
        assert_eq!(lines.line().len(), MAX_LINE_LEN + 1);
    }

    #[test]
    fn batcher_hands_over_full_batches_then_the_rest_at_eof() {
        let (mut peer, sock) = socket_pair();
        let s = Schema::from_pairs(&[("a", ValueType::Int)]);
        let mut batcher = TextBatcher::new(sock, s);
        std::thread::spawn(move || {
            let mut text = String::new();
            for i in 0..TEXT_BATCH_ROWS + 1 {
                text.push_str(&format!("{i}\n"));
            }
            text.push_str("bad\n\n7");
            peer.write_all(text.as_bytes())
        });
        let rejected = Rejects::default();
        let first = batcher.next_batch(&rejected, || false).unwrap();
        assert_eq!(first.rows.len(), TEXT_BATCH_ROWS);
        let rest = batcher.next_batch(&rejected, || false).unwrap();
        assert_eq!(
            rest.rows.col_at(0).ints().unwrap(),
            &[TEXT_BATCH_ROWS as i64, 7]
        );
        assert!(batcher.next_batch(&rejected, || false).is_none());
        assert_eq!(rejected.total(), 1);
    }

    #[test]
    fn batcher_labels_each_rejected_line_with_its_reason() {
        let (mut peer, sock) = socket_pair();
        let s = Schema::from_pairs(&[("a", ValueType::Int)]);
        let mut batcher = TextBatcher::new(sock, s);
        std::thread::spawn(move || {
            let mut bytes = b"1\n\xff\nx\n".to_vec();
            bytes.extend(vec![b'9'; MAX_LINE_LEN + 1]);
            bytes.extend(b"\n2\n");
            peer.write_all(&bytes)
        });
        let t = dctrace::Telemetry::enabled();
        let rejected = Rejects::labelled(&t, "S");
        let mut rows = 0;
        while let Some(batch) = batcher.next_batch(&rejected, || false) {
            rows += batch.rows.len();
        }
        assert_eq!((rows, rejected.total()), (2, 3));
        let body = t.render();
        for reason in ["utf8", "parse", "too_long"] {
            let line = format!("dc_rejected_rows_total{{stream=\"S\",reason=\"{reason}\"}} 1");
            assert!(body.contains(&line), "{line} missing from {body:?}");
        }
    }

    #[test]
    fn capped_line_read_refuses_an_over_long_line() {
        let mut line = Vec::new();
        let mut ok = &b"one\ntwo"[..];
        assert_eq!(read_line_capped(&mut ok, &mut line).unwrap(), 4);
        assert_eq!(read_line_capped(&mut ok, &mut line).unwrap(), 3);
        assert_eq!(line, b"two");
        assert_eq!(read_line_capped(&mut ok, &mut line).unwrap(), 0);
        let mut exact = vec![b'y'; MAX_LINE_LEN];
        exact.push(b'\n');
        assert_eq!(
            read_line_capped(&mut &exact[..], &mut line).unwrap(),
            MAX_LINE_LEN + 1
        );
        let long = vec![b'y'; MAX_LINE_LEN + 1];
        let err = read_line_capped(&mut &long[..], &mut line).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    /// Serve `listener` on a thread, counting the connections handed over.
    fn serve_counting(listener: Listener) -> (std::thread::JoinHandle<()>, Arc<AtomicU64>) {
        let served = Arc::new(AtomicU64::new(0));
        let served2 = Arc::clone(&served);
        let handle = std::thread::spawn(move || {
            listener.serve(|_, _| {
                served2.fetch_add(1, Ordering::SeqCst);
            })
        });
        (handle, served)
    }

    #[test]
    fn close_wakes_a_blocked_accept_and_releases_the_port() {
        let listener = Listener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let closer = listener.closer();
        let (handle, served) = serve_counting(listener);
        drop(std::net::TcpStream::connect(addr).unwrap());
        while served.load(Ordering::SeqCst) == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(50)); // blocked in accept
        assert!(closer.close());
        assert!(!closer.close(), "a second close is a no-op");
        // the wake connection is not handed over, and the port is free
        assert_eq!(served.load(Ordering::SeqCst), 1);
        drop(Listener::bind(addr).expect("port released"));
        handle.join().unwrap();
    }

    #[test]
    fn close_wakes_a_listener_on_the_unspecified_address() {
        let listener = Listener::bind("0.0.0.0:0").unwrap();
        let closer = listener.closer();
        let (handle, _) = serve_counting(listener);
        std::thread::sleep(Duration::from_millis(20));
        closer.close();
        handle.join().unwrap();
    }

    #[test]
    fn a_shutdown_request_wakes_sleepers_and_closes_every_listener() {
        let shutdown = Arc::new(Shutdown::default());
        let sleeper = {
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || shutdown.sleep(Duration::from_secs(600)))
        };
        let early = Listener::bind("127.0.0.1:0").unwrap();
        let early_closer = early.closer();
        let (early_loop, _) = serve_counting(early);
        shutdown.watch(Arc::clone(&early_closer));
        shutdown.request();
        assert!(!sleeper.join().unwrap(), "the sleep ends on the request");
        assert!(early_closer.is_closed());
        early_loop.join().unwrap();
        // a listener watched after the request is closed at once
        let late = Listener::bind("127.0.0.1:0").unwrap();
        let late_closer = late.closer();
        let (late_loop, served) = serve_counting(late);
        shutdown.watch(Arc::clone(&late_closer));
        assert!(late_closer.is_closed());
        late_loop.join().unwrap();
        assert_eq!(served.load(Ordering::SeqCst), 0);
        assert!(!shutdown.sleep(Duration::from_secs(600)));
    }

    #[test]
    fn batcher_hands_a_trickle_over_at_the_deadline() {
        let (mut peer, sock) = socket_pair();
        let s = Schema::from_pairs(&[("a", ValueType::Int)]);
        let mut batcher = TextBatcher::new(sock, s);
        let done = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let done2 = std::sync::Arc::clone(&done);
        let sender = std::thread::spawn(move || {
            // one row every 2 ms for 1 s: the read never goes idle
            let started = Instant::now();
            let mut sent = 0usize;
            while started.elapsed() < Duration::from_secs(1) {
                peer.write_all(format!("{sent}\n").as_bytes()).unwrap();
                sent += 1;
                std::thread::sleep(Duration::from_millis(2));
            }
            done2.store(true, Ordering::SeqCst);
            sent
        });
        let rejected = Rejects::default();
        let first = batcher.next_batch(&rejected, || false).unwrap();
        assert!(
            !done.load(Ordering::SeqCst),
            "no batch before the trickle ended"
        );
        // the hand-off is due POLL_INTERVAL after the first row; the
        // margin absorbs scheduling delays on a loaded host
        assert!(first.waited < 10 * POLL_INTERVAL, "{:?}", first.waited);
        let mut total = first.rows.len();
        while let Some(batch) = batcher.next_batch(&rejected, || false) {
            total += batch.rows.len();
        }
        assert_eq!(total, sender.join().unwrap());
    }

    #[test]
    fn batch_io() {
        let rel = Relation::from_columns(vec![
            ("a".into(), Column::from_ints(vec![1, 2])),
            ("b".into(), Column::from_strs(vec!["x".into(), "y".into()])),
        ])
        .unwrap();
        let (mut peer, sock) = socket_pair();
        write_batch(&mut peer, &rel).unwrap();
        drop(peer);
        let s = Schema::from_pairs(&[("a", ValueType::Int), ("b", ValueType::Str)]);
        let mut batcher = TextBatcher::new(sock, s);
        let rejected = Rejects::default();
        let batch = batcher.next_batch(&rejected, || false).unwrap();
        assert_eq!(batch.rows, rel);
        assert!(batcher.next_batch(&rejected, || false).is_none());
        assert_eq!(rejected.total(), 0);
    }
}
