//! The control-plane listener: accepts client connections, parses
//! commands (see [`crate::protocol`]) and dispatches them onto the
//! [`ServerRuntime`]. One thread per control connection; a shutdown
//! request closes the listener, so `SHUTDOWN` (from any session) tears
//! the whole server down gracefully.
//!
//! The accept/read/dispatch/respond plumbing is generic ([`serve_loop`])
//! — the `dccluster` router serves the identical wire protocol with a
//! different dispatch table, so the two daemons share one loop.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use datacell::net::{decode_line, LineEvent, LineReader, Listener, Shutdown};

use crate::error::Result;
use crate::protocol::{parse_command, Command, Response};
use crate::runtime::ServerRuntime;
use crate::session::SessionManager;

/// Upper bound on a control-plane response write — a client that stops
/// reading must not wedge its connection thread (and thereby shutdown).
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// The control-plane server.
pub struct ControlServer {
    listener: Listener,
    runtime: Arc<ServerRuntime>,
}

impl ControlServer {
    /// Bind the control listener (e.g. `127.0.0.1:7077`, port 0 for
    /// ephemeral).
    pub fn bind(addr: &str, runtime: Arc<ServerRuntime>) -> Result<ControlServer> {
        let listener = Listener::bind(addr)?;
        Ok(ControlServer { listener, runtime })
    }

    /// The bound control-plane address (useful with ephemeral ports).
    pub fn local_addr(&self) -> Result<std::net::SocketAddr> {
        Ok(self.listener.local_addr()?)
    }

    pub fn runtime(&self) -> &Arc<ServerRuntime> {
        &self.runtime
    }

    /// Serve until a `SHUTDOWN` command arrives (or a shutdown is
    /// requested on the runtime), then tear the runtime down. Blocks the
    /// caller.
    pub fn serve(self) -> Result<()> {
        let rt = &self.runtime;
        serve_loop(self.listener, &rt.shutdown, &rt.sessions, &|request| {
            dispatch(rt, request)
        });
        rt.shutdown();
        Ok(())
    }
}

/// The generic control-plane serve loop: accept connections until
/// `shutdown` is requested, read one command line at a time per
/// connection, hand it to `dispatch`, write the framed [`Response`].
/// Session bookkeeping (open / per-command count / close) is handled
/// here. Returns only after every connection wound down.
pub fn serve_loop<D>(
    listener: Listener,
    shutdown: &Shutdown,
    sessions: &SessionManager,
    dispatch: &D,
) where
    D: Fn(&str) -> (Response, bool) + Sync,
{
    shutdown.watch(listener.closer());
    listener.serve_each("dc-control-conn", |sock, peer| {
        control_connection(sessions, shutdown, dispatch, sock, peer.to_string())
    });
}

/// Serve one control connection until QUIT/SHUTDOWN/EOF/stop.
fn control_connection<D>(
    sessions: &SessionManager,
    shutdown: &Shutdown,
    dispatch: &D,
    sock: TcpStream,
    peer: String,
) where
    D: Fn(&str) -> (Response, bool),
{
    let session = sessions.open(&peer);
    let _ = sock.set_write_timeout(Some(WRITE_TIMEOUT));
    let Ok(write_half) = sock.try_clone() else {
        sessions.close(session);
        return;
    };
    let mut writer = std::io::BufWriter::new(write_half);
    let mut lines = LineReader::new(sock);
    loop {
        let (response, end) = match lines.next_line() {
            LineEvent::Line => match decode_line(lines.line()).map(str::trim) {
                Some("") => continue,
                Some(request) => {
                    sessions.note_command(session);
                    dispatch(request)
                }
                None => (Response::Err("request is not valid UTF-8".into()), false),
            },
            LineEvent::TooLong => (Response::Err("line too long".into()), false),
            LineEvent::Idle => {
                if shutdown.is_requested() {
                    break;
                }
                continue;
            }
            LineEvent::Closed => break, // client hung up
        };
        if response.write_to(&mut writer).is_err() {
            break;
        }
        let _ = writer.flush();
        // `end` covers QUIT/SHUTDOWN from this session; the stop check
        // covers a shutdown requested elsewhere while this client
        // pipelines commands back-to-back (it would never take the idle
        // branch above)
        if end || shutdown.is_requested() {
            break;
        }
    }
    sessions.close(session);
}

/// Execute one command; the bool says "close this connection afterwards".
fn dispatch(rt: &Arc<ServerRuntime>, request: &str) -> (Response, bool) {
    let cmd = match parse_command(request) {
        Ok(c) => c,
        Err(e) => return (Response::Err(e), false),
    };
    match cmd {
        Command::Ping => (Response::one("pong"), false),
        Command::Ddl(sql) | Command::Exec(sql) => (result_response(rt.exec(&sql)), false),
        Command::DdlPersist { ddl, stream } => {
            match rt.create_stream_persistent(&ddl, &stream) {
                Ok(()) => (Response::one(format!("stream={stream} persistent=true")), false),
                Err(e) => (Response::Err(e.to_string()), false),
            }
        }
        Command::FlushStream { stream } => match rt.flush_stream(&stream) {
            Ok(n) => (Response::one(format!("sealed_rows={n}")), false),
            Err(e) => (Response::Err(e.to_string()), false),
        },
        Command::DdlSharded { stream, .. } => (
            Response::Err(format!(
                "stream {stream}: SHARD BY needs a dccluster shard router \
                 (this is a single datacelld engine)"
            )),
            false,
        ),
        Command::RegisterQuery { name, sql } => {
            match rt.register_query(&name, &sql) {
                Ok(handle) => {
                    let kind = if handle.broadcast.is_some() {
                        "subscribable"
                    } else {
                        "sink"
                    };
                    (Response::one(format!("query={name} kind={kind}")), false)
                }
                Err(e) => (Response::Err(e.to_string()), false),
            }
        }
        Command::AttachReceptor {
            stream,
            port,
            format,
        } => match rt.attach_receptor(&stream, port, format) {
            Ok(p) => (Response::one(format!("port={p}")), false),
            Err(e) => (Response::Err(e.to_string()), false),
        },
        Command::AttachEmitter {
            query,
            port,
            format,
        } => match rt.attach_emitter(&query, port, format) {
            Ok(p) => (Response::one(format!("port={p}")), false),
            Err(e) => (Response::Err(e.to_string()), false),
        },
        Command::DetachReceptor { stream, port } => match rt.detach_receptor(&stream, port) {
            Ok(n) => (Response::one(format!("detached={n}")), false),
            Err(e) => (Response::Err(e.to_string()), false),
        },
        Command::DetachEmitter { query, port } => match rt.detach_emitter(&query, port) {
            Ok(n) => (Response::one(format!("detached={n}")), false),
            Err(e) => (Response::Err(e.to_string()), false),
        },
        Command::Explain(sql) => (result_response(rt.explain_sql(&sql)), false),
        Command::ExplainQuery { name } => (result_response(rt.explain_query(&name)), false),
        Command::Stats => (Response::Ok(rt.stats()), false),
        Command::Metrics => (Response::Ok(rt.metrics()), false),
        Command::MetricsHistory { series, last } => (
            result_response(rt.metrics_history(series.as_deref(), last)),
            false,
        ),
        Command::Health => (result_response(rt.health()), false),
        Command::TraceDump { query } => (result_response(rt.trace_dump(query.as_deref())), false),
        Command::TraceSpans { batch } => (result_response(rt.trace_spans(batch)), false),
        Command::TraceStream { query, on } => {
            if on {
                match rt.trace_on(&query) {
                    Ok(p) => (Response::one(format!("port={p}")), false),
                    Err(e) => (Response::Err(e.to_string()), false),
                }
            } else {
                match rt.trace_off(&query) {
                    Ok(n) => (Response::one(format!("closed_taps={n}")), false),
                    Err(e) => (Response::Err(e.to_string()), false),
                }
            }
        }
        Command::ReplOpen { stream, ddl } => match rt.repl_open(&stream, &ddl) {
            Ok(()) => (Response::one(format!("stream={stream} replica=true")), false),
            Err(e) => (Response::Err(e.to_string()), false),
        },
        Command::ReplStatus { stream } => (result_response(rt.repl_status(&stream)), false),
        Command::ReplExport {
            stream,
            segs,
            epoch,
            offset,
        } => (
            result_response(rt.repl_export(&stream, segs, epoch, offset)),
            false,
        ),
        Command::ReplPart {
            stream,
            offset,
            hex,
        } => match rt.repl_part(&stream, offset, &hex) {
            Ok(staged) => (Response::one(format!("stream={stream} staged={staged}")), false),
            Err(e) => (Response::Err(e.to_string()), false),
        },
        Command::ReplSegment {
            stream,
            file,
            rows,
            payload,
        } => match rt.repl_segment(&stream, &file, rows, &payload) {
            Ok(()) => (Response::one(format!("segment={file} applied=true")), false),
            Err(e) => (Response::Err(e.to_string()), false),
        },
        Command::ReplWal {
            stream,
            epoch,
            from,
            payload,
        } => match rt.repl_wal(&stream, epoch, from, &payload) {
            Ok(()) => (Response::one(format!("stream={stream} wal_applied=true")), false),
            Err(e) => (Response::Err(e.to_string()), false),
        },
        Command::ReplPromote => (result_response(rt.repl_promote()), false),
        Command::Quit => (Response::ok(), true),
        Command::Shutdown => {
            rt.request_shutdown();
            (Response::ok(), true)
        }
    }
}

fn result_response(r: Result<Vec<String>>) -> Response {
    match r {
        Ok(body) => Response::Ok(body),
        Err(e) => Response::Err(e.to_string()),
    }
}
