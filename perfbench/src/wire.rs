//! A raw emitter-port reader. It decodes results with the same public
//! codec functions the client library uses (`frame::decode_frame`, one
//! text line per row) and counts the bytes it receives, which the client
//! library does not expose.

use std::io::{ErrorKind, Read};
use std::net::TcpStream;
use std::time::Duration;

use datacell::frame::decode_frame;
use monet::prelude::*;

use crate::Res;

/// What one read from the socket produced.
#[derive(Debug, PartialEq, Eq)]
pub enum Fill {
    Data,
    Idle,
    Closed,
}

pub struct Tap {
    sock: TcpStream,
    buf: Vec<u8>,
    /// Start of the unconsumed bytes in `buf`.
    at: usize,
    pub bytes: u64,
}

impl Tap {
    /// Subscribe to an emitter port. With `wait = None` reads never block.
    pub fn connect(port: u16, wait: Option<Duration>) -> Res<Tap> {
        let sock =
            TcpStream::connect(("127.0.0.1", port)).map_err(|e| format!("emitter connect: {e}"))?;
        match wait {
            Some(d) => sock.set_read_timeout(Some(d)),
            None => sock.set_nonblocking(true),
        }
        .map_err(|e| format!("emitter socket: {e}"))?;
        Ok(Tap {
            sock,
            buf: Vec::with_capacity(1 << 18),
            at: 0,
            bytes: 0,
        })
    }

    /// One read into the buffer.
    pub fn fill(&mut self) -> Fill {
        if self.at > 0 && self.at * 2 >= self.buf.len() {
            self.buf.drain(..self.at);
            self.at = 0;
        }
        let len = self.buf.len();
        self.buf.resize(len + (1 << 16), 0);
        let got = self.sock.read(&mut self.buf[len..]);
        let n = *got.as_ref().unwrap_or(&0);
        self.buf.truncate(len + n);
        match got {
            Ok(0) => Fill::Closed,
            Ok(_) => {
                self.bytes += n as u64;
                Fill::Data
            }
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) =>
            {
                Fill::Idle
            }
            Err(_) => Fill::Closed,
        }
    }

    /// The next complete binary frame already received.
    pub fn frame(&mut self, schema: &Schema) -> Res<Option<Relation>> {
        match decode_frame(&self.buf[self.at..], schema)
            .map_err(|e| format!("result frame: {e}"))?
        {
            Some((rel, used)) => {
                self.at += used;
                Ok(Some(rel))
            }
            None => Ok(None),
        }
    }

    /// The next complete text line already received, without its newline.
    pub fn line(&mut self) -> Option<String> {
        let rest = &self.buf[self.at..];
        let end = rest.iter().position(|&b| b == b'\n')?;
        let line = String::from_utf8_lossy(&rest[..end])
            .trim_end_matches('\r')
            .to_string();
        self.at += end + 1;
        Some(line)
    }
}
