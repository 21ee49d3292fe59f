//! The client library against a fake server that answers with broken or
//! hostile bytes: every reply line is capped at
//! `datacell::net::MAX_LINE_LEN`, and no buffer is sized from a count
//! the peer sent. Each case must end in an error, never a panic, an
//! unbounded allocation or a silently accepted reply.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener};
use std::time::Duration;

use datacell::net::MAX_LINE_LEN;
use dcserver::client::{Client, EmitterTap};

/// A one-shot fake peer: accepts one connection, reads one request line
/// when `read_request`, writes `reply` and hangs up.
fn fake_peer(reply: Vec<u8>, read_request: bool) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        let (sock, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(sock.try_clone().unwrap());
        if read_request {
            let mut request = String::new();
            reader.read_line(&mut request).unwrap();
        }
        let mut sock = sock;
        // the client may stop reading early: ignore a broken pipe
        let _ = sock.write_all(&reply);
    });
    addr
}

fn ping(reply: Vec<u8>) -> dcserver::error::Result<()> {
    let mut c = Client::connect(fake_peer(reply, true)).unwrap();
    c.set_io_timeout(Some(Duration::from_secs(10))).unwrap();
    c.ping()
}

#[test]
fn an_absurd_body_count_is_an_error_not_an_allocation() {
    let err = ping(b"OK 18446744073709551615\nbody\n".to_vec()).unwrap_err();
    assert!(err.to_string().contains("mid-body"), "{err}");
}

#[test]
fn an_over_long_reply_line_is_an_error() {
    let mut header = vec![b'O'; MAX_LINE_LEN + 1];
    header.push(b'\n');
    assert!(ping(header).is_err());

    let mut body = b"OK 1\n".to_vec();
    body.extend(vec![b'x'; MAX_LINE_LEN + 1]);
    body.push(b'\n');
    let err = ping(body).unwrap_err();
    assert!(err.to_string().contains("longer than"), "{err}");
}

#[test]
fn a_body_cut_short_is_an_error() {
    let err = ping(b"OK 3\npong\n".to_vec()).unwrap_err();
    assert!(err.to_string().contains("mid-body"), "{err}");
    // a reply line of exactly the cap still reads
    let mut body = b"OK 1\n".to_vec();
    body.extend(vec![b'y'; MAX_LINE_LEN]);
    body.push(b'\n');
    assert!(ping(body).is_ok());
}

#[test]
fn an_over_long_text_result_line_is_an_error() {
    let mut line = vec![b'7'; MAX_LINE_LEN + 1];
    line.extend(b"\n1|2\n");
    let mut tap = EmitterTap::connect(fake_peer(line, false)).unwrap();
    tap.set_timeout(Some(Duration::from_secs(10))).unwrap();
    let err = tap.next_line().unwrap_err();
    assert!(err.to_string().contains("longer than"), "{err}");
}
