//! Accept loops end to end, on one `datacelld` engine and on a 2-shard
//! `dccluster`: a fresh connection is served at once (accept blocks, it
//! does not poll), `DETACH` releases a port for an immediate re-`ATTACH`,
//! `SHUTDOWN` wakes every idle listener (on the unspecified address
//! too), and text discards carry reason labels that sum to STATS
//! `rejected`.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use datacell::net::{MAX_LINE_LEN, POLL_INTERVAL};
use dccluster::{bind_cluster, ClusterConfig};
use dcserver::client::Client;
use dcserver::ServerConfig;
use monet::prelude::*;

#[derive(Clone, Copy, Debug)]
enum Daemon {
    Engine,
    Cluster,
}

const DAEMONS: [Daemon; 2] = [Daemon::Engine, Daemon::Cluster];

/// How long `SHUTDOWN` may take with idle ports and connections open.
const SHUTDOWN_BOUND: Duration = Duration::from_secs(2);

/// Boot `daemon` with its data-plane ports on `data_host`; returns the
/// control address and the serve thread.
fn boot(daemon: Daemon, data_host: &str) -> (SocketAddr, JoinHandle<()>) {
    match daemon {
        Daemon::Engine => {
            let config = ServerConfig {
                data_host: data_host.into(),
                ..ServerConfig::default()
            };
            let server = dcserver::bind("127.0.0.1:0", config).expect("bind engine");
            let addr = server.local_addr().unwrap();
            (
                addr,
                std::thread::spawn(move || server.serve().expect("serve engine")),
            )
        }
        Daemon::Cluster => {
            let mut config = ClusterConfig::in_process(2);
            config.data_host = data_host.into();
            config.engine.data_host = data_host.into();
            let cluster = bind_cluster("127.0.0.1:0", config).expect("bind cluster");
            let addr = cluster.local_addr().unwrap();
            (
                addr,
                std::thread::spawn(move || cluster.serve().expect("serve cluster")),
            )
        }
    }
}

/// `S (id int, v int)` (sharded 2 ways on the cluster) and the
/// pass-through query `all` over it.
fn create_stream_and_query(c: &mut Client, daemon: Daemon) {
    let ddl = match daemon {
        Daemon::Engine => "create stream S (id int, v int)",
        Daemon::Cluster => "create stream S (id int, v int) SHARD BY (id) SHARDS 2",
    };
    c.request(ddl).unwrap();
    c.register_query("all", "select id, v from [select * from S] as Z")
        .unwrap();
}

fn schema() -> Schema {
    Schema::from_pairs(&[("id", ValueType::Int), ("v", ValueType::Int)])
}

fn median(mut xs: Vec<Duration>) -> Duration {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

#[test]
fn a_fresh_connection_is_served_at_once() {
    // an accept loop that polled every POLL_INTERVAL would hold each
    // of these sequential connections back by most of an interval
    let bound = POLL_INTERVAL / 4;
    for daemon in DAEMONS {
        let (addr, server) = boot(daemon, "127.0.0.1");
        let mut c = Client::connect(addr).unwrap();
        create_stream_and_query(&mut c, daemon);
        let rport = c.attach_receptor("S", 0).unwrap();
        let eport = c.attach_emitter("all", 0).unwrap();
        let mut tap = c.open_emitter(eport).unwrap();
        tap.set_timeout(Some(Duration::from_secs(10))).unwrap();

        // one row per fresh receptor connection, first byte to result
        let mut row_times = Vec::new();
        for i in 0..20i64 {
            let started = Instant::now();
            let mut sensor = TcpStream::connect((addr.ip(), rport)).unwrap();
            sensor
                .write_all(format!("{i}|{}\n", i * 3).as_bytes())
                .unwrap();
            drop(sensor); // EOF hands the text batch over at once
            let row = tap.next_row(&schema()).unwrap();
            row_times.push(started.elapsed());
            assert_eq!(row, Some(vec![Value::Int(i), Value::Int(i * 3)]));
        }
        // one PING per fresh control connection
        let mut ping_times = Vec::new();
        for _ in 0..20 {
            let started = Instant::now();
            Client::connect(addr).unwrap().ping().unwrap();
            ping_times.push(started.elapsed());
        }
        let (rows, pings) = (median(row_times.clone()), median(ping_times.clone()));
        assert!(
            rows < bound && pings < bound,
            "{daemon:?}: median first row {rows:?}, median PING {pings:?}, bound {bound:?}; \
             rows {row_times:?}; pings {ping_times:?}"
        );

        c.shutdown().unwrap();
        server.join().unwrap();
    }
}

#[test]
fn detach_releases_the_port_for_an_immediate_reattach() {
    for daemon in DAEMONS {
        let (addr, server) = boot(daemon, "127.0.0.1");
        let mut c = Client::connect(addr).unwrap();
        create_stream_and_query(&mut c, daemon);
        let rport = c.attach_receptor("S", 0).unwrap();
        let eport = c.attach_emitter("all", 0).unwrap();

        c.detach_receptor("S", rport).unwrap();
        c.detach_emitter("all", eport).unwrap();
        assert_eq!(c.attach_receptor("S", rport).unwrap(), rport, "{daemon:?}");
        assert_eq!(c.attach_emitter("all", eport).unwrap(), eport, "{daemon:?}");

        // the re-attached ports carry data
        let mut tap = c.open_emitter(eport).unwrap();
        tap.set_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut sink = c.open_receptor(rport).unwrap();
        sink.send_row(&[Value::Int(5), Value::Int(50)]).unwrap();
        sink.flush().unwrap();
        let row = tap.next_row(&schema()).unwrap();
        assert_eq!(row, Some(vec![Value::Int(5), Value::Int(50)]), "{daemon:?}");

        c.shutdown().unwrap();
        server.join().unwrap();
    }
}

#[test]
fn shutdown_wakes_idle_listeners_on_loopback_and_unspecified_hosts() {
    for daemon in DAEMONS {
        for host in ["127.0.0.1", "0.0.0.0"] {
            let (addr, server) = boot(daemon, host);
            let mut c = Client::connect(addr).unwrap();
            create_stream_and_query(&mut c, daemon);
            let rport = c.attach_receptor("S", 0).unwrap();
            let eport = c.attach_emitter("all", 0).unwrap();
            let tport = c.trace_on("all").unwrap();
            // a second set of ports with an idle connection on each
            let idle: Vec<TcpStream> = [
                c.attach_receptor("S", 0).unwrap(),
                c.attach_emitter("all", 0).unwrap(),
                c.trace_on("all").unwrap(),
            ]
            .into_iter()
            .map(|p| TcpStream::connect((addr.ip(), p)).unwrap())
            .collect();
            assert!(rport != 0 && eport != 0 && tport != 0);

            let started = Instant::now();
            c.shutdown().unwrap();
            server.join().unwrap();
            let took = started.elapsed();
            assert!(
                took < SHUTDOWN_BOUND,
                "{daemon:?} on {host}: shutdown took {took:?}, bound {SHUTDOWN_BOUND:?}"
            );
            drop(idle);
        }
    }
}

/// `name{labels} value` samples of `name` in a METRICS body.
fn samples<'a>(metrics: &'a [String], name: &str) -> Vec<(&'a str, u64)> {
    metrics
        .iter()
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            let labels = series.strip_prefix(name)?.strip_prefix('{')?;
            Some((labels, value.parse::<f64>().ok()? as u64))
        })
        .collect()
}

#[test]
fn text_rejections_carry_reason_labels_that_sum_to_stats() {
    for daemon in DAEMONS {
        let (addr, server) = boot(daemon, "127.0.0.1");
        let mut c = Client::connect(addr).unwrap();
        create_stream_and_query(&mut c, daemon);
        let rport = c.attach_receptor("S", 0).unwrap();

        let mut sensor = TcpStream::connect((addr.ip(), rport)).unwrap();
        let mut bytes = b"1|10\n\xff|1\nx|y\n".to_vec();
        bytes.extend(vec![b'7'; MAX_LINE_LEN + 1]);
        bytes.extend(b"\n2|20\n");
        sensor.write_all(&bytes).unwrap();
        drop(sensor);

        let deadline = Instant::now() + Duration::from_secs(10);
        let (accepted, rejected) = loop {
            let stats = c.stats_report().unwrap();
            let r = stats.receptors.iter().find(|r| r.stream == "S").unwrap();
            if r.accepted + r.rejected >= 5 || Instant::now() > deadline {
                break (r.accepted, r.rejected);
            }
            std::thread::sleep(Duration::from_millis(10));
        };
        assert_eq!((accepted, rejected), (2, 3), "{daemon:?}");

        let metrics = c.metrics().unwrap();
        let labelled = samples(&metrics, "dc_rejected_rows_total");
        for reason in ["utf8", "parse", "too_long"] {
            let labels = format!("stream=\"S\",reason=\"{reason}\"}}");
            let n: u64 = labelled
                .iter()
                .filter(|(l, _)| *l == labels)
                .map(|(_, v)| v)
                .sum();
            assert_eq!(n, 1, "{daemon:?} reason {reason}: {labelled:?}");
        }
        let total: u64 = labelled.iter().map(|(_, v)| v).sum();
        assert_eq!(total, rejected, "{daemon:?}: {labelled:?}");

        c.shutdown().unwrap();
        server.join().unwrap();
    }
}
