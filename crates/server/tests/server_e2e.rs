//! End-to-end test of the daemon: boot `datacelld` on ephemeral ports,
//! drive the paper's §3.1 loop entirely over TCP — ingest through a
//! receptor socket, a continuous query fires inside the engine, results
//! arrive on an emitter socket — then shut down gracefully.

use std::thread::JoinHandle;
use std::time::Duration;

use datacell::frame::WireFormat;
use dcserver::client::Client;
use dcserver::{bind, ServerConfig};
use monet::prelude::*;

/// Boot a daemon on an ephemeral control port; returns (control addr,
/// serve-thread handle).
fn boot() -> (std::net::SocketAddr, JoinHandle<()>) {
    let server = bind("127.0.0.1:0", ServerConfig::default()).expect("bind control plane");
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || {
        server.serve().expect("serve");
    });
    (addr, handle)
}

#[test]
fn full_section_3_1_loop_over_sockets() {
    let (addr, server_thread) = boot();
    let mut c = Client::connect(addr).unwrap();
    c.ping().unwrap();

    // control plane: DDL + continuous query + port attachment
    c.create_stream("S", "(id int, payload int)").unwrap();
    c.register_query(
        "hot",
        "select id, payload from [select * from S] as Z where Z.payload > 100",
    )
    .unwrap();
    let rport = c.attach_receptor("S", 0).unwrap();
    let eport = c.attach_emitter("hot", 0).unwrap();
    assert_ne!(rport, 0);
    assert_ne!(eport, 0);
    assert_ne!(rport, eport);

    // data plane: ingest over the receptor socket
    let mut sink = c.open_receptor(rport).unwrap();
    let mut tap = c.open_emitter(eport).unwrap();
    tap.set_timeout(Some(Duration::from_secs(10))).unwrap();
    for i in 0..200i64 {
        sink.send_row(&[Value::Int(i), Value::Int(i * 10)]).unwrap();
    }
    sink.flush().unwrap();

    // results: payload > 100 keeps ids 11..=199
    let schema = Schema::from_pairs(&[("id", ValueType::Int), ("payload", ValueType::Int)]);
    let rows = tap.take_rows(&schema, 189).unwrap();
    assert_eq!(rows.len(), 189);
    let mut ids: Vec<i64> = rows
        .iter()
        .map(|r| match r[0] {
            Value::Int(v) => v,
            ref other => panic!("unexpected value {other:?}"),
        })
        .collect();
    ids.sort_unstable();
    assert_eq!(ids, (11..=199).collect::<Vec<i64>>());
    for r in &rows {
        match (&r[0], &r[1]) {
            (Value::Int(id), Value::Int(p)) => assert_eq!(*p, id * 10),
            other => panic!("unexpected row {other:?}"),
        }
    }

    // STATS reflects the run (typed report — no string scraping)
    let stats = c.stats_report().unwrap();
    let hot = stats.query("hot").expect("query row in STATS");
    assert_eq!(hot.delivered_tuples, 189, "{hot:?}");
    assert!(
        stats.receptors.iter().any(|r| r.stream == "S"),
        "{stats:?}"
    );

    // graceful shutdown from the control plane
    c.shutdown().unwrap();
    server_thread.join().unwrap();

    // the emitter stream closes after the final flush
    assert_eq!(tap.next_row(&schema).unwrap(), None);
}

#[test]
fn results_survive_between_register_and_attach() {
    // tuples ingested before any emitter attaches are buffered in the
    // query's broadcast backlog and replayed to the first subscriber
    let (addr, server_thread) = boot();
    let mut c = Client::connect(addr).unwrap();
    c.create_stream("S", "(id int, v int)").unwrap();
    c.register_query("all", "select id from [select * from S] as Z")
        .unwrap();
    let rport = c.attach_receptor("S", 0).unwrap();
    let mut sink = c.open_receptor(rport).unwrap();
    sink.send_row(&[Value::Int(7), Value::Int(1)]).unwrap();
    sink.flush().unwrap();

    // wait until the engine consumed the tuple
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let stats = c.stats_report().unwrap();
        let consumed = stats
            .query("all")
            .map(|q| q.delivered_batches == 0 && q.consumed == 1)
            .unwrap_or(false);
        if consumed {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "engine never consumed the tuple: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // only now attach the emitter: the backlog must replay
    let eport = c.attach_emitter("all", 0).unwrap();
    let mut tap = c.open_emitter(eport).unwrap();
    tap.set_timeout(Some(Duration::from_secs(10))).unwrap();
    let schema = Schema::from_pairs(&[("id", ValueType::Int)]);
    assert_eq!(tap.next_row(&schema).unwrap(), Some(vec![Value::Int(7)]));

    c.shutdown().unwrap();
    server_thread.join().unwrap();
}

#[test]
fn two_clients_fan_out_same_query() {
    let (addr, server_thread) = boot();
    let mut c = Client::connect(addr).unwrap();
    c.create_stream("S", "(id int, v int)").unwrap();
    c.register_query("all", "select id from [select * from S] as Z")
        .unwrap();
    let rport = c.attach_receptor("S", 0).unwrap();
    let eport = c.attach_emitter("all", 0).unwrap();

    // a second control session sees the same server
    let mut c2 = Client::connect(addr).unwrap();
    let stats = c2.stats_report().unwrap();
    assert_eq!(stats.server.sessions, 2, "{stats:?}");

    // two subscribers on one emitter port each get every result
    let mut tap1 = c.open_emitter(eport).unwrap();
    let mut tap2 = c2.open_emitter(eport).unwrap();
    tap1.set_timeout(Some(Duration::from_secs(10))).unwrap();
    tap2.set_timeout(Some(Duration::from_secs(10))).unwrap();
    // give the emitter accept loop a moment to register both subscribers
    // before results flow (subscription later than delivery only costs
    // the backlog replay, but both-subscribed is the interesting case)
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let stats = c.stats_report().unwrap();
        if stats.query("all").map(|q| q.subscribers) == Some(2) {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "subscribers never registered: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    let mut sink = c.open_receptor(rport).unwrap();
    for i in 0..50i64 {
        sink.send_row(&[Value::Int(i), Value::Int(0)]).unwrap();
    }
    sink.flush().unwrap();

    let schema = Schema::from_pairs(&[("id", ValueType::Int)]);
    let rows1 = tap1.take_rows(&schema, 50).unwrap();
    let rows2 = tap2.take_rows(&schema, 50).unwrap();
    assert_eq!(rows1.len(), 50);
    assert_eq!(rows1, rows2);

    c.shutdown().unwrap();
    server_thread.join().unwrap();
}

#[test]
fn control_plane_rejects_bad_requests() {
    let (addr, server_thread) = boot();
    let mut c = Client::connect(addr).unwrap();
    c.create_stream("S", "(id int)").unwrap();

    // duplicate stream
    let err = c.create_stream("S", "(id int)").unwrap_err();
    assert!(err.to_string().contains("duplicate"), "{err}");
    // unknown stream/query on ATTACH
    assert!(c.attach_receptor("nosuch", 0).is_err());
    assert!(c.attach_emitter("nosuch", 0).is_err());
    // bad SQL in REGISTER
    assert!(c.register_query("broken", "selectt nonsense").is_err());
    // duplicate query name
    c.register_query("q", "select id from [select * from S] as Z")
        .unwrap();
    let err = c
        .register_query("q", "select id from [select * from S] as Z")
        .unwrap_err();
    assert!(err.to_string().contains("duplicate"), "{err}");
    // unparseable command line
    assert!(c.request("FROBNICATE THE BASKETS").is_err());
    // SHARD BY parses, but a single engine cannot honor it
    let err = c
        .request("CREATE STREAM P (id int) SHARD BY (id) SHARDS 2")
        .unwrap_err();
    assert!(err.to_string().contains("dccluster"), "{err}");
    // the session survives all of the above
    c.ping().unwrap();

    c.shutdown().unwrap();
    server_thread.join().unwrap();
}

#[test]
fn binary_data_plane_round_trip() {
    // the full §3.1 loop with columnar frames on both sides, including
    // strings with framing hazards, NULLs and empty strings
    let (addr, server_thread) = boot();
    let mut c = Client::connect(addr).unwrap();
    c.create_stream("S", "(id int, tag varchar)").unwrap();
    c.register_query("all", "select id, tag from [select * from S] as Z")
        .unwrap();
    let rport = c.attach_receptor_fmt("S", 0, WireFormat::Binary).unwrap();
    let eport = c.attach_emitter_fmt("all", 0, WireFormat::Binary).unwrap();

    let schema = Schema::from_pairs(&[("id", ValueType::Int), ("tag", ValueType::Str)]);
    let mut sink = c.open_receptor_with(rport, WireFormat::Binary, &schema).unwrap();
    let mut tap = c.open_emitter_with(eport, WireFormat::Binary).unwrap();
    tap.set_timeout(Some(Duration::from_secs(10))).unwrap();

    let mut batch = Relation::from_columns(vec![
        ("id".into(), Column::from_ints(vec![1, 2, 3])),
        (
            "tag".into(),
            Column::from_strs(vec!["a|b".into(), String::new(), "line\n2 ☂".into()]),
        ),
    ])
    .unwrap();
    batch.append_row(&[Value::Int(4), Value::Null]).unwrap();
    sink.send_batch(&batch).unwrap();
    sink.flush().unwrap();

    let rows = tap.take_rows(&schema, 4).unwrap();
    assert_eq!(rows.len(), 4);
    assert_eq!(rows[0], vec![Value::Int(1), Value::Str("a|b".into())]);
    assert_eq!(rows[1], vec![Value::Int(2), Value::Str(String::new())]);
    assert_eq!(rows[2], vec![Value::Int(3), Value::Str("line\n2 ☂".into())]);
    assert_eq!(rows[3], vec![Value::Int(4), Value::Null]);

    // STATS names the formats
    let stats = c.stats_report().unwrap();
    assert!(
        stats
            .receptors
            .iter()
            .any(|r| r.stream == "S" && r.format == "binary"),
        "{stats:?}"
    );
    assert!(
        stats
            .emitters
            .iter()
            .any(|e| e.query == "all" && e.format == "binary"),
        "{stats:?}"
    );

    c.shutdown().unwrap();
    server_thread.join().unwrap();
}

#[test]
fn cross_format_sessions_interoperate() {
    // BINARY receptor feeding a TEXT emitter, and a second TEXT receptor
    // feeding a BINARY emitter on the same query — formats are per-port,
    // results identical
    let (addr, server_thread) = boot();
    let mut c = Client::connect(addr).unwrap();
    c.create_stream("S", "(id int, v int)").unwrap();
    c.register_query("all", "select id, v from [select * from S] as Z")
        .unwrap();
    let rport_bin = c.attach_receptor_fmt("S", 0, WireFormat::Binary).unwrap();
    let rport_txt = c.attach_receptor("S", 0).unwrap();
    let eport_txt = c.attach_emitter_fmt("all", 0, WireFormat::Text).unwrap();
    let eport_bin = c.attach_emitter_fmt("all", 0, WireFormat::Binary).unwrap();

    let schema = Schema::from_pairs(&[("id", ValueType::Int), ("v", ValueType::Int)]);
    let mut tap_txt = c.open_emitter_with(eport_txt, WireFormat::Text).unwrap();
    let mut tap_bin = c.open_emitter_with(eport_bin, WireFormat::Binary).unwrap();
    tap_txt.set_timeout(Some(Duration::from_secs(10))).unwrap();
    tap_bin.set_timeout(Some(Duration::from_secs(10))).unwrap();

    // wait for both subscribers so each sees every result
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let stats = c.stats_report().unwrap();
        if stats.query("all").map(|q| q.subscribers) == Some(2) {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "{stats:?}");
        std::thread::sleep(Duration::from_millis(10));
    }

    // half the tuples over the binary receptor...
    let mut sink_bin = c
        .open_receptor_with(rport_bin, WireFormat::Binary, &schema)
        .unwrap();
    let batch = Relation::from_columns(vec![
        ("id".into(), Column::from_ints((0..25).collect())),
        ("v".into(), Column::from_ints((0..25).map(|i| i * 2).collect())),
    ])
    .unwrap();
    sink_bin.send_batch(&batch).unwrap();
    sink_bin.flush().unwrap();
    // ...half over the text receptor (row convenience path)
    let mut sink_txt = c.open_receptor(rport_txt).unwrap();
    for i in 25..50i64 {
        sink_txt.send_row(&[Value::Int(i), Value::Int(i * 2)]).unwrap();
    }
    sink_txt.flush().unwrap();

    let mut rows_txt = tap_txt.take_rows(&schema, 50).unwrap();
    let mut rows_bin = tap_bin.take_rows(&schema, 50).unwrap();
    assert_eq!(rows_txt.len(), 50);
    assert_eq!(rows_bin.len(), 50);
    let key = |r: &Vec<Value>| match r[0] {
        Value::Int(v) => v,
        _ => panic!("unexpected row"),
    };
    rows_txt.sort_by_key(key);
    rows_bin.sort_by_key(key);
    assert_eq!(rows_txt, rows_bin, "formats must agree on content");
    for (i, r) in rows_txt.iter().enumerate() {
        assert_eq!(r[0], Value::Int(i as i64));
        assert_eq!(r[1], Value::Int(i as i64 * 2));
    }

    c.shutdown().unwrap();
    server_thread.join().unwrap();
}

#[test]
fn receptor_backpressure_caps_basket_growth() {
    // a server with a tiny receptor cap: the basket never grows far past
    // the cap, everything still arrives, and STATS reports the high-water
    let config = ServerConfig {
        receptor_basket_cap: 256,
        ..ServerConfig::default()
    };
    let server = bind("127.0.0.1:0", config).expect("bind control plane");
    let addr = server.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || {
        server.serve().expect("serve");
    });

    let mut c = Client::connect(addr).unwrap();
    c.create_stream("S", "(id int, v int)").unwrap();
    c.register_query("all", "select id from [select * from S] as Z")
        .unwrap();
    let rport = c.attach_receptor_fmt("S", 0, WireFormat::Binary).unwrap();
    let eport = c.attach_emitter("all", 0).unwrap();

    let schema = Schema::from_pairs(&[("id", ValueType::Int), ("v", ValueType::Int)]);
    let mut sink = c.open_receptor_with(rport, WireFormat::Binary, &schema).unwrap();
    let mut tap = c.open_emitter(eport).unwrap();
    tap.set_timeout(Some(Duration::from_secs(30))).unwrap();
    // wait until the tap's subscription registered, so no result batch
    // can age out of the broadcast backlog during the flood below
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let stats = c.stats_report().unwrap();
        if stats.query("all").map(|q| q.subscribers) == Some(1) {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "{stats:?}");
        std::thread::sleep(Duration::from_millis(10));
    }

    const N: i64 = 20_000;
    let writer = std::thread::spawn(move || {
        for start in (0..N).step_by(100) {
            let batch = Relation::from_columns(vec![
                ("id".into(), Column::from_ints((start..start + 100).collect())),
                ("v".into(), Column::from_ints(vec![0; 100])),
            ])
            .unwrap();
            sink.send_batch(&batch).unwrap();
        }
        sink.flush().unwrap();
    });

    let out_schema = Schema::from_pairs(&[("id", ValueType::Int)]);
    let rows = tap.take_rows(&out_schema, N as usize).unwrap();
    assert_eq!(rows.len(), N as usize, "backpressure must not lose tuples");
    writer.join().unwrap();

    let stats = c.stats_report().unwrap();
    let basket = stats.basket("S").expect("basket row in STATS");
    assert_eq!(basket.cap, 256, "{basket:?}");
    assert!(basket.high_water > 0, "{basket:?}");
    assert!(
        basket.high_water <= 256 + 100,
        "occupancy bounded by cap + one in-flight batch: {basket:?}"
    );

    c.shutdown().unwrap();
    server_thread.join().unwrap();
}

#[test]
fn tap_survives_read_timeouts_mid_frame() {
    // a frame (binary) and a line (text) delivered byte-dribbled across
    // read timeouts must decode intact once complete — partial input
    // stays buffered in the tap between calls
    use dcserver::client::EmitterTap;
    use std::io::Write as _;

    for format in [WireFormat::Binary, WireFormat::Text] {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let schema = Schema::from_pairs(&[("id", ValueType::Int), ("tag", ValueType::Str)]);
        let rel = Relation::from_columns(vec![
            ("id".into(), Column::from_ints(vec![1, 2])),
            ("tag".into(), Column::from_strs(vec!["a".into(), "b|c".into()])),
        ])
        .unwrap();
        let wire = match format {
            WireFormat::Binary => {
                let mut buf = Vec::new();
                datacell::frame::encode_frame(&mut buf, &rel).unwrap();
                buf
            }
            WireFormat::Text => b"1|a\n2|b\\pc\n".to_vec(),
        };
        let server = std::thread::spawn(move || {
            let (mut sock, _) = listener.accept().unwrap();
            for chunk in wire.chunks(3) {
                sock.write_all(chunk).unwrap();
                sock.flush().unwrap();
                std::thread::sleep(Duration::from_millis(30));
            }
        });
        let mut tap = EmitterTap::connect_with(addr, format).unwrap();
        tap.set_timeout(Some(Duration::from_millis(5))).unwrap();
        let mut rows = Vec::new();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while rows.len() < 2 {
            assert!(std::time::Instant::now() < deadline, "{format}: tap stalled");
            match tap.next_row(&schema) {
                Ok(Some(row)) => rows.push(row),
                Ok(None) => break,
                Err(_) => continue, // timeout fired mid-frame/mid-line: retry
            }
        }
        assert_eq!(
            rows,
            vec![
                vec![Value::Int(1), Value::Str("a".into())],
                vec![Value::Int(2), Value::Str("b|c".into())],
            ],
            "{format}: dribbled input must decode intact"
        );
        server.join().unwrap();
    }
}

#[test]
fn metrics_exposition_after_firings() {
    // the CI smoke: boot, drive firings over sockets, then assert the
    // Prometheus exposition parses and carries non-zero fire latency
    // histograms, STATS carries the latency summary, TRACE DUMP holds
    // firing events, and a live TRACE stream delivers events
    let (addr, server_thread) = boot();
    let mut c = Client::connect(addr).unwrap();
    c.create_stream("S", "(id int, v int)").unwrap();
    c.register_query("hot", "select id from [select * from S] as Z where Z.v > 10")
        .unwrap();
    let rport = c.attach_receptor("S", 0).unwrap();
    let eport = c.attach_emitter("hot", 0).unwrap();

    // subscribe a live trace stream BEFORE the firings so it sees them
    let tport = c.trace_on("hot").unwrap();
    let mut trace = c.open_trace(tport).unwrap();
    trace.set_timeout(Some(Duration::from_secs(10))).unwrap();

    let mut sink = c.open_receptor(rport).unwrap();
    let mut tap = c.open_emitter(eport).unwrap();
    tap.set_timeout(Some(Duration::from_secs(10))).unwrap();
    for i in 0..100i64 {
        sink.send_row(&[Value::Int(i), Value::Int(i)]).unwrap();
    }
    sink.flush().unwrap();
    let schema = Schema::from_pairs(&[("id", ValueType::Int)]);
    assert_eq!(tap.take_rows(&schema, 89).unwrap().len(), 89);

    // METRICS: valid exposition with a fired histogram
    let body = c.metrics().unwrap();
    let samples = dctrace::parse_exposition(&body).expect("exposition must parse");
    let fire_count = samples
        .iter()
        .find(|s| s.name == "dc_fire_micros_count" && s.labels.contains("query=\"hot\""))
        .expect("fire histogram present");
    assert!(fire_count.value >= 1.0, "{fire_count:?}");
    assert!(
        samples
            .iter()
            .any(|s| s.name == "dc_fire_phase_micros_count"
                && s.labels.contains("phase=\"execute\"")),
        "phase breakdown present"
    );
    assert!(
        samples
            .iter()
            .any(|s| s.name == "dc_tuple_latency_micros_count" && s.value >= 1.0),
        "end-to-end tuple latency recorded: {samples:?}"
    );

    // STATS: latency summary columns filled in from the histogram
    let stats = c.stats_report().unwrap();
    let hot = stats.query("hot").unwrap();
    assert!(hot.max_micros >= hot.p50_micros, "{hot:?}");
    assert!(hot.p99_micros >= hot.p50_micros, "{hot:?}");

    // TRACE DUMP: firing events, filtered and unfiltered
    let dump = c.trace_dump_query("hot").unwrap();
    assert!(
        dump.iter().any(|l| l.contains("kind=fire_start")),
        "{dump:?}"
    );
    assert!(
        dump.iter().any(|l| l.contains("kind=fire_end")),
        "{dump:?}"
    );
    assert!(!c.trace_dump().unwrap().is_empty());

    // the live stream saw a firing event too
    let line = trace.next_line().unwrap().expect("live trace line");
    assert!(line.contains("kind=fire_"), "{line}");

    // OFF ends the live stream (drain remaining, then EOF)
    c.trace_off("hot").unwrap();
    while trace.next_line().unwrap().is_some() {}

    c.shutdown().unwrap();
    server_thread.join().unwrap();
}

#[test]
fn telemetry_disabled_is_clean() {
    // telemetry off: METRICS is empty, TRACE errors, STATS still works
    let server = bind(
        "127.0.0.1:0",
        ServerConfig {
            telemetry_enabled: false,
            ..ServerConfig::default()
        },
    )
    .expect("bind control plane");
    let addr = server.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || {
        server.serve().expect("serve");
    });
    let mut c = Client::connect(addr).unwrap();
    c.create_stream("S", "(id int)").unwrap();
    c.register_query("all", "select id from [select * from S] as Z")
        .unwrap();
    assert_eq!(c.metrics().unwrap(), Vec::<String>::new());
    assert!(c.trace_dump().is_err());
    assert!(c.trace_on("all").is_err());
    let stats = c.stats_report().unwrap();
    assert_eq!(stats.query("all").unwrap().p99_micros, 0);
    c.shutdown().unwrap();
    server_thread.join().unwrap();
}

#[test]
fn exec_one_shot_round_trip() {
    let (addr, server_thread) = boot();
    let mut c = Client::connect(addr).unwrap();
    c.create_table("T", "(a int, b varchar)").unwrap();
    assert_eq!(c.exec("insert into T values (1, 'x'), (2, 'y')").unwrap(), Vec::<String>::new());
    let body = c.exec("select a, b from T where b = 'y'").unwrap();
    assert_eq!(body, vec!["# a|b".to_string(), "2|y".to_string()]);
    c.shutdown().unwrap();
    server_thread.join().unwrap();
}

#[test]
fn explain_shows_compiled_plan_and_stats_carry_plan_fields() {
    let (addr, server_thread) = boot();
    let mut c = Client::connect(addr).unwrap();
    c.create_stream("S", "(a int, b int, c int, d int)").unwrap();
    c.register_query(
        "narrow",
        "select a from [select a, b from S where b > 2] as Z where Z.a > 0",
    )
    .unwrap();

    // EXPLAIN of a raw script
    let plan = c
        .explain("select a from [select a, b from S where b > 2] as Z where Z.a > 0")
        .unwrap()
        .join("\n");
    assert!(plan.contains("fast select"), "{plan}");
    assert!(plan.contains("scan S"), "{plan}");
    assert!(plan.contains("[consume]"), "{plan}");
    assert!(plan.contains("cols=a,b"), "pruned column set: {plan}");
    assert!(plan.contains("lineage=selection-vector"), "{plan}");
    assert!(plan.contains("b > 2"), "predicate order visible: {plan}");

    // EXPLAIN QUERY of the registered query
    let plan = c.explain_query("narrow").unwrap().join("\n");
    assert!(plan.starts_with("query narrow AS "), "{plan}");
    assert!(plan.contains("scan S"), "{plan}");
    assert!(c.explain_query("nope").is_err());
    assert!(c.explain("select ] nonsense").is_err());

    // fire once over the receptor path so STATS carries plan telemetry
    // (b > 2 everywhere: the firing consumes the whole batch and idles)
    let rport = c.attach_receptor("S", 0).unwrap();
    let mut sink = c.open_receptor(rport).unwrap();
    for i in 0..10i64 {
        sink.send_row(&[
            Value::Int(i),
            Value::Int(i + 3),
            Value::Int(0),
            Value::Int(0),
        ])
        .unwrap();
    }
    sink.flush().unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let q = loop {
        let stats = c.stats_report().unwrap();
        let q = stats.query("narrow").expect("query row").clone();
        if q.firings > 0 || std::time::Instant::now() > deadline {
            break q;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(q.firings > 0, "query fired: {q:?}");
    assert!(q.rows_scanned > 0, "rows_scanned threaded: {q:?}");
    assert!(q.rows_out > 0, "rows_out threaded: {q:?}");

    c.shutdown().unwrap();
    server_thread.join().unwrap();
}

#[test]
fn standing_join_runs_incrementally_and_reports_delta_stats() {
    let (addr, server_thread) = boot();
    let mut c = Client::connect(addr).unwrap();
    c.create_stream("X", "(id int, v int)").unwrap();
    c.create_stream("Y", "(id int, v int)").unwrap();
    // non-consuming scans keep the baskets append-only — the shape the
    // delta planner compiles to an incremental hash join
    c.register_query("j", "select X.v as xv, Y.v as yv from X, Y where X.id = Y.id")
        .unwrap();

    let plan = c.explain_query("j").unwrap().join("\n");
    assert!(plan.contains("hash_join"), "{plan}");
    assert!(plan.contains("arrange X.id (shared)"), "{plan}");
    assert!(plan.contains("arrange Y.id (shared)"), "{plan}");
    assert!(plan.contains("mode delta|full"), "{plan}");
    assert!(plan.contains("delta delta_rows="), "live delta line: {plan}");

    // feed both sides, then append more rows so later firings see a
    // non-empty delta over an unchanged prefix
    let xport = c.attach_receptor("X", 0).unwrap();
    let yport = c.attach_receptor("Y", 0).unwrap();
    let mut xs = c.open_receptor(xport).unwrap();
    let mut ys = c.open_receptor(yport).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let q = loop {
        for i in 0..4i64 {
            xs.send_row(&[Value::Int(i), Value::Int(i * 10)]).unwrap();
            ys.send_row(&[Value::Int(i), Value::Int(i * 100)]).unwrap();
        }
        xs.flush().unwrap();
        ys.flush().unwrap();
        let stats = c.stats_report().unwrap();
        let q = stats.query("j").expect("query row").clone();
        if q.delta_rows > 0 || std::time::Instant::now() > deadline {
            break q;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(q.delta_rows > 0, "incremental firings happened: {q:?}");
    assert!(q.full_reexecutes > 0, "the bootstrap firing was a full run: {q:?}");
    assert!(q.arrangement_bytes > 0, "shared state reported: {q:?}");

    // the live EXPLAIN now shows the advanced shared arrangements
    let plan = c.explain_query("j").unwrap().join("\n");
    assert!(plan.contains("arrangement X.id rows="), "{plan}");
    assert!(plan.contains("arrangement Y.id rows="), "{plan}");

    c.shutdown().unwrap();
    server_thread.join().unwrap();
}

#[test]
fn detach_closes_ports_and_stops_counting_them() {
    let (addr, server_thread) = boot();
    let mut c = Client::connect(addr).unwrap();
    c.create_stream("S", "(id int)").unwrap();
    c.register_query("all", "select id from [select * from S] as Z")
        .unwrap();
    let rport = c.attach_receptor("S", 0).unwrap();
    let eport = c.attach_emitter("all", 0).unwrap();
    assert_eq!(c.stats_report().unwrap().receptors.len(), 1);

    c.detach_receptor("S", rport).unwrap();
    c.detach_emitter("all", eport).unwrap();
    let stats = c.stats_report().unwrap();
    assert!(stats.receptors.is_empty(), "{stats:?}");
    assert!(stats.emitters.is_empty(), "{stats:?}");

    // a second detach of the same port — and a detach of a port that
    // never existed — are errors, not silent no-ops
    assert!(c.detach_receptor("S", rport).is_err());
    assert!(c.detach_emitter("all", eport).is_err());
    assert!(c.detach_receptor("S", 1).is_err());

    // the stream and query are untouched: fresh ports attach fine
    let rport2 = c.attach_receptor("S", 0).unwrap();
    let eport2 = c.attach_emitter("all", 0).unwrap();
    let mut sink = c.open_receptor(rport2).unwrap();
    let mut tap = c.open_emitter(eport2).unwrap();
    tap.set_timeout(Some(Duration::from_secs(10))).unwrap();
    sink.send_row(&[Value::Int(41)]).unwrap();
    sink.flush().unwrap();
    let schema = Schema::from_pairs(&[("id", ValueType::Int)]);
    let rows = tap.take_rows(&schema, 1).unwrap();
    assert_eq!(rows, vec![vec![Value::Int(41)]]);

    c.shutdown().unwrap();
    server_thread.join().unwrap();
}

/// Poll STATS until the receptor on `stream` has accepted `want` rows
/// (or a deadline passes); returns its `(accepted, rejected)`.
fn receptor_counts(c: &mut Client, stream: &str, want: u64) -> (u64, u64) {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let stats = c.stats_report().unwrap();
        let r = stats.receptors.iter().find(|r| r.stream == stream).unwrap();
        if r.accepted >= want || std::time::Instant::now() > deadline {
            return (r.accepted, r.rejected);
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn text_receptor_keeps_a_utf8_character_split_across_reads() {
    use std::io::Write;
    let (addr, server_thread) = boot();
    let mut c = Client::connect(addr).unwrap();
    c.create_stream("S", "(id int, s varchar)").unwrap();
    let rport = c.attach_receptor("S", 0).unwrap();

    // 'é' is C3 A9; the pause outlasts the receptor's read timeout, so
    // the two halves arrive in separate reads
    let mut raw = std::net::TcpStream::connect((addr.ip(), rport)).unwrap();
    raw.write_all(b"1|plain\n2|caf\xC3").unwrap();
    raw.flush().unwrap();
    std::thread::sleep(Duration::from_millis(100));
    raw.write_all(b"\xA9\n3|after\n").unwrap();
    raw.flush().unwrap();
    assert_eq!(receptor_counts(&mut c, "S", 3), (3, 0));
    let body = c.exec("select id, s from S").unwrap();
    assert_eq!(body, vec!["# id|s", "1|plain", "2|café", "3|after"]);

    // a line that is not UTF-8 is a counted rejection, and the
    // connection keeps serving the lines behind it
    raw.write_all(b"4|\xFF\n5|ok\n").unwrap();
    raw.flush().unwrap();
    assert_eq!(receptor_counts(&mut c, "S", 4), (4, 1));

    drop(raw);
    c.shutdown().unwrap();
    server_thread.join().unwrap();
}

#[test]
fn control_plane_keeps_a_utf8_character_split_across_reads() {
    use std::io::{BufRead, BufReader, Write};
    let (addr, server_thread) = boot();
    let mut c = Client::connect(addr).unwrap();
    c.create_table("T", "(a int, b varchar)").unwrap();
    c.exec("insert into T values (1, 'café'), (2, 'cafe')").unwrap();

    let mut raw = std::net::TcpStream::connect(addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut replies = BufReader::new(raw.try_clone().unwrap());
    let mut reply = || {
        let mut line = String::new();
        replies.read_line(&mut line).unwrap();
        line.trim_end().to_string()
    };
    raw.write_all(b"EXEC select a from T where b = 'caf\xC3").unwrap();
    raw.flush().unwrap();
    std::thread::sleep(Duration::from_millis(100));
    raw.write_all(b"\xA9'\n").unwrap();
    assert_eq!([reply(), reply(), reply()], ["OK 2", "# a", "1"]);

    // an invalid request gets an error reply, not a dropped session
    raw.write_all(b"PING \xFF\nPING\n").unwrap();
    assert!(reply().starts_with("ERR "));
    assert_eq!([reply(), reply()], ["OK 1", "pong"]);

    drop(raw);
    c.shutdown().unwrap();
    server_thread.join().unwrap();
}

/// Write one `id|id*3` text row every 2 ms for 600 ms, then close the
/// socket; returns the rows sent and when the last one was written.
fn trickle(addr: std::net::SocketAddr) -> JoinHandle<(Vec<(i64, i64)>, std::time::Instant)> {
    use std::io::Write;
    std::thread::spawn(move || {
        let mut sock = std::net::TcpStream::connect(addr).unwrap();
        let started = std::time::Instant::now();
        let mut sent = Vec::new();
        let mut id = 0i64;
        while started.elapsed() < Duration::from_millis(600) {
            sock.write_all(format!("{id}|{}\n", id * 3).as_bytes()).unwrap();
            sent.push((id, id * 3));
            id += 1;
            std::thread::sleep(Duration::from_millis(2));
        }
        (sent, std::time::Instant::now())
    })
}

/// Read `(id, v)` rows off a tap until it has `n`, noting when the
/// first one arrived.
fn take_pairs(
    tap: &mut dcserver::client::EmitterTap,
    n: usize,
) -> (Vec<(i64, i64)>, std::time::Instant) {
    let schema = Schema::from_pairs(&[("id", ValueType::Int), ("v", ValueType::Int)]);
    let mut rows = Vec::new();
    let mut first = None;
    while rows.len() < n {
        let row = tap.next_row(&schema).unwrap().expect("tap closed early");
        first.get_or_insert_with(std::time::Instant::now);
        match (&row[0], &row[1]) {
            (Value::Int(id), Value::Int(v)) => rows.push((*id, *v)),
            other => panic!("unexpected row {other:?}"),
        }
    }
    (rows, first.expect("at least one row"))
}

#[test]
fn text_trickle_reaches_the_subscriber_while_it_runs() {
    let server = bind("127.0.0.1:0", ServerConfig::default()).expect("bind control plane");
    let addr = server.local_addr().unwrap();
    let rt = std::sync::Arc::clone(server.runtime());
    let server_thread = std::thread::spawn(move || server.serve().expect("serve"));
    let mut c = Client::connect(addr).unwrap();
    c.create_stream("S", "(id int, v int)").unwrap();
    c.register_query("all", "select id, v from [select * from S] as Z")
        .unwrap();
    let rport = c.attach_receptor("S", 0).unwrap();
    let eport = c.attach_emitter("all", 0).unwrap();
    let mut tap = c.open_emitter(eport).unwrap();
    tap.set_timeout(Some(Duration::from_secs(10))).unwrap();

    // a row every 2 ms never lets the receptor's read time out, so only
    // the batch deadline can hand rows over before the sender stops
    let sender = trickle((addr.ip(), rport).into());
    let (mut got, first_seen) = take_pairs(&mut tap, 1);
    let (mut sent, sender_done) = sender.join().unwrap();
    assert!(
        first_seen < sender_done,
        "no row reached the subscriber before the trickle ended"
    );
    got.extend(take_pairs(&mut tap, sent.len() - 1).0);
    got.sort_unstable();
    sent.sort_unstable();
    assert_eq!(got, sent);

    // the fill wait is visible in METRICS and bounded by the deadline
    let fill = rt
        .telemetry()
        .hist_snapshot("dc_receptor_fill_micros", &[("stream", "S")])
        .expect("fill histogram registered");
    assert!(fill.count > 0, "{fill:?}");
    let bound = 2 * datacell::net::POLL_INTERVAL.as_micros() as u64;
    assert!(fill.max < bound, "fill wait {} µs, bound {bound} µs", fill.max);

    c.shutdown().unwrap();
    server_thread.join().unwrap();
}

#[test]
fn over_long_text_line_is_one_rejection_and_the_connection_keeps_serving() {
    use std::io::{BufRead, BufReader, Write};
    let (addr, server_thread) = boot();
    let mut c = Client::connect(addr).unwrap();
    c.create_stream("S", "(id int, v int)").unwrap();
    let rport = c.attach_receptor("S", 0).unwrap();

    // no newline yet: the line is rejected as soon as it passes the cap
    let mut raw = std::net::TcpStream::connect((addr.ip(), rport)).unwrap();
    raw.write_all(&vec![b'7'; datacell::net::MAX_LINE_LEN + 1]).unwrap();
    raw.flush().unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let rejected = loop {
        let stats = c.stats_report().unwrap();
        let r = stats.receptors.iter().find(|r| r.stream == "S").unwrap();
        if r.rejected > 0 || std::time::Instant::now() > deadline {
            break r.rejected;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    assert_eq!(rejected, 1);
    // the rest of the long line is discarded up to its newline
    raw.write_all(b"777\n1|10\n").unwrap();
    raw.flush().unwrap();
    assert_eq!(receptor_counts(&mut c, "S", 1), (1, 1));

    // the control plane answers an over-long request with an error and
    // keeps the session
    let mut ctl = std::net::TcpStream::connect(addr).unwrap();
    ctl.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut replies = BufReader::new(ctl.try_clone().unwrap());
    ctl.write_all(&vec![b'x'; datacell::net::MAX_LINE_LEN + 1]).unwrap();
    ctl.write_all(b"\nPING\n").unwrap();
    let mut reply = String::new();
    replies.read_line(&mut reply).unwrap();
    assert_eq!(reply.trim_end(), "ERR line too long");
    reply.clear();
    replies.read_line(&mut reply).unwrap();
    assert_eq!(reply.trim_end(), "OK 1");

    drop((raw, ctl));
    c.shutdown().unwrap();
    server_thread.join().unwrap();
}
