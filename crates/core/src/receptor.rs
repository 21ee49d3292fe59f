//! Receptors — adapter threads feeding baskets (paper §3.1).
//!
//! A receptor continuously picks events off a communication channel,
//! validates their structure and appends them to its basket(s). Two
//! channel kinds are provided: in-process crossbeam channels (benchmarks,
//! tests) and TCP streams speaking a negotiated [`WireFormat`] — the §3.1
//! textual protocol or the columnar binary frames of [`crate::frame`].
//! Receptors honor their basket's pending cap: a full basket blocks the
//! feed (backpressure) instead of growing without bound.

use std::io::BufReader;
use std::net::TcpListener;
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::Receiver;
use monet::prelude::*;

use crate::basket::Basket;
use crate::clock::Clock;
use crate::error::Result;
use crate::frame::{read_frame, WireFormat};
use crate::net::{Rejects, TextBatcher};

/// Handle to a running receptor thread.
pub struct Receptor {
    name: String,
    handle: JoinHandle<ReceptorReport>,
}

/// Lifetime statistics returned when the receptor ends.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReceptorReport {
    /// Tuples successfully appended.
    pub accepted: u64,
    /// Tuples rejected (bad structure, disabled basket).
    pub rejected: u64,
}

impl Receptor {
    /// Receptor on an in-process channel. Each message is one tuple; the
    /// receptor greedily batches whatever is queued before appending, so a
    /// burst becomes a single columnar append.
    pub fn spawn_channel(
        name: impl Into<String>,
        rx: Receiver<Vec<Value>>,
        basket: Arc<Basket>,
        clock: Arc<dyn Clock>,
    ) -> Receptor {
        let name = name.into();
        let tname = name.clone();
        let handle = std::thread::spawn(move || {
            let mut report = ReceptorReport::default();
            let mut batch: Vec<Vec<Value>> = Vec::new();
            while let Ok(first) = rx.recv() {
                batch.clear();
                batch.push(first);
                while let Ok(more) = rx.try_recv() {
                    batch.push(more);
                    if batch.len() >= 4096 {
                        break;
                    }
                }
                match basket.append_rows(&batch, clock.as_ref()) {
                    Ok(n) => {
                        report.accepted += n as u64;
                        report.rejected += (batch.len() - n) as u64;
                    }
                    Err(_) => report.rejected += batch.len() as u64,
                }
            }
            let _ = tname;
            report
        });
        Receptor { name, handle }
    }

    /// Receptor on an in-process channel of ready-made columnar batches —
    /// the batch-first twin of [`Receptor::spawn_channel`]. Each message
    /// is appended as one columnar batch.
    ///
    /// A basket with a pending cap blocks this feed while full
    /// (backpressure). If the consumer is gone for good, call
    /// `basket.disable()` to unblock the wait — the pending batch is
    /// then rejected and the loop resumes, ending at channel close.
    pub fn spawn_channel_batches(
        name: impl Into<String>,
        rx: Receiver<Relation>,
        basket: Arc<Basket>,
        clock: Arc<dyn Clock>,
    ) -> Receptor {
        let name = name.into();
        let handle = std::thread::spawn(move || {
            let mut report = ReceptorReport::default();
            while let Ok(batch) = rx.recv() {
                let total = batch.len() as u64;
                basket.wait_for_capacity(|| false);
                match basket.append_relation(batch, clock.as_ref()) {
                    Ok(n) => {
                        report.accepted += n as u64;
                        report.rejected += total - n as u64;
                    }
                    Err(_) => report.rejected += total,
                }
            }
            report
        });
        Receptor { name, handle }
    }

    /// Receptor listening on TCP: accepts one sensor connection and
    /// consumes batches in the given wire format until EOF. Text streams
    /// go through the shared [`TextBatcher`] (a batch is appended when
    /// full, when its first row is [`POLL_INTERVAL`] old, or when the
    /// read goes idle; a malformed line is one rejected row); binary
    /// streams arrive pre-framed. When the basket has a pending cap, the
    /// loop blocks (backpressure onto the peer's send buffer) instead of
    /// growing the basket unboundedly; `basket.disable()` unblocks a
    /// wait whose consumer died (the batch is rejected and the loop
    /// resumes, ending at EOF).
    ///
    /// [`POLL_INTERVAL`]: crate::net::POLL_INTERVAL
    pub fn spawn_tcp(
        name: impl Into<String>,
        listener: TcpListener,
        basket: Arc<Basket>,
        clock: Arc<dyn Clock>,
        format: WireFormat,
    ) -> Receptor {
        let name = name.into();
        let schema = basket.user_schema();
        let handle = std::thread::spawn(move || {
            let mut report = ReceptorReport::default();
            let Ok((stream, _)) = listener.accept() else {
                return report;
            };
            let append = |batch: Relation, report: &mut ReceptorReport| {
                let total = batch.len() as u64;
                basket.wait_for_capacity(|| false);
                match basket.append_relation(batch, clock.as_ref()) {
                    Ok(n) => {
                        report.accepted += n as u64;
                        report.rejected += total - n as u64;
                    }
                    Err(_) => report.rejected += total,
                }
            };
            match format {
                WireFormat::Text => {
                    let rejected = Rejects::default();
                    let mut batcher = TextBatcher::new(stream, schema);
                    while let Some(batch) = batcher.next_batch(&rejected, || false) {
                        append(batch.rows, &mut report);
                    }
                    report.rejected += rejected.total();
                }
                WireFormat::Binary => {
                    let mut reader = BufReader::new(stream);
                    loop {
                        match read_frame(&mut reader, &schema) {
                            Ok(None) => break,
                            Ok(Some(batch)) => append(batch, &mut report),
                            Err(_) => {
                                report.rejected += 1;
                                break;
                            }
                        }
                    }
                }
            }
            report
        });
        Receptor { name, handle }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// Wait for the feed to end and collect statistics.
    pub fn join(self) -> Result<ReceptorReport> {
        self.handle
            .join()
            .map_err(|_| crate::error::EngineError::Io("receptor thread panicked".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;
    use std::io::Write;

    fn schema() -> Schema {
        Schema::from_pairs(&[("id", ValueType::Int), ("v", ValueType::Int)])
    }

    #[test]
    fn channel_receptor_feeds_basket() {
        let clock: Arc<dyn Clock> = Arc::new(VirtualClock::new());
        let basket = Basket::new("B", &schema(), true);
        let (tx, rx) = crossbeam::channel::unbounded();
        let receptor = Receptor::spawn_channel("r", rx, Arc::clone(&basket), clock);
        for i in 0..100 {
            tx.send(vec![Value::Int(i), Value::Int(i * 10)]).unwrap();
        }
        drop(tx);
        let report = receptor.join().unwrap();
        assert_eq!(report.accepted, 100);
        assert_eq!(report.rejected, 0);
        assert_eq!(basket.len(), 100);
    }

    #[test]
    fn channel_receptor_counts_rejects() {
        let clock: Arc<dyn Clock> = Arc::new(VirtualClock::new());
        let basket = Basket::new("B", &schema(), true);
        basket.disable();
        let (tx, rx) = crossbeam::channel::unbounded();
        let receptor = Receptor::spawn_channel("r", rx, Arc::clone(&basket), clock);
        tx.send(vec![Value::Int(1), Value::Int(1)]).unwrap();
        drop(tx);
        let report = receptor.join().unwrap();
        assert_eq!(report.accepted, 0);
        assert_eq!(report.rejected, 1);
    }

    #[test]
    fn tcp_receptor_parses_lines() {
        let clock: Arc<dyn Clock> = Arc::new(VirtualClock::new());
        let basket = Basket::new("B", &schema(), true);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let receptor = Receptor::spawn_tcp(
            "r",
            listener,
            Arc::clone(&basket),
            clock,
            WireFormat::Text,
        );

        let mut sock = std::net::TcpStream::connect(addr).unwrap();
        sock.write_all(b"1|10\n2|20\n3|30\n").unwrap();
        drop(sock);

        let report = receptor.join().unwrap();
        assert_eq!(report.accepted, 3);
        assert_eq!(basket.len(), 3);
        let snap = basket.snapshot();
        assert_eq!(snap.column("v").unwrap().ints().unwrap(), &[10, 20, 30]);
    }

    #[test]
    fn tcp_receptor_rejects_a_malformed_line_and_keeps_reading() {
        let clock: Arc<dyn Clock> = Arc::new(VirtualClock::new());
        let basket = Basket::new("B", &schema(), true);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let receptor = Receptor::spawn_tcp(
            "r",
            listener,
            Arc::clone(&basket),
            clock,
            WireFormat::Text,
        );

        let mut sock = std::net::TcpStream::connect(addr).unwrap();
        sock.write_all(b"1|10\nnot-a-row\n3|30\n").unwrap();
        drop(sock);

        let report = receptor.join().unwrap();
        assert_eq!((report.accepted, report.rejected), (2, 1));
        let snap = basket.snapshot();
        assert_eq!(snap.column("v").unwrap().ints().unwrap(), &[10, 30]);
    }

    #[test]
    fn tcp_receptor_consumes_binary_frames() {
        let clock: Arc<dyn Clock> = Arc::new(VirtualClock::new());
        let basket = Basket::new("B", &schema(), true);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let receptor = Receptor::spawn_tcp(
            "r",
            listener,
            Arc::clone(&basket),
            clock,
            WireFormat::Binary,
        );

        let batch = Relation::from_columns(vec![
            ("id".into(), Column::from_ints(vec![1, 2, 3])),
            ("v".into(), Column::from_ints(vec![10, 20, 30])),
        ])
        .unwrap();
        let mut sock = std::net::TcpStream::connect(addr).unwrap();
        crate::frame::write_frame(&mut sock, &batch).unwrap();
        drop(sock);

        let report = receptor.join().unwrap();
        assert_eq!(report.accepted, 3);
        assert_eq!(report.rejected, 0);
        let snap = basket.snapshot();
        assert_eq!(snap.column("v").unwrap().ints().unwrap(), &[10, 20, 30]);
    }

    #[test]
    fn batch_channel_receptor_appends_columnar() {
        let clock: Arc<dyn Clock> = Arc::new(VirtualClock::new());
        let basket = Basket::new("B", &schema(), true);
        let (tx, rx) = crossbeam::channel::unbounded();
        let receptor =
            Receptor::spawn_channel_batches("r", rx, Arc::clone(&basket), clock);
        let batch = Relation::from_columns(vec![
            ("id".into(), Column::from_ints(vec![1, 2])),
            ("v".into(), Column::from_ints(vec![7, 8])),
        ])
        .unwrap();
        tx.send(batch).unwrap();
        drop(tx);
        let report = receptor.join().unwrap();
        assert_eq!(report.accepted, 2);
        assert_eq!(basket.len(), 2);
    }

    #[test]
    fn tcp_receptor_blocks_on_full_basket() {
        let clock: Arc<dyn Clock> = Arc::new(VirtualClock::new());
        let basket = Basket::new("B", &schema(), false);
        basket.set_pending_cap(8);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let receptor = Receptor::spawn_tcp(
            "r",
            listener,
            Arc::clone(&basket),
            clock,
            WireFormat::Binary,
        );

        // 20 frames of 5 tuples: the basket (cap 8) can hold at most
        // cap-1 tuples when an append is admitted, so occupancy never
        // exceeds 7 + 5 = 12
        let mut sock = std::net::TcpStream::connect(addr).unwrap();
        for f in 0..20i64 {
            let batch = Relation::from_columns(vec![
                ("id".into(), Column::from_ints((0..5).map(|i| f * 5 + i).collect())),
                ("v".into(), Column::from_ints(vec![0; 5])),
            ])
            .unwrap();
            crate::frame::write_frame(&mut sock, &batch).unwrap();
        }
        drop(sock);

        let mut total = 0usize;
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while total < 100 {
            assert!(
                std::time::Instant::now() < deadline,
                "receptor stalled: {total} tuples after 10s"
            );
            let drained = basket.drain();
            total += drained.len();
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(total, 100);
        let report = receptor.join().unwrap();
        assert_eq!(report.accepted, 100);
        assert!(
            basket.stats().high_water() <= 12,
            "backpressure must bound occupancy, saw high water {}",
            basket.stats().high_water()
        );
    }
}
