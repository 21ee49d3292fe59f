//! Offline shim for the `crossbeam` crate.
//!
//! The build environment has no access to a crates registry, so this
//! workspace vendors the subset of `crossbeam::channel` the code base
//! uses: an unbounded MPMC channel with `Clone`-able senders *and*
//! receivers, disconnect detection on both sides, and blocking /
//! non-blocking / timed receives. Built on `Mutex<VecDeque>` + `Condvar`
//! — slower than the real lock-free implementation, but semantically
//! equivalent for the workloads here.

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    struct Inner<T> {
        queue: Mutex<VecDeque<T>>,
        ready: Condvar,
        senders: AtomicUsize,
        receivers: AtomicUsize,
    }

    /// The sending half of a channel.
    pub struct Sender<T>(Arc<Inner<T>>);

    /// The receiving half of a channel. Clone-able: clones share one queue
    /// (each message is delivered to exactly one receiver).
    pub struct Receiver<T>(Arc<Inner<T>>);

    /// Create an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let inner = Arc::new(Inner {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
        });
        (Sender(Arc::clone(&inner)), Receiver(inner))
    }

    /// Bounded constructor for API compatibility. The shim does not apply
    /// backpressure; the capacity is advisory only.
    pub fn bounded<T>(_cap: usize) -> (Sender<T>, Receiver<T>) {
        unbounded()
    }

    /// Error returned by [`Sender::send`] when all receivers are gone.
    pub struct SendError<T>(pub T);

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    impl<T> std::error::Error for SendError<T> {}

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// all senders are gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("receiving on an empty and disconnected channel")
        }
    }

    impl std::error::Error for RecvError {}

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        Empty,
        Disconnected,
    }

    impl fmt::Display for TryRecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TryRecvError::Empty => f.write_str("receiving on an empty channel"),
                TryRecvError::Disconnected => {
                    f.write_str("receiving on an empty and disconnected channel")
                }
            }
        }
    }

    impl std::error::Error for TryRecvError {}

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        Timeout,
        Disconnected,
    }

    impl fmt::Display for RecvTimeoutError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                RecvTimeoutError::Timeout => f.write_str("timed out waiting on channel"),
                RecvTimeoutError::Disconnected => {
                    f.write_str("channel is empty and disconnected")
                }
            }
        }
    }

    impl std::error::Error for RecvTimeoutError {}

    impl<T> Sender<T> {
        /// Queue a message; fails only when every receiver has been dropped.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            if self.0.receivers.load(Ordering::Acquire) == 0 {
                return Err(SendError(value));
            }
            let mut q = self.0.queue.lock().unwrap_or_else(|p| p.into_inner());
            q.push_back(value);
            drop(q);
            self.0.ready.notify_one();
            Ok(())
        }

        pub fn is_empty(&self) -> bool {
            self.0
                .queue
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .is_empty()
        }

        pub fn len(&self) -> usize {
            self.0.queue.lock().unwrap_or_else(|p| p.into_inner()).len()
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.0.senders.fetch_add(1, Ordering::AcqRel);
            Sender(Arc::clone(&self.0))
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.0.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
                // last sender gone: wake all blocked receivers. Taking the
                // queue lock first means a receiver that still saw a live
                // sender has already gone to wait, so it gets the wake-up
                drop(self.0.queue.lock().unwrap_or_else(|p| p.into_inner()));
                self.0.ready.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Block until a message arrives or every sender is dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut q = self.0.queue.lock().unwrap_or_else(|p| p.into_inner());
            loop {
                if let Some(v) = q.pop_front() {
                    return Ok(v);
                }
                if self.0.senders.load(Ordering::Acquire) == 0 {
                    return Err(RecvError);
                }
                q = self.0.ready.wait(q).unwrap_or_else(|p| p.into_inner());
            }
        }

        /// Non-blocking receive.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut q = self.0.queue.lock().unwrap_or_else(|p| p.into_inner());
            if let Some(v) = q.pop_front() {
                return Ok(v);
            }
            if self.0.senders.load(Ordering::Acquire) == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }

        /// Blocking receive with a deadline.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut q = self.0.queue.lock().unwrap_or_else(|p| p.into_inner());
            loop {
                if let Some(v) = q.pop_front() {
                    return Ok(v);
                }
                if self.0.senders.load(Ordering::Acquire) == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (guard, _) = self
                    .0
                    .ready
                    .wait_timeout(q, deadline - now)
                    .unwrap_or_else(|p| p.into_inner());
                q = guard;
            }
        }

        pub fn is_empty(&self) -> bool {
            self.0
                .queue
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .is_empty()
        }

        pub fn len(&self) -> usize {
            self.0.queue.lock().unwrap_or_else(|p| p.into_inner()).len()
        }

        /// Blocking iterator over messages until disconnect.
        pub fn iter(&self) -> Iter<'_, T> {
            Iter { rx: self }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.0.receivers.fetch_add(1, Ordering::AcqRel);
            Receiver(Arc::clone(&self.0))
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.0.receivers.fetch_sub(1, Ordering::AcqRel);
        }
    }

    pub struct Iter<'a, T> {
        rx: &'a Receiver<T>,
    }

    impl<T> Iterator for Iter<'_, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.rx.recv().ok()
        }
    }

    impl<'a, T> IntoIterator for &'a Receiver<T> {
        type Item = T;
        type IntoIter = Iter<'a, T>;
        fn into_iter(self) -> Iter<'a, T> {
            self.iter()
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn send_recv_order() {
            let (tx, rx) = unbounded();
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.try_recv(), Ok(2));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        }

        #[test]
        fn disconnect_detection() {
            let (tx, rx) = unbounded::<i32>();
            drop(tx);
            assert_eq!(rx.recv(), Err(RecvError));
            let (tx, rx) = unbounded::<i32>();
            drop(rx);
            assert!(tx.send(1).is_err());
        }

        #[test]
        fn blocking_recv_wakes() {
            let (tx, rx) = unbounded();
            let h = std::thread::spawn(move || rx.recv());
            std::thread::sleep(Duration::from_millis(20));
            tx.send(42).unwrap();
            assert_eq!(h.join().unwrap(), Ok(42));
        }

        #[test]
        fn last_sender_drop_wakes_a_blocked_receiver() {
            // a drop that lands between the receiver's check for live
            // senders and its wait must still wake it: both sides are
            // released together so the drop often lands there
            let (done_tx, done_rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                for _ in 0..50_000 {
                    let (tx, rx) = unbounded::<i32>();
                    let go = Arc::new(std::sync::atomic::AtomicBool::new(false));
                    let go2 = Arc::clone(&go);
                    let h = std::thread::spawn(move || {
                        while !go2.load(Ordering::Acquire) {
                            std::hint::spin_loop();
                        }
                        rx.recv()
                    });
                    go.store(true, Ordering::Release);
                    drop(tx);
                    assert_eq!(h.join().unwrap(), Err(RecvError));
                }
                done_tx.send(()).unwrap();
            });
            done_rx
                .recv_timeout(Duration::from_secs(60))
                .expect("a receiver slept through the last sender's drop");
        }

        #[test]
        fn timeout_elapses() {
            let (_tx, rx) = unbounded::<i32>();
            let t0 = Instant::now();
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(30)),
                Err(RecvTimeoutError::Timeout)
            );
            assert!(t0.elapsed() >= Duration::from_millis(25));
        }

        #[test]
        fn mpmc_each_message_once() {
            let (tx, rx) = unbounded();
            let rx2 = rx.clone();
            for i in 0..100 {
                tx.send(i).unwrap();
            }
            drop(tx);
            let h1 = std::thread::spawn(move || rx.iter().count());
            let h2 = std::thread::spawn(move || rx2.iter().count());
            assert_eq!(h1.join().unwrap() + h2.join().unwrap(), 100);
        }
    }
}
