//! Bounded MPSC channels and cooperative cancellation — the thread
//! coordination substrate of the batched-solve service (`vbatch-serve`).
//!
//! `std::sync::mpsc::sync_channel` would nearly fit, but the service
//! needs three things it does not expose: a *non-destructive* fullness
//! probe (admission control must reject with a retry-after hint rather
//! than block a client thread), an exact live-depth reading (the
//! bounded-memory chaos property asserts queue depth against the
//! configured capacity), and a `recv_timeout` the batcher parks in
//! between arrivals. So the channel here is a small Mutex + Condvar
//! ring with those three operations, plus a [`CancelToken`] the service
//! hands to shard workers for graceful drain.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Error returned by [`Sender::try_send`], handing the rejected value
/// back to the caller so admission control can answer the client
/// without losing the request.
#[derive(Debug, PartialEq, Eq)]
pub enum TrySendError<T> {
    /// The queue is at capacity; the value is returned unqueued.
    Full(T),
    /// The receiver is gone; the value is returned unqueued.
    Disconnected(T),
}

/// Error returned by the receiving operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecvError {
    /// No message arrived within the timeout (or, for `try_recv`, the
    /// queue was empty at the probe).
    Empty,
    /// The queue is empty and every sender is gone: no message can ever
    /// arrive again.
    Disconnected,
}

struct Shared<T> {
    inner: Mutex<Inner<T>>,
    /// Signalled on enqueue and on sender disconnect.
    not_empty: Condvar,
    capacity: usize,
}

struct Inner<T> {
    queue: VecDeque<T>,
    senders: usize,
    receiver_alive: bool,
}

/// The producing half of a bounded channel; clonable across client
/// threads.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// The consuming half of a bounded channel (single consumer).
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

/// Create a bounded MPSC channel of the given capacity (at least 1).
pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    assert!(capacity >= 1, "channel capacity must be at least 1");
    let shared = Arc::new(Shared {
        inner: Mutex::new(Inner {
            queue: VecDeque::with_capacity(capacity),
            senders: 1,
            receiver_alive: true,
        }),
        not_empty: Condvar::new(),
        capacity,
    });
    (
        Sender {
            shared: shared.clone(),
        },
        Receiver { shared },
    )
}

impl<T> Sender<T> {
    /// Enqueue without blocking; on a full queue or a dead receiver the
    /// value comes back in the error so the caller still owns it.
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        let mut inner = self.shared.inner.lock().expect("channel poisoned");
        if !inner.receiver_alive {
            return Err(TrySendError::Disconnected(value));
        }
        if inner.queue.len() >= self.shared.capacity {
            return Err(TrySendError::Full(value));
        }
        inner.queue.push_back(value);
        drop(inner);
        self.shared.not_empty.notify_one();
        Ok(())
    }

    /// Messages currently queued (racy by nature; exact at the instant
    /// of the read).
    pub fn len(&self) -> usize {
        self.shared
            .inner
            .lock()
            .expect("channel poisoned")
            .queue
            .len()
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured capacity bound.
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.inner.lock().expect("channel poisoned").senders += 1;
        Sender {
            shared: self.shared.clone(),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut inner = self.shared.inner.lock().expect("channel poisoned");
        inner.senders -= 1;
        let last = inner.senders == 0;
        drop(inner);
        if last {
            // wake a receiver blocked in recv_timeout so it can observe
            // the disconnect instead of sleeping out its timeout
            self.shared.not_empty.notify_all();
        }
    }
}

impl<T> Receiver<T> {
    /// Dequeue without blocking.
    pub fn try_recv(&self) -> Result<T, RecvError> {
        let mut inner = self.shared.inner.lock().expect("channel poisoned");
        match inner.queue.pop_front() {
            Some(v) => Ok(v),
            None if inner.senders == 0 => Err(RecvError::Disconnected),
            None => Err(RecvError::Empty),
        }
    }

    /// Dequeue, waiting up to `timeout` for a message — the batcher's
    /// park on an empty queue: an arrival or a sender disconnect wakes
    /// it early.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvError> {
        let mut inner = self.shared.inner.lock().expect("channel poisoned");
        loop {
            if let Some(v) = inner.queue.pop_front() {
                return Ok(v);
            }
            if inner.senders == 0 {
                return Err(RecvError::Disconnected);
            }
            let (guard, res) = self
                .shared
                .not_empty
                .wait_timeout(inner, timeout)
                .expect("channel poisoned");
            inner = guard;
            if res.timed_out() {
                return match inner.queue.pop_front() {
                    Some(v) => Ok(v),
                    None if inner.senders == 0 => Err(RecvError::Disconnected),
                    None => Err(RecvError::Empty),
                };
            }
        }
    }

    /// Messages currently queued.
    pub fn len(&self) -> usize {
        self.shared
            .inner
            .lock()
            .expect("channel poisoned")
            .queue
            .len()
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.shared
            .inner
            .lock()
            .expect("channel poisoned")
            .receiver_alive = false;
    }
}

/// A cooperative cancellation flag shared between the service front
/// door and its shard workers: `cancel()` is observed by every clone.
/// Used for graceful drain — workers finish what is queued, then exit.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the flag; idempotent, observed by all clones.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// `true` once any clone has cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn try_send_respects_capacity_and_returns_value() {
        let (tx, rx) = bounded::<u32>(2);
        assert_eq!(tx.try_send(1), Ok(()));
        assert_eq!(tx.try_send(2), Ok(()));
        assert_eq!(tx.try_send(3), Err(TrySendError::Full(3)));
        assert_eq!(tx.len(), 2);
        assert_eq!(rx.try_recv(), Ok(1));
        assert_eq!(tx.try_send(3), Ok(()));
        assert_eq!(rx.try_recv(), Ok(2));
        assert_eq!(rx.try_recv(), Ok(3));
        assert_eq!(rx.try_recv(), Err(RecvError::Empty));
    }

    #[test]
    fn depth_never_exceeds_capacity_under_contention() {
        let (tx, rx) = bounded::<usize>(8);
        let writers: Vec<_> = (0..4)
            .map(|w| {
                let tx = tx.clone();
                thread::spawn(move || {
                    let mut sent = 0usize;
                    for i in 0..200 {
                        if tx.try_send(w * 1000 + i).is_ok() {
                            sent += 1;
                        }
                        assert!(tx.len() <= tx.capacity());
                    }
                    sent
                })
            })
            .collect();
        let reader = thread::spawn(move || {
            let mut got = 0usize;
            loop {
                match rx.recv_timeout(Duration::from_millis(50)) {
                    Ok(_) => got += 1,
                    Err(RecvError::Disconnected) => return got,
                    Err(RecvError::Empty) => {}
                }
            }
        });
        let sent: usize = writers.into_iter().map(|w| w.join().unwrap()).sum();
        drop(tx);
        let got = reader.join().unwrap();
        assert_eq!(sent, got, "every accepted message is delivered once");
    }

    #[test]
    fn recv_timeout_times_out_then_delivers() {
        let (tx, rx) = bounded::<u8>(1);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvError::Empty)
        );
        tx.try_send(9).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Ok(9));
    }

    #[test]
    fn disconnects_are_observed_on_both_ends() {
        let (tx, rx) = bounded::<u8>(1);
        tx.try_send(1).unwrap();
        drop(rx);
        assert_eq!(tx.try_send(2), Err(TrySendError::Disconnected(2)));

        let (tx, rx) = bounded::<u8>(1);
        drop(tx);
        assert_eq!(rx.try_recv(), Err(RecvError::Disconnected));
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvError::Disconnected)
        );
    }

    #[test]
    fn dropping_last_sender_wakes_blocked_receiver() {
        let (tx, rx) = bounded::<u8>(1);
        let h = thread::spawn(move || rx.recv_timeout(Duration::from_secs(5)));
        thread::sleep(Duration::from_millis(20));
        drop(tx);
        // the receiver returns promptly (well under the 5 s timeout)
        assert_eq!(h.join().unwrap(), Err(RecvError::Disconnected));
    }

    #[test]
    fn cancel_token_is_shared_across_clones() {
        let t = CancelToken::new();
        let c = t.clone();
        assert!(!c.is_cancelled());
        let h = thread::spawn(move || {
            t.cancel();
        });
        h.join().unwrap();
        assert!(c.is_cancelled());
        c.cancel(); // idempotent
        assert!(c.is_cancelled());
    }
}
