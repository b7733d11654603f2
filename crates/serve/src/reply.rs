//! One-shot reply slots: how a scored response gets from an engine thread
//! back to the client that submitted the request (DESIGN.md §11).
//!
//! A slot is shared by a `ReplySender` (travels with the queued request)
//! and a [`ResponseHandle`] (returned to the client). The engine fills
//! every slot of a micro-batch first and only then unparks the distinct
//! waiters it found: a closed-loop client parked on its oldest request is
//! woken once per batch and finds the rest ready — one futex wake per
//! batch, not one per reply.
//!
//! Ordering: every transition of a slot happens under its mutex. A waiter
//! registers its thread under the lock only after seeing the slot empty,
//! so a filler that locks later finds the handle and owes it an unpark,
//! and one that locked earlier left the response where the waiter's check
//! reads it. An unpark before its `park` is kept as the thread's token and
//! a stale token costs one more trip round the loop, so no wake-up is lost
//! and none is trusted: `wait` re-reads the slot after every `park`.
//!
//! The scored request rides back in the slot and is dropped by the thread
//! that calls `wait` — normally the one that allocated it, whose allocator
//! cache takes the frees. A sender dropped unfilled (engine shut down with
//! the request queued, or its lane unwinding mid-batch) marks the slot
//! abandoned and wakes the waiter: `wait` ends with an `Err`, never a hang.

use crate::engine::{Request, Response};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::{self, Thread};

enum Slot {
    /// No response yet and nobody parked on it.
    Empty,
    /// No response yet; this thread is (about to be) parked on it.
    Waiting(Thread),
    /// The response, and the spent request for the waiter to drop.
    Ready(Response, Request),
    /// The sender was dropped without a response.
    Abandoned,
}

/// A slot's state is a plain value that every transition replaces whole, so
/// it is valid even if a holder of the lock panicked.
fn lock(slot: &Mutex<Slot>) -> MutexGuard<'_, Slot> {
    slot.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A fresh slot: the engine's end and the client's end.
pub(crate) fn slot() -> (ReplySender, ResponseHandle) {
    let slot = Arc::new(Mutex::new(Slot::Empty));
    (
        ReplySender(Some(Arc::clone(&slot))),
        ResponseHandle { slot },
    )
}

/// The engine's end of a reply slot.
pub(crate) struct ReplySender(Option<Arc<Mutex<Slot>>>);

impl ReplySender {
    /// Publishes `resp` (and hands back `spent`, the scored request);
    /// returns the thread parked on the slot, if any, which the caller must
    /// unpark (after filling the rest of its batch).
    pub(crate) fn fill(mut self, resp: Response, spent: Request) -> Option<Thread> {
        let slot = self.0.take().expect("a sender fills at most once");
        let before = std::mem::replace(&mut *lock(&slot), Slot::Ready(resp, spent));
        match before {
            Slot::Waiting(waiter) => Some(waiter),
            _ => None,
        }
    }
}

impl Drop for ReplySender {
    fn drop(&mut self) {
        if let Some(slot) = self.0.take() {
            let before = std::mem::replace(&mut *lock(&slot), Slot::Abandoned);
            if let Slot::Waiting(waiter) = before {
                waiter.unpark();
            }
        }
    }
}

/// A pending response.
pub struct ResponseHandle {
    slot: Arc<Mutex<Slot>>,
}

impl ResponseHandle {
    /// Blocks until the engine scores this request.
    pub fn wait(self) -> Result<Response, String> {
        loop {
            {
                let mut slot = lock(&self.slot);
                match std::mem::replace(&mut *slot, Slot::Empty) {
                    Slot::Ready(resp, spent) => {
                        drop(slot);
                        drop(spent); // outside the lock, on the waiter's thread
                        return Ok(resp);
                    }
                    Slot::Abandoned => {
                        return Err("engine dropped the request (shut down mid-flight)".into())
                    }
                    Slot::Empty | Slot::Waiting(_) => *slot = Slot::Waiting(thread::current()),
                }
            }
            thread::park();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    const WATCHDOG: Duration = Duration::from_secs(60);

    fn response(logit: f32) -> Response {
        Response {
            logit,
            prob: 0.5,
            latency: Duration::ZERO,
        }
    }

    fn spent() -> Request {
        Request {
            dense: vec![1.0],
            indices: vec![vec![3]],
        }
    }

    /// Runs `handle.wait()` on its own thread; the result arrives on the
    /// returned channel, so a hang shows as a watchdog timeout.
    fn wait_on_thread(handle: ResponseHandle) -> mpsc::Receiver<Result<Response, String>> {
        let (tx, rx) = mpsc::channel();
        thread::spawn(move || tx.send(handle.wait()));
        rx
    }

    /// Blocks until a waiter has registered on `sender`'s slot.
    fn until_waiting(sender: &ReplySender) {
        let slot = sender.0.as_ref().expect("unfilled");
        while !matches!(*lock(slot), Slot::Waiting(_)) {
            thread::yield_now();
        }
    }

    #[test]
    fn reply_ready_before_wait_needs_no_wake() {
        let (sender, handle) = slot();
        assert!(
            sender.fill(response(1.5), spent()).is_none(),
            "nobody was waiting"
        );
        assert_eq!(handle.wait().expect("filled").logit, 1.5);
    }

    #[test]
    fn wait_before_reply_is_woken_by_the_returned_waiter() {
        let (sender, handle) = slot();
        let done = wait_on_thread(handle);
        until_waiting(&sender);
        let waiter = sender
            .fill(response(-2.0), spent())
            .expect("a registered waiter");
        waiter.unpark();
        let resp = done.recv_timeout(WATCHDOG).expect("wait hung");
        assert_eq!(resp.expect("filled").logit, -2.0);
    }

    #[test]
    fn sender_dropped_unfilled_ends_wait_with_err() {
        // Dropped before the wait…
        let (sender, handle) = slot();
        drop(sender);
        assert!(handle.wait().is_err());
        // …and under a parked waiter.
        let (sender, handle) = slot();
        let done = wait_on_thread(handle);
        until_waiting(&sender);
        drop(sender);
        let outcome = done.recv_timeout(WATCHDOG).expect("wait hung");
        assert!(outcome.is_err(), "an abandoned slot is an Err");
    }

    #[test]
    fn a_stale_unpark_token_costs_a_retry_not_a_wrong_answer() {
        let (sender, handle) = slot();
        let (tx, rx) = mpsc::channel();
        let waiter = thread::spawn(move || {
            thread::current().unpark(); // a token left by an earlier reply
            tx.send(handle.wait())
        });
        until_waiting(&sender);
        if let Some(w) = sender.fill(response(7.0), spent()) {
            w.unpark();
        }
        let resp = rx.recv_timeout(WATCHDOG).expect("wait hung");
        assert_eq!(resp.expect("filled").logit, 7.0);
        waiter.join().expect("waiter").expect("receiver alive");
    }
}
