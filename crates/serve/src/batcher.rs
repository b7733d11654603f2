//! Micro-batcher: turns a concurrent stream of single items into bounded
//! batches under a batching window.
//!
//! Producers [`push`](MicroBatcher::push) items from any thread; any
//! number of consumers call [`next_batch`](MicroBatcher::next_batch),
//! which blocks until something is queued, then keeps collecting until
//! either `max_batch` items are available or `window` has elapsed since
//! the first item was seen — the classic throughput/latency dial of
//! batched serving (a wide window amortizes kernel launch over more
//! samples; a narrow one bounds the queueing delay added to every
//! request). With several consumers — the sharded engine runs one lane
//! per shard off a single batcher — a consumer that loses the race for a
//! freshly filled queue goes back to waiting instead of returning an
//! empty batch.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

struct BatchState<T> {
    queue: VecDeque<T>,
    closed: bool,
    /// Consumers blocked on `cv` right now. `push` notifies only when there
    /// is one: a wake-up is a system call on the submitting thread, and a
    /// busy engine's consumers are rarely asleep.
    parked: usize,
}

struct Shared<T> {
    state: Mutex<BatchState<T>>,
    cv: Condvar,
}

/// A cloneable multi-producer / single-consumer micro-batching queue.
pub struct MicroBatcher<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Clone for MicroBatcher<T> {
    fn clone(&self) -> Self {
        MicroBatcher {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Default for MicroBatcher<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> MicroBatcher<T> {
    /// An empty, open batcher.
    pub fn new() -> Self {
        MicroBatcher {
            shared: Arc::new(Shared {
                state: Mutex::new(BatchState {
                    queue: VecDeque::new(),
                    closed: false,
                    parked: 0,
                }),
                cv: Condvar::new(),
            }),
        }
    }

    /// Enqueues one item. Returns `false` (dropping the item) if the
    /// batcher has been closed.
    pub fn push(&self, item: T) -> bool {
        let mut st = self.shared.state.lock().unwrap();
        if st.closed {
            return false;
        }
        st.queue.push_back(item);
        // Read under the lock a consumer holds from its increment until
        // `wait` releases it, so a consumer is either counted here or has
        // yet to look at the queue.
        let wake = st.parked > 0;
        drop(st);
        if wake {
            self.shared.cv.notify_all();
        }
        true
    }

    /// Closes the batcher: subsequent pushes are rejected; the consumer
    /// drains what is queued and then sees `None`.
    pub fn close(&self) {
        self.shared.state.lock().unwrap().closed = true;
        self.shared.cv.notify_all();
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.shared.state.lock().unwrap().queue.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Blocks for the next micro-batch (1..=`max_batch` items): waits for a
    /// first item, then collects until `max_batch` or until `window` has
    /// elapsed. Returns `None` once the batcher is closed and drained —
    /// items queued at the moment `close` lands are still delivered, never
    /// dropped. Never returns an empty batch: if another consumer drains
    /// the queue first, this one resumes waiting.
    pub fn next_batch(&self, max_batch: usize, window: Duration) -> Option<Vec<T>> {
        assert!(max_batch >= 1, "max_batch must be >= 1");
        let mut st = self.shared.state.lock().unwrap();
        loop {
            while st.queue.is_empty() {
                if st.closed {
                    return None;
                }
                st.parked += 1;
                st = self.shared.cv.wait(st).unwrap();
                st.parked -= 1;
            }
            let deadline = Instant::now() + window;
            while st.queue.len() < max_batch && !st.closed {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                st.parked += 1;
                let (guard, wait) = self.shared.cv.wait_timeout(st, deadline - now).unwrap();
                st = guard;
                st.parked -= 1;
                if wait.timed_out() {
                    break;
                }
            }
            // A concurrent consumer may have raced us to the queue while we
            // slept inside the window wait; an empty grab is not a batch.
            let take = st.queue.len().min(max_batch);
            if take > 0 {
                return Some(st.queue.drain(..take).collect());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn batches_respect_max_batch() {
        let b = MicroBatcher::new();
        for i in 0..10 {
            assert!(b.push(i));
        }
        let first = b.next_batch(4, Duration::from_millis(1)).unwrap();
        assert_eq!(first, vec![0, 1, 2, 3]);
        let second = b.next_batch(4, Duration::from_millis(1)).unwrap();
        assert_eq!(second, vec![4, 5, 6, 7]);
    }

    #[test]
    fn window_flushes_partial_batch() {
        let b = MicroBatcher::new();
        b.push(7u32);
        let batch = b.next_batch(64, Duration::from_millis(5)).unwrap();
        assert_eq!(batch, vec![7]);
    }

    #[test]
    fn zero_window_is_immediate_batch_of_whatever_is_queued() {
        let b = MicroBatcher::new();
        b.push(1u32);
        b.push(2);
        let batch = b.next_batch(64, Duration::ZERO).unwrap();
        assert_eq!(batch, vec![1, 2]);
    }

    #[test]
    fn close_drains_then_ends() {
        let b = MicroBatcher::new();
        b.push(1u32);
        b.close();
        assert!(!b.push(2), "push after close must be rejected");
        assert_eq!(b.next_batch(8, Duration::ZERO), Some(vec![1]));
        assert_eq!(b.next_batch(8, Duration::ZERO), None);
    }

    #[test]
    fn competing_consumers_never_see_an_empty_batch_and_split_the_stream() {
        let b = MicroBatcher::new();
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let b = b.clone();
                thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(batch) = b.next_batch(4, Duration::from_millis(2)) {
                        assert!(!batch.is_empty(), "empty batch delivered to a consumer");
                        got.extend(batch);
                    }
                    got
                })
            })
            .collect();
        for i in 0..300u32 {
            assert!(b.push(i));
            if i % 7 == 0 {
                thread::yield_now();
            }
        }
        b.close();
        let mut got: Vec<u32> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        got.sort_unstable();
        assert_eq!(got, (0..300).collect::<Vec<_>>());
    }

    #[test]
    fn items_queued_at_close_are_delivered_not_dropped() {
        let b = MicroBatcher::new();
        for i in 0..10u32 {
            assert!(b.push(i));
        }
        b.close();
        let mut got = Vec::new();
        while let Some(batch) = b.next_batch(3, Duration::ZERO) {
            got.extend(batch);
        }
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn cross_thread_producers_are_all_collected() {
        let b = MicroBatcher::new();
        let producers: Vec<_> = (0..4)
            .map(|t| {
                let b = b.clone();
                thread::spawn(move || {
                    for i in 0..25u32 {
                        assert!(b.push(t * 100 + i));
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        b.close();
        let mut got = Vec::new();
        while let Some(batch) = b.next_batch(16, Duration::ZERO) {
            assert!(batch.len() <= 16);
            got.extend(batch);
        }
        got.sort_unstable();
        let mut want: Vec<u32> = (0..4)
            .flat_map(|t| (0..25).map(move |i| t * 100 + i))
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }
}
