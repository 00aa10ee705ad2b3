//! A bounded single-producer/single-consumer ring buffer on `std::sync`
//! atomics — the channel between the ingestion front-end and each shard
//! worker of the parallel pipeline.
//!
//! No external crates (the workspace builds offline), a lock-free hot
//! path, no allocation after construction: a power-of-two slot array, a
//! head index owned by the consumer, a tail index owned by the producer,
//! and acquire/release ordering on each so a slot's contents are visible
//! before its index. Each endpoint caches the other's index and re-reads
//! it only when the cache says full/empty, so an uncontended push/pop is
//! one atomic store plus one (cached) load.
//!
//! Blocking waits (`send` on a full ring, `recv` on an empty one) spin
//! briefly, then **park** until the opposite endpoint publishes — an
//! event-driven wake, not a poll. The handshake is Dekker-style: the
//! waiter raises a `waiting` flag before its final re-check, the
//! publisher stores its index before reading the flag, and SeqCst fences
//! order the two, so a publication can never slip between re-check and
//! park. A parked endpoint therefore sleeps with no timeout: it wakes
//! on a publish or a close and never otherwise, so an idle worker costs
//! no CPU at all. Parking matters two ways: an idle worker stops
//! competing for scheduler quanta, and — unlike the sleep-polling tier
//! it replaced — a batch arriving while the worker waits pays one
//! unpark, not the remainder of a poll period, which is what kept
//! routed p99 service latency in the milliseconds.
//!
//! # Examples
//!
//! ```
//! use rtdac_monitor::spsc;
//!
//! let (tx, rx) = spsc::channel::<u64>(8);
//! let worker = std::thread::spawn(move || {
//!     let mut sum = 0;
//!     while let Some(v) = rx.recv() {
//!         sum += v;
//!     }
//!     sum
//! });
//! for v in 1..=10 {
//!     tx.send(v).unwrap();
//! }
//! drop(tx); // closes the channel; recv drains then returns None
//! assert_eq!(worker.join().unwrap(), 55);
//! ```

use std::cell::{Cell, UnsafeCell};
use std::mem::MaybeUninit;
use std::sync::atomic::{fence, AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::Thread;

/// Failed attempts a blocking wait spends spinning (the first half)
/// and yielding (the second half) before it parks.
const SPIN_LIMIT: u32 = 128;

/// One endpoint's park/wake handshake. The would-be waiter registers its
/// thread handle and raises `waiting` *before* re-checking the ring; the
/// opposite endpoint publishes its index (or the closed flag) *before*
/// reading `waiting`. The two SeqCst fences order those four accesses
/// Dekker-style: either the waiter's re-check sees the publication, or
/// the publisher sees `waiting` and unparks — a publication can never
/// slip between the final re-check and the park.
struct Waiter {
    waiting: AtomicBool,
    /// The thread that last prepared to park. Re-registered on every
    /// prepare: an endpoint is `Send`, so the pipeline that owns it may
    /// block on it from a different thread next time (a tenant moves
    /// between connection threads and the idle sweeper). The mutex is
    /// uncontended except at the instant of a wake.
    thread: Mutex<Option<Thread>>,
    /// Parks taken, so tests can prove a wait really parked.
    #[cfg(test)]
    parks: AtomicUsize,
}

impl Waiter {
    fn new() -> Self {
        Waiter {
            waiting: AtomicBool::new(false),
            thread: Mutex::new(None),
            #[cfg(test)]
            parks: AtomicUsize::new(0),
        }
    }

    /// Announces intent to park. The caller must re-check the ring (and
    /// the closed flag) after this before actually parking.
    fn prepare(&self) {
        *self.thread.lock().expect("waiter mutex") = Some(std::thread::current());
        self.waiting.store(true, Ordering::Relaxed);
        fence(Ordering::SeqCst);
    }

    /// Parks the current thread until the opposite endpoint wakes it.
    /// Tolerates spurious and stale unparks; the caller loops and
    /// re-checks.
    fn park(&self) {
        #[cfg(test)]
        self.parks.fetch_add(1, Ordering::Relaxed);
        std::thread::park();
    }

    /// Withdraws the intent to park (the re-check found work, or a park
    /// returned).
    fn stand_down(&self) {
        self.waiting.store(false, Ordering::Relaxed);
    }

    /// Wakes the endpoint if it is parked or committing to park. Callers
    /// publish their store (ring index or closed flag) first; the fence
    /// pairs with the one in [`Waiter::prepare`].
    fn wake(&self) {
        fence(Ordering::SeqCst);
        if self.waiting.swap(false, Ordering::Relaxed) {
            if let Some(thread) = self.thread.lock().expect("waiter mutex").as_ref() {
                thread.unpark();
            }
        }
    }
}

struct Ring<T> {
    /// Slot storage; slot `i % capacity` is written by the producer and
    /// read by the consumer, never both at once (the indices partition
    /// ownership).
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// Next slot to read (consumer-owned; producer reads it).
    head: AtomicUsize,
    /// Next slot to write (producer-owned; consumer reads it).
    tail: AtomicUsize,
    /// Set when either endpoint drops.
    closed: AtomicBool,
    /// `capacity - 1`; capacity is a power of two so masking replaces
    /// modulo.
    mask: usize,
    /// Park/wake handshake for a consumer blocked on an empty ring.
    consumer: Waiter,
    /// Park/wake handshake for a producer blocked on a full ring.
    producer: Waiter,
    /// [`SPIN_LIMIT`] outside tests; zero makes every blocking wait
    /// park at once.
    spin_limit: u32,
}

// SAFETY: the ring is shared between exactly one producer and one
// consumer; each slot is accessed by one side at a time (ownership is
// handed over through the acquire/release index publications), so `T:
// Send` suffices.
unsafe impl<T: Send> Sync for Ring<T> {}
unsafe impl<T: Send> Send for Ring<T> {}

impl<T> Drop for Ring<T> {
    fn drop(&mut self) {
        // Only the last Arc owner reaches this; any items the consumer
        // never received must be dropped here.
        let head = *self.head.get_mut();
        let tail = *self.tail.get_mut();
        for i in head..tail {
            // SAFETY: slots in [head, tail) hold initialized values not
            // yet taken by the consumer.
            unsafe {
                (*self.slots[i & self.mask].get()).assume_init_drop();
            }
        }
    }
}

/// Error returned by [`Sender::send`] when the consumer is gone; gives
/// the rejected value back.
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// The producing endpoint. Dropping it closes the channel: the consumer
/// drains what remains, then sees `None`.
pub struct Sender<T> {
    ring: Arc<Ring<T>>,
    /// Producer-local cache of the consumer's head, refreshed only when
    /// the ring looks full.
    cached_head: Cell<usize>,
}

/// The consuming endpoint. Dropping it closes the channel: subsequent
/// sends fail and buffered items are dropped with the ring.
pub struct Receiver<T> {
    ring: Arc<Ring<T>>,
    /// Consumer-local cache of the producer's tail, refreshed only when
    /// the ring looks empty.
    cached_tail: Cell<usize>,
}

/// Creates a bounded SPSC channel with at least `capacity` slots
/// (rounded up to a power of two).
///
/// # Panics
///
/// Panics if `capacity == 0`.
pub fn channel<T: Send>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    channel_with_spin_limit(capacity, SPIN_LIMIT)
}

fn channel_with_spin_limit<T: Send>(capacity: usize, spin_limit: u32) -> (Sender<T>, Receiver<T>) {
    assert!(capacity > 0, "capacity must be positive");
    let capacity = capacity.next_power_of_two();
    let slots = (0..capacity)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect::<Vec<_>>()
        .into_boxed_slice();
    let ring = Arc::new(Ring {
        slots,
        head: AtomicUsize::new(0),
        tail: AtomicUsize::new(0),
        closed: AtomicBool::new(false),
        mask: capacity - 1,
        consumer: Waiter::new(),
        producer: Waiter::new(),
        spin_limit,
    });
    (
        Sender {
            ring: Arc::clone(&ring),
            cached_head: Cell::new(0),
        },
        Receiver {
            ring,
            cached_tail: Cell::new(0),
        },
    )
}

impl<T: Send> Sender<T> {
    /// Attempts to enqueue without blocking. `Err` returns the value:
    /// either the ring is full (`is_closed() == false`) or the consumer
    /// is gone.
    pub fn try_send(&self, value: T) -> Result<(), T> {
        if self.ring.closed.load(Ordering::Acquire) {
            return Err(value);
        }
        let tail = self.ring.tail.load(Ordering::Relaxed);
        if tail - self.cached_head.get() > self.ring.mask {
            // Looks full through the cache; refresh from the consumer.
            self.cached_head.set(self.ring.head.load(Ordering::Acquire));
            if tail - self.cached_head.get() > self.ring.mask {
                return Err(value);
            }
        }
        // SAFETY: the slot at `tail` is outside [head, tail), so the
        // consumer is not touching it; we are the only producer.
        unsafe {
            (*self.ring.slots[tail & self.ring.mask].get()).write(value);
        }
        // Release-publish the slot before advancing the index, then wake
        // a consumer that may be parked on the empty ring.
        self.ring.tail.store(tail + 1, Ordering::Release);
        self.ring.consumer.wake();
        Ok(())
    }

    /// Enqueues, blocking while the ring is full: a short spin/yield
    /// ladder, then an event-driven park until the consumer frees a
    /// slot. Fails only if the consumer has dropped.
    pub fn send(&self, mut value: T) -> Result<(), SendError<T>> {
        let mut spins = 0u32;
        loop {
            match self.try_send(value) {
                Ok(()) => return Ok(()),
                Err(v) if self.ring.closed.load(Ordering::Acquire) => {
                    return Err(SendError(v));
                }
                Err(v) => {
                    value = v;
                    spins += 1;
                    if spins < self.ring.spin_limit / 2 {
                        std::hint::spin_loop();
                    } else if spins < self.ring.spin_limit {
                        std::thread::yield_now();
                    } else {
                        // Park until the consumer pops (it unparks us) —
                        // prepare/re-check/park so a pop cannot slip past
                        // unnoticed. Parking (vs yield-spinning) matters
                        // with more threads than cores: a runnable
                        // spinner eats the scheduler quantum the consumer
                        // needs to drain the ring.
                        self.ring.producer.prepare();
                        match self.try_send(value) {
                            Ok(()) => {
                                self.ring.producer.stand_down();
                                return Ok(());
                            }
                            Err(v) if self.ring.closed.load(Ordering::Acquire) => {
                                self.ring.producer.stand_down();
                                return Err(SendError(v));
                            }
                            Err(v) => {
                                value = v;
                                self.ring.producer.park();
                                self.ring.producer.stand_down();
                            }
                        }
                    }
                }
            }
        }
    }

    /// Whether the other endpoint has dropped.
    pub fn is_closed(&self) -> bool {
        self.ring.closed.load(Ordering::Acquire)
    }

    /// Occupied slot count at this instant — a fresh (relaxed) read of
    /// both indices, exact up to the race with a concurrent pop. The
    /// pipeline samples this right after each send to maintain the
    /// ring high-water marks the adaptive controller watches.
    pub fn occupancy(&self) -> usize {
        self.ring
            .tail
            .load(Ordering::Relaxed)
            .wrapping_sub(self.ring.head.load(Ordering::Relaxed))
    }

    /// The ring's actual slot count (requested capacity rounded up to
    /// a power of two) — the denominator for occupancy fractions.
    pub fn slot_capacity(&self) -> usize {
        self.ring.mask + 1
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        self.ring.closed.store(true, Ordering::Release);
        // A consumer parked on the empty ring must observe the close.
        self.ring.consumer.wake();
    }
}

impl<T: Send> Receiver<T> {
    /// Attempts to dequeue without blocking; `None` means currently
    /// empty (not necessarily closed).
    pub fn try_recv(&self) -> Option<T> {
        let head = self.ring.head.load(Ordering::Relaxed);
        if head == self.cached_tail.get() {
            // Looks empty through the cache; refresh from the producer.
            self.cached_tail.set(self.ring.tail.load(Ordering::Acquire));
            if head == self.cached_tail.get() {
                return None;
            }
        }
        // SAFETY: head < tail, so this slot holds a value the producer
        // published (acquire on tail ordered the write before this read);
        // we are the only consumer.
        let value = unsafe { (*self.ring.slots[head & self.ring.mask].get()).assume_init_read() };
        // Release the slot back to the producer, then wake a producer
        // that may be parked on the full ring.
        self.ring.head.store(head + 1, Ordering::Release);
        self.ring.producer.wake();
        Some(value)
    }

    /// Dequeues, blocking while the ring is empty: a short spin/yield
    /// ladder, then an event-driven park until the producer publishes.
    /// `None` means the producer dropped *and* the ring has been
    /// drained — the channel's end-of-stream.
    pub fn recv(&self) -> Option<T> {
        let mut spins = 0u32;
        loop {
            if let Some(value) = self.try_recv() {
                return Some(value);
            }
            if self.ring.closed.load(Ordering::Acquire) {
                // Closed: one final drain pass (the producer may have
                // pushed between our try_recv and the closed check).
                return self.try_recv();
            }
            spins += 1;
            if spins < self.ring.spin_limit / 2 {
                std::hint::spin_loop();
            } else if spins < self.ring.spin_limit {
                std::thread::yield_now();
            } else {
                // Long-idle: park until the producer publishes (it
                // unparks us). A sleep-polling tier here put its full
                // poll period into the service-latency tail whenever a
                // batch arrived mid-nap; an event-driven wake costs one
                // unpark instead, and an idle worker leaves the
                // scheduler alone entirely.
                self.ring.consumer.prepare();
                if let Some(value) = self.try_recv() {
                    self.ring.consumer.stand_down();
                    return Some(value);
                }
                if self.ring.closed.load(Ordering::Acquire) {
                    self.ring.consumer.stand_down();
                    return self.try_recv();
                }
                self.ring.consumer.park();
                self.ring.consumer.stand_down();
            }
        }
    }

    /// Whether the other endpoint has dropped (items may still remain).
    pub fn is_closed(&self) -> bool {
        self.ring.closed.load(Ordering::Acquire)
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.ring.closed.store(true, Ordering::Release);
        // A producer parked on the full ring must observe the close.
        self.ring.producer.wake();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn fifo_order_within_capacity() {
        let (tx, rx) = channel::<u32>(4);
        for v in 0..4 {
            tx.try_send(v).unwrap();
        }
        for v in 0..4 {
            assert_eq!(rx.try_recv(), Some(v));
        }
        assert_eq!(rx.try_recv(), None);
    }

    #[test]
    fn wraparound_preserves_order() {
        let (tx, rx) = channel::<u32>(4);
        // Drive the indices far past the capacity so masking wraps many
        // times.
        for round in 0..100u32 {
            for v in 0..3 {
                tx.try_send(round * 3 + v).unwrap();
            }
            for v in 0..3 {
                assert_eq!(rx.try_recv(), Some(round * 3 + v));
            }
        }
    }

    #[test]
    fn full_ring_rejects_then_accepts() {
        let (tx, rx) = channel::<u32>(2);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        assert_eq!(tx.try_send(3), Err(3));
        assert_eq!(rx.try_recv(), Some(1));
        tx.try_send(3).unwrap();
        assert_eq!(rx.try_recv(), Some(2));
        assert_eq!(rx.try_recv(), Some(3));
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        let (tx, _rx) = channel::<u32>(3);
        for v in 0..4 {
            tx.try_send(v).unwrap(); // 3 rounds up to 4 slots
        }
        assert_eq!(tx.try_send(4), Err(4));
    }

    #[test]
    fn producer_drop_lets_consumer_drain() {
        let (tx, rx) = channel::<u32>(8);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Some(1));
        assert_eq!(rx.recv(), Some(2));
        assert_eq!(rx.recv(), None);
        assert_eq!(rx.recv(), None); // stays closed
    }

    #[test]
    fn consumer_drop_fails_send() {
        let (tx, rx) = channel::<u32>(8);
        drop(rx);
        assert!(tx.is_closed());
        assert_eq!(tx.send(7), Err(SendError(7)));
    }

    #[test]
    fn undelivered_items_are_dropped_on_shutdown() {
        #[derive(Debug)]
        struct Counted<'a>(&'a AtomicUsize);
        impl Drop for Counted<'_> {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = AtomicUsize::new(0);
        {
            let (tx, rx) = channel::<Counted>(8);
            tx.try_send(Counted(&drops)).unwrap();
            tx.try_send(Counted(&drops)).unwrap();
            tx.try_send(Counted(&drops)).unwrap();
            let received = rx.try_recv().unwrap();
            drop(received);
            assert_eq!(drops.load(Ordering::SeqCst), 1);
            drop(tx);
            drop(rx); // two items still buffered
        }
        assert_eq!(drops.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn parked_consumer_wakes_on_send() {
        // The consumer outlasts the spin/yield ladder and parks; a send
        // must unpark it (the park has no timeout to fall back on).
        let (tx, rx) = channel::<u32>(4);
        let consumer = std::thread::spawn(move || rx.recv());
        std::thread::sleep(Duration::from_millis(20)); // let it park
        tx.try_send(99).unwrap();
        assert_eq!(consumer.join().unwrap(), Some(99));
    }

    #[test]
    fn parked_consumer_wakes_on_close() {
        let (tx, rx) = channel::<u32>(4);
        let consumer = std::thread::spawn(move || rx.recv());
        std::thread::sleep(Duration::from_millis(20));
        drop(tx);
        assert_eq!(consumer.join().unwrap(), None);
    }

    #[test]
    fn parked_producer_wakes_on_recv_and_on_close() {
        // Fill the ring so the producer's blocking send parks.
        let (tx, rx) = channel::<u32>(2);
        tx.try_send(0).unwrap();
        tx.try_send(1).unwrap();
        let producer = std::thread::spawn(move || {
            tx.send(2).unwrap(); // parks until a pop frees a slot
            tx.send(3) // parks until the receiver drops
        });
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(rx.recv(), Some(0));
        std::thread::sleep(Duration::from_millis(20)); // let send(3) park
        drop(rx);
        assert_eq!(producer.join().unwrap(), Err(SendError(3)));
    }

    #[test]
    fn occupancy_tracks_sends_and_recvs() {
        let (tx, rx) = channel::<u32>(3); // rounds up to 4 slots
        assert_eq!(tx.slot_capacity(), 4);
        assert_eq!(tx.occupancy(), 0);
        for v in 0..4 {
            tx.try_send(v).unwrap();
        }
        assert_eq!(tx.occupancy(), 4); // saturated
        rx.try_recv().unwrap();
        assert_eq!(tx.occupancy(), 3);
        while rx.try_recv().is_some() {}
        assert_eq!(tx.occupancy(), 0);
    }

    /// Streams `items` through a ring whose every blocking wait parks at
    /// once, under a watchdog: a lost wake-up leaves both endpoints
    /// parked forever, which fails the test at the deadline instead of
    /// hanging it. Returns the (producer, consumer) park counts.
    fn stream_with_forced_parks(capacity: usize, items: u64) -> (usize, usize) {
        let (tx, rx) = channel_with_spin_limit::<u64>(capacity, 0);
        let ring = Arc::clone(&tx.ring);
        let received = Arc::new(AtomicUsize::new(0));
        let producer = std::thread::spawn(move || {
            for v in 0..items {
                tx.send(v).unwrap();
            }
        });
        let progress = Arc::clone(&received);
        let (done_tx, done_rx) = mpsc::channel();
        let consumer = std::thread::spawn(move || {
            let mut expected = 0u64;
            while let Some(v) = rx.recv() {
                assert_eq!(v, expected);
                expected += 1;
                progress.store(expected as usize, Ordering::Relaxed);
            }
            done_tx.send(expected).unwrap();
        });
        match done_rx.recv_timeout(Duration::from_secs(60)) {
            Ok(count) => assert_eq!(count, items),
            Err(_) => panic!(
                "lost wake-up: capacity {capacity} stalled after {} of {items} items",
                received.load(Ordering::Relaxed)
            ),
        }
        producer.join().unwrap();
        consumer.join().unwrap();
        (
            ring.producer.parks.load(Ordering::Relaxed),
            ring.consumer.parks.load(Ordering::Relaxed),
        )
    }

    #[test]
    fn forced_parks_lose_no_wake_ups() {
        for capacity in [1, 2] {
            let (producer_parks, consumer_parks) = stream_with_forced_parks(capacity, 100_000);
            assert!(
                producer_parks > 0 && consumer_parks > 0,
                "capacity {capacity}: both endpoints must park \
                 (producer {producer_parks}, consumer {consumer_parks})"
            );
        }
    }

    #[test]
    fn endpoint_parking_on_a_new_thread_is_woken_there() {
        // A pipeline's endpoints follow it between threads (connection
        // threads, the idle sweeper), so a wake must reach the thread
        // parked now, not the one that parked first.
        let (tx, rx) = channel_with_spin_limit::<u32>(1, 0);
        let first = std::thread::spawn(move || {
            let value = rx.recv();
            (rx, value)
        });
        std::thread::sleep(Duration::from_millis(20)); // let it park
        tx.send(1).unwrap();
        let (rx, value) = first.join().unwrap();
        assert_eq!(value, Some(1));
        let (done_tx, done_rx) = mpsc::channel();
        std::thread::spawn(move || done_tx.send(rx.recv()).unwrap());
        std::thread::sleep(Duration::from_millis(20));
        tx.send(2).unwrap();
        let woken = done_rx.recv_timeout(Duration::from_secs(10));
        assert_eq!(
            woken,
            Ok(Some(2)),
            "the second thread's park was never woken"
        );
    }

    #[test]
    fn cross_thread_stream_arrives_intact() {
        let (tx, rx) = channel::<u64>(16);
        let producer = std::thread::spawn(move || {
            for v in 0..10_000u64 {
                tx.send(v).unwrap();
            }
        });
        let mut expected = 0u64;
        while let Some(v) = rx.recv() {
            assert_eq!(v, expected);
            expected += 1;
        }
        producer.join().unwrap();
        assert_eq!(expected, 10_000);
    }
}
