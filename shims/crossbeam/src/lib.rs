//! Offline stand-in for the subset of `crossbeam` this workspace uses: the
//! `channel` module (bounded MPMC channels, `never`, and a two-receiver
//! `select!` macro).
//!
//! The container this repository builds in has no access to crates.io, so the
//! workspace vendors API-compatible shims for its few external dependencies.
//! Channels are implemented with a mutex-protected deque plus two condition
//! variables; `select!` polls its receivers, which is sufficient for the
//! operator-per-thread dataflow of `tsp-stream`.  Each side counts its
//! blocked threads under the mutex, so `send`/`recv` notify the other side
//! only when someone is waiting: an uncontended hand-off makes no futex
//! wake system call.

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::Duration;

    struct State<T> {
        queue: VecDeque<T>,
        capacity: usize,
        senders: usize,
        receivers: usize,
        /// Senders blocked on `not_full`.
        waiting_senders: usize,
        /// Receivers blocked on `not_empty`.
        waiting_receivers: usize,
    }

    impl<T> State<T> {
        /// Pops the front value; the returned flag says whether a blocked
        /// sender must be woken for the freed slot.
        fn pop(&mut self) -> Option<(T, bool)> {
            let v = self.queue.pop_front()?;
            Some((v, self.waiting_senders > 0))
        }
    }

    struct Inner<T> {
        state: Mutex<State<T>>,
        not_empty: Condvar,
        not_full: Condvar,
    }

    impl<T> Inner<T> {
        fn lock(&self) -> std::sync::MutexGuard<'_, State<T>> {
            match self.state.lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            }
        }
    }

    /// Error returned by [`Sender::send`] when every receiver is gone.
    pub struct SendError<T>(pub T);

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    /// Error returned by [`Receiver::recv`] when the channel is disconnected
    /// and empty.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// The channel is currently empty but senders remain.
        Empty,
        /// The channel is empty and every sender is gone.
        Disconnected,
    }

    /// The sending half of a channel.
    pub struct Sender<T> {
        inner: Arc<Inner<T>>,
    }

    /// The receiving half of a channel.
    pub struct Receiver<T> {
        inner: Arc<Inner<T>>,
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.inner.lock().senders += 1;
            Sender {
                inner: Arc::clone(&self.inner),
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.inner.lock().receivers += 1;
            Receiver {
                inner: Arc::clone(&self.inner),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut st = self.inner.lock();
            st.senders -= 1;
            if st.senders == 0 {
                drop(st);
                self.inner.not_empty.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut st = self.inner.lock();
            st.receivers -= 1;
            if st.receivers == 0 {
                drop(st);
                self.inner.not_full.notify_all();
            }
        }
    }

    impl<T> Sender<T> {
        /// Sends `value`, blocking while the channel is full.  Fails only when
        /// every receiver has been dropped.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut st = self.inner.lock();
            loop {
                if st.receivers == 0 {
                    return Err(SendError(value));
                }
                if st.queue.len() < st.capacity {
                    st.queue.push_back(value);
                    let wake = st.waiting_receivers > 0;
                    drop(st);
                    if wake {
                        self.inner.not_empty.notify_one();
                    }
                    return Ok(());
                }
                st.waiting_senders += 1;
                st = match self.inner.not_full.wait(st) {
                    Ok(g) => g,
                    Err(p) => p.into_inner(),
                };
                st.waiting_senders -= 1;
            }
        }
    }

    impl<T> Receiver<T> {
        /// Receives the next value, blocking while the channel is empty.
        /// Fails only when the channel is empty and every sender is gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut st = self.inner.lock();
            loop {
                if let Some((v, wake)) = st.pop() {
                    drop(st);
                    if wake {
                        self.inner.not_full.notify_one();
                    }
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvError);
                }
                st.waiting_receivers += 1;
                st = match self.inner.not_empty.wait(st) {
                    Ok(g) => g,
                    Err(p) => p.into_inner(),
                };
                st.waiting_receivers -= 1;
            }
        }

        /// Non-blocking receive.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut st = self.inner.lock();
            if let Some((v, wake)) = st.pop() {
                drop(st);
                if wake {
                    self.inner.not_full.notify_one();
                }
                return Ok(v);
            }
            if st.senders == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }

        /// A blocking iterator over received values; ends when the channel is
        /// disconnected and drained.
        pub fn iter(&self) -> Iter<'_, T> {
            Iter { rx: self }
        }
    }

    /// Iterator returned by [`Receiver::iter`].
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

    /// Creates a bounded channel holding at most `capacity` in-flight values.
    pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                capacity: capacity.max(1),
                senders: 1,
                receivers: 1,
                waiting_senders: 0,
                waiting_receivers: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (
            Sender {
                inner: Arc::clone(&inner),
            },
            Receiver { inner },
        )
    }

    /// Creates an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        bounded(usize::MAX)
    }

    /// A receiver that never yields a value and never disconnects (used to
    /// disable one arm of a `select!`).
    pub fn never<T>() -> Receiver<T> {
        let (tx, rx) = bounded::<T>(1);
        // Keep one sender alive forever so the channel never disconnects.
        std::mem::forget(tx);
        rx
    }

    /// Outcome container used by the [`select!`](crate::channel::select)
    /// macro expansion; not part of the real crossbeam API.
    pub enum SelectedFrom<A, B> {
        /// The first `recv` arm fired.
        First(Result<A, RecvError>),
        /// The second `recv` arm fired.
        Second(Result<B, RecvError>),
    }

    /// Polls two receivers until one is ready (or disconnected); used by the
    /// `select!` macro expansion.
    pub fn select_two<A, B>(a: &Receiver<A>, b: &Receiver<B>) -> SelectedFrom<A, B> {
        let mut spins = 0u32;
        loop {
            match a.try_recv() {
                Ok(v) => return SelectedFrom::First(Ok(v)),
                Err(TryRecvError::Disconnected) => return SelectedFrom::First(Err(RecvError)),
                Err(TryRecvError::Empty) => {}
            }
            match b.try_recv() {
                Ok(v) => return SelectedFrom::Second(Ok(v)),
                Err(TryRecvError::Disconnected) => return SelectedFrom::Second(Err(RecvError)),
                Err(TryRecvError::Empty) => {}
            }
            spins += 1;
            if spins < 64 {
                std::thread::yield_now();
            } else {
                std::thread::sleep(Duration::from_micros(100));
            }
        }
    }

    /// Two-arm `recv` selection, compatible with the crossbeam invocation
    /// shape `select! { recv(r1) -> msg => body, recv(r2) -> msg => body }`.
    #[macro_export]
    macro_rules! __crossbeam_select {
        (recv($r1:expr) -> $m1:pat => $b1:expr, recv($r2:expr) -> $m2:pat => $b2:expr $(,)?) => {{
            match $crate::channel::select_two($r1, $r2) {
                $crate::channel::SelectedFrom::First($m1) => $b1,
                $crate::channel::SelectedFrom::Second($m2) => $b2,
            }
        }};
    }

    // Make the macro addressable as `crossbeam::channel::select!`.
    pub use crate::__crossbeam_select as select;
}

#[cfg(test)]
mod tests {
    use super::channel;
    use std::time::Duration;

    #[test]
    fn bounded_channel_blocks_and_drains() {
        let (tx, rx) = channel::bounded(2);
        let t = std::thread::spawn(move || {
            for i in 0..100 {
                tx.send(i).unwrap();
            }
        });
        let got: Vec<i32> = rx.iter().collect();
        t.join().unwrap();
        assert_eq!(got.len(), 100);
        assert_eq!(got[99], 99);
    }

    /// Lost-wakeup stress: with a one-slot channel almost every `send` and
    /// `recv` blocks, so a skipped notification would leave a thread asleep
    /// forever and the drain would never finish.
    #[test]
    fn many_senders_and_receivers_drain_a_one_slot_channel() {
        const SENDERS: u64 = 4;
        const PER_SENDER: u64 = 5_000;
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let (tx, rx) = channel::bounded::<u64>(1);
            let senders: Vec<_> = (0..SENDERS)
                .map(|s| {
                    let tx = tx.clone();
                    std::thread::spawn(move || {
                        for i in 0..PER_SENDER {
                            tx.send(s * PER_SENDER + i).unwrap();
                        }
                    })
                })
                .collect();
            drop(tx);
            let blocking: Vec<_> = (0..3)
                .map(|_| {
                    let rx = rx.clone();
                    std::thread::spawn(move || {
                        rx.iter().fold((0u64, 0u64), |(n, sum), v| (n + 1, sum + v))
                    })
                })
                .collect();
            // One polling receiver covers the `try_recv` wake path.
            let polling = std::thread::spawn(move || {
                let (mut n, mut sum) = (0u64, 0u64);
                loop {
                    match rx.try_recv() {
                        Ok(v) => {
                            n += 1;
                            sum += v;
                        }
                        Err(channel::TryRecvError::Empty) => std::thread::yield_now(),
                        Err(channel::TryRecvError::Disconnected) => return (n, sum),
                    }
                }
            });
            for s in senders {
                s.join().unwrap();
            }
            let (mut n, mut sum) = polling.join().unwrap();
            for r in blocking {
                let (rn, rsum) = r.join().unwrap();
                n += rn;
                sum += rsum;
            }
            done_tx.send((n, sum)).unwrap();
        });
        let total = SENDERS * PER_SENDER;
        let (n, sum) = done_rx
            .recv_timeout(Duration::from_secs(120))
            .expect("channel did not drain: lost wakeup");
        assert_eq!(n, total);
        assert_eq!(sum, total * (total - 1) / 2);
    }

    #[test]
    fn send_fails_after_receiver_drop() {
        let (tx, rx) = channel::bounded(1);
        drop(rx);
        assert!(tx.send(1u8).is_err());
    }

    #[test]
    fn select_two_prefers_ready_arm() {
        let (tx1, rx1) = channel::bounded::<u8>(1);
        let never = channel::never::<u8>();
        tx1.send(7).unwrap();
        match channel::select_two(&rx1, &never) {
            channel::SelectedFrom::First(Ok(7)) => {}
            _ => panic!("expected first arm"),
        }
        drop(tx1);
        match channel::select_two(&rx1, &never) {
            channel::SelectedFrom::First(Err(_)) => {}
            _ => panic!("expected disconnect on first arm"),
        }
    }
}
