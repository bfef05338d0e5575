//! Offline stand-in for `crossbeam`, used because crates.io is unreachable
//! in this build environment: [`channel::unbounded`] is an MPMC channel
//! built from `std::sync::mpsc` with a mutex-shared receiver — the
//! textbook worker-pool construction.

pub mod channel {
    use std::sync::{mpsc, Arc, Mutex};

    /// Receiving failed: every sender was dropped.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    impl std::fmt::Display for RecvError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "receiving on an empty and disconnected channel")
        }
    }

    impl std::error::Error for RecvError {}

    /// Sending failed: every receiver was dropped. Carries the message back.
    pub struct SendError<T>(pub T);

    impl<T> std::fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "SendError(..)")
        }
    }

    impl<T> std::fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "sending on a disconnected channel")
        }
    }

    impl<T: std::fmt::Debug> std::error::Error for SendError<T> {}

    /// Producer half; clone freely across threads.
    pub struct Sender<T> {
        inner: mpsc::Sender<T>,
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender { inner: self.inner.clone() }
        }
    }

    impl<T> Sender<T> {
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            self.inner.send(value).map_err(|mpsc::SendError(v)| SendError(v))
        }
    }

    /// Consumer half; clone freely across threads (competing consumers).
    pub struct Receiver<T> {
        inner: Arc<Mutex<mpsc::Receiver<T>>>,
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            Receiver { inner: Arc::clone(&self.inner) }
        }
    }

    impl<T> Receiver<T> {
        /// Block until a message arrives or all senders disconnect.
        pub fn recv(&self) -> Result<T, RecvError> {
            let guard = self.inner.lock().unwrap_or_else(|p| p.into_inner());
            guard.recv().map_err(|_| RecvError)
        }
    }

    /// An unbounded MPMC channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::channel();
        (Sender { inner: tx }, Receiver { inner: Arc::new(Mutex::new(rx)) })
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn channel_fans_out_to_competing_consumers() {
        let (tx, rx) = super::channel::unbounded::<usize>();
        let done = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..3 {
                let rx = rx.clone();
                let done = &done;
                s.spawn(move || {
                    while rx.recv().is_ok() {
                        done.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            for i in 0..30 {
                tx.send(i).unwrap();
            }
            drop(tx);
        });
        assert_eq!(done.load(Ordering::Relaxed), 30);
    }
}
