//! Vendored, offline stand-in for the part of `crossbeam` this workspace
//! uses: the [`deque`] injector queue the pipelined executor's
//! work-stealing scheduler is built on.
//!
//! Built on `std::sync::Mutex`. Throughput is lower than real crossbeam's
//! lock-free queues, but the pipeline's stage work dominates by orders of
//! magnitude, so the difference is irrelevant here.

pub mod deque {
    //! A minimal stand-in for `crossbeam-deque`'s [`Injector`]: a shared
    //! FIFO task queue that any worker can push to or steal from. The real
    //! crate pairs it with per-worker LIFO deques; the pipelined executor
    //! only needs the shared injector (one per stage), so only that type is
    //! vendored. [`Steal::Retry`] is kept for API fidelity, although this
    //! mutex-based implementation never needs to report a lost race.

    use std::collections::VecDeque;
    use std::sync::Mutex;

    /// Outcome of a [`Injector::steal`] attempt, mirroring
    /// `crossbeam_deque::Steal`.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum Steal<T> {
        /// The queue was empty.
        Empty,
        /// One task was stolen.
        Success(T),
        /// The attempt lost a race and should be retried (never produced by
        /// this shim; matched for API fidelity).
        Retry,
    }

    impl<T> Steal<T> {
        /// The stolen task, if the attempt succeeded.
        pub fn success(self) -> Option<T> {
            match self {
                Steal::Success(task) => Some(task),
                _ => None,
            }
        }
    }

    /// A FIFO task queue shared by every worker of a scheduler.
    #[derive(Debug)]
    pub struct Injector<T> {
        queue: Mutex<VecDeque<T>>,
    }

    impl<T> Default for Injector<T> {
        fn default() -> Self {
            Self::new()
        }
    }

    impl<T> Injector<T> {
        /// An empty queue.
        pub fn new() -> Self {
            Self {
                queue: Mutex::new(VecDeque::new()),
            }
        }

        fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<T>> {
            self.queue
                .lock()
                .unwrap_or_else(|poison| poison.into_inner())
        }

        /// Push a task onto the back of the queue.
        pub fn push(&self, task: T) {
            self.lock().push_back(task);
        }

        /// Steal the task at the front of the queue.
        pub fn steal(&self) -> Steal<T> {
            match self.lock().pop_front() {
                Some(task) => Steal::Success(task),
                None => Steal::Empty,
            }
        }

        /// True when no tasks are queued (racy by nature — a snapshot).
        pub fn is_empty(&self) -> bool {
            self.lock().is_empty()
        }

        /// Number of queued tasks (racy by nature — a snapshot).
        pub fn len(&self) -> usize {
            self.lock().len()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::deque::{Injector, Steal};
    use std::thread;

    #[test]
    fn injector_is_fifo() {
        let q = Injector::new();
        assert!(q.is_empty());
        for i in 0..4 {
            q.push(i);
        }
        assert_eq!(q.len(), 4);
        for expect in 0..4 {
            assert_eq!(q.steal(), Steal::Success(expect));
        }
        assert_eq!(q.steal(), Steal::Empty);
        assert_eq!(Steal::Success(7).success(), Some(7));
        assert_eq!(Steal::<i32>::Empty.success(), None);
    }

    #[test]
    fn injector_steals_are_exactly_once_across_threads() {
        let q = std::sync::Arc::new(Injector::new());
        for i in 0..1000 {
            q.push(i);
        }
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let q = std::sync::Arc::clone(&q);
                thread::spawn(move || {
                    let mut got = Vec::new();
                    loop {
                        match q.steal() {
                            Steal::Success(task) => got.push(task),
                            Steal::Empty => break,
                            Steal::Retry => continue,
                        }
                    }
                    got
                })
            })
            .collect();
        let mut all: Vec<i32> = workers
            .into_iter()
            .flat_map(|w| w.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..1000).collect::<Vec<_>>());
    }
}
