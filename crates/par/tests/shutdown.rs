//! Pool shutdown must never hang: dropping a pool wakes and joins every
//! worker, whatever each worker was doing when the drop began — idle in
//! its wait, between its shutdown check and that wait, or just spawned.
//!
//! The churn runs on a helper thread and the test thread waits with a
//! deadline, so a lost wakeup fails the test instead of stalling the
//! suite.

use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use clite_par::WorkerPool;

/// Pools built and dropped per size: each drop races every worker's
/// check-then-wait, so a lost wakeup shows up well within this many.
const POOLS_PER_SIZE: usize = 400;

/// Generous: the churn takes well under a second on two cores.
const DEADLINE: Duration = Duration::from_secs(120);

#[test]
fn dropping_many_multi_worker_pools_never_hangs() {
    let (done, finished) = mpsc::channel();
    let churn = thread::spawn(move || {
        for size in [2, 4, 8] {
            for i in 0..POOLS_PER_SIZE {
                let pool = WorkerPool::new(size);
                // Half the pools run a job first, so the drop also meets
                // workers returning to their wait after real work.
                if i % 2 == 1 {
                    pool.dispatch(size, |slot| {
                        std::hint::black_box(slot);
                    });
                }
                drop(pool);
            }
        }
        done.send(()).expect("test thread waits for the churn");
    });
    match finished.recv_timeout(DEADLINE) {
        // Finished, or panicked (dropping the sender): join to surface it.
        Ok(()) | Err(mpsc::RecvTimeoutError::Disconnected) => {
            churn.join().expect("pool churn panicked");
        }
        // A hung drop cannot be joined; leave the thread and fail.
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("a WorkerPool drop hung: a worker missed the shutdown wakeup")
        }
    }
}
