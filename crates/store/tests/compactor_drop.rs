//! Dropping a file-backed [`ShardedStore`] while its background compactor
//! has work queued or running must neither hang, nor lose the best
//! record, nor leak the detached `clite-store-compactor` thread.
//!
//! Stores are opened, dirtied past a small compaction threshold and
//! dropped at once, one alive at a time, so each drop races its own
//! compactor. The churn runs on a helper thread and the test thread waits
//! with a deadline, so a hang fails the test instead of stalling the
//! suite. This file holds a single test: the thread-count check reads the
//! whole process, so no other test may run beside it.

use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use clite_sim::prelude::*;
use clite_sim::testbed::Testbed;
use clite_store::{MixSignature, ShardPolicy, ShardedStore};

/// Stores opened, dirtied and dropped in sequence.
const STORES: usize = 80;

/// Rising-score appends per store: each one dedupes the previous record,
/// so every append past the first is garbage in the log.
const APPENDS: u32 = 12;

/// Generous: the churn takes about a second on two cores.
const DEADLINE: Duration = Duration::from_secs(120);

fn policy() -> ShardPolicy {
    ShardPolicy {
        shards: 2,
        background_compaction: true,
        compaction_min_log_records: 4,
        compaction_garbage_ratio: 0.5,
        ..ShardPolicy::default()
    }
}

/// One 2-job mix signature plus a partition and observation to log under
/// it.
fn sample() -> (MixSignature, Partition, Observation) {
    let catalog = ResourceCatalog::testbed();
    let jobs = vec![
        JobSpec::latency_critical(WorkloadId::Memcached, 0.5),
        JobSpec::background(WorkloadId::Streamcluster),
    ];
    let mut server = Server::new(catalog, jobs, 7).unwrap();
    let signature = MixSignature::capture(&server);
    let partition = Partition::equal_share(&catalog, 2).unwrap();
    let observation = Testbed::observe(&mut server, &partition);
    (signature, partition, observation)
}

fn best_score() -> f64 {
    f64::from(APPENDS - 1)
}

/// Threads in this process (Linux only; `None` elsewhere).
fn thread_count() -> Option<usize> {
    Some(std::fs::read_dir("/proc/self/task").ok()?.count())
}

/// Opens, dirties and drops one store per path, then waits for every
/// compactor thread to exit.
fn churn(paths: &[PathBuf]) {
    let (signature, partition, observation) = sample();
    let start = thread_count();
    for path in paths {
        let store = ShardedStore::open(path, policy()).unwrap();
        for k in 0..APPENDS {
            store.append(&signature, &partition, &observation, f64::from(k)).unwrap();
        }
        // Dropped with a compaction queued or running on its thread.
        drop(store);
    }
    if let Some(start) = start {
        let settle = Instant::now() + Duration::from_secs(30);
        while thread_count().is_some_and(|now| now > start) {
            assert!(Instant::now() < settle, "a clite-store-compactor thread never exited");
            thread::sleep(Duration::from_millis(5));
        }
    }
}

fn assert_best_recovered(path: &Path) {
    let (signature, ..) = sample();
    let store =
        ShardedStore::open(path, ShardPolicy { background_compaction: false, ..policy() }).unwrap();
    let warm = store.warm_start(&signature).expect("reopened store must hit");
    assert_eq!(warm.entries[0].score, best_score(), "best record lost at {}", path.display());
}

#[test]
fn dropping_stores_mid_compaction_keeps_data_and_exits_compactors() {
    let dir = std::env::temp_dir().join(format!("clite-compactor-drop-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let paths: Vec<PathBuf> = (0..STORES).map(|i| dir.join(format!("obs{i}.log"))).collect();

    let (done, finished) = mpsc::channel();
    let churn_paths = paths.clone();
    let churner = thread::spawn(move || {
        churn(&churn_paths);
        done.send(()).expect("test thread waits for the churn");
    });
    match finished.recv_timeout(DEADLINE) {
        // Finished, or panicked (dropping the sender): join to surface it.
        Ok(()) | Err(mpsc::RecvTimeoutError::Disconnected) => {
            churner.join().expect("store churn panicked");
        }
        // A hung drop cannot be joined; leave the thread and fail.
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("dropping a ShardedStore with queued compaction hung")
        }
    }

    for path in &paths {
        assert_best_recovered(path);
    }
    std::fs::remove_dir_all(&dir).ok();
}
