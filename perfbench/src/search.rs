//! `search`: cold single-server CLITE searches, back to back.
//!
//! Each round runs the same mixes, drawn once from the workload seed:
//! 3, 4 or 5 latency-critical Tailbench jobs at 10–60% load plus one
//! background job. The draw is balanced so that every seed gets the same
//! number of mixes of each size and the same multiset of loads; the seed
//! decides which workloads meet which loads. That keeps the run-to-run
//! spread of the summary figures down without fixing the inputs.

use clite::config::CliteConfig;
use clite::controller::CliteController;
use clite_sim::prelude::*;
use clite_telemetry::Telemetry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::round::{guarded, par_metrics, search_simulated, set_up, Round};
use crate::spans::{thread_index, Call, Keep, SearchSummary, SpanRecorder};
use crate::stats::Digest;

/// Mixes per size (3, 4 and 5 latency-critical jobs) in one round.
pub const MIXES_PER_SIZE: usize = 8;

/// Load levels drawn from, in tenths of max QPS (10%–60%).
const LOAD_LEVELS: [u32; 6] = [1, 2, 3, 4, 5, 6];

/// Fisher–Yates shuffle driven by `rng`.
pub fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// One search: the mix and the seeds of its server and controller.
#[derive(Debug, Clone, PartialEq)]
pub struct Mix {
    /// Jobs, latency-critical first.
    pub jobs: Vec<JobSpec>,
    /// Seed of the simulated server and of the controller.
    pub seed: u64,
}

/// The mixes of round `round` for `seed`, `per_size` of each size.
///
/// Loads come in complementary pairs (`l` and `70% - l`), plus one odd
/// load drawn from a balanced pool when the mix has an odd number of LC
/// jobs, so the total LC load of a mix varies little while every job's
/// load still spans 10–60%. Feasibility, which the total load largely
/// decides, then varies little from seed to seed.
#[must_use]
pub fn mixes(seed: u64, round: u64, per_size: usize) -> Vec<Mix> {
    let mut rng =
        StdRng::seed_from_u64(seed ^ 0x5EA2_C400 ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let top = LOAD_LEVELS[LOAD_LEVELS.len() - 1] + LOAD_LEVELS[0];
    let mut out = Vec::new();
    for lc_jobs in 3..=5usize {
        let mut odd: Vec<u32> = (0..per_size).map(|i| LOAD_LEVELS[i % LOAD_LEVELS.len()]).collect();
        shuffle(&mut odd, &mut rng);
        let mut backgrounds: Vec<WorkloadId> = Vec::new();
        while backgrounds.len() < per_size {
            let mut round = WorkloadId::BACKGROUND.to_vec();
            shuffle(&mut round, &mut rng);
            backgrounds.extend(round);
        }
        for m in 0..per_size {
            let mut loads = Vec::with_capacity(lc_jobs);
            for _ in 0..lc_jobs / 2 {
                let l = LOAD_LEVELS[rng.gen_range(0..LOAD_LEVELS.len())];
                loads.extend([l, top - l]);
            }
            if lc_jobs % 2 == 1 {
                loads.push(odd[m]);
            }
            shuffle(&mut loads, &mut rng);
            let mut lc = WorkloadId::LATENCY_CRITICAL.to_vec();
            shuffle(&mut lc, &mut rng);
            let mut jobs: Vec<JobSpec> = lc[..lc_jobs]
                .iter()
                .zip(&loads)
                .map(|(&w, &load)| JobSpec::latency_critical(w, f64::from(load) / 10.0))
                .collect();
            jobs.push(JobSpec::background(backgrounds[m]));
            out.push(Mix { jobs, seed: rng.gen() });
        }
    }
    // Interleave sizes so a partial pass still sees all three.
    let n = per_size;
    (0..out.len()).map(|i| out[(i % 3) * n + i / 3].clone()).collect()
}

/// The warm-up search every round runs during set-up: spins up the
/// worker pool and warms caches before the first timed search.
fn warm_up() {
    let jobs = vec![
        JobSpec::latency_critical(WorkloadId::Memcached, 0.3),
        JobSpec::latency_critical(WorkloadId::Xapian, 0.3),
        JobSpec::background(WorkloadId::Streamcluster),
    ];
    let mut server = Server::new(ResourceCatalog::testbed(), jobs, 7).expect("feasible warm-up");
    let outcome = CliteController::new(CliteConfig::default().with_seed(7))
        .run(&mut server)
        .expect("warm-up search");
    std::hint::black_box(outcome);
}

/// The `search` workload.
pub struct SearchWorkload {
    seed: u64,
    per_size: usize,
}

impl SearchWorkload {
    /// The workload for `seed`.
    #[must_use]
    pub fn new(seed: u64, per_size: usize) -> Self {
        Self { seed, per_size }
    }

    /// Runs the first `items` mixes of round `index`, one search each.
    pub fn round(&self, index: u64, items: usize, traced: bool) -> Round {
        let recorder = SpanRecorder::new(Keep::All);
        let mut round = Round::default();
        let mut mixes = mixes(self.seed, index, self.per_size);
        mixes.truncate(items);

        let (mut servers, setups) = set_up(|| {
            let servers: Vec<Server> = mixes
                .iter()
                .map(|m| {
                    Server::new(ResourceCatalog::testbed(), m.jobs.clone(), m.seed)
                        .expect("balanced mixes fit the testbed catalog")
                })
                .collect();
            warm_up();
            servers
        });
        round.setups = setups;

        let thread = thread_index();
        let pool_before = clite_par::WorkerPool::global().stats();
        let started = recorder.now();
        for (i, (mix, server)) in mixes.iter().zip(&mut servers).enumerate() {
            let controller = CliteController::new(CliteConfig::default().with_seed(mix.seed));
            round.attempted += 1;
            let start = recorder.now();
            let result = guarded(|| {
                if traced {
                    controller.run_with(server, &Telemetry::new(&recorder))
                } else {
                    controller.run_with(server, &Telemetry::disabled())
                }
            });
            let end = recorder.now();
            round.calls.push(Call { start, end, seq: i as u64, thread, arrival: false });
            match result {
                Ok(outcome) => {
                    round.latencies_ms.push((end - start).as_secs_f64() * 1e3);
                    let windows = outcome.samples_used();
                    round.searches.push(SearchSummary {
                        host: end - start,
                        windows,
                        // A search that never met QoS paid every window it
                        // spent without getting there.
                        to_qos: outcome.samples_to_qos.map_or(windows, |k| k + 1),
                        qos_met: outcome.qos_met(),
                        cold: true,
                    });
                    let mut digest = Digest::default();
                    digest.debug(&outcome.best_partition);
                    digest.debug(&(outcome.samples_used(), outcome.samples_to_qos));
                    round.items.push(digest);
                }
                Err(e) => {
                    round.fail(&e);
                    round.items.push(Digest::default());
                }
            }
        }
        round.wall = recorder.now() - started;
        round.layer_extra = par_metrics(pool_before);
        // Each search decides whether its mix can share one server: the
        // admission figures are the search figures.
        round.simulated = search_simulated(&round.searches);
        let per_search = round.simulated.clone();
        round.simulated.extend([
            ("windows_per_admit", per_search[0].1),
            ("admit_rate", per_search[2].1),
            ("qos_ok_frac", per_search[2].1),
        ]);
        if traced {
            round.received = recorder.take();
        }
        round.seal();
        round
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixes_are_balanced_and_seeded() {
        let a = mixes(1, 0, 6);
        assert_eq!(a.len(), 18);
        for size in 3..=5 {
            let of_size: Vec<&Mix> = a.iter().filter(|m| m.jobs.len() == size + 1).collect();
            assert_eq!(of_size.len(), 6);
            for m in &of_size {
                // Loads pair up into complements (tenths summing to 7),
                // with one left over when the count is odd.
                let mut counts = [0i32; 7];
                for j in m.jobs.iter().filter(|j| j.class() == JobClass::LatencyCritical) {
                    counts[(j.load.at(0.0) * 10.0).round() as usize] += 1;
                }
                let unpaired: i32 = (1..=3).map(|l| (counts[l] - counts[7 - l]).abs()).sum();
                assert_eq!(unpaired, (size % 2) as i32, "{counts:?}");
            }
        }
        assert_eq!(a, mixes(1, 0, 6), "same seed, same mixes");
        assert_ne!(a, mixes(2, 0, 6), "another seed, other mixes");
        assert_ne!(a, mixes(1, 1, 6), "another round, other mixes");
    }
}
