//! A single server in the fleet and its committed job set.

use std::sync::Arc;

use clite::config::CliteConfig;
use clite::controller::CliteController;
use clite::trace::CliteOutcome;
use clite_sim::prelude::*;
use clite_sim::testbed::{ServerFactory, TestbedFactory};
use clite_store::{MixSignature, ShardedStore};
use clite_telemetry::Telemetry;

use crate::wire::NodeSnapshot;
use crate::ClusterError;

/// A placed job: cluster-wide id plus its spec.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacedJob {
    /// Cluster-assigned job id (stable across re-partitionings).
    pub id: u64,
    /// The job's specification.
    pub spec: JobSpec,
}

/// The result of probing one node for a tentative admission: the job and
/// the CLITE search outcome on the node's committed set plus that job.
///
/// A plan is *speculative*: producing one ([`Node::plan_admission`]) does
/// not change the node. The scheduler decides which plans count against a
/// node's bookkeeping ([`Node::record_probe`]) and which single plan, if
/// any, is committed ([`Node::commit_admission`]) — the split that lets
/// threaded admission probe many nodes concurrently and still commit the
/// exact placements a serial scan would.
#[derive(Debug, Clone)]
pub struct AdmissionPlan {
    job: PlacedJob,
    outcome: CliteOutcome,
    /// Mix signature of the tentative job set, captured at probe time;
    /// `Some` only when the node has a store. Commit appends the plan's
    /// samples under this signature.
    signature: Option<MixSignature>,
}

impl AdmissionPlan {
    /// Whether the search found a partition meeting every LC job's QoS.
    #[must_use]
    pub fn feasible(&self) -> bool {
        self.outcome.qos_met()
    }

    /// The job this plan would admit.
    #[must_use]
    pub fn job(&self) -> &PlacedJob {
        &self.job
    }

    /// The admission search's outcome.
    #[must_use]
    pub fn outcome(&self) -> &CliteOutcome {
        &self.outcome
    }
}

/// One server of the fleet with its committed jobs and the most recent
/// CLITE outcome for that job set.
///
/// Generic over the [`TestbedFactory`] used to build the per-search
/// testbed; the default [`ServerFactory`] builds the in-process simulator.
#[derive(Debug)]
pub struct Node<F: TestbedFactory = ServerFactory> {
    id: usize,
    catalog: ResourceCatalog,
    seed: u64,
    factory: F,
    jobs: Vec<PlacedJob>,
    last_outcome: Option<CliteOutcome>,
    searches_run: usize,
    samples_spent: u64,
    commits: u64,
    store: Option<Arc<ShardedStore>>,
    alive: bool,
}

impl Node {
    /// Creates an empty node backed by the simulated [`Server`].
    #[must_use]
    pub fn new(id: usize, catalog: ResourceCatalog, seed: u64) -> Self {
        Self::with_factory(id, catalog, seed, ServerFactory)
    }
}

impl<F: TestbedFactory> Node<F> {
    /// Creates an empty node whose admission searches run on testbeds
    /// built by `factory`.
    #[must_use]
    pub fn with_factory(id: usize, catalog: ResourceCatalog, seed: u64, factory: F) -> Self {
        Self {
            id,
            catalog,
            seed,
            factory,
            jobs: Vec::new(),
            last_outcome: None,
            searches_run: 0,
            samples_spent: 0,
            commits: 0,
            store: None,
            alive: true,
        }
    }

    /// Captures the node's restorable state for a fleet checkpoint: jobs,
    /// the committed outcome (minus its wall-clock overhead report, which
    /// no witness reads), and the seed/commit bookkeeping future search
    /// seeds derive from.
    #[must_use]
    pub fn snapshot(&self) -> NodeSnapshot {
        NodeSnapshot {
            id: self.id,
            seed: self.seed,
            alive: self.alive,
            commits: self.commits,
            searches_run: self.searches_run,
            samples_spent: self.samples_spent,
            jobs: self.jobs.iter().map(|j| (j.id, j.spec.clone())).collect(),
            last_outcome: self.last_outcome.clone().map(|mut o| {
                o.overhead = None;
                o
            }),
        }
    }

    /// Rebuilds a node from a checkpoint snapshot. The catalog and factory
    /// are reattached by the caller (they are configuration, not state);
    /// the store handle, if any, is installed via [`Node::set_store`].
    #[must_use]
    pub fn from_snapshot(snap: NodeSnapshot, catalog: ResourceCatalog, factory: F) -> Self {
        Self {
            id: snap.id,
            catalog,
            seed: snap.seed,
            factory,
            jobs: snap.jobs.into_iter().map(|(id, spec)| PlacedJob { id, spec }).collect(),
            last_outcome: snap.last_outcome,
            searches_run: snap.searches_run,
            samples_spent: snap.samples_spent,
            commits: snap.commits,
            store: None,
            alive: snap.alive,
        }
    }

    /// Attaches a shared observation store: admission probes and
    /// re-partitioning searches warm-start from it, and committed searches
    /// append their samples back (see [`Node::commit_admission`]).
    #[must_use]
    pub fn with_store(mut self, store: Arc<ShardedStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// Installs (or replaces) the shared observation store in place.
    pub fn set_store(&mut self, store: Arc<ShardedStore>) {
        self.store = Some(store);
    }

    /// Node id within the cluster.
    #[must_use]
    pub fn id(&self) -> usize {
        self.id
    }

    /// Committed jobs in placement order.
    #[must_use]
    pub fn jobs(&self) -> &[PlacedJob] {
        &self.jobs
    }

    /// Number of committed jobs.
    #[must_use]
    pub fn job_count(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the node can physically host one more job (every resource
    /// needs a spare unit).
    #[must_use]
    pub fn has_capacity_for_one_more(&self) -> bool {
        self.catalog.supports_jobs(self.jobs.len() + 1)
    }

    /// Whether the node is in service. Dead nodes (crashed mid-search and
    /// evicted by the scheduler) never host jobs again.
    #[must_use]
    pub fn alive(&self) -> bool {
        self.alive
    }

    /// Takes the node out of service after a crash: its committed jobs are
    /// drained (the scheduler re-places them elsewhere), its outcome is
    /// discarded, and every future [`Node::plan_admission`] returns
    /// `Ok(None)`. Search/sample bookkeeping is frozen, not reset.
    pub fn mark_dead(&mut self) -> Vec<PlacedJob> {
        self.alive = false;
        self.last_outcome = None;
        std::mem::take(&mut self.jobs)
    }

    /// The most recent CLITE outcome for the committed job set (`None`
    /// while the node is empty).
    #[must_use]
    pub fn last_outcome(&self) -> Option<&CliteOutcome> {
        self.last_outcome.as_ref()
    }

    /// Number of CLITE searches this node has been charged for
    /// (admission probes + removals).
    #[must_use]
    pub fn searches_run(&self) -> usize {
        self.searches_run
    }

    /// Total observation windows this node has spent partitioning.
    #[must_use]
    pub fn samples_spent(&self) -> u64 {
        self.samples_spent
    }

    /// Committed state changes (admissions + removals) so far.
    #[must_use]
    pub fn commits(&self) -> u64 {
        self.commits
    }

    /// Sum of the committed LC jobs' load fractions — a quick headroom
    /// proxy used by placement policies.
    #[must_use]
    pub fn committed_lc_load(&self) -> f64 {
        self.jobs
            .iter()
            .filter(|j| j.spec.class() == JobClass::LatencyCritical)
            .map(|j| j.spec.load.at(0.0))
            .sum()
    }

    /// Builds a live testbed hosting this node's committed jobs with the
    /// last committed partition already enforced — the state a load
    /// harness should drive queries at. Returns `Ok(None)` when the node
    /// has no committed search yet (nothing to load), or is dead.
    ///
    /// # Errors
    ///
    /// Propagates factory failures building the testbed and simulator
    /// failures enforcing the committed partition.
    pub fn loaded_testbed(&self) -> Result<Option<F::Output>, ClusterError> {
        let Some(outcome) = (self.alive).then_some(()).and(self.last_outcome.as_ref()) else {
            return Ok(None);
        };
        let specs: Vec<JobSpec> = self.jobs.iter().map(|j| j.spec.clone()).collect();
        // Committed state only: the same seed the committing search used,
        // so the testbed reproduces the conditions the partition was
        // chosen under.
        let seed = self.seed.wrapping_add(self.commits);
        let mut testbed = self.factory.build(self.catalog, specs, seed)?;
        testbed.enforce(&outcome.best_partition)?;
        Ok(Some(testbed))
    }

    /// Seed for the next search. A pure function of *committed* state, so
    /// speculative probes — however many, in whatever order — never shift
    /// the seeds of later searches. This is what makes threaded admission
    /// bit-identical to serial.
    fn search_seed(&self) -> u64 {
        self.seed.wrapping_add(self.commits + 1)
    }

    /// Runs the admission search for `job` on the node's committed set
    /// plus `job` *without changing the node*. Returns `Ok(None)` when the
    /// node lacks physical capacity for one more job, or is dead.
    ///
    /// # Errors
    ///
    /// Propagates controller/simulator failures. A probe that surfaces a
    /// node crash ([`ClusterError::is_node_crash`]) means the *node*
    /// failed, not the search: the scheduler evicts it.
    pub fn plan_admission(
        &self,
        job: PlacedJob,
        config: &CliteConfig,
        telemetry: &Telemetry<'_>,
    ) -> Result<Option<AdmissionPlan>, ClusterError> {
        if !self.alive || !self.catalog.supports_jobs(self.jobs.len() + 1) {
            return Ok(None);
        }
        let mut tentative: Vec<JobSpec> = self.jobs.iter().map(|j| j.spec.clone()).collect();
        tentative.push(job.spec.clone());
        let (outcome, signature) = self.run_search(tentative, config, telemetry)?;
        Ok(Some(AdmissionPlan { job, outcome, signature }))
    }

    /// One admission/re-partition search on the given tentative job set,
    /// warm-started from the shared store when one is attached. Probes
    /// only *read* the store (plus hit/miss accounting); samples are
    /// appended at commit time, so concurrent speculative probes all see
    /// the same pre-wave store state and threaded admission stays
    /// byte-identical to serial.
    fn run_search(
        &self,
        specs: Vec<JobSpec>,
        config: &CliteConfig,
        telemetry: &Telemetry<'_>,
    ) -> Result<(CliteOutcome, Option<MixSignature>), ClusterError> {
        let seed = self.search_seed();
        let mut testbed = self.factory.build(self.catalog, specs, seed)?;
        let controller = CliteController::new(config.clone().with_seed(seed));
        match &self.store {
            Some(store) => {
                let signature = MixSignature::capture(&testbed);
                let warm = store.warm_start_with(&signature, telemetry);
                let outcome = match &warm {
                    Some(warm) => controller.run_warmed(&mut testbed, warm, telemetry)?,
                    None => controller.run_with(&mut testbed, telemetry)?,
                };
                Ok((outcome, Some(signature)))
            }
            None => Ok((controller.run_with(&mut testbed, telemetry)?, None)),
        }
    }

    /// Appends a committed search's samples to the shared store.
    /// Best-effort: an unwritable log must not fail a placement the
    /// search already proved feasible, so failures only bump the store's
    /// `append_errors` counter.
    fn store_samples(&self, signature: Option<&MixSignature>, outcome: &CliteOutcome) {
        let (Some(store), Some(signature)) = (&self.store, signature) else {
            return;
        };
        for rec in &outcome.samples {
            let _ = store.append_with(
                signature,
                &rec.partition,
                &rec.observation,
                rec.score.value,
                &Telemetry::disabled(),
            );
        }
    }

    /// Charges a produced plan against this node's search/sample
    /// bookkeeping. The scheduler calls this exactly for the probes a
    /// serial scan would have paid for.
    pub fn record_probe(&mut self, plan: &AdmissionPlan) {
        self.searches_run += 1;
        self.samples_spent += plan.outcome.samples_used() as u64;
    }

    /// Commits a feasible plan: the job joins the node, the plan's
    /// partition becomes the committed outcome, and — when a store is
    /// attached — the plan's samples are appended (best-effort) for
    /// future warm starts. Discarded plans never reach the store.
    pub fn commit_admission(&mut self, plan: AdmissionPlan) {
        self.store_samples(plan.signature.as_ref(), &plan.outcome);
        self.jobs.push(plan.job);
        self.last_outcome = Some(plan.outcome);
        self.commits += 1;
    }

    /// Tries to admit `job`: runs a CLITE search on the tentative job set
    /// and commits only if every LC job (old and new) meets QoS — one
    /// [`Node::plan_admission`], charged with [`Node::record_probe`] and
    /// kept with [`Node::commit_admission`] when feasible.
    ///
    /// Returns `Ok(true)` and keeps the job (plus the found partition) on
    /// success; returns `Ok(false)` and leaves the node unchanged when the
    /// co-location is not QoS-feasible.
    ///
    /// # Errors
    ///
    /// Propagates controller/simulator failures.
    pub fn try_admit(
        &mut self,
        job: PlacedJob,
        config: &CliteConfig,
    ) -> Result<bool, ClusterError> {
        let Some(plan) = self.plan_admission(job, config, &Telemetry::disabled())? else {
            return Ok(false);
        };
        self.record_probe(&plan);
        let feasible = plan.feasible();
        if feasible {
            self.commit_admission(plan);
        }
        Ok(feasible)
    }

    /// Removes a job by id and re-partitions the remainder.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownJob`] if the id is not on this node.
    pub fn remove(&mut self, job_id: u64, config: &CliteConfig) -> Result<(), ClusterError> {
        self.remove_with(job_id, config, &Telemetry::disabled())
    }

    /// [`remove`](Node::remove) with telemetry forwarded to the
    /// re-partitioning search.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownJob`] if the id is not on this node.
    pub fn remove_with(
        &mut self,
        job_id: u64,
        config: &CliteConfig,
        telemetry: &Telemetry<'_>,
    ) -> Result<(), ClusterError> {
        let idx = self
            .jobs
            .iter()
            .position(|j| j.id == job_id)
            .ok_or(ClusterError::UnknownJob { job: job_id })?;
        self.jobs.remove(idx);
        self.commits += 1;
        if self.jobs.is_empty() {
            self.last_outcome = None;
            return Ok(());
        }
        let specs: Vec<JobSpec> = self.jobs.iter().map(|j| j.spec.clone()).collect();
        let (outcome, signature) = self.run_search(specs, config, telemetry)?;
        self.store_samples(signature.as_ref(), &outcome);
        self.searches_run += 1;
        self.samples_spent += outcome.samples_used() as u64;
        self.last_outcome = Some(outcome);
        Ok(())
    }

    /// Replaces a committed job's load schedule (the fleet's `load_shift`
    /// event) and re-partitions the node under the new load. The change is
    /// a commit — later search seeds shift exactly as they would for an
    /// admission or departure, keeping serial and threaded event loops
    /// byte-identical.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownJob`] if the id is not on this node;
    /// propagates controller/simulator failures from the re-partitioning
    /// search.
    pub fn update_load_with(
        &mut self,
        job_id: u64,
        load: LoadSchedule,
        config: &CliteConfig,
        telemetry: &Telemetry<'_>,
    ) -> Result<(), ClusterError> {
        let idx = self
            .jobs
            .iter()
            .position(|j| j.id == job_id)
            .ok_or(ClusterError::UnknownJob { job: job_id })?;
        self.jobs[idx].spec.load = load;
        self.commits += 1;
        let specs: Vec<JobSpec> = self.jobs.iter().map(|j| j.spec.clone()).collect();
        let (outcome, signature) = self.run_search(specs, config, telemetry)?;
        self.store_samples(signature.as_ref(), &outcome);
        self.searches_run += 1;
        self.samples_spent += outcome.samples_used() as u64;
        self.last_outcome = Some(outcome);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node() -> Node {
        Node::new(0, ResourceCatalog::testbed(), 1)
    }

    fn quick_config() -> CliteConfig {
        CliteConfig::default()
    }

    #[test]
    fn empty_node_admits_light_job() {
        let mut n = node();
        let admitted = n
            .try_admit(
                PlacedJob { id: 1, spec: JobSpec::latency_critical(WorkloadId::Memcached, 0.2) },
                &quick_config(),
            )
            .unwrap();
        assert!(admitted);
        assert_eq!(n.job_count(), 1);
        assert!(n.last_outcome().is_some());
        assert!(n.searches_run() >= 1);
        assert_eq!(n.commits(), 1);
    }

    #[test]
    fn rejects_infeasible_addition_and_stays_unchanged() {
        let mut n = node();
        for (i, w) in [WorkloadId::ImgDnn, WorkloadId::Masstree].iter().enumerate() {
            assert!(n
                .try_admit(
                    PlacedJob { id: i as u64, spec: JobSpec::latency_critical(*w, 0.8) },
                    &quick_config()
                )
                .unwrap());
        }
        let before = n.job_count();
        // A third heavily-loaded job cannot fit.
        let admitted = n
            .try_admit(
                PlacedJob { id: 99, spec: JobSpec::latency_critical(WorkloadId::Specjbb, 0.9) },
                &quick_config(),
            )
            .unwrap();
        assert!(!admitted);
        assert_eq!(n.job_count(), before, "rejected job must not linger");
        assert_eq!(n.commits(), 2, "failed probes are not commits");
    }

    #[test]
    fn plan_admission_leaves_node_untouched() {
        let n = node();
        let plan = n
            .plan_admission(
                PlacedJob { id: 7, spec: JobSpec::latency_critical(WorkloadId::Memcached, 0.2) },
                &quick_config(),
                &Telemetry::disabled(),
            )
            .unwrap()
            .unwrap();
        assert!(plan.feasible());
        assert_eq!(plan.job().id, 7);
        assert_eq!(n.job_count(), 0);
        assert_eq!(n.searches_run(), 0);
        assert_eq!(n.samples_spent(), 0);
    }

    #[test]
    fn plans_are_deterministic_for_committed_state() {
        // Probing is pure: the same committed state yields byte-identical
        // plans no matter how many times (or on which thread) it runs.
        let n = node();
        let probe = || {
            n.plan_admission(
                PlacedJob { id: 3, spec: JobSpec::latency_critical(WorkloadId::Xapian, 0.3) },
                &quick_config(),
                &Telemetry::disabled(),
            )
            .unwrap()
            .unwrap()
        };
        let a = probe();
        let b = probe();
        assert_eq!(a.outcome().best_partition, b.outcome().best_partition);
        assert_eq!(a.outcome().samples_used(), b.outcome().samples_used());
    }

    #[test]
    fn loaded_testbed_reflects_committed_partition() {
        let mut n = node();
        assert!(n.loaded_testbed().unwrap().is_none(), "empty node has nothing to load");
        assert!(n
            .try_admit(
                PlacedJob { id: 1, spec: JobSpec::latency_critical(WorkloadId::Memcached, 0.3) },
                &quick_config(),
            )
            .unwrap());
        let testbed = n.loaded_testbed().unwrap().expect("committed node builds a testbed");
        assert_eq!(testbed.job_count(), 1);
        assert_eq!(testbed.workload(0), WorkloadId::Memcached);
        // Same committed state → identical testbed, ready for a load run.
        let again = n.loaded_testbed().unwrap().unwrap();
        assert_eq!(again.job_count(), testbed.job_count());
    }

    #[test]
    fn remove_unknown_job_errors() {
        let mut n = node();
        assert!(matches!(n.remove(42, &quick_config()), Err(ClusterError::UnknownJob { job: 42 })));
    }

    #[test]
    fn remove_repartitions_remainder() {
        let mut n = node();
        for (i, w) in [WorkloadId::Memcached, WorkloadId::Xapian].iter().enumerate() {
            assert!(n
                .try_admit(
                    PlacedJob { id: i as u64, spec: JobSpec::latency_critical(*w, 0.2) },
                    &quick_config()
                )
                .unwrap());
        }
        n.remove(0, &quick_config()).unwrap();
        assert_eq!(n.job_count(), 1);
        assert_eq!(n.jobs()[0].id, 1);
        assert!(n.last_outcome().unwrap().qos_met());
        n.remove(1, &quick_config()).unwrap();
        assert!(n.last_outcome().is_none());
    }

    #[test]
    fn store_backed_node_warm_starts_repeat_mixes() {
        use clite_store::ShardPolicy;

        let store = ShardedStore::in_memory(ShardPolicy::with_shards(1));
        let mut n = node().with_store(Arc::clone(&store));
        let base = JobSpec::latency_critical(WorkloadId::Memcached, 0.3);
        let spec = JobSpec::latency_critical(WorkloadId::Xapian, 0.3);

        // Two cold admissions (1-job mix, then 2-job mix); each commit
        // appends its samples to the store.
        assert!(n.try_admit(PlacedJob { id: 1, spec: base }, &quick_config()).unwrap());
        let after_first = n.samples_spent();
        assert!(n.try_admit(PlacedJob { id: 2, spec: spec.clone() }, &quick_config()).unwrap());
        let cold_two_job = n.samples_spent() - after_first;
        assert_eq!(store.stats().misses, 2, "both cold probes miss");
        assert!(store.stats().appends > 0);

        // Departure + identical re-admission probes the same 2-job mix:
        // the plan warm-starts from the committed samples and spends
        // strictly fewer windows than the cold 2-job search did.
        n.remove(2, &quick_config()).unwrap();
        let before_warm = n.samples_spent();
        assert!(n.try_admit(PlacedJob { id: 3, spec }, &quick_config()).unwrap());
        let warm_two_job = n.samples_spent() - before_warm;
        assert!(store.stats().hits >= 1);
        assert!(
            warm_two_job < cold_two_job,
            "warm re-admission spent {warm_two_job} windows, cold spent {cold_two_job}"
        );
    }

    #[test]
    fn committed_lc_load_sums_lc_only() {
        let mut n = node();
        n.try_admit(
            PlacedJob { id: 1, spec: JobSpec::latency_critical(WorkloadId::Memcached, 0.3) },
            &quick_config(),
        )
        .unwrap();
        n.try_admit(
            PlacedJob { id: 2, spec: JobSpec::background(WorkloadId::Swaptions) },
            &quick_config(),
        )
        .unwrap();
        assert!((n.committed_lc_load() - 0.3).abs() < 1e-12);
    }
}
