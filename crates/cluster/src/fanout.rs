//! The decision scheduler: a priority-lane runqueue feeding a fixed
//! worker pool, so quorum latency is bounded by the *slowest replica
//! the quorum still needs* instead of the sum of every replica — and
//! so a bulk audit sweep can never queue an interactive decision
//! behind it.
//!
//! The pool is for replicas worth a hand-off, which costs a query about
//! 10 µs over and above its evaluations: the collector (in `replica`)
//! pools a replica only when something else of its dispatch is in
//! flight and its [`dacs_pdp::PdpEndpoint`] latency estimate is at least
//! that or missing. A faster one — an in-process `Pdp` — it evaluates on
//! its own thread, by the routine a worker runs. Measured, not
//! configured.
//!
//! Three pieces cooperate:
//!
//! * the worker pool (`FanoutPool`, built by the cluster from its
//!   [`SchedulerConfig`]) — threads fed from three runqueues, one per
//!   [`Priority`] lane (Interactive / Default / Bulk). The pop rule is
//!   deadline-aware strict priority: an overdue job (its
//!   [`DecisionClass::deadline_us`] has elapsed) runs first whatever
//!   its lane, otherwise Interactive overtakes Default overtakes Bulk,
//!   with a small anti-starvation quota (every 16th pop services the
//!   lowest non-empty lane) so a hot interactive lane cannot park bulk
//!   work forever. One pool serves a whole cluster; per-query thread
//!   spawning would dominate sub-millisecond decisions.
//! * `CancelToken` — a shared flag set the moment a quorum verdict is
//!   reached. A job still queued observes it at dequeue and returns
//!   without evaluating; one already evaluating runs to its end, and
//!   its answer is discarded.
//! * [`SchedulerConfig`] — what `ClusterBuilder::scheduler` consumes:
//!   worker count and adaptive (quorum-width) fan-out.
//!
//! # Examples
//!
//! ```
//! use dacs_cluster::SchedulerConfig;
//!
//! // One pool serves every shard of a cluster; workers are joined when
//! // the cluster drops. Typically sized at the replicas per shard
//! // worth a hand-off + a little headroom so one slow replica cannot
//! // starve the next query's fan-out.
//! let config = SchedulerConfig::new(4).with_adaptive_fanout(true);
//! assert_eq!(config.workers, 4);
//! ```

use dacs_pdp::{DecisionClass, Priority};
use dacs_telemetry::{Histogram, Telemetry};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// A job queued on the fan-out pool.
pub(crate) type Job = Box<dyn FnOnce() + Send + 'static>;

/// A cancellation flag shared by every job of one fan-out.
///
/// Set once the quorum verdict is known. Jobs still waiting in a
/// runqueue check it before starting and return without evaluating; a
/// job already evaluating runs to its end. Cloning shares the flag.
#[derive(Clone, Debug, Default)]
pub(crate) struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// Creates a fresh, uncancelled token.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Signals every holder of the token to stop before doing new work.
    pub(crate) fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether the fan-out this token belongs to has been cancelled.
    pub(crate) fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// Everything `ClusterBuilder::scheduler` needs to know about how a
/// cluster dispatches replica work: the worker-pool width, and whether
/// fan-out is adaptive (quorum-width dispatch with EWMA-chosen replicas,
/// escalating on a contested or lost vote) or full-width. Which
/// replicas reach the pool at all is measured, not configured (module
/// docs); `workers` is sized for those that do.
///
/// Non-exhaustive: build it with [`SchedulerConfig::new`] and
/// [`SchedulerConfig::with_adaptive_fanout`].
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct SchedulerConfig {
    /// Worker threads in the fan-out pool.
    pub workers: usize,
    /// Dispatch only quorum-width replicas (chosen by directory EWMA)
    /// instead of every eligible one, escalating to backups on a
    /// contested or lost vote. Decision-equivalent to full fan-out;
    /// saves `eligible − quorum` evaluations per query.
    pub adaptive_fanout: bool,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig::new(4)
    }
}

impl SchedulerConfig {
    /// A scheduler with `workers` pool threads and full fan-out.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "fan-out pool needs at least one worker");
        SchedulerConfig {
            workers,
            adaptive_fanout: false,
        }
    }

    /// Enables adaptive quorum-width fan-out.
    pub fn with_adaptive_fanout(mut self, enabled: bool) -> Self {
        self.adaptive_fanout = enabled;
        self
    }
}

/// One queued job plus its scheduling envelope.
struct LaneJob {
    job: Job,
    lane: usize,
    enqueued: Instant,
    deadline: Option<Instant>,
}

/// The three runqueues plus shutdown/anti-starvation state.
struct SchedState {
    lanes: [VecDeque<LaneJob>; 3],
    open: bool,
    since_yield: u32,
}

/// The jobs a worker started, per lane, and those it started late.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
struct PoolStats {
    interactive_jobs: u64,
    default_jobs: u64,
    bulk_jobs: u64,
    deadline_misses: u64,
}

dacs_telemetry::counter_block! {
    /// [`PoolStats`] as relaxed atomics: the one place the pool's
    /// counters live, handle or no handle.
    struct PoolCounters: PoolStats {
        interactive_jobs => "dacs_sched_interactive_jobs_total",
        default_jobs => "dacs_sched_default_jobs_total",
        bulk_jobs => "dacs_sched_bulk_jobs_total",
        deadline_misses => "dacs_sched_deadline_miss_total",
    }
}

impl PoolCounters {
    /// The job counter of lane `lane` ([`Priority::lane`] order).
    fn jobs(&self, lane: usize) -> &std::sync::atomic::AtomicU64 {
        [&self.interactive_jobs, &self.default_jobs, &self.bulk_jobs][lane]
    }
}

/// State shared between the pool handle and its workers.
struct Shared {
    state: Mutex<SchedState>,
    available: Condvar,
    counters: PoolCounters,
    waits: OnceLock<QueueWaits>,
}

/// Queue-wait histograms — the submit→start gap, in ns — resolved when a
/// handle is attached: pooled, and per lane, which makes lane isolation
/// measurable (the registry has no label support, so each lane gets its
/// own metric name).
struct QueueWaits {
    all: Arc<Histogram>,
    lanes: [Arc<Histogram>; 3],
}

/// A small, fixed pool of worker threads that runs fan-out jobs from
/// per-[`Priority`] runqueues with deadline-aware pop.
///
/// Within a lane, jobs are dequeued in submission order, so callers
/// dispatch to their likely-fastest replicas first. Dropping the pool
/// closes the queues and joins every worker after the backlog drains.
pub(crate) struct FanoutPool {
    shared: Arc<Shared>,
    handles: parking_lot::Mutex<Vec<JoinHandle<()>>>,
}

impl FanoutPool {
    /// Every `YIELD_EVERY`th pop services the lowest-priority non-empty
    /// lane, bounding bulk-lane starvation under a saturated
    /// interactive lane to a `1/YIELD_EVERY` share of the workers.
    pub(crate) const YIELD_EVERY: u32 = 16;

    /// Spawns a pool of `workers` threads.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "fan-out pool needs at least one worker");
        let shared = Arc::new(Shared {
            state: Mutex::new(SchedState {
                lanes: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
                open: true,
                since_yield: 0,
            }),
            available: Condvar::new(),
            counters: PoolCounters::default(),
            waits: OnceLock::new(),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("dacs-fanout-{i}"))
                    .spawn(move || worker_loop(shared))
                    .expect("spawn fan-out worker")
            })
            .collect();
        FanoutPool {
            shared,
            handles: parking_lot::Mutex::new(handles),
        }
    }

    /// Attaches observability (builder style): the registry reads the
    /// pool's counters through — `dacs_sched_<lane>_jobs_total`, their
    /// sum `dacs_fanout_jobs_total` and `dacs_sched_deadline_miss_total`
    /// — and every job records its queue wait, the gap between
    /// submission and a worker picking it up, into the pooled
    /// `dacs_fanout_queue_wait_ns` histogram and its lane's
    /// `dacs_sched_<lane>_queue_wait_ns`.
    pub fn with_telemetry(self, telemetry: &Arc<Telemetry>) -> Self {
        let r = telemetry.registry();
        let shared = Arc::clone(&self.shared);
        r.expose(move || {
            let stats = shared.counters.snapshot();
            let mut samples = stats.samples();
            // Derived, not counted a second time: every job runs on
            // exactly one lane.
            let jobs = stats.interactive_jobs + stats.default_jobs + stats.bulk_jobs;
            samples.push(("dacs_fanout_jobs_total", jobs));
            samples
        });
        let lane_wait =
            |p: Priority| r.histogram(&format!("dacs_sched_{}_queue_wait_ns", p.label()));
        let _ = self.shared.waits.set(QueueWaits {
            all: r.histogram("dacs_fanout_queue_wait_ns"),
            lanes: Priority::ALL.map(lane_wait),
        });
        self
    }

    /// Jobs currently waiting in the runqueues (not yet started).
    #[cfg(test)]
    pub(crate) fn backlog(&self) -> usize {
        let state = lock(&self.shared.state);
        state.lanes.iter().map(|q| q.len()).sum()
    }

    /// Enqueues one job on the Default lane; a no-op after shutdown.
    #[cfg(test)]
    pub(crate) fn submit(&self, job: Job) {
        self.submit_classed(job, DecisionClass::default());
    }

    /// Enqueues one job on `class.priority`'s lane, carrying the
    /// class's wall-clock deadline for deadline-aware pop; a no-op
    /// after shutdown.
    pub(crate) fn submit_classed(&self, job: Job, class: DecisionClass) {
        let now = Instant::now();
        let lane_job = LaneJob {
            job,
            lane: class.priority.lane(),
            enqueued: now,
            deadline: class
                .deadline_us
                .map(|us| now + std::time::Duration::from_micros(us)),
        };
        let mut state = lock(&self.shared.state);
        if !state.open {
            return;
        }
        state.lanes[lane_job.lane].push_back(lane_job);
        drop(state);
        self.shared.available.notify_one();
    }
}

/// Locks a scheduler mutex, shrugging off poisoning: jobs run outside
/// the lock, so a panicked worker leaves the queues consistent.
fn lock(mutex: &Mutex<SchedState>) -> MutexGuard<'_, SchedState> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl Drop for FanoutPool {
    fn drop(&mut self) {
        // Closing the queues ends every worker's wait loop once the
        // backlog drains (queued jobs still run, matching the old
        // channel semantics).
        lock(&self.shared.state).open = false;
        self.shared.available.notify_all();
        for handle in self.handles.lock().drain(..) {
            let _ = handle.join();
        }
    }
}

/// The deadline-aware pop (the `select_next_task` of this scheduler):
///
/// 1. **Deadline promotion** — if any lane's head job is already past
///    its deadline, pop the most overdue one, whatever its lane.
/// 2. **Anti-starvation quota** — every [`FanoutPool::YIELD_EVERY`]th
///    pop services the lowest-priority non-empty lane.
/// 3. **Strict priority** — otherwise Interactive, then Default, then
///    Bulk, FIFO within the lane.
fn select_next_job(state: &mut SchedState, now: Instant) -> Option<LaneJob> {
    let overdue = state
        .lanes
        .iter()
        .enumerate()
        .filter_map(|(lane, q)| {
            let deadline = q.front()?.deadline?;
            (deadline <= now).then_some((deadline, lane))
        })
        .min();
    if let Some((_, lane)) = overdue {
        return state.lanes[lane].pop_front();
    }
    if state.lanes.iter().any(|q| !q.is_empty()) {
        state.since_yield += 1;
        if state.since_yield >= FanoutPool::YIELD_EVERY {
            state.since_yield = 0;
            if let Some(lane) = (0..state.lanes.len())
                .rev()
                .find(|&l| !state.lanes[l].is_empty())
            {
                return state.lanes[lane].pop_front();
            }
        }
    }
    state.lanes.iter_mut().find_map(|q| q.pop_front())
}

/// Worker body: pop under the lock, run jobs outside it, exit when the
/// queues are closed and drained.
///
/// Jobs run under `catch_unwind` so a panicking backend costs one
/// answer (the collector sees the job's channel sender drop), not a
/// worker: without it, N panics would silently drain an N-worker pool
/// and every later pooled decision would report unavailable.
fn worker_loop(shared: Arc<Shared>) {
    loop {
        // `now` is the reading the pop was decided at: the job's queue
        // wait and deadline are judged against it, with no second read.
        let popped = {
            let mut state = lock(&shared.state);
            loop {
                let now = Instant::now();
                if let Some(job) = select_next_job(&mut state, now) {
                    break Some((job, now));
                }
                if !state.open {
                    break None;
                }
                state = shared
                    .available
                    .wait(state)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
            }
        };
        let Some((lane_job, now)) = popped else {
            return;
        };
        let counters = &shared.counters;
        counters.jobs(lane_job.lane).fetch_add(1, Ordering::Relaxed);
        if lane_job.deadline.is_some_and(|d| now > d) {
            counters.deadline_misses.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(waits) = shared.waits.get() {
            let wait_ns = now.saturating_duration_since(lane_job.enqueued).as_nanos() as u64;
            waits.all.record(wait_ns);
            waits.lanes[lane_job.lane].record(wait_ns);
        }
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(lane_job.job));
    }
}

/// One replica's answer flowing back to the fan-out collector:
/// `(index into the dispatched set, response)`. `None` is a withdrawn
/// vote, not an answer: the job was skipped at dequeue because its
/// `CancelToken` was set, or its backend panicked.
pub(crate) type FanoutAnswer = (usize, Option<dacs_policy::eval::Response>);

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::mpsc::{channel, Sender};
    use std::time::Duration;

    /// A job that reports in on `started` and then parks until its
    /// returned sender is used or dropped.
    fn parked_job(started: &Sender<()>) -> (Job, Sender<()>) {
        let (release, released) = channel::<()>();
        let started = started.clone();
        let job = Box::new(move || {
            // Either end may already be gone when the pool drains at
            // the end of a test.
            let _ = started.send(());
            let _ = released.recv();
        });
        (job, release)
    }

    #[test]
    fn pool_runs_jobs_concurrently() {
        let pool = FanoutPool::new(4);
        let (started, starts) = channel();
        let releases: Vec<Sender<()>> = (0..4)
            .map(|_| {
                let (job, release) = parked_job(&started);
                pool.submit(job);
                release
            })
            .collect();
        // All four are inside their jobs before any is released: four
        // workers, not one worker four times.
        for _ in 0..4 {
            starts
                .recv_timeout(Duration::from_secs(2))
                .expect("jobs ran sequentially");
        }
        drop(releases);
    }

    #[test]
    fn drop_joins_workers_and_later_submits_are_noops() {
        let pool = FanoutPool::new(2);
        let (tx, rx) = channel();
        let tx2 = tx.clone();
        pool.submit(Box::new(move || {
            tx2.send(1).unwrap();
        }));
        assert_eq!(rx.recv_timeout(Duration::from_secs(1)), Ok(1));
        drop(pool);
    }

    #[test]
    fn panicking_jobs_do_not_kill_workers() {
        let pool = FanoutPool::new(2);
        // More panics than workers: without catch_unwind this would
        // drain the pool entirely.
        for _ in 0..4 {
            pool.submit(Box::new(|| panic!("backend bug")));
        }
        let (tx, rx) = channel();
        for i in 0..2u32 {
            let tx = tx.clone();
            pool.submit(Box::new(move || {
                tx.send(i).unwrap();
            }));
        }
        let mut got: Vec<u32> = (0..2)
            .map(|_| rx.recv_timeout(Duration::from_secs(2)).expect("pool alive"))
            .collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1]);
    }

    /// The pool counts in its own block, handle or no handle: a bulk
    /// job queued ~10ms behind a sleeping head-of-line job counts the
    /// same on a bare pool and an instrumented one, which also records
    /// the wait, pooled and per lane.
    #[test]
    fn telemetry_records_queue_wait_per_job_and_lane() {
        let run = |pool: FanoutPool| {
            let (tx, rx) = channel();
            pool.submit(Box::new(|| std::thread::sleep(Duration::from_millis(10))));
            let job = Box::new(move || tx.send(()).unwrap());
            pool.submit_classed(job, DecisionClass::bulk());
            rx.recv_timeout(Duration::from_secs(2)).unwrap();
            pool.shared.counters.snapshot()
        };
        let telemetry = Arc::new(Telemetry::new());
        let attached = run(FanoutPool::new(1).with_telemetry(&telemetry));
        let expected = PoolStats {
            interactive_jobs: 0,
            default_jobs: 1,
            bulk_jobs: 1,
            deadline_misses: 0,
        };
        assert_eq!((run(FanoutPool::new(1)), attached), (expected, expected));
        let r = telemetry.registry();
        assert_eq!(r.counter_value("dacs_fanout_jobs_total"), Some(2));
        assert_eq!(r.counter_value("dacs_sched_bulk_jobs_total"), Some(1));
        let h = r.histogram("dacs_fanout_queue_wait_ns");
        assert_eq!(h.count(), 2);
        assert!(h.percentile(0.99) >= 9_000_000, "second job waited ~10ms");
        let bulk = r.histogram("dacs_sched_bulk_queue_wait_ns");
        assert_eq!(bulk.count(), 1);
        assert!(bulk.percentile(0.99) >= 9_000_000);
        assert_eq!(r.counter_value("dacs_sched_deadline_miss_total"), Some(0));
    }

    #[test]
    fn lanes_pop_in_priority_order() {
        let pool = FanoutPool::new(1);
        let (release_tx, release_rx) = channel::<()>();
        let (started_tx, started_rx) = channel::<()>();
        // Block the single worker so the runqueues fill while we
        // submit out of priority order.
        pool.submit(Box::new(move || {
            started_tx.send(()).unwrap();
            release_rx.recv().unwrap();
        }));
        started_rx.recv_timeout(Duration::from_secs(2)).unwrap();
        let (tx, rx) = channel::<&'static str>();
        for (label, class) in [
            ("bulk", DecisionClass::bulk()),
            ("default", DecisionClass::default()),
            ("interactive", DecisionClass::interactive()),
        ] {
            let tx = tx.clone();
            pool.submit_classed(
                Box::new(move || {
                    tx.send(label).unwrap();
                }),
                class,
            );
        }
        assert_eq!(pool.backlog(), 3);
        release_tx.send(()).unwrap();
        let order: Vec<&str> = (0..3)
            .map(|_| rx.recv_timeout(Duration::from_secs(2)).unwrap())
            .collect();
        assert_eq!(order, vec!["interactive", "default", "bulk"]);
    }

    #[test]
    fn overdue_deadline_promotes_a_bulk_job() {
        let telemetry = Arc::new(Telemetry::new());
        let pool = FanoutPool::new(1).with_telemetry(&telemetry);
        let (release_tx, release_rx) = channel::<()>();
        let (started_tx, started_rx) = channel::<()>();
        pool.submit(Box::new(move || {
            started_tx.send(()).unwrap();
            release_rx.recv().unwrap();
        }));
        started_rx.recv_timeout(Duration::from_secs(2)).unwrap();
        let (tx, rx) = channel::<&'static str>();
        // The bulk job's deadline expires while the worker is blocked;
        // deadline promotion must pop it ahead of the interactive job.
        let bulk_tx = tx.clone();
        pool.submit_classed(
            Box::new(move || {
                bulk_tx.send("bulk").unwrap();
            }),
            DecisionClass::bulk().with_deadline_us(1),
        );
        std::thread::sleep(Duration::from_millis(5));
        pool.submit_classed(
            Box::new(move || {
                tx.send("interactive").unwrap();
            }),
            DecisionClass::interactive(),
        );
        release_tx.send(()).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_secs(2)).unwrap(), "bulk");
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(2)).unwrap(),
            "interactive"
        );
        // The promoted job still started past its deadline: one miss.
        assert_eq!(
            telemetry
                .registry()
                .counter_value("dacs_sched_deadline_miss_total"),
            Some(1)
        );
    }

    #[test]
    fn cancel_token_is_shared() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!clone.is_cancelled());
        token.cancel();
        assert!(clone.is_cancelled());
    }

    #[test]
    fn scheduler_config_builds() {
        let cfg = SchedulerConfig::new(3).with_adaptive_fanout(true);
        assert_eq!(cfg.workers, 3);
        assert!(cfg.adaptive_fanout);
    }

    proptest! {
        /// Lane-starvation bound: however hard the Bulk lane is
        /// flooded, an Interactive job waits only for a worker to come
        /// free — never for the queued flood. Every bulk job parks
        /// until released and only the two that hold the workers are,
        /// so the interactive job can run only by overtaking the
        /// queue: a FIFO pool would park both workers on the next two
        /// bulk jobs and never reach it.
        #[test]
        fn bulk_flood_never_delays_interactive_past_deadline(flood in 8usize..32) {
            let workers = 2;
            let pool = FanoutPool::new(workers);
            let (started, starts) = channel();
            let releases: Vec<Sender<()>> = (0..flood)
                .map(|_| {
                    let (job, release) = parked_job(&started);
                    pool.submit_classed(job, DecisionClass::bulk());
                    release
                })
                .collect();
            for _ in 0..workers {
                starts.recv_timeout(Duration::from_secs(2)).expect("a bulk job started");
            }
            prop_assert_eq!(pool.backlog(), flood - workers);
            let (tx, rx) = channel();
            pool.submit_classed(
                Box::new(move || {
                    tx.send(()).unwrap();
                }),
                DecisionClass::interactive(),
            );
            // The bulk lane is FIFO: the first two submitted are running.
            for release in &releases[..workers] {
                release.send(()).unwrap();
            }
            rx.recv_timeout(Duration::from_secs(2))
                .expect("interactive job stuck behind the bulk flood");
            // Each worker has since popped at most one more bulk job
            // (and parked on it); the rest of the flood is still queued
            // behind the job that overtook it.
            prop_assert!(pool.backlog() >= flood - 2 * workers);
        }
    }
}
