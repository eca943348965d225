//! Admission and batch assembly in front of the worker pool.
//!
//! There is no dispatcher thread. [`Batcher::enqueue`] admits a row into
//! the pool's queue and a free worker takes up to `max_batch` rows from its
//! front (see [`crate::worker`]), so a batch is cut when a worker becomes
//! free. A lone row on an idle pool is taken at once — no batching tax on
//! a lightly loaded server — while every worker is busy, arrivals
//! accumulate and the next free worker takes them together, amortising the
//! per-call overhead exactly when throughput matters.
//!
//! The queue is bounded: [`Batcher::enqueue`] refuses rows once
//! `queue_cap` is reached ([`EnqueueResult::Full`] → the server answers
//! `busy`) so a slow model sheds load instead of growing latency without
//! bound. What a worker does with its take (`assemble`), outside the
//! queue lock: it sheds rows whose deadline already passed (before they
//! cost a batch slot), feeds the adaptive [`ShedController`] when one is
//! attached (see [`crate::shed`] for which waits), orders the rest
//! most-urgent-first, and groups them by model version. On shutdown the
//! queue drains gracefully: [`Batcher::begin_drain`] answers rows still
//! queued with an explicit [`WorkError::Draining`] reply rather than a
//! dropped channel, while rows a worker already took complete.

use crate::metrics::ModelMetrics;
use crate::registry::ServedModel;
use crate::shed::ShedController;
use crate::worker::{Batch, Job, Pending, WorkError, WorkItem, WorkerPool};
use crate::ServeError;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tuning knobs for the batcher.
#[derive(Debug, Clone)]
pub struct BatcherConfig {
    /// Largest number of rows one worker takes into one model call.
    pub max_batch: usize,
    /// Bound on queued rows; beyond it [`Batcher::enqueue`] sheds.
    pub queue_cap: usize,
}

impl Default for BatcherConfig {
    fn default() -> Self {
        Self {
            max_batch: 32,
            queue_cap: 1024,
        }
    }
}

/// Why (or whether) [`Batcher::enqueue`] accepted a row. The two refusal
/// reasons demand different protocol replies: a full queue is overload
/// (`busy` — retry later), a stopping batcher is shutdown (`draining` —
/// this server is going away).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnqueueResult {
    /// Row queued; the answer arrives on the item's reply channel.
    Accepted,
    /// Queue at capacity — the row was shed (counted via
    /// [`ModelMetrics::record_shed`]).
    Full,
    /// The batcher is draining for shutdown (counted via
    /// [`ModelMetrics::record_stopped`]).
    Stopping,
}

/// Admission control over a [`WorkerPool`]'s queue. One batcher per pool:
/// it sets the pool's `max_batch` and shed controller.
pub struct Batcher {
    cfg: BatcherConfig,
    pool: Arc<WorkerPool>,
}

impl std::fmt::Debug for Batcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Batcher")
            .field("cfg", &self.cfg)
            .finish_non_exhaustive()
    }
}

/// What a worker does with the rows it took, before any model call: sheds
/// expired rows, feeds `shed` each live row's wait — its real wait when the
/// take left a `backlog`, zero when it emptied the queue — orders rows
/// most-urgent-deadline-first, and groups them into batches.
pub(crate) fn assemble(
    taken: Vec<Pending>,
    backlog: bool,
    shed: Option<&ShedController>,
    max_batch: usize,
) -> Vec<Batch> {
    let now = Instant::now();
    let mut live: Vec<Pending> = Vec::with_capacity(taken.len());
    for p in taken {
        if p.item.is_expired(now) {
            p.metrics.record_expired();
            p.item.reply.send(Err(WorkError::Expired));
            continue;
        }
        if let Some(shed) = shed {
            shed.observe_wait(if backlog {
                now.duration_since(p.item.enqueued_at)
            } else {
                Duration::ZERO
            });
        }
        live.push(p);
    }
    // Deadline-aware assembly: most-urgent rows run first. The sort is
    // stable — rows without deadlines keep FIFO order.
    let never = now + Duration::from_secs(3600);
    live.sort_by_key(|p| p.item.deadline.unwrap_or(never));
    into_batches(live, max_batch)
}

/// Groups rows by model identity (name + version, so rows pinned to
/// different versions around a hot swap never share a batch) and splits
/// each group into `max_batch`-sized chunks: full chunks in the order they
/// fill, then partial groups in first-seen order.
fn into_batches(rows: Vec<Pending>, max_batch: usize) -> Vec<Batch> {
    // A take holds at most `max_batch` rows of a handful of models, so a
    // linear scan over the open groups beats hashing a key per row.
    let mut open: Vec<Batch> = Vec::new();
    let mut out = Vec::new();
    for Pending {
        model,
        metrics,
        item,
    } in rows
    {
        let found = open.iter().position(|b| {
            b.model.meta.version == model.meta.version && b.model.meta.name == model.meta.name
        });
        let i = match found {
            Some(i) => {
                open[i].items.push(item);
                i
            }
            None => {
                open.push(Batch {
                    model,
                    metrics,
                    items: vec![item],
                });
                open.len() - 1
            }
        };
        if open[i].items.len() >= max_batch {
            out.push(open.remove(i));
        }
    }
    out.extend(open);
    out
}

impl Batcher {
    /// Puts admission control in front of `pool`.
    ///
    /// # Errors
    ///
    /// None at present: no thread is started. The `Result` keeps the
    /// constructor's signature stable.
    pub fn new(cfg: BatcherConfig, pool: Arc<WorkerPool>) -> Result<Self, ServeError> {
        Self::with_shed(cfg, pool, None)
    }

    /// Like [`Batcher::new`], but every row a worker takes also feeds
    /// `shed`, the adaptive degraded-tier controller.
    ///
    /// # Errors
    ///
    /// See [`Batcher::new`].
    pub fn with_shed(
        cfg: BatcherConfig,
        pool: Arc<WorkerPool>,
        shed: Option<Arc<ShedController>>,
    ) -> Result<Self, ServeError> {
        {
            let mut q = pool.queue.lock();
            q.max_batch = cfg.max_batch.max(1);
            q.shed = shed;
        }
        Ok(Self { cfg, pool })
    }

    /// Queues one row for `model`. The two refusal reasons are counted
    /// separately so load dashboards don't read a shutdown as overload: a
    /// full queue records a **shed** (answer `busy`), a stopping batcher
    /// records a **stop-time rejection** (answer `draining`,
    /// [`ModelMetrics::record_stopped`]).
    pub fn enqueue(
        &self,
        model: Arc<ServedModel>,
        metrics: Arc<ModelMetrics>,
        item: WorkItem,
    ) -> EnqueueResult {
        let mut q = self.pool.queue.lock();
        if q.draining || q.closed {
            drop(q);
            metrics.record_stopped();
            return EnqueueResult::Stopping;
        }
        if q.jobs.len() >= self.cfg.queue_cap {
            drop(q);
            metrics.record_shed();
            return EnqueueResult::Full;
        }
        q.jobs.push_back(Job::Row(Pending {
            model,
            metrics,
            item,
        }));
        // A signal is a futex syscall: send one only to a sleeping worker.
        // A busy worker looks at the queue again before it sleeps.
        let wake = q.sleepers > 0;
        drop(q);
        if wake {
            self.pool.queue.ready.notify_one();
        }
        EnqueueResult::Accepted
    }

    /// Rows currently waiting for a worker.
    pub fn depth(&self) -> usize {
        self.pool.queue.lock().jobs.len()
    }

    /// Stops accepting rows: new enqueues are refused as
    /// [`EnqueueResult::Stopping`], and every row still queued is answered
    /// here with an explicit [`WorkError::Draining`] reply (rows a worker
    /// already took complete normally). The server calls this *before*
    /// stopping its pollers so waiting clients receive `DRAINING` replies
    /// instead of dropped connections.
    pub fn begin_drain(&self) {
        let mut rows = Vec::new();
        {
            let mut q = self.pool.queue.lock();
            q.draining = true;
            // Pre-formed batches belong to the pool and still run.
            for job in std::mem::take(&mut q.jobs) {
                match job {
                    Job::Row(p) => rows.push(p),
                    batch => q.jobs.push_back(batch),
                }
            }
        }
        for p in rows {
            p.metrics.record_stopped();
            p.item.reply.send(Err(WorkError::Draining));
        }
    }

    /// Same as [`Batcher::begin_drain`]; no thread needs joining. Called
    /// automatically on drop.
    pub fn shutdown(&self) {
        self.begin_drain();
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle;
    use crate::registry::ModelRegistry;
    use crate::shed::ShedConfig;
    use datasets::Dataset;
    use std::sync::atomic::Ordering;
    use std::sync::mpsc::sync_channel;

    fn served(seed: u64) -> Arc<ServedModel> {
        let features: Vec<Vec<f32>> = (0..40).map(|i| vec![i as f32, (i * 2) as f32]).collect();
        let targets: Vec<f32> = features.iter().map(|r| r[0] + r[1]).collect();
        let ds = Dataset::new("toy", features, targets);
        let (b, _) = bundle::train(&ds, 128, 2, 3, seed, false).unwrap();
        let reg = ModelRegistry::new();
        reg.load_bytes("m", &b.to_bytes().unwrap()).unwrap();
        reg.get("m").unwrap()
    }

    fn item(row: Vec<f32>) -> (WorkItem, std::sync::mpsc::Receiver<Result<f32, WorkError>>) {
        let (tx, rx) = sync_channel(1);
        (
            WorkItem {
                row,
                enqueued_at: Instant::now(),
                deadline: None,
                reply: tx.into(),
            },
            rx,
        )
    }

    fn accepted(r: EnqueueResult) -> bool {
        r == EnqueueResult::Accepted
    }

    /// A batcher over a pool with no worker threads: nothing takes from
    /// the queue, so its accept/shed/drain logic can be exercised
    /// deterministically.
    fn unworked(cfg: BatcherConfig) -> Batcher {
        Batcher::new(cfg, Arc::new(crate::worker::tests::without_workers())).unwrap()
    }

    /// The rows queued in `batcher`'s pool, taken out in FIFO order.
    fn take_rows(batcher: &Batcher) -> Vec<Pending> {
        std::mem::take(&mut batcher.pool.queue.lock().jobs)
            .into_iter()
            .map(|job| match job {
                Job::Row(p) => p,
                Job::Batch(_) => panic!("only rows were queued"),
            })
            .collect()
    }

    #[test]
    fn enqueued_rows_get_answers() {
        let model = served(1);
        let metrics = Arc::new(ModelMetrics::default());
        let pool = Arc::new(WorkerPool::new(2, 8).unwrap());
        let batcher = Batcher::new(BatcherConfig::default(), pool).unwrap();
        let mut rxs = Vec::new();
        for i in 0..20 {
            let (it, rx) = item(vec![i as f32, (i + 1) as f32]);
            assert!(accepted(batcher.enqueue(
                model.clone(),
                metrics.clone(),
                it
            )));
            rxs.push(rx);
        }
        for rx in rxs {
            assert!(rx.recv_timeout(Duration::from_secs(5)).unwrap().is_ok());
        }
        assert_eq!(metrics.ok.load(Ordering::Relaxed), 20);
    }

    #[test]
    fn lone_row_on_an_idle_pool_is_answered_without_waiting_for_companions() {
        // No coalescing window: a free worker takes the single queued row
        // at once and runs it as a one-row batch.
        let model = served(14);
        let metrics = Arc::new(ModelMetrics::default());
        let pool = Arc::new(WorkerPool::new(2, 8).unwrap());
        let batcher = Batcher::new(BatcherConfig::default(), pool).unwrap();
        let (it, rx) = item(vec![1.0, 2.0]);
        let start = Instant::now();
        assert!(accepted(batcher.enqueue(model, metrics.clone(), it)));
        assert!(rx.recv_timeout(Duration::from_secs(5)).unwrap().is_ok());
        assert!(
            start.elapsed() < Duration::from_millis(500),
            "a lone row waited {:?}",
            start.elapsed()
        );
        assert_eq!(metrics.batches.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.batched_rows.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn full_queue_sheds() {
        let model = served(2);
        let metrics = Arc::new(ModelMetrics::default());
        let batcher = unworked(BatcherConfig {
            max_batch: 4,
            queue_cap: 2,
        });
        // Fill the queue behind the batcher's back, then overfill.
        {
            let mut q = batcher.pool.queue.lock();
            for i in 0..2 {
                let (tx, _rx) = sync_channel(1);
                q.jobs.push_back(Job::Row(Pending {
                    model: model.clone(),
                    metrics: metrics.clone(),
                    item: WorkItem {
                        row: vec![i as f32, 0.0],
                        enqueued_at: Instant::now(),
                        deadline: None,
                        reply: tx.into(),
                    },
                }));
            }
        }
        let (it, _rx) = item(vec![9.0, 9.0]);
        assert_eq!(
            batcher.enqueue(model, metrics.clone(), it),
            EnqueueResult::Full
        );
        assert_eq!(metrics.shed.load(Ordering::Relaxed), 1);
        batcher.shutdown();
    }

    #[test]
    fn shutdown_answers_every_queued_row_explicitly() {
        // Graceful drain: a row accepted before shutdown is either served
        // (a worker took it) or answered with an explicit `Draining` —
        // never silently dropped.
        let model = served(3);
        let metrics = Arc::new(ModelMetrics::default());
        let pool = Arc::new(WorkerPool::new(1, 8).unwrap());
        let batcher = Batcher::new(BatcherConfig::default(), pool).unwrap();
        let mut rxs = Vec::new();
        for i in 0..10 {
            let (it, rx) = item(vec![i as f32, i as f32]);
            assert!(accepted(batcher.enqueue(
                model.clone(),
                metrics.clone(),
                it
            )));
            rxs.push(rx);
        }
        batcher.shutdown();
        for rx in rxs {
            match rx.recv_timeout(Duration::from_secs(5)).unwrap() {
                Ok(_) | Err(WorkError::Draining) => {}
                other => panic!("row must be served or told `draining`, got {other:?}"),
            }
        }
    }

    #[test]
    fn drain_replies_draining_to_rows_still_queued() {
        // Deterministic version of the drain contract: with no worker
        // taking, every queued row is still in the queue when drain
        // begins, so `begin_drain` itself must answer all of them
        // `Draining` (and count them as stop-time rejections, not sheds).
        let model = served(11);
        let metrics = Arc::new(ModelMetrics::default());
        let batcher = unworked(BatcherConfig::default());
        let mut rxs = Vec::new();
        for i in 0..4 {
            let (it, rx) = item(vec![i as f32, 0.0]);
            assert!(accepted(batcher.enqueue(
                model.clone(),
                metrics.clone(),
                it
            )));
            rxs.push(rx);
        }
        batcher.begin_drain();
        for rx in rxs {
            assert_eq!(rx.try_recv().unwrap(), Err(WorkError::Draining));
        }
        assert_eq!(batcher.depth(), 0);
        assert_eq!(metrics.stopped.load(Ordering::Relaxed), 4);
        assert_eq!(metrics.shed.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn expired_rows_are_shed_at_take_not_computed() {
        // A row whose deadline passed while it waited in the queue is
        // answered `Expired` by the worker that takes it, without costing
        // a batch slot; rows with slack run normally.
        let model = served(12);
        let metrics = Arc::new(ModelMetrics::default());
        let pool = Arc::new(WorkerPool::new(1, 4).unwrap());
        let batcher = Batcher::new(BatcherConfig::default(), pool).unwrap();
        let (tx, expired_rx) = sync_channel(1);
        // Stage an already-expired row and a live one behind it in one
        // critical section, so a worker takes both together.
        let live_rx = {
            let mut q = batcher.pool.queue.lock();
            q.jobs.push_back(Job::Row(Pending {
                model: model.clone(),
                metrics: metrics.clone(),
                item: WorkItem {
                    row: vec![1.0, 2.0],
                    enqueued_at: Instant::now(),
                    deadline: Some(Instant::now() - Duration::from_millis(1)),
                    reply: tx.into(),
                },
            }));
            let (it, rx) = item(vec![3.0, 4.0]);
            q.jobs.push_back(Job::Row(Pending {
                model: model.clone(),
                metrics: metrics.clone(),
                item: it,
            }));
            rx
        };
        batcher.pool.queue.ready.notify_one();
        assert_eq!(
            expired_rx.recv_timeout(Duration::from_secs(5)).unwrap(),
            Err(WorkError::Expired)
        );
        assert!(live_rx
            .recv_timeout(Duration::from_secs(5))
            .unwrap()
            .is_ok());
        assert_eq!(metrics.expired.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.ok.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.batched_rows.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn taken_rows_run_most_urgent_deadline_first() {
        // Three rows for the same model with inverted arrival/deadline
        // order: the tightest deadlines must share the first batch.
        let model = served(13);
        let metrics = Arc::new(ModelMetrics::default());
        let now = Instant::now();
        let mk = |ms: u64| {
            let (tx, _rx) = sync_channel(1);
            Pending {
                model: model.clone(),
                metrics: metrics.clone(),
                item: WorkItem {
                    row: vec![ms as f32, 0.0],
                    enqueued_at: now,
                    deadline: Some(now + Duration::from_millis(ms)),
                    reply: tx.into(),
                },
            }
        };
        let batches = assemble(vec![mk(500), mk(20), mk(100)], false, None, 2);
        // max_batch 2: the two most urgent rows share the first batch.
        let first: Vec<f32> = batches[0].items.iter().map(|i| i.row[0]).collect();
        assert_eq!(first, vec![20.0, 100.0]);
    }

    #[test]
    fn batches_respect_max_batch_and_version_grouping() {
        let features: Vec<Vec<f32>> = (0..40).map(|i| vec![i as f32, (i * 2) as f32]).collect();
        let targets: Vec<f32> = features.iter().map(|r| r[0] + r[1]).collect();
        let ds = Dataset::new("toy", features, targets);
        let reg = ModelRegistry::new();
        let (ba, _) = bundle::train(&ds, 128, 2, 3, 4, false).unwrap();
        let (bb, _) = bundle::train(&ds, 128, 2, 3, 5, false).unwrap();
        reg.load_bytes("a", &ba.to_bytes().unwrap()).unwrap();
        reg.load_bytes("b", &bb.to_bytes().unwrap()).unwrap();
        let a = reg.get("a").unwrap();
        let b = reg.get("b").unwrap();
        let metrics = Arc::new(ModelMetrics::default());
        let mut taken = Vec::new();
        for i in 0..5 {
            let (tx, _rx) = sync_channel(1);
            let model = if i % 2 == 0 { a.clone() } else { b.clone() };
            taken.push(Pending {
                model,
                metrics: metrics.clone(),
                item: WorkItem {
                    row: vec![i as f32, 0.0],
                    enqueued_at: Instant::now(),
                    deadline: None,
                    reply: tx.into(),
                },
            });
        }
        let batches = into_batches(taken, 2);
        let total: usize = batches.iter().map(|b| b.items.len()).sum();
        assert_eq!(total, 5, "no row may be lost in grouping");
        assert!(batches.iter().all(|b| b.items.len() <= 2));
        // 3 rows for "a" (split 2+1) and 2 for "b" → exactly 3 batches,
        // proving rows for different models never share a batch.
        assert_eq!(batches.len(), 3);
        // Full chunks first ("a" fills at row 2, "b" at row 3), then the
        // partial "a" group; rows keep their order within a model.
        let rows: Vec<Vec<f32>> = batches
            .iter()
            .map(|b| b.items.iter().map(|i| i.row[0]).collect())
            .collect();
        assert_eq!(rows, vec![vec![0.0, 2.0], vec![1.0, 3.0], vec![4.0]]);
    }

    #[test]
    fn queue_exactly_at_capacity_accepts_then_sheds() {
        // Boundary check on the cap: the row that *reaches* capacity is
        // accepted, the row that would *exceed* it is shed.
        let model = served(7);
        let metrics = Arc::new(ModelMetrics::default());
        let batcher = unworked(BatcherConfig {
            max_batch: 4,
            queue_cap: 3,
        });
        for i in 0..3 {
            let (it, _rx) = item(vec![i as f32, 0.0]);
            assert!(
                accepted(batcher.enqueue(model.clone(), metrics.clone(), it)),
                "row {i} is within capacity"
            );
        }
        assert_eq!(batcher.depth(), 3);
        let (it, _rx) = item(vec![99.0, 0.0]);
        assert_eq!(
            batcher.enqueue(model.clone(), metrics.clone(), it),
            EnqueueResult::Full
        );
        assert_eq!(metrics.shed.load(Ordering::Relaxed), 1);
        // Shedding must not have evicted anything already accepted.
        assert_eq!(batcher.depth(), 3);
    }

    #[test]
    fn saturated_pool_coalesces_toward_max_batch() {
        // Rows that arrive while every worker is busy wait in the queue,
        // and the next free worker takes up to `max_batch` of them at
        // once: a slow 1-worker pool under a steady arrival stream must
        // see a mean batch size of at least `max_batch / 2`, with no
        // coalescing timer.
        let model = served(9);
        let metrics = Arc::new(ModelMetrics::default());
        let inj = Arc::new(crate::faults::FaultInjector::new());
        let pool = Arc::new(WorkerPool::with_injector(1, 1, inj.clone()).unwrap());
        inj.set_worker_delay(Duration::from_millis(10));
        let max_batch = 8usize;
        let batcher = Batcher::new(
            BatcherConfig {
                max_batch,
                queue_cap: 1024,
            },
            pool,
        )
        .unwrap();
        let mut rxs = Vec::new();
        for i in 0..48 {
            let (it, rx) = item(vec![i as f32, 0.0]);
            assert!(accepted(batcher.enqueue(
                model.clone(),
                metrics.clone(),
                it
            )));
            rxs.push(rx);
            // Steady trickle: rows arrive one by one while the worker is
            // pinned.
            std::thread::sleep(Duration::from_micros(500));
        }
        for rx in rxs {
            assert!(rx.recv_timeout(Duration::from_secs(20)).unwrap().is_ok());
        }
        let batches = metrics.batches.load(Ordering::Relaxed);
        let rows = metrics.batched_rows.load(Ordering::Relaxed);
        assert_eq!(rows, 48);
        let mean = rows as f64 / batches as f64;
        assert!(
            mean >= (max_batch / 2) as f64,
            "saturated pool should coalesce: mean batch {mean:.2} over {batches} batches"
        );
    }

    #[test]
    fn stop_time_rejection_is_not_counted_as_shed() {
        let model = served(10);
        let metrics = Arc::new(ModelMetrics::default());
        let batcher = unworked(BatcherConfig {
            max_batch: 4,
            queue_cap: 2,
        });
        // Full queue → shed (the overload signal).
        for i in 0..2 {
            let (it, _rx) = item(vec![i as f32, 0.0]);
            assert!(accepted(batcher.enqueue(
                model.clone(),
                metrics.clone(),
                it
            )));
        }
        let (it, _rx) = item(vec![9.0, 0.0]);
        assert_eq!(
            batcher.enqueue(model.clone(), metrics.clone(), it),
            EnqueueResult::Full
        );
        assert_eq!(metrics.shed.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.stopped.load(Ordering::Relaxed), 0);

        // Stopping batcher → rejection counted separately, never as shed.
        batcher.pool.queue.lock().draining = true;
        let (it, _rx) = item(vec![10.0, 0.0]);
        assert_eq!(
            batcher.enqueue(model, metrics.clone(), it),
            EnqueueResult::Stopping
        );
        assert_eq!(metrics.shed.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.stopped.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn shed_then_drain_preserves_fifo_and_reopens_queue() {
        let model = served(8);
        let metrics = Arc::new(ModelMetrics::default());
        let batcher = unworked(BatcherConfig {
            max_batch: 8,
            queue_cap: 3,
        });
        for i in 0..3 {
            let (it, _rx) = item(vec![i as f32, 0.0]);
            assert!(accepted(batcher.enqueue(
                model.clone(),
                metrics.clone(),
                it
            )));
        }
        let (it, _rx) = item(vec![99.0, 0.0]);
        assert_eq!(
            batcher.enqueue(model.clone(), metrics.clone(), it),
            EnqueueResult::Full
        );

        // Take the rows exactly as a worker would and check the shed row
        // left no hole: survivors come out in arrival order.
        let taken = take_rows(&batcher);
        let order: Vec<f32> = taken.iter().map(|p| p.item.row[0]).collect();
        assert_eq!(order, vec![0.0, 1.0, 2.0]);
        let batches = assemble(taken, false, None, 8);
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].items.len(), 3);

        // After the take the queue is open for business again.
        let (it, _rx) = item(vec![7.0, 0.0]);
        assert!(accepted(batcher.enqueue(model, metrics, it)));
        assert_eq!(batcher.depth(), 1);
    }

    #[test]
    fn shed_sees_real_waits_only_behind_a_backlog() {
        // Rows that waited 100ms: a take that leaves a backlog feeds those
        // waits and demotes; a take that empties the queue feeds zeros
        // (the rows waited for a busy worker, not behind other rows) and,
        // once demoted, promotes.
        let model = served(15);
        let metrics = Arc::new(ModelMetrics::default());
        let shed = ShedController::new(ShedConfig {
            demote_p95: Duration::from_millis(10),
            promote_p95: Duration::from_millis(5),
            window: 8,
        });
        let stale = |n: usize| -> Vec<Pending> {
            (0..n)
                .map(|i| {
                    let (mut it, _rx) = item(vec![i as f32, 0.0]);
                    it.enqueued_at = Instant::now() - Duration::from_millis(100);
                    Pending {
                        model: model.clone(),
                        metrics: metrics.clone(),
                        item: it,
                    }
                })
                .collect()
        };
        assemble(stale(8), false, Some(&shed), 8);
        assert!(!shed.is_degraded(), "an emptied queue is no backlog");
        assemble(stale(8), true, Some(&shed), 8);
        assert!(shed.is_degraded(), "100ms behind a backlog must demote");
        assemble(stale(8), false, Some(&shed), 8);
        assert!(!shed.is_degraded());
        assert_eq!((shed.demotions(), shed.promotions()), (1, 1));
    }

    #[test]
    fn burst_against_a_delayed_worker_demotes_then_promotes() {
        // 400 rows against one worker stalled 2ms per batch: takes leave
        // a backlog, so the real waits demote. Once the backlog is gone,
        // trickled rows meet an empty queue and promote.
        let model = served(16);
        let metrics = Arc::new(ModelMetrics::default());
        let inj = Arc::new(crate::faults::FaultInjector::new());
        let pool = Arc::new(WorkerPool::with_injector(1, 1, inj.clone()).unwrap());
        inj.set_worker_delay(Duration::from_millis(2));
        let shed = Arc::new(ShedController::new(ShedConfig {
            demote_p95: Duration::from_millis(10),
            promote_p95: Duration::from_millis(5),
            window: 16,
        }));
        let batcher = Batcher::with_shed(
            BatcherConfig {
                max_batch: 8,
                queue_cap: 1024,
            },
            pool,
            Some(shed.clone()),
        )
        .unwrap();
        let burst: Vec<_> = (0..400)
            .map(|i| {
                let (it, rx) = item(vec![i as f32, 0.0]);
                assert!(accepted(batcher.enqueue(
                    model.clone(),
                    metrics.clone(),
                    it
                )));
                rx
            })
            .collect();
        for rx in burst {
            assert!(rx.recv_timeout(Duration::from_secs(20)).unwrap().is_ok());
        }
        assert_eq!(shed.demotions(), 1, "the backlog must demote");
        for i in 0..64 {
            if !shed.is_degraded() {
                break;
            }
            let (it, rx) = item(vec![i as f32, 1.0]);
            assert!(accepted(batcher.enqueue(
                model.clone(),
                metrics.clone(),
                it
            )));
            assert!(rx.recv_timeout(Duration::from_secs(5)).unwrap().is_ok());
        }
        assert!(!shed.is_degraded(), "an idle queue must promote");
        assert_eq!((shed.demotions(), shed.promotions()), (1, 1));
    }
}
