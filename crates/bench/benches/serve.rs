//! Serving-path throughput: the same trained model (dim 2048, k = 8)
//! driven three ways — a single thread calling the model directly, the
//! `reghd-serve` worker pool with one pre-formed batch per row, and rows
//! admitted through the batcher, which the workers coalesce into batches
//! of up to 32 while every worker is busy. Reports rows/sec for each and
//! writes a JSON summary to `results/serve.json`.
//!
//! Plain `main` harness (no criterion): the subject here is end-to-end
//! queueing throughput, not statement-level latency, so one warmed wall
//! clock measurement per configuration is the honest number.

use datasets::Dataset;
use hdc::rng::HdRng;
use reghd_serve::batcher::{Batcher, BatcherConfig, EnqueueResult};
use reghd_serve::bundle;
use reghd_serve::metrics::ModelMetrics;
use reghd_serve::registry::{ModelRegistry, ServedModel};
use reghd_serve::worker::{Batch, WorkItem, WorkerPool};
use std::sync::mpsc::sync_channel;
use std::sync::Arc;
use std::time::Instant;

const DIM: usize = 2048;
const K: usize = 8;
const FEATURES: usize = 8;
const ROWS: usize = 4_000;
const WORKERS: usize = 4;

fn trained_model() -> Arc<ServedModel> {
    let mut rng = HdRng::seed_from(21);
    let features: Vec<Vec<f32>> = (0..300)
        .map(|_| (0..FEATURES).map(|_| rng.next_gaussian() as f32).collect())
        .collect();
    let targets: Vec<f32> = features.iter().map(|x| x[0] + x[1] * x[2]).collect();
    let ds = Dataset::new("serve-bench", features, targets);
    let (b, _) = bundle::train(&ds, DIM, K, 3, 21, false).expect("train");
    let registry = ModelRegistry::new();
    registry
        .load_bytes("bench", &b.to_bytes().expect("serialise"))
        .expect("load");
    registry.get("bench").expect("get")
}

fn workload() -> Vec<Vec<f32>> {
    let mut rng = HdRng::seed_from(22);
    (0..ROWS)
        .map(|_| (0..FEATURES).map(|_| rng.next_gaussian() as f32).collect())
        .collect()
}

/// Baseline: one thread, one row per model call.
fn bench_single_thread(model: &ServedModel, rows: &[Vec<f32>]) -> f64 {
    let start = Instant::now();
    for row in rows {
        let got = model
            .bundle
            .predict(std::slice::from_ref(row))
            .expect("predict");
        assert_eq!(got.len(), 1);
    }
    rows.len() as f64 / start.elapsed().as_secs_f64()
}

/// Worker pool with no coalescing: every row is its own batch.
fn bench_worker_pool(model: &Arc<ServedModel>, rows: &[Vec<f32>]) -> f64 {
    let pool = WorkerPool::new(WORKERS, WORKERS * 4).expect("spawn workers");
    let metrics = Arc::new(ModelMetrics::default());
    let start = Instant::now();
    let mut rxs = Vec::with_capacity(rows.len());
    for row in rows {
        let (tx, rx) = sync_channel(1);
        pool.submit(Batch {
            model: model.clone(),
            metrics: metrics.clone(),
            items: vec![WorkItem {
                row: row.clone(),
                enqueued_at: Instant::now(),
                deadline: None,
                reply: tx.into(),
            }],
        })
        .expect("submit");
        rxs.push(rx);
    }
    for rx in rxs {
        rx.recv().expect("reply").expect("prediction");
    }
    rows.len() as f64 / start.elapsed().as_secs_f64()
}

/// Rows admitted through the batcher: workers take up to `max_batch` queued
/// rows at once, so a burst coalesces.
fn bench_micro_batched(model: &Arc<ServedModel>, rows: &[Vec<f32>], max_batch: usize) -> f64 {
    let pool = Arc::new(WorkerPool::new(WORKERS, WORKERS * 4).expect("spawn workers"));
    let metrics = Arc::new(ModelMetrics::default());
    let batcher = Batcher::new(
        BatcherConfig {
            max_batch,
            queue_cap: ROWS + 1,
        },
        pool,
    )
    .expect("batcher");
    let start = Instant::now();
    let mut rxs = Vec::with_capacity(rows.len());
    for row in rows {
        let (tx, rx) = sync_channel(1);
        let accepted = batcher.enqueue(
            model.clone(),
            metrics.clone(),
            WorkItem {
                row: row.clone(),
                enqueued_at: Instant::now(),
                deadline: None,
                reply: tx.into(),
            },
        );
        assert!(
            matches!(accepted, EnqueueResult::Accepted),
            "queue sized for the whole workload"
        );
        rxs.push(rx);
    }
    for rx in rxs {
        rx.recv().expect("reply").expect("prediction");
    }
    rows.len() as f64 / start.elapsed().as_secs_f64()
}

fn main() {
    let quick = std::env::args().any(|a| a == "--test");
    let model = trained_model();
    let rows = {
        let mut r = workload();
        if quick {
            r.truncate(200);
        }
        r
    };

    // Warm-up pass so page faults and lazy allocs don't bias mode one.
    let _ = model.bundle.predict(&rows[..rows.len().min(64)]);

    let single = bench_single_thread(&model, &rows);
    let pooled = bench_worker_pool(&model, &rows);
    let batched = bench_micro_batched(&model, &rows, 32);

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let simd = hdc::simd::active_label();
    println!(
        "serve throughput (dim={DIM}, k={K}, rows={}, workers={WORKERS}, cores={cores}, \
         simd={simd})",
        rows.len()
    );
    println!("  single-thread : {single:>10.0} rows/sec");
    println!(
        "  worker-pool   : {pooled:>10.0} rows/sec ({:.2}x)",
        pooled / single
    );
    println!(
        "  micro-batched : {batched:>10.0} rows/sec ({:.2}x)",
        batched / single
    );

    let json = format!(
        "{{\n  \"dim\": {DIM},\n  \"k\": {K},\n  \"rows\": {},\n  \"workers\": {WORKERS},\n  \
         \"cores\": {cores},\n  \"simd\": \"{simd}\",\n  \
         \"rows_per_sec\": {{\n    \"single_thread\": {single:.1},\n    \
         \"worker_pool\": {pooled:.1},\n    \"micro_batched\": {batched:.1}\n  }}\n}}\n",
        rows.len()
    );
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/serve.json");
    match std::fs::write(&out, &json) {
        Ok(()) => println!("summary written to {}", out.display()),
        Err(e) => eprintln!("could not write {}: {e}", out.display()),
    }
}
