//! The traced run's probes: they time the benchmark's own calls into each
//! layer's public functions, on the run's own inputs, inside spans. (The
//! wire run's per-thread and server counters are reported by `main`.)

use std::hint::black_box;
use std::path::Path;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use datasets::drift::{DriftKind, DriftStream};
use encoding::EncoderSpec;
use hwmodel::algos::{self, RegHdShape};
use reghd::banks::EncodedQuery;
use reghd::{OnlineRegHd, PredictScratch, RegHdConfig, RegHdRegressor};
use reghd_net::frame::{self, opcode, status, FrameBuf, Step};
use reghd_serve::{
    Batcher, BatcherConfig, EnqueueResult, ModelBundle, ModelMetrics, ModelRegistry, ReplySink,
    WorkItem, WorkerPool,
};
use reghd_store::{ModelDelta, ModelStore, StoreConfig, StoreStats};

use crate::client::Frame;
use crate::stats::{median, quantile, sorted, supported_quantile, Rng, Zipf, TAIL_CANDIDATES};
use crate::trace::Tracer;
use crate::workload::{self, Kind, Population, References, Spec, TRAINER_KEY};
use crate::{alloc, metric, procstat, Metric};

/// The system's parts the probes call into, after the server stopped.
pub struct Ctx<'a> {
    pub spec: Spec,
    pub seed: u64,
    pub work: &'a Path,
    pub registry: &'a Arc<ModelRegistry>,
    pub store: Option<&'a Arc<ModelStore>>,
    pub population: &'a [Population],
    pub refs: &'a References,
    pub plan: &'a [Frame],
    /// The wire run's light-phase median latency, for the front-end share.
    pub light_p50_us: f64,
    /// Mean rows per batch the wire run formed; the kernel probes use it.
    pub batch_rows_mean: f64,
    /// Store counters at the start and end of the open-loop phases, and
    /// the seconds between them (workloads that serve from a store).
    pub store_window: Option<(StoreStats, StoreStats, f64)>,
}

/// Store probe size: gets stop after this many misses (enough for a p99
/// with ten samples beyond it) or after `STORE_PROBE_MAX`; a probe cut
/// short reports its miss tail at the highest quantile it supports.
const STORE_MISSES: usize = 1000;
const STORE_PROBE_MAX: Duration = Duration::from_secs(2);
/// Frames the parse and reply probes process (cycling the plan).
const NET_FRAMES: usize = 200_000;
/// Untraced and traced passes of the kernel probe.
const KERNEL_ROUNDS: usize = 3;
/// Checkpoints published by the training probe (a p90 with ten beyond).
const PUBLISHES: usize = 100;

/// Runs every probe; returns their metrics.
pub fn run(ctx: &Ctx, t: &mut Tracer) -> Result<Vec<Metric>, String> {
    let mut m = net_probe(ctx, t);
    let (res_p50, res_p99) = resolve_probe(ctx, t);
    let (e2r_p50, e2r_p99) = enqueue_probe(ctx, t)?;
    m.extend([
        metric("serve.resolve_ns.p50", res_p50, "ns"),
        metric("serve.resolve_ns.p99", res_p99, "ns"),
        metric("net.frontend_us.p50", ctx.light_p50_us - e2r_p50, "us"),
        metric("serve.enqueue_to_reply_us.p50", e2r_p50, "us"),
        metric("serve.enqueue_to_reply_us.p99", e2r_p99, "us"),
    ]);
    let batch = ctx.batch_rows_mean.round().clamp(1.0, 32.0) as usize;
    m.extend(kernel_probe(ctx, batch, t));
    let store = match ctx.store {
        Some(s) => s.clone(),
        None => probe_store(ctx)?,
    };
    m.extend(store_probe(ctx, &store, t));
    m.extend(train_probe(ctx, &store, t)?);
    Ok(m)
}

/// `FrameBuf::extend` + `next_frame` + `decode_predict[_batch]` on the
/// run's request bytes, and `encode_value_reply` / `encode_batch_reply`
/// for its answers, in spans of 64 frames.
fn net_probe(ctx: &Ctx, t: &mut Tracer) -> Vec<Metric> {
    const CHUNK: usize = 64;
    let mut stream = Vec::new();
    let mut bounds = vec![0];
    let mut request_bytes = 0usize;
    let mut reply_bytes = 0usize;
    let mut rows = 0usize;
    let answers: Vec<Vec<(u8, f32)>> = ctx
        .plan
        .iter()
        .map(|f| {
            f.rows
                .iter()
                .map(|r| match ctx.refs.full.get(r.model as usize) {
                    Some(v) => (status::OK, v[r.row as usize]),
                    None => (status::OK, 0.0),
                })
                .collect()
        })
        .collect();
    for (i, f) in ctx.plan.iter().enumerate() {
        let start = stream.len();
        stream.extend_from_slice(&f.bytes);
        stream[start + 5..start + 13].copy_from_slice(&(i as u64).to_le_bytes());
        request_bytes += f.bytes.len();
        rows += f.rows.len();
        if (i + 1) % CHUNK == 0 || i + 1 == ctx.plan.len() {
            bounds.push(stream.len());
        }
    }
    let mut fb = FrameBuf::new();
    let mut parsed = 0usize;
    while parsed < NET_FRAMES {
        for (c, w) in bounds.windows(2).enumerate() {
            let span = t.begin("net.parse", None, c as u64);
            fb.extend(&stream[w[0]..w[1]]);
            while let Step::Ready(f) = fb.next_frame(frame::DEFAULT_MAX_FRAME) {
                if f.kind == opcode::PREDICT {
                    black_box(frame::decode_predict(&f.payload).is_ok());
                } else {
                    black_box(frame::decode_predict_batch(&f.payload).is_ok());
                }
                parsed += 1;
            }
            t.end(span);
        }
    }
    let mut out = Vec::with_capacity(64 * 1024);
    let mut replied = 0usize;
    while replied < NET_FRAMES {
        for (c, chunk) in answers.chunks(CHUNK).enumerate() {
            out.clear();
            let span = t.begin("net.reply", None, c as u64);
            for (j, a) in chunk.iter().enumerate() {
                let id = (c * CHUNK + j) as u64;
                if a.len() == 1 {
                    frame::encode_value_reply(&mut out, a[0].0, id, a[0].1);
                } else {
                    frame::encode_batch_reply(&mut out, id, a);
                }
            }
            t.end(span);
            black_box(&out);
            if replied < ctx.plan.len() {
                reply_bytes += out.len();
            }
            replied += chunk.len();
        }
    }
    vec![
        metric(
            "net.parse_ns_per_frame",
            t.total_ns("net.parse") / parsed as f64,
            "ns",
        ),
        metric(
            "net.reply_ns_per_frame",
            t.total_ns("net.reply") / replied as f64,
            "ns",
        ),
        metric(
            "net.wire_bytes_per_row",
            (request_bytes + reply_bytes) as f64 / rows as f64,
            "bytes",
        ),
    ]
}

/// `ModelRegistry::get` on the run's key sequence, one span per call.
fn resolve_probe(ctx: &Ctx, t: &mut Tracer) -> (f64, f64) {
    for (i, f) in ctx.plan.iter().take(4000).enumerate() {
        t.time("serve.resolve", None, i as u64, || {
            black_box(ctx.registry.get(&f.key))
        });
    }
    let s = sorted(t.self_times().remove("serve.resolve").unwrap_or_default());
    (quantile(&s, 0.5), quantile(&s, 0.99))
}

/// `Batcher::enqueue` of the run's full-tier rows through a real
/// `WorkerPool`, no sockets: each row is stamped by its `ReplySink`.
fn enqueue_probe(ctx: &Ctx, t: &mut Tracer) -> Result<(f64, f64), String> {
    let workers = procstat::nproc();
    let pool = Arc::new(WorkerPool::new(workers, workers * 2).map_err(|e| e.to_string())?);
    let batcher = Batcher::new(BatcherConfig::default(), pool).map_err(|e| e.to_string())?;
    let metrics = Arc::new(ModelMetrics::default());
    let (tx, rx) = mpsc::channel();
    let mut lat = Vec::new();
    let frames = ctx
        .plan
        .iter()
        .filter(|f| !f.binary && f.key != TRAINER_KEY);
    for (i, f) in frames.enumerate() {
        if lat.len() >= 1500 {
            break;
        }
        let served = ctx
            .registry
            .get(&f.key)
            .ok_or_else(|| format!("probe: unknown model {}", f.key))?;
        let parent = t.begin("serve.frame", None, i as u64);
        for r in &f.rows {
            let tx = tx.clone();
            let now = Instant::now();
            let item = WorkItem {
                row: ctx.population[r.model as usize].rows[r.row as usize].clone(),
                enqueued_at: now,
                deadline: None,
                reply: ReplySink::from_fn(move |res| {
                    let _ = tx.send((now, Instant::now(), res.is_ok()));
                }),
            };
            if batcher.enqueue(served.clone(), metrics.clone(), item) != EnqueueResult::Accepted {
                return Err("probe: batcher refused a row".to_string());
            }
        }
        for _ in &f.rows {
            let (sent, done, ok) = rx
                .recv_timeout(Duration::from_secs(10))
                .map_err(|_| "probe: no reply from the worker pool".to_string())?;
            if !ok {
                return Err("probe: a worker failed a row".to_string());
            }
            t.record("serve.enqueue_to_reply", sent, done, i as u64);
            lat.push((done - sent).as_secs_f64() * 1e6);
        }
        t.end(parent);
    }
    batcher.shutdown();
    let s = sorted(lat);
    Ok((quantile(&s, 0.5), quantile(&s, 0.99)))
}

fn shape(dim: usize, models: usize, features: usize, binary: bool) -> RegHdShape {
    RegHdShape {
        dim: dim as u64,
        models: models as u64,
        features: features as u64,
        cluster_binary: binary,
        query_binary: binary,
        model_binary: binary,
    }
}

/// Per-tier kernel stages at the batch size the wire run formed: encode,
/// cluster similarity, model scores, and the whole predict, plus the
/// `hwmodel` operation counts and the allocations per predicted row.
fn kernel_probe(ctx: &Ctx, batch: usize, t: &mut Tracer) -> Vec<Metric> {
    let p = &ctx.population[0];
    let model = p.bundle.model();
    let (means, stds) = (p.bundle.feat_means(), p.bundle.feat_stds());
    let scaled: Vec<Vec<f32>> = p
        .rows
        .iter()
        .map(|r| {
            r.iter()
                .zip(means.iter().zip(stds))
                .map(|(&x, (&m, &s))| if s != 0.0 { (x - m) / s } else { x - m })
                .collect()
        })
        .collect();
    let dim = model.config().dim;
    let rows_wanted = (4_000_000 / dim).clamp(256, 8192);
    let batches: Vec<Vec<Vec<f32>>> = scaled
        .iter()
        .cycle()
        .take(rows_wanted.div_ceil(batch) * batch)
        .cloned()
        .collect::<Vec<_>>()
        .chunks(batch)
        .map(<[Vec<f32>]>::to_vec)
        .collect();
    let rows = (batches.len() * batch) as f64;

    // Warm up, then time the same calls untraced and traced, alternating:
    // the difference of the medians is the tracing overhead.
    let mut allocs = [0u64; 2];
    kernel_pass(
        model,
        &batches[..batches.len().min(4)],
        &mut Tracer::new(false),
        &mut allocs,
    );
    allocs = [0, 0];
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..KERNEL_ROUNDS {
        let started = Instant::now();
        kernel_pass(model, &batches, &mut Tracer::new(false), &mut [0; 2]);
        untraced.push(started.elapsed().as_secs_f64());
        let started = Instant::now();
        kernel_pass(model, &batches, t, &mut allocs);
        traced.push(started.elapsed().as_secs_f64());
    }
    let rows = rows * KERNEL_ROUNDS as f64;

    let features = p.bundle.num_features();
    let k = model.config().models;
    let mut m = Vec::new();
    for (tier, binary, allocs) in [("full", false, allocs[0]), ("binary", true, allocs[1])] {
        let us = |stage: &str| t.total_ns(&format!("{stage}.{tier}")) / rows / 1e3;
        let (encode, sim, scores, predict) = (
            us("encoding.encode"),
            us("reghd.similarity"),
            us("reghd.scores"),
            us("reghd.predict"),
        );
        let sh = shape(dim, k, features, binary);
        let enc_ops = if binary {
            algos::quantized_encode_cost(&sh)
        } else {
            algos::encode_cost(&sh)
        };
        let sim_ops = algos::cluster_search_cost(&sh);
        let score_ops = algos::prediction_cost(&sh);
        m.extend([
            metric(format!("encoding.encode_us_per_row.{tier}"), encode, "us"),
            metric(format!("reghd.similarity_us_per_row.{tier}"), sim, "us"),
            metric(format!("reghd.scores_us_per_row.{tier}"), scores, "us"),
            metric(format!("reghd.predict_us_per_row.{tier}"), predict, "us"),
            metric(
                format!("reghd.glue_us_per_row.{tier}"),
                predict - encode - sim - scores,
                "us",
            ),
            metric(
                format!("reghd.allocs_per_row.{tier}"),
                allocs as f64 / rows,
                "count",
            ),
            metric(
                format!("hdc.encode_gops.{tier}"),
                enc_ops.total_arith() as f64 / (encode * 1e3),
                "Gop/s",
            ),
            metric(
                format!("hwmodel.encode_ops_per_row.{tier}"),
                enc_ops.total_arith() as f64,
                "ops",
            ),
            metric(
                format!("hwmodel.encode_bytes_per_row.{tier}"),
                enc_ops.mem_bytes as f64,
                "bytes",
            ),
            metric(
                format!("hwmodel.similarity_ops_per_row.{tier}"),
                sim_ops.total_arith() as f64,
                "ops",
            ),
            metric(
                format!("hwmodel.similarity_bytes_per_row.{tier}"),
                sim_ops.mem_bytes as f64,
                "bytes",
            ),
            metric(
                format!("hwmodel.scores_ops_per_row.{tier}"),
                score_ops.total_arith() as f64,
                "ops",
            ),
            metric(
                format!("hwmodel.scores_bytes_per_row.{tier}"),
                score_ops.mem_bytes as f64,
                "bytes",
            ),
        ]);
    }
    m.push(metric(
        "trace.overhead_share",
        median(&traced) / median(&untraced) - 1.0,
        "share",
    ));
    m
}

/// One pass of the kernel stages over `batches`; `allocs` accumulates the
/// allocations inside the full and binary predict calls.
fn kernel_pass(
    model: &RegHdRegressor,
    batches: &[Vec<Vec<f32>>],
    t: &mut Tracer,
    allocs: &mut [u64; 2],
) {
    let enc = model.encoder();
    let dim = model.config().dim;
    let mut scratch = PredictScratch::default();
    let mut encoded = vec![hdc::RealHv::zeros(dim); batches.first().map_or(0, Vec::len)];
    let mut vals = vec![vec![0.0f32; dim]; encoded.len()];
    let mut sims = Vec::new();
    let mut scores = Vec::new();
    for (b, rows) in batches.iter().enumerate() {
        let id = b as u64;
        let parent = t.begin("probe.full", None, id);
        t.time("encoding.encode.full", parent, id, || {
            enc.encode_batch_into(rows, &mut encoded[..rows.len()], 1)
        });
        let queries: Vec<EncodedQuery> = encoded[..rows.len()]
            .iter()
            .map(|r| EncodedQuery::new(r.clone()))
            .collect();
        t.time("reghd.similarity.full", parent, id, || {
            for q in &queries {
                model
                    .clusters()
                    .similarities_into(&q.real, &q.binary, &mut sims);
            }
        });
        t.time("reghd.scores.full", parent, id, || {
            for q in &queries {
                model
                    .models()
                    .scores_into(&q.real, &q.binary, q.amp, &mut scores);
            }
        });
        t.time("reghd.predict.full", parent, id, || {
            let a = alloc::allocs();
            black_box(model.predict_batch_with(rows, &mut scratch));
            allocs[0] += alloc::allocs() - a;
        });
        t.end(parent);

        let parent = t.begin("probe.binary", None, id);
        t.time("encoding.encode.binary", parent, id, || {
            for (row, v) in rows.iter().zip(vals.iter_mut()) {
                enc.encode_quantized_into(row, v);
            }
        });
        let queries: Vec<(hdc::BinaryHv, f32)> = vals[..rows.len()]
            .iter()
            .map(|v| {
                let mut words = vec![0u64; dim.div_ceil(64)];
                hdc::simd::pack_signs(v, &mut words);
                let (sum_abs, _) = hdc::simd::abs_sq_sums(v);
                (
                    hdc::BinaryHv::from_words(dim, words),
                    (sum_abs / dim as f64) as f32,
                )
            })
            .collect();
        t.time("reghd.similarity.binary", parent, id, || {
            for (q, _) in &queries {
                model.clusters().binary_similarities_into(q, &mut sims);
            }
        });
        t.time("reghd.scores.binary", parent, id, || {
            for (q, amp) in &queries {
                model.models().binary_scores_into(q, *amp, &mut scores);
            }
        });
        t.time("reghd.predict.binary", parent, id, || {
            let a = alloc::allocs();
            black_box(model.predict_batch_binary_with(rows, &mut scratch));
            allocs[1] += alloc::allocs() - a;
        });
        t.end(parent);
    }
}

/// A store holding the workload's own model under 1000 keys, with a hot
/// budget of 32 models, for workloads that serve without a store.
fn probe_store(ctx: &Ctx) -> Result<Arc<ModelStore>, String> {
    let dir = workload::fresh_dir(ctx.work, "probe-store")?;
    let p = &ctx.population[0];
    let store = ModelStore::open(
        &dir,
        StoreConfig {
            shards: 8,
            hot_budget_bytes: p.bundle.approx_mem_bytes() * 32,
        },
    )
    .map_err(|e| e.to_string())?;
    store
        .bulk_alias("k", 1000, &p.bytes)
        .map_err(|e| e.to_string())?;
    Ok(Arc::new(store))
}

/// `ModelStore::get` over Zipf(1.0) keys, one span per call, classified as
/// a hit or a miss by the change in `stats()`.
fn store_probe(ctx: &Ctx, store: &ModelStore, t: &mut Tracer) -> Vec<Metric> {
    let (n, key): (usize, Box<dyn Fn(usize) -> String>) = match ctx.spec.kind {
        Kind::Store => (
            workload::POPULATION,
            Box::new(|r| workload::key_name(ctx.spec, r)),
        ),
        _ => (1000, Box::new(|r| format!("k{r}"))),
    };
    let zipf = Zipf::new(n, 1.0);
    let mut rng = Rng::new(ctx.seed ^ 0x5707E);
    let (mut hits, mut misses) = (Vec::new(), Vec::new());
    let before = store.stats();
    let started = Instant::now();
    while misses.len() < STORE_MISSES && started.elapsed() < STORE_PROBE_MAX {
        let k = key(zipf.sample(&mut rng));
        let s0 = store.stats().hits;
        let start = Instant::now();
        let got = t.time(
            "store.get",
            None,
            (hits.len() + misses.len()) as u64,
            || store.get(&k),
        );
        let ns = start.elapsed().as_nanos() as f64;
        black_box(got.is_ok());
        if store.stats().hits > s0 {
            hits.push(ns);
        } else {
            misses.push(ns / 1e3);
        }
    }
    let probe_s = started.elapsed().as_secs_f64();
    let after = store.stats();
    let (hit_ratio, evictions_per_s) = match ctx.store_window {
        Some((a, b, secs)) => (
            (b.hits - a.hits) as f64 / ((b.hits + b.misses) - (a.hits + a.misses)).max(1) as f64,
            (b.evictions - a.evictions) as f64 / secs,
        ),
        None => (
            hits.len() as f64 / (hits.len() + misses.len()).max(1) as f64,
            (after.evictions - before.evictions) as f64 / probe_s,
        ),
    };
    let hits = sorted(hits);
    let misses = sorted(misses);
    vec![
        metric("store.hit_ratio", hit_ratio, "share"),
        metric("store.evictions_per_s", evictions_per_s, "1/s"),
        metric("store.get_hit_ns.p50", quantile(&hits, 0.5), "ns"),
        metric("store.get_miss_us.p50", quantile(&misses, 0.5), "us"),
        metric(
            "store.get_miss_us.tail",
            quantile(
                &misses,
                supported_quantile(misses.len(), &TAIL_CANDIDATES).unwrap_or(0.5),
            ),
            "us",
        ),
    ]
}

/// `OnlineRegHd::update` on the workload's training shape, with a
/// checkpoint published into `store` every few rows the way the streaming
/// trainer publishes: the first in full, later ones as deltas.
fn train_probe(ctx: &Ctx, store: &ModelStore, t: &mut Tracer) -> Result<Vec<Metric>, String> {
    let (dim, models, rows, targets) = match ctx.spec.kind {
        Kind::Store => {
            let (x, y) = DriftStream::new(4, 5000, DriftKind::Gradual, ctx.seed ^ 7).take(2000);
            (2048, 4, x, y)
        }
        _ => {
            let p = &ctx.population[0];
            (
                ctx.spec.dim,
                ctx.spec.models,
                p.train_rows.clone(),
                p.train_targets.clone(),
            )
        }
    };
    let input_dim = rows[0].len();
    let seed = ctx.seed;
    let spec = EncoderSpec::Nonlinear {
        input_dim,
        dim,
        seed: seed ^ 0xC11,
    };
    let cfg = RegHdConfig::builder()
        .dim(dim)
        .models(models)
        .seed(seed)
        .build();
    let mut online = OnlineRegHd::new(cfg, spec.build());
    let every = 10;
    let mut last: Option<(Vec<u8>, u64)> = None;
    let (mut publishes, mut deltas, mut updates) = (0usize, 0usize, 0usize);
    let key = "probe-trainer";
    let mut i = 0usize;
    while publishes < PUBLISHES {
        let (x, y) = (&rows[i % rows.len()], targets[i % rows.len()]);
        t.time("train.update", None, i as u64, || {
            black_box(online.update(x, y))
        });
        updates += 1;
        i += 1;
        if !i.is_multiple_of(every) {
            continue;
        }
        online.quantize_now();
        let canary: Vec<Vec<f32>> = (i - every..i)
            .map(|j| rows[j % rows.len()].clone())
            .collect();
        let bundle = ModelBundle::from_trained(
            online.snapshot(&spec),
            vec![0.0; input_dim],
            vec![1.0; input_dim],
            0.0,
            1.0,
            &canary,
        )?;
        let bytes = bundle.to_bytes()?;
        let delta = match &last {
            Some((base, version)) => {
                ModelDelta::compute(base, *version, &bytes).map_err(|e| e.to_string())?
            }
            None => None,
        };
        let meta = match delta {
            Some(d) => {
                deltas += 1;
                t.time("store.publish", None, publishes as u64, || {
                    store.publish_delta(key, &d)
                })
            }
            None => t.time("store.publish", None, publishes as u64, || {
                store.publish_full(key, &bytes)
            }),
        }
        .map_err(|e| format!("probe publish: {e}"))?;
        publishes += 1;
        last = Some((bytes, meta.version));
    }
    let pubs = sorted(
        t.self_times()
            .remove("store.publish")
            .unwrap_or_default()
            .into_iter()
            .map(|ns| ns / 1e6)
            .collect(),
    );
    Ok(vec![
        metric("store.publish_ms.p50", quantile(&pubs, 0.5), "ms"),
        metric("store.publish_ms.p90", quantile(&pubs, 0.9), "ms"),
        metric(
            "store.delta_share",
            deltas as f64 / publishes as f64,
            "share",
        ),
        metric(
            "train.update_us_per_row",
            t.total_ns("train.update") / updates as f64 / 1e3,
            "us",
        ),
    ])
}
