//! The three workloads: their frozen rates, their set-up (models, store,
//! trainer, server), their request plans, and the reference answers the
//! correctness gate checks every reply against.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use datasets::drift::{DriftKind, DriftStream};
use datasets::Dataset;
use reghd_net::frame::{self, PredictionTier};
use reghd_net::{serve_rgnp, NetConfig, NetServerHandle, RgnpClient};
use reghd_serve::{ModelBundle, ModelRegistry};
use reghd_store::{ModelStore, StoreConfig};
use reghd_train::{DriftSource, SampleSource, StoreTarget, TrainReport, Trainer, TrainerConfig};

use crate::client::{Frame, RowRef, UNCHECKED};
use crate::stats::{Rng, Zipf};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Point,
    Batch,
    Store,
}

/// A workload's shape and its offered load. The rates are absolute rows/s,
/// frozen so that a faster commit faces the same load, and set well below
/// the capacity measured when the benchmark was defined (`perfbench/README.md`
/// gives the shares), so that host noise does not push a phase to the knee.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    pub dim: usize,
    pub models: usize,
    pub rows_per_frame: usize,
    /// Every n-th frame asks for the binary tier (0: never).
    pub binary_every: usize,
    pub light_rps: f64,
    pub heavy_rps: f64,
    /// Frames in flight per connection in the closed-loop capacity phase.
    pub window: usize,
    /// Latency limit of `light_slo_share` and `heavy_slo_share`.
    pub slo_us: f64,
}

pub const SPECS: [Spec; 3] = [
    Spec {
        name: "point_small",
        kind: Kind::Point,
        dim: 256,
        models: 4,
        rows_per_frame: 1,
        binary_every: 0,
        light_rps: 7500.0,
        heavy_rps: 15000.0,
        window: 128,
        slo_us: 2000.0,
    },
    Spec {
        name: "batch_wide",
        kind: Kind::Batch,
        dim: 8192,
        models: 8,
        rows_per_frame: 32,
        binary_every: 4,
        light_rps: 1300.0,
        heavy_rps: 2600.0,
        window: 2,
        slo_us: 100_000.0,
    },
    Spec {
        name: "store_train",
        kind: Kind::Store,
        dim: 256,
        models: 4,
        rows_per_frame: 1,
        binary_every: 0,
        light_rps: 900.0,
        heavy_rps: 1800.0,
        window: 128,
        slo_us: 10_000.0,
    },
];

pub fn spec(name: &str) -> Option<Spec> {
    SPECS.iter().copied().find(|s| s.name == name)
}

/// Training epochs for the served models (training stops earlier when it
/// converges).
const EPOCHS: usize = 10;
/// The served models and the trainer's stream come from this fixed seed;
/// `--seed` draws the request stream. Every seed thus queries the same
/// models, and answer quality compares like with like across seeds.
const DATA_SEED: u64 = 0x0DA7A;
/// Per-user models in the `store_train` population.
pub const POPULATION: usize = 20_000;
/// Distinct trained models behind the population (key `r` serves model
/// `r % BASES`), so every answer has an offline reference.
pub const BASES: usize = 8;
/// Hot-cache budget of the population store, in decoded models: far below
/// the 20 000-key working set.
const HOT_MODELS: usize = 400;
/// One frame in this many goes to the streaming trainer's key.
const TRAINER_EVERY: usize = 20;
pub const TRAINER_KEY: &str = "trainer";
const TRAINER_DIM: usize = 2048;
const TRAINER_MODELS: usize = 4;
/// The trainer publishes a checkpoint every this many samples.
const CHECKPOINT_EVERY: u64 = 4000;
const STORE_SHARDS: usize = 8;

/// A population model: its bundle bytes, the decoded bundle, and its
/// held-out rows and targets.
pub struct Population {
    pub bytes: Vec<u8>,
    pub bundle: ModelBundle,
    pub rows: Vec<Vec<f32>>,
    pub targets: Vec<f32>,
    /// The rows the model was trained on (the training probes reuse them).
    pub train_rows: Vec<Vec<f32>>,
    pub train_targets: Vec<f32>,
}

/// The streaming trainer running beside the server.
pub struct TrainerRun {
    stop: Arc<AtomicBool>,
    samples: Arc<AtomicU64>,
    handle: JoinHandle<Result<TrainReport, String>>,
    /// Rows the trainer's key is queried with.
    pub rows: Vec<Vec<f32>>,
}

impl TrainerRun {
    pub fn samples(&self) -> u64 {
        self.samples.load(Ordering::Relaxed)
    }

    pub fn stop(self) -> Result<TrainReport, String> {
        self.stop.store(true, Ordering::SeqCst);
        self.handle
            .join()
            .map_err(|_| "trainer thread panicked".to_string())?
    }
}

/// A drift stream that ends when told to, counting what it yields.
struct Stoppable {
    inner: DriftSource,
    stop: Arc<AtomicBool>,
    samples: Arc<AtomicU64>,
}

impl SampleSource for Stoppable {
    fn next_sample(&mut self) -> Option<(Vec<f32>, f32)> {
        if self.stop.load(Ordering::Relaxed) {
            return None;
        }
        self.samples.fetch_add(1, Ordering::Relaxed);
        self.inner.next_sample()
    }

    fn num_features(&self) -> usize {
        self.inner.num_features()
    }

    fn label(&self) -> String {
        self.inner.label()
    }
}

/// Everything a workload runs against.
pub struct System {
    pub spec: Spec,
    pub server: NetServerHandle,
    pub registry: Arc<ModelRegistry>,
    pub store: Option<Arc<ModelStore>>,
    pub trainer: Option<TrainerRun>,
    pub population: Vec<Population>,
    /// CPU seconds spent fitting the served models (the fit runs on one
    /// thread), and rows × epochs fitted.
    pub fit_s: f64,
    pub fit_rows: f64,
}

impl System {
    /// Stops the trainer and the server.
    pub fn shutdown(self) -> Result<Option<TrainReport>, String> {
        let report = self.trainer.map(TrainerRun::stop).transpose()?;
        self.server.shutdown();
        Ok(report)
    }

    pub fn addr(&self) -> std::net::SocketAddr {
        self.server.local_addr()
    }

    /// Registry name (or store key) of population key `r`.
    pub fn key(&self, r: usize) -> String {
        key_name(self.spec, r)
    }
}

pub fn key_name(spec: Spec, r: usize) -> String {
    match spec.kind {
        Kind::Point => "point".to_string(),
        Kind::Batch => "wide".to_string(),
        Kind::Store => format!("m{}u{}", r % BASES, r / BASES),
    }
}

fn dataset(spec: Spec, seed: u64, base: usize) -> Dataset {
    match spec.kind {
        Kind::Batch => datasets::paper::facebook(seed),
        Kind::Point | Kind::Store => datasets::paper::ccpp(seed.wrapping_add(base as u64 * 7919)),
    }
}

/// Trains one population model on its share of the data.
fn train_population(
    spec: Spec,
    seed: u64,
    base: usize,
    fit: &mut (f64, f64),
) -> Result<Population, String> {
    let ds = dataset(spec, seed, base);
    let (train, test) = datasets::split::train_test_split(&ds, 0.2, seed ^ base as u64);
    // The store population trains many small models; cap each one's data.
    let (train, test) = if spec.kind == Kind::Store {
        (head(&train, 1000), head(&test, 500))
    } else {
        (train, test)
    };
    let cpu = crate::procstat::thread_cpu_ns();
    let (bundle, report) = reghd_serve::bundle::train(
        &train,
        spec.dim,
        spec.models,
        EPOCHS,
        seed.wrapping_add(base as u64),
        false,
    )?;
    fit.0 += (crate::procstat::thread_cpu_ns() - cpu) as f64 / 1e9;
    fit.1 += (train.len() * report.epochs) as f64;
    let bytes = bundle.to_bytes()?;
    // References come from the served bytes, decoded as the server decodes
    // them.
    let bundle = ModelBundle::from_bytes(&bytes)?;
    bundle.set_threads(1);
    Ok(Population {
        bytes,
        bundle,
        rows: test.features,
        targets: test.targets,
        train_rows: train.features,
        train_targets: train.targets,
    })
}

fn head(ds: &Dataset, n: usize) -> Dataset {
    let idx: Vec<usize> = (0..ds.len().min(n)).collect();
    ds.select(&idx)
}

fn net_config() -> NetConfig {
    NetConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: crate::procstat::nproc(),
        ..NetConfig::default()
    }
}

/// Builds the system under test: trains the served models, fills the
/// store and starts the trainer where the workload has them, starts the
/// server, and returns once a `PING` is answered.
pub fn setup(spec: Spec, work: &Path) -> Result<System, String> {
    let seed = DATA_SEED;
    let registry = Arc::new(ModelRegistry::new());
    let mut fit = (0.0, 0.0);
    let bases = if spec.kind == Kind::Store { BASES } else { 1 };
    let population = (0..bases)
        .map(|b| train_population(spec, seed, b, &mut fit))
        .collect::<Result<Vec<_>, _>>()?;
    let mut store = None;
    let mut trainer = None;
    match spec.kind {
        Kind::Point | Kind::Batch => {
            registry
                .load_bytes(&key_name(spec, 0), &population[0].bytes)
                .map_err(|e| e.to_string())?;
        }
        Kind::Store => {
            let dir = fresh_dir(work, "store")?;
            let hot = population[0].bundle.approx_mem_bytes() * HOT_MODELS;
            let s = Arc::new(
                ModelStore::open(
                    &dir,
                    StoreConfig {
                        shards: STORE_SHARDS,
                        hot_budget_bytes: hot,
                    },
                )
                .map_err(|e| e.to_string())?,
            );
            for (b, p) in population.iter().enumerate() {
                s.bulk_alias(&format!("m{b}u"), POPULATION / BASES, &p.bytes)
                    .map_err(|e| e.to_string())?;
            }
            registry.attach_resolver(s.clone());
            trainer = Some(start_trainer(&s, seed)?);
            store = Some(s);
        }
    }
    let server = serve_rgnp(net_config(), registry.clone()).map_err(|e| e.to_string())?;
    let mut client =
        RgnpClient::connect(&server.local_addr().to_string()).map_err(|e| e.to_string())?;
    client.ping().map_err(|e| e.to_string())?;
    Ok(System {
        spec,
        server,
        registry,
        store,
        trainer,
        population,
        fit_s: fit.0,
        fit_rows: fit.1,
    })
}

/// Starts the closed-loop streaming trainer publishing into `store`, and
/// waits for its first (full) checkpoint so readers can query its key.
fn start_trainer(store: &Arc<ModelStore>, seed: u64) -> Result<TrainerRun, String> {
    let features = 4;
    let stop = Arc::new(AtomicBool::new(false));
    let samples = Arc::new(AtomicU64::new(0));
    let cfg = TrainerConfig {
        dim: TRAINER_DIM,
        models: TRAINER_MODELS,
        seed,
        checkpoint_every: Some(CHECKPOINT_EVERY),
        ..TrainerConfig::default()
    };
    let mut t = Trainer::new(cfg, features).with_store_publish(StoreTarget {
        store: store.clone(),
        key: TRAINER_KEY.to_string(),
    });
    let mut source = Stoppable {
        inner: DriftSource::new(
            DriftStream::new(features, 5000, DriftKind::Gradual, seed),
            features,
            "drift",
        ),
        stop: stop.clone(),
        samples: samples.clone(),
    };
    let handle = std::thread::Builder::new()
        .name("train-loop".to_string())
        .spawn(move || t.run(&mut source))
        .map_err(|e| e.to_string())?;
    let rows = DriftStream::new(features, 5000, DriftKind::Gradual, seed ^ 0x5EED)
        .take(256)
        .0;
    let run = TrainerRun {
        stop,
        samples,
        handle,
        rows,
    };
    let deadline = Instant::now() + Duration::from_secs(60);
    while store.get(TRAINER_KEY).is_err() {
        if Instant::now() > deadline || run.handle.is_finished() {
            return Err("trainer published no checkpoint".to_string());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    Ok(run)
}

/// A new empty directory under `work`.
pub fn fresh_dir(work: &Path, prefix: &str) -> Result<PathBuf, String> {
    for i in 0.. {
        let dir = work.join(format!("{prefix}-{}-{i}", std::process::id()));
        if !dir.exists() {
            std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
            return Ok(dir);
        }
    }
    unreachable!("the directory search is unbounded")
}

/// The request frames of one phase, drawn from the seed.
pub fn plan(sys: &System, seed: u64, frames: usize) -> Vec<Frame> {
    let spec = sys.spec;
    let mut rng = Rng::new(seed);
    let zipf = (spec.kind == Kind::Store).then(|| Zipf::new(POPULATION, 1.0));
    (0..frames)
        .map(|i| {
            let binary = spec.binary_every > 0 && i % spec.binary_every == spec.binary_every - 1;
            let tier = if binary {
                PredictionTier::Binary
            } else {
                PredictionTier::Full
            };
            let (key, model) = match &zipf {
                Some(_) if rng.below(TRAINER_EVERY) == 0 => (TRAINER_KEY.to_string(), UNCHECKED),
                Some(z) => {
                    let r = z.sample(&mut rng);
                    (sys.key(r), (r % BASES) as u32)
                }
                None => (sys.key(0), 0),
            };
            let mut refs = Vec::with_capacity(spec.rows_per_frame);
            let mut rows = Vec::with_capacity(spec.rows_per_frame);
            for _ in 0..spec.rows_per_frame {
                if model == UNCHECKED {
                    let pool = &sys
                        .trainer
                        .as_ref()
                        .expect("store workload has a trainer")
                        .rows;
                    let r = rng.below(pool.len());
                    rows.push(pool[r].clone());
                    refs.push(RowRef {
                        model,
                        row: r as u32,
                    });
                } else {
                    let pool = &sys.population[model as usize].rows;
                    let r = rng.below(pool.len());
                    rows.push(pool[r].clone());
                    refs.push(RowRef {
                        model,
                        row: r as u32,
                    });
                }
            }
            let mut bytes = Vec::new();
            if spec.rows_per_frame == 1 {
                frame::encode_predict_tier(&mut bytes, 0, &key, &rows[0], tier);
            } else {
                frame::encode_predict_batch_tier(&mut bytes, 0, &key, &rows, tier);
            }
            Frame {
                bytes,
                rows: refs,
                binary,
                key,
            }
        })
        .collect()
}

/// Offline answers for every held-out row of every population model, on
/// both tiers, computed with `ModelBundle::predict_with` and
/// `predict_binary_with` from the served bytes.
pub struct References {
    pub full: Vec<Vec<f32>>,
    pub binary: Vec<Vec<f32>>,
    /// Held-out targets, for `answer_nrmse`.
    pub targets: Vec<Vec<f32>>,
}

impl References {
    pub fn compute(population: &[Population]) -> Result<Self, String> {
        let mut scratch = reghd::PredictScratch::default();
        let mut full = Vec::new();
        let mut binary = Vec::new();
        for p in population {
            full.push(p.bundle.predict_with(&p.rows, &mut scratch)?);
            binary.push(p.bundle.predict_binary_with(&p.rows, &mut scratch)?);
        }
        Ok(Self {
            full,
            binary,
            targets: population.iter().map(|p| p.targets.clone()).collect(),
        })
    }
}
