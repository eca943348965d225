//! End-to-end benchmark of RegHD serving and training.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload point_small --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Hosts the RGNP server in-process, drives it with the benchmark's own
//! open-loop generator through a `light` and a `heavy` phase and a
//! closed-loop `capacity` phase, checks every answer against offline
//! predictions, and prints the metrics as one JSON object on the last line
//! of standard output: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. See `perfbench/README.md`.

mod alloc;
mod client;
mod probes;
mod procstat;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use reghd_net::frame::status;

use client::{Frame, Outcome, UNCHECKED};
use stats::{median, quantile, sorted, supported_quantile, Schedule, TAIL_CANDIDATES};
use trace::Tracer;
use workload::{References, Spec, System};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// `client.capacity_wall_rps` is the median rate over windows this long.
const CAPACITY_WINDOW: Duration = Duration::from_millis(500);
/// Unmeasured open-loop warm-up before the light phase, in seconds.
const WARMUP_S: f64 = 1.5;
/// Client-side spans kept per phase in the traced run.
const WIRE_SPANS: usize = 20_000;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Latency charged to a frame that failed: it misses every limit.
const FAIL_US: f64 = 10_000_000.0;
/// How long a phase waits for outstanding replies after its last send.
const DRAIN: Duration = Duration::from_secs(5);
/// Frames per phase plan; longer phases cycle through it.
const PLAN_FRAMES: usize = 8192;
/// Shares of `--seconds` spent in the light, heavy and capacity phases.
const PHASE_SHARES: [f64; 3] = [0.35, 0.35, 0.3];
/// The generator fell behind when its p99 lateness exceeds this, or the
/// light phase's median latency if that is longer.
const LATE_LIMIT_US: f64 = 2000.0;
/// ... or when its threads use more than this share of the machine.
const CLIENT_CPU_LIMIT: f64 = 0.35;
/// Where runs keep their store, spans and records, under the checkout.
const WORK_DIR: &str = ".perfbench_work";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    plant_mismatch: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        plant_mismatch: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds < 1.0 {
                    return Err("--seconds must be at least 1".to_string());
                }
            }
            "--trace" => args.trace = value()? == "1",
            "--plant-mismatch" => args.plant_mismatch = value()? == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if workload::spec(&args.workload).is_none() {
        let names: Vec<&str> = workload::SPECS.iter().map(|s| s.name).collect();
        return Err(format!("--workload must be one of {}", names.join(", ")));
    }
    Ok(args)
}

/// One named metric with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The reply tally of one phase, checked against the references.
#[derive(Default)]
struct Tally {
    frames: usize,
    rows: usize,
    failed: usize,
    /// Rows asked for on the full tier and answered.
    full_answered: usize,
    /// ... of which the binary tier answered.
    demoted: usize,
    /// Reply times of the rows answered on the tier they asked for.
    on_tier: Vec<Instant>,
    mismatches: usize,
    lat_us: Vec<f64>,
    late_us: Vec<f64>,
    preds: Vec<f64>,
    targets: Vec<f64>,
    errors: BTreeSet<String>,
}

impl Tally {
    /// Tallies `outcomes`; with `window`, only replies that arrived inside
    /// it count as answered on tier.
    fn add(
        &mut self,
        outcomes: &[Outcome],
        plan: &[Frame],
        refs: &References,
        window: Option<(Instant, Instant)>,
    ) {
        for o in outcomes {
            let f = &plan[o.plan_idx];
            self.frames += 1;
            self.rows += f.rows.len();
            self.late_us
                .push(o.sent.saturating_duration_since(o.due).as_secs_f64() * 1e6);
            let Some((at, answer)) = &o.reply else {
                self.failed += f.rows.len();
                self.lat_us.push(FAIL_US);
                self.errors.insert("lost".to_string());
                continue;
            };
            let answer = match answer {
                Ok(rows) if rows.len() == f.rows.len() => rows,
                Ok(_) => {
                    self.failed += f.rows.len();
                    self.lat_us.push(FAIL_US);
                    self.errors.insert("row count mismatch".to_string());
                    continue;
                }
                Err(msg) => {
                    self.failed += f.rows.len();
                    self.lat_us.push(FAIL_US);
                    self.errors.insert(msg.clone());
                    continue;
                }
            };
            let mut frame_ok = true;
            let in_window = window.is_none_or(|(s, e)| *at >= s && *at <= e);
            for (r, &(st, v)) in f.rows.iter().zip(answer) {
                if st != status::OK && st != status::DEGRADED {
                    self.failed += 1;
                    frame_ok = false;
                    self.errors.insert(format!("status {st}"));
                    continue;
                }
                let binary = st == status::DEGRADED;
                if !f.binary {
                    self.full_answered += 1;
                    self.demoted += usize::from(binary);
                }
                if binary == f.binary && in_window {
                    self.on_tier.push(*at);
                }
                if r.model == UNCHECKED {
                    if !v.is_finite() {
                        self.mismatches += 1;
                    }
                    continue;
                }
                let (m, i) = (r.model as usize, r.row as usize);
                let want = if binary {
                    refs.binary[m][i]
                } else {
                    refs.full[m][i]
                };
                if v.to_bits() != want.to_bits() {
                    self.mismatches += 1;
                }
                self.preds.push(f64::from(v));
                self.targets.push(f64::from(refs.targets[m][i]));
            }
            self.lat_us.push(if frame_ok {
                at.saturating_duration_since(o.due).as_secs_f64() * 1e6
            } else {
                FAIL_US
            });
        }
    }

    /// Frame latency: the phase's median, and the median over up to ten
    /// equal windows of each window's tail, taken at the highest quantile
    /// that leaves ten samples beyond it in a window. Returns (p50, tail,
    /// tail quantile).
    fn latency(&self) -> (f64, f64, f64) {
        let n = self.lat_us.len();
        let per = n / (n / 1000).clamp(1, 10);
        let q = supported_quantile(per, &TAIL_CANDIDATES).unwrap_or(0.5);
        let tails: Vec<f64> = self
            .lat_us
            .chunks_exact(per.max(1))
            .map(|w| quantile(&sorted(w.to_vec()), q))
            .collect();
        (
            quantile(&sorted(self.lat_us.clone()), 0.5),
            median(&tails),
            q,
        )
    }

    /// Share of frames answered within `limit_us`; failed frames miss.
    fn within(&self, limit_us: f64) -> f64 {
        self.lat_us.iter().filter(|&&l| l <= limit_us).count() as f64
            / self.lat_us.len().max(1) as f64
    }

    /// Wall-clock rows/s answered on the requested tier: the median over
    /// `CAPACITY_WINDOW`-long windows of `[start, end)`.
    fn rate(&self, start: Instant, end: Instant) -> f64 {
        let windows = ((end - start).as_secs_f64() / CAPACITY_WINDOW.as_secs_f64())
            .floor()
            .max(1.0) as usize;
        let mut counts = vec![0usize; windows];
        for at in &self.on_tier {
            let w = (at.saturating_duration_since(start).as_secs_f64()
                / CAPACITY_WINDOW.as_secs_f64()) as usize;
            if let Some(c) = counts.get_mut(w) {
                *c += 1;
            }
        }
        let rates: Vec<f64> = counts
            .iter()
            .map(|&c| c as f64 / CAPACITY_WINDOW.as_secs_f64())
            .collect();
        median(&rates)
    }

    fn merge(&mut self, other: &Tally) {
        self.frames += other.frames;
        self.rows += other.rows;
        self.failed += other.failed;
        self.full_answered += other.full_answered;
        self.demoted += other.demoted;
        self.on_tier.extend(&other.on_tier);
        self.mismatches += other.mismatches;
        self.lat_us.extend(&other.lat_us);
        self.late_us.extend(&other.late_us);
        self.preds.extend(&other.preds);
        self.targets.extend(&other.targets);
        self.errors.extend(other.errors.iter().cloned());
    }

    /// RMSE of the answers over the standard deviation of their targets.
    fn nrmse(&self) -> f64 {
        let n = self.preds.len() as f64;
        let mse = self
            .preds
            .iter()
            .zip(&self.targets)
            .map(|(p, t)| (p - t) * (p - t))
            .sum::<f64>()
            / n;
        let mean = self.targets.iter().sum::<f64>() / n;
        let var = self
            .targets
            .iter()
            .map(|t| (t - mean) * (t - mean))
            .sum::<f64>()
            / n;
        (mse / var).sqrt()
    }
}

/// One measured phase: its tally, wall time, and per-thread usage.
struct Phase {
    tally: Tally,
    outcomes: Vec<Outcome>,
    wall_s: f64,
    usage: procstat::Usage,
    client_cpu_ns: u64,
    /// Frames the open loop sent again after a `BUSY` reply.
    retries: usize,
}

impl Phase {
    fn answered(&self) -> f64 {
        (self.tally.rows - self.tally.failed).max(1) as f64
    }

    fn cpu_us_per_row(&self, prefix: &str) -> f64 {
        self.usage.group(prefix).0 as f64 / 1e3 / self.answered()
    }

    fn wakeups_per_row(&self, prefix: &str) -> f64 {
        self.usage.group(prefix).1 as f64 / self.answered()
    }

    /// CPU of the named threads as a share of the whole machine.
    fn machine_share(&self, prefix: &str) -> f64 {
        self.usage.group(prefix).0 as f64 / 1e9 / (self.wall_s * procstat::nproc() as f64)
    }

    /// CPU of the load generator's threads as a share of the machine.
    fn client_share(&self) -> f64 {
        self.client_cpu_ns as f64 / 1e9 / (self.wall_s * procstat::nproc() as f64)
    }
}

fn open_phase(
    sys: &System,
    refs: &References,
    plan: &Arc<Vec<Frame>>,
    rows_per_s: f64,
    secs: f64,
) -> Result<Phase, String> {
    let sched = Schedule::new(rows_per_s, sys.spec.rows_per_frame, secs);
    let before = procstat::sample();
    let run = client::open_loop(sys.addr(), procstat::nproc(), plan, sched, DRAIN)
        .map_err(|e| format!("open loop: {e}"))?;
    let usage = procstat::Usage::between(&before, &procstat::sample());
    let mut tally = Tally::default();
    tally.add(&run.outcomes, plan, refs, None);
    Ok(Phase {
        tally,
        outcomes: run.outcomes,
        wall_s: run.elapsed.as_secs_f64().max(1e-3),
        usage,
        client_cpu_ns: run.client_cpu_ns,
        retries: run.retries,
    })
}

/// What the closed-loop phase measured.
struct Capacity {
    /// `capacity_rps`: rows answered on the requested tier inside the
    /// window, per CPU-second the whole process used there, times `nproc`.
    /// Thread CPU time leaves out what the host and other processes took
    /// from the machine, so on a shared host this is the rate the process
    /// sustains on `nproc` cores of its own; on an idle machine that the
    /// closed loop saturates it equals the wall-clock rate.
    rps: f64,
    /// Wall-clock rate: the median over `CAPACITY_WINDOW`-long windows.
    wall_rps: f64,
    /// The process's CPU in the window as a share of the machine.
    cpu_share: f64,
}

/// The closed-loop phase, and what it measured.
fn capacity_phase(
    sys: &System,
    refs: &References,
    plan: &Arc<Vec<Frame>>,
    secs: f64,
) -> Result<(Phase, Capacity), String> {
    let before = procstat::sample();
    let run = client::closed_loop(
        sys.addr(),
        procstat::nproc(),
        plan,
        sys.spec.window,
        Duration::from_secs_f64(secs),
    )
    .map_err(|e| format!("closed loop: {e}"))?;
    let usage = procstat::Usage::between(&before, &procstat::sample());
    let mut tally = Tally::default();
    tally.add(&run.outcomes, plan, refs, Some((run.start, run.end)));
    let wall_s = (run.end - run.start).as_secs_f64();
    let cores = procstat::nproc() as f64;
    let cpu_s = (run.window_cpu_ns as f64 / 1e9).max(1e-6);
    let capacity = Capacity {
        rps: tally.on_tier.len() as f64 / cpu_s * cores,
        wall_rps: tally.rate(run.start, run.end),
        cpu_share: cpu_s / (wall_s * cores),
    };
    let phase = Phase {
        tally,
        outcomes: Vec::new(),
        wall_s,
        usage,
        client_cpu_ns: run.client_cpu_ns,
        retries: 0,
    };
    Ok((phase, capacity))
}

/// Server-side counters summed over the models a run touched.
#[derive(Default, Clone, Copy)]
struct ServeCounters {
    batches: u64,
    batched_rows: u64,
    expired: u64,
    busy: u64,
    demotions: u64,
}

fn serve_counters(sys: &System, keys: &BTreeSet<String>) -> ServeCounters {
    use std::sync::atomic::Ordering::Relaxed;
    let hub = sys.server.metrics();
    let mut c = ServeCounters {
        demotions: sys.server.shed().map_or(0, |s| s.demotions()),
        ..ServeCounters::default()
    };
    for k in keys {
        let m = hub.for_model(k);
        c.batches += m.batches.load(Relaxed);
        c.batched_rows += m.batched_rows.load(Relaxed);
        c.expired += m.expired.load(Relaxed);
        c.busy += m.shed.load(Relaxed);
    }
    c
}

struct RunResult {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
}

fn run(args: &Args) -> Result<RunResult, String> {
    let spec: Spec = workload::spec(&args.workload).expect("validated by parse_args");
    let work = PathBuf::from(WORK_DIR);
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;

    // Set up several times; keep the last system, report the median.
    let mut setup_s = Vec::new();
    let (mut fit_rows, mut fit_s) = (0.0, 0.0);
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        let start = Instant::now();
        let sys = workload::setup(spec, &work)?;
        setup_s.push(start.elapsed().as_secs_f64());
        fit_rows += sys.fit_rows;
        fit_s += sys.fit_s;
        if rep + 1 < SETUP_REPS {
            sys.shutdown()?;
        } else {
            kept = Some(sys);
        }
    }
    let sys = kept.expect("at least one set-up");
    let mut refs = References::compute(&sys.population)?;

    let [light_s, heavy_s, cap_s] = PHASE_SHARES.map(|s| s * args.seconds);
    let light_plan = Arc::new(workload::plan(&sys, args.seed ^ 0x11, PLAN_FRAMES));
    let heavy_plan = Arc::new(workload::plan(&sys, args.seed ^ 0x22, PLAN_FRAMES));
    let cap_plan = Arc::new(workload::plan(&sys, args.seed ^ 0x33, PLAN_FRAMES));
    if args.plant_mismatch {
        // A deliberately wrong reference: the gate must reject the run.
        let r = light_plan
            .iter()
            .flat_map(|f| f.rows.iter())
            .find(|r| r.model != UNCHECKED)
            .copied()
            .ok_or("the light plan has no checked row")?;
        let m = r.model as usize;
        let v = &mut refs.full[m][r.row as usize];
        *v = f32::from_bits(v.to_bits() ^ 1);
        let v = &mut refs.binary[m][r.row as usize];
        *v = f32::from_bits(v.to_bits() ^ 1);
    }
    let keys: BTreeSet<String> = [&light_plan, &heavy_plan, &cap_plan]
        .iter()
        .flat_map(|p| p.iter().map(|f| f.key.clone()))
        .collect();

    // Created before the phases, so the wire spans it records fall after
    // its time origin.
    let mut tracer = Tracer::new(args.trace);
    // Warm the caches (the store's hot set above all) before measuring.
    let warmup = open_phase(&sys, &refs, &light_plan, spec.light_rps, WARMUP_S)?;
    let counters0 = serve_counters(&sys, &keys);
    let store0 = sys.store.as_ref().map(|s| s.stats());
    let train0 = sys.trainer.as_ref().map_or(0, |t| t.samples());
    let t0 = Instant::now();
    let light = open_phase(&sys, &refs, &light_plan, spec.light_rps, light_s)?;
    let heavy = open_phase(&sys, &refs, &heavy_plan, spec.heavy_rps, heavy_s)?;
    let store1 = sys.store.as_ref().map(|s| s.stats());
    let store1_at = t0.elapsed().as_secs_f64();
    // Peak RSS before the capacity phase, whose per-frame bookkeeping grows
    // with the rate it reaches.
    let rss_mb = procstat::peak_rss_mb();
    let (capacity, cap) = capacity_phase(&sys, &refs, &cap_plan, cap_s)?;
    let train_rows_per_s = match &sys.trainer {
        Some(t) => (t.samples() - train0) as f64 / t0.elapsed().as_secs_f64(),
        None => fit_rows / fit_s,
    };
    let counters = {
        let c = serve_counters(&sys, &keys);
        ServeCounters {
            batches: c.batches - counters0.batches,
            batched_rows: c.batched_rows - counters0.batched_rows,
            expired: c.expired - counters0.expired,
            busy: c.busy - counters0.busy,
            demotions: c.demotions - counters0.demotions,
        }
    };

    let mut open = Tally::default();
    open.merge(&light.tally);
    open.merge(&heavy.tally);
    let mut all = Tally::default();
    all.merge(&warmup.tally);
    all.merge(&open);
    all.merge(&capacity.tally);
    let (light_p50, light_tail, light_q) = light.tally.latency();
    let (heavy_p50, heavy_tail, heavy_q) = heavy.tally.latency();
    let late = sorted(open.late_us.clone());
    let late_p99 = quantile(&late, 0.99);
    let client_share = heavy.client_share();
    let behind = late_p99 > LATE_LIMIT_US.max(light_p50) || client_share > CLIENT_CPU_LIMIT;
    if behind {
        eprintln!(
            "warning: the generator fell behind (late p99 {late_p99:.0} us, cpu share {client_share:.3}); \
             latencies of this run are not valid"
        );
    }
    for e in &all.errors {
        eprintln!("failed rows: {e}");
    }

    let mut metrics = Vec::new();
    if !args.trace {
        metrics.extend([
            metric("setup_s", median(&setup_s), "s"),
            metric("light_slo_share", light.tally.within(spec.slo_us), "share"),
            metric("heavy_slo_share", heavy.tally.within(spec.slo_us), "share"),
            metric("capacity_rps", cap.rps, "1/s"),
            metric(
                "full_tier_share",
                1.0 - open.demoted as f64 / open.full_answered.max(1) as f64,
                "share",
            ),
            metric(
                "answered_share",
                1.0 - all.failed as f64 / all.rows.max(1) as f64,
                "share",
            ),
            metric("answer_nrmse", open.nrmse(), "ratio"),
            metric(
                "server_cpu_us_per_row",
                heavy.cpu_us_per_row("reghd-"),
                "us",
            ),
            metric("rss_mb", rss_mb, "MB"),
        ]);
    }

    let trace_path = work.join(format!("trace-{}.jsonl", spec.name));
    let System {
        server,
        registry,
        store,
        trainer,
        population,
        ..
    } = sys;
    let train_report = trainer.map(workload::TrainerRun::stop).transpose()?;
    server.shutdown();

    if args.trace {
        let batch = if counters.batches > 0 {
            counters.batched_rows as f64 / counters.batches as f64
        } else {
            1.0
        };
        let worker_cpu_s = heavy.usage.group("reghd-worker-").0 as f64 / 1e9;
        let workers = heavy.usage.count("reghd-worker-").max(1) as f64;
        metrics.extend([
            metric("wire.light_tail_us", light_tail, "us"),
            metric("wire.heavy_tail_us", heavy_tail, "us"),
            metric("wire.light_p50_us", light_p50, "us"),
            metric("wire.heavy_p50_us", heavy_p50, "us"),
            metric("train.rows_per_s", train_rows_per_s, "1/s"),
            metric(
                "net.poller_cpu_us_per_row",
                heavy.cpu_us_per_row("reghd-poller-"),
                "us",
            ),
            metric(
                "net.poller_wakeups_per_row",
                heavy.wakeups_per_row("reghd-poller-"),
                "count",
            ),
            metric(
                "net.accept_cpu_share",
                heavy.machine_share("reghd-rgnp-acc"),
                "share",
            ),
            metric("serve.batch_rows_mean", batch, "rows"),
            metric(
                "serve.batcher_cpu_us_per_row",
                heavy.cpu_us_per_row("reghd-batcher"),
                "us",
            ),
            metric(
                "serve.batcher_wakeups_per_row",
                heavy.wakeups_per_row("reghd-batcher"),
                "count",
            ),
            metric(
                "serve.worker_cpu_us_per_row",
                heavy.cpu_us_per_row("reghd-worker-"),
                "us",
            ),
            metric(
                "serve.worker_busy_share",
                worker_cpu_s / (heavy.wall_s * workers),
                "share",
            ),
            metric("serve.demotions", counters.demotions as f64, "count"),
            metric("serve.expired_rows", counters.expired as f64, "count"),
            metric("serve.busy_rows", counters.busy as f64, "count"),
            metric(
                "train.cpu_share",
                heavy.machine_share("train-loop"),
                "share",
            ),
            metric("client.late_us.p99", late_p99, "us"),
            metric("client.cpu_share", client_share, "share"),
            metric(
                "client.busy_retries",
                (light.retries + heavy.retries) as f64,
                "count",
            ),
            metric("client.capacity_wall_rps", cap.wall_rps, "1/s"),
            metric("client.capacity_cpu_share", cap.cpu_share, "share"),
        ]);
        if let Some(r) = &train_report {
            eprintln!(
                "trainer: {} samples, {} store publications ({} deltas)",
                r.samples, r.store_publications, r.store_delta_publications
            );
        }
        let ctx = probes::Ctx {
            spec,
            seed: args.seed,
            work: &work,
            registry: &registry,
            store: store.as_ref(),
            population: &population,
            refs: &refs,
            plan: &light_plan,
            light_p50_us: light_p50,
            batch_rows_mean: batch,
            store_window: match (store0, store1) {
                (Some(a), Some(b)) => Some((a, b, store1_at)),
                _ => None,
            },
        };
        record_wire_spans(&mut tracer, &[&light, &heavy]);
        metrics.extend(probes::run(&ctx, &mut tracer)?);
        tracer
            .write(&trace_path)
            .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    }
    drop(store);
    cleanup(&work);

    let correct = all.mismatches == 0 && metrics.iter().all(|m| m.value.is_finite());
    if all.mismatches > 0 {
        eprintln!(
            "correctness gate: {} answers differ from the offline references",
            all.mismatches
        );
    }
    let record = format!(
        "{{\"record\": {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"machine\": {}, \
         \"light_tail_quantile\": {light_q}, \"heavy_tail_quantile\": {heavy_q}, \
         \"light_frames\": {}, \"heavy_frames\": {}, \"capacity_frames\": {}, \
         \"light_tail_us\": {light_tail}, \"heavy_tail_us\": {heavy_tail}, \
         \"mismatches\": {}, \"generator_behind\": {behind}}}}}",
        spec.name,
        args.seed,
        u8::from(args.trace),
        procstat::fingerprint(),
        light.tally.frames,
        heavy.tally.frames,
        capacity.tally.frames,
        all.mismatches,
    );
    println!("{record}");
    Ok(RunResult {
        correct,
        attempted: all.rows,
        failed: all.failed,
        metrics,
    })
}

/// Client-side spans: one per open-loop frame (the first `WIRE_SPANS` of
/// each phase), from its scheduled send to its reply, keyed by request id.
fn record_wire_spans(tracer: &mut Tracer, phases: &[&Phase]) {
    for p in phases {
        for (i, o) in p.outcomes.iter().enumerate().take(WIRE_SPANS) {
            if let Some((at, _)) = &o.reply {
                tracer.record("wire.frame", o.due, *at, i as u64);
            }
        }
    }
}

/// Removes the run's store directories; spans and records stay.
fn cleanup(work: &Path) {
    let tag = format!("-{}-", std::process::id());
    if let Ok(entries) = std::fs::read_dir(work) {
        for e in entries.flatten() {
            if e.file_name().to_string_lossy().contains(&tag) {
                let _ = std::fs::remove_dir_all(e.path());
            }
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let out = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            cleanup(Path::new(WORK_DIR));
            std::process::exit(1);
        }
    };
    let body: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": \"{}\"}}",
                procstat::json_str(&m.name),
                m.value,
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        body.join(", ")
    );
    if !out.correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use client::RowRef;

    fn frame(row: u32, binary: bool) -> Frame {
        Frame {
            bytes: Vec::new(),
            rows: vec![RowRef { model: 0, row }],
            binary,
            key: "m".to_string(),
        }
    }

    fn answered(plan_idx: usize, st: u8, v: f32) -> Outcome {
        let now = Instant::now();
        Outcome {
            plan_idx,
            due: now,
            sent: now,
            reply: Some((now, Ok(vec![(st, v)]))),
        }
    }

    fn refs() -> References {
        References {
            full: vec![vec![1.0, 2.0]],
            binary: vec![vec![1.5, 2.5]],
            targets: vec![vec![1.0, 2.0]],
        }
    }

    #[test]
    fn gate_accepts_bit_identical_answers_on_either_tier() {
        let plan = vec![frame(0, false), frame(1, false), frame(1, true)];
        let outcomes = vec![
            answered(0, status::OK, 1.0),
            answered(1, status::DEGRADED, 2.5),
            answered(2, status::DEGRADED, 2.5),
        ];
        let mut t = Tally::default();
        t.add(&outcomes, &plan, &refs(), None);
        assert_eq!(t.mismatches, 0);
        assert_eq!((t.full_answered, t.demoted, t.failed), (2, 1, 0));
        assert_eq!(t.on_tier.len(), 2);
    }

    #[test]
    fn gate_rejects_a_planted_mismatch() {
        let plan = vec![frame(0, false), frame(1, false)];
        let planted = f32::from_bits(2.0f32.to_bits() ^ 1);
        let outcomes = vec![
            answered(0, status::OK, 1.0),
            answered(1, status::OK, planted),
        ];
        let mut t = Tally::default();
        t.add(&outcomes, &plan, &refs(), None);
        assert_eq!(t.mismatches, 1);
    }

    #[test]
    fn failed_and_lost_frames_miss_every_latency_limit() {
        let plan = vec![frame(0, false), frame(1, false)];
        let mut lost = answered(1, status::OK, 2.0);
        lost.reply = None;
        let outcomes = vec![answered(0, status::BUSY, f32::NAN), lost];
        let mut t = Tally::default();
        t.add(&outcomes, &plan, &refs(), None);
        assert_eq!(t.failed, 2);
        assert_eq!(t.mismatches, 0);
        assert_eq!(t.within(FAIL_US - 1.0), 0.0);
    }
}
