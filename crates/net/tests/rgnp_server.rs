//! Live-socket tests for the RGNP front-end: framing robustness
//! (fragmented reads, pipelined bursts, oversized frames), protocol
//! semantics, admission control, deadlines, drain, the `ADMIN` operator
//! commands, and the background integrity sweeper.

#![cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]

use reghd_net::client::PredictReply;
use reghd_net::frame::{self, opcode, status, FrameBuf, Step};
use reghd_net::{serve_rgnp, NetConfig, NetServerHandle, RgnpClient};
use reghd_serve::batcher::BatcherConfig;
use reghd_serve::bundle;
use reghd_serve::registry::ModelRegistry;
use reghd_serve::status::TrainStatus;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A small trained bundle's bytes; `slope` and `seed` make distinct models.
fn toy_bytes(slope: i32, seed: u64) -> Vec<u8> {
    let features: Vec<Vec<f32>> = (0..40)
        .map(|i| vec![i as f32, (i * slope) as f32])
        .collect();
    let targets: Vec<f32> = features.iter().map(|r| r[0] + r[1]).collect();
    let ds = datasets::Dataset::new("toy", features, targets);
    let (b, _) = bundle::train(&ds, 128, 2, 3, seed, false).unwrap();
    b.to_bytes().unwrap()
}

fn toy_registry() -> Arc<ModelRegistry> {
    let registry = Arc::new(ModelRegistry::new());
    registry.load_bytes("toy", &toy_bytes(2, 11)).unwrap();
    registry
}

fn connect(handle: &NetServerHandle) -> RgnpClient {
    let mut c = RgnpClient::connect(&handle.local_addr().to_string()).unwrap();
    c.set_timeout(Some(Duration::from_secs(10))).unwrap();
    c
}

/// One full-precision predict; panics unless the reply is `OK`.
fn ok_bits(c: &mut RgnpClient, row: &[f32]) -> u32 {
    match c.predict("toy", row).unwrap() {
        PredictReply::Ok(y) => y.to_bits(),
        other => panic!("expected ok, got {other:?}"),
    }
}

/// Sends one raw request frame and returns the single reply frame.
fn raw_request(handle: &NetServerHandle, kind: u8, payload: &[u8]) -> frame::Frame {
    let mut s = TcpStream::connect(handle.local_addr()).unwrap();
    let mut req = Vec::new();
    frame::encode(&mut req, kind, 5, payload);
    s.write_all(&req).unwrap();
    let f = read_frames(&mut s, 1).remove(0);
    assert_eq!(f.req_id, 5);
    f
}

fn start_server(cfg_mut: impl FnOnce(&mut NetConfig)) -> (NetServerHandle, Arc<ModelRegistry>) {
    let registry = toy_registry();
    let mut cfg = NetConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        pollers: 2,
        ..NetConfig::default()
    };
    cfg_mut(&mut cfg);
    let handle = serve_rgnp(cfg, registry.clone()).unwrap();
    (handle, registry)
}

/// Reads frames from a raw stream until `n` have arrived.
fn read_frames(stream: &mut TcpStream, n: usize) -> Vec<frame::Frame> {
    let mut buf = FrameBuf::new();
    let mut scratch = [0u8; 4096];
    let mut out = Vec::new();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    while out.len() < n {
        loop {
            match buf.next_frame(frame::DEFAULT_MAX_FRAME) {
                Step::Ready(f) => out.push(f),
                Step::Incomplete => break,
                Step::Violation(msg) => panic!("client saw violation: {msg}"),
            }
        }
        if out.len() >= n {
            break;
        }
        let got = stream.read(&mut scratch).unwrap();
        assert!(got > 0, "server closed early after {} frames", out.len());
        buf.extend(&scratch[..got]);
    }
    out
}

#[test]
fn predict_and_control_opcodes_over_loopback() {
    let (handle, _registry) = start_server(|_| {});
    let addr = handle.local_addr().to_string();
    let mut c = RgnpClient::connect(&addr).unwrap();
    c.set_timeout(Some(Duration::from_secs(10))).unwrap();
    c.ping().unwrap();
    match c.predict("toy", &[3.0, 4.0]).unwrap() {
        PredictReply::Ok(y) => assert!(y.is_finite()),
        other => panic!("expected ok, got {other:?}"),
    }
    assert_eq!(
        c.predict("ghost", &[1.0, 2.0]).unwrap(),
        PredictReply::Err("unknown model ghost".to_string())
    );
    assert_eq!(
        c.predict("toy", &[f32::NAN, 1.0]).unwrap(),
        PredictReply::Err("non-finite feature value".to_string())
    );
    let stats = c.stats().unwrap();
    let lines: Vec<&str> = stats.lines().collect();
    assert!(
        lines.iter().any(|l| l.starts_with("model toy v1 ")),
        "{stats}"
    );
    assert!(
        lines
            .iter()
            .any(|l| l.starts_with("stat toy ") && l.contains("ok=1")),
        "{stats}"
    );
    assert!(
        lines.iter().any(|l| l.starts_with("server connections=")
            && l.contains("sweeps=0")
            && l.contains("tier=full")
            && l.contains("connections_rejected=0")),
        "{stats}"
    );
    let list = c.list().unwrap();
    assert!(list.contains("model toy"), "{list}");
    assert_eq!(
        c.train_status().unwrap(),
        Err("no trainer attached".to_string())
    );
    // An unknown opcode and a truncated predict payload are typed errors.
    let f = raw_request(&handle, 0x63, &[]);
    assert_eq!(f.kind, status::ERR);
    assert_eq!(f.payload, b"unknown opcode 99");
    let f = raw_request(&handle, opcode::PREDICT, &[3, 0, b't']);
    assert_eq!(f.kind, status::ERR, "{f:?}");
    let final_stats = handle.shutdown();
    assert!(final_stats[0].contains("ok=1"), "{final_stats:?}");
}

#[test]
fn non_finite_rows_are_errors_and_count_as_bad_requests() {
    let (handle, _registry) = start_server(|_| {});
    let mut c = connect(&handle);
    for row in [
        [f32::NAN, 1.0],
        [1.0, f32::INFINITY],
        [f32::NEG_INFINITY, 0.0],
    ] {
        assert_eq!(
            c.predict("toy", &row).unwrap(),
            PredictReply::Err("non-finite feature value".to_string())
        );
    }
    let err = c
        .predict_batch("toy", &[vec![1.0, 2.0], vec![f32::NAN, 0.0]])
        .unwrap_err();
    assert!(err.to_string().contains("non-finite"), "{err}");
    // The model itself is untouched — a clean row still predicts.
    ok_bits(&mut c, &[2.0, 4.0]);
    assert_eq!(handle.metrics().bad_requests.load(Ordering::Relaxed), 4);
    handle.shutdown();
}

#[test]
fn list_replies_name_sorted() {
    let (handle, registry) = start_server(|_| {});
    registry.load_bytes("alpha", &toy_bytes(3, 12)).unwrap();
    let list = connect(&handle).list().unwrap();
    let lines: Vec<&str> = list.lines().collect();
    assert_eq!(lines.len(), 2, "{list}");
    assert!(lines[0].starts_with("model alpha v1 "), "{list}");
    assert!(lines[1].starts_with("model toy v1 "), "{list}");
    handle.shutdown();
}

#[test]
fn train_status_renders_attached_trainer() {
    let status = Arc::new(TrainStatus::new());
    status.record_sample(0.5);
    status.record_drift(0);
    let (handle, _registry) = start_server(|c| c.train_status = Some(status.clone()));
    let mut c = connect(&handle);
    let reply = c.train_status().unwrap().unwrap();
    assert!(reply.starts_with("train samples=1"), "{reply}");
    assert!(reply.contains("drift_events=1"), "{reply}");
    status.record_checkpoint();
    let reply = c.train_status().unwrap().unwrap();
    assert!(reply.contains("checkpoints=1"), "{reply}");
    handle.shutdown();
}

#[test]
fn fast_trig_server_predictions_stay_close_to_exact() {
    // Fast trig may move replies, but only within the fast-trig error
    // envelope: finite and numerically close to the exact answers.
    let rows = [[3.0f32, 4.0], [10.5, -2.25]];
    let mut replies: Vec<Vec<f32>> = Vec::new();
    for trig in [hdc::TrigMode::Exact, hdc::TrigMode::Fast] {
        let (handle, registry) = start_server(|c| c.trig = trig);
        assert_eq!(registry.default_trig(), trig);
        assert_eq!(
            registry.get("toy").unwrap().bundle.trig_mode(),
            trig,
            "startup must push the trig knob into loaded models"
        );
        let mut c = connect(&handle);
        replies.push(
            rows.iter()
                .map(|r| f32::from_bits(ok_bits(&mut c, r)))
                .collect(),
        );
        handle.shutdown();
    }
    for (e, f) in replies[0].iter().zip(&replies[1]) {
        assert!(f.is_finite());
        assert!(
            (e - f).abs() <= 0.05 * (1.0 + e.abs()),
            "exact={e} fast={f}"
        );
    }
}

#[test]
fn zero_deadline_expires_rows_pre_compute_and_degrades() {
    let (handle, _registry) = start_server(|c| c.deadline = Some(Duration::ZERO));
    let mut c = connect(&handle);
    match c.predict("toy", &[3.0, 4.0]).unwrap() {
        PredictReply::Degraded(y) => assert!(y.is_finite()),
        other => panic!("expected degraded, got {other:?}"),
    }
    let m = handle.metrics().for_model("toy");
    assert_eq!(m.expired.load(Ordering::Relaxed), 1);
    assert_eq!(
        m.ok.load(Ordering::Relaxed),
        0,
        "an expired row must never reach the full-precision path"
    );
    handle.shutdown();
}

#[test]
fn overload_replies_busy_and_drain_replies_draining() {
    // One worker pinned on a slow batch and a 2-row queue: rows 2–3 wait
    // in the queue, row 4 is refused with BUSY, and shutdown answers the
    // queued rows DRAINING.
    let (handle, _registry) = start_server(|c| {
        c.workers = 1;
        c.batcher = BatcherConfig {
            max_batch: 32,
            queue_cap: 2,
        };
    });
    handle
        .injector()
        .set_worker_delay(Duration::from_millis(1500));
    let addr = handle.local_addr().to_string();
    let client = |row: [f32; 2]| {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut c = RgnpClient::connect(&addr).unwrap();
            c.set_timeout(Some(Duration::from_secs(10))).unwrap();
            c.predict("toy", &row).unwrap()
        })
    };
    let c1 = client([1.0, 2.0]);
    std::thread::sleep(Duration::from_millis(200));
    let c2 = client([3.0, 4.0]);
    let c3 = client([5.0, 6.0]);
    std::thread::sleep(Duration::from_millis(200));

    // Queue full (rows 2–3): explicit admission-control refusal.
    assert_eq!(
        connect(&handle).predict("toy", &[7.0, 8.0]).unwrap(),
        PredictReply::Busy
    );

    let hub = handle.metrics();
    handle.shutdown();
    let r1 = c1.join().unwrap();
    assert!(matches!(r1, PredictReply::Ok(_)), "{r1:?}");
    assert_eq!(c2.join().unwrap(), PredictReply::Draining);
    assert_eq!(c3.join().unwrap(), PredictReply::Draining);
    let m = hub.for_model("toy");
    assert_eq!(m.shed.load(Ordering::Relaxed), 1);
    assert_eq!(
        m.stopped.load(Ordering::Relaxed),
        2,
        "queued rows answered at drain must count as stopped, not shed"
    );
}

#[test]
fn background_sweeper_rolls_back_injected_faults() {
    let (handle, registry) = start_server(|c| c.sweep_interval = Some(Duration::from_millis(25)));
    let mut c = connect(&handle);
    let clean = ok_bits(&mut c, &[3.0, 4.0]);
    registry.inject_model_faults("toy", 0.3, 5).unwrap();
    let hub = handle.metrics();
    let deadline = Instant::now() + Duration::from_secs(5);
    while hub.rollbacks.load(Ordering::Relaxed) == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        hub.rollbacks.load(Ordering::Relaxed) >= 1,
        "sweeper must roll the injected fault back"
    );
    assert!(hub.sweeps.load(Ordering::Relaxed) >= 1);
    assert_eq!(
        ok_bits(&mut c, &[3.0, 4.0]),
        clean,
        "rollback must be bit-exact"
    );
    handle.shutdown();
}

#[test]
fn admin_sweep_and_reload_and_inject_is_gated() {
    let (handle, _registry) = start_server(|_| {});
    let mut c = connect(&handle);
    assert_eq!(
        c.admin("sweep").unwrap(),
        Ok("swept checked=1 corrupted=0 rolled_back=0".to_string())
    );
    // inject is refused unless explicitly enabled.
    assert_eq!(
        c.admin("inject delay 10").unwrap(),
        Err("inject disabled".to_string())
    );
    // Malformed commands are typed errors and count as bad requests.
    assert_eq!(
        c.admin("reload toy").unwrap(),
        Err("usage: reload <model> <path>".to_string())
    );
    assert_eq!(
        c.admin("frobnicate").unwrap(),
        Err("unknown admin command frobnicate".to_string())
    );
    let f = raw_request(&handle, opcode::ADMIN, &[0xff, 0xfe]);
    assert_eq!(f.kind, status::ERR);
    assert_eq!(handle.metrics().bad_requests.load(Ordering::Relaxed), 3);

    // A reload from a missing file is refused; the old version serves on.
    let before = ok_bits(&mut c, &[3.0, 4.0]);
    let missing = std::env::temp_dir().join(format!("reghd-admin-missing-{}", std::process::id()));
    let reply = c
        .admin(&format!("reload toy {}", missing.display()))
        .unwrap();
    assert!(reply.is_err(), "{reply:?}");
    assert_eq!(ok_bits(&mut c, &[3.0, 4.0]), before);
    assert!(c.list().unwrap().starts_with("model toy v1 "));

    // A clean reload swaps in v2.
    let path = std::env::temp_dir().join(format!("reghd-admin-v2-{}.rghd", std::process::id()));
    std::fs::write(&path, toy_bytes(3, 12)).unwrap();
    assert_eq!(
        c.admin(&format!("reload toy {}", path.display())).unwrap(),
        Ok("reloaded toy v2".to_string())
    );
    assert!(c.list().unwrap().starts_with("model toy v2 "));
    let _ = std::fs::remove_file(&path);
    handle.shutdown();
}

#[test]
fn admin_inject_bitflip_then_sweep_recovers_bit_exact() {
    let (handle, _registry) = start_server(|c| c.enable_inject = true);
    let mut c = connect(&handle);
    let clean = ok_bits(&mut c, &[3.0, 4.0]);
    let reply = c.admin("inject bitflip toy 0.3 7").unwrap().unwrap();
    assert!(reply.starts_with("injected flips="), "{reply}");
    assert_ne!(
        ok_bits(&mut c, &[3.0, 4.0]),
        clean,
        "bit flips must perturb the prediction"
    );
    assert_eq!(
        c.admin("sweep").unwrap(),
        Ok("swept checked=1 corrupted=1 rolled_back=1".to_string())
    );
    assert_eq!(
        ok_bits(&mut c, &[3.0, 4.0]),
        clean,
        "rollback must be bit-exact"
    );

    // The server checks every argument itself.
    assert_eq!(
        c.admin("inject bitflip toy 1.5 7").unwrap(),
        Err("rate must be in [0,1]".to_string())
    );
    assert_eq!(
        c.admin("inject bitflip ghost 0.1 7").unwrap(),
        Err("unknown model ghost".to_string())
    );
    for bad in ["inject meteor", "inject delay soon", "inject kill"] {
        let err = c.admin(bad).unwrap().unwrap_err();
        assert!(err.starts_with("usage: inject"), "{bad}: {err}");
    }
    assert_eq!(c.admin("inject delay 5").unwrap(), Ok(String::new()));
    assert_eq!(
        handle.injector().worker_delay(),
        Some(Duration::from_millis(5))
    );
    assert_eq!(c.admin("inject clear").unwrap(), Ok(String::new()));
    assert!(!handle.injector().any_armed());
    handle.shutdown();
}

#[test]
fn batch_predict_matches_singles_bit_exactly() {
    let (handle, _registry) = start_server(|_| {});
    let addr = handle.local_addr().to_string();
    let mut c = RgnpClient::connect(&addr).unwrap();
    c.set_timeout(Some(Duration::from_secs(10))).unwrap();
    let rows = vec![vec![1.0, 2.0], vec![3.5, -1.0], vec![0.0, 9.0]];
    let batch = c.predict_batch("toy", &rows).unwrap();
    assert_eq!(batch.len(), 3);
    for (row, (st, y)) in rows.iter().zip(&batch) {
        assert_eq!(*st, status::OK);
        match c.predict("toy", row).unwrap() {
            PredictReply::Ok(single) => assert_eq!(single.to_bits(), y.to_bits()),
            other => panic!("expected ok, got {other:?}"),
        }
    }
    handle.shutdown();
}

#[test]
fn fragmented_byte_at_a_time_request_still_parses() {
    let (handle, _registry) = start_server(|_| {});
    let mut s = TcpStream::connect(handle.local_addr()).unwrap();
    s.set_nodelay(true).unwrap();
    let mut req = Vec::new();
    frame::encode_predict(&mut req, 7, "toy", &[3.0, 4.0]);
    for b in &req {
        s.write_all(std::slice::from_ref(b)).unwrap();
        s.flush().unwrap();
    }
    let frames = read_frames(&mut s, 1);
    assert_eq!(frames[0].req_id, 7);
    assert_eq!(frames[0].kind, status::OK);
    let y = frame::decode_value_reply(&frames[0].payload).unwrap();
    assert!(y.is_finite());
    handle.shutdown();
}

#[test]
fn pipelined_burst_of_100_frames_all_answered() {
    let (handle, _registry) = start_server(|_| {});
    let mut s = TcpStream::connect(handle.local_addr()).unwrap();
    let mut burst = Vec::new();
    for id in 1..=100u64 {
        burst.extend_from_slice(&{
            let mut one = Vec::new();
            frame::encode_predict(&mut one, id, "toy", &[id as f32, 2.0 * id as f32]);
            one
        });
    }
    s.write_all(&burst).unwrap();
    let frames = read_frames(&mut s, 100);
    let mut seen = [false; 101];
    for f in &frames {
        assert!(f.kind == status::OK || f.kind == status::DEGRADED, "{f:?}");
        let id = f.req_id as usize;
        assert!((1..=100).contains(&id), "unexpected req id {id}");
        assert!(!seen[id], "req id {id} answered twice");
        seen[id] = true;
        frame::decode_value_reply(&f.payload).unwrap();
    }
    handle.shutdown();
}

#[test]
fn oversized_frame_gets_err_and_close_but_server_survives() {
    let (handle, _registry) = start_server(|c| c.max_frame = 4096);
    let mut s = TcpStream::connect(handle.local_addr()).unwrap();
    // Declare a frame far over the cap; the server must not buffer it.
    s.write_all(&8192u32.to_le_bytes()).unwrap();
    s.write_all(&[0u8; 64]).unwrap();
    let frames = read_frames(&mut s, 1);
    assert_eq!(frames[0].kind, status::ERR);
    assert_eq!(frames[0].req_id, 0);
    // After the terminal ERR the connection closes.
    let mut rest = Vec::new();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty());
    // The server itself is unharmed: a new connection predicts fine.
    let mut c = RgnpClient::connect(&handle.local_addr().to_string()).unwrap();
    c.set_timeout(Some(Duration::from_secs(10))).unwrap();
    assert!(matches!(
        c.predict("toy", &[1.0, 2.0]).unwrap(),
        PredictReply::Ok(_)
    ));
    assert!(
        handle
            .metrics()
            .bad_requests
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1
    );
    handle.shutdown();
}

#[test]
fn zero_length_frame_is_a_violation() {
    let (handle, _registry) = start_server(|_| {});
    let mut s = TcpStream::connect(handle.local_addr()).unwrap();
    // len < 9 can never hold the kind + req-id header.
    s.write_all(&3u32.to_le_bytes()).unwrap();
    s.write_all(&[0u8; 3]).unwrap();
    let frames = read_frames(&mut s, 1);
    assert_eq!(frames[0].kind, status::ERR);
    handle.shutdown();
}

#[test]
fn connection_cap_rejects_with_busy_frame() {
    let (handle, _registry) = start_server(|c| c.max_connections = 1);
    let addr = handle.local_addr().to_string();
    let mut first = RgnpClient::connect(&addr).unwrap();
    first.set_timeout(Some(Duration::from_secs(10))).unwrap();
    first.ping().unwrap(); // ensure the first conn is registered
    let mut second = TcpStream::connect(handle.local_addr()).unwrap();
    let frames = read_frames(&mut second, 1);
    assert_eq!(frames[0].kind, status::BUSY);
    let mut rest = Vec::new();
    second
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    second.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "rejected conn must be closed");
    assert_eq!(
        handle
            .metrics()
            .connections_rejected
            .load(std::sync::atomic::Ordering::Relaxed),
        1
    );
    // The accepted connection still works.
    first.ping().unwrap();

    // Closing the admitted connection frees the slot again.
    drop(first);
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let mut c = RgnpClient::connect(&addr).unwrap();
        c.set_timeout(Some(Duration::from_secs(10))).unwrap();
        if c.ping().is_ok() {
            break;
        }
        assert!(Instant::now() < deadline, "slot must free after close");
        std::thread::sleep(Duration::from_millis(10));
    }
    handle.shutdown();
}

#[test]
fn corrupt_flagged_model_answers_degraded_inline() {
    let (handle, registry) = start_server(|_| {});
    registry
        .get("toy")
        .unwrap()
        .corrupt
        .store(true, std::sync::atomic::Ordering::Relaxed);
    let expect = registry
        .get("toy")
        .unwrap()
        .bundle
        .predict_binary(&[vec![3.0, 4.0]])
        .unwrap()[0];
    let mut c = connect(&handle);
    match c.predict("toy", &[3.0, 4.0]).unwrap() {
        PredictReply::Degraded(y) => assert_eq!(
            y.to_bits(),
            expect.to_bits(),
            "degraded reply must match predict_binary bit-for-bit"
        ),
        other => panic!("expected degraded, got {other:?}"),
    }
    let stats = handle.shutdown();
    assert!(stats[0].contains("degraded=1"), "{stats:?}");
}

#[test]
fn requested_binary_tier_answers_degraded_with_binary_value() {
    let (handle, registry) = start_server(|_| {});
    let mut c = RgnpClient::connect(&handle.local_addr().to_string()).unwrap();
    c.set_timeout(Some(Duration::from_secs(10))).unwrap();
    let row = vec![3.0f32, 4.0];
    let expected = registry
        .get("toy")
        .unwrap()
        .bundle
        .predict_binary(std::slice::from_ref(&row))
        .unwrap()[0];
    match c
        .predict_tier("toy", &row, frame::PredictionTier::Binary)
        .unwrap()
    {
        PredictReply::Degraded(y) => assert_eq!(y, expected),
        other => panic!("expected degraded (binary tier), got {other:?}"),
    }
    // The same row on the default tier still answers OK at full precision.
    match c.predict("toy", &row).unwrap() {
        PredictReply::Ok(y) => assert!(y.is_finite()),
        other => panic!("expected ok, got {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn running_server_threads_are_pollers_workers_accept_and_sweeper_only() {
    // Workers take rows straight from the admission queue: no relay thread
    // sits between pollers and workers. Thread names are read from
    // /proc (truncated to 15 bytes by the kernel); other tests' servers in
    // this process carry the same names.
    let (handle, _registry) = start_server(|c| c.sweep_interval = Some(Duration::from_secs(60)));
    let mut c = connect(&handle);
    ok_bits(&mut c, &[3.0, 4.0]);
    let names: Vec<String> = std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim_end().to_string())
        .filter(|name| name.starts_with("reghd-"))
        .collect();
    for prefix in [
        "reghd-worker-",
        "reghd-poller-",
        "reghd-rgnp-acc",
        "reghd-sweeper",
    ] {
        assert!(
            names.iter().any(|n| n.starts_with(prefix)),
            "no {prefix}* thread in {names:?}"
        );
    }
    let allowed = [
        "reghd-worker-",
        "reghd-poller-",
        "reghd-rgnp-acc",
        "reghd-sweeper",
    ];
    for name in &names {
        assert!(
            allowed.iter().any(|p| name.starts_with(p)),
            "unexpected server thread {name} in {names:?}"
        );
    }
    handle.shutdown();
}

/// Polls `STATS` until its `server` line contains `want`.
fn wait_for_server_stat(c: &mut RgnpClient, want: &str) -> String {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = c.stats().unwrap();
        let server = stats
            .lines()
            .find(|l| l.starts_with("server "))
            .unwrap_or_default()
            .to_string();
        if server.contains(want) {
            return server;
        }
        assert!(Instant::now() < deadline, "never saw {want}: {server}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn backlog_demotes_to_the_binary_tier_and_recovery_promotes() {
    // One worker stalled 100ms per batch and a 64-row frame: every take
    // of 8 rows leaves a backlog, so the real queue waits demote. While
    // demoted, non-probe requests are answered inline on the binary tier.
    // Once the backlog is gone, probes meet an empty queue and promote.
    let (handle, registry) = start_server(|c| {
        c.workers = 1;
        c.batcher = BatcherConfig {
            max_batch: 8,
            queue_cap: 1024,
        };
        c.shed = Some(reghd_serve::shed::ShedConfig {
            demote_p95: Duration::from_millis(20),
            promote_p95: Duration::from_millis(10),
            window: 8,
        });
    });
    let served = registry.get("toy").unwrap();
    let full = |row: &[f32]| served.bundle.predict(&[row.to_vec()]).unwrap()[0].to_bits();
    let binary = |row: &[f32]| served.bundle.predict_binary(&[row.to_vec()]).unwrap()[0].to_bits();
    handle
        .injector()
        .set_worker_delay(Duration::from_millis(100));
    let mut ctl = connect(&handle);

    let backlog_rows: Vec<Vec<f32>> = (0..64).map(|i| vec![i as f32, 1.0]).collect();
    let mut backlog = TcpStream::connect(handle.local_addr()).unwrap();
    let mut req = Vec::new();
    frame::encode_predict_batch(&mut req, 1, "toy", &backlog_rows);
    backlog.write_all(&req).unwrap();
    wait_for_server_stat(&mut ctl, "tier=degraded");

    // Pipelined singles while demoted: one in 16 is a full-tier probe
    // queued behind the backlog, the rest answer DEGRADED at once.
    let rows: Vec<Vec<f32>> = (0..32).map(|i| vec![0.5 * i as f32, 2.0]).collect();
    let mut burst = TcpStream::connect(handle.local_addr()).unwrap();
    let mut req = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        frame::encode_predict(&mut req, 100 + i as u64, "toy", row);
    }
    burst.write_all(&req).unwrap();
    let mut probes = 0;
    for f in read_frames(&mut burst, rows.len()) {
        let row = &rows[(f.req_id - 100) as usize];
        let bits = frame::decode_value_reply(&f.payload).unwrap().to_bits();
        match f.kind {
            status::DEGRADED => assert_eq!(bits, binary(row), "degraded reply for {row:?}"),
            status::OK => {
                assert_eq!(bits, full(row), "probe reply for {row:?}");
                probes += 1;
            }
            other => panic!("unexpected status {other} for {row:?}"),
        }
    }
    assert_eq!(probes, 2, "exactly one request in 16 probes the full tier");

    // The backlog itself was admitted before the demotion: all full tier.
    let reply = read_frames(&mut backlog, 1).remove(0);
    assert_eq!(reply.kind, status::OK);
    let answers = frame::decode_batch_reply(&reply.payload).unwrap();
    for (row, (st, y)) in backlog_rows.iter().zip(answers) {
        assert_eq!((st, y.to_bits()), (status::OK, full(row)));
    }

    // Backlog drained: probes now wait for nobody, and zeros promote.
    handle.injector().clear();
    for i in 0..1_000 {
        if !handle.shed().unwrap().is_degraded() {
            break;
        }
        ctl.predict("toy", &[i as f32, 3.0]).unwrap();
    }
    let server = wait_for_server_stat(&mut ctl, "tier=full");
    assert!(server.contains("demotions=1 promotions=1"), "{server}");
    assert_eq!(
        ctl.predict("toy", &[3.0, 4.0]).unwrap(),
        PredictReply::Ok(f32::from_bits(full(&[3.0, 4.0])))
    );
    handle.shutdown();
}
