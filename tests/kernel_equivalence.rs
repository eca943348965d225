//! Cross-crate bit-exactness of the blocked encode→predict kernels.
//!
//! The contract (see `hdc::kernels` and DESIGN.md): the cache-blocked batch
//! kernels reorder *loops*, never *arithmetic* — every output component is
//! accumulated over `k` in the same ascending order, from the same `0.0`
//! start, as the scalar `encode()` loop. So the blocked path must be
//! **bit-identical** to the scalar one for every encoder, any dimension
//! (including non-multiples of the tile sizes), any batch size, and any
//! thread count — and the zero-allocation `predict_batch_with` must be
//! bit-identical to `predict_batch` for every `ClusterMode` ×
//! `PredictionMode` combination. `TrigMode::Fast` is the one knob allowed
//! to move results, and only within its documented error bound.

use hdc::kernels::FAST_TRIG_MAX_ABS_ERROR;
use hdc::TrigMode;
use reghd::PredictScratch;
use reghd_repro::prelude::*;

/// Deterministic synthetic rows (no RNG dependency needed).
fn rows(n: usize, f: usize) -> Vec<Vec<f32>> {
    (0..n)
        .map(|i| {
            (0..f)
                .map(|j| ((i * 7 + j * 13) % 19) as f32 / 9.5 - 1.0)
                .collect()
        })
        .collect()
}

fn hv_bits(hv: &RealHv) -> Vec<u32> {
    hv.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|p| p.to_bits()).collect()
}

/// Every encoder's blocked batch path must reproduce its scalar `encode`
/// bit for bit — across dims that don't divide the tile sizes, batch
/// sizes around the row-tile width, and thread counts.
#[test]
fn blocked_batch_encoding_is_bit_identical_to_scalar_for_every_encoder() {
    for &dim in &[64usize, 127, 128, 129, 257] {
        let encoders: Vec<(&str, Box<dyn Encoder>)> = vec![
            ("nonlinear", Box::new(NonlinearEncoder::new(5, dim, 7))),
            ("rff", Box::new(RffEncoder::new(5, dim, 1.0, 7))),
            ("projection", Box::new(ProjectionEncoder::new(5, dim, 7))),
        ];
        for (name, enc) in &encoders {
            for &n in &[1usize, 3, 4, 5, 11] {
                let xs = rows(n, 5);
                let want: Vec<Vec<u32>> = xs.iter().map(|x| hv_bits(&enc.encode(x))).collect();
                let mut out = vec![RealHv::default(); n];
                for threads in [1usize, 2, 3] {
                    enc.encode_batch_into(&xs, &mut out, threads);
                    let got: Vec<Vec<u32>> = out.iter().map(hv_bits).collect();
                    assert_eq!(got, want, "{name} dim={dim} n={n} threads={threads}");
                }
            }
        }
    }
}

/// Fast trig is opt-in and bounded: each encoded component stays within a
/// small multiple of `FAST_TRIG_MAX_ABS_ERROR` of the exact value (the
/// nonlinear encoder multiplies two approximated factors, hence the
/// slack), and switching back restores bit-exactness.
#[test]
fn fast_trig_stays_within_documented_bound_and_is_reversible() {
    let xs = rows(9, 5);
    let encoders: Vec<(&str, Box<dyn Encoder>, f32)> = vec![
        (
            "nonlinear",
            Box::new(NonlinearEncoder::new(5, 257, 3)),
            2.5 * FAST_TRIG_MAX_ABS_ERROR,
        ),
        (
            "rff",
            Box::new(RffEncoder::new(5, 257, 1.0, 3)),
            FAST_TRIG_MAX_ABS_ERROR,
        ),
    ];
    for (name, enc, tol) in &encoders {
        let exact: Vec<RealHv> = xs.iter().map(|x| enc.encode(x)).collect();
        enc.set_trig_mode(TrigMode::Fast);
        assert_eq!(enc.trig_mode(), TrigMode::Fast);
        let mut fast = vec![RealHv::default(); xs.len()];
        enc.encode_batch_into(&xs, &mut fast, 1);
        for (i, (e, f)) in exact.iter().zip(&fast).enumerate() {
            for (a, b) in e.as_slice().iter().zip(f.as_slice()) {
                assert!(
                    (a - b).abs() <= *tol,
                    "{name} row {i}: exact={a} fast={b} tol={tol}"
                );
            }
        }
        // The scalar path honours the same knob as the batch path.
        for (x, f) in xs.iter().zip(&fast) {
            assert_eq!(hv_bits(&enc.encode(x)), hv_bits(f), "{name} scalar/batch");
        }
        enc.set_trig_mode(TrigMode::Exact);
        let mut back = vec![RealHv::default(); xs.len()];
        enc.encode_batch_into(&xs, &mut back, 1);
        for (e, b) in exact.iter().zip(&back) {
            assert_eq!(hv_bits(e), hv_bits(b), "{name} must restore exact bits");
        }
    }
}

/// The fused `encode_both` must agree bit-for-bit with a separate
/// encode-then-binarize pass.
#[test]
fn fused_encode_both_matches_encode_then_binarize() {
    let xs = rows(7, 4);
    let encoders: Vec<(&str, Box<dyn Encoder>)> = vec![
        ("nonlinear", Box::new(NonlinearEncoder::new(4, 193, 9))),
        ("rff", Box::new(RffEncoder::new(4, 193, 0.7, 9))),
        ("projection", Box::new(ProjectionEncoder::new(4, 193, 9))),
    ];
    for (name, enc) in &encoders {
        for x in &xs {
            let (real, binary) = enc.encode_both(x);
            let want = enc.encode(x);
            assert_eq!(hv_bits(&real), hv_bits(&want), "{name} real part");
            assert_eq!(binary, want.binarize(), "{name} binary part");
        }
    }
}

/// The zero-allocation scratch API must be bit-identical to the plain
/// `predict_batch` for every quantisation combination, with the scratch
/// reused across calls and thread counts.
#[test]
fn predict_batch_with_scratch_is_bit_identical_in_every_mode() {
    let xs = rows(40, 4);
    let ys: Vec<f32> = xs.iter().map(|x| x[0] + 2.0 * x[1] - 0.5 * x[3]).collect();
    let mut scratch = PredictScratch::default();
    for cluster in [
        ClusterMode::Integer,
        ClusterMode::FrameworkBinary,
        ClusterMode::NaiveBinary,
    ] {
        for pred in [
            PredictionMode::Full,
            PredictionMode::BinaryQuery,
            PredictionMode::BinaryModel,
            PredictionMode::BinaryBoth,
        ] {
            let cfg = RegHdConfig::builder()
                .dim(256)
                .models(2)
                .max_epochs(3)
                .min_epochs(1)
                .seed(5)
                .cluster_mode(cluster)
                .prediction_mode(pred)
                .build();
            let mut m = RegHdRegressor::new(cfg, Box::new(NonlinearEncoder::new(4, 256, 5)));
            m.fit(&xs, &ys);
            let want = m.predict_batch(&xs);
            for threads in [1usize, 2, 4] {
                m.set_threads(threads);
                assert_eq!(
                    bits(&m.predict_batch_with(&xs, &mut scratch)),
                    bits(&want),
                    "{cluster:?}/{pred:?} threads={threads}"
                );
            }
            m.set_threads(1);
            // Degraded replies are answered by the bit-packed binary tier.
            let deg = m.predict_batch_binary(&xs);
            assert_eq!(deg.len(), xs.len());
            assert!(deg.iter().all(|p| p.is_finite()));
        }
    }
}

/// End-to-end: fast trig moves a trained model's predictions only within
/// a small relative envelope of the exact-mode answers.
#[test]
fn fast_trig_predictions_stay_close_end_to_end() {
    let xs = rows(50, 4);
    let ys: Vec<f32> = xs.iter().map(|x| x[0] - x[2]).collect();
    let cfg = RegHdConfig::builder()
        .dim(512)
        .models(2)
        .max_epochs(4)
        .min_epochs(1)
        .seed(13)
        .build();
    let mut m = RegHdRegressor::new(cfg, Box::new(NonlinearEncoder::new(4, 512, 13)));
    m.fit(&xs, &ys);
    let exact = m.predict_batch(&xs);
    m.set_trig_mode(TrigMode::Fast);
    assert_eq!(m.trig_mode(), TrigMode::Fast);
    let fast = m.predict_batch(&xs);
    for (e, f) in exact.iter().zip(&fast) {
        assert!(f.is_finite());
        assert!(
            (e - f).abs() <= 0.02 * (1.0 + e.abs()),
            "exact={e} fast={f}"
        );
    }
    m.set_trig_mode(TrigMode::Exact);
    assert_eq!(bits(&m.predict_batch(&xs)), bits(&exact));
}

/// FNV-1a (64-bit) over a byte stream — a dependency-free fingerprint for
/// the golden hashes below.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Deterministic rows with a smooth nonlinear target, from a fixed
/// xorshift stream (independent of every RNG in the workspace).
fn golden_dataset(n: usize, features: usize) -> Dataset {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 40) as f32 / (1u64 << 24) as f32 * 2.0 - 1.0
    };
    let xs: Vec<Vec<f32>> = (0..n)
        .map(|_| (0..features).map(|_| next()).collect())
        .collect();
    let ys = xs
        .iter()
        .map(|x| x[0] * 2.0 - x[1] + (3.0 * x[features - 1]).sin() + 0.5 * x[0] * x[1])
        .collect();
    Dataset::new("golden", xs, ys)
}

/// Golden bit-identity: the trained bundle bytes and the first 100
/// prediction bit patterns (full tier, then binary tier) of
/// `bundle::train` at three shapes, pinned as FNV-1a hashes. Any change to
/// the f64 dot/norm lane order, the cosine search, the binarisation
/// threshold or the skipped binary view that moves a single bit fails
/// here, under every `REGHD_SIMD` level.
#[test]
fn trained_bundles_and_predictions_match_golden_hashes() {
    // (dim, models, features, quantized) → (bundle, full preds, binary preds)
    let cases = [
        (
            (8192, 8, 18, false),
            (0x1a18a26aa39aa737, 0x5bffea7bf8d1a9ca, 0x81db6e95da2777e5),
        ),
        (
            (256, 4, 4, false),
            (0x6addf287f4c69394, 0x59af07929ec8bf66, 0x3613faea2053a862),
        ),
        (
            (259, 3, 5, false),
            (0xa06e4e09c99cd0af, 0xff9701d267bc4a7b, 0x980e3bd51dd7dd26),
        ),
        (
            (256, 4, 4, true),
            (0xd3dae486c620a566, 0x206c8ea8ba8db6ec, 0x178e3a2530de8cea),
        ),
        (
            (259, 3, 5, true),
            (0x3ae57471f783669f, 0x70fb8a3a729d1fb6, 0x01a771810caed4ab),
        ),
    ];
    let mut failures = Vec::new();
    for ((dim, models, features, quantized), want) in cases {
        let ds = golden_dataset(160, features);
        let (bundle, _) =
            reghd_serve::bundle::train(&ds, dim, models, 4, 11, quantized).expect("train");
        let bytes = bundle.to_bytes().expect("serialise");
        let rows = &ds.features[..100];
        let full = bundle.predict(rows).expect("predict");
        let binary = bundle.predict_binary(rows).expect("predict binary");
        let pred_hash = |p: &[f32]| fnv1a(p.iter().flat_map(|v| v.to_bits().to_le_bytes()));
        let got = (fnv1a(bytes), pred_hash(&full), pred_hash(&binary));
        if got != want {
            failures.push(format!(
                "(D={dim}, k={models}, f={features}, quantized={quantized}): \
                 got ({:#018x}, {:#018x}, {:#018x}), want ({:#018x}, {:#018x}, {:#018x})",
                got.0, got.1, got.2, want.0, want.1, want.2
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "golden hashes moved:\n{}",
        failures.join("\n")
    );
}
