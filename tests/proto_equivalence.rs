//! RGNP vs offline equivalence: for every quantisation mode
//! (ClusterMode × PredictionMode), a served prediction carries exactly the
//! f32 bits the bundle computes in-process — `predict_with` on the
//! full-precision tier, `predict_binary` on the binary tier (requested by
//! the client or taken as the degraded fallback).

#![cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]

use reghd_repro::prelude::*;
use reghd_repro::reghd::PredictScratch;
use reghd_repro::reghd_net::client::PredictReply;
use reghd_repro::reghd_net::frame::PredictionTier;
use reghd_repro::reghd_net::{serve_rgnp, NetConfig, RgnpClient};
use reghd_repro::reghd_serve::bundle::ModelBundle;
use reghd_repro::reghd_serve::registry::ModelRegistry;
use reghd_repro::{encoding::EncoderSpec, reghd::RegHdConfig};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

fn trained(cm: ClusterMode, pm: PredictionMode, seed: u64) -> ModelBundle {
    let rows: Vec<Vec<f32>> = (0..60)
        .map(|i| vec![i as f32 / 30.0, (i % 5) as f32])
        .collect();
    let ys: Vec<f32> = rows.iter().map(|r| 2.0 * r[0] - r[1]).collect();
    let spec = EncoderSpec::Nonlinear {
        input_dim: 2,
        dim: 128,
        seed: seed ^ 0xC11,
    };
    let cfg = RegHdConfig::builder()
        .dim(128)
        .models(2)
        .seed(seed)
        .max_epochs(4)
        .cluster_mode(cm)
        .prediction_mode(pm)
        .build();
    let mut model = RegHdRegressor::new(cfg, spec.build());
    model.fit(&rows, &ys);
    ModelBundle::from_trained(model, vec![0.0; 2], vec![1.0; 2], 0.0, 1.0, &rows).unwrap()
}

#[test]
fn rgnp_and_offline_predict_bit_identically_across_all_modes() {
    let cluster_modes = [
        ClusterMode::Integer,
        ClusterMode::FrameworkBinary,
        ClusterMode::NaiveBinary,
    ];
    let prediction_modes = [
        PredictionMode::Full,
        PredictionMode::BinaryQuery,
        PredictionMode::BinaryModel,
        PredictionMode::BinaryBoth,
    ];
    let registry = Arc::new(ModelRegistry::new());
    let mut bundles = Vec::new();
    let mut seed = 40u64;
    for cm in cluster_modes {
        for pm in prediction_modes {
            let name = format!("m-{cm:?}-{pm:?}").to_lowercase();
            let bundle = trained(cm, pm, seed);
            registry
                .load_bytes(&name, &bundle.to_bytes().unwrap())
                .unwrap();
            bundles.push((name, bundle));
            seed += 1;
        }
    }

    let handle = serve_rgnp(
        NetConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            pollers: 2,
            ..NetConfig::default()
        },
        registry.clone(),
    )
    .unwrap();
    let mut rgnp = RgnpClient::connect(&handle.local_addr().to_string()).unwrap();
    rgnp.set_timeout(Some(Duration::from_secs(10))).unwrap();

    let probe_rows: Vec<Vec<f32>> = vec![vec![0.25, 1.0], vec![1.5, 3.0], vec![-0.5, 4.0]];
    let mut scratch = PredictScratch::default();
    for (name, bundle) in &bundles {
        let full = bundle.predict_with(&probe_rows, &mut scratch).unwrap();
        let binary = bundle.predict_binary(&probe_rows).unwrap();
        for (i, row) in probe_rows.iter().enumerate() {
            match rgnp.predict(name, row).unwrap() {
                PredictReply::Ok(y) => assert_eq!(
                    y.to_bits(),
                    full[i].to_bits(),
                    "{name} row {row:?}: rgnp {y} vs offline {}",
                    full[i]
                ),
                other => panic!("{name}: expected ok, got {other:?}"),
            }
            match rgnp
                .predict_tier(name, row, PredictionTier::Binary)
                .unwrap()
            {
                PredictReply::Degraded(y) => assert_eq!(
                    y.to_bits(),
                    binary[i].to_bits(),
                    "{name} binary row {row:?}: rgnp {y} vs offline {}",
                    binary[i]
                ),
                other => panic!("{name}: expected degraded, got {other:?}"),
            }
        }
        // Degraded fallback: a corrupt-flagged model answers through the
        // same binary tier.
        let served = registry.get(name).unwrap();
        served.corrupt.store(true, Ordering::Relaxed);
        for (i, row) in probe_rows.iter().enumerate() {
            match rgnp.predict(name, row).unwrap() {
                PredictReply::Degraded(y) => assert_eq!(
                    y.to_bits(),
                    binary[i].to_bits(),
                    "{name} degraded row {row:?}: rgnp {y} vs offline {}",
                    binary[i]
                ),
                other => panic!("{name}: expected degraded, got {other:?}"),
            }
        }
        served.corrupt.store(false, Ordering::Relaxed);
    }
    handle.shutdown();
}
