//! Checkpoint-ingestion fault campaign: sweep byte flips and truncations
//! (via `apt_core::faults`) over on-disk `.aptc` files of every format
//! version and prove the ingestion path never panics and never publishes
//! a damaged checkpoint silently.
//!
//! v2/v3 carry a CRC over the payload, so **every** mutation must be
//! rejected with a typed error. v1 predates the CRC — the contract there
//! is weaker but still crash-safe: loads may succeed or fail, but never
//! panic, and structural validation still catches truncations.
//!
//! Nothing writes v1/v2 any more: those two come from `apt-nn`'s frozen
//! fixtures (this file's [`net`], saved by the last commit that could), v3
//! from `save_full`.

use apt_core::faults::{flip_byte, truncate_file};
use apt_nn::checkpoint;
use apt_serve::{ModelArch, ModelRegistry, ModelSpec, RegistryConfig, ServeError};
use std::path::PathBuf;

const DIMS: [usize; 3] = [6, 10, 4];

fn spec() -> ModelSpec {
    ModelSpec {
        arch: ModelArch::Mlp(DIMS.to_vec()),
        classes: DIMS[2],
        img_size: 0,
        width_mult: 1.0,
    }
}

fn net() -> apt_nn::Network {
    apt_nn::models::mlp(
        "mlp",
        &DIMS,
        &apt_nn::QuantScheme::paper_apt(),
        &mut apt_tensor::rng::seeded(42),
    )
    .unwrap()
}

/// [`net`] as a checkpoint of format `version`.
fn blob(version: u16) -> Vec<u8> {
    match version {
        1 => include_bytes!("../../nn/tests/fixtures/mlp_apt.v1.aptc").to_vec(),
        2 => include_bytes!("../../nn/tests/fixtures/mlp_apt.v2.aptc").to_vec(),
        _ => checkpoint::save_full(&mut net()),
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("apt-ingest-faults-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Every single-byte flip of a v2/v3 file is rejected typed by the load
/// path; v1 flips never panic. The sweep goes through real files so the
/// fault injectors exercise the same read path ingestion uses.
#[test]
fn flip_sweep_never_panics_and_crc_versions_always_reject() {
    let dir = temp_dir("flip");
    for version in [1u16, 2, 3] {
        let original = blob(version);
        let path = dir.join(format!("v{version}.aptc"));
        for offset in 0..original.len() {
            std::fs::write(&path, &original).unwrap();
            flip_byte(&path, offset, 0xA5).unwrap();
            let hurt = std::fs::read(&path).unwrap();
            // Structural verify and the full load must both stay typed.
            let verify = checkpoint::verify(&hurt);
            let mut target = net();
            let load = checkpoint::load(&mut target, &hurt);
            if version >= 2 {
                assert!(
                    load.is_err(),
                    "v{version}: flip at {offset} loaded silently"
                );
                assert!(
                    verify.is_err(),
                    "v{version}: flip at {offset} passed verify"
                );
            }
            // (v1: reaching here without a panic is the contract.)
            drop(load);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every truncation of any version is rejected typed — a cut file can
/// never parse as complete, for v1 too (the section walk runs out of
/// bytes before every parameter is filled).
#[test]
fn truncate_sweep_always_rejects_typed() {
    let dir = temp_dir("trunc");
    for version in [1u16, 2, 3] {
        let original = blob(version);
        let path = dir.join(format!("v{version}.aptc"));
        for len in (0..original.len()).step_by(3) {
            std::fs::write(&path, &original).unwrap();
            truncate_file(&path, len).unwrap();
            let cut = std::fs::read(&path).unwrap();
            assert_eq!(cut.len(), len);
            let mut target = net();
            assert!(
                checkpoint::load(&mut target, &cut).is_err(),
                "v{version}: truncation to {len} bytes loaded silently"
            );
            assert!(
                checkpoint::verify(&cut).is_err(),
                "v{version}: truncation to {len} bytes passed verify"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The registry's file-ingestion path quarantines every corrupted upload
/// from a campaign of flipped and truncated files across versions, while
/// the previously published model keeps serving bit-exactly.
#[test]
fn corrupt_upload_campaign_quarantines_everything() {
    let dir = temp_dir("campaign");
    let qdir = dir.join("bad");
    let s = spec();
    let registry = ModelRegistry::new(RegistryConfig {
        model_dir: Some(dir.clone()),
        quarantine_dir: Some(qdir.clone()),
        spec: Some(s.clone()),
        ..RegistryConfig::default()
    });

    // A good model first — corruption must never disturb it.
    let good = blob(3);
    std::fs::write(dir.join("serving.aptc"), &good).unwrap();
    registry.rescan().unwrap();
    let baseline = registry.get("serving").unwrap();
    let sample: Vec<f32> = (0..DIMS[0]).map(|j| j as f32 * 0.21 - 0.6).collect();
    let expect = baseline.infer_one(&sample).unwrap();

    // The campaign: flipped and truncated uploads across all versions.
    let mut campaign = 0usize;
    for (i, version) in [1u16, 2, 3].iter().enumerate() {
        let original = blob(*version);
        for k in 0..4usize {
            let path = dir.join(format!("bad-v{version}-flip{k}.aptc"));
            std::fs::write(&path, &original).unwrap();
            let offset = (original.len() / 5) * (k + 1) + i;
            flip_byte(&path, offset, 0x42).unwrap();
            campaign += 1;
        }
        for k in 0..2usize {
            let path = dir.join(format!("bad-v{version}-cut{k}.aptc"));
            std::fs::write(&path, &original).unwrap();
            truncate_file(&path, original.len() / (k + 2)).unwrap();
            campaign += 1;
        }
    }

    let report = registry.rescan().unwrap();
    // v1 flips may load (no CRC) — but only if the result still walks the
    // full structural ladder; anything rejected must be quarantined with
    // a reason sidecar, and nothing may panic (reaching here proves that).
    let rejected = report.rejected.len();
    let v1_flips_accepted = report
        .ingested
        .iter()
        .filter(|id| id.starts_with("bad-v1-flip"))
        .count();
    assert_eq!(
        rejected + v1_flips_accepted,
        campaign,
        "every campaign file must be typed-rejected or (v1 flips only) cleanly loaded: {report:?}"
    );
    // Every v2/v3 upload and every truncation was rejected and moved to
    // quarantine with a sidecar.
    for (file, reason) in &report.rejected {
        assert!(
            file.starts_with("bad-"),
            "quarantined the wrong file: {file}"
        );
        assert!(!reason.is_empty());
        assert!(qdir.join(file).exists(), "{file} not quarantined");
        assert!(
            qdir.join(format!("{file}.reason")).exists(),
            "{file} has no reason sidecar"
        );
        assert!(!dir.join(file).exists(), "{file} left in the model dir");
    }
    assert_eq!(registry.stats().quarantines, rejected as u64);

    // The serving model is untouched bit-for-bit.
    let after = registry.get("serving").unwrap();
    assert_eq!(
        after.infer_one(&sample).unwrap(),
        expect,
        "corrupt uploads disturbed the serving plan"
    );

    // Unknown models stay typed even mid-campaign.
    assert!(matches!(
        registry.get("bad-v3-flip0"),
        Err(ServeError::ModelUnavailable { .. })
    ));
    let _ = std::fs::remove_dir_all(&dir);
}
