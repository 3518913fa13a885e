//! Checkpoint-ingestion fault campaign: sweep byte flips and truncations
//! (via `apt_core::faults`) over on-disk `.aptc` files and prove the
//! ingestion path never panics and never publishes a damaged checkpoint
//! silently.
//!
//! The format carries a CRC over the payload, so **every** mutation must
//! be rejected with a typed error. A blob of any other version is refused
//! at the first rung, by version.

use apt_core::faults::{flip_byte, truncate_file};
use apt_nn::checkpoint;
use apt_nn::NnError;
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

/// [`net`] as a checkpoint.
fn blob() -> Vec<u8> {
    checkpoint::save_full(&mut net())
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("apt-ingest-faults-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Every single-byte flip of a checkpoint file is rejected typed by the
/// load path. The sweep goes through real files so the fault injectors
/// exercise the same read path ingestion uses.
#[test]
fn flip_sweep_never_panics_and_crc_versions_always_reject() {
    let dir = temp_dir("flip");
    let original = blob();
    let path = dir.join("v3.aptc");
    for offset in 0..original.len() {
        std::fs::write(&path, &original).unwrap();
        flip_byte(&path, offset, 0xA5).unwrap();
        let hurt = std::fs::read(&path).unwrap();
        // Structural verify and the full load must both stay typed.
        let mut target = net();
        assert!(
            checkpoint::load(&mut target, &hurt).is_err(),
            "flip at {offset} loaded silently"
        );
        assert!(
            checkpoint::verify(&hurt).is_err(),
            "flip at {offset} passed verify"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every truncation is rejected typed — a cut file can never parse as
/// complete.
#[test]
fn truncate_sweep_always_rejects_typed() {
    let dir = temp_dir("trunc");
    let original = blob();
    let path = dir.join("v3.aptc");
    for len in (0..original.len()).step_by(3) {
        std::fs::write(&path, &original).unwrap();
        truncate_file(&path, len).unwrap();
        let cut = std::fs::read(&path).unwrap();
        assert_eq!(cut.len(), len);
        let mut target = net();
        assert!(
            checkpoint::load(&mut target, &cut).is_err(),
            "truncation to {len} bytes loaded silently"
        );
        assert!(
            checkpoint::verify(&cut).is_err(),
            "truncation to {len} bytes passed verify"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// [`blob`] behind what a v1 or a v2 blob began with: `APTC`, then the
/// version. v1 had no length or CRC fields, v2 had the current frame.
fn older_version(version: u16) -> Vec<u8> {
    let current = blob();
    match version {
        1 => [&b"APTC\x01\x00"[..], &current[checkpoint::HEADER..]].concat(),
        _ => [&b"APTC\x02\x00"[..], &current[6..]].concat(),
    }
}

/// An older-version upload is refused at the ladder's first rung — the
/// structural walk's own typed error — and nothing is published.
#[test]
fn older_versions_are_refused_at_the_first_rung() {
    let registry = ModelRegistry::new(RegistryConfig::default());
    for version in [1u16, 2] {
        let old = older_version(version);
        let rung1 = checkpoint::verify(&old).unwrap_err();
        assert_eq!(rung1, NnError::UnsupportedVersion { version });
        match registry.ingest_blob("legacy", &spec(), &old) {
            Err(ServeError::Nn(e)) => assert_eq!(e, rung1),
            other => panic!("v{version}: {other:?}"),
        }
    }
    assert!(registry.models().is_empty());
}

/// The registry's file-ingestion path quarantines every corrupted upload
/// from a campaign of flipped, truncated and older-version files, while
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
    let good = blob();
    std::fs::write(dir.join("serving.aptc"), &good).unwrap();
    registry.rescan().unwrap();
    let baseline = registry.get("serving").unwrap();
    let sample: Vec<f32> = (0..DIMS[0]).map(|j| j as f32 * 0.21 - 0.6).collect();
    let expect = baseline.infer_one(&sample).unwrap();

    // The campaign: flipped and truncated uploads, and older versions.
    let mut campaign = 0usize;
    for k in 0..4usize {
        let path = dir.join(format!("bad-v3-flip{k}.aptc"));
        std::fs::write(&path, &good).unwrap();
        flip_byte(&path, (good.len() / 5) * (k + 1), 0x42).unwrap();
        campaign += 1;
    }
    for k in 0..2usize {
        let path = dir.join(format!("bad-v3-cut{k}.aptc"));
        std::fs::write(&path, &good).unwrap();
        truncate_file(&path, good.len() / (k + 2)).unwrap();
        campaign += 1;
    }
    for version in [1u16, 2] {
        std::fs::write(
            dir.join(format!("bad-v{version}.aptc")),
            older_version(version),
        )
        .unwrap();
        campaign += 1;
    }

    let report = registry.rescan().unwrap();
    // Everything is rejected, quarantined with a reason sidecar, and
    // nothing panics (reaching here proves that).
    let rejected = report.rejected.len();
    assert_eq!(rejected, campaign, "{report:?}");
    assert!(report.ingested.is_empty(), "{report:?}");
    // Each one was moved to quarantine with a sidecar.
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
