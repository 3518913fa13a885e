//! Drives the `apt` binary itself: what `apt train` writes is what an
//! in-process [`Trainer`] run of the same recipe holds, and what `apt
//! freeze` loads under the same `--model` string; the fleet flags, the
//! resume consent and every usage error behave as `TRAIN_USAGE` says.

use apt::core::{PolicyConfig, TrainConfig, Trainer};
use apt::data::{SynthCifar, SynthCifarConfig};
use apt::nn::{checkpoint, QuantScheme};
use apt::optim::LrSchedule;
use apt::serve::ModelSpec;
use std::path::PathBuf;
use std::process::{Command, Output};

/// Seconds-scale geometry shared by every run here.
const GEOMETRY: [&str; 6] = ["--classes", "4", "--img-size", "8", "--per-class", "8"];

fn apt(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_apt"))
        .args(args)
        .output()
        .expect("the apt binary runs")
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("apt-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `apt train --model cifarnet --epochs 4 --seed 9 <GEOMETRY> <extra> --out
/// dir/name`; returns the process output and the `.aptc` bytes (empty if
/// none was written).
fn train(dir: &std::path::Path, name: &str, extra: &[&str]) -> (Output, Vec<u8>) {
    let out = dir.join(name);
    let mut args = vec![
        "train", "--model", "cifarnet", "--epochs", "4", "--seed", "9",
    ];
    args.extend(GEOMETRY);
    args.extend(extra);
    args.extend(["--out", out.to_str().unwrap()]);
    let output = apt(&args);
    let blob = std::fs::read(out.with_extension("aptc")).unwrap_or_default();
    (output, blob)
}

fn trained(dir: &std::path::Path, name: &str, extra: &[&str]) -> Vec<u8> {
    let (output, blob) = train(dir, name, extra);
    assert!(output.status.success(), "{extra:?}: {output:?}");
    blob
}

#[test]
fn train_ships_what_an_in_process_trainer_holds() {
    let dir = scratch("recipe");
    let shipped = trained(&dir, "run", &[]);

    let data = SynthCifar::generate(&SynthCifarConfig {
        num_classes: 4,
        train_per_class: 8,
        test_per_class: 2,
        img_size: 8,
        seed: 9,
        ..SynthCifarConfig::default()
    })
    .unwrap();
    let spec = ModelSpec {
        arch: "cifarnet".parse().unwrap(),
        classes: 4,
        img_size: 8,
        width_mult: 0.25,
    };
    let init = &mut apt::tensor::rng::substream(9, 0x7121);
    let net = spec.build_with(&QuantScheme::paper_apt(), init).unwrap();
    let cfg = TrainConfig {
        epochs: 4,
        schedule: LrSchedule::paper_cifar10(4),
        policy: Some(PolicyConfig::new(6.0, f64::INFINITY).unwrap()),
        seed: 9,
        ..TrainConfig::default()
    };
    let mut trainer = Trainer::new(net, cfg).unwrap();
    trainer.train(&data.train, &data.test).unwrap();
    assert_eq!(shipped, checkpoint::save_full(trainer.network_mut()));

    // Six columns, and the schedule follows `--epochs`: ÷10 at 50 % and 75 %.
    let csv = std::fs::read_to_string(dir.join("run.csv")).unwrap();
    let mut rows = csv.lines();
    let header = "epoch,lr,train_loss,test_acc,energy_pj,mean_bits";
    assert_eq!(rows.next(), Some(header));
    let lrs: Vec<&str> = rows.map(|r| r.split(',').nth(1).unwrap()).collect();
    assert_eq!(lrs, ["0.1000", "0.1000", "0.0100", "0.0010"]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn one_model_string_from_train_to_freeze() {
    let dir = scratch("names");
    for model in ["cifarnet", "resnet20", "mobilenet_v2", "mlp:192-16-4"] {
        let out = dir.join("m");
        let out = out.to_str().unwrap();
        let mut args = vec!["train", "--model", model, "--epochs", "1", "--out", out];
        args.extend(GEOMETRY);
        let trained = apt(&args);
        assert!(trained.status.success(), "{model}: {trained:?}");
        let ckpt = format!("{out}.aptc");
        let mut args = vec!["freeze", ckpt.as_str(), "--model", model];
        args.extend(&GEOMETRY[..4]);
        let frozen = apt(&args);
        assert!(frozen.status.success(), "{model}: {frozen:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn seed_and_fleet_flags_reach_the_model() {
    let dir = scratch("fleet");
    let single = trained(&dir, "w1", &[]);
    assert_ne!(single, trained(&dir, "s10", &["--seed", "10"]));
    let fleet = ["--workers", "2", "--grad-bits", "4"];
    let first = trained(&dir, "w2a", &fleet);
    assert_eq!(first, trained(&dir, "w2b", &fleet));
    assert_ne!(first, single);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn batch_norm_fleet_finishes_in_lockstep() {
    // Each rank's batch norm sees only its shard; the exchange has to make
    // the running statistics equal, or the ranks evaluate differently and
    // the command reports the replicas out of lockstep (it did, on this
    // recipe, while smaller ones passed by luck of one test image).
    let dir = scratch("bn-fleet");
    let out = dir.join("run");
    #[rustfmt::skip]
    let output = apt(&[
        "train", "--model", "cifarnet", "--classes", "10", "--img-size", "12", "--scheme", "apt",
        "--t-min", "6", "--epochs", "3", "--per-class", "40", "--seed", "9", "--workers", "2",
        "--grad-bits", "4", "--out", out.to_str().unwrap(),
    ]);
    assert!(output.status.success(), "{output:?}");
    assert!(out.with_extension("aptc").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_is_consent_and_reproduces_the_uninterrupted_run() {
    let dir = scratch("resume");
    let reference = trained(&dir, "ref", &[]);
    let states = dir.join("states");
    let ck = [
        "--checkpoint-every",
        "1",
        "--checkpoint-dir",
        states.to_str().unwrap(),
    ];
    assert_eq!(trained(&dir, "first", &ck), reference);
    // Four steps were taken and the newest three states kept; losing the
    // last two leaves what a run killed after its second step leaves.
    for step in [3, 4] {
        std::fs::remove_file(states.join(format!("rank0/state-{step:012}.apts"))).unwrap();
    }
    let (refused, _) = train(&dir, "refused", &ck);
    assert_eq!(refused.status.code(), Some(2), "{refused:?}");
    let resumed = trained(&dir, "resumed", &[&ck[..], &["--resume"]].concat());
    assert_eq!(resumed, reference);
    // With consent, an empty directory is a fresh run.
    let fresh = ["--checkpoint-dir", dir.to_str().unwrap(), "--resume"];
    assert_eq!(trained(&dir, "fresh", &fresh), reference);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn freeze_refuses_the_removed_lane_flag() {
    // The flag is refused before its value is read: the old default fails
    // as loudly as the removed integer lane.
    let output = apt(&[
        "freeze",
        "m.aptc",
        "--model",
        "cifarnet",
        "--lane",
        "dequant-cache",
    ]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{stderr}");
    assert_eq!(
        stderr.lines().next(),
        Some("apt freeze: unknown flag `--lane`"),
        "{stderr}"
    );
}

#[test]
fn malformed_invocations_exit_2_with_one_line() {
    let dir = scratch("usage");
    for bad in [
        &["--bogus", "1"][..],
        &["--scheme", "int4"],
        &["--scheme", "fixed:99"],
        &["--grad-bits", "1"],
        &["--sentinel", "--workers", "2"],
        &["--resume"],
        &["--model", "mlp:100-8-4"],
        &["--model", "vgg"],
        &["--epochs"],
    ] {
        let (output, blob) = train(&dir, "bad", bad);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{bad:?}: {stderr}");
        let mut lines = stderr.lines();
        assert!(lines.next().unwrap().starts_with("apt train: "), "{stderr}");
        assert_eq!(lines.next(), Some(""), "{bad:?}: one line, then usage");
        assert!(!stderr.contains("panicked") && blob.is_empty(), "{stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_refuses_the_removed_delay_flag() {
    let output = apt(&["serve", "--max-delay-us", "500"]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{stderr}");
    let mut lines = stderr.lines();
    assert_eq!(
        lines.next(),
        Some("apt serve: unknown flag `--max-delay-us`"),
        "{stderr}"
    );
    assert_eq!(lines.next(), Some(""), "one line, then usage: {stderr}");
}

#[test]
fn train_and_serve_refuse_the_removed_threads_flag() {
    for cmd in ["train", "serve"] {
        let output = apt(&[cmd, "--threads", "1"]);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{stderr}");
        assert_eq!(
            stderr.lines().next(),
            Some(format!("apt {cmd}: unknown flag `--threads`").as_str()),
            "{stderr}"
        );
    }
}
