//! `apt` — the command-line front door to the APT runtime.
//!
//! ```text
//! apt serve --checkpoint results/run.aptc --model cifarnet --classes 10 \
//!     --img-size 12 --width-mult 0.25 --addr 127.0.0.1:7878
//! ```
//!
//! The CLI has three subcommands. `serve` loads one trained `.aptc`
//! checkpoint (`--checkpoint`) or a whole directory of them
//! (`--model-dir`, one model per file) into an
//! [`apt_serve::ModelRegistry`] and exposes the fleet over the
//! length-prefixed TCP protocol; every ingested model is compiled into
//! a frozen plan (BN folded, activations fused, arena-planned) for the
//! requested `--lane`.
//! `freeze` compiles a checkpoint without serving it and prints the plan
//! report (step counts, fusions, arena size, achieved lane). `train`
//! trains on the synthetic-CIFAR workload, data-parallel across
//! `--workers N` in-process ranks exchanging `--grad-bits k` quantised
//! gradients (one worker takes the exact single-process path); the
//! figure/table experiment harness stays with the bench binaries
//! (`cargo run -p apt-bench --bin train`).
//!
//! Every malformed invocation exits with a one-line message and usage
//! text (exit code 2); runtime failures exit 1. Nothing in this binary
//! panics on bad user input. `SIGINT`/`SIGTERM` trigger a graceful
//! shutdown: stop accepting, drain in-flight work, print a final stats
//! snapshot.

use apt_serve::{
    BatchPolicy, ConnLimits, KernelLane, ModelArch, ModelRegistry, ModelSpec, RegistryConfig,
    Server, ServerConfig,
};
use std::fmt;
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Typed CLI failure: either a usage mistake (bad flag, missing value,
/// unparseable number — exit 2 with usage text) or a runtime failure
/// (unreadable checkpoint, bind error — exit 1).
#[derive(Debug)]
enum CliError {
    /// The invocation itself is malformed.
    Usage(String),
    /// The invocation was well-formed but execution failed.
    Runtime(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) | CliError::Runtime(m) => write!(f, "{m}"),
        }
    }
}

const USAGE: &str = "usage: apt serve (--checkpoint PATH | --model-dir DIR) --model MODEL [options]

required:
  --checkpoint PATH     one trained .aptc checkpoint (v1/v2/v3), or
  --model-dir DIR       directory of .aptc checkpoints (model id = file
                        stem); bad files are quarantined, OP_RELOAD rescans
  --model MODEL         cifarnet | vgg_small | resnet20 | resnet110 |
                        mobilenet_v2 | mlp:IN-HIDDEN-...-OUT

fleet:
  --default-model ID    model answering plain INFER requests
                        [default: checkpoint file stem / first ingested]
  --resident-budget-mb N  resident-bytes budget across models; coldest
                        models are evicted past it        [default 0 = off]
  --quarantine-dir DIR  where rejected checkpoints move   [default DIR/quarantine]

model geometry (must match how the checkpoint was trained):
  --classes N           classifier outputs            [default 10]
  --img-size N          input image side length       [default 12]
  --width-mult F        channel width multiplier      [default 0.25]

serving:
  --addr HOST:PORT      bind address                  [default 127.0.0.1:7878]
  --lane LANE           kernel lane the plan is compiled for: fp32 |
                        dequant-cache | int-gemm (int-gemm serves linear
                        layers straight from packed integer codes;
                        bit-close, not bit-exact)     [default dequant-cache]
  --max-batch N         micro-batch coalescing cap    [default 8]
  --max-delay-us N      longest an under-filled batch is held open for
                        company; 0 never waits        [default 500]
  --queue-depth N       admission queue bound         [default 128]
  --threads N           compute pool size             [default all cores]
  --stats-every SECS    print serving stats period    [default 10, 0 = off]

overload protection:
  --max-conns N         concurrent connection cap     [default 1024]
  --idle-timeout-ms N   reap silent connections after [default 60000, 0 = off]
  --read-timeout-ms N   reap mid-frame stalls after   [default 10000, 0 = off]
  --request-timeout-ms N  shed queued requests after  [default 5000, 0 = off]
  --max-pipeline N      per-connection in-flight cap  [default 32]";

const FREEZE_USAGE: &str = "usage: apt freeze CHECKPOINT --model MODEL [options]

Compiles a trained .aptc checkpoint into a frozen inference plan without
serving it, and prints the compile report: steps lowered vs kept,
BN folds, activation fusions, packed weight panels, arena size, and the
achieved kernel lane.

required:
  CHECKPOINT            a trained .aptc checkpoint (v1/v2/v3)
  --model MODEL         cifarnet | vgg_small | resnet20 | resnet110 |
                        mobilenet_v2 | mlp:IN-HIDDEN-...-OUT

model geometry (must match how the checkpoint was trained):
  --classes N           classifier outputs            [default 10]
  --img-size N          input image side length       [default 12]
  --width-mult F        channel width multiplier      [default 0.25]

compilation:
  --lane LANE           fp32 | dequant-cache | int-gemm [default dequant-cache]";

const TRAIN_USAGE: &str = "usage: apt train --model MODEL [options]

Trains a model data-parallel across N in-process worker ranks that
exchange k-bit quantised gradients through a deterministic flat-tree
all-reduce (exact integer-domain accumulation). One worker takes the
exact single-process training path; N workers train on disjoint shards
and are bit-reproducible run-to-run. With --checkpoint-dir, every rank
writes APTS checkpoints on a lockstep cadence and a crashed fleet
resumes from them automatically on the next invocation.

required:
  --model MODEL         cifarnet | vgg_small | resnet20 | resnet110 |
                        mobilenet_v2 | mlp:IN-HIDDEN-...-OUT
                        (an MLP input must equal 3 x img-size^2)

fleet:
  --workers N           worker ranks (data-parallel replicas) [default 1]
  --grad-bits K         gradient exchange bitwidth, 2..=16    [default 4]
  --recovery-rounds N   fleet rollback budget after a crash   [default 3]
  --checkpoint-dir DIR  per-rank checkpoint root (rank0/, rank1/, ...)

training:
  --epochs N            [default 10]
  --batch-size N        [default 8]
  --seed N              shuffle/augmentation seed             [default 42]
  --threads N           inner-op compute pool size            [default 1]

data (synthetic CIFAR, sharded disjointly across ranks):
  --classes N           [default 10]
  --img-size N          [default 12]
  --per-class N         training samples per class            [default 32]
  --data-seed N         generator seed                        [default 3]";

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let code = match argv.get(1).map(String::as_str) {
        Some("serve") => match run_serve(&argv[2..]) {
            Ok(()) => 0,
            Err(CliError::Usage(m)) => {
                eprintln!("apt serve: {m}\n\n{USAGE}");
                2
            }
            Err(CliError::Runtime(m)) => {
                eprintln!("apt serve: {m}");
                1
            }
        },
        Some("freeze") => match run_freeze(&argv[2..]) {
            Ok(()) => 0,
            Err(CliError::Usage(m)) => {
                eprintln!("apt freeze: {m}\n\n{FREEZE_USAGE}");
                2
            }
            Err(CliError::Runtime(m)) => {
                eprintln!("apt freeze: {m}");
                1
            }
        },
        Some("train") => match run_train(&argv[2..]) {
            Ok(()) => 0,
            Err(CliError::Usage(m)) => {
                eprintln!("apt train: {m}\n\n{TRAIN_USAGE}");
                2
            }
            Err(CliError::Runtime(m)) => {
                eprintln!("apt train: {m}");
                1
            }
        },
        Some("--help") | Some("-h") | None => {
            eprintln!("{USAGE}\n\n{TRAIN_USAGE}\n\n{FREEZE_USAGE}");
            if argv.len() < 2 {
                2
            } else {
                0
            }
        }
        Some(other) => {
            eprintln!(
                "apt: unknown subcommand `{other}` (have: serve, train, freeze)\n\n{USAGE}\n\n{TRAIN_USAGE}\n\n{FREEZE_USAGE}"
            );
            2
        }
    };
    std::process::exit(code);
}

/// Parses one flag value with a typed error naming the flag.
fn parse_flag<T: FromStr>(flag: &str, value: &str) -> Result<T, CliError>
where
    T::Err: fmt::Display,
{
    value
        .parse::<T>()
        .map_err(|e| CliError::Usage(format!("bad value `{value}` for {flag}: {e}")))
}

/// Everything `apt serve` needs, parsed and validated.
struct ServeArgs {
    checkpoint: Option<String>,
    model_dir: Option<String>,
    quarantine_dir: Option<String>,
    default_model: Option<String>,
    budget_mb: u64,
    model: ModelArch,
    classes: usize,
    img_size: usize,
    width_mult: f32,
    addr: String,
    lane: KernelLane,
    policy: BatchPolicy,
    limits: ConnLimits,
    threads: Option<usize>,
    stats_every: u64,
}

fn parse_serve_args(args: &[String]) -> Result<ServeArgs, CliError> {
    let mut model: Option<ModelArch> = None;
    let mut out = ServeArgs {
        checkpoint: None,
        model_dir: None,
        quarantine_dir: None,
        default_model: None,
        budget_mb: 0,
        model: ModelArch::Cifarnet,
        classes: 10,
        img_size: 12,
        width_mult: 0.25,
        addr: "127.0.0.1:7878".to_string(),
        lane: KernelLane::default(),
        policy: BatchPolicy::default(),
        limits: ConnLimits::default(),
        threads: None,
        stats_every: 10,
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--help" || flag == "-h" {
            eprintln!("{USAGE}");
            std::process::exit(0);
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| CliError::Usage(format!("missing value for {flag}")))?;
        match flag {
            "--checkpoint" => out.checkpoint = Some(value.clone()),
            "--model-dir" => out.model_dir = Some(value.clone()),
            "--quarantine-dir" => out.quarantine_dir = Some(value.clone()),
            "--default-model" => out.default_model = Some(value.clone()),
            "--resident-budget-mb" => out.budget_mb = parse_flag(flag, value)?,
            "--model" => {
                model = Some(
                    value
                        .parse::<ModelArch>()
                        .map_err(|e| CliError::Usage(e.to_string()))?,
                )
            }
            "--classes" => out.classes = parse_flag(flag, value)?,
            "--img-size" => out.img_size = parse_flag(flag, value)?,
            "--width-mult" => out.width_mult = parse_flag(flag, value)?,
            "--addr" => out.addr = value.clone(),
            "--lane" => {
                out.lane = KernelLane::parse(value).ok_or_else(|| {
                    CliError::Usage(format!(
                        "bad value `{value}` for --lane (want fp32 | dequant-cache | int-gemm)"
                    ))
                })?
            }
            "--max-batch" => out.policy.max_batch = parse_flag(flag, value)?,
            "--max-delay-us" => {
                out.policy.max_delay = Duration::from_micros(parse_flag(flag, value)?)
            }
            "--queue-depth" => out.policy.queue_depth = parse_flag(flag, value)?,
            "--max-conns" => out.limits.max_connections = parse_flag(flag, value)?,
            "--idle-timeout-ms" => {
                out.limits.idle_timeout = Duration::from_millis(parse_flag(flag, value)?)
            }
            "--read-timeout-ms" => {
                out.limits.read_timeout = Duration::from_millis(parse_flag(flag, value)?)
            }
            "--request-timeout-ms" => {
                out.limits.request_timeout = Duration::from_millis(parse_flag(flag, value)?)
            }
            "--max-pipeline" => out.limits.max_pipeline = parse_flag(flag, value)?,
            "--threads" => {
                let n: usize = parse_flag(flag, value)?;
                if n == 0 {
                    return Err(CliError::Usage("--threads needs a value ≥ 1".into()));
                }
                out.threads = Some(n);
            }
            "--stats-every" => out.stats_every = parse_flag(flag, value)?,
            other => return Err(CliError::Usage(format!("unknown flag `{other}`"))),
        }
        i += 2;
    }
    match (&out.checkpoint, &out.model_dir) {
        (None, None) => {
            return Err(CliError::Usage(
                "one of --checkpoint or --model-dir is required".into(),
            ))
        }
        (Some(_), Some(_)) => {
            return Err(CliError::Usage(
                "--checkpoint and --model-dir are mutually exclusive".into(),
            ))
        }
        _ => {}
    }
    out.model = model.ok_or_else(|| CliError::Usage("--model is required".into()))?;
    out.policy
        .validate()
        .map_err(|e| CliError::Usage(e.to_string()))?;
    out.limits
        .validate()
        .map_err(|e| CliError::Usage(e.to_string()))?;
    Ok(out)
}

fn run_serve(args: &[String]) -> Result<(), CliError> {
    let a = parse_serve_args(args)?;
    if let Some(n) = a.threads {
        apt_tensor::par::set_global_threads(n);
    }

    let spec = ModelSpec {
        arch: a.model.clone(),
        classes: a.classes,
        img_size: a.img_size,
        width_mult: a.width_mult,
    };
    let registry = Arc::new(ModelRegistry::new(RegistryConfig {
        budget_bytes: a.budget_mb * 1024 * 1024,
        model_dir: a.model_dir.clone().map(PathBuf::from),
        quarantine_dir: a.quarantine_dir.clone().map(PathBuf::from),
        spec: Some(spec.clone()),
        lane: a.lane,
    }));

    // Populate the fleet: one validated checkpoint, or a directory scan
    // that quarantines what fails the ingestion ladder.
    let default_model = if let Some(ckpt) = &a.checkpoint {
        let id = a.default_model.clone().unwrap_or_else(|| {
            std::path::Path::new(ckpt)
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("default")
                .to_string()
        });
        registry
            .ingest_file(&id, std::path::Path::new(ckpt))
            .map_err(|e| {
                CliError::Runtime(format!(
                    "cannot load `{ckpt}` as {:?} (classes {}, img {}, width {}): {e}",
                    a.model, a.classes, a.img_size, a.width_mult
                ))
            })?;
        id
    } else {
        let report = registry
            .rescan()
            .map_err(|e| CliError::Runtime(format!("cannot scan model directory: {e}")))?;
        for (file, reason) in &report.rejected {
            eprintln!("apt serve: quarantined `{file}`: {reason}");
        }
        for id in &report.ingested {
            println!("ingested model `{id}`");
        }
        match a
            .default_model
            .clone()
            .or_else(|| report.ingested.first().cloned())
        {
            Some(id) => id,
            None => {
                return Err(CliError::Runtime(
                    "no model survived ingestion; nothing to serve".into(),
                ))
            }
        }
    };
    let session = registry.get(&default_model).map_err(|e| {
        CliError::Runtime(format!(
            "default model `{default_model}` is not resident: {e}"
        ))
    })?;

    let config = ServerConfig {
        addr: a.addr.clone(),
        policy: a.policy.clone(),
        model_name: default_model.clone(),
        limits: a.limits.clone(),
    };
    let mut server = Server::start_with_registry(Arc::clone(&registry), config)
        .map_err(|e| CliError::Runtime(format!("cannot start server on `{}`: {e}", a.addr)))?;
    println!(
        "serving {default_model} [{:?}] ({} inputs → {} outputs, {} resident bytes, {} models, lane {}, {}) on {}",
        a.model,
        session.sample_len(),
        session.num_outputs(),
        registry.resident_bytes(),
        registry.models().len(),
        session.lane().as_str(),
        if session.is_frozen() {
            "frozen plan".to_string()
        } else {
            format!(
                "fp32 eval fallback: {}",
                session.freeze_reason().unwrap_or("unknown reason")
            )
        },
        server.addr()
    );
    if let Some(report) = session.plan_report() {
        println!(
            "frozen plan: {} steps (from {}), {} bn folds, {} act fusions, {} packed panels, arena {} floats/sample",
            report.steps,
            report.lowered_steps,
            report.bn_folds,
            report.act_fusions,
            report.packed_panels,
            report.arena_floats_per_sample
        );
    }
    println!(
        "policy: max_batch {}, max_delay {}µs, queue_depth {}",
        a.policy.max_batch,
        a.policy.max_delay.as_micros(),
        a.policy.queue_depth
    );
    println!(
        "limits: max_conns {}, idle {}ms, read {}ms, request {}ms, pipeline {}",
        a.limits.max_connections,
        a.limits.idle_timeout.as_millis(),
        a.limits.read_timeout.as_millis(),
        a.limits.request_timeout.as_millis(),
        a.limits.max_pipeline
    );
    if a.budget_mb > 0 {
        println!("budget: {} MiB resident; LRU eviction past it", a.budget_mb);
    }

    // Foreground loop: the server runs on its own threads; this thread
    // polls for SIGINT/SIGTERM and periodically reports stats.
    signals::install();
    let mut last_stats = Instant::now();
    while !signals::stop_requested() {
        std::thread::sleep(Duration::from_millis(100));
        if a.stats_every > 0 && last_stats.elapsed() >= Duration::from_secs(a.stats_every) {
            print_stats(&server.stats());
            last_stats = Instant::now();
        }
    }

    // Graceful shutdown: refuse new connections, drain everything already
    // in flight, then report the final counters.
    println!("shutdown requested; draining in-flight requests...");
    server.shutdown();
    let s = server.stats();
    print_stats(&s);
    println!(
        "final: {} responses delivered, {} swaps, {} evictions, {} quarantined, {} unavailable",
        s.completed, s.swaps, s.evictions, s.quarantines, s.model_unavailable
    );
    Ok(())
}

fn print_stats(s: &apt_serve::StatsSnapshot) {
    println!(
        "stats: {} ok ({} inline) / {} shed / {} expired / {} errors | p50 {}µs p90 {}µs p99 {}µs | mean batch {:.2} | {} wake-ups | conns {} open, {} refused, {} idle-reaped, {} slow-reaped | fleet {} resident ({} bytes), {} swaps, {} evictions, {} quarantined | plans {} frozen, {} fallbacks",
        s.completed,
        s.inline_requests,
        s.shed,
        s.deadline_expired,
        s.errors,
        s.p50_us,
        s.p90_us,
        s.p99_us,
        s.mean_batch,
        s.reactor_wakeups,
        s.open_conns,
        s.refused_accept,
        s.idle_reaped,
        s.slow_reaped,
        s.models_resident,
        s.resident_bytes,
        s.swaps,
        s.evictions,
        s.quarantines,
        s.plans_frozen,
        s.freeze_fallbacks
    );
}

/// `apt freeze CHECKPOINT --model …` — compile a checkpoint into a frozen
/// plan and print the compile report without serving anything.
fn run_freeze(args: &[String]) -> Result<(), CliError> {
    let mut checkpoint_path: Option<String> = None;
    let mut model: Option<ModelArch> = None;
    let mut classes = 10usize;
    let mut img_size = 12usize;
    let mut width_mult = 0.25f32;
    let mut lane = KernelLane::default();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--help" || flag == "-h" {
            eprintln!("{FREEZE_USAGE}");
            std::process::exit(0);
        }
        if !flag.starts_with("--") {
            if checkpoint_path.is_some() {
                return Err(CliError::Usage(format!(
                    "unexpected extra positional argument `{flag}`"
                )));
            }
            checkpoint_path = Some(flag.to_string());
            i += 1;
            continue;
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| CliError::Usage(format!("missing value for {flag}")))?;
        match flag {
            "--model" => {
                model = Some(
                    value
                        .parse::<ModelArch>()
                        .map_err(|e| CliError::Usage(e.to_string()))?,
                )
            }
            "--classes" => classes = parse_flag(flag, value)?,
            "--img-size" => img_size = parse_flag(flag, value)?,
            "--width-mult" => width_mult = parse_flag(flag, value)?,
            "--lane" => {
                lane = KernelLane::parse(value).ok_or_else(|| {
                    CliError::Usage(format!(
                        "bad value `{value}` for --lane (want fp32 | dequant-cache | int-gemm)"
                    ))
                })?
            }
            other => return Err(CliError::Usage(format!("unknown flag `{other}`"))),
        }
        i += 2;
    }
    let ckpt = checkpoint_path.ok_or_else(|| CliError::Usage("CHECKPOINT is required".into()))?;
    let arch = model.ok_or_else(|| CliError::Usage("--model is required".into()))?;
    let spec = ModelSpec {
        arch: arch.clone(),
        classes,
        img_size,
        width_mult,
    };
    let blob = std::fs::read(&ckpt)
        .map_err(|e| CliError::Runtime(format!("cannot read `{ckpt}`: {e}")))?;
    let mut net = spec
        .build()
        .map_err(|e| CliError::Runtime(format!("cannot build {arch:?}: {e}")))?;
    apt_nn::checkpoint::load(&mut net, &blob).map_err(|e| {
        CliError::Runtime(format!(
            "cannot load `{ckpt}` as {arch:?} (classes {classes}, img {img_size}, width {width_mult}): {e}"
        ))
    })?;
    let plan = net
        .freeze(&spec.sample_dims(), lane)
        .map_err(|e| CliError::Runtime(format!("cannot freeze `{ckpt}`: {e}")))?;
    println!(
        "frozen {} [{arch:?}] from `{ckpt}` (requested lane {})",
        net.name(),
        lane.as_str()
    );
    println!("{}", plan.report());
    println!("steps: {}", plan.step_mnemonics().join(" → "));
    println!(
        "resident: {} plan bytes; arena {} floats per sample ({} inputs → {} outputs)",
        plan.resident_bytes(),
        plan.arena_floats_per_sample(),
        plan.sample_len(),
        plan.output_len()
    );
    Ok(())
}

/// `apt train --model … --workers N --grad-bits K` — deterministic
/// data-parallel training with k-bit gradient exchange on the synthetic
/// CIFAR workload.
fn run_train(args: &[String]) -> Result<(), CliError> {
    let mut model: Option<ModelArch> = None;
    let mut workers = 1usize;
    let mut grad_bits = 4u32;
    let mut recovery_rounds = 3usize;
    let mut checkpoint_dir: Option<String> = None;
    let mut checkpoint_every = 50usize;
    let mut epochs = 10usize;
    let mut batch_size = 8usize;
    let mut seed = 42u64;
    let mut threads = 1usize;
    let mut classes = 10usize;
    let mut img_size = 12usize;
    let mut per_class = 32usize;
    let mut data_seed = 3u64;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--help" || flag == "-h" {
            eprintln!("{TRAIN_USAGE}");
            std::process::exit(0);
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| CliError::Usage(format!("missing value for {flag}")))?;
        match flag {
            "--model" => {
                model = Some(
                    value
                        .parse::<ModelArch>()
                        .map_err(|e| CliError::Usage(e.to_string()))?,
                )
            }
            "--workers" => workers = parse_flag(flag, value)?,
            "--grad-bits" => grad_bits = parse_flag(flag, value)?,
            "--recovery-rounds" => recovery_rounds = parse_flag(flag, value)?,
            "--checkpoint-dir" => checkpoint_dir = Some(value.clone()),
            "--checkpoint-every" => checkpoint_every = parse_flag(flag, value)?,
            "--epochs" => epochs = parse_flag(flag, value)?,
            "--batch-size" => batch_size = parse_flag(flag, value)?,
            "--seed" => seed = parse_flag(flag, value)?,
            "--threads" => threads = parse_flag(flag, value)?,
            "--classes" => classes = parse_flag(flag, value)?,
            "--img-size" => img_size = parse_flag(flag, value)?,
            "--per-class" => per_class = parse_flag(flag, value)?,
            "--data-seed" => data_seed = parse_flag(flag, value)?,
            other => return Err(CliError::Usage(format!("unknown flag `{other}`"))),
        }
        i += 2;
    }
    let arch = model.ok_or_else(|| CliError::Usage("--model is required".into()))?;
    if workers == 0 {
        return Err(CliError::Usage("--workers must be at least 1".into()));
    }
    if !(2..=16).contains(&grad_bits) {
        return Err(CliError::Usage(format!(
            "--grad-bits must be in 2..=16, got {grad_bits}"
        )));
    }
    if let ModelArch::Mlp(dims) = &arch {
        let want = 3 * img_size * img_size;
        if dims.first() != Some(&want) {
            return Err(CliError::Usage(format!(
                "mlp input must match the flattened image: want {want} (3 x {img_size}^2), got {:?}",
                dims.first()
            )));
        }
    }
    if threads >= 1 {
        apt_tensor::par::set_global_threads(threads);
    }

    let data = apt_data::SynthCifar::generate(&apt_data::SynthCifarConfig {
        num_classes: classes,
        train_per_class: per_class,
        test_per_class: (per_class / 4).max(1),
        img_size,
        seed: data_seed,
        ..apt_data::SynthCifarConfig::default()
    })
    .map_err(|e| CliError::Runtime(format!("cannot generate dataset: {e}")))?;

    let bits = apt_quant::Bitwidth::new(grad_bits)
        .map_err(|e| CliError::Usage(format!("bad --grad-bits: {e}")))?;
    let cfg = apt_dist::DistConfig {
        world: workers,
        grad_bits: bits,
        train: apt_core::TrainConfig {
            epochs,
            batch_size,
            seed,
            policy: Some(apt_core::PolicyConfig::default()),
            checkpoint: checkpoint_dir
                .as_ref()
                .map(|dir| apt_core::CheckpointConfig {
                    dir: PathBuf::from(dir),
                    every: checkpoint_every,
                    keep: 3,
                }),
            ..apt_core::TrainConfig::default()
        },
        max_recovery_rounds: recovery_rounds,
    };
    let spec = ModelSpec {
        arch: arch.clone(),
        classes,
        img_size,
        width_mult: 0.25,
    };
    let net_fn = move || {
        spec.build().map_err(|e| apt_core::CoreError::BadConfig {
            reason: format!("cannot build replica: {e}"),
        })
    };

    println!(
        "training {arch:?} on synthetic CIFAR ({} train / {} test), {workers} worker(s), \
         {grad_bits}-bit gradient exchange",
        data.train.len(),
        data.test.len()
    );
    let start = Instant::now();
    let report = apt_dist::DistTrainer::new(cfg, net_fn)
        .map_err(|e| CliError::Usage(format!("bad fleet configuration: {e}")))?
        .train(&data.train, &data.test)
        .map_err(|e| CliError::Runtime(format!("training failed: {e}")))?;
    let wall = start.elapsed().as_secs_f64();

    for e in &report.report().epochs {
        println!(
            "epoch {:>3}: lr {:.4} loss {:.4} acc {:.3} energy {:.0} pJ",
            e.epoch, e.lr, e.train_loss, e.test_accuracy, e.cumulative_energy_pj
        );
    }
    let r = report.report();
    println!(
        "done in {wall:.1}s: final acc {:.3} (best {:.3}), energy {:.0} pJ, peak {} bits",
        r.final_accuracy, r.best_accuracy, r.total_energy_pj, r.peak_memory_bits
    );
    if workers > 1 {
        let ex = report.exchange();
        println!(
            "exchange: {} steps, {} digest checks, {} bytes on wire ({:.3}x fp32), \
             recovery rounds {}",
            ex.steps,
            ex.digest_checks,
            ex.bytes_on_wire,
            ex.wire_ratio(),
            report.recovery_rounds
        );
        if !report.replicas_in_lockstep() {
            return Err(CliError::Runtime(
                "replicas finished out of lockstep (this is a bug)".into(),
            ));
        }
    }
    if let Some(dir) = &checkpoint_dir {
        println!("per-rank checkpoints under {dir}/rank<r>/");
    }
    Ok(())
}

/// Minimal `SIGINT`/`SIGTERM` latching without any signal-handling crate:
/// the handler only sets an atomic flag, which is async-signal-safe; the
/// foreground loop polls it.
#[cfg(unix)]
mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};

    static STOP: AtomicBool = AtomicBool::new(false);

    extern "C" fn latch_stop(_signum: i32) {
        STOP.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        // SIGINT = 2 and SIGTERM = 15 on every Unix this builds for.
        unsafe {
            signal(2, latch_stop as *const () as usize);
            signal(15, latch_stop as *const () as usize);
        }
    }

    pub fn stop_requested() -> bool {
        STOP.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod signals {
    pub fn install() {}

    pub fn stop_requested() -> bool {
        false
    }
}
