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
//! report (step counts, fusions, arena size, achieved lane). `train` is
//! the one way to start a run from a shell: Algorithm 2 on the
//! synthetic-CIFAR workload under any storage scheme of Table I
//! (`--scheme`), on `--workers N` in-process ranks exchanging
//! `--grad-bits k` quantised gradients (one worker *is* the
//! single-process trainer), shipping the trained `<out>.aptc` and a
//! per-epoch `<out>.csv`. The same `--model` string names the
//! architecture in all three.
//!
//! Every malformed invocation exits with a one-line message and usage
//! text (exit code 2); runtime failures exit 1. Nothing in this binary
//! panics on bad user input. `SIGINT`/`SIGTERM` trigger a graceful
//! shutdown: stop accepting, drain in-flight work, print a final stats
//! snapshot.

use apt_core::{CheckpointConfig, CoreError, PolicyConfig, SentinelConfig, TrainConfig};
use apt_data::{SynthCifar, SynthCifarConfig};
use apt_dist::{DistConfig, DistTrainer};
use apt_metrics::Table;
use apt_nn::QuantScheme;
use apt_optim::LrSchedule;
use apt_quant::Bitwidth;
use apt_serve::{
    BatchPolicy, ConnLimits, KernelLane, ModelArch, ModelRegistry, ModelSpec, RegistryConfig,
    Server, ServerConfig,
};
use apt_tensor::rng;
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
  --lane LANE           kernel lane the plan is compiled for:
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
  --lane LANE           dequant-cache | int-gemm      [default dequant-cache]";

const TRAIN_USAGE: &str = "usage: apt train --model MODEL [options]

Runs Algorithm 2 on a synthetic-CIFAR task and writes the trained model
(OUT.aptc, what `apt serve` / `apt freeze` load under the same --model and
geometry flags) and a per-epoch OUT.csv. Both are a pure function of the
flags: any --threads, any rerun, and a killed run continued with --resume
give the same bytes.

required:
  --model MODEL         cifarnet | vgg_small | resnet20 | resnet110 |
                        mobilenet_v2 | mlp:IN-HIDDEN-...-OUT
                        (an MLP input must equal 3 x img-size^2)

training:
  --scheme SCHEME       fp32 | apt | fixed:K | master:K | per-channel:K
                                                              [default apt]
  --t-min F             Algorithm 1's lower Gavg threshold (apt only)
                                                              [default 6]
  --epochs N            lr is divided by 10 at 50 % and 75 %  [default 20]
  --batch-size N                                              [default 32]
  --seed N              data, initialisation and shuffling    [default 42]
  --threads N           inner-op compute pool size            [default 1]
  --out OUT             writes OUT.csv and OUT.aptc   [default results/train]

data and geometry:
  --classes N           [default 10]
  --img-size N          [default 12]
  --width-mult F        channel width multiplier              [default 0.25]
  --per-class N         training samples per class            [default 60]

fleet (data-parallel replicas on disjoint shards, bit-reproducible):
  --workers N           worker ranks                          [default 1]
  --grad-bits K         gradient exchange bitwidth, 2..=16    [default 4]

resilience:
  --checkpoint-dir DIR  crash-safe state under DIR/rank<r>/state-*.apts
  --checkpoint-every N  optimiser steps between checkpoints   [default 25]
  --resume              continue from the newest valid checkpoint in DIR
                        (without it a DIR that holds one is refused)
  --sentinel            arm the divergence sentinel (one worker only)";

type Command = fn(&[String]) -> Result<(), CliError>;

fn main() {
    let commands: [(&str, &str, Command); 3] = [
        ("serve", USAGE, run_serve),
        ("train", TRAIN_USAGE, run_train),
        ("freeze", FREEZE_USAGE, run_freeze),
    ];
    let argv: Vec<String> = std::env::args().collect();
    let is_help = |a: &String| a == "--help" || a == "-h";
    let code = match argv.get(1) {
        Some(name) if !is_help(name) => match commands.iter().find(|c| c.0 == name) {
            Some(&(_, usage, _)) if argv[2..].iter().any(is_help) => {
                eprintln!("{usage}");
                0
            }
            Some(&(_, usage, run)) => match run(&argv[2..]) {
                Ok(()) => 0,
                Err(CliError::Usage(m)) => {
                    eprintln!("apt {name}: {m}\n\n{usage}");
                    2
                }
                Err(CliError::Runtime(m)) => {
                    eprintln!("apt {name}: {m}");
                    1
                }
            },
            None => {
                eprintln!(
                    "apt: unknown subcommand `{name}` (have: serve, train, freeze)\n\n{USAGE}\n\n{TRAIN_USAGE}\n\n{FREEZE_USAGE}"
                );
                2
            }
        },
        help => {
            eprintln!("{USAGE}\n\n{TRAIN_USAGE}\n\n{FREEZE_USAGE}");
            // Asked for, it is an answer; printed for want of a subcommand,
            // a usage error.
            if help.is_some() {
                0
            } else {
                2
            }
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

fn parse_lane(value: &str) -> Result<KernelLane, CliError> {
    KernelLane::parse(value).ok_or_else(|| {
        CliError::Usage(format!(
            "bad value `{value}` for --lane (want dequant-cache | int-gemm)"
        ))
    })
}

/// The value following `args[i]`, or the usage error that names the flag.
fn flag_value(args: &[String], i: usize) -> Result<&String, CliError> {
    args.get(i + 1)
        .ok_or_else(|| CliError::Usage(format!("missing value for {}", args[i])))
}

/// The flags every subcommand shares: which architecture, at which
/// geometry. `--model` has no default.
struct SpecArgs {
    arch: Option<ModelArch>,
    classes: usize,
    img_size: usize,
    width_mult: f32,
}

impl SpecArgs {
    fn new() -> Self {
        SpecArgs {
            arch: None,
            classes: 10,
            img_size: 12,
            width_mult: 0.25,
        }
    }

    /// Consumes `flag` if it is one of the four; `false` leaves it to the
    /// caller's own table.
    fn take(&mut self, flag: &str, value: &str) -> Result<bool, CliError> {
        match flag {
            "--model" => self.arch = Some(parse_flag(flag, value)?),
            "--classes" => self.classes = parse_flag(flag, value)?,
            "--img-size" => self.img_size = parse_flag(flag, value)?,
            "--width-mult" => self.width_mult = parse_flag(flag, value)?,
            _ => return Ok(false),
        }
        Ok(true)
    }

    fn finish(self) -> Result<ModelSpec, CliError> {
        Ok(ModelSpec {
            arch: self
                .arch
                .ok_or_else(|| CliError::Usage("--model is required".into()))?,
            classes: self.classes,
            img_size: self.img_size,
            width_mult: self.width_mult,
        })
    }
}

/// Everything `apt serve` needs, parsed and validated.
struct ServeArgs {
    checkpoint: Option<String>,
    model_dir: Option<String>,
    quarantine_dir: Option<String>,
    default_model: Option<String>,
    budget_mb: u64,
    addr: String,
    lane: KernelLane,
    policy: BatchPolicy,
    limits: ConnLimits,
    threads: Option<usize>,
    stats_every: u64,
}

fn parse_serve_args(args: &[String]) -> Result<(ServeArgs, ModelSpec), CliError> {
    let mut spec = SpecArgs::new();
    let mut out = ServeArgs {
        checkpoint: None,
        model_dir: None,
        quarantine_dir: None,
        default_model: None,
        budget_mb: 0,
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
        let value = flag_value(args, i)?;
        match flag {
            _ if spec.take(flag, value)? => {}
            "--checkpoint" => out.checkpoint = Some(value.clone()),
            "--model-dir" => out.model_dir = Some(value.clone()),
            "--quarantine-dir" => out.quarantine_dir = Some(value.clone()),
            "--default-model" => out.default_model = Some(value.clone()),
            "--resident-budget-mb" => out.budget_mb = parse_flag(flag, value)?,
            "--addr" => out.addr = value.clone(),
            "--lane" => out.lane = parse_lane(value)?,
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
    let spec = spec.finish()?;
    out.policy
        .validate()
        .map_err(|e| CliError::Usage(e.to_string()))?;
    out.limits
        .validate()
        .map_err(|e| CliError::Usage(e.to_string()))?;
    Ok((out, spec))
}

fn run_serve(args: &[String]) -> Result<(), CliError> {
    let (a, spec) = parse_serve_args(args)?;
    if let Some(n) = a.threads {
        apt_tensor::par::set_global_threads(n);
    }
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
            .map_err(|e| CliError::Runtime(format!("cannot load `{ckpt}` as {spec:?}: {e}")))?;
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
        "serving {default_model} [{:?}] ({} inputs → {} outputs, {} resident bytes, {} models, lane {}, frozen plan) on {}",
        spec.arch,
        session.sample_len(),
        session.num_outputs(),
        registry.resident_bytes(),
        registry.models().len(),
        session.lane().as_str(),
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
        "stats: {} ok ({} inline) / {} shed / {} expired / {} errors | p50 {}µs p90 {}µs p99 {}µs | mean batch {:.2} | {} wake-ups, {} rests | conns {} open, {} refused, {} idle-reaped, {} slow-reaped | fleet {} resident ({} bytes), {} swaps, {} evictions, {} quarantined | plans {} frozen",
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
        s.reactor_rests,
        s.open_conns,
        s.refused_accept,
        s.idle_reaped,
        s.slow_reaped,
        s.models_resident,
        s.resident_bytes,
        s.swaps,
        s.evictions,
        s.quarantines,
        s.plans_frozen
    );
}

/// `apt freeze CHECKPOINT --model …` — compile a checkpoint into a frozen
/// plan and print the compile report without serving anything.
fn run_freeze(args: &[String]) -> Result<(), CliError> {
    let mut checkpoint_path: Option<String> = None;
    let mut spec = SpecArgs::new();
    let mut lane = KernelLane::default();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
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
        let value = flag_value(args, i)?;
        match flag {
            _ if spec.take(flag, value)? => {}
            "--lane" => lane = parse_lane(value)?,
            other => return Err(CliError::Usage(format!("unknown flag `{other}`"))),
        }
        i += 2;
    }
    let ckpt = checkpoint_path.ok_or_else(|| CliError::Usage("CHECKPOINT is required".into()))?;
    let spec = spec.finish()?;
    let arch = &spec.arch;
    let blob = std::fs::read(&ckpt)
        .map_err(|e| CliError::Runtime(format!("cannot read `{ckpt}`: {e}")))?;
    let mut net = spec
        .build()
        .map_err(|e| CliError::Runtime(format!("cannot build {arch:?}: {e}")))?;
    apt_nn::checkpoint::load(&mut net, &blob)
        .map_err(|e| CliError::Runtime(format!("cannot load `{ckpt}` as {spec:?}: {e}")))?;
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

/// `--scheme fp32|apt|fixed:K|master:K|per-channel:K` — a storage scheme
/// of Table I, and Algorithm 1's policy when the scheme is the adaptive one.
fn parse_scheme(spec: &str, t_min: f64) -> Result<(QuantScheme, Option<PolicyConfig>), CliError> {
    let (kind, bits) = match spec.split_once(':') {
        Some((kind, b)) => {
            let n: u32 = parse_flag("--scheme", b)?;
            let bits = Bitwidth::new(n)
                .map_err(|e| CliError::Usage(format!("bad bitwidth in --scheme `{spec}`: {e}")))?;
            (kind, Some(bits))
        }
        None => (spec, None),
    };
    Ok(match (kind, bits) {
        ("fp32", None) => (QuantScheme::float32(), None),
        ("apt", None) => {
            let policy = PolicyConfig::new(t_min, f64::INFINITY)
                .map_err(|e| CliError::Usage(format!("bad --t-min: {e}")))?;
            (QuantScheme::paper_apt(), Some(policy))
        }
        ("fixed", Some(k)) => (QuantScheme::fixed(k), None),
        ("master", Some(k)) => (QuantScheme::master_copy(k), None),
        ("per-channel", Some(k)) => (QuantScheme::per_channel(k), None),
        _ => {
            return Err(CliError::Usage(format!(
                "unknown scheme `{spec}` (want fp32 | apt | fixed:K | master:K | per-channel:K)"
            )))
        }
    })
}

/// `apt train --model … --scheme … --out OUT` — Algorithm 2 on the
/// synthetic CIFAR workload, always through [`DistTrainer`]: a world of one
/// is the single-process trainer.
fn run_train(args: &[String]) -> Result<(), CliError> {
    let mut spec = SpecArgs::new();
    let mut scheme = "apt".to_string();
    let mut t_min = 6.0f64;
    let mut epochs = 20usize;
    let mut batch_size = 32usize;
    let mut seed = 42u64;
    let mut threads = 1usize;
    let mut out = "results/train".to_string();
    let mut per_class = 60usize;
    let mut workers = 1usize;
    let mut grad_bits = 4u32;
    let mut checkpoint_dir: Option<PathBuf> = None;
    let mut checkpoint_every = 25usize;
    let mut resume = false;
    let mut sentinel = false;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--resume" => resume = true,
            "--sentinel" => sentinel = true,
            _ => {
                let value = flag_value(args, i)?;
                match flag {
                    _ if spec.take(flag, value)? => {}
                    "--scheme" => scheme = value.clone(),
                    "--t-min" => t_min = parse_flag(flag, value)?,
                    "--epochs" => epochs = parse_flag(flag, value)?,
                    "--batch-size" => batch_size = parse_flag(flag, value)?,
                    "--seed" => seed = parse_flag(flag, value)?,
                    "--threads" => threads = parse_flag(flag, value)?,
                    "--out" => out = value.clone(),
                    "--per-class" => per_class = parse_flag(flag, value)?,
                    "--workers" => workers = parse_flag(flag, value)?,
                    "--grad-bits" => grad_bits = parse_flag(flag, value)?,
                    "--checkpoint-dir" => checkpoint_dir = Some(PathBuf::from(value)),
                    "--checkpoint-every" => checkpoint_every = parse_flag(flag, value)?,
                    other => return Err(CliError::Usage(format!("unknown flag `{other}`"))),
                }
                i += 1;
            }
        }
        i += 1;
    }
    let spec = spec.finish()?;
    let (quant, policy) = parse_scheme(&scheme, t_min)?;
    if !(2..=16).contains(&grad_bits) {
        return Err(CliError::Usage(format!(
            "--grad-bits must be in 2..=16, got {grad_bits}"
        )));
    }
    let grad_bits =
        Bitwidth::new(grad_bits).map_err(|e| CliError::Usage(format!("bad --grad-bits: {e}")))?;
    let (inputs, pixels) = (spec.sample_dims(), 3 * spec.img_size * spec.img_size);
    if inputs.iter().product::<usize>() != pixels {
        return Err(CliError::Usage(format!(
            "{:?} takes {inputs:?} inputs, an image has {pixels} (3 x {}^2)",
            spec.arch, spec.img_size
        )));
    }
    // `--resume` is consent, not a mode: the fleet re-joins from whatever
    // valid state its rank directories hold, so continuing someone else's
    // run by accident is what has to be asked for.
    match &checkpoint_dir {
        None if resume => return Err(CliError::Usage("--resume requires --checkpoint-dir".into())),
        Some(dir) if !resume => {
            for rank in 0..workers {
                let rank_dir = dir.join(format!("rank{rank}"));
                let found = apt_core::latest_valid(&rank_dir)
                    .map_err(|e| CliError::Runtime(format!("cannot scan checkpoints: {e}")))?;
                if let Some((path, _)) = found {
                    return Err(CliError::Usage(format!(
                        "`{}` already holds a run; pass --resume to continue it",
                        path.display()
                    )));
                }
            }
        }
        _ => {}
    }

    let data = SynthCifar::generate(&SynthCifarConfig {
        num_classes: spec.classes,
        train_per_class: per_class,
        test_per_class: (per_class / 4).max(1),
        img_size: spec.img_size,
        seed,
        ..SynthCifarConfig::default()
    })
    .map_err(|e| CliError::Usage(format!("cannot generate dataset: {e}")))?;

    let mut cfg = DistConfig::new(workers, grad_bits);
    cfg.train = TrainConfig {
        epochs,
        batch_size,
        schedule: LrSchedule::paper_cifar10(epochs),
        policy,
        seed,
        threads: Some(threads),
        checkpoint: checkpoint_dir.map(|dir| CheckpointConfig {
            dir,
            every: checkpoint_every,
            keep: 3,
        }),
        sentinel: sentinel.then(SentinelConfig::default),
        ..TrainConfig::default()
    };
    let bad_config = |e: CoreError| match e {
        CoreError::BadConfig { reason } => CliError::Usage(reason),
        other => CliError::Runtime(format!("training failed: {other}")),
    };
    let replica = {
        let spec = spec.clone();
        move || {
            spec.build_with(&quant, &mut rng::substream(seed, 0x7121))
                .map_err(|e| CoreError::BadConfig {
                    reason: format!("cannot build {:?}: {e}", spec.arch),
                })
        }
    };
    let fleet = DistTrainer::new(cfg, replica).map_err(bad_config)?;

    println!(
        "training {:?} (scheme {scheme}) on {} train / {} test images for {epochs} epochs, \
         {workers} worker(s), {}-bit gradient exchange",
        spec.arch,
        data.train.len(),
        data.test.len(),
        grad_bits.get()
    );
    let start = Instant::now();
    let run = fleet.train(&data.train, &data.test).map_err(bad_config)?;
    let wall = start.elapsed().as_secs_f64();
    if !run.replicas_in_lockstep() {
        return Err(CliError::Runtime(
            "replicas finished out of lockstep (this is a bug)".into(),
        ));
    }

    let report = run.report();
    let mut table = Table::new(&[
        "epoch",
        "lr",
        "train_loss",
        "test_acc",
        "energy_pj",
        "mean_bits",
    ]);
    for e in &report.epochs {
        let mean_bits = if e.layer_bits.is_empty() {
            0.0
        } else {
            e.layer_bits.iter().map(|&(_, b)| b as f64).sum::<f64>() / e.layer_bits.len() as f64
        };
        table.push_row(vec![
            e.epoch.to_string(),
            format!("{:.4}", e.lr),
            format!("{:.4}", e.train_loss),
            format!("{:.4}", e.test_accuracy),
            format!("{:.4e}", e.cumulative_energy_pj),
            format!("{mean_bits:.2}"),
        ]);
    }
    let (csv_path, ckpt_path) = (format!("{out}.csv"), format!("{out}.aptc"));
    table
        .write_csv(&csv_path)
        .and_then(|()| std::fs::write(&ckpt_path, &run.model))
        .map_err(|e| CliError::Runtime(format!("cannot write {csv_path} / {ckpt_path}: {e}")))?;

    let ex = run.exchange();
    println!(
        "done in {wall:.1}s: final accuracy {:.1}% | best {:.1}% | energy {:.2} µJ | peak memory {:.1} KiB",
        100.0 * report.final_accuracy,
        100.0 * report.best_accuracy,
        report.total_energy_pj / 1e6,
        report.peak_memory_bits as f64 / 8192.0
    );
    println!(
        "exchange: {} steps, {} digest checks, {} bytes on wire ({:.3}x fp32), recovery rounds {}",
        ex.steps,
        ex.digest_checks,
        ex.bytes_on_wire,
        ex.wire_ratio(),
        run.recovery_rounds
    );
    println!(
        "wrote {csv_path} and {ckpt_path} ({} bytes)",
        run.model.len()
    );
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
