//! The repo benchmark: quietest-decile block timing over five training and
//! serving workloads, with an outside-in per-layer trace. See README.md.
//!
//! ```text
//! apt-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! apt-benchmark all [--seed <n>] [--seconds <s>]
//! apt-benchmark selfcheck [--runs <n>] [--seconds <s>]
//! ```

mod alloc;
mod dist;
mod harness;
mod place;
mod selfcheck;
mod serve;
mod stats;
mod trace;
mod train;

use harness::{Metric, Recorder, Workload};
use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

pub const WORKLOADS: [&str; 5] = [
    "train-conv",
    "train-guarded",
    "train-dist2",
    "serve-single",
    "serve-batch",
];

/// Direction of an end-to-end metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// The end-to-end metrics: name, unit, direction, and the share of the
/// parent's median by which the metric may worsen. `BENCHMARK.json` states
/// the same table; a test holds the two together.
pub const END_TO_END: [(&str, &str, Better, f64); 6] = [
    ("setup_s", "s", Better::Lower, 0.25),
    ("throughput_per_s", "1/s", Better::Higher, 0.25),
    ("latency_us", "us", Better::Lower, 0.25),
    ("resident_bytes", "B", Better::Lower, 0.01),
    ("heap_peak_bytes", "B", Better::Lower, 0.15),
    ("good_share", "share", Better::Higher, 0.001),
];

/// Every per-layer metric with its unit, layer = crate name. A traced run
/// prints all of them; one a workload's path does not touch reads 0.
pub const PER_LAYER: [(&str, &str); 53] = [
    ("tensor.loss_us", "us"),
    ("tensor.conv2d_us", "us"),
    ("tensor.conv2d_bwd_input_us", "us"),
    ("tensor.conv2d_bwd_weight_us", "us"),
    ("tensor.matmul_us", "us"),
    ("quant.fake_quant_us", "us"),
    ("quant.grad_encode_us", "us"),
    ("quant.grad_decode_us", "us"),
    ("nn.forward_us", "us"),
    ("nn.backward_us", "us"),
    ("nn.macs_per_step", "count"),
    ("nn.forward_gflops", "GFLOP/s"),
    ("nn.save_full_us", "us"),
    ("nn.digest_us", "us"),
    ("nn.plan_us", "us"),
    ("nn.plan_steps", "count"),
    ("optim.step_us", "us"),
    ("optim.underflow_rate", "share"),
    ("data.epoch_us", "us"),
    ("energy.record_us", "us"),
    ("energy.pj_per_sample", "pJ"),
    ("core.step_us", "us"),
    ("core.span_sum_us", "us"),
    ("core.loop_overhead_us", "us"),
    ("core.gavg_us", "us"),
    ("core.policy_us", "us"),
    ("core.eval_us", "us"),
    ("core.guard_us", "us"),
    ("core.capture_state_us", "us"),
    ("core.write_state_us", "us"),
    ("core.allocs_per_step", "count"),
    ("core.final_accuracy", "share"),
    ("core.mean_bits", "bits"),
    ("dist.exchange_us", "us"),
    ("dist.round_overhead_us", "us"),
    ("dist.wire_bytes_per_step", "B"),
    ("dist.wire_ratio", "share"),
    ("dist.digest_checks_per_step", "count"),
    ("serve.request_us", "us"),
    ("serve.batcher_us", "us"),
    ("serve.transport_us", "us"),
    ("serve.transport_share", "share"),
    ("serve.protocol_us", "us"),
    ("serve.session_load_us", "us"),
    ("serve.mean_batch", "count"),
    ("serve.shed", "count"),
    ("serve.allocs_per_request", "count"),
    ("benchmark.ref_us", "us"),
    ("benchmark.ref_ratio", "share"),
    ("benchmark.disturbed_share", "share"),
    ("benchmark.trace_overhead_share", "share"),
    ("benchmark.blocks", "count"),
    ("benchmark.spans", "count"),
];

/// Set-ups per run, before and after the timed phase; the median of all of
/// them is reported. Split, so that a slow phase of the host at either end
/// of the run does not cover every one.
const SETUPS_BEFORE: usize = 8;
const SETUPS_AFTER: usize = 9;

/// Where traces and checkpoints go: `out/` beside this package's manifest.
fn out_dir() -> PathBuf {
    let manifest = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    PathBuf::from(manifest).join("out")
}

fn build(name: &str, seed: u64) -> Box<dyn Workload> {
    match name {
        "train-conv" => Box::new(train::Train::setup(train::Kind::Conv, seed, &out_dir())),
        "train-guarded" => Box::new(train::Train::setup(train::Kind::Guarded, seed, &out_dir())),
        "train-dist2" => Box::new(dist::Dist2::setup(seed)),
        "serve-single" => Box::new(serve::Serve::setup(serve::Kind::Single, seed)),
        "serve-batch" => Box::new(serve::Serve::setup(serve::Kind::Batch, seed)),
        other => fail(&format!(
            "unknown workload `{other}` (known: {WORKLOADS:?})"
        )),
    }
}

/// Set-up, `n` times: build, tear down, build again; the times go to
/// `times` and the last build is returned. Warming up is the caller's and
/// not part of the time: a warm-up request costs 0.15 or 0.5 ms depending
/// on where the scheduler has put the server's threads, a regime that
/// holds for dozens of set-ups in a row, and with it set-up time read 14
/// or 24 ms.
fn set_up(name: &str, seed: u64, n: usize, times: &mut Vec<f64>) -> Box<dyn Workload> {
    let mut built = None;
    for _ in 0..n {
        drop(built.take());
        let t = Instant::now();
        built = Some(build(name, seed));
        times.push(t.elapsed().as_secs_f64());
    }
    built.expect("at least one set-up")
}

/// One workload's results, ready to print.
struct Outcome {
    name: String,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    metrics: Vec<Metric>,
    /// The one-line host verdict and the block statistics, for people.
    notes: Vec<String>,
}

fn host_verdict(rec: &Recorder) -> String {
    let (quiet, ratio) = rec.reference();
    let disturbed = rec.blocks.disturbed_share();
    if ratio < stats::DISTURBED_FACTOR && disturbed < 0.5 {
        format!(
            "host: quiet (ref {quiet:.1} us, mean {ratio:.2}x that; {:.0} % of blocks disturbed)",
            disturbed * 100.0
        )
    } else {
        format!(
            "host: disturbed, ref {quiet:.1} us, mean {ratio:.1}x that ({:.0} % of blocks over {}x the quietest decile)",
            disturbed * 100.0,
            stats::DISTURBED_FACTOR
        )
    }
}

fn block_note(rec: &Recorder) -> String {
    let b = rec.blocks.all();
    format!(
        "blocks n={} quietest decile={:.3} ms | information only: mean={:.3} p10={:.3} p50={:.3} p99={:.3} ms",
        b.n,
        rec.blocks.quiet() * 1e3,
        b.mean * 1e3,
        b.p10 * 1e3,
        b.p50 * 1e3,
        b.p99 * 1e3
    )
}

fn end_to_end(w: &dyn Workload, rec: &Recorder, setup_s: f64) -> Vec<Metric> {
    let shape = w.shape();
    let quiet = rec.blocks.quiet();
    vec![
        ("setup_s", setup_s, "s"),
        ("throughput_per_s", shape.units / quiet, "1/s"),
        ("latency_us", quiet / shape.ops * 1e6, "us"),
        ("resident_bytes", w.resident_bytes() as f64, "B"),
        ("heap_peak_bytes", rec.heap_peak as f64, "B"),
        (
            "good_share",
            (rec.attempted - rec.failed) as f64 / rec.attempted as f64,
            "share",
        ),
    ]
}

/// The traced pass of one workload: per-layer metrics, every name present.
fn traced(name: &str, w: &mut dyn Workload, seconds: f64, rec: &mut Recorder) -> Vec<Metric> {
    let mut tracer = Tracer::new();
    let mut got = w.trace(seconds, &mut tracer, rec);
    let (ref_quiet, ref_ratio) = rec.reference();
    got.extend([
        ("benchmark.ref_us", ref_quiet, "us"),
        ("benchmark.ref_ratio", ref_ratio, "share"),
        (
            "benchmark.disturbed_share",
            rec.blocks.disturbed_share(),
            "share",
        ),
        ("benchmark.blocks", rec.blocks.len() as f64, "count"),
        ("benchmark.spans", tracer.spans().len() as f64, "count"),
    ]);
    let path = out_dir().join(format!("{name}.trace.jsonl"));
    if let Err(e) = tracer.write_jsonl(&path) {
        fail(&format!("writing {}: {e}", path.display()));
    }
    PER_LAYER
        .iter()
        .map(|&(n, unit)| {
            let value = got.iter().find(|m| m.0 == n).map_or(0.0, |m| m.1);
            (n, value, unit)
        })
        .collect()
}

fn run_one(name: &str, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut setups = Vec::new();
    let mut w = set_up(name, seed, SETUPS_BEFORE, &mut setups);
    w.warm_up();
    let mut rec = Recorder::default();
    let metrics = if trace {
        traced(name, w.as_mut(), seconds, &mut rec)
    } else {
        harness::run_for(w.as_mut(), &mut rec, seconds);
        drop(set_up(name, seed, SETUPS_AFTER, &mut setups));
        end_to_end(w.as_ref(), &rec, stats::median(&setups))
    };
    Outcome {
        name: name.to_string(),
        attempted: rec.attempted,
        failed: rec.failed,
        notes: vec![block_note(&rec), host_verdict(&rec)],
        errors: rec.errors,
        metrics,
    }
}

/// One workload of an `all` invocation, between its slices.
struct Live {
    w: Box<dyn Workload>,
    setups: Vec<f64>,
    rec: Recorder,
    /// Seconds of timed slices run so far.
    spent: f64,
}

/// Every workload in one invocation: slices round-robin across the
/// workloads, so each one's blocks span the whole timed phase, then the
/// traced passes one after the other.
fn run_all(seed: u64, seconds: f64) -> Vec<Outcome> {
    let mut live: Vec<Live> = WORKLOADS
        .iter()
        .map(|name| {
            let mut setups = Vec::new();
            let mut w = set_up(name, seed, SETUPS_BEFORE, &mut setups);
            w.warm_up();
            Live {
                w,
                setups,
                rec: Recorder::default(),
                spent: 0.0,
            }
        })
        .collect();
    let mut turn = None;
    loop {
        let remaining: Vec<bool> = live.iter().map(|l| l.spent < seconds).collect();
        turn = stats::next_turn(&remaining, turn);
        let Some(i) = turn else { break };
        let l = &mut live[i];
        let t = Instant::now();
        l.w.run_slice(&mut l.rec);
        l.spent += t.elapsed().as_secs_f64();
    }
    WORKLOADS
        .iter()
        .zip(live)
        .map(|(name, l)| {
            let Live {
                mut w,
                mut setups,
                mut rec,
                ..
            } = l;
            drop(set_up(name, seed, SETUPS_AFTER, &mut setups));
            let mut metrics = end_to_end(w.as_ref(), &rec, stats::median(&setups));
            let mut notes = vec![block_note(&rec), host_verdict(&rec)];
            let mut trace_rec = Recorder::default();
            metrics.extend(traced(name, w.as_mut(), seconds / 2.0, &mut trace_rec));
            notes.push(format!("traced pass: {}", host_verdict(&trace_rec)));
            rec.attempted += trace_rec.attempted;
            rec.failed += trace_rec.failed;
            rec.errors.extend(trace_rec.errors);
            Outcome {
                name: name.to_string(),
                attempted: rec.attempted,
                failed: rec.failed,
                errors: rec.errors,
                metrics,
                notes,
            }
        })
        .collect()
}

fn print_human(o: &Outcome) {
    println!("== {} ==", o.name);
    for (name, value, unit) in &o.metrics {
        println!("{name:<34} {value:>18.6} {unit}");
    }
    for n in &o.notes {
        println!("{n}");
    }
    println!(
        "verified {} of {} operations{}",
        o.attempted - o.failed,
        o.attempted,
        if o.errors.is_empty() {
            String::new()
        } else {
            format!("; failures: {:?}", o.errors)
        }
    );
}

/// The result object the driver reads from the last line of stdout.
fn result_json(o: &Outcome) -> String {
    let finite = o.metrics.iter().all(|m| m.1.is_finite());
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0 && finite && o.attempted > 0,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn fail(why: &str) -> ! {
    eprintln!("apt-benchmark: {why}");
    std::process::exit(2);
}

/// `--key value` pairs after an optional subcommand.
struct Args {
    command: Option<String>,
    pairs: Vec<(String, String)>,
}

impl Args {
    fn parse() -> Args {
        let mut argv = std::env::args().skip(1).peekable();
        let command = argv.next_if(|a| !a.starts_with("--"));
        let mut pairs = Vec::new();
        while let Some(key) = argv.next() {
            let Some(value) = argv.next() else {
                fail(&format!("`{key}` needs a value"));
            };
            pairs.push((key, value));
        }
        Args { command, pairs }
    }

    fn get<T: std::str::FromStr>(&self, key: &str) -> Option<T> {
        let (_, v) = self.pairs.iter().find(|(k, _)| k == key)?;
        match v.parse() {
            Ok(x) => Some(x),
            Err(_) => fail(&format!("bad value `{v}` for `{key}`")),
        }
    }
}

fn main() {
    // Every workload pins the compute pool to one thread: two pool threads
    // on two shared vCPUs are slower *and* noisier (see README).
    apt_tensor::par::set_global_threads(1);
    harness::ref_kernel();
    let args = Args::parse();
    let seed = args.get("--seed").unwrap_or(1u64);
    let seconds = args.get("--seconds").unwrap_or(18.0f64);
    match args.command.as_deref() {
        Some("selfcheck") => selfcheck::run(args.get("--runs").unwrap_or(5), seconds),
        Some("all") => {
            let outcomes = run_all(seed, seconds);
            outcomes.iter().for_each(print_human);
            let lines: Vec<String> = outcomes
                .iter()
                .map(|o| format!("\"{}\": {}", o.name, result_json(o)))
                .collect();
            println!("{{{}}}", lines.join(", "));
            if outcomes.iter().any(|o| o.failed > 0) {
                std::process::exit(1);
            }
        }
        Some(other) => fail(&format!(
            "unknown command `{other}` (known: all, selfcheck)"
        )),
        None => {
            let Some(name) = args.get::<String>("--workload") else {
                fail("give --workload <name>, or the `all` or `selfcheck` command");
            };
            let trace = args.get::<u8>("--trace").unwrap_or(0) != 0;
            let o = run_one(&name, seed, seconds, trace);
            print_human(&o);
            println!("{}", result_json(&o));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the tables above name the same things.
    #[test]
    fn benchmark_json_names_every_metric_and_workload() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        for name in WORKLOADS {
            assert!(
                text.contains(&format!("\"name\": \"{name}\"")),
                "workload {name}"
            );
        }
        for (name, unit, better, bound) in END_TO_END {
            let better = if better == Better::Lower {
                "lower"
            } else {
                "higher"
            };
            let entry = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}"
            );
            assert!(text.contains(&entry), "end-to-end entry {entry}");
        }
        for (name, unit) in PER_LAYER {
            assert!(
                text.contains(&format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "per-layer metric {name}"
            );
        }
        let entries = text.matches("\"name\": ").count();
        assert_eq!(
            entries,
            WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len()
        );
    }
}
