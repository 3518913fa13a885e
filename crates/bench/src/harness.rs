//! What the five gate binaries (`memory`, `kernels`, `serving`,
//! `distributed`, `fault-campaign`) share: where outputs go, how a
//! `BENCH_*.json` record is laid out, how a smoke gate reports, and paired
//! timing.

use apt_metrics::Table;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Row keys of the committed `BENCH_*.json` records, in file order, each
/// written as the header line of its CSV. A trajectory across PRs is only
/// diffable while these hold, so they are named here once: the binaries
/// build their tables from them ([`table`]) and `tests/harness.rs` pins
/// them against the recorded files.
pub mod schema {
    /// `BENCH_memory.json` → `cells`.
    pub const MEMORY: &str = "backend,bits,params,resident_bytes,memory_bits,\
         measured_live_bytes,peak_live_bytes,checkpoint_bytes";
    /// `BENCH_memory.json` → `training_step`.
    pub const MEMORY_STEP: &str = "model,batch,peak_above_bytes,retained_bytes";
    /// `BENCH_kernels.json` → `cells`.
    pub const KERNELS: &str = "op,shape,ns_per_iter,gflops";
    /// `BENCH_kernels.json` → `memory_bound`.
    pub const KERNELS_MEMORY_BOUND: &str = "op,shape,ns_per_iter,bytes,gbytes_per_s";
    /// `BENCH_serving.json` → `cells`.
    pub const SERVING: &str = "cell,bits,lane,policy,max_batch,max_delay_us,clients,\
         requests,ok,shed,deadline_expired,corrupted,lost,refused_accept,idle_reaped,\
         slow_reaped,wall_ms,rps,p50_us,p90_us,p99_us,mean_batch,swaps,evictions,\
         quarantines,model_unavailable,swap_p99_us";
    /// `BENCH_distributed.json` → `cells`.
    pub const DISTRIBUTED: &str = "world,bits,steps,wall_ms,final_accuracy,bytes_on_wire,\
         fp32_bytes,wire_ratio,digest_checks,deterministic,lockstep";
    /// `BENCH_distributed.json` → `recovery`.
    pub const DISTRIBUTED_RECOVERY: &str =
        "rank,at_step,recovery_rounds,clean_wall_ms,hurt_wall_ms,bit_identical";
}

/// An empty table over a comma-separated column list.
pub fn table(columns: &str) -> Table {
    Table::new(&columns.split(',').collect::<Vec<_>>())
}

/// A table row: each value through `to_string`, in column order.
#[macro_export]
macro_rules! row {
    ($($cell:expr),* $(,)?) => { vec![$($cell.to_string()),*] };
}

/// The host's core count, recorded beside a `BENCH_*.json` record's cells
/// (every cell computes on one thread).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `true` when the process was started with `--smoke`.
pub fn smoke_flag() -> bool {
    std::env::args().skip(1).any(|a| a == "--smoke")
}

/// The argument following `flag` on the command line, if both are there.
pub fn arg_value(flag: &str) -> Option<String> {
    let mut args = std::env::args().skip(1);
    args.find(|a| a == flag).and_then(|_| args.next())
}

/// Where an output goes. A full run writes `full` as given — the committed
/// `BENCH_<bin>.json` record or a file under `results/`. A `--smoke` run
/// measures reduced cells, so it never touches a committed record: it
/// writes `results/<bin>_smoke.<ext>`, a name `.gitignore` ignores.
pub fn output_path(smoke: bool, full: &str) -> PathBuf {
    let full = Path::new(full);
    if !smoke {
        return full.to_path_buf();
    }
    let stem = full.file_stem().unwrap_or_default().to_string_lossy();
    let ext = full.extension().unwrap_or_default().to_string_lossy();
    let stem = stem.strip_prefix("BENCH_").unwrap_or(&stem);
    Path::new("results").join(format!("{stem}_smoke.{ext}"))
}

/// Writes `contents` to [`output_path`]`(smoke, full)` and says so.
///
/// # Panics
///
/// If the file or its directory cannot be written — a benchmark whose
/// record is lost has not run.
pub fn write_output(smoke: bool, full: &str, contents: &str) {
    let path = output_path(smoke, full);
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, contents));
    if let Err(e) = written {
        panic!("write {}: {e}", path.display());
    }
    println!("wrote {}", path.display());
}

/// Lays out a `BENCH_*.json` record: the `head` fields, one per line (each
/// value already JSON text), then one array of row objects per table.
pub fn json_doc(head: &[(&str, String)], arrays: &[(&str, &Table)]) -> String {
    let mut fields: Vec<String> = head.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    for (key, table) in arrays {
        fields.push(format!("\"{key}\": [\n{}\n]", table.to_json_rows()));
    }
    format!("{{\n{}\n}}\n", fields.join(",\n"))
}

/// The numbered acceptance checks of one `--smoke` run. Every gate opens
/// with `# smoke gate N: …`; a check that does not hold prints `FAIL: …`
/// under it and fails the run; a gate whose checks all held may print
/// `ok: …`.
#[derive(Debug)]
pub struct Gates<W: Write> {
    out: W,
    gate: usize,
    failed: usize,
    failed_before_gate: usize,
}

impl Gates<std::io::Stdout> {
    /// Gates that report on standard output.
    pub fn stdout() -> Self {
        Gates::to(std::io::stdout())
    }
}

impl<W: Write> Gates<W> {
    /// Gates that report to `out`.
    pub fn to(out: W) -> Self {
        Gates {
            out,
            gate: 0,
            failed: 0,
            failed_before_gate: 0,
        }
    }

    fn line(&mut self, line: std::fmt::Arguments<'_>) {
        writeln!(self.out, "{line}").expect("gate report is writable");
    }

    /// Opens the next gate under its number.
    pub fn open(&mut self, what: impl std::fmt::Display) {
        self.gate += 1;
        self.failed_before_gate = self.failed;
        let n = self.gate;
        self.line(format_args!("# smoke gate {n}: {what}"));
    }

    /// One check of the open gate: prints `FAIL: {otherwise}` and fails the
    /// run unless `holds`, which it returns.
    pub fn check(&mut self, holds: bool, otherwise: impl std::fmt::Display) -> bool {
        if !holds {
            self.failed += 1;
            self.line(format_args!("FAIL: {otherwise}"));
        }
        holds
    }

    /// Prints `ok: {summary}` if every check of the open gate held.
    pub fn pass(&mut self, summary: impl std::fmt::Display) {
        if self.failed == self.failed_before_gate {
            self.line(format_args!("ok: {summary}"));
        }
    }

    /// Closes the run: the verdict line and the process's exit status.
    pub fn finish(mut self) -> ExitCode {
        if self.failed == 0 {
            self.line(format_args!("smoke: all gates passed"));
            ExitCode::SUCCESS
        } else {
            let n = self.failed;
            self.line(format_args!("smoke: {n} check(s) failed"));
            ExitCode::FAILURE
        }
    }
}

/// `true` when both slices hold the same `f32` bit patterns — the
/// comparison every bit-identity gate makes (`==` would pass `0.0`/`-0.0`
/// and fail equal NaNs).
pub fn bit_identical(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Paired timing for the smoke gates: interleaves `a` and `b` over
/// `rounds` rounds, best-of-3 within each round, and returns the per-round
/// `(a_ns, b_ns)`. Shared CI hosts drift through multi-second throughput
/// phases, so a single timing of each side is a coin flip; interleaving
/// puts both sides in the same phase and the gates judge the MEDIAN of
/// the per-round figures.
pub fn paired_rounds(rounds: usize, a: &dyn Fn(), b: &dyn Fn()) -> Vec<(f64, f64)> {
    (0..rounds)
        .map(|_| {
            let (mut a_ns, mut b_ns) = (f64::MAX, f64::MAX);
            for _ in 0..3 {
                let t = Instant::now();
                a();
                a_ns = a_ns.min(t.elapsed().as_secs_f64() * 1e9);
                let t = Instant::now();
                b();
                b_ns = b_ns.min(t.elapsed().as_secs_f64() * 1e9);
            }
            (a_ns, b_ns)
        })
        .collect()
}

/// The median (upper, for an even count) of a non-empty set of finite
/// figures.
pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    v[v.len() / 2]
}
