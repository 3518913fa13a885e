//! kernels — compute-backend micro-benchmark and determinism gate.
//!
//! Sweeps op × shape × thread-count over the parallelised hot-path kernels
//! (matmul variants, conv2d forward/backward, softmax, pooling,
//! quantise/dequantise, elementwise), timing each cell with
//! `std::time::Instant` and writing:
//!
//! * `results/kernels.csv` — one row per cell,
//! * `BENCH_kernels.json` (repo root) — the same data as machine-readable
//!   JSON, plus the machine's available parallelism and which f32 GEMM
//!   micro-kernel ran (`"simd"`: `avx2` or `portable` — the same cells read
//!   ~1.6× apart between the two, so the file says which it recorded).
//!
//! ```text
//! cargo run --release -p apt-bench --bin kernels             # full sweep
//! cargo run --release -p apt-bench --bin kernels -- --smoke  # CI gate
//! cargo run --release -p apt-bench --bin kernels -- --threads 1,2,4
//! ```
//!
//! `--smoke` is the CI acceptance gate. It asserts that
//!
//! 1. every parallelised op is **bit-identical** across thread counts
//!    {1, 2, 3, 7} (`f32::to_bits` comparison against the 1-thread run),
//! 2. the register-tiled serial matmul beats the old naive zero-skip
//!    kernel (kept here as a reference implementation) by ≥ 1.25× where
//!    `gemm_isa()` reports the `avx2` micro-kernel, and is at least as
//!    fast within a 10 % timer tolerance on the portable one (paired
//!    interleaved rounds, median ratio — robust to shared-host noise),
//! 3. on machines with ≥ 4 cores, 4-thread 256³ matmul reaches ≥ 1.5×
//!    the 1-thread throughput (skipped, loudly, on smaller machines),
//! 4. the integer GEMM holds an absolute GOP/s floor at 256³
//!    single-thread (its ratio to the f32 matmul is printed from paired
//!    rounds, ungated: the f32 kernel is runtime-dispatched to AVX2 and the
//!    integer one is not, so the ratio says which host ran, not whether
//!    the integer kernel regressed),
//! 5. branch-free quantize/dequantize stay above absolute Gelem/s floors
//!    (a regression to the old branchy loops is ~100× and trips them),
//! 6. the freeze compiler's fused conv+bias+ReLU kernel is bit-identical
//!    to the unfused conv → bias → ReLU sequence and at least as fast
//!    within timer tolerance (paired rounds, median ratio).

use apt_bench::results_dir;
use apt_quant::{AffineQuantizer, Bitwidth};
use apt_tensor::ops::conv::{conv2d, conv2d_backward_input, conv2d_backward_weight, Conv2dParams};
use apt_tensor::ops::fused;
use apt_tensor::ops::int_gemm::{self, gemm_i8_rescale, IntRescale};
use apt_tensor::ops::pool::max_pool2d;
use apt_tensor::ops::softmax::softmax_rows;
use apt_tensor::ops::{add, gemm_isa, matmul, matmul_a_bt, matmul_at_b};
use apt_tensor::{par, rng, Tensor};
use std::io::Write as _;
use std::time::Instant;

/// Target wall time per measured cell; iteration counts adapt to hit it.
const TARGET_SECS: f64 = 0.2;

/// One benchmarkable kernel: a name, a shape label, a nominal op count per
/// invocation (for the GFLOP/s column; elementwise/quantise ops count one
/// op per element), and the invocation itself returning a checksum tensor
/// view used by the smoke bit-exactness gate.
struct Kernel {
    op: &'static str,
    shape: String,
    flops: f64,
    run: Box<dyn Fn() -> Vec<f32>>,
}

fn tensor(dims: &[usize], seed: u64) -> Tensor {
    rng::normal(dims, 1.0, &mut rng::seeded(seed))
}

fn kernels() -> Vec<Kernel> {
    let mut v = Vec::new();

    for &s in &[128usize, 256] {
        let a = tensor(&[s, s], 1);
        let b = tensor(&[s, s], 2);
        v.push(Kernel {
            op: "matmul",
            shape: format!("{s}x{s}x{s}"),
            flops: 2.0 * (s * s * s) as f64,
            run: Box::new(move || matmul(&a, &b).unwrap().data().to_vec()),
        });
    }
    {
        let s = 256usize;
        let a = tensor(&[s, s], 3);
        let b = tensor(&[s, s], 4);
        v.push(Kernel {
            op: "matmul_at_b",
            shape: format!("{s}x{s}x{s}"),
            flops: 2.0 * (s * s * s) as f64,
            run: Box::new(move || matmul_at_b(&a, &b).unwrap().data().to_vec()),
        });
        let a2 = tensor(&[s, s], 5);
        let b2 = tensor(&[s, s], 6);
        v.push(Kernel {
            op: "matmul_a_bt",
            shape: format!("{s}x{s}x{s}"),
            flops: 2.0 * (s * s * s) as f64,
            run: Box::new(move || matmul_a_bt(&a2, &b2).unwrap().data().to_vec()),
        });
    }

    {
        // conv: 8 images, 8→16 channels, 16×16, 3×3 kernel, pad 1.
        let (n, c_in, c_out, hw, k) = (8usize, 8usize, 16usize, 16usize, 3usize);
        let p = Conv2dParams::new(1, 1, 1);
        let x = tensor(&[n, c_in, hw, hw], 7);
        let w = tensor(&[c_out, c_in, k, k], 8);
        let col_rows = c_in * k * k;
        let col_w = hw * hw; // pad 1, stride 1 → same spatial size
        let flops = 2.0 * (n * c_out * col_rows * col_w) as f64;
        let shape = format!("{n}x{c_in}->{c_out}x{hw}x{hw}k{k}");
        let (xf, wf, pf) = (x.clone(), w.clone(), p);
        v.push(Kernel {
            op: "conv2d",
            shape: shape.clone(),
            flops,
            run: Box::new(move || conv2d(&xf, &wf, &pf).unwrap().data().to_vec()),
        });
        let go = tensor(&[n, c_out, hw, hw], 9);
        let dims = [n, c_in, hw, hw];
        let (gob, wb, pb) = (go.clone(), w.clone(), p);
        v.push(Kernel {
            op: "conv2d_bwd_input",
            shape: shape.clone(),
            flops,
            run: Box::new(move || {
                conv2d_backward_input(&gob, &wb, &dims, &pb)
                    .unwrap()
                    .data()
                    .to_vec()
            }),
        });
        v.push(Kernel {
            op: "conv2d_bwd_weight",
            shape: shape.clone(),
            flops,
            run: Box::new(move || {
                conv2d_backward_weight(&x, &go, &[c_out, c_in, k, k], &p)
                    .unwrap()
                    .data()
                    .to_vec()
            }),
        });
        // The freeze compiler's fused serving kernel: same conv
        // decomposition with the bias add and ReLU applied in-slice.
        let xs = tensor(&[n, c_in, hw, hw], 7).data().to_vec();
        let ws = tensor(&[c_out, c_in, k, k], 8).data().to_vec();
        let bias = tensor(&[c_out], 12).data().to_vec();
        let out_len = n * c_out * hw * hw;
        v.push(Kernel {
            op: "conv2d_bias_relu",
            shape,
            flops,
            run: Box::new(move || {
                let mut out = vec![0.0f32; out_len];
                fused::conv2d_bias_act(
                    &xs,
                    &ws,
                    &mut out,
                    n,
                    c_in,
                    hw,
                    hw,
                    c_out,
                    k,
                    &p,
                    Some(&bias),
                    fused::Epilogue::Relu,
                )
                .unwrap();
                out
            }),
        });
    }

    {
        let x = tensor(&[1024, 256], 10);
        v.push(Kernel {
            op: "softmax_rows",
            shape: "1024x256".into(),
            flops: (4 * 1024 * 256) as f64,
            run: Box::new(move || softmax_rows(&x).unwrap().data().to_vec()),
        });
    }
    {
        let x = tensor(&[8, 16, 32, 32], 11);
        v.push(Kernel {
            op: "max_pool2d",
            shape: "8x16x32x32k2".into(),
            flops: (8 * 16 * 32 * 32) as f64,
            run: Box::new(move || max_pool2d(&x, 2).unwrap().output.data().to_vec()),
        });
    }
    {
        // Fused integer GEMM (the dequant-free serving kernel): i8 codes,
        // k=4 centered weight codes, per-channel rescale + bias folded in.
        let s = 256usize;
        let mut r = rng::seeded(15);
        let a: Vec<i8> = rng::normal(&[s * s], 1.0, &mut r)
            .data()
            .iter()
            .map(|v| (v * 40.0).clamp(-128.0, 127.0) as i8)
            .collect();
        let w: Vec<i8> = rng::normal(&[s * s], 1.0, &mut r)
            .data()
            .iter()
            .map(|v| (v * 4.0).clamp(-8.0, 7.0) as i8)
            .collect();
        let w_sum: Vec<i64> = (0..s)
            .map(|o| w[o * s..(o + 1) * s].iter().map(|&v| i64::from(v)).sum())
            .collect();
        let act_sum: Vec<i64> = (0..s)
            .map(|i| a[i * s..(i + 1) * s].iter().map(|&v| i64::from(v)).sum())
            .collect();
        let w_scale = vec![0.02f32; s];
        let w_dw = vec![1i32; s];
        let act_scale = vec![0.01f32; s];
        let act_dx = vec![3i32; s];
        let bias = vec![0.1f32; s];
        v.push(Kernel {
            op: "i8_gemm",
            shape: format!("{s}x{s}x{s}"),
            flops: 2.0 * (s * s * s) as f64,
            run: Box::new(move || {
                let mut out = vec![0.0f32; s * s];
                let p = IntRescale {
                    w_scale: &w_scale,
                    w_dw: &w_dw,
                    w_sum: &w_sum,
                    act_scale: &act_scale,
                    act_dx: &act_dx,
                    act_sum: &act_sum,
                    bias: Some(&bias),
                };
                gemm_i8_rescale(&a, &w, &mut out, s, s, s, &p);
                out
            }),
        });
    }
    {
        let n = 1 << 20;
        let x = tensor(&[n], 12);
        let q = AffineQuantizer::from_tensor(&x, Bitwidth::new(8).unwrap()).unwrap();
        let codes = q.quantize_tensor(&x);
        let (xq, qq) = (x.clone(), q);
        v.push(Kernel {
            op: "quantize",
            shape: format!("{n}"),
            flops: n as f64,
            run: Box::new(move || qq.quantize_tensor(&xq).iter().map(|&c| c as f32).collect()),
        });
        v.push(Kernel {
            op: "dequantize",
            shape: format!("{n}"),
            flops: n as f64,
            run: Box::new(move || q.dequantize_tensor(&codes, &[n]).unwrap().data().to_vec()),
        });
    }
    {
        let n = 1 << 20;
        let a = tensor(&[n], 13);
        let b = tensor(&[n], 14);
        v.push(Kernel {
            op: "add",
            shape: format!("{n}"),
            flops: n as f64,
            run: Box::new(move || add(&a, &b).unwrap().data().to_vec()),
        });
    }
    v
}

/// Times one kernel: warm up once, pick an iteration count targeting
/// [`TARGET_SECS`], report mean ns/iter.
fn time_kernel(k: &Kernel) -> f64 {
    let t0 = Instant::now();
    let sink = (k.run)();
    std::hint::black_box(&sink);
    let once = t0.elapsed().as_secs_f64().max(1e-9);
    let iters = ((TARGET_SECS / once).ceil() as usize).clamp(3, 2000);
    let t1 = Instant::now();
    for _ in 0..iters {
        std::hint::black_box((k.run)());
    }
    t1.elapsed().as_secs_f64() * 1e9 / iters as f64
}

struct Row {
    op: String,
    shape: String,
    threads: usize,
    ns_per_iter: f64,
    gflops: f64,
    speedup_vs_1t: f64,
}

fn sweep(thread_counts: &[usize]) -> Vec<Row> {
    let mut rows = Vec::new();
    for k in kernels() {
        let mut ns_1t = f64::NAN;
        for &t in thread_counts {
            let ns = par::with_threads(t, || time_kernel(&k));
            if t == 1 {
                ns_1t = ns;
            }
            let row = Row {
                op: k.op.into(),
                shape: k.shape.clone(),
                threads: t,
                ns_per_iter: ns,
                gflops: k.flops / ns,
                speedup_vs_1t: if ns_1t.is_finite() { ns_1t / ns } else { 1.0 },
            };
            println!(
                "{:<18} {:<22} threads={:<2} {:>12.0} ns/iter {:>7.2} GFLOP/s {:>5.2}x",
                row.op, row.shape, row.threads, row.ns_per_iter, row.gflops, row.speedup_vs_1t
            );
            rows.push(row);
        }
    }
    rows
}

fn write_outputs(rows: &[Row]) {
    let csv_path = results_dir().join("kernels.csv");
    let simd = gemm_isa();
    let mut csv = String::from("op,shape,threads,ns_per_iter,gflops,speedup_vs_1t,simd\n");
    for r in rows {
        csv.push_str(&format!(
            "{},{},{},{:.1},{:.4},{:.4},{simd}\n",
            r.op, r.shape, r.threads, r.ns_per_iter, r.gflops, r.speedup_vs_1t
        ));
    }
    std::fs::write(&csv_path, &csv).expect("write kernels.csv");
    println!("wrote {}", csv_path.display());

    let cells: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "  {{\"op\":\"{}\",\"shape\":\"{}\",\"threads\":{},\
                 \"ns_per_iter\":{:.1},\"gflops\":{:.4},\"speedup_vs_1t\":{:.4}}}",
                r.op, r.shape, r.threads, r.ns_per_iter, r.gflops, r.speedup_vs_1t
            )
        })
        .collect();
    let json = format!(
        "{{\n\"available_parallelism\": {},\n\"simd\": \"{simd}\",\n\"cells\": [\n{}\n]\n}}\n",
        par::default_threads(),
        cells.join(",\n")
    );
    let mut f = std::fs::File::create("BENCH_kernels.json").expect("create BENCH_kernels.json");
    f.write_all(json.as_bytes())
        .expect("write BENCH_kernels.json");
    println!("wrote BENCH_kernels.json");
}

/// The old naive matmul kernel (pre-blocking, with the zero-skip branch)
/// kept verbatim as the smoke-test performance reference.
fn naive_matmul(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        for kk in 0..k {
            let aik = a[i * k + kk];
            if aik == 0.0 {
                continue;
            }
            let b_row = &b[kk * n..(kk + 1) * n];
            let c_row = &mut c[i * n..(i + 1) * n];
            for (cv, &bv) in c_row.iter_mut().zip(b_row) {
                *cv += aik * bv;
            }
        }
    }
}

/// Paired timing for the smoke gates: interleaves `a` and `b` over five
/// rounds, best-of-3 within each round, and returns the per-round
/// `(a_ns, b_ns)`. Shared CI hosts drift through multi-second throughput
/// phases, so a single timing of each side is a coin flip; interleaving
/// puts both sides in the same phase and the gates judge the MEDIAN of
/// the per-round figures.
fn paired_rounds(a: &dyn Fn(), b: &dyn Fn()) -> Vec<(f64, f64)> {
    (0..5)
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

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v[v.len() / 2]
}

fn smoke() -> bool {
    let mut ok = true;

    // Gate 1: bit-exactness across thread counts for every kernel.
    println!("# smoke gate 1: bit-exactness across threads {{1, 2, 3, 7}}");
    for k in kernels() {
        let reference = par::with_threads(1, || (k.run)());
        for t in [2usize, 3, 7] {
            let got = par::with_threads(t, || (k.run)());
            let bitwise_equal = reference.len() == got.len()
                && reference
                    .iter()
                    .zip(&got)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            if !bitwise_equal {
                eprintln!("FAIL: {} ({}) differs at {} threads", k.op, k.shape, t);
                ok = false;
            }
        }
        println!("  {:<18} {:<22} bit-identical", k.op, k.shape);
    }

    // Gate 2: the register-tiled serial matmul against the old naive
    // kernel, which streams C through memory. The AVX2 micro-kernel runs
    // 1.8–3.2x that loop and the floor protects the lead; the portable tile
    // is compiled for the same baseline ISA as the naive loop, so there it
    // only must not lose (10 % tolerance absorbs timer noise).
    let simd = gemm_isa();
    let tiled_floor = if simd == "avx2" { 1.25 } else { 0.90 };
    println!(
        "# smoke gate 2: tiled serial matmul vs old naive kernel (192^3, paired rounds; \
         `{simd}` micro-kernel, floor {tiled_floor}x)"
    );
    {
        let s = 192usize;
        let a = tensor(&[s, s], 21);
        let b = tensor(&[s, s], 22);
        let rounds = par::with_threads(1, || {
            paired_rounds(
                &|| {
                    let mut c = vec![0.0f32; s * s];
                    naive_matmul(a.data(), b.data(), &mut c, s, s, s);
                    std::hint::black_box(&c);
                },
                &|| {
                    std::hint::black_box(matmul(&a, &b).unwrap());
                },
            )
        });
        for (round, (naive_ns, tiled_ns)) in rounds.iter().enumerate() {
            println!(
                "  round {round}: naive {:.2} ms, tiled {:.2} ms ({:.2}x)",
                naive_ns / 1e6,
                tiled_ns / 1e6,
                naive_ns / tiled_ns
            );
        }
        let ratio = median(rounds.iter().map(|(n, t)| n / t).collect());
        println!("  median naive/tiled ratio {ratio:.2}x (floor {tiled_floor}x)");
        if ratio < tiled_floor {
            eprintln!(
                "FAIL: tiled serial matmul below {tiled_floor}x the old naive kernel (median)"
            );
            ok = false;
        }
    }

    // Gate 3: multi-thread speedup, only meaningful with enough cores.
    let cores = par::default_threads();
    if cores >= 4 {
        println!("# smoke gate 3: 4-thread 256^3 matmul speedup (machine has {cores} cores)");
        let s = 256usize;
        let a = tensor(&[s, s], 23);
        let b = tensor(&[s, s], 24);
        let bench = |t: usize| {
            par::with_threads(t, || {
                std::hint::black_box(matmul(&a, &b).unwrap()); // warm up
                let iters = 12;
                let t0 = Instant::now();
                for _ in 0..iters {
                    std::hint::black_box(matmul(&a, &b).unwrap());
                }
                t0.elapsed().as_secs_f64() / iters as f64
            })
        };
        let t1 = bench(1);
        let t4 = bench(4);
        println!(
            "  1t {:.2} ms, 4t {:.2} ms ({:.2}x)",
            t1 * 1e3,
            t4 * 1e3,
            t1 / t4
        );
        if t1 / t4 < 1.5 {
            eprintln!("FAIL: expected >= 1.5x speedup at 4 threads on a >= 4-core machine");
            ok = false;
        }
    } else {
        println!("# smoke gate 3 SKIPPED: only {cores} core(s) available, need >= 4");
    }

    // Gate 4: the integer GEMM at 256^3, single thread, against an
    // absolute floor: ~40 % of the worst round observed on the reference
    // CI host (15 GOP/s across machine phases) — a regression tripwire for
    // the kernel, as gate 5 is for quantize/dequantize. Its ratio to the
    // f32 matmul is printed from the paired rounds but not gated: the f32
    // GEMM dispatches to an AVX2 micro-kernel and the staged integer kernel
    // does not (DESIGN.md section 14), so the ratio says which host ran.
    println!("# smoke gate 4: i8 GEMM floor (256^3, 1 thread, paired rounds with f32 matmul)");
    const I8_FLOOR_GOPS: f64 = 6.0;
    {
        let s = 256usize;
        let mut r = rng::seeded(15);
        let af = rng::normal(&[s, s], 1.0, &mut r);
        let bf = rng::normal(&[s, s], 1.0, &mut r);
        let a8: Vec<i8> = (0..s * s)
            .map(|i| (((i * 7) % 255) as i32 - 127) as i8)
            .collect();
        let w8: Vec<i8> = (0..s * s)
            .map(|i| (((i * 13) % 15) as i32 - 7) as i8)
            .collect();
        let flops = 2.0 * (s * s * s) as f64;
        let rounds = par::with_threads(1, || {
            paired_rounds(
                &|| {
                    std::hint::black_box(matmul(&af, &bf).unwrap());
                },
                &|| {
                    let mut c = vec![0i32; s * s];
                    int_gemm::gemm_i8(&a8, &w8, &mut c, s, s, s);
                    std::hint::black_box(&c);
                },
            )
        });
        for (round, (f32_ns, i8_ns)) in rounds.iter().enumerate() {
            println!(
                "  round {round}: i8 {:.2} GOP/s, f32 {:.2} GFLOP/s ({:.2}x)",
                flops / i8_ns,
                flops / f32_ns,
                f32_ns / i8_ns
            );
        }
        let ratio = median(rounds.iter().map(|(f, i)| f / i).collect());
        let i8_gops = median(rounds.iter().map(|(_, i)| flops / i).collect());
        println!("  median i8/f32 ratio {ratio:.2}x (ungated; f32 micro-kernel: `{simd}`)");
        println!("  median i8 rate {i8_gops:.2} GOP/s (floor {I8_FLOOR_GOPS})");
        if i8_gops < I8_FLOOR_GOPS {
            eprintln!("FAIL: i8 GEMM below the {I8_FLOOR_GOPS} GOP/s floor at 256^3 (median)");
            ok = false;
        }
    }
    let all = kernels();
    let cell = |op: &str| {
        all.iter()
            .find(|k| k.op == op)
            .unwrap_or_else(|| panic!("missing kernel cell `{op}`"))
    };
    let measure_1t = |k: &Kernel| par::with_threads(1, || time_kernel(k));

    // Gate 5: branch-free quantize/dequantize absolute throughput floors.
    // Set at ~40% of the worst observed single-thread rate on the
    // reference CI host (0.14 / 0.45 Gelem/s across machine phases), so a
    // regression to the old branchy inner loops (~100x slower) trips the
    // gate without flaking on a slow phase.
    println!("# smoke gate 5: quantize/dequantize throughput floors (1 thread)");
    const QUANT_FLOOR_GELEMS: f64 = 0.06;
    const DEQUANT_FLOOR_GELEMS: f64 = 0.18;
    for (op, floor) in [
        ("quantize", QUANT_FLOOR_GELEMS),
        ("dequantize", DEQUANT_FLOOR_GELEMS),
    ] {
        let k = cell(op);
        let ns = measure_1t(k);
        let gelems = k.flops / ns;
        println!("  {op:<10} {gelems:.3} Gelem/s (floor {floor})");
        if gelems < floor {
            eprintln!("FAIL: {op} below the {floor} Gelem/s floor");
            ok = false;
        }
    }

    // Gate 6: the freeze compiler's fused conv+bias+ReLU kernel against
    // the unfused conv → bias add → ReLU sequence it replaces. The fused
    // form must be bit-identical (the compiled plan's correctness
    // contract: same gemm core, epilogue applied per element in the same
    // order) and at least as fast within the usual 10% timer tolerance —
    // it saves two full passes over the output and one allocation, which
    // is a small fraction of the im2col+gemm cost at this shape, so the
    // gate is a regression floor, not a speedup claim. Paired interleaved
    // rounds with a median ratio keep it robust on noisy hosts.
    println!("# smoke gate 6: fused conv+bias+relu vs unfused sequence (1 thread, paired rounds)");
    {
        let (n, c_in, c_out, hw, k) = (8usize, 8usize, 16usize, 16usize, 3usize);
        let p = Conv2dParams::new(1, 1, 1);
        let x = tensor(&[n, c_in, hw, hw], 31);
        let w = tensor(&[c_out, c_in, k, k], 32);
        let bias = tensor(&[c_out], 33).data().to_vec();
        let (xs, ws) = (x.data().to_vec(), w.data().to_vec());
        let out_len = n * c_out * hw * hw;
        let plane = hw * hw;

        let unfused = |threads: usize| {
            par::with_threads(threads, || {
                let mut out = conv2d(&x, &w, &p).unwrap().data().to_vec();
                for img in out.chunks_mut(c_out * plane) {
                    for (ch, row) in img.chunks_mut(plane).enumerate() {
                        let b = bias[ch];
                        for v in row {
                            *v = (*v + b).max(0.0);
                        }
                    }
                }
                out
            })
        };
        let fused_run = |threads: usize| {
            par::with_threads(threads, || {
                let mut out = vec![0.0f32; out_len];
                fused::conv2d_bias_act(
                    &xs,
                    &ws,
                    &mut out,
                    n,
                    c_in,
                    hw,
                    hw,
                    c_out,
                    k,
                    &p,
                    Some(&bias),
                    fused::Epilogue::Relu,
                )
                .unwrap();
                out
            })
        };
        for threads in [1usize, 3] {
            let want = unfused(threads);
            let got = fused_run(threads);
            let bitwise_equal = want.len() == got.len()
                && want
                    .iter()
                    .zip(&got)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            if bitwise_equal {
                println!("  fused == unfused bit-identical at {threads} thread(s)");
            } else {
                eprintln!("FAIL: fused conv+bias+relu differs from the unfused sequence at {threads} threads");
                ok = false;
            }
        }
        let rounds = par::with_threads(1, || {
            paired_rounds(
                &|| {
                    std::hint::black_box(unfused(1));
                },
                &|| {
                    std::hint::black_box(fused_run(1));
                },
            )
        });
        for (round, (unfused_ns, fused_ns)) in rounds.iter().enumerate() {
            println!(
                "  round {round}: fused {:.3} ms, unfused {:.3} ms ({:.2}x)",
                fused_ns / 1e6,
                unfused_ns / 1e6,
                unfused_ns / fused_ns
            );
        }
        let median = median(rounds.iter().map(|(u, f)| u / f).collect());
        println!("  median unfused/fused ratio {median:.2}x (floor 0.90x)");
        if median < 0.90 {
            eprintln!("FAIL: fused conv+bias+relu slower than the unfused sequence (median)");
            ok = false;
        }
    }

    ok
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    println!("# f32 GEMM micro-kernel: {}", gemm_isa());
    if args.iter().any(|a| a == "--smoke") {
        println!("# kernels --smoke: determinism + kernel regression gate");
        if !smoke() {
            std::process::exit(1);
        }
        println!("smoke: all gates passed");
        return;
    }

    let thread_counts: Vec<usize> = args
        .iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .map(|s| {
            s.split(',')
                .map(|p| match p.parse::<usize>() {
                    Ok(n) if n >= 1 => n,
                    _ => {
                        eprintln!(
                            "bad value `{p}` for --threads (want comma-separated counts ≥ 1)"
                        );
                        std::process::exit(2);
                    }
                })
                .collect()
        })
        .unwrap_or_else(|| vec![1, 2, 4]);

    println!(
        "# kernels: op x shape x threads sweep (machine has {} core(s))",
        par::default_threads()
    );
    let rows = sweep(&thread_counts);
    write_outputs(&rows);
}
