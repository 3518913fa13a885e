//! kernels — compute-backend micro-benchmark and determinism gate.
//!
//! Sweeps op × shape over the hot-path kernels (matmul variants, conv2d
//! forward/backward, softmax, pooling, batch-norm statistics,
//! quantise/dequantise, elementwise), timing each cell with
//! `std::time::Instant` and writing:
//!
//! * `results/kernels.csv` — one row per cell,
//! * `BENCH_kernels.json` (repo root) — the same data as machine-readable
//!   JSON, plus the machine's core count and which f32 GEMM
//!   micro-kernel ran (`"simd"`: `avx512`, `avx2` or `portable` — the same
//!   cells read up to ~2× apart between them, so the file says which it
//!   recorded), plus `"memory_bound"`: the conv training step's passes
//!   that do no arithmetic to speak of (batch-norm statistics, forward
//!   and backward, max-pool) at `[32, 16, 16, 16]`, each
//!   with the bytes it has to move and the rate it moved them at, beside
//!   an `add` over the same element count — what "memory speed" is here —
//!   and the guarded step's O(parameters) passes (integrity digest,
//!   finiteness screen, rail count, the Eq. 3 sweep, checkpoint
//!   serialisation and its CRC) at the `[768, 256, 256, 10]` MLP's
//!   inventory. Both modes print that table; nothing gates on it.
//!
//! ```text
//! cargo run --release -p apt-bench --bin kernels             # full sweep
//! cargo run --release -p apt-bench --bin kernels -- --smoke  # CI gate
//! ```
//!
//! Every kernel runs on the calling thread.
//!
//! `--smoke` is the CI acceptance gate. It asserts that
//!
//! 1. every op is **bit-identical** from one call to the next
//!    (`f32::to_bits` comparison; the first call grows the thread-local
//!    scratch, the second reuses it),
//! 2. the register-tiled serial matmul beats the old naive zero-skip
//!    kernel (kept here as a reference implementation) by ≥ 1.25× where
//!    `gemm_isa()` reports a wide micro-kernel (`avx2`, `avx512` —
//!    anything but `portable`), and is at least as fast within a 10 %
//!    timer tolerance on the portable one (paired interleaved rounds,
//!    median ratio — robust to shared-host noise),
//! 3. branch-free quantize/dequantize — `quantize_to_store` and
//!    `QuantizedTensor::to_tensor`, what every parameter is built and read
//!    through — stay above absolute Gelem/s floors (a regression to the
//!    old branchy loops is ~100× and trips them),
//! 4. the freeze compiler's fused conv+bias+ReLU kernel is bit-identical
//!    to the unfused conv → bias → ReLU sequence and at least as fast
//!    within timer tolerance (paired rounds, median ratio),
//! 5. a frozen plan's linear step at batch 1 (`linear_bias_act` on `Wᵀ`,
//!    1 × 256 × 256) is bit-identical to the layer path (`matmul_a_bt` +
//!    bias on `W`) and at least 1.5× as fast (paired rounds, median
//!    ratio): the guard against a plan sliding back to scalar dot chains.

use apt_bench::{
    available_parallelism, bit_identical, json_doc, median, paired_rounds, row, schema, smoke_flag,
    table, write_output, Gates,
};
use apt_metrics::Table;
use apt_nn::layers::BatchNorm2d;
use apt_nn::{checkpoint, models, Layer, Mode, ParamPrecision, ParamStore, QuantScheme};
use apt_quant::{AffineQuantizer, Bitwidth, QuantizedTensor, RoundingMode};
use apt_tensor::ops::conv::{conv2d, conv2d_backward_input, conv2d_backward_weight, Conv2dParams};
use apt_tensor::ops::fused;
use apt_tensor::ops::pool::max_pool2d;
use apt_tensor::ops::reduce::channel_mean_var;
use apt_tensor::ops::softmax::softmax_rows;
use apt_tensor::ops::{add, gemm_isa, matmul, matmul_a_bt, matmul_at_b, transpose};
use apt_tensor::{rng, Tensor};
use std::process::ExitCode;
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
        // A frozen plan's linear step at batch 1: `Wᵀ`, bias in the epilogue.
        let s = 256usize;
        let x = tensor(&[1, s], 25);
        let wt = transpose(&tensor(&[s, s], 26)).unwrap();
        let bias = tensor(&[s], 27);
        v.push(Kernel {
            op: "linear_bias_act",
            shape: format!("1x{s}x{s}"),
            flops: 2.0 * (s * s) as f64,
            run: Box::new(move || plan_linear(&x, &wt, &bias)),
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
        let (xf, bias) = (tensor(&[n, c_in, hw, hw], 7), tensor(&[c_out], 12));
        v.push(Kernel {
            op: "conv2d_bias_relu",
            shape,
            flops,
            run: Box::new(move || fused_conv_relu(&xf, &w, &bias)),
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
        // Batch-norm statistics at cifarnet's first activation: both
        // outputs, mean then variance.
        let x = tensor(&ACTIVATION, 16);
        v.push(Kernel {
            op: "channel_mean_var",
            shape: "32x16x16x16".into(),
            flops: (5 * x.len()) as f64,
            run: Box::new(move || {
                let (mean, var) = channel_mean_var(&x).unwrap();
                [mean.data(), var.data()].concat()
            }),
        });
    }
    {
        // What `Param::new`, `set_bits` and every forward actually run: a
        // slice quantised straight into its code tier, and the tier
        // dequantised into a tensor.
        let n = 1 << 20;
        let bits = Bitwidth::new(8).unwrap();
        let x = tensor(&[n], 12);
        let q = AffineQuantizer::from_tensor(&x, bits).unwrap();
        let stored = QuantizedTensor::from_tensor(&x, bits).unwrap();
        v.push(Kernel {
            op: "quantize_to_store",
            shape: format!("{n}"),
            flops: n as f64,
            run: Box::new(move || {
                // The store's resident words, folded, as the checksum: a
                // pass over n/8 words beside n calls to `round`.
                let (mut fold, mut last) = (0u64, 0u64);
                q.quantize_to_store(x.data())
                    .for_each_word_block(|[w]| fold = fold.rotate_left(7) ^ w, |w| last = w);
                fold = fold.rotate_left(7) ^ last;
                vec![
                    f32::from_bits(fold as u32),
                    f32::from_bits((fold >> 32) as u32),
                ]
            }),
        });
        v.push(Kernel {
            op: "dequantize_store",
            shape: format!("{n}"),
            flops: n as f64,
            run: Box::new(move || stored.to_tensor().into_vec()),
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

/// cifarnet's first activation at batch 32: the shape of the memory-bound
/// cells.
const ACTIVATION: [usize; 4] = [32, 16, 16, 16];

/// The guarded workload's model: what its O(parameters) passes walk.
const GUARDED_MLP: [usize; 4] = [768, 256, 256, 10];

/// The training steps' memory-bound passes: op, shape, ns per
/// call, the bytes the pass must move (each input element read once per
/// pass over it, each output element written once) and the rate that comes
/// to. `add` over the activation's element count is the yardstick: three
/// streams and one rounding per element.
fn memory_bound_cells() -> Table {
    let mut cells = table(schema::KERNELS_MEMORY_BOUND);
    // `less_ns` comes off the time: what `run` spends rebuilding the state
    // the measured pass consumes. Returns the time recorded.
    let mut cell = |op: &str, shape: &str, bytes: usize, less_ns: f64, run: &mut dyn FnMut()| {
        let ns = time_ns(run) - less_ns;
        cells.push_row(row![
            op,
            shape,
            format!("{ns:.1}"),
            bytes,
            format!("{:.3}", bytes as f64 / ns)
        ]);
        ns
    };

    // The conv step, at cifarnet's first activation.
    let shape = "32x16x16x16";
    let n = ACTIVATION.iter().product::<usize>();
    let (x, dy) = (tensor(&ACTIVATION, 41), tensor(&ACTIVATION, 42));
    let (a, b) = (tensor(&[n], 43), tensor(&[n], 44));
    let mut bn = BatchNorm2d::new("bn", ACTIVATION[1], ParamPrecision::Float32)
        .expect("sixteen channels is a valid batch-norm");
    cell("add", shape, 4 * 3 * n, 0.0, &mut || {
        drop(std::hint::black_box(add(&a, &b)))
    });
    // Two passes over the input: the mean, then the variance.
    cell("channel_mean_var", shape, 4 * 2 * n, 0.0, &mut || {
        drop(std::hint::black_box(channel_mean_var(&x)))
    });
    // The statistics, then one pass reading x and writing x̂ and y.
    let forward_ns = cell("batchnorm_forward", shape, 4 * 5 * n, 0.0, &mut || {
        drop(std::hint::black_box(bn.forward(&x, Mode::Train)))
    });
    // dy and x̂ read for the two sums, read again to write dx. A backward
    // takes the x̂ its forward stashed, so each runs behind a forward whose
    // time comes off.
    cell(
        "batchnorm_backward",
        shape,
        4 * 5 * n,
        forward_ns,
        &mut || {
            drop(std::hint::black_box(bn.forward(&x, Mode::Train)));
            drop(std::hint::black_box(bn.backward(&dy)));
        },
    );
    // The input read once; a quarter as many maxima and one-byte window
    // offsets written.
    let pooled = 4 * (n + n / 4) + n / 4;
    cell("max_pool2d", shape, pooled, 0.0, &mut || {
        drop(std::hint::black_box(max_pool2d(&x, 2)))
    });

    // The guarded step, at its MLP's inventory: 6-bit weights one byte a
    // code, fp32 biases, momentum allocated on both.
    let shape = "768-256-256-10";
    let mut net = models::mlp(
        "mlp",
        &GUARDED_MLP,
        &QuantScheme::paper_apt(),
        &mut rng::seeded(7),
    )
    .expect("the guarded MLP is a valid configuration");
    net.visit_params(&mut |p| {
        let dims = p.dims().to_vec();
        *p.velocity_mut() = rng::normal(&dims, 0.01, &mut rng::seeded(45));
    });
    let (mut params, mut codes) = (0, 0);
    net.visit_params_ref(&mut |p| {
        params += p.len();
        if let ParamStore::Quantized(q) = p.store() {
            codes += q.store().resident_bytes() as usize;
        }
    });
    // Every resident word of every store and momentum buffer, once.
    let resident = net.resident_bytes() as usize;
    cell("integrity_digest", shape, resident, 0.0, &mut || {
        drop(std::hint::black_box(net.integrity_digests()))
    });
    let grad = tensor(&[params], 46);
    cell("has_non_finite", shape, 4 * params, 0.0, &mut || {
        std::hint::black_box(std::hint::black_box(&grad).has_non_finite());
    });
    cell("count_rails", shape, codes, 0.0, &mut || {
        net.visit_params_ref(&mut |p| {
            std::hint::black_box(p.saturation_ratio());
        })
    });
    {
        // Eq. 3 under truncation at k = 6 with nine steps in ten under ε:
        // the gradient read twice (the finiteness screen, then the sweep),
        // the codes read and written back. Applied with alternating sign,
        // the codes return to where they started, so every call does the
        // same work; no gradient pushes a code past a rail.
        let weights = rng::normal(&[codes], 0.05, &mut rng::seeded(47));
        let mut q = QuantizedTensor::from_tensor(&weights, Bitwidth::new(6).unwrap())
            .expect("finite weights quantise");
        let eps = q.eps();
        let max = q.bits().num_steps() as i64;
        let mut g = rng::normal(&[codes], 0.6 * eps, &mut rng::seeded(48));
        for (g, code) in g.data_mut().iter_mut().zip(q.store().to_vec()) {
            let steps = (*g / eps) as i64;
            if !(steps.abs()..=max - steps.abs()).contains(&code) {
                *g = 0.0;
            }
        }
        let back = g.map(|x| -x);
        let mut r = rng::seeded(49);
        let mut forth = true;
        cell(
            "sgd_update",
            shape,
            (4 + 4 + 1 + 1) * codes,
            0.0,
            &mut || {
                let g = if forth { &g } else { &back };
                forth = !forth;
                let stats = q.sgd_update(g, 1.0, RoundingMode::Truncate, &mut r);
                let stats = stats.expect("finite operands");
                assert!(stats.expanded == 0 && (0.85..0.95).contains(&stats.underflow_rate()));
            },
        );
    }
    // Every store read, the blob written, then read again for its CRC.
    let blob = checkpoint::save_full(&mut net);
    let stores = resident - 4 * params;
    cell(
        "save_full",
        shape,
        stores + 2 * blob.len(),
        0.0,
        &mut || drop(std::hint::black_box(checkpoint::save_full(&mut net))),
    );
    cell("crc32", shape, blob.len(), 0.0, &mut || {
        std::hint::black_box(checkpoint::crc32(std::hint::black_box(&blob)));
    });
    cells
}

/// `conv2d` + bias + ReLU through the freeze compiler's fused kernel, at the
/// conv cell's stride-1, pad-1 geometry.
fn fused_conv_relu(x: &Tensor, w: &Tensor, bias: &Tensor) -> Vec<f32> {
    let (n, c_in, h, wd) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
    let (c_out, k) = (w.dims()[0], w.dims()[2]);
    let mut out = vec![0.0f32; n * c_out * h * wd];
    fused::conv2d_bias_act(
        x.data(),
        w.data(),
        &mut out,
        n,
        c_in,
        h,
        wd,
        c_out,
        k,
        &Conv2dParams::new(1, 1, 1),
        Some(bias.data()),
        fused::Epilogue::Relu,
    )
    .unwrap();
    out
}

/// A frozen plan's linear step, `x·W + b` with `W` given transposed (`Wᵀ`,
/// `[in_f × out_f]`), through the freeze compiler's fused kernel.
fn plan_linear(x: &Tensor, wt: &Tensor, bias: &Tensor) -> Vec<f32> {
    let (m, in_f, out_f) = (x.dims()[0], wt.dims()[0], wt.dims()[1]);
    let mut out = vec![0.0f32; m * out_f];
    fused::linear_bias_act(
        x.data(),
        wt.data(),
        &mut out,
        m,
        in_f,
        out_f,
        Some(bias.data()),
        fused::Epilogue::None,
    )
    .unwrap();
    out
}

/// Times one call: warm up once, pick an iteration count targeting
/// [`TARGET_SECS`], report mean ns/iter.
fn time_ns(run: &mut dyn FnMut()) -> f64 {
    let t0 = Instant::now();
    run();
    let once = t0.elapsed().as_secs_f64().max(1e-9);
    let iters = ((TARGET_SECS / once).ceil() as usize).clamp(3, 2000);
    let t1 = Instant::now();
    for _ in 0..iters {
        run();
    }
    t1.elapsed().as_secs_f64() * 1e9 / iters as f64
}

fn time_kernel(k: &Kernel) -> f64 {
    time_ns(&mut || drop(std::hint::black_box((k.run)())))
}

/// Times every kernel, prints the cells and writes `results/kernels.csv` +
/// `BENCH_kernels.json`.
fn sweep() {
    let mut cells = table(schema::KERNELS);
    for k in kernels() {
        let ns = time_kernel(&k);
        cells.push_row(row![
            k.op,
            k.shape,
            format!("{ns:.1}"),
            format!("{:.4}", k.flops / ns)
        ]);
    }
    println!("{cells}");
    write_output(false, "results/kernels.csv", &cells.to_csv());
    let memory_bound = memory_bound_cells();
    println!("{memory_bound}");
    let head = [
        ("available_parallelism", available_parallelism().to_string()),
        ("simd", format!("\"{}\"", gemm_isa())),
    ];
    let arrays = [("cells", &cells), ("memory_bound", &memory_bound)];
    let record = json_doc(&head, &arrays);
    write_output(false, "BENCH_kernels.json", &record);
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

fn smoke() -> ExitCode {
    let mut gates = Gates::stdout();

    // Gate 1: bit-exactness from one call to the next for every kernel.
    gates.open("bit-exactness call to call");
    for k in kernels() {
        let reference = (k.run)();
        gates.check(
            bit_identical(&reference, &(k.run)()),
            format_args!("{} ({}) differs on its second call", k.op, k.shape),
        );
        println!("  {:<18} {:<22} bit-identical", k.op, k.shape);
    }

    // Gate 2: the register-tiled serial matmul against the old naive
    // kernel, which streams C through memory. A wide micro-kernel runs
    // 1.8–3.2x that loop and the floor protects the lead; the portable tile
    // is compiled for the same baseline ISA as the naive loop, so there it
    // only must not lose (10 % tolerance absorbs timer noise).
    let simd = gemm_isa();
    let tiled_floor = tiled_floor_for(simd);
    gates.open(format_args!(
        "tiled serial matmul vs old naive kernel (192^3, paired rounds; \
         `{simd}` micro-kernel, floor {tiled_floor}x)"
    ));
    {
        let s = 192usize;
        let a = tensor(&[s, s], 21);
        let b = tensor(&[s, s], 22);
        let rounds = paired_rounds(
            5,
            &|| {
                let mut c = vec![0.0f32; s * s];
                naive_matmul(a.data(), b.data(), &mut c, s, s, s);
                std::hint::black_box(&c);
            },
            &|| {
                std::hint::black_box(matmul(&a, &b).unwrap());
            },
        );
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
        gates.check(
            ratio >= tiled_floor,
            format_args!("tiled serial matmul below {tiled_floor}x the old naive kernel (median)"),
        );
    }

    let all = kernels();
    let cell = |op: &str| {
        all.iter()
            .find(|k| k.op == op)
            .unwrap_or_else(|| panic!("missing kernel cell `{op}`"))
    };

    // Gate 3: branch-free quantize/dequantize absolute throughput floors.
    // Set at ~40% of the worst observed single-thread rate on the
    // reference CI host (0.14 / 0.45 Gelem/s across machine phases), so a
    // regression to the old branchy inner loops (~100x slower) trips the
    // gate without flaking on a slow phase.
    gates.open("quantize/dequantize throughput floors");
    const QUANT_FLOOR_GELEMS: f64 = 0.06;
    const DEQUANT_FLOOR_GELEMS: f64 = 0.18;
    for (op, floor) in [
        ("quantize_to_store", QUANT_FLOOR_GELEMS),
        ("dequantize_store", DEQUANT_FLOOR_GELEMS),
    ] {
        let k = cell(op);
        let ns = time_kernel(k);
        let gelems = k.flops / ns;
        println!("  {op:<17} {gelems:.3} Gelem/s (floor {floor})");
        gates.check(
            gelems >= floor,
            format_args!("{op} below the {floor} Gelem/s floor"),
        );
    }

    // Gate 4: the freeze compiler's fused conv+bias+ReLU kernel against
    // the unfused conv → bias add → ReLU sequence it replaces. The fused
    // form must be bit-identical (the compiled plan's correctness
    // contract: same gemm core, epilogue applied per element in the same
    // order) and at least as fast within the usual 10% timer tolerance —
    // it saves two full passes over the output and one allocation, which
    // is a small fraction of the im2col+gemm cost at this shape, so the
    // gate is a regression floor, not a speedup claim, and single rounds
    // read 0.85–0.99x on a shared host: the median of FUSED_ROUNDS paired
    // interleaved rounds keeps it robust.
    gates.open(format_args!(
        "fused conv+bias+relu vs unfused sequence ({FUSED_ROUNDS} paired rounds)"
    ));
    {
        let (n, c_in, c_out, hw, k) = (8usize, 8usize, 16usize, 16usize, 3usize);
        let p = Conv2dParams::new(1, 1, 1);
        let x = tensor(&[n, c_in, hw, hw], 31);
        let w = tensor(&[c_out, c_in, k, k], 32);
        let bias = tensor(&[c_out], 33);
        let plane = hw * hw;

        let unfused = || {
            let mut out = conv2d(&x, &w, &p).unwrap().data().to_vec();
            for img in out.chunks_mut(c_out * plane) {
                for (ch, row) in img.chunks_mut(plane).enumerate() {
                    let b = bias.data()[ch];
                    for v in row {
                        *v = (*v + b).max(0.0);
                    }
                }
            }
            out
        };
        let fused_run = || fused_conv_relu(&x, &w, &bias);
        let same = gates.check(
            bit_identical(&unfused(), &fused_run()),
            "fused conv+bias+relu differs from the unfused sequence",
        );
        if same {
            println!("  fused == unfused bit-identical");
        }
        let rounds = paired_rounds(
            FUSED_ROUNDS,
            &|| {
                std::hint::black_box(unfused());
            },
            &|| {
                std::hint::black_box(fused_run());
            },
        );
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
        gates.check(
            median >= 0.90,
            "fused conv+bias+relu slower than the unfused sequence (median)",
        );
    }

    // Gate 5: a frozen plan's linear step at batch 1 (`linear_bias_act`
    // on `Wᵀ`) against the layer path (`matmul_a_bt` + bias on `W`). Below
    // 8 rows the layer path runs four scalar dot chains at a time; the
    // plan runs the tile's wide row strip, eight vector chains. The two
    // must be bit-identical, and the plan at least PLAN_LINEAR_FLOOR× as
    // fast, so a plan that slides back to dot chains (~1×) trips it.
    gates.open(format_args!(
        "plan linear vs layer path at 1x256x256 (paired rounds, floor {PLAN_LINEAR_FLOOR}x)"
    ));
    {
        let s = 256usize;
        let x = tensor(&[1, s], 34);
        let w = tensor(&[s, s], 35);
        let wt = transpose(&w).unwrap();
        let bias = tensor(&[s], 36);
        let layer = || {
            let mut y = matmul_a_bt(&x, &w).unwrap().into_vec();
            for (v, &b) in y.iter_mut().zip(bias.data()) {
                *v += b;
            }
            y
        };
        let plan = || plan_linear(&x, &wt, &bias);
        let same = gates.check(
            bit_identical(&layer(), &plan()),
            "plan linear on Wᵀ differs from matmul_a_bt + bias on W",
        );
        if same {
            println!("  plan == layer path bit-identical");
        }
        // A 1x256x256 call is a few microseconds: time 100 of them a side.
        let rounds = paired_rounds(
            5,
            &|| {
                for _ in 0..100 {
                    std::hint::black_box(layer());
                }
            },
            &|| {
                for _ in 0..100 {
                    std::hint::black_box(plan());
                }
            },
        );
        for (round, (layer_ns, plan_ns)) in rounds.iter().enumerate() {
            println!(
                "  round {round}: plan {:.2} us, layer {:.2} us ({:.2}x)",
                plan_ns / 100.0 / 1e3,
                layer_ns / 100.0 / 1e3,
                layer_ns / plan_ns
            );
        }
        let ratio = median(rounds.iter().map(|(l, p)| l / p).collect());
        println!("  median layer/plan ratio {ratio:.2}x (floor {PLAN_LINEAR_FLOOR}x)");
        gates.check(
            ratio >= PLAN_LINEAR_FLOOR,
            format_args!("plan linear below {PLAN_LINEAR_FLOOR}x the layer path (median)"),
        );
    }

    println!("# memory-bound passes (ungated):");
    println!("{}", memory_bound_cells());

    gates.finish()
}

/// What smoke gate 5 holds a frozen plan's batch-1 linear step to, as a
/// multiple of the layer path's speed.
const PLAN_LINEAR_FLOOR: f64 = 1.5;

/// Paired rounds smoke gate 4 takes the median of.
const FUSED_ROUNDS: usize = 21;

/// What smoke gate 2 holds the tiled matmul to, as a multiple of the naive
/// kernel: the lead of a wide micro-kernel, whatever its name, or parity
/// within timer tolerance for the portable one.
fn tiled_floor_for(simd: &str) -> f64 {
    if simd != "portable" {
        1.25
    } else {
        0.90
    }
}

fn main() -> ExitCode {
    let simd = gemm_isa();
    println!(
        "# f32 GEMM micro-kernel: {simd} (smoke gate 2 floor: {}x)",
        tiled_floor_for(simd)
    );
    if smoke_flag() {
        println!("# kernels --smoke: determinism + kernel regression gate");
        return smoke();
    }

    println!(
        "# kernels: op x shape sweep (machine has {} core(s))",
        available_parallelism()
    );
    sweep();
    ExitCode::SUCCESS
}
