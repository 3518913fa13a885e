//! Plan-vs-eval cells, gate 10: the same k=8 checkpoint at the default
//! lane, once through a session's compiled plan and once through
//! `forward(Mode::Eval)` (trainer eval) on a network loaded from the same
//! blob, driven in-process on one thread so the comparison
//! measures the plan (fused kernels, resident weights, arena intermediates)
//! and not TCP framing. Requests are **single-sample** and the model is a
//! deep, narrow MLP — the paper's constrained-device serving shape, where
//! per-layer overhead (tensor allocation, separate bias and activation
//! passes, dispatch) is commensurate with each layer's tiny GEMM, so the
//! compiler's fusion and arena planning show up as throughput instead of
//! vanishing under a 256-wide matmul. The model has no batch norm —
//! nothing folds — so the frozen plan must be **bit-identical** to the
//! eval forward, and must not be slower. Timing is [`paired_rounds`], as
//! in the kernels gates, so a slow scheduling phase penalises both sides
//! equally; each row reports its side's median round.

use crate::{push_row, Cell, Gates, Policy, Served, Tally};
use apt_bench::{bit_identical, median, paired_rounds};
use apt_metrics::Table;
use apt_nn::{checkpoint, models, Mode, QuantScheme};
use apt_quant::Bitwidth;
use apt_serve::{InferenceSession, ModelArch, ModelSpec, ServeStats};
use apt_tensor::{par, rng, Tensor};
use std::cell::RefCell;
use std::time::Duration;

const FREEZE_DIMS: &[usize] = &[64, 64, 64, 64, 64, 64, 10];

pub(crate) fn run(gates: &mut Gates, rows: &mut Table, iters: usize) {
    gates.open(
        "freeze — compiled plan ≥ eval forward samples/s, bit-identical (k=8, \
         single-sample in-process, 1 thread)",
    );
    par::set_global_threads(1);
    let scheme = QuantScheme::fully_quantized(Bitwidth::new(8).expect("valid bitwidth"));
    let mut net = models::mlp("freeze-bench", FREEZE_DIMS, &scheme, &mut rng::seeded(23))
        .expect("model builds");
    let blob = checkpoint::save_full(&mut net);
    let spec = ModelSpec {
        arch: ModelArch::Mlp(FREEZE_DIMS.to_vec()),
        classes: *FREEZE_DIMS.last().expect("dims nonempty"),
        img_size: 0,
        width_mult: 1.0,
    };
    let frozen = InferenceSession::from_checkpoint(&spec, &blob).expect("session loads");
    let mut loaded = spec.build().expect("model builds");
    checkpoint::load(&mut loaded, &blob).expect("checkpoint loads");
    let net = RefCell::new(loaded);
    // The eval side does what a served request does around the forward:
    // stage the samples into one batch, run, split the rows back out.
    let eval = |samples: &[Vec<f32>]| -> Vec<Vec<f32>> {
        let batch = Tensor::from_vec(samples.concat(), &[samples.len(), FREEZE_DIMS[0]])
            .expect("batch shape");
        let out = net
            .borrow_mut()
            .forward(&batch, Mode::Eval)
            .expect("eval forward");
        (0..samples.len())
            .map(|i| out.row(i).expect("row").to_vec())
            .collect()
    };

    let batch = 1usize;
    let mut r = rng::substream(1997, 0);
    let samples: Vec<Vec<f32>> = (0..batch)
        .map(|_| rng::normal(&[FREEZE_DIMS[0]], 1.0, &mut r).into_vec())
        .collect();
    let want = eval(&samples);
    let got = frozen.infer_samples(&samples).expect("frozen forward");
    let bit_exact =
        want.len() == got.len() && want.iter().zip(&got).all(|(w, g)| bit_identical(w, g));
    gates.check(
        bit_exact,
        "frozen plan diverged from the eval forward on a BN-free model",
    );

    // Warm both paths (arena buffers, allocator), then time paired rounds
    // of `per_round` requests a side.
    for _ in 0..8 {
        let _ = eval(&samples);
        let _ = frozen.infer_samples(&samples);
    }
    let per_round = iters.div_ceil(15).max(1);
    let rounds = paired_rounds(
        &|| {
            for _ in 0..per_round {
                std::hint::black_box(eval(&samples));
            }
        },
        &|| {
            for _ in 0..per_round {
                std::hint::black_box(frozen.infer_samples(&samples).expect("frozen forward"));
            }
        },
    );
    let total = (per_round * batch) as u64;
    let eval_s = median(rounds.iter().map(|(e, _)| e / 1e9).collect());
    let frozen_s = median(rounds.iter().map(|(_, f)| f / 1e9).collect());
    let (eval_rps, frozen_rps) = (total as f64 / eval_s, total as f64 / frozen_s);
    let ratio = median(rounds.iter().map(|(e, f)| e / f).collect());
    gates.check(
        ratio >= 1.0,
        format_args!(
            "frozen plan {frozen_rps:.0} samples/s below eval forward {eval_rps:.0} \
             samples/s ({ratio:.2}×)"
        ),
    );
    gates.pass(format_args!(
        "frozen {frozen_rps:.0} samples/s ≥ eval forward {eval_rps:.0} samples/s \
         ({ratio:.2}×), bit-identical"
    ));

    // No server ran: the rows carry the batch size and zeros elsewhere.
    let no_server = ServeStats::default();
    no_server.record_batch(batch);
    for (lane, wall_s) in [("eval", eval_s), ("frozen", frozen_s)] {
        let cell = Cell {
            lane,
            ..Cell::k8("freeze", Policy::new("inproc1", batch, 0), 1)
        };
        let tally = Tally {
            ok: total,
            corrupted: if bit_exact { 0 } else { total },
            ..Tally::default()
        };
        let served = Served {
            requests: total,
            tally,
            wall: Duration::from_secs_f64(wall_s),
            stats: no_server.snapshot(),
            swap_p99_us: 0,
        };
        push_row(rows, &cell, &served);
    }
}
