//! `train-dist2`: two in-process ranks exchanging 4-bit gradients — the
//! only workload where `apt-dist` and `quant::GradCodec` run.

use crate::harness::{probe_us, ref_kernel, run_for, BlockShape, Metric, Recorder, Workload};
use crate::stats;
use crate::trace::Tracer;
use crate::train::{apt_config, dataset, mean_bits, mlp, mlp_probes, BATCH, MLP_DIMS};
use apt_data::SynthCifar;
use apt_dist::{DistConfig, DistReport, DistTrainer};
use apt_nn::Network;
use apt_optim::LrSchedule;
use apt_quant::{Bitwidth, GradCodec};
use apt_tensor::rng;
use std::time::Instant;

const WORLD: usize = 2;
/// A call is ten steps per rank from a fresh network, too few to reach the
/// 0.8 the longer workloads hold: at 0.2 it ends at 0.37–0.80 over seeds
/// 1–400 (0.08–0.20 at 0.03, 0.26–0.51 at 0.5 over seeds 1–40), against
/// 0.10 for chance.
const LR: f32 = 0.2;
/// Twice chance. What a call ends at depends on the data `--seed` generates
/// and every seed must pass: over 430 seeds the lowest final accuracy is
/// 0.37 (median 0.60, standard deviation 0.085), so the floor sits ten test
/// images under the worst seed seen. It catches divergence, not quality.
const ACCURACY_FLOOR: f64 = 0.20;
const GRAD_BITS: u32 = 4;
/// 320 images over two shards of 160, batch 32.
const STEPS_PER_EPOCH: usize = 5;
const EPOCHS: usize = 2;
const STEPS_PER_CALL: usize = STEPS_PER_EPOCH * EPOCHS;
/// One block = one `train()` call: no step hook crosses the rank boundary.
const SLICE_CALLS: usize = 8;
const REF_EVERY_BLOCKS: usize = 3;

type Fleet = DistTrainer<fn() -> apt_core::Result<Network>>;

fn replica() -> apt_core::Result<Network> {
    Ok(mlp(&MLP_DIMS))
}

fn fleet(world: usize, epochs: usize) -> Fleet {
    let mut cfg = DistConfig::new(
        world,
        Bitwidth::new(GRAD_BITS).expect("4 is a valid bitwidth"),
    );
    cfg.train = apt_config(epochs, LrSchedule::Constant(LR));
    DistTrainer::new(cfg, replica as fn() -> apt_core::Result<Network>)
        .expect("the fleet configuration is valid")
}

pub struct Dist2 {
    data: SynthCifar,
    fleet: Fleet,
    reference: Option<DistReport>,
}

impl Dist2 {
    pub fn setup(seed: u64) -> Dist2 {
        Dist2 {
            data: dataset(seed),
            fleet: fleet(WORLD, EPOCHS),
            reference: None,
        }
    }

    /// One timed `train()` call, verified against the first.
    fn call(&mut self, rec: &mut Recorder) -> f64 {
        let t = Instant::now();
        let result = self.fleet.train(&self.data.train, &self.data.test);
        let secs = t.elapsed().as_secs_f64();
        let steps = STEPS_PER_CALL as u64;
        rec.attempted += steps;
        match result {
            Err(e) => rec.fail(steps, format!("train() failed: {e}")),
            Ok(report) => {
                let acc = report.report().final_accuracy;
                if !report.replicas_in_lockstep() || report.recovery_rounds != 0 {
                    rec.fail(steps, "the replicas left lockstep".into());
                } else if acc < ACCURACY_FLOOR {
                    rec.fail(
                        steps,
                        format!("final accuracy {acc:.3} under the floor {ACCURACY_FLOOR:.3}"),
                    );
                } else if self
                    .reference
                    .as_ref()
                    .is_some_and(|first| *first != report)
                {
                    rec.fail(
                        steps,
                        "a call did not reproduce the first call's report".into(),
                    );
                }
                self.reference.get_or_insert(report);
            }
        }
        secs
    }
}

impl Workload for Dist2 {
    fn shape(&self) -> BlockShape {
        BlockShape {
            units: (STEPS_PER_CALL * BATCH * WORLD) as f64,
            ops: STEPS_PER_CALL as f64,
        }
    }

    /// One call.
    fn warm_up(&mut self) {
        self.fleet
            .train(&self.data.train, &self.data.test)
            .expect("the warm-up call trains");
    }

    fn run_slice(&mut self, rec: &mut Recorder) {
        crate::alloc::mark();
        let calls = crate::alloc::calls();
        for b in 0..SLICE_CALLS {
            if b % REF_EVERY_BLOCKS == 0 {
                rec.ref_us.push(ref_kernel());
            }
            let secs = self.call(rec);
            rec.blocks.push(0, secs);
        }
        rec.heap_peak = rec.heap_peak.max(crate::alloc::peak());
        rec.allocs_per_op
            .push((crate::alloc::calls() - calls) as f64 / (SLICE_CALLS * STEPS_PER_CALL) as f64);
    }

    fn resident_bytes(&self) -> u64 {
        self.reference
            .as_ref()
            .map_or(0, |r| r.report().peak_resident_bytes)
    }

    fn trace(&mut self, seconds: f64, tracer: &mut Tracer, rec: &mut Recorder) -> Vec<Metric> {
        run_for(self, rec, seconds * 0.35);
        let untraced_us = rec.blocks.quiet() * 1e6;

        // Traced calls: one span per `train()` call, spans of a call's
        // ranks being invisible from outside. Four fleets take turns, so a
        // slow phase of the host falls on all of them: half the epochs cost
        // five steps (and one epoch turnover) less and nothing else, which
        // separates the per-step cost from the fixed cost of a call; the
        // same at world 1 on one shard, so the per-rank batch is equal,
        // separates the exchange from the step. Halving, not doubling:
        // Algorithm 1 raises bitwidths every epoch, so later epochs cost
        // more and a longer call is not more of the same steps. For the
        // same reason the fixed cost of a call is not extrapolated but
        // measured: a call on two training images does everything a call
        // does — replicas, shards, threads, fabric, evaluation, reports —
        // around a single one-image step per rank.
        let data = self.data.clone();
        let (train, test) = (&data.train, &data.test);
        let shard = train.shard(0, WORLD).expect("rank 0 has a shard");
        let two_images = train
            .shard(0, train.len() / WORLD)
            .expect("two images remain");
        let others = [
            ("dist.train.empty", fleet(WORLD, 1), &two_images),
            ("dist.train.half", fleet(WORLD, EPOCHS / 2), train),
            ("dist.train.world1", fleet(1, EPOCHS), &shard),
            ("dist.train.world1.half", fleet(1, EPOCHS / 2), &shard),
        ];
        let start = Instant::now();
        let mut op = 0;
        while op < 4 || start.elapsed().as_secs_f64() < seconds * 0.45 {
            let id = tracer.open("dist.train", None, op);
            self.call(rec);
            tracer.close(id);
            for (name, fleet, data) in &others {
                tracer.span(name, None, op, || {
                    fleet.train(data, test).expect("a clean call trains")
                });
            }
            op += 1;
        }
        let quiet = |name: &str| stats::quiet(&tracer.durations_us(name));
        let traced_us = quiet("dist.train");
        let half = (STEPS_PER_CALL / 2) as f64;
        let step_w2 = (traced_us - quiet("dist.train.half")) / half;
        let step_w1 = (quiet("dist.train.world1") - quiet("dist.train.world1.half")) / half;

        let reference = self.reference.as_ref().expect("a call has run");
        let exchange = reference.exchange();

        // The codec over the whole parameter inventory at k = 4.
        let codec = GradCodec::new(Bitwidth::new(GRAD_BITS).expect("4 is a valid bitwidth"));
        let mut r = rng::seeded(2);
        let mut grads = Vec::new();
        mlp(&MLP_DIMS).visit_params_ref(&mut |p| {
            grads.push(rng::normal(&[p.len()], 0.01, &mut r).into_vec());
        });
        let scale = codec.scale(0.04);
        let mut residuals: Vec<Vec<f32>> = grads.iter().map(|g| vec![0.0; g.len()]).collect();
        let encode_us = probe_us(20, || {
            grads
                .iter()
                .zip(residuals.iter_mut())
                .map(|(g, res)| codec.encode(g, res, scale))
                .collect::<Vec<_>>()
        });
        let stores: Vec<_> = grads
            .iter()
            .zip(residuals.iter_mut())
            .map(|(g, res)| codec.encode(g, res, scale))
            .collect();
        let decode_us = probe_us(20, || {
            stores
                .iter()
                .map(|s| codec.decode(s, scale))
                .collect::<Vec<_>>()
        });

        let mut m: Vec<Metric> = vec![
            ("quant.grad_encode_us", encode_us, "us"),
            ("quant.grad_decode_us", decode_us, "us"),
            (
                "core.allocs_per_step",
                stats::median(&rec.allocs_per_op),
                "count",
            ),
            (
                "core.final_accuracy",
                reference.report().final_accuracy,
                "share",
            ),
            ("core.mean_bits", mean_bits(reference.report()), "bits"),
            ("core.step_us", step_w2, "us"),
            ("dist.exchange_us", step_w2 - step_w1, "us"),
            ("dist.round_overhead_us", quiet("dist.train.empty"), "us"),
            (
                "dist.wire_bytes_per_step",
                exchange.bytes_on_wire as f64 / exchange.steps as f64,
                "B",
            ),
            ("dist.wire_ratio", exchange.wire_ratio(), "share"),
            (
                "dist.digest_checks_per_step",
                exchange.digest_checks as f64 / exchange.steps as f64,
                "count",
            ),
            (
                "benchmark.trace_overhead_share",
                (traced_us - untraced_us) / untraced_us,
                "share",
            ),
        ];
        m.extend(mlp_probes());
        m
    }
}
