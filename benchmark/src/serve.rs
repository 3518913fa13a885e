//! `serve-single` and `serve-batch`: a loopback `Server` over a frozen plan,
//! driven closed-loop by one or two `ServeClient`s, every response
//! bit-compared to `InferenceSession::infer_one`.

use crate::harness::{probe_us, ref_kernel, run_for, BlockShape, Metric, Recorder, Workload};
use crate::place::{Side, Split};
use crate::stats;
use crate::trace::Tracer;
use crate::train::dataset;
use apt_nn::{checkpoint, models, QuantScheme};
use apt_quant::Bitwidth;
use apt_serve::protocol::{self, FrameDecoder, OP_INFER, STATUS_OK};
use apt_serve::{
    BatchPolicy, InferenceSession, MicroBatcher, ModelArch, ModelSpec, ServeClient, Server,
    ServerConfig,
};
use apt_tensor::rng;
use std::sync::Barrier;
use std::time::Instant;

const SINGLE_DIMS: [usize; 4] = [256, 256, 128, 10];
/// Distinct request samples, cycled.
const SAMPLES: usize = 64;
const REF_EVERY_BLOCKS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// MLP, `max_batch 1`, one client: the request is mostly transport.
    Single,
    /// cifarnet, default policy, two clients: under-filled coalescing.
    Batch,
}

impl Kind {
    fn clients(self) -> usize {
        match self {
            Kind::Single => 1,
            Kind::Batch => 2,
        }
    }

    /// Requests per client per block.
    fn block_requests(self) -> usize {
        match self {
            Kind::Single => 50,
            Kind::Batch => 20,
        }
    }

    /// Blocks per client per slice.
    fn slice_blocks(self) -> usize {
        match self {
            Kind::Single => 24,
            Kind::Batch => 9,
        }
    }

    fn policy(self) -> BatchPolicy {
        match self {
            Kind::Single => BatchPolicy {
                max_batch: 1,
                ..BatchPolicy::default()
            },
            Kind::Batch => BatchPolicy::default(),
        }
    }

    /// `serve-single`'s request is made of wake-ups, so where its threads
    /// sit decides what it costs: server on one CPU, caller on another (see
    /// [`crate::place`]). `serve-batch`'s request is the coalescer's 2 ms
    /// wait and reads the same on every run wherever its threads sit.
    fn placement(self) -> Option<Split> {
        match self {
            Kind::Single => Split::new(),
            Kind::Batch => None,
        }
    }

    fn spec(self) -> ModelSpec {
        ModelSpec {
            arch: match self {
                Kind::Single => ModelArch::Mlp(SINGLE_DIMS.to_vec()),
                Kind::Batch => ModelArch::Cifarnet,
            },
            classes: 10,
            img_size: 16,
            width_mult: 0.5,
        }
    }
}

/// Which rung of the ladder a closed loop drives.
#[derive(Clone, Copy)]
enum Path {
    /// `ServeClient::infer` over loopback TCP.
    Tcp,
    /// `BatcherHandle::infer_blocking`, in process.
    Batcher,
}

/// One caller's log of a closed loop: when each request was sent and
/// answered, and how many answers were wrong.
struct CallerLog {
    sent: Vec<Instant>,
    done: Vec<Instant>,
    failed: u64,
    first_error: Option<String>,
}

pub struct Serve {
    kind: Kind,
    blob: Vec<u8>,
    session: InferenceSession,
    server: Server,
    clients: Vec<ServeClient>,
    /// The in-process rung of the ladder: same session, same policy.
    batcher: MicroBatcher,
    samples: Vec<Vec<f32>>,
    expected: Vec<Vec<f32>>,
    /// Position in the sample cycle, so slices do not replay one prefix.
    cursor: usize,
    placement: Option<Split>,
}

/// Runs `f` on one side of the placement, where there is one.
fn placed<R>(placement: &Option<Split>, side: Side, f: impl FnOnce() -> R) -> R {
    match placement {
        Some(split) => split.on(side, f),
        None => f(),
    }
}

fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

impl Serve {
    pub fn setup(kind: Kind, seed: u64) -> Serve {
        let k8 = QuantScheme::fixed(Bitwidth::new(8).expect("8 is a valid bitwidth"));
        let (mut net, samples): (_, Vec<Vec<f32>>) = match kind {
            Kind::Single => {
                let mut r = rng::seeded(seed);
                let net = models::mlp("mlp", &SINGLE_DIMS, &k8, &mut rng::seeded(7))
                    .expect("the MLP configuration is valid");
                let samples = (0..SAMPLES)
                    .map(|_| rng::normal(&[SINGLE_DIMS[0]], 1.0, &mut r).into_vec())
                    .collect();
                (net, samples)
            }
            Kind::Batch => {
                let data = dataset(seed);
                let net = models::cifarnet(10, 16, 0.5, &k8, &mut rng::seeded(7))
                    .expect("cifarnet(10, 16, 0.5) is a valid configuration");
                let samples = (0..SAMPLES)
                    .map(|i| data.train.image(i).data().to_vec())
                    .collect();
                (net, samples)
            }
        };
        // Checkpoint round trip: save → load → freeze → probe.
        let blob = checkpoint::save_full(&mut net);
        let session = InferenceSession::from_checkpoint(&kind.spec(), &blob)
            .expect("the checkpoint loads and freezes");
        assert!(session.is_frozen(), "the benchmark serves a frozen plan");
        let placement = kind.placement();
        let (server, batcher) = placed(&placement, Side::Server, || {
            let server = Server::start(
                session.clone(),
                ServerConfig {
                    addr: "127.0.0.1:0".into(),
                    policy: kind.policy(),
                    model_name: "bench".into(),
                    ..ServerConfig::default()
                },
            )
            .expect("the server binds a loopback port");
            let batcher = MicroBatcher::new(session.clone(), kind.policy())
                .expect("the batch policy is valid");
            (server, batcher)
        });
        let clients = (0..kind.clients())
            .map(|_| ServeClient::connect(server.addr()).expect("the client connects"))
            .collect();
        let expected = samples
            .iter()
            .map(|s| session.infer_one(s).expect("the plan runs"))
            .collect();
        Serve {
            kind,
            blob,
            session,
            server,
            clients,
            batcher,
            samples,
            expected,
            cursor: 0,
            placement,
        }
    }

    /// Runs `requests` closed-loop requests on every caller at once, each
    /// caller on its own thread, each response verified.
    fn drive(&mut self, path: Path, requests: usize) -> Vec<CallerLog> {
        let callers = self.kind.clients();
        let barrier = Barrier::new(callers);
        let handle = self.batcher.handle();
        let (samples, expected) = (&self.samples, &self.expected);
        let cursor = self.cursor;
        self.cursor += requests;
        placed(&self.placement, Side::Callers, || {
            std::thread::scope(|s| {
                let threads: Vec<_> = self
                    .clients
                    .iter_mut()
                    .enumerate()
                    .map(|(c, client)| {
                        let (barrier, handle) = (&barrier, handle.clone());
                        s.spawn(move || {
                            let mut log = CallerLog {
                                sent: Vec::with_capacity(requests),
                                done: Vec::with_capacity(requests),
                                failed: 0,
                                first_error: None,
                            };
                            barrier.wait();
                            for i in 0..requests {
                                // Callers walk the cycle half a cycle apart.
                                let at = (cursor + i + c * SAMPLES / 2) % SAMPLES;
                                let owned = match path {
                                    Path::Batcher => Some(samples[at].clone()),
                                    Path::Tcp => None,
                                };
                                log.sent.push(Instant::now());
                                let answer = match owned {
                                    Some(sample) => {
                                        handle.infer_blocking(sample).map_err(|e| e.to_string())
                                    }
                                    None => client.infer(&samples[at]).map_err(|e| e.to_string()),
                                };
                                log.done.push(Instant::now());
                                let wrong = match answer {
                                    Ok(row) if same_bits(&row, &expected[at]) => None,
                                    Ok(_) => {
                                        Some("a response was not bit-equal to infer_one".into())
                                    }
                                    Err(e) => Some(e),
                                };
                                if let Some(why) = wrong {
                                    log.failed += 1;
                                    log.first_error.get_or_insert(why);
                                }
                            }
                            log
                        })
                    })
                    .collect();
                threads
                    .into_iter()
                    .map(|t| t.join().expect("a caller thread panicked"))
                    .collect()
            })
        })
    }

    /// Wall time in seconds of each block of `per_block` consecutive
    /// requests of every caller: first request sent to last answered.
    fn block_times(logs: &[CallerLog], per_block: usize) -> Vec<f64> {
        logs.iter()
            .flat_map(|log| log.sent.chunks(per_block).zip(log.done.chunks(per_block)))
            .map(|(sent, done)| {
                let last = done.last().expect("a block has requests");
                last.duration_since(sent[0]).as_secs_f64()
            })
            .collect()
    }

    fn record(logs: &[CallerLog], rec: &mut Recorder) {
        for log in logs {
            rec.attempted += log.sent.len() as u64;
            if let Some(why) = &log.first_error {
                rec.fail(log.failed, why.clone());
            }
        }
    }
}

impl Workload for Serve {
    fn shape(&self) -> BlockShape {
        BlockShape {
            units: (self.kind.block_requests() * self.kind.clients()) as f64,
            ops: self.kind.block_requests() as f64,
        }
    }

    /// Two blocks of requests down each rung of the ladder.
    fn warm_up(&mut self) {
        for path in [Path::Tcp, Path::Batcher] {
            let logs = self.drive(path, 2 * self.kind.block_requests());
            assert!(
                logs.iter().all(|l| l.failed == 0),
                "warm-up requests verify"
            );
        }
    }

    fn run_slice(&mut self, rec: &mut Recorder) {
        let per_block = self.kind.block_requests();
        crate::alloc::mark();
        // The reference kernel runs between drives, so a drive is a few
        // blocks long and a slice is a few drives.
        for _ in 0..self.kind.slice_blocks() / REF_EVERY_BLOCKS {
            rec.ref_us.push(ref_kernel());
            let calls = crate::alloc::calls();
            let logs = self.drive(Path::Tcp, per_block * REF_EVERY_BLOCKS);
            let issued = (per_block * REF_EVERY_BLOCKS * self.kind.clients()) as f64;
            rec.allocs_per_op
                .push((crate::alloc::calls() - calls) as f64 / issued);
            for secs in Serve::block_times(&logs, per_block) {
                rec.blocks.push(0, secs);
            }
            Serve::record(&logs, rec);
        }
        rec.heap_peak = rec.heap_peak.max(crate::alloc::peak());
    }

    fn resident_bytes(&self) -> u64 {
        self.session.resident_bytes()
    }

    fn trace(&mut self, seconds: f64, tracer: &mut Tracer, rec: &mut Recorder) -> Vec<Metric> {
        let before = self.server.stats();
        run_for(self, rec, seconds / 2.0);
        let after = self.server.stats();
        let untraced_block = rec.blocks.quiet();

        // The ladder plan ⊂ batcher ⊂ TCP, each rung timed from outside by
        // its own calls on the same session, a few hundred at a time so the
        // rungs interleave across the pass; one request per span.
        let n = self.kind.clients();
        let flat: Vec<f32> = self.samples[..n].concat();
        let mut out = vec![0.0f32; n * self.session.num_outputs()];
        let chunk = 200;
        let per_block = self.kind.block_requests();
        let mut traced_blocks = Vec::new();
        let start = Instant::now();
        let mut op = 0u64;
        while op == 0 || start.elapsed().as_secs_f64() < seconds / 2.0 {
            for (name, path) in [("serve.tcp", Path::Tcp), ("serve.batcher", Path::Batcher)] {
                let logs = self.drive(path, chunk);
                if name == "serve.tcp" {
                    traced_blocks.extend(Serve::block_times(&logs, per_block));
                }
                for log in &logs {
                    for (i, (sent, done)) in log.sent.iter().zip(&log.done).enumerate() {
                        tracer.record(name, *sent, *done, None, op + i as u64);
                    }
                }
                Serve::record(&logs, rec);
            }
            for i in 0..chunk as u64 {
                let id = tracer.open("nn.plan", None, op + i);
                self.session
                    .infer_into(&flat, n, &mut out)
                    .expect("the plan runs");
                tracer.close(id);
            }
            op += chunk as u64;
        }
        let quiet = |name: &str| stats::quiet(&tracer.durations_us(name));
        let (tcp, batcher, plan) = (quiet("serve.tcp"), quiet("serve.batcher"), quiet("nn.plan"));

        let sample = &self.samples[0];
        let response = &self.expected[0];
        let protocol_us = probe_us(200, || {
            let mut got = 0;
            for (tag, values) in [(OP_INFER, sample), (STATUS_OK, response)] {
                let frame = protocol::encode_frame(tag, &protocol::encode_f32s(values));
                let mut dec = FrameDecoder::new();
                dec.feed(&frame);
                let (_, payload) = dec
                    .try_frame()
                    .expect("a well-formed frame decodes")
                    .expect("the frame is complete");
                got += protocol::decode_f32s(&payload)
                    .expect("the payload is f32s")
                    .len();
            }
            got
        });
        let (spec, blob) = (self.kind.spec(), &self.blob);
        let load_us = probe_us(8, || InferenceSession::from_checkpoint(&spec, blob));
        let batches = (after.batches - before.batches).max(1) as f64;

        vec![
            ("nn.plan_us", plan, "us"),
            (
                "nn.plan_steps",
                self.session.plan_report().map_or(0.0, |r| r.steps as f64),
                "count",
            ),
            ("serve.request_us", tcp, "us"),
            ("serve.batcher_us", batcher - plan, "us"),
            ("serve.transport_us", tcp - batcher, "us"),
            ("serve.transport_share", (tcp - batcher) / tcp, "share"),
            ("serve.protocol_us", protocol_us, "us"),
            ("serve.session_load_us", load_us, "us"),
            (
                "serve.mean_batch",
                (after.completed - before.completed) as f64 / batches,
                "count",
            ),
            ("serve.shed", (after.shed - before.shed) as f64, "count"),
            (
                "serve.allocs_per_request",
                stats::median(&rec.allocs_per_op),
                "count",
            ),
            (
                "benchmark.trace_overhead_share",
                (stats::quiet(&traced_blocks) - untraced_block) / untraced_block,
                "share",
            ),
        ]
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        // Clients first, so the reactor sees closed sockets, not a grace
        // period; both shutdowns join their threads.
        self.clients.clear();
        self.server.shutdown();
        self.batcher.shutdown();
    }
}
