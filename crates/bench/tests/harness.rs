//! The harness the five gate binaries share: the counting allocator, the
//! record layout and its pinned schemas, the smoke-run output rule, and the
//! numbered gates.

use apt_bench::{json_doc, output_path, row, schema, table, CountingAlloc, Gates};
use std::path::Path;
use std::process::ExitCode;
use std::sync::Mutex;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// The allocator's counters are process-wide and libtest runs tests on
/// parallel threads: every test holds this lock, so none allocates while
/// the allocator test measures.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn counting_alloc_sees_a_vec_come_and_go() {
    let _serial = serial();
    const MIB: usize = 1 << 20;
    // libtest's own thread may still print a finished test's line while this
    // one measures; that is tens of bytes against a 1 MiB signal.
    const SLACK: usize = 16 * 1024;
    let (live0, calls0) = (ALLOC.live(), ALLOC.calls());
    ALLOC.reset_peak();
    let v = vec![1u8; MIB];
    assert!(ALLOC.live() >= live0 + MIB - SLACK);
    assert!(ALLOC.calls() > calls0);
    assert!(ALLOC.peak() >= ALLOC.live());
    assert!(ALLOC.peak() >= live0 + MIB - SLACK);
    drop(std::hint::black_box(v));
    assert!(ALLOC.live().abs_diff(live0) <= SLACK);
    assert!(
        ALLOC.peak() >= live0 + MIB - SLACK,
        "the peak outlives the Vec"
    );
}

#[test]
fn a_steady_state_guard_scan_allocates_nothing() {
    use apt_core::{GavgProfiler, IntegrityConfig, StepGuard, StepInfo};
    use apt_nn::{models, QuantScheme};
    let _serial = serial();
    // The benchmark's guarded MLP (265 k parameters), momentum allocated and
    // a Gavg profile seeded, as after its first optimiser step.
    let mut r = apt_tensor::rng::seeded(7);
    let mut net = models::mlp(
        "mlp",
        &[768, 256, 256, 10],
        &QuantScheme::paper_apt(),
        &mut r,
    )
    .unwrap();
    net.visit_params(&mut |p| {
        p.velocity_mut().fill(0.5);
        p.grad_mut().fill(1e-3);
    });
    let mut profiler = GavgProfiler::new(0.3);
    profiler.sample(&net);
    let mut guard = StepGuard::new(IntegrityConfig::default());
    guard.refresh(&net, &profiler);
    let info = StepInfo {
        epoch: 0,
        iter: 0,
        global_step: 0,
    };
    // libtest's own thread may allocate while this one measures, which only
    // ever adds: one round at zero shows the scan itself allocates nothing.
    let rounds = (0..5).map(|_| {
        let before = ALLOC.calls();
        let scan = guard.pre_step(&mut net, &mut profiler, &info).unwrap();
        guard.step_clean();
        guard.refresh(&net, &profiler);
        assert_eq!(scan.healed, 0);
        ALLOC.calls() - before
    });
    assert_eq!(rounds.min(), Some(0));
    assert!(guard.into_report().is_clean());
}

/// `FrozenPlan`'s contract: once its arena is warm, a request allocates
/// nothing, at batch 1 and at batch 8, on linear and conv programs, under
/// every weight storage a plan is built from.
#[test]
fn a_warm_frozen_plan_executes_without_allocating() {
    use apt_nn::{models, Network, QuantScheme};
    use apt_quant::Bitwidth;
    let _serial = serial();
    let mlp = |scheme: QuantScheme| {
        let net = models::mlp(
            "m",
            &[300, 260, 130, 10],
            &scheme,
            &mut apt_tensor::rng::seeded(7),
        );
        (net.unwrap(), vec![300])
    };
    let nets: Vec<(&str, (Network, Vec<usize>))> = vec![
        ("mlp float32", mlp(QuantScheme::float32())),
        ("mlp paper_apt", mlp(QuantScheme::paper_apt())),
        (
            "mlp per_channel(6)",
            mlp(QuantScheme::per_channel(Bitwidth::new(6).unwrap())),
        ),
        (
            "cifarnet paper_apt",
            (
                models::cifarnet(
                    10,
                    8,
                    0.25,
                    &QuantScheme::paper_apt(),
                    &mut apt_tensor::rng::seeded(7),
                )
                .unwrap(),
                vec![3, 8, 8],
            ),
        ),
    ];
    // One compute thread: a pool dispatch allocates its job state by design.
    apt_tensor::par::with_threads(1, || {
        for (name, (net, dims)) in &nets {
            let plan = net.freeze(dims).unwrap();
            let mut arena = Vec::new();
            for batch in [1, 8] {
                let input = vec![0.25f32; batch * plan.sample_len()];
                let mut output = vec![0.0f32; batch * plan.output_len()];
                plan.execute(&input, batch, &mut arena, &mut output)
                    .unwrap();
                // libtest's own thread may allocate while this one measures,
                // which only ever adds: one round at zero is the contract.
                let rounds = (0..5).map(|_| {
                    let before = ALLOC.calls();
                    plan.execute(&input, batch, &mut arena, &mut output)
                        .unwrap();
                    ALLOC.calls() - before
                });
                assert_eq!(rounds.min(), Some(0), "{name} at batch {batch}");
            }
        }
    });
}

/// Two requests that meet in one reactor tick run there as one batch, and
/// the server allocates nothing for them: the samples decode into
/// recycled buffers, the plan runs from reactor-owned staging into
/// reactor-owned rows, and the answers are encoded into the connection's
/// write buffer.
#[test]
fn an_inline_batch_of_two_allocates_nothing() {
    use apt_serve::protocol::{self, OP_INFER, STATUS_OK};
    use apt_serve::{InferenceSession, ModelArch, ModelSpec, Server, ServerConfig};
    use std::io::{Read, Write};
    use std::net::TcpStream;
    let _serial = serial();
    const OUT: usize = 4;
    // A 5-byte header, the count, then the floats.
    const ANSWER: usize = 5 + 4 + 4 * OUT;
    const WARM: usize = 20;
    const ROUNDS: usize = 200;
    const WINDOWS: usize = 3;
    let spec = ModelSpec {
        arch: ModelArch::Mlp(vec![6, 10, OUT]),
        classes: OUT,
        img_size: 0,
        width_mult: 1.0,
    };
    let mut net = spec.build().unwrap();
    let blob = apt_nn::checkpoint::save_full(&mut net);
    let session = InferenceSession::from_checkpoint(&spec, &blob).unwrap();
    let samples = [[0.25f32; 6], [-0.5f32; 6]];
    let mut server = Server::start(
        session.clone(),
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    let mut frames = Vec::new();
    for sample in &samples {
        frames.extend(protocol::encode_frame(
            OP_INFER,
            &protocol::encode_f32s(sample),
        ));
    }
    // Both frames in one write land in one tick.
    let mut answers = [0u8; 2 * ANSWER];
    let mut round = || {
        raw.write_all(&frames).unwrap();
        raw.read_exact(&mut answers).unwrap();
    };
    for _ in 0..WARM {
        round();
    }
    // libtest's own thread may allocate while this one measures, which only
    // ever adds: one window at zero is the contract.
    let calls: Vec<usize> = (0..WINDOWS)
        .map(|_| {
            let before = ALLOC.calls();
            for _ in 0..ROUNDS {
                round();
            }
            ALLOC.calls() - before
        })
        .collect();
    let snap = server.stats();
    server.shutdown();
    let rounds = WARM + WINDOWS * ROUNDS;
    assert!(
        calls.contains(&0),
        "allocator calls per {ROUNDS} rounds of two pipelined requests: {calls:?}"
    );
    assert_eq!(snap.batch_hist, vec![(2, rounds as u64)], "{snap:?}");
    assert_eq!(snap.inline_requests, 2 * rounds as u64, "{snap:?}");
    for (answer, sample) in answers.chunks_exact(ANSWER).zip(&samples) {
        assert_eq!(answer[0], STATUS_OK);
        assert_eq!(
            protocol::decode_f32s(&answer[5..]).unwrap(),
            session.infer_one(sample).unwrap()
        );
    }
}

/// A tick of one connection's pipelined requests, more than two batches'
/// worth on one plan, runs on the reactor in `max_batch` chunks, and the
/// server allocates nothing for it: every chunk reuses the reactor's
/// staging and rows, and every sample the reactor's recycled buffers.
#[test]
fn a_tick_over_two_batches_allocates_nothing() {
    use apt_serve::protocol::{self, OP_INFER, STATUS_OK};
    use apt_serve::{BatchPolicy, InferenceSession, ModelArch, ModelSpec, Server, ServerConfig};
    use std::io::{Read, Write};
    use std::net::TcpStream;
    let _serial = serial();
    const OUT: usize = 4;
    const ANSWER: usize = 5 + 4 + 4 * OUT;
    const MAX_BATCH: usize = 4;
    const SENT: usize = 2 * MAX_BATCH + 1;
    const WARM: usize = 20;
    const ROUNDS: usize = 200;
    const WINDOWS: usize = 3;
    let spec = ModelSpec {
        arch: ModelArch::Mlp(vec![6, 10, OUT]),
        classes: OUT,
        img_size: 0,
        width_mult: 1.0,
    };
    let mut net = spec.build().unwrap();
    let blob = apt_nn::checkpoint::save_full(&mut net);
    let session = InferenceSession::from_checkpoint(&spec, &blob).unwrap();
    let samples: Vec<[f32; 6]> = (0..SENT).map(|i| [i as f32 * 0.1 - 0.4; 6]).collect();
    let mut server = Server::start(
        session.clone(),
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            policy: BatchPolicy {
                max_batch: MAX_BATCH,
                ..BatchPolicy::default()
            },
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    let mut frames = Vec::new();
    for sample in &samples {
        frames.extend(protocol::encode_frame(
            OP_INFER,
            &protocol::encode_f32s(sample),
        ));
    }
    let mut answers = [0u8; SENT * ANSWER];
    let mut round = || {
        raw.write_all(&frames).unwrap();
        raw.read_exact(&mut answers).unwrap();
    };
    for _ in 0..WARM {
        round();
    }
    let calls: Vec<usize> = (0..WINDOWS)
        .map(|_| {
            let before = ALLOC.calls();
            for _ in 0..ROUNDS {
                round();
            }
            ALLOC.calls() - before
        })
        .collect();
    let snap = server.stats();
    server.shutdown();
    let rounds = (WARM + WINDOWS * ROUNDS) as u64;
    assert!(
        calls.contains(&0),
        "allocator calls per {ROUNDS} rounds of {SENT} pipelined requests: {calls:?}"
    );
    assert_eq!(
        snap.batch_hist,
        vec![(1, rounds), (MAX_BATCH, 2 * rounds)],
        "{snap:?}"
    );
    assert_eq!(snap.inline_requests, SENT as u64 * rounds, "{snap:?}");
    for (answer, sample) in answers.chunks_exact(ANSWER).zip(&samples) {
        assert_eq!(answer[0], STATUS_OK);
        assert_eq!(
            protocol::decode_f32s(&answer[5..]).unwrap(),
            session.infer_one(sample).unwrap()
        );
    }
}

#[test]
fn json_doc_lays_a_record_out_like_the_committed_files() {
    let _serial = serial();
    let mut cells = table("world,wall_ms,lockstep");
    cells.push_row(row![1, format!("{:.1}", 3.94), true]);
    cells.push_row(row![2, format!("{:.1}", 7.0), true]);
    let mut recovery = table("rank,bit_identical");
    recovery.push_row(row![0, true]);
    let head = [
        ("available_parallelism", 1.to_string()),
        ("scaling", "null".to_string()),
    ];
    assert_eq!(
        json_doc(&head, &[("cells", &cells), ("recovery", &recovery)]),
        "{\n\"available_parallelism\": 1,\n\"scaling\": null,\n\"cells\": [\n  \
         {\"world\":1,\"wall_ms\":3.9,\"lockstep\":true},\n  \
         {\"world\":2,\"wall_ms\":7.0,\"lockstep\":true}\n],\n\"recovery\": [\n  \
         {\"rank\":0,\"bit_identical\":true}\n]\n}\n"
    );
    assert_eq!(
        json_doc(&[], &[("cells", &recovery)]),
        "{\n\"cells\": [\n  {\"rank\":0,\"bit_identical\":true}\n]\n}\n"
    );
}

/// The keys of one rendered row object, in order.
fn keys(row: &str) -> String {
    let parts: Vec<&str> = row.split('"').collect();
    let keys: Vec<&str> = parts
        .windows(2)
        .filter(|w| w[1].starts_with(':'))
        .map(|w| w[0])
        .collect();
    keys.join(",")
}

/// One row's keys of each array of each record, as committed at ca6199d —
/// the parent of the harness change — in [`PINNED`] order.
const RECORDED: [&str; 5] = [
    "backend,bits,params,resident_bytes,memory_bits,measured_live_bytes,peak_live_bytes,\
     checkpoint_bytes",
    "op,shape,threads,ns_per_iter,gflops,speedup_vs_1t",
    "cell,bits,lane,threads,policy,max_batch,max_delay_us,clients,requests,ok,shed,\
     deadline_expired,corrupted,lost,refused_accept,idle_reaped,slow_reaped,wall_ms,rps,p50_us,\
     p90_us,p99_us,mean_batch,swaps,evictions,quarantines,model_unavailable,swap_p99_us",
    "world,bits,steps,wall_ms,final_accuracy,bytes_on_wire,fp32_bytes,wire_ratio,digest_checks,\
     deterministic,lockstep",
    "rank,at_step,recovery_rounds,clean_wall_ms,hurt_wall_ms,bit_identical",
];

/// (record, array, what its writer builds the table from).
const PINNED: [(&str, &str, &str); 5] = [
    ("BENCH_memory.json", "cells", schema::MEMORY),
    ("BENCH_kernels.json", "cells", schema::KERNELS),
    ("BENCH_serving.json", "cells", schema::SERVING),
    ("BENCH_distributed.json", "cells", schema::DISTRIBUTED),
    (
        "BENCH_distributed.json",
        "recovery",
        schema::DISTRIBUTED_RECOVERY,
    ),
];

#[test]
fn record_schemas_are_the_ones_recorded_at_ca6199d() {
    let _serial = serial();
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for ((file, array, schema), recorded) in PINNED.into_iter().zip(RECORDED) {
        // What the writers emit, for a synthetic row of mixed cell types.
        let mut t = table(schema);
        let cells = ["x", "1", "0.5", "true"].map(String::from);
        t.push_row(
            cells
                .into_iter()
                .cycle()
                .take(schema.split(',').count())
                .collect(),
        );
        assert_eq!(keys(&t.to_json_rows()), recorded, "{file} `{array}` writer");

        // And the committed record still reads the same.
        let text = std::fs::read_to_string(root.join(file)).expect("committed record");
        let first_row = text
            .split_once(&format!("\"{array}\": [\n"))
            .and_then(|(_, rows)| rows.lines().next())
            .expect("the array has a row");
        assert_eq!(keys(first_row), recorded, "{file} `{array}` as committed");
    }
}

#[test]
fn a_smoke_run_writes_only_under_results() {
    let _serial = serial();
    for (full, smoke) in [
        ("BENCH_serving.json", "results/serving_smoke.json"),
        ("BENCH_distributed.json", "results/distributed_smoke.json"),
        ("results/memory.csv", "results/memory_smoke.csv"),
        (
            "results/fault_campaign.json",
            "results/fault_campaign_smoke.json",
        ),
    ] {
        assert_eq!(output_path(false, full), Path::new(full));
        assert_eq!(output_path(true, full), Path::new(smoke));
    }
}

#[test]
fn gates_number_fail_skip_and_report_a_status() {
    let _serial = serial();
    let mut out = Vec::new();
    let mut gates = Gates::to(&mut out);
    gates.open("first");
    assert!(gates.check(true, "unused"));
    gates.pass("held");
    gates.skip("needs 4 cores");
    gates.open("third");
    assert!(!gates.check(1 + 1 == 3, format_args!("{} != 3", 1 + 1)));
    gates.pass("never printed");
    assert_eq!(gates.finish(), ExitCode::FAILURE);
    assert_eq!(
        String::from_utf8(out).expect("utf-8"),
        "# smoke gate 1: first\nok: held\n# smoke gate 2: SKIPPED: needs 4 cores\n\
         # smoke gate 3: third\nFAIL: 2 != 3\nsmoke: 1 check(s) failed\n"
    );

    // A skipped gate does not fail the run.
    let mut out = Vec::new();
    let mut gates = Gates::to(&mut out);
    gates.skip("no cores");
    assert_eq!(gates.finish(), ExitCode::SUCCESS);
    assert!(String::from_utf8(out)
        .expect("utf-8")
        .ends_with("smoke: all gates passed\n"));
}
