//! Atomic hot-swap under load.
//!
//! The acceptance contract: while closed-loop TCP clients hammer the
//! default model, a swapper republishes new checkpoint versions over a
//! hundred times. Every response must be bit-exact for *some* published
//! plan version (the one that served it) or a typed error — zero
//! corrupted, zero lost — and client-side counts must reconcile exactly
//! with the server's counters.

use apt_nn::checkpoint;
use apt_serve::{
    BatchPolicy, InferenceSession, ModelArch, ModelRegistry, ModelSpec, RegistryConfig,
    ServeClient, ServeError, Server, ServerConfig,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

const DIMS: [usize; 3] = [6, 12, 4];

fn spec() -> ModelSpec {
    ModelSpec {
        arch: ModelArch::Mlp(DIMS.to_vec()),
        classes: DIMS[2],
        img_size: 0,
        width_mult: 1.0,
    }
}

/// A v3 checkpoint with weights drawn from `seed` (distinct seeds give
/// distinct plans).
fn blob(seed: u64) -> Vec<u8> {
    let mut net = apt_nn::models::mlp(
        "mlp",
        &DIMS,
        &apt_nn::QuantScheme::paper_apt(),
        &mut apt_tensor::rng::seeded(seed),
    )
    .unwrap();
    checkpoint::save_full(&mut net)
}

fn bits(row: &[f32]) -> Vec<u32> {
    row.iter().map(|v| v.to_bits()).collect()
}

/// ≥100 hot-swaps while concurrent closed-loop clients run inference;
/// every response is bit-exact for the plan version that served it, and
/// client/server accounting reconciles exactly. Doubles as the swap
/// determinism differential: expected rows come from fresh single-model
/// sessions over the same checkpoints.
#[test]
fn hundred_swaps_under_load_lose_nothing() {
    const VERSIONS: usize = 8;
    const SWAPS: usize = 110;
    const CLIENTS: usize = 4;

    let s = spec();
    let blobs: Vec<Vec<u8>> = (0..VERSIONS as u64).map(|v| blob(1000 + v)).collect();
    let sample: Vec<f32> = (0..DIMS[0]).map(|j| j as f32 * 0.13 - 0.4).collect();

    // The differential baseline: a fresh single-model session per
    // checkpoint defines the only legal response bits for that version.
    let expected: Vec<Vec<u32>> = blobs
        .iter()
        .map(|b| {
            let fresh = InferenceSession::from_checkpoint(&s, b).unwrap();
            bits(&fresh.infer_one(&sample).unwrap())
        })
        .collect();
    for i in 0..VERSIONS {
        for j in (i + 1)..VERSIONS {
            assert_ne!(expected[i], expected[j], "plans {i} and {j} collide");
        }
    }

    let registry = Arc::new(ModelRegistry::new(RegistryConfig::default()));
    registry.ingest_blob("m", &s, &blobs[0]).unwrap();
    let server = Server::start_with_registry(
        Arc::clone(&registry),
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            policy: BatchPolicy {
                max_batch: 8,
                queue_depth: 512,
            },
            model_name: "m".to_string(),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    let stop = Arc::new(AtomicBool::new(false));
    let mut clients = Vec::new();
    for c in 0..CLIENTS {
        let stop = Arc::clone(&stop);
        let sample = sample.clone();
        let expected = expected.clone();
        clients.push(thread::spawn(move || {
            let mut client = ServeClient::connect(addr).unwrap();
            let mut ok = 0u64;
            let mut typed = 0u64;
            let mut versions_seen = vec![false; VERSIONS];
            while !stop.load(Ordering::SeqCst) {
                match client.infer(&sample) {
                    Ok(row) => {
                        let got = bits(&row);
                        let v = expected
                            .iter()
                            .position(|want| *want == got)
                            .unwrap_or_else(|| panic!("client {c}: corrupted response {got:?}"));
                        versions_seen[v] = true;
                        ok += 1;
                    }
                    // Transient sheds are legal; corruption is not.
                    Err(ServeError::Overloaded { .. } | ServeError::DeadlineExceeded { .. }) => {
                        typed += 1
                    }
                    Err(e) => panic!("client {c}: untyped failure: {e}"),
                }
            }
            (ok, typed, versions_seen)
        }));
    }

    // The swapper: republishes a rotating set of plans under live load.
    let swap_registry = Arc::clone(&registry);
    let s2 = s.clone();
    let swapper = thread::spawn(move || {
        for i in 0..SWAPS {
            let b = &blobs[(i + 1) % VERSIONS];
            let outcome = swap_registry.ingest_blob("m", &s2, b).unwrap();
            assert!(outcome.replaced, "swap {i} did not replace");
            thread::sleep(Duration::from_millis(2));
        }
    });
    swapper.join().unwrap();
    // Let clients run a little against the final plan, then stop.
    thread::sleep(Duration::from_millis(50));
    stop.store(true, Ordering::SeqCst);

    let mut client_ok = 0u64;
    let mut client_typed = 0u64;
    let mut seen = vec![false; VERSIONS];
    for t in clients {
        let (ok, typed, versions_seen) = t.join().unwrap();
        assert!(ok > 0, "a client never completed a request");
        client_ok += ok;
        client_typed += typed;
        for (a, b) in seen.iter_mut().zip(versions_seen) {
            *a |= b;
        }
    }
    assert!(
        seen.iter().filter(|&&v| v).count() >= 2,
        "load never observed a swap take effect: {seen:?}"
    );

    let snap = server.stats();
    assert_eq!(
        snap.completed, client_ok,
        "client/server completion counts must reconcile exactly"
    );
    assert_eq!(snap.errors, 0, "no batch may have failed");
    assert_eq!(
        snap.shed + snap.deadline_expired,
        client_typed,
        "typed rejections must reconcile exactly"
    );
    assert_eq!(
        snap.swaps, SWAPS as u64,
        "every publish must count as a swap"
    );
    assert_eq!(snap.models_resident, 1);

    // Post-quiesce differential: the resident plan answers bit-identically
    // to a fresh single-model session over the checkpoint that was
    // published last.
    let mut client = ServeClient::connect(addr).unwrap();
    let got = bits(&client.infer(&sample).unwrap());
    assert_eq!(got, expected[SWAPS % VERSIONS]);
}

/// Swapped-in plans answer bit-identically to a fresh single-model
/// session over the same checkpoint, for every version in a swap chain
/// (the satellite's determinism differential, without load).
#[test]
fn swapped_plan_matches_fresh_session_bitwise() {
    let s = spec();
    let registry = Arc::new(ModelRegistry::new(RegistryConfig::default()));
    registry.ingest_blob("m", &s, &blob(7)).unwrap();
    let server = Server::start_with_registry(
        Arc::clone(&registry),
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            policy: BatchPolicy::default(),
            model_name: "m".to_string(),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut client = ServeClient::connect(server.addr()).unwrap();
    let samples: Vec<Vec<f32>> = (0..4)
        .map(|i| {
            (0..DIMS[0])
                .map(|j| (i * 5 + j) as f32 * 0.11 - 0.3)
                .collect()
        })
        .collect();

    for seed in [21u64, 22, 23, 24, 21] {
        let b = blob(seed);
        let fresh = InferenceSession::from_checkpoint(&s, &b).unwrap();
        registry.ingest_blob("m", &s, &b).unwrap();
        for sample in &samples {
            let want = bits(&fresh.infer_one(sample).unwrap());
            let got = bits(&client.infer(sample).unwrap());
            assert_eq!(got, want, "swapped plan (seed {seed}) diverged");
            let got_named = bits(&client.infer_model("m", sample).unwrap());
            assert_eq!(got_named, want, "named route (seed {seed}) diverged");
        }
    }
}
