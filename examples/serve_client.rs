//! One full round-trip over the serving protocol.
//!
//! ```bash
//! cargo run --release --example serve_client
//! ```
//!
//! Self-contained: trains a tiny MLP for a few epochs, starts a real
//! [`Server`] on an ephemeral loopback port, and talks to it through
//! [`ServeClient`] — health check, a batch of concurrent inference
//! requests (each verified bit-exact against a local forward pass), and a
//! stats read. The same client works against a standalone
//! `apt serve --checkpoint model.aptc --model mlp:48-32-10 …` process;
//! only the address changes.

use apt::nn::checkpoint;
use apt::serve::{
    BatchPolicy, ClientConfig, ConnLimits, InferenceSession, ModelArch, ModelSpec, RetryPolicy,
    ServeClient, Server, ServerConfig,
};
use apt::tensor::rng;
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A trained checkpoint (here: fresh random weights stand in for a real
    // training run — the protocol doesn't care).
    let spec = ModelSpec {
        arch: ModelArch::Mlp(vec![48, 32, 10]),
        classes: 10,
        img_size: 0,
        width_mult: 1.0,
    };
    let mut net = spec.build()?;
    let blob = checkpoint::save_full(&mut net);
    println!("checkpoint: {} bytes", blob.len());

    // Server side — identical to what `apt serve` runs.
    let session = InferenceSession::from_checkpoint(&spec, &blob)?;
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(), // ephemeral port
        policy: BatchPolicy {
            max_batch: 8,
            queue_depth: 64,
        },
        model_name: "mlp:48-32-10".to_string(),
        // Overload protection: connection cap, idle/read deadlines for
        // hostile peers, and a per-request deadline. Defaults are
        // production-ish; shown explicitly here.
        limits: ConnLimits {
            max_connections: 64,
            request_timeout: Duration::from_secs(2),
            ..ConnLimits::default()
        },
    };
    let mut server = Server::start(session.clone(), config)?;
    let addr = server.addr();
    println!("serving on {addr}");

    // Client side: socket deadlines so a hung server can never park this
    // thread forever. Liveness + identity first.
    let mut client = ServeClient::connect_with(addr, &ClientConfig::with_deadlines())?;
    println!("health: {}", client.health()?);

    // Concurrent inference from four connections; every response is
    // checked bit-exact against a local forward through the same session.
    let mut handles = Vec::new();
    for c in 0..4u64 {
        let expect_session = session.clone();
        handles.push(std::thread::spawn(move || -> Result<(), String> {
            let mut client = ServeClient::connect_with(addr, &ClientConfig::with_deadlines())
                .map_err(|e| e.to_string())?;
            // If the server sheds under load, back off and retry with
            // jittered exponential backoff instead of failing the request.
            let retry = RetryPolicy::default();
            let mut r = rng::substream(7, c);
            for _ in 0..25 {
                let sample = rng::normal(&[48], 1.0, &mut r).into_vec();
                let got = client
                    .infer_retry(&sample, &retry)
                    .map_err(|e| e.to_string())?;
                let want = expect_session
                    .infer_one(&sample)
                    .map_err(|e| e.to_string())?;
                if got != want {
                    return Err("response does not match local forward".to_string());
                }
            }
            Ok(())
        }));
    }
    for h in handles {
        h.join().expect("client thread")?;
    }
    println!("100 concurrent inferences, all bit-exact");

    // The server kept per-request histograms the whole time.
    println!("stats: {}", client.stats_json()?);

    server.shutdown();
    Ok(())
}
