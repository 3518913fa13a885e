//! A small blocking client for the serving protocol.
//!
//! Used by the examples, the bench harness, and the integration tests;
//! applications embedding the runtime in-process should talk to
//! [`crate::BatcherHandle`] directly instead.
//!
//! Two robustness layers are opt-in:
//!
//! * [`ClientConfig`] — connect/read/write socket timeouts, so a hung or
//!   drained server surfaces as a typed I/O error instead of a parked
//!   thread.
//! * [`RetryPolicy`] — bounded retry with exponential backoff and
//!   deterministic jitter for the two transient failures worth retrying:
//!   [`ServeError::Overloaded`] shed and connect failures. Everything else
//!   (bad request, protocol violation) fails fast.

use crate::protocol::{
    self, OP_HEALTH, OP_INFER, OP_INFER_MODEL, OP_RELOAD, OP_STATS, STATUS_BAD_REQUEST,
    STATUS_DEADLINE_EXCEEDED, STATUS_INTERNAL, STATUS_MODEL_UNAVAILABLE, STATUS_OK,
    STATUS_OVERLOADED, STATUS_SHUTTING_DOWN,
};
use crate::ServeError;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Socket-level timeouts for a [`ServeClient`]. `None` means "wait
/// forever", matching pre-timeout behaviour.
#[derive(Debug, Clone, Default)]
pub struct ClientConfig {
    /// Bound on establishing the TCP connection.
    pub connect_timeout: Option<Duration>,
    /// Bound on each blocking read (response wait).
    pub read_timeout: Option<Duration>,
    /// Bound on each blocking write.
    pub write_timeout: Option<Duration>,
}

impl ClientConfig {
    /// A sane interactive profile: 1s connect, 5s read, 5s write.
    pub fn with_deadlines() -> ClientConfig {
        ClientConfig {
            connect_timeout: Some(Duration::from_secs(1)),
            read_timeout: Some(Duration::from_secs(5)),
            write_timeout: Some(Duration::from_secs(5)),
        }
    }
}

/// Bounded retry with exponential backoff and jitter.
///
/// Retries fire only on [`ServeError::Overloaded`] (the server said "back
/// off and come back") and on transient connect failures during
/// reconnection — never on `BadRequest`/`Protocol` (client bugs) or
/// `ShuttingDown` (the instance is going away). Off by default: plain
/// [`ServeClient::infer`] never retries.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Additional attempts after the first (0 = no retry).
    pub max_retries: u32,
    /// Backoff before retry `k` is `base_delay · 2^k`, capped at
    /// [`max_delay`](Self::max_delay).
    pub base_delay: Duration,
    /// Upper bound on any single backoff sleep.
    pub max_delay: Duration,
    /// Fraction of each backoff randomised away (`0.0..=1.0`); jitter
    /// de-synchronises retry storms from many clients.
    pub jitter: f64,
    /// Seed for the deterministic jitter stream (reproducible benches).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 5,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(250),
            jitter: 0.5,
            seed: 0x5e7e,
        }
    }
}

impl RetryPolicy {
    /// The backoff to sleep before retry `attempt` (0-based), jittered.
    pub fn backoff(&self, attempt: u32, rng: &mut StdRng) -> Duration {
        let exp = self
            .base_delay
            .saturating_mul(2u32.saturating_pow(attempt.min(16)))
            .min(self.max_delay);
        let jitter = self.jitter.clamp(0.0, 1.0);
        if jitter == 0.0 {
            return exp;
        }
        // Uniform in [1 - jitter, 1] of the exponential delay.
        let scale = 1.0 - jitter * rng.gen_range(0.0..1.0);
        exp.mul_f64(scale)
    }
}

/// One blocking connection to an `apt serve` instance.
///
/// The connection stays open across requests; every method is one
/// request/response round trip. Not `Sync` — use one client per thread
/// (the server multiplexes fairly across connections).
#[derive(Debug)]
pub struct ServeClient {
    stream: TcpStream,
    addr: SocketAddr,
    config: ClientConfig,
    retry_nonce: u64,
    /// The request frame being sent — header and payload encoded in place,
    /// so it leaves in one write — reused across requests.
    tx: Vec<u8>,
    /// The last response's payload, reused across requests.
    rx: Vec<u8>,
}

impl ServeClient {
    /// Connects to a running server with no socket timeouts.
    ///
    /// # Errors
    ///
    /// Propagates connection failures as [`ServeError::Io`].
    pub fn connect(addr: impl ToSocketAddrs) -> Result<ServeClient, ServeError> {
        ServeClient::connect_with(addr, &ClientConfig::default())
    }

    /// Connects with explicit connect/read/write timeouts.
    ///
    /// # Errors
    ///
    /// Propagates connection failures (including connect timeout) as
    /// [`ServeError::Io`].
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        config: &ClientConfig,
    ) -> Result<ServeClient, ServeError> {
        let mut last_err: Option<std::io::Error> = None;
        for resolved in addr.to_socket_addrs()? {
            let attempt = match config.connect_timeout {
                Some(t) => TcpStream::connect_timeout(&resolved, t),
                None => TcpStream::connect(resolved),
            };
            match attempt {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    stream.set_read_timeout(config.read_timeout)?;
                    stream.set_write_timeout(config.write_timeout)?;
                    return Ok(ServeClient {
                        stream,
                        addr: resolved,
                        config: config.clone(),
                        retry_nonce: 0,
                        tx: Vec::new(),
                        rx: Vec::new(),
                    });
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(ServeError::Io(last_err.unwrap_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "address resolved to nothing",
            )
        })))
    }

    /// The resolved address this client talks (and reconnects) to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Encodes the request frame into the send buffer: `op`, then whatever
    /// payload `fill` appends.
    fn compose(&mut self, op: u8, fill: impl FnOnce(&mut Vec<u8>)) -> Result<(), ServeError> {
        self.tx.clear();
        let mark = protocol::begin_frame(&mut self.tx, op);
        fill(&mut self.tx);
        let len = self.tx.len() - mark;
        if len > protocol::MAX_FRAME {
            return Err(ServeError::Protocol {
                reason: format!("outgoing frame of {len} bytes exceeds cap"),
            });
        }
        protocol::end_frame(&mut self.tx, mark);
        Ok(())
    }

    /// Sends the composed frame with one write and reads the response
    /// payload into the receive buffer, mapping error statuses back onto
    /// typed [`ServeError`]s.
    fn exchange(&mut self) -> Result<(), ServeError> {
        self.stream.write_all(&self.tx)?;
        let mut header = [0u8; 5];
        self.stream.read_exact(&mut header)?;
        let status = header[0];
        let len = u32::from_le_bytes([header[1], header[2], header[3], header[4]]) as usize;
        if len > protocol::MAX_FRAME {
            return Err(ServeError::Protocol {
                reason: format!(
                    "incoming frame claims {len} bytes, cap is {}",
                    protocol::MAX_FRAME
                ),
            });
        }
        self.rx.resize(len, 0);
        self.stream.read_exact(&mut self.rx)?;
        let text = || String::from_utf8_lossy(&self.rx).into_owned();
        match status {
            STATUS_OK => Ok(()),
            STATUS_OVERLOADED => Err(ServeError::Overloaded { queue_depth: 0 }),
            STATUS_BAD_REQUEST => Err(ServeError::BadRequest { reason: text() }),
            STATUS_SHUTTING_DOWN => Err(ServeError::ShuttingDown),
            STATUS_DEADLINE_EXCEEDED => Err(ServeError::DeadlineExceeded { waited_us: 0 }),
            // The model field is filled in by callers that know which
            // model the request named (e.g. `infer_model`).
            STATUS_MODEL_UNAVAILABLE => Err(ServeError::ModelUnavailable {
                model: String::new(),
                reason: text(),
            }),
            STATUS_INTERNAL => Err(ServeError::Internal { reason: text() }),
            // Forward compatibility: a newer server may speak statuses this
            // build does not know. The request's fate IS known (the server
            // answered), so this is typed distinctly and never retried.
            unknown => Err(ServeError::UnrecognizedStatus {
                status: unknown,
                reason: text(),
            }),
        }
    }

    /// One round trip for an op with no payload and a UTF-8 answer.
    fn text_op(&mut self, op: u8, what: &str) -> Result<String, ServeError> {
        self.compose(op, |_| {})?;
        self.exchange()?;
        String::from_utf8(self.rx.clone()).map_err(|_| ServeError::Protocol {
            reason: format!("{what} response is not UTF-8"),
        })
    }

    /// Runs one sample through the served model and returns its output row.
    ///
    /// # Errors
    ///
    /// Typed server-side failures ([`ServeError::Overloaded`],
    /// [`ServeError::BadRequest`], [`ServeError::DeadlineExceeded`],
    /// [`ServeError::ShuttingDown`]) plus I/O and protocol errors.
    pub fn infer(&mut self, sample: &[f32]) -> Result<Vec<f32>, ServeError> {
        self.compose(OP_INFER, |out| protocol::put_f32s(out, sample))?;
        self.infer_frame()
    }

    /// Runs one sample through the **named** model on a multi-tenant
    /// server and returns its output row.
    ///
    /// # Errors
    ///
    /// As [`infer`](Self::infer), plus [`ServeError::ModelUnavailable`]
    /// (with the model id filled in) when the model is unknown or was
    /// evicted under the server's resident-bytes budget — a condition this
    /// client never retries.
    pub fn infer_model(&mut self, model: &str, sample: &[f32]) -> Result<Vec<f32>, ServeError> {
        self.compose(OP_INFER_MODEL, |out| {
            protocol::put_model_infer(out, model, sample)
        })?;
        self.infer_frame().map_err(|e| fill_model(e, model))
    }

    /// Like [`infer`](Self::infer), but retries `Overloaded` sheds with
    /// the policy's backoff, reconnecting (also with backoff) if the
    /// connection drops mid-retry.
    ///
    /// # Errors
    ///
    /// The last error once `policy.max_retries` extra attempts are spent,
    /// or immediately for non-retryable failures (`BadRequest`,
    /// `Protocol`, `ShuttingDown`, `DeadlineExceeded`,
    /// `ModelUnavailable`, `UnrecognizedStatus`).
    pub fn infer_retry(
        &mut self,
        sample: &[f32],
        policy: &RetryPolicy,
    ) -> Result<Vec<f32>, ServeError> {
        self.compose(OP_INFER, |out| protocol::put_f32s(out, sample))?;
        self.retry_frame(policy)
    }

    /// Asks the server to rescan its model directory, ingesting new or
    /// changed checkpoints (and quarantining bad ones). Returns the JSON
    /// rescan report.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] when the server has no model directory,
    /// [`ServeError::Overloaded`] when a rescan is already running, plus
    /// I/O and protocol errors.
    pub fn reload(&mut self) -> Result<String, ServeError> {
        self.text_op(OP_RELOAD, "reload")
    }

    /// One inference round trip for the composed infer-shaped frame.
    fn infer_frame(&mut self) -> Result<Vec<f32>, ServeError> {
        self.exchange()?;
        protocol::decode_f32s(&self.rx)
    }

    /// The retry loop over the composed frame: only
    /// [`ServeError::Overloaded`] and [`ServeError::Io`] are transient;
    /// everything else is the request's final fate.
    fn retry_frame(&mut self, policy: &RetryPolicy) -> Result<Vec<f32>, ServeError> {
        self.retry_nonce = self.retry_nonce.wrapping_add(1);
        let mut rng = StdRng::seed_from_u64(policy.seed ^ self.retry_nonce);
        let mut attempt = 0u32;
        let mut broken = false;
        loop {
            let result = if broken {
                match ServeClient::connect_with(self.addr, &self.config) {
                    Ok(fresh) => {
                        self.stream = fresh.stream;
                        broken = false;
                        self.infer_frame()
                    }
                    Err(e) => Err(e),
                }
            } else {
                self.infer_frame()
            };
            match result {
                Ok(row) => return Ok(row),
                Err(e @ (ServeError::Overloaded { .. } | ServeError::Io(_))) => {
                    if matches!(e, ServeError::Io(_)) {
                        // The stream state is unknown; reconnect next try.
                        broken = true;
                    }
                    if attempt >= policy.max_retries {
                        return Err(e);
                    }
                    std::thread::sleep(policy.backoff(attempt, &mut rng));
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Fetches the server's serving counters as a JSON string.
    ///
    /// # Errors
    ///
    /// I/O, protocol, and server-side errors as for [`infer`](Self::infer).
    pub fn stats_json(&mut self) -> Result<String, ServeError> {
        self.text_op(OP_STATS, "stats")
    }

    /// Liveness/identity check; returns the health JSON.
    ///
    /// # Errors
    ///
    /// I/O, protocol, and server-side errors as for [`infer`](Self::infer).
    pub fn health(&mut self) -> Result<String, ServeError> {
        self.text_op(OP_HEALTH, "health")
    }
}

/// Stamps the requested model id onto a bare wire-level
/// `ModelUnavailable` (the status frame doesn't echo the id back).
fn fill_model(e: ServeError, model: &str) -> ServeError {
    match e {
        ServeError::ModelUnavailable { model: m, reason } if m.is_empty() => {
            ServeError::ModelUnavailable {
                model: model.to_string(),
                reason,
            }
        }
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_caps_and_jitters_within_bounds() {
        let p = RetryPolicy {
            max_retries: 8,
            base_delay: Duration::from_millis(2),
            max_delay: Duration::from_millis(100),
            jitter: 0.5,
            seed: 7,
        };
        let mut rng = StdRng::seed_from_u64(1);
        let mut prev_cap = Duration::ZERO;
        for attempt in 0..8 {
            let cap = p
                .base_delay
                .saturating_mul(2u32.saturating_pow(attempt))
                .min(p.max_delay);
            for _ in 0..32 {
                let d = p.backoff(attempt, &mut rng);
                assert!(d <= cap, "attempt {attempt}: {d:?} > cap {cap:?}");
                assert!(d >= cap.mul_f64(0.5), "attempt {attempt}: {d:?} too small");
            }
            assert!(cap >= prev_cap);
            prev_cap = cap;
        }
        // Zero jitter is exact.
        let exact = RetryPolicy {
            jitter: 0.0,
            ..p.clone()
        };
        assert_eq!(exact.backoff(0, &mut rng), Duration::from_millis(2));
        assert_eq!(exact.backoff(20, &mut rng), Duration::from_millis(100));
    }

    /// A one-connection fake server that answers every request frame with
    /// a fixed status byte, counting how many requests it saw. Lets the
    /// client's status mapping and retry exclusions be tested without a
    /// real fleet.
    fn fixed_status_server(status: u8) -> (SocketAddr, std::sync::mpsc::Receiver<usize>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut served = 0usize;
            while let Ok((_op, _payload)) = protocol::read_frame(&mut stream) {
                let _ = protocol::write_frame(&mut stream, status, b"future ladder rung");
                served += 1;
            }
            let _ = tx.send(served);
        });
        (addr, rx)
    }

    #[test]
    fn model_unavailable_status_is_typed_with_model_id_and_never_retried() {
        let (addr, served) = fixed_status_server(STATUS_MODEL_UNAVAILABLE);
        let mut client = ServeClient::connect(addr).unwrap();
        match client.infer_model("fleet-a", &[1.0, 2.0]) {
            Err(ServeError::ModelUnavailable { model, reason }) => {
                assert_eq!(model, "fleet-a");
                assert!(reason.contains("future ladder rung"));
            }
            other => panic!("expected ModelUnavailable, got {other:?}"),
        }
        // With a generous retry budget the client must still send exactly
        // one more request: unavailability is not transient here.
        let policy = RetryPolicy {
            max_retries: 10,
            ..RetryPolicy::default()
        };
        assert!(matches!(
            client.infer_retry(&[1.0, 2.0], &policy),
            Err(ServeError::ModelUnavailable { .. })
        ));
        drop(client);
        assert_eq!(served.recv().unwrap(), 2, "no retries may have fired");
    }

    #[test]
    fn unknown_status_byte_maps_typed_and_never_retried() {
        let (addr, served) = fixed_status_server(213);
        let mut client = ServeClient::connect(addr).unwrap();
        match client.infer(&[0.5]) {
            Err(ServeError::UnrecognizedStatus { status, reason }) => {
                assert_eq!(status, 213);
                assert!(reason.contains("future ladder rung"));
            }
            other => panic!("expected UnrecognizedStatus, got {other:?}"),
        }
        let policy = RetryPolicy {
            max_retries: 10,
            ..RetryPolicy::default()
        };
        assert!(matches!(
            client.infer_retry(&[0.5], &policy),
            Err(ServeError::UnrecognizedStatus { .. })
        ));
        drop(client);
        assert_eq!(served.recv().unwrap(), 2, "no retries may have fired");
    }

    #[test]
    fn connect_with_timeout_fails_fast_on_dead_port() {
        // Port 1 on loopback: nothing listens there; either refused
        // instantly or timed out — both must surface as typed Io.
        let cfg = ClientConfig {
            connect_timeout: Some(Duration::from_millis(200)),
            ..ClientConfig::default()
        };
        let t0 = std::time::Instant::now();
        let r = ServeClient::connect_with("127.0.0.1:1", &cfg);
        assert!(matches!(r, Err(ServeError::Io(_))));
        assert!(t0.elapsed() < Duration::from_secs(5));
    }
}
