//! Corruption-campaign cell, gate 8: flipped and truncated checkpoint
//! uploads hit the in-band directory-reload path (`OP_RELOAD`). Every
//! upload is a v3 blob, the only version the reader accepts, whose CRC
//! makes rejection of any flip or cut a hard contract (older versions are
//! refused by version in `serve/tests/ingest_faults.rs`).
//!
//! 100% of the damaged uploads must be typed-rejected and moved to
//! quarantine with `.reason` sidecars, none left in the model dir; the
//! published plan keeps serving bit-exactly through the campaign, and a
//! quarantined id answers typed `ModelUnavailable` on the wire.

use crate::{build_blob, push_row, spec, Cell, Gates, Served, Tally, BATCH8, DIMS};
use apt_bench::bit_identical;
use apt_core::faults::{flip_byte, truncate_file};
use apt_metrics::Table;
use apt_serve::{ConnLimits, ModelRegistry, RegistryConfig, ServeClient, ServeError, Server};
use apt_tensor::rng;
use std::sync::Arc;
use std::time::Instant;

pub(crate) fn run(gates: &mut Gates, rows: &mut Table) {
    gates.open("corruption — 100% quarantine, serving plan undisturbed");
    let dir = std::env::temp_dir().join(format!("apt-bench-corruption-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("campaign dir");
    let qdir = dir.join("quarantine");

    std::fs::write(dir.join("serving.aptc"), build_blob(8, 77)).expect("write serving model");
    let registry = Arc::new(ModelRegistry::new(RegistryConfig {
        model_dir: Some(dir.clone()),
        quarantine_dir: Some(qdir.clone()),
        spec: Some(spec()),
        ..RegistryConfig::default()
    }));
    let report = registry.rescan().expect("initial rescan");
    gates.check(
        report.ingested == ["serving"],
        format_args!("initial rescan ingested {:?}", report.ingested),
    );
    let cell = Cell::k8("corruption", BATCH8, 1);
    let config = cell.server_config("serving", 128, ConnLimits::default());
    let mut server =
        Server::start_with_registry(Arc::clone(&registry), config).expect("server starts");
    let mut client = ServeClient::connect(server.addr()).expect("client connect");
    let sample = rng::normal(&[DIMS[0]], 1.0, &mut rng::seeded(61)).into_vec();
    let baseline = client.infer(&sample).expect("baseline infer");
    let mut tally = Tally {
        ok: 1,
        ..Tally::default()
    };

    // The campaign: drop damaged files into the watched directory.
    let t0 = Instant::now();
    let mut campaign = 0usize;
    let original = build_blob(8, 93);
    for k in 0..12usize {
        let path = dir.join(format!("bad-v3-flip{k}.aptc"));
        std::fs::write(&path, &original).expect("write campaign file");
        flip_byte(&path, (original.len() / 13) * (k + 1), 0x5A).expect("flip");
        campaign += 1;
    }
    for k in 0..9usize {
        let path = dir.join(format!("bad-v3-cut{k}.aptc"));
        std::fs::write(&path, &original).expect("write campaign file");
        truncate_file(&path, original.len() / (k + 2)).expect("truncate");
        campaign += 1;
    }

    // Reload in-band, over the same connection that keeps inferring.
    let report_json = client.reload().expect("in-band reload");
    gates.check(
        report_json.contains("bad-v3-flip0.aptc"),
        format_args!("reload report does not name the rejected files: {report_json}"),
    );

    // 100% rejection + quarantine with sidecars; nothing left behind.
    for entry in std::fs::read_dir(&dir).expect("read model dir") {
        let name = entry.expect("dir entry").file_name();
        gates.check(
            !name.to_string_lossy().starts_with("bad-"),
            format_args!("corrupt upload {name:?} left in the model dir"),
        );
    }
    let (mut moved, mut sidecars) = (0usize, 0usize);
    if qdir.is_dir() {
        for entry in std::fs::read_dir(&qdir).expect("read quarantine dir") {
            let name = entry.expect("dir entry").file_name();
            if name.to_string_lossy().ends_with(".reason") {
                sidecars += 1;
            } else {
                moved += 1;
            }
        }
    }
    gates.check(
        moved == campaign && sidecars == campaign,
        format_args!(
            "quarantine holds {moved} files + {sidecars} sidecars, expected {campaign} each"
        ),
    );

    // The serving plan is untouched bit-for-bit, and a quarantined id is
    // a typed in-band miss — the connection survives both.
    tally.count(client.infer(&sample), |after| {
        bit_identical(after, &baseline)
    });
    gates.check(tally.ok == 2, "corrupt uploads disturbed the serving plan");
    let quarantined = client.infer_model("bad-v3-flip0", &sample);
    gates.check(
        matches!(quarantined, Err(ServeError::ModelUnavailable { .. })),
        format_args!("quarantined id answered {quarantined:?}, wanted typed ModelUnavailable"),
    );

    let served = Served::close(&mut server, t0, 2, tally);
    let _ = std::fs::remove_dir_all(&dir);

    let snap = &served.stats;
    println!(
        "  corruption: {campaign} damaged uploads → {} quarantined with sidecars; serving plan \
         bit-exact, {} resident",
        snap.quarantines, snap.models_resident
    );
    gates.check(
        snap.quarantines == campaign as u64,
        format_args!(
            "only {}/{campaign} corrupt uploads counted as quarantined",
            snap.quarantines
        ),
    );
    gates.check(
        snap.models_resident == 1,
        format_args!(
            "{} models resident after the campaign, expected 1",
            snap.models_resident
        ),
    );
    gates.pass("corruption gates held");
    push_row(rows, &cell, &served);
}
