//! Golden-file protocol tests: scripted serve sessions (requests plus
//! expected responses) checked in under `tests/golden/`, replayed against
//! **all three** protocol fronts — stdio, TCP on the readiness event
//! loop, and the cluster router (a one-node cluster, so every
//! counter-bearing line stays pinned) — from one shared harness. Any
//! drift in the command surface, an error message, the stats line or the
//! banner fails these tests loudly, with a diff against the file. The
//! router front doubles as the proof that the cluster tier is
//! protocol-transparent: clients cannot tell any front from any other.
//!
//! Golden-file format: `#` lines are comments, `> ` lines are sent to the
//! session in order, every other line is expected output. The expected
//! transcript must match byte-for-byte on each front (and therefore the
//! two fronts must match each other).
//!
//! Sessions run open (implicit local tenant) by default; goldens whose
//! name starts with `auth` run with a fixed two-tenant token registry —
//! the stdio front loads it from a token *file* via `--auth` while the
//! TCP front embeds the same registry directly, so the handshake bytes
//! are pinned across both wiring paths.
//!
//! Fit-bearing sessions cannot be pinned in a static file (the fitted
//! parameters would couple the protocol tests to the regression
//! internals), so the second half of this suite asserts the
//! acceptance-level property directly: the *same scripted session*,
//! including fits, streams and a binary frame, produces byte-identical
//! transcripts over stdio and over a socket.

use cpistack::cli::{self, ServeArgs};
use cpistack::model::FitOptions;
use cpistack::service::auth::TokenRegistry;
use cpistack::service::cluster::{ClusterHarness, RouterConfig};
use cpistack::service::{proto, CpiService, ServiceConfig};
use cpistack::sim::machine::MachineConfig;
use cpistack::SimSource;
use std::io::{Read, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Fixed tokens so the `hello` handshake bytes are stable in the golden
/// files. Never reuse these outside tests.
const TOKEN_ALPHA: &str = "tok-alpha-0123456789abcdef";
const TOKEN_BETA: &str = "tok-beta-fedcba9876543210";

/// The two-tenant registry every `auth*` golden runs under.
fn registry() -> Arc<TokenRegistry> {
    Arc::new(
        TokenRegistry::new()
            .with_token(TOKEN_ALPHA, "alpha")
            .expect("alpha token")
            .with_token(TOKEN_BETA, "beta")
            .expect("beta token"),
    )
}

/// Writes the same registry as a token file (the stdio front exercises
/// the `--auth <file>` loading path; the TCP harness embeds the registry
/// directly — both must produce identical transcripts). Written exactly
/// once per process: the auth tests run in parallel in one binary, and a
/// rewriting truncate could race another test's `TokenRegistry::load`
/// into seeing an empty file.
fn token_file() -> std::path::PathBuf {
    static PATH: std::sync::OnceLock<std::path::PathBuf> = std::sync::OnceLock::new();
    PATH.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("cpistack_golden_auth_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("tokens.txt");
        std::fs::write(
            &path,
            format!("# golden test tokens\n{TOKEN_ALPHA} alpha\n{TOKEN_BETA} beta\n"),
        )
        .expect("write token file");
        path
    })
    .clone()
}

/// One parsed golden session.
struct Golden {
    script: String,
    expected: Vec<u8>,
}

fn parse_golden(text: &str) -> Golden {
    let mut script = String::new();
    let mut expected = String::new();
    for line in text.lines() {
        if let Some(command) = line.strip_prefix("> ") {
            script.push_str(command);
            script.push('\n');
        } else if line == ">" {
            script.push('\n');
        } else if !line.starts_with('#') {
            expected.push_str(line);
            expected.push('\n');
        }
    }
    Golden {
        script,
        expected: expected.into_bytes(),
    }
}

/// The fixed session shape every golden file (and the fit session below)
/// runs under, so banners and stats lines are deterministic.
fn serve_args(auth: bool) -> ServeArgs {
    ServeArgs {
        workers: Some(2),
        cache: Some(4),
        quick: true,
        auth: auth.then(|| token_file().to_string_lossy().into_owned()),
        ..ServeArgs::default()
    }
}

fn service_config() -> ServiceConfig {
    ServiceConfig::new().with_workers(2).with_cache_capacity(4)
}

/// Runs a script through the stdio front and returns the raw transcript.
fn stdio_transcript(script: &str, auth: bool) -> Vec<u8> {
    let mut out = Vec::new();
    cli::serve(
        &serve_args(auth),
        std::io::Cursor::new(script.to_owned()),
        &mut out,
    )
    .expect("stdio session runs");
    out
}

/// Runs the same script through a TCP front (fresh service, ephemeral
/// port) and returns the raw transcript the socket carried.
fn tcp_transcript(script: &str, auth: bool) -> Vec<u8> {
    let config = service_config();
    let service = CpiService::start(config.clone());
    let spec = if auth {
        proto::SessionSpec::with_auth(service.client(), FitOptions::quick(), registry())
    } else {
        proto::SessionSpec::open(service.client(), FitOptions::quick())
    };
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let server = proto::serve_tcp(
        listener,
        spec,
        proto::TcpServerConfig::new(proto::banner(&config, true))
            .with_poll_interval(Duration::from_millis(2)),
    )
    .expect("tcp front starts");
    let mut stream = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    stream.write_all(script.as_bytes()).expect("send script");
    let mut transcript = Vec::new();
    stream
        .read_to_end(&mut transcript)
        .expect("read transcript");
    server.shutdown();
    service.shutdown();
    transcript
}

/// Runs the same script through the cluster router fronting a one-node
/// cluster (one node, so requests/fits counters accumulate exactly as
/// on a single server — the protocol-transparency the tentpole
/// promises) and returns the raw transcript.
fn router_transcript(script: &str, auth: bool) -> Vec<u8> {
    static SCRATCH: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "cpistack_golden_router_{}_{}",
        std::process::id(),
        SCRATCH.fetch_add(1, Ordering::SeqCst)
    ));
    let mut builder = ClusterHarness::builder(&dir)
        .with_nodes(1)
        .with_workers(2)
        .with_cache(4)
        .with_options(FitOptions::quick())
        .with_router(
            RouterConfig::new(proto::banner(&service_config(), true))
                .with_poll_interval(Duration::from_millis(2)),
        );
    if auth {
        builder = builder.with_registry(registry());
    }
    let harness = builder.start().expect("cluster boots");
    let mut stream = std::net::TcpStream::connect(harness.router_addr()).expect("connect");
    stream.write_all(script.as_bytes()).expect("send script");
    let mut transcript = Vec::new();
    stream
        .read_to_end(&mut transcript)
        .expect("read transcript");
    harness.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    transcript
}

fn diff_for(label: &str, actual: &[u8], expected: &[u8]) -> String {
    format!(
        "{label} transcript diverged from the golden file.\n--- expected ---\n{}\n--- actual ---\n{}",
        String::from_utf8_lossy(expected),
        String::from_utf8_lossy(actual),
    )
}

fn check_golden(name: &str) {
    let auth = name.starts_with("auth");
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    let golden = parse_golden(&std::fs::read_to_string(&path).expect("golden file reads"));
    let stdio = stdio_transcript(&golden.script, auth);
    assert!(
        stdio == golden.expected,
        "{}",
        diff_for(&format!("stdio:{name}"), &stdio, &golden.expected)
    );
    let tcp = tcp_transcript(&golden.script, auth);
    assert!(
        tcp == golden.expected,
        "{}",
        diff_for(&format!("tcp:{name}"), &tcp, &golden.expected)
    );
    let router = router_transcript(&golden.script, auth);
    assert!(
        router == golden.expected,
        "{}",
        diff_for(&format!("router:{name}"), &router, &golden.expected)
    );
}

#[test]
fn golden_basics_session_matches_on_both_fronts() {
    check_golden("basics.session");
}

#[test]
fn golden_errors_session_matches_on_both_fronts() {
    check_golden("errors.session");
}

#[test]
fn golden_auth_session_matches_on_both_fronts() {
    check_golden("auth.session");
}

/// The acceptance criterion, end to end: a scripted session that
/// registers, ingests, fits (twice — the repeat must hit the cache),
/// streams stacks and predictions, ships a binary frame and reads stats
/// gives **byte-identical** responses over stdio and over TCP.
#[test]
fn fit_session_is_byte_identical_across_fronts() {
    let dir = std::env::temp_dir().join(format!("cpistack_golden_fit_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let records = SimSource::new()
        .suite(
            cpistack::workloads::suites::cpu2000()
                .into_iter()
                .take(12)
                .collect(),
        )
        .uops(3_000)
        .seed(42)
        .collect_config(&MachineConfig::core2());
    let csv = dir.join("golden.csv");
    std::fs::write(&csv, pmu::csv::to_csv(&records)).expect("write csv");
    let script = format!(
        "machine core2 4 14 19 169 30\n\
         ingest {path}\n\
         fit core2 cpu2000\n\
         fit core2 cpu2000\n\
         stack core2 cpu2000\n\
         predict core2 cpu2000\n\
         binstack core2 cpu2000\n\
         stats\n\
         quit\n",
        path = csv.display()
    );
    let stdio = stdio_transcript(&script, false);
    let tcp = tcp_transcript(&script, false);
    assert!(
        stdio == tcp,
        "fronts diverged.\n--- stdio ---\n{}\n--- tcp ---\n{}",
        String::from_utf8_lossy(&stdio),
        String::from_utf8_lossy(&tcp),
    );
    let router = router_transcript(&script, false);
    assert!(
        router == tcp,
        "router front diverged.\n--- tcp ---\n{}\n--- router ---\n{}",
        String::from_utf8_lossy(&tcp),
        String::from_utf8_lossy(&router),
    );
    let text = String::from_utf8_lossy(&stdio);
    assert!(text.contains("cache: miss"), "{text}");
    assert!(text.contains("cache: hit"), "{text}");
    assert!(text.contains("stack "), "{text}");
    assert!(text.contains("frame stacks "), "{text}");
    assert!(text.contains("fits 1 "), "one regression total: {text}");
    assert!(
        text.contains("tenant local"),
        "open sessions run as the local tenant: {text}"
    );
    assert!(!text.contains("err:"), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The same acceptance property on an auth-gated server: an
/// authenticated tenant's fit-bearing session is byte-identical across
/// fronts (including the handshake preamble), and its stats line names
/// the tenant.
#[test]
fn authenticated_fit_session_is_byte_identical_across_fronts() {
    let dir = std::env::temp_dir().join(format!("cpistack_golden_afit_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let records = SimSource::new()
        .suite(
            cpistack::workloads::suites::cpu2000()
                .into_iter()
                .take(12)
                .collect(),
        )
        .uops(3_000)
        .seed(42)
        .collect_config(&MachineConfig::core2());
    let csv = dir.join("golden.csv");
    std::fs::write(&csv, pmu::csv::to_csv(&records)).expect("write csv");
    let script = format!(
        "hello {TOKEN_ALPHA}\n\
         machine core2 4 14 19 169 30\n\
         ingest {path}\n\
         fit core2 cpu2000\n\
         fit core2 cpu2000\n\
         stats\n\
         quit\n",
        path = csv.display()
    );
    let stdio = stdio_transcript(&script, true);
    let tcp = tcp_transcript(&script, true);
    assert!(
        stdio == tcp,
        "fronts diverged.\n--- stdio ---\n{}\n--- tcp ---\n{}",
        String::from_utf8_lossy(&stdio),
        String::from_utf8_lossy(&tcp),
    );
    let router = router_transcript(&script, true);
    assert!(
        router == tcp,
        "router front diverged.\n--- tcp ---\n{}\n--- router ---\n{}",
        String::from_utf8_lossy(&tcp),
        String::from_utf8_lossy(&router),
    );
    let text = String::from_utf8_lossy(&stdio);
    assert!(text.contains("hello alpha"), "{text}");
    assert!(text.contains("cache: hit"), "{text}");
    assert!(text.contains("fits 1 "), "{text}");
    assert!(text.contains("tenant alpha"), "{text}");
    assert!(!text.contains("err:"), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}
