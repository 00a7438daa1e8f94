//! The multi-node serving tier, end to end: consistent-hash routing
//! through the router front, snapshot replication to ring successors,
//! and — the acceptance criterion — kill-a-node warm failover: killing
//! a backend mid-session leaves its tenants servable by survivors from
//! replicated snapshots with **zero re-fits** and stacks byte-identical
//! to a solo `Workbench::fit()` run. Also: router transcripts are
//! byte-identical to a single node's (text lines AND binstack frames)
//! for two tenants concurrently, draining takes a node out of rotation
//! without touching it, and cluster failures surface as typed errors.

use cpistack::loadgen::{self, LoadgenConfig, RequestTemplate};
use cpistack::model::{FitOptions, MicroarchParams};
use cpistack::service::auth::TokenRegistry;
use cpistack::service::cluster::{ClusterError, ClusterHarness, RouterConfig};
use cpistack::service::{proto, CpiService, ServiceConfig};
use cpistack::sim::machine::MachineConfig;
use cpistack::workbench::Grouping;
use cpistack::{CsvSource, SimSource, Workbench};
use pmu::{MachineId, Suite};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// Core 2 constants as the protocol's `machine` command states them.
const ARCH: [f64; 5] = [4.0, 14.0, 19.0, 169.0, 30.0];

const TOKEN_ALPHA: &str = "tok-alpha-0123456789abcdef";
const TOKEN_BETA: &str = "tok-beta-fedcba9876543210";

/// A fresh scratch dir per test (name disambiguates parallel tests in
/// one process).
fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cpistack_cluster_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Writes the fixed-seed counter CSV every party fits from.
fn counters_csv(dir: &std::path::Path) -> String {
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
    let path = dir.join("campaign.csv");
    std::fs::write(&path, pmu::csv::to_csv(&records)).expect("write csv");
    path.to_string_lossy().into_owned()
}

/// The solo ground truth: the same CSV through `Workbench::fit()`,
/// stacks formatted exactly as the protocol's `stack` lines.
fn sequential_stack_lines(csv: &str) -> String {
    let fitted = Workbench::new()
        .arch(MicroarchParams::new(
            ARCH[0], ARCH[1], ARCH[2], ARCH[3], ARCH[4],
        ))
        .source(CsvSource::from_path(csv).expect("csv source"))
        .grouping(Grouping::MachineSuite)
        .fit_options(FitOptions::quick())
        .collect()
        .expect("collect")
        .fit()
        .expect("fit");
    let group = fitted
        .group(MachineId::Core2, Suite::Cpu2000)
        .expect("core2 group");
    group
        .stacks()
        .into_iter()
        .map(|(benchmark, stack)| format!("stack {benchmark} {stack}\n"))
        .collect()
}

/// Opens a connection, sends `script`, and returns everything the server
/// wrote until it closed the connection.
fn tcp_session(addr: std::net::SocketAddr, script: &str) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(script.as_bytes()).expect("send script");
    let mut transcript = Vec::new();
    stream
        .read_to_end(&mut transcript)
        .expect("read transcript");
    transcript
}

/// Just the `stack ` lines of a transcript, newline-joined.
fn stack_lines(transcript: &[u8]) -> String {
    String::from_utf8_lossy(transcript)
        .lines()
        .filter(|l| l.starts_with("stack "))
        .map(|l| format!("{l}\n"))
        .collect()
}

/// A fast-polling router config for tests (a short idle timeout bounds
/// any accidental hang at seconds, not minutes).
fn test_router(banner: impl Into<String>) -> RouterConfig {
    RouterConfig::new(banner)
        .with_poll_interval(Duration::from_millis(2))
        .with_idle_timeout(Some(Duration::from_secs(10)))
}

/// The acceptance criterion: 3 nodes, replication on; a session fits
/// through the router; the owner node is killed for real; a new session
/// re-queries the dead node's key and the ring successor serves it from
/// the replicated snapshot — `warm 1`, `fits 0`, stacks byte-identical
/// to the solo Workbench run.
#[test]
fn killing_a_node_serves_its_tenants_warm_with_zero_refits() {
    let dir = scratch("failover");
    let csv = counters_csv(&dir);
    let expected = sequential_stack_lines(&csv);

    let mut harness = ClusterHarness::builder(dir.join("state"))
        .with_nodes(3)
        .with_router(test_router("cluster"))
        .start()
        .expect("cluster boots");
    let router = harness.router_addr();

    // Fit through the router; the response must already be the solo
    // stacks, byte for byte.
    let fit_session = tcp_session(
        router,
        &format!("machine core2 4 14 19 169 30\ningest {csv}\nfit core2 cpu2000\nstack core2 cpu2000\nquit\n"),
    );
    let text = String::from_utf8_lossy(&fit_session);
    assert!(text.contains("ingested 12 records"), "{text}");
    assert!(text.contains("cache: miss"), "{text}");
    assert!(!text.contains("err:"), "{text}");
    assert_eq!(stack_lines(&fit_session), expected);

    // Kill the node that owns (local, core2) — its port now refuses
    // connections, exactly like a crashed process.
    let owner = harness
        .owner_index("local", "core2")
        .expect("core2 has an owner");
    harness.kill(owner);

    // A fresh session re-queries the dead node's key through the router:
    // the ring successor must serve it from the replicated snapshot.
    let after = tcp_session(router, "stack core2 cpu2000\nstats\nquit\n");
    let after_text = String::from_utf8_lossy(&after);
    assert!(
        !after_text.contains("err:"),
        "failover must be invisible: {after_text}"
    );
    assert_eq!(
        stack_lines(&after),
        expected,
        "failover stacks must equal the solo Workbench run byte-for-byte"
    );
    // Zero re-fits: the survivor warm-loaded the replicated snapshot.
    assert!(after_text.contains(" fits 0 "), "{after_text}");
    assert!(after_text.contains(" warm 1 "), "{after_text}");

    // The dead node is typed Down once probed.
    let dead = harness.node_name(owner).to_owned();
    match harness.router().probe(&dead) {
        Err(ClusterError::NodeDown { node, .. }) => assert_eq!(node, dead),
        other => panic!("expected NodeDown for `{dead}`, got {other:?}"),
    }

    harness.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Failover under fire: while an open-loop loadgen campaign hammers a
/// survivor-owned tenant through the router, the node owning another
/// tenant's key is killed mid-campaign. The bystander traffic must not
/// notice — zero drops, zero in-band errors, every response still
/// byte-identical to the solo baseline — and the dead tenant's key must
/// still fail over warm (`fits 0`, `warm 1`, solo-identical stacks).
#[test]
fn killing_a_node_under_concurrent_loadgen_leaves_survivors_clean() {
    let dir = scratch("failover_load");
    let csv = counters_csv(&dir);
    let expected = sequential_stack_lines(&csv);
    let mut expected_wire = expected.clone().into_bytes();
    expected_wire.extend_from_slice(b"ok\n");

    let registry = Arc::new(
        TokenRegistry::new()
            .with_token(TOKEN_ALPHA, "alpha")
            .expect("alpha token")
            .with_token(TOKEN_BETA, "beta")
            .expect("beta token"),
    );
    let mut harness = ClusterHarness::builder(dir.join("state"))
        .with_nodes(3)
        .with_registry(Arc::clone(&registry))
        .with_router(test_router("cluster").with_max_connections(96))
        .start()
        .expect("cluster boots");
    let router = harness.router_addr();

    // The two tenants hash to different ring positions for the same
    // machine — killing beta's owner makes alpha's campaign a pure
    // bystander.
    let beta_owner = harness
        .owner_index("beta", "core2")
        .expect("beta core2 owner");
    let alpha_owner = harness
        .owner_index("alpha", "core2")
        .expect("alpha core2 owner");
    assert_ne!(
        beta_owner, alpha_owner,
        "ring placement must separate the tenants for this scenario"
    );

    // Warm both tenants through the router (fit → replicated snapshot).
    for token in [TOKEN_ALPHA, TOKEN_BETA] {
        let setup = tcp_session(
            router,
            &format!(
                "hello {token}\nmachine core2 4 14 19 169 30\ningest {csv}\nfit core2 cpu2000\nquit\n"
            ),
        );
        assert!(
            !String::from_utf8_lossy(&setup).contains("err:"),
            "{}",
            String::from_utf8_lossy(&setup)
        );
    }

    // Alpha's campaign runs while the kill lands ~a third of the way in.
    let config = LoadgenConfig::new(router, "core2", "cpu2000")
        .with_connections(32)
        .with_rate(5.0)
        .with_duration(Duration::from_millis(1500))
        .with_hello(TOKEN_ALPHA)
        .with_requests(vec![
            RequestTemplate::expecting("stack core2 cpu2000", expected_wire.clone()),
            RequestTemplate::new("binstack core2 cpu2000"),
        ]);
    let report = std::thread::scope(|scope| {
        let campaign = scope.spawn(|| loadgen::run(&config).expect("campaign runs"));
        std::thread::sleep(Duration::from_millis(500));
        harness.kill(beta_owner);
        campaign.join().unwrap()
    });
    assert_eq!(
        report.dropped,
        0,
        "a bystander tenant must not lose connections to another tenant's node dying\n{}",
        report.summary()
    );
    assert_eq!(
        report.errors,
        0,
        "bystander responses must stay byte-identical through the kill\n{}",
        report.summary()
    );
    assert_eq!(report.sustained, 32, "{}", report.summary());
    assert_eq!(report.completed, report.sent, "{}", report.summary());

    // And the dead tenant's key still fails over warm, as in the quiet
    // scenario: the successor serves the replicated snapshot, no re-fit.
    let after = tcp_session(
        router,
        &format!("hello {TOKEN_BETA}\nstack core2 cpu2000\nstats\nquit\n"),
    );
    let after_text = String::from_utf8_lossy(&after);
    assert!(
        !after_text.contains("err:"),
        "failover must be invisible: {after_text}"
    );
    assert_eq!(stack_lines(&after), expected);
    assert!(after_text.contains(" fits 0 "), "{after_text}");
    assert!(after_text.contains(" warm 1 "), "{after_text}");

    harness.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite: a fit-bearing session through the router is byte-identical
/// (text lines AND the binstack frame) to the same session against a
/// single node — for two tenants running concurrently.
#[test]
fn router_transcripts_match_single_node_byte_for_byte_for_two_tenants() {
    let dir = scratch("proxy");
    let csv = counters_csv(&dir);
    let registry = Arc::new(
        TokenRegistry::new()
            .with_token(TOKEN_ALPHA, "alpha")
            .expect("alpha token")
            .with_token(TOKEN_BETA, "beta")
            .expect("beta token"),
    );
    let script_for = |token: &str| {
        format!(
            "hello {token}\n\
             machine core2 4 14 19 169 30\n\
             ingest {csv}\n\
             fit core2 cpu2000\n\
             fit core2 cpu2000\n\
             stack core2 cpu2000\n\
             predict core2 cpu2000\n\
             binstack core2 cpu2000\n\
             stats\n\
             quit\n"
        )
    };

    // Ground truth: each tenant against its own fresh single node, same
    // banner the cluster announces.
    let solo_for = |token: &str| {
        let config = ServiceConfig::new().with_workers(2).with_cache_capacity(8);
        let service = CpiService::start(config);
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let server = proto::serve_tcp(
            listener,
            proto::SessionSpec::with_auth(
                service.client(),
                FitOptions::quick(),
                Arc::clone(&registry),
            ),
            proto::TcpServerConfig::new("cluster").with_poll_interval(Duration::from_millis(2)),
        )
        .expect("solo front");
        let transcript = tcp_session(server.local_addr(), &script_for(token));
        server.shutdown();
        service.shutdown();
        transcript
    };
    let solo_alpha = solo_for(TOKEN_ALPHA);
    let solo_beta = solo_for(TOKEN_BETA);

    let harness = ClusterHarness::builder(dir.join("state"))
        .with_nodes(3)
        .with_registry(Arc::clone(&registry))
        .with_router(test_router("cluster"))
        .start()
        .expect("cluster boots");
    let router = harness.router_addr();
    let (via_alpha, via_beta) = std::thread::scope(|scope| {
        let a = scope.spawn(|| tcp_session(router, &script_for(TOKEN_ALPHA)));
        let b = scope.spawn(|| tcp_session(router, &script_for(TOKEN_BETA)));
        (a.join().unwrap(), b.join().unwrap())
    });

    for (tenant, via, solo) in [
        ("alpha", &via_alpha, &solo_alpha),
        ("beta", &via_beta, &solo_beta),
    ] {
        assert!(
            via == solo,
            "tenant {tenant} diverged through the router.\n--- solo ---\n{}\n--- router ---\n{}",
            String::from_utf8_lossy(solo),
            String::from_utf8_lossy(via),
        );
        let text = String::from_utf8_lossy(via);
        assert!(text.contains(&format!("hello {tenant}")), "{text}");
        assert!(text.contains("cache: hit"), "{text}");
        assert!(text.contains("frame stacks "), "{text}");
        assert!(text.contains(&format!("tenant {tenant}")), "{text}");
    }

    harness.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Writes a campaign CSV covering all three paper machines (same seed)
/// so two-machine commands have real records on every side.
fn three_machine_csv(dir: &std::path::Path) -> String {
    let suite: Vec<_> = cpistack::workloads::suites::cpu2000()
        .into_iter()
        .take(12)
        .collect();
    let mut records = Vec::new();
    for config in [
        MachineConfig::pentium4(),
        MachineConfig::core2(),
        MachineConfig::core_i7(),
    ] {
        records.extend(
            SimSource::new()
                .suite(suite.clone())
                .uops(3_000)
                .seed(42)
                .collect_config(&config),
        );
    }
    let path = dir.join("trio.csv");
    std::fs::write(&path, pmu::csv::to_csv(&records)).expect("write csv");
    path.to_string_lossy().into_owned()
}

/// The single-node ground truth for a whole scripted session: the same
/// banner and fit options the cluster nodes run with, so a router
/// transcript can be compared byte-for-byte.
fn solo_transcript(script: &str) -> Vec<u8> {
    let service = CpiService::start(ServiceConfig::new().with_workers(2).with_cache_capacity(16));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let server = proto::serve_tcp(
        listener,
        proto::SessionSpec::open(service.client(), FitOptions::quick()),
        proto::TcpServerConfig::new("cluster").with_poll_interval(Duration::from_millis(2)),
    )
    .expect("solo front");
    let transcript = tcp_session(server.local_addr(), script);
    server.shutdown();
    service.shutdown();
    transcript
}

/// Satellite regression: `delta <old> <new> <suite>` routes by a single
/// `(tenant, machine)` key, so when the ring places the two machines on
/// *different* owners the serving node used to know nothing about the
/// new side and the command failed where a single node succeeds. The
/// router must ship the missing machine's records over first; with that
/// in place the whole session transcript — registration, ingest, and
/// the delta stacks — is byte-identical to the same script against a
/// single node. Replication is off so nothing reaches the old side's
/// owner by accident: this is exactly the split that used to break.
#[test]
fn two_owner_delta_through_the_router_matches_a_single_node() {
    let dir = scratch("two_owner_delta");
    let csv = three_machine_csv(&dir);

    let harness = ClusterHarness::builder(dir.join("state"))
        .with_nodes(3)
        .with_router(test_router("cluster").with_replicas(0))
        .start()
        .expect("cluster boots");
    // The scenario needs an old/new pair the ring places on different
    // owners; with three presets over three nodes at least one of the
    // ordered pairs must split.
    let machines = ["pentium4", "core2", "corei7"];
    let owner = |m: &str| harness.owner_index("local", m).expect("owner");
    let (old, new) = machines
        .iter()
        .flat_map(|a| machines.iter().map(move |b| (*a, *b)))
        .find(|(a, b)| a != b && owner(a) != owner(b))
        .expect("ring placement must split at least one pair");

    let script = format!(
        "machine pentium4 3 20 24 206 35\n\
         machine core2 4 14 19 169 30\n\
         machine corei7 4 16 14 120 25\n\
         ingest {csv}\n\
         delta {old} {new} cpu2000\n\
         quit\n"
    );
    let solo = solo_transcript(&script);
    let solo_text = String::from_utf8_lossy(&solo);
    assert!(
        solo_text.contains("Δ") && !solo_text.contains("err:"),
        "single-node baseline must serve the delta: {solo_text}"
    );

    let via = tcp_session(harness.router_addr(), &script);
    assert!(
        via == solo,
        "a two-owner delta diverged through the router.\n--- solo ---\n{}\n--- router ---\n{}",
        solo_text,
        String::from_utf8_lossy(&via),
    );

    harness.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Direct `stats` on one node (bypassing the router): its `fits` and
/// `requests` counters for the open tenant.
fn node_counters(addr: std::net::SocketAddr) -> (u64, u64) {
    let text = String::from_utf8(tcp_session(addr, "stats\nquit\n")).expect("utf-8");
    let counter = |name: &str| -> u64 {
        let words: Vec<&str> = text.split_whitespace().collect();
        let at = words.iter().position(|w| *w == name).expect("counter");
        words[at + 1].parse().expect("number")
    };
    (counter("fits"), counter("requests"))
}

/// A design-space sweep through the router runs whole on the base's
/// owner, which owns every variant too. The transcript — variant
/// lines, Pareto front and the `sweep:` summary — is byte-identical to
/// the same sweep against a single node. A variant's stacks served
/// through the router afterwards match the single node's and refit
/// nothing. A warm re-sweep then serves entirely from the owner's
/// cache: zero simulated configs, zero runs, every variant a cache hit,
/// and no node's `fits` moves.
#[test]
fn sweep_through_the_router_matches_a_single_node_and_resweeps_warm() {
    let dir = scratch("router_sweep");
    let sweep = "sweep core2 cpu2000 rob=64,96 mshr=8,16 uops=2000 seed=7 limit=12\n";
    let script = format!("{sweep}quit\n");
    let stack = "stack core2+rob64 cpu2000\nquit\n";
    // One solo session answers both: banner, sweep, stack, quit.
    let solo = solo_transcript(&format!("{sweep}{stack}"));
    let solo_text = String::from_utf8_lossy(&solo).into_owned();
    assert!(!solo_text.contains("err:"), "{solo_text}");
    let mut replies = solo_text.split_inclusive("\nok\n");
    let (solo_sweep, solo_stack) = (
        replies.next().expect("sweep reply"),
        replies.next().expect("stack reply"),
    );
    let (banner, sweep_reply) = solo_sweep.split_once('\n').expect("banner");
    let solo_sweep = format!("{solo_sweep}ok\n");
    let solo_stack = format!("{banner}\n{solo_stack}ok\n");
    assert_eq!(
        sweep_reply.matches("variant ").count(),
        4,
        "grid must expand to 4 variants: {solo_text}"
    );
    assert!(solo_stack.contains("\nstack "), "{solo_text}");

    let harness = ClusterHarness::builder(dir.join("state"))
        .with_nodes(3)
        .with_router(test_router("cluster"))
        .start()
        .expect("cluster boots");
    let router = harness.router_addr();

    // Every variant lives with its base.
    let base_owner = harness.owner_index("local", "core2").expect("owner");
    for name in ["core2+rob64", "core2+rob64+mshr8", "core2+mshr8"] {
        assert_eq!(
            harness.owner_index("local", name),
            Some(base_owner),
            "variant `{name}` must route with its base"
        );
    }

    let via = tcp_session(router, &script);
    assert_eq!(
        String::from_utf8_lossy(&via),
        solo_sweep,
        "a router sweep diverged from the single-node run"
    );
    assert!(
        solo_sweep.contains("cache miss"),
        "a cold sweep fits its variants: {solo_sweep}"
    );
    let fits = || -> Vec<u64> {
        (0..harness.node_count())
            .map(|i| node_counters(harness.node_addr(i)).0)
            .collect()
    };
    let cold_fits = fits();

    // The swept variant's model is served where the sweep fitted it.
    let via_stack = tcp_session(router, stack);
    assert_eq!(
        String::from_utf8_lossy(&via_stack),
        solo_stack,
        "a swept variant's stacks diverged through the router"
    );
    assert_eq!(fits(), cold_fits, "serving a swept variant must not refit");

    // Warm re-sweep: the owner serves from cache, nothing simulates.
    let warm = tcp_session(router, &script);
    let warm_text = String::from_utf8_lossy(&warm);
    assert!(
        warm_text.contains("simulated configs 0 runs 0"),
        "a re-sweep must refit nothing: {warm_text}"
    );
    assert!(
        !warm_text.contains("cache miss"),
        "a re-sweep must be all cache hits: {warm_text}"
    );
    let variants = |text: &str| -> Vec<String> {
        text.lines()
            .filter(|l| l.starts_with("variant ") || l.starts_with("pareto "))
            .map(str::to_owned)
            .collect()
    };
    // Same ranking and values; only the cold sweep's `cache miss`
    // markers turn into hits.
    assert_eq!(
        variants(&warm_text),
        variants(&solo_sweep.replace("cache miss", "cache hit"))
    );
    assert_eq!(fits(), cold_fits, "a warm re-sweep must not refit");

    harness.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A dead base owner costs a whole-line retry: the ring reroutes the
/// sweep, base and variants together, to a survivor, which serves the
/// full grid with the same variant values and Pareto front and no
/// in-band errors.
#[test]
fn sweep_fails_over_whole_to_a_survivor_after_the_base_owner_dies() {
    let dir = scratch("sweep_failover");
    let script = "sweep core2 cpu2000 rob=48,96 uops=2000 seed=11 limit=12\nquit\n";
    let harness_dir = dir.join("state");
    let mut harness = ClusterHarness::builder(harness_dir)
        .with_nodes(3)
        .with_router(test_router("cluster"))
        .start()
        .expect("cluster boots");
    let router = harness.router_addr();
    let ranked = |text: &str| -> Vec<String> {
        text.lines()
            .filter(|l| l.starts_with("variant ") || l.starts_with("pareto "))
            .map(|l| l.split(" cache ").next().unwrap_or(l).to_owned())
            .collect()
    };

    let cold = tcp_session(router, script);
    let cold_text = String::from_utf8_lossy(&cold).into_owned();
    assert!(!cold_text.contains("err:"), "{cold_text}");
    assert_eq!(cold_text.matches("\nvariant ").count(), 2, "{cold_text}");

    let owner = harness.owner_index("local", "core2").expect("base owner");
    assert_eq!(harness.owner_index("local", "core2+rob48"), Some(owner));
    harness.kill(owner);

    let after = tcp_session(router, script);
    let after_text = String::from_utf8_lossy(&after);
    assert!(
        !after_text.contains("err:"),
        "a dead owner must reroute, not fail the sweep: {after_text}"
    );
    assert_eq!(
        ranked(&after_text),
        ranked(&cold_text),
        "the survivor must reproduce the same variants and front"
    );
    assert_ne!(harness.owner_index("local", "core2"), Some(owner));

    harness.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Draining removes a node from rotation without touching it: its keys
/// reroute, new work lands on survivors, and the drained node itself
/// keeps serving direct connections. Reviving it brings its keys back.
/// Replication is off, so a routed command reaches exactly one node.
#[test]
fn draining_reroutes_keys_while_the_node_keeps_running() {
    let dir = scratch("drain");
    let harness = ClusterHarness::builder(dir.join("state"))
        .with_nodes(2)
        .with_router(test_router("cluster").with_replicas(0))
        .start()
        .expect("cluster boots");

    let owner = harness
        .owner_index("local", "core2")
        .expect("core2 has an owner");
    harness.drain(owner).expect("drain by index");
    let rerouted = harness
        .owner_index("local", "core2")
        .expect("a live owner remains");
    assert_ne!(rerouted, owner, "draining must move the key");

    // Through the router, the key's commands now land on the survivor.
    let via = tcp_session(
        harness.router_addr(),
        "machine core2 4 14 19 169 30\nstats\nquit\n",
    );
    let text = String::from_utf8_lossy(&via);
    assert!(text.contains("registered core2"), "{text}");
    assert!(!text.contains("err:"), "{text}");

    // The drained node still answers direct connections (it was never
    // stopped) — draining is routing state, not node state.
    let direct = tcp_session(harness.node_addr(owner), "stats\nquit\n");
    assert!(String::from_utf8_lossy(&direct).contains("stats:"));

    // The prober leaves draining nodes alone; `revive` brings the node
    // back, and routed requests land on it again.
    let name = harness.node_name(owner).to_owned();
    harness.router().revive(&name).expect("revive by name");
    assert_eq!(harness.owner_index("local", "core2"), Some(owner));
    let (_, before) = node_counters(harness.node_addr(owner));
    let via = tcp_session(
        harness.router_addr(),
        "machine core2 4 14 19 169 30\nquit\n",
    );
    assert!(String::from_utf8_lossy(&via).contains("registered core2"));
    let (_, after) = node_counters(harness.node_addr(owner));
    assert_eq!(
        after,
        before + 2,
        "the routed `machine` must land on the revived node"
    );

    // Unknown member names are a typed error.
    assert!(matches!(
        harness.router().drain("node-99"),
        Err(ClusterError::UnknownNode { .. })
    ));

    harness.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// An `ingest` file past `proto::MAX_INGEST_FILE_BYTES` is refused from
/// its size alone, by a node and through the router alike (the router
/// does not read it either), with the same in-band error bytes.
#[test]
fn an_oversized_ingest_file_is_refused_by_node_and_router_alike() {
    let dir = scratch("oversized_ingest");
    let path = dir.join("huge.csv");
    std::fs::File::create(&path)
        .and_then(|file| file.set_len(proto::MAX_INGEST_FILE_BYTES + 1))
        .expect("sparse oversized file");
    let script = format!(
        "ingest {}
quit
",
        path.display()
    );
    let solo = solo_transcript(&script);
    let harness = ClusterHarness::builder(dir.join("state"))
        .with_nodes(2)
        .with_router(test_router("cluster"))
        .start()
        .expect("cluster boots");
    let via = tcp_session(harness.router_addr(), &script);
    harness.shutdown();
    let text = String::from_utf8_lossy(&via);
    assert_eq!(text, String::from_utf8_lossy(&solo));
    let refusal = format!(
        "err: `{}` is larger than {} bytes — not ingested",
        path.display(),
        proto::MAX_INGEST_FILE_BYTES
    );
    assert!(text.contains(&refusal), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// With every backend dead the router stays up and reports the failure
/// in-band, per command, instead of hanging up.
#[test]
fn a_cluster_with_no_live_backends_reports_in_band_errors() {
    let dir = scratch("nobackends");
    let mut harness = ClusterHarness::builder(dir.join("state"))
        .with_nodes(1)
        .with_router(test_router("cluster"))
        .start()
        .expect("cluster boots");
    harness.kill(0);

    let via = tcp_session(harness.router_addr(), "stats\nquit\n");
    let text = String::from_utf8_lossy(&via);
    assert!(
        text.contains("err: node `node-0` is down") || text.contains("err: no live backend nodes"),
        "dead backends must surface as typed in-band errors: {text}"
    );

    harness.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// An in-band `shutdown` through the router stops the router *and*
/// every backend — the whole tier goes down as one unit.
#[test]
fn shutdown_through_the_router_stops_the_whole_tier() {
    let dir = scratch("shutdown");
    let harness = ClusterHarness::builder(dir.join("state"))
        .with_nodes(2)
        .with_router(test_router("cluster"))
        .start()
        .expect("cluster boots");
    let router = harness.router_addr();
    let node0 = harness.node_addr(0);
    let node1 = harness.node_addr(1);

    let farewell = tcp_session(router, "shutdown\n");
    assert!(String::from_utf8_lossy(&farewell).ends_with("ok\n"));
    harness.wait();

    for addr in [router, node0, node1] {
        assert!(
            TcpStream::connect(addr).is_err(),
            "{addr} still accepting after tier shutdown"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
