//! Protocol fuzz/property tests: arbitrary byte lines thrown at
//! [`execute_line`] and corrupted/truncated binary frames thrown at
//! [`read_frame`] must never panic, never wedge a worker shard, and —
//! on an auth-gated session — never reach command dispatch without a
//! valid `hello <token>` handshake. Over TCP, every front refuses a line
//! past [`MAX_LINE_BYTES`] in-band and hang up, while the largest line
//! the cluster itself sends still goes through. Streamed input is bounded
//! too: unflushed rows per session ([`proto::MAX_STREAM_PENDING`]) and
//! distinct workloads per machine ([`MAX_STREAMED_BENCHMARKS`]).

use memodel::service::auth::TokenRegistry;
use memodel::service::cluster::{ClusterHarness, RouterConfig};
use memodel::service::poller::MAX_LINE_BYTES;
use memodel::service::proto::{
    self, decode_stack_frame, encode_stack_frame, read_frame, LineOutcome, SessionSpec,
    TcpServerConfig,
};
use memodel::service::sweep::{MAX_SWEEP_UOPS, MAX_SWEEP_VARIANTS};
use memodel::service::{
    CpiService, ServiceConfig, ServiceError, TenantId, MAX_STREAMED_BENCHMARKS,
};
use memodel::stack::CpiStack;
use memodel::workbench::{MachineSpec, SimSource};
use memodel::FitOptions;
use oosim::machine::MachineConfig;
use pmu::{CounterSet, Event, MachineId, RunRecord, Suite};
use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// The one token the fuzz registry accepts.
const TOKEN: &str = "fuzz-token-0123456789abcdef";

/// One long-lived service shared by every fuzz case (cases must not each
/// pay a worker-pool spawn); the `CpiService` lives in the `OnceLock` so
/// its workers survive for the whole test binary.
fn shared() -> &'static (CpiService, SessionSpec) {
    static SHARED: OnceLock<(CpiService, SessionSpec)> = OnceLock::new();
    SHARED.get_or_init(|| {
        let service =
            CpiService::start(ServiceConfig::new().with_workers(2).with_cache_capacity(4));
        let registry = Arc::new(
            TokenRegistry::new()
                .with_token(TOKEN, "fuzz")
                .expect("fuzz token"),
        );
        let spec = SessionSpec::with_auth(service.client(), FitOptions::quick(), registry);
        (service, spec)
    })
}

/// Runs one line through a session, returning the in-band output and the
/// outcome. Writing to a `Vec` cannot fail, so any `Err` here is itself
/// a property violation.
fn run_line(session: &mut proto::Session, line: &str) -> (String, LineOutcome) {
    let mut out = Vec::new();
    let outcome = proto::execute_line(session, line, &mut out).expect("Vec sink never errors");
    (String::from_utf8_lossy(&out).into_owned(), outcome)
}

fn arbitrary_bytes(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec((0u16..256).prop_map(|b| b as u8), 0..max_len)
}

fn sample_stacks(n: usize, scale: f64) -> Vec<(String, CpiStack)> {
    (0..n)
        .map(|i| {
            let f = i as f64 * scale;
            (
                format!("fuzz.bench.{i}"),
                CpiStack {
                    base: 0.25 + f,
                    l1i: 0.01 * f,
                    llc_i: 0.002,
                    itlb: f,
                    branch: 0.125,
                    llc_d: 0.5 * f,
                    dtlb: 0.03,
                    resource: 0.75,
                    branch_resolution: 11.0 + f,
                    mlp: 1.5,
                },
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Arbitrary bytes at an UNAUTHENTICATED session: the session never
    /// panics, never authenticates (short of guessing the exact token),
    /// never returns the server-stopping `Shutdown` outcome, and every
    /// command other than `hello`/`help`/`quit` is rejected in-band
    /// before dispatch.
    #[test]
    fn unauthenticated_fuzz_is_rejected_before_dispatch(
        bytes in arbitrary_bytes(120),
    ) {
        let (_, spec) = shared();
        let mut session = spec.session();
        let line = String::from_utf8_lossy(&bytes).into_owned();
        let (out, outcome) = run_line(&mut session, &line);
        prop_assert!(outcome != LineOutcome::Shutdown,
            "an anonymous line must never stop the server: {line:?}");
        let mut words = line.split_whitespace();
        match words.next() {
            None => prop_assert!(out.is_empty(), "blank lines answer nothing"),
            Some("hello") => {
                // Only the exact registered token authenticates.
                let authed = words.next() == Some(TOKEN) && words.next().is_none();
                prop_assert_eq!(session.is_authenticated(), authed);
                if !authed {
                    prop_assert!(out.starts_with("err: "), "{out}");
                }
            }
            Some("help") | Some("quit") => {
                prop_assert!(!session.is_authenticated());
            }
            Some(_) => {
                prop_assert!(
                    out.starts_with("err: authenticate first"),
                    "line {line:?} slipped past the auth gate: {out}"
                );
                prop_assert!(!session.is_authenticated());
            }
        }
    }

    /// Arbitrary bytes at an AUTHENTICATED session: whatever garbage a
    /// line carried, the session answers in protocol (`ok`/`err:`
    /// terminated), never panics — and the worker shards are still alive
    /// afterwards, proven by a live `stats` round-trip through the
    /// service.
    #[test]
    fn malformed_lines_never_wedge_an_authenticated_session(
        bytes in arbitrary_bytes(120),
    ) {
        let (_, spec) = shared();
        let mut session = spec.session();
        let (hello_out, _) = run_line(&mut session, &format!("hello {TOKEN}"));
        prop_assert!(hello_out.ends_with("ok\n"), "{hello_out}");
        let line = String::from_utf8_lossy(&bytes).into_owned();
        let (out, _) = run_line(&mut session, &line);
        if line.split_whitespace().next().is_some() {
            let last = out.lines().last().unwrap_or("");
            prop_assert!(
                last == "ok" || last.starts_with("err: ") || out.contains("\nok\n")
                    || out.starts_with("ok\n"),
                "unterminated response to {line:?}: {out:?}"
            );
        }
        // The shard hashed for this tenant still serves: stats answers.
        let (stats_out, _) = run_line(&mut session, "stats");
        prop_assert!(
            stats_out.contains("stats: requests") && stats_out.contains("tenant fuzz"),
            "worker wedged after {line:?}: {stats_out}"
        );
    }

    /// A sweep over either per-request cap — more grid points than
    /// `MAX_SWEEP_VARIANTS`, or `uops=` above `MAX_SWEEP_UOPS` — is
    /// refused in-band with one typed `err:` line naming the cap, before
    /// anything is simulated.
    #[test]
    fn over_cap_sweeps_are_refused_in_band(
        extra_points in 1usize..64,
        extra_uops in 1u64..1_000_000_000,
        over_points in 0u8..2,
    ) {
        let (_, spec) = shared();
        let mut session = spec.session();
        let (hello_out, _) = run_line(&mut session, &format!("hello {TOKEN}"));
        prop_assert!(hello_out.ends_with("ok\n"), "{hello_out}");
        let line = if over_points == 1 {
            let robs: Vec<String> = (0..MAX_SWEEP_VARIANTS + extra_points)
                .map(|i| (16 + i).to_string())
                .collect();
            format!("sweep core2 cpu2000 rob={} uops=1000", robs.join(","))
        } else {
            format!(
                "sweep core2 cpu2000 rob=64,192 uops={}",
                MAX_SWEEP_UOPS + extra_uops
            )
        };
        let (out, outcome) = run_line(&mut session, &line);
        prop_assert_eq!(outcome, LineOutcome::Continue);
        prop_assert!(
            out.starts_with("err: ") && out.contains("over the cap") && out.lines().count() == 1,
            "{out}"
        );
    }

    /// Any single flipped byte in a valid binary stack frame fails
    /// `read_frame` — never a panic, never a silently different payload.
    #[test]
    fn corrupted_frames_are_always_rejected(
        n in 0usize..5,
        scale in 0.0f64..4.0,
        position in 0usize..10_000,
        flip in 1u16..256,
    ) {
        let frame = encode_stack_frame(&sample_stacks(n, scale));
        let mut bad = frame.clone();
        let at = position % bad.len();
        bad[at] ^= flip as u8;
        prop_assert!(
            read_frame(&mut bad.as_slice()).is_err(),
            "flip of byte {at} by {flip:#04x} went undetected"
        );
        // Truncation anywhere is an error too, not a panic or a hang.
        let cut = position % frame.len();
        prop_assert!(read_frame(&mut frame[..cut].as_ref()).is_err());
    }

    /// Totally arbitrary bytes into the frame reader and the payload
    /// decoder: no panics, no giant allocations, and anything `Ok` must
    /// round-trip to the exact same encoding (i.e. only genuinely valid
    /// frames pass).
    #[test]
    fn arbitrary_bytes_never_panic_the_frame_codec(
        bytes in arbitrary_bytes(200),
    ) {
        if let Ok((kind, payload)) = read_frame(&mut bytes.as_slice()) {
            // Vanishingly unlikely (magic + checksum), but if it parses
            // the bounds must have held.
            prop_assert!(payload.len() <= proto::MAX_FRAME_PAYLOAD);
            let _ = kind;
        }
        if let Ok(stacks) = decode_stack_frame(&bytes) {
            // A payload that decodes must re-encode to a frame whose
            // payload is byte-identical — the decoder accepted no
            // ambiguity.
            let frame = encode_stack_frame(&stacks);
            let (_, payload) = read_frame(&mut frame.as_slice()).expect("fresh frame parses");
            prop_assert_eq!(payload, bytes);
        }
    }
}

/// Deterministic companion to the fuzz: after a storm of anonymous
/// garbage, the fuzz tenant's service-side counters show that *nothing*
/// was ever dispatched on its behalf — the gate runs strictly before the
/// queue.
#[test]
fn anonymous_garbage_never_reaches_the_service() {
    let (service, spec) = shared();
    let mut session = spec.session();
    for line in [
        "stats",
        "shutdown",
        "fit core2 cpu2000",
        "machine core2 4 14 19 169 30",
        "ingest /etc/passwd",
        "binstack core2 all",
        "delta pentium4 core2 cpu2000",
        "hello wrong-token-00000000",
    ] {
        let (out, outcome) = run_line(&mut session, line);
        assert!(out.starts_with("err: "), "{line} -> {out}");
        assert_eq!(outcome, LineOutcome::Continue);
    }
    // Had the gate leaked, those lines would have dispatched on the
    // session's base client — the LOCAL tenant (nothing else in this
    // binary runs as local; the authenticated fuzz cases rebind to
    // `fuzz` first). The only local task ever counted is this stats
    // read itself.
    let stats = service
        .client_for(TenantId::local())
        .stats()
        .expect("service alive");
    assert_eq!(
        stats.requests, 1,
        "an unauthenticated session must dispatch zero tasks"
    );
    assert_eq!(stats.fits, 0);
    assert_eq!(stats.ingested_records, 0);
}

/// Over-cap sweeps never reach the service: a fresh service sees only the
/// closing `stats` read, and a sweep at both caps' edges still parses.
#[test]
fn over_cap_sweeps_dispatch_nothing() {
    let service = CpiService::start(ServiceConfig::new().with_workers(1));
    let mut session = SessionSpec::open(service.client(), FitOptions::quick()).session();
    let robs: Vec<String> = (0..=MAX_SWEEP_VARIANTS)
        .map(|i| (16 + i).to_string())
        .collect();
    for line in [
        format!("sweep core2 cpu2000 rob={}", robs.join(",")),
        format!(
            "sweep core2 cpu2000 rob={} mshr=4,8 uops=1000",
            robs[..MAX_SWEEP_VARIANTS / 2 + 1].join(",")
        ),
        format!("sweep core2 cpu2000 uops={}", MAX_SWEEP_UOPS + 1),
        format!("sweep core2 cpu2000 uops={}", u64::MAX),
    ] {
        let (out, outcome) = run_line(&mut session, &line);
        assert!(
            out.starts_with("err: ") && out.contains("over the cap"),
            "{out}"
        );
        assert_eq!(outcome, LineOutcome::Continue);
    }
    let stats = service.client().stats().expect("service alive");
    assert_eq!(
        stats.requests, 1,
        "over-cap sweeps must dispatch zero tasks"
    );
    assert_eq!(stats.fits, 0);
    service.shutdown();
}

// ---------------------------------------------------------------------------
// Line-length cap on the TCP fronts
// ---------------------------------------------------------------------------

/// The farewell a front sends before hanging up on an over-long line.
fn too_long() -> String {
    format!("err: line longer than {MAX_LINE_BYTES} bytes — closing connection\n")
}

/// The full reply to one `help` line.
fn help_reply() -> String {
    format!("{}\nok\n", proto::SERVE_HELP)
}

/// Runs `check` against a fresh open node front.
fn on_node_fronts(check: impl Fn(SocketAddr, &str, &str)) {
    let config = ServiceConfig::new().with_workers(1);
    let service = CpiService::start(config.clone());
    let banner = format!("{}\n", proto::banner(&config, true));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let server = proto::serve_tcp(
        listener,
        SessionSpec::open(service.client(), FitOptions::quick()),
        TcpServerConfig::new(proto::banner(&config, true))
            .with_poll_interval(Duration::from_millis(2)),
    )
    .expect("tcp front starts");
    check(server.local_addr(), &banner, "node");
    server.shutdown();
    service.shutdown();
}

/// Runs `check` against every client-facing TCP front: a node's and a
/// one-node cluster router's.
fn on_every_front(check: impl Fn(SocketAddr, &str, &str)) {
    on_node_fronts(&check);
    let dir = std::env::temp_dir().join(format!(
        "proto_properties_router_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let harness = ClusterHarness::builder(dir.join("state"))
        .with_router(RouterConfig::new("router").with_poll_interval(Duration::from_millis(2)))
        .start()
        .expect("cluster boots");
    check(harness.router_addr(), "router\n", "router");
    harness.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Writes `input` on a fresh connection and returns everything the
/// server sends back, to EOF. A write cut short by the server hanging
/// up is expected on the refusal paths, so write errors are ignored.
fn exchange(addr: SocketAddr, input: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    let _ = stream.write_all(input);
    let mut reply = Vec::new();
    let _ = stream.read_to_end(&mut reply);
    String::from_utf8_lossy(&reply).into_owned()
}

/// On every front, a newline-free stream one byte past the cap, alone or
/// after a served command, is refused in-band and the connection
/// closes, as is a complete line one byte past the cap; a line of
/// exactly the cap is still served and the session carries on.
#[test]
fn over_long_lines_are_refused_and_the_connection_closed() {
    on_every_front(|addr, banner, front| {
        let flood = vec![b'a'; MAX_LINE_BYTES + 1];
        let reply = exchange(addr, &flood);
        assert_eq!(reply, format!("{banner}{}", too_long()), "{front}");

        let mut input = b"help\n".to_vec();
        input.extend_from_slice(&flood);
        let reply = exchange(addr, &input);
        assert_eq!(
            reply,
            format!("{banner}{}{}", help_reply(), too_long()),
            "{front}"
        );

        let mut input = b"stats".to_vec();
        input.resize(MAX_LINE_BYTES + 1, b' ');
        input.push(b'\n');
        let reply = exchange(addr, &input);
        assert_eq!(reply, format!("{banner}{}", too_long()), "{front}");

        let mut input = b"stats".to_vec();
        input.resize(MAX_LINE_BYTES, b' ');
        input.extend_from_slice(b"\nquit\n");
        let reply = exchange(addr, &input);
        let served = reply.strip_prefix(banner).expect("banner first");
        assert!(served.starts_with("stats: requests "), "{front}: {served}");
        assert!(!served.contains("err: "), "{front}: {served}");
    });
}

/// The longest machine name a sweep can mint: every axis at its
/// nine-digit maximum on the longest preset.
const LONGEST_MACHINE: &str = "pentium4+rob999999999+mshr999999999+dw999999999+pf999999999";

/// The router's `pushrecs` line for a full 103-benchmark campaign at its
/// worst case: the longest machine name and every counter at its
/// 20-digit maximum.
fn maximal_pushrecs() -> String {
    let machine = MachineId::variant(LONGEST_MACHINE).expect("valid variant name");
    let mut counters = CounterSet::new();
    for event in Event::ALL {
        counters.set(event, u64::MAX);
    }
    let mut records = Vec::new();
    for (suite, profiles) in [
        (Suite::Cpu2000, specgen::suites::cpu2000()),
        (Suite::Cpu2006, specgen::suites::cpu2006()),
    ] {
        for profile in profiles {
            records.push(RunRecord::new(
                profile.name.to_string(),
                suite,
                machine,
                counters.clone(),
            ));
        }
    }
    assert_eq!(records.len(), 103, "the full campaign");
    let hex = |bytes: &[u8]| bytes.iter().map(|b| format!("{b:02x}")).collect::<String>();
    let arch: Vec<u8> = [4.0f64, 14.0, 19.0, 169.0, 30.0]
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect();
    let csv = pmu::csv::to_csv(&records);
    format!(
        "pushrecs {LONGEST_MACHINE} {} {}",
        hex(&arch),
        hex(csv.as_bytes())
    )
}

/// The largest internal frame is served by a node front, and the cap
/// sits well above it.
#[test]
fn a_maximal_pushrecs_line_goes_through() {
    let line = maximal_pushrecs();
    assert!(
        line.len() * 8 < MAX_LINE_BYTES,
        "a {}-byte pushrecs line leaves too little headroom under the cap",
        line.len()
    );
    on_node_fronts(|addr, banner, front| {
        let reply = exchange(addr, format!("{line}\nquit\n").as_bytes());
        assert_eq!(
            reply,
            format!("{banner}installed 103 generation 1\nok\nok\n"),
            "{front}"
        );
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Whatever short commands precede it, an over-long line is refused
    /// after they are served, and nothing behind it runs.
    #[test]
    fn over_long_lines_end_the_session_after_earlier_commands(
        helps in 0usize..4,
        excess in 1usize..70_000,
    ) {
        let mut input = b"help\n".repeat(helps);
        input.resize(input.len() + MAX_LINE_BYTES + excess, b'x');
        on_every_front(|addr, banner, front| {
            let reply = exchange(addr, &input);
            let expected = format!("{banner}{}{}", help_reply().repeat(helps), too_long());
            assert_eq!(reply, expected, "{front}");
        });
    }
}

// ---------------------------------------------------------------------------
// Streamed-input caps
// ---------------------------------------------------------------------------

/// Twelve simulated Core 2 / CPU2000 records — enough for a quick fit —
/// shared by every stream case.
fn stream_records() -> &'static [RunRecord] {
    static RECORDS: OnceLock<Vec<RunRecord>> = OnceLock::new();
    RECORDS.get_or_init(|| {
        SimSource::new()
            .suite(specgen::suites::cpu2000().into_iter().take(12).collect())
            .uops(3_000)
            .seed(5)
            .collect_config(&MachineConfig::core2())
    })
}

/// `record`'s counters under another benchmark name: a distinct workload.
fn renamed(record: &RunRecord, name: &str) -> RunRecord {
    RunRecord::new(
        name,
        record.suite(),
        record.machine(),
        record.counters().clone(),
    )
}

/// The `stream rec` line carrying `record`.
fn rec_line(record: &RunRecord) -> String {
    let row = pmu::csv::to_csv_rows(std::slice::from_ref(record));
    format!("stream rec {}", row.trim_end())
}

/// A fresh one-worker service and an open session with Core 2
/// registered and a CPU2000 stream open.
fn stream_session() -> (CpiService, proto::Session) {
    let service = CpiService::start(ServiceConfig::new().with_workers(1));
    let mut session = SessionSpec::open(service.client(), FitOptions::quick()).session();
    for line in ["machine core2 4 14 19 169 30", "stream open core2 cpu2000"] {
        let (out, _) = run_line(&mut session, line);
        assert!(out.ends_with("ok\n"), "{line} -> {out}");
    }
    (service, session)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Past `MAX_STREAM_PENDING` unflushed rows, every `stream rec` is
    /// refused with one typed `err:` and buffers nothing: the flush lands
    /// only the rows taken before the cap, and the buffer then takes rows
    /// again.
    #[test]
    fn over_cap_stream_rows_are_refused_and_buffer_nothing(extra in 1usize..40) {
        let records = stream_records();
        let lines: Vec<String> = records.iter().map(rec_line).collect();
        let (service, mut session) = stream_session();
        for i in 0..proto::MAX_STREAM_PENDING {
            let (out, _) = run_line(&mut session, &lines[i % lines.len()]);
            prop_assert_eq!(out, "ok\n");
        }
        let stray = rec_line(&renamed(&records[0], "999.stray"));
        for _ in 0..extra {
            let (out, outcome) = run_line(&mut session, &stray);
            prop_assert_eq!(outcome, LineOutcome::Continue);
            prop_assert!(
                out.starts_with("err: stream buffer full") && out.lines().count() == 1,
                "{out}"
            );
        }
        let (out, _) = run_line(&mut session, "stream flush");
        prop_assert!(out.starts_with("batch 1 records 12 "), "{out}");
        prop_assert!(out.ends_with("ok\n"), "{out}");
        let (out, _) = run_line(&mut session, &stray);
        prop_assert_eq!(out, "ok\n");
        service.shutdown();
    }

    /// A flush that would leave more than `MAX_STREAMED_BENCHMARKS`
    /// distinct workloads in the machine's store is refused with one typed
    /// `err:`; nothing lands, and the open stream still serves a normal
    /// batch afterwards.
    #[test]
    fn over_cap_benchmark_names_are_refused_in_band(extra in 1usize..40) {
        let records = stream_records();
        let (service, mut session) = stream_session();
        for i in 0..MAX_STREAMED_BENCHMARKS + extra {
            let record = renamed(&records[i % records.len()], &format!("{i}.synthetic"));
            let (out, _) = run_line(&mut session, &rec_line(&record));
            prop_assert_eq!(out, "ok\n");
        }
        let (out, outcome) = run_line(&mut session, "stream flush");
        prop_assert_eq!(outcome, LineOutcome::Continue);
        prop_assert_eq!(
            out,
            format!(
                "err: stream batch rejected: machine `core2` would hold more than \
                 {MAX_STREAMED_BENCHMARKS} distinct benchmarks\n"
            )
        );
        let stats = service.client().stats().expect("service alive");
        prop_assert_eq!(stats.ingested_records, 0);
        for record in records {
            let (out, _) = run_line(&mut session, &rec_line(record));
            prop_assert_eq!(out, "ok\n");
        }
        let (out, _) = run_line(&mut session, "stream flush");
        prop_assert!(out.starts_with("batch 1 records 12 generation 1 "), "{out}");
        service.shutdown();
    }
}

/// The per-machine cap counts distinct workloads in the store after the
/// upsert: a store at the cap still takes re-samples of its own
/// workloads, refuses one new name whole, and is unchanged by the refusal.
#[test]
fn the_benchmark_cap_is_exact_and_upserts_stay_under_it() {
    let records = stream_records();
    let service = CpiService::start(ServiceConfig::new().with_workers(1));
    let client = service.client();
    client
        .register(MachineSpec::from(MachineConfig::core2()))
        .expect("register core2");
    let name = |i: usize| format!("{i}.synthetic");
    let at_cap: Vec<RunRecord> = (0..MAX_STREAMED_BENCHMARKS)
        .map(|i| renamed(&records[i % records.len()], &name(i)))
        .collect();
    assert_eq!(
        client
            .stream_batch(MachineId::Core2, at_cap)
            .expect("at the cap"),
        (MAX_STREAMED_BENCHMARKS, 1)
    );
    let one_more = vec![renamed(&records[0], &name(MAX_STREAMED_BENCHMARKS))];
    assert!(matches!(
        client.stream_batch(MachineId::Core2, one_more),
        Err(ServiceError::TooManyBenchmarks {
            machine: MachineId::Core2
        })
    ));
    let resample = vec![renamed(&records[1], &name(0))];
    assert_eq!(
        client
            .stream_batch(MachineId::Core2, resample)
            .expect("upsert"),
        (1, 2),
        "the refusal left the generation alone"
    );
    let stats = client.stats().expect("service alive");
    assert_eq!(stats.ingested_records, MAX_STREAMED_BENCHMARKS as u64 + 1);
    service.shutdown();
}
