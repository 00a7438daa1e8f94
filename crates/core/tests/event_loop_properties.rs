//! Readiness-loop concurrency properties: arbitrary fragmentation of
//! request bytes — 1-byte writes, split lines, interleaved partial
//! commands across several concurrent sockets — must never wedge the
//! event loop, mis-frame a command, or leak bytes between connections.
//!
//! The oracle is [`execute_line`] itself: each connection's transcript
//! over the socket must be byte-identical to running the same command
//! script through a fresh in-process session, regardless of how the
//! bytes were chopped on the wire. A second property feeds the binary
//! `binstack` frame back through [`read_frame`] from a reader that
//! yields arbitrarily small chunks.

use memodel::service::proto::{self, decode_stack_frame, read_frame, SessionSpec, TcpServerConfig};
use memodel::service::{CpiService, ModelKey, ServiceConfig};
use memodel::FitOptions;
use oosim::machine::MachineConfig;
use pmu::{MachineId, RunRecord, Suite};
use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::OnceLock;
use std::time::Duration;

const BANNER: &str = "event-loop property front";

/// Read-only or deterministically-failing commands — safe to interleave
/// across concurrent sessions in any order without changing any later
/// response. (Mutating commands like `machine`/`ingest` would make the
/// oracle order-dependent.)
const POOL: &[&str] = &[
    "help",
    "stack core2 cpu2000",
    "binstack core2 cpu2000",
    "predict core2 cpu2000",
    "stack pentium4 cpu2000",
    "stack core2 nope",
    "not-a-command at all",
];

/// One warm service + one event-loop TCP front shared by every
/// case; the model is pre-fitted so scripts are pure cache hits and the
/// loop (not the regression) is what the cases exercise.
fn shared() -> &'static (CpiService, SessionSpec, SocketAddr, proto::TcpServer) {
    static SHARED: OnceLock<(CpiService, SessionSpec, SocketAddr, proto::TcpServer)> =
        OnceLock::new();
    SHARED.get_or_init(|| {
        let machine = MachineConfig::core2();
        let records: Vec<RunRecord> = memodel::workbench::SimSource::new()
            .suite(specgen::suites::cpu2000().into_iter().take(12).collect())
            .uops(3_000)
            .seed(42)
            .collect_config(&machine);
        let service = CpiService::start(ServiceConfig::new().with_workers(2));
        let client = service.client();
        client.register((&machine).into()).expect("register");
        client.ingest(records).expect("ingest");
        let options = FitOptions::quick();
        client
            .fit(ModelKey::new(
                MachineId::Core2,
                Some(Suite::Cpu2000),
                options.clone(),
            ))
            .expect("warm fit");
        let spec = SessionSpec::open(client, options);
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let server = proto::serve_tcp(
            listener,
            spec.clone(),
            TcpServerConfig::new(BANNER)
                .with_poll_interval(Duration::from_millis(2))
                .with_max_connections(64),
        )
        .expect("event front starts");
        let addr = server.local_addr();
        (service, spec, addr, server)
    })
}

/// The oracle: the exact bytes the server must produce for `script` —
/// banner, then each command's in-band output via [`proto::execute_line`]
/// on a fresh session, then the `quit` acknowledgement.
fn expected_transcript(spec: &SessionSpec, script: &[&str]) -> Vec<u8> {
    let mut session = spec.session();
    let mut out = format!("{BANNER}\n").into_bytes();
    for line in script {
        proto::execute_line(&mut session, line, &mut out).expect("Vec sink never errors");
    }
    proto::execute_line(&mut session, "quit", &mut out).expect("quit acks");
    out
}

/// Sends `bytes` over `stream` chopped into the fragment sizes the case
/// chose (cycled, clamped to what's left), yielding between writes so
/// fragments actually hit the wire as separate segments often enough to
/// matter.
fn send_fragmented(stream: &mut TcpStream, bytes: &[u8], fragments: &[usize]) {
    let mut at = 0;
    let mut pick = 0;
    while at < bytes.len() {
        let n = fragments[pick % fragments.len()].clamp(1, bytes.len() - at);
        pick += 1;
        stream
            .write_all(&bytes[at..at + n])
            .expect("fragment write");
        at += n;
        std::thread::yield_now();
    }
}

/// A reader that returns at most `chunk` bytes per `read` call — the
/// client-side mirror of wire fragmentation, aimed at [`read_frame`].
struct ChunkedReader<'a> {
    bytes: &'a [u8],
    chunk: usize,
}

impl Read for ChunkedReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.chunk.min(buf.len()).min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// N concurrent sockets, each sending a random command script chopped
    /// into random fragments (down to single bytes): every socket's full
    /// transcript equals its own `execute_line` oracle byte-for-byte —
    /// no wedging, no mis-framed commands, no cross-connection bytes.
    #[test]
    fn fragmented_concurrent_scripts_match_the_sequential_oracle(
        scripts in prop::collection::vec(
            prop::collection::vec(0usize..POOL.len(), 1..6),
            2..6,
        ),
        fragments in prop::collection::vec(1usize..17, 1..8),
    ) {
        let (_, spec, addr, _) = shared();
        let results: Vec<(Vec<u8>, Vec<u8>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = scripts
                .iter()
                .enumerate()
                .map(|(i, picks)| {
                    let fragments = &fragments;
                    let script: Vec<&str> = picks.iter().map(|p| POOL[*p]).collect();
                    scope.spawn(move || {
                        let expected = expected_transcript(spec, &script);
                        let mut wire: Vec<u8> =
                            script.iter().flat_map(|c| format!("{c}\n").into_bytes()).collect();
                        wire.extend_from_slice(b"quit\n");
                        let mut stream = TcpStream::connect(*addr).expect("connect");
                        stream.set_nodelay(true).expect("nodelay");
                        // Offset each connection's fragment schedule so
                        // the sockets interleave differently.
                        let rotated: Vec<usize> = fragments
                            .iter()
                            .cycle()
                            .skip(i % fragments.len())
                            .take(fragments.len())
                            .copied()
                            .collect();
                        send_fragmented(&mut stream, &wire, &rotated);
                        let mut transcript = Vec::new();
                        stream.read_to_end(&mut transcript).expect("read transcript");
                        (transcript, expected)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (transcript, expected) in &results {
            // A divergence here means the loop mis-framed, wedged, or
            // cross-talked a connection's bytes.
            prop_assert_eq!(transcript, expected);
        }
    }

    /// The server's `binstack` frame, read back through arbitrarily small
    /// client-side chunks: `read_frame` reassembles and validates it, and
    /// the decoded stacks equal a contiguous read's.
    #[test]
    fn chunked_frame_reads_reassemble_byte_identically(chunk in 1usize..9) {
        let (_, spec, addr, _) = shared();
        let _ = spec;
        let mut stream = TcpStream::connect(*addr).expect("connect");
        stream
            .write_all(b"binstack core2 cpu2000\nquit\n")
            .expect("send script");
        let mut transcript = Vec::new();
        stream.read_to_end(&mut transcript).expect("read transcript");
        let marker = b"frame stacks ";
        let pos = transcript
            .windows(marker.len())
            .position(|w| w == marker)
            .expect("frame announcement");
        let line_end = pos + transcript[pos..].iter().position(|b| *b == b'\n').unwrap();
        let announced: usize = std::str::from_utf8(&transcript[pos + marker.len()..line_end])
            .unwrap()
            .parse()
            .expect("announced length");
        let frame = &transcript[line_end + 1..line_end + 1 + announced];
        let (_, contiguous) = read_frame(&mut &frame[..]).expect("contiguous read");
        let (_, chunked) = read_frame(&mut ChunkedReader { bytes: frame, chunk })
            .expect("chunked read reassembles");
        prop_assert_eq!(&chunked, &contiguous);
        // 12 benchmarks in the fixed-seed campaign.
        prop_assert_eq!(decode_stack_frame(&chunked).expect("decodes").len(), 12);
    }
}
