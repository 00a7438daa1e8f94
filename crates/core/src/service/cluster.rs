//! The multi-node serving tier behind `cpistack cluster`.
//!
//! A [`ClusterRouter`] accepts client connections speaking the exact same
//! line protocol (and binstack framing) as a single `cpistack serve`
//! node, consistent-hashes `(tenant, machine)` onto N backend nodes via a
//! [`HashRing`], and proxies each request/response over the existing TCP
//! transport. Clients cannot tell the router from a node: every golden
//! transcript replays byte-exact through it.
//!
//! Three layers stack up here:
//!
//! - **Routing** — [`HashRing`] with virtual nodes for balance. A
//!   design-space variant (`core2+rob64`) hashes by its base preset, so a
//!   `sweep` runs whole on the base's owner, byte-identical to a single
//!   node, and every variant model it serves lives there too. Each
//!   session pins commands without a machine argument (`stats`, `help`,
//!   errors) to its *focus node* — the last node a machine-bearing
//!   command routed to — so a session's counters accumulate in one place.
//! - **Replication** — after a successful model-bearing command the
//!   router pulls the fresh snapshot from the owner (`pullsnap`, a hidden
//!   node-to-node verb) and pushes it to the owner's ring successors
//!   (`pushsnap`). Snapshots carry the records digest, so a replica only
//!   ever warm-loads when its bytes match the records a survivor holds —
//!   staleness detection is free.
//! - **Membership** — a health prober marks unreachable nodes
//!   [`NodeHealth::Down`] (typed as [`ClusterError::NodeDown`]), draining
//!   takes a node out of rotation explicitly, and routing always filters
//!   to live nodes. When a node dies, its keys reroute to the successor,
//!   which serves the dead node's tenants from replicated snapshots with
//!   zero re-fits.
//!
//! [`ClusterHarness`] boots N real TCP nodes plus a router on `:0` ports
//! inside one process, which is how the tier-1 suite kills a node and
//! watches failover happen without any external orchestration.

use super::auth::TokenRegistry;
use super::persist::fnv64_update;
use super::poller::{self, Dispatch, LoopConfig, Poller};
use super::proto::{self, SessionSpec, TcpServer, TcpServerConfig, DEFAULT_POLL_INTERVAL};
use super::sweep;
use super::{CpiService, ServiceConfig};
use crate::fit::FitOptions;
use pmu::MachineId;
use std::collections::HashSet;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// A consistent-hash ring over named nodes, with virtual nodes for
/// balance. Keys are `(tenant, machine)` pairs; a key's owner is the
/// first node clockwise from the key's hash point, so removing a node
/// moves only that node's keys (minimal disruption) — the invariant
/// failover correctness rests on, property-tested in
/// `tests/ring_properties.rs`.
///
/// ```
/// use memodel::service::cluster::HashRing;
/// let mut ring = HashRing::new(64);
/// ring.add("node-0");
/// ring.add("node-1");
/// ring.add("node-2");
/// let owner = ring.node_for("alpha", "core2").unwrap().to_owned();
/// ring.remove(&owner);
/// let fallback = ring.node_for("alpha", "core2").unwrap();
/// assert_ne!(fallback, owner, "the key moved to a survivor");
/// ```
#[derive(Debug, Clone)]
pub struct HashRing {
    virtual_nodes: usize,
    nodes: Vec<String>,
    /// `(point hash, index into nodes)`, sorted by hash.
    points: Vec<(u64, usize)>,
}

impl HashRing {
    /// An empty ring placing `virtual_nodes` points per node (minimum 1;
    /// 64 is a good default — balance tightens as the count grows).
    pub fn new(virtual_nodes: usize) -> Self {
        Self {
            virtual_nodes: virtual_nodes.max(1),
            nodes: Vec::new(),
            points: Vec::new(),
        }
    }

    /// Adds a node (idempotent).
    pub fn add(&mut self, node: &str) {
        if self.nodes.iter().any(|n| n == node) {
            return;
        }
        self.nodes.push(node.to_owned());
        self.rebuild();
    }

    /// Removes a node; keys it owned move to their next-clockwise
    /// survivor, all other keys stay put.
    pub fn remove(&mut self, node: &str) {
        if let Some(i) = self.nodes.iter().position(|n| n == node) {
            self.nodes.remove(i);
            self.rebuild();
        }
    }

    fn rebuild(&mut self) {
        // Point hashes depend only on the node *name*, never on ring
        // membership — that independence is what makes disruption
        // minimal when the member set changes.
        self.points.clear();
        for (i, node) in self.nodes.iter().enumerate() {
            for v in 0..self.virtual_nodes {
                self.points.push((point_hash(node, v), i));
            }
        }
        self.points.sort_unstable();
    }

    /// The member names, in insertion order.
    pub fn nodes(&self) -> &[String] {
        &self.nodes
    }

    /// Number of member nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the ring has no members.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The owner of `(tenant, machine)`: the first node clockwise from
    /// the key's hash point. `None` on an empty ring.
    pub fn node_for(&self, tenant: &str, machine: &str) -> Option<&str> {
        self.node_for_filtered(tenant, machine, |_| true)
    }

    /// Like [`HashRing::node_for`], but skipping nodes `admit` rejects —
    /// this is how routing walks past dead or draining members to the
    /// key's live successor.
    pub fn node_for_filtered(
        &self,
        tenant: &str,
        machine: &str,
        admit: impl Fn(&str) -> bool,
    ) -> Option<&str> {
        self.ordered(tenant, machine, admit).into_iter().next()
    }

    /// Up to `n` distinct successors after the key's owner, in ring
    /// order — the replica set for the key.
    pub fn successors(&self, tenant: &str, machine: &str, n: usize) -> Vec<&str> {
        self.ordered(tenant, machine, |_| true)
            .into_iter()
            .skip(1)
            .take(n)
            .collect()
    }

    /// Every admitted node, deduplicated, in clockwise ring order
    /// starting at the key's hash point. The first entry is the key's
    /// (admitted) owner, the rest its failover/replica chain.
    pub fn ordered(&self, tenant: &str, machine: &str, admit: impl Fn(&str) -> bool) -> Vec<&str> {
        let mut out = Vec::new();
        if self.points.is_empty() {
            return out;
        }
        let key = key_hash(tenant, machine);
        let start = self.points.partition_point(|(h, _)| *h < key);
        let mut seen = vec![false; self.nodes.len()];
        for i in 0..self.points.len() {
            let (_, node) = self.points[(start + i) % self.points.len()];
            if !seen[node] {
                seen[node] = true;
                if admit(&self.nodes[node]) {
                    out.push(self.nodes[node].as_str());
                }
            }
        }
        out
    }
}

/// FNV-1a over `tenant ++ NUL ++ machine` — NUL-separated so
/// `("ab", "c")` and `("a", "bc")` never collide structurally — then
/// avalanched: raw FNV of short strings clusters in the low bits, which
/// would skew ring balance badly.
fn key_hash(tenant: &str, machine: &str) -> u64 {
    let h = fnv64_update(0xcbf2_9ce4_8422_2325, tenant.as_bytes());
    let h = fnv64_update(h, &[0]);
    mix64(fnv64_update(h, machine.as_bytes()))
}

/// The hash point of one virtual node.
fn point_hash(node: &str, index: usize) -> u64 {
    let h = fnv64_update(0xcbf2_9ce4_8422_2325, node.as_bytes());
    let h = fnv64_update(h, &[0]);
    mix64(fnv64_update(h, index.to_string().as_bytes()))
}

/// SplitMix64's finalizer: a full-avalanche bit mixer, so every input
/// bit diffuses across the whole point — what keeps virtual nodes
/// spread evenly around the ring.
fn mix64(mut h: u64) -> u64 {
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// A member's health as the router sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeHealth {
    /// Reachable; in the routing rotation.
    Alive,
    /// Administratively removed from rotation (still reachable — the
    /// prober leaves draining nodes alone).
    Draining,
    /// Unreachable; keys reroute to ring successors until a probe sees
    /// it come back.
    Down,
}

/// What went wrong inside the cluster tier. Client-visible failures are
/// rendered in-band as `err:` lines; the typed variants exist for the
/// router's own failover logic and for tests.
#[derive(Debug)]
pub enum ClusterError {
    /// A routed backend could not be reached (and reconnecting failed).
    NodeDown {
        /// The member that failed.
        node: String,
        /// The underlying I/O failure.
        detail: String,
    },
    /// No live backend remains for the request.
    NoBackends,
    /// A node name the cluster map has never heard of.
    UnknownNode {
        /// The offending name.
        node: String,
    },
    /// Client-side transport failure (ends the proxy session).
    Io(std::io::Error),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::NodeDown { node, detail } => {
                write!(f, "node `{node}` is down ({detail})")
            }
            ClusterError::NoBackends => write!(f, "no live backend nodes"),
            ClusterError::UnknownNode { node } => write!(f, "unknown node `{node}`"),
            ClusterError::Io(e) => write!(f, "client transport error: {e}"),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<std::io::Error> for ClusterError {
    fn from(e: std::io::Error) -> Self {
        ClusterError::Io(e)
    }
}

/// The ring key a routed machine word hashes by. A design-space variant
/// (`core2+rob64`) lives with its base preset (`core2`), so a sweep, its
/// base and every variant model it serves share one owner; any other
/// word routes by its raw text. Placement interns no variant name.
fn ring_key(machine: &str) -> &str {
    MachineId::base_of(machine).map_or(machine, |base| base.name())
}

/// One member in the cluster map.
#[derive(Debug, Clone)]
struct NodeInfo {
    name: String,
    addr: SocketAddr,
    health: NodeHealth,
}

/// The ring plus per-node health — the router's single shared view of
/// membership.
#[derive(Debug)]
struct ClusterMap {
    ring: HashRing,
    nodes: Vec<NodeInfo>,
}

impl ClusterMap {
    fn new(backends: &[(String, SocketAddr)], virtual_nodes: usize) -> Self {
        let mut ring = HashRing::new(virtual_nodes);
        let mut nodes = Vec::with_capacity(backends.len());
        for (name, addr) in backends {
            ring.add(name);
            nodes.push(NodeInfo {
                name: name.clone(),
                addr: *addr,
                health: NodeHealth::Alive,
            });
        }
        Self { ring, nodes }
    }

    fn info(&self, name: &str) -> Option<&NodeInfo> {
        self.nodes.iter().find(|n| n.name == name)
    }

    fn alive(&self, name: &str) -> bool {
        self.info(name)
            .is_some_and(|n| n.health == NodeHealth::Alive)
    }

    fn set_health(&mut self, name: &str, health: NodeHealth) -> Result<(), ClusterError> {
        match self.nodes.iter_mut().find(|n| n.name == name) {
            Some(node) => {
                node.health = health;
                Ok(())
            }
            None => Err(ClusterError::UnknownNode {
                node: name.to_owned(),
            }),
        }
    }

    /// The live owner of `(tenant, machine)` — dead and draining members
    /// are walked past, so after a failure this *is* the failover target.
    fn route(&self, tenant: &str, machine: &str) -> Result<NodeInfo, ClusterError> {
        self.ring
            .node_for_filtered(tenant, ring_key(machine), |n| self.alive(n))
            .and_then(|name| self.info(name))
            .cloned()
            .ok_or(ClusterError::NoBackends)
    }

    /// Every live member in ring order from the key — owner first, then
    /// the failover/replica chain.
    fn ordered_alive(&self, tenant: &str, machine: &str) -> Vec<NodeInfo> {
        self.ring
            .ordered(tenant, ring_key(machine), |n| self.alive(n))
            .into_iter()
            .filter_map(|name| self.info(name))
            .cloned()
            .collect()
    }
}

/// Router-side knobs. Protocol-visible settings (banner, idle timeout,
/// connection cap, poll tick) mirror [`TcpServerConfig`] so the router
/// fronts clients exactly like a node would; the rest shape replication
/// and health probing.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Greeting line sent on connect (match the nodes' banner to stay
    /// transcript-transparent).
    pub banner: String,
    /// Client connections idle longer than this are closed in-band;
    /// `None` disables the timeout.
    pub idle_timeout: Option<Duration>,
    /// Client connections beyond this are refused with an immediate
    /// in-band `err: busy` and a close.
    pub max_connections: usize,
    /// Timer granularity, as in [`TcpServerConfig::poll_interval`].
    pub poll_interval: Duration,
    /// Ring successors each key's snapshots replicate to (0 disables
    /// replication — and with it, warm failover).
    pub replicas: usize,
    /// Virtual nodes per member on the hash ring.
    pub virtual_nodes: usize,
    /// How often the health prober connects to each member; `None`
    /// disables probing (failures are still detected on first use).
    pub probe_interval: Option<Duration>,
    /// Per-backend connect budget.
    pub connect_timeout: Duration,
    /// Per-response read budget on backend connections. Generous by
    /// default: a cold fit can take seconds, and a hung backend is
    /// eventually reaped as `NodeDown` when this expires.
    pub io_timeout: Duration,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            banner: String::new(),
            idle_timeout: Some(Duration::from_secs(300)),
            max_connections: 64,
            poll_interval: DEFAULT_POLL_INTERVAL,
            replicas: 1,
            virtual_nodes: 64,
            probe_interval: Some(Duration::from_secs(1)),
            connect_timeout: Duration::from_secs(2),
            io_timeout: Duration::from_secs(120),
        }
    }
}

impl RouterConfig {
    /// Defaults with a greeting line.
    pub fn new(banner: impl Into<String>) -> Self {
        Self {
            banner: banner.into(),
            ..Self::default()
        }
    }

    /// Sets (or disables) the client idle timeout.
    pub fn with_idle_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.idle_timeout = timeout;
        self
    }

    /// Sets the client connection cap (minimum 1).
    pub fn with_max_connections(mut self, max: usize) -> Self {
        self.max_connections = max.max(1);
        self
    }

    /// Sets the stop/idle polling tick (clamped to at least 1 ms).
    pub fn with_poll_interval(mut self, interval: Duration) -> Self {
        self.poll_interval = interval.max(Duration::from_millis(1));
        self
    }

    /// Sets the snapshot replication factor.
    pub fn with_replicas(mut self, replicas: usize) -> Self {
        self.replicas = replicas;
        self
    }

    /// Sets (or disables) the background health-probe period.
    pub fn with_probe_interval(mut self, interval: Option<Duration>) -> Self {
        self.probe_interval = interval;
        self
    }
}

fn lock_map(map: &Mutex<ClusterMap>) -> MutexGuard<'_, ClusterMap> {
    // A panicking session thread must not wedge routing for everyone.
    map.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// State every proxy session shares.
#[derive(Debug)]
struct RouterShared {
    map: Mutex<ClusterMap>,
    config: RouterConfig,
}

/// One pooled connection to a backend node, speaking the node's client
/// protocol. Responses are read *completely* (payload, any announced
/// binary frame, the `ok`/`err:` terminator) before a byte is relayed, so
/// a backend dying mid-response never leaves the client with a torn
/// transcript — the router just retries the buffered command elsewhere.
#[derive(Debug)]
struct BackendConn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl BackendConn {
    /// Connects, swallows the node's banner, and replays the session's
    /// `hello` greeting (if one is active) so the new connection acts as
    /// the same tenant.
    fn open(
        addr: SocketAddr,
        connect_timeout: Duration,
        io_timeout: Duration,
        greeting: Option<&str>,
    ) -> std::io::Result<Self> {
        let stream = TcpStream::connect_timeout(&addr, connect_timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(io_timeout))?;
        let mut conn = Self {
            stream,
            buf: Vec::new(),
        };
        conn.read_line_raw()?; // the banner
        if let Some(hello) = greeting {
            let reply = conn.forward(hello)?;
            if !reply.ends_with(b"ok\n") {
                return Err(std::io::Error::other("token replay rejected by backend"));
            }
        }
        Ok(conn)
    }

    /// Sends one command line and returns the complete raw response.
    fn forward(&mut self, line: &str) -> std::io::Result<Vec<u8>> {
        self.stream.write_all(line.as_bytes())?;
        self.stream.write_all(b"\n")?;
        self.stream.flush()?;
        self.read_response()
    }

    /// One raw line including its trailing newline.
    fn read_line_raw(&mut self) -> std::io::Result<Vec<u8>> {
        loop {
            if let Some(pos) = self.buf.iter().position(|b| *b == b'\n') {
                return Ok(self.buf.drain(..=pos).collect());
            }
            self.fill()?;
        }
    }

    fn fill(&mut self) -> std::io::Result<()> {
        let mut chunk = [0u8; 4096];
        match self.stream.read(&mut chunk) {
            Ok(0) => Err(std::io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(())
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => Ok(()),
            Err(e) => Err(e),
        }
    }

    fn read_exact_into(&mut self, n: usize, out: &mut Vec<u8>) -> std::io::Result<()> {
        while self.buf.len() < n {
            self.fill()?;
        }
        out.extend(self.buf.drain(..n));
        Ok(())
    }

    /// One complete protocol response, byte-exact as the backend wrote
    /// it: payload lines, any `frame <kind> <len>`-announced binary
    /// bytes, and the terminating `ok`/`err:` line.
    fn read_response(&mut self) -> std::io::Result<Vec<u8>> {
        let mut out = Vec::new();
        loop {
            let line = self.read_line_raw()?;
            out.extend_from_slice(&line);
            let text = trim_line(&line);
            if text == b"ok" || text.starts_with(b"err: ") {
                return Ok(out);
            }
            if let Some(len) = frame_len(text) {
                if len > proto::MAX_FRAME_PAYLOAD + 64 {
                    return Err(std::io::Error::other("announced frame too large"));
                }
                self.read_exact_into(len, &mut out)?;
            }
        }
    }
}

/// Strips the trailing `\n` (and `\r\n`) for terminator comparison.
fn trim_line(line: &[u8]) -> &[u8] {
    let line = line.strip_suffix(b"\n").unwrap_or(line);
    line.strip_suffix(b"\r").unwrap_or(line)
}

/// Parses `frame <kind> <len>` announcements; `None` for ordinary lines.
fn frame_len(line: &[u8]) -> Option<usize> {
    let text = std::str::from_utf8(line).ok()?;
    let rest = text.strip_prefix("frame ")?;
    rest.split_whitespace().nth(1)?.parse().ok()
}

/// The payload line of a successful one-line reply (`<line>\nok\n`, as
/// `pullsnap` and `pullrecs` answer); `None` for anything else.
fn single_line(resp: &[u8]) -> Option<&str> {
    let line = resp.strip_suffix(b"\nok\n")?;
    if line.contains(&b'\n') {
        return None;
    }
    std::str::from_utf8(line).ok()
}

/// Non-empty, even-length hex — what [`proto::hex_decode`] accepts.
fn is_hex(text: &str) -> bool {
    !text.is_empty() && text.len().is_multiple_of(2) && text.bytes().all(|b| b.is_ascii_hexdigit())
}

/// Extracts the hex payload of a successful `pullsnap` response.
fn snapshot_hex(resp: &[u8]) -> Option<&str> {
    let hex = single_line(resp)?.strip_prefix("snapshot ")?;
    is_hex(hex).then_some(hex)
}

/// Extracts the `(hex-arch, hex-csv)` payload of a successful
/// `pullrecs` response (`records <machine> <hex-arch> <hex-csv>`).
fn records_payload(resp: &[u8]) -> Option<(String, String)> {
    let rest = single_line(resp)?.strip_prefix("records ")?;
    let [_machine, arch, csv] = rest.split(' ').collect::<Vec<_>>()[..] else {
        return None;
    };
    // Five raw f64s: 40 bytes, 80 hex digits.
    (arch.len() == 80 && is_hex(arch) && is_hex(csv)).then(|| (arch.to_owned(), csv.to_owned()))
}

/// The variants a node expands a `sweep` line to, read with the node's
/// own parser; empty when the line does not parse.
fn swept_variants(words: &[&str]) -> Vec<MachineId> {
    let spec = proto::parse_sweep_spec(words, &FitOptions::default()).ok();
    let variants = spec.and_then(|spec| sweep::expand_selected(&spec).ok());
    variants.into_iter().flatten().map(|v| v.id).collect()
}

/// What a proxied command decided about the session.
enum ProxyOutcome {
    Continue,
    Quit,
    Shutdown,
}

/// One client connection's proxy state: pooled backend connections, the
/// active tenant (tracked by observing `hello` handshakes), the focus
/// node, and the per-`(machine, suite)` replication ledger.
struct ProxySession<'a> {
    shared: &'a RouterShared,
    /// The raw `hello <token>` line to replay on every backend
    /// connection once a handshake has succeeded.
    greeting: Option<String>,
    /// Display name of the authenticated tenant (`local` for open
    /// sessions) — the routing key's first half.
    tenant: String,
    conns: Vec<(String, BackendConn)>,
    /// The node the last machine-routed command landed on; zero-machine
    /// commands (`stats`, `help`, errors) follow it so a session's
    /// request counters accumulate on one node.
    focus: Option<String>,
    /// `(machine, suite)` pairs already replicated since their last
    /// write — resets on writes and on tenant changes.
    clean: HashSet<(String, String)>,
    /// `(node, machine)` pairs whose records this session already
    /// shipped for a cross-owner `delta` join — resets on writes and
    /// tenant changes, like `clean`. Purely an economy: the receiving
    /// node is digest-idempotent.
    shipped: HashSet<(String, String)>,
}

impl<'a> ProxySession<'a> {
    fn new(shared: &'a RouterShared) -> Self {
        Self {
            shared,
            greeting: None,
            tenant: "local".to_owned(),
            conns: Vec::new(),
            focus: None,
            clean: HashSet::new(),
            shipped: HashSet::new(),
        }
    }

    /// The node a machine-less command should land on: the focus node
    /// while it lives, else the tenant's home node (ring owner of the
    /// empty machine key).
    fn primary(&self) -> Result<NodeInfo, ClusterError> {
        let map = lock_map(&self.shared.map);
        if let Some(name) = &self.focus {
            if let Some(info) = map.info(name) {
                if info.health == NodeHealth::Alive {
                    return Ok(info.clone());
                }
            }
        }
        map.route(&self.tenant, "")
    }

    fn route_machine(&self, machine: &str) -> Result<NodeInfo, ClusterError> {
        lock_map(&self.shared.map).route(&self.tenant, machine)
    }

    fn mark_down(&self, node: &str, detail: &str) {
        let mut map = lock_map(&self.shared.map);
        if map.alive(node) {
            let _ = map.set_health(node, NodeHealth::Down);
            drop(map);
            // For the operator, not the client: why the node left rotation.
            eprintln!("router: node {node} marked down: {detail}");
        }
    }

    /// Gets or opens the pooled connection to `node` and forwards one
    /// command. A transport failure drops the pooled connection and
    /// retries once on a fresh one (healing server-side idle closes);
    /// if that also fails the node is reported [`ClusterError::NodeDown`].
    fn forward_to(&mut self, node: &NodeInfo, line: &str) -> Result<Vec<u8>, ClusterError> {
        let config = &self.shared.config;
        let mut detail = String::new();
        for _ in 0..2 {
            let idx = match self.conns.iter().position(|(n, _)| *n == node.name) {
                Some(i) => i,
                None => match BackendConn::open(
                    node.addr,
                    config.connect_timeout,
                    config.io_timeout,
                    self.greeting.as_deref(),
                ) {
                    Ok(conn) => {
                        self.conns.push((node.name.clone(), conn));
                        self.conns.len() - 1
                    }
                    Err(e) => {
                        detail = e.to_string();
                        continue;
                    }
                },
            };
            match self.conns[idx].1.forward(line) {
                Ok(resp) => return Ok(resp),
                Err(e) => {
                    detail = e.to_string();
                    self.conns.remove(idx);
                }
            }
        }
        Err(ClusterError::NodeDown {
            node: node.name.clone(),
            detail,
        })
    }

    /// Routes by machine and forwards with failover: if the owner turns
    /// out to be down it is marked so, the ring reroutes the key, and the
    /// buffered command retries cleanly on the successor (nothing has
    /// reached the client yet).
    fn forward_routed(
        &mut self,
        machine: &str,
        line: &str,
    ) -> Result<(NodeInfo, Vec<u8>), ClusterError> {
        let owner = self.route_machine(machine)?;
        match self.forward_to(&owner, line) {
            Ok(resp) => Ok((owner, resp)),
            Err(ClusterError::NodeDown { node, detail }) => {
                self.mark_down(&node, &detail);
                let successor = self.route_machine(machine)?;
                let resp = self.forward_to(&successor, line)?;
                Ok((successor, resp))
            }
            Err(e) => Err(e),
        }
    }

    /// Forwards to the primary with the same failover discipline.
    fn forward_primary(&mut self, line: &str) -> Result<(NodeInfo, Vec<u8>), ClusterError> {
        let node = self.primary()?;
        match self.forward_to(&node, line) {
            Ok(resp) => Ok((node, resp)),
            Err(ClusterError::NodeDown { node: name, detail }) => {
                self.mark_down(&name, &detail);
                if self.focus.as_deref() == Some(name.as_str()) {
                    self.focus = None;
                }
                let next = self.primary()?;
                let resp = self.forward_to(&next, line)?;
                Ok((next, resp))
            }
            Err(e) => Err(e),
        }
    }

    /// The live replica set for `machine`: up to `replicas` nodes after
    /// `owner` in ring order.
    fn successor_set(&self, owner: &NodeInfo, machine: &str) -> Vec<NodeInfo> {
        let replicas = self.shared.config.replicas;
        if replicas == 0 {
            return Vec::new();
        }
        let ordered = lock_map(&self.shared.map).ordered_alive(&self.tenant, machine);
        let mut out: Vec<NodeInfo> = Vec::new();
        let mut past_owner = false;
        for node in &ordered {
            if node.name == owner.name {
                past_owner = true;
            } else if past_owner {
                out.push(node.clone());
            }
        }
        if !past_owner {
            // The owner raced out of the live set; replicate to the
            // chain's front instead.
            out = ordered;
        }
        out.truncate(replicas);
        out
    }

    /// Ships the owner's snapshot for `(machine, suite)` to the ring
    /// successors, at most once per write. Best-effort by design: a
    /// replica that cannot store (no state dir, down) is skipped, and a
    /// key with nothing to pull (e.g. the owner runs cache-only and
    /// evicted) is marked clean so it is not re-pulled per request.
    fn replicate(&mut self, machine: &str, suite: &str) {
        let key = (machine.to_owned(), suite.to_owned());
        if self.clean.contains(&key) {
            return;
        }
        let Ok(owner) = self.route_machine(machine) else {
            return;
        };
        let successors = self.successor_set(&owner, machine);
        if successors.is_empty() {
            self.clean.insert(key);
            return;
        }
        let Ok(resp) = self.forward_to(&owner, &format!("pullsnap {machine} {suite}")) else {
            return;
        };
        match snapshot_hex(&resp).map(str::to_owned) {
            Some(hex) => {
                let push = format!("pushsnap {hex}");
                for succ in successors {
                    let _ = self.forward_to(&succ, &push);
                }
                self.clean.insert(key);
            }
            None => {
                self.clean.insert(key);
            }
        }
    }

    /// Ships `machine`'s records (arch constants included) from its
    /// ring owner to `to`, so `to` can run any single-node fitting
    /// path over the exact same bytes. `Ok(false)` means the owner had
    /// nothing to export (never ingested — the data will come from
    /// deterministic simulation instead), which is not a failure.
    fn ship_records(&mut self, machine: &str, to: &NodeInfo) -> Result<bool, ClusterError> {
        let key = (to.name.clone(), machine.to_owned());
        if self.shipped.contains(&key) {
            return Ok(true);
        }
        let (_, resp) = self.forward_routed(machine, &format!("pullrecs {machine}"))?;
        let Some((arch, csv)) = records_payload(&resp) else {
            return Ok(false);
        };
        let resp = self.forward_to(to, &format!("pushrecs {machine} {arch} {csv}"))?;
        let installed = resp.ends_with(b"ok\n");
        if installed {
            self.shipped.insert(key);
        }
        Ok(installed)
    }

    /// Best-effort warm transfer: pulls `(machine, suite)`'s snapshot
    /// from its owner and pushes it to `to`, so the next fit there is
    /// a digest-matched warm load instead of a re-fit. Failures cost
    /// only time — a fresh fit over the shipped records is
    /// deterministic, so results never depend on this succeeding.
    fn warm_snapshot(&mut self, machine: &str, suite: &str, to: &NodeInfo) {
        let pull = format!("pullsnap {machine} {suite}");
        let Ok((_, resp)) = self.forward_routed(machine, &pull) else {
            return;
        };
        if let Some(hex) = snapshot_hex(&resp).map(str::to_owned) {
            let _ = self.forward_to(to, &format!("pushsnap {hex}"));
        }
    }

    /// Satisfies a two-machine command's data dependency: `delta <old>
    /// <new> <suite>` serves from the *old* machine's owner, which
    /// needs the new machine's records too. When the ring puts them on
    /// different nodes, ship the new side's records (and its fitted
    /// snapshot, so the join is warm) to the serving node first — the
    /// forwarded command then runs the unchanged single-node path,
    /// byte-identical output included. Best-effort by design: a
    /// machine missing everywhere still errors with the backend's
    /// exact bytes on the forward.
    fn prepare_join(&mut self, serving: &str, missing: &str, suite: &str) {
        let (Ok(serving_owner), Ok(missing_owner)) =
            (self.route_machine(serving), self.route_machine(missing))
        else {
            return;
        };
        if serving_owner.name == missing_owner.name {
            return;
        }
        if matches!(self.ship_records(missing, &serving_owner), Ok(true)) {
            self.warm_snapshot(missing, suite, &serving_owner);
        }
    }

    /// Replays the active greeting on every pooled connection except
    /// `just_used`, dropping connections that reject it — after a
    /// rebind, every backend this session talks to must agree on the
    /// tenant.
    fn replay_greeting(&mut self, just_used: &str) {
        let Some(greeting) = self.greeting.clone() else {
            return;
        };
        let mut keep = Vec::new();
        for (name, mut conn) in std::mem::take(&mut self.conns) {
            if name == just_used {
                keep.push((name, conn));
                continue;
            }
            if matches!(conn.forward(&greeting), Ok(ref r) if r.ends_with(b"ok\n")) {
                keep.push((name, conn));
            }
        }
        self.conns = keep;
    }

    /// Proxies one client line. Cluster-level failures (every candidate
    /// node down) surface as in-band `err:` lines; only client-transport
    /// failures end the session.
    fn handle_line(&mut self, line: &str, out: &mut impl Write) -> std::io::Result<ProxyOutcome> {
        match self.dispatch(line, out) {
            Ok(outcome) => Ok(outcome),
            Err(ClusterError::Io(e)) => Err(e),
            Err(e) => {
                writeln!(out, "err: {e}")?;
                Ok(ProxyOutcome::Continue)
            }
        }
    }

    fn dispatch(&mut self, line: &str, out: &mut impl Write) -> Result<ProxyOutcome, ClusterError> {
        let words: Vec<&str> = line.split_whitespace().collect();
        let Some(&first) = words.first() else {
            // Blank lines produce no response, exactly like a node.
            return Ok(ProxyOutcome::Continue);
        };
        match first {
            "hello" => {
                let (node, resp) = self.forward_primary(line)?;
                out.write_all(&resp)?;
                if resp.ends_with(b"ok\n") && words.len() == 2 {
                    if let Some(tenant) = resp
                        .split(|b| *b == b'\n')
                        .next()
                        .and_then(|l| std::str::from_utf8(l).ok())
                        .and_then(|l| l.strip_prefix("hello "))
                    {
                        self.tenant = tenant.trim().to_owned();
                    }
                    self.greeting = Some(format!("hello {}", words[1]));
                    // A rebind changes the routing key space wholesale.
                    self.focus = None;
                    self.clean.clear();
                    self.shipped.clear();
                    self.replay_greeting(&node.name);
                }
                Ok(ProxyOutcome::Continue)
            }
            // Writes: relay the owner's response, mirror the write to
            // the key's replica set so successors can serve it later.
            "machine" if words.len() >= 2 => {
                let (owner, resp) = self.forward_routed(words[1], line)?;
                out.write_all(&resp)?;
                self.focus = Some(owner.name.clone());
                self.clean.retain(|(m, _)| m != words[1]);
                self.shipped.retain(|(_, m)| m != words[1]);
                if resp.ends_with(b"ok\n") {
                    for succ in self.successor_set(&owner, words[1]) {
                        let _ = self.forward_to(&succ, line);
                    }
                }
                Ok(ProxyOutcome::Continue)
            }
            "ingest" if words.len() == 2 => self.dispatch_ingest(words[1], line, out),
            // Model-bearing reads route by machine; a success freshens
            // the replica set (the fit — or warm load — just happened).
            "fit" | "stack" | "binstack" | "predict" | "pullsnap" if words.len() == 3 => {
                let (owner, resp) = self.forward_routed(words[1], line)?;
                out.write_all(&resp)?;
                self.focus = Some(owner.name.clone());
                if first != "pullsnap" && resp.ends_with(b"ok\n") {
                    self.replicate(words[1], words[2]);
                }
                Ok(ProxyOutcome::Continue)
            }
            "delta" if words.len() == 4 => {
                // `delta <old> <new> <suite>` fits both machines on the
                // old machine's owner. The ring hashes the two machines
                // independently, so the new side may live elsewhere —
                // ship its records (and warm snapshot) over first, then
                // forward; the owner runs the unchanged single-node
                // path. Replicate what that node now holds.
                self.prepare_join(words[1], words[2], words[3]);
                let (owner, resp) = self.forward_routed(words[1], line)?;
                out.write_all(&resp)?;
                self.focus = Some(owner.name.clone());
                if resp.ends_with(b"ok\n") {
                    self.replicate(words[1], words[3]);
                }
                Ok(ProxyOutcome::Continue)
            }
            // A sweep routes by its base, which owns every variant too:
            // the line runs whole on one node, and the base plus each
            // variant it expands to replicate like a `fit`.
            "sweep" if words.len() >= 3 => {
                let (owner, resp) = self.forward_routed(words[1], line)?;
                out.write_all(&resp)?;
                self.focus = Some(owner.name.clone());
                if resp.ends_with(b"ok\n") {
                    self.replicate(words[1], words[2]);
                    for id in swept_variants(&words) {
                        self.replicate(id.name(), words[2]);
                    }
                }
                Ok(ProxyOutcome::Continue)
            }
            "quit" => {
                let resp = match self.forward_primary(line) {
                    Ok((_, resp)) => resp,
                    // No backend left to say goodbye through — honor the
                    // quit locally instead of stranding the client on an
                    // open connection.
                    Err(_) if words.len() == 1 => b"ok\n".to_vec(),
                    Err(e) => return Err(e),
                };
                out.write_all(&resp)?;
                if resp == b"ok\n" {
                    return Ok(ProxyOutcome::Quit);
                }
                Ok(ProxyOutcome::Continue)
            }
            "shutdown" => {
                let (node, resp) = match self.forward_primary(line) {
                    Ok(forwarded) => forwarded,
                    // Every backend is already unreachable; the router
                    // itself must still be stoppable in-band.
                    Err(_) if words.len() == 1 => {
                        out.write_all(b"ok\n")?;
                        return Ok(ProxyOutcome::Shutdown);
                    }
                    Err(e) => return Err(e),
                };
                out.write_all(&resp)?;
                if resp == b"ok\n" {
                    // The primary shut itself down via the forwarded
                    // command; take the rest of the tier with it.
                    let others: Vec<NodeInfo> = lock_map(&self.shared.map)
                        .nodes
                        .iter()
                        .filter(|n| n.health == NodeHealth::Alive && n.name != node.name)
                        .cloned()
                        .collect();
                    for other in others {
                        let _ = self.forward_to(&other, "shutdown");
                    }
                    return Ok(ProxyOutcome::Shutdown);
                }
                Ok(ProxyOutcome::Continue)
            }
            // Everything else — stats, help, malformed input, unknown
            // verbs, wrong arities — goes to the focus node so its
            // response (and its effect on the request counters) lands
            // where the session's real work lives.
            _ => {
                let (_, resp) = self.forward_primary(line)?;
                out.write_all(&resp)?;
                Ok(ProxyOutcome::Continue)
            }
        }
    }

    /// `ingest <path>` writes records for every machine named in the
    /// CSV. The router reads the file itself to learn that machine set,
    /// relays the owner's response for the first machine, and mirrors
    /// the command to every other owner and replica so each shard holds
    /// the records its keys need for digest-matched warm loads.
    fn dispatch_ingest(
        &mut self,
        path: &str,
        line: &str,
        out: &mut impl Write,
    ) -> Result<ProxyOutcome, ClusterError> {
        let limit = proto::MAX_INGEST_FILE_BYTES;
        let machines: Option<Vec<String>> = proto::read_ingest_file(path, limit)
            .ok()
            .and_then(|text| pmu::csv::from_csv(&text).ok())
            .map(|records| {
                let mut names: Vec<String> = Vec::new();
                for record in &records {
                    // The protocol's machine identifier (`core2`), NOT the
                    // Display form (`Core 2`) — routing keys must match
                    // what clients type.
                    let name = record.machine().name().to_owned();
                    if !names.contains(&name) {
                        names.push(name);
                    }
                }
                names
            });
        let Some(machines) = machines else {
            // Unreadable, too large or malformed: let a backend produce
            // its exact error bytes.
            let (_, resp) = self.forward_primary(line)?;
            out.write_all(&resp)?;
            return Ok(ProxyOutcome::Continue);
        };
        let Some(lead) = machines.first() else {
            let (_, resp) = self.forward_primary(line)?;
            out.write_all(&resp)?;
            return Ok(ProxyOutcome::Continue);
        };
        let (owner, resp) = self.forward_routed(lead, line)?;
        out.write_all(&resp)?;
        self.focus = Some(owner.name.clone());
        self.clean
            .retain(|(m, _)| !machines.iter().any(|name| name == m));
        self.shipped
            .retain(|(_, m)| !machines.iter().any(|name| name == m));
        if resp.ends_with(b"ok\n") {
            let mut targets: Vec<NodeInfo> = Vec::new();
            for machine in &machines {
                let Ok(machine_owner) = self.route_machine(machine) else {
                    continue;
                };
                for node in std::iter::once(machine_owner.clone())
                    .chain(self.successor_set(&machine_owner, machine))
                {
                    if node.name != owner.name && !targets.iter().any(|t| t.name == node.name) {
                        targets.push(node);
                    }
                }
            }
            for target in targets {
                let _ = self.forward_to(&target, line);
            }
        }
        Ok(ProxyOutcome::Continue)
    }
}

/// A running cluster router: the client-facing event loop, the shared
/// cluster map, and (optionally) the background health prober. Obtained
/// from [`serve_router`].
#[derive(Debug)]
pub struct ClusterRouter {
    local_addr: SocketAddr,
    shared: Arc<RouterShared>,
    stop: Arc<AtomicBool>,
    accept: Option<std::thread::JoinHandle<()>>,
    prober: Option<std::thread::JoinHandle<()>>,
}

impl ClusterRouter {
    /// The address the router actually bound (resolves `:0` ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Signals every router thread to stop without waiting.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Blocks until the router stops (via [`ClusterRouter::stop`], drop,
    /// or a client's `shutdown`). Proxy sessions drain before this
    /// returns. The backend *nodes* are not owned here — the caller
    /// (or [`ClusterHarness`]) shuts them down separately.
    pub fn wait(mut self) {
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.prober.take() {
            let _ = handle.join();
        }
    }

    /// Stops the router and waits for its threads.
    pub fn shutdown(self) {
        self.stop();
        self.wait();
    }

    /// Takes a node out of the routing rotation without touching it —
    /// its keys reroute to ring successors while it keeps running.
    ///
    /// # Errors
    ///
    /// [`ClusterError::UnknownNode`] when no member has that name.
    pub fn drain(&self, node: &str) -> Result<(), ClusterError> {
        lock_map(&self.shared.map).set_health(node, NodeHealth::Draining)
    }

    /// Puts a node (drained or down) back into the rotation.
    ///
    /// # Errors
    ///
    /// [`ClusterError::UnknownNode`] when no member has that name.
    pub fn revive(&self, node: &str) -> Result<(), ClusterError> {
        lock_map(&self.shared.map).set_health(node, NodeHealth::Alive)
    }

    /// The live owner a `(tenant, machine)` key currently routes to.
    ///
    /// # Errors
    ///
    /// [`ClusterError::NoBackends`] when no live member remains.
    pub fn owner_of(&self, tenant: &str, machine: &str) -> Result<String, ClusterError> {
        lock_map(&self.shared.map)
            .route(tenant, machine)
            .map(|n| n.name)
    }

    /// Probes one member right now: connects, and updates its health
    /// from the result.
    ///
    /// # Errors
    ///
    /// [`ClusterError::UnknownNode`] for unknown names,
    /// [`ClusterError::NodeDown`] when the connect fails.
    pub fn probe(&self, node: &str) -> Result<(), ClusterError> {
        let info = lock_map(&self.shared.map)
            .info(node)
            .cloned()
            .ok_or_else(|| ClusterError::UnknownNode {
                node: node.to_owned(),
            })?;
        match TcpStream::connect_timeout(&info.addr, self.shared.config.connect_timeout) {
            Ok(_) => {
                if info.health == NodeHealth::Down {
                    let _ = lock_map(&self.shared.map).set_health(node, NodeHealth::Alive);
                }
                Ok(())
            }
            Err(e) => {
                if info.health == NodeHealth::Alive {
                    let _ = lock_map(&self.shared.map).set_health(node, NodeHealth::Down);
                }
                Err(ClusterError::NodeDown {
                    node: node.to_owned(),
                    detail: e.to_string(),
                })
            }
        }
    }
}

impl Drop for ClusterRouter {
    fn drop(&mut self) {
        self.stop();
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.prober.take() {
            let _ = handle.join();
        }
    }
}

/// Starts the router front on an already-bound listener over the given
/// backend nodes. The backends are *addresses*, not owned processes —
/// [`ClusterHarness`] (or the CLI) owns their lifecycles.
///
/// # Errors
///
/// Setup failures only (no poller on this platform —
/// [`std::io::ErrorKind::Unsupported`] — non-blocking mode, thread
/// spawn); per-connection and per-backend failures are handled in-band
/// and never take the router down.
pub fn serve_router(
    listener: TcpListener,
    backends: &[(String, SocketAddr)],
    config: RouterConfig,
) -> std::io::Result<ClusterRouter> {
    let local_addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    // Opened before anything spawns, as in `proto::serve_tcp`.
    let poller = Poller::new()?;
    let shared = Arc::new(RouterShared {
        map: Mutex::new(ClusterMap::new(backends, config.virtual_nodes)),
        config,
    });
    let stop = Arc::new(AtomicBool::new(false));
    let accept_shared = Arc::clone(&shared);
    let accept_stop = Arc::clone(&stop);
    let accept = std::thread::Builder::new()
        .name("cpi-router-front".into())
        .spawn(move || router_event_front(poller, &listener, &accept_shared, &accept_stop))?;
    let prober = match shared.config.probe_interval {
        Some(period) => {
            let probe_shared = Arc::clone(&shared);
            let probe_stop = Arc::clone(&stop);
            Some(
                std::thread::Builder::new()
                    .name("cpi-router-probe".into())
                    .spawn(move || probe_loop(&probe_shared, &probe_stop, period))?,
            )
        }
        None => None,
    };
    Ok(ClusterRouter {
        local_addr,
        shared,
        stop,
        accept: Some(accept),
        prober,
    })
}

/// The readiness-loop router front: one thread multiplexing every
/// client connection, each line dispatched through a [`ProxySession`].
/// Backend hops inside a dispatch reuse the session's pooled blocking
/// connections — the polling the loop eliminates is all client-side.
fn router_event_front(
    poller: Poller,
    listener: &TcpListener,
    shared: &Arc<RouterShared>,
    stop: &AtomicBool,
) {
    let loop_config = LoopConfig {
        banner: shared.config.banner.clone(),
        idle_timeout: shared.config.idle_timeout,
        max_connections: shared.config.max_connections,
        tick: shared.config.poll_interval,
    };
    poller::run_event_loop(poller, listener, &loop_config, stop, || {
        let mut session = ProxySession::new(shared);
        move |line: &str, out: &mut Vec<u8>| {
            session.handle_line(line, out).map(|outcome| match outcome {
                ProxyOutcome::Continue => Dispatch::Continue,
                ProxyOutcome::Quit => Dispatch::Close,
                ProxyOutcome::Shutdown => Dispatch::Shutdown,
            })
        }
    });
}

/// Background membership probing: connect to every non-draining member
/// each period, flipping Alive⇄Down from the result. Probe connections
/// are harmless to nodes — they see the banner and an immediate EOF.
fn probe_loop(shared: &RouterShared, stop: &AtomicBool, period: Duration) {
    let tick = shared.config.poll_interval;
    let mut next = Instant::now() + period;
    while !stop.load(Ordering::SeqCst) {
        if Instant::now() >= next {
            let members: Vec<NodeInfo> = lock_map(&shared.map).nodes.clone();
            for node in members {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                if node.health == NodeHealth::Draining {
                    continue;
                }
                match TcpStream::connect_timeout(&node.addr, shared.config.connect_timeout) {
                    Ok(_) => {
                        if node.health == NodeHealth::Down {
                            let _ = lock_map(&shared.map).set_health(&node.name, NodeHealth::Alive);
                        }
                    }
                    Err(_) => {
                        if node.health == NodeHealth::Alive {
                            let _ = lock_map(&shared.map).set_health(&node.name, NodeHealth::Down);
                        }
                    }
                }
            }
            next = Instant::now() + period;
        }
        std::thread::sleep(tick);
    }
}

/// One backend node a [`ClusterHarness`] owns: its service, its TCP
/// front, and its on-disk state dir.
#[derive(Debug)]
struct HarnessNode {
    name: String,
    addr: SocketAddr,
    service: Option<CpiService>,
    server: Option<TcpServer>,
}

/// An in-process cluster: N real `cpistack serve` nodes (each its own
/// [`CpiService`] + TCP front on a `:0` port, each with its own state
/// dir under the harness root) fronted by a [`ClusterRouter`]. This is
/// how tier-1 tests exercise routing, replication and kill-a-node
/// failover without external orchestration.
#[derive(Debug)]
pub struct ClusterHarness {
    nodes: Vec<HarnessNode>,
    router: Option<ClusterRouter>,
}

/// Builder for [`ClusterHarness`]; see [`ClusterHarness::builder`].
pub struct ClusterHarnessBuilder {
    state_root: PathBuf,
    nodes: usize,
    workers: usize,
    cache: usize,
    options: FitOptions,
    registry: Option<Arc<TokenRegistry>>,
    router: RouterConfig,
    listen: String,
}

impl ClusterHarness {
    /// A builder rooted at `state_root` (each node persists snapshots
    /// under `state_root/node-<i>` — replication needs somewhere to
    /// land). Defaults: 3 nodes, 2 workers and cache 8 per node, quick
    /// fits, open sessions, default [`RouterConfig`].
    pub fn builder(state_root: impl Into<PathBuf>) -> ClusterHarnessBuilder {
        ClusterHarnessBuilder {
            state_root: state_root.into(),
            nodes: 3,
            workers: 2,
            cache: 8,
            options: FitOptions::quick(),
            registry: None,
            router: RouterConfig::default(),
            listen: "127.0.0.1:0".to_owned(),
        }
    }

    /// The router front clients connect to.
    pub fn router(&self) -> &ClusterRouter {
        self.router.as_ref().expect("router lives until shutdown")
    }

    /// The router's client-facing address.
    pub fn router_addr(&self) -> SocketAddr {
        self.router().local_addr()
    }

    /// Number of backend nodes (live or killed).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// A node's member name (`node-<i>`).
    pub fn node_name(&self, index: usize) -> &str {
        &self.nodes[index].name
    }

    /// A node's direct TCP address (for bypassing the router).
    pub fn node_addr(&self, index: usize) -> SocketAddr {
        self.nodes[index].addr
    }

    /// The index of the node currently owning `(tenant, machine)`.
    pub fn owner_index(&self, tenant: &str, machine: &str) -> Option<usize> {
        let owner = self.router().owner_of(tenant, machine).ok()?;
        self.nodes.iter().position(|n| n.name == owner)
    }

    /// Kills a node for real: its TCP front and service stop, its port
    /// refuses connections. The router discovers this on next use or
    /// probe — exactly like a crashed process.
    pub fn kill(&mut self, index: usize) {
        if let Some(server) = self.nodes[index].server.take() {
            server.shutdown();
        }
        if let Some(service) = self.nodes[index].service.take() {
            service.shutdown();
        }
    }

    /// Drains a node at the router (the node itself keeps running).
    ///
    /// # Errors
    ///
    /// [`ClusterError::UnknownNode`] when the index is stale.
    pub fn drain(&self, index: usize) -> Result<(), ClusterError> {
        let name = self.nodes[index].name.clone();
        self.router().drain(&name)
    }

    /// Blocks until the router stops (a client's in-band `shutdown`, a
    /// signal via [`ClusterRouter::stop`]), then stops every surviving
    /// node — the `cpistack cluster` foreground lifecycle.
    pub fn wait(mut self) {
        if let Some(router) = self.router.take() {
            router.wait();
        }
        for index in 0..self.nodes.len() {
            self.kill(index);
        }
    }

    /// Stops the router, then every surviving node.
    pub fn shutdown(mut self) {
        if let Some(router) = self.router.take() {
            router.shutdown();
        }
        for index in 0..self.nodes.len() {
            self.kill(index);
        }
    }
}

impl ClusterHarnessBuilder {
    /// Sets the node count (minimum 1).
    pub fn with_nodes(mut self, nodes: usize) -> Self {
        self.nodes = nodes.max(1);
        self
    }

    /// Sets each node's worker-shard count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets each node's model-cache capacity.
    pub fn with_cache(mut self, cache: usize) -> Self {
        self.cache = cache.max(1);
        self
    }

    /// Sets the fit options every node session uses.
    pub fn with_options(mut self, options: FitOptions) -> Self {
        self.options = options;
        self
    }

    /// Gates every node behind the token registry (the router forwards
    /// `hello` verbatim, so auth semantics are the nodes').
    pub fn with_registry(mut self, registry: Arc<TokenRegistry>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Replaces the router configuration wholesale.
    pub fn with_router(mut self, config: RouterConfig) -> Self {
        self.router = config;
        self
    }

    /// Binds the router's client-facing listener to this address
    /// (default `127.0.0.1:0` — an ephemeral loopback port).
    pub fn with_listen(mut self, addr: impl Into<String>) -> Self {
        self.listen = addr.into();
        self
    }

    /// Boots the nodes and the router.
    ///
    /// # Errors
    ///
    /// Any node or router setup failure (state dir, bind, spawn).
    pub fn start(self) -> std::io::Result<ClusterHarness> {
        let mut nodes = Vec::with_capacity(self.nodes);
        let mut backends = Vec::with_capacity(self.nodes);
        for i in 0..self.nodes {
            let name = format!("node-{i}");
            let config = ServiceConfig::new()
                .with_workers(self.workers)
                .with_cache_capacity(self.cache)
                .with_state_dir(self.state_root.join(&name));
            let service =
                CpiService::try_start(config).map_err(|e| std::io::Error::other(e.to_string()))?;
            let spec = match &self.registry {
                Some(registry) => SessionSpec::with_auth(
                    service.client(),
                    self.options.clone(),
                    Arc::clone(registry),
                ),
                None => SessionSpec::open(service.client(), self.options.clone()),
            };
            let listener = TcpListener::bind("127.0.0.1:0")?;
            // Nodes share the router's banner (so a one-node cluster is
            // transparent even on direct connects) and never idle-close:
            // the router pools its backend connections across client
            // think time. The connection cap follows the router's
            // too — every admitted client may pool one backend
            // connection per node, so a tighter node cap would refuse
            // backends for clients the router already accepted.
            let server = proto::serve_tcp(
                listener,
                spec,
                TcpServerConfig::new(self.router.banner.clone())
                    .with_idle_timeout(None)
                    .with_poll_interval(self.router.poll_interval)
                    .with_max_connections(self.router.max_connections),
            )?;
            let addr = server.local_addr();
            backends.push((name.clone(), addr));
            nodes.push(HarnessNode {
                name,
                addr,
                service: Some(service),
                server: Some(server),
            });
        }
        let listener = TcpListener::bind(self.listen.as_str())?;
        let router = serve_router(listener, &backends, self.router)?;
        Ok(ClusterHarness {
            nodes,
            router: Some(router),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_node_ring() -> HashRing {
        let mut ring = HashRing::new(64);
        ring.add("node-0");
        ring.add("node-1");
        ring.add("node-2");
        ring
    }

    #[test]
    fn ring_routing_is_deterministic_and_total() {
        let ring = three_node_ring();
        for machine in ["core2", "corei7", "atom", "zen", ""] {
            let a = ring.node_for("local", machine).expect("owner");
            let b = ring.node_for("local", machine).expect("owner");
            assert_eq!(a, b);
            assert!(ring.nodes().iter().any(|n| n == a));
        }
        // Tenant is part of the key: at least one machine routes
        // differently for a different tenant across a small sample.
        let moved = ["m0", "m1", "m2", "m3", "m4", "m5", "m6", "m7"]
            .iter()
            .any(|m| ring.node_for("alpha", m) != ring.node_for("beta", m));
        assert!(moved, "tenant must participate in the routing key");
    }

    #[test]
    fn successors_are_distinct_and_exclude_the_owner() {
        let ring = three_node_ring();
        let owner = ring.node_for("local", "core2").unwrap();
        let successors = ring.successors("local", "core2", 2);
        assert_eq!(successors.len(), 2);
        assert!(!successors.contains(&owner));
        assert_ne!(successors[0], successors[1]);
    }

    #[test]
    fn removing_a_node_moves_only_its_keys() {
        let ring = three_node_ring();
        let mut shrunk = ring.clone();
        shrunk.remove("node-1");
        for i in 0..200 {
            let machine = format!("machine-{i}");
            let before = ring.node_for("local", &machine).unwrap();
            let after = shrunk.node_for("local", &machine).unwrap();
            if before == "node-1" {
                assert_ne!(after, "node-1");
                // The key lands exactly where filtered routing said it
                // would — failover and membership change agree.
                let failover = ring
                    .node_for_filtered("local", &machine, |n| n != "node-1")
                    .unwrap();
                assert_eq!(after, failover);
            } else {
                assert_eq!(before, after, "key `{machine}` moved needlessly");
            }
        }
    }

    #[test]
    fn cluster_map_routes_around_dead_and_draining_nodes() {
        let addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let backends: Vec<(String, SocketAddr)> =
            (0..3).map(|i| (format!("node-{i}"), addr)).collect();
        let mut map = ClusterMap::new(&backends, 64);
        let owner = map.route("local", "core2").expect("owner").name;
        map.set_health(&owner, NodeHealth::Down).unwrap();
        let next = map.route("local", "core2").expect("successor").name;
        assert_ne!(next, owner);
        map.set_health(&next, NodeHealth::Draining).unwrap();
        let last = map.route("local", "core2").expect("last survivor").name;
        assert!(last != owner && last != next);
        map.set_health(&last, NodeHealth::Down).unwrap();
        assert!(matches!(
            map.route("local", "core2"),
            Err(ClusterError::NoBackends)
        ));
        assert!(matches!(
            map.set_health("node-9", NodeHealth::Alive),
            Err(ClusterError::UnknownNode { .. })
        ));
    }

    #[test]
    fn frame_announcements_and_terminators_parse() {
        assert_eq!(frame_len(b"frame stacks 123"), Some(123));
        assert_eq!(frame_len(b"stack bench 1.0"), None);
        assert_eq!(trim_line(b"ok\n"), b"ok");
        assert_eq!(trim_line(b"ok\r\n"), b"ok");
        assert_eq!(snapshot_hex(b"snapshot deadbeef\nok\n"), Some("deadbeef"));
        assert_eq!(snapshot_hex(b"err: no snapshot\n"), None);
    }

    /// Variants route with their base: a sweep's base, its variants and
    /// any later `stack <variant>` share one owner, including after the
    /// owner fails. Non-variant words keep their own ring points.
    #[test]
    fn cluster_map_routes_variants_with_their_base() {
        let addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let backends: Vec<(String, SocketAddr)> =
            (0..3).map(|i| (format!("node-{i}"), addr)).collect();
        let mut map = ClusterMap::new(&backends, 64);
        let variants = [
            "core2+rob64",
            "core2+mshr8",
            "core2+rob96+mshr16",
            "core2+dw2+pf1",
        ];
        let same_owner = |map: &ClusterMap| {
            let base = map.route("local", "core2").unwrap().name;
            variants
                .iter()
                .all(|v| map.route("local", v).unwrap().name == base)
        };
        assert!(same_owner(&map));
        let owner = map.route("local", "core2").unwrap().name;
        map.set_health(&owner, NodeHealth::Down).unwrap();
        assert!(same_owner(&map), "failover moves the family together");
        let chain = |m: &str| -> Vec<String> {
            map.ordered_alive("local", m)
                .into_iter()
                .map(|n| n.name)
                .collect()
        };
        assert_eq!(chain("core2+rob64"), chain("core2"));
        // Words that are not machine ids route by their raw text.
        assert_eq!(ring_key("core2"), "core2");
        assert_eq!(ring_key("core2+bogus1"), "core2+bogus1");
        assert_eq!(ring_key(""), "");
        assert_eq!(ring_key("corei7+pf2"), "corei7");
    }

    // -- The router's reply parsers against the node's own renderers --

    use crate::params::MicroarchParams;
    use pmu::{RunRecord, Suite};
    use proptest::prelude::*;

    /// A node's full `pullrecs` reply, `ok` included.
    fn records_reply(arch: &MicroarchParams, records: &[RunRecord]) -> Vec<u8> {
        let mut out = Vec::new();
        proto::write_records(&mut out, MachineId::Core2, arch, records).unwrap();
        out.extend_from_slice(b"ok\n");
        out
    }

    fn sample_records(counters: &[u64]) -> Vec<RunRecord> {
        counters
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let mut set = pmu::CounterSet::new();
                for (k, event) in pmu::Event::ALL.into_iter().enumerate() {
                    set.set(event, c.wrapping_mul(k as u64 + 1));
                }
                RunRecord::new(format!("bench.{i}"), Suite::Cpu2000, MachineId::Core2, set)
            })
            .collect()
    }

    /// Overwrites byte `at % len` of `reply` with `byte`.
    fn garble(reply: &[u8], at: usize, byte: u8) -> Vec<u8> {
        let mut bad = reply.to_vec();
        let at = at % bad.len();
        bad[at] = byte;
        bad
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Node `pullrecs` output parses back to the exact arch bits and
        /// records; truncations and non-hex bytes are refused.
        #[test]
        fn records_replies_round_trip_and_truncations_fail(
            counters in prop::collection::vec(0u64..u64::MAX, 1..8),
            constants in (0.5f64..8.0, 1.0f64..40.0, 1.0f64..40.0, 50.0f64..500.0, 1.0f64..90.0),
            at in 0usize..65_536,
            byte in 0u8..255,
        ) {
            let (width, depth, l2, mem, tlb) = constants;
            let arch = MicroarchParams::new(width, depth, l2, mem, tlb);
            let records = sample_records(&counters);
            let reply = records_reply(&arch, &records);
            let (arch_hex, csv_hex) = records_payload(&reply).expect("well-formed reply");
            let bits: Vec<u8> = [width, depth, l2, mem, tlb]
                .iter()
                .flat_map(|v| v.to_le_bytes())
                .collect();
            prop_assert_eq!(proto::hex_decode(&arch_hex), Some(bits));
            let csv = String::from_utf8(proto::hex_decode(&csv_hex).unwrap()).unwrap();
            prop_assert_eq!(pmu::csv::from_csv(&csv).unwrap(), records);
            for cut in 0..reply.len() {
                prop_assert!(records_payload(&reply[..cut]).is_none(), "prefix {cut} parsed");
            }
            let _ = records_payload(&garble(&reply, at, byte));
            let payload_at = "records core2 ".len() + at % (reply.len() - 3 - "records core2 ".len());
            prop_assert!(records_payload(&garble(&reply, payload_at, b'g')).is_none());
        }

        /// Node `pullsnap` output parses back to the snapshot bytes;
        /// truncations and non-hex bytes are refused.
        #[test]
        fn snapshot_replies_round_trip_and_truncations_fail(
            bytes in prop::collection::vec(0u8..255, 1..300),
            at in 0usize..4_096,
            byte in 0u8..255,
        ) {
            let mut reply = Vec::new();
            proto::write_snapshot(&mut reply, &bytes).unwrap();
            reply.extend_from_slice(b"ok\n");
            let hex = snapshot_hex(&reply).expect("well-formed reply");
            prop_assert_eq!(proto::hex_decode(hex), Some(bytes.clone()));
            for cut in 0..reply.len() {
                prop_assert!(snapshot_hex(&reply[..cut]).is_none(), "prefix {cut} parsed");
            }
            let _ = snapshot_hex(&garble(&reply, at, byte));
            let payload_at = "snapshot ".len() + at % (2 * bytes.len());
            prop_assert!(snapshot_hex(&garble(&reply, payload_at, b'z')).is_none());
        }
    }

    #[test]
    fn snapshot_and_records_parsers_refuse_malformed_payloads() {
        let two_lines = b"snapshot 00\nsnapshot 11\nok\n";
        assert_eq!(snapshot_hex(two_lines), None);
        assert_eq!(snapshot_hex(b"snapshot 0\nok\n"), None, "odd-length hex");
        assert_eq!(
            records_payload(b"records core2 00 11\nok\n"),
            None,
            "short arch"
        );
    }
}
