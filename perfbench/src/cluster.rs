//! The serving tier warm traffic goes to: two in-process nodes (default
//! events engine) behind the cluster router, primed with one Core 2 /
//! CPU2000 model.

use crate::warm::Conn;
use memodel::service::cluster::{ClusterHarness, RouterConfig};
use memodel::workbench::MachineSpec;
use memodel::FitOptions;
use oosim::machine::MachineConfig;
use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

/// Nodes behind the router.
const NODES: usize = 2;

/// The fit options every node session uses: the serve model is the quick
/// fit, as in `cpistack cluster --quick`.
pub fn serve_options() -> FitOptions {
    FitOptions::quick()
}

/// The protocol line registering the Core 2 with the constants the
/// simulator preset implies, so an in-process replica fits the same model.
pub fn machine_line() -> String {
    let arch = *MachineSpec::from(&MachineConfig::core2()).arch();
    format!(
        "machine core2 {} {} {} {} {}",
        arch.width, arch.fe_depth, arch.c_l2, arch.c_mem, arch.c_tlb
    )
}

pub struct Cluster {
    harness: ClusterHarness,
}

impl Cluster {
    /// Boots the tier under `state` and primes it through the router:
    /// register the Core 2, ingest `csv`, fit Core 2 / CPU2000. Returns
    /// the tier and the seconds all of that took.
    pub fn boot(state: &Path, csv: &Path) -> Result<(Self, f64), String> {
        let start = Instant::now();
        let harness = ClusterHarness::builder(state)
            .with_nodes(NODES)
            .with_workers(1)
            .with_cache(64)
            .with_options(serve_options())
            .with_router(
                RouterConfig::new("perfbench")
                    .with_poll_interval(Duration::from_millis(2))
                    .with_idle_timeout(None)
                    .with_max_connections(8),
            )
            .start()
            .map_err(|e| format!("cluster boot: {e}"))?;
        let cluster = Self { harness };
        let mut conn = Conn::connect(cluster.router())?;
        conn.request(&machine_line())?;
        conn.request(&format!("ingest {}", csv.display()))?;
        conn.request("fit core2 cpu2000")?;
        let seconds = start.elapsed().as_secs_f64();
        conn.request("quit")?;
        Ok((cluster, seconds))
    }

    pub fn router(&self) -> SocketAddr {
        self.harness.router_addr()
    }

    /// The node that owns the Core 2 for the local tenant.
    pub fn owner(&self) -> Result<SocketAddr, String> {
        let index = self
            .harness
            .owner_index("local", "core2")
            .ok_or("the core2 key has no owner")?;
        Ok(self.harness.node_addr(index))
    }

    /// Every node's direct address.
    pub fn nodes(&self) -> Vec<SocketAddr> {
        (0..self.harness.node_count())
            .map(|i| self.harness.node_addr(i))
            .collect()
    }

    pub fn shutdown(self) {
        self.harness.shutdown();
    }
}
