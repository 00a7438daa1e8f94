//! Durable model state for [`CpiService`](super::CpiService): fitted
//! [`ModelParams`] snapshots on disk, so a
//! restarted service warms up without re-running a single regression.
//!
//! A [`SnapshotStore`] maps one file per
//! `(machine, suite, FitOptions fingerprint, records digest)` key under a
//! state directory (`cpistack serve --state-dir`, or
//! [`ServiceConfig::with_state_dir`](super::ServiceConfig::with_state_dir)).
//! The service writes a snapshot behind the worker pool whenever a fresh
//! fit completes, and consults the store lazily on a model-cache miss:
//! a disk hit re-assembles the [`InferredModel`](crate::fit::InferredModel)
//! from its persisted parts (the fit is deterministic, so the restored
//! model is bit-identical to the one that was saved) and promotes it into
//! the in-memory cache.
//!
//! The **records digest** is the load-bearing part of the key: it is a
//! content hash of the exact suite-filtered training records, so ingesting
//! a different batch after a restart — one more run, one changed counter —
//! produces a different digest, the lookup misses, and the service falls
//! through to a fresh fit. Stale parameters are never served.
//!
//! # File format (version 1)
//!
//! Everything is little-endian, and the whole file is covered by a
//! trailing FNV-1a checksum — a single flipped byte anywhere (magic,
//! header, a parameter, even the checksum itself) fails [`decode`] and is
//! treated by the service as a cache miss, never a panic:
//!
//! ```text
//! magic   b"CPIS"                    4 bytes
//! version u32 = 1                    4 bytes
//! machine u16 length + name bytes
//! suite   u16 length + name bytes    (length 0 = pooled / all suites)
//! options fingerprint u64
//! records digest u64
//! records count u32
//! arch    5 × f64  (D, c_fe, c_L2, c_mem, c_TLB)
//! params  10 × f64 (b1 … b10)
//! interval_cap f64
//! objective    f64
//! checksum u64 = fnv64(all preceding bytes)
//! ```
//!
//! # Examples
//!
//! ```
//! use memodel::service::persist::{records_digest, ModelSnapshot, SnapshotStore};
//! use memodel::{MicroarchParams, ModelParams};
//! use pmu::{MachineId, Suite};
//!
//! let dir = std::env::temp_dir().join(format!("cpis_doc_{}", std::process::id()));
//! let store = SnapshotStore::open(&dir).unwrap();
//! let snap = ModelSnapshot {
//!     machine: MachineId::Core2,
//!     suite: Some(Suite::Cpu2000),
//!     options_fingerprint: 7,
//!     records_digest: 9,
//!     records: 12,
//!     arch: MicroarchParams::new(4.0, 14.0, 19.0, 169.0, 30.0),
//!     params: ModelParams::initial_guess(),
//!     interval_cap: 256.0,
//!     objective: 0.25,
//! };
//! store.save(&snap).unwrap();
//! let back = store.load(MachineId::Core2, Some(Suite::Cpu2000), 7, 9).unwrap();
//! assert_eq!(back.unwrap().params, snap.params);
//! assert!(store.load(MachineId::Core2, Some(Suite::Cpu2000), 7, 10).unwrap().is_none());
//! # let _ = std::fs::remove_dir_all(&dir);
//! ```

use crate::params::{MicroarchParams, ModelParams};
use pmu::{MachineId, RunRecord, Suite};
use std::fmt;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::str::FromStr;

/// Magic bytes opening every snapshot file.
pub const MAGIC: [u8; 4] = *b"CPIS";

/// Current snapshot format version.
pub const VERSION: u32 = 1;

/// 64-bit FNV-1a over a byte stream — the checksum for snapshot files and
/// binary protocol frames. Not cryptographic; it exists to catch
/// corruption (any single-byte difference changes the digest, because
/// every round is an injective map of the running state for a fixed
/// input suffix).
pub fn fnv64(bytes: &[u8]) -> u64 {
    fnv64_update(0xcbf2_9ce4_8422_2325, bytes)
}

/// Folds more bytes into a running FNV-1a state, for checksums over
/// non-contiguous parts (`fnv64(a ++ b) == fnv64_update(fnv64(a), b)`).
pub fn fnv64_update(state: u64, bytes: &[u8]) -> u64 {
    let mut hash = state;
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Content digest of a training-record set: the hash of its canonical CSV
/// serialization (benchmark order preserved — the service snapshots
/// records in batch-arrival order, which a replayed ingest reproduces).
pub fn records_digest(records: &[RunRecord]) -> u64 {
    fnv64(pmu::csv::to_csv(records).as_bytes())
}

/// A persistence failure. The service itself only ever *logs through* a
/// corrupt or unreadable snapshot (treating it as a cache miss); the typed
/// error exists for tools and tests that need to see why a file was
/// rejected.
#[derive(Debug)]
#[non_exhaustive]
pub enum PersistError {
    /// Reading or writing the state directory failed.
    Io {
        /// The path involved.
        path: PathBuf,
        /// The underlying error.
        error: std::io::Error,
    },
    /// The file's bytes do not decode as a snapshot (bad magic, wrong
    /// version, truncation, checksum mismatch, an unknown machine or
    /// suite name…). The payload says which check failed.
    Corrupt {
        /// Which structural check rejected the bytes.
        reason: String,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io { path, error } => {
                write!(f, "snapshot i/o on `{}`: {error}", path.display())
            }
            PersistError::Corrupt { reason } => write!(f, "corrupt snapshot: {reason}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io { error, .. } => Some(error),
            PersistError::Corrupt { .. } => None,
        }
    }
}

/// Everything needed to re-assemble one fitted model without refitting,
/// plus the key identifying which training state it belongs to.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSnapshot {
    /// The machine modeled.
    pub machine: MachineId,
    /// The suite slice trained on (`None` = pooled).
    pub suite: Option<Suite>,
    /// [`FitOptions::fingerprint`](crate::fit::FitOptions::fingerprint) of
    /// the options the fit ran with.
    pub options_fingerprint: u64,
    /// [`records_digest`] of the exact training records.
    pub records_digest: u64,
    /// Training-record count (informational; the digest is authoritative).
    pub records: u32,
    /// The microarchitectural constants the model was fitted against.
    pub arch: MicroarchParams,
    /// The ten fitted regression parameters.
    pub params: ModelParams,
    /// The interval cap the fit used.
    pub interval_cap: f64,
    /// Final objective value of the fit.
    pub objective: f64,
}

fn push_name(buf: &mut Vec<u8>, name: &str) {
    let len = u16::try_from(name.len()).expect("machine/suite names are short");
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(name.as_bytes());
}

/// Serializes a snapshot into the version-1 byte format (checksum
/// included).
pub fn encode(snap: &ModelSnapshot) -> Vec<u8> {
    let mut buf = Vec::with_capacity(192);
    buf.extend_from_slice(&MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    push_name(&mut buf, snap.machine.name());
    push_name(&mut buf, snap.suite.map(Suite::name).unwrap_or(""));
    buf.extend_from_slice(&snap.options_fingerprint.to_le_bytes());
    buf.extend_from_slice(&snap.records_digest.to_le_bytes());
    buf.extend_from_slice(&snap.records.to_le_bytes());
    for v in [
        snap.arch.width,
        snap.arch.fe_depth,
        snap.arch.c_l2,
        snap.arch.c_mem,
        snap.arch.c_tlb,
    ] {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    for v in snap.params.b {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    buf.extend_from_slice(&snap.interval_cap.to_le_bytes());
    buf.extend_from_slice(&snap.objective.to_le_bytes());
    let checksum = fnv64(&buf);
    buf.extend_from_slice(&checksum.to_le_bytes());
    buf
}

/// A bounds-checked little-endian reader over a snapshot body.
struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        if self.at + n > self.bytes.len() {
            return Err(PersistError::Corrupt {
                reason: format!("truncated at byte {} (wanted {n} more)", self.at),
            });
        }
        let slice = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(slice)
    }

    fn u16(&mut self) -> Result<u16, PersistError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, PersistError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn name(&mut self) -> Result<&'a str, PersistError> {
        let len = self.u16()? as usize;
        std::str::from_utf8(self.take(len)?).map_err(|_| PersistError::Corrupt {
            reason: "name is not utf-8".into(),
        })
    }
}

/// Decodes (and fully validates) one snapshot file's bytes.
///
/// # Errors
///
/// [`PersistError::Corrupt`] naming the failed check. The checksum is
/// verified over the *entire* prefix before any field is interpreted, so
/// any single-byte corruption — in the header, a parameter, or the
/// checksum itself — is rejected here rather than surfacing as a wrong
/// model.
pub fn decode(bytes: &[u8]) -> Result<ModelSnapshot, PersistError> {
    if bytes.len() < MAGIC.len() + 4 + 8 {
        return Err(PersistError::Corrupt {
            reason: format!("{} bytes is too short for a snapshot", bytes.len()),
        });
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(tail.try_into().unwrap());
    let computed = fnv64(body);
    if stored != computed {
        return Err(PersistError::Corrupt {
            reason: format!("checksum mismatch (stored {stored:016x}, computed {computed:016x})"),
        });
    }
    let mut r = Reader { bytes: body, at: 0 };
    if r.take(4)? != MAGIC {
        return Err(PersistError::Corrupt {
            reason: "bad magic".into(),
        });
    }
    let version = r.u32()?;
    if version != VERSION {
        return Err(PersistError::Corrupt {
            reason: format!("unsupported snapshot version {version}"),
        });
    }
    let machine = MachineId::from_str(r.name()?).map_err(|e| PersistError::Corrupt {
        reason: e.to_string(),
    })?;
    let suite_name = r.name()?;
    let suite = if suite_name.is_empty() {
        None
    } else {
        Some(
            Suite::from_str(suite_name).map_err(|e| PersistError::Corrupt {
                reason: e.to_string(),
            })?,
        )
    };
    let options_fingerprint = r.u64()?;
    let records_digest = r.u64()?;
    let records = r.u32()?;
    let arch_raw = [r.f64()?, r.f64()?, r.f64()?, r.f64()?, r.f64()?];
    if arch_raw.iter().any(|v| !v.is_finite() || *v <= 0.0) {
        return Err(PersistError::Corrupt {
            reason: "non-positive microarchitectural constant".into(),
        });
    }
    let mut b = [0.0f64; ModelParams::COUNT];
    for slot in &mut b {
        *slot = r.f64()?;
    }
    let interval_cap = r.f64()?;
    let objective = r.f64()?;
    if r.at != body.len() {
        return Err(PersistError::Corrupt {
            reason: format!("{} trailing bytes", body.len() - r.at),
        });
    }
    Ok(ModelSnapshot {
        machine,
        suite,
        options_fingerprint,
        records_digest,
        records,
        arch: MicroarchParams::new(
            arch_raw[0],
            arch_raw[1],
            arch_raw[2],
            arch_raw[3],
            arch_raw[4],
        ),
        params: ModelParams { b },
        interval_cap,
        objective,
    })
}

/// The on-disk store: one snapshot file per key under a state directory.
///
/// Cloneable and cheap — workers clone the handle out of the service lock
/// and do all file i/o outside it.
#[derive(Debug, Clone)]
pub struct SnapshotStore {
    dir: PathBuf,
}

impl SnapshotStore {
    /// Opens (creating if needed) a store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] when the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, PersistError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|error| PersistError::Io {
            path: dir.clone(),
            error,
        })?;
        Ok(Self { dir })
    }

    /// The state directory this store reads and writes.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The tenant-scoped view of this store: the implicit local tenant
    /// keeps the root directory itself (so single-tenant deployments are
    /// unchanged on disk), every other tenant gets its own
    /// `tenant-<name>/` subdirectory — created on first use. Tenant names
    /// are path-safe by construction
    /// ([`TenantId::new`](super::TenantId::new) admits only
    /// `[a-z0-9_-]`), so a hostile tenant name can never escape the state
    /// dir.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] when the subdirectory cannot be created.
    pub fn for_tenant(&self, tenant: &super::TenantId) -> Result<SnapshotStore, PersistError> {
        if tenant.is_local() {
            return Ok(self.clone());
        }
        Self::open(self.dir.join(format!("tenant-{}", tenant.name())))
    }

    /// The file a key persists to: every component of the cache identity
    /// is in the name, so a lookup is one `read`, no directory scan.
    pub fn path_for(
        &self,
        machine: MachineId,
        suite: Option<Suite>,
        fingerprint: u64,
        digest: u64,
    ) -> PathBuf {
        self.dir.join(format!(
            "{}-{}-{fingerprint:016x}-{digest:016x}.cpis",
            machine.name(),
            suite.map(Suite::name).unwrap_or("all"),
        ))
    }

    /// Writes one snapshot (atomically: temp file + rename, so a crash
    /// mid-write never leaves a half-snapshot under the final name).
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] when writing fails.
    pub fn save(&self, snap: &ModelSnapshot) -> Result<PathBuf, PersistError> {
        let path = self.path_for(
            snap.machine,
            snap.suite,
            snap.options_fingerprint,
            snap.records_digest,
        );
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        let io_err = |p: &Path| {
            let path = p.to_owned();
            move |error| PersistError::Io {
                path: path.clone(),
                error,
            }
        };
        let mut file = std::fs::File::create(&tmp).map_err(io_err(&tmp))?;
        file.write_all(&encode(snap)).map_err(io_err(&tmp))?;
        file.sync_all().map_err(io_err(&tmp))?;
        drop(file);
        std::fs::rename(&tmp, &path).map_err(io_err(&path))?;
        Ok(path)
    }

    /// Loads the snapshot for a key. `Ok(None)` when no file exists for
    /// it, or when the file decodes but its header disagrees with the
    /// requested key (a renamed or misplaced file — never served).
    ///
    /// # Errors
    ///
    /// [`PersistError::Corrupt`] when the file exists but fails
    /// validation; [`PersistError::Io`] on read failures other than
    /// not-found.
    pub fn load(
        &self,
        machine: MachineId,
        suite: Option<Suite>,
        fingerprint: u64,
        digest: u64,
    ) -> Result<Option<ModelSnapshot>, PersistError> {
        let path = self.path_for(machine, suite, fingerprint, digest);
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(error) => return Err(PersistError::Io { path, error }),
        };
        let snap = decode(&bytes)?;
        let matches = snap.machine == machine
            && snap.suite == suite
            && snap.options_fingerprint == fingerprint
            && snap.records_digest == digest;
        Ok(matches.then_some(snap))
    }

    /// Snapshot files currently in the store (any key), newest last by
    /// name order. Diagnostics and tests only.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] when the directory cannot be read.
    pub fn snapshot_files(&self) -> Result<Vec<PathBuf>, PersistError> {
        let entries = std::fs::read_dir(&self.dir).map_err(|error| PersistError::Io {
            path: self.dir.clone(),
            error,
        })?;
        let mut files: Vec<PathBuf> = entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "cpis"))
            .collect();
        files.sort();
        Ok(files)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ModelSnapshot {
        ModelSnapshot {
            machine: MachineId::Core2,
            suite: Some(Suite::Cpu2000),
            options_fingerprint: 0xDEAD_BEEF,
            records_digest: 0x1234_5678_9ABC_DEF0,
            records: 48,
            arch: MicroarchParams::new(4.0, 14.0, 19.0, 169.0, 30.0),
            params: ModelParams::initial_guess(),
            interval_cap: 256.0,
            objective: 0.03125,
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let snap = sample();
        assert_eq!(decode(&encode(&snap)).unwrap(), snap);
        // Pooled keys use the empty suite name.
        let pooled = ModelSnapshot {
            suite: None,
            ..snap
        };
        assert_eq!(decode(&encode(&pooled)).unwrap(), pooled);
    }

    #[test]
    fn version_is_checked() {
        let mut bytes = encode(&sample());
        bytes[4] = 2; // version byte
                      // Re-checksum so only the version differs.
        let body_len = bytes.len() - 8;
        let checksum = fnv64(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&checksum.to_le_bytes());
        let err = decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("unsupported snapshot version 2"));
    }

    #[test]
    fn truncation_is_corrupt_not_panic() {
        let bytes = encode(&sample());
        for cut in [0, 3, 11, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn store_round_trips_and_mismatched_keys_miss() {
        let dir = std::env::temp_dir().join(format!("cpis_store_test_{}", std::process::id()));
        let store = SnapshotStore::open(&dir).unwrap();
        let snap = sample();
        let path = store.save(&snap).unwrap();
        assert!(path.ends_with(format!(
            "core2-cpu2000-{:016x}-{:016x}.cpis",
            snap.options_fingerprint, snap.records_digest
        )));
        let hit = store
            .load(
                snap.machine,
                snap.suite,
                snap.options_fingerprint,
                snap.records_digest,
            )
            .unwrap();
        assert_eq!(hit, Some(snap.clone()));
        // Any key component off by one → a miss, not a wrong model.
        assert!(store
            .load(snap.machine, snap.suite, snap.options_fingerprint, 1)
            .unwrap()
            .is_none());
        assert!(store
            .load(
                snap.machine,
                None,
                snap.options_fingerprint,
                snap.records_digest
            )
            .unwrap()
            .is_none());
        assert_eq!(store.snapshot_files().unwrap().len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn digest_is_order_and_content_sensitive() {
        use pmu::{CounterSet, Event, RunRecord};
        let rec = |bench: &str, cycles: u64| {
            let mut c = CounterSet::new();
            c.add(Event::Cycles, cycles);
            c.add(Event::UopsRetired, 100);
            RunRecord::new(bench, Suite::Cpu2000, MachineId::Core2, c)
        };
        let a = vec![rec("gzip", 10), rec("gcc", 20)];
        let b = vec![rec("gcc", 20), rec("gzip", 10)];
        let c = vec![rec("gzip", 10), rec("gcc", 21)];
        assert_eq!(records_digest(&a), records_digest(&a));
        assert_ne!(records_digest(&a), records_digest(&b));
        assert_ne!(records_digest(&a), records_digest(&c));
    }
}
