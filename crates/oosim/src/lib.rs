//! A cycle-level, trace-driven superscalar out-of-order processor simulator.
//!
//! This crate is the reproduction's stand-in for the paper's *real
//! hardware*: where Eyerman et al. ran SPEC on a Pentium 4, a Core 2 and a
//! Core i7 and read hardware performance counters, we run synthetic
//! SPEC-like workloads ([`specgen`]) on simulated configurations of those
//! three machines (Tables 1–2 of the paper) and read simulated counters
//! ([`pmu`]).
//!
//! The simulator models, per machine: a front-end with I-cache/I-TLB misses
//! and branch-misprediction redirects over a configurable pipeline depth; a
//! gshare branch predictor (with per-machine size, so misprediction rates
//! are emergent); dispatch into a finite reorder buffer; data-flow issue;
//! functional-unit latencies and contention; a two- or three-level cache
//! hierarchy with TLBs; and a DRAM backend with finite MSHRs and bandwidth,
//! making memory-level parallelism an emergent, machine-bounded quantity.
//!
//! Each run has two stages ([`pipeline`]): a *front end* (trace
//! generation, the cache/TLB hierarchy, the branch predictor) that places
//! every µop in program order, and a *timing back-end* (dispatch, ROB,
//! data flow, functional units, MSHRs, DRAM, commit) that turns placed µops
//! into cycles and counters. Placement never depends on time, so machines
//! with equal [`MachineConfig::front_key`]s — differing only in timing
//! fields such as ROB size, MSHRs, dispatch width, latencies or functional
//! units — can share one front end: [`pipeline::simulate_lockstep`] and
//! [`run::run_workload_lockstep`] generate and place a trace once and time
//! it on all of them, bit-identical to separate runs.
//!
//! Nothing in the simulator knows about the mechanistic-empirical model
//! being studied — the model's regression parameters must *discover* the
//! simulator's behaviour from counters, exactly as the paper's model
//! discovers real silicon's behaviour.
//!
//! # Examples
//!
//! ```
//! use oosim::machine::MachineConfig;
//! use oosim::run::run_workload;
//!
//! let profile = specgen::suites::by_name("mcf.inp").unwrap();
//! let record = run_workload(&MachineConfig::core2(), &profile, 50_000, 42);
//! println!("{record}");
//! assert!(record.cpi() > 0.3);
//! ```

pub mod branch;
pub mod cache;
pub mod machine;
pub mod memory;
pub mod observer;
pub mod pipeline;
pub mod run;
pub mod tlb;

pub use machine::MachineConfig;
pub use observer::{DispatchObserver, NullObserver, StallCause};
pub use pipeline::{simulate, SimResult};
pub use run::{run_workload, run_workload_observed, DEFAULT_UOPS};
