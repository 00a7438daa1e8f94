//! Design-space sweeps: grid expansion, ranking and Pareto analysis.
//!
//! The paper positions CPI stacks as the tool for "what-if" hardware
//! analysis — where do the cycles go if the ROB grows, the MSHRs deepen,
//! the prefetcher is disabled (§1, Fig. 6). This module turns that from
//! one hand-built config at a time into a *grid*: a [`SweepGrid`] over
//! ROB × MSHRs × dispatch width × prefetch depth expands against a base
//! preset into named variant machines ([`expand`]), each with a
//! deterministic interned [`MachineId`] like `core2+rob192+mshr32` whose
//! *name is the full recipe* (any process that can parse the id rebuilds
//! the config — see [`MachineConfig::preset`]).
//!
//! Expansion is deterministic and permutation-independent: every axis is
//! sorted and deduplicated before the cartesian product, the product
//! nests in fixed `rob → mshr → dw → pf` order, a variant name spells
//! only the axes that differ from the base preset (in that same fixed
//! order), and the grid point equal to the base on every axis collapses
//! to the base id itself. Two grids that cover the same points therefore
//! expand to the same variants in the same order, whatever order their
//! axes were stated in — which is what lets re-sweeps and overlapping
//! sweeps serve entirely from the model cache.
//!
//! The serving side lives on [`CpiClient::sweep`](super::CpiClient::sweep);
//! the wire verb and CLI front format the [`SweepSummary`] built here.

use crate::delta::DeltaStacks;
use crate::fit::FitOptions;
use crate::stack::CpiStack;
use oosim::machine::MachineConfig;
use pmu::{MachineId, Suite};
use std::fmt;
use std::fmt::Write as _;
use std::str::FromStr;

/// The most variants one sweep request may expand to. Each benchmark's
/// trace is timed on every variant of a front-end group at once, so the
/// grid size bounds the work (and memory) a single request can claim;
/// the largest grid in use sweeps 16 variants.
pub const MAX_SWEEP_VARIANTS: usize = 256;

/// The largest `uops` budget per benchmark run a sweep request may ask
/// for (the simulator default is 2 M).
pub const MAX_SWEEP_UOPS: u64 = 50_000_000;

/// One CPI-stack component, selectable as the sweep's
/// component-of-interest (the second Pareto objective next to CPI).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StackComponent {
    /// Base component `1/D` — useful work.
    Base,
    /// L1 I-cache miss component.
    L1i,
    /// I-side last-level miss component.
    LlcI,
    /// I-TLB component.
    Itlb,
    /// Branch misprediction component.
    Branch,
    /// Long-latency load component.
    LlcD,
    /// D-TLB component.
    Dtlb,
    /// Resource stall component.
    Resource,
}

impl StackComponent {
    /// All components, in [`CpiStack::components`] reporting order.
    pub const ALL: [StackComponent; 8] = [
        StackComponent::Base,
        StackComponent::L1i,
        StackComponent::LlcI,
        StackComponent::Itlb,
        StackComponent::Branch,
        StackComponent::LlcD,
        StackComponent::Dtlb,
        StackComponent::Resource,
    ];

    /// The stable name, matching [`CpiStack::components`].
    pub fn name(self) -> &'static str {
        match self {
            StackComponent::Base => "base",
            StackComponent::L1i => "l1i_miss",
            StackComponent::LlcI => "llc_i_miss",
            StackComponent::Itlb => "itlb_miss",
            StackComponent::Branch => "branch_mispredict",
            StackComponent::LlcD => "llc_d_miss",
            StackComponent::Dtlb => "dtlb_miss",
            StackComponent::Resource => "resource_stall",
        }
    }

    /// Reads this component out of a stack.
    pub fn value(self, stack: &CpiStack) -> f64 {
        match self {
            StackComponent::Base => stack.base,
            StackComponent::L1i => stack.l1i,
            StackComponent::LlcI => stack.llc_i,
            StackComponent::Itlb => stack.itlb,
            StackComponent::Branch => stack.branch,
            StackComponent::LlcD => stack.llc_d,
            StackComponent::Dtlb => stack.dtlb,
            StackComponent::Resource => stack.resource,
        }
    }
}

impl fmt::Display for StackComponent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for StackComponent {
    type Err = SweepError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        StackComponent::ALL
            .iter()
            .copied()
            .find(|c| c.name() == s)
            .ok_or_else(|| SweepError::UnknownComponent {
                component: s.to_owned(),
            })
    }
}

/// The parameter grid of a sweep: values per axis. An empty axis is not
/// swept (the base preset's value is used); values are sorted and
/// deduplicated at expansion, so the stated order never matters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SweepGrid {
    /// ROB capacities to sweep (µops).
    pub rob: Vec<usize>,
    /// MSHR counts to sweep.
    pub mshrs: Vec<usize>,
    /// Dispatch widths to sweep.
    pub dispatch: Vec<u32>,
    /// Prefetch depths to sweep (0 disables prefetching).
    pub prefetch: Vec<u64>,
}

impl SweepGrid {
    /// An empty grid (expands to the base machine alone).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds ROB capacities.
    pub fn rob(mut self, values: impl IntoIterator<Item = usize>) -> Self {
        self.rob.extend(values);
        self
    }

    /// Adds MSHR counts.
    pub fn mshrs(mut self, values: impl IntoIterator<Item = usize>) -> Self {
        self.mshrs.extend(values);
        self
    }

    /// Adds dispatch widths.
    pub fn dispatch(mut self, values: impl IntoIterator<Item = u32>) -> Self {
        self.dispatch.extend(values);
        self
    }

    /// Adds prefetch depths.
    pub fn prefetch(mut self, values: impl IntoIterator<Item = u64>) -> Self {
        self.prefetch.extend(values);
        self
    }

    /// Parses one `axis=v1,v2,...` argument (the wire and CLI grid
    /// syntax; axes `rob`, `mshr`, `dw`, `pf`) into this grid.
    ///
    /// # Errors
    ///
    /// [`SweepError::Grid`] on an unknown axis or a malformed value.
    pub fn parse_arg(&mut self, arg: &str) -> Result<(), SweepError> {
        let bad = |detail: String| SweepError::Grid { detail };
        let (axis, values) = arg
            .split_once('=')
            .ok_or_else(|| bad(format!("expected axis=v1,v2,..., got `{arg}`")))?;
        for value in values.split(',') {
            let parse = || {
                value
                    .parse::<u64>()
                    .map_err(|_| bad(format!("bad {axis} value `{value}`")))
            };
            match axis {
                "rob" => self.rob.push(parse()? as usize),
                "mshr" => self.mshrs.push(parse()? as usize),
                "dw" => {
                    let v = parse()?;
                    self.dispatch.push(
                        u32::try_from(v).map_err(|_| bad(format!("bad dw value `{value}`")))?,
                    );
                }
                "pf" => self.prefetch.push(parse()?),
                other => return Err(bad(format!("unknown sweep axis `{other}`"))),
            }
        }
        Ok(())
    }

    /// The number of grid points after normalization (an empty axis
    /// counts one: the base value).
    pub fn points(&self) -> usize {
        let len = |v: usize| v.max(1);
        len(dedup_len(&self.rob))
            .saturating_mul(len(dedup_len(&self.mshrs)))
            .saturating_mul(len(dedup_len(&self.dispatch)))
            .saturating_mul(len(dedup_len(&self.prefetch)))
    }
}

fn dedup_len<T: Ord + Copy>(values: &[T]) -> usize {
    let mut v = values.to_vec();
    v.sort_unstable();
    v.dedup();
    v.len()
}

/// Why a sweep could not be set up or served.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SweepError {
    /// The base of a sweep must be one of the three presets, not itself a
    /// variant (variant names would no longer be a full recipe).
    VariantBase {
        /// The offending base.
        base: MachineId,
    },
    /// A grid point expands to an invalid machine configuration.
    InvalidPoint {
        /// The variant name of the offending point.
        variant: String,
        /// What [`MachineConfig::validate`] rejected.
        reason: String,
    },
    /// A grid argument did not parse.
    Grid {
        /// What went wrong.
        detail: String,
    },
    /// No such [`StackComponent`].
    UnknownComponent {
        /// The unknown name.
        component: String,
    },
    /// The grid expands to more than [`MAX_SWEEP_VARIANTS`] points.
    TooManyVariants {
        /// Grid points requested.
        points: usize,
    },
    /// The `uops` budget exceeds [`MAX_SWEEP_UOPS`].
    TooManyUops {
        /// µops per run requested.
        uops: u64,
    },
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::VariantBase { base } => {
                write!(
                    f,
                    "sweep base must be a preset, got variant `{}`",
                    base.name()
                )
            }
            SweepError::InvalidPoint { variant, reason } => {
                write!(f, "grid point `{variant}` is not a valid machine: {reason}")
            }
            SweepError::Grid { detail } => write!(f, "bad sweep grid: {detail}"),
            SweepError::UnknownComponent { component } => {
                write!(f, "unknown stack component `{component}`")
            }
            SweepError::TooManyVariants { points } => write!(
                f,
                "sweep grid expands to {points} variants, over the cap of {MAX_SWEEP_VARIANTS}"
            ),
            SweepError::TooManyUops { uops } => {
                write!(f, "sweep uops={uops} is over the cap of {MAX_SWEEP_UOPS}")
            }
        }
    }
}

impl std::error::Error for SweepError {}

/// One expanded grid point: the interned id and the decoded configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepVariant {
    /// The variant's identity (the base id itself for the base point).
    pub id: MachineId,
    /// The full simulator configuration behind the id.
    pub config: MachineConfig,
}

/// Expands a grid against a base preset into named variants.
///
/// Deterministic and permutation-independent (see the [module
/// docs](self)); the variant list never contains duplicates, and contains
/// the base machine itself exactly when the grid covers the base point.
///
/// # Errors
///
/// [`SweepError::VariantBase`] when `base` is itself a variant;
/// [`SweepError::TooManyVariants`] when the grid has more than
/// [`MAX_SWEEP_VARIANTS`] points; [`SweepError::InvalidPoint`] when a grid
/// point fails [`MachineConfig::validate`].
pub fn expand(base: MachineId, grid: &SweepGrid) -> Result<Vec<SweepVariant>, SweepError> {
    if base.is_variant() {
        return Err(SweepError::VariantBase { base });
    }
    let points = grid.points();
    if points > MAX_SWEEP_VARIANTS {
        return Err(SweepError::TooManyVariants { points });
    }
    let preset = MachineConfig::preset(base);
    let axis = |values: &[u64], fallback: u64| -> Vec<u64> {
        if values.is_empty() {
            return vec![fallback];
        }
        let mut v = values.to_vec();
        v.sort_unstable();
        v.dedup();
        v
    };
    let robs = axis(
        &grid.rob.iter().map(|&v| v as u64).collect::<Vec<_>>(),
        preset.rob_size as u64,
    );
    let mshrs = axis(
        &grid.mshrs.iter().map(|&v| v as u64).collect::<Vec<_>>(),
        preset.mshrs as u64,
    );
    let dws = axis(
        &grid
            .dispatch
            .iter()
            .map(|&v| u64::from(v))
            .collect::<Vec<_>>(),
        u64::from(preset.dispatch_width),
    );
    let pfs = axis(&grid.prefetch, preset.prefetch_depth);
    let mut variants = Vec::with_capacity(robs.len() * mshrs.len() * dws.len() * pfs.len());
    for &rob in &robs {
        for &mshr in &mshrs {
            for &dw in &dws {
                for &pf in &pfs {
                    let mut name = String::from(base.name());
                    for (token, value, stock) in [
                        ("rob", rob, preset.rob_size as u64),
                        ("mshr", mshr, preset.mshrs as u64),
                        ("dw", dw, u64::from(preset.dispatch_width)),
                        ("pf", pf, preset.prefetch_depth),
                    ] {
                        if value != stock {
                            write!(name, "+{token}{value}").expect("writing to a String");
                        }
                    }
                    let id = if name == base.name() {
                        base
                    } else {
                        MachineId::variant(&name).map_err(|e| SweepError::InvalidPoint {
                            variant: name.clone(),
                            reason: e.to_string(),
                        })?
                    };
                    let config = MachineConfig::preset(id);
                    config
                        .validate()
                        .map_err(|reason| SweepError::InvalidPoint {
                            variant: name.clone(),
                            reason,
                        })?;
                    variants.push(SweepVariant { id, config });
                }
            }
        }
    }
    Ok(variants)
}

/// Expands `spec`'s grid and applies its `only` restriction, keeping
/// grid-expansion order. This is *the* variant list every serving layer
/// agrees on — the client's warm fan-out, the worker's combining task and
/// the cluster router's partitions all call it with the same spec.
///
/// # Errors
///
/// Everything [`expand`] and [`SweepSpec::check_bounds`] raise, plus
/// [`SweepError::Grid`] when `only` names a variant the grid does not
/// expand to.
pub fn expand_selected(spec: &SweepSpec) -> Result<Vec<SweepVariant>, SweepError> {
    spec.check_bounds()?;
    let mut variants = expand(spec.base, &spec.grid)?;
    if let Some(only) = &spec.only {
        if let Some(unknown) = only.iter().find(|id| variants.iter().all(|v| v.id != **id)) {
            return Err(SweepError::Grid {
                detail: format!(
                    "only= names `{}`, which the grid does not expand to",
                    unknown.name()
                ),
            });
        }
        variants.retain(|v| only.contains(&v.id));
    }
    Ok(variants)
}

/// The indices of the Pareto-optimal points when *minimizing* both
/// objectives, in input order. A point is on the front when no other
/// point is at least as good on both objectives and strictly better on
/// one.
pub fn pareto_front(points: &[(f64, f64)]) -> Vec<usize> {
    (0..points.len())
        .filter(|&i| {
            let (ci, vi) = points[i];
            !points
                .iter()
                .enumerate()
                .any(|(j, &(cj, vj))| j != i && cj <= ci && vj <= vi && (cj < ci || vj < vi))
        })
        .collect()
}

/// What to sweep: the base, the grid, the workload, and how to simulate
/// and fit. Built with struct-update from [`SweepSpec::new`].
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// The base preset the grid expands against.
    pub base: MachineId,
    /// The parameter grid.
    pub grid: SweepGrid,
    /// The suite every variant simulates and fits on.
    pub suite: Suite,
    /// Fit options (one model per variant; the key's options half).
    pub options: FitOptions,
    /// µop budget per benchmark run when a variant must be simulated.
    pub uops: u64,
    /// Campaign seed for simulated runs.
    pub seed: u64,
    /// Restrict the sweep to the first `n` benchmarks of the suite
    /// (`None` = the whole suite). Only consulted when the sweep has to
    /// simulate; once the base machine has records, every variant
    /// simulates exactly the base's benchmark set so deltas pair up.
    pub limit: Option<usize>,
    /// Restrict the sweep to this subset of the expanded variants
    /// (`None` = the whole grid). The cluster router partitions a grid by
    /// ring owner and forwards each owner its own slice this way; order
    /// and deltas are unchanged — every selected variant still compares
    /// against the base.
    pub only: Option<Vec<MachineId>>,
    /// The component-of-interest: the second Pareto objective next to
    /// CPI.
    pub component: StackComponent,
}

impl SweepSpec {
    /// A spec with campaign defaults: full fit options, the simulator's
    /// default µop budget, seed 42, and the long-latency load component
    /// (the paper's design-sweep focus) as the component of interest.
    pub fn new(base: MachineId, grid: SweepGrid, suite: Suite) -> Self {
        Self {
            base,
            grid,
            suite,
            options: FitOptions::default(),
            uops: oosim::run::DEFAULT_UOPS,
            seed: 42,
            limit: None,
            only: None,
            component: StackComponent::LlcD,
        }
    }

    /// Checks the request against the per-request caps before any work is
    /// queued: at most [`MAX_SWEEP_VARIANTS`] grid points and
    /// [`MAX_SWEEP_UOPS`] µops per run.
    ///
    /// # Errors
    ///
    /// [`SweepError::TooManyVariants`] or [`SweepError::TooManyUops`].
    pub fn check_bounds(&self) -> Result<(), SweepError> {
        let points = self.grid.points();
        if points > MAX_SWEEP_VARIANTS {
            return Err(SweepError::TooManyVariants { points });
        }
        if self.uops > MAX_SWEEP_UOPS {
            return Err(SweepError::TooManyUops { uops: self.uops });
        }
        Ok(())
    }
}

/// One variant's served result, in grid-expansion order inside
/// [`SweepSummary::results`].
#[derive(Debug, Clone)]
pub struct SweepVariantResult {
    /// The variant served.
    pub id: MachineId,
    /// Mean predicted CPI over the suite (mean of per-benchmark stack
    /// totals).
    pub cpi: f64,
    /// Mean component-of-interest cycles per µop over the suite.
    pub component: f64,
    /// CPI-delta stacks explaining this variant vs the sweep base.
    pub delta: DeltaStacks,
    /// `true` when the variant's model was served without a regression
    /// (cache hit or warm snapshot load).
    pub cached: bool,
    /// Benchmarks behind the model.
    pub benchmarks: usize,
}

/// The ranked outcome of one sweep.
#[derive(Debug, Clone)]
pub struct SweepSummary {
    /// The base machine every delta is relative to.
    pub base: MachineId,
    /// The suite swept.
    pub suite: Suite,
    /// The component-of-interest used for the Pareto front.
    pub component: StackComponent,
    /// Per-variant results in grid-expansion order.
    pub results: Vec<SweepVariantResult>,
    /// The Pareto front over (CPI, component), as variant ids in
    /// grid-expansion order.
    pub pareto: Vec<MachineId>,
    /// Distinct configs this sweep had to simulate (0 on a warm
    /// re-sweep).
    pub simulated_configs: usize,
    /// Individual benchmark traces simulated (`simulated_configs ×
    /// suite size` — each workload's trace runs once per distinct
    /// config, never once per variant-request).
    pub simulated_runs: usize,
}

impl SweepSummary {
    /// Results ranked best-first: by mean CPI, ties by name (total and
    /// deterministic).
    pub fn ranked(&self) -> Vec<&SweepVariantResult> {
        let mut ranked: Vec<&SweepVariantResult> = self.results.iter().collect();
        ranked.sort_by(|a, b| {
            a.cpi
                .total_cmp(&b.cpi)
                .then_with(|| a.id.name().cmp(b.id.name()))
        });
        ranked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_is_sorted_deduped_and_named() {
        let grid = SweepGrid::new().rob([192, 96, 192]).mshrs([32]);
        let variants = expand(MachineId::Core2, &grid).unwrap();
        // rob 96 is the Core 2 stock value: that point spells only mshr.
        let names: Vec<&str> = variants.iter().map(|v| v.id.name()).collect();
        assert_eq!(names, ["core2+mshr32", "core2+rob192+mshr32"]);
        assert_eq!(variants[1].config.rob_size, 192);
        assert_eq!(variants[1].config.mshrs, 32);
        assert_eq!(variants[0].config.rob_size, 96);
    }

    #[test]
    fn base_point_collapses_to_base_id() {
        let grid = SweepGrid::new().rob([96, 192]);
        let variants = expand(MachineId::Core2, &grid).unwrap();
        assert_eq!(variants[0].id, MachineId::Core2);
        assert_eq!(variants[1].id.name(), "core2+rob192");
    }

    #[test]
    fn empty_grid_expands_to_base_alone() {
        let variants = expand(MachineId::CoreI7, &SweepGrid::new()).unwrap();
        assert_eq!(variants.len(), 1);
        assert_eq!(variants[0].id, MachineId::CoreI7);
    }

    #[test]
    fn invalid_points_are_typed() {
        let grid = SweepGrid::new().dispatch([0]);
        let err = expand(MachineId::Core2, &grid).unwrap_err();
        assert!(matches!(err, SweepError::InvalidPoint { .. }), "{err}");
        let err = expand(
            MachineId::variant("core2+rob192").unwrap(),
            &SweepGrid::new(),
        )
        .unwrap_err();
        assert!(matches!(err, SweepError::VariantBase { .. }));
    }

    #[test]
    fn grid_args_parse() {
        let mut grid = SweepGrid::new();
        grid.parse_arg("rob=96,192").unwrap();
        grid.parse_arg("pf=0").unwrap();
        assert_eq!(grid.rob, [96, 192]);
        assert_eq!(grid.prefetch, [0]);
        assert_eq!(grid.points(), 2);
        assert!(grid.parse_arg("l2=big").is_err());
        assert!(grid.parse_arg("rob=ten").is_err());
        assert!(grid.parse_arg("rob96").is_err());
    }

    #[test]
    fn requests_over_the_caps_are_typed_errors() {
        let wide = |n: usize| SweepGrid::new().rob((0..n).map(|i| 64 + i));
        // At the cap the grid expands; one point more is refused before
        // any variant is built.
        let cap = wide(MAX_SWEEP_VARIANTS);
        assert_eq!(
            expand(MachineId::Core2, &cap).unwrap().len(),
            MAX_SWEEP_VARIANTS
        );
        let over = wide(MAX_SWEEP_VARIANTS + 1);
        assert_eq!(
            expand(MachineId::Core2, &over).unwrap_err(),
            SweepError::TooManyVariants {
                points: MAX_SWEEP_VARIANTS + 1
            }
        );
        // Axis products saturate instead of overflowing.
        let huge = SweepGrid::new()
            .rob(0..100_000)
            .mshrs(0..100_000)
            .dispatch(0..100_000)
            .prefetch(0..100_000);
        assert_eq!(huge.points(), usize::MAX);
        let mut spec = SweepSpec::new(MachineId::Core2, SweepGrid::new(), Suite::Cpu2000);
        spec.uops = MAX_SWEEP_UOPS;
        spec.check_bounds().unwrap();
        spec.uops += 1;
        assert_eq!(
            expand_selected(&spec).unwrap_err(),
            SweepError::TooManyUops {
                uops: MAX_SWEEP_UOPS + 1
            }
        );
    }

    #[test]
    fn pareto_front_minimizes_both() {
        // (cpi, component): b dominates c; a and b trade off; d ties a.
        let points = [(1.0, 3.0), (2.0, 1.0), (3.0, 2.0), (1.0, 3.0)];
        assert_eq!(pareto_front(&points), vec![0, 1, 3]);
    }

    #[test]
    fn component_names_round_trip() {
        for c in StackComponent::ALL {
            assert_eq!(c.name().parse::<StackComponent>().unwrap(), c);
        }
        assert!("memory".parse::<StackComponent>().is_err());
    }
}
