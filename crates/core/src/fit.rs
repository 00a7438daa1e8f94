//! Model inference: fitting the ten `b`-parameters by nonlinear regression.
//!
//! Following the paper (§4): the predicted value is cycles per µop; the
//! optimisation criterion is the sum of relative squared errors
//! `Σ (ŷᵢ−yᵢ)²/yᵢ` (Tofallis), minimised here by bounded Nelder–Mead with
//! deterministic multi-start (the paper used SPSS's nonlinear regression).

use crate::equations;
use crate::inputs::ModelInputs;
use crate::params::{MicroarchParams, ModelParams};
use crate::stack::CpiStack;
use pmu::RunRecord;
use regress::nelder_mead::{refine, MultiStart, Options};
use std::fmt;

/// Options controlling model inference.
///
/// Marked `#[non_exhaustive]`: construct via [`Default`] (or
/// [`FitOptions::quick`]) and refine with the `with_*` setters, so new
/// knobs can be added without breaking downstream code:
///
/// ```
/// use memodel::FitOptions;
///
/// let opts = FitOptions::default().with_extra_starts(4).with_seed(7);
/// assert_eq!(opts.extra_starts, 4);
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct FitOptions {
    /// Jittered restarts beyond the canonical initial guess.
    pub extra_starts: usize,
    /// Seed for the restart jitter (fits are deterministic).
    pub seed: u64,
    /// Objective evaluations per start.
    pub max_evals: usize,
    /// Use the absolute squared-error criterion instead of the paper's
    /// relative one (ablation only).
    pub absolute_objective: bool,
    /// Interval cap of Eq. 2 (see [`equations::INTERVAL_CAP`]).
    pub interval_cap: f64,
    /// Worker-thread budget for the multi-start regression (`0` = one per
    /// hardware thread). Purely a scheduling knob: every value — 1
    /// included — produces bit-identical parameters, so it is *excluded*
    /// from [`FitOptions::fingerprint`] and never splits a cache key or
    /// invalidates a persisted snapshot.
    pub threads: usize,
}

impl Default for FitOptions {
    fn default() -> Self {
        Self {
            extra_starts: 12,
            seed: 0x0015_BA55,
            max_evals: 30_000,
            absolute_objective: false,
            interval_cap: equations::INTERVAL_CAP,
            threads: 0,
        }
    }
}

impl FitOptions {
    /// A cheap configuration for doc examples and smoke tests.
    pub fn quick() -> Self {
        Self {
            extra_starts: 3,
            max_evals: 6_000,
            ..Self::default()
        }
    }

    /// Sets the multi-start worker-thread budget (`0` = one per hardware
    /// thread; `1` = strictly sequential). Results are bit-identical for
    /// every value.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The effective multi-start thread count: the explicit budget, or
    /// the machine's available parallelism when it is `0`.
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.threads
        }
    }

    /// Sets the number of jittered restarts beyond the canonical guess.
    pub fn with_extra_starts(mut self, extra_starts: usize) -> Self {
        self.extra_starts = extra_starts;
        self
    }

    /// Sets the restart-jitter seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the interval cap of Eq. 2.
    pub fn with_interval_cap(mut self, cap: f64) -> Self {
        self.interval_cap = cap;
        self
    }

    /// A deterministic digest of every knob that can change a fit's
    /// outcome — the options component of the service's model-cache key
    /// (see [`crate::service::ModelCache`]). Two option sets with equal
    /// fingerprints produce identical fits on identical records; any new
    /// field added to this struct must be folded in here — *unless*, like
    /// [`FitOptions::threads`], it provably cannot change the fitted bits
    /// (folding a scheduling knob in would needlessly split cache keys
    /// and orphan every persisted snapshot written before it existed).
    pub fn fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.extra_starts.hash(&mut h);
        self.seed.hash(&mut h);
        self.max_evals.hash(&mut h);
        self.absolute_objective.hash(&mut h);
        self.interval_cap.to_bits().hash(&mut h);
        h.finish()
    }
}

/// Effort profile of one model inference, returned by
/// [`InferredModel::fit_profiled`] and [`InferredModel::refit_profiled`]:
/// the simplex starts that actually ran and the objective evaluations they
/// spent. Purely observational — the fitted bits never depend on it — and
/// schedule-independent: every thread budget reports the same counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FitProfile {
    /// Simplex starts minimised (after duplicate-origin dedupe); always 1
    /// for a warm-start polish.
    pub starts: u64,
    /// Objective evaluations summed across every start.
    pub evals: u64,
}

/// Error returned by [`InferredModel::fit`].
///
/// Marked `#[non_exhaustive]`: downstream matches need a wildcard arm, so
/// new failure modes can be reported without a breaking release.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FitError {
    /// Fewer than [`ModelParams::COUNT`] + 1 training records: the fit
    /// would be underdetermined.
    TooFewRecords {
        /// Records supplied.
        got: usize,
    },
    /// A record carried non-finite or negative rates.
    BadRecord {
        /// Benchmark name of the offending record.
        benchmark: String,
    },
}

impl fmt::Display for FitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FitError::TooFewRecords { got } => write!(
                f,
                "need more than {} records to fit 10 parameters, got {got}",
                ModelParams::COUNT
            ),
            FitError::BadRecord { benchmark } => {
                write!(f, "record `{benchmark}` has non-finite or negative rates")
            }
        }
    }
}

impl std::error::Error for FitError {}

/// A fitted mechanistic-empirical model for one machine (and the workload
/// population it was inferred from).
#[derive(Debug, Clone, PartialEq)]
pub struct InferredModel {
    arch: MicroarchParams,
    params: ModelParams,
    interval_cap: f64,
    /// Final objective value (sum of relative squared errors).
    objective: f64,
}

impl InferredModel {
    /// Infers the model from a training set of run records (the paper's
    /// Fig. 1 flow: counters in, fitted model out).
    ///
    /// # Errors
    ///
    /// Returns [`FitError`] when the training set is too small or contains
    /// an unusable record.
    pub fn fit(
        arch: &MicroarchParams,
        records: &[RunRecord],
        opts: &FitOptions,
    ) -> Result<Self, FitError> {
        Self::fit_profiled(arch, records, opts).map(|(model, _)| model)
    }

    /// [`InferredModel::fit`] plus effort accounting: the model and a
    /// [`FitProfile`] of the multi-start fan-out that produced it. The
    /// model is bit-identical to [`InferredModel::fit`]'s.
    ///
    /// # Errors
    ///
    /// As [`InferredModel::fit`].
    pub fn fit_profiled(
        arch: &MicroarchParams,
        records: &[RunRecord],
        opts: &FitOptions,
    ) -> Result<(Self, FitProfile), FitError> {
        let inputs: Vec<ModelInputs> = records.iter().map(ModelInputs::from_record).collect();
        Self::fit_inputs(arch, &inputs, opts).map_err(|idx| match idx {
            FitInputError::TooFew { got } => FitError::TooFewRecords { got },
            FitInputError::Bad { index } => FitError::BadRecord {
                benchmark: records[index].benchmark().to_owned(),
            },
        })
    }

    /// Infers the model directly from pre-derived inputs (no records
    /// needed) — used by resampling diagnostics that reshuffle inputs.
    ///
    /// # Errors
    ///
    /// As [`InferredModel::fit`]; offending inputs are reported by index.
    pub fn fit_from_inputs(
        arch: &MicroarchParams,
        inputs: &[ModelInputs],
        opts: &FitOptions,
    ) -> Result<Self, FitError> {
        Self::fit_inputs(arch, inputs, opts)
            .map(|(model, _)| model)
            .map_err(|e| match e {
                FitInputError::TooFew { got } => FitError::TooFewRecords { got },
                FitInputError::Bad { index } => FitError::BadRecord {
                    benchmark: format!("input #{index}"),
                },
            })
    }

    /// Infers the model by Levenberg–Marquardt instead of Nelder–Mead —
    /// the optimizer SPSS itself uses. Minimises the same Tofallis
    /// objective via residuals `(ŷ−y)/√y`. Faster where the surface is
    /// smooth; compare against the simplex fit with the optimizer ablation.
    ///
    /// # Errors
    ///
    /// As [`InferredModel::fit`].
    pub fn fit_lm(
        arch: &MicroarchParams,
        records: &[RunRecord],
        opts: &FitOptions,
    ) -> Result<Self, FitError> {
        let inputs: Vec<ModelInputs> = records.iter().map(ModelInputs::from_record).collect();
        if inputs.len() <= ModelParams::COUNT {
            return Err(FitError::TooFewRecords { got: inputs.len() });
        }
        if let Some(index) = inputs.iter().position(|i| !i.is_sane()) {
            return Err(FitError::BadRecord {
                benchmark: records[index].benchmark().to_owned(),
            });
        }
        let arch = *arch;
        let cap = opts.interval_cap;
        let result = regress::lm::levenberg_marquardt(
            |b, out| {
                let params = ModelParams::from_slice(b);
                for (i, r) in inputs.iter().zip(out.iter_mut()) {
                    let pred = terms(&arch, &params, i, cap).total();
                    *r = (pred - i.measured_cpi) / i.measured_cpi.sqrt();
                }
            },
            &ModelParams::initial_guess().b,
            &ModelParams::bounds(),
            inputs.len(),
            &regress::lm::LmOptions::default(),
        );
        Ok(Self {
            arch,
            params: ModelParams::from_slice(&result.params),
            interval_cap: cap,
            objective: result.sum_squares,
        })
    }

    /// Infers the model from pre-derived inputs.
    pub(crate) fn fit_inputs(
        arch: &MicroarchParams,
        inputs: &[ModelInputs],
        opts: &FitOptions,
    ) -> Result<(Self, FitProfile), FitInputError> {
        if inputs.len() <= ModelParams::COUNT {
            return Err(FitInputError::TooFew { got: inputs.len() });
        }
        if let Some(index) = inputs.iter().position(|i| !i.is_sane()) {
            return Err(FitInputError::Bad { index });
        }
        let arch = *arch;
        let threads = opts.effective_threads();
        // The thread budget splits across two levels: independent simplex
        // starts first (coarse-grained, zero synchronisation), then — only
        // with budget the starts cannot soak and a training set large
        // enough to amortise the fan-out — across the per-benchmark terms
        // inside one objective evaluation (see [`objective_for`]). Both
        // levels are bit-identity-preserving, so the split is purely a
        // wall-clock decision.
        let guess = ModelParams::initial_guess().b;
        let bounds = ModelParams::bounds();
        let multi_start = MultiStart::new(opts.extra_starts, opts.seed);
        let surviving = multi_start.start_points(&guess, &bounds).len();
        let objective = objective_for(
            arch,
            opts.interval_cap,
            opts.absolute_objective,
            inputs,
            objective_threads(threads, surviving, inputs.len()),
        );
        let nm_opts = Options {
            max_evals: opts.max_evals,
            ..Options::default()
        };
        let (best, profile) = multi_start
            .threads(threads)
            .run_profiled(objective, &guess, &bounds, &nm_opts);
        Ok((
            Self {
                arch,
                params: ModelParams::from_slice(&best.params),
                interval_cap: opts.interval_cap,
                objective: best.value,
            },
            FitProfile {
                starts: profile.starts,
                evals: profile.evals,
            },
        ))
    }

    /// Incrementally refits the model on a fresh record set, warm-starting
    /// a single bounded Nelder–Mead polish from the current parameters
    /// instead of the full [`MultiStart`] fan-out.
    ///
    /// This is the steady-state path of the streaming pipeline: when new
    /// counter batches arrive for a workload that has not drifted, the
    /// previous parameters already sit in the right basin and a local polish
    /// with a small `max_evals` budget (thousands, not hundreds of
    /// thousands of evaluations) tracks the optimum. The caller owns drift
    /// detection: compare the refit objective against a periodic full fit
    /// and fall back to [`InferredModel::fit`] when the bound is exceeded.
    ///
    /// Uses the model's own architecture constants and interval cap; only
    /// `opts.absolute_objective` is read from `opts` so the objective
    /// matches the one the model was originally fitted under. Deterministic
    /// for fixed inputs.
    ///
    /// # Errors
    ///
    /// Returns [`FitError`] under the same conditions as
    /// [`InferredModel::fit`].
    pub fn refit(
        &self,
        records: &[RunRecord],
        opts: &FitOptions,
        max_evals: usize,
    ) -> Result<Self, FitError> {
        self.refit_profiled(records, opts, max_evals)
            .map(|(model, _)| model)
    }

    /// [`InferredModel::refit`] plus effort accounting — the polish's
    /// single start and its evaluation count as a [`FitProfile`]. The
    /// model is bit-identical to [`InferredModel::refit`]'s.
    ///
    /// # Errors
    ///
    /// As [`InferredModel::refit`].
    pub fn refit_profiled(
        &self,
        records: &[RunRecord],
        opts: &FitOptions,
        max_evals: usize,
    ) -> Result<(Self, FitProfile), FitError> {
        let inputs: Vec<ModelInputs> = records.iter().map(ModelInputs::from_record).collect();
        if inputs.len() <= ModelParams::COUNT {
            return Err(FitError::TooFewRecords { got: inputs.len() });
        }
        if let Some(index) = inputs.iter().position(|i| !i.is_sane()) {
            return Err(FitError::BadRecord {
                benchmark: records[index].benchmark().to_owned(),
            });
        }
        let arch = self.arch;
        let cap = self.interval_cap;
        // One warm start: any spare budget can only help inside the
        // objective, and only on a training set big enough to pay for it.
        let objective = objective_for(
            arch,
            cap,
            opts.absolute_objective,
            &inputs,
            objective_threads(opts.effective_threads(), 1, inputs.len()),
        );
        let best = refine(objective, &self.params.b, &ModelParams::bounds(), max_evals);
        let profile = FitProfile {
            starts: 1,
            evals: best.evals as u64,
        };
        Ok((
            Self {
                arch,
                params: ModelParams::from_slice(&best.params),
                interval_cap: cap,
                objective: best.value,
            },
            profile,
        ))
    }

    /// Re-assembles a model from persisted parts without refitting — the
    /// restore path of [`crate::service::persist`]. Fitting is
    /// deterministic, so a model rebuilt from a snapshot of its own parts
    /// is bit-identical to the original.
    pub fn from_parts(
        arch: MicroarchParams,
        params: ModelParams,
        interval_cap: f64,
        objective: f64,
    ) -> Self {
        Self {
            arch,
            params,
            interval_cap,
            objective,
        }
    }

    /// The machine-level parameters the model was built with.
    pub fn arch(&self) -> &MicroarchParams {
        &self.arch
    }

    /// The interval cap (Eq. 2) the fit ran with.
    pub fn interval_cap(&self) -> f64 {
        self.interval_cap
    }

    /// The fitted regression parameters.
    pub fn params(&self) -> &ModelParams {
        &self.params
    }

    /// Final objective value (sum of relative squared errors over the
    /// training set).
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// Predicts cycles per µop for one benchmark's counter-derived inputs.
    pub fn predict(&self, inputs: &ModelInputs) -> f64 {
        terms(&self.arch, &self.params, inputs, self.interval_cap).total()
    }

    /// Predicts CPI for a run record.
    pub fn predict_record(&self, record: &RunRecord) -> f64 {
        self.predict(&ModelInputs::from_record(record))
    }

    /// Builds the model-estimated CPI stack for one run record — the
    /// paper's headline deliverable.
    pub fn cpi_stack(&self, record: &RunRecord) -> CpiStack {
        self.stack_for(&ModelInputs::from_record(record))
    }

    /// Builds the CPI stack from pre-derived inputs.
    pub fn stack_for(&self, i: &ModelInputs) -> CpiStack {
        terms(&self.arch, &self.params, i, self.interval_cap)
    }
}

impl fmt::Display for InferredModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} | {}", self.arch, self.params)
    }
}

/// Internal fit error carrying an index instead of a name.
#[derive(Debug)]
pub(crate) enum FitInputError {
    TooFew { got: usize },
    Bad { index: usize },
}

/// Builds the regression objective over `inputs`: the sum of relative (or
/// absolute) squared errors the simplex minimises.
///
/// This is the fit's hot path — it runs up to `(1 + extra_starts) ×
/// max_evals` times per fit. Each term is one [`terms`] kernel call:
/// three `powf`s (Eq. 2 and Eq. 3, shared with the Eq. 4 damping). On a
/// 2-vCPU Xeon VM one evaluation of a 48-record fit costs ≈ 3.8 µs,
/// ≈ 80 ns a term with the simplex bookkeeping included (median of five
/// traced `perfbench --workload serve` runs, `fit.ns_per_eval`); it was
/// ≈ 5.4 µs, ≈ 112 ns a term, while the damping recomputed both factors
/// through [`equations::resource_stall`].
///
/// Everything the objective needs is precomputed per key and captured by
/// plain copy/borrow, so each evaluation is allocation-free on the serial
/// path (`ModelParams::from_slice` lands in a stack array). The per-point
/// division by `measured_cpi` is deliberately *not* hoisted into
/// reciprocal weights: `e*e * (1/y)` rounds differently from `e*e / y`,
/// and fitted bits must not change.
///
/// With `threads > 1` the per-benchmark terms fan across scoped workers
/// via [`regress::par::sum_ordered`], whose index-ordered buffer and
/// sequential fold associate exactly like the serial loop — bit-identical
/// at every thread count. The closure is `Fn + Sync`, so [`MultiStart`]
/// can also share it across start-level workers.
fn objective_for(
    arch: MicroarchParams,
    cap: f64,
    absolute: bool,
    inputs: &[ModelInputs],
    threads: usize,
) -> impl Fn(&[f64]) -> f64 + Sync + '_ {
    move |b: &[f64]| -> f64 {
        let params = ModelParams::from_slice(b);
        let term = |i: &ModelInputs| {
            let pred = terms(&arch, &params, i, cap).total();
            let err = pred - i.measured_cpi;
            if absolute {
                err * err
            } else {
                err * err / i.measured_cpi
            }
        };
        if threads > 1 {
            regress::par::sum_ordered(inputs.len(), threads, |i| term(&inputs[i]))
        } else {
            inputs.iter().map(term).sum()
        }
    }
}

/// How many workers one objective evaluation may fan its terms across:
/// the share of the thread budget the start-level fan-out cannot use,
/// capped so every worker keeps enough terms to amortise the scoped-thread
/// spawn (tens of microseconds against ≈ 80 ns a term, ≈ 112 ns before the
/// shared per-term kernel; see [`objective_for`]). The paper campaign
/// (~50 inputs per key, ~4 µs an evaluation) therefore stays serial and
/// draws its speedup from start- and key-level parallelism; resampled or
/// pooled training sets in the many-thousands engage the inner level.
fn objective_threads(budget: usize, starts: usize, inputs: usize) -> usize {
    const MIN_INPUTS_PER_WORKER: usize = 4096;
    (budget / starts.max(1))
        .min(inputs / MIN_INPUTS_PER_WORKER)
        .max(1)
}

/// Eq. 1–6 for one benchmark under interval cap `cap`, as its CPI stack —
/// the one kernel behind the objective's terms, [`InferredModel::predict`]
/// (its [`CpiStack::total`]) and [`InferredModel::stack_for`].
///
/// `c_br` (Eq. 2) and the MLP factor (Eq. 3) are computed once, and the
/// Eq. 4 damping takes `c_miss` (Eq. 6) as the sum of this stack's own miss
/// components, so the configured cap reaches the damping too. At the
/// default cap every component equals the [`equations`] oracle's bit for
/// bit, and `total()` sums in [`equations::predict_cpi`]'s order.
fn terms(arch: &MicroarchParams, params: &ModelParams, i: &ModelInputs, cap: f64) -> CpiStack {
    let cbr = equations::branch_resolution_capped(params, i, cap);
    let mlp = equations::mlp_correction(params, i);
    let mem = |rate: f64, latency: f64| {
        if rate <= 0.0 {
            0.0
        } else {
            rate * latency / mlp
        }
    };
    let base = 1.0 / arch.width;
    let l1i = i.mpu_l1i * arch.c_l2;
    let llc_i = i.mpu_llci * arch.c_mem;
    let itlb = i.mpu_itlb * arch.c_tlb;
    let branch = i.mpu_br * (cbr + arch.fe_depth);
    let llc_d = mem(i.mpu_dl2, arch.c_mem);
    let dtlb = mem(i.mpu_dtlb, arch.c_tlb);
    let miss = l1i + llc_i + itlb + branch + llc_d + dtlb;
    let raw = equations::raw_stall(params, i);
    let damping = 1.0 - miss / (base + raw).max(equations::RATE_FLOOR);
    CpiStack {
        base,
        l1i,
        llc_i,
        itlb,
        branch,
        llc_d,
        dtlb,
        resource: damping.max(0.0) * raw,
        branch_resolution: cbr,
        mlp,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workbench::{CounterSource, SimSource};
    use oosim::machine::MachineConfig;

    fn training_records() -> Vec<RunRecord> {
        let machine = MachineConfig::core2();
        let suite: Vec<_> = specgen::suites::cpu2000().into_iter().take(16).collect();
        SimSource::new()
            .suite(suite)
            .uops(60_000)
            .seed(7)
            .collect(&machine.into(), 1)
            .expect("simulation cannot fail")
    }

    #[test]
    fn fit_is_deterministic() {
        let arch = MicroarchParams::from_machine(&MachineConfig::core2());
        let records = training_records();
        let a = InferredModel::fit(&arch, &records, &FitOptions::quick()).unwrap();
        let b = InferredModel::fit(&arch, &records, &FitOptions::quick()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn fit_reduces_error_below_naive_model() {
        let arch = MicroarchParams::from_machine(&MachineConfig::core2());
        let records = training_records();
        let model = InferredModel::fit(&arch, &records, &FitOptions::quick()).unwrap();
        // Naive comparison: predict the training-set mean CPI for everyone.
        let mean: f64 = records.iter().map(|r| r.cpi()).sum::<f64>() / records.len() as f64;
        let model_err: f64 = records
            .iter()
            .map(|r| ((model.predict_record(r) - r.cpi()) / r.cpi()).abs())
            .sum::<f64>()
            / records.len() as f64;
        let naive_err: f64 = records
            .iter()
            .map(|r| ((mean - r.cpi()) / r.cpi()).abs())
            .sum::<f64>()
            / records.len() as f64;
        assert!(
            model_err < naive_err * 0.6,
            "model {model_err:.3} vs naive {naive_err:.3}"
        );
    }

    #[test]
    fn stack_sums_to_prediction() {
        let arch = MicroarchParams::from_machine(&MachineConfig::core2());
        let records = training_records();
        let model = InferredModel::fit(&arch, &records, &FitOptions::quick()).unwrap();
        for r in &records {
            let stack = model.cpi_stack(r);
            let pred = model.predict_record(r);
            assert!(
                (stack.total() - pred).abs() < 1e-9,
                "{}: stack {} vs pred {}",
                r.benchmark(),
                stack.total(),
                pred
            );
        }
    }

    /// Checks Eq. 4 on every stack `model` builds for `records`: the
    /// damping's `c_miss` is the stack's own miss components, and the
    /// stack sums to the prediction. Returns how many stacks' resource
    /// component differs from the default-cap [`equations`] oracle.
    fn check_damping(model: &InferredModel, records: &[RunRecord]) -> usize {
        let mut off_default = 0;
        for r in records {
            let s = model.cpi_stack(r);
            let inputs = ModelInputs::from_record(r);
            let raw = equations::raw_stall(model.params(), &inputs);
            let miss = s.l1i + s.llc_i + s.itlb + s.branch + s.llc_d + s.dtlb;
            let resource = (1.0 - miss / (1.0 / model.arch().width + raw)).max(0.0) * raw;
            assert_eq!(
                s.resource.to_bits(),
                resource.to_bits(),
                "{}",
                r.benchmark()
            );
            assert_eq!(
                s.total().to_bits(),
                model.predict(&inputs).to_bits(),
                "{}",
                r.benchmark()
            );
            let oracle = equations::resource_stall(model.arch(), model.params(), &inputs);
            off_default += usize::from(s.resource.to_bits() != oracle.to_bits());
        }
        off_default
    }

    #[test]
    fn non_default_cap_reaches_the_resource_damping() {
        // The configured interval cap shapes the Eq. 4 damping as it
        // shapes the branch component.
        let arch = MicroarchParams::from_machine(&MachineConfig::core2());
        let records = training_records();
        let opts = FitOptions::quick().with_interval_cap(32.0);
        let fitted = InferredModel::fit(&arch, &records, &opts).unwrap();
        assert_eq!(fitted.interval_cap(), 32.0);
        check_damping(&fitted, &records);
        // The quick fit can zero the resource stall outright. With a live
        // stall term (b8 = 2) the damping stays positive, so there the
        // cap must visibly matter.
        let params =
            ModelParams::from_slice(&[1.0, 0.5, 1.0, 10.0, 8.0, 0.25, 0.05, 2.0, 2.0, 20.0]);
        let live = InferredModel::from_parts(arch, params, 32.0, 0.0);
        assert!(
            check_damping(&live, &records) > 0,
            "a cap of 32 must change some resource component"
        );
    }

    #[test]
    fn fit_profiled_matches_fit_and_is_schedule_independent() {
        let arch = MicroarchParams::from_machine(&MachineConfig::core2());
        let records = training_records();
        let opts = FitOptions::quick().with_threads(1);
        let (model, profile) = InferredModel::fit_profiled(&arch, &records, &opts).unwrap();
        assert_eq!(model, InferredModel::fit(&arch, &records, &opts).unwrap());
        // quick() schedules 1 + 3 starts; dedupe may only shrink that.
        assert!((1..=4).contains(&profile.starts), "{profile:?}");
        assert!(profile.evals >= profile.starts, "{profile:?}");
        for threads in [2, 8] {
            let threaded = FitOptions::quick().with_threads(threads);
            let (m, p) = InferredModel::fit_profiled(&arch, &records, &threaded).unwrap();
            assert_eq!(m, model, "threads={threads}");
            assert_eq!(p, profile, "threads={threads}");
        }
    }

    #[test]
    fn refit_profiled_counts_the_polish() {
        let arch = MicroarchParams::from_machine(&MachineConfig::core2());
        let records = training_records();
        let opts = FitOptions::quick();
        let model = InferredModel::fit(&arch, &records, &opts).unwrap();
        let (polished, profile) = model.refit_profiled(&records, &opts, 2_000).unwrap();
        assert_eq!(polished, model.refit(&records, &opts, 2_000).unwrap());
        assert_eq!(profile.starts, 1);
        assert!(profile.evals > 0);
    }

    #[test]
    fn parallel_objective_is_bit_identical_to_serial() {
        let arch = MicroarchParams::from_machine(&MachineConfig::core2());
        let records = training_records();
        let inputs: Vec<ModelInputs> = records.iter().map(ModelInputs::from_record).collect();
        // Inflate to a size where the inner fan-out genuinely engages.
        let big: Vec<ModelInputs> = inputs.iter().cycle().take(10_000).copied().collect();
        let guess = ModelParams::initial_guess().b;
        for absolute in [false, true] {
            let serial =
                objective_for(arch, crate::equations::INTERVAL_CAP, absolute, &big, 1)(&guess);
            for threads in [2, 3, 8] {
                let parallel = objective_for(
                    arch,
                    crate::equations::INTERVAL_CAP,
                    absolute,
                    &big,
                    threads,
                )(&guess);
                assert_eq!(
                    parallel.to_bits(),
                    serial.to_bits(),
                    "threads={threads} absolute={absolute}"
                );
            }
        }
    }

    #[test]
    fn objective_thread_split_favours_starts_then_size() {
        // The paper campaign (~50–103 inputs/key) never fans inside the
        // objective, whatever the budget…
        assert_eq!(objective_threads(8, 1, 103), 1);
        // …a full start fan-out soaks the whole budget first…
        assert_eq!(objective_threads(8, 13, 100_000), 1);
        // …and only spare budget over a large set engages the inner level.
        assert_eq!(objective_threads(8, 2, 100_000), 4);
        assert_eq!(objective_threads(2, 1, 10_000), 2);
    }

    #[test]
    fn too_few_records_is_an_error() {
        let arch = MicroarchParams::from_machine(&MachineConfig::core2());
        let records: Vec<RunRecord> = training_records().into_iter().take(5).collect();
        assert!(matches!(
            InferredModel::fit(&arch, &records, &FitOptions::quick()),
            Err(FitError::TooFewRecords { got: 5 })
        ));
    }

    #[test]
    fn fitted_parameters_respect_bounds() {
        let arch = MicroarchParams::from_machine(&MachineConfig::core2());
        let model = InferredModel::fit(&arch, &training_records(), &FitOptions::quick()).unwrap();
        for (v, (lo, hi)) in model.params().b.iter().zip(ModelParams::bounds()) {
            assert!(*v >= lo && *v <= hi, "{v} outside [{lo}, {hi}]");
        }
    }

    #[test]
    fn refit_tracks_a_perturbed_training_set_cheaply() {
        let arch = MicroarchParams::from_machine(&MachineConfig::core2());
        let records = training_records();
        let opts = FitOptions::quick();
        let model = InferredModel::fit(&arch, &records, &opts).unwrap();
        // Same records: the warm polish must not make the objective worse.
        let same = model.refit(&records, &opts, 2_000).unwrap();
        assert!(same.objective() <= model.objective() * (1.0 + 1e-9));
        // Mildly jittered records (a stationary live stream): the warm refit
        // should land near the full fit of the jittered set.
        let jittered: Vec<RunRecord> = {
            let mut src = pmu::live::ReplaySource::new(records.clone())
                .batch_size(records.len())
                .rounds(2)
                .jitter(99);
            use pmu::live::LiveSource as _;
            src.next_batch(); // round 0 (verbatim)
            src.next_batch().unwrap() // round 1 (jittered)
        };
        let warm = model.refit(&jittered, &opts, 2_000).unwrap();
        let full = InferredModel::fit(&arch, &jittered, &opts).unwrap();
        let n = jittered.len() as f64;
        assert!(
            warm.objective() / n <= full.objective() / n * 2.0,
            "warm {} vs full {}",
            warm.objective(),
            full.objective()
        );
        // Determinism.
        let again = model.refit(&jittered, &opts, 2_000).unwrap();
        assert_eq!(warm, again);
    }

    #[test]
    fn refit_validates_like_fit() {
        let arch = MicroarchParams::from_machine(&MachineConfig::core2());
        let records = training_records();
        let opts = FitOptions::quick();
        let model = InferredModel::fit(&arch, &records, &opts).unwrap();
        let few: Vec<RunRecord> = records.iter().take(5).cloned().collect();
        assert!(matches!(
            model.refit(&few, &opts, 1_000),
            Err(FitError::TooFewRecords { got: 5 })
        ));
    }

    #[test]
    fn display_shows_arch_and_params() {
        let arch = MicroarchParams::from_machine(&MachineConfig::core2());
        let model = InferredModel::fit(&arch, &training_records(), &FitOptions::quick()).unwrap();
        let text = model.to_string();
        assert!(text.contains("D=4") && text.contains("b = ["));
    }
}
