//! Bounded, derivative-free Nelder–Mead simplex minimisation with
//! deterministic (optionally parallel) multi-start.
//!
//! The paper fits the ten `b`-parameters of Eq. 2–6 with SPSS's nonlinear
//! regression under the sum-of-relative-squared-errors criterion. The
//! objective is smooth but non-convex (power laws, products, a `max`), has
//! few parameters and cheap evaluations — exactly the regime where a simplex
//! method with restarts is a dependable replacement for a commercial solver.
//!
//! Box bounds are enforced by clamping trial points; multi-start jitters the
//! initial simplex deterministically from a caller-supplied seed so fits are
//! reproducible. Because every start is an independent deterministic
//! minimisation, [`MultiStart`] can fan the starts across scoped threads and
//! still return **bit-identical** results to the sequential path: the winner
//! is the start with the lowest objective value, ties broken by lowest start
//! index — exactly the start a strictly-improving sequential fold would have
//! kept.

/// Options controlling a Nelder–Mead run.
///
/// The defaults follow the standard Nelder–Mead coefficients
/// (reflection 1, expansion 2, contraction ½, shrink ½).
#[derive(Debug, Clone)]
pub struct Options {
    /// Maximum number of objective evaluations per start.
    pub max_evals: usize,
    /// Convergence: stop when the simplex's value spread falls below this.
    pub value_tolerance: f64,
    /// Convergence: stop when the simplex's parameter spread falls below this.
    pub param_tolerance: f64,
    /// Initial simplex step, as a fraction of each parameter's magnitude
    /// (or absolute, for parameters at zero).
    pub initial_step: f64,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            max_evals: 20_000,
            value_tolerance: 1e-12,
            param_tolerance: 1e-10,
            initial_step: 0.25,
        }
    }
}

/// Result of a minimisation: best parameters, objective value, and effort.
#[derive(Debug, Clone, PartialEq)]
pub struct Minimum {
    /// Best parameter vector found.
    pub params: Vec<f64>,
    /// Objective value at [`Minimum::params`].
    pub value: f64,
    /// Number of objective evaluations spent.
    pub evals: usize,
}

/// Effort accounting for one [`MultiStart::run_profiled`] call — the whole
/// fan-out, not just the winning start (a [`Minimum`]'s `evals` field only
/// counts the winner's own budget).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MultiStartProfile {
    /// Starts actually minimised, after clamped-duplicate dedupe.
    pub starts: u64,
    /// Objective evaluations summed across every start.
    pub evals: u64,
}

/// Minimises `f` starting from `x0`, unconstrained.
///
/// Convenience wrapper over [`minimize_bounded`] with infinite bounds.
///
/// # Examples
///
/// ```
/// use regress::nelder_mead::{minimize, Options};
///
/// // Rosenbrock's banana function.
/// let f = |p: &[f64]| (1.0 - p[0]).powi(2) + 100.0 * (p[1] - p[0] * p[0]).powi(2);
/// let m = minimize(f, &[-1.2, 1.0], &Options { max_evals: 50_000, ..Options::default() });
/// assert!((m.params[0] - 1.0).abs() < 1e-4);
/// assert!((m.params[1] - 1.0).abs() < 1e-4);
/// ```
pub fn minimize<F: FnMut(&[f64]) -> f64>(f: F, x0: &[f64], opts: &Options) -> Minimum {
    let bounds: Vec<(f64, f64)> = x0
        .iter()
        .map(|_| (f64::NEG_INFINITY, f64::INFINITY))
        .collect();
    minimize_bounded(f, x0, &bounds, opts)
}

/// Clamps `x` into the box in place.
fn clamp_into(x: &mut [f64], bounds: &[(f64, f64)]) {
    for (xi, &(lo, hi)) in x.iter_mut().zip(bounds) {
        *xi = xi.clamp(lo, hi);
    }
}

/// The best, second-worst and worst vertices of a simplex with `values`
/// (at least two): the first, second-to-last and last indices of a
/// stable ascending [`f64::total_cmp`] sort, found in one scan.
///
/// A stable sort keeps equal values in index order, so a later vertex
/// sorts after every earlier one whose value is not greater: ties make the
/// lower index the best and the higher index the worst.
fn extremes(values: &[f64]) -> (usize, usize, usize) {
    let (mut second, mut worst) = if values[1].total_cmp(&values[0]).is_ge() {
        (0, 1)
    } else {
        (1, 0)
    };
    let mut best = second;
    for (i, v) in values.iter().enumerate().skip(2) {
        if v.total_cmp(&values[best]).is_lt() {
            best = i;
        }
        if v.total_cmp(&values[worst]).is_ge() {
            second = worst;
            worst = i;
        } else if v.total_cmp(&values[second]).is_ge() {
            second = i;
        }
    }
    (best, second, worst)
}

/// Minimises `f` subject to per-parameter box bounds `lo <= x[i] <= hi`.
///
/// Trial points are clamped into the box before evaluation, which keeps the
/// simplex inside the feasible region (the fitted model's exponents and
/// scale factors all have natural sign/range constraints).
///
/// The inner loop is allocation-free: the simplex, the two trial points
/// and the centroid are all allocated once per run and reused across
/// iterations, so a 20 000-evaluation fit makes a dozen allocations
/// instead of tens of thousands. The arithmetic (and therefore every
/// result bit) is unchanged from the allocating formulation.
///
/// # Panics
///
/// Panics if `x0` is empty, `bounds.len() != x0.len()`, or any bound pair is
/// inverted.
pub fn minimize_bounded<F: FnMut(&[f64]) -> f64>(
    mut f: F,
    x0: &[f64],
    bounds: &[(f64, f64)],
    opts: &Options,
) -> Minimum {
    assert!(!x0.is_empty(), "need at least one parameter");
    assert_eq!(bounds.len(), x0.len(), "one bound pair per parameter");
    for &(lo, hi) in bounds {
        assert!(lo <= hi, "inverted bound: {lo} > {hi}");
    }
    let n = x0.len();

    let mut evals = 0usize;
    let mut eval = |x: &[f64], evals: &mut usize| -> f64 {
        *evals += 1;
        let v = f(x);
        if v.is_nan() {
            f64::INFINITY
        } else {
            v
        }
    };

    // Initial simplex: x0 plus one vertex per axis.
    let mut simplex: Vec<Vec<f64>> = Vec::with_capacity(n + 1);
    let mut start = x0.to_vec();
    clamp_into(&mut start, bounds);
    simplex.push(start.clone());
    for i in 0..n {
        let mut v = start.clone();
        let step = if v[i] != 0.0 {
            v[i].abs() * opts.initial_step
        } else {
            opts.initial_step
        };
        v[i] += step;
        clamp_into(&mut v, bounds);
        if v == simplex[0] {
            // Clamping collapsed the vertex onto the start; step inward.
            v[i] -= 2.0 * step;
            clamp_into(&mut v, bounds);
        }
        simplex.push(v);
    }
    let mut values: Vec<f64> = simplex.iter().map(|v| eval(v, &mut evals)).collect();

    // Per-run scratch, reused every iteration.
    let mut centroid = vec![0.0f64; n];
    let mut trial = vec![0.0f64; n]; // reflected point
    let mut trial2 = vec![0.0f64; n]; // expanded / contracted point

    // Writes `centroid + alpha * (centroid - worst)` clamped into `out`.
    let blend = |alpha: f64, centroid: &[f64], worst: &[f64], out: &mut [f64]| {
        for ((o, c), w) in out.iter_mut().zip(centroid).zip(worst) {
            *o = c + alpha * (c - w);
        }
        clamp_into(out, bounds);
    };

    while evals < opts.max_evals {
        let (best, second_worst, worst) = extremes(&values);

        // Converged when both spreads are under tolerance; the parameter
        // spread (a pass over every coordinate) only matters once the
        // value spread already is.
        let spread = values[worst] - values[best];
        if spread.abs() < opts.value_tolerance {
            let param_spread = simplex
                .iter()
                .flat_map(|v| v.iter().zip(&simplex[best]).map(|(a, b)| (a - b).abs()))
                .fold(0.0f64, f64::max);
            if param_spread < opts.param_tolerance {
                break;
            }
        }

        // Centroid of all but the worst vertex.
        centroid.fill(0.0);
        for (i, v) in simplex.iter().enumerate() {
            if i == worst {
                continue;
            }
            for (c, x) in centroid.iter_mut().zip(v) {
                *c += x / n as f64;
            }
        }

        // Reflect.
        blend(1.0, &centroid, &simplex[worst], &mut trial);
        let reflected_value = eval(&trial, &mut evals);
        if reflected_value < values[best] {
            // Try to expand further in the same direction.
            blend(2.0, &centroid, &simplex[worst], &mut trial2);
            let expanded_value = eval(&trial2, &mut evals);
            if expanded_value < reflected_value {
                simplex[worst].copy_from_slice(&trial2);
                values[worst] = expanded_value;
            } else {
                simplex[worst].copy_from_slice(&trial);
                values[worst] = reflected_value;
            }
            continue;
        }
        if reflected_value < values[second_worst] {
            simplex[worst].copy_from_slice(&trial);
            values[worst] = reflected_value;
            continue;
        }
        // Contract (outside if the reflection helped at all, inside otherwise).
        let alpha = if reflected_value < values[worst] {
            0.5
        } else {
            -0.5
        };
        blend(alpha, &centroid, &simplex[worst], &mut trial2);
        let contracted_value = eval(&trial2, &mut evals);
        if contracted_value < values[worst].min(reflected_value) {
            simplex[worst].copy_from_slice(&trial2);
            values[worst] = contracted_value;
            continue;
        }
        // Shrink every vertex toward the best. `trial` doubles as the
        // anchor copy (the reflected point in it is dead at this point).
        trial.copy_from_slice(&simplex[best]);
        for (i, v) in simplex.iter_mut().enumerate() {
            if i == best {
                continue;
            }
            for (x, a) in v.iter_mut().zip(&trial) {
                *x = a + 0.5 * (*x - a);
            }
            clamp_into(v, bounds);
            values[i] = eval(v, &mut evals);
        }
    }

    let best = (0..=n)
        .min_by(|&i, &j| values[i].total_cmp(&values[j]))
        .expect("simplex is non-empty");
    Minimum {
        params: simplex.swap_remove(best),
        value: values[best],
        evals,
    }
}

/// Warm-start refinement: a single bounded simplex run seeded *at* `x0` with
/// a deliberately small initial step and a caller-capped evaluation budget.
///
/// This is the incremental-refit primitive: when new counter batches arrive
/// for a workload that has not drifted, the previous fit's parameters are
/// already inside the right basin, so a tight local polish replaces the full
/// [`MultiStart`] fan-out (13 starts × 30 000 evaluations in the default
/// campaign configuration). Callers remain responsible for detecting drift
/// and falling back to the full fan-out when the basin may have moved.
///
/// Deterministic: same inputs, same minimum, bit for bit.
///
/// # Examples
///
/// ```
/// use regress::nelder_mead::refine;
///
/// let f = |p: &[f64]| (p[0] - 3.0).powi(2);
/// // Start near the optimum, polish with a small budget.
/// let m = refine(f, &[2.9], &[(0.0, 10.0)], 500);
/// assert!((m.params[0] - 3.0).abs() < 1e-6);
/// assert!(m.evals <= 500);
/// ```
///
/// # Panics
///
/// Panics on the same degenerate inputs as [`minimize_bounded`].
pub fn refine<F: FnMut(&[f64]) -> f64>(
    f: F,
    x0: &[f64],
    bounds: &[(f64, f64)],
    max_evals: usize,
) -> Minimum {
    let opts = Options {
        max_evals: max_evals.max(1),
        // A small step keeps the polish local: the warm start is trusted to
        // sit in the right basin, so the simplex should not leap out of it.
        initial_step: 0.05,
        ..Options::default()
    };
    minimize_bounded(f, x0, bounds, &opts)
}

/// Deterministic multi-start driver around [`minimize_bounded`].
///
/// Runs one simplex from the caller's initial guess plus `extra_starts`
/// jittered starts generated from `seed` by a small xorshift stream, and
/// keeps the best minimum. This recovers the global basin for the paper's
/// mildly multi-modal objective without any dependence on system entropy.
///
/// Two performance levers, both result-preserving:
///
/// * **Dedupe** — jittered start points that clamp onto an
///   already-scheduled simplex origin are skipped before any objective
///   evaluation. A duplicated origin reruns the *identical* deterministic
///   minimisation (same simplex, same trajectory, same minimum), so
///   skipping it saves a whole `max_evals` budget without changing the
///   winner. This matters when bounds pin axes (degenerate boxes collapse
///   every start onto one point).
/// * **Threads** — with [`MultiStart::threads`] above 1, the surviving
///   starts fan out across [`std::thread::scope`] workers. Each start is
///   independent and deterministic, and the winner rule (lowest objective
///   value, ties broken by lowest start index) picks exactly the start a
///   strictly-improving sequential fold would have kept — so any thread
///   count, 1 included, returns bit-identical parameters and value.
///
/// # Examples
///
/// ```
/// use regress::nelder_mead::{MultiStart, Options};
///
/// // A bimodal objective; multi-start finds the deeper well at x = 4.
/// let f = |p: &[f64]| {
///     let x = p[0];
///     ((x + 2.0).powi(2) - 1.0).min((x - 4.0).powi(2) - 5.0)
/// };
/// let ms = MultiStart::new(12, 0xC0FFEE);
/// let m = ms.run(f, &[-2.0], &[(-10.0, 10.0)], &Options::default());
/// assert!((m.params[0] - 4.0).abs() < 1e-3);
/// ```
#[derive(Debug, Clone)]
pub struct MultiStart {
    extra_starts: usize,
    seed: u64,
    threads: usize,
}

impl MultiStart {
    /// Creates a driver that adds `extra_starts` jittered restarts derived
    /// from `seed`. Starts run sequentially until a thread budget is set
    /// with [`MultiStart::threads`].
    pub fn new(extra_starts: usize, seed: u64) -> Self {
        Self {
            extra_starts,
            seed,
            threads: 1,
        }
    }

    /// Sets the worker-thread budget for [`MultiStart::run`] (minimum 1).
    /// Purely a scheduling knob: the result is bit-identical for every
    /// value.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The start points this driver would minimise from, in start order,
    /// with clamped duplicates removed: the caller's guess first, then the
    /// surviving jittered starts. Exposed for effort accounting and tests.
    pub fn start_points(&self, x0: &[f64], bounds: &[(f64, f64)]) -> Vec<Vec<f64>> {
        let mut state = self.seed | 1;
        let mut next_unit = move || -> f64 {
            // xorshift64*: cheap, deterministic, good enough for jitter.
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let bits = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
            (bits >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut starts: Vec<Vec<f64>> = Vec::with_capacity(1 + self.extra_starts);
        let mut first = x0.to_vec();
        clamp_into(&mut first, bounds);
        starts.push(first);
        for _ in 0..self.extra_starts {
            // The jitter stream is consumed for every candidate — deduping
            // must never shift later starts' coordinates.
            let mut jittered: Vec<f64> = x0
                .iter()
                .zip(bounds)
                .map(|(&x, &(lo, hi))| {
                    let u = next_unit();
                    if lo.is_finite() && hi.is_finite() {
                        lo + u * (hi - lo)
                    } else {
                        // Scale-jitter around the guess for unbounded axes.
                        let scale = if x != 0.0 { x.abs() } else { 1.0 };
                        x + (u - 0.5) * 4.0 * scale
                    }
                })
                .collect();
            clamp_into(&mut jittered, bounds);
            // A start that clamps onto an already-scheduled origin would
            // rerun the identical minimisation: the simplex construction,
            // trajectory and minimum are all functions of the clamped
            // origin alone. Equal value can never beat an earlier index
            // under the strict winner rule, so the duplicate is pure waste.
            if !starts.contains(&jittered) {
                starts.push(jittered);
            }
        }
        starts
    }

    /// Runs the multi-start minimisation. See [`minimize_bounded`] for the
    /// meaning of `bounds`; panics under the same conditions.
    ///
    /// `f` is shared by reference across worker threads, hence the
    /// `Fn + Sync` bound (an objective capturing only shared read-only
    /// state, as regression objectives do, satisfies it for free).
    pub fn run<F: Fn(&[f64]) -> f64 + Sync>(
        &self,
        f: F,
        x0: &[f64],
        bounds: &[(f64, f64)],
        opts: &Options,
    ) -> Minimum {
        self.run_profiled(f, x0, bounds, opts).0
    }

    /// [`MultiStart::run`] plus effort accounting: the minimum and a
    /// [`MultiStartProfile`] totalling the evaluations every start spent.
    /// The minimum is bit-identical to [`MultiStart::run`]'s, and the
    /// profile is schedule-independent (each start's evaluation count is a
    /// function of its origin alone, and the totals sum over all of them).
    pub fn run_profiled<F: Fn(&[f64]) -> f64 + Sync>(
        &self,
        f: F,
        x0: &[f64],
        bounds: &[(f64, f64)],
        opts: &Options,
    ) -> (Minimum, MultiStartProfile) {
        let starts = self.start_points(x0, bounds);
        let minima = run_starts(&f, &starts, bounds, opts, self.threads);
        let profile = MultiStartProfile {
            starts: minima.len() as u64,
            evals: minima.iter().map(|m| m.evals as u64).sum(),
        };
        // Winner: lowest value, ties to the lowest start index — the same
        // start a sequential `candidate.value < best.value` fold keeps.
        let best = minima
            .into_iter()
            .reduce(|best, candidate| {
                if candidate.value < best.value {
                    candidate
                } else {
                    best
                }
            })
            .expect("at least one start");
        (best, profile)
    }
}

/// Minimises from every start, fanning across at most `threads` scoped
/// workers. Results come back in start order regardless of schedule.
fn run_starts<F: Fn(&[f64]) -> f64 + Sync>(
    f: &F,
    starts: &[Vec<f64>],
    bounds: &[(f64, f64)],
    opts: &Options,
    threads: usize,
) -> Vec<Minimum> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let workers = threads.clamp(1, starts.len().max(1));
    if workers == 1 {
        return starts
            .iter()
            .map(|s| minimize_bounded(f, s, bounds, opts))
            .collect();
    }
    let mut slots: Vec<Option<Minimum>> = vec![None; starts.len()];
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        // Work-stealing schedule: each worker pulls the next unclaimed
        // start index off a shared counter, so a worker whose starts
        // converge early moves on to the stragglers instead of idling out
        // a static stride (starts differ wildly in evaluations spent).
        // Which worker runs which start never matters — every slot is
        // written exactly once with a deterministic result.
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let next = &next;
                scope.spawn(move || -> Vec<(usize, Minimum)> {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(start) = starts.get(i) else {
                            return done;
                        };
                        done.push((i, minimize_bounded(f, start, bounds, opts)));
                    }
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(results) => {
                    for (i, m) in results {
                        slots[i] = Some(m);
                    }
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    slots
        .into_iter()
        .map(|m| m.expect("every start was minimised"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// The stable sort the simplex ordered its vertices with: the oracle
    /// for [`extremes`].
    fn sorted_extremes(values: &[f64]) -> (usize, usize, usize) {
        let mut order: Vec<usize> = (0..values.len()).collect();
        order.sort_by(|&i, &j| values[i].total_cmp(&values[j]));
        let n = order.len() - 1;
        (order[0], order[n - 1], order[n])
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(2048))]

        #[test]
        fn extremes_match_the_stable_sort(
            draws in proptest::collection::vec((0usize..12, -4.0f64..4.0), 2..14),
        ) {
            // A small palette makes ties (and ±0.0 / ±∞ neighbours) common.
            const PALETTE: [f64; 8] = [
                f64::NEG_INFINITY, -1.0, -0.0, 0.0, 0.5, 1.0, f64::INFINITY, f64::NAN,
            ];
            let values: Vec<f64> = draws
                .into_iter()
                .map(|(k, x)| PALETTE.get(k).copied().unwrap_or(x))
                .collect();
            proptest::prop_assert_eq!(extremes(&values), sorted_extremes(&values));
        }
    }

    #[test]
    fn extremes_break_ties_like_the_stable_sort() {
        for values in [
            vec![1.0, 1.0],
            vec![2.0, 1.0],
            vec![0.0, -0.0, 0.0, -0.0],
            vec![f64::INFINITY, f64::INFINITY, 1.0],
            vec![3.0, 3.0, 3.0, 3.0, 3.0],
            vec![f64::NEG_INFINITY, 5.0, 5.0, f64::NEG_INFINITY],
        ] {
            assert_eq!(extremes(&values), sorted_extremes(&values), "{values:?}");
        }
    }

    #[test]
    fn sphere_converges() {
        let m = minimize(
            |p| p.iter().map(|x| x * x).sum(),
            &[3.0, -4.0, 5.0],
            &Options::default(),
        );
        for x in &m.params {
            assert!(x.abs() < 1e-5, "{x}");
        }
        assert!(m.value < 1e-9);
    }

    #[test]
    fn respects_bounds() {
        // Unconstrained minimum at x = -3, but box is [0, 10].
        let m = minimize_bounded(
            |p| (p[0] + 3.0).powi(2),
            &[5.0],
            &[(0.0, 10.0)],
            &Options::default(),
        );
        assert!(m.params[0] >= 0.0);
        assert!(m.params[0] < 1e-6);
    }

    #[test]
    fn nan_objective_is_treated_as_infinite() {
        // sqrt goes NaN for negative x; optimizer must still find x=1.
        let m = minimize_bounded(
            |p| (p[0].sqrt() - 1.0).powi(2),
            &[4.0],
            &[(f64::NEG_INFINITY, f64::INFINITY)],
            &Options::default(),
        );
        assert!((m.params[0] - 1.0).abs() < 1e-4);
    }

    #[test]
    fn refine_polishes_cheaply_and_deterministically() {
        let f = |p: &[f64]| (p[0] - 1.5).powi(2) + (p[1] + 0.5).powi(2);
        let a = refine(f, &[1.45, -0.55], &[(0.0, 2.0), (-2.0, 0.0)], 1_000);
        let b = refine(f, &[1.45, -0.55], &[(0.0, 2.0), (-2.0, 0.0)], 1_000);
        assert_eq!(a.params, b.params);
        assert_eq!(a.value, b.value);
        assert!((a.params[0] - 1.5).abs() < 1e-6 && (a.params[1] + 0.5).abs() < 1e-6);
        assert!(a.evals <= 1_000);
    }

    #[test]
    fn refine_stays_local() {
        // Shallow well at x=-2, deep well at x=4: a warm start in the shallow
        // well must polish locally rather than jump basins.
        let f = |p: &[f64]| ((p[0] + 2.0).powi(2) - 1.0).min((p[0] - 4.0).powi(2) - 5.0);
        let m = refine(f, &[-2.05], &[(-10.0, 10.0)], 2_000);
        assert!(
            (m.params[0] + 2.0).abs() < 1e-3,
            "left the basin: {:?}",
            m.params
        );
    }

    #[test]
    fn refine_respects_eval_budget() {
        let f = |p: &[f64]| (p[0].sin() * 5.0) + 0.1 * p[0] * p[0];
        let m = refine(f, &[9.0], &[(-20.0, 20.0)], 25);
        // Budget is a cap per iteration check; a full iteration may overshoot
        // by the few evaluations it was already committed to.
        assert!(m.evals <= 40, "spent {} evals", m.evals);
    }

    #[test]
    fn multistart_is_deterministic() {
        let f = |p: &[f64]| (p[0].sin() * 5.0) + 0.1 * p[0] * p[0];
        let ms = MultiStart::new(8, 42);
        let a = ms.run(f, &[9.0], &[(-20.0, 20.0)], &Options::default());
        let b = ms.run(f, &[9.0], &[(-20.0, 20.0)], &Options::default());
        assert_eq!(a.params, b.params);
        assert_eq!(a.value, b.value);
    }

    #[test]
    fn multistart_escapes_local_minimum() {
        // Start in the shallow well at x=-2; deep well at x=4.
        let f = |p: &[f64]| ((p[0] + 2.0).powi(2) - 1.0).min((p[0] - 4.0).powi(2) - 5.0);
        let single = minimize_bounded(f, &[-2.0], &[(-10.0, 10.0)], &Options::default());
        assert!(
            (single.params[0] + 2.0).abs() < 1e-3,
            "single start stays local"
        );
        let multi = MultiStart::new(10, 7).run(f, &[-2.0], &[(-10.0, 10.0)], &Options::default());
        assert!(
            (multi.params[0] - 4.0).abs() < 1e-3,
            "multi start goes global"
        );
    }

    #[test]
    fn parallel_multistart_is_bit_identical_to_sequential() {
        // The tentpole invariant: any thread budget returns the exact bits
        // the sequential path returns — on a rugged multi-well objective
        // where start choice genuinely decides the winner.
        let f = |p: &[f64]| {
            (p[0].sin() * 5.0) + 0.1 * p[0] * p[0] + (p[1] * 3.0).cos() + 0.05 * p[1] * p[1]
        };
        let bounds = [(-20.0, 20.0), (-15.0, 15.0)];
        let sequential = MultiStart::new(12, 99).run(f, &[9.0, -7.0], &bounds, &Options::default());
        for threads in [2, 3, 8, 32] {
            let parallel = MultiStart::new(12, 99).threads(threads).run(
                f,
                &[9.0, -7.0],
                &bounds,
                &Options::default(),
            );
            assert_eq!(parallel.params, sequential.params, "threads={threads}");
            assert_eq!(
                parallel.value.to_bits(),
                sequential.value.to_bits(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn run_profiled_totals_every_start_and_is_schedule_independent() {
        let f = |p: &[f64]| (p[0].sin() * 5.0) + 0.1 * p[0] * p[0];
        let bounds = [(-20.0, 20.0)];
        let ms = MultiStart::new(8, 42);
        let (m, profile) = ms.run_profiled(f, &[9.0], &bounds, &Options::default());
        let plain = ms.run(f, &[9.0], &bounds, &Options::default());
        assert_eq!(m.params, plain.params);
        assert_eq!(m.value.to_bits(), plain.value.to_bits());
        assert_eq!(
            profile.starts,
            ms.start_points(&[9.0], &bounds).len() as u64,
            "every surviving start is counted"
        );
        assert!(
            profile.evals >= m.evals as u64,
            "fan-out total at least the winner's own budget"
        );
        // Evaluation totals are a function of the starts, not the schedule.
        for threads in [2, 3, 8] {
            let (tm, tp) = MultiStart::new(8, 42).threads(threads).run_profiled(
                f,
                &[9.0],
                &bounds,
                &Options::default(),
            );
            assert_eq!(tm.params, m.params, "threads={threads}");
            assert_eq!(tp, profile, "threads={threads}");
        }
    }

    #[test]
    fn duplicate_clamped_starts_are_skipped() {
        // Every axis pinned: all 9 jittered candidates clamp onto the
        // caller's (clamped) origin, so exactly one minimisation runs.
        let evals = AtomicUsize::new(0);
        let f = |p: &[f64]| {
            evals.fetch_add(1, Ordering::Relaxed);
            (p[0] - 2.0).powi(2)
        };
        let opts = Options {
            max_evals: 500,
            ..Options::default()
        };
        let ms = MultiStart::new(9, 0xD0D0);
        let starts = ms.start_points(&[5.0], &[(2.0, 2.0)]);
        assert_eq!(starts, vec![vec![2.0]], "all starts collapse onto x=2");
        let m = ms.run(f, &[5.0], &[(2.0, 2.0)], &opts);
        assert_eq!(m.params, vec![2.0]);
        let spent = evals.load(Ordering::Relaxed);
        assert!(
            spent <= opts.max_evals,
            "one run's budget, not ten: {spent} evals"
        );
        // A deduped run must still agree with what ten duplicate runs
        // would have returned (they are the same minimisation).
        let lone = minimize_bounded(
            |p: &[f64]| (p[0] - 2.0).powi(2),
            &[5.0],
            &[(2.0, 2.0)],
            &opts,
        );
        assert_eq!(m.params, lone.params);
        assert_eq!(m.value.to_bits(), lone.value.to_bits());
    }

    #[test]
    fn partially_pinned_bounds_keep_distinct_starts() {
        // One pinned axis, one free: starts still differ on the free axis
        // and none may be deduped away.
        let ms = MultiStart::new(6, 7);
        let starts = ms.start_points(&[0.0, 0.0], &[(1.0, 1.0), (-4.0, 4.0)]);
        assert_eq!(starts.len(), 7, "no false dedupe: {starts:?}");
        for s in &starts {
            assert_eq!(s[0], 1.0, "pinned axis clamps everywhere");
        }
    }

    #[test]
    fn eval_budget_is_respected() {
        let opts = Options {
            max_evals: 100,
            ..Options::default()
        };
        let m = minimize(|p| p[0] * p[0], &[100.0], &opts);
        assert!(m.evals <= 100 + 2); // initial simplex may finish a step
    }

    #[test]
    #[should_panic(expected = "at least one parameter")]
    fn empty_start_panics() {
        let _ = minimize(|_| 0.0, &[], &Options::default());
    }

    #[test]
    #[should_panic(expected = "inverted bound")]
    fn inverted_bounds_panic() {
        let _ = minimize_bounded(|p| p[0], &[0.0], &[(1.0, -1.0)], &Options::default());
    }

    #[test]
    fn start_on_upper_bound_still_moves() {
        let m = minimize_bounded(
            |p| (p[0] - 2.0).powi(2),
            &[10.0],
            &[(0.0, 10.0)],
            &Options::default(),
        );
        assert!((m.params[0] - 2.0).abs() < 1e-5);
    }
}
