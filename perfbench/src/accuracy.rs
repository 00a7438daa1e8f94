//! The paper's validation numbers, computed outside the timed window from
//! the public evaluation functions: Fig. 2 in-suite CPI error, Fig. 3
//! cross-suite error, and Fig. 5 per-component error against the
//! ASPLOS'06 counter-architecture stacks of `cpicounters`.

use cpicounters::measure_stack;
use memodel::eval::{evaluate_model, summarize, Prediction};
use memodel::InferredModel;
use oosim::machine::MachineConfig;
use pmu::RunRecord;
use regress::metrics::ErrorSummary;
use specgen::WorkloadProfile;

/// Fig. 2: `(mean %, p90 %, share below 20 %)` of |CPI error| pooled over
/// every model's training records.
pub fn in_suite(models: &[(&InferredModel, &[RunRecord])]) -> (f64, f64, f64) {
    let errors: Vec<f64> = models
        .iter()
        .flat_map(|(model, records)| evaluate_model(model, records))
        .map(|p: Prediction| p.error())
        .collect();
    let summary = ErrorSummary::from_errors(&errors);
    let below = ErrorSummary::fraction_below(&errors, 0.20);
    (summary.mean * 100.0, summary.p90 * 100.0, below * 100.0)
}

/// Fig. 3: mean |CPI error| of each CPU2000 model on its machine's
/// CPU2006 records, averaged over the pairs.
pub fn cross_suite(pairs: &[(&InferredModel, &[RunRecord])]) -> f64 {
    let means: Vec<f64> = pairs
        .iter()
        .map(|(model, test)| summarize(&evaluate_model(model, test)).mean * 100.0)
        .collect();
    means.iter().sum::<f64>() / means.len().max(1) as f64
}

const COMPONENTS: [&str; 8] = [
    "base", "L1 I$", "L2 I$", "I-TLB", "branch", "L2 D$", "D-TLB", "resource",
];

/// Fig. 5: re-runs `profiles` on `machine` with stack accounting and
/// returns the worst component's mean |model − truth| as % of CPI, with
/// its name. Runs on `threads` threads; results do not depend on them.
pub fn stack_error(
    model: &InferredModel,
    machine: &MachineConfig,
    profiles: &[WorkloadProfile],
    uops: u64,
    seed: u64,
    threads: usize,
) -> (&'static str, f64) {
    let per_profile = |profile: &WorkloadProfile| {
        let (record, truth) = measure_stack(machine, profile, uops, seed);
        let estimate = model.cpi_stack(&record);
        // The ground truth's unattributed residual folds into resource
        // stalls: the model has no "other" bucket.
        let truth = [
            truth.base,
            truth.l1i,
            truth.llc_i,
            truth.itlb,
            truth.branch,
            truth.llc_d,
            truth.dtlb,
            truth.resource + truth.other,
        ];
        let total: f64 = truth.iter().sum();
        let mut err = [0.0f64; 8];
        for (k, ((_, e), t)) in estimate.components().iter().zip(truth).enumerate() {
            err[k] = (e - t).abs() / total;
        }
        err
    };
    let threads = threads.max(1);
    let chunk = profiles.len().div_ceil(threads).max(1);
    let rows: Vec<[f64; 8]> = std::thread::scope(|scope| {
        let handles: Vec<_> = profiles
            .chunks(chunk)
            .map(|part| scope.spawn(move || part.iter().map(per_profile).collect::<Vec<_>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("stack accounting never panics"))
            .collect()
    });
    let n = rows.len().max(1) as f64;
    let mut worst = ("none", f64::NAN);
    for (k, name) in COMPONENTS.iter().enumerate() {
        let mean = rows.iter().map(|r| r[k]).sum::<f64>() / n * 100.0;
        if worst.1.is_nan() || mean > worst.1 {
            worst = (name, mean);
        }
    }
    worst
}

/// The paper's reference values, printed beside the measured ones as
/// context, never as bounds.
pub fn notes(
    in_mean: f64,
    in_p90: f64,
    below20: f64,
    xsuite: f64,
    worst: (&str, f64),
) -> Vec<String> {
    vec![
        format!(
            "accuracy: in-suite |CPI error| mean {in_mean:.2}% p90 {in_p90:.2}% \
             ({below20:.0}% below 20%) — paper: 9.7% (CPU2000) / 10.5% (CPU2006) mean, \
             90% below 20%"
        ),
        format!("accuracy: cross-suite (CPU2000 model on CPU2006) mean {xsuite:.2}%"),
        format!(
            "accuracy: worst stack component {} {:.2}% of CPI — paper: L2 D$ 9.2%",
            worst.0, worst.1
        ),
    ]
}
