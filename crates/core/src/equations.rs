//! Eq. 1–6 of the paper, as pure functions.
//!
//! Everything here works in per-µop (CPI) space: Eq. 1 divided through by
//! `N`, which is also how the regression's objective is defined (§4: "The
//! predicted value is the number of cycles per micro-operation").
//!
//! ## A note on the interval cap (Eq. 2)
//!
//! The paper's printed formula reads `max(128, 1/mpµ_br)`, but its prose
//! says the factor is *capped* "to prevent the factor to grow indefinitely
//! for workloads that have very few mispredicted branches … the dependence
//! path to the branch is limited by the size of the instruction window."
//! A `max` floors rather than caps; we implement the cap the prose
//! describes (`min(cap, 1/mpµ_br)`, window-sized default 128) and expose
//! the cap for sensitivity analysis (see the ablation benches).

use crate::inputs::ModelInputs;
use crate::params::{MicroarchParams, ModelParams};

/// The instruction-window cap on the branch-resolution interval factor.
pub const INTERVAL_CAP: f64 = 128.0;

/// Floor for rates inside power laws (avoids `0^negative`).
pub(crate) const RATE_FLOOR: f64 = 1e-9;

/// Eq. 2 — branch resolution time `c_br` in cycles.
///
/// `c_br = b1 · min(cap, 1/mpµ_br)^b2 · (1 + b3·fp) · (1 + b4·mpµ_DL1)`
pub fn branch_resolution(params: &ModelParams, inputs: &ModelInputs) -> f64 {
    branch_resolution_capped(params, inputs, INTERVAL_CAP)
}

/// Eq. 2 with an explicit interval cap (for the sensitivity sweep).
pub fn branch_resolution_capped(params: &ModelParams, inputs: &ModelInputs, cap: f64) -> f64 {
    let interval = (1.0 / inputs.mpu_br.max(RATE_FLOOR)).min(cap);
    params.get(1)
        * interval.powf(params.get(2))
        * (1.0 + params.get(3) * inputs.fp)
        * (1.0 + params.get(4) * inputs.mpu_dl1)
}

/// Eq. 3 — the MLP correction factor.
///
/// `MLP = b5 · (mpµ_DL2)^b6 · (mpµ_DTLB)^b7`, clamped to at least 1 (a
/// memory access cannot overlap with fewer than itself).
pub fn mlp_correction(params: &ModelParams, inputs: &ModelInputs) -> f64 {
    let mlp = params.get(5)
        * inputs.mpu_dl2.max(RATE_FLOOR).powf(params.get(6))
        * inputs.mpu_dtlb.max(RATE_FLOOR).powf(params.get(7));
    mlp.clamp(1.0, 1e4)
}

/// Eq. 5 — the undamped resource-stall component `c'_stall`, per µop.
///
/// `c'_stall = b8 · (1 + b9·fp) · (1 + b10·mpµ_DL1)`
pub fn raw_stall(params: &ModelParams, inputs: &ModelInputs) -> f64 {
    params.get(8) * (1.0 + params.get(9) * inputs.fp) * (1.0 + params.get(10) * inputs.mpu_dl1)
}

/// Eq. 6 — total miss-event cycles per µop, `c_miss = Σ mᵢ·cᵢ / N`: the sum
/// of all the miss components of Eq. 1.
pub fn miss_cycles(arch: &MicroarchParams, params: &ModelParams, inputs: &ModelInputs) -> f64 {
    let mlp = mlp_correction(params, inputs);
    let cbr = branch_resolution(params, inputs);
    inputs.mpu_l1i * arch.c_l2
        + inputs.mpu_llci * arch.c_mem
        + inputs.mpu_itlb * arch.c_tlb
        + inputs.mpu_br * (cbr + arch.fe_depth)
        + memory_term(inputs.mpu_dl2, arch.c_mem, mlp)
        + memory_term(inputs.mpu_dtlb, arch.c_tlb, mlp)
}

/// Eq. 4 — the damped resource-stall component, per µop.
///
/// `c_stall = max(0, 1 − c_miss/(N/D + c'_stall)) · c'_stall`: resource
/// stalls shrink as miss events eat the intervals between them.
pub fn resource_stall(arch: &MicroarchParams, params: &ModelParams, inputs: &ModelInputs) -> f64 {
    let raw = raw_stall(params, inputs);
    let miss = miss_cycles(arch, params, inputs);
    let damping = 1.0 - miss / (1.0 / arch.width + raw).max(RATE_FLOOR);
    damping.max(0.0) * raw
}

/// A memory term of Eq. 1 (`m·c / MLP`), zero when there are no misses.
fn memory_term(rate: f64, latency: f64, mlp: f64) -> f64 {
    if rate <= 0.0 {
        0.0
    } else {
        rate * latency / mlp
    }
}

/// Eq. 1 divided by `N`: the predicted cycles per µop.
pub fn predict_cpi(arch: &MicroarchParams, params: &ModelParams, inputs: &ModelInputs) -> f64 {
    let mlp = mlp_correction(params, inputs);
    let cbr = branch_resolution(params, inputs);
    1.0 / arch.width
        + inputs.mpu_l1i * arch.c_l2
        + inputs.mpu_llci * arch.c_mem
        + inputs.mpu_itlb * arch.c_tlb
        + inputs.mpu_br * (cbr + arch.fe_depth)
        + memory_term(inputs.mpu_dl2, arch.c_mem, mlp)
        + memory_term(inputs.mpu_dtlb, arch.c_tlb, mlp)
        + resource_stall(arch, params, inputs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arch() -> MicroarchParams {
        MicroarchParams::new(4.0, 14.0, 19.0, 169.0, 30.0)
    }

    fn inputs() -> ModelInputs {
        ModelInputs {
            mpu_br: 0.005,
            mpu_l1i: 0.001,
            mpu_llci: 0.0001,
            mpu_itlb: 0.0002,
            mpu_dl1: 0.02,
            mpu_dl2: 0.004,
            mpu_dtlb: 0.001,
            fp: 0.1,
            measured_cpi: 1.5,
        }
    }

    #[test]
    fn prediction_is_at_least_base() {
        let p = ModelParams::initial_guess();
        let cpi = predict_cpi(&arch(), &p, &inputs());
        assert!(cpi >= 0.25, "cpi {cpi} below 1/D");
        assert!(cpi.is_finite());
    }

    #[test]
    fn branch_resolution_grows_with_interval_until_cap() {
        let p = ModelParams::initial_guess();
        let mut few = inputs();
        few.mpu_br = 1.0 / 64.0; // interval 64 < cap
        let mut fewer = inputs();
        fewer.mpu_br = 1.0 / 120.0; // interval 120 < cap
        let mut rare = inputs();
        rare.mpu_br = 1e-6; // interval 1e6 → capped at 128
        let c1 = branch_resolution(&p, &few);
        let c2 = branch_resolution(&p, &fewer);
        let c3 = branch_resolution(&p, &rare);
        assert!(c2 > c1, "longer interval → longer resolution");
        let mut capped = inputs();
        capped.mpu_br = 1.0 / 128.0;
        assert!(
            (c3 - branch_resolution(&p, &capped)).abs() < 1e-9,
            "cap binds"
        );
    }

    #[test]
    fn fp_and_l1d_factors_lengthen_resolution() {
        let p = ModelParams::initial_guess();
        let base = branch_resolution(&p, &inputs());
        let mut fpheavy = inputs();
        fpheavy.fp = 0.4;
        assert!(branch_resolution(&p, &fpheavy) > base);
        let mut missy = inputs();
        missy.mpu_dl1 = 0.08;
        assert!(branch_resolution(&p, &missy) > base);
    }

    #[test]
    fn mlp_grows_with_miss_rate_for_positive_exponent() {
        let p = ModelParams::from_slice(&[1.0, 0.5, 1.0, 10.0, 30.0, 0.4, 0.0, 0.3, 2.0, 20.0]);
        let mut sparse = inputs();
        sparse.mpu_dl2 = 1e-4;
        let mut dense = inputs();
        dense.mpu_dl2 = 1e-2;
        assert!(mlp_correction(&p, &dense) > mlp_correction(&p, &sparse));
    }

    #[test]
    fn mlp_is_clamped_to_at_least_one() {
        let p = ModelParams::from_slice(&[1.0, 0.5, 1.0, 10.0, 0.05, 1.0, 1.0, 0.3, 2.0, 20.0]);
        let mut tiny = inputs();
        tiny.mpu_dl2 = 1e-8;
        tiny.mpu_dtlb = 1e-8;
        assert_eq!(mlp_correction(&p, &tiny), 1.0);
    }

    #[test]
    fn zero_miss_rates_zero_the_memory_terms() {
        let p = ModelParams::initial_guess();
        let mut no_mem = inputs();
        no_mem.mpu_dl2 = 0.0;
        no_mem.mpu_dtlb = 0.0;
        let cpi = predict_cpi(&arch(), &p, &no_mem);
        assert!(cpi.is_finite());
        // Rebuild by hand without memory terms: must match.
        let cbr = branch_resolution(&p, &no_mem);
        let expect = 0.25
            + no_mem.mpu_l1i * 19.0
            + no_mem.mpu_llci * 169.0
            + no_mem.mpu_itlb * 30.0
            + no_mem.mpu_br * (cbr + 14.0)
            + resource_stall(&arch(), &p, &no_mem);
        assert!((cpi - expect).abs() < 1e-12);
    }

    #[test]
    fn stall_damping_shrinks_with_miss_pressure() {
        let p = ModelParams::initial_guess();
        let calm = inputs();
        let mut stormy = inputs();
        stormy.mpu_dl2 = 0.05; // drown the run in misses
        let calm_stall = resource_stall(&arch(), &p, &calm);
        let stormy_stall = resource_stall(&arch(), &p, &stormy);
        assert!(
            stormy_stall < calm_stall,
            "more misses → fewer resource stalls ({stormy_stall} vs {calm_stall})"
        );
        assert!(
            stormy_stall >= 0.0,
            "max(0, ·) keeps the component positive"
        );
    }

    #[test]
    fn prediction_decomposes_into_terms() {
        // predict_cpi must equal base + miss components + stall.
        let p = ModelParams::initial_guess();
        let i = inputs();
        let a = arch();
        let total = predict_cpi(&a, &p, &i);
        let parts = 1.0 / a.width + miss_cycles(&a, &p, &i) + resource_stall(&a, &p, &i);
        assert!((total - parts).abs() < 1e-12);
    }
}
