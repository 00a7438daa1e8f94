//! Property-based tests: the model equations respect their structural
//! invariants for any parameter/input combination within bounds.

use memodel::equations::INTERVAL_CAP;
use memodel::equations::{
    branch_resolution, miss_cycles, mlp_correction, predict_cpi, resource_stall,
};
use memodel::{InferredModel, MicroarchParams, ModelInputs, ModelParams};
use proptest::prelude::*;

fn arb_params() -> impl Strategy<Value = ModelParams> {
    let bounds = ModelParams::bounds();
    prop::collection::vec(0.0f64..1.0, 10).prop_map(move |u| {
        let mut b = [0.0; 10];
        for (i, (v, (lo, hi))) in u.iter().zip(bounds).enumerate() {
            b[i] = lo + v * (hi - lo);
        }
        ModelParams { b }
    })
}

fn arb_inputs() -> impl Strategy<Value = ModelInputs> {
    (
        0.0f64..0.02,  // mpu_br
        0.0f64..0.02,  // mpu_l1i
        0.0f64..0.005, // mpu_llci
        0.0f64..0.005, // mpu_itlb
        0.0f64..0.08,  // mpu_dl1
        0.0f64..0.1,   // mpu_dl2
        0.0f64..0.05,  // mpu_dtlb
        0.0f64..0.5,   // fp
    )
        .prop_map(
            |(mpu_br, mpu_l1i, mpu_llci, mpu_itlb, mpu_dl1, mpu_dl2, mpu_dtlb, fp)| ModelInputs {
                mpu_br,
                mpu_l1i,
                mpu_llci,
                mpu_itlb,
                mpu_dl1,
                mpu_dl2,
                mpu_dtlb,
                fp,
                measured_cpi: 1.0,
            },
        )
}

fn arb_arch() -> impl Strategy<Value = MicroarchParams> {
    (
        2.0f64..6.0,
        8.0f64..32.0,
        8.0f64..40.0,
        100.0f64..400.0,
        20.0f64..80.0,
    )
        .prop_map(|(w, fe, l2, mem, tlb)| MicroarchParams::new(w, fe, l2, mem, tlb))
}

proptest! {
    /// The prediction is always finite, and never below the base component.
    #[test]
    fn prediction_bounded_below_by_base(
        arch in arb_arch(),
        params in arb_params(),
        inputs in arb_inputs(),
    ) {
        let cpi = predict_cpi(&arch, &params, &inputs);
        prop_assert!(cpi.is_finite());
        prop_assert!(cpi >= 1.0 / arch.width - 1e-12);
    }

    /// The prediction decomposes exactly into base + misses + stall.
    #[test]
    fn prediction_decomposes(
        arch in arb_arch(),
        params in arb_params(),
        inputs in arb_inputs(),
    ) {
        let whole = predict_cpi(&arch, &params, &inputs);
        let parts = 1.0 / arch.width
            + miss_cycles(&arch, &params, &inputs)
            + resource_stall(&arch, &params, &inputs);
        prop_assert!((whole - parts).abs() < 1e-9);
    }

    /// The fitted model's per-term kernel (behind `predict`, `stack_for`
    /// and the regression objective) is the equations oracle at the
    /// default cap, bit for bit — including zero miss rates.
    #[test]
    fn model_kernel_matches_equations_at_default_cap(
        arch in arb_arch(),
        params in arb_params(),
        inputs in arb_inputs(),
        zeros in 0u8..16,
    ) {
        let mut inputs = inputs;
        for (bit, rate) in [&mut inputs.mpu_br, &mut inputs.mpu_dl2, &mut inputs.mpu_dtlb, &mut inputs.mpu_l1i]
            .into_iter()
            .enumerate()
        {
            if zeros & (1 << bit) != 0 {
                *rate = 0.0;
            }
        }
        let model = InferredModel::from_parts(arch, params, INTERVAL_CAP, 0.0);
        let stack = model.stack_for(&inputs);
        let oracle = predict_cpi(&arch, &params, &inputs);
        prop_assert_eq!(model.predict(&inputs).to_bits(), oracle.to_bits());
        prop_assert_eq!(stack.total().to_bits(), oracle.to_bits());
        prop_assert_eq!(
            stack.resource.to_bits(),
            resource_stall(&arch, &params, &inputs).to_bits()
        );
        prop_assert_eq!(
            stack.branch_resolution.to_bits(),
            branch_resolution(&params, &inputs).to_bits()
        );
        prop_assert_eq!(stack.mlp.to_bits(), mlp_correction(&params, &inputs).to_bits());
    }

    /// MLP is clamped to [1, 1e4] and the stall term is non-negative.
    #[test]
    fn component_ranges(
        arch in arb_arch(),
        params in arb_params(),
        inputs in arb_inputs(),
    ) {
        let mlp = mlp_correction(&params, &inputs);
        prop_assert!((1.0..=1e4).contains(&mlp));
        prop_assert!(resource_stall(&arch, &params, &inputs) >= 0.0);
        prop_assert!(branch_resolution(&params, &inputs) >= 0.0);
    }

    /// Adding I-cache misses can only increase the prediction (the other
    /// terms do not depend on mpu_l1i).
    #[test]
    fn icache_term_is_monotone(
        arch in arb_arch(),
        params in arb_params(),
        inputs in arb_inputs(),
        extra in 0.001f64..0.02,
    ) {
        // Hold the stall damping fixed by comparing the miss term directly.
        let mut more = inputs;
        more.mpu_l1i += extra;
        let a = inputs.mpu_l1i * arch.c_l2;
        let b = more.mpu_l1i * arch.c_l2;
        prop_assert!(b > a);
        // And the full model (damping may offset but never inverts the
        // direction beyond the stall's own magnitude).
        let full_a = predict_cpi(&arch, &params, &inputs);
        let full_b = predict_cpi(&arch, &params, &more);
        let stall_a = resource_stall(&arch, &params, &inputs);
        prop_assert!(full_b + stall_a >= full_a - 1e-9);
    }
}
