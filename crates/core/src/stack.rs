//! Model-estimated CPI stacks — the paper's headline capability: stacks on
//! hardware whose counters cannot measure them directly.

use std::fmt;

/// A CPI stack estimated by the mechanistic-empirical model: each term of
/// Eq. 1 divided by `N`, so the components sum to the predicted CPI.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpiStack {
    /// Base component `1/D` — useful work.
    pub base: f64,
    /// L1 I-cache miss component (`mpµ_L1I · c_L2`).
    pub l1i: f64,
    /// I-side last-level miss component (`mpµ_L2I · c_mem`).
    pub llc_i: f64,
    /// I-TLB component (`mpµ_ITLB · c_TLB`).
    pub itlb: f64,
    /// Branch misprediction component (`mpµ_br · (c_br + c_fe)`).
    pub branch: f64,
    /// Long-latency load component (`mpµ_DL2 · c_mem / MLP`).
    pub llc_d: f64,
    /// D-TLB component (`mpµ_DTLB · c_TLB / MLP`).
    pub dtlb: f64,
    /// Resource stall component (Eq. 4).
    pub resource: f64,
    /// The fitted branch resolution time `c_br` behind the branch component
    /// (exposed for delta stacks, which split the branch bar into counts,
    /// resolution and pipeline depth).
    pub branch_resolution: f64,
    /// The fitted MLP correction behind the memory components (exposed for
    /// delta stacks, which split the memory bar into counts, MLP and
    /// latency).
    pub mlp: f64,
}

impl CpiStack {
    /// Sum of all components: the model's predicted CPI.
    pub fn total(&self) -> f64 {
        self.base
            + self.l1i
            + self.llc_i
            + self.itlb
            + self.branch
            + self.llc_d
            + self.dtlb
            + self.resource
    }

    /// Components as `(name, value)` pairs in reporting order (the
    /// auxiliary `branch_resolution`/`mlp` diagnostics are not components).
    pub fn components(&self) -> [(&'static str, f64); 8] {
        [
            ("base", self.base),
            ("l1i_miss", self.l1i),
            ("llc_i_miss", self.llc_i),
            ("itlb_miss", self.itlb),
            ("branch_mispredict", self.branch),
            ("llc_d_miss", self.llc_d),
            ("dtlb_miss", self.dtlb),
            ("resource_stall", self.resource),
        ]
    }

    /// The fraction of predicted CPI lost to miss events (everything except
    /// the base component).
    pub fn overhead_fraction(&self) -> f64 {
        1.0 - self.base / self.total()
    }
}

/// The text form served for every `stack` line:
/// `CPI <total> = <name>:<value> ...`, every number as `{:.3}` would print
/// it, components at or below 0.0005 left out.
impl fmt::Display for CpiStack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("CPI ")?;
        fixed3(f, self.total())?;
        f.write_str(" =")?;
        for (name, value) in self.components() {
            if value > 0.0005 {
                f.write_str(" ")?;
                f.write_str(name)?;
                f.write_str(":")?;
                fixed3(f, value)?;
            }
        }
        Ok(())
    }
}

/// Writes `v` byte-for-byte as `write!(f, "{v:.3}")` does, by integer
/// arithmetic where that is provably exact.
///
/// `{:.3}` prints the exact decimal value of `v` rounded to the nearest
/// multiple of 0.001, with a `-` whenever the sign bit is set (so `-0.0`
/// and `-0.0001` both print `-0.000`). For `|v| · 1000 < 1e9` the product
/// `x = fl(|v| · 1000)` lies within half an ulp of the exact product `X`,
/// and half an ulp below 2^30 is at most 2^-24, so `|x − X| < 1.2e-7`.
/// `x − trunc(x)` is exact (both operands are multiples of `ulp(x)`), so
/// the computed fraction is within 1.2e-7 of `X`'s fraction modulo 1. When
/// it is more than 1e-6 from ½, `X` rounds to the same integer as `x`
/// does; an `x` that crossed an integer boundary still rounds to the right
/// side, because such an `X` sits within 1.2e-7 of that integer. The
/// rounded integer `q` is then printed as `q / 1000 "." q % 1000`.
/// Near-ties, `|v| ≥ 1e6`, NaN and ±∞ take `{:.3}` itself.
fn fixed3(f: &mut fmt::Formatter<'_>, v: f64) -> fmt::Result {
    let x = v.abs() * 1000.0;
    if x < 1e9 {
        // `as` truncates, which is `floor` for the non-negative `x`
        // (and, unlike `floor`, is not a libm call on baseline x86-64).
        let whole = x as u32;
        let frac = x - f64::from(whole);
        if (frac - 0.5).abs() > 1e-6 {
            let mut q = whole + u32::from(frac > 0.5);
            // Longest output: `-` + seven integer digits (1e6 after a
            // round-up) + `.` + three decimals.
            let mut buf = [0u8; 12];
            let mut at = buf.len();
            for _ in 0..3 {
                at -= 1;
                buf[at] = b'0' + (q % 10) as u8;
                q /= 10;
            }
            at -= 1;
            buf[at] = b'.';
            loop {
                at -= 1;
                buf[at] = b'0' + (q % 10) as u8;
                q /= 10;
                if q == 0 {
                    break;
                }
            }
            if v.is_sign_negative() {
                at -= 1;
                buf[at] = b'-';
            }
            return f.write_str(std::str::from_utf8(&buf[at..]).expect("ASCII digits"));
        }
    }
    write!(f, "{v:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stack() -> CpiStack {
        CpiStack {
            base: 0.25,
            l1i: 0.02,
            llc_i: 0.01,
            itlb: 0.005,
            branch: 0.15,
            llc_d: 0.40,
            dtlb: 0.03,
            resource: 0.10,
            branch_resolution: 12.0,
            mlp: 2.5,
        }
    }

    #[test]
    fn total_sums_components() {
        let s = stack();
        let sum: f64 = s.components().iter().map(|(_, v)| v).sum();
        assert!((s.total() - sum).abs() < 1e-12);
        assert!((s.total() - 0.965).abs() < 1e-12);
    }

    #[test]
    fn overhead_fraction() {
        let s = stack();
        assert!((s.overhead_fraction() - (1.0 - 0.25 / 0.965)).abs() < 1e-12);
    }

    /// The `Display` body before `fixed3` existed: the oracle every
    /// rendered line must equal byte for byte.
    fn oracle(s: &CpiStack) -> String {
        let mut out = format!("CPI {:.3} =", s.total());
        for (name, value) in s.components() {
            if value > 0.0005 {
                out += &format!(" {name}:{value:.3}");
            }
        }
        out
    }

    struct Fixed3(f64);

    impl fmt::Display for Fixed3 {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            fixed3(f, self.0)
        }
    }

    fn assert_fixed3(v: f64) {
        assert_eq!(
            Fixed3(v).to_string(),
            format!("{v:.3}"),
            "{v:e} (bits {:#018x})",
            v.to_bits()
        );
    }

    /// `v` and its two neighbouring doubles.
    fn assert_fixed3_around(v: f64) {
        assert_fixed3(v);
        assert_fixed3(f64::from_bits(v.to_bits() + 1));
        if v != 0.0 {
            assert_fixed3(f64::from_bits(v.to_bits() - 1));
        }
    }

    #[test]
    fn fixed3_matches_format_at_the_edges() {
        for v in [
            0.0,
            -0.0,
            -0.0001,
            -0.000_499_9,
            0.0005,
            -0.0005,
            0.0015,
            0.0025,
            1.0005,
            999_999.999_4,
            999_999.999_5,
            999_999.999_6,
            1e6,
            1e6 + 0.0005,
            1e300,
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::EPSILON,
            5e-324,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            assert_fixed3_around(v.abs());
            assert_fixed3_around(-v.abs());
            assert_fixed3(v);
        }
        // Every exact `k/2000` tie in 0..100 (the `{:.3}` rounding
        // boundary) and its neighbours, both signs.
        for k in 0..200_000u32 {
            let v = f64::from(k) / 2000.0;
            assert_fixed3_around(v);
            assert_fixed3_around(-v);
        }
        // The fast path's upper limit, approached from both sides.
        let (mut below, mut above) = (1e6f64, 1e6f64);
        for _ in 0..2000 {
            below = f64::from_bits(below.to_bits() - 1);
            above = f64::from_bits(above.to_bits() + 1);
            assert_fixed3(below);
            assert_fixed3(above);
            assert_fixed3(-below);
        }
    }

    #[test]
    fn fixed3_matches_format_over_random_magnitudes() {
        // xorshift64*: log-uniform magnitudes 1e-4 … 1e7, random sign.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_f491_4f6c_dd1d)
        };
        for _ in 0..200_000 {
            let unit = (next() >> 11) as f64 / (1u64 << 53) as f64;
            let v = 10f64.powf(-4.0 + 11.0 * unit);
            assert_fixed3(if next() & 1 == 0 { v } else { -v });
        }
    }

    #[test]
    fn display_matches_the_format_oracle() {
        let mut s = stack();
        assert_eq!(s.to_string(), oracle(&s));
        assert_eq!(
            s.to_string(),
            "CPI 0.965 = base:0.250 l1i_miss:0.020 llc_i_miss:0.010 itlb_miss:0.005 \
             branch_mispredict:0.150 llc_d_miss:0.400 dtlb_miss:0.030 resource_stall:0.100"
        );
        s.dtlb = -0.0;
        s.l1i = 0.0005;
        s.llc_i = 0.0005000001;
        s.resource = f64::INFINITY;
        assert_eq!(s.to_string(), oracle(&s));
        s.base = f64::NAN;
        assert_eq!(s.to_string(), oracle(&s));
    }

    #[test]
    fn display_skips_negligible() {
        let mut s = stack();
        s.itlb = 0.0;
        let text = s.to_string();
        assert!(text.contains("llc_d_miss"));
        assert!(!text.contains("itlb"));
    }
}
