//! Pinned trace digests: the µop stream of a few shipped profiles, hashed
//! field by field, must never move. Any change to the generator's walk, its
//! decode memo or its RNG use that alters a single µop shows up here.

use specgen::{suites, Cracking, MicroOp, TraceGenerator, WorkloadProfile};

/// µops hashed per stream.
const UOPS: usize = 200_000;
/// Seed every pinned stream is generated with.
const SEED: u64 = 42;

/// FNV-1a over a canonical little-endian encoding of every field.
fn digest(ops: impl Iterator<Item = MicroOp>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for op in ops {
        eat(&[op.kind as u8, u8::from(op.macro_first)]);
        eat(&op.pc.to_le_bytes());
        eat(&op.dep1.map_or(0, |d| d.get()).to_le_bytes());
        eat(&op.dep2.map_or(0, |d| d.get()).to_le_bytes());
        match op.addr {
            Some(a) => {
                eat(&[1]);
                eat(&a.to_le_bytes());
            }
            None => eat(&[0]),
        }
        match op.branch {
            Some(b) => {
                eat(&[1, u8::from(b.taken), b.class as u8]);
                eat(&b.target.to_le_bytes());
            }
            None => eat(&[0]),
        }
    }
    h
}

fn find(profiles: &[WorkloadProfile], name: &str) -> WorkloadProfile {
    profiles
        .iter()
        .find(|p| p.name.as_ref() == name)
        .unwrap_or_else(|| panic!("no profile {name}"))
        .clone()
}

#[test]
fn cpu2000_streams_match_pinned_digests() {
    let suite = suites::cpu2000();
    // (profile, default cracking, Netburst-like cracking 1.25)
    let pinned = [
        ("gcc.200", 0xe2ae_7fb2_46e0_7542, 0xcd48_6bdc_0a1f_ede6),
        (
            "perlbmk.diffmail",
            0xbe60_89f0_8b8c_fb08,
            0x61bb_76c6_f1db_fc92,
        ),
        ("mcf.inp", 0xd02d_ccbe_e6b6_2cf8, 0xad23_87e9_5f27_b263),
    ];
    let mut mismatches = Vec::new();
    for (name, neutral, netburst) in pinned {
        let profile = find(&suite, name);
        for (factor, want) in [(1.0, neutral), (1.25, netburst)] {
            let gen = TraceGenerator::new(&profile, Cracking::new(factor), SEED);
            let got = digest(gen.take(UOPS));
            if got != want {
                mismatches.push(format!(
                    "{name} × {factor}: {got:#018x} (pinned {want:#018x})"
                ));
            }
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
