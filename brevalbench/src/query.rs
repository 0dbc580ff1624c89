//! The seeded `brevald` query mix.
//!
//! A copy of `qpsbench`'s generator and weights (that one lives in a
//! binary, which no other package can import): ASNs are drawn from the
//! served scenario's real AS population plus a sliver of unknown ASNs, so
//! cone walks and link lookups do real work, and every generated line
//! parses and answers `ok`.

use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// `(kind, weight)`, skewed toward the point lookups a server sees most.
pub const MIX: [(&str, u32); 6] = [
    ("cone", 30),
    ("member", 20),
    ("class", 25),
    ("ascov", 14),
    ("slice", 10),
    ("stats", 1),
];

/// One query of `kind` over the AS population `asns`.
pub fn generate(rng: &mut ChaCha8Rng, asns: &[u32], kind: &str) -> String {
    let pick = |rng: &mut ChaCha8Rng| -> u32 {
        if asns.is_empty() || rng.random_range(0..50u32) == 0 {
            rng.random_range(1..100_000u32)
        } else {
            asns[rng.random_range(0..asns.len())]
        }
    };
    match kind {
        "cone" => format!("cone {}", pick(rng)),
        "member" => format!("member {} {}", pick(rng), pick(rng)),
        "class" => {
            let a = pick(rng);
            let mut b = pick(rng);
            if b == a {
                b = a.wrapping_add(1).max(1);
            }
            format!("class {a} {b}")
        }
        "ascov" => format!("ascov {}", pick(rng)),
        "slice" => {
            let region = match rng.random_range(0..4u32) {
                0 => "*".to_owned(),
                _ => {
                    let code = rng.random_range(0..=brevald::slices::REGION_NONE);
                    brevald::slices::region_label_of(code).unwrap_or_else(|| "*".to_owned())
                }
            };
            let topo = match rng.random_range(0..4u32) {
                0 => "*",
                _ => {
                    let codes: [u8; 10] = [0, 1, 2, 3, 5, 6, 7, 10, 11, 15];
                    let code = codes[rng.random_range(0..codes.len())];
                    brevald::slices::topo_label_of(code).unwrap_or("*")
                }
            };
            format!("slice {region} {topo}")
        }
        _ => "stats".to_owned(),
    }
}

/// `n` queries in [`MIX`] proportions, shuffled, from `seed`.
#[must_use]
pub fn corpus(seed: u64, asns: &[u32], n: usize) -> Vec<String> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let weight_total: u32 = MIX.iter().map(|(_, w)| w).sum();
    let mut lines = Vec::with_capacity(n);
    for (kind, weight) in MIX {
        let share = (n as u64 * u64::from(weight) / u64::from(weight_total)) as usize;
        for _ in 0..share.max(1) {
            lines.push(generate(&mut rng, asns, kind));
        }
    }
    lines.shuffle(&mut rng);
    lines.truncate(n);
    while lines.len() < n {
        lines.push(generate(&mut rng, asns, "cone"));
    }
    lines
}
