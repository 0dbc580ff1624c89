//! The CAIDA *as-rel* ("serial-1") text format.
//!
//! The de-facto interchange format for AS-relationship snapshots — the
//! paper's "inferred links" are literally the April 2018 file in this format
//! from `publicdata.caida.org/datasets/as-relationships/`:
//!
//! ```text
//! # input clique: 174 209 286 …
//! # <provider>|<customer>|-1
//! # <peer>|<peer>|0
//! 1|11537|0
//! 174|1299|0
//! 174|29791|-1
//! ```
//!
//! Reading/writing this format lets the analysis pipeline consume external
//! inference snapshots (or export ours for downstream tools).

use crate::common::Inference;
use asgraph::{Asn, Link, Rel};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Serialises an inference to the as-rel format, clique header included.
#[must_use]
pub fn to_caida_text(inference: &Inference) -> String {
    let mut out = String::new();
    if !inference.clique.is_empty() {
        let members: Vec<String> = inference.clique.iter().map(|a| a.0.to_string()).collect();
        let _ = writeln!(out, "# input clique: {}", members.join(" "));
    }
    let _ = writeln!(out, "# <provider-as>|<customer-as>|-1");
    let _ = writeln!(out, "# <peer-as>|<peer-as>|0");
    for (link, rel) in &inference.rels {
        match rel {
            Rel::P2c { provider } => {
                let customer = link.other(*provider).expect("provider is an endpoint");
                let _ = writeln!(out, "{}|{}|-1", provider.0, customer.0);
            }
            Rel::P2p => {
                let _ = writeln!(out, "{}|{}|0", link.a().0, link.b().0);
            }
            Rel::S2s => {
                // CAIDA's serial-1 has no sibling code; the convention in
                // derived datasets is 1.
                let _ = writeln!(out, "{}|{}|1", link.a().0, link.b().0);
            }
        }
    }
    out
}

/// Parses the as-rel format back into an [`Inference`].
pub fn from_caida_text(text: &str) -> Result<Inference, String> {
    let mut inference = Inference {
        classifier: "caida-serial1".into(),
        ..Default::default()
    };
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(clique) = line.strip_prefix("# input clique:") {
            inference.clique = clique
                .split_whitespace()
                .map(|w| w.parse::<u32>().map(Asn))
                .collect::<Result<BTreeSet<Asn>, _>>()
                .map_err(|_| format!("line {line_no}: bad clique member"))?;
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split('|').collect();
        if fields.len() < 3 {
            return Err(format!("line {line_no}: expected a|b|rel"));
        }
        let a: u32 = fields[0]
            .parse()
            .map_err(|_| format!("line {line_no}: bad ASN {:?}", fields[0]))?;
        let b: u32 = fields[1]
            .parse()
            .map_err(|_| format!("line {line_no}: bad ASN {:?}", fields[1]))?;
        let link = Link::new(Asn(a), Asn(b)).ok_or_else(|| format!("line {line_no}: self link"))?;
        let rel = match fields[2] {
            "-1" => Rel::P2c { provider: Asn(a) },
            "0" => Rel::P2p,
            "1" => Rel::S2s,
            other => return Err(format!("line {line_no}: bad relationship {other:?}")),
        };
        if let Some(existing) = inference.rels.insert(link, rel) {
            if existing != rel {
                return Err(format!("line {line_no}: conflicting entries for {link}"));
            }
        }
    }
    Ok(inference)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AsRank;
    use crate::Classifier;
    use asgraph::{AsPath, PathSet};

    fn sample_inference() -> Inference {
        let mut ps = PathSet::new();
        let mk = |hops: &[u32]| AsPath::new(hops.iter().map(|&h| Asn(h)).collect());
        ps.push(Asn(10), mk(&[10, 2, 1, 4, 5]));
        ps.push(Asn(11), mk(&[11, 1, 2, 6]));
        ps.push(Asn(12), mk(&[12, 1, 7]));
        ps.push(Asn(12), mk(&[12, 2, 8]));
        AsRank::new().infer(&ps)
    }

    #[test]
    fn roundtrip() {
        let inf = sample_inference();
        let text = to_caida_text(&inf);
        assert!(text.contains("# input clique:"));
        let parsed = from_caida_text(&text).unwrap();
        assert_eq!(parsed.rels, inf.rels);
        assert_eq!(parsed.clique, inf.clique);
    }

    #[test]
    fn parses_real_world_shape() {
        let text = "\
# input clique: 174 3356
# <provider-as>|<customer-as>|-1
1|11537|0
174|29791|-1
174|3356|0
";
        let inf = from_caida_text(text).unwrap();
        assert_eq!(inf.rels.len(), 3);
        assert_eq!(
            inf.rel(Link::new(Asn(174), Asn(29791)).unwrap()),
            Some(Rel::P2c { provider: Asn(174) })
        );
        assert_eq!(
            inf.rel(Link::new(Asn(174), Asn(3356)).unwrap()),
            Some(Rel::P2p)
        );
        assert!(inf.clique.contains(&Asn(174)));
    }

    #[test]
    fn rejects_malformed() {
        assert!(from_caida_text("1|2\n").is_err());
        assert!(from_caida_text("1|2|9\n").is_err());
        assert!(from_caida_text("x|2|0\n").is_err());
        assert!(from_caida_text("2|2|0\n").is_err());
        assert!(from_caida_text("# input clique: abc\n").is_err());
        // Duplicate consistent entries are fine; conflicting ones are not.
        assert!(from_caida_text("1|2|0\n1|2|0\n").is_ok());
        assert!(from_caida_text("1|2|0\n1|2|-1\n").is_err());
    }

    /// Every single-token substitution and insertion into a serial-1 text
    /// is rejected, or parses to an inference that survives a round trip.
    #[test]
    fn mutated_text_is_rejected_or_round_trips() {
        let text = "# input clique: 174 3356\n174|3356|0\n174|29791|-1|bgp\n";
        let tokens = ["|", "-1", "#", "+5", "4294967296", "é", "\t", "\n"];
        let cuts: Vec<usize> = text
            .char_indices()
            .map(|(i, _)| i)
            .chain([text.len()])
            .collect();
        let mut mutants = Vec::new();
        for tok in tokens {
            for &at in &cuts {
                mutants.push(format!("{}{tok}{}", &text[..at], &text[at..]));
            }
            for w in cuts.windows(2) {
                mutants.push(format!("{}{tok}{}", &text[..w[0]], &text[w[1]..]));
            }
        }
        let (mut rejected, mut parsed) = (0usize, 0usize);
        for mutant in &mutants {
            let Ok(inference) = from_caida_text(mutant) else {
                rejected += 1;
                continue;
            };
            let again = from_caida_text(&to_caida_text(&inference))
                .unwrap_or_else(|e| panic!("{mutant:?} re-encodes unparsably: {e}"));
            assert_eq!(again.rels, inference.rels, "{mutant:?}");
            assert_eq!(again.clique, inference.clique, "{mutant:?}");
            parsed += 1;
        }
        assert!(
            rejected > 0 && parsed > 0,
            "{rejected} rejected, {parsed} parsed"
        );
    }

    #[test]
    fn sibling_code() {
        let mut inf = Inference::default();
        inf.rels
            .insert(Link::new(Asn(1), Asn(2)).unwrap(), Rel::S2s);
        let text = to_caida_text(&inf);
        assert!(text.contains("1|2|1"));
        let parsed = from_caida_text(&text).unwrap();
        assert_eq!(parsed.rels, inf.rels);
    }
}
