//! RPSL `aut-num` routing-policy objects (RFC 2622 subset).
//!
//! WHOIS databases carry voluntarily-maintained policy records whose
//! import/export lines encode relationships:
//!
//! * provider: `import: from ASx accept ANY` (we accept everything from them),
//! * customer: `export: to ASx announce ANY` (we give them everything),
//! * peer: symmetric `accept <their-as-set>` / `announce <our-as-set>`.
//!
//! Records go stale (§3.2): a configurable share of lines still describes a
//! relationship that no longer matches the ground truth.

use crate::config::ValDataConfig;
use crate::set::{LabelSource, ValidationSet};
use asgraph::{Asn, CsrGraph, Link, Rel};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::fmt::Write as _;
use topogen::Topology;

/// One policy line of an `aut-num` object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyLine {
    /// The neighbor the policy applies to.
    pub neighbor: Asn,
    /// The relationship the line pair encodes, from the object owner's view.
    pub rel: Rel,
}

/// A simplified `aut-num` object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AutNum {
    /// The object's AS.
    pub asn: Asn,
    /// Maintainer handle.
    pub mntner: String,
    /// Last-modified date, `YYYYMMDD`.
    pub changed: String,
    /// Policy lines.
    pub policies: Vec<PolicyLine>,
}

impl AutNum {
    /// Renders the object in RPSL syntax.
    #[must_use]
    pub fn to_rpsl(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "aut-num:    AS{}", self.asn.0);
        let _ = writeln!(out, "as-name:    AS{}-NET", self.asn.0);
        let _ = writeln!(out, "mnt-by:     {}", self.mntner);
        let _ = writeln!(
            out,
            "changed:    noc@as{}.example {}",
            self.asn.0, self.changed
        );
        for p in &self.policies {
            let n = p.neighbor.0;
            match p.rel {
                // Neighbor is our provider: accept ANY, announce only ours.
                Rel::P2c { provider } if provider == p.neighbor => {
                    let _ = writeln!(out, "import:     from AS{n} accept ANY");
                    let _ = writeln!(out, "export:     to AS{n} announce AS{}", self.asn.0);
                }
                // Neighbor is our customer: accept theirs, announce ANY.
                Rel::P2c { .. } => {
                    let _ = writeln!(out, "import:     from AS{n} accept AS{n}");
                    let _ = writeln!(out, "export:     to AS{n} announce ANY");
                }
                Rel::P2p => {
                    let _ = writeln!(out, "import:     from AS{n} accept AS-SET-{n}");
                    let _ = writeln!(out, "export:     to AS{n} announce AS-SET-{}", self.asn.0);
                }
                Rel::S2s => {
                    let _ = writeln!(out, "import:     from AS{n} accept ANY");
                    let _ = writeln!(out, "export:     to AS{n} announce ANY");
                }
            }
        }
        out.push_str("source:     BREVALDB\n");
        out
    }

    /// Parses one object back from RPSL text (subset grammar; tolerant of
    /// unknown attributes).
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut asn: Option<Asn> = None;
        let mut mntner = String::new();
        let mut changed = String::new();
        // neighbor -> (accepts_any, announces_any, seen)
        let mut imports: Vec<(Asn, bool)> = Vec::new();
        let mut exports: Vec<(Asn, bool)> = Vec::new();
        for raw in text.lines() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('%') || line.starts_with('#') {
                continue;
            }
            let Some((key, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            match key.trim() {
                "aut-num" => {
                    asn = Some(
                        value
                            .parse::<Asn>()
                            .map_err(|e| format!("bad aut-num: {e}"))?,
                    );
                }
                "mnt-by" => mntner = value.to_owned(),
                "changed" => {
                    changed = value.split_whitespace().last().unwrap_or("").to_owned();
                }
                "import" => {
                    // from ASx accept (ANY | …)
                    let mut words = value.split_whitespace();
                    if words.next() != Some("from") {
                        continue;
                    }
                    let Some(neighbor) = words.next().and_then(|w| w.parse::<Asn>().ok()) else {
                        continue;
                    };
                    let accept_any = value.ends_with("ANY");
                    imports.push((neighbor, accept_any));
                }
                "export" => {
                    let mut words = value.split_whitespace();
                    if words.next() != Some("to") {
                        continue;
                    }
                    let Some(neighbor) = words.next().and_then(|w| w.parse::<Asn>().ok()) else {
                        continue;
                    };
                    let announce_any = value.ends_with("ANY");
                    exports.push((neighbor, announce_any));
                }
                _ => {}
            }
        }
        let asn = asn.ok_or("missing aut-num attribute")?;
        let mut policies = Vec::new();
        for (neighbor, accept_any) in &imports {
            let announce_any = exports
                .iter()
                .find(|(n, _)| n == neighbor)
                .map(|(_, a)| *a)
                .unwrap_or(false);
            let rel = match (accept_any, announce_any) {
                (true, true) => Rel::S2s,
                (true, false) => Rel::P2c {
                    provider: *neighbor,
                },
                (false, true) => Rel::P2c { provider: asn },
                (false, false) => Rel::P2p,
            };
            policies.push(PolicyLine {
                neighbor: *neighbor,
                rel,
            });
        }
        Ok(AutNum {
            asn,
            mntner,
            changed,
            policies,
        })
    }
}

/// Generates `aut-num` objects for a share of publishing ASes, with
/// configurable staleness. `graph` is the topology's
/// [`Topology::ground_truth_graph`], which lists each AS's neighbors.
#[must_use]
pub fn generate_autnums(topology: &Topology, graph: &CsrGraph, cfg: &ValDataConfig) -> Vec<AutNum> {
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0x5250_534C);
    let asn_of = |&n: &u32| graph.indexer().asn(n);
    let mut out = Vec::new();
    // Node ids follow ASN order, so the `n`-th AS of the topology is node `n`.
    for (id, info) in (0u32..).zip(topology.ases.values()) {
        if !info.publishes_communities || !rng.random_bool(cfg.rpsl_coverage) {
            continue;
        }
        let asn = info.asn;
        let mut policies = Vec::new();
        let mut push = |neighbor: Asn, rel: Rel, rng: &mut ChaCha8Rng| {
            // Staleness: the line pair describes an outdated relationship.
            let rel = if rng.random_bool(cfg.rpsl_stale_prob) {
                match rel {
                    Rel::P2p => Rel::P2c { provider: asn },
                    Rel::P2c { .. } => Rel::P2p,
                    Rel::S2s => Rel::S2s,
                }
            } else {
                rel
            };
            policies.push(PolicyLine { neighbor, rel });
        };
        for p in graph.providers(id).iter().map(asn_of) {
            push(p, Rel::P2c { provider: p }, &mut rng);
        }
        for c in graph.customers(id).iter().map(asn_of) {
            push(c, Rel::P2c { provider: asn }, &mut rng);
        }
        for p in graph.peers(id).iter().map(asn_of) {
            push(p, Rel::P2p, &mut rng);
        }
        if policies.is_empty() {
            continue;
        }
        out.push(AutNum {
            asn,
            mntner: format!("MNT-{}", info.org.0.trim_start_matches('@').to_uppercase()),
            changed: "20160115".into(), // records lag the snapshot
            policies,
        });
    }
    out
}

/// Extracts validation labels from `aut-num` objects.
#[must_use]
pub fn labels_from_autnums(objects: &[AutNum], _cfg: &ValDataConfig) -> ValidationSet {
    let mut set = ValidationSet::new();
    for obj in objects {
        for p in &obj.policies {
            if let Some(link) = Link::new(obj.asn, p.neighbor) {
                set.add(link, p.rel, LabelSource::Rpsl);
            }
        }
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use topogen::TopologyConfig;

    #[test]
    fn rpsl_roundtrip() {
        let obj = AutNum {
            asn: Asn(64_900),
            mntner: "MNT-EXAMPLE".into(),
            changed: "20160115".into(),
            policies: vec![
                PolicyLine {
                    neighbor: Asn(174),
                    rel: Rel::P2c { provider: Asn(174) },
                },
                PolicyLine {
                    neighbor: Asn(1000),
                    rel: Rel::P2c {
                        provider: Asn(64_900),
                    },
                },
                PolicyLine {
                    neighbor: Asn(2000),
                    rel: Rel::P2p,
                },
                PolicyLine {
                    neighbor: Asn(3000),
                    rel: Rel::S2s,
                },
            ],
        };
        let text = obj.to_rpsl();
        assert!(text.contains("import:     from AS174 accept ANY"));
        assert!(text.contains("export:     to AS1000 announce ANY"));
        let parsed = AutNum::parse(&text).unwrap();
        assert_eq!(parsed, obj);
    }

    #[test]
    fn parse_tolerates_unknown_attributes() {
        let text = "aut-num: AS65001\nremarks: hi there\ndescr: a network\n";
        let obj = AutNum::parse(text).unwrap();
        assert_eq!(obj.asn, Asn(65_001));
        assert!(obj.policies.is_empty());
        assert!(AutNum::parse("as-name: NO-AUTNUM\n").is_err());
    }

    #[test]
    fn generated_autnums_mostly_match_ground_truth() {
        let topo = topogen::generate(&TopologyConfig::small(41));
        let cfg = ValDataConfig {
            rpsl_stale_prob: 0.0,
            rpsl_coverage: 1.0,
            ..ValDataConfig::default()
        };
        let objects = generate_autnums(&topo, &topo.ground_truth_graph(), &cfg);
        assert!(!objects.is_empty());
        let labels = labels_from_autnums(&objects, &cfg);
        let mut total = 0;
        let mut correct = 0;
        for (link, records) in &labels.entries {
            let Some(gt) = topo.gt_rel(*link) else {
                continue;
            };
            for r in records {
                total += 1;
                if r.rel == gt.base {
                    correct += 1;
                }
            }
        }
        assert!(total > 100);
        assert_eq!(correct, total, "no staleness ⇒ all labels correct");
    }

    #[test]
    fn staleness_introduces_disagreements() {
        let topo = topogen::generate(&TopologyConfig::small(41));
        let cfg = ValDataConfig {
            rpsl_stale_prob: 0.5,
            rpsl_coverage: 1.0,
            ..ValDataConfig::default()
        };
        let labels = labels_from_autnums(
            &generate_autnums(&topo, &topo.ground_truth_graph(), &cfg),
            &cfg,
        );
        let mut wrong = 0;
        for (link, records) in &labels.entries {
            let Some(gt) = topo.gt_rel(*link) else {
                continue;
            };
            wrong += records.iter().filter(|r| r.rel != gt.base).count();
        }
        assert!(wrong > 50, "expected many stale labels, got {wrong}");
    }

    #[test]
    fn objects_round_trip_through_text() {
        let topo = topogen::generate(&TopologyConfig::small(41));
        let cfg = ValDataConfig::default();
        for obj in generate_autnums(&topo, &topo.ground_truth_graph(), &cfg)
            .iter()
            .take(50)
        {
            let parsed = AutNum::parse(&obj.to_rpsl()).unwrap();
            assert_eq!(&parsed, obj);
        }
    }
}
