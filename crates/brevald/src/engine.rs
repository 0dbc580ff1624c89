//! Query parsing, the allocation-free evaluation kernel, and response
//! formatting.
//!
//! The pipeline is split in three so the hot middle stays clean:
//!
//! 1. [`parse`] turns a request line into a `Copy` [`Query`] (allocates
//!    nothing but may reject),
//! 2. [`eval`] — the registered deepcheck hot kernel — answers it against
//!    one immutable [`SnapshotSet`] into a fixed-size `Copy` [`Reply`]
//!    (binary searches, bitset probes, and fixed-cell scans only; no
//!    allocation, no locks, no panics),
//! 3. [`format_reply`] renders the reply as one deterministic response
//!    line (allocates the `String`, outside the kernel).
//!
//! Every reply is a pure function of (generation, query), so two reads of
//! the same generation are byte-identical — the property the concurrent
//! reload tests pin down.

use crate::set::{SnapshotSet, MAX_CLASSIFIERS};
use crate::slices;
use asgraph::{Asn, ConeSizes, CsrGraph, Link, PpdcCones, Rel};
use std::fmt::Write as _;

/// A parsed query. `Copy` so batches can fan out without cloning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Query {
    /// Customer-cone and PPDC-cone size of one AS, per classifier.
    Cone(Asn),
    /// Is `member` in the PPDC cone of the first AS? Per classifier.
    Member(Asn, Asn),
    /// Inferred relationship of a link per classifier, the validation
    /// label if the link is validated, and the cross-classifier vote.
    Class(Link),
    /// Per-AS validation coverage (incident links, validated links).
    AsCov(Asn),
    /// Region×topology slice coverage; `None` is a wildcard axis.
    Slice(Option<u8>, Option<u8>),
    /// Generation and corpus counters.
    Stats,
}

impl Query {
    /// The query-kind label used for per-kind observability counters and
    /// per-kind latency reports.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Query::Cone(_) => "cone",
            Query::Member(_, _) => "member",
            Query::Class(_) => "class",
            Query::AsCov(_) => "ascov",
            Query::Slice(_, _) => "slice",
            Query::Stats => "stats",
        }
    }
}

/// Every query kind, in grammar order (for per-kind query mixes and
/// reports).
pub const QUERY_KINDS: [&str; 6] = ["cone", "member", "class", "ascov", "slice", "stats"];

/// Parses one request line. Errors are static grammar hints, never panics.
pub fn parse(line: &str) -> Result<Query, &'static str> {
    let mut it = line.split_whitespace();
    let cmd = it.next().ok_or("empty query")?;
    let query = match cmd {
        "cone" => Query::Cone(parse_asn(it.next())?),
        "member" => Query::Member(parse_asn(it.next())?, parse_asn(it.next())?),
        "class" => {
            let (a, b) = (parse_asn(it.next())?, parse_asn(it.next())?);
            Query::Class(Link::new(a, b).ok_or("class needs two distinct routable ASNs")?)
        }
        "ascov" => Query::AsCov(parse_asn(it.next())?),
        "slice" => {
            let region = parse_axis(it.next(), slices::region_code_of, "unknown region class")?;
            let topo = parse_axis(it.next(), slices::topo_code_of, "unknown topology class")?;
            Query::Slice(region, topo)
        }
        "stats" => Query::Stats,
        _ => return Err("unknown query (try: cone member class ascov slice stats)"),
    };
    if it.next().is_some() {
        return Err("trailing arguments");
    }
    Ok(query)
}

fn parse_asn(tok: Option<&str>) -> Result<Asn, &'static str> {
    tok.ok_or("missing ASN argument")?
        .parse::<u32>()
        .map(Asn)
        .map_err(|_| "ASN is not a u32")
}

fn parse_axis(
    tok: Option<&str>,
    code_of: impl Fn(&str) -> Option<u8>,
    err: &'static str,
) -> Result<Option<u8>, &'static str> {
    let tok = tok.ok_or("missing slice axis (class label or *)")?;
    if tok == "*" {
        return Ok(None);
    }
    code_of(tok).map(Some).ok_or(err)
}

/// Per-classifier cone entry: `None` size means the AS is unknown to that
/// view (not interned / never path-observed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConeEntry {
    /// Customer-cone size over the inferred graph.
    pub cone: Option<u64>,
    /// PPDC (provider/peer observed) cone size.
    pub ppdc: Option<u64>,
}

/// The winning relationship of a cross-classifier vote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Vote {
    /// The relationship with the most exact-equality votes (ties break to
    /// the earliest classifier in serving order).
    pub rel: Rel,
    /// Classifiers voting for `rel`.
    pub votes: u8,
    /// Classifiers that know the link at all.
    pub total: u8,
}

/// A fixed-size, `Copy` answer (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Reply {
    /// Answer to [`Query::Cone`].
    Cone {
        /// The queried AS.
        asn: Asn,
        /// One entry per classifier in serving order.
        per: [Option<ConeEntry>; MAX_CLASSIFIERS],
    },
    /// Answer to [`Query::Member`].
    Member {
        /// The cone owner.
        asn: Asn,
        /// The candidate member.
        member: Asn,
        /// Membership per classifier; `None` = owner not observed there.
        per: [Option<bool>; MAX_CLASSIFIERS],
    },
    /// Answer to [`Query::Class`].
    Class {
        /// The queried link.
        link: Link,
        /// Inferred relationship per classifier (`None` = link unknown).
        per: [Option<Option<Rel>>; MAX_CLASSIFIERS],
        /// The cleaned validation label, if this link is validated.
        validation: Option<Rel>,
        /// The cross-classifier disagreement vote.
        vote: Option<Vote>,
    },
    /// Answer to [`Query::AsCov`].
    AsCov {
        /// The queried AS.
        asn: Asn,
        /// Inferred links incident to it.
        links: u32,
        /// Validated links incident to it.
        validated: u32,
    },
    /// Answer to [`Query::Slice`].
    Slice {
        /// Region axis (code), `None` = wildcard.
        region: Option<u8>,
        /// Topology axis (code), `None` = wildcard.
        topo: Option<u8>,
        /// Inferred links in the slice.
        links: u64,
        /// Validated links in the slice.
        validated: u64,
    },
    /// Answer to [`Query::Stats`].
    Stats {
        /// The generation this reply was computed against.
        generation: u64,
        /// Classifiers in the set.
        classifiers: u8,
        /// Node count of the first classifier's graph.
        nodes: u64,
        /// Total inferred links in the slice table.
        links: u64,
        /// Total validated links in the slice table.
        validated: u64,
    },
}

/// The inferred relationship between two ASes in one CSR view, or `None`
/// if they share no link there. Binary searches over the sorted role
/// segments; allocation-free.
#[must_use]
pub fn rel_between(csr: &CsrGraph, a: Asn, b: Asn) -> Option<Rel> {
    let ia = CsrGraph::indexer(csr).id(a)?;
    let ib = CsrGraph::indexer(csr).id(b)?;
    if CsrGraph::providers(csr, ia).binary_search(&ib).is_ok() {
        return Some(Rel::P2c { provider: b });
    }
    if CsrGraph::customers(csr, ia).binary_search(&ib).is_ok() {
        return Some(Rel::P2c { provider: a });
    }
    if CsrGraph::peers(csr, ia).binary_search(&ib).is_ok() {
        return Some(Rel::P2p);
    }
    if CsrGraph::siblings(csr, ia).binary_search(&ib).is_ok() {
        return Some(Rel::S2s);
    }
    None
}

/// The validation label of `link` in a scored join (ascending by link).
fn scored_validation(scored: &[breval_core::metrics::ScoredLink], link: Link) -> Option<Rel> {
    scored
        .binary_search_by(|s| s.link.cmp(&link))
        .ok()
        .and_then(|i| scored.get(i))
        .map(|s| s.validation)
}

/// Evaluates one query against one immutable generation. This is the
/// registered deepcheck hot kernel: no allocation, no locks, no panics —
/// a pure function of (generation, query), so replies within a generation
/// are byte-identical regardless of thread interleaving.
#[must_use]
pub fn eval(set: &SnapshotSet, query: Query) -> Reply {
    let views = set.classifiers();
    match query {
        Query::Cone(asn) => {
            let mut per: [Option<ConeEntry>; MAX_CLASSIFIERS] = [None; MAX_CLASSIFIERS];
            for (slot, view) in per.iter_mut().zip(views) {
                *slot = Some(ConeEntry {
                    cone: ConeSizes::get(&view.cones, asn).map(|s| s as u64),
                    ppdc: PpdcCones::size(&view.ppdc, asn).map(|s| s as u64),
                });
            }
            Reply::Cone { asn, per }
        }
        Query::Member(asn, member) => {
            let mut per: [Option<bool>; MAX_CLASSIFIERS] = [None; MAX_CLASSIFIERS];
            for (slot, view) in per.iter_mut().zip(views) {
                *slot = PpdcCones::contains(&view.ppdc, asn, member);
            }
            Reply::Member { asn, member, per }
        }
        Query::Class(link) => {
            let mut per: [Option<Option<Rel>>; MAX_CLASSIFIERS] = [None; MAX_CLASSIFIERS];
            let mut validation: Option<Rel> = None;
            for (slot, view) in per.iter_mut().zip(views) {
                *slot = Some(rel_between(&view.csr, link.a(), link.b()));
                if validation.is_none() {
                    validation = scored_validation(&view.scored, link);
                }
            }
            let vote = tally_vote(&per);
            Reply::Class {
                link,
                per,
                validation,
                vote,
            }
        }
        Query::AsCov(asn) => {
            let (links, validated) = set.slice_index().as_counts(asn);
            Reply::AsCov {
                asn,
                links,
                validated,
            }
        }
        Query::Slice(region, topo) => {
            let (links, validated) = set.slice_index().slice_counts(region, topo);
            Reply::Slice {
                region,
                topo,
                links,
                validated,
            }
        }
        Query::Stats => Reply::Stats {
            generation: set.generation(),
            classifiers: views.len() as u8,
            nodes: views
                .first()
                .map_or(0, |v| CsrGraph::node_count(&v.csr) as u64),
            links: set.slice_index().total_links(),
            validated: set.slice_index().total_validated(),
        },
    }
}

/// Majority vote over the per-classifier relationships (exact equality,
/// provider included). Ties break to the earliest classifier.
fn tally_vote(per: &[Option<Option<Rel>>; MAX_CLASSIFIERS]) -> Option<Vote> {
    let mut best: Option<Vote> = None;
    let mut total = 0u8;
    for entry in per.iter() {
        if let Some(Some(_)) = entry {
            total += 1;
        }
    }
    for entry in per.iter() {
        let Some(Some(candidate)) = entry else {
            continue;
        };
        let mut votes = 0u8;
        for other in per.iter() {
            if let Some(Some(r)) = other {
                if r == candidate {
                    votes += 1;
                }
            }
        }
        let better = match best {
            None => true,
            Some(b) => votes > b.votes,
        };
        if better {
            best = Some(Vote {
                rel: *candidate,
                votes,
                total,
            });
        }
    }
    best
}

fn fmt_rel(out: &mut String, rel: Option<Rel>) {
    match rel {
        None => out.push('-'),
        Some(Rel::P2p) => out.push_str("p2p"),
        Some(Rel::S2s) => out.push_str("s2s"),
        Some(Rel::P2c { provider }) => {
            let _ = write!(out, "p2c:{}", provider.0);
        }
    }
}

fn fmt_coverage(out: &mut String, links: u64, validated: u64) {
    let coverage = if links == 0 {
        0.0
    } else {
        validated as f64 / links as f64
    };
    let _ = write!(
        out,
        "links={links} validated={validated} coverage={coverage:.6}"
    );
}

/// Renders a reply as its single deterministic response line.
#[must_use]
pub fn format_reply(set: &SnapshotSet, reply: &Reply) -> String {
    let views = set.classifiers();
    let mut out = String::from("ok ");
    match reply {
        Reply::Cone { asn, per } => {
            let _ = write!(out, "cone {}", asn.0);
            for (view, entry) in views.iter().zip(per.iter()) {
                let Some(entry) = entry else { continue };
                let _ = write!(out, " {}=", view.name);
                match entry.cone {
                    Some(c) => {
                        let _ = write!(out, "{c}");
                    }
                    None => out.push('-'),
                }
                out.push('/');
                match entry.ppdc {
                    Some(p) => {
                        let _ = write!(out, "{p}");
                    }
                    None => out.push('-'),
                }
            }
        }
        Reply::Member { asn, member, per } => {
            let _ = write!(out, "member {} {}", asn.0, member.0);
            for (view, entry) in views.iter().zip(per.iter()) {
                let _ = write!(out, " {}=", view.name);
                match entry {
                    Some(true) => out.push('1'),
                    Some(false) => out.push('0'),
                    None => out.push('-'),
                }
            }
        }
        Reply::Class {
            link,
            per,
            validation,
            vote,
        } => {
            let _ = write!(out, "class {} {}", link.a().0, link.b().0);
            for (view, entry) in views.iter().zip(per.iter()) {
                let Some(rel) = entry else { continue };
                let _ = write!(out, " {}=", view.name);
                fmt_rel(&mut out, *rel);
            }
            out.push_str(" val=");
            fmt_rel(&mut out, *validation);
            out.push_str(" vote=");
            match vote {
                None => out.push('-'),
                Some(v) => {
                    fmt_rel(&mut out, Some(v.rel));
                    let _ = write!(out, " agree={}/{}", v.votes, v.total);
                }
            }
        }
        Reply::AsCov {
            asn,
            links,
            validated,
        } => {
            let _ = write!(out, "ascov {} ", asn.0);
            fmt_coverage(&mut out, u64::from(*links), u64::from(*validated));
        }
        Reply::Slice {
            region,
            topo,
            links,
            validated,
        } => {
            out.push_str("slice ");
            match region.and_then(slices::region_label_of) {
                Some(label) => out.push_str(&label),
                None => out.push('*'),
            }
            out.push(' ');
            match topo.and_then(slices::topo_label_of) {
                Some(label) => out.push_str(label),
                None => out.push('*'),
            }
            out.push(' ');
            fmt_coverage(&mut out, *links, *validated);
        }
        Reply::Stats {
            generation,
            classifiers,
            nodes,
            links,
            validated,
        } => {
            let _ = write!(
                out,
                "stats gen={generation} classifiers={classifiers} nodes={nodes} links={links} validated={validated}"
            );
        }
    }
    out
}

/// Bumps the per-kind query counter (all six labels are registered).
fn count_query(kind: &'static str) {
    match kind {
        "cone" => breval_obs::counter("brevald_queries_cone", 1),
        "member" => breval_obs::counter("brevald_queries_member", 1),
        "class" => breval_obs::counter("brevald_queries_class", 1),
        "ascov" => breval_obs::counter("brevald_queries_ascov", 1),
        "slice" => breval_obs::counter("brevald_queries_slice", 1),
        _ => breval_obs::counter("brevald_queries_stats", 1),
    }
}

/// Parses, evaluates, and formats one request line against one
/// generation. Malformed queries come back as `err …` lines.
#[must_use]
pub fn answer_line(set: &SnapshotSet, line: &str) -> String {
    match parse(line) {
        Ok(query) => {
            count_query(query.kind());
            format_reply(set, &eval(set, query))
        }
        Err(msg) => {
            breval_obs::counter("brevald_queries_malformed", 1);
            let mut out = String::from("err ");
            out.push_str(msg);
            out
        }
    }
}

/// Answers a batch of request lines against **one** generation, fanning
/// out over `breval_par`'s scoped threads (inline at a thread cap of 1).
/// The whole batch sees the same
/// immutable set, so a concurrent reload never splits a batch across
/// generations; responses come back in request order at any thread cap.
#[must_use]
pub fn answer_batch<S: AsRef<str> + Sync>(set: &SnapshotSet, lines: &[S]) -> Vec<String> {
    let _span = breval_obs::span!("brevald_batch");
    breval_par::parallel_map(lines.len(), |i| match lines.get(i) {
        Some(line) => answer_line(set, line.as_ref()),
        None => String::from("err missing batch line"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(parse("").is_err());
        assert!(parse("bogus 1").is_err());
        assert!(parse("cone").is_err());
        assert!(parse("cone notanumber").is_err());
        assert!(parse("cone 1 2").is_err());
        assert!(parse("class 5 5").is_err());
        assert!(parse("slice NOPE *").is_err());
        assert!(parse("slice * NOPE").is_err());
    }

    #[test]
    fn parse_accepts_the_grammar() {
        assert_eq!(parse("cone 65001"), Ok(Query::Cone(Asn(65001))));
        assert_eq!(parse("member 1 2"), Ok(Query::Member(Asn(1), Asn(2))));
        assert_eq!(
            parse("class 7 3"),
            Ok(Query::Class(
                Link::new(Asn(7), Asn(3)).expect("distinct ASNs")
            ))
        );
        assert_eq!(parse("ascov 9"), Ok(Query::AsCov(Asn(9))));
        assert_eq!(parse("slice * *"), Ok(Query::Slice(None, None)));
        assert_eq!(parse("slice AR° TR°"), Ok(Query::Slice(Some(12), Some(15))));
        assert_eq!(parse("stats"), Ok(Query::Stats));
    }

    #[test]
    fn empty_set_answers_every_kind_without_panicking() {
        let set = SnapshotSet::empty();
        for line in [
            "cone 1",
            "member 1 2",
            "class 1 2",
            "ascov 1",
            "slice * *",
            "slice AR° S-TR",
            "stats",
        ] {
            let reply = answer_line(&set, line);
            assert!(reply.starts_with("ok "), "{line} -> {reply}");
        }
        assert_eq!(
            answer_line(&set, "stats"),
            "ok stats gen=0 classifiers=0 nodes=0 links=0 validated=0"
        );
    }

    #[test]
    fn batch_preserves_request_order() {
        let set = SnapshotSet::empty();
        let lines: Vec<String> = (0..40).map(|i| format!("ascov {i}")).collect();
        let replies = answer_batch(&set, &lines);
        assert_eq!(replies.len(), 40);
        for (i, reply) in replies.iter().enumerate() {
            assert!(
                reply.starts_with(&format!("ok ascov {i} ")),
                "reply {i} = {reply}"
            );
        }
    }
}
