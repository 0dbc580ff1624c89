//! Property-based tests for the asgraph substrate.

use asgraph::{has_loop, AsGraph, AsPath, Asn, ConeScratch, CsrGraph, Link, PathSet, Rel};
use proptest::prelude::*;

fn arb_asn() -> impl Strategy<Value = Asn> {
    (1u32..500).prop_map(Asn)
}

fn arb_path() -> impl Strategy<Value = Vec<Asn>> {
    prop::collection::vec(arb_asn(), 0..12)
}

/// Raw paths over few ASes, some reserved, in runs of 1–3 copies:
/// prepending, loops and reserved hops all occur.
fn arb_prepended_path() -> impl Strategy<Value = Vec<Asn>> {
    let hop = (0u32..12).prop_map(|i| match i {
        10 => Asn(23456),
        11 => Asn(64512),
        _ => Asn(i + 1),
    });
    prop::collection::vec((hop, 1usize..4), 0..8).prop_map(|runs| {
        runs.into_iter()
            .flat_map(|(asn, n)| std::iter::repeat_n(asn, n))
            .collect()
    })
}

/// The path set's former layout, whose derived `Debug` the store reproduces.
mod former {
    // The fields are read only through the derived `Debug`.
    #![allow(dead_code)]

    use asgraph::{AsPath, Asn};

    #[derive(Debug)]
    pub struct PathSet {
        paths: Vec<ObservedPath>,
    }

    #[derive(Debug)]
    struct ObservedPath {
        vp: Asn,
        path: AsPath,
    }

    impl PathSet {
        /// The paths whose raw hops pass `keep`, in order.
        pub fn new(paths: &[(Asn, Vec<Asn>)], keep: impl Fn(&[Asn]) -> bool) -> Self {
            let paths = paths
                .iter()
                .filter(|(_, hops)| keep(hops))
                .map(|(vp, hops)| ObservedPath {
                    vp: *vp,
                    path: AsPath::new(hops.clone()),
                })
                .collect();
            PathSet { paths }
        }
    }
}

proptest! {
    /// Link construction is symmetric and normalised.
    #[test]
    fn link_normalisation(a in arb_asn(), b in arb_asn()) {
        match (Link::new(a, b), Link::new(b, a)) {
            (Some(l1), Some(l2)) => {
                prop_assert_eq!(l1, l2);
                prop_assert!(l1.a() < l1.b());
                prop_assert!(l1.contains(a) && l1.contains(b));
                prop_assert_eq!(l1.other(a), Some(b));
            }
            (None, None) => prop_assert_eq!(a, b),
            _ => prop_assert!(false, "asymmetric link construction"),
        }
    }

    /// The store keeps each path with exactly its consecutive runs removed,
    /// and storing a stored path again changes nothing.
    #[test]
    fn push_compresses_idempotently(path in arb_prepended_path()) {
        let mut expected = path.clone();
        expected.dedup();
        let mut ps = PathSet::new();
        ps.push(Asn(1), AsPath::new(path));
        let stored: Vec<Asn> = ps.iter().flat_map(|(_, hops)| hops.to_vec()).collect();
        prop_assert_eq!(&stored, &expected);
        let mut again = PathSet::new();
        again.push_hops(Asn(1), stored.iter().copied());
        prop_assert!(again.iter().all(|(_, hops)| hops == expected.as_slice()));
    }

    /// `has_loop` gives one answer on a raw path and on its stored form,
    /// and a loop-free stored path never revisits an AS.
    #[test]
    fn loop_free_paths_have_unique_hops(path in arb_prepended_path()) {
        let looped = has_loop(&path);
        let mut ps = PathSet::new();
        ps.push_hops(Asn(1), path);
        for (_, c) in ps.iter() {
            prop_assert_eq!(has_loop(c), looped);
            let mut sorted = c.to_vec();
            sorted.sort();
            sorted.dedup();
            prop_assert_eq!(sorted.len() == c.len(), !looped);
        }
    }

    /// `Debug` prints, byte for byte, what the derived `Debug` of the former
    /// `Vec<ObservedPath { vp, path: AsPath }>` layout printed, prepending
    /// included; `sanitized` keeps exactly the clean paths in that form.
    #[test]
    fn debug_matches_the_former_layout(
        paths in prop::collection::vec((arb_asn(), arb_prepended_path()), 0..12)
    ) {
        let mut ps = PathSet::new();
        for (vp, hops) in &paths {
            ps.push(*vp, AsPath::new(hops.clone()));
        }
        let former = former::PathSet::new(&paths, |_| true);
        prop_assert_eq!(format!("{ps:?}"), format!("{former:?}"));
        prop_assert_eq!(format!("{ps:#?}"), format!("{former:#?}"));
        let clean = former::PathSet::new(&paths, |hops| {
            !has_loop(hops) && !hops.iter().any(|a| a.is_reserved())
        });
        prop_assert_eq!(format!("{:?}", ps.sanitized()), format!("{clean:?}"));
    }

    /// The customer cone always contains the AS itself and is monotone under
    /// adding customer links.
    #[test]
    fn cone_contains_self_and_grows(
        links in prop::collection::vec((arb_asn(), arb_asn()), 1..40)
    ) {
        let mut g = AsGraph::new();
        for (p, c) in &links {
            if let Some(link) = Link::new(*p, *c) {
                // Ignore conflicts: first orientation wins.
                let _ = g.add_rel(link, Rel::P2c { provider: *p });
            }
        }
        let csr = CsrGraph::build(&g);
        let mut scratch = ConeScratch::new();
        for id in 0..csr.node_count() as u32 {
            let cone = csr.customer_cone_ids(id, &mut scratch);
            prop_assert!(cone.contains(&id));
            // Every direct customer is in the cone.
            for c in csr.customers(id) {
                prop_assert!(cone.contains(c));
            }
        }
    }

    /// PathStats degrees: transit degree never exceeds node degree.
    #[test]
    fn transit_degree_bounded_by_node_degree(
        paths in prop::collection::vec(arb_path(), 0..20)
    ) {
        let mut ps = PathSet::new();
        for hops in paths {
            if let Some(&vp) = hops.first() {
                ps.push(vp, AsPath::new(hops));
            }
        }
        let stats = ps.stats();
        for asn in stats.ases() {
            prop_assert!(stats.transit_degree(asn) <= stats.node_degree(asn));
        }
    }
}
