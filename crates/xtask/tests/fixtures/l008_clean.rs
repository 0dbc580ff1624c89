// L008 fixture (clean): a HashMap or HashSet is named only where it cannot
// reach an output: in comments like this one, in string literals, and in a
// test module, where a hash_map-based oracle may check the ordered code.
// clippy has no test exemption for disallowed types, so the module says why.
use std::collections::BTreeMap;

/// Counts each key in a `BTreeMap`, which iterates in key order.
pub fn tally(keys: &[u32]) -> BTreeMap<u32, u32> {
    let mut counts = BTreeMap::new();
    for &k in keys {
        *counts.entry(k).or_insert(0) += 1;
    }
    counts
}

pub fn advice() -> &'static str {
    "iterate a BTreeMap, not a HashMap, a HashSet or a hash_set::Iter"
}

#[cfg(test)]
#[expect(
    clippy::disallowed_types,
    reason = "a hash-based oracle checks the ordered code"
)]
mod tests {
    use std::collections::hash_map::HashMap;

    #[test]
    fn tally_matches_a_hash_oracle() {
        let mut oracle: HashMap<u32, u32> = HashMap::new();
        for k in [3, 1, 3] {
            *oracle.entry(k).or_insert(0) += 1;
        }
        let counts = super::tally(&[3, 1, 3]);
        assert_eq!(counts.len(), oracle.len());
        assert!(counts.iter().all(|(k, n)| oracle.get(k) == Some(n)));
    }
}
