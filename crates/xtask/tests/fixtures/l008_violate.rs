// L008 fixture: hash containers in library code. None of these functions
// reaches an output sink; the rule rejects the names themselves, so an
// alias, a module import and a local iteration all fire.
use std::collections::hash_map::Entry;
use std::collections::HashMap as M;

pub fn tally(keys: &[u32]) -> M<u32, u32> {
    let mut counts = M::new();
    for &k in keys {
        match counts.entry(k) {
            Entry::Occupied(mut e) => *e.get_mut() += 1,
            Entry::Vacant(e) => {
                e.insert(1);
            }
        }
    }
    counts
}

pub fn largest(keys: &[u32]) -> u32 {
    let distinct: std::collections::HashSet<u32> = keys.iter().copied().collect();
    let mut best = 0;
    for k in distinct.iter() {
        best = best.max(*k);
    }
    best
}
