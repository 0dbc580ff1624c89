//! L011 fixture: the closure handed to `parallel_map` takes a lock —
//! cross-thread contention the shared index counter is designed to avoid.

use std::sync::Mutex;

pub fn parallel_map<T>(n: usize, f: impl Fn(usize) -> T) -> Vec<T> {
    (0..n).map(f).collect()
}

pub fn fanout(m: &Mutex<u32>) -> Vec<u32> {
    parallel_map(4, |i| {
        if let Ok(mut g) = m.lock() {
            *g += i as u32;
        }
        i as u32
    })
}
