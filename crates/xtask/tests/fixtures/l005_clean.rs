// L005 fixture (clean): libraries return data; only binaries print.
pub fn report(n: usize) -> String {
    format!("processed {n} items")
}
