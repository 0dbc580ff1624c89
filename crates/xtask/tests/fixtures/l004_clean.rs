// L004 fixture (clean): timing goes through the observability layer, which
// owns the only clock in the workspace.
pub fn timed() {
    let _span = breval_obs::span!("generate");
}
