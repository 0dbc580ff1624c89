// L003 fixture (clean): registered labels only.
pub fn do_work() {
    let _span = breval_obs::span!("generate");
    breval_obs::counter("topology_ases", 1);
}
