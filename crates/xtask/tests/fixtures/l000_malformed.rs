// L000 fixture: a waiver without a reason is itself a violation, and the
// rule it tried to waive still fires.
pub fn no_reason(v: Option<u32>) -> u32 {
    // breval-lint: allow(L001)
    v.expect("")
}
