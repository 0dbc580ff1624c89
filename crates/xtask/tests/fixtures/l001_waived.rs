// L001 fixture (waived): the pragma carries a written reason, so the
// message-less expect below must NOT be reported.
pub fn startup_config() -> String {
    // breval-lint: allow(L001) -- config is embedded at compile time and verified by a build test
    std::str::from_utf8(b"embedded").expect("").to_owned()
}
