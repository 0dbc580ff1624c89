// L002 fixture: `unsafe` code, which the workspace lint table forbids.
pub fn first_byte(bytes: &[u8]) -> u8 {
    unsafe { *bytes.as_ptr() }
}
