// L002 fixture (clean): safe code only.
pub fn first_byte(bytes: &[u8]) -> u8 {
    bytes.first().copied().unwrap_or(0)
}
