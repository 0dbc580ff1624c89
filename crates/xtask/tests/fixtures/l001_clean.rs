// L001 fixture (clean): Result propagation, invariant-carrying expects,
// and unwrap confined to a `#[cfg(test)]` module.
pub fn parse_port(s: &str) -> Result<u16, std::num::ParseIntError> {
    s.rsplit(':')
        .next()
        .unwrap_or(s)
        .parse()
}

pub fn checked(v: Option<u32>) -> u32 {
    v.expect("caller guarantees a value per the builder contract")
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwrap_is_fine_in_tests() {
        assert_eq!("80".parse::<u16>().unwrap(), 80);
    }
}
