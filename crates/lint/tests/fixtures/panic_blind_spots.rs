//! Known-bad fixture: three panic sites the public API's call graph
//! never reaches (a trait-impl method, a `pub(crate)` method and a private
//! fn, none of them called), plus one in a closure inside a `pub` fn. All
//! four are library code a caller can run, so each must be flagged.

use std::fmt;

pub struct Payload {
    pub(crate) bytes: Vec<u8>,
}

impl fmt::Display for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.bytes.first().copied().unwrap())
    }
}

impl Payload {
    pub(crate) fn head(&self) -> u8 {
        self.bytes.first().copied().expect("non-empty payload")
    }
}

fn checksum(bytes: &[u8]) -> u8 {
    bytes.iter().copied().reduce(|a, b| a ^ b).unwrap()
}

pub fn lengths(payloads: &[Payload]) -> Vec<usize> {
    payloads.iter().map(|p| p.bytes.len().checked_sub(1).unwrap()).collect()
}
