//! FNV-1a 64, shared by the golden suites that pin encoded bytes by hash:
//! a hash that shares no code with the CRC or the codecs under test.

/// FNV-1a 64 of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_0000_01b3);
    }
    h
}
