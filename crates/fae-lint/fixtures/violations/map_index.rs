//! Seeded map-index violation.

pub fn pick(m: &Map) -> u64 {
    // map-index (string-key indexing)
    m["key"]
}
