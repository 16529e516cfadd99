//! Seeded phase-balance violations: a Phase enum whose accounting
//! surfaces disagree with each other. `tests/fixture.rs` pins each
//! finding's line.

pub enum Phase {
    Load,
    Work,
    Drain, // missing from ALL — fires here
}

impl Phase {
    // Declared length 2, enum has 3 — fires on the ALL line.
    pub const ALL: [Phase; 2] = [Phase::Load, Phase::Work];

    // Work maps outside 0..3 — fires on the fn line.
    pub const fn index(self) -> usize {
        match self {
            Phase::Load => 0,
            Phase::Work => 5,
            Phase::Drain => 1,
        }
    }

    // No Drain arm: rustc rejects it (E0004), so the pass does not.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Load => "load",
            Phase::Work => "work",
        }
    }
}

pub struct Timeline {
    // Length 2 cannot hold 3 phases — fires on the field line.
    seconds: [f64; 2],
}

pub fn charge(t: &mut Timeline, secs: f64) {
    t.add(Phase::Cooldown, secs); // undeclared: rustc's E0599, not a finding
}
