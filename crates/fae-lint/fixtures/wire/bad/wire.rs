//! Seeded wire-compat violations: a duplicated tag, a never-decoded
//! variant, a decode arm that resurrects the wrong variant, an
//! undeclared decode tag, and a tag outside every declared range.
//! `tests/fixture.rs` pins each finding's line.

pub enum Message {
    Hello,
    Data { bytes: u32 },
    Poll,
    Stats { count: u64 },
}

impl Message {
    pub fn tag(&self) -> u8 {
        match self {
            Message::Hello => 0,
            Message::Data { .. } => 1,
            Message::Poll => 1,  // duplicate of Data's tag
            Message::Stats { .. } => 7, // outside every declared range
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            Message::Hello => "hello",
            Message::Data { .. } => "data",
            Message::Poll => "poll",
            // No Stats arm: rustc rejects it (E0004), so the pass does not.
        }
    }

    pub fn encode_payload(&self, out: &mut Vec<u8>) {
        match self {
            Message::Hello | Message::Poll => {}
            Message::Data { bytes } => put_u32(out, *bytes),
            Message::Stats { count } => put_u64(out, *count),
        }
    }

    pub fn decode_payload(kind: u8, rd: &mut Reader) -> Result<Message, WireError> {
        Ok(match kind {
            0 => Message::Hello,
            1 => Message::Poll, // tag 1 encodes Data but decodes to Poll
            3 => Message::Data { bytes: rd.u32()? }, // undeclared tag
            other => return Err(WireError::Corrupt(other)),
        })
    }
}
