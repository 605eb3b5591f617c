//! Typed wire encoding for small fixed-size payloads.
//!
//! The engine moves raw `&[u8]` payloads; algorithm code moves typed
//! values (timestamps, flags, counters). [`Wire`] is the one place
//! where the encode/decode between the two lives: a type says how it
//! becomes little-endian bytes, and `RankCtx::{send_t, ssend_t,
//! recv_t}` (plus the `Comm` equivalents in `hcs-mpi`) do the rest.
//!
//! The clock-domain newtypes implement [`Wire`] in their defining crate
//! (`hcs-clock`), so even wire crossings go through the named
//! `raw_seconds`/`from_raw_seconds` accessors.

#![forbid(unsafe_code)]

/// A value with a fixed-size little-endian wire form.
///
/// # Panics
/// `from_wire` panics when `bytes` has the wrong length — a length
/// mismatch means sender and receiver disagree on the message schema,
/// which is a protocol bug, not a recoverable condition.
pub trait Wire: Copy {
    /// The byte representation (a fixed-size array in all impls here).
    type Bytes: AsRef<[u8]>;

    /// Encodes into little-endian bytes.
    fn to_wire(self) -> Self::Bytes;

    /// Decodes from little-endian bytes.
    fn from_wire(bytes: &[u8]) -> Self;
}

impl Wire for f64 {
    type Bytes = [u8; 8];

    fn to_wire(self) -> [u8; 8] {
        self.to_le_bytes()
    }

    fn from_wire(bytes: &[u8]) -> Self {
        f64::from_le_bytes(bytes.try_into().expect("f64 wire payload must be 8 bytes"))
    }
}

impl Wire for u32 {
    type Bytes = [u8; 4];

    fn to_wire(self) -> [u8; 4] {
        self.to_le_bytes()
    }

    fn from_wire(bytes: &[u8]) -> Self {
        u32::from_le_bytes(bytes.try_into().expect("u32 wire payload must be 4 bytes"))
    }
}

impl Wire for u64 {
    type Bytes = [u8; 8];

    fn to_wire(self) -> [u8; 8] {
        self.to_le_bytes()
    }

    fn from_wire(bytes: &[u8]) -> Self {
        u64::from_le_bytes(bytes.try_into().expect("u64 wire payload must be 8 bytes"))
    }
}

/// A pair of `f64`s (e.g. the Round-Time scheme's two reduction flags).
impl Wire for [f64; 2] {
    type Bytes = [u8; 16];

    fn to_wire(self) -> [u8; 16] {
        let mut out = [0u8; 16];
        let [a, b] = self;
        out[0..8].copy_from_slice(&a.to_le_bytes());
        out[8..16].copy_from_slice(&b.to_le_bytes());
        out
    }

    fn from_wire(bytes: &[u8]) -> Self {
        assert_eq!(bytes.len(), 16, "[f64; 2] wire payload must be 16 bytes");
        let (a, b) = bytes.split_at(8);
        [f64::from_wire(a), f64::from_wire(b)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrips() {
        for x in [0.0f64, -1.5, 1e-300, f64::MAX] {
            assert_eq!(f64::from_wire(x.to_wire().as_ref()), x);
        }
        assert_eq!(
            u32::from_wire(0xDEAD_BEEFu32.to_wire().as_ref()),
            0xDEAD_BEEF
        );
        assert_eq!(u64::from_wire(u64::MAX.to_wire().as_ref()), u64::MAX);
    }

    #[test]
    fn pair_roundtrips_and_matches_manual_layout() {
        let pair = [1.25f64, -7.5];
        let bytes = pair.to_wire();
        assert_eq!(&bytes[0..8], &1.25f64.to_le_bytes());
        assert_eq!(&bytes[8..16], &(-7.5f64).to_le_bytes());
        assert_eq!(<[f64; 2]>::from_wire(bytes.as_ref()), pair);
    }

    #[test]
    #[should_panic(expected = "8 bytes")]
    fn length_mismatch_panics() {
        let _ = f64::from_wire(&[0u8; 4]);
    }
}
