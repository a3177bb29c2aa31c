//! Compact wire encoding for sketches.
//!
//! Distributed protocols ship sketches around (the tree and gossip
//! baselines merge them; a DHS node could snapshot one). This module
//! gives every sketch family a versioned, self-describing byte encoding
//! with exact sizes, so message-size accounting can use real numbers
//! instead of estimates.
//!
//! Format (little-endian):
//!
//! ```text
//! byte 0     magic 0xD5
//! byte 1     kind (1 = PCSA, 3 = super-LogLog, 4 = HLL; 2 is reserved,
//!            it was plain LogLog, and no type decodes it)
//! byte 2     log2(m)
//! byte 3     PCSA: bitmap width; others: 0
//! bytes 4..  payload: PCSA m×u64 bitmaps; others m×u8 registers
//! ```
//!
//! Tiered (compressed) registers use a second format under magic `0xD6`
//! whose payload depends on the representation tier — see
//! [`crate::tiered::TieredRegisters::to_wire`]. Both formats share this
//! module's [`DecodeError`].

use crate::estimator::CardinalityEstimator;
use crate::hyperloglog::HyperLogLog;
use crate::loglog::SuperLogLog;
use crate::pcsa::Pcsa;

const MAGIC: u8 = 0xD5;

/// Errors decoding a wire-encoded sketch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Input shorter than the 4-byte header.
    TooShort,
    /// Wrong magic byte.
    BadMagic(u8),
    /// Unknown sketch kind tag.
    UnknownKind(u8),
    /// Kind tag does not match the requested sketch type.
    KindMismatch {
        /// Tag found in the header.
        found: u8,
        /// Tag the caller expected.
        expected: u8,
    },
    /// Payload length does not match the header's `m`.
    LengthMismatch {
        /// Bytes expected from the header.
        expected: usize,
        /// Bytes present.
        found: usize,
    },
    /// Header parameters fail sketch validation.
    InvalidParams,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::TooShort => write!(f, "input shorter than header"),
            DecodeError::BadMagic(b) => write!(f, "bad magic byte {b:#x}"),
            DecodeError::UnknownKind(k) => write!(f, "unknown sketch kind {k}"),
            DecodeError::KindMismatch { found, expected } => {
                write!(f, "kind {found} where {expected} expected")
            }
            DecodeError::LengthMismatch { expected, found } => {
                write!(f, "payload length {found}, expected {expected}")
            }
            DecodeError::InvalidParams => write!(f, "invalid sketch parameters"),
        }
    }
}

impl std::error::Error for DecodeError {}

#[allow(clippy::cast_possible_truncation)]
fn header(kind: u8, m: usize, width: u8) -> [u8; 4] {
    // dhs-lint: allow(lossy_cast) — trailing_zeros of a u64 is ≤ 64.
    [MAGIC, kind, m.trailing_zeros() as u8, width]
}

fn check_header(bytes: &[u8], expected_kind: u8) -> Result<(usize, u8), DecodeError> {
    if bytes.len() < 4 {
        return Err(DecodeError::TooShort);
    }
    if bytes[0] != MAGIC {
        return Err(DecodeError::BadMagic(bytes[0]));
    }
    let kind = bytes[1];
    if !(1..=4).contains(&kind) {
        return Err(DecodeError::UnknownKind(kind));
    }
    if kind != expected_kind {
        return Err(DecodeError::KindMismatch {
            found: kind,
            expected: expected_kind,
        });
    }
    if bytes[2] > 32 {
        return Err(DecodeError::InvalidParams);
    }
    Ok((1usize << bytes[2], bytes[3]))
}

/// Encode/decode support for a sketch family.
pub trait WireSketch: Sized {
    /// Serialize to the compact wire format.
    fn to_bytes(&self) -> Vec<u8>;
    /// Deserialize, validating the header.
    fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError>;
    /// The exact encoded size for `m` buckets (for cost models).
    fn encoded_size(m: usize) -> usize;
}

impl WireSketch for Pcsa {
    #[allow(clippy::cast_possible_truncation)]
    fn to_bytes(&self) -> Vec<u8> {
        let m = self.buckets();
        let mut out = Vec::with_capacity(Self::encoded_size(m));
        // dhs-lint: allow(lossy_cast) — register width is 4 or 8 bits.
        out.extend_from_slice(&header(1, m, self.width() as u8));
        for i in 0..m {
            // Reconstruct the raw bitmap from bit queries (the BitmapArray
            // is private; 64 probes per bucket is fine off the hot path).
            let mut raw = 0u64;
            for r in 0..self.width() {
                if self.bit(i, r) {
                    raw |= 1 << r;
                }
            }
            out.extend_from_slice(&raw.to_le_bytes());
        }
        out
    }

    fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let (m, width) = check_header(bytes, 1)?;
        let payload = &bytes[4..];
        if payload.len() != m * 8 {
            return Err(DecodeError::LengthMismatch {
                expected: m * 8,
                found: payload.len(),
            });
        }
        let mut sketch =
            Pcsa::with_width(m, u32::from(width)).map_err(|_| DecodeError::InvalidParams)?;
        for (i, chunk) in payload.chunks_exact(8).enumerate() {
            // dhs-lint: allow(panic_hygiene) — invariant: chunks_exact(8) yields 8-byte chunks.
            let raw = u64::from_le_bytes(chunk.try_into().expect("8 bytes"));
            for r in 0..u32::from(width) {
                if (raw >> r) & 1 == 1 {
                    sketch.set_bit(i, r);
                }
            }
        }
        Ok(sketch)
    }

    fn encoded_size(m: usize) -> usize {
        4 + m * 8
    }
}

macro_rules! impl_register_wire {
    ($ty:ty, $kind:expr, $new:path, $register:ident, $observe:ident) => {
        impl WireSketch for $ty {
            fn to_bytes(&self) -> Vec<u8> {
                let m = self.buckets();
                let mut out = Vec::with_capacity(Self::encoded_size(m));
                out.extend_from_slice(&header($kind, m, 0));
                for i in 0..m {
                    out.push(self.$register(i));
                }
                out
            }

            fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
                let (m, _) = check_header(bytes, $kind)?;
                let payload = &bytes[4..];
                if payload.len() != m {
                    return Err(DecodeError::LengthMismatch {
                        expected: m,
                        found: payload.len(),
                    });
                }
                let mut sketch = $new(m).map_err(|_| DecodeError::InvalidParams)?;
                for (i, &r) in payload.iter().enumerate() {
                    if r > 0 {
                        sketch.$observe(i, r);
                    }
                }
                Ok(sketch)
            }

            fn encoded_size(m: usize) -> usize {
                4 + m
            }
        }
    };
}

impl_register_wire!(SuperLogLog, 3, SuperLogLog::new, register, observe);
impl_register_wire!(HyperLogLog, 4, HyperLogLog::new, register, observe);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::{ItemHasher, SplitMix64};

    fn fill<E: CardinalityEstimator>(sketch: &mut E, n: u64) {
        let hasher = SplitMix64::default();
        for i in 0..n {
            sketch.insert_hash(hasher.hash_u64(i));
        }
    }

    #[test]
    fn roundtrip_all_kinds() {
        let mut pcsa = Pcsa::with_width(64, 32).unwrap();
        fill(&mut pcsa, 10_000);
        assert_eq!(Pcsa::from_bytes(&pcsa.to_bytes()).unwrap(), pcsa);

        let mut sll = SuperLogLog::new(128).unwrap();
        fill(&mut sll, 10_000);
        assert_eq!(SuperLogLog::from_bytes(&sll.to_bytes()).unwrap(), sll);

        let mut hll = HyperLogLog::new(32).unwrap();
        fill(&mut hll, 10_000);
        assert_eq!(HyperLogLog::from_bytes(&hll.to_bytes()).unwrap(), hll);
    }

    #[test]
    fn encoded_sizes_are_exact() {
        let mut sll = SuperLogLog::new(512).unwrap();
        fill(&mut sll, 100);
        assert_eq!(sll.to_bytes().len(), SuperLogLog::encoded_size(512));
        assert_eq!(SuperLogLog::encoded_size(512), 4 + 512);
        let pcsa = Pcsa::new(64).unwrap();
        assert_eq!(pcsa.to_bytes().len(), Pcsa::encoded_size(64));
    }

    #[test]
    fn header_validation() {
        assert_eq!(SuperLogLog::from_bytes(&[]), Err(DecodeError::TooShort));
        assert_eq!(
            SuperLogLog::from_bytes(&[0x00, 3, 4, 0]),
            Err(DecodeError::BadMagic(0))
        );
        assert_eq!(
            SuperLogLog::from_bytes(&[MAGIC, 9, 4, 0]),
            Err(DecodeError::UnknownKind(9))
        );
        // A HyperLogLog blob fed to SuperLogLog is rejected.
        let hll = HyperLogLog::new(16).unwrap();
        assert!(matches!(
            SuperLogLog::from_bytes(&hll.to_bytes()),
            Err(DecodeError::KindMismatch { .. })
        ));
        // Truncated payload.
        let sll = SuperLogLog::new(16).unwrap();
        let mut bytes = sll.to_bytes();
        bytes.pop();
        assert!(matches!(
            SuperLogLog::from_bytes(&bytes),
            Err(DecodeError::LengthMismatch { .. })
        ));
        // A one-bucket super-LogLog does not decode: the register-level
        // estimator needs m ≥ 2.
        assert_eq!(
            SuperLogLog::from_bytes(&[MAGIC, 3, 0, 0, 5]),
            Err(DecodeError::InvalidParams)
        );
    }

    #[test]
    fn decoded_sketch_estimates_identically() {
        let mut sll = SuperLogLog::new(256).unwrap();
        fill(&mut sll, 50_000);
        let decoded = SuperLogLog::from_bytes(&sll.to_bytes()).unwrap();
        assert_eq!(decoded.estimate(), sll.estimate());
    }

    #[test]
    fn errors_display() {
        let e = DecodeError::LengthMismatch {
            expected: 16,
            found: 3,
        };
        assert!(e.to_string().contains("16"));
        assert!(DecodeError::TooShort.to_string().contains("short"));
    }
}
