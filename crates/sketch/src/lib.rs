//! # dhs-sketch — hash sketches for duplicate-insensitive cardinality estimation
//!
//! This crate implements, from scratch, the probabilistic counting
//! ("hash sketch") estimators used by the DHS paper (*Counting at Large:
//! Efficient Cardinality Estimation in Internet-Scale Data Networks*,
//! ICDE 2006):
//!
//! * [`Pcsa`] — Probabilistic Counting with Stochastic Averaging
//!   (Flajolet & Martin, 1985). Keeps `m` bitmaps; estimates from the
//!   position of the leftmost 0-bit of each bitmap.
//! * [`SuperLogLog`] — Durand & Flajolet, 2003. Keeps `m` small
//!   "max rank" registers and the truncation rule (keep the `⌊θ₀·m⌋`
//!   smallest registers, `θ₀ = 0.7`).
//! * [`HyperLogLog`] — Flajolet, Fusy, Gandouet & Meunier, 2007. Included
//!   as the natural extension of the paper's line of work.
//!
//! All estimators share the same insertion rule, which is also the rule DHS
//! distributes across a DHT: given a pseudo-uniform hash `h` of an item and
//! a sketch with `m = 2^c` buckets,
//!
//! * the bucket index is `h mod m` (the low `c` bits), and
//! * the recorded rank is `ρ(h div m)`, the position of the
//!   least-significant 1-bit of the remaining bits.
//!
//! Because insertion only ever ORs a bit / maxes a register, sketches are
//! *duplicate-insensitive* (inserting the same item twice is a no-op) and
//! *mergeable* (the sketch of a union is the bitwise OR / element-wise max
//! of the sketches).
//!
//! The crate also provides the hashing substrate: the [`ItemHasher`]
//! abstraction and its one implementation, the [`SplitMix64`] finalizer.
//! The paper hashed with MD4 but needs only a pseudo-uniform hash.
//!
//! ## Quick example
//!
//! ```
//! use dhs_sketch::{CardinalityEstimator, SuperLogLog, ItemHasher, SplitMix64};
//!
//! let hasher = SplitMix64::default();
//! let mut sketch = SuperLogLog::new(256).unwrap();
//! for i in 0..50_000u64 {
//!     sketch.insert_hash(hasher.hash_u64(i));
//!     sketch.insert_hash(hasher.hash_u64(i)); // duplicates are free
//! }
//! let est = sketch.estimate();
//! assert!((est - 50_000.0).abs() / 50_000.0 < 0.25);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alpha;
pub mod estimator;
pub mod hash;
pub mod hyperloglog;
pub mod loglog;
pub mod packed;
pub mod pcsa;
pub mod registers;
pub mod rho;
pub mod tiered;
pub mod wire;

pub use estimator::{CardinalityEstimator, MergeError, SketchConfigError};
pub use hash::{ItemHasher, SplitMix64};
pub use hyperloglog::{hyperloglog_estimate_from_registers, HyperLogLog};
pub use loglog::{superloglog_estimate_from_registers, SuperLogLog, THETA_0};
pub use packed::PackedRegisters;
pub use pcsa::{pcsa_estimate_from_first_zeros, Pcsa, PCSA_PHI};
pub use rho::{rho, rho_capped};
pub use tiered::{Tier, TieredRegisters};
pub use wire::{DecodeError, WireSketch};
