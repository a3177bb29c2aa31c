//! Checked integer narrowing.
//!
//! A silent `as` truncation already shipped one real bug: vector indices
//! were narrowed with `as u16`, so any configuration with `m > 65536`
//! aliased distinct bitmaps onto the same register (fixed by
//! `ConfigError::TooManyBitmaps`; see DESIGN.md, static-analysis gate).
//! The register state of a hash sketch must be bit-exact — one lossy
//! cast corrupts every downstream estimate — so library code narrows
//! through these helpers instead of `as`, and clippy's
//! `cast_possible_truncation` rejects bare narrowing casts.
//!
//! Two flavours:
//!
//! * [`checked_cast`] — for narrowings that are infallible *by invariant*
//!   (a masked value, a validated config bound). Panics with a clear
//!   diagnostic if the invariant is ever broken, instead of silently
//!   wrapping.
//! * [`try_cast`] — for narrowings that can genuinely fail at runtime;
//!   callers surface the error the way `DhsConfig::validate` surfaces
//!   `TooManyBitmaps`.

use std::fmt::Display;

/// Narrow `v` to `U`, panicking with a diagnostic on overflow.
///
/// Use only where the value provably fits (masked bit-fields, validated
/// config bounds) — the panic is the audible alarm for a broken
/// invariant, the exact opposite of `as`'s silent wrap-around.
#[track_caller]
pub fn checked_cast<U, T>(v: T) -> U
where
    T: TryInto<U> + Display + Copy,
{
    match v.try_into() {
        Ok(narrowed) => narrowed,
        #[expect(
            clippy::panic,
            reason = "this panic is the entire point: a loud, located failure instead of a silent truncation"
        )]
        Err(_) => panic!(
            "checked_cast: {v} does not fit in {}",
            std::any::type_name::<U>()
        ),
    }
}

/// Narrow `v` to `U`, returning `None` on overflow.
///
/// The fallible twin of [`checked_cast`], for narrowings whose failure is
/// a real runtime condition the caller must handle (mirror of the
/// `ConfigError::TooManyBitmaps` validation pattern).
pub fn try_cast<U, T>(v: T) -> Option<U>
where
    T: TryInto<U>,
{
    v.try_into().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checked_cast_passes_fitting_values() {
        let v: u16 = checked_cast(65_535u64);
        assert_eq!(v, u16::MAX);
        let b: u8 = checked_cast(31u32);
        assert_eq!(b, 31);
        let w: usize = checked_cast(7u64);
        assert_eq!(w, 7);
    }

    #[test]
    #[should_panic(expected = "does not fit in u16")]
    fn checked_cast_panics_on_overflow() {
        // The PR 3 incident class: a vector index beyond u16::MAX must
        // fail loudly, never alias register 0x0000.
        let _: u16 = checked_cast(65_536u64);
    }

    #[test]
    fn try_cast_mirrors_too_many_bitmaps_validation() {
        // The same boundary DhsConfig::validate guards with
        // ConfigError::TooManyBitmaps: 65536 bitmaps fit u16 indices
        // (0..=65535), 65537 would need an index that does not.
        assert_eq!(try_cast::<u16, _>(65_535usize), Some(u16::MAX));
        assert_eq!(try_cast::<u16, _>(65_536usize), None);
    }
}
