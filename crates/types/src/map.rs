//! A point-lookup map keyed by line indices, line addresses or request
//! ids.
//!
//! The determinism gate (`clippy.toml`) bans `HashMap` because its iteration order and
//! per-process seed could leak into results. [`LineMap`] is the one
//! exception: its hasher is fixed, and no caller ever iterates it.

use std::hash::{BuildHasherDefault, Hasher};

/// A hash map used only for point lookups, inserts, removals and `len`:
/// never iterate it, so its order cannot reach a result. Its hasher is
/// fixed, so no run differs from another. Keys hash through
/// [`Hasher::write_u64`] (a line index, a [`crate::LineAddr`], or a
/// request id in the lifecycle tracer's open-request index).
#[expect(
    clippy::disallowed_types,
    reason = "never iterated (point lookups, inserts, removals and len only) and hashed by the fixed LineKeyHasher, so no iteration order or per-process seed can leak into results"
)]
pub type LineMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<LineKeyHasher>>;

/// A fixed multiplicative hash of a line key: the same on every run and
/// every host.
#[derive(Debug, Clone, Copy, Default)]
pub struct LineKeyHasher(u64);

impl Hasher for LineKeyHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        let h = (self.0 ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ h >> 32;
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}
