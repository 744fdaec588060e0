//! Deterministic seed derivation.
//!
//! A single master seed drives an entire experiment; every (process,
//! execution, adversary) combination derives its own independent stream via
//! SplitMix64, so adding one more process never perturbs the randomness of
//! the others — crucial for reproducible sweeps.

/// The SplitMix64 stream increment (the golden-ratio "gamma"): a stream
/// seeded by `s` has `t`-th output `splitmix64(s + (t − 1)·GAMMA)`.
pub(crate) const SPLITMIX64_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// One SplitMix64 step: maps a state to a well-mixed 64-bit output.
///
/// Reference: Steele, Lea, Flood — "Fast splittable pseudorandom number
/// generators" (the `splitmix64` finalizer).
#[inline]
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(SPLITMIX64_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the sub-seed for logical `stream` under `master`.
///
/// Distinct `(master, stream)` pairs give (with overwhelming probability)
/// distinct, independent-looking seeds.
///
/// # Examples
///
/// ```
/// use dualgraph_sim::rng::derive_seed;
///
/// let a = derive_seed(42, 0);
/// let b = derive_seed(42, 1);
/// assert_ne!(a, b);
/// assert_eq!(a, derive_seed(42, 0));
/// ```
#[inline]
pub fn derive_seed(master: u64, stream: u64) -> u64 {
    splitmix64(splitmix64(master) ^ splitmix64(stream.wrapping_mul(0xA24B_AED4_963E_E407)))
}

/// Derives a per-(stream, substream) seed, e.g. (process, retry).
#[inline]
pub fn derive_seed2(master: u64, stream: u64, substream: u64) -> u64 {
    derive_seed(derive_seed(master, stream), substream)
}

/// Maps one raw 64-bit draw to a Geometric(`p`) **gap** — the number of
/// Bernoulli(`p`) failures before the next success — by inversion:
/// `⌊ln(U) / ln(1−p)⌋` with `U` uniform in `(0, 1]` (53 mantissa bits,
/// nudged off zero so `ln` stays finite). The denominator is taken as
/// `ln_1p(−p)`, which stays exact where `1 − p` rounds to 1.
///
/// This is the one copy of the numerically delicate formula behind the
/// workspace's geometric skip sampling: Poisson stream arrivals and the
/// gap to a [`BackoffProcess`][crate::automata::BackoffProcess]'s next
/// transmission. `p <= 0` yields `u64::MAX` (never succeeds), `p >= 1`
/// yields `0` (succeeds immediately).
#[inline]
pub fn geometric_gap_from_bits(bits: u64, p: f64) -> u64 {
    if p <= 0.0 {
        return u64::MAX;
    }
    if p >= 1.0 {
        return 0;
    }
    let u = ((bits >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64);
    let gap = u.ln() / (-p).ln_1p();
    if gap >= u64::MAX as f64 {
        u64::MAX
    } else {
        gap as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn deterministic() {
        assert_eq!(derive_seed(1, 2), derive_seed(1, 2));
        assert_eq!(derive_seed2(1, 2, 3), derive_seed2(1, 2, 3));
    }

    #[test]
    fn distinct_streams_differ() {
        let seeds: HashSet<u64> = (0..1000).map(|i| derive_seed(7, i)).collect();
        assert_eq!(seeds.len(), 1000);
    }

    #[test]
    fn distinct_masters_differ() {
        let seeds: HashSet<u64> = (0..1000).map(|m| derive_seed(m, 0)).collect();
        assert_eq!(seeds.len(), 1000);
    }

    #[test]
    fn zero_is_not_fixed_point() {
        assert_ne!(splitmix64(0), 0);
        assert_ne!(derive_seed(0, 0), 0);
    }

    #[test]
    fn geometric_gap_edges() {
        for bits in [0, 1 << 63, u64::MAX] {
            assert_eq!(geometric_gap_from_bits(bits, 0.0), u64::MAX);
            assert_eq!(geometric_gap_from_bits(bits, -0.5), u64::MAX);
            assert_eq!(geometric_gap_from_bits(bits, 1.0), 0);
            assert_eq!(geometric_gap_from_bits(bits, 1.5), 0);
        }
        // U ≈ 1/2 at p = 1e-17, where 1 − p rounds to 1: the gap is
        // ln 2 / 1e-17 ≈ 6.93e16, not the 0 of a `ln(1 − p)` denominator.
        let gap = geometric_gap_from_bits(1 << 63, 1e-17) as f64;
        assert!(
            (gap / (std::f64::consts::LN_2 * 1e17) - 1.0).abs() < 1e-9,
            "{gap}"
        );
    }

    #[test]
    fn geometric_gap_has_the_geometric_mean() {
        // Mean gap (1 − p)/p, checked within 5 standard errors over
        // 200,000 SplitMix64 draws.
        for p in [0.5, 0.01] {
            let draws = 200_000u64;
            let sum: f64 = (0..draws)
                .map(|i| geometric_gap_from_bits(splitmix64(i), p) as f64)
                .sum();
            let (mean, sd) = ((1.0 - p) / p, (1.0 - p).sqrt() / p);
            let z = (sum / draws as f64 - mean) / (sd / (draws as f64).sqrt());
            assert!(z.abs() < 5.0, "p = {p}: z = {z}");
        }
    }
}
