//! # detrand — deterministic randomness for the DSMEC workspace
//!
//! A self-contained replacement for the tiny slice of `rand` +
//! `rand_chacha` this workspace actually used, so tier-1 verification
//! builds with no crate registry at all:
//!
//! * [`ChaCha8Rng`] — a ChaCha8 stream-cipher generator, seedable from a
//!   single `u64`. Output is a pure function of the seed, identical on
//!   every platform and thread, which is what the bit-for-bit
//!   serial-vs-parallel determinism guarantee of the sweep engine rests
//!   on.
//! * [`ChaCha8Rng::gen_range`] / [`ChaCha8Rng::gen_bool`] /
//!   [`ChaCha8Rng::normal`] — the sampling surface used by
//!   `mec-sim::workload`/`mobility` and `core::hta`.
//! * [`SliceRandom`] — `shuffle` and `choose` for slices.
//! * [`prop`] — a seeded property-test harness replacing `proptest` call
//!   sites: fixed case counts, explicit per-case seeds, and failure
//!   messages that name the reproducing seed.
//! * [`fnv1a`] / [`fnv1a_extend`] — the workspace's one 64-bit FNV-1a
//!   hash (property seeds, cache keys, serve fingerprints).
//!
//! The stream is *frozen*: `tests` pin the first outputs for a known
//! seed, so any accidental change to the core shows up as a test failure
//! rather than silently shifting every generated scenario.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod prop;

use std::ops::{Range, RangeInclusive};

/// A deterministic ChaCha8 random-number generator.
///
/// The state is the standard ChaCha layout: 4 constant words, 8 key
/// words derived from the seed, a 64-bit block counter, and a 64-bit
/// stream id (always 0 here). Eight rounds (four double-rounds) per
/// block; the keystream is consumed one 32-bit word at a time.
///
/// ```
/// use detrand::ChaCha8Rng;
/// let mut a = ChaCha8Rng::seed_from_u64(7);
/// let mut b = ChaCha8Rng::seed_from_u64(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct ChaCha8Rng {
    key: [u32; 8],
    counter: u64,
    block: [u32; 16],
    /// Next unread word index in `block`; 16 means "refill".
    cursor: usize,
}

const CHACHA_CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

#[inline(always)]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// SplitMix64 step — expands the 64-bit seed into the 256-bit key.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl ChaCha8Rng {
    /// Builds a generator whose whole stream is a function of `seed`.
    ///
    /// The 256-bit ChaCha key is expanded from the seed with SplitMix64,
    /// so nearby seeds (0, 1, 2, …) still produce uncorrelated streams.
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut key = [0u32; 8];
        for pair in key.chunks_exact_mut(2) {
            let word = splitmix64(&mut sm);
            pair[0] = word as u32;
            pair[1] = (word >> 32) as u32;
        }
        ChaCha8Rng {
            key,
            counter: 0,
            block: [0; 16],
            cursor: 16,
        }
    }

    /// Generates the next 64-byte keystream block into `self.block`.
    fn refill(&mut self) {
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&CHACHA_CONSTANTS);
        state[4..12].copy_from_slice(&self.key);
        state[12] = self.counter as u32;
        state[13] = (self.counter >> 32) as u32;
        // state[14..16] is the stream id, fixed to 0.
        let input = state;
        for _ in 0..4 {
            // Column round.
            quarter_round(&mut state, 0, 4, 8, 12);
            quarter_round(&mut state, 1, 5, 9, 13);
            quarter_round(&mut state, 2, 6, 10, 14);
            quarter_round(&mut state, 3, 7, 11, 15);
            // Diagonal round.
            quarter_round(&mut state, 0, 5, 10, 15);
            quarter_round(&mut state, 1, 6, 11, 12);
            quarter_round(&mut state, 2, 7, 8, 13);
            quarter_round(&mut state, 3, 4, 9, 14);
        }
        for (out, inp) in state.iter_mut().zip(input.iter()) {
            *out = out.wrapping_add(*inp);
        }
        self.block = state;
        self.counter = self.counter.wrapping_add(1);
        self.cursor = 0;
    }

    /// The next 32 keystream bits.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        if self.cursor >= 16 {
            self.refill();
        }
        let word = self.block[self.cursor];
        self.cursor += 1;
        word
    }

    /// The next 64 keystream bits (two consecutive 32-bit words,
    /// little-endian order).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let lo = u64::from(self.next_u32());
        let hi = u64::from(self.next_u32());
        lo | (hi << 32)
    }

    /// A uniform `u64` in `[0, n)`, without modulo bias (Lemire's
    /// widening-multiply rejection method).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[inline]
    pub fn next_u64_below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty sampling range");
        let mut m = u128::from(self.next_u64()) * u128::from(n);
        let mut lo = m as u64;
        if lo < n {
            let threshold = n.wrapping_neg() % n;
            while lo < threshold {
                m = u128::from(self.next_u64()) * u128::from(n);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// A uniform `f64` in `[0, 1)` with 53 random bits.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        const SCALE: f64 = 1.0 / (1u64 << 53) as f64;
        (self.next_u64() >> 11) as f64 * SCALE
    }

    /// A uniform `f64` in `[0, 1]` (both endpoints reachable).
    #[inline]
    fn next_f64_inclusive(&mut self) -> f64 {
        const DENOM: f64 = ((1u64 << 53) - 1) as f64;
        (self.next_u64() >> 11) as f64 / DENOM
    }

    /// A uniform sample from `range` — `Range`/`RangeInclusive` over
    /// `usize`, `u64`, or `f64`, mirroring the `rand` call forms the
    /// workspace uses.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or (for floats) not finite.
    #[inline]
    pub fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!(
            (0.0..=1.0).contains(&p),
            "gen_bool probability {p} not in [0, 1]"
        );
        self.next_f64() < p
    }

    /// A normal (Gaussian) sample with the given mean and standard
    /// deviation, via the Box–Muller transform.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative or either parameter is non-finite.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(
            mean.is_finite() && std_dev.is_finite() && std_dev >= 0.0,
            "invalid normal parameters: mean {mean}, std_dev {std_dev}"
        );
        // u1 in (0, 1] so ln(u1) is finite.
        let u1 = 1.0 - self.next_f64();
        let u2 = self.next_f64();
        let radius = (-2.0 * u1.ln()).sqrt();
        mean + std_dev * radius * (std::f64::consts::TAU * u2).cos()
    }
}

/// A range that [`ChaCha8Rng::gen_range`] can sample uniformly.
pub trait SampleRange<T> {
    /// Draws one uniform sample from the range.
    fn sample(self, rng: &mut ChaCha8Rng) -> T;
}

impl SampleRange<usize> for Range<usize> {
    #[inline]
    fn sample(self, rng: &mut ChaCha8Rng) -> usize {
        assert!(self.start < self.end, "empty range {:?}", self);
        let width = (self.end - self.start) as u64;
        self.start + rng.next_u64_below(width) as usize
    }
}

impl SampleRange<usize> for RangeInclusive<usize> {
    #[inline]
    fn sample(self, rng: &mut ChaCha8Rng) -> usize {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty range {lo}..={hi}");
        let width = (hi - lo) as u64;
        if width == u64::MAX {
            return rng.next_u64() as usize;
        }
        lo + rng.next_u64_below(width + 1) as usize
    }
}

impl SampleRange<u64> for Range<u64> {
    #[inline]
    fn sample(self, rng: &mut ChaCha8Rng) -> u64 {
        assert!(self.start < self.end, "empty range {:?}", self);
        self.start + rng.next_u64_below(self.end - self.start)
    }
}

impl SampleRange<f64> for Range<f64> {
    #[inline]
    fn sample(self, rng: &mut ChaCha8Rng) -> f64 {
        assert!(
            self.start.is_finite() && self.end.is_finite() && self.start < self.end,
            "invalid float range {:?}",
            self
        );
        let width = self.end - self.start;
        let sample = self.start + rng.next_f64() * width;
        // Floating rounding can land exactly on the excluded endpoint;
        // clamp to the largest value strictly below it.
        if sample >= self.end {
            f64::from_bits(self.end.to_bits() - 1)
        } else {
            sample
        }
    }
}

impl SampleRange<f64> for RangeInclusive<f64> {
    #[inline]
    fn sample(self, rng: &mut ChaCha8Rng) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(
            lo.is_finite() && hi.is_finite() && lo <= hi,
            "invalid float range {lo}..={hi}"
        );
        let sample = lo + rng.next_f64_inclusive() * (hi - lo);
        sample.clamp(lo, hi)
    }
}

/// Random operations on slices: in-place Fisher–Yates [`shuffle`] and
/// uniform element [`choose`].
///
/// [`shuffle`]: SliceRandom::shuffle
/// [`choose`]: SliceRandom::choose
pub trait SliceRandom {
    /// The element type.
    type Item;

    /// Uniformly permutes the slice in place.
    fn shuffle(&mut self, rng: &mut ChaCha8Rng);

    /// A uniformly chosen element, or `None` if the slice is empty.
    fn choose<'a>(&'a self, rng: &mut ChaCha8Rng) -> Option<&'a Self::Item>;
}

impl<T> SliceRandom for [T] {
    type Item = T;

    fn shuffle(&mut self, rng: &mut ChaCha8Rng) {
        for i in (1..self.len()).rev() {
            let j = rng.next_u64_below(i as u64 + 1) as usize;
            self.swap(i, j);
        }
    }

    fn choose<'a>(&'a self, rng: &mut ChaCha8Rng) -> Option<&'a T> {
        if self.is_empty() {
            None
        } else {
            Some(&self[rng.next_u64_below(self.len() as u64) as usize])
        }
    }
}

/// The 64-bit FNV-1a offset basis: the starting state of an
/// [`fnv1a_extend`] chain.
pub const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

const FNV1A_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into the FNV-1a state `hash`, so a hash can be built
/// from several pieces: `fnv1a_extend(fnv1a(a), b) == fnv1a(a ++ b)`.
#[must_use]
pub fn fnv1a_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV1A_PRIME);
    }
    hash
}

/// The 64-bit FNV-1a hash of `bytes`.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV1A_OFFSET, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Known-answer test: the first keystream words for seed 0 and a
    /// large seed, frozen at the stream's introduction. Any change to
    /// the seeding or the core shifts every generated scenario in the
    /// workspace, so it must be deliberate and visible here.
    #[test]
    fn keystream_is_frozen() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let head: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert_eq!(
            head,
            vec![
                0xbf94_d133_2d8e_e5e8,
                0x3a73_8775_a6da_5a01,
                0x3d46_ff10_c143_ee06,
                0x17c6_ab23_e9f6_424f,
            ],
            "ChaCha8 stream changed for seed 0: {head:#018x?}"
        );
        let mut rng = ChaCha8Rng::seed_from_u64(0x0123_4567_89ab_cdef);
        let head: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert_eq!(
            head,
            vec![
                0xebc1_da95_2141_ac05,
                0x2743_2138_41bb_2a12,
                0xab91_da80_8a06_911b,
                0x05c8_33b7_ac2c_c370,
            ],
            "ChaCha8 stream changed for seed 0x0123456789abcdef: {head:#018x?}"
        );
    }

    #[test]
    fn same_seed_same_stream_distinct_seeds_differ() {
        let mut a = ChaCha8Rng::seed_from_u64(42);
        let mut b = ChaCha8Rng::seed_from_u64(42);
        let mut c = ChaCha8Rng::seed_from_u64(43);
        let sa: Vec<u64> = (0..64).map(|_| a.next_u64()).collect();
        let sb: Vec<u64> = (0..64).map(|_| b.next_u64()).collect();
        let sc: Vec<u64> = (0..64).map(|_| c.next_u64()).collect();
        assert_eq!(sa, sb);
        assert_ne!(sa, sc);
    }

    #[test]
    fn range_samples_stay_in_bounds_and_cover() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let v = rng.gen_range(0..7usize);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "7 buckets not all hit: {seen:?}");
        for _ in 0..1000 {
            let v = rng.gen_range(3..=9usize);
            assert!((3..=9).contains(&v));
            let f = rng.gen_range(-2.0..=5.0f64);
            assert!((-2.0..=5.0).contains(&f));
            let g = rng.gen_range(1e-12..1.0f64);
            assert!((1e-12..1.0).contains(&g));
        }
    }

    #[test]
    fn float_range_mean_is_central() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.gen_range(0.0..=1.0f64)).sum::<f64>() / f64::from(n);
        assert!((mean - 0.5).abs() < 0.01, "uniform mean drifted: {mean}");
    }

    #[test]
    fn gen_bool_matches_probability() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let n = 20_000;
        let hits = (0..n).filter(|_| rng.gen_bool(0.3)).count();
        let rate = hits as f64 / f64::from(n);
        assert!((rate - 0.3).abs() < 0.02, "gen_bool(0.3) rate {rate}");
        assert!((0..100).all(|_| !rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn shuffle_is_a_permutation_and_roughly_uniform() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut v: Vec<usize> = (0..10).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());

        // Position histogram of element 0 over many shuffles.
        let trials = 6000;
        let mut counts = [0usize; 6];
        for _ in 0..trials {
            let mut w: Vec<usize> = (0..6).collect();
            w.shuffle(&mut rng);
            counts[w.iter().position(|&x| x == 0).unwrap()] += 1;
        }
        let expected = trials as f64 / 6.0;
        for (pos, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(
                dev < 0.15,
                "position {pos} count {c} vs expected {expected}"
            );
        }
    }

    #[test]
    fn choose_covers_all_elements() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let items = [10, 20, 30];
        let mut seen = [false; 3];
        for _ in 0..200 {
            let &x = items.choose(&mut rng).unwrap();
            seen[items.iter().position(|&y| y == x).unwrap()] = true;
        }
        assert!(seen.iter().all(|&s| s));
        let empty: [i32; 0] = [];
        assert!(empty.choose(&mut rng).is_none());
    }

    #[test]
    fn normal_moments_are_sane() {
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(2.0, 3.0)).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var =
            samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (samples.len() - 1) as f64;
        assert!((mean - 2.0).abs() < 0.1, "normal mean {mean}");
        assert!((var.sqrt() - 3.0).abs() < 0.1, "normal std {}", var.sqrt());
    }

    #[test]
    fn cross_thread_seed_independence() {
        // The same seed yields the same stream on every thread, and
        // per-thread seeds yield the streams their seeds dictate,
        // regardless of interleaving — there is no hidden global state.
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                std::thread::spawn(move || {
                    let mut rng = ChaCha8Rng::seed_from_u64(t % 4);
                    (
                        t % 4,
                        (0..256).map(|_| rng.next_u64()).collect::<Vec<u64>>(),
                    )
                })
            })
            .collect();
        let results: Vec<(u64, Vec<u64>)> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        for (seed, stream) in &results {
            let mut reference = ChaCha8Rng::seed_from_u64(*seed);
            let expect: Vec<u64> = (0..256).map(|_| reference.next_u64()).collect();
            assert_eq!(stream, &expect, "thread stream diverged for seed {seed}");
        }
        assert_ne!(results[0].1, results[1].1, "distinct seeds must differ");
    }

    #[test]
    fn below_is_unbiased_at_small_n() {
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let trials = 30_000;
        let mut counts = [0usize; 3];
        for _ in 0..trials {
            counts[rng.next_u64_below(3) as usize] += 1;
        }
        let expected = trials as f64 / 3.0;
        for &c in &counts {
            assert!((c as f64 - expected).abs() / expected < 0.05, "{counts:?}");
        }
    }

    /// Published FNV-1a 64-bit test vectors, and chaining equals hashing
    /// the concatenation.
    #[test]
    fn fnv1a_matches_reference_vectors_and_chains() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a_extend(fnv1a(b"foo"), b"bar"), fnv1a(b"foobar"));
    }
}
