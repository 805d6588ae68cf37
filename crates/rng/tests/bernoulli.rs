//! `Bernoulli::sample` is `gen_bool` without the float conversion: the
//! same outcome from the same single `next_u64`, for every probability.

use proptest::prelude::*;
use sipt_rng::{Bernoulli, Rng, SeedableRng, StdRng};
use sipt_workloads::{BENCHMARKS, MIX_ONLY_BENCHMARKS};

const DRAWS: usize = 10_000;

/// The definition `Bernoulli` must reproduce: a 53-bit float in `[0, 1)`
/// compared against `p`.
fn float_coin<R: Rng>(rng: &mut R, p: f64) -> bool {
    rng.next_f64() < p
}

/// Always returns one chosen word, to probe the threshold exactly.
struct Word(u64);

impl Rng for Word {
    fn next_u64(&mut self) -> u64 {
        self.0
    }
}

/// Compare `Bernoulli::new(p)` with the float definition and with
/// `gen_bool(p)` on `DRAWS` draws from three clones of one stream, which
/// must stay in lockstep. Then compare them on the two 53-bit values
/// either side of the threshold, where an off-by-one in `⌈p · 2⁵³⌉`
/// would show.
fn assert_matches_gen_bool(p: f64, seed: u64) {
    let coin = Bernoulli::new(p);
    let mut integer = StdRng::seed_from_u64(seed);
    let mut float = integer.clone();
    let mut gen_bool = integer.clone();
    for i in 0..DRAWS {
        let want = float_coin(&mut float, p);
        assert_eq!(coin.sample(&mut integer), want, "p = {p:e}, draw {i}");
        assert_eq!(gen_bool.gen_bool(p), want, "p = {p:e}, draw {i}");
    }
    assert_eq!(integer, float, "p = {p:e}: streams diverged");
    assert_eq!(gen_bool, float, "p = {p:e}: streams diverged");

    let edge = (p * 2f64.powi(53)).ceil() as u64;
    let low_bits = seed & 0x7FF;
    for k in [edge.saturating_sub(1), edge].into_iter().filter(|&k| k < 1 << 53) {
        let word = (k << 11) | low_bits;
        let want = float_coin(&mut Word(word), p);
        assert_eq!(coin.sample(&mut Word(word)), want, "p = {p:e}, k = {k}");
        assert_eq!(Word(word).gen_bool(p), want, "p = {p:e}, k = {k}");
    }
}

#[test]
fn matches_gen_bool_at_the_generator_probabilities() {
    let tiny = 2f64.powi(-53);
    let mut ps = vec![0.0, tiny, 0.1, 0.3, 0.4, 0.5, 0.92, 1.0 - tiny, 1.0];
    for spec in BENCHMARKS.iter().chain(MIX_ONLY_BENCHMARKS) {
        ps.extend([spec.mem_ratio, spec.store_ratio]);
    }
    for (i, p) in ps.into_iter().enumerate() {
        assert_matches_gen_bool(p, 0xB3A7 + i as u64);
    }
}

#[test]
fn degenerate_probabilities_are_constant() {
    let mut rng = StdRng::seed_from_u64(5);
    assert!((0..1_000).all(|_| !Bernoulli::new(0.0).sample(&mut rng)));
    assert!((0..1_000).all(|_| Bernoulli::new(1.0).sample(&mut rng)));
}

#[test]
#[should_panic(expected = "outside [0, 1]")]
fn rejects_negative_probability() {
    let _ = Bernoulli::new(-f64::MIN_POSITIVE);
}

#[test]
#[should_panic(expected = "outside [0, 1]")]
fn rejects_probability_above_one() {
    let _ = Bernoulli::new(1.0 + f64::EPSILON);
}

#[test]
#[should_panic(expected = "outside [0, 1]")]
fn rejects_nan() {
    let _ = Bernoulli::new(f64::NAN);
}

proptest! {
    #[test]
    fn matches_gen_bool_at_uniform_probabilities(p in 0.0f64..=1.0, seed in any::<u64>()) {
        assert_matches_gen_bool(p, seed);
    }

    /// Uniform over the bit patterns of `[0, 1]`, so subnormal, tiny and
    /// full-precision probabilities all occur.
    #[test]
    fn matches_gen_bool_at_arbitrary_float_bits(
        bits in 0u64..=1.0f64.to_bits(),
        seed in any::<u64>(),
    ) {
        assert_matches_gen_bool(f64::from_bits(bits), seed);
    }
}
