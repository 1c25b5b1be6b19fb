//! PCG XSL-RR 128/64 ("pcg64") — the simulator's workhorse generator.
//!
//! 128 bits of LCG state with an xorshift-low + random-rotation output
//! function (O'Neill 2014). Period 2^128 per stream, 2^127 selectable
//! streams, passes PractRand/BigCrush, and steps in a handful of cycles.

use super::splitmix::SplitMix64;

/// Default multiplier for the 128-bit PCG LCG (from the PCG reference
/// implementation).
const PCG_MUL: u128 = 0x2360_ED05_1FC6_5DA4_4385_DF64_9FCC_F645;

/// PCG64 generator. Create with [`Pcg64::new`] (single `u64` seed) or
/// [`Pcg64::new_stream`] (seed + explicit stream id).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pcg64 {
    state: u128,
    /// Stream selector; always odd.
    inc: u128,
    /// The seed material this generator was built from, retained so
    /// [`fork`](Pcg64::fork) can derive independent child streams.
    root: u64,
}

impl Pcg64 {
    /// A generator determined entirely by `seed`. Internally expands the
    /// seed with SplitMix64 into 128-bit state and stream material.
    pub fn new(seed: u64) -> Self {
        Self::new_stream(seed, 0xDA3E_39CB_94B9_5BDB)
    }

    /// A generator on an explicit stream. Two generators with the same seed
    /// but different streams produce independent sequences.
    pub fn new_stream(seed: u64, stream: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s_hi = sm.next_u64() as u128;
        let s_lo = sm.next_u64() as u128;
        let mut sm2 = SplitMix64::new(stream);
        let i_hi = sm2.next_u64() as u128;
        let i_lo = sm2.next_u64() as u128;
        let initstate = (s_hi << 64) | s_lo;
        let initseq = (i_hi << 64) | i_lo;
        // Reference seeding dance: guarantees well-mixed state even for
        // pathological seeds like 0.
        let mut rng = Pcg64 {
            state: 0,
            inc: (initseq << 1) | 1,
            root: seed,
        };
        rng.step();
        rng.state = rng.state.wrapping_add(initstate);
        rng.step();
        rng
    }

    /// Derive an independent child generator labelled `label`. The child is
    /// a pure function of `(parent seed material, label)` — not of how many
    /// numbers the parent has drawn — so parallel sweeps are reproducible
    /// regardless of scheduling order.
    pub fn fork(&self, label: u64) -> Pcg64 {
        let child_seed = SplitMix64::mix(self.root, label);
        let child_stream = SplitMix64::mix(label, !self.root);
        Pcg64::new_stream(child_seed, child_stream)
    }

    #[inline]
    fn step(&mut self) {
        self.state = self.state.wrapping_mul(PCG_MUL).wrapping_add(self.inc);
    }

    /// The next 64 pseudo-random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.step();
        let xored = ((self.state >> 64) as u64) ^ (self.state as u64);
        let rot = (self.state >> 122) as u32;
        xored.rotate_right(rot)
    }

    /// A uniform `f64` in `[0, 1)` with full 53-bit mantissa resolution.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform `f64` in the open interval `(0, 1)`; safe to pass to `ln`.
    #[inline]
    pub fn next_f64_open(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform integer in `[0, bound)` without modulo bias (Lemire's
    /// multiply-shift rejection method).
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    pub fn bounded_u64(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bounded_u64 requires bound > 0");
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let r = self.next_u64();
            let m = (r as u128) * (bound as u128);
            if (m as u64) >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// A uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "range_u64 requires lo < hi ({lo} >= {hi})");
        lo + self.bounded_u64(hi - lo)
    }

    /// A uniform index in `[0, len)`.
    pub fn index(&mut self, len: usize) -> usize {
        self.bounded_u64(len as u64) as usize
    }

    /// A uniform `f64` in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = Pcg64::new(7);
        let mut b = Pcg64::new(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn streams_are_independent() {
        let mut a = Pcg64::new_stream(7, 1);
        let mut b = Pcg64::new_stream(7, 2);
        let equal = (0..256).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(equal, 0);
    }

    #[test]
    fn fork_is_stable_and_independent() {
        let parent = Pcg64::new(99);
        let mut burn = parent.clone();
        for _ in 0..50 {
            burn.next_u64();
        }
        // fork() must not depend on how much the parent has been used.
        let mut c1 = parent.fork(3);
        let mut c2 = burn.fork(3);
        for _ in 0..100 {
            assert_eq!(c1.next_u64(), c2.next_u64());
        }
        let mut other = parent.fork(4);
        let equal = (0..256)
            .filter(|_| parent.fork(3).next_u64() == other.next_u64())
            .count();
        assert!(equal <= 1);
    }

    #[test]
    fn f64_in_unit_interval_and_uniform() {
        let mut rng = Pcg64::new(12345);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.005, "mean {mean} too far from 0.5");
    }

    #[test]
    fn open_interval_never_zero() {
        let mut rng = Pcg64::new(1);
        for _ in 0..10_000 {
            let x = rng.next_f64_open();
            assert!(x > 0.0 && x < 1.0);
        }
    }

    #[test]
    fn bounded_is_unbiased_ish() {
        let mut rng = Pcg64::new(5);
        let mut counts = [0u32; 7];
        let n = 70_000;
        for _ in 0..n {
            counts[rng.bounded_u64(7) as usize] += 1;
        }
        let expect = n as f64 / 7.0;
        for (i, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expect).abs() / expect;
            assert!(dev < 0.05, "bucket {i} deviates {dev:.3} from uniform");
        }
    }

    #[test]
    fn range_bounds_respected() {
        let mut rng = Pcg64::new(8);
        for _ in 0..10_000 {
            let v = rng.range_u64(10, 20);
            assert!((10..20).contains(&v));
            let f = rng.range_f64(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&f));
        }
    }

    #[test]
    #[should_panic(expected = "bound > 0")]
    fn bounded_zero_panics() {
        Pcg64::new(1).bounded_u64(0);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = Pcg64::new(11);
        assert!((0..100).all(|_| !rng.chance(0.0)));
        assert!((0..100).all(|_| rng.chance(1.0)));
    }
}
