//! The benchmark's only source of randomness: a seeded xorshift64* stream.
//!
//! Inputs are a function of `--seed` alone, so two runs with one seed
//! submit identical work and every simulated metric repeats exactly.

/// xorshift64* (Vigna); the seed goes through one splitmix64 step so that
/// neighbouring seeds (1, 2, 3 …) give unrelated streams and 0 is legal.
#[derive(Debug, Clone)]
pub struct XorShift(u64);

impl XorShift {
    pub fn new(seed: u64) -> Self {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        XorShift((z ^ (z >> 31)) | 1)
    }

    /// A stream derived from this seed and a lane number (one per thread).
    pub fn lane(seed: u64, lane: u64) -> Self {
        Self::new(seed ^ lane.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n` (multiply-shift; `n` must be non-zero).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_bounds_hold() {
        let mut a = XorShift::new(7);
        let mut b = XorShift::new(7);
        let mut c = XorShift::new(8);
        let mut differs = false;
        for _ in 0..1000 {
            let x = a.below(10);
            assert_eq!(x, b.below(10));
            assert!(x < 10);
            differs |= x != c.below(10);
        }
        assert!(differs);
        assert!((0.0..1.0).contains(&a.unit()));
    }
}
