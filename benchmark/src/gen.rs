//! Input generation. Everything a workload feeds the program is drawn
//! here from `--seed` by a private xorshift; the program under test only
//! ever sees the generated requests.

/// xorshift64* seeded through one splitmix64 step (so seed 0 is usable
/// and neighbouring seeds give unrelated streams).
#[derive(Debug, Clone)]
pub struct XorShift(u64);

impl XorShift {
    pub fn new(seed: u64) -> XorShift {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        XorShift((z ^ (z >> 31)) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// `k` distinct items of `pool`, in drawn order.
    pub fn sample<T: Clone>(&mut self, pool: &[T], k: usize) -> Vec<T> {
        let mut all = pool.to_vec();
        self.shuffle(&mut all);
        all.truncate(k.min(pool.len()));
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_different_seed_different_stream() {
        let draw = |s| {
            let mut g = XorShift::new(s);
            (0..16).map(|_| g.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43));
        assert_ne!(draw(0), draw(1));
    }

    #[test]
    fn sample_is_a_subset_without_repeats() {
        let pool: Vec<u64> = (100..132).collect();
        let mut g = XorShift::new(7);
        let mut s = g.sample(&pool, 12);
        assert_eq!(s.len(), 12);
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 12);
        assert!(s.iter().all(|x| pool.contains(x)));
    }
}
