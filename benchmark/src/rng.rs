//! The benchmark's own seeded generator (SplitMix64): the product crates
//! receive only the generated operations, never the seed.

/// SplitMix64. Small, fast, and every state is reachable from a seed, so
/// derived per-thread streams cannot collide into short cycles.
#[derive(Debug, Clone)]
pub struct Rng(u64);

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// The stream `index` derived from `seed`: one per client thread, plus
    /// fixed indices for probes, so no two loops of a run share draws.
    pub fn stream(seed: u64, index: u64) -> Rng {
        Rng(mix(seed.wrapping_add(GOLDEN)) ^ mix(index.wrapping_add(1).wrapping_mul(GOLDEN)))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GOLDEN);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2^-40 for the
    /// key-space-sized `n` used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_streams_differ() {
        let draw = |seed, index| {
            let mut r = Rng::stream(seed, index);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(42, 0), draw(42, 0));
        assert_ne!(draw(42, 0), draw(42, 1));
        assert_ne!(draw(42, 0), draw(43, 0));
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = Rng::stream(7, 0);
        assert!((0..10_000).all(|_| r.below(37) < 37));
    }
}
