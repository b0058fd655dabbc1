//! A tiny seeded PRNG (SplitMix64) so property tests and corpus generation
//! are deterministic without an external dependency — the workspace builds
//! offline, so neither can pull `rand`/`proptest` from crates.io. This is
//! the one copy: `docql-corpus` re-exports it. SplitMix64 passes BigCrush
//! and is more than adequate for generators; it is *not* cryptographic.

/// Deterministic pseudo-random generator: same seed → same sequence.
#[derive(Debug, Clone)]
pub struct SeededRng {
    state: u64,
}

impl SeededRng {
    /// A generator seeded from a `u64` (mirrors `rand`'s `seed_from_u64`).
    pub fn seed_from_u64(seed: u64) -> SeededRng {
        SeededRng { state: seed }
    }

    /// The next 64 random bits (SplitMix64 step).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform value in `[range.start, range.end)`. The range must be
    /// non-empty. (Modulo bias is negligible for the small ranges the
    /// generators use.)
    pub fn gen_range(&mut self, range: std::ops::Range<usize>) -> usize {
        debug_assert!(range.start < range.end, "gen_range: empty range");
        let span = (range.end - range.start) as u64;
        range.start + (self.next_u64() % span) as usize
    }

    /// `true` with probability `p`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        // 53 high bits → uniform f64 in [0, 1).
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        unit < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SeededRng::seed_from_u64(42);
        let mut b = SeededRng::seed_from_u64(42);
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        let mut c = SeededRng::seed_from_u64(43);
        assert_ne!(xs[0], c.next_u64());
    }

    #[test]
    fn stream_is_pinned() {
        // Every corpus, property seed and `DOCQL_FAULT` replay depends on
        // this exact stream; changing it silently re-rolls all of them.
        let mut r = SeededRng::seed_from_u64(0xD0C4_1994);
        let first: Vec<u64> = (0..8).map(|_| r.next_u64()).collect();
        assert_eq!(
            first,
            [
                0xFCA6_1163_F41D_8EC7,
                0x651F_A08B_3C91_29CE,
                0x9B73_2BD8_F1C6_E1FE,
                0x31A2_E32B_3C0E_DEC8,
                0xA0FC_2B4B_4E3F_7429,
                0x7808_994F_DC08_51E5,
                0xE45F_7B15_133E_D703,
                0x7B9F_DB40_6F33_E80F,
            ]
        );
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut r = SeededRng::seed_from_u64(7);
        let heads = (0..10_000).filter(|_| r.gen_bool(0.5)).count();
        assert!((4_000..6_000).contains(&heads), "heads = {heads}");
        let mut r = SeededRng::seed_from_u64(7);
        assert!((0..100).all(|_| !r.gen_bool(0.0)));
        let mut r = SeededRng::seed_from_u64(7);
        assert!((0..100).all(|_| r.gen_bool(1.0)));
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut r = SeededRng::seed_from_u64(7);
        for _ in 0..1000 {
            let v = r.gen_range(3..9);
            assert!((3..9).contains(&v));
        }
    }
}
