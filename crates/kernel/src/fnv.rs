//! Word-wide FNV-1a: the one checksum fold behind every full-page hash.
//!
//! Classic FNV-1a folds one byte per multiply, so a 4 KiB page is a
//! serial chain of 4096 dependent multiplies. [`Fnv64`] folds a whole
//! 64-bit word per multiply instead — eight times fewer. It keeps the
//! property the checksums rely on: multiplying by the odd FNV prime is a
//! bijection mod 2^64, so changing any single word always changes the
//! sum. Every value is compared only against another value this same fold
//! produced, so the word granularity is free to choose.
//!
//! Users: the far device's per-slot checksum, the write-ahead log's frame
//! and pre-image checksums, and the heap verifier's content hash.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// A running word-wide FNV-1a hash.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Fnv64 {
        Fnv64::new()
    }
}

impl Fnv64 {
    /// The empty hash (the FNV offset basis).
    pub const fn new() -> Fnv64 {
        Fnv64(OFFSET)
    }

    /// Fold one 64-bit word.
    #[inline]
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(PRIME);
    }

    /// Fold a run of words.
    #[inline]
    pub fn words(&mut self, ws: &[u64]) {
        for &w in ws {
            self.word(w);
        }
    }

    /// Fold `bytes` as consecutive little-endian words. The length must be
    /// a whole number of words (pages, and word-aligned ranges of them).
    #[inline]
    pub fn le_words(&mut self, bytes: &[u8]) {
        debug_assert_eq!(bytes.len() % 8, 0, "le_words takes whole words");
        for c in bytes.chunks_exact(8) {
            self.word(u64::from_le_bytes(c.try_into().expect("chunks_exact(8)")));
        }
    }

    /// The hash of everything folded so far.
    #[inline]
    pub fn finish(self) -> u64 {
        self.0
    }

    /// The hash of a word slice in one call.
    pub fn of_words(ws: &[u64]) -> u64 {
        let mut h = Fnv64::new();
        h.words(ws);
        h.finish()
    }

    /// The hash of a whole-word byte slice in one call.
    pub fn of_le_words(bytes: &[u8]) -> u64 {
        let mut h = Fnv64::new();
        h.le_words(bytes);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_and_word_views_agree() {
        let ws = [0u64, 1, u64::MAX, 0x0123_4567_89ab_cdef];
        let bytes: Vec<u8> = ws.iter().flat_map(|w| w.to_le_bytes()).collect();
        assert_eq!(Fnv64::of_words(&ws), Fnv64::of_le_words(&bytes));
        assert_eq!(Fnv64::of_words(&[]), OFFSET);
    }

    #[test]
    fn any_single_word_change_changes_the_sum() {
        let base = [7u64; 16];
        let h = Fnv64::of_words(&base);
        for i in 0..base.len() {
            for flip in [1u64, 1 << 63, u64::MAX] {
                let mut ws = base;
                ws[i] ^= flip;
                assert_ne!(Fnv64::of_words(&ws), h, "word {i} flip {flip:#x}");
            }
        }
    }
}
