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
//! A zero word folds in closed form: the step h ← (h ⊕ w)·P is just h·P
//! when w = 0, so eight zero words in a row are one multiply by P⁸ mod
//! 2^64. [`Fnv64::words`] and [`Fnv64::le_words`] read their input eight
//! words (64 bytes) at a time, OR the chunk, and take that one multiply
//! when the chunk is all zero; any other chunk, and a tail of fewer than
//! eight words, folds word by word. Multiplication mod 2^64 is
//! associative, so every sum is bit-identical to the per-word fold, and
//! every byte is still read. Heap payloads and demoted pages are mostly
//! zero (allocation zeroes each object), so the hash costs about one
//! multiply per non-zero word plus one per zero chunk.
//!
//! Users: the far device's per-slot checksum, the write-ahead log's frame
//! and pre-image checksums, and the heap verifier's content hash.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;
/// Words per chunk of the zero test.
const CHUNK: usize = 8;
/// PRIME^CHUNK mod 2^64: the fold of a chunk of zero words.
const PRIME_POW_CHUNK: u64 = {
    let mut p = 1u64;
    let mut i = 0;
    while i < CHUNK {
        p = p.wrapping_mul(PRIME);
        i += 1;
    }
    p
};

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

    /// Fold one chunk: a single multiply when every word is zero.
    #[inline]
    fn chunk(&mut self, c: &[u64; CHUNK]) {
        if c.iter().fold(0, |acc, &w| acc | w) == 0 {
            self.0 = self.0.wrapping_mul(PRIME_POW_CHUNK);
        } else {
            self.words_serial(c);
        }
    }

    /// Fold words one multiply each.
    #[inline]
    fn words_serial(&mut self, ws: &[u64]) {
        for &w in ws {
            self.word(w);
        }
    }

    /// Fold a run of words.
    #[inline]
    pub fn words(&mut self, ws: &[u64]) {
        let mut chunks = ws.chunks_exact(CHUNK);
        for c in &mut chunks {
            self.chunk(c.try_into().expect("chunks_exact(CHUNK)"));
        }
        self.words_serial(chunks.remainder());
    }

    /// Fold `bytes` as consecutive little-endian words. The length must be
    /// a whole number of words (pages, and word-aligned ranges of them).
    #[inline]
    pub fn le_words(&mut self, bytes: &[u8]) {
        debug_assert_eq!(bytes.len() % 8, 0, "le_words takes whole words");
        let le = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("an 8-byte slice"));
        let mut chunks = bytes.chunks_exact(CHUNK * 8);
        for c in &mut chunks {
            self.chunk(&std::array::from_fn(|i| le(&c[i * 8..i * 8 + 8])));
        }
        for w in chunks.remainder().chunks_exact(8) {
            self.word(le(w));
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
