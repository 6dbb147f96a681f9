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
//! when w = 0, so n zero words in a row are one multiply by Pⁿ mod 2^64.
//! Multiplication mod 2^64 is associative, so every closed form below is
//! bit-identical to the per-word fold.
//!
//! * [`Fnv64::words`] and [`Fnv64::le_words`] read their input eight
//!   words (64 bytes) at a time, OR the chunk, and take one multiply by P⁸
//!   when the chunk is all zero; any other chunk, and a tail of fewer than
//!   eight words, folds word by word. These read every byte.
//! * [`Fnv64::zeros`] folds a run of n words that is known to be zero
//!   without reading it: Pⁿ is a product of the table entries P^(2^k) for
//!   the set bits of n, so a whole 4 KiB page (n = 512) is one multiply.
//!   The content hash takes it for every page the kernel's page view
//!   reports as zero: a clean DRAM frame (a frame's clean bit implies all
//!   of its bytes are 0) and a far-device slot that holds a zero page.
//!   Those pages are never read. The device's checksum of a zero slot is
//!   the same fold, taken once at compile time.
//!
//! Heap payloads and demoted pages are mostly zero (allocation zeroes
//! each object), so the hash costs about one multiply per non-zero word,
//! one per zero chunk of a written page, and a handful per page that was
//! never written.
//!
//! Users: the far device's per-slot checksum, the write-ahead log's frame
//! and pre-image checksums, and the heap verifier's content hash.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;
/// Words per chunk of the zero test (a power of two).
const CHUNK: usize = 8;

/// P^(2^k) mod 2^64 for k = 0..64: the factors of [`Fnv64::zeros`].
const PRIME_POW2: [u64; 64] = {
    let mut t = [0u64; 64];
    let mut p = PRIME;
    let mut k = 0;
    while k < 64 {
        t[k] = p;
        p = p.wrapping_mul(p);
        k += 1;
    }
    t
};

/// PRIME^CHUNK mod 2^64: the fold of a chunk of zero words.
const PRIME_POW_CHUNK: u64 = PRIME_POW2[CHUNK.trailing_zeros() as usize];

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

    /// Fold `n` zero words without reading them: one multiply per set bit
    /// of `n`, bit-identical to `n` calls of `word(0)`.
    #[inline]
    pub const fn zeros(&mut self, n: u64) {
        let mut bits = n;
        while bits != 0 {
            self.0 = self.0.wrapping_mul(PRIME_POW2[bits.trailing_zeros() as usize]);
            bits &= bits - 1;
        }
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
    pub const fn finish(self) -> u64 {
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
    fn zeros_is_the_per_word_fold_of_zero() {
        let start = Fnv64(0x0123_4567_89ab_cdef);
        let mut fold = start;
        for n in 0..300u64 {
            let mut closed = start;
            closed.zeros(n);
            assert_eq!(closed.finish(), fold.finish(), "n = {n}");
            fold.word(0);
        }
        assert_eq!(PRIME_POW_CHUNK, PRIME.wrapping_pow(CHUNK as u32));
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
