//! Mark bitmap: one bit per 8-byte granule of heap.
//!
//! Phase I of LISP2 marks live objects here; later phases test bits while
//! walking. The bitmap is a host-side shadow structure (real collectors
//! keep it off-heap too), so it has no simulated cost of its own — the
//! *traversal* that sets bits is what gets charged.

use svagc_vmem::{VirtAddr, WORD_BYTES};

/// A bitmap over `[base, base + words * 8)` with one bit per word. The
/// default covers nothing; [`MarkBitmap::reset`] re-targets it.
#[derive(Debug, Clone, Default)]
pub struct MarkBitmap {
    base: VirtAddr,
    words: u64,
    bits: Vec<u64>,
    marked: u64,
}

impl MarkBitmap {
    /// Bitmap covering `words` words starting at `base`.
    pub fn new(base: VirtAddr, words: u64) -> MarkBitmap {
        MarkBitmap {
            base,
            words,
            bits: vec![0; words.div_ceil(64) as usize],
            marked: 0,
        }
    }

    #[inline]
    fn index(&self, va: VirtAddr) -> u64 {
        debug_assert!(va >= self.base, "address below bitmap base");
        debug_assert_eq!((va - self.base) % WORD_BYTES, 0, "unaligned mark");
        let idx = (va - self.base) / WORD_BYTES;
        debug_assert!(idx < self.words, "address beyond bitmap");
        idx
    }

    /// Mark the word at `va`. Returns `true` if it was newly marked
    /// (the marking-phase "did I win this object?" test).
    #[inline]
    pub fn mark(&mut self, va: VirtAddr) -> bool {
        let idx = self.index(va);
        let (w, b) = ((idx / 64) as usize, idx % 64);
        let mask = 1u64 << b;
        if self.bits[w] & mask != 0 {
            false
        } else {
            self.bits[w] |= mask;
            self.marked += 1;
            true
        }
    }

    /// Is the word at `va` marked?
    #[inline]
    pub fn is_marked(&self, va: VirtAddr) -> bool {
        let idx = self.index(va);
        self.bits[(idx / 64) as usize] & (1 << (idx % 64)) != 0
    }

    /// Unmark the word at `va`. Returns `true` if it was marked; an
    /// address the bitmap does not cover is not marked.
    #[inline]
    pub fn unmark(&mut self, va: VirtAddr) -> bool {
        let Some(idx) = va
            .get()
            .checked_sub(self.base.get())
            .map(|off| off / WORD_BYTES)
            .filter(|&idx| idx < self.words)
        else {
            return false;
        };
        let (w, b) = ((idx / 64) as usize, idx % 64);
        let mask = 1u64 << b;
        if self.bits[w] & mask == 0 {
            false
        } else {
            self.bits[w] &= !mask;
            self.marked -= 1;
            true
        }
    }

    /// Clear all marks.
    pub fn clear(&mut self) {
        self.bits.fill(0);
        self.marked = 0;
    }

    /// Re-target the bitmap at `[base, base + words * 8)` with no marks,
    /// keeping its buffer: afterwards it equals `MarkBitmap::new(base,
    /// words)`. Only words that hold a mark are written, so a collector
    /// that [`MarkBitmap::unmark`]s what it marked resets in O(1), and a
    /// reused bitmap keeps no more host pages resident than its marks
    /// ever touched. Growing past the buffer takes a fresh zeroed one.
    pub fn reset(&mut self, base: VirtAddr, words: u64) {
        if self.marked > 0 {
            for w in self.bits.iter_mut().filter(|w| **w != 0) {
                *w = 0;
            }
            self.marked = 0;
        }
        let len = words.div_ceil(64) as usize;
        if len > self.bits.capacity() {
            self.bits = vec![0; len];
        } else {
            self.bits.resize(len, 0);
        }
        self.base = base;
        self.words = words;
    }

    /// Number of marked words (== marked objects when one bit is set per
    /// object header).
    pub fn marked_count(&self) -> u64 {
        self.marked
    }

    /// Iterate the addresses of all set bits in ascending order.
    pub fn iter_marked(&self) -> impl Iterator<Item = VirtAddr> + '_ {
        self.bits.iter().enumerate().flat_map(move |(w, &word)| {
            let base = self.base;
            let mut bits = word;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let b = bits.trailing_zeros() as u64;
                bits &= bits - 1;
                Some(base + (w as u64 * 64 + b) * WORD_BYTES)
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bm() -> MarkBitmap {
        MarkBitmap::new(VirtAddr(0x1000), 1024)
    }

    #[test]
    fn mark_and_test() {
        let mut m = bm();
        let va = VirtAddr(0x1000 + 8 * 100);
        assert!(!m.is_marked(va));
        assert!(m.mark(va));
        assert!(!m.mark(va), "second mark loses");
        assert!(m.is_marked(va));
        assert_eq!(m.marked_count(), 1);
    }

    #[test]
    fn clear_resets() {
        let mut m = bm();
        m.mark(VirtAddr(0x1000));
        m.mark(VirtAddr(0x1008));
        m.clear();
        assert_eq!(m.marked_count(), 0);
        assert!(!m.is_marked(VirtAddr(0x1000)));
    }

    #[test]
    fn iter_marked_ascending() {
        let mut m = bm();
        for off in [800, 0, 72, 8 * 1023] {
            m.mark(VirtAddr(0x1000 + off));
        }
        let got: Vec<u64> = m.iter_marked().map(|v| v.get() - 0x1000).collect();
        assert_eq!(got, vec![0, 72, 800, 8 * 1023]);
    }

    /// The fields that define a bitmap's observable state.
    fn state(m: &MarkBitmap) -> (VirtAddr, u64, &[u64], u64) {
        (m.base, m.words, &m.bits, m.marked)
    }

    #[test]
    fn reset_equals_new_after_marks_at_both_ends() {
        let mut m = MarkBitmap::new(VirtAddr(0x1000), 1024);
        for (base, words) in [(0x1000, 1024), (0x8000, 4096), (0x2000, 65), (0x1000, 64), (0, 1)] {
            m.reset(VirtAddr(base), words);
            assert_eq!(state(&m), state(&MarkBitmap::new(VirtAddr(base), words)));
            // Marks at the first and last word, plus one in the middle.
            let last = VirtAddr(base + (words - 1) * 8);
            m.mark(VirtAddr(base));
            m.mark(last);
            m.mark(VirtAddr(base + words / 2 * 8));
            assert!(m.is_marked(VirtAddr(base)) && m.is_marked(last));
        }
        m.reset(VirtAddr(0x1000), 1024);
        assert_eq!(state(&m), state(&MarkBitmap::new(VirtAddr(0x1000), 1024)));
        assert_eq!(m.iter_marked().count(), 0);
    }

    #[test]
    fn unmark_keeps_the_count_and_reset_exact() {
        let mut m = bm();
        let (a, b) = (VirtAddr(0x1000), VirtAddr(0x1000 + 8 * 1023));
        m.mark(a);
        m.mark(b);
        assert!(m.unmark(a));
        assert!(!m.unmark(a), "second unmark finds nothing");
        assert!(!m.unmark(VirtAddr(0x1000 + 8 * 1024)), "past the end");
        assert!(!m.unmark(VirtAddr(0)), "below the base");
        assert_eq!(m.marked_count(), 1);
        assert!(m.unmark(b));
        // Nothing left to clear: reset takes the O(1) path.
        m.reset(VirtAddr(0x1000), 1024);
        assert_eq!(state(&m), state(&bm()));
    }

    #[test]
    fn boundary_words() {
        let mut m = MarkBitmap::new(VirtAddr(0), 65);
        assert!(m.mark(VirtAddr(63 * 8)));
        assert!(m.mark(VirtAddr(64 * 8))); // second u64 of bits
        assert_eq!(m.marked_count(), 2);
    }
}
