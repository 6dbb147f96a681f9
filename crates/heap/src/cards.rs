//! Card-table remembered set for generational collection.
//!
//! Table I says SwapVA (+aggregation, +PMD caching) applies to the Minor
//! GC copying phase too. Supporting a minor collector needs the standard
//! generational machinery: old→young references must be findable without
//! scanning the old generation, so reference stores dirty a *card* (a
//! 512-byte granule of the old space) and the scavenger scans only dirty
//! cards.

use svagc_vmem::VirtAddr;

/// Bytes covered by one card (HotSpot uses 512).
pub const CARD_BYTES: u64 = 512;

/// Dirty-card bitmap over an address range.
#[derive(Debug, Clone)]
pub struct CardTable {
    base: VirtAddr,
    cards: u64,
    dirty: Vec<u64>,
    dirtied: u64,
    /// Cards dirtied while a defer window is open (a concurrent mark is
    /// in flight). [`CardTable::clear`] re-applies these instead of
    /// dropping them, so a minor GC racing the concurrent phase cannot
    /// lose an old→young edge recorded after its card scan began.
    deferred: Vec<u64>,
    defer_active: bool,
}

impl CardTable {
    /// Table covering `[base, base + bytes)`.
    pub fn new(base: VirtAddr, bytes: u64) -> CardTable {
        let cards = bytes.div_ceil(CARD_BYTES);
        let words = cards.div_ceil(64) as usize;
        CardTable {
            base,
            cards,
            dirty: vec![0; words],
            dirtied: 0,
            deferred: vec![0; words],
            defer_active: false,
        }
    }

    #[inline]
    fn index(&self, va: VirtAddr) -> Option<u64> {
        if va < self.base {
            return None;
        }
        let idx = (va - self.base) / CARD_BYTES;
        (idx < self.cards).then_some(idx)
    }

    /// Dirty the card containing `va` (the write-barrier slow path).
    /// Out-of-range addresses are ignored (stores to young objects need no
    /// barrier). Returns whether a card was newly dirtied.
    pub fn dirty(&mut self, va: VirtAddr) -> bool {
        let Some(idx) = self.index(va) else {
            return false;
        };
        let (w, b) = ((idx / 64) as usize, idx % 64);
        let mask = 1u64 << b;
        if self.defer_active {
            self.deferred[w] |= mask;
        }
        if self.dirty[w] & mask != 0 {
            false
        } else {
            self.dirty[w] |= mask;
            self.dirtied += 1;
            true
        }
    }

    /// Is the card containing `va` dirty?
    pub fn is_dirty(&self, va: VirtAddr) -> bool {
        match self.index(va) {
            Some(idx) => self.dirty[(idx / 64) as usize] & (1 << (idx % 64)) != 0,
            None => false,
        }
    }

    /// Iterate the base addresses of all dirty cards, ascending.
    pub fn iter_dirty(&self) -> impl Iterator<Item = VirtAddr> + '_ {
        self.dirty.iter().enumerate().flat_map(move |(w, &word)| {
            let base = self.base;
            let mut bits = word;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let b = bits.trailing_zeros() as u64;
                bits &= bits - 1;
                Some(base + (w as u64 * 64 + b) * CARD_BYTES)
            })
        })
    }

    /// Number of dirty cards.
    pub fn dirty_count(&self) -> u64 {
        self.dirtied
    }

    /// Clear all cards (after a scavenge). While a defer window is open,
    /// cards dirtied inside the window are re-applied instead of dropped:
    /// the racing collector's scan may have started before those stores,
    /// so only the next scan (or the final-mark pause) may consume them.
    pub fn clear(&mut self) {
        self.dirty.fill(0);
        self.dirtied = 0;
        if self.defer_active {
            for (d, &src) in self.dirty.iter_mut().zip(self.deferred.iter()) {
                *d = src;
            }
            self.dirtied = self.deferred.iter().map(|w| w.count_ones() as u64).sum();
        }
    }

    /// Open a defer window: until [`CardTable::end_defer`], every card
    /// dirtied also survives [`CardTable::clear`]. Used while a concurrent
    /// mark is in flight.
    pub fn begin_defer(&mut self) {
        self.defer_active = true;
        self.deferred.fill(0);
    }

    /// Close the defer window and drop its re-dirty log. Cards already
    /// re-applied by an intervening `clear` stay dirty.
    pub fn end_defer(&mut self) {
        self.defer_active = false;
        self.deferred.fill(0);
    }

    /// Is a defer window currently open?
    pub fn defer_active(&self) -> bool {
        self.defer_active
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> CardTable {
        CardTable::new(VirtAddr(0x10000), 64 * CARD_BYTES)
    }

    #[test]
    fn dirty_and_query() {
        let mut t = table();
        let va = VirtAddr(0x10000 + 3 * CARD_BYTES + 17);
        assert!(!t.is_dirty(va));
        assert!(t.dirty(va));
        assert!(!t.dirty(va), "already dirty");
        assert!(t.is_dirty(va));
        // Same card, different offset.
        assert!(t.is_dirty(VirtAddr(0x10000 + 3 * CARD_BYTES)));
        // Neighbouring card untouched.
        assert!(!t.is_dirty(VirtAddr(0x10000 + 4 * CARD_BYTES)));
        assert_eq!(t.dirty_count(), 1);
    }

    #[test]
    fn out_of_range_is_ignored() {
        let mut t = table();
        assert!(!t.dirty(VirtAddr(0x100))); // below base
        assert!(!t.dirty(VirtAddr(0x10000 + 1000 * CARD_BYTES))); // beyond
        assert_eq!(t.dirty_count(), 0);
    }

    #[test]
    fn iter_dirty_ascending() {
        let mut t = table();
        for c in [40u64, 2, 63, 2] {
            t.dirty(VirtAddr(0x10000 + c * CARD_BYTES + 5));
        }
        let got: Vec<u64> = t
            .iter_dirty()
            .map(|v| (v.get() - 0x10000) / CARD_BYTES)
            .collect();
        assert_eq!(got, vec![2, 40, 63]);
    }

    #[test]
    fn clear_resets() {
        let mut t = table();
        t.dirty(VirtAddr(0x10000));
        t.clear();
        assert_eq!(t.dirty_count(), 0);
        assert_eq!(t.iter_dirty().count(), 0);
    }

    #[test]
    fn deferred_cards_survive_clear() {
        let mut t = table();
        t.dirty(VirtAddr(0x10000)); // pre-window: dropped by clear
        t.begin_defer();
        t.dirty(VirtAddr(0x10000 + 5 * CARD_BYTES)); // in-window: survives
        t.clear();
        assert!(!t.is_dirty(VirtAddr(0x10000)), "pre-window card cleared");
        assert!(
            t.is_dirty(VirtAddr(0x10000 + 5 * CARD_BYTES)),
            "in-window card re-applied"
        );
        assert_eq!(t.dirty_count(), 1);
        // A second clear inside the same window re-applies again.
        t.clear();
        assert!(t.is_dirty(VirtAddr(0x10000 + 5 * CARD_BYTES)));
        t.end_defer();
        t.clear();
        assert_eq!(t.dirty_count(), 0, "window closed: clear is final");
    }

    #[test]
    fn defer_window_toggles() {
        let mut t = table();
        assert!(!t.defer_active());
        t.begin_defer();
        assert!(t.defer_active());
        t.end_defer();
        assert!(!t.defer_active());
        // Without a window, clear drops everything (legacy behavior).
        t.dirty(VirtAddr(0x10000));
        t.clear();
        assert_eq!(t.dirty_count(), 0);
    }
}
