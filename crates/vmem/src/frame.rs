//! Simulated physical memory: a pool of 4-KiB frames plus an allocator.
//!
//! Objects really live here — GC correctness tests read heap contents back
//! through translations after compaction, so a PTE swap that corrupted data
//! would be caught, not just mis-costed.

use crate::addr::{FrameId, PhysAddr, PAGE_SHIFT, PAGE_SIZE};
use crate::error::VmError;
use crate::pool::{AllocContext, FrameLease};
use std::sync::{Mutex, MutexGuard};

/// Flat physical memory of `frames * 4096` bytes.
///
/// Each frame carries a "may be non-zero" bit with the invariant *clean ⇒
/// every byte is 0*: writes mark the frames they touch, and [`PhysMem::zero`]
/// skips clean frames. Zeroing memory that is still zero therefore writes
/// nothing, and never-written frames stay untouched host pages.
///
/// The same invariant recycles the host memory across machines: a dropped
/// `PhysMem` zeroes only its dirty frames and hands its buffers to a
/// process-wide pool of at most [`SPARE_BYTES`], and [`PhysMem::new`]
/// takes the smallest pooled buffer that fits. A run therefore reuses the
/// pages the previous run faulted in instead of asking the host kernel for
/// fresh zeroed ones. The buffer may be larger than the machine; every
/// access is bounds-checked against the machine's own frame count.
#[derive(Debug)]
pub struct PhysMem {
    /// At least `len` bytes; everything past `len` stays zero.
    bytes: Box<[u8]>,
    /// One flag per frame of `bytes`; only the first `frames` can be set.
    dirty: Box<[bool]>,
    /// `frames * PAGE_SIZE`: the end of the addressable range.
    len: u64,
    frames: u32,
}

/// Bytes of zeroed frame buffers the process keeps for the next
/// [`PhysMem::new`]. A buffer larger than this is returned to the host.
pub const SPARE_BYTES: usize = 512 << 20;

/// The buffers of a dropped [`PhysMem`]: every byte zero, every frame
/// clean.
#[derive(Debug)]
struct Buffers {
    bytes: Box<[u8]>,
    dirty: Box<[bool]>,
}

/// Zeroed frame buffers kept for reuse, oldest first, holding at most
/// `budget` bytes.
#[derive(Debug)]
struct SparePool {
    budget: usize,
    held: usize,
    buffers: Vec<Buffers>,
}

impl SparePool {
    const fn new(budget: usize) -> SparePool {
        SparePool {
            budget,
            held: 0,
            buffers: Vec::new(),
        }
    }

    /// The smallest held buffer of at least `len` bytes.
    fn take(&mut self, len: usize) -> Option<Buffers> {
        let (i, _) = self
            .buffers
            .iter()
            .enumerate()
            .filter(|(_, b)| b.bytes.len() >= len)
            .min_by_key(|(_, b)| b.bytes.len())?;
        let b = self.buffers.remove(i);
        self.held -= b.bytes.len();
        Some(b)
    }

    /// Keep `b`, evicting the oldest buffers past the budget. Returns the
    /// buffers to drop (outside the pool's lock).
    fn give(&mut self, b: Buffers) -> Vec<Buffers> {
        if b.bytes.len() > self.budget {
            return vec![b];
        }
        self.held += b.bytes.len();
        self.buffers.push(b);
        let mut evicted = Vec::new();
        while self.held > self.budget {
            let old = self.buffers.remove(0);
            self.held -= old.bytes.len();
            evicted.push(old);
        }
        evicted
    }
}

static SPARE: Mutex<SparePool> = Mutex::new(SparePool::new(SPARE_BYTES));

/// The process-wide pool. Its buffers are all zero whatever a panicking
/// holder was doing, so a poisoned lock is still sound to use.
fn spare() -> MutexGuard<'static, SparePool> {
    SPARE.lock().unwrap_or_else(|e| e.into_inner())
}

impl PhysMem {
    /// Allocate a pool of `frames` zeroed frames.
    pub fn new(frames: u32) -> PhysMem {
        let len = frames as usize * PAGE_SIZE as usize;
        let pooled = if len > 0 { spare().take(len) } else { None };
        let Buffers { bytes, dirty } = pooled.unwrap_or_else(|| Buffers {
            bytes: vec![0u8; len].into_boxed_slice(),
            dirty: vec![false; frames as usize].into_boxed_slice(),
        });
        PhysMem {
            bytes,
            dirty,
            len: len as u64,
            frames,
        }
    }

    /// Number of frames in the pool.
    pub fn frame_count(&self) -> u32 {
        self.frames
    }

    #[inline]
    fn check(&self, pa: PhysAddr, len: u64) -> Result<usize, VmError> {
        let start = pa.get();
        let end = start.checked_add(len).ok_or(VmError::BadPhysAddr(pa))?;
        if end > self.len {
            return Err(VmError::BadPhysAddr(pa));
        }
        Ok(start as usize)
    }

    /// Mark the frames under the byte range `[i, i + len)` as possibly
    /// non-zero.
    #[inline]
    fn mark_dirty(&mut self, i: usize, len: usize) {
        if len > 0 {
            self.dirty[i >> PAGE_SHIFT..=(i + len - 1) >> PAGE_SHIFT].fill(true);
        }
    }

    /// Read one 8-byte word (must not straddle the pool end).
    #[inline]
    pub fn read_u64(&self, pa: PhysAddr) -> Result<u64, VmError> {
        let i = self.check(pa, 8)?;
        Ok(u64::from_le_bytes(
            self.bytes[i..i + 8]
                .try_into()
                .expect("bounds invariant: check() guarantees an 8-byte slice"),
        ))
    }

    /// Write one 8-byte word.
    #[inline]
    pub fn write_u64(&mut self, pa: PhysAddr, val: u64) -> Result<(), VmError> {
        let i = self.check(pa, 8)?;
        self.bytes[i..i + 8].copy_from_slice(&val.to_le_bytes());
        // A word may straddle two frames.
        self.dirty[i >> PAGE_SHIFT] = true;
        self.dirty[(i + 7) >> PAGE_SHIFT] = true;
        Ok(())
    }

    /// Read `buf.len()` bytes at `pa`.
    pub fn read_bytes(&self, pa: PhysAddr, buf: &mut [u8]) -> Result<(), VmError> {
        let i = self.check(pa, buf.len() as u64)?;
        buf.copy_from_slice(&self.bytes[i..i + buf.len()]);
        Ok(())
    }

    /// Append `len` bytes at `pa` to `out` — `read_bytes` without the
    /// caller having to pre-size (and zero-fill) a destination buffer.
    pub fn read_append(&self, pa: PhysAddr, len: u64, out: &mut Vec<u8>) -> Result<(), VmError> {
        let i = self.check(pa, len)?;
        out.extend_from_slice(&self.bytes[i..i + len as usize]);
        Ok(())
    }

    /// Write `buf` at `pa`.
    pub fn write_bytes(&mut self, pa: PhysAddr, buf: &[u8]) -> Result<(), VmError> {
        let i = self.check(pa, buf.len() as u64)?;
        self.bytes[i..i + buf.len()].copy_from_slice(buf);
        self.mark_dirty(i, buf.len());
        Ok(())
    }

    /// Copy `len` bytes from `src` to `dst` (handles overlap like memmove).
    pub fn copy(&mut self, src: PhysAddr, dst: PhysAddr, len: u64) -> Result<(), VmError> {
        let s = self.check(src, len)?;
        let d = self.check(dst, len)?;
        self.bytes.copy_within(s..s + len as usize, d);
        self.mark_dirty(d, len as usize);
        Ok(())
    }

    /// Zero `len` bytes at `pa`. Clean frames are skipped; a dirty frame
    /// becomes clean only when the whole frame was zeroed.
    pub fn zero(&mut self, pa: PhysAddr, len: u64) -> Result<(), VmError> {
        let mut i = self.check(pa, len)?;
        let end = i + len as usize;
        let page = PAGE_SIZE as usize;
        while i < end {
            let frame = i >> PAGE_SHIFT;
            let stop = end.min((frame + 1) * page);
            if self.dirty[frame] {
                self.bytes[i..stop].fill(0);
                if stop - i == page {
                    self.dirty[frame] = false;
                }
            }
            i = stop;
        }
        Ok(())
    }

    /// Zero a whole frame.
    pub fn zero_frame(&mut self, frame: FrameId) -> Result<(), VmError> {
        self.zero(frame.base(), PAGE_SIZE)
    }

    /// Is `frame` clean, so every byte of it is known to be 0 without
    /// reading it? False for a frame outside the machine.
    #[inline]
    pub fn frame_is_clean(&self, frame: FrameId) -> bool {
        frame.0 < self.frames && !self.dirty[frame.0 as usize]
    }

    /// Borrow a frame's bytes (tests, checksums).
    pub fn frame_bytes(&self, frame: FrameId) -> Result<&[u8], VmError> {
        let i = self.check(frame.base(), PAGE_SIZE)?;
        Ok(&self.bytes[i..i + PAGE_SIZE as usize])
    }
}

impl Drop for PhysMem {
    /// Zero the dirty frames and hand the buffers to the process-wide
    /// pool, which returns them to the host past its budget.
    fn drop(&mut self) {
        let mut b = Buffers {
            bytes: std::mem::take(&mut self.bytes),
            dirty: std::mem::take(&mut self.dirty),
        };
        if b.bytes.is_empty() || b.bytes.len() > SPARE_BYTES {
            return;
        }
        let page = PAGE_SIZE as usize;
        for (frame, dirty) in b.dirty.iter_mut().enumerate().filter(|(_, d)| **d) {
            b.bytes[frame * page..(frame + 1) * page].fill(0);
            *dirty = false;
        }
        let evicted = spare().give(b);
        drop(evicted);
    }
}

/// Free-list frame allocator over a [`PhysMem`]-sized pool.
///
/// The allocator tracks an allocated-bitmap so `free` can reject
/// out-of-range and double-freed frames with a typed error instead of
/// silently corrupting the free list (and underflowing `allocated`) in
/// release builds. An optional [`FrameLease`] attaches the allocator to a
/// fleet-wide [`crate::FramePool`]: every alloc is charged against the
/// owning tenant's quota under the current [`AllocContext`], and every
/// free releases the charge.
#[derive(Debug)]
pub struct FrameAllocator {
    /// Next never-allocated frame (bump region).
    next: u32,
    limit: u32,
    /// Returned frames, reused LIFO.
    free: Vec<FrameId>,
    /// One bit per frame: is it currently allocated?
    bits: Vec<u64>,
    allocated: u32,
    /// High-water mark of simultaneously live frames.
    peak: u32,
    /// Invalid frees rejected (out of range or double free).
    free_errors: u64,
    /// Optional fleet budget; charged/released alongside alloc/free.
    lease: Option<FrameLease>,
    /// Attribution for subsequent allocations.
    ctx: AllocContext,
}

impl FrameAllocator {
    /// Allocator over frames `0..limit`.
    pub fn new(limit: u32) -> FrameAllocator {
        FrameAllocator {
            next: 0,
            limit,
            free: Vec::new(),
            bits: vec![0u64; limit.div_ceil(64) as usize],
            allocated: 0,
            peak: 0,
            free_errors: 0,
            lease: None,
            ctx: AllocContext::Heap,
        }
    }

    #[inline]
    fn bit(&self, frame: FrameId) -> bool {
        self.bits[(frame.0 / 64) as usize] & (1u64 << (frame.0 % 64)) != 0
    }

    #[inline]
    fn set_bit(&mut self, frame: FrameId, on: bool) {
        let mask = 1u64 << (frame.0 % 64);
        if on {
            self.bits[(frame.0 / 64) as usize] |= mask;
        } else {
            self.bits[(frame.0 / 64) as usize] &= !mask;
        }
    }

    /// Attach a fleet-budget lease; every subsequent alloc/free is charged
    /// to or released from the owning tenant's quota.
    pub fn attach_lease(&mut self, lease: FrameLease) {
        self.lease = Some(lease);
    }

    /// The attached fleet-budget lease, if any.
    pub fn lease(&self) -> Option<&FrameLease> {
        self.lease.as_ref()
    }

    /// Set the attribution context for subsequent allocations.
    pub fn set_context(&mut self, ctx: AllocContext) {
        self.ctx = ctx;
    }

    /// Current allocation attribution context.
    pub fn context(&self) -> AllocContext {
        self.ctx
    }

    /// Allocate one frame.
    pub fn alloc(&mut self) -> Result<FrameId, VmError> {
        // Pick the candidate first, charge the fleet budget, and only then
        // commit allocator state — a quota denial must leave the free list
        // and bump cursor untouched.
        let (f, from_free) = if let Some(&f) = self.free.last() {
            (f, true)
        } else if self.next < self.limit {
            (FrameId(self.next), false)
        } else {
            return Err(VmError::OutOfFrames);
        };
        if let Some(lease) = &self.lease {
            lease.charge(self.ctx, f)?;
        }
        if from_free {
            self.free.pop();
        } else {
            self.next += 1;
        }
        self.set_bit(f, true);
        self.allocated += 1;
        self.peak = self.peak.max(self.allocated);
        Ok(f)
    }

    /// Allocate `n` frames (not necessarily contiguous).
    pub fn alloc_many(&mut self, n: u32) -> Result<Vec<FrameId>, VmError> {
        let mut v = Vec::with_capacity(n as usize);
        for _ in 0..n {
            match self.alloc() {
                Ok(f) => v.push(f),
                Err(e) => {
                    for f in v {
                        self.free(f).expect("rollback of a just-allocated frame");
                    }
                    return Err(e);
                }
            }
        }
        Ok(v)
    }

    /// Return a frame to the pool. Out-of-range and double frees are
    /// rejected with a typed error (and counted) instead of corrupting the
    /// free list; counters never underflow.
    pub fn free(&mut self, frame: FrameId) -> Result<(), VmError> {
        if frame.0 >= self.limit {
            self.free_errors += 1;
            return Err(VmError::FrameOutOfRange(frame));
        }
        if !self.bit(frame) {
            self.free_errors += 1;
            return Err(VmError::FrameNotAllocated(frame));
        }
        if let Some(lease) = &self.lease {
            lease.release(frame)?;
        }
        self.set_bit(frame, false);
        self.allocated = self.allocated.saturating_sub(1);
        self.free.push(frame);
        Ok(())
    }

    /// Frames currently allocated.
    pub fn in_use(&self) -> u32 {
        self.allocated
    }

    /// Frames still available.
    pub fn available(&self) -> u32 {
        self.limit - self.next + self.free.len() as u32
    }

    /// High-water mark of live frames.
    pub fn peak(&self) -> u32 {
        self.peak
    }

    /// Invalid frees rejected over the allocator's lifetime.
    pub fn free_errors(&self) -> u64 {
        self.free_errors
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_roundtrip() {
        let mut m = PhysMem::new(2);
        let pa = PhysAddr(4096 + 16);
        m.write_u64(pa, 0xdead_beef_cafe_f00d).unwrap();
        assert_eq!(m.read_u64(pa).unwrap(), 0xdead_beef_cafe_f00d);
        // Untouched memory is zero.
        assert_eq!(m.read_u64(PhysAddr(0)).unwrap(), 0);
    }

    #[test]
    fn bounds_are_enforced() {
        let m = PhysMem::new(1);
        assert!(m.read_u64(PhysAddr(4096)).is_err());
        assert!(m.read_u64(PhysAddr(4090)).is_err()); // straddles end
        assert!(m.read_u64(PhysAddr(u64::MAX)).is_err()); // overflow
    }

    #[test]
    fn byte_copy_handles_overlap() {
        let mut m = PhysMem::new(1);
        m.write_bytes(PhysAddr(0), b"abcdef").unwrap();
        m.copy(PhysAddr(0), PhysAddr(2), 4).unwrap();
        let mut out = [0u8; 6];
        m.read_bytes(PhysAddr(0), &mut out).unwrap();
        assert_eq!(&out, b"ababcd");
    }

    #[test]
    fn allocator_reuses_freed_frames() {
        let mut a = FrameAllocator::new(2);
        let f0 = a.alloc().unwrap();
        let f1 = a.alloc().unwrap();
        assert!(a.alloc().is_err());
        a.free(f0).unwrap();
        assert_eq!(a.alloc().unwrap(), f0);
        assert_eq!(a.in_use(), 2);
        assert_eq!(a.peak(), 2);
        let _ = f1;
    }

    #[test]
    fn alloc_many_rolls_back_on_failure() {
        let mut a = FrameAllocator::new(3);
        assert!(a.alloc_many(4).is_err());
        assert_eq!(a.in_use(), 0);
        assert_eq!(a.alloc_many(3).unwrap().len(), 3);
    }

    #[test]
    fn free_rejects_out_of_range_and_double_free() {
        let mut a = FrameAllocator::new(4);
        let f = a.alloc().unwrap();
        // Out of range: typed error, counter untouched.
        assert_eq!(
            a.free(FrameId(4)),
            Err(VmError::FrameOutOfRange(FrameId(4)))
        );
        assert_eq!(a.in_use(), 1);
        // Never-allocated frame.
        assert_eq!(
            a.free(FrameId(2)),
            Err(VmError::FrameNotAllocated(FrameId(2)))
        );
        // Legitimate free, then double free of the same frame.
        a.free(f).unwrap();
        assert_eq!(a.free(f), Err(VmError::FrameNotAllocated(f)));
        // No underflow even after repeated invalid frees.
        assert_eq!(a.in_use(), 0);
        assert_eq!(a.free_errors(), 3);
        // The free list was never corrupted: both frames still allocatable.
        assert_eq!(a.alloc_many(4).unwrap().len(), 4);
    }

    #[test]
    fn freed_frames_are_reused_in_lifo_order() {
        let mut a = FrameAllocator::new(8);
        let frames = a.alloc_many(5).unwrap();
        // Free 1, 3, 0 — LIFO reuse must hand them back as 0, 3, 1.
        a.free(frames[1]).unwrap();
        a.free(frames[3]).unwrap();
        a.free(frames[0]).unwrap();
        assert_eq!(a.alloc().unwrap(), frames[0]);
        assert_eq!(a.alloc().unwrap(), frames[3]);
        assert_eq!(a.alloc().unwrap(), frames[1]);
        // Free list drained: next alloc comes from the bump region.
        assert_eq!(a.alloc().unwrap(), FrameId(5));
    }

    #[test]
    fn peak_tracks_high_water_across_interleaved_churn() {
        let mut a = FrameAllocator::new(16);
        let first = a.alloc_many(6).unwrap();
        assert_eq!(a.peak(), 6);
        for f in &first[..4] {
            a.free(*f).unwrap();
        }
        assert_eq!(a.in_use(), 2);
        // Peak is a high-water mark: unchanged by frees.
        assert_eq!(a.peak(), 6);
        // Climb above the previous peak through a mix of reuse and bump.
        let second = a.alloc_many(7).unwrap();
        assert_eq!(a.in_use(), 9);
        assert_eq!(a.peak(), 9);
        for f in second {
            a.free(f).unwrap();
        }
        assert_eq!(a.peak(), 9);
        assert_eq!(a.in_use(), 2);
    }

    #[test]
    fn alloc_many_rollback_interacts_with_free_list() {
        let mut a = FrameAllocator::new(4);
        let keep = a.alloc_many(2).unwrap();
        a.free(keep[0]).unwrap();
        // 3 available (1 free-listed + 2 bump); asking for 4 must roll back
        // cleanly and leave all 3 allocatable afterwards.
        assert!(a.alloc_many(4).is_err());
        assert_eq!(a.in_use(), 1);
        assert_eq!(a.alloc_many(3).unwrap().len(), 3);
        assert_eq!(a.in_use(), 4);
        assert_eq!(a.peak(), 4);
    }

    /// Random writes (frame-straddling words, byte runs, overlapping
    /// copies) and zeroing (partial, whole-frame, `zero_frame`) against a
    /// plain byte model: the bytes agree after every op, and every clean
    /// frame is all zero.
    #[test]
    fn clean_frames_match_a_byte_model() {
        use svagc_metrics::SimRng;
        const FRAMES: u32 = 4;
        let size = FRAMES as u64 * PAGE_SIZE;
        for case in 0..64u64 {
            let seed = 0xc1ea_0000 + case;
            let mut rng = SimRng::seed_from_u64(seed);
            let mut m = PhysMem::new(FRAMES);
            let mut model = vec![0u8; size as usize];
            for step in 0..200 {
                // Addresses cluster around frame boundaries half the time.
                let addr = |rng: &mut SimRng, len: u64| -> u64 {
                    let at = if rng.gen_bool(0.5) {
                        let edge = rng.gen_range(1..FRAMES as u64) * PAGE_SIZE;
                        edge - rng.gen_range(0..16u64)
                    } else {
                        rng.gen_range(0..size)
                    };
                    at.min(size - len)
                };
                let op = rng.gen_range(0..6u32);
                match op {
                    0 => {
                        let pa = addr(&mut rng, 8);
                        let val = rng.next_u64();
                        m.write_u64(PhysAddr(pa), val).unwrap();
                        model[pa as usize..pa as usize + 8].copy_from_slice(&val.to_le_bytes());
                    }
                    1 => {
                        let len = rng.gen_range(0..6000u64);
                        let pa = addr(&mut rng, len) as usize;
                        let buf: Vec<u8> = (0..len).map(|_| rng.gen_range(0..4u32) as u8).collect();
                        m.write_bytes(PhysAddr(pa as u64), &buf).unwrap();
                        model[pa..pa + buf.len()].copy_from_slice(&buf);
                    }
                    2 => {
                        let len = rng.gen_range(0..6000u64);
                        let src = addr(&mut rng, len) as usize;
                        let dst = addr(&mut rng, len) as usize;
                        m.copy(PhysAddr(src as u64), PhysAddr(dst as u64), len).unwrap();
                        model.copy_within(src..src + len as usize, dst);
                    }
                    3 => {
                        let len = rng.gen_range(0..9000u64);
                        let pa = addr(&mut rng, len) as usize;
                        m.zero(PhysAddr(pa as u64), len).unwrap();
                        model[pa..pa + len as usize].fill(0);
                    }
                    4 => {
                        let f = rng.gen_range(0..FRAMES as u64);
                        let pages = rng.gen_range(1..FRAMES as u64 - f + 1);
                        m.zero(PhysAddr(f * PAGE_SIZE), pages * PAGE_SIZE).unwrap();
                        model[(f * PAGE_SIZE) as usize..((f + pages) * PAGE_SIZE) as usize].fill(0);
                    }
                    _ => {
                        let f = rng.gen_range(0..FRAMES);
                        m.zero_frame(FrameId(f)).unwrap();
                        let base = f as usize * PAGE_SIZE as usize;
                        model[base..base + PAGE_SIZE as usize].fill(0);
                    }
                }
                let at = format!("case {case} (seed {seed:#x}) step {step} op {op}");
                assert!(m.bytes[..size as usize] == model, "{at}: bytes diverged from the model");
                for f in 0..FRAMES {
                    assert!(
                        !m.frame_is_clean(FrameId(f)) || m.frame_bytes(FrameId(f)).unwrap().iter().all(|&b| b == 0),
                        "{at}: clean frame {f} holds non-zero bytes"
                    );
                }
            }
        }
    }

    #[test]
    fn only_whole_frame_zeroing_cleans_a_frame() {
        let mut m = PhysMem::new(2);
        m.write_u64(PhysAddr(4096 - 4), u64::MAX).unwrap(); // straddles 0|1
        assert_eq!(m.dirty[..2], [true, true]);
        m.zero(PhysAddr(8), 4096).unwrap(); // whole of neither frame
        assert_eq!(m.dirty[..2], [true, true]);
        m.zero_frame(FrameId(1)).unwrap();
        assert_eq!(m.dirty[..2], [true, false]);
        assert!(!m.frame_is_clean(FrameId(0)) && m.frame_is_clean(FrameId(1)));
        assert!(!m.frame_is_clean(FrameId(2)), "a frame past the machine is never clean");
        assert_eq!(m.read_u64(PhysAddr(0)).unwrap(), 0);
    }

    /// Every byte a machine of `frames` frames can address reads zero,
    /// and every frame starts clean.
    fn assert_fresh(m: &PhysMem, frames: u32) {
        assert_eq!(m.frame_count(), frames);
        for f in 0..frames {
            let bytes = m.frame_bytes(FrameId(f)).unwrap();
            assert!(bytes.iter().all(|&b| b == 0), "frame {f} of {frames} holds non-zero bytes");
            assert!(!m.dirty[f as usize], "frame {f} of {frames} starts dirty");
        }
        // The bound is the machine's own, not its (possibly larger) buffer.
        assert!(m.read_u64(PhysAddr(frames as u64 * PAGE_SIZE)).is_err());
    }

    #[test]
    fn recycled_frames_read_zero() {
        const FRAMES: u32 = 48;
        let last = PhysAddr((FRAMES as u64 - 1) * PAGE_SIZE);
        for (smaller, larger) in [(FRAMES - 7, FRAMES + 9), (1, 2 * FRAMES)] {
            let mut m = PhysMem::new(FRAMES);
            // Scattered frames, a word straddling frames 2|3, a byte run
            // across 9..12, a copy into 20, and the last word of the
            // last frame.
            m.write_u64(PhysAddr(3 * PAGE_SIZE - 4), u64::MAX).unwrap();
            m.write_bytes(PhysAddr(9 * PAGE_SIZE + 100), &[0xAB; 3 * 4096]).unwrap();
            m.copy(PhysAddr(9 * PAGE_SIZE + 100), PhysAddr(20 * PAGE_SIZE), 64).unwrap();
            for f in (0..FRAMES).step_by(5) {
                m.write_u64(PhysAddr(f as u64 * PAGE_SIZE + 8 * f as u64), 0x5EED | 1).unwrap();
            }
            m.write_u64(last + (PAGE_SIZE - 8), 0xE0F).unwrap();
            drop(m);
            // Other tests share the pool, so these may get this buffer, a
            // larger one, or a fresh one: each must read zero throughout.
            for frames in [smaller, larger, FRAMES] {
                let m = PhysMem::new(frames);
                assert_fresh(&m, frames);
            }
        }
    }

    #[test]
    fn the_pool_never_holds_more_than_its_budget() {
        let buffers = |frames: usize| Buffers {
            bytes: vec![0u8; frames * PAGE_SIZE as usize].into_boxed_slice(),
            dirty: vec![false; frames].into_boxed_slice(),
        };
        let page = PAGE_SIZE as usize;
        let mut pool = SparePool::new(10 * page);
        assert_eq!(pool.give(buffers(4)).len(), 0);
        assert_eq!(pool.give(buffers(5)).len(), 0);
        assert_eq!(pool.held, 9 * page);
        // Over budget alone: refused outright.
        assert_eq!(pool.give(buffers(11)).len(), 1);
        // Over budget together: the oldest (4 frames) goes.
        let evicted = pool.give(buffers(3));
        assert_eq!(evicted.iter().map(|b| b.bytes.len()).collect::<Vec<_>>(), [4 * page]);
        assert_eq!(pool.held, 8 * page);
        // Best fit: the smallest that fits, none when none does.
        assert_eq!(pool.take(2 * page).unwrap().bytes.len(), 3 * page);
        assert!(pool.take(6 * page).is_none());
        assert_eq!(pool.held, 5 * page);
        assert!(pool.held <= pool.budget);

        // The process-wide pool, under whatever the other tests drop.
        for frames in [1, 300, 4096] {
            drop(PhysMem::new(frames));
            assert!(spare().held <= SPARE_BYTES);
        }
    }

    #[test]
    fn zero_frame_clears() {
        let mut m = PhysMem::new(1);
        m.write_u64(PhysAddr(8), 7).unwrap();
        m.zero_frame(FrameId(0)).unwrap();
        assert_eq!(m.read_u64(PhysAddr(8)).unwrap(), 0);
    }
}
