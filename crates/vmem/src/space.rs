//! Address spaces and the machine-wide memory bundle.
//!
//! An [`AddressSpace`] is one simulated process (one "JVM"): an ASID, a
//! page table, and a bump cursor for carving fresh virtual ranges. The
//! [`Vmem`] bundle owns the shared physical pool and allocator that all
//! spaces draw frames from.
//!
//! Raw data access here is *uncosted* — the kernel crate wraps these calls
//! with TLB/cache/cycle charging. Keeping the functional layer cost-free
//! lets tests verify pure memory semantics (e.g. "contents survive a PTE
//! swap") without a machine model.

use crate::addr::{Asid, PhysAddr, VirtAddr, PAGE_SIZE};
use crate::error::VmError;
use crate::frame::{FrameAllocator, PhysMem};
use crate::pagetable::PageTable;
use crate::pte::{Pte, PteFlags};

/// Base of the simulated user heap mappings (arbitrary canonical address).
pub const USER_BASE: u64 = 0xA0_0000_0000;

/// One simulated process's address space.
#[derive(Debug)]
pub struct AddressSpace {
    asid: Asid,
    pt: PageTable,
    next_va: VirtAddr,
}

impl AddressSpace {
    /// Fresh, empty space.
    pub fn new(asid: Asid) -> AddressSpace {
        AddressSpace {
            asid,
            pt: PageTable::new(),
            next_va: VirtAddr(USER_BASE),
        }
    }

    /// This space's ASID.
    pub fn asid(&self) -> Asid {
        self.asid
    }

    /// The page table (read access).
    pub fn page_table(&self) -> &PageTable {
        &self.pt
    }

    /// The page table (mutation — used by the kernel's SwapVA).
    pub fn page_table_mut(&mut self) -> &mut PageTable {
        &mut self.pt
    }

    /// Reserve a fresh, unmapped, page-aligned virtual range of `pages`
    /// pages (no frames attached yet).
    pub fn reserve_pages(&mut self, pages: u64) -> VirtAddr {
        let base = self.next_va;
        self.next_va = self.next_va.add_pages(pages);
        base
    }

    /// Translate, or error if unmapped.
    #[inline]
    pub fn translate(&self, va: VirtAddr) -> Result<PhysAddr, VmError> {
        self.pt.translate(va)
    }
}

/// The shared physical memory and everything needed to wire spaces to it.
#[derive(Debug)]
pub struct Vmem {
    /// The frame pool contents.
    pub phys: PhysMem,
    /// The frame allocator.
    pub frames: FrameAllocator,
}

impl Vmem {
    /// A machine with `frames` 4-KiB frames of physical memory.
    pub fn new(frames: u32) -> Vmem {
        Vmem {
            phys: PhysMem::new(frames),
            frames: FrameAllocator::new(frames),
        }
    }

    /// A machine with at least `bytes` of physical memory.
    pub fn with_bytes(bytes: u64) -> Vmem {
        Vmem::new(bytes.div_ceil(PAGE_SIZE) as u32)
    }

    /// Map `pages` fresh zeroed frames at `va` (must be page-aligned and
    /// unmapped) in `space`.
    pub fn map_pages(
        &mut self,
        space: &mut AddressSpace,
        va: VirtAddr,
        pages: u64,
    ) -> Result<(), VmError> {
        if !va.is_page_aligned() {
            return Err(VmError::BadSwapRange { a: va, b: va, pages });
        }
        let rollback = |vm: &mut Vmem, space: &mut AddressSpace, upto: u64| {
            for j in 0..upto {
                let f = space
                    .pt
                    .unmap(va.add_pages(j))
                    .expect("rollback invariant: pages 0..upto were mapped by this call");
                vm.frames
                    .free(f.frame())
                    .expect("rollback invariant: frame was allocated by this call");
            }
        };
        for i in 0..pages {
            let page_va = va.add_pages(i);
            let frame = match self.frames.alloc() {
                Ok(f) => f,
                Err(e) => {
                    rollback(self, space, i);
                    return Err(e);
                }
            };
            self.phys.zero_frame(frame)?;
            if let Err(e) = space.pt.map(page_va, Pte::map(frame, PteFlags::WRITABLE)) {
                self.frames
                    .free(frame)
                    .expect("frame was allocated just above");
                rollback(self, space, i);
                return Err(e);
            }
        }
        Ok(())
    }

    /// Reserve + map a fresh region of `pages` pages; returns its base.
    pub fn alloc_region(
        &mut self,
        space: &mut AddressSpace,
        pages: u64,
    ) -> Result<VirtAddr, VmError> {
        let va = space.reserve_pages(pages);
        self.map_pages(space, va, pages)?;
        Ok(va)
    }

    /// Unmap `pages` pages at `va`, returning their frames to the pool.
    pub fn unmap_pages(
        &mut self,
        space: &mut AddressSpace,
        va: VirtAddr,
        pages: u64,
    ) -> Result<(), VmError> {
        for i in 0..pages {
            let pte = space.pt.unmap(va.add_pages(i))?;
            self.frames.free(pte.frame())?;
        }
        Ok(())
    }

    /// Read one word through `space`'s translation.
    #[inline]
    pub fn read_u64(&self, space: &AddressSpace, va: VirtAddr) -> Result<u64, VmError> {
        debug_assert!(va.page_offset() <= PAGE_SIZE - 8, "word straddles a page");
        self.phys.read_u64(space.translate(va)?)
    }

    /// Write one word through `space`'s translation.
    #[inline]
    pub fn write_u64(
        &mut self,
        space: &AddressSpace,
        va: VirtAddr,
        val: u64,
    ) -> Result<(), VmError> {
        debug_assert!(va.page_offset() <= PAGE_SIZE - 8, "word straddles a page");
        self.phys.write_u64(space.translate(va)?, val)
    }

    /// Read `buf.len()` bytes starting at `va`, crossing pages as needed.
    pub fn read_bytes(
        &self,
        space: &AddressSpace,
        mut va: VirtAddr,
        mut buf: &mut [u8],
    ) -> Result<(), VmError> {
        while !buf.is_empty() {
            let in_page = (PAGE_SIZE - va.page_offset()).min(buf.len() as u64) as usize;
            let (chunk, rest) = buf.split_at_mut(in_page);
            self.phys.read_bytes(space.translate(va)?, chunk)?;
            buf = rest;
            va = va + in_page as u64;
        }
        Ok(())
    }

    /// Append `len` bytes starting at `va` to `out`, crossing pages as
    /// needed. Equivalent to `read_bytes` into a fresh buffer appended to
    /// `out`, but skips the intermediate allocation and zero-fill — the
    /// undo journal snapshots pre-images through this on every journaled
    /// memmove, so the saving is per moved object. On a translation error
    /// `out` may have grown by a prefix of the range.
    pub fn read_bytes_into(
        &self,
        space: &AddressSpace,
        mut va: VirtAddr,
        mut len: u64,
        out: &mut Vec<u8>,
    ) -> Result<(), VmError> {
        out.reserve(len as usize);
        while len > 0 {
            let in_page = (PAGE_SIZE - va.page_offset()).min(len);
            self.phys.read_append(space.translate(va)?, in_page, out)?;
            va = va + in_page;
            len -= in_page;
        }
        Ok(())
    }

    /// Write `buf` starting at `va`, crossing pages as needed.
    pub fn write_bytes(
        &mut self,
        space: &AddressSpace,
        mut va: VirtAddr,
        mut buf: &[u8],
    ) -> Result<(), VmError> {
        while !buf.is_empty() {
            let in_page = (PAGE_SIZE - va.page_offset()).min(buf.len() as u64) as usize;
            let (chunk, rest) = buf.split_at(in_page);
            self.phys.write_bytes(space.translate(va)?, chunk)?;
            buf = rest;
            va = va + in_page as u64;
        }
        Ok(())
    }

    /// Zero `len` bytes starting at `va`, crossing pages as needed. Frames
    /// that are still all zero are skipped (see [`PhysMem::zero`]).
    pub fn zero_bytes(
        &mut self,
        space: &AddressSpace,
        mut va: VirtAddr,
        mut len: u64,
    ) -> Result<(), VmError> {
        while len > 0 {
            let in_page = (PAGE_SIZE - va.page_offset()).min(len);
            self.phys.zero(space.translate(va)?, in_page)?;
            va = va + in_page;
            len -= in_page;
        }
        Ok(())
    }

    /// Move `len` bytes from `src` to `dst` with memmove semantics
    /// (overlap-safe), copying page-bounded chunks frame-to-frame.
    ///
    /// Equivalent to `read_bytes` into a bounce buffer followed by
    /// `write_bytes`, but without materialising the buffer: chunks are
    /// copied low-to-high when `dst < src` and high-to-low when
    /// `dst > src`, so no chunk's source bytes are overwritten before
    /// they are read. A chunk never crosses a page boundary on either
    /// side, so intra-chunk virtual overlap implies both sides sit in the
    /// same page (same frame) and [`PhysMem::copy`]'s `copy_within`
    /// handles it. On a translation error the move may have been partially
    /// applied (callers move between mapped heap ranges).
    pub fn move_bytes(
        &mut self,
        space: &AddressSpace,
        src: VirtAddr,
        dst: VirtAddr,
        len: u64,
    ) -> Result<(), VmError> {
        if len == 0 || src == dst {
            // Still validate the endpoints like the buffered path did.
            if len > 0 {
                space.translate(src)?;
            }
            return Ok(());
        }
        let chunk_at = |at: u64, remaining: u64| -> u64 {
            let s_room = PAGE_SIZE - (src + at).page_offset();
            let d_room = PAGE_SIZE - (dst + at).page_offset();
            s_room.min(d_room).min(remaining)
        };
        if dst < src {
            let mut done = 0;
            while done < len {
                let step = chunk_at(done, len - done);
                let spa = space.translate(src + done)?;
                let dpa = space.translate(dst + done)?;
                self.phys.copy(spa, dpa, step)?;
                done += step;
            }
        } else {
            let mut left = len;
            while left > 0 {
                // Largest chunk ending at offset `left`.
                let s_off = (src + (left - 1)).page_offset() + 1;
                let d_off = (dst + (left - 1)).page_offset() + 1;
                let step = s_off.min(d_off).min(left);
                left -= step;
                let spa = space.translate(src + left)?;
                let dpa = space.translate(dst + left)?;
                self.phys.copy(spa, dpa, step)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Vmem, AddressSpace) {
        (Vmem::new(64), AddressSpace::new(Asid(1)))
    }

    #[test]
    fn region_alloc_maps_zeroed_pages() {
        let (mut vm, mut sp) = setup();
        let va = vm.alloc_region(&mut sp, 4).unwrap();
        assert!(va.is_page_aligned());
        assert_eq!(vm.read_u64(&sp, va).unwrap(), 0);
        assert_eq!(vm.frames.in_use(), 4);
    }

    #[test]
    fn word_rw_roundtrip() {
        let (mut vm, mut sp) = setup();
        let va = vm.alloc_region(&mut sp, 2).unwrap();
        vm.write_u64(&sp, va + 8, 42).unwrap();
        assert_eq!(vm.read_u64(&sp, va + 8).unwrap(), 42);
    }

    #[test]
    fn byte_rw_crosses_pages() {
        let (mut vm, mut sp) = setup();
        let va = vm.alloc_region(&mut sp, 2).unwrap();
        let data: Vec<u8> = (0..=255).collect();
        // Start 100 bytes before the page boundary.
        let start = va + (PAGE_SIZE - 100);
        vm.write_bytes(&sp, start, &data).unwrap();
        let mut back = vec![0u8; 256];
        vm.read_bytes(&sp, start, &mut back).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn unmap_returns_frames() {
        let (mut vm, mut sp) = setup();
        let va = vm.alloc_region(&mut sp, 8).unwrap();
        vm.unmap_pages(&mut sp, va, 8).unwrap();
        assert_eq!(vm.frames.in_use(), 0);
        assert!(vm.read_u64(&sp, va).is_err());
    }

    #[test]
    fn map_rolls_back_on_out_of_frames() {
        let mut vm = Vmem::new(2);
        let mut sp = AddressSpace::new(Asid(1));
        let va = sp.reserve_pages(4);
        assert!(vm.map_pages(&mut sp, va, 4).is_err());
        assert_eq!(vm.frames.in_use(), 0, "partial mapping must roll back");
    }

    #[test]
    fn spaces_are_isolated() {
        let mut vm = Vmem::new(8);
        let mut a = AddressSpace::new(Asid(1));
        let mut b = AddressSpace::new(Asid(2));
        let va_a = vm.alloc_region(&mut a, 1).unwrap();
        let va_b = vm.alloc_region(&mut b, 1).unwrap();
        vm.write_u64(&a, va_a, 111).unwrap();
        vm.write_u64(&b, va_b, 222).unwrap();
        assert_eq!(vm.read_u64(&a, va_a).unwrap(), 111);
        assert_eq!(vm.read_u64(&b, va_b).unwrap(), 222);
    }

    #[test]
    fn data_survives_pte_swap() {
        // The core zero-copy property: swap the PTEs of two pages and their
        // *contents* (as seen through virtual addresses) exchange, no bytes
        // moved.
        let (mut vm, mut sp) = setup();
        let a = vm.alloc_region(&mut sp, 1).unwrap();
        let b = vm.alloc_region(&mut sp, 1).unwrap();
        vm.write_u64(&sp, a, 0xAAAA).unwrap();
        vm.write_u64(&sp, b, 0xBBBB).unwrap();
        sp.page_table_mut().swap_ptes(a, b).unwrap();
        assert_eq!(vm.read_u64(&sp, a).unwrap(), 0xBBBB);
        assert_eq!(vm.read_u64(&sp, b).unwrap(), 0xAAAA);
    }
}
