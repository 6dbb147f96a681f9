//! Cost-modeled `memmove` over virtual ranges — the baseline GC copy path.
//!
//! Functionally a byte-exact overlap-safe move through the address space;
//! its cost is bandwidth-driven: bulk copies stream src+dst through DRAM,
//! so under multi-JVM contention each copier's effective bandwidth drops
//! (Fig. 2/14). In instrumented mode every 64-byte line of src and dst also
//! passes through the cache simulator — the pollution Table III measures —
//! but the *timing* stays bandwidth-modeled to avoid double counting.

use crate::state::{CoreId, Kernel};
use crate::wal::WalOp;
use svagc_metrics::{AccessKind, Cycles, TraceKind};
use svagc_vmem::{AddressSpace, VirtAddr, VmError};

impl Kernel {
    /// Move `len` bytes from `src` to `dst` in `space` (memmove semantics:
    /// overlap-safe). Returns cycles charged to `core`.
    pub fn memmove(
        &mut self,
        space: &AddressSpace,
        core: CoreId,
        src: VirtAddr,
        dst: VirtAddr,
        len: u64,
    ) -> Result<Cycles, VmError> {
        if len == 0 {
            return Ok(Cycles::ZERO);
        }
        let mut t = Cycles::ZERO;

        // Translation cost: one TLB consult per page actually touched on
        // each side (hardware walks per page, not per byte).
        for base in [src, dst] {
            let pages = (base + (len - 1)).vpn() - base.vpn() + 1;
            for i in 0..pages {
                let page = VirtAddr((base.vpn() + i) << svagc_vmem::PAGE_SHIFT);
                let (_, c) = self.translate(space, core, page)?;
                t += c;
            }
        }

        // The copy destroys the destination; record its bytes first so an
        // aborting GC cycle — or recovery after a crash — can restore them
        // (see `crate::wal`).
        if self.wal_recording() {
            let bytes = self.wal.live_pre.bytes.len();
            self.vmem
                .read_bytes_into(space, dst, len, &mut self.wal.live_pre.bytes)?;
            if let Ok(c) = self.wal_record(WalOp::Bytes { at: dst, len, bytes }, false) {
                t += c;
            }
        }
        // Functional move, overlap-safe, without materialising a bounce
        // buffer (the GC copy loop calls this once per moved object; a
        // per-call allocation plus double traffic dominated host time).
        self.vmem.move_bytes(space, src, dst, len)?;

        // Cache + DTLB pollution: stream src (reads) then dst (writes),
        // one TLB lookup and one cache access per line — exactly the
        // event stream `perf` would see from the copy loop.
        if self.instrumented() {
            self.stream_lines(space, core, src, len, AccessKind::Read)?;
            self.stream_lines(space, core, dst, len, AccessKind::Write)?;
        }

        // Bandwidth/CPU copy cost under current contention.
        t += self.bandwidth.copy_cycles(&self.machine, len);
        self.perf.bytes_copied += len;
        self.trace.span(
            TraceKind::Memmove,
            Cycles::ZERO,
            t,
            core.0 as u32,
            &[("bytes", len)],
        );
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svagc_metrics::MachineConfig;
    use svagc_vmem::{AddressSpace, Asid, PAGE_SIZE};

    fn setup(frames: u32) -> (Kernel, AddressSpace) {
        (
            Kernel::new(MachineConfig::i5_7600(), frames),
            AddressSpace::new(Asid(1)),
        )
    }

    #[test]
    fn moves_bytes_exactly() {
        let (mut k, mut s) = setup(64);
        let a = k.vmem.alloc_region(&mut s, 2).unwrap();
        let b = k.vmem.alloc_region(&mut s, 2).unwrap();
        let data: Vec<u8> = (0..200u32).map(|x| (x * 7) as u8).collect();
        k.vmem.write_bytes(&s, a + 100, &data).unwrap();
        k.memmove(&s, CoreId(0), a + 100, b + 51, 200).unwrap();
        let mut out = vec![0u8; 200];
        k.vmem.read_bytes(&s, b + 51, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn overlapping_move_is_safe() {
        let (mut k, mut s) = setup(64);
        let a = k.vmem.alloc_region(&mut s, 4).unwrap();
        let data: Vec<u8> = (0..8192u32).map(|x| (x % 251) as u8).collect();
        k.vmem.write_bytes(&s, a, &data).unwrap();
        // Slide down by 1000 bytes with heavy overlap (the LISP2 pattern).
        k.memmove(&s, CoreId(0), a + 1000, a, 8192 - 1000).unwrap();
        let mut out = vec![0u8; 8192 - 1000];
        k.vmem.read_bytes(&s, a, &mut out).unwrap();
        assert_eq!(&out[..], &data[1000..]);
    }

    #[test]
    fn cost_scales_with_length() {
        let (mut k, mut s) = setup(1024);
        let a = k.vmem.alloc_region(&mut s, 256).unwrap();
        let b = k.vmem.alloc_region(&mut s, 256).unwrap();
        let c_small = k.memmove(&s, CoreId(0), a, b, 4096).unwrap();
        let c_big = k.memmove(&s, CoreId(0), a, b, 256 * 4096).unwrap();
        assert!(c_big.get() > c_small.get() * 50);
        assert_eq!(k.perf.bytes_copied, 4096 + 256 * 4096);
    }

    #[test]
    fn zero_length_is_free() {
        let (mut k, mut s) = setup(16);
        let a = k.vmem.alloc_region(&mut s, 1).unwrap();
        assert_eq!(k.memmove(&s, CoreId(0), a, a, 0).unwrap(), Cycles::ZERO);
    }

    #[test]
    fn unmapped_range_errors() {
        let (mut k, mut s) = setup(16);
        let a = k.vmem.alloc_region(&mut s, 1).unwrap();
        let hole = VirtAddr(a.get() + 64 * PAGE_SIZE);
        assert!(k.memmove(&s, CoreId(0), a, hole, 64).is_err());
    }

    #[test]
    fn instrumented_memmove_pollutes_cache() {
        let (mut k, mut s) = setup(4096);
        k.set_instrumented(true);
        let a = k.vmem.alloc_region(&mut s, 512).unwrap();
        let b = k.vmem.alloc_region(&mut s, 512).unwrap();
        k.memmove(&s, CoreId(0), a, b, 512 * 4096).unwrap();
        // 2 MiB src + 2 MiB dst = 65536 line touches.
        assert_eq!(k.perf.cache_accesses, 2 * 512 * 4096 / 64);
        assert!(k.perf.cache_misses > 0);
    }
}
