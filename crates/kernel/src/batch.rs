//! Aggregated-swap batch handles.
//!
//! SwapVA aggregation (paper Fig. 5b) queues a run of consecutive
//! swap-eligible moves and flushes them as one syscall. The collector used
//! to keep this bookkeeping inline in its compaction loop; with the
//! work-packet scheduler every compact packet carries its *own* batch
//! handle, so the policy — the request cap that amortizes syscall entry
//! and the page budget that keeps big-object runs from serializing onto
//! one flush — lives here, next to the syscall it feeds.

use crate::swapva::SwapRequest;

/// A pending aggregation buffer: swap requests queued for one flush, each
/// with the originating object's true byte size so a memmove fallback can
/// be re-attributed in the collector's statistics. The flush borrows the
/// requests and [`SwapBatch::clear`] empties the buffers in place, so a
/// reused batch allocates nothing once it has reached its working size.
#[derive(Debug, Clone)]
pub struct SwapBatch {
    reqs: Vec<SwapRequest>,
    /// `bytes[i]` is the byte size of the object `reqs[i]` moves.
    bytes: Vec<u64>,
    pages: u64,
    cap: usize,
    page_budget: u64,
}

impl SwapBatch {
    /// A batch flushing after `cap` requests or `page_budget` total pages,
    /// whichever comes first. Both are clamped to at least 1.
    pub fn new(cap: usize, page_budget: u64) -> SwapBatch {
        SwapBatch {
            reqs: Vec::new(),
            bytes: Vec::new(),
            pages: 0,
            cap: cap.max(1),
            page_budget: page_budget.max(1),
        }
    }

    /// Queue a request; returns `true` when the batch is due for a flush
    /// (cap reached or page budget exhausted).
    pub fn push(&mut self, req: SwapRequest, bytes: u64) -> bool {
        self.pages += req.pages;
        self.reqs.push(req);
        self.bytes.push(bytes);
        self.reqs.len() >= self.cap || self.pages >= self.page_budget
    }

    /// No queued requests?
    pub fn is_empty(&self) -> bool {
        self.reqs.is_empty()
    }

    /// Queued request count.
    pub fn len(&self) -> usize {
        self.reqs.len()
    }

    /// Total queued pages.
    pub fn pages(&self) -> u64 {
        self.pages
    }

    /// The queued requests, in push order.
    pub fn requests(&self) -> &[SwapRequest] {
        &self.reqs
    }

    /// The byte size queued with request `i`.
    pub fn bytes(&self, i: usize) -> u64 {
        self.bytes[i]
    }

    /// Empty the batch for reuse, keeping its buffers.
    pub fn clear(&mut self) {
        self.reqs.clear();
        self.bytes.clear();
        self.pages = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svagc_vmem::VirtAddr;

    fn req(pages: u64) -> SwapRequest {
        SwapRequest {
            a: VirtAddr(0x1000),
            b: VirtAddr(0x9000),
            pages,
        }
    }

    #[test]
    fn flush_on_request_cap() {
        let mut b = SwapBatch::new(2, 1_000_000);
        assert!(!b.push(req(1), 4096));
        assert!(b.push(req(1), 4096), "second push hits the cap");
        assert_eq!(b.len(), 2);
        assert_eq!(b.requests(), &[req(1), req(1)]);
        assert_eq!(b.bytes(1), 4096);
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.pages(), 0, "clear resets the page count");
        assert!(!b.push(req(3), 3 * 4096), "a cleared batch counts afresh");
        assert_eq!(b.bytes(0), 3 * 4096);
    }

    #[test]
    fn flush_on_page_budget() {
        let mut b = SwapBatch::new(1000, 80);
        assert!(!b.push(req(40), 40 * 4096));
        assert!(b.push(req(40), 40 * 4096), "page budget reached");
    }

    #[test]
    fn degenerate_caps_clamp_to_one() {
        let mut b = SwapBatch::new(0, 0);
        assert!(b.push(req(1), 4096), "cap 0 behaves as separated calls");
    }
}
