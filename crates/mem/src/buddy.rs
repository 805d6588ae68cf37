//! A Linux-style binary buddy allocator over physical page frames.
//!
//! Free frames are grouped into blocks of 2^order contiguous frames
//! (order 0..=[`MAX_ORDER`], i.e. 4 KiB up to 4 MiB), one free list per
//! order, exactly as in the kernel's page allocator. Allocation splits the
//! smallest sufficient block; freeing merges a block with its buddy when the
//! buddy is also free.
//!
//! This allocator is the root cause of SIPT's index-bit predictability:
//! bulk allocations are served from large contiguous blocks, so consecutive
//! virtual pages land in consecutive physical frames and the VA→PA delta is
//! constant across the block (paper §VI, Fig 10).
//!
//! ## Free-list representation
//!
//! Each order's free list is a vector of block starts plus a dense,
//! hash-free position index: one `u32` per aligned order-`o` slot of
//! memory, at `start >> o`, holding the block's vector position plus one
//! (0 = not free at this order). It is allocated zeroed, so a fresh
//! allocator over gigabytes stays cheap to build. The index only *locates*
//! blocks: the vector keeps a hash-indexed set's discipline (`insert`
//! appends, `pop` takes the last, `remove` moves the last into the hole),
//! so every list holds its blocks in the same order and every allocation
//! returns the same block as before. `tests/prep_golden.rs` and the
//! differential property test below pin this.

use crate::addr::PhysFrameNum;
use crate::MemError;
use sipt_rng::Rng;

/// Largest block order managed by the allocator (2^10 pages = 4 MiB),
/// matching Linux's `MAX_ORDER` free-list span of 1..=1024 pages described
/// in the paper.
pub const MAX_ORDER: u32 = 10;

/// Order of a 2 MiB huge-page block (512 base pages).
pub const HUGE_PAGE_ORDER: u32 = 9;

/// A block of `2^order` physically contiguous frames handed out by the
/// allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FrameBlock {
    /// First frame of the block. Always aligned to `2^order` frames.
    pub start: PhysFrameNum,
    /// Log2 of the block length in frames.
    pub order: u32,
}

impl FrameBlock {
    /// Number of 4 KiB frames in this block.
    #[inline]
    pub fn len(&self) -> u64 {
        1u64 << self.order
    }

    /// Whether the block is empty (never true for a valid block).
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Iterate over the frames of the block in ascending order.
    pub fn frames(&self) -> impl Iterator<Item = PhysFrameNum> {
        let start = self.start.raw();
        (start..start + self.len()).map(PhysFrameNum::new)
    }
}

/// Occupancy and fragmentation statistics for a [`BuddyAllocator`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BuddyStats {
    /// Total frames managed.
    pub total_frames: u64,
    /// Frames currently free.
    pub free_frames: u64,
    /// Free block count per order (`k_i` in the paper's Fu formula).
    pub free_blocks_per_order: Vec<u64>,
}

/// A fixed-size bitmap tracking which frames are allocated, used to catch
/// double frees and frees of never-allocated frames at their source.
#[derive(Debug, Clone)]
struct FrameBitmap {
    words: Vec<u64>,
}

impl FrameBitmap {
    fn new(frames: u64) -> Self {
        Self { words: vec![0; frames.div_ceil(64) as usize] }
    }

    #[inline]
    fn test(&self, frame: u64) -> bool {
        self.words[(frame / 64) as usize] & (1 << (frame % 64)) != 0
    }

    /// Set (`set`) or clear the bits of the aligned block `[start, start +
    /// 2^order)` — whole words for blocks of 64 frames or more, one masked
    /// word below — returning the first frame whose bit already had that
    /// value.
    fn assign_block(&mut self, start: u64, order: u32, set: bool) -> Option<u64> {
        let first = (start / 64) as usize;
        let (n_words, mask) = match order {
            6.. => (1usize << (order - 6), u64::MAX),
            _ => (1, ((1u64 << (1u32 << order)) - 1) << (start % 64)),
        };
        let fill = if set { mask } else { 0 };
        let mut already = None;
        for (i, word) in self.words[first..first + n_words].iter_mut().enumerate() {
            let same = !(*word ^ fill) & mask;
            if same != 0 && already.is_none() {
                already = Some((start & !63) + 64 * i as u64 + u64::from(same.trailing_zeros()));
            }
            *word = (*word & !mask) | fill;
        }
        already
    }
}

/// One order's free list: the free block starts in LIFO order, plus a
/// dense position index (see the module docs).
#[derive(Debug, Clone)]
struct FreeList {
    /// Free block starts. `pop` takes the last; `remove` swap-removes.
    items: Vec<u64>,
    /// `pos[start >> order]` is the block's position in `items` plus one;
    /// 0 means the block is not on this list.
    pos: Vec<u32>,
    order: u32,
}

impl FreeList {
    /// An empty order-`order` list over `total_frames` frames.
    fn new(order: u32, total_frames: u64) -> Self {
        Self { items: Vec::new(), pos: vec![0; (total_frames >> order) as usize], order }
    }

    #[inline]
    fn slot(&self, start: u64) -> usize {
        debug_assert_eq!(start % (1 << self.order), 0, "misaligned order-{} block", self.order);
        (start >> self.order) as usize
    }

    /// Whether the block at `start` is on this list. A block reaching past
    /// the end of managed memory never is.
    fn contains(&self, start: u64) -> bool {
        self.pos.get(self.slot(start)).is_some_and(|&p| p != 0)
    }

    /// Append `start`; returns `false` (and changes nothing) if present.
    fn insert(&mut self, start: u64) -> bool {
        let slot = self.slot(start);
        if self.pos[slot] != 0 {
            return false;
        }
        self.items.push(start);
        self.pos[slot] = self.items.len() as u32;
        true
    }

    /// Remove `start`, moving the last block into its place; returns
    /// whether it was present.
    fn remove(&mut self, start: u64) -> bool {
        let slot = self.slot(start);
        let p = std::mem::take(&mut self.pos[slot]);
        if p == 0 {
            return false;
        }
        let last = self.items.pop().expect("index and items in sync");
        if let Some(hole) = self.items.get_mut(p as usize - 1) {
            *hole = last;
            let last_slot = self.slot(last);
            self.pos[last_slot] = p;
        }
        true
    }

    /// Remove and return the most recently inserted block.
    fn pop(&mut self) -> Option<u64> {
        let start = self.items.pop()?;
        let slot = self.slot(start);
        self.pos[slot] = 0;
        Some(start)
    }
}

/// The binary buddy allocator.
///
/// ```
/// use sipt_mem::buddy::BuddyAllocator;
/// let mut buddy = BuddyAllocator::new(1024); // 4 MiB of frames
/// let huge = buddy.alloc(9).unwrap();        // one 2 MiB block
/// assert_eq!(huge.len(), 512);
/// buddy.free(huge);
/// assert_eq!(buddy.free_frames(), 1024);
/// ```
#[derive(Debug, Clone)]
pub struct BuddyAllocator {
    /// Free lists, indexed by order.
    free_lists: Vec<FreeList>,
    /// Per-frame allocated bit.
    allocated: FrameBitmap,
    total_frames: u64,
    free_frames: u64,
}

impl BuddyAllocator {
    /// Create an allocator managing `total_frames` frames, all initially
    /// free, grouped into maximal aligned blocks.
    ///
    /// # Panics
    ///
    /// Panics if `total_frames` is zero or exceeds `u32::MAX` (16 TiB).
    pub fn new(total_frames: u64) -> Self {
        assert!(total_frames > 0, "allocator must manage at least one frame");
        assert!(total_frames <= u64::from(u32::MAX), "allocator manages at most 2^32 - 1 frames");
        let mut this = Self {
            free_lists: (0..=MAX_ORDER).map(|o| FreeList::new(o, total_frames)).collect(),
            allocated: FrameBitmap::new(total_frames),
            total_frames,
            free_frames: 0,
        };
        // Carve the frame range into maximal aligned power-of-two blocks.
        let mut frame = 0u64;
        while frame < total_frames {
            let align_order =
                if frame == 0 { MAX_ORDER } else { frame.trailing_zeros().min(MAX_ORDER) };
            let mut order = align_order;
            while frame + (1 << order) > total_frames {
                order -= 1;
            }
            this.free_lists[order as usize].insert(frame);
            this.free_frames += 1 << order;
            frame += 1 << order;
        }
        this
    }

    /// Convenience constructor: an allocator managing `bytes` of physical
    /// memory (rounded down to whole frames).
    pub fn with_bytes(bytes: u64) -> Self {
        Self::new(bytes >> crate::addr::PAGE_SHIFT)
    }

    /// Total frames managed.
    pub fn total_frames(&self) -> u64 {
        self.total_frames
    }

    /// Frames currently free.
    pub fn free_frames(&self) -> u64 {
        self.free_frames
    }

    /// Whether `frame` is currently handed out (false for free frames and
    /// frames outside managed memory). Used by the `SIPT_AUDIT=1`
    /// page-table↔allocator ownership check.
    pub fn is_allocated(&self, frame: PhysFrameNum) -> bool {
        frame.raw() < self.total_frames && self.allocated.test(frame.raw())
    }

    fn mark_allocated(&mut self, start: u64, order: u32) {
        let twice = self.allocated.assign_block(start, order, true);
        debug_assert!(twice.is_none(), "frame {:#x} allocated twice", twice.unwrap_or_default());
        self.free_frames -= 1 << order;
    }

    /// Allocate a block of `2^order` contiguous frames.
    ///
    /// Splits a larger block if no block of the exact order is free,
    /// exactly like `__rmqueue_smallest` in Linux.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfMemory`] if no block of order ≥ `order` is
    /// free.
    ///
    /// # Panics
    ///
    /// Panics if `order > MAX_ORDER`.
    pub fn alloc(&mut self, order: u32) -> Result<FrameBlock, MemError> {
        assert!(order <= MAX_ORDER, "order {order} exceeds MAX_ORDER");
        // Find the smallest order with a free block and pop from it in one
        // step, so exhaustion is a typed error on every path — there is no
        // window in which the chosen list can be observed non-empty but
        // popped empty.
        let (found, start) = (order..=MAX_ORDER)
            .find_map(|o| Some((o, self.free_lists[o as usize].pop()?)))
            .ok_or(MemError::OutOfMemory { requested_order: order })?;
        // Split down to the requested order, returning upper halves to the
        // free lists.
        let mut o = found;
        while o > order {
            o -= 1;
            let upper_half = start + (1u64 << o);
            self.free_lists[o as usize].insert(upper_half);
        }
        self.mark_allocated(start, order);
        Ok(FrameBlock { start: PhysFrameNum::new(start), order })
    }

    /// Allocate the specific single frame `frame`, splitting whatever free
    /// block contains it. Returns `None` if the frame is currently
    /// allocated (or out of range).
    pub fn alloc_specific_frame(&mut self, frame: PhysFrameNum) -> Option<FrameBlock> {
        self.alloc_specific_block(frame, 0)
    }

    /// Allocate the specific aligned block `[start, start + 2^order)`,
    /// splitting whatever free block contains it. Returns `None` if any
    /// part of it is currently allocated or out of range.
    ///
    /// # Panics
    ///
    /// Panics if `start` is not aligned to `2^order` frames.
    pub fn alloc_specific_block(&mut self, start: PhysFrameNum, order: u32) -> Option<FrameBlock> {
        let target = start.raw();
        assert_eq!(target % (1u64 << order), 0, "block start must be aligned to its order");
        if target + (1u64 << order) > self.total_frames {
            return None;
        }
        // Find the free block containing the target, smallest order first.
        let (found_start, found_order) = (order..=MAX_ORDER).find_map(|o| {
            let s = target & !((1u64 << o) - 1);
            self.free_lists[o as usize].contains(s).then_some((s, o))
        })?;
        self.free_lists[found_order as usize].remove(found_start);
        // Split toward the target, freeing the sibling halves.
        let mut s = found_start;
        let mut o = found_order;
        while o > order {
            o -= 1;
            let half = 1u64 << o;
            if target < s + half {
                self.free_lists[o as usize].insert(s + half);
            } else {
                self.free_lists[o as usize].insert(s);
                s += half;
            }
        }
        debug_assert_eq!(s, target);
        self.mark_allocated(target, order);
        Some(FrameBlock { start, order })
    }

    /// Allocate a block of `2^order` frames at a position chosen uniformly
    /// at random over the aligned candidates. Used by the allocator-churn
    /// model; falls back to a deterministic [`BuddyAllocator::alloc`] if
    /// rejection sampling fails to find a free candidate.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfMemory`] when no block of the order is free.
    pub fn alloc_random_block<R: Rng>(
        &mut self,
        order: u32,
        rng: &mut R,
    ) -> Result<FrameBlock, MemError> {
        let candidates = self.total_frames >> order;
        if candidates == 0 || self.free_frames < (1 << order) {
            return Err(MemError::OutOfMemory { requested_order: order });
        }
        for _ in 0..256 {
            let start = PhysFrameNum::new(rng.gen_range(0..candidates) << order);
            if let Some(block) = self.alloc_specific_block(start, order) {
                return Ok(block);
            }
        }
        self.alloc(order)
    }

    /// Allocate a single free frame chosen uniformly at random over all
    /// free frames. This deliberately destroys contiguity; it is used only
    /// by adversarial placement policies (the paper's "no >4 KiB
    /// contiguity" condition) and the fragmentation injector.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfMemory`] when no frame is free.
    pub fn alloc_random_frame<R: Rng>(&mut self, rng: &mut R) -> Result<FrameBlock, MemError> {
        if self.free_frames == 0 {
            return Err(MemError::OutOfMemory { requested_order: 0 });
        }
        // Rejection-sample a uniformly random free frame. Expected tries =
        // total/free; bail to a deterministic fallback if unlucky.
        for _ in 0..256 {
            let f = PhysFrameNum::new(rng.gen_range(0..self.total_frames));
            if let Some(block) = self.alloc_specific_frame(f) {
                return Ok(block);
            }
        }
        self.alloc(0)
    }

    /// Allocate `n_frames` frames as a list of maximal blocks, largest
    /// first. This mirrors how the kernel satisfies a burst of allocations:
    /// large contiguous chunks get broken off and mapped consecutively,
    /// producing the constant VA→PA deltas SIPT exploits.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfMemory`] (after rolling back any partial
    /// allocation) when fewer than `n_frames` frames are free.
    pub fn alloc_bulk(&mut self, n_frames: u64) -> Result<Vec<FrameBlock>, MemError> {
        if n_frames > self.free_frames {
            return Err(MemError::OutOfMemory { requested_order: 0 });
        }
        let mut blocks = Vec::new();
        let mut remaining = n_frames;
        while remaining > 0 {
            // Largest order that fits the remainder and can be allocated.
            let cap = 63 - remaining.leading_zeros();
            let mut order = cap.min(MAX_ORDER);
            let block = loop {
                match self.alloc(order) {
                    Ok(b) => break b,
                    Err(_) if order > 0 => order -= 1,
                    Err(e) => {
                        for b in blocks.drain(..) {
                            self.free(b);
                        }
                        return Err(e);
                    }
                }
            };
            remaining -= block.len();
            blocks.push(block);
        }
        Ok(blocks)
    }

    /// Free a previously allocated block, merging with free buddies.
    ///
    /// The block need not be freed at the same granularity it was allocated
    /// at: freeing an order-9 allocation as 512 order-0 frames is legal and
    /// re-merges fully (this is how `munmap` tears down bulk-mapped
    /// regions).
    ///
    /// # Panics
    ///
    /// Panics if any frame of the block is already free — a double free —
    /// or lies outside managed memory.
    pub fn free(&mut self, block: FrameBlock) {
        let mut start = block.start.raw();
        let mut order = block.order;
        assert!(
            start.is_multiple_of(1u64 << order),
            "freeing misaligned block at {start:#x} order {order}"
        );
        assert!(
            start + (1u64 << order) <= self.total_frames,
            "freeing block outside managed memory"
        );
        if let Some(f) = self.allocated.assign_block(start, order, false) {
            panic!("double free of frame {f:#x}");
        }
        self.free_frames += 1 << order;
        while order < MAX_ORDER {
            let buddy = start ^ (1u64 << order);
            if buddy + (1 << order) > self.total_frames
                || !self.free_lists[order as usize].remove(buddy)
            {
                break;
            }
            start = start.min(buddy);
            order += 1;
        }
        self.free_lists[order as usize].insert(start);
    }

    /// Snapshot occupancy statistics.
    pub fn stats(&self) -> BuddyStats {
        BuddyStats {
            total_frames: self.total_frames,
            free_frames: self.free_frames,
            free_blocks_per_order: self.free_lists.iter().map(|l| l.items.len() as u64).collect(),
        }
    }

    /// The *unusable free space index* `Fu(j)` of Gorman & Whitcroft, as
    /// used by the paper to quantify fragmentation: the fraction of free
    /// memory that cannot satisfy an allocation of order `j`.
    ///
    /// `Fu(j) = (TotalFree − Σ_{i≥j} 2^i·k_i) / TotalFree`, where `k_i` is
    /// the number of free blocks of order `i`. 0 means unfragmented, values
    /// near 1 mean an order-`j` request is nearly unsatisfiable. Returns 0
    /// when no memory is free.
    pub fn unusable_free_space_index(&self, j: u32) -> f64 {
        if self.free_frames == 0 {
            return 0.0;
        }
        let usable: u64 = (j..=MAX_ORDER)
            .map(|i| (1u64 << i) * self.free_lists[i as usize].items.len() as u64)
            .sum();
        (self.free_frames - usable) as f64 / self.free_frames as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sipt_rng::{SeedableRng, StdRng};
    use std::collections::{HashMap, HashSet};

    /// The hash-indexed set the free lists used before the dense index:
    /// the oracle for [`FreeList`]'s results and `pop` order.
    #[derive(Default)]
    struct HashIndexedSet {
        items: Vec<u64>,
        index: HashMap<u64, usize>,
    }

    impl HashIndexedSet {
        fn insert(&mut self, value: u64) -> bool {
            if self.index.contains_key(&value) {
                return false;
            }
            self.index.insert(value, self.items.len());
            self.items.push(value);
            true
        }

        fn remove(&mut self, value: u64) -> bool {
            match self.index.remove(&value) {
                None => false,
                Some(pos) => {
                    let last = self.items.pop().expect("index and items in sync");
                    if pos < self.items.len() {
                        self.items[pos] = last;
                        self.index.insert(last, pos);
                    }
                    true
                }
            }
        }

        fn pop(&mut self) -> Option<u64> {
            let value = self.items.pop()?;
            self.index.remove(&value);
            Some(value)
        }
    }

    /// An order-0 free list over `0..n` holding `values`.
    fn free_list_of(n: u64, values: impl IntoIterator<Item = u64>) -> FreeList {
        let mut s = FreeList::new(0, n);
        for v in values {
            s.insert(v);
        }
        s
    }

    #[test]
    fn free_list_insert_remove_contains() {
        let mut s = FreeList::new(0, 4);
        assert!(s.insert(1));
        assert!(!s.insert(1));
        assert!(s.contains(1));
        assert!(s.remove(1));
        assert!(!s.remove(1));
        assert!(s.items.is_empty());
        // Blocks reaching past managed memory are simply absent.
        assert!(!FreeList::new(3, 12).contains(8));
    }

    #[test]
    fn free_list_swap_remove_keeps_index_consistent() {
        let mut s = free_list_of(100, 0..100);
        // Remove from the middle repeatedly; every remaining element must
        // still be findable.
        for v in (0..100).step_by(3) {
            assert!(s.remove(v));
        }
        for v in 0..100u64 {
            assert_eq!(s.contains(v), v % 3 != 0);
        }
    }

    #[test]
    fn free_list_pop_drains_everything() {
        let mut s = free_list_of(50, 0..50);
        let mut seen = HashSet::new();
        while let Some(v) = s.pop() {
            assert!(seen.insert(v));
        }
        assert_eq!(seen.len(), 50);
    }

    #[test]
    fn fresh_allocator_is_fully_free_in_max_blocks() {
        let b = BuddyAllocator::new(4096);
        let stats = b.stats();
        assert_eq!(stats.free_frames, 4096);
        assert_eq!(stats.free_blocks_per_order[MAX_ORDER as usize], 4);
        assert_eq!(b.unusable_free_space_index(HUGE_PAGE_ORDER), 0.0);
    }

    #[test]
    fn non_power_of_two_memory_is_fully_covered() {
        let b = BuddyAllocator::new(1000);
        assert_eq!(b.free_frames(), 1000);
        let total: u64 =
            b.stats().free_blocks_per_order.iter().enumerate().map(|(o, k)| (1u64 << o) * k).sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn alloc_splits_and_free_merges() {
        let mut b = BuddyAllocator::new(1024);
        let x = b.alloc(0).unwrap();
        assert_eq!(b.free_frames(), 1023);
        // One split chain: orders 0..MAX_ORDER-1 each have one block.
        let stats = b.stats();
        for o in 0..MAX_ORDER {
            assert_eq!(stats.free_blocks_per_order[o as usize], 1, "order {o}");
        }
        b.free(x);
        let stats = b.stats();
        assert_eq!(stats.free_frames, 1024);
        assert_eq!(stats.free_blocks_per_order[MAX_ORDER as usize], 1);
    }

    #[test]
    fn alloc_exhausts_then_errors() {
        let mut b = BuddyAllocator::new(2);
        b.alloc(1).unwrap();
        assert!(matches!(b.alloc(0), Err(MemError::OutOfMemory { .. })));
    }

    #[test]
    fn blocks_are_aligned_and_disjoint() {
        let mut b = BuddyAllocator::new(1 << 14);
        let mut seen = HashSet::new();
        let mut blocks = Vec::new();
        for order in [3u32, 0, 9, 5, 0, 2, 9, 1] {
            let blk = b.alloc(order).unwrap();
            assert_eq!(blk.start.raw() % blk.len(), 0, "block must be aligned to its size");
            for f in blk.frames() {
                assert!(seen.insert(f.raw()), "frame {f} handed out twice");
            }
            blocks.push(blk);
        }
        for blk in blocks {
            b.free(blk);
        }
        assert_eq!(b.free_frames(), 1 << 14);
    }

    #[test]
    fn bulk_allocation_prefers_large_blocks() {
        let mut b = BuddyAllocator::new(4096);
        let blocks = b.alloc_bulk(1536).unwrap();
        // 1536 = 1024 + 512: exactly two blocks from fresh memory.
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[0].order, 10);
        assert_eq!(blocks[1].order, 9);
        assert_eq!(blocks.iter().map(FrameBlock::len).sum::<u64>(), 1536);
    }

    #[test]
    fn bulk_allocation_rolls_back_on_failure() {
        let mut b = BuddyAllocator::new(64);
        let keep = b.alloc_bulk(32).unwrap();
        assert!(b.alloc_bulk(33).is_err());
        assert_eq!(b.free_frames(), 32, "failed bulk alloc must not leak");
        for blk in keep {
            b.free(blk);
        }
        assert_eq!(b.free_frames(), 64);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut b = BuddyAllocator::new(16);
        let x = b.alloc(0).unwrap();
        b.free(x);
        b.free(x);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn free_of_never_allocated_block_panics() {
        let mut b = BuddyAllocator::new(16);
        b.free(FrameBlock { start: PhysFrameNum::new(4), order: 1 });
    }

    #[test]
    #[should_panic(expected = "double free of frame 0x46")]
    fn double_free_inside_a_large_block_names_the_frame() {
        let mut b = BuddyAllocator::new(1024);
        let blk = b.alloc(HUGE_PAGE_ORDER).unwrap();
        assert_eq!(blk.start.raw(), 0);
        b.free(FrameBlock { start: PhysFrameNum::new(70), order: 0 });
        b.free(blk);
    }

    #[test]
    fn free_at_finer_granularity_remerges() {
        let mut b = BuddyAllocator::new(1024);
        let blk = b.alloc(HUGE_PAGE_ORDER).unwrap();
        for f in blk.frames() {
            b.free(FrameBlock { start: f, order: 0 });
        }
        assert_eq!(b.free_frames(), 1024);
        assert_eq!(b.stats().free_blocks_per_order[MAX_ORDER as usize], 1);
    }

    #[test]
    fn alloc_specific_frame_carves_out_exactly_one() {
        let mut b = BuddyAllocator::new(1024);
        let blk = b.alloc_specific_frame(PhysFrameNum::new(517)).unwrap();
        assert_eq!(blk.start.raw(), 517);
        assert_eq!(b.free_frames(), 1023);
        // The same frame cannot be carved twice.
        assert!(b.alloc_specific_frame(PhysFrameNum::new(517)).is_none());
        // Out of range is None, not a panic.
        assert!(b.alloc_specific_frame(PhysFrameNum::new(9999)).is_none());
        b.free(blk);
        assert_eq!(b.stats().free_blocks_per_order[MAX_ORDER as usize], 1);
    }

    #[test]
    fn unusable_free_space_index_tracks_fragmentation() {
        let mut b = BuddyAllocator::new(1024);
        assert_eq!(b.unusable_free_space_index(9), 0.0);
        // Allocate everything as singles, free every other frame: free
        // space exists but no order-9 block does.
        let frames: Vec<_> = (0..1024).map(|_| b.alloc(0).unwrap()).collect();
        for blk in frames.iter().step_by(2) {
            b.free(*blk);
        }
        assert_eq!(b.free_frames(), 512);
        assert_eq!(b.unusable_free_space_index(9), 1.0);
        assert_eq!(b.unusable_free_space_index(0), 0.0);
    }

    #[test]
    fn random_frame_allocation_scatters() {
        let mut b = BuddyAllocator::new(1 << 12);
        let mut rng = StdRng::seed_from_u64(7);
        let frames: Vec<_> =
            (0..64).map(|_| b.alloc_random_frame(&mut rng).unwrap().start.raw()).collect();
        // With 4096 candidate positions and 64 draws, adjacency should be
        // essentially absent.
        let adjacent = frames.windows(2).filter(|w| w[1] == w[0] + 1).count();
        assert!(adjacent < 8, "random placement produced {adjacent} adjacent pairs");
        assert_eq!(b.free_frames(), (1 << 12) - 64);
    }

    #[test]
    fn random_frame_allocation_is_roughly_uniform() {
        let mut b = BuddyAllocator::new(1024);
        let mut rng = StdRng::seed_from_u64(3);
        let mut low_half = 0;
        for _ in 0..512 {
            if b.alloc_random_frame(&mut rng).unwrap().start.raw() < 512 {
                low_half += 1;
            }
        }
        assert!((170..342).contains(&low_half), "low-half draws: {low_half}/512");
    }

    proptest! {
        /// The dense free list behaves like a set, and exactly like the
        /// hash-indexed oracle: the same result from every insert, remove,
        /// pop and contains, so the same `pop` order.
        #[test]
        fn free_list_matches_hash_indexed_oracle(
            order in 0u32..4,
            ops in proptest::collection::vec((0u8..4, 0u64..64), 0..200),
        ) {
            let mut model = HashSet::new();
            let mut oracle = HashIndexedSet::default();
            let mut sut = FreeList::new(order, 64 << order);
            for (op, slot) in ops {
                let v = slot << order;
                match op {
                    0 => {
                        prop_assert_eq!(sut.insert(v), oracle.insert(v));
                        model.insert(v);
                    }
                    1 => {
                        prop_assert_eq!(sut.remove(v), oracle.remove(v));
                        model.remove(&v);
                    }
                    2 => {
                        let popped = sut.pop();
                        prop_assert_eq!(popped, oracle.pop());
                        if let Some(p) = popped {
                            model.remove(&p);
                        }
                    }
                    _ => prop_assert_eq!(sut.contains(v), model.contains(&v)),
                }
                prop_assert_eq!(sut.items.len(), model.len());
            }
            for slot in 0..64 {
                prop_assert_eq!(sut.contains(slot << order), model.contains(&(slot << order)));
            }
            // Draining gives the oracle's order too.
            while let Some(v) = oracle.pop() {
                prop_assert_eq!(sut.pop(), Some(v));
            }
            prop_assert_eq!(sut.pop(), None);
        }

        /// Invariant: any interleaving of allocs and frees conserves frames,
        /// never hands out overlapping blocks, and fully merges back.
        #[test]
        fn alloc_free_conservation(ops in proptest::collection::vec(0u32..=MAX_ORDER, 1..64)) {
            let mut b = BuddyAllocator::new(1 << 12);
            let mut live: Vec<FrameBlock> = Vec::new();
            let mut allocated_frames = HashSet::new();
            for (i, order) in ops.iter().enumerate() {
                if i % 3 == 2 && !live.is_empty() {
                    let blk = live.swap_remove(i % live.len());
                    for f in blk.frames() {
                        allocated_frames.remove(&f.raw());
                    }
                    b.free(blk);
                } else if let Ok(blk) = b.alloc(*order) {
                    for f in blk.frames() {
                        prop_assert!(allocated_frames.insert(f.raw()), "overlap at {}", f);
                    }
                    live.push(blk);
                }
                prop_assert_eq!(
                    b.free_frames() + allocated_frames.len() as u64,
                    1 << 12
                );
            }
            for blk in live {
                b.free(blk);
            }
            prop_assert_eq!(b.free_frames(), 1 << 12);
            prop_assert_eq!(b.stats().free_blocks_per_order[MAX_ORDER as usize], 4);
        }

        /// Driving the allocator to (and past) exhaustion through random
        /// alloc/free interleavings never panics: every failure is a typed
        /// `OutOfMemory`, free-frame counts are conserved throughout, and
        /// the allocated bitmap agrees with the live set.
        #[test]
        fn exhaustion_is_typed_not_a_panic(ops in proptest::collection::vec(0u32..=MAX_ORDER, 1..96)) {
            // Tiny arena (64 frames) so most op sequences actually exhaust it.
            let mut b = BuddyAllocator::new(64);
            let mut live: Vec<FrameBlock> = Vec::new();
            for (i, order) in ops.iter().enumerate() {
                if i % 5 == 4 && !live.is_empty() {
                    b.free(live.swap_remove(i % live.len()));
                } else {
                    match b.alloc(*order) {
                        Ok(blk) => {
                            for f in blk.frames() {
                                prop_assert!(b.is_allocated(f), "fresh block must be marked");
                            }
                            live.push(blk);
                        }
                        Err(MemError::OutOfMemory { requested_order }) => {
                            prop_assert_eq!(requested_order, *order);
                            // The error is honest: no free block of the order exists.
                            let usable: u64 = (*order..=MAX_ORDER)
                                .map(|o| b.stats().free_blocks_per_order[o as usize])
                                .sum();
                            prop_assert_eq!(usable, 0, "OOM reported with a usable block free");
                        }
                        Err(e) => prop_assert!(false, "unexpected error {e:?}"),
                    }
                }
                let live_frames: u64 = live.iter().map(FrameBlock::len).sum();
                prop_assert_eq!(b.free_frames() + live_frames, 64);
            }
            for blk in live {
                b.free(blk);
            }
            prop_assert_eq!(b.free_frames(), 64);
        }

        /// alloc_specific_frame + free always restores a pristine allocator.
        #[test]
        fn specific_frame_roundtrip(frames in proptest::collection::hash_set(0u64..1024, 1..32)) {
            let mut b = BuddyAllocator::new(1024);
            let mut blocks = Vec::new();
            for f in &frames {
                let blk = b.alloc_specific_frame(PhysFrameNum::new(*f)).expect("frame free");
                prop_assert_eq!(blk.start.raw(), *f);
                blocks.push(blk);
            }
            prop_assert_eq!(b.free_frames(), 1024 - frames.len() as u64);
            for blk in blocks {
                b.free(blk);
            }
            prop_assert_eq!(b.stats().free_blocks_per_order[MAX_ORDER as usize], 1);
        }
    }
}
