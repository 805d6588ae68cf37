//! Physical memory fragmentation injector.
//!
//! Reproduces the paper's §VII.B "fragmented memory" condition (built there
//! with the tool of Kwon et al.): physical memory that still has plenty of
//! *free* frames, but almost no *contiguous* free blocks, so the unusable
//! free space index `Fu(9)` stays above 0.95 and the buddy allocator can
//! satisfy essentially no huge-page or bulk requests.

use crate::buddy::{BuddyAllocator, FrameBlock};
use crate::{MemError, PhysFrameNum};
use sipt_rng::Rng;

/// Frames pinned by the fragmentation injector. They play the role of the
/// long-running co-tenant processes that shattered memory; release them with
/// [`FragmentHold::release`] to "kill" those processes.
#[derive(Debug)]
pub struct FragmentHold {
    /// Pinned single frames, as frame numbers.
    pinned: Vec<u32>,
}

impl FragmentHold {
    /// Number of frames pinned.
    pub fn pinned_frames(&self) -> u64 {
        self.pinned.len() as u64
    }

    /// The pinned frames, in the order the injector kept them.
    pub fn pinned(&self) -> impl Iterator<Item = PhysFrameNum> + '_ {
        self.pinned.iter().map(|&f| single(f).start)
    }

    /// Return all pinned frames to the allocator, ending the fragmented
    /// condition.
    pub fn release(self, phys: &mut BuddyAllocator) {
        for f in self.pinned {
            phys.free(single(f));
        }
    }
}

/// The order-0 block of frame number `frame`.
fn single(frame: u32) -> FrameBlock {
    FrameBlock { start: PhysFrameNum::new(frame.into()), order: 0 }
}

/// Fragment `phys` so that roughly `free_fraction` of its frames remain
/// free, but scattered as isolated 4 KiB holes: allocate every free frame
/// at order 0, then free a uniformly random subset.
///
/// Randomly freed single frames essentially never find their buddy free,
/// so the resulting free space has `Fu(9)` near 1.0 (verified by the caller
/// via [`BuddyAllocator::unusable_free_space_index`]).
///
/// # Errors
///
/// [`MemError::OutOfMemory`] only if the allocator's free lists change
/// underneath us (cannot happen with exclusive access).
///
/// # Panics
///
/// Panics if `free_fraction` is not within `(0, 1)`.
pub fn fragment_memory<R: Rng>(
    phys: &mut BuddyAllocator,
    free_fraction: f64,
    rng: &mut R,
) -> Result<FragmentHold, MemError> {
    assert!(
        free_fraction > 0.0 && free_fraction < 1.0,
        "free_fraction must be in (0,1), got {free_fraction}"
    );
    // Grab every free frame as an order-0 block. Frame numbers fit in a
    // `u32`: the allocator manages fewer than 2^32 frames.
    let mut singles: Vec<u32> = Vec::with_capacity(phys.free_frames() as usize);
    while phys.free_frames() > 0 {
        singles.push(phys.alloc(0)?.start.raw() as u32);
    }
    // Shuffle-free a random subset.
    let n_free = (singles.len() as f64 * free_fraction).round() as usize;
    for _ in 0..n_free {
        let i = rng.gen_range(0..singles.len());
        phys.free(single(singles.swap_remove(i)));
    }
    Ok(FragmentHold { pinned: singles })
}

/// Fragment until `Fu(order) >= target_fu` while freeing `free_fraction` of
/// frames, retrying with progressively more adversarial placement. In
/// practice a single pass of [`fragment_memory`] already exceeds
/// `Fu(9) = 0.95` for any sensible `free_fraction`; this wrapper asserts it.
///
/// # Errors
///
/// Propagates allocator errors; returns [`MemError::FragmentationTarget`]
/// if the target index cannot be reached (e.g. `free_fraction` so small
/// that zero free blocks exist).
pub fn fragment_to_target<R: Rng>(
    phys: &mut BuddyAllocator,
    free_fraction: f64,
    order: u32,
    target_fu: f64,
    rng: &mut R,
) -> Result<FragmentHold, MemError> {
    let hold = fragment_memory(phys, free_fraction, rng)?;
    let fu = phys.unusable_free_space_index(order);
    if fu < target_fu {
        hold.release(phys);
        return Err(MemError::FragmentationTarget { achieved: fu, target: target_fu });
    }
    Ok(hold)
}

/// Default fragmentation level used by the paper's sensitivity study:
/// `Fu(9) > 0.95` ("an extreme level of fragmentation at nearly all times")
/// while keeping half of memory free so workloads never run out.
pub const PAPER_TARGET_FU: f64 = 0.95;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buddy::HUGE_PAGE_ORDER;
    use sipt_rng::{SeedableRng, StdRng};

    #[test]
    fn fragmentation_reaches_paper_target() {
        let mut phys = BuddyAllocator::new(1 << 15); // 128 MiB
        let mut rng = StdRng::seed_from_u64(42);
        let hold =
            fragment_to_target(&mut phys, 0.5, HUGE_PAGE_ORDER, PAPER_TARGET_FU, &mut rng).unwrap();
        let fu = phys.unusable_free_space_index(HUGE_PAGE_ORDER);
        assert!(fu > PAPER_TARGET_FU, "Fu(9) = {fu}");
        // Half of memory is still free — fragmentation, not exhaustion.
        let free = phys.free_frames();
        assert!((free as f64 - (1 << 14) as f64).abs() < 256.0);
        hold.release(&mut phys);
        assert_eq!(phys.free_frames(), 1 << 15);
        assert_eq!(phys.unusable_free_space_index(HUGE_PAGE_ORDER), 0.0);
    }

    #[test]
    fn fragmented_memory_defeats_huge_allocations_but_not_singles() {
        let mut phys = BuddyAllocator::new(1 << 14);
        let mut rng = StdRng::seed_from_u64(7);
        let _hold = fragment_memory(&mut phys, 0.4, &mut rng).unwrap();
        assert!(phys.alloc(HUGE_PAGE_ORDER).is_err(), "order-9 should be unsatisfiable");
        assert!(phys.alloc(0).is_ok(), "singles must still be available");
    }

    #[test]
    fn pinned_frames_accounting() {
        let mut phys = BuddyAllocator::new(1024);
        let mut rng = StdRng::seed_from_u64(1);
        let hold = fragment_memory(&mut phys, 0.25, &mut rng).unwrap();
        assert_eq!(hold.pinned_frames() + phys.free_frames(), 1024);
        assert_eq!(phys.free_frames(), 256);
    }

    /// A clone of a fragmented allocator is a full copy: the same seeded
    /// sequence of allocations and frees returns the same blocks on both
    /// and leaves the same free lists behind.
    #[test]
    fn clone_of_fragmented_allocator_replays_identically() {
        fn replay(phys: &mut BuddyAllocator) -> Vec<Option<FrameBlock>> {
            let mut rng = StdRng::seed_from_u64(11);
            let mut live = Vec::new();
            let mut out = Vec::new();
            for _ in 0..3000 {
                let block = match rng.gen_range(0..3u32) {
                    0 => phys.alloc(rng.gen_range(0..4u32)).ok(),
                    1 => {
                        let order = rng.gen_range(0..3u32);
                        phys.alloc_random_block(order, &mut rng).ok()
                    }
                    _ if !live.is_empty() => {
                        let block = live.swap_remove(rng.gen_range(0..live.len()));
                        phys.free(block);
                        out.push(Some(block));
                        continue;
                    }
                    _ => None,
                };
                live.extend(block);
                out.push(block);
            }
            out
        }
        let mut original = BuddyAllocator::new(1 << 13);
        let mut rng = StdRng::seed_from_u64(5);
        let _hold = fragment_memory(&mut original, 0.5, &mut rng).unwrap();
        let mut copy = original.clone();
        assert_eq!(copy.stats(), original.stats());
        let from_original = replay(&mut original);
        let from_copy = replay(&mut copy);
        assert_eq!(from_original, from_copy);
        let orders = from_original.iter().flatten().map(|b| b.order);
        assert!(orders.clone().count() > 1000, "the sequence must do real work");
        assert!(orders.max() > Some(0), "some multi-frame block must be handed out");
        assert_eq!(copy.stats().free_blocks_per_order, original.stats().free_blocks_per_order);
        assert_eq!(copy.free_frames(), original.free_frames());
    }

    #[test]
    #[should_panic(expected = "free_fraction")]
    fn invalid_fraction_panics() {
        let mut phys = BuddyAllocator::new(16);
        let mut rng = StdRng::seed_from_u64(1);
        let _ = fragment_memory(&mut phys, 1.5, &mut rng);
    }

    #[test]
    fn unreachable_target_is_reported() {
        let mut phys = BuddyAllocator::new(1 << 12);
        let mut rng = StdRng::seed_from_u64(9);
        // Asking for Fu(0) >= 0.95 is impossible: order-0 requests are
        // satisfiable whenever anything is free, so Fu(0) == 0.
        let err = fragment_to_target(&mut phys, 0.5, 0, 0.95, &mut rng).unwrap_err();
        assert!(matches!(err, MemError::FragmentationTarget { .. }));
        // And the failed attempt rolled everything back.
        assert_eq!(phys.free_frames(), 1 << 12);
    }
}
