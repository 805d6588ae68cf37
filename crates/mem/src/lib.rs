#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # sipt-mem — OS virtual-memory substrate for the SIPT reproduction
//!
//! Everything below the architectural interface of the SIPT paper (Zheng,
//! Zhu & Erez, HPCA 2018) that decides *which physical frame backs which
//! virtual page*:
//!
//! - typed addresses and page numbers ([`VirtAddr`], [`PhysAddr`],
//!   [`VirtPageNum`], [`PhysFrameNum`]),
//! - a Linux-style binary [`buddy`] allocator whose bulk allocations create
//!   the VA→PA contiguity that makes SIPT's speculative index bits
//!   predictable,
//! - a [`PageTable`] with 4 KiB and transparent 2 MiB mappings,
//! - an mmap-style [`AddressSpace`] with pluggable [`PlacementPolicy`]
//!   (Linux default, THP off, fully scattered, page-colored),
//! - a [`frag`] fragmentation injector reproducing the paper's
//!   `Fu(9) > 0.95` sensitivity condition.
//!
//! ## Example
//!
//! ```
//! use sipt_mem::{AddressSpace, BuddyAllocator, PlacementPolicy, PAGE_SIZE};
//!
//! # fn main() -> Result<(), sipt_mem::MemError> {
//! let mut phys = BuddyAllocator::new(4096); // 16 MiB of frames
//! let mut proc0 = AddressSpace::new(0, PlacementPolicy::LinuxDefault);
//! let heap = proc0.mmap(512 * PAGE_SIZE, &mut phys)?;
//! let t = proc0.translate(heap.start + 64).expect("mapped");
//! assert_eq!(t.pa.page_offset(), 64);
//! # Ok(())
//! # }
//! ```

pub mod addr;
pub mod address_space;
pub mod buddy;
pub mod frag;
pub mod page_table;
pub mod translation_cache;

pub use addr::{
    PageSize, PhysAddr, PhysFrameNum, Translation, VirtAddr, VirtPageNum, HUGE_PAGE_SHIFT,
    HUGE_PAGE_SIZE, PAGES_PER_HUGE_PAGE, PAGE_SHIFT, PAGE_SIZE,
};
pub use address_space::{AddressSpace, AddressSpaceStats, PlacementPolicy, Region};
pub use buddy::{BuddyAllocator, BuddyStats, FrameBlock, HUGE_PAGE_ORDER, MAX_ORDER};
pub use frag::{fragment_memory, fragment_to_target, FragmentHold, PAPER_TARGET_FU};
pub use page_table::{Mapping, PageTable, PageTableStats};
pub use translation_cache::{TranslationCache, DEFAULT_XLAT_ENTRIES};

use core::fmt;

/// Errors produced by the memory substrate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MemError {
    /// The buddy allocator has no free block of the requested (or any
    /// larger) order.
    OutOfMemory {
        /// The order that could not be satisfied.
        requested_order: u32,
    },
    /// A mapping already covers the virtual page.
    AlreadyMapped {
        /// The conflicting virtual page.
        vpn: VirtPageNum,
    },
    /// No mapping covers the virtual page.
    NotMapped {
        /// The missing virtual page.
        vpn: VirtPageNum,
    },
    /// Huge-page alignment requirements were violated.
    Misaligned {
        /// The requested virtual page.
        vpn: VirtPageNum,
        /// The granularity whose alignment was violated.
        page_size: PageSize,
    },
    /// An mmap of zero bytes was requested.
    EmptyMapping,
    /// The fragmentation injector could not reach the requested unusable
    /// free space index.
    FragmentationTarget {
        /// The index that was achieved.
        achieved: f64,
        /// The index that was requested.
        target: f64,
    },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::OutOfMemory { requested_order } => {
                write!(f, "out of physical memory for order-{requested_order} block")
            }
            MemError::AlreadyMapped { vpn } => write!(f, "virtual page {vpn} already mapped"),
            MemError::NotMapped { vpn } => write!(f, "virtual page {vpn} not mapped"),
            MemError::Misaligned { vpn, page_size } => {
                write!(f, "mapping at {vpn} misaligned for {page_size} page")
            }
            MemError::EmptyMapping => write!(f, "cannot map an empty region"),
            MemError::FragmentationTarget { achieved, target } => {
                write!(f, "fragmentation reached Fu={achieved:.3}, target {target:.3}")
            }
        }
    }
}

impl std::error::Error for MemError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_nonempty() {
        let errs: Vec<MemError> = vec![
            MemError::OutOfMemory { requested_order: 9 },
            MemError::AlreadyMapped { vpn: VirtPageNum::new(1) },
            MemError::NotMapped { vpn: VirtPageNum::new(2) },
            MemError::Misaligned { vpn: VirtPageNum::new(3), page_size: PageSize::Huge2M },
            MemError::EmptyMapping,
            MemError::FragmentationTarget { achieved: 0.5, target: 0.95 },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
            let _: &dyn std::error::Error = &e;
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MemError>();
    }
}
