//! A per-process page table mapping virtual pages to physical frames.
//!
//! Models exactly what the simulator needs: 4 KiB and 2 MiB mappings,
//! translation, and remapping events (munmap / copy-on-write analogues).
//! There is no multi-level radix structure — a hash map keyed by virtual
//! page number is behaviourally equivalent for a trace-driven simulator,
//! and the page-walk *cost* is modelled separately by `sipt-tlb`.

use crate::addr::{
    PageSize, PhysAddr, PhysFrameNum, Translation, VirtAddr, VirtPageNum, PAGES_PER_HUGE_PAGE,
    PAGE_SHIFT,
};
use crate::MemError;
use std::collections::HashMap;

/// A single mapping entry: one 4 KiB page or one 2 MiB huge page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Mapping {
    /// First physical frame of the mapping.
    pub pfn: PhysFrameNum,
    /// Granularity: `Base4K` maps one frame, `Huge2M` maps 512 contiguous
    /// frames starting at a 512-aligned `pfn`.
    pub page_size: PageSize,
}

/// Statistics maintained by the page table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PageTableStats {
    /// Number of live 4 KiB mappings.
    pub base_mappings: u64,
    /// Number of live 2 MiB mappings.
    pub huge_mappings: u64,
    /// Count of map operations ever performed.
    pub maps: u64,
    /// Count of unmap operations ever performed.
    pub unmaps: u64,
}

/// A per-address-space page table.
///
/// ```
/// use sipt_mem::{PageTable, VirtPageNum, PhysFrameNum, PageSize, VirtAddr};
/// let mut pt = PageTable::new();
/// pt.map(VirtPageNum::new(0x10), PhysFrameNum::new(0x42), PageSize::Base4K).unwrap();
/// let t = pt.translate(VirtAddr::new(0x10_123)).unwrap();
/// assert_eq!(t.pa.raw(), 0x42_123);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PageTable {
    /// 4 KiB mappings keyed by VPN.
    base: HashMap<u64, PhysFrameNum>,
    /// 2 MiB mappings keyed by VPN of the first page (512-aligned).
    huge: HashMap<u64, PhysFrameNum>,
    stats: PageTableStats,
}

impl PageTable {
    /// Create an empty page table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Install a mapping at `vpn`.
    ///
    /// For `Huge2M`, both `vpn` and `pfn` must be 512-page aligned; the
    /// mapping covers 512 consecutive pages.
    ///
    /// # Errors
    ///
    /// [`MemError::AlreadyMapped`] if any covered page is already mapped;
    /// [`MemError::Misaligned`] if huge-page alignment is violated.
    pub fn map(
        &mut self,
        vpn: VirtPageNum,
        pfn: PhysFrameNum,
        page_size: PageSize,
    ) -> Result<(), MemError> {
        match page_size {
            PageSize::Base4K => {
                if self.lookup_raw(vpn).is_some() {
                    return Err(MemError::AlreadyMapped { vpn });
                }
                self.base.insert(vpn.raw(), pfn);
                self.stats.base_mappings += 1;
            }
            PageSize::Huge2M => {
                if !vpn.raw().is_multiple_of(PAGES_PER_HUGE_PAGE)
                    || !pfn.raw().is_multiple_of(PAGES_PER_HUGE_PAGE)
                {
                    return Err(MemError::Misaligned { vpn, page_size });
                }
                // Reject if any page in the range is mapped: every page
                // shares the huge-map slot of the aligned `vpn`, so probe
                // it once, then only the 4 KiB map page by page.
                if self.huge.contains_key(&vpn.raw()) {
                    return Err(MemError::AlreadyMapped { vpn });
                }
                if let Some(i) =
                    (0..PAGES_PER_HUGE_PAGE).find(|&i| self.base.contains_key(&(vpn.raw() + i)))
                {
                    return Err(MemError::AlreadyMapped { vpn: vpn + i });
                }
                self.huge.insert(vpn.raw(), pfn);
                self.stats.huge_mappings += 1;
            }
        }
        self.stats.maps += 1;
        Ok(())
    }

    /// Remove the mapping covering `vpn`, returning it.
    ///
    /// For a huge mapping, `vpn` may be any page inside the huge page; the
    /// entire huge mapping is removed.
    ///
    /// # Errors
    ///
    /// [`MemError::NotMapped`] when no mapping covers `vpn`.
    pub fn unmap(&mut self, vpn: VirtPageNum) -> Result<Mapping, MemError> {
        self.stats.unmaps += 1;
        if let Some(pfn) = self.base.remove(&vpn.raw()) {
            self.stats.base_mappings -= 1;
            return Ok(Mapping { pfn, page_size: PageSize::Base4K });
        }
        let huge_base = vpn.raw() & !(PAGES_PER_HUGE_PAGE - 1);
        if let Some(pfn) = self.huge.remove(&huge_base) {
            self.stats.huge_mappings -= 1;
            return Ok(Mapping { pfn, page_size: PageSize::Huge2M });
        }
        self.stats.unmaps -= 1;
        Err(MemError::NotMapped { vpn })
    }

    /// Look up the mapping covering `vpn` without translating an address.
    pub fn lookup(&self, vpn: VirtPageNum) -> Option<Mapping> {
        self.lookup_raw(vpn)
    }

    fn lookup_raw(&self, vpn: VirtPageNum) -> Option<Mapping> {
        if let Some(&pfn) = self.base.get(&vpn.raw()) {
            return Some(Mapping { pfn, page_size: PageSize::Base4K });
        }
        let huge_base = vpn.raw() & !(PAGES_PER_HUGE_PAGE - 1);
        self.huge.get(&huge_base).map(|&pfn| Mapping { pfn, page_size: PageSize::Huge2M })
    }

    /// Translate a virtual address.
    ///
    /// Returns `None` for unmapped addresses (the simulator treats that as
    /// a fault the workload layer must have prevented).
    pub fn translate(&self, va: VirtAddr) -> Option<Translation> {
        let vpn = VirtPageNum::containing(va);
        let mapping = self.lookup_raw(vpn)?;
        let (pa, pfn) = match mapping.page_size {
            PageSize::Base4K => {
                let pa = PhysAddr::new((mapping.pfn.raw() << PAGE_SHIFT) | va.page_offset());
                (pa, mapping.pfn)
            }
            PageSize::Huge2M => {
                let in_huge = vpn.raw() & (PAGES_PER_HUGE_PAGE - 1);
                let pfn = mapping.pfn + in_huge;
                let pa = PhysAddr::new((pfn.raw() << PAGE_SHIFT) | va.page_offset());
                (pa, pfn)
            }
        };
        Some(Translation { pa, pfn, page_size: mapping.page_size })
    }

    /// Iterate over all live mappings as `(first_vpn, mapping)` pairs, in
    /// unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (VirtPageNum, Mapping)> + '_ {
        let base = self
            .base
            .iter()
            .map(|(&v, &pfn)| (VirtPageNum::new(v), Mapping { pfn, page_size: PageSize::Base4K }));
        let huge = self
            .huge
            .iter()
            .map(|(&v, &pfn)| (VirtPageNum::new(v), Mapping { pfn, page_size: PageSize::Huge2M }));
        base.chain(huge)
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> PageTableStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_map_translate_unmap() {
        let mut pt = PageTable::new();
        pt.map(VirtPageNum::new(5), PhysFrameNum::new(9), PageSize::Base4K).unwrap();
        let t = pt.translate(VirtAddr::new((5 << PAGE_SHIFT) + 0xabc)).unwrap();
        assert_eq!(t.pa.raw(), (9 << PAGE_SHIFT) + 0xabc);
        assert_eq!(t.page_size, PageSize::Base4K);
        assert_eq!(t.pfn.raw(), 9);
        let m = pt.unmap(VirtPageNum::new(5)).unwrap();
        assert_eq!(m.pfn.raw(), 9);
        assert!(pt.translate(VirtAddr::new(5 << PAGE_SHIFT)).is_none());
    }

    #[test]
    fn huge_page_translation_offsets_pfn() {
        let mut pt = PageTable::new();
        pt.map(VirtPageNum::new(512), PhysFrameNum::new(1024), PageSize::Huge2M).unwrap();
        // Page 512+37 maps to frame 1024+37; offset preserved.
        let va = VirtAddr::new(((512 + 37) << PAGE_SHIFT) + 0x10);
        let t = pt.translate(va).unwrap();
        assert_eq!(t.pfn.raw(), 1024 + 37);
        assert_eq!(t.pa.page_offset(), 0x10);
        assert_eq!(t.page_size, PageSize::Huge2M);
        // Within a huge page all 9 index bits beyond the offset match
        // because VPN and PFN are both 512-aligned at the same offset.
        assert!(t.index_bits_unchanged(va, 9));
    }

    #[test]
    fn huge_map_requires_alignment() {
        let mut pt = PageTable::new();
        assert!(matches!(
            pt.map(VirtPageNum::new(1), PhysFrameNum::new(512), PageSize::Huge2M),
            Err(MemError::Misaligned { .. })
        ));
        assert!(matches!(
            pt.map(VirtPageNum::new(512), PhysFrameNum::new(3), PageSize::Huge2M),
            Err(MemError::Misaligned { .. })
        ));
    }

    #[test]
    fn overlapping_maps_rejected() {
        let mut pt = PageTable::new();
        pt.map(VirtPageNum::new(513), PhysFrameNum::new(7), PageSize::Base4K).unwrap();
        // Huge mapping overlapping the existing base page must fail.
        assert!(matches!(
            pt.map(VirtPageNum::new(512), PhysFrameNum::new(512), PageSize::Huge2M),
            Err(MemError::AlreadyMapped { .. })
        ));
        // And base page inside a huge mapping must fail.
        let mut pt = PageTable::new();
        pt.map(VirtPageNum::new(0), PhysFrameNum::new(0), PageSize::Huge2M).unwrap();
        assert!(matches!(
            pt.map(VirtPageNum::new(17), PhysFrameNum::new(99), PageSize::Base4K),
            Err(MemError::AlreadyMapped { .. })
        ));
    }

    #[test]
    fn huge_overlap_reports_first_mapped_page() {
        let mut pt = PageTable::new();
        pt.map(VirtPageNum::new(1024), PhysFrameNum::new(0), PageSize::Huge2M).unwrap();
        pt.map(VirtPageNum::new(600), PhysFrameNum::new(7), PageSize::Base4K).unwrap();
        pt.map(VirtPageNum::new(530), PhysFrameNum::new(8), PageSize::Base4K).unwrap();
        let map_huge = |pt: &mut PageTable, vpn| {
            pt.map(VirtPageNum::new(vpn), PhysFrameNum::new(512), PageSize::Huge2M)
        };
        assert_eq!(
            map_huge(&mut pt, 1024),
            Err(MemError::AlreadyMapped { vpn: VirtPageNum::new(1024) })
        );
        assert_eq!(
            map_huge(&mut pt, 512),
            Err(MemError::AlreadyMapped { vpn: VirtPageNum::new(530) })
        );
        assert_eq!(pt.stats().maps, 3);
    }

    #[test]
    fn unmap_huge_by_interior_page() {
        let mut pt = PageTable::new();
        pt.map(VirtPageNum::new(512), PhysFrameNum::new(512), PageSize::Huge2M).unwrap();
        let m = pt.unmap(VirtPageNum::new(512 + 100)).unwrap();
        assert_eq!(m.page_size, PageSize::Huge2M);
        assert!(pt.translate(VirtAddr::new(512 << PAGE_SHIFT)).is_none());
    }

    #[test]
    fn unmap_missing_errors() {
        let mut pt = PageTable::new();
        assert!(matches!(pt.unmap(VirtPageNum::new(4)), Err(MemError::NotMapped { .. })));
    }

    #[test]
    fn stats_track_mappings() {
        let mut pt = PageTable::new();
        pt.map(VirtPageNum::new(0), PhysFrameNum::new(0), PageSize::Huge2M).unwrap();
        pt.map(VirtPageNum::new(600), PhysFrameNum::new(3), PageSize::Base4K).unwrap();
        let s = pt.stats();
        assert_eq!(s.base_mappings, 1);
        assert_eq!(s.huge_mappings, 1);
        assert_eq!(s.maps, 2);
        pt.unmap(VirtPageNum::new(600)).unwrap();
        assert_eq!(pt.stats().base_mappings, 0);
        assert_eq!(pt.stats().unmaps, 1);
        assert_eq!(pt.iter().count(), 1);
    }
}
