//! Property: the TLB is a pure cache — translating any access stream
//! through the TLB must yield exactly the same translations as consulting
//! the page table directly, for any mix of 4 KiB and 2 MiB mappings.

use proptest::prelude::*;
use sipt_mem::{PageSize, PageTable, PhysFrameNum, VirtAddr, VirtPageNum, PAGES_PER_HUGE_PAGE};
use sipt_tlb::{DataTlb, TlbConfig, TranslationStream};

/// Build a page table with `base_pages` 4 KiB mappings and `huge_pages`
/// 2 MiB mappings at disjoint ranges.
fn build_table(base_pages: u64, huge_pages: u64) -> PageTable {
    let mut pt = PageTable::new();
    for i in 0..base_pages {
        pt.map(VirtPageNum::new(i), PhysFrameNum::new(10_000 + i * 7), PageSize::Base4K).unwrap();
    }
    for i in 0..huge_pages {
        let vpn = (1 << 20) + i * PAGES_PER_HUGE_PAGE;
        let pfn = (1 << 21) + i * PAGES_PER_HUGE_PAGE;
        pt.map(VirtPageNum::new(vpn), PhysFrameNum::new(pfn), PageSize::Huge2M).unwrap();
    }
    pt
}

proptest! {
    #[test]
    fn tlb_translations_match_page_table(
        accesses in proptest::collection::vec((0u64..2, 0u64..64, 0u64..4096), 1..300)
    ) {
        let pt = build_table(64, 8);
        let mut tlb = DataTlb::new(TlbConfig::default());
        for (kind, page, offset) in accesses {
            let va = if kind == 0 {
                VirtAddr::new((page % 64) * 4096 + offset)
            } else {
                VirtAddr::new(((1u64 << 20) + (page % 8) * PAGES_PER_HUGE_PAGE) * 4096 + offset)
            };
            let via_tlb = tlb.translate(va, &pt).expect("mapped").translation;
            let direct = pt.translate(va).expect("mapped");
            prop_assert_eq!(via_tlb, direct, "divergence at {}", va);
        }
    }

    #[test]
    fn latency_is_monotone_in_hit_level(page in 0u64..64) {
        let pt = build_table(64, 0);
        let mut tlb = DataTlb::new(TlbConfig::default());
        let va = VirtAddr::new(page * 4096);
        let walk = tlb.translate(va, &pt).unwrap();
        let hit = tlb.translate(va, &pt).unwrap();
        prop_assert!(hit.cycles < walk.cycles);
    }
}

/// 4 KiB pages of the stream property's table: twice the L2 TLB's
/// capacity, so random picks conflict in L1 and L2 sets alike.
const STREAM_BASE_PAGES: u64 = 2048;
/// 2 MiB mappings of the stream property's table.
const STREAM_HUGE_PAGES: u64 = 16;

/// One page run of the stream property: `len` references to the page
/// that `kind` and `page` pick, at offsets stepping from `offset`.
fn page_run(kind: u8, page: u64, offset: u64, len: u64) -> impl Iterator<Item = u64> {
    let base = match kind {
        // A hot set that fits the L1 TLB.
        0 => (page % 12) << 12,
        // 80 pages: more than the 64-entry L1, well within the L2.
        1 => (page % 80) << 12,
        // Any 4 KiB page: L1 and L2 set conflicts and capacity misses.
        2 => (page % STREAM_BASE_PAGES) << 12,
        // A 4 KiB page inside a huge mapping: huge-page repeats across
        // different 4 KiB pages of one 2 MiB page.
        _ => {
            let huge = (1u64 << 20) + (page % STREAM_HUGE_PAGES) * PAGES_PER_HUGE_PAGE;
            (huge + (page / STREAM_HUGE_PAGES) % PAGES_PER_HUGE_PAGE) << 12
        }
    };
    (0..len).map(move |k| base | ((offset + k * 72) % 4096))
}

proptest! {
    /// Decoding a page-change translation stream gives, per access,
    /// exactly `translate_with`'s outcome on a reference TLB, and the
    /// same final statistics; an unmapped address faults at the same
    /// access.
    #[test]
    fn translation_stream_decodes_to_reference_outcomes(
        runs in proptest::collection::vec((0u8..4, 0u64..100_000, 0u64..4096, 1u64..5), 1..400),
        unmapped_at in proptest::option::of(0usize..800)
    ) {
        let pt = build_table(STREAM_BASE_PAGES, STREAM_HUGE_PAGES);
        let mut vas: Vec<u64> =
            runs.iter().flat_map(|&(kind, page, offset, len)| page_run(kind, page, offset, len)).collect();
        if let Some(at) = unmapped_at.filter(|&at| at <= vas.len()) {
            vas.insert(at, 0xdead_0000_0000 + 0x48);
        }

        let mut reference = DataTlb::new(TlbConfig::default());
        let expected: Vec<_> = vas
            .iter()
            .map(|&raw| reference.translate_with(VirtAddr::new(raw), |va| pt.translate(va)))
            .collect();
        let mut built = DataTlb::new(TlbConfig::default());
        match (TranslationStream::build(&mut built, &vas, |va| pt.translate(va)), expected.iter().position(Result::is_err)) {
            (Err(fault), Some(i)) => prop_assert_eq!(fault.va.raw(), vas[i]),
            (Ok(stream), None) => {
                let mut cursor = stream.cursor();
                for (i, (&raw, expected)) in vas.iter().zip(&expected).enumerate() {
                    prop_assert_eq!(Ok(cursor.translate(VirtAddr::new(raw))), *expected, "access {}", i);
                }
                prop_assert!(cursor.is_exhausted());
                prop_assert_eq!(cursor.take_stats(), reference.stats());
                // Contents evolved identically: translate every address again.
                for &raw in &vas {
                    let va = VirtAddr::new(raw);
                    prop_assert_eq!(built.translate(va, &pt), reference.translate(va, &pt));
                }
            }
            (built, fault_at) => {
                prop_assert!(false, "stream build {:?} but reference fault at {:?}", built.err(), fault_at);
            }
        }
    }
}

#[test]
fn tlb_capacity_never_exceeded_under_thrash() {
    // Touch far more pages than the whole TLB holds; every translation
    // must still be correct (no stale entries served for evicted pages).
    let mut pt = PageTable::new();
    for i in 0..4096u64 {
        pt.map(VirtPageNum::new(i), PhysFrameNum::new(8192 + i), PageSize::Base4K).unwrap();
    }
    let mut tlb = DataTlb::new(TlbConfig::default());
    for round in 0..3 {
        for i in 0..4096u64 {
            let va = VirtAddr::new(i * 4096 + round);
            let t = tlb.translate(va, &pt).unwrap();
            assert_eq!(t.translation.pfn.raw(), 8192 + i);
        }
    }
    let stats = tlb.stats();
    assert_eq!(stats.total(), 3 * 4096);
    // 4096 pages >> 1024-entry L2: most accesses walk.
    assert!(stats.walks > 4096);
}

#[test]
fn remap_visible_after_flush() {
    // The TLB caches aggressively; after the OS changes a mapping the
    // (simulated) shootdown is a flush, and the new frame must be seen.
    let mut pt = PageTable::new();
    pt.map(VirtPageNum::new(1), PhysFrameNum::new(100), PageSize::Base4K).unwrap();
    let mut tlb = DataTlb::new(TlbConfig::default());
    let va = VirtAddr::new(0x1000);
    assert_eq!(tlb.translate(va, &pt).unwrap().translation.pfn.raw(), 100);
    pt.unmap(VirtPageNum::new(1)).unwrap();
    pt.map(VirtPageNum::new(1), PhysFrameNum::new(200), PageSize::Base4K).unwrap();
    // Stale entry still served (models real TLB incoherence)...
    assert_eq!(tlb.translate(va, &pt).unwrap().translation.pfn.raw(), 100);
    // ...until the shootdown.
    tlb.flush();
    assert_eq!(tlb.translate(va, &pt).unwrap().translation.pfn.raw(), 200);
}
