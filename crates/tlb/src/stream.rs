//! Page-change translation streams: the TLB simulated once per address
//! sequence, replayed by decoding.
//!
//! A data TLB's outcome depends only on the virtual-address sequence,
//! never on the cache behind it. [`TranslationStream::build`] runs the
//! TLB once and keeps one packed word per *page change*: per reference
//! whose 4 KiB virtual page differs from the previous reference's. A
//! [`StreamCursor`] rebuilds every reference's [`TlbOutcome`] from them.
//!
//! **Why same-page references need no word.** Take a reference to the
//! same 4 KiB page as the reference just before it. That earlier
//! reference left the page's entry as the most-recently-used way of its
//! L1 set: a hit refreshes the entry and a fill inserts it. So the repeat
//! is always an L1 hit at `l1_latency`, resolving to the same frame.
//! Skipping its probe also changes no replacement decision. The shared
//! LRU clock stays strictly increasing, and eviction compares timestamps
//! only *within* a set, where the entry is already maximal. Relative
//! orders everywhere are untouched, so TLB contents evolve only through
//! page-change probes, and the builder makes exactly those. Only the L1
//! hit needs counting, which the cursor does.

use crate::{DataTlb, PageFault, TlbConfig, TlbHitLevel, TlbOutcome, TlbStats};
use sipt_mem::{PageSize, PhysAddr, PhysFrameNum, Translation, VirtAddr, PAGE_SHIFT};

/// Low bits of a word: the level that satisfied the probe.
const LEVEL_MASK: u64 = 0b11;
/// Set when the translation came from a 2 MiB mapping.
const HUGE_BIT: u64 = 0b100;
/// The 4 KiB frame number sits above the level and huge bits.
const PFN_SHIFT: u32 = 3;
/// A page number no virtual address reaches (a VPN is a `u64` shifted
/// right by [`PAGE_SHIFT`]): the cursor's "no current page".
const NO_PAGE: u64 = u64::MAX;

/// The TLB outcomes of one virtual-address sequence, one packed `u64`
/// per page change: `pfn << 3 | huge << 2 | level`, where `pfn` is the
/// 4 KiB frame of the referenced page and `level` is 0 (L1), 1 (L2) or
/// 2 (walk).
///
/// Records the [`TlbConfig`] it was built with, so a replay can check it
/// translates for the TLB it models.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TranslationStream {
    config: TlbConfig,
    words: Vec<u64>,
}

impl TranslationStream {
    /// Translate `vas` through `tlb`, probing only on page changes;
    /// `walk` serves L2 misses as in [`DataTlb::translate_with`]. `tlb`'s
    /// contents evolve exactly as if every address had been translated;
    /// its statistics do not move (the decoding cursor counts them).
    ///
    /// # Errors
    ///
    /// [`PageFault`] naming the first address `walk` cannot map. The
    /// faulting probe changes no TLB contents.
    pub fn build(
        tlb: &mut DataTlb,
        vas: &[u64],
        mut walk: impl FnMut(VirtAddr) -> Option<Translation>,
    ) -> Result<Self, PageFault> {
        let changes = vas.windows(2).filter(|w| w[0] >> PAGE_SHIFT != w[1] >> PAGE_SHIFT).count();
        let mut words = Vec::with_capacity(changes + usize::from(!vas.is_empty()));
        let mut prev = NO_PAGE;
        for &raw in vas {
            let vpn = raw >> PAGE_SHIFT;
            if vpn == prev {
                continue;
            }
            prev = vpn;
            let out = tlb.probe(VirtAddr::new(raw), &mut walk)?;
            let huge = u64::from(out.translation.page_size == PageSize::Huge2M);
            let level = match out.level {
                TlbHitLevel::L1 => 0,
                TlbHitLevel::L2 => 1,
                TlbHitLevel::Walk => 2,
            };
            words.push(out.translation.pfn.raw() << PFN_SHIFT | huge << 2 | level);
        }
        Ok(Self { config: *tlb.config(), words })
    }

    /// The configuration of the TLB this stream was built on.
    pub fn config(&self) -> &TlbConfig {
        &self.config
    }

    /// A cursor decoding the stream from its first reference.
    pub fn cursor(&self) -> StreamCursor<'_> {
        StreamCursor {
            stream: self,
            next: 0,
            vpn: NO_PAGE,
            pfn: 0,
            size: PageSize::Base4K,
            stats: TlbStats::default(),
        }
    }
}

/// Decodes a [`TranslationStream`] one memory reference at a time, in the
/// order it was built, and counts the decoded outcomes as [`TlbStats`].
///
/// `Copy`, so a consumer can decode ahead on a copy without moving the
/// original.
#[derive(Debug, Clone, Copy)]
pub struct StreamCursor<'a> {
    stream: &'a TranslationStream,
    /// Index of the next word.
    next: usize,
    /// The current 4 KiB page, [`NO_PAGE`] before the first reference.
    vpn: u64,
    /// The current page's 4 KiB frame.
    pfn: u64,
    /// Granularity of the current page's mapping.
    size: PageSize,
    /// Outcomes decoded since the last [`StreamCursor::take_stats`].
    stats: TlbStats,
}

impl<'a> StreamCursor<'a> {
    /// The configuration of the TLB the decoded stream was built on.
    pub fn config(&self) -> &'a TlbConfig {
        &self.stream.config
    }

    /// The TLB outcome of the next reference, which must be to `va`:
    /// bit-identical to what [`DataTlb::translate_with`] returns for it
    /// on the TLB the stream was built on.
    ///
    /// # Panics
    ///
    /// Panics when a page change finds the stream exhausted, i.e. `va`
    /// was not part of the built sequence.
    #[inline]
    pub fn translate(&mut self, va: VirtAddr) -> TlbOutcome {
        let vpn = va.raw() >> PAGE_SHIFT;
        let level = if vpn == self.vpn {
            self.stats.l1_hits += 1;
            TlbHitLevel::L1
        } else {
            self.advance(vpn)
        };
        TlbOutcome {
            translation: Translation {
                pa: PhysAddr::new((self.pfn << PAGE_SHIFT) | va.page_offset()),
                pfn: PhysFrameNum::new(self.pfn),
                page_size: self.size,
            },
            level,
            cycles: self.stream.config.latency(level),
        }
    }

    /// Move to the next word's page and count its outcome.
    #[inline]
    fn advance(&mut self, vpn: u64) -> TlbHitLevel {
        let word = self.stream.words[self.next];
        self.next += 1;
        self.vpn = vpn;
        self.pfn = word >> PFN_SHIFT;
        self.size = if word & HUGE_BIT != 0 { PageSize::Huge2M } else { PageSize::Base4K };
        let level = match word & LEVEL_MASK {
            0 => TlbHitLevel::L1,
            1 => TlbHitLevel::L2,
            _ => TlbHitLevel::Walk,
        };
        self.stats.count(level);
        level
    }

    /// The outcomes decoded since the last call, resetting the count.
    pub fn take_stats(&mut self) -> TlbStats {
        std::mem::take(&mut self.stats)
    }

    /// Whether every word has been decoded.
    pub fn is_exhausted(&self) -> bool {
        self.next == self.stream.words.len()
    }
}
