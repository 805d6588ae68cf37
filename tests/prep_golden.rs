//! Golden-fingerprint pin for workload *preparation*.
//!
//! `kernel_bit_identity.rs` pins simulated payloads, but only under the
//! Normal condition. This test pins what preparation itself produces —
//! the page table and the materialized instruction stream — for the
//! smoke benchmarks under all four §VII.B sensitivity conditions, so the
//! Fragmented, THP-off and Par-bound allocation orders are guarded too.
//! It also pins one bare `fragment_memory` pass on 2 GiB by the exact
//! sequence of frames it pins and the buddy free lists it leaves behind.
//!
//! The buddy allocator's internals (free-list representation, bitmap
//! updates) are wall-clock choices only: any change that moves a frame
//! fails here. If a change *intends* to alter preparation, regenerate the
//! constants below (the failure message prints the observed values).

use sipt_mem::{fragment_memory, BuddyAllocator, PageSize};
use sipt_rng::{SeedableRng, StdRng};
use sipt_sim::experiments::smoke_benchmarks;
use sipt_sim::{prep_cache, Condition, PreparedWorkload};
use sipt_workloads::benchmark;

/// Incremental FNV-1a 64-bit over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// Fingerprint of one preparation: every page-table mapping sorted by
/// VPN, then the whole instruction stream in order.
fn prepared_fingerprint(prepared: &PreparedWorkload) -> u64 {
    let mut h = Fnv::new();
    let mut mappings: Vec<_> = prepared.asp.page_table().iter().collect();
    mappings.sort_unstable_by_key(|(vpn, _)| vpn.raw());
    h.word(mappings.len() as u64);
    for (vpn, m) in mappings {
        h.word(vpn.raw());
        h.word(m.pfn.raw());
        h.word(u64::from(m.page_size == PageSize::Huge2M));
    }
    h.word(prepared.trace.len() as u64);
    for inst in prepared.trace.cursor() {
        h.word(inst.pc);
        h.word(inst.dst.map_or(u64::MAX, u64::from));
        for src in inst.srcs {
            h.word(src.map_or(u64::MAX, u64::from));
        }
        match inst.mem {
            Some(m) => {
                h.word(m.op as u64);
                h.word(m.va.raw());
            }
            None => h.word(u64::MAX),
        }
        h.word(inst.exec_latency);
    }
    h.0
}

/// Observed preparation fingerprints, in `smoke_benchmarks()` ×
/// `Condition::sensitivity_sweep()` order.
fn observed_preparations() -> Vec<(String, u64)> {
    let quick = Condition::quick();
    let mut out = Vec::new();
    for &bench in &smoke_benchmarks() {
        let spec = benchmark(bench).expect("smoke benchmark preset");
        for (label, cond) in Condition::sensitivity_sweep() {
            let cond = Condition { instructions: quick.instructions, warmup: quick.warmup, ..cond };
            let prepared = prep_cache::get_or_prepare(&spec, &cond).expect("preparation");
            out.push((format!("{bench}/{label}"), prepared_fingerprint(&prepared)));
        }
    }
    out
}

/// Recorded from the hash-indexed buddy free lists, before they became
/// direct-indexed.
const PREPARATION_GOLDEN: [(&str, u64); 16] = [
    ("libquantum/Normal", 0x7BCD_5DDA_1894_ACCC),
    ("libquantum/Fragmented", 0x2A47_9714_362E_641C),
    ("libquantum/THP-off", 0xF99C_708E_EF6E_E38C),
    ("libquantum/Par-bound", 0x8C6D_AFC0_5F51_CD46),
    ("mcf/Normal", 0x34A8_F6E0_BDFB_57BA),
    ("mcf/Fragmented", 0x88FC_0A18_192E_CB2A),
    ("mcf/THP-off", 0x64E0_AAEF_C0A9_01AA),
    ("mcf/Par-bound", 0x7C21_4DF0_AA5B_E98A),
    ("calculix/Normal", 0x792A_12CC_36C8_1F6E),
    ("calculix/Fragmented", 0xAA00_BC89_B956_F0DD),
    ("calculix/THP-off", 0x792A_12CC_36C8_1F6E),
    ("calculix/Par-bound", 0xA18C_C420_2646_9C9A),
    ("sjeng/Normal", 0x0C97_9D97_4674_41A3),
    ("sjeng/Fragmented", 0xC2ED_D6DC_E3A3_F7EB),
    ("sjeng/THP-off", 0x0C97_9D97_4674_41A3),
    ("sjeng/Par-bound", 0xD815_9186_7DCC_3135),
];

#[test]
fn preparations_match_golden_fingerprints() {
    let observed = observed_preparations();
    let expected: Vec<(String, u64)> =
        PREPARATION_GOLDEN.iter().map(|&(k, v)| (k.to_owned(), v)).collect();
    let table: String =
        observed.iter().map(|(k, v)| format!("    (\"{k}\", {v:#018x}),\n")).collect();
    assert_eq!(observed, expected, "preparation fingerprints drifted; observed:\n{table}");
}

/// The §VII.B Fragmented preamble exactly as preparation runs it: 2 GiB,
/// half of memory freed again, seeded like `try_prepare_run`.
const FRAGMENT_PINNED_GOLDEN: u64 = 0xF32E_83CD_4549_CCDB;
const FRAGMENT_FREE_BLOCKS_GOLDEN: [u64; 11] = [131_178, 48_925, 7_767, 256, 0, 0, 0, 0, 0, 0, 0];

#[test]
fn fragment_memory_matches_golden() {
    let mut phys = BuddyAllocator::with_bytes(2 << 30);
    let mut rng = StdRng::seed_from_u64(42 ^ 0xF7A6);
    let hold = fragment_memory(&mut phys, 0.5, &mut rng).expect("fragmentation");
    let mut h = Fnv::new();
    for frame in hold.pinned() {
        h.word(frame.raw());
    }
    let free_blocks = phys.stats().free_blocks_per_order;
    assert_eq!(
        (h.0, free_blocks.as_slice()),
        (FRAGMENT_PINNED_GOLDEN, FRAGMENT_FREE_BLOCKS_GOLDEN.as_slice()),
        "fragment_memory drifted: observed pinned-sequence {:#018x}, free blocks {free_blocks:?}",
        h.0
    );
    assert_eq!(hold.pinned_frames() + phys.free_frames(), 1 << 19);
}
