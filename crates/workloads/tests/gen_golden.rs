//! Golden-fingerprint pin for trace *generation* over the whole roster.
//!
//! `tests/prep_golden.rs` pins complete preparations, but only for the
//! four smoke benchmarks. This test pins what [`TraceGen`] emits for every
//! preset in [`BENCHMARKS`] and [`MIX_ONLY_BENCHMARKS`], so each
//! allocation pattern (Burst, Chunked, Incremental) and every role mix is
//! guarded below the figure drivers. Each fingerprint covers the layout
//! size and every packed record of the materialized trace: PC, metadata
//! word and virtual address.
//!
//! How the generator spends its time is free to change; what it emits is
//! not. If a change *intends* to alter the stream, regenerate the
//! constants below (the failure message prints the observed values).

use sipt_mem::{AddressSpace, BuddyAllocator, PlacementPolicy};
use sipt_workloads::{MaterializedTrace, TraceGen, BENCHMARKS, MIX_ONLY_BENCHMARKS};

/// Instructions generated per trace.
const INSTRUCTIONS: u64 = 20_000;

/// The development seed and the held-out seed.
const SEEDS: [u64; 2] = [42, 20_180_224];

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

/// Fingerprint of one generated trace: the layout size, the instruction
/// and memory-reference counts, then every `(pc, meta)` pair and every VA
/// in stream order.
fn generation_fingerprint(gen: TraceGen) -> u64 {
    let mut h = Fnv::new();
    h.word(gen.layout().bytes());
    let trace = MaterializedTrace::from_gen(gen);
    h.word(trace.len() as u64);
    h.word(trace.mem_refs() as u64);
    let mut cursor = trace.cursor();
    while let Some(block) = cursor.next_block(usize::MAX) {
        for (&pc, &meta) in block.pcs.iter().zip(block.meta) {
            h.word(pc);
            h.word(u64::from(meta));
        }
        for &va in block.mem_vas {
            h.word(va);
        }
    }
    h.0
}

/// Observed fingerprints, in roster × [`SEEDS`] order.
fn observed_generations() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for spec in BENCHMARKS.iter().chain(MIX_ONLY_BENCHMARKS) {
        for seed in SEEDS {
            let mut phys = BuddyAllocator::with_bytes(1 << 30);
            let mut asp = AddressSpace::new(0, PlacementPolicy::LinuxDefault);
            let gen = TraceGen::build(spec, &mut asp, &mut phys, INSTRUCTIONS, seed)
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            out.push((format!("{}/{seed}", spec.name), generation_fingerprint(gen)));
        }
    }
    out
}

/// Recorded from the `Inst`-at-a-time generator, before it emitted packed
/// records.
const GENERATION_GOLDEN: [(&str, u64); 66] = [
    ("sjeng/42", 0x404E_4D25_2ACE_9E3D),
    ("sjeng/20180224", 0xD6BA_3D1D_5AE1_0B11),
    ("deepsjeng_17/42", 0x0EB6_6DEB_A3C4_1E1A),
    ("deepsjeng_17/20180224", 0x5702_FE0C_6800_F316),
    ("mcf/42", 0xF9DC_911F_6A44_56B3),
    ("mcf/20180224", 0x5861_2C69_9474_2FD9),
    ("mcf_17/42", 0x5DF7_9B75_A463_0855),
    ("mcf_17/20180224", 0x30F9_F22A_9AFF_BF4C),
    ("h264ref/42", 0x5D93_1925_C861_8A10),
    ("h264ref/20180224", 0x16AD_36BA_9C64_1A09),
    ("x264_17/42", 0xBD8D_9674_A636_87D3),
    ("x264_17/20180224", 0x4C07_BEA2_A2F9_4F5F),
    ("gcc/42", 0x201F_2173_E3BE_1917),
    ("gcc/20180224", 0x455E_61CD_0B9C_9289),
    ("gobmk/42", 0xE3D2_3366_0F81_5BA0),
    ("gobmk/20180224", 0x4658_2263_924D_5F65),
    ("omnetpp/42", 0x7A62_8FEC_A60E_A78B),
    ("omnetpp/20180224", 0xD7AF_604C_030F_3905),
    ("hmmer/42", 0xD5FA_7B20_2FA3_9913),
    ("hmmer/20180224", 0xDDD3_D67F_A658_404C),
    ("perlbench/42", 0x76CB_7BB5_A016_FEB6),
    ("perlbench/20180224", 0xBDCD_7E95_6C9C_C73B),
    ("bzip2/42", 0x2E42_CE3F_BDCC_126E),
    ("bzip2/20180224", 0xE56E_EAF7_18EB_5516),
    ("libquantum/42", 0x2926_4B0F_C0A4_ABE1),
    ("libquantum/20180224", 0xE1E2_DA2E_EAD1_C3A6),
    ("bwaves/42", 0xCEB9_E994_CCE4_F9FA),
    ("bwaves/20180224", 0xC02D_292A_180B_B4C1),
    ("cactusADM/42", 0x823C_4CB2_5A1B_BF82),
    ("cactusADM/20180224", 0x263F_5346_7A77_7C09),
    ("calculix/42", 0xEB07_8953_2705_8DCC),
    ("calculix/20180224", 0x0A92_23FF_718E_194B),
    ("gamess/42", 0xB282_91B9_1250_B74A),
    ("gamess/20180224", 0x14F9_D593_83D8_496C),
    ("GemsFDTD/42", 0x1673_BB2B_F664_5A62),
    ("GemsFDTD/20180224", 0x89A7_4770_B9D3_8D66),
    ("povray/42", 0x9888_2FAD_7457_5854),
    ("povray/20180224", 0xEB52_06FE_5837_0841),
    ("gromacs/42", 0x07C9_85A4_328D_CF3E),
    ("gromacs/20180224", 0xE71B_AB8C_F481_132C),
    ("graph500/42", 0x5C8A_B648_2DC0_EE41),
    ("graph500/20180224", 0x2761_87C2_5A09_239D),
    ("ycsb/42", 0x23A5_32FA_7B0A_CB28),
    ("ycsb/20180224", 0xDAF3_A9E1_1ED4_7910),
    ("xalancbmk_17/42", 0xC060_102F_14A3_1A88),
    ("xalancbmk_17/20180224", 0x5BED_BB68_1413_BFE5),
    ("leela_17/42", 0x6976_A2D0_761A_9BCE),
    ("leela_17/20180224", 0x9637_A403_0ED3_6475),
    ("exchange2_17/42", 0x49A5_A965_0230_CBB6),
    ("exchange2_17/20180224", 0x165B_095A_789C_7E25),
    ("xz_17/42", 0x160F_6861_8DDD_3382),
    ("xz_17/20180224", 0x8D3B_825F_7420_D286),
    ("astar/42", 0x3805_6590_E902_5FE3),
    ("astar/20180224", 0xE2F2_6023_E0B6_D04B),
    ("lbm/42", 0x4FCC_C793_B646_626D),
    ("lbm/20180224", 0xF112_8A4A_9188_1A2E),
    ("zeusmp/42", 0xD15E_ED2F_92C0_6F62),
    ("zeusmp/20180224", 0x4208_6398_433D_B79C),
    ("leslie3d/42", 0xEE9B_79B3_CA85_53B2),
    ("leslie3d/20180224", 0xDAFB_6358_D2A2_8819),
    ("milc/42", 0x08C7_4BC8_50D9_D1BF),
    ("milc/20180224", 0xF8EB_0EF6_DDFD_EEEB),
    ("tonto/42", 0xBFBE_D5A6_141A_9A22),
    ("tonto/20180224", 0x82B3_8445_A70F_E9F0),
    ("soplex/42", 0xA18B_5E30_4FD8_96D9),
    ("soplex/20180224", 0x1832_D9B7_885E_96FF),
];

#[test]
fn roster_generation_matches_golden_fingerprints() {
    let observed = observed_generations();
    let expected: Vec<(String, u64)> =
        GENERATION_GOLDEN.iter().map(|&(k, v)| (k.to_owned(), v)).collect();
    let table: String =
        observed.iter().map(|(k, v)| format!("    (\"{k}\", {v:#018x}),\n")).collect();
    assert_eq!(observed, expected, "generation fingerprints drifted; observed:\n{table}");
}
