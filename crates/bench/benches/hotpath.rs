//! Isolated-kernel microbench of the per-access hot path: the packed
//! SoA cache array, the monomorphized replacement policies, the flat-slab
//! TLB, trace-cursor replay, and the full `Machine::access` — plus one
//! end-to-end fig02-style sample reporting measure-phase simulated MIPS.
//!
//! Writes `results/BENCH_hotpath.json` unconditionally (the report *is*
//! the artifact), in the same envelope style as `BENCH_sweeps.json`. Keys
//! are emitted in stable order so successive runs diff cleanly; the
//! committed copy at the repo root is the perf trajectory for the kernel.
//!
//! ```text
//! cargo bench -p sipt-bench --bench hotpath          # default scale
//! cargo bench -p sipt-bench --bench hotpath -- quick # CI smoke
//! ```

use sipt_bench::harness::Bencher;
use sipt_cache::{CacheArray, CacheGeometry, LineAddr, ReplacementKind};
use sipt_core::{sipt_32k_2w, L1Policy, SiptL1};
use sipt_cpu::{MemOp, MemRef, MemoryPath};
use sipt_mem::{
    AddressSpace, BuddyAllocator, PageSize, PhysAddr, PhysFrameNum, PlacementPolicy, Translation,
    VirtAddr, PAGE_SIZE,
};
use sipt_sim::experiments::{ideal, smoke_benchmarks};
use sipt_sim::{prep_cache, replay_trace, Condition, Machine, SystemKind};
use sipt_telemetry::json::Json;
use sipt_tlb::{DataTlb, TlbConfig};
use sipt_workloads::{benchmark, MaterializedTrace, TraceGen};

/// 32 KiB 2-way geometry — the paper's headline L1 and the shape every
/// fig02 run probes.
fn l1_geometry() -> CacheGeometry {
    CacheGeometry::new(32 << 10, 2)
}

/// The SoA array kernels: resident-probe (the per-access common case),
/// and a fill/evict cycle through the monomorphized replacement policy.
fn bench_array(b: &mut Bencher) {
    let g = l1_geometry();
    let sets = g.sets();
    for (label, kind) in [
        ("array_probe_hit_lru", ReplacementKind::Lru),
        ("array_probe_hit_plru", ReplacementKind::TreePlru),
    ] {
        let mut a = CacheArray::new(g, kind);
        // Fill every way of every set so probes always hit.
        for s in 0..sets {
            for w in 0..2u64 {
                a.fill(LineAddr(s + w * sets), false);
            }
        }
        let mut i = 0u64;
        b.bench(label, || {
            let line = LineAddr(i % (2 * sets));
            let set = a.home_set(line);
            std::hint::black_box(a.lookup(set, line));
            i += 1;
        });
    }

    // 16-way LLC shape: the wide-compare path behind the MRU-hint scalar
    // short-circuit (re-touching a set's hot line is the LLC common case).
    let g16 = CacheGeometry::new(2 << 20, 16);
    let sets16 = g16.sets();
    let mut a = CacheArray::new(g16, ReplacementKind::TreePlru);
    for s in 0..sets16 {
        for w in 0..16u64 {
            a.fill(LineAddr(s + w * sets16), false);
        }
    }
    let mut i = 0u64;
    b.bench("array_probe_hit_llc16", || {
        let line = LineAddr(i % sets16);
        let set = a.home_set(line);
        std::hint::black_box(a.lookup(set, line));
        i += 1;
    });

    let mut a = CacheArray::new(g, ReplacementKind::Lru);
    let mut i = 0u64;
    b.bench("array_fill_evict_lru", || {
        // 3 distinct lines per set: every fill past warmup evicts.
        let line = LineAddr((i % 3) * sets + (i / 3) % sets);
        std::hint::black_box(a.fill(line, i.is_multiple_of(2)));
        i += 1;
    });
}

/// The TLB kernels: L1-hit translate (the dominant case) and the L2-hit
/// fallback path.
fn bench_tlb(b: &mut Bencher) {
    let mut pt = sipt_mem::PageTable::new();
    for i in 0..512u64 {
        pt.map(sipt_mem::VirtPageNum::new(i), PhysFrameNum::new(4096 + i), PageSize::Base4K)
            .unwrap();
    }
    let mut tlb = DataTlb::new(TlbConfig::default());
    // Warm 8 pages into the 64-entry L1 so the loop below always hits L1.
    for i in 0..8u64 {
        tlb.translate(VirtAddr::new(i << sipt_mem::PAGE_SHIFT), &pt).unwrap();
    }
    let mut i = 0u64;
    b.bench("tlb_translate_l1_hit", || {
        let va = VirtAddr::new(((i % 8) << sipt_mem::PAGE_SHIFT) | 0x40);
        std::hint::black_box(tlb.translate(va, &pt).unwrap());
        i += 1;
    });

    let mut tlb = DataTlb::new(TlbConfig::default());
    // Touch 256 pages: far beyond the 64-entry L1, within the 1024-entry
    // L2, so a strided re-walk mostly hits L2.
    for i in 0..256u64 {
        tlb.translate(VirtAddr::new(i << sipt_mem::PAGE_SHIFT), &pt).unwrap();
    }
    let mut i = 0u64;
    b.bench("tlb_translate_l2_path", || {
        let va = VirtAddr::new(((i * 67) % 256) << sipt_mem::PAGE_SHIFT);
        std::hint::black_box(tlb.translate(va, &pt).unwrap());
        i += 1;
    });
}

/// Trace replay: the materialized cursor that feeds every measured
/// instruction.
fn bench_cursor(b: &mut Bencher) {
    let spec = benchmark("libquantum").unwrap();
    let mut phys = BuddyAllocator::with_bytes(1 << 30);
    let mut asp = AddressSpace::new(1, PlacementPolicy::LinuxDefault);
    let gen = TraceGen::build(&spec, &mut asp, &mut phys, 8_192, 42).unwrap();
    let trace = MaterializedTrace::from_gen(gen);
    let mut cursor = trace.cursor();
    b.bench("trace_cursor_next", || match cursor.next() {
        Some(inst) => {
            std::hint::black_box(inst);
        }
        None => cursor = trace.cursor(),
    });
}

/// The SIPT L1 front-end alone, on an always-hitting access, for the
/// no-predictor (ideal) and full combined-predictor policies.
fn bench_l1(b: &mut Bencher) {
    for (label, policy) in [
        ("l1_access_hit_ideal", L1Policy::Ideal),
        ("l1_access_hit_combined", L1Policy::SiptCombined),
    ] {
        let mut l1 = SiptL1::new(sipt_32k_2w().with_policy(policy));
        let va = VirtAddr::new(0x5000);
        let t = Translation {
            pa: PhysAddr::new(0x5000),
            pfn: PhysFrameNum::new(5),
            page_size: PageSize::Base4K,
        };
        l1.fill(LineAddr::of_phys(t.pa), false);
        let mut i = 0u64;
        b.bench(label, || {
            std::hint::black_box(l1.access(0x400100 + (i % 16) * 4, va, t, 2, false));
            i += 1;
        });
    }
}

/// The assembled machine: TLB + L1 + lower hierarchy, on a warm working
/// set (L1-TLB hit + L1-cache hit — the access the kernel rewrite is
/// aimed at).
fn bench_machine(b: &mut Bencher) -> f64 {
    let mut phys = BuddyAllocator::with_bytes(64 << 20);
    let mut asp = AddressSpace::new(0, PlacementPolicy::LinuxDefault);
    let region = asp.mmap(4 << 20, &mut phys).unwrap();
    let cfg = sipt_32k_2w().with_policy(L1Policy::Ideal);
    let mut machine = Machine::new(asp, cfg, SystemKind::OooThreeLevel);
    let mut i = 0u64;
    let r = b.bench("machine_access_l1_hit", || {
        let va = region.start + (i * 64) % (16 * PAGE_SIZE);
        i += 1;
        std::hint::black_box(machine.access(0x400100, MemRef { op: MemOp::Load, va }, i));
    });
    r.ns_per_iter
}

/// The production measure loop itself: a full materialized trace through
/// the block-replay kernel (translation-stream build and decode,
/// monomorphized policy dispatch) on a warm machine. The derived MIPS is
/// the kernel's isolated ceiling — no preparation, no warmup split.
fn bench_block_replay(b: &mut Bencher) -> f64 {
    const INSTS: u64 = 8_192;
    let spec = benchmark("libquantum").unwrap();
    let mut phys = BuddyAllocator::with_bytes(1 << 30);
    let mut asp = AddressSpace::new(2, PlacementPolicy::LinuxDefault);
    let gen = TraceGen::build(&spec, &mut asp, &mut phys, INSTS, 42).unwrap();
    let trace = MaterializedTrace::from_gen(gen);
    let mut machine = Machine::new(asp, sipt_32k_2w(), SystemKind::OooThreeLevel);
    let r = b.bench("block_replay_8k_insts", || {
        std::hint::black_box(
            replay_trace(SystemKind::OooThreeLevel, &mut machine, &trace, "bench").unwrap(),
        );
    });
    // ns for 8192 instructions -> simulated MIPS through the kernel.
    if r.ns_per_iter > 0.0 {
        INSTS as f64 * 1e3 / r.ns_per_iter
    } else {
        0.0
    }
}

/// End-to-end: fig02-style sweeps at smoke scale, reporting the
/// measure-phase simulated MIPS (instructions retired over measured host
/// time) — the number the ≥1.5× kernel target is stated against. The
/// sweep is repeated and the fastest repetition reported: a single ~100 ms
/// sample swings ±15% with host scheduling noise, and best-of-N estimates
/// the kernel's speed rather than the host's mood.
fn fig02_sample() -> Json {
    const REPS: usize = 3;
    let mut best: Option<(f64, u64, f64, f64)> = None;
    for _ in 0..REPS {
        prep_cache::clear();
        let (instr_before, ms_before) = sipt_sim::simulation_totals();
        let t = std::time::Instant::now();
        std::hint::black_box(ideal::fig2(&smoke_benchmarks(), &Condition::quick()));
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        let (instr_after, ms_after) = sipt_sim::simulation_totals();
        let instructions = instr_after - instr_before;
        let measure_ms = ms_after - ms_before;
        let mips = if measure_ms > 0.0 { instructions as f64 / (measure_ms * 1e3) } else { 0.0 };
        if best.is_none_or(|(m, ..)| mips > m) {
            best = Some((mips, instructions, measure_ms, wall_ms));
        }
    }
    let (mips, instructions, measure_ms, wall_ms) = best.expect("REPS > 0");
    println!(
        "{:<40} {wall_ms:>9.1} ms wall  {mips:>8.2} MIPS (measure phase, best of {REPS})",
        "fig02_smoke_end_to_end"
    );
    Json::obj([
        ("name", Json::str("fig02_smoke_end_to_end")),
        ("wall_ms", Json::num(wall_ms)),
        ("simulated_instructions", Json::u64(instructions)),
        ("measure_ms", Json::num(measure_ms)),
        ("simulated_mips", Json::num(mips)),
    ])
}

fn main() {
    let cli = sipt_bench::Cli::from_args();
    let mut b =
        if cli.scale == sipt_bench::Scale::Quick { Bencher::quick() } else { Bencher::default() };
    println!("BENCH_hotpath: isolated per-access kernels");
    println!();
    bench_array(&mut b);
    bench_tlb(&mut b);
    bench_cursor(&mut b);
    bench_l1(&mut b);
    let machine_ns = bench_machine(&mut b);
    let block_replay_mips = bench_block_replay(&mut b);
    let fig02 = fig02_sample();

    // One derived, CI-assertable headline: sustained accesses/sec through
    // the full machine path (must be > 0; non-flaky by construction).
    let accesses_per_sec = if machine_ns > 0.0 { 1e9 / machine_ns } else { 0.0 };

    let payload = Json::obj([
        ("accesses_per_sec", Json::num(accesses_per_sec)),
        ("benchmarks", b.to_json()),
        ("block_replay_mips", Json::num(block_replay_mips)),
        ("fig02", fig02),
    ]);
    let envelope = sipt_telemetry::report::envelope("BENCH_hotpath", payload);
    let dir = sipt_telemetry::report::results_dir();
    match sipt_telemetry::report::write_report(&dir, "BENCH_hotpath", &envelope) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("failed to write BENCH_hotpath.json: {e}");
            std::process::exit(1);
        }
    }
    cli.finish();
}
