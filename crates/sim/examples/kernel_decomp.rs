//! Wall-clock decomposition of the block-replay kernel — a profiling aid,
//! not a benchmark of record (`cargo run -p sipt-sim --release --example
//! kernel_decomp`). Times each kernel ingredient in isolation over the
//! same trace the full kernel replays, so a perf regression can be
//! attributed to a phase without a system profiler.

use sipt_cache::WayPredictor;
use sipt_core::{sipt_32k_2w, BlockPredictions, L1Policy, PredictorBank, SiptL1};
use sipt_cpu::{unpack_meta_fields, MemResponse, OooConfig, OooEngine};
use sipt_mem::{
    AddressSpace, BuddyAllocator, PhysAddr, PhysFrameNum, PlacementPolicy, Translation,
    TranslationCache, VirtAddr,
};
use sipt_predictors::{IndexDeltaBuffer, PerceptronPredictor};
use sipt_sim::{replay_trace, Machine, SystemKind};
use sipt_tlb::{DataTlb, TlbConfig, TranslationStream};
use sipt_workloads::{benchmark, MaterializedTrace, TraceGen};
use std::time::Instant;

const INSTS: u64 = 200_000;
const REPS: u32 = 5;

fn time<R>(label: &str, insts: u64, mut f: impl FnMut() -> R) {
    // One warmup, then best-of-REPS.
    std::hint::black_box(f());
    let mut best = f64::MAX;
    for _ in 0..REPS {
        let t = Instant::now();
        std::hint::black_box(f());
        best = best.min(t.elapsed().as_secs_f64());
    }
    println!("{label:32} {:8.2} ns/inst  ({:.1} ms)", best * 1e9 / insts as f64, best * 1e3);
}

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "mcf".into());
    let spec = benchmark(&which).unwrap();
    let mut phys = BuddyAllocator::with_bytes(1 << 30);
    let mut asp = AddressSpace::new(7, PlacementPolicy::LinuxDefault);
    let gen = TraceGen::build(&spec, &mut asp, &mut phys, INSTS, 42).unwrap();
    let trace = MaterializedTrace::from_gen(gen);
    let mem_count = trace.mem_refs();
    println!(
        "trace {which}: {INSTS} insts, {mem_count} memory refs ({:.0}%)",
        100.0 * mem_count as f64 / INSTS as f64
    );

    // (a) full kernel, combined (staged + unstaged predictor front-end)
    // and ideal policies.
    for (label, cfg, stage) in [
        ("full replay (SiptCombined)", sipt_32k_2w(), true),
        ("full replay (SiptCombined, unstaged)", sipt_32k_2w(), false),
        ("full replay (Ideal)", sipt_32k_2w().with_policy(L1Policy::Ideal), true),
    ] {
        sipt_sim::set_predictor_stage(stage);
        let mut machine = Machine::new(asp.clone(), cfg, SystemKind::OooThreeLevel);
        time(label, INSTS, || {
            replay_trace(SystemKind::OooThreeLevel, &mut machine, &trace, "decomp").unwrap()
        });
    }
    sipt_sim::set_predictor_stage(false);

    // (b) cursor walk alone: block slicing + meta decode.
    time("cursor + meta decode", INSTS, || {
        let mut c = trace.cursor();
        let mut acc = 0u64;
        while let Some(b) = c.next_block(256) {
            for (&meta, &pc) in b.meta.iter().zip(b.pcs) {
                let (d, s, m, l) = unpack_meta_fields(meta);
                acc = acc
                    .wrapping_add(pc)
                    .wrapping_add(l)
                    .wrapping_add(d.unwrap_or(0) as u64)
                    .wrapping_add(s[0].unwrap_or(0) as u64)
                    .wrapping_add(m.map_or(0, u64::from));
            }
        }
        acc
    });

    // (c) engine steps alone: constant-latency memory, no L1/TLB.
    time("engine step (OOO)", INSTS, || {
        let mut engine = OooEngine::new(OooConfig::default());
        let mut c = trace.cursor();
        while let Some(b) = c.next_block(256) {
            for &meta in b.meta {
                let (dst, srcs, mem_store, lat) = unpack_meta_fields(meta);
                engine
                    .step(dst, srcs, mem_store, lat, |_| MemResponse { latency: 3, port_slots: 1 });
            }
        }
        engine.finish()
    });

    // (c') engine steps with run detection: non-memory runs go through
    // `step_run` (the production phase-2 shape), memory ops step alone.
    // The trailing coverage line says how many instructions the closed-
    // form fast-forward absorbed (it only engages when retirement has
    // been pushed far ahead of fetch, e.g. beneath a DRAM miss).
    let run_engine = || {
        let mut engine = OooEngine::new(OooConfig::default());
        let mut c = trace.cursor();
        while let Some(b) = c.next_block(256) {
            let meta = b.meta;
            let mut i = 0usize;
            while i < meta.len() {
                let start = i;
                while i < meta.len() && !sipt_cpu::meta_has_mem(meta[i]) {
                    i += 1;
                }
                // Production shape: long runs through the fast-forwarding
                // slice API, short runs stepped inline.
                if i - start >= sipt_cpu::RUN_FAST_MIN {
                    engine.step_run(&meta[start..i]);
                } else {
                    for &m in &meta[start..i] {
                        let (dst, srcs, _, lat) = unpack_meta_fields(m);
                        engine.step(dst, srcs, None, lat, |_| -> MemResponse {
                            unreachable!("non-memory instruction")
                        });
                    }
                }
                if i < meta.len() {
                    let (dst, srcs, mem_store, lat) = unpack_meta_fields(meta[i]);
                    engine.step(dst, srcs, mem_store, lat, |_| MemResponse {
                        latency: 3,
                        port_slots: 1,
                    });
                    i += 1;
                }
            }
        }
        engine
    };
    time("engine step_run (OOO)", INSTS, || run_engine().finish());
    {
        let engine = run_engine();
        println!(
            "{:32} {:8.1} % of insts",
            "  fast-forward coverage",
            100.0 * engine.fast_fwd_insts() as f64 / INSTS as f64
        );
    }

    // (d) translation alone: building the trace's page-change
    // translation stream on a cold TLB, the work the first replay of a
    // prepared workload does before its warmup.
    time("translation stream build", INSTS, || {
        let mut tlb = DataTlb::new(TlbConfig::default());
        let mut xlat = TranslationCache::new();
        TranslationStream::build(&mut tlb, trace.mem_vas(), |va| {
            xlat.translate(asp.page_table(), va)
        })
        .unwrap()
    });

    // (e) L1 access alone over the trace's memory VAs (identity
    // translation; hit-heavy by construction).
    for (label, policy) in [
        ("l1 access (SiptCombined)", L1Policy::SiptCombined),
        ("l1 access (Ideal)", L1Policy::Ideal),
    ] {
        let mut l1 = SiptL1::new(sipt_32k_2w().with_policy(policy));
        let vas = trace.mem_vas();
        time(label, vas.len() as u64, || {
            let mut acc = 0u64;
            for (i, &raw) in vas.iter().enumerate() {
                let va = VirtAddr::new(raw);
                let t = Translation {
                    pa: PhysAddr::new(raw),
                    pfn: PhysFrameNum::new(raw >> 12),
                    page_size: sipt_mem::PageSize::Base4K,
                };
                let a = l1.access(0x400000 + (i as u64 % 64) * 4, va, t, 2, false);
                acc = acc.wrapping_add(a.latency);
            }
            acc
        });
    }

    // (f) combined-predictor decomposition: the L1's predictor overhead
    // split into its ingredients, each over the trace's memory-access
    // stream. Outcomes use a deterministic synthetic mix (~75% index bits
    // unchanged) so the perceptron trains at a realistic rate instead of
    // saturating, and deltas derive from the VA's index bits.
    let cfg = sipt_32k_2w();
    let pcs: Vec<u64> =
        trace.cursor().filter(|inst| inst.mem.is_some()).map(|inst| inst.pc).collect();
    let mvas = trace.mem_vas();
    let unchanged: Vec<bool> = mvas.iter().map(|&raw| (raw ^ (raw >> 7)) & 3 != 0).collect();
    let deltas: Vec<u64> = mvas.iter().map(|&raw| (raw >> 12) & 3).collect();
    let nmem = pcs.len() as u64;

    time("  perceptron predict+train", nmem, || {
        let mut p = PerceptronPredictor::new(cfg.perceptron);
        let mut acc = 0u64;
        for (&pc, &un) in pcs.iter().zip(&unchanged) {
            acc = acc.wrapping_add(u64::from(p.predict(pc)));
            p.update(pc, un);
        }
        acc
    });
    time("  idb predict+update", nmem, || {
        let mut idb = IndexDeltaBuffer::new(cfg.idb_config());
        let mut acc = 0u64;
        for (&pc, &d) in pcs.iter().zip(&deltas) {
            acc = acc.wrapping_add(idb.predict(pc));
            idb.update(pc, d);
        }
        acc
    });
    time("  way predictor", nmem, || {
        let mut wp = WayPredictor::new(cfg.geometry.sets(), cfg.geometry.ways);
        let mut acc = 0u64;
        for &raw in mvas {
            let set = (raw >> 6) % cfg.geometry.sets();
            let way = wp.predict(set);
            acc = acc.wrapping_add(u64::from(way));
            wp.record_hit(set, way ^ ((raw >> 9) as u32 & 1));
        }
        acc
    });
    time("  bank fused combined", nmem, || {
        let mut bank = PredictorBank::new(cfg.perceptron, cfg.idb_config(), cfg.counter);
        let mut acc = 0u64;
        for ((&pc, &un), &d) in pcs.iter().zip(&unchanged).zip(&deltas) {
            let o = bank.combined_access(pc, un, true, d, None);
            acc = acc.wrapping_add(o.margin).wrapping_add(o.delta);
        }
        acc
    });
    time("  bank staged sweep", nmem, || {
        let bank = PredictorBank::new(cfg.perceptron, cfg.idb_config(), cfg.counter);
        let mut preds = BlockPredictions::new();
        let mut acc = 0u64;
        for (w, (pw, uw)) in pcs.chunks(64).zip(unchanged.chunks(64)).enumerate() {
            bank.stage_block(pw, uw, true, w * 64, &mut preds);
            acc = acc.wrapping_add(preds.len() as u64);
        }
        acc
    });
}
