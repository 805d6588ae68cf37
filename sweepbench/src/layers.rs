//! The traced per-layer passes.
//!
//! Each pass drives one layer's public API over the workload's real
//! prepared traces, inside a span recorded on the `sipt_telemetry` span
//! sink, and the layer's time is read back from those spans. Passes run
//! per prepared `(spec, condition)` pair of a deterministic sample of the
//! workload's runs; the L1, lower-hierarchy and block passes run per
//! sampled run with that run's own L1 configuration and system.
//!
//! Layer closure: for every sampled run, the isolated passes that make up
//! one replay — cursor, TLB, L1 (its predictors included), lower
//! hierarchy and the core engine — are summed (count × per-op cost, at
//! run granularity) and compared with `replay_trace` over the same trace.

use crate::calibrate::Probe;
use crate::workload::{run_sweep, Rep, Workload};
use sipt_cache::{LineAddr, LowerHierarchy};
use sipt_core::{baseline_32k_8w_vipt, sipt_32k_2w, L1Config, L1Policy, PredictorBank, SiptL1};
use sipt_cpu::{
    meta_has_mem, unpack_meta_fields, InOrderConfig, InOrderEngine, MemResponse, OooConfig,
    OooEngine, RUN_FAST_MIN,
};
use sipt_dram::{Dram, DramConfig};
use sipt_mem::{fragment_memory, AddressSpace, BuddyAllocator, VirtAddr};
use sipt_rng::{SeedableRng, StdRng};
use sipt_sim::SystemKind;
use sipt_sim::{
    prep_cache, replay_batch, replay_trace, Condition, Machine, RunMetrics, RunRequest,
};
use sipt_telemetry::span::{self, SpanPhase};
use sipt_telemetry::Span;
use sipt_tlb::{DataTlb, TlbConfig, TlbOutcome};
use sipt_workloads::{MaterializedTrace, TraceGen};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;

/// Span category of the benchmark's own layer spans.
const CAT: &str = "sweepbench.layer";

/// One per-layer metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// The result of the traced passes.
pub struct LayerReport {
    pub metrics: Vec<Metric>,
    /// `modelled / measured − 1` of the layer closure (signed).
    pub closure_signed: f64,
    /// Sampled runs, and prepared pairs the passes covered.
    pub sampled_runs: usize,
    pub sampled_pairs: usize,
    /// Layer checks that failed: a pass's own preparation differing from
    /// the prep cache's, or a translation fault.
    pub mismatches: usize,
}

/// A recorded pass: which layer, how many operations, and which sampled
/// run it belongs to (`None` for per-pair passes).
struct PassRecord {
    layer: &'static str,
    ops: u64,
    pair: usize,
    run: Option<usize>,
}

#[derive(Default)]
struct Passes {
    records: Vec<PassRecord>,
}

impl Passes {
    /// Run `f` inside a layer span and remember what it covered.
    fn pass<R>(
        &mut self,
        layer: &'static str,
        ops: u64,
        pair: usize,
        run: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        self.records.push(PassRecord { layer, ops, pair, run });
        let _span = Span::enter(layer, CAT);
        black_box(f())
    }

    /// Durations (µs) of the benchmark's spans, in record order. End
    /// events carry no category, so begin/end pairs are matched by
    /// nesting: the program's own spans nest inside the layer spans.
    fn durations_us() -> Vec<u64> {
        let mut open = Vec::new();
        let mut out = Vec::new();
        for e in span::snapshot_events() {
            match e.phase {
                SpanPhase::Begin => open.push((e.cat, e.ts_us)),
                SpanPhase::End => {
                    let (cat, start) = open.pop().expect("span events are balanced");
                    if cat == CAT {
                        out.push(e.ts_us - start);
                    }
                }
                SpanPhase::Instant => {}
            }
        }
        out
    }
}

/// Which runs of the workload the passes sample: a stride coprime with
/// the configurations per pair, so every configuration, condition and
/// system appears.
fn sample_stride(workload: Workload) -> usize {
    match workload {
        Workload::Fig02Ideal => 5,
        Workload::Fig18Sensitivity => 21,
        Workload::Fig05Prep => 1,
    }
}

/// The runs whose statistics give the layer counts: the workload's own
/// sweep, or — for `fig05_prep`, which replays nothing — a baseline
/// (8-way VIPT, OOO) sweep over its prepared pairs.
fn count_runs(
    workload: Workload,
    seed: u64,
    rep: &Rep,
    probe: &mut Probe,
) -> (Vec<RunRequest>, Vec<RunMetrics>) {
    if workload != Workload::Fig05Prep {
        return (workload.requests(seed), rep.metrics.clone());
    }
    let requests: Vec<RunRequest> = workload
        .pairs(seed)
        .into_iter()
        .map(|(spec, cond)| RunRequest {
            spec,
            l1: baseline_32k_8w_vipt(),
            system: SystemKind::OooThreeLevel,
            cond,
            label: spec.name.to_owned(),
        })
        .collect();
    let metrics = run_sweep(requests.clone(), probe).metrics;
    (requests, metrics)
}

/// One memory reference of a trace, decoded outside the timed passes.
struct MemOp {
    pc: u64,
    va: VirtAddr,
    store: bool,
}

fn mem_ops(trace: &MaterializedTrace) -> Vec<MemOp> {
    let mut out = Vec::new();
    let mut cursor = trace.cursor();
    while let Some(block) = cursor.next_block(4096) {
        let mut vas = block.mem_vas.iter();
        for (&meta, &pc) in block.meta.iter().zip(block.pcs) {
            if let Some(store) = unpack_meta_fields(meta).2 {
                let va = VirtAddr::new(*vas.next().expect("one VA per memory instruction"));
                out.push(MemOp { pc, va, store });
            }
        }
    }
    out
}

/// What the L1 hands the lower hierarchy, in order.
enum LowerOp {
    Access(LineAddr, bool),
    Writeback(LineAddr),
}

/// The L1 alone over pre-translated accesses: demand access, and on a
/// miss the fill (the lower hierarchy is not consulted).
fn l1_pass(cfg: L1Config, ops: &[MemOp], xlat: &[TlbOutcome], lower: &mut Vec<LowerOp>) -> u64 {
    let mut l1 = SiptL1::new(cfg);
    let mut latency = 0u64;
    for (op, x) in ops.iter().zip(xlat) {
        let a = l1.access(op.pc, op.va, x.translation, x.cycles, op.store);
        latency = latency.wrapping_add(a.latency);
        if !a.hit {
            let line = LineAddr::of_phys(x.translation.pa);
            lower.push(LowerOp::Access(line, op.store));
            if let Some(evicted) = l1.fill(line, op.store) {
                if evicted.dirty {
                    lower.push(LowerOp::Writeback(evicted.line));
                }
            }
        }
    }
    latency
}

/// The lower hierarchy (L2/LLC/DRAM) alone over an L1 miss stream.
fn lower_pass(system: SystemKind, ops: &[LowerOp]) -> u64 {
    let mut lower =
        LowerHierarchy::new(system.l2(), system.llc(), Dram::new(DramConfig::default()));
    let mut now = 0u64;
    for op in ops {
        match *op {
            LowerOp::Access(line, store) => now += lower.access(line, store, now).latency,
            LowerOp::Writeback(line) => lower.writeback(line),
        }
    }
    now
}

/// A core engine alone over a trace, in the replay kernel's shape:
/// non-memory runs of at least `RUN_FAST_MIN` through `step_run`, the
/// rest stepped one by one, memory at a constant latency.
macro_rules! engine_pass {
    ($engine:expr, $trace:expr) => {{
        let mut engine = $engine;
        let mut cursor = $trace.cursor();
        while let Some(block) = cursor.next_block(replay_batch()) {
            let meta = block.meta;
            let mut i = 0;
            while i < meta.len() {
                let start = i;
                while i < meta.len() && !meta_has_mem(meta[i]) {
                    i += 1;
                }
                if i - start >= RUN_FAST_MIN {
                    engine.step_run(&meta[start..i]);
                } else {
                    for &m in &meta[start..i] {
                        let (dst, srcs, _, lat) = unpack_meta_fields(m);
                        engine.step(dst, srcs, None, lat, |_| MemResponse {
                            latency: 1,
                            port_slots: 1,
                        });
                    }
                }
                if i < meta.len() {
                    let (dst, srcs, store, lat) = unpack_meta_fields(meta[i]);
                    engine
                        .step(dst, srcs, store, lat, |_| MemResponse { latency: 4, port_slots: 1 });
                    i += 1;
                }
            }
        }
        engine.finish().cycles
    }};
}

/// Run every layer pass for `workload` and derive the per-layer metrics.
/// `rep` is the untraced repetition whose runs give the counts.
pub fn measure(workload: Workload, seed: u64, rep: &Rep, probe: &mut Probe) -> LayerReport {
    let (requests, runs) = count_runs(workload, seed, rep, probe);
    let pairs = workload.pairs(seed);
    let pair_of: BTreeMap<u64, usize> = pairs
        .iter()
        .enumerate()
        .map(|(i, (spec, cond))| (prep_cache::fingerprint(spec, cond), i))
        .collect();
    // Sampled runs grouped by pair, pairs in first-use order.
    let mut by_pair: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for i in (0..requests.len()).step_by(sample_stride(workload)) {
        let r = &requests[i];
        by_pair.entry(pair_of[&prep_cache::fingerprint(&r.spec, &r.cond)]).or_default().push(i);
    }

    span::reset();
    span::set_enabled(true);
    let mut passes = Passes::default();
    let mut mismatches = 0usize;
    let mut frag_done = false;
    prep_cache::clear();
    for (&p, sampled) in &by_pair {
        let (spec, cond) = &pairs[p];
        let prepared =
            passes.pass("prep_cache.miss", 1, p, None, || prep_cache::get_or_prepare(spec, cond));
        let Ok(prepared) = prepared else {
            mismatches += 1;
            continue;
        };
        let trace = &prepared.trace;
        let insts = trace.len() as u64;

        // sipt-mem and sipt-workloads: the preparation again, one layer
        // at a time, which must reproduce the prep cache's trace.
        let mut phys = passes
            .pass("mem.buddy_init", 1, p, None, || BuddyAllocator::with_bytes(cond.memory_bytes));
        let mut rng = StdRng::seed_from_u64(cond.seed ^ 0xF7A6);
        let _hold = if cond.fragmented {
            frag_done = true;
            passes
                .pass("mem.fragment", 1, p, None, || fragment_memory(&mut phys, 0.5, &mut rng))
                .ok()
        } else {
            None
        };
        let mut asp = AddressSpace::new(0, cond.placement);
        let gen = passes.pass("mem.alloc", 1, p, None, || {
            TraceGen::build(spec, &mut asp, &mut phys, cond.warmup + cond.instructions, cond.seed)
        });
        match gen {
            Ok(gen) => {
                let own = passes
                    .pass("workloads.gen", insts, p, None, || MaterializedTrace::from_gen(gen));
                mismatches += usize::from(own != *trace);
            }
            Err(_) => mismatches += 1,
        }
        drop((asp, _hold, phys));

        passes.pass("workloads.cursor", insts, p, None, || {
            let mut cursor = trace.cursor();
            let mut acc = 0u64;
            while let Some(b) = cursor.next_block(replay_batch()) {
                acc = acc.wrapping_add(b.pcs[0]).wrapping_add(b.meta.len() as u64);
                acc = acc.wrapping_add(b.mem_vas.len() as u64);
            }
            acc
        });

        let ops = mem_ops(trace);
        let n_mem = ops.len() as u64;
        let page_table = prepared.asp.page_table();
        let xlat: Option<Vec<TlbOutcome>> = passes.pass("tlb.translate", n_mem, p, None, || {
            let mut tlb = DataTlb::new(TlbConfig::default());
            ops.iter().map(|op| tlb.translate(op.va, page_table).ok()).collect()
        });
        let Some(xlat) = xlat else {
            mismatches += 1;
            continue;
        };

        let mut scratch = Vec::with_capacity(ops.len());
        for (layer, cfg) in [
            ("l1.ideal", sipt_32k_2w().with_policy(L1Policy::Ideal)),
            ("l1.combined", sipt_32k_2w()),
        ] {
            scratch.clear();
            passes.pass(layer, n_mem, p, None, || l1_pass(cfg, &ops, &xlat, &mut scratch));
        }

        let cfg = sipt_32k_2w();
        let n = cfg.speculative_bits();
        let inputs: Vec<(u64, bool, u64)> = ops
            .iter()
            .zip(&xlat)
            .map(|(op, x)| {
                let t = x.translation;
                (op.pc, op.va.index_bits(n) == t.pa.index_bits(n), t.index_delta(op.va, n))
            })
            .collect();
        passes.pass("predictors.combined", n_mem, p, None, || {
            let mut bank = PredictorBank::new(cfg.perceptron, cfg.idb_config(), cfg.counter);
            let mut acc = 0u64;
            for &(pc, unchanged, observed) in &inputs {
                let o = bank.combined_access(pc, unchanged, n > 1, observed, None);
                acc = acc.wrapping_add(o.margin).wrapping_add(o.delta);
            }
            acc
        });

        passes.pass("cpu.ooo", insts, p, None, || {
            engine_pass!(OooEngine::new(OooConfig::default()), trace)
        });
        passes.pass("cpu.inorder", insts, p, None, || {
            engine_pass!(InOrderEngine::new(InOrderConfig::default()), trace)
        });

        for &i in sampled {
            let r = &requests[i];
            let mut lower = Vec::with_capacity(ops.len());
            passes.pass("l1.run", n_mem, p, Some(i), || {
                l1_pass(r.l1.clone(), &ops, &xlat, &mut lower)
            });
            passes.pass("cache.lower", lower.len() as u64, p, Some(i), || {
                lower_pass(r.system, &lower)
            });
            let mut machine =
                Machine::new_shared(Arc::clone(&prepared.asp), r.l1.clone(), r.system);
            let replayed = passes.pass("block.replay", insts, p, Some(i), || {
                replay_trace(r.system, &mut machine, trace, spec.name).is_ok()
            });
            mismatches += usize::from(!replayed);
        }
        drop(prepared);
        prep_cache::clear();
    }

    // A workload without a fragmented condition still reports the
    // fragmentation preamble's cost, on the §VII.B Fragmented memory.
    if !frag_done {
        let (_, frag) = Condition::sensitivity_sweep()[1];
        let mut phys = BuddyAllocator::with_bytes(frag.memory_bytes);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xF7A6);
        let _ =
            passes.pass("mem.fragment", 1, 0, None, || fragment_memory(&mut phys, 0.5, &mut rng));
    }
    span::set_enabled(false);

    let durations = Passes::durations_us();
    assert_eq!(durations.len(), passes.records.len(), "one span per pass");
    let mut per_layer: BTreeMap<&str, (f64, u64)> = BTreeMap::new();
    for (rec, &us) in passes.records.iter().zip(&durations) {
        let e = per_layer.entry(rec.layer).or_default();
        e.0 += us as f64 * 1e3;
        e.1 += rec.ops;
    }
    let ns_per_op =
        |layer: &str| per_layer.get(layer).map_or(0.0, |&(ns, ops)| ns / ops.max(1) as f64);
    let ms_per_op = |layer: &str| ns_per_op(layer) / 1e6;

    // Closure, run by run: cursor + TLB + engine of the run's pair, L1 +
    // lower of the run itself, against the replay of the same trace.
    let mut pair_ns: BTreeMap<(usize, &str), f64> = BTreeMap::new();
    let mut run_ns: BTreeMap<(usize, &str), f64> = BTreeMap::new();
    for (rec, &us) in passes.records.iter().zip(&durations) {
        let ns = us as f64 * 1e3;
        match rec.run {
            None => *pair_ns.entry((rec.pair, rec.layer)).or_default() += ns,
            Some(i) => *run_ns.entry((i, rec.layer)).or_default() += ns,
        }
    }
    let (mut modelled, mut measured, mut replay_insts) = (0.0, 0.0, 0u64);
    let mut sampled_runs = 0;
    for (&p, sampled) in &by_pair {
        let get = |layer| pair_ns.get(&(p, layer)).copied().unwrap_or(0.0);
        for &i in sampled {
            let engine = match requests[i].system {
                SystemKind::OooThreeLevel => "cpu.ooo",
                SystemKind::InOrderTwoLevel => "cpu.inorder",
            };
            let run = |layer| run_ns.get(&(i, layer)).copied().unwrap_or(0.0);
            modelled += get("workloads.cursor") + get("tlb.translate") + get(engine);
            modelled += run("l1.run") + run("cache.lower");
            measured += run("block.replay");
            replay_insts += pairs[p].1.warmup + pairs[p].1.instructions;
            sampled_runs += 1;
        }
    }
    let closure_signed = if measured > 0.0 { modelled / measured - 1.0 } else { 0.0 };

    // Counts from the workload's runs.
    let sum = |f: &dyn Fn(&RunMetrics) -> u64| runs.iter().map(f).sum::<u64>() as f64;
    let per = |num: f64, den: f64, scale: f64| if den > 0.0 { scale * num / den } else { 0.0 };
    let insts = sum(&|m| m.core.instructions);
    let l1_accesses = sum(&|m| m.sipt.accesses);
    let tlb_total = sum(&|m| m.tlb.total());
    let dram_total = sum(&|m| m.dram.total());
    let huge = runs.iter().map(|m| m.huge_fraction).sum::<f64>() / runs.len().max(1) as f64;
    let warmup_s = runs.iter().map(|m| m.phases.warmup_ms).sum::<f64>() / 1e3;
    let measure_s = runs.iter().map(|m| m.phases.measure_ms).sum::<f64>() / 1e3;

    let metrics = vec![
        ("prep_cache.misses", rep.prep_misses as f64, "count"),
        ("prep_cache.hits", rep.prep_hits as f64, "count"),
        (
            "prep_cache.redundant_misses",
            rep.prep_misses.saturating_sub(pairs.len() as u64) as f64,
            "count",
        ),
        ("prep_cache.miss_ms", ms_per_op("prep_cache.miss"), "ms"),
        ("mem.buddy_init_ms", ms_per_op("mem.buddy_init"), "ms"),
        ("mem.fragment_ms", ms_per_op("mem.fragment"), "ms"),
        ("mem.alloc_ms", ms_per_op("mem.alloc"), "ms"),
        ("mem.huge_fraction", huge, "fraction"),
        ("workloads.gen_ns_per_inst", ns_per_op("workloads.gen"), "ns/inst"),
        ("workloads.cursor_ns_per_inst", ns_per_op("workloads.cursor"), "ns/inst"),
        ("tlb.translate_ns", ns_per_op("tlb.translate"), "ns"),
        ("tlb.l1_hit_rate", per(sum(&|m| m.tlb.l1_hits), tlb_total, 1.0), "fraction"),
        ("tlb.walks_per_kaccess", per(sum(&|m| m.tlb.walks), tlb_total, 1e3), "1/kaccess"),
        ("l1.access_ns.ideal", ns_per_op("l1.ideal"), "ns"),
        ("l1.access_ns.combined", ns_per_op("l1.combined"), "ns"),
        ("l1.fast_fraction", per(sum(&|m| m.sipt.fast_accesses), l1_accesses, 1.0), "fraction"),
        (
            "l1.extra_per_kaccess",
            per(sum(&|m| m.sipt.extra_accesses), l1_accesses, 1e3),
            "1/kaccess",
        ),
        ("predictors.combined_access_ns", ns_per_op("predictors.combined"), "ns"),
        (
            "predictors.idb_hits_per_kaccess",
            per(sum(&|m| m.sipt.idb_hits), l1_accesses, 1e3),
            "1/kaccess",
        ),
        ("cache.lower_access_ns", ns_per_op("cache.lower"), "ns"),
        (
            "cache.l2_accesses_per_kinst",
            per(sum(&|m| m.l2.map_or(0, |l| l.accesses)), insts, 1e3),
            "1/kinst",
        ),
        ("cache.llc_misses_per_kinst", per(sum(&|m| m.llc.misses), insts, 1e3), "1/kinst"),
        ("dram.row_hit_rate", per(sum(&|m| m.dram.row_hits), dram_total, 1.0), "fraction"),
        ("cpu.ooo_step_ns_per_inst", ns_per_op("cpu.ooo"), "ns/inst"),
        ("cpu.inorder_step_ns_per_inst", ns_per_op("cpu.inorder"), "ns/inst"),
        ("cpu.ipc", per(insts, sum(&|m| m.core.cycles), 1.0), "inst/cycle"),
        ("block.replay_ns_per_inst", per(measured, replay_insts as f64, 1.0), "ns/inst"),
        ("block.modelled_ns_per_inst", per(modelled, replay_insts as f64, 1.0), "ns/inst"),
        ("block.closure_error", closure_signed.abs(), "fraction"),
        ("runner.warmup_s", warmup_s, "s"),
        ("runner.measure_s", measure_s, "s"),
    ];
    LayerReport { metrics, closure_signed, sampled_runs, sampled_pairs: by_pair.len(), mismatches }
}
