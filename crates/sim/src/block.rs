//! The block-replay kernel: the hot path of every timed run.
//!
//! Per-access replay (`runner::run_core`) pays, for every instruction, an
//! `Inst` rematerialization, a TLB probe, two `match`es on the L1 policy,
//! and a virtual-ish hop through the [`MemoryPath`] trait object surface.
//! This module restructures the loop around fixed-size blocks of packed
//! structure-of-arrays instructions ([`sipt_workloads::InstBlock`]):
//!
//! 1. **Translation from a page-change stream** — the TLB is not probed
//!    in the timing loop. A [`sipt_tlb::TranslationStream`], built once
//!    per prepared workload (or per [`replay_trace`] call), holds one word
//!    per memory reference whose 4 KiB page differs from the previous
//!    reference's; a [`sipt_tlb::StreamCursor`] decodes it in step with
//!    the trace cursor. A same-page reference reuses the current frame as
//!    an L1-TLB hit, a page change takes the next word (see the
//!    `sipt_tlb::stream` docs for why that is exactly what the TLB would
//!    answer). Translation state is disjoint from the cache hierarchy and
//!    translations are time-independent, so taking them out of the timing
//!    loop is bit-identical by construction. The cursor counts the
//!    decoded outcomes, and the kernel adds them to the machine's TLB
//!    statistics at the end of each call, so the warmup/measure
//!    `reset_stats` boundary splits them as before.
//! 2. **Monomorphized policy dispatch** — the `(SystemKind, L1Policy)`
//!    pair is matched *once per run*; the inner loop calls
//!    [`sipt_core::SiptL1::access_mono`] with a zero-sized
//!    [`sipt_core::PolicyTag`], so the per-access policy `match`es constant-fold
//!    away and the engine step inlines without trait indirection.
//! 3. **Engine state in a struct** — [`sipt_cpu::OooEngine`] /
//!    [`sipt_cpu::InOrderEngine`] carry the timestamp-dataflow state, so the
//!    kernel steps decoded fields (`unpack_meta_fields`) without building
//!    `Inst` values.
//! 4. **Per-block telemetry accumulation** — when the attached
//!    [`sipt_core::L1Telemetry`] retains no events and samples every
//!    access (the runner's default), the timing loop records into a
//!    stack-local [`sipt_core::BlockTelemetry`] and merges it into the
//!    shared sink once per block, keeping the ring-buffer and sampling
//!    machinery off the per-access path. Snapshots, flight summaries and
//!    tracer drop-accounting stay byte-identical (pinned by
//!    `block_merge_matches_sequential_recording` in `sipt-core`).
//!
//! A translation fault (an unmapped VA — possible only for *external*
//! traces, never for generated workloads) surfaces while the stream is
//! built, as a typed [`SimError::Trace`] instead of a panic, before any
//! timing state is advanced.
//!
//! The batch size comes from `SIPT_REPLAY_BATCH` (default
//! [`DEFAULT_REPLAY_BATCH`]) or [`set_replay_batch`]; any batch size
//! produces bit-identical results — the golden-fingerprint tests pin this.

use crate::error::SimError;
use crate::machine::{Machine, SystemKind};
use sipt_cache::{LineAddr, LowerHierarchy};
use sipt_core::{policy_tags, BlockPredictions, BlockTelemetry, L1Policy, PolicyTag, SiptL1};
use sipt_cpu::{
    meta_has_mem, unpack_meta_fields, CoreResult, InOrderConfig, InOrderEngine, MemResponse,
    OooConfig, OooEngine, RUN_FAST_MIN,
};
use sipt_dram::Dram;
use sipt_mem::{AddressSpace, VirtAddr};
use sipt_tlb::{DataTlb, PageFault, StreamCursor, TlbConfig, TranslationStream};
use sipt_workloads::{InstBlock, MaterializedTrace, TraceCursor};
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::OnceLock;

// ---------------------------------------------------------------------------
// Batch-size knob
// ---------------------------------------------------------------------------

/// Default instructions per replay block. Large enough to amortize the
/// per-block dispatch, small enough that the block's SoA slices stay
/// L1-cache resident.
pub const DEFAULT_REPLAY_BATCH: usize = 256;

/// Programmatic batch override (0 = unset; takes precedence over the
/// environment).
static BATCH_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Set the process-wide replay batch size, overriding `SIPT_REPLAY_BATCH`
/// (0 clears the override). Any batch size yields bit-identical results;
/// this knob exists for the differential tests and the CI batch smoke.
pub fn set_replay_batch(batch: usize) {
    BATCH_OVERRIDE.store(batch, Ordering::Relaxed);
}

/// The replay batch size: the [`set_replay_batch`] override, else
/// `SIPT_REPLAY_BATCH` (parsed once, clamped to >= 1, malformed values
/// warn), else [`DEFAULT_REPLAY_BATCH`].
pub fn replay_batch() -> usize {
    let explicit = BATCH_OVERRIDE.load(Ordering::Relaxed);
    if explicit > 0 {
        return explicit;
    }
    static PARSED: OnceLock<usize> = OnceLock::new();
    *PARSED.get_or_init(|| match crate::env::parse_or_warn("SIPT_REPLAY_BATCH") {
        Some(0) => {
            eprintln!("warning: SIPT_REPLAY_BATCH=0 is invalid (need >= 1); using the default");
            DEFAULT_REPLAY_BATCH
        }
        Some(n) => n.min(usize::MAX as u64) as usize,
        None => DEFAULT_REPLAY_BATCH,
    })
}

// ---------------------------------------------------------------------------
// Predictor-staging knob
// ---------------------------------------------------------------------------

/// Runtime enable state for the block-staged predictor front-end: 0 =
/// follow `SIPT_PREDICTOR_STAGE`, 1 = forced on, 2 = forced off.
static PREDICTOR_STAGE_OVERRIDE: AtomicU8 = AtomicU8::new(0);

fn predictor_stage_env_default() -> bool {
    static PARSED: OnceLock<bool> = OnceLock::new();
    *PARSED.get_or_init(|| match std::env::var("SIPT_PREDICTOR_STAGE") {
        // Unset or blank keeps the default (off — see below); otherwise
        // the shared switch semantics apply, so `SIPT_PREDICTOR_STAGE=1`
        // opts in and `SIPT_PREDICTOR_STAGE=0` forces off.
        Ok(v) => !v.trim().is_empty() && crate::env::switch_value(&v),
        Err(_) => false,
    })
}

/// Force the block-staged predictor front-end on or off for the rest of
/// the process, overriding `SIPT_PREDICTOR_STAGE`. Staging is payload-
/// neutral — the staged records are validity-stamped and the L1 falls
/// back to the scalar predictor path on any stamp mismatch, so results
/// are bit-identical either way (pinned by the golden fingerprints, which
/// the identity suite sweeps with staging forced on *and* off).
///
/// It is **off by default**: a staged dot-product costs exactly what the
/// in-loop dot-product costs (same rows, same unroll), so staging can
/// only relocate the predictor arithmetic while paying for the gather,
/// sweep, stamps, and record traffic on top — measured at roughly +7
/// ns/inst on the combined-policy replay at production block sizes (see
/// the hot-path appendix in EXPERIMENTS.md). The mechanism stays for
/// hosts or configurations where the trade flips.
pub fn set_predictor_stage(on: bool) {
    PREDICTOR_STAGE_OVERRIDE.store(if on { 1 } else { 2 }, Ordering::Relaxed);
}

/// Whether the replay kernel stages predictor state per block.
pub fn predictor_stage_enabled() -> bool {
    match PREDICTOR_STAGE_OVERRIDE.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => predictor_stage_env_default(),
    }
}

// ---------------------------------------------------------------------------
// Engine abstraction
// ---------------------------------------------------------------------------

/// The two core timing engines, unified for the kernel's generic inner
/// loop. Implemented on the concrete engine types so every call site
/// monomorphizes — no dyn dispatch on the hot path.
trait BlockEngine {
    /// Fresh engine with the system's Table II default configuration.
    fn fresh() -> Self;
    /// Advance by one decoded instruction (same contract as
    /// [`OooEngine::step`]).
    fn step_inst<F: FnMut(u64) -> MemResponse>(
        &mut self,
        dst: Option<u8>,
        srcs: [Option<u8>; 2],
        mem_store: Option<bool>,
        exec_latency: u64,
        mem: F,
    );
    /// Advance over a run of non-memory instructions (packed metadata),
    /// bit-identical to stepping each one; long eligible runs advance in
    /// closed form (same contract as [`OooEngine::step_run`]).
    fn step_run(&mut self, metas: &[u32]);
    /// Final counts for the stream stepped so far.
    fn result(&self) -> CoreResult;
}

impl BlockEngine for OooEngine {
    fn fresh() -> Self {
        OooEngine::new(OooConfig::default())
    }

    #[inline(always)]
    fn step_inst<F: FnMut(u64) -> MemResponse>(
        &mut self,
        dst: Option<u8>,
        srcs: [Option<u8>; 2],
        mem_store: Option<bool>,
        exec_latency: u64,
        mem: F,
    ) {
        self.step(dst, srcs, mem_store, exec_latency, mem);
    }

    #[inline]
    fn step_run(&mut self, metas: &[u32]) {
        OooEngine::step_run(self, metas);
    }

    fn result(&self) -> CoreResult {
        self.finish()
    }
}

impl BlockEngine for InOrderEngine {
    fn fresh() -> Self {
        InOrderEngine::new(InOrderConfig::default())
    }

    #[inline(always)]
    fn step_inst<F: FnMut(u64) -> MemResponse>(
        &mut self,
        dst: Option<u8>,
        srcs: [Option<u8>; 2],
        mem_store: Option<bool>,
        exec_latency: u64,
        mem: F,
    ) {
        self.step(dst, srcs, mem_store, exec_latency, mem);
    }

    #[inline]
    fn step_run(&mut self, metas: &[u32]) {
        InOrderEngine::step_run(self, metas);
    }

    fn result(&self) -> CoreResult {
        self.finish()
    }
}

// ---------------------------------------------------------------------------
// The kernel
// ---------------------------------------------------------------------------

/// Replay up to `limit` instructions from `cursor` through `machine` on
/// the system's core model, in blocks, translating from `xlat`, which
/// must decode the stream built for the same trace and sit at the same
/// memory reference as `cursor`. Pass `usize::MAX` to drain the cursor.
/// Both cursors stop exactly at the boundary, so warmup and measurement
/// are separate calls; the outcomes decoded in a call are added to the
/// machine's TLB statistics before it returns.
///
/// # Panics
///
/// Panics if the stream was built for a different TLB configuration
/// than the machine's.
pub(crate) fn replay(
    system: SystemKind,
    machine: &mut Machine,
    cursor: &mut TraceCursor<'_>,
    xlat: &mut StreamCursor<'_>,
    limit: usize,
) -> CoreResult {
    assert_eq!(
        xlat.config(),
        machine.tlb.config(),
        "translation stream built for a different TLB configuration"
    );
    // One match per *run*: 2 systems x 6 policies, each arm a fully
    // monomorphized kernel instance.
    macro_rules! dispatch_policies {
        ($engine:ty) => {
            match machine.l1.config().policy {
                L1Policy::Vipt => {
                    replay_mono::<$engine, policy_tags::Vipt>(machine, cursor, xlat, limit)
                }
                L1Policy::Ideal => {
                    replay_mono::<$engine, policy_tags::Ideal>(machine, cursor, xlat, limit)
                }
                L1Policy::Pipt => {
                    replay_mono::<$engine, policy_tags::Pipt>(machine, cursor, xlat, limit)
                }
                L1Policy::SiptNaive => {
                    replay_mono::<$engine, policy_tags::SiptNaive>(machine, cursor, xlat, limit)
                }
                L1Policy::SiptBypass => {
                    replay_mono::<$engine, policy_tags::SiptBypass>(machine, cursor, xlat, limit)
                }
                L1Policy::SiptCombined => {
                    replay_mono::<$engine, policy_tags::SiptCombined>(machine, cursor, xlat, limit)
                }
            }
        };
    }
    let core = match system {
        SystemKind::OooThreeLevel => dispatch_policies!(OooEngine),
        SystemKind::InOrderTwoLevel => dispatch_policies!(InOrderEngine),
    };
    machine.tlb.record(xlat.take_stats());
    core
}

/// Replay a whole materialized trace through `machine` — the public entry
/// point for external traces (`trace_tool replay`, differential tests).
/// The translation stream is built through the machine's own TLB, so
/// replaying twice on one machine sees the TLB the first replay warmed.
///
/// # Errors
///
/// [`SimError::Trace`] when the trace references an unmapped virtual
/// address — external trace files are untrusted input, so a bad trace is
/// a typed, *non-retryable* error rather than a panic.
pub fn replay_trace(
    system: SystemKind,
    machine: &mut Machine,
    trace: &MaterializedTrace,
    workload: &str,
) -> Result<CoreResult, SimError> {
    let Machine { asp, tlb, xlat, .. } = machine;
    let stream =
        TranslationStream::build(tlb, trace.mem_vas(), |va| xlat.translate(asp.page_table(), va))
            .map_err(|fault| SimError::trace(workload, fault.to_string()))?;
    Ok(replay(system, machine, &mut trace.cursor(), &mut stream.cursor(), usize::MAX))
}

/// Build `trace`'s translation stream on a cold TLB of the configuration
/// [`Machine::new`] uses: what every run replaying `trace` from its start
/// on a fresh [`Machine`] decodes. Walks go straight to the page table.
///
/// # Errors
///
/// [`PageFault`] at the first unmapped address.
pub(crate) fn cold_translations(
    asp: &AddressSpace,
    trace: &MaterializedTrace,
) -> Result<TranslationStream, PageFault> {
    let mut tlb = DataTlb::new(TlbConfig::default());
    TranslationStream::build(&mut tlb, trace.mem_vas(), |va| asp.page_table().translate(va))
}

/// The monomorphized kernel body: everything the per-access path did, with
/// translation decoded from the stream and the policy constant-folded.
fn replay_mono<E: BlockEngine, P: PolicyTag>(
    machine: &mut Machine,
    cursor: &mut TraceCursor<'_>,
    xlat: &mut StreamCursor<'_>,
    limit: usize,
) -> CoreResult {
    let batch = replay_batch();
    let mut engine = E::fresh();
    // Predictor staging: sweep (pc, unchanged) windows through the fused
    // bank ahead of the timing loop (lazily, inside `step_block`, so the
    // scratch stays cache-resident). `unchanged` derives from the decoded
    // translations alone, so staging needs nothing from timing.
    let staging = predictor_stage_enabled() && machine.l1().staging_eligible();
    let mut preds = BlockPredictions::new();
    // Telemetry mode is a property of the attachment, fixed for the run:
    // block accumulation when the tracer retains nothing and sampling is
    // 1:1 (the runner's default), per-access recording otherwise.
    let block_tlm = machine.l1().telemetry_block_eligible();
    let mut blk = BlockTelemetry::new();
    let Machine { l1, lower, .. } = machine;
    // Decode on a local copy, written back at the end, so the cursor's
    // fields can live in registers across the timing loop.
    let mut x = *xlat;
    let mut remaining = limit;
    while remaining > 0 {
        let Some(block) = cursor.next_block(batch.min(remaining)) else { break };
        remaining -= block.len();
        // Step the timing engine over the block (staging the predictor
        // front-end in windows as it goes), then drain the block-local
        // telemetry (if engaged) in one merge.
        if block_tlm {
            step_block::<E, P, true>(
                &mut engine,
                l1,
                lower,
                &block,
                &mut x,
                staging,
                &mut preds,
                &mut blk,
            );
            l1.flush_block_telemetry(&mut blk);
        } else {
            step_block::<E, P, false>(
                &mut engine,
                l1,
                lower,
                &block,
                &mut x,
                staging,
                &mut preds,
                &mut blk,
            );
        }
    }
    *xlat = x;
    engine.result()
}

/// Step the timing engine over one block. Memory instructions take their
/// translations from `xlat` in order; the memory closure is the body of
/// `Machine::access` minus the TLB probe. `BLK_TLM` selects block-local
/// telemetry accumulation at compile time, so the per-access path carries
/// no telemetry-mode branch in either instance.
#[inline]
#[allow(clippy::too_many_arguments)] // the kernel's block entry: every argument is distinct per-block state
fn step_block<E: BlockEngine, P: PolicyTag, const BLK_TLM: bool>(
    engine: &mut E,
    l1: &mut SiptL1,
    lower: &mut LowerHierarchy<Dram>,
    block: &InstBlock<'_>,
    xlat: &mut StreamCursor<'_>,
    staging: bool,
    preds: &mut BlockPredictions,
    blk: &mut BlockTelemetry,
) {
    let meta = block.meta;
    let mut mem_idx = 0usize;
    let mut stage_next = 0usize;
    let mut i = 0usize;
    while i < meta.len() {
        if !meta_has_mem(meta[i]) {
            // A run of non-memory instructions. Long runs go to the
            // engine as a slice, which fast-forwards eligible chunks in
            // closed form and replays the rest exactly; short runs (the
            // common case between memory ops) step inline — the slice
            // hand-off's bookkeeping costs more than it can save below
            // the fast-path's own minimum run length.
            let start = i;
            i += 1;
            while i < meta.len() && !meta_has_mem(meta[i]) {
                i += 1;
            }
            let run = &meta[start..i];
            if run.len() >= RUN_FAST_MIN {
                engine.step_run(run);
            } else {
                for &m in run {
                    let (dst, srcs, _, exec_latency) = unpack_meta_fields(m);
                    engine.step_inst(dst, srcs, None, exec_latency, |_| -> MemResponse {
                        unreachable!("non-memory instruction")
                    });
                }
            }
            continue;
        }
        let (dst, srcs, mem_store, exec_latency) = unpack_meta_fields(meta[i]);
        let is_store = mem_store.expect("meta_has_mem guarantees a memory op");
        let pc = block.pcs[i];
        let va = VirtAddr::new(block.mem_vas[mem_idx]);
        if staging && mem_idx == stage_next {
            stage_next = stage_window(l1, block, *xlat, i, mem_idx, preds);
        }
        let outcome = xlat.translate(va);
        let staged = preds.get(mem_idx);
        mem_idx += 1;
        i += 1;
        engine.step_inst(dst, srcs, Some(is_store), exec_latency, |now| {
            let access = if BLK_TLM {
                l1.access_mono_block::<P>(
                    pc,
                    va,
                    outcome.translation,
                    outcome.cycles,
                    is_store,
                    staged,
                    blk,
                )
            } else {
                l1.access_mono_staged::<P>(
                    pc,
                    va,
                    outcome.translation,
                    outcome.cycles,
                    is_store,
                    staged,
                )
            };
            let mut latency = access.latency;
            if !access.hit {
                let line = LineAddr::of_phys(outcome.translation.pa);
                let service = lower.access(line, is_store, now + latency);
                latency += service.latency;
                if let Some(evicted) = l1.fill(line, is_store) {
                    if evicted.dirty {
                        lower.writeback(evicted.line);
                    }
                }
            }
            MemResponse { latency, port_slots: access.array_reads.max(1) }
        });
    }
    debug_assert_eq!(mem_idx, block.mem_vas.len(), "every memory VA consumed");
}

/// Memory accesses staged per window. Sized so the scratch (stamps +
/// records + gathered PCs/outcomes) stays L1-cache-resident next to the
/// block's SoA arrays, and so stamp invalidation — which only has to
/// cover trainings *within* the window, because the bank is exactly
/// current at each window start — voids few staged sums.
const STAGE_WINDOW: usize = 64;

/// Stage the next window of memory accesses starting at instruction
/// `inst_idx` (block-level memory-access index `mem_idx`): gather up to
/// [`STAGE_WINDOW`] (pc, unchanged) pairs ahead of the timing cursor,
/// decoding their translations on `xlat`, a copy of the kernel's stream
/// cursor at `mem_idx`, and sweep them through the fused predictor bank.
/// Returns the block-level access index at which the following window
/// begins.
fn stage_window(
    l1: &SiptL1,
    block: &InstBlock<'_>,
    mut xlat: StreamCursor<'_>,
    inst_idx: usize,
    mem_idx: usize,
    preds: &mut BlockPredictions,
) -> usize {
    let spec_bits = l1.speculative_bits();
    let meta = block.meta;
    let mut pcs = [0u64; STAGE_WINDOW];
    let mut unchanged = [false; STAGE_WINDOW];
    let mut n = 0usize;
    let mut mi = mem_idx;
    let mut i = inst_idx;
    while n < STAGE_WINDOW && i < meta.len() {
        if meta_has_mem(meta[i]) {
            pcs[n] = block.pcs[i];
            let va = VirtAddr::new(block.mem_vas[mi]);
            unchanged[n] = xlat.translate(va).translation.index_bits_unchanged(va, spec_bits);
            mi += 1;
            n += 1;
        }
        i += 1;
    }
    l1.stage_block(&pcs[..n], &unchanged[..n], mem_idx, preds);
    mem_idx + n
}

#[cfg(test)]
mod tests {
    use super::*;
    use sipt_core::{sipt_32k_2w, L1Config};
    use sipt_cpu::Inst;
    use sipt_mem::{AddressSpace, BuddyAllocator, PlacementPolicy};
    use sipt_workloads::{benchmark, TraceGen};

    fn prepared(name: &str, n: u64) -> (AddressSpace, MaterializedTrace) {
        let spec = benchmark(name).unwrap();
        let mut phys = BuddyAllocator::with_bytes(1 << 30);
        let mut asp = AddressSpace::new(0, PlacementPolicy::LinuxDefault);
        let gen = TraceGen::build(&spec, &mut asp, &mut phys, n, 42).unwrap();
        (asp, MaterializedTrace::from_gen(gen))
    }

    fn run_block(
        system: SystemKind,
        l1: L1Config,
        asp: AddressSpace,
        trace: &MaterializedTrace,
        warmup: usize,
    ) -> (CoreResult, Machine) {
        let stream = cold_translations(&asp, trace).unwrap();
        let mut machine = Machine::new(asp, l1, system);
        let mut cursor = trace.cursor();
        let mut xlat = stream.cursor();
        replay(system, &mut machine, &mut cursor, &mut xlat, warmup);
        machine.reset_stats();
        let core = replay(system, &mut machine, &mut cursor, &mut xlat, usize::MAX);
        assert!(xlat.is_exhausted(), "every translation consumed");
        (core, machine)
    }

    fn run_per_access(
        system: SystemKind,
        l1: L1Config,
        asp: AddressSpace,
        trace: &MaterializedTrace,
        warmup: usize,
    ) -> (CoreResult, Machine) {
        let mut machine = Machine::new(asp, l1, system);
        let mut cursor = trace.cursor();
        crate::runner::run_core(system, (&mut cursor).take(warmup), &mut machine);
        machine.reset_stats();
        let core = crate::runner::run_core(system, cursor, &mut machine);
        assert!(machine.take_fault().is_none());
        (core, machine)
    }

    fn assert_same_machines(a: &Machine, b: &Machine, tag: &str) {
        assert_eq!(a.l1().stats(), b.l1().stats(), "{tag}");
        assert_eq!(a.tlb().stats(), b.tlb().stats(), "{tag}");
        assert_eq!(a.lower().llc_stats(), b.lower().llc_stats(), "{tag}");
    }

    /// The load-bearing invariant: the block kernel is bit-identical to
    /// per-access replay — same core counts and same per-structure stats —
    /// for every system, representative policies, and batch sizes
    /// bracketing the block boundary cases.
    #[test]
    fn block_kernel_matches_per_access_replay() {
        use sipt_core::baseline_32k_8w_vipt;
        let cases = [
            (SystemKind::OooThreeLevel, sipt_32k_2w()),
            (SystemKind::OooThreeLevel, baseline_32k_8w_vipt()),
            (SystemKind::InOrderTwoLevel, sipt_32k_2w()),
        ];
        for (system, l1) in cases {
            let policy = l1.policy;
            let (asp_ref, trace) = prepared("mcf", 12_000);
            let (ref_core, ref_machine) =
                run_per_access(system, l1.clone(), asp_ref, &trace, 3_000);
            for batch in [1usize, 7, 256] {
                set_replay_batch(batch);
                let (asp, trace2) = prepared("mcf", 12_000);
                assert_eq!(trace2, trace, "preparation is deterministic");
                let (core, machine) = run_block(system, l1.clone(), asp, &trace2, 3_000);
                let tag = format!("{system:?}/{policy:?} batch {batch}");
                assert_eq!(core, ref_core, "{tag}");
                assert_same_machines(&machine, &ref_machine, &tag);
            }
            set_replay_batch(DEFAULT_REPLAY_BATCH);
        }
    }

    /// `replay_trace` translates through the machine's own TLB, so a
    /// second replay on the same machine starts from the TLB the first
    /// one warmed — exactly as the per-access path run twice does.
    #[test]
    fn replay_trace_twice_matches_per_access_twice() {
        for system in [SystemKind::OooThreeLevel, SystemKind::InOrderTwoLevel] {
            let (asp, trace) = prepared("omnetpp", 6_000);
            let mut block = Machine::new(asp.clone(), sipt_32k_2w(), system);
            let mut reference = Machine::new(asp, sipt_32k_2w(), system);
            for pass in 0..2 {
                let core = replay_trace(system, &mut block, &trace, "test").unwrap();
                let ref_core = crate::runner::run_core(system, trace.cursor(), &mut reference);
                assert!(reference.take_fault().is_none());
                let tag = format!("{system:?} pass {pass}");
                assert_eq!(core, ref_core, "{tag}");
                assert_same_machines(&block, &reference, &tag);
            }
        }
    }

    #[test]
    fn unmapped_va_surfaces_as_typed_trace_error() {
        let (asp, _) = prepared("mcf", 100);
        let bogus = MaterializedTrace::from_insts(vec![Inst::load(
            0x40,
            1,
            None,
            VirtAddr::new(0xdead_0000_0000),
        )]);
        let mut machine = Machine::new(asp, sipt_32k_2w(), SystemKind::OooThreeLevel);
        let err =
            replay_trace(SystemKind::OooThreeLevel, &mut machine, &bogus, "bad-trace").unwrap_err();
        assert!(matches!(err, SimError::Trace { .. }), "{err}");
        let msg = err.to_string();
        assert!(msg.contains("bad-trace") && msg.contains("page fault"), "{msg}");
    }

    #[test]
    fn limit_zero_runs_nothing() {
        let (asp, trace) = prepared("sjeng", 500);
        let stream = cold_translations(&asp, &trace).unwrap();
        let mut machine = Machine::new(asp, sipt_32k_2w(), SystemKind::OooThreeLevel);
        let mut cursor = trace.cursor();
        let mut xlat = stream.cursor();
        let core = replay(SystemKind::OooThreeLevel, &mut machine, &mut cursor, &mut xlat, 0);
        assert_eq!(core.instructions, 0);
        // Neither cursor advanced: a full drain still sees everything.
        let rest =
            replay(SystemKind::OooThreeLevel, &mut machine, &mut cursor, &mut xlat, usize::MAX);
        assert_eq!(rest.instructions, 500);
        assert!(xlat.is_exhausted());
    }

    #[test]
    fn batch_knob_resolution_order() {
        set_replay_batch(17);
        assert_eq!(replay_batch(), 17);
        set_replay_batch(0); // clears the override back to env/default
        set_replay_batch(DEFAULT_REPLAY_BATCH);
        assert_eq!(replay_batch(), DEFAULT_REPLAY_BATCH);
    }
}
