//! Golden-fingerprint pin for the per-access kernel.
//!
//! The data-oriented hot path (packed SoA cache arrays, monomorphized
//! replacement, inlined TLB fast path) is a *wall-clock* optimization: it
//! must keep every simulated metric bit-identical. This test renders the
//! exact payload bytes of fig02 (ideal-config IPC sweep) and of a
//! bypass-predictor ablation at smoke scale, hashes them, and compares
//! against fingerprints recorded from the pre-rewrite pointer-chasing
//! kernel. A future kernel change that alters simulated behaviour — a
//! different victim, a different latency, a reordered RNG draw — fails
//! loudly here instead of silently shifting the science.
//!
//! If a change *intends* to alter simulated behaviour, regenerate the
//! constants below (the failure message prints the observed values) and
//! say so in the commit message.

use sipt_core::{sipt_32k_2w, BypassKind, L1Policy};
use sipt_sim::experiments::{ideal, report, smoke_benchmarks};
use sipt_sim::{
    prep_cache, run_mix, set_jobs, set_predictor_stage, set_replay_batch, Condition, RunMetrics,
    Sweep, SystemKind, DEFAULT_REPLAY_BATCH,
};
use sipt_telemetry::json::Json;
use std::sync::{Mutex, PoisonError};

/// FNV-1a 64-bit, stable across platforms — the fingerprint function.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Serialize on one gate (jobs and the prep cache are process-wide) and
/// restore defaults afterwards, mirroring `prep_cache_determinism.rs`.
fn with_exclusive_state<R>(f: impl FnOnce() -> R) -> R {
    static GATE: Mutex<()> = Mutex::new(());
    let _gate = GATE.lock().unwrap_or_else(PoisonError::into_inner);
    prep_cache::clear();
    prep_cache::set_enabled(true);
    let out = f();
    prep_cache::clear();
    prep_cache::set_enabled(true);
    set_jobs(1);
    set_replay_batch(DEFAULT_REPLAY_BATCH);
    set_predictor_stage(false);
    out
}

/// fig02's exact payload bytes at smoke scale.
fn fig02_payload() -> String {
    report::ideal_json(&ideal::fig2(&smoke_benchmarks(), &Condition::quick())).render()
}

/// Per-run summaries of the bypass-predictor ablation (perceptron vs
/// counter), with the host-time-dependent `phases` object masked.
fn ablation_payload() -> String {
    let cond = Condition::quick();
    let mut sweep = Sweep::new();
    for &bench in &smoke_benchmarks() {
        sweep.bench(
            bench,
            sipt_32k_2w().with_policy(L1Policy::SiptBypass),
            SystemKind::OooThreeLevel,
            &cond,
        );
        sweep.bench(
            bench,
            sipt_32k_2w().with_policy(L1Policy::SiptBypass).with_bypass(BypassKind::Counter),
            SystemKind::OooThreeLevel,
            &cond,
        );
    }
    sweep.run().metrics.iter().map(masked_report).collect::<Vec<_>>().join("\n")
}

fn masked_report(m: &RunMetrics) -> String {
    let mut json = report::run_summary_json(m);
    json.insert("phases", Json::str("masked"));
    json.render()
}

/// Golden fingerprints recorded from the pre-SoA kernel (PR 4 tree).
/// Simulated payloads must never drift from these without an explicit,
/// intentional re-pin.
const FIG02_GOLDEN_FNV1A: u64 = 0xF633_03AE_7922_41E7;
const ABLATION_GOLDEN_FNV1A: u64 = 0x1FC8_C2BB_ABEE_D104;

#[test]
fn fig02_payload_matches_golden_fingerprint() {
    with_exclusive_state(|| {
        set_jobs(1);
        let payload = fig02_payload();
        let got = fnv1a(payload.as_bytes());
        assert_eq!(
            got, FIG02_GOLDEN_FNV1A,
            "fig02 payload fingerprint drifted: observed {got:#018x} \
             (expected {FIG02_GOLDEN_FNV1A:#018x}). The kernel changed simulated \
             behaviour; payload was:\n{payload}"
        );
    });
}

#[test]
fn ablation_payload_matches_golden_fingerprint() {
    with_exclusive_state(|| {
        set_jobs(1);
        let payload = ablation_payload();
        let got = fnv1a(payload.as_bytes());
        assert_eq!(
            got, ABLATION_GOLDEN_FNV1A,
            "ablation payload fingerprint drifted: observed {got:#018x} \
             (expected {ABLATION_GOLDEN_FNV1A:#018x}). The kernel changed simulated \
             behaviour; payload was:\n{payload}"
        );
    });
}

/// The fingerprints must be jobs-independent: a parallel sweep replays the
/// same simulations in the same submission order.
#[test]
fn fig02_fingerprint_is_jobs_independent() {
    with_exclusive_state(|| {
        set_jobs(4);
        let got = fnv1a(fig02_payload().as_bytes());
        assert_eq!(got, FIG02_GOLDEN_FNV1A, "fig02 payload drifted under --jobs 4");
    });
}

/// The block-replay kernel's batch size shapes only *when* translations
/// are computed, never *what* they compute: every batch size, crossed
/// with serial and parallel sweeps, must reproduce the per-access
/// golden fingerprint byte for byte.
#[test]
fn fig02_fingerprint_is_batch_size_independent() {
    with_exclusive_state(|| {
        for batch in [1, 7, 256] {
            for jobs in [1, 8] {
                set_replay_batch(batch);
                set_jobs(jobs);
                let got = fnv1a(fig02_payload().as_bytes());
                assert_eq!(
                    got, FIG02_GOLDEN_FNV1A,
                    "fig02 payload drifted at replay batch {batch}, jobs {jobs}"
                );
            }
        }
    });
}

/// Block-staging the predictor front-end (`SIPT_PREDICTOR_STAGE` /
/// `set_predictor_stage`) moves *when* predictor rows are read — batched
/// ahead of the timing loop instead of inline — never what they answer:
/// with staging forced on, fig02 must reproduce the golden fingerprint
/// at every batch size × job count. (The ideal configs never stage, so
/// this also pins the knob as a no-op where staging is ineligible.)
#[test]
fn fig02_fingerprint_is_predictor_staging_independent() {
    with_exclusive_state(|| {
        set_predictor_stage(true);
        for batch in [1, 7, 256] {
            for jobs in [1, 8] {
                set_replay_batch(batch);
                set_jobs(jobs);
                let got = fnv1a(fig02_payload().as_bytes());
                assert_eq!(
                    got, FIG02_GOLDEN_FNV1A,
                    "fig02 payload drifted with predictor staging on at batch {batch}, jobs {jobs}"
                );
            }
        }
    });
}

/// The staging-on sweep that bites: the ablation payload's SiptBypass ×
/// perceptron runs are staging-eligible, so with the knob forced on the
/// replay loop actually routes through `stage_block` + staged
/// `combined_access` — and must still land on the golden bytes at every
/// batch size (including batch 1, where every window is a single access).
#[test]
fn ablation_fingerprint_is_predictor_staging_independent() {
    with_exclusive_state(|| {
        set_predictor_stage(true);
        for batch in [1, 7, 256] {
            set_replay_batch(batch);
            set_jobs(1);
            let got = fnv1a(ablation_payload().as_bytes());
            assert_eq!(
                got, ABLATION_GOLDEN_FNV1A,
                "ablation payload drifted with predictor staging on at batch {batch}"
            );
        }
    });
}

/// Same batch-size sweep over the ablation payload, which exercises the
/// bypass-predictor policies (SiptBypass × perceptron/counter) the fig02
/// ideal sweep does not.
#[test]
fn ablation_fingerprint_is_batch_size_independent() {
    with_exclusive_state(|| {
        for batch in [1, 7, 256] {
            set_replay_batch(batch);
            set_jobs(1);
            let got = fnv1a(ablation_payload().as_bytes());
            assert_eq!(
                got, ABLATION_GOLDEN_FNV1A,
                "ablation payload drifted at replay batch {batch}"
            );
        }
    });
}

/// Quad-core mix payload (per-core masked summaries) at quick scale.
fn mix_payload() -> String {
    let cond = Condition {
        memory_bytes: 4 << 30,
        instructions: 15_000,
        warmup: 5_000,
        ..Condition::default()
    };
    let m = run_mix("mix0", sipt_32k_2w(), &cond);
    m.cores.iter().map(masked_report).collect::<Vec<_>>().join("\n")
}

/// Golden fingerprint of the quad-core mix0 payload, recorded from the
/// serial (jobs = 1) core loop.
const MIX0_GOLDEN_FNV1A: u64 = 0xDA94_3467_A785_4105;

/// Intra-run core sharding (each core of a quad-core mix on its own
/// thread) must reproduce the serial golden fingerprint: private
/// hierarchies share no state, so the payload is bit-identical by
/// construction — and pinned here so it stays that way.
#[test]
fn quadcore_mix_fingerprint_is_sharding_independent() {
    with_exclusive_state(|| {
        set_jobs(1);
        let serial = mix_payload();
        let got = fnv1a(serial.as_bytes());
        assert_eq!(
            got, MIX0_GOLDEN_FNV1A,
            "serial mix0 payload fingerprint drifted: observed {got:#018x} \
             (expected {MIX0_GOLDEN_FNV1A:#018x}); payload was:\n{serial}"
        );
        set_jobs(8);
        let sharded = fnv1a(mix_payload().as_bytes());
        assert_eq!(sharded, MIX0_GOLDEN_FNV1A, "intra-run core sharding changed the mix0 payload");
    });
}

/// Span tracing (`--trace-spans` / `SIPT_TRACE_SPANS=1`) is host-side
/// observability only: with the sink armed, the simulated payload must
/// stay bit-identical to the golden fingerprint recorded with tracing
/// off.
#[test]
fn fig02_fingerprint_is_unchanged_by_span_tracing() {
    with_exclusive_state(|| {
        sipt_telemetry::span::reset();
        sipt_telemetry::span::set_enabled(true);
        set_jobs(2);
        let payload = fig02_payload();
        let spans = sipt_telemetry::span::recorded();
        sipt_telemetry::span::set_enabled(false);
        sipt_telemetry::span::reset();
        let got = fnv1a(payload.as_bytes());
        assert!(spans > 0, "tracing was armed, so the sweep must record spans");
        assert_eq!(
            got, FIG02_GOLDEN_FNV1A,
            "span tracing changed the fig02 payload — instrumentation must be \
             invisible to the simulation"
        );
    });
}
