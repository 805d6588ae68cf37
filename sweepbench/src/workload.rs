//! The three benchmark workloads and one untraced repetition of each.
//!
//! A repetition starts from a cleared prep cache and runs the workload
//! exactly as its figure binary would, serially (one sweep worker):
//!
//! - `fig02_ideal`: the Fig 2 sweep — 26 benchmarks × (8-way VIPT baseline
//!   + five ideal-indexed L1s) on the OOO core (156 runs, 26 pairs);
//! - `fig18_sensitivity`: the Fig 18 sweep — 26 benchmarks × the four
//!   §VII.B conditions × {OOO, in-order} × (baseline + four SIPT-combined
//!   L1s) (1040 runs, 104 pairs);
//! - `fig05_prep`: the Fig 5 speculation profile of the 26 benchmarks at
//!   the default condition — timed `prep_cache::get_or_prepare`, then
//!   `speculation_profile` on the prepared workload.
//!
//! Every run yields a fingerprint of its simulated statistics; the
//! sweep's fingerprint folds them in submission order.

use crate::calibrate::{self, Probe};
use sipt_core::{baseline_32k_8w_vipt, table2_sipt_configs, L1Config};
use sipt_sim::experiments::{benchmark_names, ideal::ideal_configs};
use sipt_sim::{
    prep_cache, speculation_profile, Condition, RunMetrics, RunRequest, Sweep, SystemKind,
};
use sipt_sim::{PreparedWorkload, SpeculationProfile};
use sipt_workloads::{benchmark, WorkloadSpec};
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Fig02Ideal,
    Fig18Sensitivity,
    Fig05Prep,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::Fig02Ideal, Workload::Fig18Sensitivity, Workload::Fig05Prep];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig02Ideal => "fig02_ideal",
            Workload::Fig18Sensitivity => "fig18_sensitivity",
            Workload::Fig05Prep => "fig05_prep",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The runs of the workload's sweep, in the figure binary's
    /// submission order. `fig05_prep` has no timing runs.
    pub fn requests(self, seed: u64) -> Vec<RunRequest> {
        let base = Condition { seed, ..Condition::default() };
        let mut out = Vec::new();
        let mut push = |name: &'static str, l1: L1Config, system: SystemKind, cond: Condition| {
            let spec = benchmark(name).expect("roster names are benchmark presets");
            out.push(RunRequest { spec, l1, system, cond, label: name.to_owned() });
        };
        match self {
            Workload::Fig02Ideal => {
                for name in benchmark_names() {
                    push(name, baseline_32k_8w_vipt(), SystemKind::OooThreeLevel, base);
                    for cfg in ideal_configs() {
                        push(name, cfg, SystemKind::OooThreeLevel, base);
                    }
                }
            }
            Workload::Fig18Sensitivity => {
                // The loop nest of `experiments::sensitivity::fig18`.
                for system in [SystemKind::OooThreeLevel, SystemKind::InOrderTwoLevel] {
                    for (_, c) in Condition::sensitivity_sweep() {
                        let cond = Condition {
                            instructions: base.instructions,
                            warmup: base.warmup,
                            seed,
                            memory_bytes: c.memory_bytes.max(base.memory_bytes),
                            ..c
                        };
                        for name in benchmark_names() {
                            push(name, baseline_32k_8w_vipt(), system, cond);
                            for cfg in table2_sipt_configs() {
                                push(name, cfg, system, cond);
                            }
                        }
                    }
                }
            }
            Workload::Fig05Prep => {}
        }
        out
    }

    /// The distinct `(spec, condition)` pairs the workload prepares, in
    /// first-use order.
    pub fn pairs(self, seed: u64) -> Vec<(WorkloadSpec, Condition)> {
        if self == Workload::Fig05Prep {
            let cond = Condition { seed, ..Condition::default() };
            return benchmark_names()
                .into_iter()
                .map(|n| (benchmark(n).expect("roster names are benchmark presets"), cond))
                .collect();
        }
        let mut seen = HashSet::new();
        self.requests(seed)
            .into_iter()
            .filter(|r| seen.insert(prep_cache::fingerprint(&r.spec, &r.cond)))
            .map(|r| (r.spec, r.cond))
            .collect()
    }
}

/// FNV-1a over a sequence of 64-bit words.
pub fn fnv_words(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Fingerprint of one run's simulated statistics: cycles, instructions,
/// L1, TLB, L2, LLC and DRAM counts, and every energy component.
pub fn run_fingerprint(m: &RunMetrics) -> u64 {
    let s = &m.sipt;
    let level = |l: &sipt_cache::LevelStats| [l.accesses, l.hits, l.misses, l.fills, l.writebacks];
    let l2 = m.l2.as_ref().map_or([u64::MAX; 5], level);
    let e = &m.energy;
    let mut words = vec![m.core.instructions, m.core.cycles, m.core.mem_ops];
    words.extend([
        s.accesses,
        s.hits,
        s.misses,
        s.array_reads,
        s.extra_accesses,
        s.fast_accesses,
        s.correct_speculation,
        s.correct_bypass,
        s.opportunity_loss,
        s.idb_hits,
        s.writebacks,
    ]);
    words.extend([m.tlb.l1_hits, m.tlb.l2_hits, m.tlb.walks, m.tlb.faults]);
    words.extend(l2);
    words.extend(level(&m.llc));
    let d = &m.dram;
    words.extend([d.reads, d.writes, d.row_hits, d.row_closed, d.row_conflicts, d.queue_cycles]);
    words.extend(
        [
            e.l1_dynamic,
            e.l1_static,
            e.l2_dynamic,
            e.l2_static,
            e.llc_dynamic,
            e.llc_static,
            e.predictor,
        ]
        .map(f64::to_bits),
    );
    fnv_words(words)
}

/// Fingerprint of one Fig 5 profile.
pub fn profile_fingerprint(p: &SpeculationProfile) -> u64 {
    let u = p.unchanged.map(f64::to_bits);
    fnv_words([u[0], u[1], u[2], p.hugepage.to_bits(), p.accesses])
}

/// What one repetition measured, run by run.
#[derive(Debug, Default)]
pub struct Rep {
    /// Wall time of the call that executed the run, milliseconds.
    pub call_ms: Vec<f64>,
    /// Milliseconds spent preparing the workload (the run's
    /// `PhaseProfile.allocate_ms`; for `fig05_prep` the timed
    /// `prep_cache::get_or_prepare` call).
    pub setup_ms: Vec<f64>,
    /// Milliseconds outside setup (warmup + measure; for `fig05_prep`
    /// the profile pass).
    pub sim_ms: Vec<f64>,
    /// Host slowdown around the run, from the probe.
    pub slowdown: Vec<f64>,
    /// Simulated instructions outside setup, all runs.
    pub sim_insts: u64,
    /// Statistics fingerprints, in submission order.
    pub fingerprints: Vec<u64>,
    /// Runs that errored or panicked.
    pub errors: usize,
    /// `prep_cache::stats()` after the repetition.
    pub prep_hits: u64,
    pub prep_misses: u64,
    /// The sweep's metrics (empty for `fig05_prep`).
    pub metrics: Vec<RunMetrics>,
}

impl Rep {
    /// Fingerprint of the whole repetition.
    pub fn fingerprint(&self) -> u64 {
        fnv_words(self.fingerprints.iter().copied())
    }

    /// Workload wall time as measured (probes excluded), seconds.
    pub fn wall_s(&self) -> f64 {
        self.call_ms.iter().sum::<f64>() / 1e3
    }

    /// Workload wall time in reference-host seconds.
    pub fn normalized_wall_s(&self) -> f64 {
        self.call_ms.iter().zip(&self.slowdown).map(|(t, s)| t / s).sum::<f64>() / 1e3
    }

    /// Record one run's host times, with the probe times before and
    /// after it.
    fn push_times(&mut self, call_ms: f64, setup_ms: f64, sim_ms: f64, probes: (f64, f64)) {
        self.call_ms.push(call_ms);
        self.setup_ms.push(setup_ms);
        self.sim_ms.push(sim_ms);
        self.slowdown.push(calibrate::slowdown((probes.0 + probes.1) / 2.0));
    }
}

/// Run one repetition of `workload` from a cleared prep cache, timing
/// `probe` between runs.
pub fn run_rep(workload: Workload, seed: u64, probe: &mut Probe) -> Rep {
    prep_cache::clear();
    let rep = match workload {
        Workload::Fig05Prep => run_profiles(seed, probe),
        _ => run_sweep(workload.requests(seed), probe),
    };
    let stats = prep_cache::stats();
    Rep { prep_hits: stats.hits, prep_misses: stats.misses, ..rep }
}

/// A sweep through the public [`Sweep`] API on one worker, one run
/// per call so that the host probe can run between runs. The prep cache
/// is process-wide, so hits and misses are those of a single sweep.
pub fn run_sweep(requests: Vec<RunRequest>, probe: &mut Probe) -> Rep {
    let mut rep = Rep::default();
    let mut before = probe.time_s();
    for request in requests {
        let warmup = request.cond.warmup;
        let mut sweep = Sweep::new();
        sweep.push(request);
        let t0 = Instant::now();
        let mut result = sweep.run_with_jobs(1);
        let call_ms = t0.elapsed().as_secs_f64() * 1e3;
        let after = probe.time_s();
        rep.errors += result.failures.len();
        let m = result.metrics.pop().expect("one metrics slot per request");
        let p = &m.phases;
        rep.push_times(call_ms, p.allocate_ms, p.warmup_ms + p.measure_ms, (before, after));
        rep.sim_insts += m.core.instructions + warmup;
        rep.fingerprints.push(run_fingerprint(&m));
        rep.metrics.push(m);
        before = after;
    }
    rep
}

/// The Fig 5 profile pass: each benchmark is prepared through the prep
/// cache (timed as setup), then profiled from the cached preparation.
fn run_profiles(seed: u64, probe: &mut Probe) -> Rep {
    let cond = Condition { seed, ..Condition::default() };
    let mut rep = Rep::default();
    let mut before = probe.time_s();
    for name in benchmark_names() {
        let t_run = Instant::now();
        let spec = benchmark(name).expect("roster names are benchmark presets");
        let prepared = prep_cache::get_or_prepare(&spec, &cond);
        let t_prep = Instant::now();
        let profile = match prepared {
            Ok(_) => catch_unwind(AssertUnwindSafe(|| speculation_profile(name, &cond))).ok(),
            Err(_) => None,
        };
        let t_end = Instant::now();
        let after = probe.time_s();
        let ms = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64() * 1e3;
        rep.push_times(ms(t_run, t_end), ms(t_run, t_prep), ms(t_prep, t_end), (before, after));
        before = after;
        match profile {
            Some(p) => {
                rep.sim_insts += cond.instructions;
                rep.fingerprints.push(profile_fingerprint(&p));
            }
            None => {
                rep.errors += 1;
                rep.fingerprints.push(0);
            }
        }
    }
    rep
}

/// Independent re-check of a sample of the workload's outputs, outside
/// any timed region. Sweep runs are re-run on the per-access reference
/// loop (`run_spec_per_access`) and must match the block kernel's
/// statistics; Fig 5 profiles are recomputed by walking the page table
/// directly. Returns `(checked, mismatched)`.
pub fn oracle_check(workload: Workload, seed: u64, rep: &Rep) -> (usize, usize) {
    if workload == Workload::Fig05Prep {
        let mut mismatched = 0;
        let pairs = workload.pairs(seed);
        for ((spec, cond), &fp) in pairs.iter().zip(&rep.fingerprints) {
            let ok = prep_cache::get_or_prepare(spec, cond)
                .map(|p| profile_fingerprint(&page_table_profile(&p, cond)) == fp)
                .unwrap_or(false);
            mismatched += usize::from(!ok);
        }
        return (pairs.len(), mismatched);
    }
    let requests = workload.requests(seed);
    // Three runs spread over the sweep, off the baseline configuration.
    let picks: Vec<usize> = (0..3).map(|k| (2 * k + 1) * requests.len() / 6 + 1).collect();
    let mut mismatched = 0;
    for &i in &picks {
        let r = &requests[i];
        let ok = sipt_sim::run_spec_per_access(&r.spec, r.l1.clone(), r.system, &r.cond)
            .map(|m| run_fingerprint(&m) == rep.fingerprints[i])
            .unwrap_or(false);
        mismatched += usize::from(!ok);
    }
    (picks.len(), mismatched)
}

/// Fig 5's profile recomputed without the translation cache: one
/// page-table lookup per measured memory access.
fn page_table_profile(p: &Arc<PreparedWorkload>, cond: &Condition) -> SpeculationProfile {
    let pt = p.asp.page_table();
    let (mut counts, mut huge, mut total) = ([0u64; 3], 0u64, 0u64);
    for inst in p.trace.cursor().skip(cond.warmup as usize) {
        let Some(mem) = inst.mem else { continue };
        let Some(t) = pt.translate(mem.va) else { return SpeculationProfile::default() };
        total += 1;
        for (i, c) in counts.iter_mut().enumerate() {
            *c += u64::from(t.index_bits_unchanged(mem.va, i as u32 + 1));
        }
        huge += u64::from(t.page_size == sipt_mem::PageSize::Huge2M);
    }
    let frac = |c: u64| if total == 0 { 0.0 } else { c as f64 / total as f64 };
    SpeculationProfile {
        unchanged: [frac(counts[0]), frac(counts[1]), frac(counts[2])],
        hugepage: frac(huge),
        accesses: total,
    }
}
