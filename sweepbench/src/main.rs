//! End-to-end and per-layer benchmark of the SIPT figure sweeps.
//!
//! ```text
//! cargo run --release --manifest-path sweepbench/Cargo.toml -- \
//!     --workload fig02_ideal --seed 42 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` repeats the workload from a cleared prep cache for
//! `--seconds` seconds (at least once) and reports the end-to-end
//! metrics. `--trace 1` runs the workload once untraced and once with the
//! span sink on, then times each layer in its own traced pass (see
//! `layers.rs`) and reports the per-layer metrics. Both check every run's
//! simulated-statistics fingerprint and print, as the last line, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. The exit code
//! is 0 only when every run passed.

mod calibrate;
mod layers;
mod workload;

use sipt_telemetry::json::{self, Json};
use std::time::Instant;
use workload::{oracle_check, run_rep, Rep, Workload};

/// Expected fingerprints for the development and held-out seeds.
const RECORDED: &str = include_str!("../fingerprints.json");

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ! {
    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!(
        "usage: sweepbench --workload <{}> --seed <u64> --seconds <n> --trace <0|1>",
        names.join("|")
    );
    std::process::exit(2);
}

impl Args {
    fn parse() -> Args {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let (mut workload, mut seed, mut seconds, mut trace) = (None, 42, 10.0, false);
        for pair in argv.chunks(2) {
            let [flag, value] = pair else { usage() };
            match flag.as_str() {
                "--workload" => {
                    workload = Some(Workload::from_name(value).unwrap_or_else(|| usage()))
                }
                "--seed" => seed = value.parse().unwrap_or_else(|_| usage()),
                "--seconds" => seconds = value.parse().unwrap_or_else(|_| usage()),
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => usage(),
                    }
                }
                _ => usage(),
            }
        }
        Args { workload: workload.unwrap_or_else(|| usage()), seed, seconds, trace }
    }
}

/// The recorded fingerprint of `workload` at `seed`, if any.
fn recorded_fingerprint(workload: Workload, seed: u64) -> Option<u64> {
    let doc = json::parse(RECORDED).expect("fingerprints.json is valid JSON");
    let hex = doc.get("fingerprints")?.get(workload.name())?.get(&seed.to_string())?.as_str()?;
    u64::from_str_radix(hex.trim_start_matches("0x"), 16).ok()
}

/// Host times of a workload in reference-host seconds.
///
/// Every run's times are divided by the host slowdown the probe measured
/// around it; each metric then takes, run by run, the median over the
/// repetitions and sums those. The raw per-repetition figures go to the
/// record.
struct Normalized {
    wall_s: f64,
    setup_s: f64,
    sim_mips: f64,
    run_ms: Vec<f64>,
}

impl Normalized {
    fn of(reps: &[Rep]) -> Normalized {
        let per_run = |f: &dyn Fn(&Rep, usize) -> f64| -> Vec<f64> {
            let median = |i| {
                quantile(&reps.iter().map(|r| f(r, i) / r.slowdown[i]).collect::<Vec<_>>(), 0.5)
            };
            (0..reps[0].call_ms.len()).map(median).collect()
        };
        let sum_s = |v: &[f64]| v.iter().sum::<f64>() / 1e3;
        let sim_s = sum_s(&per_run(&|r, i| r.sim_ms[i]));
        Normalized {
            wall_s: sum_s(&per_run(&|r, i| r.call_ms[i])),
            setup_s: sum_s(&per_run(&|r, i| r.setup_ms[i])),
            sim_mips: reps[0].sim_insts as f64 / sim_s / 1e6,
            run_ms: per_run(&|r, i| r.setup_ms[i] + r.sim_ms[i]),
        }
    }
}

/// Runs attempted and failed.
#[derive(Default)]
struct Ledger {
    attempted: usize,
    failed: usize,
}

impl Ledger {
    /// Account one repetition: its errors, plus every run whose
    /// fingerprint differs from the reference repetition's — or, when the
    /// repetition's whole fingerprint differs from the recorded one, all
    /// of its runs.
    fn check(&mut self, rep: &Rep, reference: &Rep, recorded: Option<u64>) {
        let runs = rep.fingerprints.len();
        let differ = rep.fingerprints.iter().zip(&reference.fingerprints).filter(|(a, b)| a != b);
        let bad = match recorded {
            Some(fp) if fp != rep.fingerprint() => runs,
            _ => (rep.errors + differ.count()).min(runs),
        };
        self.attempted += runs;
        self.failed += bad;
    }
}

/// Linear-interpolated quantile of `v` (`q` in `[0, 1]`).
fn quantile(v: &[f64], q: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    if s.is_empty() {
        return 0.0;
    }
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// `{n, median, q1, q3}` of a sample, for the run record.
fn distribution(v: &[f64]) -> Json {
    Json::obj([
        ("n", Json::u64(v.len() as u64)),
        ("median", Json::num(quantile(v, 0.5))),
        ("q1", Json::num(quantile(v, 0.25))),
        ("q3", Json::num(quantile(v, 0.75))),
    ])
}

fn load_average() -> Json {
    let text = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
    Json::arr(text.split_whitespace().take(3).filter_map(|t| t.parse().ok()).map(Json::num))
}

fn cpu_model() -> String {
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or_else(|| "unknown".to_owned(), |m| m.trim().to_owned())
}

/// The process's resident-set high-water mark, MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::num(value)), ("unit", Json::str(unit))])
}

fn main() {
    let args = Args::parse();
    let load_before = load_average();
    sipt_sim::prep_cache::set_enabled(true);
    let (w, seed) = (args.workload, args.seed);
    let recorded = recorded_fingerprint(w, seed);
    let mut ledger = Ledger::default();
    let mut probe = calibrate::Probe::new();
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    let mut samples: Vec<(&str, Json)> = Vec::new();

    let reference = if args.trace {
        let untraced = run_rep(w, seed, &mut probe);
        ledger.check(&untraced, &untraced, recorded);
        sipt_telemetry::span::reset();
        sipt_telemetry::span::set_enabled(true);
        let traced = run_rep(w, seed, &mut probe);
        sipt_telemetry::span::set_enabled(false);
        ledger.check(&traced, &untraced, recorded);
        let report = layers::measure(w, seed, &untraced, &mut probe);
        ledger.attempted += report.sampled_runs;
        ledger.failed += report.mismatches.min(report.sampled_runs);
        println!(
            "layer passes: {} sampled runs over {} prepared pairs; closure {:+.4} (modelled/replay - 1)",
            report.sampled_runs, report.sampled_pairs, report.closure_signed
        );
        metrics.extend(report.metrics);
        let overhead_s = traced.normalized_wall_s() - untraced.normalized_wall_s();
        metrics.push(("trace.overhead_s", overhead_s, "s"));
        samples.push(("wall_s_untraced", Json::num(untraced.wall_s())));
        samples.push(("wall_s_traced", Json::num(traced.wall_s())));
        untraced
    } else {
        let t0 = Instant::now();
        let mut reps = Vec::new();
        while reps.is_empty() || t0.elapsed().as_secs_f64() < args.seconds {
            reps.push(run_rep(w, seed, &mut probe));
        }
        for rep in &reps {
            ledger.check(rep, &reps[0], recorded);
        }
        let est = Normalized::of(&reps);
        metrics.push(("wall_s", est.wall_s, "s"));
        metrics.push(("setup_s", est.setup_s, "s"));
        metrics.push(("sim_mips", est.sim_mips, "MIPS"));
        metrics.push(("run_ms_p50", quantile(&est.run_ms, 0.5), "ms"));
        metrics.push(("run_ms_p90", quantile(&est.run_ms, 0.9), "ms"));
        metrics.push(("peak_rss_mb", peak_rss_mb(), "MiB"));
        let raw = |f: fn(&Rep) -> f64| distribution(&reps.iter().map(f).collect::<Vec<_>>());
        samples.push(("repetitions", Json::u64(reps.len() as u64)));
        samples.push(("rep_wall_s", raw(Rep::wall_s)));
        samples.push((
            "rep_slowdown",
            distribution(&reps.iter().flat_map(|r| r.slowdown.clone()).collect::<Vec<_>>()),
        ));
        samples.push(("rep_setup_s", raw(|r| r.setup_ms.iter().sum::<f64>() / 1e3)));
        samples.push((
            "rep_sim_mips",
            raw(|r| r.sim_insts as f64 / r.sim_ms.iter().sum::<f64>() / 1e3),
        ));
        samples.push(("run_ms_normalized", distribution(&est.run_ms)));
        reps.swap_remove(0)
    };

    let (checked, mismatched) = oracle_check(w, seed, &reference);
    ledger.attempted += checked;
    ledger.failed += mismatched;

    let fingerprint = reference.fingerprint();
    let recorded_note = match recorded {
        Some(fp) if fp == fingerprint => "matches the recorded value",
        Some(_) => "DIFFERS from the recorded value",
        None => "no recorded value for this seed",
    };
    println!(
        "workload {} seed {seed} ({} runs per repetition, 1 worker)",
        w.name(),
        reference.fingerprints.len()
    );
    println!("fingerprint {fingerprint:#018x} ({recorded_note})");
    println!("reference-path check: {checked} re-run, {mismatched} mismatched");
    for (name, value, unit) in &metrics {
        println!("{name:<34} {value:>14.6} {unit}");
    }
    println!("runs attempted {} failed {}", ledger.attempted, ledger.failed);

    let host = Json::obj([
        ("nproc", Json::u64(std::thread::available_parallelism().map_or(0, |n| n.get() as u64))),
        ("cpu_model", Json::str(cpu_model())),
        ("load_before", load_before),
        ("load_after", load_average()),
    ]);
    let record = Json::obj([
        ("workload", Json::str(w.name())),
        ("seed", Json::u64(seed)),
        ("fingerprint", Json::str(format!("{fingerprint:#018x}"))),
        ("host", host),
        ("samples", Json::obj(samples)),
    ]);
    println!("record {}", record.render());

    let correct = ledger.failed == 0;
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::u64(ledger.attempted as u64)),
        ("failed", Json::u64(ledger.failed as u64)),
        ("metrics", Json::obj(metrics.iter().map(|&(n, v, u)| (n, metric(v, u))))),
    ]);
    println!("{}", result.render());
    if !correct {
        std::process::exit(1);
    }
}
