#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # sipt-bench — the figure/table regeneration harness
//!
//! One binary per paper artifact (run with `cargo run --release -p
//! sipt-bench --bin figNN`), plus Criterion micro-benchmarks
//! (`cargo bench`). Every binary accepts an optional scale argument:
//!
//! ```text
//! cargo run --release -p sipt-bench --bin fig13 -- quick   # seconds
//! cargo run --release -p sipt-bench --bin fig13            # default
//! cargo run --release -p sipt-bench --bin fig13 -- full    # minutes
//! ```
//!
//! | binary | regenerates |
//! |---|---|
//! | `tab01` | Table I configuration space |
//! | `fig01` | Fig 1 latency sweep |
//! | `tab02` | Table II system configurations |
//! | `fig02`, `fig03` | Figs 2–3 ideal-config IPC |
//! | `fig05` | Fig 5 speculation accuracy |
//! | `fig06` | Figs 6–7 naive SIPT |
//! | `fig09` | Fig 9 bypass outcomes |
//! | `fig12` | Fig 12 combined accuracy |
//! | `fig13` | Figs 13–14 SIPT+IDB |
//! | `tab03` | Table III mixes |
//! | `fig15` | Fig 15 quad-core |
//! | `fig16` | Figs 16–17 way prediction |
//! | `fig18` | Fig 18 sensitivity |
//! | `ablation_bypass` | perceptron vs saturating counter |
//! | `ablation_idb` | bypass-only vs combined (IDB contribution) |
//! | `ablation_perceptron_size` | table-size/history sensitivity |

pub mod harness;
pub mod inspect;

use sipt_sim::Condition;
use sipt_telemetry::json::Json;
use sipt_telemetry::report;
use std::path::PathBuf;

/// Run scale selected on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds: smoke benchmarks, short traces.
    Quick,
    /// The default: full benchmark roster, moderate traces.
    Default,
    /// Minutes: full roster, long traces.
    Full,
}

impl Scale {
    /// Parse from the process arguments: the first `quick` / `full`
    /// argument wins (flags like `--json` are skipped); no scale argument
    /// means the default scale.
    pub fn from_args() -> Self {
        for arg in std::env::args().skip(1) {
            match arg.as_str() {
                "quick" => return Scale::Quick,
                "full" => return Scale::Full,
                _ => {}
            }
        }
        Scale::Default
    }

    /// The single-core simulation condition for this scale.
    pub fn condition(self) -> Condition {
        match self {
            Scale::Quick => Condition::quick(),
            Scale::Default => Condition::default(),
            Scale::Full => Condition {
                instructions: 1_000_000,
                warmup: 200_000,
                memory_bytes: 2 << 30,
                ..Condition::default()
            },
        }
    }

    /// The quad-core simulation condition (more memory, shorter traces —
    /// 4 cores × 5 configurations each).
    pub fn quad_condition(self) -> Condition {
        let base = self.condition();
        Condition {
            memory_bytes: 4u64 << 30,
            instructions: base.instructions / 2,
            warmup: base.warmup / 2,
            ..base
        }
    }

    /// The benchmark roster for this scale.
    pub fn benchmarks(self) -> Vec<&'static str> {
        match self {
            Scale::Quick => sipt_sim::experiments::smoke_benchmarks(),
            _ => sipt_sim::experiments::benchmark_names(),
        }
    }

    /// The mix roster for this scale.
    pub fn mixes(self) -> Vec<&'static str> {
        match self {
            Scale::Quick => vec!["mix0", "mix3", "mix8"],
            _ => sipt_sim::experiments::quadcore::all_mixes(),
        }
    }
}

/// Print a figure header with the paper reference.
pub fn header(artifact: &str, paper_summary: &str) {
    println!("== {artifact} ==");
    println!("paper: {paper_summary}");
    println!();
}

/// Parse `--jobs N` / `--jobs=N` from the process arguments. Returns
/// `None` when absent; exits with a usage message on malformed values so
/// a typo can't silently fall back to a different parallelism.
fn jobs_from_args() -> Option<usize> {
    match parse_valued_flag(std::env::args().skip(1), "--jobs") {
        Ok(v) => v.map(|n| {
            if n == 0 {
                eprintln!("invalid --jobs value \"0\": expected a positive integer");
                std::process::exit(2);
            }
            n as usize
        }),
        Err(bad) => {
            eprintln!("invalid --jobs value {bad:?}: expected a positive integer");
            std::process::exit(2);
        }
    }
}

/// Parse `--task-timeout MS` (watchdog) and `--task-retries N` (bounded
/// re-execution of panicked tasks) from the process arguments, applying
/// them to the sweep engine's process-wide knobs. Malformed values abort
/// with a usage message (exit 2).
fn resilience_flags_from_args() {
    match parse_valued_flag(std::env::args().skip(1), "--task-timeout") {
        Ok(Some(ms)) => sipt_sim::resilience::set_task_timeout_ms(ms),
        Ok(None) => {}
        Err(bad) => {
            eprintln!("invalid --task-timeout value {bad:?}: expected milliseconds");
            std::process::exit(2);
        }
    }
    match parse_valued_flag(std::env::args().skip(1), "--task-retries") {
        Ok(Some(n)) => sipt_sim::resilience::set_task_retries(n.min(16) as u32),
        Ok(None) => {}
        Err(bad) => {
            eprintln!("invalid --task-retries value {bad:?}: expected a small integer");
            std::process::exit(2);
        }
    }
}

/// Parse `--isolation thread|process` from the process arguments and
/// apply it to the sweep engine. The flag wins over `SIPT_ISOLATION`;
/// an unknown value aborts with a usage message (exit 2) rather than
/// silently running in the default mode.
fn isolation_from_args() {
    if let Some(value) = parse_string_flag(std::env::args().skip(1), "--isolation") {
        match sipt_sim::Isolation::parse(&value) {
            Some(mode) => sipt_sim::set_isolation(mode),
            None => {
                eprintln!("invalid --isolation value {value:?}: expected thread or process");
                std::process::exit(2);
            }
        }
    }
}

/// Pure parser for string-valued `--flag VALUE` / `--flag=VALUE`
/// arguments. A flag with a missing value returns the empty string so
/// the caller's validation rejects it with a usage message.
fn parse_string_flag<I: Iterator<Item = String>>(mut args: I, flag: &str) -> Option<String> {
    let prefix = format!("{flag}=");
    while let Some(arg) = args.next() {
        if arg == flag {
            return Some(args.next().unwrap_or_default());
        }
        if let Some(v) = arg.strip_prefix(&prefix) {
            return Some(v.to_owned());
        }
    }
    None
}

/// Pure parser for `--flag N` / `--flag=N` arguments, split out for
/// testing. `Err(bad)` carries the offending text.
fn parse_valued_flag<I: Iterator<Item = String>>(
    mut args: I,
    flag: &str,
) -> Result<Option<u64>, String> {
    let prefix = format!("{flag}=");
    while let Some(arg) = args.next() {
        let value = if arg == flag {
            args.next().ok_or_else(|| String::from("<missing>"))?
        } else if let Some(v) = arg.strip_prefix(&prefix) {
            v.to_owned()
        } else {
            continue;
        };
        return value.parse::<u64>().map(Some).map_err(|_| value);
    }
    Ok(None)
}

/// Command-line state shared by every figure/table binary: the run scale,
/// whether a machine-readable report was requested (`--json` argument or
/// `SIPT_JSON=1`), the sweep parallelism (`--jobs N`, `--jobs=N`, or
/// `SIPT_JOBS=N`; default: all host cores), the sweep isolation mode
/// (`--isolation thread|process` or `SIPT_ISOLATION`; `process` runs
/// sweep shards in supervised child processes that survive aborts and
/// segfaults), the resilience switches
/// (`--resume`, `--task-timeout MS`, `--task-retries N`), the
/// workload-preparation cache switch (`--no-prep-cache` or
/// `SIPT_PREP_CACHE=0`; the cache is on by default and does not change
/// payload bytes, only wall-clock), and host span tracing
/// (`--trace-spans` or `SIPT_TRACE_SPANS=1`; exports a Perfetto-loadable
/// `results/<name>.trace.json` without touching payload bytes).
#[derive(Debug, Clone)]
pub struct Cli {
    /// Run scale (`quick` / default / `full`).
    pub scale: Scale,
    /// Whether to write `results/<name>.json`.
    pub json: bool,
    /// Worker threads every sweep in this process will use.
    pub jobs: usize,
    /// Whether `--resume` enabled sweep checkpointing.
    pub resume: bool,
    /// Whether `--trace-spans` / `SIPT_TRACE_SPANS=1` armed host span
    /// tracing (Chrome trace-event export at [`Cli::finish`]).
    pub trace_spans: bool,
    /// The artifact name ([`Cli::for_artifact`]); names the trace file.
    artifact: Option<String>,
}

impl Cli {
    /// Parse scale, JSON switch, `--jobs`, `--isolation` and the
    /// resilience flags from the process arguments/environment. A
    /// `--jobs` argument takes precedence over `SIPT_JOBS` (likewise
    /// `--isolation` over `SIPT_ISOLATION`); malformed values abort with
    /// a usage message rather than silently running serial. Also installs
    /// the SIGTERM/SIGINT drain handlers so an interrupted sweep flushes
    /// its checkpoint and exits with resume instructions instead of dying
    /// mid-write. In `--worker-shard` re-executions (spawned by the
    /// process-isolation supervisor) the JSON report and `--resume`
    /// checkpointing are suppressed: the worker streams its results over
    /// the wire protocol and must never overwrite the parent's artifacts.
    pub fn from_args() -> Self {
        sipt_sim::install_drain_handlers();
        if let Some(jobs) = jobs_from_args() {
            sipt_sim::set_jobs(jobs);
        }
        resilience_flags_from_args();
        isolation_from_args();
        if std::env::args().skip(1).any(|a| a == "--no-prep-cache") {
            sipt_sim::prep_cache::set_enabled(false);
        }
        let worker = sipt_sim::supervisor::worker_mode();
        let trace_spans = !worker
            && (std::env::args().skip(1).any(|a| a == "--trace-spans")
                || sipt_sim::env::switch_enabled("SIPT_TRACE_SPANS"));
        if trace_spans {
            sipt_telemetry::span::set_enabled(true);
        }
        Self {
            scale: Scale::from_args(),
            json: report::json_requested() && !worker,
            jobs: sipt_sim::effective_jobs(),
            resume: !worker && std::env::args().skip(1).any(|a| a == "--resume"),
            trace_spans,
            artifact: None,
        }
    }

    /// [`Cli::from_args`] for a named artifact: additionally arms sweep
    /// checkpointing when `--resume` was passed. Completed task metrics
    /// are persisted (bit-exactly) to `results/<name>.checkpoint.json` as
    /// they finish; a re-run with `--resume` restores them instead of
    /// re-simulating, and the final report is byte-identical to an
    /// uninterrupted run. Without `--resume` nothing is written.
    pub fn for_artifact(name: &str) -> Self {
        let mut cli = Self::from_args();
        cli.artifact = Some(name.to_owned());
        if cli.resume {
            let path = report::results_dir().join(format!("{name}.checkpoint.json"));
            match sipt_sim::checkpoint::configure(&path, true) {
                Ok(ckpt) => eprintln!(
                    "resume: checkpointing to {} ({} task(s) already on file)",
                    ckpt.path().display(),
                    ckpt.restored_len()
                ),
                Err(e) => {
                    eprintln!("cannot arm --resume: {e}");
                    std::process::exit(2);
                }
            }
        }
        cli
    }

    /// When JSON was requested, wrap `payload` in the standard report
    /// envelope and write it to `results/<name>.json` (the directory is
    /// overridable with `SIPT_RESULTS_DIR`). Returns the written path, or
    /// `None` when JSON is off. Failures print to stderr rather than
    /// panicking — the text output on stdout is already complete.
    pub fn emit_json(&self, name: &str, payload: Json) -> Option<PathBuf> {
        if !self.json {
            return None;
        }
        // The envelope carries the sweep parallelism observed so far in
        // this process (absent when no parallel sweep ran, e.g.
        // tab01/tab02), the resilience block (absent when nothing failed,
        // retried, resumed or was injected), and the observability block
        // (absent unless span tracing or the flight recorder is armed).
        let envelope = report::envelope_full(
            name,
            payload,
            sipt_sim::sweep::parallelism_json(),
            sipt_sim::resilience::resilience_json(),
            sipt_sim::observability::observability_json(),
        );
        match report::write_report(&report::results_dir(), name, &envelope) {
            Ok(path) => {
                eprintln!("wrote {}", path.display());
                Some(path)
            }
            Err(e) => {
                eprintln!("failed to write {name}.json: {e}");
                None
            }
        }
    }

    /// When `--trace-spans` is armed, export everything the span sink
    /// recorded as Chrome trace-event JSON to
    /// `results/<name>.trace.json` (loadable at `ui.perfetto.dev`).
    /// Returns the written path, or `None` when tracing is off. Failures
    /// print to stderr — the trace is diagnostics, never a run blocker.
    pub fn emit_trace(&self, name: &str) -> Option<PathBuf> {
        if !self.trace_spans {
            return None;
        }
        match sipt_telemetry::span::write_trace(&report::results_dir(), name) {
            Ok(path) => {
                eprintln!("wrote {}", path.display());
                Some(path)
            }
            Err(e) => {
                eprintln!("failed to write {name}.trace.json: {e}");
                None
            }
        }
    }

    /// Final accounting, called at the end of every binary's `main` after
    /// the report is written: export the span trace (when `--trace-spans`
    /// armed one and the binary was built [`Cli::for_artifact`]), then —
    /// when any sweep task failed (organically or by injection) — print
    /// the failure table to stderr and exit 1 so automation notices; the
    /// report and text output are already complete by then, carrying
    /// placeholder metrics for the failed slots. A clean run returns
    /// normally (exit 0).
    pub fn finish(&self) {
        if let Some(name) = self.artifact.clone() {
            self.emit_trace(&name);
        }
        let failures = sipt_sim::resilience::failure_count();
        if failures > 0 {
            eprint!("{}", sipt_sim::resilience::failure_table());
            eprintln!("{failures} sweep task(s) failed; exiting non-zero");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> std::vec::IntoIter<String> {
        v.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>().into_iter()
    }

    #[test]
    fn jobs_argument_parses_both_forms() {
        assert_eq!(parse_valued_flag(args(&["quick", "--jobs", "4"]), "--jobs"), Ok(Some(4)));
        assert_eq!(parse_valued_flag(args(&["--jobs=2", "full"]), "--jobs"), Ok(Some(2)));
        assert_eq!(parse_valued_flag(args(&["quick", "--json"]), "--jobs"), Ok(None));
        assert_eq!(parse_valued_flag(args(&["--jobs", "zero"]), "--jobs"), Err("zero".to_owned()));
        assert_eq!(parse_valued_flag(args(&["--jobs"]), "--jobs"), Err("<missing>".to_owned()));
    }

    #[test]
    fn resilience_flags_parse_both_forms() {
        let f = "--task-timeout";
        assert_eq!(parse_valued_flag(args(&["quick", f, "5000"]), f), Ok(Some(5000)));
        assert_eq!(parse_valued_flag(args(&["--task-timeout=250"]), f), Ok(Some(250)));
        assert_eq!(parse_valued_flag(args(&["--task-retries", "3"]), "--task-retries"), {
            Ok(Some(3))
        });
        assert_eq!(parse_valued_flag(args(&["--task-timeout", "soon"]), f), Err("soon".to_owned()));
        // Flags are independent: --task-timeout does not satisfy --jobs.
        assert_eq!(parse_valued_flag(args(&["--task-timeout", "9"]), "--jobs"), Ok(None));
    }

    #[test]
    fn isolation_flag_parses_both_forms() {
        let f = "--isolation";
        assert_eq!(parse_string_flag(args(&["quick", f, "process"]), f), Some("process".into()));
        assert_eq!(parse_string_flag(args(&["--isolation=thread"]), f), Some("thread".into()));
        assert_eq!(parse_string_flag(args(&["quick", "--json"]), f), None);
        // Missing value surfaces as an empty string the validator rejects.
        assert_eq!(parse_string_flag(args(&[f]), f), Some(String::new()));
        assert!(sipt_sim::Isolation::parse("process").is_some());
        assert!(sipt_sim::Isolation::parse("container").is_none());
    }

    #[test]
    fn scales_are_ordered() {
        let q = Scale::Quick.condition();
        let d = Scale::Default.condition();
        let f = Scale::Full.condition();
        assert!(q.instructions < d.instructions);
        assert!(d.instructions < f.instructions);
        assert!(Scale::Quick.benchmarks().len() < Scale::Full.benchmarks().len());
        assert_eq!(Scale::Full.mixes().len(), 11);
        assert!(Scale::Quick.quad_condition().memory_bytes >= 4 << 30);
    }
}
