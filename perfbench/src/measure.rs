//! The measuring process: repetitions of one workload, sequential and
//! speculative, plus the layer probes and spans of a traced run.
//!
//! It reports to the supervising process as plain text lines on stdout,
//! one fact per line (see [`crate::aggregate`] for the reader):
//!
//! * `setup <ns>` — one timed set-up (untraced run);
//! * `begin` — a TLS run is about to start (so a crash can be counted);
//! * `rep <ok> <seq_ns> <tls_ns>` — one finished repetition;
//! * `total <traced> <ns>` — wall time of a whole repetition (trace mode);
//! * `span <name> <ns>` / `count <name> <value>` — one traced repetition;
//! * `probe <name> <value>` — one layer probe's result;
//! * `rss <kib>` and finally `end`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mutls_membuf::{GlobalMemory, RollbackReason};
use mutls_runtime::{DirectContext, Phase, RunReport, Runtime, RuntimeConfig};
use mutls_workloads::{checksum, run_speculative};

use crate::probes;
use crate::workload::{self, Kind, Size};

/// Repetitions every run makes, however short its `--seconds`.
const MIN_REPS: usize = 3;
/// Batches per layer probe.
const PROBE_BATCHES: usize = 31;
/// Set-ups an untraced run times back to back before its repetitions.
const SETUPS: usize = 15;

/// What one measuring process does.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Workload to run.
    pub kind: Kind,
    /// Problem size.
    pub size: Size,
    /// Input seed.
    pub seed: u64,
    /// Seconds to keep repeating.
    pub seconds: f64,
    /// Traced run: probes, spans and counts instead of end-to-end timing.
    pub trace: bool,
}

/// The runtime configuration under test: rank 0 plus `nproc - 1` workers
/// (at least one, so speculation is possible on a single core), everything
/// else at its default.
pub fn runtime_config() -> RuntimeConfig {
    RuntimeConfig::with_cpus(nproc().saturating_sub(1).max(1))
}

/// Host parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One recorded span: a named interval of one repetition.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    rep: usize,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder; `None` for an untraced repetition.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn open(
        tracer: &mut Option<Tracer>,
        name: &'static str,
        rep: usize,
        parent: Option<usize>,
    ) -> Option<usize> {
        let t = tracer.as_mut()?;
        t.spans.push(Span {
            name,
            rep,
            parent,
            start_ns: t.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        Some(t.spans.len() - 1)
    }

    fn close(tracer: &mut Option<Tracer>, id: Option<usize>) {
        if let (Some(t), Some(id)) = (tracer.as_mut(), id) {
            t.spans[id].end_ns = t.origin.elapsed().as_nanos() as u64;
        }
    }

    fn to_json(&self) -> String {
        let items: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                format!(
                    "{{\"id\":{id},\"name\":\"{}\",\"rep\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                    s.name,
                    s.rep,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.start_ns,
                    s.end_ns
                )
            })
            .collect();
        format!("[{}]", items.join(","))
    }
}

/// Result of one repetition.
struct Rep {
    ok: bool,
    seq_ns: u64,
    tls_ns: u64,
    report: Option<RunReport>,
}

/// One repetition: set up the TLS runtime and a `DirectContext` arena the
/// same way, run both on the same input (in the order `tls_first` says),
/// and compare their checksums.
fn rep(
    opts: &Options,
    config: RuntimeConfig,
    index: usize,
    tls_first: bool,
    tracer: &mut Option<Tracer>,
) -> Rep {
    let root = Tracer::open(tracer, "rep", index, None);

    let span = Tracer::open(tracer, "new", index, root);
    let rt = Runtime::new(config);
    Tracer::close(tracer, span);
    let span = Tracer::open(tracer, "setup", index, root);
    let tls_input = workload::setup(opts.kind, opts.size, &rt.memory(), opts.seed);
    Tracer::close(tracer, span);

    let memory = Arc::new(GlobalMemory::new(config.memory_bytes));
    let seq_input = workload::setup(opts.kind, opts.size, &memory, opts.seed);

    let mut seq_ok = true;
    let mut seq_ns = 0;
    let mut run_seq = |tracer: &mut Option<Tracer>| {
        let span = Tracer::open(tracer, "direct", index, root);
        let t = Instant::now();
        let mut ctx = DirectContext::new(Arc::clone(&memory));
        seq_ok = run_speculative(&mut ctx, &seq_input).is_ok();
        seq_ns = t.elapsed().as_nanos() as u64;
        Tracer::close(tracer, span);
    };
    let mut report = None;
    let mut tls_ns = 0;
    let mut run_tls = |tracer: &mut Option<Tracer>| {
        let span = Tracer::open(tracer, "run", index, root);
        let t = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            rt.run(|ctx| run_speculative(ctx, &tls_input)).1
        }));
        tls_ns = t.elapsed().as_nanos() as u64;
        Tracer::close(tracer, span);
        report = result.ok();
    };
    if tls_first {
        run_tls(tracer);
        run_seq(tracer);
    } else {
        run_seq(tracer);
        run_tls(tracer);
    }

    let span = Tracer::open(tracer, "verify", index, root);
    let ok = seq_ok
        && report.is_some()
        && checksum(&rt.memory(), &tls_input) == checksum(&memory, &seq_input);
    Tracer::close(tracer, span);
    Tracer::close(tracer, root);
    drop(rt);
    Rep {
        ok,
        seq_ns,
        tls_ns,
        report,
    }
}

/// Wall time of `Runtime::new` plus workload setup.  The runtime is dropped
/// on return, before the next set-up, so every set-up starts from the same
/// allocator state.
fn time_setup(opts: &Options, config: RuntimeConfig) -> u64 {
    let t0 = Instant::now();
    let rt = Runtime::new(config);
    workload::setup(opts.kind, opts.size, &rt.memory(), opts.seed);
    t0.elapsed().as_nanos() as u64
}

/// The counts of a traced run that the attribution needs, by name.
fn counts(report: &RunReport) -> Vec<(&'static str, f64)> {
    let (crit, spec) = (&report.critical, &report.speculative);
    let commits = report.committed_threads as f64;
    let rollbacks = report.rolled_back_threads as f64;
    let joined = commits + rollbacks;
    let spec_work = spec.get(Phase::Work) + spec.get(Phase::WastedWork);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    vec![
        ("runtime.commits", commits),
        (
            "runtime.rollbacks.overflow",
            report.rollbacks_with(RollbackReason::Overflow) as f64,
        ),
        (
            "runtime.rollbacks.conflict",
            report.rollbacks_with(RollbackReason::Conflict) as f64,
        ),
        (
            "runtime.rollbacks.other",
            (report.rollbacks_with(RollbackReason::Other)
                + report.rollbacks_with(RollbackReason::Injected)) as f64,
        ),
        ("runtime.commit_ratio", ratio(commits, joined)),
        (
            "runtime.failed_forks",
            (crit.counters.failed_forks + spec.counters.failed_forks) as f64,
        ),
        ("runtime.spec_loads", spec.counters.loads as f64),
        ("runtime.spec_stores", spec.counters.stores as f64),
        (
            "runtime.rank0_ops",
            (crit.counters.loads + crit.counters.stores) as f64,
        ),
        (
            "runtime.wasted_frac",
            ratio(spec.get(Phase::WastedWork) as f64, spec_work as f64),
        ),
        (
            "runtime.crit_idle_frac",
            ratio(crit.get(Phase::Idle) as f64, crit.total() as f64),
        ),
        // Used by the attribution only.
        ("forks", (crit.counters.forks + spec.counters.forks) as f64),
        ("throttled_forks", report.throttled_forks() as f64),
        ("rollbacks", rollbacks),
        ("rank0_loads", crit.counters.loads as f64),
        ("rank0_stores", crit.counters.stores as f64),
    ]
}

/// Resident-set high-water mark of this process in KiB (0 if unknown).
fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Measure as `opts` says, reporting each fact through `emit`.
pub fn run(opts: &Options, emit: &mut dyn FnMut(String)) {
    let started = Instant::now();
    let budget = Duration::from_secs_f64(opts.seconds.max(0.0));
    let config = runtime_config();
    if opts.trace {
        for (name, value) in probes::run_all(config, PROBE_BATCHES) {
            emit(format!("probe {name} {value}"));
        }
    } else {
        for _ in 0..SETUPS {
            emit(format!("setup {}", time_setup(opts, config)));
        }
    }
    // A traced run alternates untraced and traced repetitions, so the
    // spans' overhead is measured against the same conditions.
    let min_reps = if opts.trace { 2 * MIN_REPS } else { MIN_REPS };
    let mut tracer = opts.trace.then(|| Tracer {
        origin: Instant::now(),
        spans: Vec::new(),
    });
    let mut index = 0;
    while index < min_reps || started.elapsed() < budget {
        let traced = opts.trace && index % 2 == 1;
        let tls_first = if opts.trace {
            (index / 2) % 2 == 0
        } else {
            index % 2 == 0
        };
        let mut active = if traced { tracer.take() } else { None };
        let first_span = active.as_ref().map_or(0, |t| t.spans.len());
        emit("begin".to_string());
        let t = Instant::now();
        let r = rep(opts, config, index, tls_first, &mut active);
        let total_ns = t.elapsed().as_nanos();
        emit(format!("rep {} {} {}", u8::from(r.ok), r.seq_ns, r.tls_ns));
        if opts.trace {
            emit(format!("total {} {total_ns}", u8::from(traced)));
        }
        if let Some(t) = active {
            for s in &t.spans[first_span..] {
                if s.parent.is_some() {
                    emit(format!("span {} {}", s.name, s.end_ns - s.start_ns));
                }
            }
            if let Some(report) = &r.report {
                for (name, value) in counts(report) {
                    emit(format!("count {name} {value}"));
                }
            }
            tracer = Some(t);
        }
        index += 1;
    }
    if let Some(t) = &tracer {
        eprintln!("perfbench spans {}: {}", opts.kind.name(), t.to_json());
    }
    emit(format!("rss {}", peak_rss_kib()));
    emit("end".to_string());
}
