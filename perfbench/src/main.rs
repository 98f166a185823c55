//! Outside-in benchmark of the malleable-scheduling workspace.
//!
//! ```text
//! cargo --config perfbench/cargo-config.toml run --release \
//!     --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> [--seed 7] [--seconds 10] [--trace 0|1]
//! ```
//!
//! A run generates one workload's trace from the seed, then repeats timed
//! **passes** for the given number of seconds.  A pass calls only the
//! program's public pipeline, the same one as the CLI's `online`
//! subcommand: trace in (`workload::trace_from_json` from a file, or
//! `ArrivalTrace::new` over in-memory arrivals) → `online::run` →
//! `online::validate_against_trace` → `online::competitive_report`.  Every
//! pass checks its outputs.
//!
//! Timings report the fastest passes, not the typical one: on a shared
//! machine whole passes slow down together when other work contends for the
//! cores, and the fastest pass is the one figure such phases do not move.
//!
//! With `--trace 0` the run prints the end-to-end metrics.  With `--trace 1`
//! it alternates untraced passes with traced ones (`online::run_recorded`
//! feeding a `telemetry::CollectingRecorder`), prints the per-layer table of
//! the fastest traced pass, which sums to that pass's wall time, and drives
//! the trace once through `online::run_sharded` to time the shard layer.
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`, printed however the run
//! ends once its arguments parse.  The exit code is non-zero when any check
//! failed.

mod stats;
mod workloads;
mod wrappers;

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

use malleable_core::prelude::{MrtSolver, SolverHandle, TaskId, SQRT3};
use online::{
    competitive_report, run_sharded, validate_against_trace, CollectingSink, EpochReplan,
    OnlinePolicy, ShardedConfig,
};
use telemetry::{names, CollectingRecorder, SharedRecorder, SpanTimer};
use workload::{trace_from_json, ArrivalTrace};

use stats::{argmin, median, min, percentile, Percentile};
use workloads::{Prepared, Spec};
use wrappers::{TimedPolicy, TimedSolver};

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 7;
/// Measured seconds when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 10.0;
/// Set-up repeats, before the first pass, until this many seconds have
/// passed and at least `SETUP_MIN_REPEATS` times; the timed loop adds one
/// more set-up after every round of passes.  `setup_s` is the fastest of them
/// all: like the passes, it is drawn from the whole run, because a shared
/// machine slows down in phases that can outlast any short burst.
const SETUP_BURST_S: f64 = 1.0;
const SETUP_MIN_REPEATS: usize = 5;
/// Fewest timed passes of each kind a run makes, however long they take.
const MIN_PASSES: usize = 3;
/// Percentile `decision_tail_ms` reports.  Fixed so that runs compare like
/// with like, and clear of the one cold-workspace solve that opens every
/// pass of `bursty-backlog` (1 of its 20 decisions), which a 95th
/// percentile would straddle.
const TAIL_PERCENTILE: f64 = 90.0;
/// Shards of the `online::run_sharded` call of a traced run: no more
/// threads than the two cores the benchmark was sized on.
const SHARDS: usize = 2;
/// Where file workloads write their trace, relative to the working
/// directory; removed when the run ends.
const WORK_DIR: &str = ".perfbench_work";

struct Args {
    workload: &'static Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(workloads::find(&value).ok_or_else(|| {
                    let known: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?}; known: {}", known.join(", "))
                })?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}; use 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The workload's epoch policy over `solver`.
fn epoch_policy(spec: &Spec, solver: SolverHandle) -> Result<EpochReplan, String> {
    Ok(EpochReplan::with_solver(1.0, solver)
        .map_err(|e| e.to_string())?
        .with_backfill(spec.reallot)
        .with_preempt_queued(spec.reallot)
        .with_preempt_running(spec.reallot))
}

/// Everything one pass measured and checked.  Only summaries are kept, so a
/// long run does not hold every pass's schedule.
struct Pass {
    wall_s: f64,
    ingest_s: f64,
    engine_s: f64,
    validate_s: f64,
    report_s: f64,
    plan_ns: Vec<u64>,
    solve_s: f64,
    solves: usize,
    solved_tasks: usize,
    probes: usize,
    events: usize,
    replans: usize,
    makespan: f64,
    mean_flow: f64,
    lower_bound: f64,
    ratio_vs_lb: f64,
    /// The recorder's counters (traced passes only).
    counters: BTreeMap<String, u64>,
    failures: Vec<String>,
}

fn secs(ns: u64) -> f64 {
    ns as f64 * 1e-9
}

/// One timed pass: trace in → engine → validation → competitive report.
/// An error of the program ends the pass early and is returned.
fn pass(prep: &Prepared, traced: bool) -> Result<Pass, String> {
    let spec = prep.spec;
    // Input preparation the program does not do: hand over a copy of the
    // generated arrivals (in-memory workloads only).
    let arrivals = prep.file.is_none().then(|| prep.trace.arrivals().to_vec());
    let recorder = traced.then(CollectingRecorder::shared);
    let solver = TimedSolver::new(Arc::new(MrtSolver));
    let mut policy = TimedPolicy::new(epoch_policy(spec, Arc::clone(&solver) as SolverHandle)?);

    let wall = SpanTimer::start();
    let trace = match (&prep.file, arrivals) {
        (Some(file), _) => {
            let text = fs::read_to_string(&file.path)
                .map_err(|e| format!("{}: {e}", file.path.display()))?;
            trace_from_json(&text).map_err(|e| format!("trace_from_json: {e}"))?
        }
        (None, Some(arrivals)) => ArrivalTrace::new(prep.trace.processors(), arrivals)
            .map_err(|e| format!("ArrivalTrace::new: {e}"))?,
        (None, None) => unreachable!("in-memory workloads always copy their arrivals"),
    };
    let ingest_ns = wall.elapsed_ns();

    let start = SpanTimer::start();
    let result = match &recorder {
        Some(recorder) => {
            policy.set_recorder(Arc::clone(recorder) as SharedRecorder);
            online::run_recorded(&trace, &mut policy, recorder.as_ref())
        }
        None => online::run(&trace, &mut policy),
    }
    .map_err(|e| format!("online::run: {e}"))?;
    let engine_ns = start.elapsed_ns();

    let start = SpanTimer::start();
    let violations = validate_against_trace(&trace, &result.schedule);
    let validate_ns = start.elapsed_ns();

    let start = SpanTimer::start();
    let report =
        competitive_report(&trace, &result).map_err(|e| format!("competitive_report: {e}"))?;
    let report_ns = start.elapsed_ns();
    let wall_ns = wall.elapsed_ns();

    let mut failures: Vec<String> = violations
        .into_iter()
        .map(|v| format!("validation: {v}"))
        .collect();
    let completed: BTreeSet<TaskId> = result.schedule.entries().iter().map(|e| e.task).collect();
    if completed.len() != prep.trace.len() || result.departed != 0 {
        failures.push(format!(
            "completed {} of {} tasks ({} departed)",
            completed.len(),
            prep.trace.len(),
            result.departed
        ));
    }
    let ratio_vs_lb = result.makespan / report.certified_lower_bound;
    if ratio_vs_lb.is_nan() || ratio_vs_lb < 1.0 - 1e-9 {
        failures.push(format!(
            "online makespan below the certified bound: {ratio_vs_lb}"
        ));
    }
    let offline_ratio = report.offline_makespan / report.certified_lower_bound;
    if offline_ratio.is_nan() || offline_ratio > SQRT3 + 1e-6 {
        failures.push(format!("offline MRT ratio {offline_ratio} exceeds sqrt(3)"));
    }
    Ok(Pass {
        wall_s: secs(wall_ns),
        ingest_s: secs(ingest_ns),
        engine_s: secs(engine_ns),
        validate_s: secs(validate_ns),
        report_s: secs(report_ns),
        plan_ns: policy.plan_ns,
        solve_s: solver.seconds(),
        solves: solver.solves(),
        solved_tasks: solver.tasks(),
        probes: policy.inner.probes(),
        events: result.events,
        replans: result.replans,
        makespan: result.makespan,
        mean_flow: result.mean_flow_time,
        lower_bound: report.certified_lower_bound,
        ratio_vs_lb,
        counters: recorder.map(|r| r.counters()).unwrap_or_default(),
        failures,
    })
}

/// Check that the timing wrappers change nothing: an unwrapped run must
/// reproduce the wrapped pass's makespan, mean flow time and probe count
/// exactly.
fn check_fidelity(prep: &Prepared, wrapped: &Pass) -> Vec<String> {
    let plain = epoch_policy(prep.spec, Arc::new(MrtSolver)).and_then(|mut policy| {
        online::run(&prep.trace, &mut policy)
            .map(|result| (result, policy.probes()))
            .map_err(|e| format!("online::run: {e}"))
    });
    let (result, probes) = match plain {
        Ok(plain) => plain,
        Err(e) => return vec![format!("unwrapped run: {e}")],
    };
    let same = |a: f64, b: f64| a.to_bits() == b.to_bits();
    if same(result.makespan, wrapped.makespan)
        && same(result.mean_flow_time, wrapped.mean_flow)
        && probes == wrapped.probes
    {
        return Vec::new();
    }
    vec![format!(
        "wrapped pass differs from the unwrapped one: makespan {} vs {}, mean flow {} vs {}, probes {} vs {}",
        wrapped.makespan, result.makespan, wrapped.mean_flow, result.mean_flow_time, wrapped.probes, probes
    )]
}

/// Outputs every pass must repeat exactly; `reference` is the warm-up pass.
fn check_repeats(pass: &Pass, reference: &Pass) -> Option<String> {
    let same = |a: f64, b: f64| a.to_bits() == b.to_bits();
    let repeats = same(pass.ratio_vs_lb, reference.ratio_vs_lb)
        && same(pass.mean_flow, reference.mean_flow)
        && pass.probes == reference.probes
        && pass.plan_ns.len() == reference.plan_ns.len();
    (!repeats).then(|| "deterministic outputs differ between passes".to_string())
}

/// The attempts of a run and the problems of those that failed.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    messages: Vec<String>,
}

impl Tally {
    /// Count one attempt, failed when it reported any problem.
    fn record(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.messages.extend(problems);
        }
    }
}

/// One metric as printed: name, value, unit.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Time one set-up of the workload into `dir`.  Its inputs are dropped,
/// and their file removed, after the clock stops.
fn time_setup(spec: &'static Spec, seed: u64, dir: &Path) -> Result<f64, String> {
    let start = SpanTimer::start();
    let prep = workloads::prepare(spec, seed, dir)?;
    let seconds = start.elapsed().as_secs_f64();
    drop(prep);
    Ok(seconds)
}

/// The passes' inputs in `work_dir`, and the fastest of the set-ups
/// repeated into `setup_dir` for `SETUP_BURST_S`, and at least
/// `SETUP_MIN_REPEATS` times, before the first pass.  A directory of their
/// own keeps the timed set-ups from removing the passes' trace file.
fn setup(
    spec: &'static Spec,
    seed: u64,
    work_dir: &Path,
    setup_dir: &Path,
) -> Result<(Prepared, f64), String> {
    let prep = workloads::prepare(spec, seed, work_dir)?;
    let burst = SpanTimer::start();
    let mut fastest = f64::INFINITY;
    let mut repeats = 0;
    while repeats < SETUP_MIN_REPEATS || burst.elapsed().as_secs_f64() < SETUP_BURST_S {
        fastest = fastest.min(time_setup(spec, seed, setup_dir)?);
        repeats += 1;
    }
    Ok((prep, fastest))
}

/// The end-to-end metrics of the untraced passes, with the percentile
/// behind `decision_tail_ms`.
fn end_to_end(
    prep: &Prepared,
    passes: &[Pass],
    setup_s: f64,
    rss_mb: f64,
) -> (Vec<Metric>, Percentile) {
    let n = prep.trace.len() as f64;
    // Every pass makes the same plan calls in the same order (checked), so
    // call i is one decision: keep its fastest time over the passes.
    let calls = passes.iter().map(|p| p.plan_ns.len()).min().unwrap_or(0);
    let decisions: Vec<f64> = (0..calls)
        .map(|i| min(passes.iter().map(|p| p.plan_ns[i] as f64 * 1e-6)))
        .collect();
    let tail = percentile(&decisions, TAIL_PERCENTILE);
    let metrics = vec![
        metric("wall_s", min(passes.iter().map(|p| p.wall_s)), "s"),
        metric(
            "tasks_per_s",
            n / min(passes.iter().map(|p| p.engine_s)),
            "1/s",
        ),
        metric("decision_p50_ms", median(&decisions), "ms"),
        metric("decision_tail_ms", tail.value, "ms"),
        metric("ratio_vs_lb", passes[0].ratio_vs_lb, "ratio"),
        metric("mean_flow_time", passes[0].mean_flow, "time_unit"),
        metric("peak_rss_mb", rss_mb, "MB"),
        metric("setup_s", setup_s, "s"),
    ];
    (metrics, tail)
}

/// The per-layer table of the fastest traced pass (its times sum to its
/// wall time), plus the recorder's counters and the tracing overhead.
fn per_layer(prep: &Prepared, traced: &[Pass], untraced: &[Pass]) -> Vec<Metric> {
    let walls: Vec<f64> = traced.iter().map(|p| p.wall_s).collect();
    let p = &traced[argmin(&walls)];
    let plan_s = secs(p.plan_ns.iter().sum());
    let counter = |name: &str| p.counters.get(name).copied().unwrap_or(0) as f64;
    let engine_untraced = min(untraced.iter().map(|p| p.engine_s));
    let engine_traced = min(traced.iter().map(|p| p.engine_s));
    let layers = p.ingest_s + p.engine_s + p.validate_s + p.report_s;
    let bytes = prep.file.as_ref().map_or(0, |file| file.bytes);
    vec![
        metric("traced.wall_s", p.wall_s, "s"),
        metric("ingest.s", p.ingest_s, "s"),
        metric("ingest.bytes", bytes as f64, "bytes"),
        metric("engine.s", p.engine_s, "s"),
        metric("engine.self_s", p.engine_s - plan_s, "s"),
        metric("engine.events", p.events as f64, "count"),
        metric("engine.replans", p.replans as f64, "count"),
        metric("policy.plan_s", plan_s, "s"),
        metric("policy.plans", p.plan_ns.len() as f64, "count"),
        metric("policy.replay_s", plan_s - p.solve_s, "s"),
        metric("solver.solve_s", p.solve_s, "s"),
        metric("solver.solves", p.solves as f64, "count"),
        metric(
            "solver.tasks_per_solve",
            p.solved_tasks as f64 / p.solves.max(1) as f64,
            "count",
        ),
        metric("solver.probes", p.probes as f64, "count"),
        metric("validate.s", p.validate_s, "s"),
        metric("report.s", p.report_s, "s"),
        metric(
            "timeline.reservations",
            counter(names::TIMELINE_RESERVATIONS),
            "count",
        ),
        metric(
            "timeline.cancels",
            counter(names::TIMELINE_CANCELS),
            "count",
        ),
        metric(
            "timeline.truncations",
            counter(names::TIMELINE_TRUNCATIONS),
            "count",
        ),
        metric(
            "timeline.holes_scanned",
            counter(names::TIMELINE_HOLES_SCANNED),
            "count",
        ),
        metric("engine.placements", counter(names::PLACEMENTS), "count"),
        metric("engine.revocations", counter(names::REVOCATIONS), "count"),
        metric(
            "workspace.grow_events",
            counter(names::WORKSPACE_GROW_EVENTS),
            "count",
        ),
        metric(
            "engine.placements_per_task",
            counter(names::PLACEMENTS) / prep.trace.len() as f64,
            "ratio",
        ),
        metric(
            "trace.overhead_frac",
            engine_traced / engine_untraced - 1.0,
            "ratio",
        ),
        metric("unattributed_s", p.wall_s - layers, "s"),
    ]
}

/// The `online::shard` layer: the workload's trace once through
/// `online::run_sharded` on `SHARDS` shards (frontier-only epoch MRT,
/// period 1, exact search), its schedule validated as the CLI's sharded
/// path does.  Its figures stand beside the per-layer table, outside its
/// sum; `shard.solve_s` totals the solves of all shards.
fn shard_layer(prep: &Prepared, lower_bound: f64) -> Result<(Vec<Metric>, Vec<String>), String> {
    let solver = TimedSolver::new(Arc::new(MrtSolver));
    let config = ShardedConfig::new(SHARDS, 1.0, Arc::clone(&solver) as SolverHandle);
    let mut sink = CollectingSink::new(prep.trace.processors());
    let start = SpanTimer::start();
    let result = run_sharded(&prep.trace, &config, &mut sink, None)
        .map_err(|e| format!("online::run_sharded: {e}"))?;
    let shard_ns = start.elapsed_ns();

    let schedule = sink.into_schedule();
    let mut failures: Vec<String> = validate_against_trace(&prep.trace, &schedule)
        .into_iter()
        .map(|v| format!("sharded validation: {v}"))
        .collect();
    if result.placed != prep.trace.len() || result.invariant_violations != 0 {
        failures.push(format!(
            "sharded run placed {} of {} tasks with {} invariant violations",
            result.placed,
            prep.trace.len(),
            result.invariant_violations
        ));
    }
    let ratio_vs_lb = result.makespan / lower_bound;
    if ratio_vs_lb.is_nan() || ratio_vs_lb < 1.0 - 1e-9 {
        failures.push(format!(
            "sharded makespan below the certified bound: {ratio_vs_lb}"
        ));
    }
    let metrics = vec![
        metric("shard.s", secs(shard_ns), "s"),
        metric("shard.solve_s", solver.seconds(), "s"),
        metric("shard.steals", result.steals as f64, "count"),
        metric("shard.placements", result.placed as f64, "count"),
    ];
    Ok((metrics, failures))
}

/// Layer-share predictions this benchmark was built on.  A prediction that
/// stops holding is reported, not failed: an optimisation may rightly move
/// the dominant layer.
fn layer_share(spec: &Spec, layers: &[Metric]) -> (&'static str, bool) {
    let get = |name: &str| {
        layers
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    match spec.name {
        "file-replay" => (
            "ingest.s is the largest layer",
            ["engine.s", "validate.s", "report.s", "unattributed_s"]
                .iter()
                .all(|other| get("ingest.s") > get(other)),
        ),
        "bursty-backlog" => (
            "engine.self_s + report.s is the majority of traced.wall_s",
            get("engine.self_s") + get("report.s") > 0.5 * get("traced.wall_s"),
        ),
        _ => (
            "policy.plan_s is the majority of engine.s",
            get("policy.plan_s") > 0.5 * get("engine.s"),
        ),
    }
}

fn print_table(metrics: &[Metric]) {
    for m in metrics {
        println!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

fn json_result(tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

/// Set up, warm up and run the timed passes, recording every attempt in
/// `tally`.  Returns the metrics of the run's mode, or none when an error
/// stopped the run before they could be measured.
fn measure(args: &Args, work_dir: &Path, setup_dir: &Path, tally: &mut Tally) -> Vec<Metric> {
    let spec = args.workload;
    let (prep, mut setup_s) = match setup(spec, args.seed, work_dir, setup_dir) {
        Ok(done) => done,
        Err(e) => {
            tally.record(vec![format!("set-up: {e}")]);
            return Vec::new();
        }
    };

    // Warm-up pass, also the reference for the fidelity check and for the
    // deterministic outputs every timed pass must repeat.
    let warm = match pass(&prep, false) {
        Ok(warm) => warm,
        Err(e) => {
            tally.record(vec![e]);
            return Vec::new();
        }
    };
    let mut problems = check_fidelity(&prep, &warm);
    problems.extend(warm.failures.iter().cloned());
    // Peak memory of set-up plus one pass; read before the timed loop so it
    // does not depend on how many passes fit in the run.
    let rss_mb = peak_rss_mb().unwrap_or_else(|e| {
        problems.push(e);
        0.0
    });
    tally.record(problems);

    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let kinds: &[bool] = if args.trace { &[false, true] } else { &[false] };
    let clock = SpanTimer::start();
    'timed: while clock.elapsed().as_secs_f64() < args.seconds
        || untraced.len() < MIN_PASSES
        || (args.trace && traced.len() < MIN_PASSES)
    {
        for &kind in kinds {
            match pass(&prep, kind) {
                Ok(p) => {
                    let mut problems = p.failures.clone();
                    problems.extend(check_repeats(&p, &warm));
                    tally.record(problems);
                    if kind { &mut traced } else { &mut untraced }.push(p);
                }
                Err(e) => {
                    tally.record(vec![e]);
                    break 'timed;
                }
            }
        }
        match time_setup(spec, args.seed, setup_dir) {
            Ok(seconds) => setup_s = setup_s.min(seconds),
            Err(e) => {
                tally.record(vec![format!("set-up: {e}")]);
                break;
            }
        }
    }
    if untraced.is_empty() || (args.trace && traced.is_empty()) {
        return Vec::new();
    }
    let walls: Vec<String> = untraced
        .iter()
        .map(|p| format!("{:.3}", p.wall_s))
        .collect();
    println!("untraced pass walls (s): {}", walls.join(" "));

    if !args.trace {
        let (metrics, tail) = end_to_end(&prep, &untraced, setup_s, rss_mb);
        print_table(&metrics);
        println!(
            "  decision_tail_ms is p{} of {} plan calls, each at its fastest over {} passes ({} beyond it)",
            tail.percentile,
            tail.samples,
            untraced.len(),
            tail.beyond
        );
        if tail.beyond < 10 {
            println!(
                "  warning: fewer than 10 plan calls lie beyond p{}, so decision_tail_ms rests on few decisions",
                tail.percentile
            );
        }
        return metrics;
    }
    let mut layers = per_layer(&prep, &traced, &untraced);
    println!("per-layer table of the fastest traced pass:");
    print_table(&layers);
    let (claim, holds) = layer_share(spec, &layers);
    println!(
        "layer share: {claim}: {}",
        if holds { "holds" } else { "DOES NOT HOLD" }
    );
    match shard_layer(&prep, warm.lower_bound) {
        Ok((shard, problems)) => {
            tally.record(problems);
            println!("shard layer (online::run_sharded, {SHARDS} shards; outside the sum):");
            print_table(&shard);
            layers.extend(shard);
        }
        Err(e) => tally.record(vec![e]),
    }
    layers
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::from(2);
        }
    };
    let spec = args.workload;
    println!(
        "workload {} (n={}, m={}), seed {}, {} s{}",
        spec.name,
        spec.tasks,
        spec.processors,
        args.seed,
        args.seconds,
        if args.trace { ", traced" } else { "" }
    );
    let work_dir = Path::new(WORK_DIR);
    let setup_dir = work_dir.join("setup");
    let mut tally = Tally::default();
    let metrics = measure(&args, work_dir, &setup_dir, &mut tally);
    // Best effort: another run sharing the directories may still use them.
    let _ = fs::remove_dir(&setup_dir);
    let _ = fs::remove_dir(work_dir);
    for failure in tally.messages.iter().take(20) {
        println!("FAILED: {failure}");
    }
    println!("{}", json_result(&tally, &metrics));
    if tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
