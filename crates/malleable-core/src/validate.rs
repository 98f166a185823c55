//! The schedule oracle: one independent validity check for every schedule
//! the workspace produces (offline solvers, the online engine with
//! re-allotment, departures and faults, sharded and classed runs).  It
//! takes the run's facts as plain data ([`RunFacts`]) and
//! [`RunFacts::violations`] collects every violation:
//!
//! * **per segment** — a known task, a non-empty processor block inside the
//!   machine and inside one class, a finite start ≥ 0, a positive duration;
//! * **per task** — present unless allowed absent; first start not before
//!   its release nor after its departure deadline; durations matching the
//!   class-scaled profile `t(p) / speed` — one segment for non-preemptive
//!   runs, or disjoint segments whose executed fractions sum to one for
//!   piecewise (re-allotted) runs;
//! * **per processor** — one `O(S log S)` sort-and-sweep over executed
//!   segments, wasted segments and outages: no processor runs two segments
//!   at once or a segment during an outage.
//!
//! Times compare within [`EPS`], durations and work fractions within
//! [`EPS_ACCUM`].

use std::fmt;

use crate::eps::{EPS, EPS_ACCUM};
use crate::error::Error;
use crate::instance::Instance;
use crate::schedule::{Schedule, ScheduledTask};
use crate::task::{SpeedupProfile, TaskId};

/// Starts below `-START_SLACK` are invalid: every schedule begins at time
/// zero, and only rounding noise may place a start marginally before it.
const START_SLACK: f64 = 1e-12;

/// Segment durations at or below this are degenerate.
const MIN_DURATION: f64 = 1e-12;

/// One crash/repair interval of one processor: the processor is offline
/// over `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outage {
    /// Processor index.
    pub processor: usize,
    /// Crash time.
    pub start: f64,
    /// Repair time (`f64::INFINITY` when the processor never comes back
    /// within the run).
    pub end: f64,
}

impl Outage {
    /// Whether `[from, to)` intersects the outage interval.
    pub fn overlaps(&self, from: f64, to: f64) -> bool {
        from < self.end - EPS && to > self.start + EPS
    }
}

/// What the oracle knows about one task.
#[derive(Debug, Clone, Copy)]
pub struct TaskFacts<'a> {
    /// The task's reference-speed profile.
    pub profile: &'a SpeedupProfile,
    /// Release (arrival) time: the first segment may not start earlier.
    pub release: f64,
    /// Departure deadline: the first segment may not start later.
    pub departs_at: Option<f64>,
    /// Whether the task may legitimately have no executed segment
    /// (departed or abandoned).
    pub may_be_absent: bool,
}

/// The facts of one run, as plain data.
#[derive(Debug, Clone)]
pub struct RunFacts<'a> {
    /// Number of processors of the machine.
    pub processors: usize,
    /// Per-task facts, indexed by task id.
    pub tasks: Vec<TaskFacts<'a>>,
    /// Contiguous machine classes as `(count, speed)` in processor order;
    /// empty for identical machines (one class at speed 1).  A segment on
    /// class `c` takes `t(p) / speed_c`.
    pub classes: Vec<(usize, f64)>,
    /// The executed segments.
    pub executed: &'a Schedule,
    /// Segments that occupied processors without contributing work (the
    /// heads of failed attempts); they take part in the processor sweep
    /// only.
    pub wasted: &'a [ScheduledTask],
    /// Processor outages: nothing may run on them.
    pub outages: &'a [Outage],
    /// Whether a task may run as several re-allotted segments (work
    /// conservation) instead of exactly one (duration check).
    pub piecewise: bool,
}

impl<'a> RunFacts<'a> {
    /// The offline model: every task released at time zero, required, run
    /// non-preemptively on identical machines.
    pub fn offline(instance: &'a Instance, schedule: &'a Schedule) -> Self {
        RunFacts {
            processors: instance.processors(),
            tasks: instance
                .tasks()
                .iter()
                .map(|task| TaskFacts {
                    profile: &task.profile,
                    release: 0.0,
                    departs_at: None,
                    may_be_absent: false,
                })
                .collect(),
            classes: Vec::new(),
            executed: schedule,
            wasted: &[],
            outages: &[],
            piecewise: false,
        }
    }

    /// Every violation of the run (empty = valid).
    pub fn violations(&self) -> Vec<Violation> {
        let (mut out, machine) = (Vec::new(), self.processors);
        let schedule = self.executed.processors();
        if schedule != machine {
            out.push(Violation::MachineMismatch { schedule, machine });
        }
        let classes = self.class_table(&mut out);

        // Per-processor sweep lanes, and the executed segments as
        // (task, start, duration, count, speed).
        let mut lanes: Vec<Vec<Interval>> = vec![Vec::new(); machine];
        let mut segments = Vec::new();
        for (index, outage) in self.outages.iter().enumerate() {
            let (processor, start, end) = (outage.processor, outage.start, outage.end);
            let owner = Owner::Outage(index);
            match lanes.get_mut(processor) {
                Some(lane) if start < end => lane.push(Interval { start, end, owner }),
                Some(_) => {}
                None => out.push(Violation::OutageOutOfMachine { processor }),
            }
        }
        let executed = self.executed.entries().iter().map(|entry| (entry, true));
        for (entry, is_executed) in executed.chain(self.wasted.iter().map(|entry| (entry, false))) {
            let Some(speed) = self.check_segment(entry, &classes, &mut out) else {
                continue;
            };
            let (task, start, duration) = (entry.task, entry.start, entry.duration);
            let (end, owner, processors) = (start + duration, Owner::Task(task), entry.processors);
            for lane in lanes
                .get_mut(processors.first..processors.end())
                .unwrap_or_default()
            {
                lane.push(Interval { start, end, owner });
            }
            if is_executed {
                segments.push((task, start, duration, processors.count, speed));
            }
        }

        segments.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
        let mut rest = segments.as_slice();
        for (task, facts) in self.tasks.iter().enumerate() {
            let (mine, tail) = rest.split_at(rest.iter().take_while(|s| s.0 == task).count());
            rest = tail;
            self.check_task(task, facts, mine, &mut out);
        }
        for (processor, lane) in lanes.iter_mut().enumerate() {
            self.sweep(processor, lane, &mut out);
        }
        out
    }

    /// Each class's one-past-the-end processor and speed, in processor
    /// order; one speed-1 class spanning the machine when no classes are
    /// given or their counts do not partition it (reported).
    fn class_table(&self, out: &mut Vec<Violation>) -> Vec<(usize, f64)> {
        let machine = self.processors;
        let total = self.classes.iter().map(|&(count, _)| count).sum();
        if total != machine || self.classes.is_empty() {
            if !self.classes.is_empty() {
                out.push(Violation::ClassesMismatch { total, machine });
            }
            return vec![(machine, 1.0)];
        }
        let mut end = 0;
        let mut class_end = |&(count, speed): &(usize, f64)| {
            end += count;
            (end, speed)
        };
        self.classes.iter().map(&mut class_end).collect()
    }

    /// The per-segment checks.  Returns the speed of the segment's class
    /// when the segment is sound enough for the sweep and the per-task
    /// checks.
    fn check_segment(
        &self,
        entry: &ScheduledTask,
        classes: &[(usize, f64)],
        out: &mut Vec<Violation>,
    ) -> Option<f64> {
        let (task, start, duration) = (entry.task, entry.start, entry.duration);
        let (first, count) = (entry.processors.first, entry.processors.count);
        let fits = first
            .checked_add(count)
            .is_some_and(|end| end <= self.processors);
        let violation = if task >= self.tasks.len() {
            Violation::UnknownTask { task }
        } else if count == 0 {
            Violation::EmptyAllotment { task }
        } else if !fits {
            Violation::OutOfMachine { task, first, count }
        } else if !(start.is_finite() && start >= -START_SLACK) {
            Violation::InvalidStart { task, start }
        } else if !(duration.is_finite() && duration > MIN_DURATION) {
            // A degenerate duration would poison the work sums (NaN compares
            // false against every threshold) and the sweep.
            Violation::InvalidDuration { task, duration }
        } else {
            let class = classes.partition_point(|&(end, _)| end <= first);
            let &(boundary, speed) = classes.get(class)?;
            if first + count > boundary {
                out.push(Violation::ClassStraddle {
                    task,
                    first,
                    count,
                    boundary,
                });
            }
            return Some(speed);
        };
        out.push(violation);
        None
    }

    /// The per-task checks over the task's executed segments, sorted by
    /// start.
    fn check_task(
        &self,
        task: TaskId,
        facts: &TaskFacts<'_>,
        segments: &[(TaskId, f64, f64, usize, f64)],
        out: &mut Vec<Violation>,
    ) {
        let Some(&(_, start, ..)) = segments.first() else {
            if !facts.may_be_absent {
                out.push(Violation::MissingTask { task });
            }
            return;
        };
        let release = facts.release;
        if start < release - EPS {
            out.push(Violation::BeforeRelease {
                task,
                start,
                release,
            });
        }
        if let Some(departs_at) = facts.departs_at.filter(|&d| start > d + EPS) {
            out.push(Violation::AfterDeparture {
                task,
                start,
                departs_at,
            });
        }
        if !self.piecewise && segments.len() > 1 {
            out.push(Violation::DuplicatedTask { task });
        }
        // Durations under the class-scaled profile: each segment executes
        // `duration / (t(p) / speed)` of the task.
        let (mut executed, mut finish) = (0.0, f64::NEG_INFINITY);
        for &(_, at, actual, processors, speed) in segments {
            let expected = facts.profile.time(processors) / speed;
            if self.piecewise {
                if at < finish - EPS {
                    out.push(Violation::ConcurrentSegments { task, at });
                }
                finish = finish.max(at + actual);
                executed += actual / expected;
            } else if (expected - actual).abs() > EPS_ACCUM {
                out.push(Violation::DurationMismatch {
                    task,
                    processors,
                    expected,
                    actual,
                });
            }
        }
        if self.piecewise && (executed - 1.0).abs() > EPS_ACCUM {
            out.push(Violation::WorkNotConserved { task, executed });
        }
    }

    /// Sort one processor's intervals by start and sweep them, tracking the
    /// latest-ending segment and the latest-ending outage seen so far: an
    /// interval starting before either ends overlaps it.
    fn sweep(&self, processor: usize, lane: &mut [Interval], out: &mut Vec<Violation>) {
        lane.sort_unstable_by(|a, b| a.start.total_cmp(&b.start));
        let mut busy: Option<(f64, TaskId)> = None;
        let mut down: Option<Outage> = None;
        for interval in lane.iter() {
            let overlaps = |end: f64| interval.start < end - EPS;
            match interval.owner {
                Owner::Task(second_task) => {
                    if let Some((_, first_task)) = busy.filter(|b| overlaps(b.0)) {
                        out.push(Violation::Overlap {
                            processor,
                            first_task,
                            second_task,
                        });
                    }
                    if let Some(outage) = down.filter(|d| overlaps(d.end)) {
                        out.push(Violation::DuringOutage {
                            task: second_task,
                            outage,
                        });
                    }
                    if busy.is_none_or(|b| interval.end > b.0) {
                        busy = Some((interval.end, second_task));
                    }
                }
                Owner::Outage(index) => {
                    let outage = self.outages.get(index).copied();
                    if let (Some((_, task)), Some(outage)) =
                        (busy.filter(|b| overlaps(b.0)), outage)
                    {
                        out.push(Violation::DuringOutage { task, outage });
                    }
                    if down.is_none_or(|d| interval.end > d.end) {
                        down = outage;
                    }
                }
            }
        }
    }
}

/// One interval of a processor's sweep.
#[derive(Debug, Clone, Copy)]
struct Interval {
    start: f64,
    end: f64,
    owner: Owner,
}

#[derive(Debug, Clone, Copy)]
enum Owner {
    Task(TaskId),
    Outage(usize),
}

/// One violation found by the oracle.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// The schedule targets a different machine size than the run.
    MachineMismatch { schedule: usize, machine: usize },
    /// The machine classes' counts do not sum to the machine size.
    ClassesMismatch { total: usize, machine: usize },
    /// A segment references a task outside the run.
    UnknownTask { task: TaskId },
    /// A required task has no executed segment.
    MissingTask { task: TaskId },
    /// A task of a non-preemptive run has more than one segment.
    DuplicatedTask { task: TaskId },
    /// A segment allots no processor.
    EmptyAllotment { task: TaskId },
    /// A segment uses processors outside `0..m`.
    OutOfMachine {
        task: TaskId,
        first: usize,
        count: usize,
    },
    /// A segment spans two machine classes (`boundary` is the first
    /// processor of the next class).
    ClassStraddle {
        task: TaskId,
        first: usize,
        count: usize,
        boundary: usize,
    },
    /// A segment starts before time zero or at a non-finite time.
    InvalidStart { task: TaskId, start: f64 },
    /// A segment's duration is non-finite or not positive.
    InvalidDuration { task: TaskId, duration: f64 },
    /// A non-preemptive segment's duration disagrees with the class-scaled
    /// profile time on its `processors`.
    DurationMismatch {
        task: TaskId,
        processors: usize,
        expected: f64,
        actual: f64,
    },
    /// Two segments of one task overlap in time (`at`: the later start).
    ConcurrentSegments { task: TaskId, at: f64 },
    /// The executed fractions of a task's segments do not sum to one.
    WorkNotConserved { task: TaskId, executed: f64 },
    /// A task first starts before its release.
    BeforeRelease {
        task: TaskId,
        start: f64,
        release: f64,
    },
    /// A task first starts after its departure deadline.
    AfterDeparture {
        task: TaskId,
        start: f64,
        departs_at: f64,
    },
    /// Two segments share a processor at the same time.
    Overlap {
        processor: usize,
        first_task: TaskId,
        second_task: TaskId,
    },
    /// A segment runs on a processor during its outage.
    DuringOutage { task: TaskId, outage: Outage },
    /// An outage names a processor outside the machine.
    OutageOutOfMachine { processor: usize },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Violation::*;
        match *self {
            MachineMismatch { schedule, machine } => write!(
                f,
                "schedule has {schedule} processors, the machine {machine}"
            ),
            ClassesMismatch { total, machine } => {
                write!(f, "class counts sum to {total}, the machine has {machine}")
            }
            UnknownTask { task } => write!(f, "task {task} does not exist"),
            MissingTask { task } => write!(f, "task {task} is not scheduled"),
            DuplicatedTask { task } => write!(f, "task {task} is scheduled twice"),
            EmptyAllotment { task } => write!(f, "task {task} is allotted no processor"),
            OutOfMachine { task, first, count } => write!(
                f,
                "task {task} uses {count} processors from {first}, beyond the machine"
            ),
            ClassStraddle { task, boundary, .. } => write!(
                f,
                "task {task} spans the class boundary at processor {boundary}"
            ),
            InvalidStart { task, start } => write!(f, "task {task} has invalid start {start}"),
            InvalidDuration { task, duration } => {
                write!(f, "task {task} has degenerate duration {duration}")
            }
            DurationMismatch {
                task,
                processors: p,
                expected,
                actual,
            } => write!(
                f,
                "task {task} runs {actual} on {p} processor(s), its profile {expected}"
            ),
            ConcurrentSegments { task, at } => {
                write!(f, "task {task} runs two segments concurrently at {at}")
            }
            WorkNotConserved { task, executed } => {
                write!(f, "task {task} executes fraction {executed} of its work")
            }
            BeforeRelease {
                task,
                start,
                release,
            } => write!(
                f,
                "task {task} starts at {start} before its arrival at {release}"
            ),
            AfterDeparture {
                task,
                start,
                departs_at,
            } => write!(
                f,
                "task {task} starts at {start} after its departure at {departs_at}"
            ),
            Overlap {
                processor,
                first_task: a,
                second_task: b,
            } => write!(f, "tasks {a} and {b} overlap on processor {processor}"),
            DuringOutage { task, outage: o } => write!(
                f,
                "task {task} runs on processor {} in its outage [{}, {})",
                o.processor, o.start, o.end
            ),
            OutageOutOfMachine { processor } => {
                write!(f, "outage on processor {processor} beyond the machine")
            }
        }
    }
}

impl From<Violation> for Error {
    /// The fail-fast view used by [`Schedule::validate`].
    fn from(violation: Violation) -> Self {
        match violation {
            Violation::UnknownTask { task }
            | Violation::MissingTask { task }
            | Violation::DuplicatedTask { task } => Error::UnknownTask { task },
            Violation::DurationMismatch {
                processors, actual, ..
            } => Error::InvalidTime {
                processors,
                time: actual,
            },
            other => Error::InvalidSchedule {
                message: other.to_string(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::ProcessorRange;
    use proptest::prelude::*;

    fn instance() -> Instance {
        Instance::from_profiles(
            vec![
                SpeedupProfile::new(vec![2.0, 1.2]).unwrap(),
                SpeedupProfile::sequential(1.0).unwrap(),
            ],
            3,
        )
        .unwrap()
    }

    fn entry(task: TaskId, start: f64, duration: f64, first: usize, count: usize) -> ScheduledTask {
        ScheduledTask {
            task,
            start,
            duration,
            processors: ProcessorRange::new(first, count),
        }
    }

    fn schedule(entries: &[ScheduledTask]) -> Schedule {
        let mut schedule = Schedule::new(3);
        for &e in entries {
            schedule.push(e);
        }
        schedule
    }

    /// Offline facts with every task allowed absent and, optionally,
    /// piecewise segments (the online engine's subset view).
    fn subset<'a>(inst: &'a Instance, s: &'a Schedule, piecewise: bool) -> Vec<Violation> {
        let mut facts = RunFacts::offline(inst, s);
        facts.piecewise = piecewise;
        for task in &mut facts.tasks {
            task.may_be_absent = true;
        }
        facts.violations()
    }

    fn offline(inst: &Instance, entries: &[ScheduledTask]) -> Vec<Violation> {
        RunFacts::offline(inst, &schedule(entries)).violations()
    }

    #[test]
    fn valid_schedule_has_no_violations() {
        let inst = instance();
        let report = offline(&inst, &[entry(0, 0.0, 1.2, 0, 2), entry(1, 0.0, 1.0, 2, 1)]);
        assert!(report.is_empty(), "{report:?}");
    }

    #[test]
    fn missing_and_duplicate_tasks_are_reported() {
        let inst = instance();
        let report = offline(&inst, &[entry(0, 0.0, 1.2, 0, 2), entry(0, 2.0, 1.2, 0, 2)]);
        assert!(report.contains(&Violation::MissingTask { task: 1 }));
        assert!(report.contains(&Violation::DuplicatedTask { task: 0 }));
    }

    #[test]
    fn overlap_and_capacity_violations_are_reported() {
        let inst = instance();
        let report = offline(&inst, &[entry(0, 0.0, 1.2, 1, 2), entry(1, 0.5, 1.0, 2, 1)]);
        assert!(report.contains(&Violation::Overlap {
            processor: 2,
            first_task: 0,
            second_task: 1
        }));
        let report = offline(&inst, &[entry(0, 0.0, 1.2, 2, 2), entry(1, 0.0, 1.0, 0, 1)]);
        assert!(report.contains(&Violation::OutOfMachine {
            task: 0,
            first: 2,
            count: 2
        }));
        // A hand-built empty allotment is reported, not a panic in the
        // profile lookup.
        let mut empty = entry(0, 0.0, 1.2, 0, 2);
        empty.processors.count = 0;
        let report = offline(&inst, &[empty, entry(1, 0.0, 1.0, 2, 1)]);
        assert!(report.contains(&Violation::EmptyAllotment { task: 0 }));
    }

    #[test]
    fn duration_mismatch_and_deadline_are_reported() {
        let inst = instance();
        let s = schedule(&[entry(0, 0.0, 0.7, 0, 2), entry(1, 1.5, 1.0, 2, 1)]);
        let mut facts = RunFacts::offline(&inst, &s);
        facts.tasks[1].departs_at = Some(1.0);
        let report = facts.violations();
        assert!(report.contains(&Violation::DurationMismatch {
            task: 0,
            processors: 2,
            expected: 1.2,
            actual: 0.7
        }));
        assert!(report.contains(&Violation::AfterDeparture {
            task: 1,
            start: 1.5,
            departs_at: 1.0
        }));
        // Released at 2.0, the same task starts too early instead.
        facts.tasks[1].departs_at = None;
        facts.tasks[1].release = 2.0;
        assert!(facts.violations().contains(&Violation::BeforeRelease {
            task: 1,
            start: 1.5,
            release: 2.0
        }));
    }

    #[test]
    fn subset_validation_tolerates_missing_tasks_only() {
        let inst = instance();
        let partial = schedule(&[entry(0, 0.0, 1.2, 0, 2)]);
        // Task 1 absent: the strict view objects, the subset one does not.
        assert!(!RunFacts::offline(&inst, &partial).violations().is_empty());
        assert!(subset(&inst, &partial, false).is_empty());
        // Every other violation class still fires in subset mode.
        let overlapping = schedule(&[entry(0, 0.0, 1.2, 0, 2), entry(1, 0.5, 1.0, 1, 1)]);
        let report = subset(&inst, &overlapping, false);
        assert!(report
            .iter()
            .any(|v| matches!(v, Violation::Overlap { .. })));
        let duplicated = schedule(&[entry(0, 0.0, 1.2, 0, 2), entry(0, 2.0, 1.2, 0, 2)]);
        assert!(subset(&inst, &duplicated, false).contains(&Violation::DuplicatedTask { task: 0 }));
    }

    #[test]
    fn piecewise_segments_conserving_work_are_valid() {
        let inst = instance();
        // Task 0 (t(1)=2.0, t(2)=1.2) split mid-execution: half its work at
        // one processor (1.0 time unit), the other half at two (0.6 units).
        let s = schedule(&[
            entry(0, 0.0, 1.0, 0, 1),
            entry(0, 1.0, 0.6, 0, 2),
            entry(1, 0.0, 1.0, 2, 1),
        ]);
        let report = subset(&inst, &s, true);
        assert!(report.is_empty(), "{report:?}");
        // The same schedule fails the non-preemptive view (duplicate and
        // duration mismatch), which is exactly why the piecewise mode exists.
        let report = subset(&inst, &s, false);
        assert!(report.contains(&Violation::DuplicatedTask { task: 0 }));
        assert!(report
            .iter()
            .any(|v| matches!(v, Violation::DurationMismatch { task: 0, .. })));
    }

    #[test]
    fn piecewise_validator_accepts_single_allotment_schedules() {
        let inst = instance();
        let s = schedule(&[entry(0, 0.0, 1.2, 0, 2), entry(1, 0.0, 1.0, 2, 1)]);
        assert!(subset(&inst, &s, true).is_empty());
        // Subset semantics: a missing task is fine, a short duration is not.
        assert!(subset(&inst, &schedule(&[entry(1, 0.0, 1.0, 2, 1)]), true).is_empty());
        let short = schedule(&[entry(0, 0.0, 0.9, 0, 2)]);
        assert!(subset(&inst, &short, true)
            .iter()
            .any(|v| matches!(v, Violation::WorkNotConserved { task: 0, .. })));
    }

    #[test]
    fn piecewise_violations_are_reported() {
        let inst = instance();
        // Work over-executed (both segments run the whole task).
        let over = schedule(&[entry(0, 0.0, 1.2, 0, 2), entry(0, 2.0, 1.2, 0, 2)]);
        assert!(subset(&inst, &over, true)
            .iter()
            .any(|v| matches!(v, Violation::WorkNotConserved { task: 0, .. })));
        // Concurrent segments of one task on disjoint processors: caught by
        // the per-task chronology check, not the processor sweep.
        let concurrent = schedule(&[entry(0, 0.0, 1.0, 0, 1), entry(0, 0.5, 0.6, 1, 2)]);
        let report = subset(&inst, &concurrent, true);
        assert!(report.contains(&Violation::ConcurrentSegments { task: 0, at: 0.5 }));
        assert!(!report
            .iter()
            .any(|v| matches!(v, Violation::Overlap { .. })));
        // Cross-task processor overlaps still fire.
        let overlap = schedule(&[entry(0, 0.0, 1.2, 0, 2), entry(1, 0.5, 1.0, 1, 1)]);
        assert!(subset(&inst, &overlap, true)
            .iter()
            .any(|v| matches!(v, Violation::Overlap { .. })));
        // Degenerate durations and starts are reported, never silently
        // accepted: a NaN would otherwise poison the conservation sum.
        for bad in [f64::NAN, -1.0, 0.0, f64::INFINITY] {
            let report = subset(&inst, &schedule(&[entry(0, 0.0, bad, 0, 2)]), true);
            assert!(
                report
                    .iter()
                    .any(|v| matches!(v, Violation::InvalidDuration { task: 0, .. })),
                "duration {bad}: {report:?}"
            );
            let report = subset(&inst, &schedule(&[entry(0, bad, 1.2, 0, 2)]), true);
            assert!(
                report
                    .iter()
                    .any(|v| matches!(v, Violation::InvalidStart { task: 0, .. }))
                    || bad == 0.0,
                "start {bad}: {report:?}"
            );
        }
    }

    #[test]
    fn unknown_task_is_reported() {
        let inst = instance();
        let report = offline(
            &inst,
            &[
                entry(0, 0.0, 1.2, 0, 2),
                entry(1, 0.0, 1.0, 2, 1),
                entry(7, 0.0, 1.0, 2, 1),
            ],
        );
        assert_eq!(report, vec![Violation::UnknownTask { task: 7 }]);
    }

    #[test]
    fn violations_render_messages() {
        let v = Violation::AfterDeparture {
            task: 3,
            start: 2.0,
            departs_at: 1.5,
        };
        assert!(v.to_string().contains("after its departure"));
        let straddle = Violation::ClassStraddle {
            task: 0,
            first: 1,
            count: 2,
            boundary: 2,
        };
        assert!(straddle.to_string().contains("class boundary"));
        // The fail-fast adapter keeps the historical error kinds.
        assert_eq!(
            Error::from(Violation::MissingTask { task: 4 }),
            Error::UnknownTask { task: 4 }
        );
        assert!(matches!(
            Error::from(straddle),
            Error::InvalidSchedule { .. }
        ));
    }

    #[test]
    fn outages_and_wasted_segments_share_the_sweep() {
        let inst = instance();
        let s = schedule(&[entry(0, 0.0, 1.2, 0, 2), entry(1, 0.0, 1.0, 2, 1)]);
        let wasted = [entry(1, 1.0, 0.5, 2, 1)];
        let outages = [Outage {
            processor: 2,
            start: 1.5,
            end: f64::INFINITY,
        }];
        let mut facts = RunFacts::offline(&inst, &s);
        facts.wasted = &wasted;
        facts.outages = &outages;
        // Touching intervals do not overlap: [0,1) [1,1.5) and the outage
        // from 1.5 on share only endpoints.
        assert!(facts.violations().is_empty(), "{:?}", facts.violations());
        let wasted = [entry(1, 0.9, 0.7, 2, 1)];
        facts.wasted = &wasted;
        let report = facts.violations();
        assert!(report.contains(&Violation::Overlap {
            processor: 2,
            first_task: 1,
            second_task: 1
        }));
        assert!(report.contains(&Violation::DuringOutage {
            task: 1,
            outage: outages[0]
        }));
        let outside = [Outage {
            processor: 3,
            start: 0.0,
            end: 1.0,
        }];
        facts.outages = &outside;
        assert!(facts
            .violations()
            .contains(&Violation::OutageOutOfMachine { processor: 3 }));
    }

    #[test]
    fn class_scaled_durations_and_boundaries_are_checked() {
        // Task 0 on the speed-2 class [1, 3) takes t(2) / 2 = 0.6.
        let inst = instance();
        let s = schedule(&[entry(0, 0.0, 0.6, 1, 2), entry(1, 0.0, 1.0, 0, 1)]);
        let mut facts = RunFacts::offline(&inst, &s);
        facts.classes = vec![(1, 1.0), (2, 2.0)];
        assert!(facts.violations().is_empty(), "{:?}", facts.violations());
        // At reference speed the same segment is too short ...
        facts.classes = vec![(3, 1.0)];
        assert!(facts
            .violations()
            .iter()
            .any(|v| matches!(v, Violation::DurationMismatch { task: 0, .. })));
        // ... and across a class boundary it straddles.
        facts.classes = vec![(2, 2.0), (1, 2.0)];
        assert!(facts.violations().contains(&Violation::ClassStraddle {
            task: 0,
            first: 1,
            count: 2,
            boundary: 2
        }));
        // Counts that do not partition the machine are rejected outright.
        facts.classes = vec![(1, 1.0), (1, 1.0)];
        assert!(facts.violations().contains(&Violation::ClassesMismatch {
            total: 2,
            machine: 3
        }));
    }

    /// The oracle's sweep must answer "is there an overlap" and "does a
    /// segment run in an outage" exactly like the all-pairs references.
    fn sweep_matches_all_pairs(
        segments: &[(usize, usize, usize, usize)],
        jitter: &[f64],
        outages: &[(usize, usize, usize)],
    ) -> std::result::Result<(), TestCaseError> {
        const M: usize = 4;
        let profile = SpeedupProfile::sequential(1.0).unwrap();
        let mut executed = Schedule::new(M);
        let mut wasted = Vec::new();
        for (i, &(k, d, first, c)) in segments.iter().enumerate() {
            // Grid starts exercise touching intervals; odd grid points get
            // an off-grid jitter.
            let start = k as f64 * 0.25 + if k % 2 == 1 { jitter[i] } else { 0.0 };
            let e = entry(i, start, d as f64 * 0.25, first, 1 + c % (M - first));
            if i % 3 == 2 {
                wasted.push(e);
            } else {
                executed.push(e);
            }
        }
        let outages: Vec<Outage> = outages
            .iter()
            .map(|&(p, k, d)| Outage {
                processor: p,
                start: k as f64 * 0.25,
                end: (k + d) as f64 * 0.25,
            })
            .collect();
        let facts = RunFacts {
            processors: M,
            tasks: segments
                .iter()
                .map(|_| TaskFacts {
                    profile: &profile,
                    release: 0.0,
                    departs_at: None,
                    may_be_absent: true,
                })
                .collect(),
            classes: Vec::new(),
            executed: &executed,
            wasted: &wasted,
            outages: &outages,
            piecewise: true,
        };
        let report = facts.violations();
        let all: Vec<ScheduledTask> = executed.entries().iter().chain(&wasted).copied().collect();
        let pairs = all
            .iter()
            .enumerate()
            .any(|(i, a)| all[i + 1..].iter().any(|b| a.conflicts_with(b)));
        let downs = all.iter().any(|e| {
            outages.iter().any(|o| {
                e.processors.overlaps(&ProcessorRange::new(o.processor, 1))
                    && o.overlaps(e.start, e.finish())
            })
        });
        let swept = report
            .iter()
            .any(|v| matches!(v, Violation::Overlap { .. }));
        let swept_down = report
            .iter()
            .any(|v| matches!(v, Violation::DuringOutage { .. }));
        prop_assert_eq!(swept, pairs);
        prop_assert_eq!(swept_down, downs);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn overlap_sweep_matches_the_all_pairs_reference(
            segments in prop::collection::vec((0usize..24, 1usize..9, 0usize..4, 0usize..4), 1..14),
            jitter in prop::collection::vec(0.0f64..0.3, 14),
            outages in prop::collection::vec((0usize..4, 0usize..24, 1usize..9), 0..3),
        ) {
            sweep_matches_all_pairs(&segments, &jitter, &outages)?;
        }
    }

    #[test]
    fn hundred_thousand_segments_validate_within_a_time_bound() {
        // 100k four-wide unit segments packed back to back on 64
        // processors: an all-pairs check would make ~5·10⁹ comparisons
        // (minutes even in release); the sweep takes well under a second.
        const N: usize = 100_000;
        let profile = SpeedupProfile::sequential(1.0).unwrap();
        let mut executed = Schedule::new(64);
        for i in 0..N {
            executed.push(entry(i, (i / 16) as f64, 1.0, (i % 16) * 4, 4));
        }
        let wasted = [entry(0, 0.5, 1.0, 0, 1)];
        let facts = RunFacts {
            processors: 64,
            tasks: vec![
                TaskFacts {
                    profile: &profile,
                    release: 0.0,
                    departs_at: None,
                    may_be_absent: false,
                };
                N
            ],
            classes: Vec::new(),
            executed: &executed,
            wasted: &wasted,
            outages: &[],
            piecewise: false,
        };
        let clock = telemetry::SpanTimer::start();
        let report = facts.violations();
        let elapsed = clock.elapsed();
        assert!(
            elapsed < std::time::Duration::from_secs(20),
            "validating {N} segments took {elapsed:?}"
        );
        // The one wasted segment overlaps task 0 and then task 16.
        assert_eq!(
            report,
            vec![
                Violation::Overlap {
                    processor: 0,
                    first_task: 0,
                    second_task: 0
                },
                Violation::Overlap {
                    processor: 0,
                    first_task: 0,
                    second_task: 16
                },
            ]
        );
    }
}
