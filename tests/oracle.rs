//! Mutation tests of the schedule oracle (`malleable_core::validate`).
//!
//! Three clean runs — an event-engine run under a fault plan with
//! mid-execution re-allotment, a two-class classed run, and a two-shard
//! sharded run — must validate without a single violation.  Then one
//! corruption at a time is applied to a copy of a run's facts, and the
//! oracle must report it.

use hetero::{run_classed, ClassedCluster, ClassedEngineOptions, ClassedRunResult};
use malleable_core::{
    MrtSolver, Outage, ProcessorRange, RunFacts, Schedule, ScheduledTask, Violation,
};
use online::{run_sharded, CollectingSink, EpochReplan, OnlineResult, ShardedConfig};
use workload::{
    classed_trace, parse_class_specs, ArrivalPattern, ArrivalTrace, DeparturePolicy, FaultConfig,
    FaultPlan, RetryPolicy, TraceConfig, WorkloadConfig,
};

const M: usize = 8;

/// Bursty overload on 8 processors, half the tasks impatient, under seeded
/// crashes and task failures, re-planned every epoch with queued and
/// running re-allotment.
fn faulted_run() -> (ArrivalTrace, OnlineResult) {
    let trace = ArrivalTrace::generate(&TraceConfig {
        workload: WorkloadConfig::mixed(48, M, 5),
        pattern: ArrivalPattern::Bursty {
            burst_size: 8,
            burst_gap: 2.0,
        },
    })
    .unwrap()
    .with_departures(DeparturePolicy::Patience { mean: 6.0 }, 5)
    .unwrap();
    // Half the tasks are patient, so the run has required tasks too.
    let mut arrivals = trace.arrivals().to_vec();
    for arrival in arrivals.iter_mut().step_by(2) {
        arrival.departs_at = None;
    }
    let trace = ArrivalTrace::new(M, arrivals).unwrap();
    let retry = RetryPolicy::default();
    let plan = FaultPlan::generate(
        &FaultConfig::new(M, trace.len(), 80.0, 5)
            .with_crashes(12.0, 2.0)
            .with_task_failures(0.2, retry.max_attempts),
    )
    .unwrap();
    let mut policy = EpochReplan::mrt(1.0)
        .unwrap()
        .with_preempt_queued(true)
        .with_preempt_running(true);
    let result = online::run_with_faults(&trace, &mut policy, &plan, retry, None).unwrap();
    (trace, result)
}

fn classed_run() -> (ArrivalTrace, ClassedRunResult) {
    let spec = "old=5x1.0,new=3x2.0";
    let trace = classed_trace(&parse_class_specs(spec).unwrap(), 32, 3).unwrap();
    let cluster = ClassedCluster::from_spec(spec).unwrap();
    let result = run_classed(&trace, &cluster, &ClassedEngineOptions::default()).unwrap();
    (trace, result)
}

fn sharded_run() -> (ArrivalTrace, Schedule) {
    let trace = ArrivalTrace::generate(&TraceConfig {
        workload: WorkloadConfig::mixed(64, M, 9),
        pattern: ArrivalPattern::Poisson { rate: 3.0 },
    })
    .unwrap();
    let config = ShardedConfig::new(2, 1.0, std::sync::Arc::new(MrtSolver));
    let mut sink = CollectingSink::new(M);
    run_sharded(&trace, &config, &mut sink, None).unwrap();
    (trace, sink.into_schedule())
}

/// A schedule equal to `schedule` with `edit` applied to its entries.
fn edited(schedule: &Schedule, edit: impl FnOnce(&mut Vec<ScheduledTask>)) -> Schedule {
    let mut entries = schedule.entries().to_vec();
    edit(&mut entries);
    let mut out = Schedule::new(schedule.processors());
    for entry in entries {
        out.push(entry);
    }
    out
}

/// Assert that `facts` reports a violation matching `wanted`.
fn assert_caught(facts: &RunFacts<'_>, what: &str, wanted: impl Fn(&Violation) -> bool) {
    let report = facts.violations();
    assert!(report.iter().any(wanted), "{what} not reported: {report:?}");
}

#[test]
fn clean_runs_validate() {
    let (trace, result) = faulted_run();
    assert!(result.crashes > 0 && !result.wasted.is_empty() && result.reallotted > 0);
    assert!(result.departed > 0 || !result.abandoned.is_empty());
    assert_eq!(result.run_facts(&trace).violations(), vec![]);
    let (trace, result) = classed_run();
    assert_eq!(result.run_facts(&trace).violations(), vec![]);
    let (trace, schedule) = sharded_run();
    let mut facts = trace.run_facts(&schedule);
    assert_eq!(facts.violations(), vec![]);
    facts.piecewise = false;
    assert_eq!(
        facts.violations(),
        vec![],
        "sharded runs are non-preemptive"
    );
}

#[test]
fn faulted_run_corruptions_are_caught() {
    let (trace, result) = faulted_run();
    let facts = result.run_facts(&trace);
    let arrivals = trace.arrivals();
    let first_segment = |task: usize| {
        result
            .schedule
            .entries()
            .iter()
            .position(|e| e.task == task)
            .unwrap()
    };

    // A start before arrival.
    let late = (0..trace.len())
        .find(|&t| arrivals[t].at > 1.0 && result.schedule.entries().iter().any(|e| e.task == t))
        .unwrap();
    let at = arrivals[late].at;
    let schedule = edited(&result.schedule, |e| {
        e[first_segment(late)].start = at - 0.5
    });
    let corrupt = RunFacts {
        executed: &schedule,
        ..facts.clone()
    };
    assert_caught(
        &corrupt,
        "start before arrival",
        |v| matches!(v, Violation::BeforeRelease { task, .. } if *task == late),
    );

    // A first start after the departure deadline: every segment of an
    // executed impatient task shifted past it.
    let impatient = (0..trace.len())
        .find(|&t| {
            arrivals[t].departs_at.is_some()
                && result.schedule.entries().iter().any(|e| e.task == t)
        })
        .unwrap();
    let deadline = arrivals[impatient].departs_at.unwrap();
    let shift = deadline + 1.0 - result.schedule.entries()[first_segment(impatient)].start;
    let schedule = edited(&result.schedule, |e| {
        for segment in e.iter_mut().filter(|s| s.task == impatient) {
            segment.start += shift;
        }
    });
    let corrupt = RunFacts {
        executed: &schedule,
        ..facts.clone()
    };
    assert_caught(
        &corrupt,
        "start after departure",
        |v| matches!(v, Violation::AfterDeparture { task, .. } if *task == impatient),
    );

    // A wasted segment moved onto an executed one, and an executed segment
    // moved onto a wasted one: both overlap on the shared processors.
    let target = result.schedule.entries()[0];
    let mut wasted = result.wasted.clone();
    wasted[0].start = target.start;
    wasted[0].processors = target.processors;
    let corrupt = RunFacts {
        wasted: &wasted,
        ..facts.clone()
    };
    assert_caught(&corrupt, "wasted-on-executed overlap", |v| {
        matches!(v, Violation::Overlap { .. })
    });
    let lost = result.wasted[0];
    let schedule = edited(&result.schedule, |e| {
        e[0].start = lost.start;
        e[0].processors = lost.processors;
    });
    let corrupt = RunFacts {
        executed: &schedule,
        ..facts.clone()
    };
    assert_caught(&corrupt, "executed-on-wasted overlap", |v| {
        matches!(v, Violation::Overlap { .. })
    });

    // A segment during an outage.
    let outage = result.outages[0];
    let mut wasted = result.wasted.clone();
    wasted[0].start = outage.start;
    wasted[0].processors = ProcessorRange::new(outage.processor, 1);
    let corrupt = RunFacts {
        wasted: &wasted,
        ..facts.clone()
    };
    assert_caught(
        &corrupt,
        "segment in an outage",
        |v| matches!(v, Violation::DuringOutage { outage: o, .. } if *o == outage),
    );
    // ... and an outage dropped onto running work.
    let busy = result.schedule.entries()[0];
    let outages = [Outage {
        processor: busy.processors.first,
        start: busy.start,
        end: f64::INFINITY,
    }];
    let corrupt = RunFacts {
        outages: &outages,
        ..facts.clone()
    };
    assert_caught(&corrupt, "outage under running work", |v| {
        matches!(v, Violation::DuringOutage { .. })
    });

    // A duration that breaks work conservation.
    let schedule = edited(&result.schedule, |e| e[0].duration *= 1.5);
    let corrupt = RunFacts {
        executed: &schedule,
        ..facts.clone()
    };
    let task = result.schedule.entries()[0].task;
    assert_caught(
        &corrupt,
        "work not conserved",
        |v| matches!(v, Violation::WorkNotConserved { task: t, .. } if *t == task),
    );

    // A required task dropped.
    let required = (0..trace.len())
        .find(|&t| arrivals[t].departs_at.is_none() && !result.abandoned.contains(&t))
        .unwrap();
    let schedule = edited(&result.schedule, |e| e.retain(|s| s.task != required));
    let corrupt = RunFacts {
        executed: &schedule,
        ..facts.clone()
    };
    assert_caught(&corrupt, "dropped task", |v| {
        *v == Violation::MissingTask { task: required }
    });

    // Segments beyond the machine, executed and wasted: reported, never a
    // panic.
    let mut wasted = result.wasted.clone();
    wasted[0].processors = ProcessorRange::new(M + 1, 2);
    let schedule = edited(&result.schedule, |e| {
        e[0].processors = ProcessorRange::new(M, 1)
    });
    let corrupt = RunFacts {
        executed: &schedule,
        wasted: &wasted,
        ..facts.clone()
    };
    let report = corrupt.violations();
    let beyond = report
        .iter()
        .filter(|v| matches!(v, Violation::OutOfMachine { .. }))
        .count();
    assert_eq!(beyond, 2, "{report:?}");
}

#[test]
fn classed_run_corruptions_are_caught() {
    let (trace, result) = classed_run();
    let facts = result.run_facts(&trace);
    let boundary = result.cluster.class_range(1).first;

    // A segment straddling the class boundary.
    let schedule = edited(&result.schedule, |e| {
        e[0].processors = ProcessorRange::new(boundary - 1, 2)
    });
    let corrupt = RunFacts {
        executed: &schedule,
        ..facts.clone()
    };
    assert_caught(
        &corrupt,
        "class straddle",
        |v| matches!(v, Violation::ClassStraddle { boundary: b, .. } if *b == boundary),
    );

    // A duration that ignores the fast class's speed.
    let fast = result
        .schedule
        .entries()
        .iter()
        .position(|e| e.processors.first >= boundary)
        .unwrap();
    let schedule = edited(&result.schedule, |e| e[fast].duration *= 2.0);
    let corrupt = RunFacts {
        executed: &schedule,
        ..facts.clone()
    };
    assert_caught(&corrupt, "class-scaled duration", |v| {
        matches!(v, Violation::DurationMismatch { .. })
    });

    // A task duplicated in this non-preemptive run, placed after the
    // makespan so that only the duplication is wrong.
    let schedule = edited(&result.schedule, |e| {
        let mut copy = e[0];
        copy.start = result.makespan + 1.0;
        e.push(copy);
    });
    let corrupt = RunFacts {
        executed: &schedule,
        ..facts.clone()
    };
    let task = result.schedule.entries()[0].task;
    assert_caught(&corrupt, "duplicated task", |v| {
        *v == Violation::DuplicatedTask { task }
    });

    // More processor-time than a class supplies needs two segments on one
    // processor at once: the sweep catches a class capacity overrun.
    let schedule = edited(&result.schedule, |e| {
        let mut copy = e[0];
        copy.task = e[1].task;
        e[1] = copy;
    });
    let corrupt = RunFacts {
        executed: &schedule,
        ..facts.clone()
    };
    assert_caught(&corrupt, "class capacity overrun", |v| {
        matches!(v, Violation::Overlap { .. })
    });

    // A required task dropped.
    let schedule = edited(&result.schedule, |e| {
        e.remove(0);
    });
    let corrupt = RunFacts {
        executed: &schedule,
        ..facts.clone()
    };
    assert_caught(&corrupt, "dropped task", |v| {
        *v == Violation::MissingTask { task }
    });
}

#[test]
fn sharded_run_corruptions_are_caught() {
    let (trace, schedule) = sharded_run();
    let mut facts = trace.run_facts(&schedule);
    facts.piecewise = false;
    let arrivals = trace.arrivals();
    let late = schedule
        .entries()
        .iter()
        .position(|e| arrivals[e.task].at > 1.0)
        .unwrap();
    let task = schedule.entries()[late].task;

    let moved = edited(&schedule, |e| e[late].start = arrivals[task].at - 0.5);
    let corrupt = RunFacts {
        executed: &moved,
        ..facts.clone()
    };
    assert_caught(
        &corrupt,
        "start before arrival",
        |v| matches!(v, Violation::BeforeRelease { task: t, .. } if *t == task),
    );

    let stacked = edited(&schedule, |e| {
        let mut copy = e[1];
        copy.start = e[0].start;
        copy.processors = e[0].processors;
        e[1] = copy;
    });
    let corrupt = RunFacts {
        executed: &stacked,
        ..facts.clone()
    };
    assert_caught(&corrupt, "overlap", |v| {
        matches!(v, Violation::Overlap { .. })
    });

    let duplicated = edited(&schedule, |e| {
        let mut copy = e[late];
        copy.start += 1e6;
        e.push(copy);
    });
    let corrupt = RunFacts {
        executed: &duplicated,
        ..facts.clone()
    };
    assert_caught(&corrupt, "duplicated task", |v| {
        *v == Violation::DuplicatedTask { task }
    });

    let dropped = edited(&schedule, |e| {
        e.remove(late);
    });
    let corrupt = RunFacts {
        executed: &dropped,
        ..facts.clone()
    };
    assert_caught(&corrupt, "dropped task", |v| {
        *v == Violation::MissingTask { task }
    });

    let stretched = edited(&schedule, |e| e[late].duration += 0.5);
    let corrupt = RunFacts {
        executed: &stretched,
        ..facts.clone()
    };
    assert_caught(
        &corrupt,
        "wrong duration",
        |v| matches!(v, Violation::DurationMismatch { task: t, .. } if *t == task),
    );

    let beyond = edited(&schedule, |e| {
        e[late].processors = ProcessorRange::new(M, 2)
    });
    let corrupt = RunFacts {
        executed: &beyond,
        ..facts.clone()
    };
    assert_caught(
        &corrupt,
        "segment beyond the machine",
        |v| matches!(v, Violation::OutOfMachine { task: t, .. } if *t == task),
    );
}
