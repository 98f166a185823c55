//! Cross-algorithm structural tests: every scheduler in the workspace agrees
//! on validity, and the paper's structural claims (two shelves, two levels,
//! canonical compression) are visible in the produced schedules.

use malleable_core::bounds;
use malleable_core::canonical::CanonicalAllotment;
use malleable_core::prelude::*;
use malleable_core::two_shelf::{self, TwoShelfParams};
use malleable_core::RunFacts;
use workload::{WorkloadConfig, WorkloadGenerator};

#[test]
fn every_algorithm_schedules_every_task_exactly_once() {
    for seed in 0..6u64 {
        let instance = WorkloadGenerator::new(WorkloadConfig::mixed(18, 8, seed))
            .generate()
            .unwrap();
        let omega = bounds::upper_bound(&instance);
        let canonical = CanonicalAllotment::compute(&instance, omega).unwrap();

        let mut schedules: Vec<(String, Schedule)> = vec![
            (
                "canonical-list".into(),
                CanonicalListAlgorithm::default()
                    .build(&instance, omega)
                    .unwrap(),
            ),
            (
                "malleable-list".into(),
                MalleableListAlgorithm::default()
                    .build(&instance, omega)
                    .unwrap(),
            ),
            (
                "level-packing".into(),
                malleable_core::mrt::level_packing_schedule(&instance, &canonical),
            ),
            (
                "mrt".into(),
                MrtScheduler::default()
                    .schedule(&instance)
                    .unwrap()
                    .schedule,
            ),
            ("ludwig".into(), baselines::ludwig(&instance).unwrap()),
            ("gang".into(), baselines::gang_schedule(&instance)),
            ("lpt".into(), baselines::sequential_lpt(&instance)),
        ];
        if let Some(ts) = two_shelf::build(&instance, omega, TwoShelfParams::default()).unwrap() {
            schedules.push(("two-shelf".into(), ts.schedule));
        }

        for (name, schedule) in schedules {
            assert_eq!(
                schedule.len(),
                instance.task_count(),
                "{name} missed or duplicated tasks"
            );
            let report = RunFacts::offline(&instance, &schedule).violations();
            assert!(report.is_empty(), "{name}: {:?}", report);
        }
    }
}

#[test]
fn two_shelf_schedules_have_exactly_two_start_bands() {
    // In a λ-schedule every start time is either 0 (first shelf) or ω (second
    // shelf) or, for the First-Fit-stacked small tasks, at ω plus the heights
    // of the tasks below them — never anything below ω other than 0 and the
    // stacked offsets inside shelf 1 of the trivial construction.
    for seed in 0..8u64 {
        let instance = WorkloadGenerator::new(WorkloadConfig::wide_tasks(16, 24, seed))
            .generate()
            .unwrap();
        let lb = bounds::lower_bound(&instance);
        let omega = lb * 1.1;
        if let Ok(Some(ts)) = two_shelf::build(&instance, omega, TwoShelfParams::default()) {
            for entry in ts.schedule.entries() {
                let in_first_shelf = entry.finish() <= omega + 1e-6;
                let in_second_shelf = entry.start >= omega - 1e-6;
                assert!(
                    in_first_shelf || in_second_shelf,
                    "seed {seed}: task {} straddles the shelf boundary (start {}, finish {})",
                    entry.task,
                    entry.start,
                    entry.finish()
                );
            }
            assert!(ts.schedule.makespan() <= (1.0 + malleable_core::LAMBDA_SQRT3) * omega + 1e-6);
        }
    }
}

#[test]
fn canonical_compression_only_grows_processor_counts() {
    // Tasks moved to the second shelf are compressed: they use at least their
    // canonical processor count.
    for seed in 0..8u64 {
        let instance = WorkloadGenerator::new(WorkloadConfig::wide_tasks(14, 16, 40 + seed))
            .generate()
            .unwrap();
        let omega = bounds::lower_bound(&instance) * 1.05;
        let canonical = match CanonicalAllotment::compute(&instance, omega) {
            Ok(c) => c,
            Err(_) => continue,
        };
        if let Some(ts) =
            two_shelf::build_with_canonical(&instance, &canonical, TwoShelfParams::default())
        {
            for entry in ts.schedule.entries() {
                if ts.gamma.contains(&entry.task) {
                    assert!(
                        entry.processors.count >= canonical.allotment.processors(entry.task),
                        "compressed task {} uses fewer processors than its canonical count",
                        entry.task
                    );
                }
            }
        }
    }
}

#[test]
fn list_schedules_start_their_first_level_at_time_zero() {
    // The first level of the canonical list schedule (the tasks placed while
    // processors are still free at time 0) must all start at 0 — this is the
    // structural property the paper's §3 analysis rests on.
    let instance = WorkloadGenerator::new(WorkloadConfig::mixed(20, 10, 3))
        .generate()
        .unwrap();
    let omega = bounds::upper_bound(&instance);
    let schedule = CanonicalListAlgorithm::default()
        .build(&instance, omega)
        .unwrap();
    let starters = schedule
        .entries()
        .iter()
        .filter(|e| e.start <= 1e-12)
        .map(|e| e.processors.count)
        .sum::<usize>();
    assert!(starters >= 1, "someone must start at time zero");
    assert!(starters <= instance.processors());
}

#[test]
fn registry_solvers_match_their_legacy_entry_points() {
    // Zero behavioural drift: for every solver in the registry, solving
    // through the unified `SolveRequest → Solver → SolveOutcome` pipeline
    // produces the *identical* schedule (not just makespan) as the legacy
    // direct entry point it replaced, across a seeded instance sweep.
    use baselines::{RigidScheduler, TwoPhaseScheduler};
    use malleable_core::Allotment;

    let registry = solver::default_registry();
    for seed in 0..5u64 {
        let instance = WorkloadGenerator::new(WorkloadConfig::mixed(16, 8, 100 + seed))
            .generate()
            .unwrap();
        for name in registry.names() {
            let outcome = registry
                .get(name)
                .unwrap()
                .solve(&SolveRequest::new(&instance))
                .unwrap();
            let legacy: Schedule = match name {
                "mrt" => {
                    MrtScheduler::default()
                        .schedule(&instance)
                        .unwrap()
                        .schedule
                }
                "list" => {
                    let omega = bounds::upper_bound(&instance);
                    let allotment = Allotment::canonical(&instance, omega).unwrap();
                    schedule_rigid(&instance, &allotment, ListOrder::DecreasingAllottedTime)
                }
                "ludwig" => baselines::ludwig(&instance).unwrap(),
                "twy-list" => TwoPhaseScheduler {
                    rigid: RigidScheduler::List,
                }
                .schedule(&instance)
                .unwrap(),
                "twy-nfdh" => TwoPhaseScheduler {
                    rigid: RigidScheduler::Nfdh,
                }
                .schedule(&instance)
                .unwrap(),
                "gang" => baselines::gang_schedule(&instance),
                "lpt" => baselines::sequential_lpt(&instance),
                // Without a `machine-classes` config the classed solvers run
                // on the uniform single-class cluster — the identical-machines
                // special case, which must reproduce the paper's solver.
                "hetero-lp" | "hetero-greedy" => {
                    MrtScheduler::default()
                        .schedule(&instance)
                        .unwrap()
                        .schedule
                }
                "precedence" => {
                    let graph =
                        precedence::TaskGraph::independent(instance.tasks().to_vec()).unwrap();
                    let pinstance =
                        precedence::PrecedenceInstance::new(graph, instance.processors()).unwrap();
                    precedence::CpaScheduler::default()
                        .schedule(&pinstance)
                        .unwrap()
                }
                other => panic!("no legacy entry point mapped for solver `{other}`"),
            };
            assert_eq!(
                outcome.schedule, legacy,
                "seed {seed}: solver `{name}` drifted from its legacy entry point"
            );
            assert!(
                (outcome.makespan() - legacy.makespan()).abs() < 1e-12,
                "seed {seed}: solver `{name}` makespan drifted"
            );
        }
    }
}

#[test]
fn registry_exact_mode_matches_legacy_schedule_with() {
    // The request's search-mode knob reproduces the legacy
    // `MrtScheduler::schedule_with` exact-search entry point too.
    for seed in 0..3u64 {
        let instance = WorkloadGenerator::new(WorkloadConfig::mixed(14, 8, 200 + seed))
            .generate()
            .unwrap();
        let outcome = solver::default_registry()
            .get("mrt")
            .unwrap()
            .solve(&SolveRequest::new(&instance).with_mode(SearchMode::Exact))
            .unwrap();
        let legacy = MrtScheduler::default()
            .schedule_with(&instance, SearchMode::Exact)
            .unwrap();
        assert_eq!(outcome.schedule, legacy.schedule, "seed {seed}");
        assert!((outcome.lower_bound - legacy.certified_lower_bound).abs() < 1e-12);
        assert_eq!(outcome.probes, legacy.probes);
    }
}

#[test]
fn mrt_beats_or_matches_its_own_branches() {
    // The combined scheduler keeps the best branch, so it can never be worse
    // than the canonical list or the malleable list run in isolation at the
    // same guess.
    for seed in 0..6u64 {
        let instance = WorkloadGenerator::new(WorkloadConfig::mixed(22, 12, 70 + seed))
            .generate()
            .unwrap();
        let omega = bounds::upper_bound(&instance);
        let scheduler = MrtScheduler::default();
        let (outcome, _) = scheduler.probe_with_report(&instance, omega);
        let combined = match outcome {
            DualOutcome::Feasible(s) => s,
            DualOutcome::Infeasible => panic!("generous ω rejected"),
        };
        let canonical = CanonicalListAlgorithm::default()
            .build(&instance, omega)
            .unwrap();
        let mla = MalleableListAlgorithm::default()
            .build(&instance, omega)
            .unwrap();
        assert!(combined.makespan() <= canonical.makespan() + 1e-9);
        assert!(combined.makespan() <= mla.makespan() + 1e-9);
    }
}
