//! Arrival traces: malleable tasks arriving over time.
//!
//! The offline model of the paper schedules a fixed task set; the online
//! engine (crate `online`) instead consumes a stream of arrivals.  This
//! module provides the trace model, deterministic generators for the two
//! standard traffic shapes — Poisson arrivals (independent exponential
//! inter-arrival times) and bursty arrivals (synchronised batches, the shape
//! produced by periodic submission systems) — and a JSON representation so
//! traces can be saved and replayed exactly.
//!
//! Arrivals may also carry a **departure deadline** ([`Arrival::departs_at`]):
//! a task that has not started by its deadline leaves the system
//! (cancellation), which is how impatient users and revoked cloud jobs show
//! up in a trace.  [`ArrivalTrace::with_departures`] attaches deterministic,
//! seed-derived deadlines to a generated trace.
//!
//! Generation is a pure function of the [`TraceConfig`]: the task profiles
//! come from the deterministic [`WorkloadGenerator`] and the arrival clock
//! from an independent, seed-derived stream, so a `(config, seed)` pair
//! always produces the same trace.

use crate::generator::{TaskStream, WorkloadConfig, WorkloadGenerator};
use crate::io::task_from_value;
use malleable_core::{Instance, MalleableTask, Result, RunFacts, Schedule, TaskFacts};
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde_json::{json, Value};

/// One task arriving at a point in time, optionally departing again.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    /// Arrival (release) time of the task.
    pub at: f64,
    /// The task itself.
    pub task: MalleableTask,
    /// Departure (cancellation) deadline: if the task has not *started* by
    /// this time it leaves the system and is never executed.  A task that
    /// started before its departure runs to completion (non-preemptive
    /// execution).  `None` means the task waits forever.
    pub departs_at: Option<f64>,
}

impl Arrival {
    /// A task arriving at `at` with no departure deadline.
    pub fn new(at: f64, task: MalleableTask) -> Self {
        Arrival {
            at,
            task,
            departs_at: None,
        }
    }

    /// Attach a departure deadline (builder style).
    pub fn departing_at(mut self, departs_at: f64) -> Self {
        self.departs_at = Some(departs_at);
        self
    }
}

/// How departure deadlines are attached to a generated trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeparturePolicy {
    /// Every task waits an exponentially distributed patience with the given
    /// mean before departing (sampled deterministically from the seed).
    Patience {
        /// Mean patience (must be positive and finite).
        mean: f64,
    },
}

/// A stream of task arrivals targeting a machine with a fixed processor
/// count.  Arrivals are kept sorted by time; the index of an arrival is the
/// task's identifier in every schedule the online engine produces.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalTrace {
    processors: usize,
    arrivals: Vec<Arrival>,
}

/// The arrival-time process of a generated trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalPattern {
    /// Poisson process: exponential inter-arrival times with the given rate
    /// (expected arrivals per unit of time).
    Poisson {
        /// Expected number of arrivals per unit of time (must be positive).
        rate: f64,
    },
    /// Bursty arrivals: groups of `burst_size` tasks arrive simultaneously,
    /// one group every `burst_gap` units of time starting at time 0.
    Bursty {
        /// Number of tasks arriving together in each burst (≥ 1).
        burst_size: usize,
        /// Time between consecutive bursts (must be positive).
        burst_gap: f64,
    },
}

impl ArrivalPattern {
    /// Stable name used by reports and the CLI.
    pub fn name(&self) -> &'static str {
        match self {
            ArrivalPattern::Poisson { .. } => "poisson",
            ArrivalPattern::Bursty { .. } => "bursty",
        }
    }

    /// Check the pattern's parameters (positive rate / gap, non-empty
    /// bursts).
    pub fn validate(&self) -> Result<()> {
        match *self {
            ArrivalPattern::Poisson { rate } => {
                if !(rate.is_finite() && rate > 0.0) {
                    return Err(malleable_core::Error::InvalidParameter {
                        name: "rate",
                        value: rate,
                    });
                }
            }
            ArrivalPattern::Bursty {
                burst_size,
                burst_gap,
            } => {
                if burst_size == 0 {
                    return Err(malleable_core::Error::InvalidParameter {
                        name: "burst-size",
                        value: 0.0,
                    });
                }
                if !(burst_gap.is_finite() && burst_gap > 0.0) {
                    return Err(malleable_core::Error::InvalidParameter {
                        name: "burst-gap",
                        value: burst_gap,
                    });
                }
            }
        }
        Ok(())
    }
}

/// Full description of a generated trace: the task population (profiles,
/// machine, seed) plus the arrival process.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceConfig {
    /// The task population; `workload.seed` also seeds the arrival clock.
    pub workload: WorkloadConfig,
    /// The arrival-time process.
    pub pattern: ArrivalPattern,
}

impl ArrivalTrace {
    /// Build a trace, sorting the arrivals by time and validating that the
    /// machine is non-trivial and every arrival time is finite and
    /// non-negative.
    pub fn new(processors: usize, mut arrivals: Vec<Arrival>) -> Result<Self> {
        if processors == 0 {
            return Err(malleable_core::Error::NoProcessors);
        }
        if arrivals.is_empty() {
            return Err(malleable_core::Error::EmptyInstance);
        }
        for arrival in &arrivals {
            if !(arrival.at.is_finite() && arrival.at >= 0.0) {
                return Err(malleable_core::Error::InvalidParameter {
                    name: "arrival",
                    value: arrival.at,
                });
            }
            if let Some(departs_at) = arrival.departs_at {
                if !(departs_at.is_finite() && departs_at >= arrival.at) {
                    return Err(malleable_core::Error::InvalidParameter {
                        name: "departure",
                        value: departs_at,
                    });
                }
            }
        }
        arrivals.sort_by(|a, b| a.at.partial_cmp(&b.at).unwrap());
        Ok(ArrivalTrace {
            processors,
            arrivals,
        })
    }

    /// Generate the trace described by `config` (deterministic per seed).
    pub fn generate(config: &TraceConfig) -> Result<Self> {
        config.pattern.validate()?;
        let instance = WorkloadGenerator::new(config.workload.clone()).generate()?;
        // Derive the arrival clock from an independent stream so the same
        // task population can be re-used under different arrival patterns
        // without correlating profiles and arrival times.
        let mut rng = ChaCha8Rng::seed_from_u64(config.workload.seed ^ 0xA5A5_5A5A_0F0F_F0F0);
        let times = sample_arrival_times(&config.pattern, instance.task_count(), &mut rng);
        let arrivals = instance
            .tasks()
            .iter()
            .zip(times)
            .map(|(task, at)| Arrival::new(at, task.clone()))
            .collect();
        ArrivalTrace::new(config.workload.processors, arrivals)
    }

    /// Attach departure deadlines to every arrival, sampled deterministically
    /// from `seed` (an independent stream, so the same trace can be replayed
    /// under different departure policies).
    pub fn with_departures(mut self, policy: DeparturePolicy, seed: u64) -> Result<Self> {
        use rand::Rng;
        let DeparturePolicy::Patience { mean } = policy;
        if !(mean.is_finite() && mean > 0.0) {
            return Err(malleable_core::Error::InvalidParameter {
                name: "patience",
                value: mean,
            });
        }
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5EED_DEAD_BEEF_CAFE);
        for arrival in &mut self.arrivals {
            let u: f64 = rng.gen();
            let patience = -(1.0 - u).ln() * mean;
            arrival.departs_at = Some(arrival.at + patience);
        }
        Ok(self)
    }

    /// Whether any arrival carries a departure deadline.
    pub fn has_departures(&self) -> bool {
        self.arrivals.iter().any(|a| a.departs_at.is_some())
    }

    /// Number of processors of the target machine.
    pub fn processors(&self) -> usize {
        self.processors
    }

    /// The arrivals, sorted by time.
    pub fn arrivals(&self) -> &[Arrival] {
        &self.arrivals
    }

    /// Number of arrivals.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// Whether the trace is empty (never true for a constructed trace).
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    /// Arrival time of the last task.
    pub fn last_arrival(&self) -> f64 {
        self.arrivals.last().map(|a| a.at).unwrap_or(0.0)
    }

    /// The offline view of the trace: every task released at time 0.  Task
    /// `j` of the instance is arrival `j` of the trace, so offline and online
    /// schedules use the same task identifiers.
    pub fn instance(&self) -> Result<Instance> {
        Instance::new(
            self.arrivals.iter().map(|a| a.task.clone()).collect(),
            self.processors,
        )
    }

    /// The schedule oracle's facts of an online run over this trace: task
    /// `j` is released at its arrival, bound by its departure deadline, and
    /// may be absent only when it carries one; tasks may run as re-allotted
    /// segments.  Callers add wasted segments, outages, abandoned tasks or
    /// machine classes where their run has them.
    pub fn run_facts<'a>(&'a self, executed: &'a Schedule) -> RunFacts<'a> {
        RunFacts {
            processors: self.processors,
            tasks: self
                .arrivals
                .iter()
                .map(|a| TaskFacts {
                    profile: &a.task.profile,
                    release: a.at,
                    departs_at: a.departs_at,
                    may_be_absent: a.departs_at.is_some(),
                })
                .collect(),
            classes: Vec::new(),
            executed,
            wasted: &[],
            outages: &[],
            piecewise: true,
        }
    }
}

/// A lazy arrival stream: yields the arrivals of
/// [`ArrivalTrace::generate`] one at a time, in trace order, without
/// materialising the task population or the trace.
///
/// Tasks come from the same seeded [`TaskStream`] the generator collects and
/// arrival times from the same independent clock stream, and both patterns
/// produce non-decreasing times (a Poisson clock accumulates, bursts step
/// forward), so the stream's order *is* the sorted trace order: arrival `j`
/// of the stream is arrival `j` of the materialised trace, bit for bit.
/// This is the ingestion path for million-task traces — the sharded online
/// engine batches directly off it.
#[derive(Debug, Clone)]
pub struct ArrivalStream {
    tasks: TaskStream,
    pattern: ArrivalPattern,
    clock_rng: ChaCha8Rng,
    clock: f64,
    index: usize,
    processors: usize,
}

impl ArrivalStream {
    /// Open the stream described by `config` (deterministic per seed;
    /// validates the pattern and the machine up front).
    pub fn new(config: &TraceConfig) -> Result<Self> {
        config.pattern.validate()?;
        if config.workload.processors == 0 {
            return Err(malleable_core::Error::NoProcessors);
        }
        if config.workload.tasks == 0 {
            return Err(malleable_core::Error::EmptyInstance);
        }
        Ok(ArrivalStream {
            tasks: WorkloadGenerator::new(config.workload.clone()).stream(),
            pattern: config.pattern,
            clock_rng: ChaCha8Rng::seed_from_u64(config.workload.seed ^ 0xA5A5_5A5A_0F0F_F0F0),
            clock: 0.0,
            index: 0,
            processors: config.workload.processors,
        })
    }

    /// Number of processors of the target machine.
    pub fn processors(&self) -> usize {
        self.processors
    }

    /// Total number of arrivals this stream yields over its lifetime.
    pub fn total(&self) -> usize {
        self.tasks.total()
    }
}

impl Iterator for ArrivalStream {
    type Item = Result<Arrival>;

    fn next(&mut self) -> Option<Self::Item> {
        use rand::Rng;
        let task = match self.tasks.next()? {
            Ok(task) => task,
            Err(e) => return Some(Err(e)),
        };
        let at = match self.pattern {
            ArrivalPattern::Poisson { rate } => {
                let u: f64 = self.clock_rng.gen();
                self.clock += -(1.0 - u).ln() / rate;
                self.clock
            }
            ArrivalPattern::Bursty {
                burst_size,
                burst_gap,
            } => (self.index / burst_size) as f64 * burst_gap,
        };
        self.index += 1;
        Some(Ok(Arrival::new(at, task)))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.tasks.size_hint()
    }
}

impl ExactSizeIterator for ArrivalStream {}

fn sample_arrival_times(pattern: &ArrivalPattern, count: usize, rng: &mut ChaCha8Rng) -> Vec<f64> {
    use rand::Rng;
    match *pattern {
        ArrivalPattern::Poisson { rate } => {
            assert!(
                rate.is_finite() && rate > 0.0,
                "Poisson rate must be positive, got {rate}"
            );
            let mut clock = 0.0f64;
            (0..count)
                .map(|_| {
                    let u: f64 = rng.gen();
                    clock += -(1.0 - u).ln() / rate;
                    clock
                })
                .collect()
        }
        ArrivalPattern::Bursty {
            burst_size,
            burst_gap,
        } => {
            assert!(burst_size >= 1, "burst size must be at least 1");
            assert!(
                burst_gap.is_finite() && burst_gap > 0.0,
                "burst gap must be positive, got {burst_gap}"
            );
            (0..count)
                .map(|i| (i / burst_size) as f64 * burst_gap)
                .collect()
        }
    }
}

/// Serialise a trace to a compact JSON string (traces can hold tens of
/// thousands of tasks, so no pretty-printing).
pub fn trace_to_json(trace: &ArrivalTrace) -> String {
    let arrivals: Vec<Value> = trace
        .arrivals()
        .iter()
        .map(|a| match a.departs_at {
            Some(departs_at) => json!({
                "at": a.at,
                "name": a.task.name.clone(),
                "times": a.task.profile.times().to_vec(),
                "departs_at": departs_at,
            }),
            None => json!({
                "at": a.at,
                "name": a.task.name.clone(),
                "times": a.task.profile.times().to_vec(),
            }),
        })
        .collect();
    let doc = json!({
        "processors": trace.processors(),
        "arrivals": arrivals,
    });
    serde_json::to_string(&doc).expect("trace serialisation cannot fail")
}

/// Parse a trace from its JSON representation, re-validating every profile
/// and arrival time.
pub fn trace_from_json(json: &str) -> Result<ArrivalTrace> {
    let invalid = || malleable_core::Error::InvalidParameter {
        name: "json",
        value: f64::NAN,
    };
    let doc = serde_json::from_str(json).map_err(|_| invalid())?;
    let processors = doc
        .get("processors")
        .and_then(Value::as_u64)
        .ok_or_else(invalid)? as usize;
    let arrivals = doc
        .get("arrivals")
        .and_then(Value::as_array)
        .ok_or_else(invalid)?
        .iter()
        .map(|entry| {
            let at = entry
                .get("at")
                .and_then(Value::as_f64)
                .ok_or_else(invalid)?;
            let departs_at = match entry.get("departs_at") {
                Some(value) => Some(value.as_f64().ok_or_else(invalid)?),
                None => None,
            };
            Ok(Arrival {
                at,
                task: task_from_value(entry)?,
                departs_at,
            })
        })
        .collect::<Result<Vec<_>>>()?;
    ArrivalTrace::new(processors, arrivals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use malleable_core::SpeedupProfile;

    fn poisson_config(tasks: usize, seed: u64) -> TraceConfig {
        TraceConfig {
            workload: WorkloadConfig::mixed(tasks, 8, seed),
            pattern: ArrivalPattern::Poisson { rate: 2.0 },
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = ArrivalTrace::generate(&poisson_config(30, 9)).unwrap();
        let b = ArrivalTrace::generate(&poisson_config(30, 9)).unwrap();
        let c = ArrivalTrace::generate(&poisson_config(30, 10)).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn poisson_arrivals_are_sorted_and_positive() {
        let trace = ArrivalTrace::generate(&poisson_config(50, 1)).unwrap();
        assert_eq!(trace.len(), 50);
        let mut prev = 0.0;
        for arrival in trace.arrivals() {
            assert!(arrival.at >= prev);
            assert!(arrival.at > 0.0);
            prev = arrival.at;
        }
        // Mean inter-arrival should be in the ballpark of 1/rate = 0.5.
        let mean = trace.last_arrival() / trace.len() as f64;
        assert!((0.2..1.0).contains(&mean), "mean inter-arrival {mean}");
    }

    #[test]
    fn bursty_arrivals_form_synchronised_groups() {
        let config = TraceConfig {
            workload: WorkloadConfig::mixed(10, 4, 3),
            pattern: ArrivalPattern::Bursty {
                burst_size: 4,
                burst_gap: 5.0,
            },
        };
        let trace = ArrivalTrace::generate(&config).unwrap();
        let times: Vec<f64> = trace.arrivals().iter().map(|a| a.at).collect();
        assert_eq!(
            times,
            vec![0.0, 0.0, 0.0, 0.0, 5.0, 5.0, 5.0, 5.0, 10.0, 10.0]
        );
    }

    #[test]
    fn streaming_reproduces_generation_bit_for_bit() {
        for config in [
            poisson_config(60, 11),
            TraceConfig {
                workload: WorkloadConfig::wide_tasks(45, 16, 4),
                pattern: ArrivalPattern::Bursty {
                    burst_size: 7,
                    burst_gap: 3.0,
                },
            },
        ] {
            let trace = ArrivalTrace::generate(&config).unwrap();
            let stream = ArrivalStream::new(&config).unwrap();
            assert_eq!(stream.processors(), trace.processors());
            assert_eq!(stream.total(), trace.len());
            let streamed: Vec<Arrival> = stream.map(|a| a.unwrap()).collect();
            assert_eq!(streamed, trace.arrivals(), "{:?}", config.pattern);
        }
        // Degenerate configs are rejected at open time like at generate time.
        let mut bad = poisson_config(10, 1);
        bad.pattern = ArrivalPattern::Poisson { rate: 0.0 };
        assert!(ArrivalStream::new(&bad).is_err());
        let mut empty = poisson_config(10, 1);
        empty.workload.tasks = 0;
        assert!(ArrivalStream::new(&empty).is_err());
    }

    #[test]
    fn json_round_trip_preserves_traces() {
        let trace = ArrivalTrace::generate(&poisson_config(20, 5)).unwrap();
        let json = trace_to_json(&trace);
        let parsed = trace_from_json(&json).unwrap();
        assert_eq!(parsed.processors(), trace.processors());
        assert_eq!(parsed.len(), trace.len());
        for (a, b) in trace.arrivals().iter().zip(parsed.arrivals()) {
            assert_eq!(a.task.name, b.task.name);
            assert_eq!(a.at, b.at, "arrival times must round-trip exactly");
            assert_eq!(a.task.profile.times(), b.task.profile.times());
        }
    }

    #[test]
    fn malformed_trace_documents_are_rejected() {
        assert!(trace_from_json("{ nope").is_err());
        assert!(trace_from_json(r#"{ "processors": 2 }"#).is_err());
        assert!(
            trace_from_json(r#"{ "processors": 2, "arrivals": [{ "at": -1.0, "times": [1.0] }] }"#)
                .is_err(),
            "negative arrival times must be rejected"
        );
        assert!(
            trace_from_json(
                r#"{ "processors": 2, "arrivals": [{ "at": 0.0, "times": [1.0, 2.0] }] }"#
            )
            .is_err(),
            "non-monotone profiles must be rejected"
        );
    }

    #[test]
    fn instance_view_uses_trace_order() {
        let arrivals = vec![
            Arrival::new(
                3.0,
                MalleableTask::named("late", SpeedupProfile::sequential(1.0).unwrap()),
            ),
            Arrival::new(
                1.0,
                MalleableTask::named("early", SpeedupProfile::sequential(2.0).unwrap()),
            ),
        ];
        let trace = ArrivalTrace::new(2, arrivals).unwrap();
        // Sorted by arrival: "early" first.
        assert_eq!(trace.arrivals()[0].task.name.as_deref(), Some("early"));
        let instance = trace.instance().unwrap();
        assert_eq!(instance.task(0).name.as_deref(), Some("early"));
        assert_eq!(instance.task(1).name.as_deref(), Some("late"));
    }

    #[test]
    fn degenerate_patterns_are_rejected_not_panicking() {
        for pattern in [
            ArrivalPattern::Poisson { rate: 0.0 },
            ArrivalPattern::Poisson { rate: -1.0 },
            ArrivalPattern::Poisson { rate: f64::NAN },
            ArrivalPattern::Bursty {
                burst_size: 0,
                burst_gap: 1.0,
            },
            ArrivalPattern::Bursty {
                burst_size: 4,
                burst_gap: 0.0,
            },
        ] {
            let config = TraceConfig {
                workload: WorkloadConfig::mixed(5, 2, 1),
                pattern,
            };
            assert!(
                ArrivalTrace::generate(&config).is_err(),
                "{pattern:?} must be rejected"
            );
        }
    }

    #[test]
    fn trace_construction_validates_inputs() {
        assert!(ArrivalTrace::new(0, vec![]).is_err());
        assert!(ArrivalTrace::new(2, vec![]).is_err());
        let bad = vec![Arrival::new(
            f64::NAN,
            MalleableTask::new(SpeedupProfile::sequential(1.0).unwrap()),
        )];
        assert!(ArrivalTrace::new(2, bad).is_err());
        // Departures before the arrival (or non-finite) are rejected.
        let task = || MalleableTask::new(SpeedupProfile::sequential(1.0).unwrap());
        assert!(ArrivalTrace::new(2, vec![Arrival::new(2.0, task()).departing_at(1.0)]).is_err());
        assert!(
            ArrivalTrace::new(2, vec![Arrival::new(2.0, task()).departing_at(f64::NAN)]).is_err()
        );
        assert!(ArrivalTrace::new(2, vec![Arrival::new(2.0, task()).departing_at(2.0)]).is_ok());
    }

    #[test]
    fn departures_are_deterministic_and_respect_arrivals() {
        let base = ArrivalTrace::generate(&poisson_config(40, 6)).unwrap();
        let policy = DeparturePolicy::Patience { mean: 2.0 };
        let a = base.clone().with_departures(policy, 9).unwrap();
        let b = base.clone().with_departures(policy, 9).unwrap();
        let c = base.clone().with_departures(policy, 10).unwrap();
        assert_eq!(a, b, "same seed, same deadlines");
        assert_ne!(a, c, "different seed, different deadlines");
        assert!(a.has_departures() && !base.has_departures());
        for arrival in a.arrivals() {
            let d = arrival.departs_at.unwrap();
            assert!(
                d >= arrival.at,
                "departure {d} before arrival {}",
                arrival.at
            );
        }
        assert!(base
            .with_departures(DeparturePolicy::Patience { mean: 0.0 }, 1)
            .is_err());
    }

    #[test]
    fn departures_round_trip_through_json() {
        let trace = ArrivalTrace::generate(&poisson_config(15, 3))
            .unwrap()
            .with_departures(DeparturePolicy::Patience { mean: 1.5 }, 3)
            .unwrap();
        let parsed = trace_from_json(&trace_to_json(&trace)).unwrap();
        assert_eq!(parsed, trace, "departure deadlines must round-trip exactly");
        // Malformed departures are rejected at parse time.
        assert!(trace_from_json(
            r#"{ "processors": 2, "arrivals": [{ "at": 1.0, "times": [1.0], "departs_at": 0.5 }] }"#
        )
        .is_err());
        assert!(trace_from_json(
            r#"{ "processors": 2, "arrivals": [{ "at": 1.0, "times": [1.0], "departs_at": "x" }] }"#
        )
        .is_err());
    }
}
