//! The benchmark's workloads and their seeded set-up.

use std::fs;
use std::path::{Path, PathBuf};

use workload::{trace_to_json, ArrivalPattern, ArrivalTrace, TraceConfig, WorkloadConfig};

/// One workload: a seeded trace shape plus how a pass receives and
/// schedules it.  Every workload runs `EpochReplan` over the MRT solver
/// (period 1, exact search).
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub tasks: usize,
    pub processors: usize,
    pub pattern: ArrivalPattern,
    /// The trace reaches each pass as a JSON file, read and parsed by
    /// `workload::trace_from_json`; otherwise as in-memory arrivals that
    /// `ArrivalTrace::new` validates.
    pub from_file: bool,
    /// Backfill plus preempt-queued and preempt-running re-allotment;
    /// otherwise the frontier-only policy.
    pub reallot: bool,
}

pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "file-replay",
        tasks: 1000,
        processors: 32,
        pattern: ArrivalPattern::Poisson { rate: 1.0 },
        from_file: true,
        reallot: false,
    },
    Spec {
        name: "bursty-backlog",
        tasks: 20_000,
        processors: 16,
        pattern: ArrivalPattern::Bursty {
            burst_size: 1000,
            burst_gap: 2.0,
        },
        from_file: false,
        reallot: false,
    },
    Spec {
        name: "reallot-churn",
        tasks: 1280,
        processors: 32,
        pattern: ArrivalPattern::Bursty {
            burst_size: 64,
            burst_gap: 2.0,
        },
        from_file: false,
        reallot: true,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|spec| spec.name == name)
}

/// A workload's inputs, ready for timed passes.
pub struct Prepared {
    pub spec: &'static Spec,
    /// The generated trace: the source of in-memory inputs and the
    /// reference the checks compare against.
    pub trace: ArrivalTrace,
    /// The trace file of file workloads.
    pub file: Option<TraceFile>,
}

/// A trace file written at set-up.  Dropping it removes the file, so no
/// exit path of a run leaves it behind.
pub struct TraceFile {
    pub path: PathBuf,
    pub bytes: usize,
}

impl Drop for TraceFile {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// Generate the workload's trace from `seed` and write the trace file of
/// file workloads into `dir`.
pub fn prepare(spec: &'static Spec, seed: u64, dir: &Path) -> Result<Prepared, String> {
    let trace = ArrivalTrace::generate(&TraceConfig {
        workload: WorkloadConfig::mixed(spec.tasks, spec.processors, seed),
        pattern: spec.pattern,
    })
    .map_err(|e| format!("trace generation: {e}"))?;
    let file = if spec.from_file {
        fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let json = trace_to_json(&trace);
        let path = dir.join(format!("{}-{seed}-{}.json", spec.name, std::process::id()));
        fs::write(&path, &json).map_err(|e| format!("{}: {e}", path.display()))?;
        Some(TraceFile {
            path,
            bytes: json.len(),
        })
    } else {
        None
    };
    Ok(Prepared { spec, trace, file })
}
