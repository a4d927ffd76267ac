//! The benchmark's workloads, and what each is there for (see
//! `README.md` for the full reasoning).

use txallo_core::HybridSchedule;

use crate::chain::{self, ChainSpec};
use crate::host::HostSpeed;
use crate::layer::LoopConfig;
use crate::output::Output;
use crate::probe::Snapshot;
use crate::replay::{self, ReplaySpec, Shape};

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The headline streamed replay: 1M initial accounts, residency
    /// window 4, decay 0.9, adaptive-only epochs, one thread.
    ReplayEvict,
    /// ~100k accounts, hybrid schedule with a global re-solve every 4th
    /// epoch, two threads.
    HybridGlobal,
    /// `ChainService` with an active fault plan and the health check, a
    /// long history against modest traffic per epoch.
    ChainFaults,
}

/// What a finished run hands back to the command line.
#[derive(Debug)]
pub struct RunOutcome {
    /// Digest that must repeat across runs of one seed and size.
    pub digest: String,
    /// The memory peak, which must repeat too.
    pub peak_resident_bytes: usize,
    /// Timed epochs (part of the determinism key).
    pub size: u64,
    /// The spans as JSON lines (traced runs).
    pub spans: Option<String>,
    /// Noise attribution fields, a JSON object body.
    pub noise: String,
}

impl Workload {
    /// Every workload name.
    pub const NAMES: [&'static str; 3] = ["replay-evict", "hybrid-global", "chain-faults"];

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "replay-evict" => Some(Self::ReplayEvict),
            "hybrid-global" => Some(Self::HybridGlobal),
            "chain-faults" => Some(Self::ChainFaults),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Self::ReplayEvict => Self::NAMES[0],
            Self::HybridGlobal => Self::NAMES[1],
            Self::ChainFaults => Self::NAMES[2],
        }
    }

    /// Runs the workload, recording metrics and checks into `out`.
    pub fn run(self, seed: u64, seconds: f64, traced: bool, out: &mut Output) -> RunOutcome {
        match self {
            Self::ReplayEvict | Self::HybridGlobal => {
                let spec = self.replay_spec().expect("layer-driven workload");
                let timed = spec.shape.timed_epochs(seconds);
                let run = replay::replay(&spec, seed, timed, traced);
                let overhead =
                    traced.then(|| run.tracer.overhead(run.timed.clone(), run.timed_wall_s));
                let noise = noise_json(&run.probes, run.timed_wall_s, &run.host, overhead);
                let spans = traced.then(|| run.tracer.to_jsonl());
                let peak_resident_bytes = run.peak_resident_bytes;
                let digest = replay::finish(&spec, run, out);
                RunOutcome {
                    digest: digest.hex(),
                    peak_resident_bytes,
                    size: timed,
                    spans,
                    noise,
                }
            }
            Self::ChainFaults => {
                let spec = chain_spec();
                let timed = spec.shape.timed_epochs(seconds);
                chain::run(&spec, seed, timed, traced, out)
            }
        }
    }

    /// The spec of a layer-driven workload.
    pub fn replay_spec(self) -> Option<ReplaySpec> {
        let shards = 20;
        match self {
            Self::ReplayEvict => Some(ReplaySpec {
                shape: Shape {
                    accounts: 1_000_000,
                    history_blocks: 500,
                    epoch_blocks: 40,
                    block_size: 1_000,
                    warm_epochs: 2,
                    min_epochs: 100,
                    epochs_per_s: 4.0,
                    setups: 3,
                },
                serve: LoopConfig {
                    shards,
                    eta: 2.0,
                    window: 4,
                    decay: 0.9,
                    schedule: HybridSchedule::AlwaysAdaptive,
                    threads: 1,
                },
                // Each image is ~65 MiB; five restarts give a median.
                resume_cycles: 5,
            }),
            Self::HybridGlobal => Some(ReplaySpec {
                shape: Shape {
                    accounts: 100_000,
                    history_blocks: 400,
                    epoch_blocks: 10,
                    block_size: 1_000,
                    warm_epochs: 4,
                    min_epochs: 100,
                    epochs_per_s: 5.2,
                    setups: 5,
                },
                serve: LoopConfig {
                    shards,
                    eta: 2.0,
                    window: 0,
                    decay: 1.0,
                    schedule: HybridSchedule::Hybrid { global_gap: 4 },
                    threads: 2,
                },
                resume_cycles: 10,
            }),
            Self::ChainFaults => None,
        }
    }
}

/// The chain-faults spec.
pub fn chain_spec() -> ChainSpec {
    ChainSpec {
        shape: Shape {
            accounts: 200_000,
            history_blocks: 800,
            epoch_blocks: 11,
            block_size: 1_000,
            warm_epochs: 3,
            min_epochs: 100,
            epochs_per_s: 7.2,
            setups: 3,
        },
        shards: 20,
        global_gap: 20,
        // Rare enough that p90 of the boundaries stays on plain epochs.
        health_interval: 50,
        resume_cycles: 10,
    }
}

/// The noise fields of a run: steal ticks, run-queue wait and CPU over the
/// timed region, the host-speed samples, and the tracing overhead when
/// traced.
pub fn noise_json(
    probes: &(Snapshot, Snapshot),
    wall_s: f64,
    host: &HostSpeed,
    overhead: Option<f64>,
) -> String {
    let (a, b) = probes;
    let overhead = overhead.map_or("null".to_string(), |o| format!("{o:?}"));
    format!(
        "\"timed_wall_s\": {wall_s:?}, \"steal_ticks\": {}, \"runqueue_wait_s\": {:?}, \
         \"cpu_s\": {:?}, \"minor_faults\": {}, \"host_speed\": {}, \"trace_overhead\": {overhead}",
        b.steal_ticks.saturating_sub(a.steal_ticks),
        b.runqueue_wait_ns.saturating_sub(a.runqueue_wait_ns) as f64 * 1e-9,
        b.cpu_s - a.cpu_s,
        b.minor_faults.saturating_sub(a.minor_faults),
        host.json(),
    )
}
