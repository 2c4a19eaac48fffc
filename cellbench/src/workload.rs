//! The benchmark's named workloads and their seed-independent output checks.

use blockfed_core::{CommitteeSpec, DecentralizedRun};
use blockfed_net::GossipMode;
use blockfed_scenario::{CellReport, DataSpec, ScenarioSpec};
use blockfed_telemetry::MetricSet;

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["paper3", "committee256", "lossy64"];

/// One named cell and what every correct run of it must show.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The workload name.
    pub name: String,
    /// The cell, seed included.
    pub spec: ScenarioSpec,
    /// The mean final accuracy must lie strictly above this.
    pub accuracy_floor: f64,
    /// A lossy cell must drop packets and still settle; a lossless one must
    /// neither drop nor retry anything.
    pub lossy: bool,
}

impl Workload {
    /// The workload called `name`, on `seed` or on the workload's default
    /// seed; `None` for an unknown name.
    pub fn named(name: &str, seed: Option<u64>) -> Option<Workload> {
        let (spec, accuracy_floor, lossy) = match name {
            // The paper's own setting: 10 rounds x 5 epochs of SimpleNN on
            // full SynthCifar, wait-all, full combination search. ML-bound.
            "paper3" => (
                ScenarioSpec::paper_cell(name, 3).rounds(10).local_epochs(5),
                0.3,
                false,
            ),
            // The hierarchical scale path: simulator- and chain-bound.
            "committee256" => (committee_cell(name, 256, 16), 0.15, false),
            // Flat path under loss, a partition and a crash: reorgs and
            // retried payload pulls beside the first-try ones.
            "lossy64" => (lossy_cell(name, 64), 0.15, true),
            _ => return None,
        };
        let spec = match seed {
            Some(seed) => spec.seed(seed),
            None => spec,
        };
        Some(Workload {
            name: name.to_string(),
            spec,
            accuracy_floor,
            lossy,
        })
    }

    /// Checks one cell's outputs. Every condition holds on any seed, so a
    /// later change that legitimately moves the simulation still passes.
    ///
    /// # Errors
    ///
    /// Names the first violated condition.
    pub fn check(&self, out: &Outcome) -> Result<(), String> {
        let peers = self.spec.peers();
        let peer_rounds = peers * self.spec.rounds as usize;
        if out.records != peer_rounds {
            return Err(format!(
                "{} round records, expected {peer_rounds}",
                out.records
            ));
        }
        if out.stalled {
            return Err("the liveness watchdog stalled the run".into());
        }
        if out.final_accuracy.is_nan() || out.final_accuracy <= self.accuracy_floor {
            return Err(format!(
                "final accuracy {} is not above {}",
                out.final_accuracy, self.accuracy_floor
            ));
        }
        match out.max_mask_bit {
            None => return Err("no aggregate confirmed on chain".into()),
            Some(bit) if bit as usize >= peers => {
                return Err(format!("mask bit {bit} names no peer of {peers}"))
            }
            Some(_) => {}
        }
        let dropped = out.metrics.counter("dropped_msgs");
        let retries = out.metrics.counter("fetch_retries");
        if self.lossy && dropped == 0 {
            return Err("a lossy cell dropped nothing".into());
        }
        if !self.lossy && (dropped > 0 || retries > 0) {
            return Err(format!(
                "a lossless cell dropped {dropped} messages and retried {retries} pulls"
            ));
        }
        let merges = out.metrics.counter("committee_rounds");
        if self.spec.committees.is_some() && merges != peer_rounds as u64 {
            return Err(format!("{merges} committee merges, expected {peer_rounds}"));
        }
        Ok(())
    }
}

/// `committee_cell(n, committees)` of `examples/scenarios.rs`.
fn committee_cell(name: &str, n: usize, committees: usize) -> ScenarioSpec {
    ScenarioSpec::new(name, n)
        .rounds(2)
        .consider_cutover(6, 48)
        .difficulty(200_000 * n as u128 / 48)
        .gossip(GossipMode::Epidemic { fanout: 3 })
        .committees(CommitteeSpec::contiguous(committees))
        .data(DataSpec::scaled_for(n))
        .seed(n as u64)
}

fn lossy_cell(name: &str, n: usize) -> ScenarioSpec {
    let minority: Vec<usize> = (0..4).collect();
    let rest: Vec<usize> = (4..n).collect();
    let mut spec = ScenarioSpec::new(name, n)
        .rounds(3)
        .consider_cutover(6, 40)
        .difficulty(200_000 * n as u128 / 48)
        .data(DataSpec::scaled_for(n))
        .loss(0.05)
        .partition_at(1.0, &minority, &rest)
        .heal_at(4.0)
        .crash_at(2.0, 7)
        .restart_at(6.0, 7)
        .seed(64);
    for (i, c) in spec.computes.iter_mut().enumerate() {
        c.train_rate = 700.0 - 5.0 * i as f64;
    }
    spec
}

/// The deterministic outputs of one cell, folded the same way from the
/// untraced report and from a traced run, so the two can be compared.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Per-peer round records.
    pub records: usize,
    /// Whether the liveness watchdog stopped the run.
    pub stalled: bool,
    /// Mean final-round accuracy over peers that finished a round.
    pub final_accuracy: f64,
    /// Mean aggregation wait, virtual seconds.
    pub sim_wait_s: f64,
    /// Virtual time at which the run settled.
    pub makespan_s: f64,
    /// Highest member index in any confirmed aggregate mask.
    pub max_mask_bit: Option<u32>,
    /// Flood bytes.
    pub gossip_bytes: u64,
    /// Pulled payload bytes.
    pub fetch_bytes: u64,
    /// Canonical blocks on peer 0's chain.
    pub blocks: usize,
    /// Every counter, gauge and histogram the run folded.
    pub metrics: MetricSet,
}

impl From<&CellReport> for Outcome {
    fn from(r: &CellReport) -> Self {
        Outcome {
            records: r.records,
            stalled: r.stalled(),
            final_accuracy: r.mean_final_accuracy,
            sim_wait_s: r.mean_wait_secs,
            makespan_s: r.makespan_secs,
            max_mask_bit: r.max_mask_bit,
            gossip_bytes: r.gossip_bytes,
            fetch_bytes: r.fetch_bytes,
            blocks: r.blocks,
            metrics: r.metrics.clone(),
        }
    }
}

impl From<&DecentralizedRun> for Outcome {
    fn from(run: &DecentralizedRun) -> Self {
        let finals: Vec<f64> = run
            .peer_records
            .iter()
            .filter_map(|r| r.last().map(|last| last.chosen_accuracy))
            .collect();
        let final_accuracy = if finals.is_empty() {
            0.0
        } else {
            finals.iter().sum::<f64>() / finals.len() as f64
        };
        Outcome {
            records: run.peer_records.iter().map(Vec::len).sum(),
            stalled: run.stall.is_some(),
            final_accuracy,
            sim_wait_s: run.mean_wait().as_secs_f64(),
            makespan_s: run.finished_at.as_secs_f64(),
            max_mask_bit: run.max_mask_bit().map(|b| b as u32),
            gossip_bytes: run.gossip_bytes,
            fetch_bytes: run.fetch_bytes,
            blocks: run.chain.blocks,
            metrics: run.metrics.clone(),
        }
    }
}
