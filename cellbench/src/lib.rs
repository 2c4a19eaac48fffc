//! Closed-loop benchmark of blockfed scenario cells.
//!
//! One process runs one workload: cells one at a time, back to back, on one
//! compute worker. The untraced mode reports the end-to-end metrics of
//! [`END_TO_END`]; the traced mode reports the per-layer metrics of
//! [`PER_LAYER`] by timing the benchmark's own calls into the crates' public
//! entry points. Every cell's outputs are checked; the last line printed is
//! one JSON object (see [`Report::to_json`]).

pub mod gaps;
pub mod workload;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use blockfed_core::{
    confirmed_aggregates, confirmed_submissions, registry_address, Blockchain, Decentralized,
};
use blockfed_data::{partition_dataset, Dataset, SynthCifar};
use blockfed_net::{FloodScratch, Network, NodeId};
use blockfed_scenario::{ScenarioRunner, ScenarioSpec};
use blockfed_sim::RngHub;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::gaps::{GapClock, Gaps, Layer};
use crate::workload::{Outcome, Workload};

/// End-to-end metrics of the untraced mode: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("cell_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("final_accuracy", "fraction"),
    ("sim_wait_s", "sim_s"),
];

/// Per-layer metrics of the traced mode: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("data.prepare_s", "s"),
    ("nn.model_build_s", "s"),
    ("nn.train_s", "s"),
    ("nn.local_trainings", "count"),
    ("fl.aggregate_gap_s", "s"),
    ("fl.combos_scored", "count"),
    ("core.init_s", "s"),
    ("core.loop_s", "s"),
    ("core.wait_gap_s", "s"),
    ("core.merge_gap_s", "s"),
    ("core.trace_records", "count"),
    ("core.peer_rounds", "count"),
    ("core.committee_rounds", "count"),
    ("chain.pow_gap_s", "s"),
    ("chain.reorg_gap_s", "s"),
    ("chain.blocks_sealed", "count"),
    ("chain.blocks_canonical", "count"),
    ("chain.reorgs", "count"),
    ("chain.exec_runs", "count"),
    ("crypto.sig_verifies", "count"),
    ("chain.exec_hit_ratio", "ratio"),
    ("chain.sig_hit_ratio", "ratio"),
    ("vm.registry_scan_ms", "ms"),
    ("vm.aggregates_confirmed", "count"),
    ("vm.max_mask_bit", "count"),
    ("net.flood_ms", "ms"),
    ("net.flood_gap_s", "s"),
    ("net.fetch_gap_s", "s"),
    ("net.floods", "count"),
    ("net.gossip_bytes", "bytes"),
    ("net.fetch_bytes", "bytes"),
    ("net.tier2_bytes", "bytes"),
    ("net.dropped_msgs", "count"),
    ("net.fetch_retries", "count"),
    ("net.fetch_recoveries", "count"),
    ("net.fetch_gave_up", "count"),
    ("telemetry.overhead_ratio", "ratio"),
];

/// Back-to-back cells an untraced run measures at least, so `cell_s` is a
/// median rather than one sample.
pub const MIN_CELLS: usize = 3;

/// Set-ups repeated before the first cell and after each cell (untraced)
/// or pair of cells (traced). Spreading them over the run lets their median
/// see the same host conditions the cells see.
const SETUP_BATCH: usize = 15;

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed of the benchmark's own random inputs: the edge-delay draws
    /// `net.flood_ms` times. It leaves the cells alone, so their
    /// deterministic outputs compare across runs.
    pub seed: u64,
    /// Seed of the cells; `None` keeps the workload's default.
    pub cell_seed: Option<u64>,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Traced (per-layer) mode.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload <name> [--seed <n>] [--cell-seed <n>] [--seconds <s>]
    /// [--trace <0|1>]`.
    ///
    /// # Errors
    ///
    /// Describes the first malformed argument.
    pub fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut parsed = Args {
            workload: String::new(),
            seed: 0,
            cell_seed: None,
            seconds: 10.0,
            trace: false,
        };
        while let Some(flag) = args.next() {
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            let bad = format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => parsed.workload = value.clone(),
                "--seed" => parsed.seed = value.parse().map_err(|_| bad)?,
                "--cell-seed" => parsed.cell_seed = Some(value.parse().map_err(|_| bad)?),
                "--seconds" => {
                    parsed.seconds = value.parse().map_err(|_| bad.clone())?;
                    if !(parsed.seconds >= 0.0 && parsed.seconds.is_finite()) {
                        return Err(bad);
                    }
                }
                "--trace" => {
                    parsed.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if parsed.workload.is_empty() {
            return Err("--workload is required".into());
        }
        Ok(parsed)
    }
}

/// The result of one benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Every cell passed its checks and every determinism comparison held.
    pub correct: bool,
    /// Cells attempted.
    pub attempted: u64,
    /// Cells that panicked or failed a check.
    pub failed: u64,
    /// `(name, value, unit)` in the mode's metric order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                // JSON has no NaN or infinity; an unmeasurable value reads 0.
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Runs `f`, turning a panic into an error carrying its message.
fn attempt<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_else(|| "panic".into())
    })
}

/// The median of `xs` (the mean of the middle pair for an even count);
/// NaN when empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The cell's data exactly as `ScenarioRunner::run` synthesizes it: one
/// shard per peer from a fresh training draw, and per-peer test sets cut
/// from a disjoint draw.
fn prepare_data(spec: &ScenarioSpec) -> (Vec<Dataset>, Vec<Dataset>) {
    let n = spec.peers();
    let gen = SynthCifar::new(spec.data.synth.clone());
    let (train, _held_out) = gen.generate(spec.seed);
    let hub = RngHub::new(spec.seed);
    let mut peer_draw = hub.stream("scenario-peer-tests");
    let pool = gen.sample(&mut peer_draw, spec.data.synth.test_per_class);
    let per = pool.len() / n;
    let tests = (0..n)
        .map(|i| pool.subset(&(i * per..(i + 1) * per).collect::<Vec<_>>()))
        .collect();
    let mut part_rng = hub.stream("scenario-partition");
    let shards = partition_dataset(&train, n, spec.data.partition, &mut part_rng);
    (shards, tests)
}

/// The architecture RNG `ScenarioRunner::run` builds every model from.
fn arch_rng(spec: &ScenarioSpec) -> StdRng {
    StdRng::seed_from_u64(spec.seed ^ 0x5CE0)
}

/// Host times of one set-up: data, then model build, config lowering and
/// driver construction.
struct Setup {
    data_s: f64,
    total_s: f64,
}

fn setup_once(spec: &ScenarioSpec) -> Result<Setup, String> {
    let started = Instant::now();
    let (shards, tests) = prepare_data(spec);
    let data_s = started.elapsed().as_secs_f64();
    let model = spec.model.build(&mut arch_rng(spec));
    let driver = Decentralized::try_new(spec.decentralized_config(), &shards, &tests)
        .map_err(|e| e.to_string())?;
    let total_s = started.elapsed().as_secs_f64();
    std::hint::black_box((&model, &driver));
    Ok(Setup { data_s, total_s })
}

/// A run's repeated in-process set-ups; the first failure ends them.
#[derive(Default)]
struct Setups {
    samples: Vec<Setup>,
    error: Option<String>,
}

impl Setups {
    fn batch(&mut self, spec: &ScenarioSpec) {
        for _ in 0..SETUP_BATCH {
            if self.error.is_some() {
                return;
            }
            match attempt(|| setup_once(spec)).and_then(|r| r) {
                Ok(setup) => self.samples.push(setup),
                Err(e) => {
                    println!("setup FAILED: {e}");
                    self.error = Some(e);
                }
            }
        }
    }

    fn median(&self, f: impl Fn(&Setup) -> f64) -> f64 {
        median(&self.samples.iter().map(f).collect::<Vec<_>>())
    }
}

/// The process's peak resident set (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Tracks pass/fail over a run's cells and the determinism comparisons.
struct Tally {
    attempted: u64,
    failed: u64,
    mismatch: bool,
    reference: Option<Outcome>,
}

impl Tally {
    fn new() -> Self {
        Tally {
            attempted: 0,
            failed: 0,
            mismatch: false,
            reference: None,
        }
    }

    /// Checks one cell; the first passing outcome becomes the reference every
    /// later cell, traced or not, must equal.
    fn judge(&mut self, w: &Workload, label: &str, out: Result<Outcome, String>) -> bool {
        self.attempted += 1;
        let verdict = out.and_then(|o| {
            w.check(&o)?;
            match &self.reference {
                Some(r) if *r != o => {
                    self.mismatch = true;
                    Err("outputs differ from the run's first cell".to_string())
                }
                Some(_) => Ok(()),
                None => {
                    self.reference = Some(o);
                    Ok(())
                }
            }
        });
        match verdict {
            Ok(()) => true,
            Err(e) => {
                self.failed += 1;
                println!("{label} {}: FAILED: {e}", self.attempted);
                false
            }
        }
    }

    fn correct(&self) -> bool {
        self.failed == 0 && !self.mismatch && self.reference.is_some()
    }
}

/// Whether one more step of `step_s` seconds ends within the budget.
fn fits(started: &Instant, step_s: f64, seconds: f64) -> bool {
    started.elapsed().as_secs_f64() + step_s <= seconds
}

/// One untraced cell through `ScenarioRunner::run`: `(wall seconds, outputs)`.
fn untraced_cell(spec: &ScenarioSpec) -> (f64, Result<Outcome, String>) {
    let started = Instant::now();
    let out = attempt(|| Outcome::from(&ScenarioRunner::new().run(spec)));
    (started.elapsed().as_secs_f64(), out)
}

/// The untraced mode: repeated set-ups, then back-to-back cells while the
/// next one is expected to end within the budget (at least [`MIN_CELLS`]).
pub fn run_untraced(w: &Workload, seconds: f64) -> Report {
    let mut tally = Tally::new();
    let mut setups = Setups::default();
    setups.batch(&w.spec);
    let started = Instant::now();
    let mut walls = Vec::new();
    // A failing cell does not count towards the minimum, but the attempts
    // are capped: the run is already failed.
    while (walls.len() < MIN_CELLS && (tally.attempted as usize) < 2 * MIN_CELLS)
        || fits(&started, median(&walls), seconds)
    {
        let (wall, out) = untraced_cell(&w.spec);
        if tally.judge(w, "cell", out) {
            println!("cell {}: {wall:.4} s", tally.attempted);
            walls.push(wall);
        }
        setups.batch(&w.spec);
    }
    let (accuracy, wait) = tally
        .reference
        .as_ref()
        .map_or((f64::NAN, f64::NAN), |o| (o.final_accuracy, o.sim_wait_s));
    let setup_s = setups.median(|s| s.total_s);
    let values = [median(&walls), setup_s, peak_rss_mb(), accuracy, wait];
    Report {
        correct: tally.correct() && setups.error.is_none(),
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect(),
    }
}

/// What one traced cell measured.
struct Traced {
    wall_s: f64,
    gaps: Gaps,
    counts: Vec<(&'static str, f64)>,
    chain: Blockchain,
}

/// One traced cell: the runner's path rebuilt from public entry points, with
/// the benchmark's `make_model`, `update_hook` and sink as timing points.
fn traced_cell(spec: &ScenarioSpec) -> Result<(Traced, Outcome), String> {
    let started = Instant::now();
    let (shards, tests) = prepare_data(spec);
    let mut rng = arch_rng(spec);
    let driver = Decentralized::try_new(spec.decentralized_config(), &shards, &tests)
        .map_err(|e| e.to_string())?;
    let clock = GapClock::start();
    let run = {
        let mut make_model = || {
            clock.model_build_begin();
            let model = spec.model.build(&mut rng);
            clock.model_build_end();
            model
        };
        let mut hook = |_: &mut _| clock.trained();
        driver.run_traced_with_hook(&mut make_model, &mut hook, &mut clock.sink())
    };
    let gaps = clock.finish();
    let outcome = Outcome::from(&run);
    let wall_s = started.elapsed().as_secs_f64();
    let m = &run.metrics;
    let ratio = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
    let counts = vec![
        ("nn.local_trainings", gaps.trainings as f64),
        (
            "fl.combos_scored",
            run.peer_records
                .iter()
                .flatten()
                .map(|r| r.combos.len())
                .sum::<usize>() as f64,
        ),
        ("core.trace_records", gaps.records as f64),
        ("core.peer_rounds", outcome.records as f64),
        (
            "core.committee_rounds",
            m.counter("committee_rounds") as f64,
        ),
        ("chain.blocks_sealed", run.blocks_sealed as f64),
        ("chain.blocks_canonical", run.chain.blocks as f64),
        ("chain.reorgs", m.counter("reorgs") as f64),
        ("chain.exec_runs", m.counter("store_exec_misses") as f64),
        ("crypto.sig_verifies", m.counter("store_sig_misses") as f64),
        (
            "chain.exec_hit_ratio",
            ratio(m.counter("store_exec_hits"), m.counter("store_exec_misses")),
        ),
        (
            "chain.sig_hit_ratio",
            ratio(m.counter("store_sig_hits"), m.counter("store_sig_misses")),
        ),
        ("vm.aggregates_confirmed", run.aggregates.len() as f64),
        (
            "vm.max_mask_bit",
            run.max_mask_bit().map_or(-1.0, |b| b as f64),
        ),
        ("net.floods", gaps.floods as f64),
        ("net.gossip_bytes", run.gossip_bytes as f64),
        ("net.fetch_bytes", run.fetch_bytes as f64),
        (
            "net.tier2_bytes",
            (m.counter("tier2_gossip_bytes") + m.counter("tier2_fetch_bytes")) as f64,
        ),
        ("net.dropped_msgs", m.counter("dropped_msgs") as f64),
        ("net.fetch_retries", m.counter("fetch_retries") as f64),
        ("net.fetch_recoveries", m.counter("fetch_recoveries") as f64),
        ("net.fetch_gave_up", m.counter("fetch_gave_up") as f64),
    ];
    let traced = Traced {
        wall_s,
        gaps,
        counts,
        chain: run.final_chain,
    };
    Ok((traced, outcome))
}

/// Repeats `f` until `min_secs` have passed (at least 3 times) and returns
/// the median per-call time in milliseconds.
fn time_ms(min_secs: f64, mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || started.elapsed().as_secs_f64() < min_secs {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64() * 1e3);
    }
    median(&samples)
}

/// Every round's confirmed submissions plus the confirmed aggregates, read
/// off the final chain.
fn registry_scan(spec: &ScenarioSpec, chain: &Blockchain) -> f64 {
    let registry = registry_address();
    time_ms(0.3, || {
        for round in 1..=spec.rounds {
            std::hint::black_box(confirmed_submissions(chain, registry, round));
        }
        std::hint::black_box(confirmed_aggregates(chain, registry));
    })
}

/// Mean `flood_with` time per origin at the cell's size, topology and link.
fn flood_ms(spec: &ScenarioSpec, seed: u64) -> f64 {
    let n = spec.peers();
    let network = Network::new(n, spec.topology.clone(), spec.link);
    let mut scratch = FloodScratch::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let sweep = time_ms(0.3, || {
        for origin in 0..n {
            let mut reached = 0usize;
            network.flood_with(
                NodeId(origin),
                spec.payload_bytes,
                &mut rng,
                &mut scratch,
                |_, _, _| reached += 1,
            );
            std::hint::black_box(reached);
        }
    });
    sweep / n as f64
}

/// The traced mode: untraced and traced cells alternate while the next pair
/// is expected to end within the budget (at least one pair). Every traced cell must reproduce the
/// untraced outputs and the first traced cell's counts exactly.
pub fn run_traced(w: &Workload, seconds: f64, seed: u64) -> Report {
    let mut tally = Tally::new();
    let mut setups = Setups::default();
    let started = Instant::now();
    let mut untraced_walls = Vec::new();
    let mut traced: Vec<Traced> = Vec::new();
    let mut counts_differ = false;
    while traced.is_empty()
        || fits(
            &started,
            started.elapsed().as_secs_f64() / traced.len() as f64,
            seconds,
        )
    {
        setups.batch(&w.spec);
        let (wall, out) = untraced_cell(&w.spec);
        if tally.judge(w, "untraced cell", out) {
            untraced_walls.push(wall);
        }
        let out = attempt(|| traced_cell(&w.spec)).and_then(|r| r);
        let (cell, out) = match out {
            Ok((cell, out)) => (Some(cell), Ok(out)),
            Err(e) => (None, Err(e)),
        };
        if tally.judge(w, "traced cell", out) {
            let cell = cell.expect("a judged outcome comes with its cell");
            if traced
                .first()
                .is_some_and(|first| first.counts != cell.counts)
            {
                counts_differ = true;
                println!("traced cell counts differ from the first traced cell");
            }
            traced.push(cell);
        } else if traced.is_empty() && tally.attempted >= 2 {
            break; // the traced path fails: stop, the run is already failed
        }
    }
    for cell in &traced {
        print_breakdown(cell);
    }
    let mut values: Vec<(&str, f64)> = vec![("data.prepare_s", setups.median(|s| s.data_s))];
    let per_cell = |f: &dyn Fn(&Traced) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    values.extend([
        ("nn.model_build_s", per_cell(&|c| c.gaps.model_build_s)),
        ("nn.train_s", per_cell(&|c| c.gaps.layer(Layer::Train))),
        (
            "fl.aggregate_gap_s",
            per_cell(&|c| c.gaps.layer(Layer::Aggregate)),
        ),
        ("core.init_s", per_cell(&|c| c.gaps.init_s)),
        ("core.loop_s", per_cell(&|c| c.gaps.loop_s)),
        ("core.wait_gap_s", per_cell(&|c| c.gaps.layer(Layer::Wait))),
        (
            "core.merge_gap_s",
            per_cell(&|c| c.gaps.layer(Layer::Merge)),
        ),
        ("chain.pow_gap_s", per_cell(&|c| c.gaps.layer(Layer::Pow))),
        (
            "chain.reorg_gap_s",
            per_cell(&|c| c.gaps.layer(Layer::Reorg)),
        ),
        ("net.flood_gap_s", per_cell(&|c| c.gaps.layer(Layer::Flood))),
        ("net.fetch_gap_s", per_cell(&|c| c.gaps.layer(Layer::Fetch))),
        (
            "telemetry.overhead_ratio",
            per_cell(&|c| c.wall_s) / median(&untraced_walls),
        ),
    ]);
    if let Some(first) = traced.first() {
        values.extend(first.counts.iter().copied());
        values.push(("vm.registry_scan_ms", registry_scan(&w.spec, &first.chain)));
    }
    values.push(("net.flood_ms", flood_ms(&w.spec, seed)));
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let v = values
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(f64::NAN, |(_, v)| *v);
            (name, v, unit)
        })
        .collect();
    Report {
        correct: tally.correct() && setups.error.is_none() && !counts_differ,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    }
}

/// Prints one traced cell's gap totals per closing name, largest first, and
/// their sum against the event loop's host time.
fn print_breakdown(cell: &Traced) {
    let g = &cell.gaps;
    println!(
        "traced cell: {:.4} s wall, init {:.4} s, loop {:.4} s, gap sum {:.4} s ({:.1}% of loop)",
        cell.wall_s,
        g.init_s,
        g.loop_s,
        g.gap_sum(),
        100.0 * g.gap_sum() / g.loop_s
    );
    let mut names: Vec<_> = g.names.iter().collect();
    names.sort_by(|a, b| b.1.total_cmp(a.1));
    for (name, secs) in names.iter().take(8) {
        println!("  gap closed by {name:<18} {secs:.4} s");
    }
}

/// Runs one benchmark invocation.
///
/// # Errors
///
/// Rejects an unknown workload name.
pub fn run(args: &Args) -> Result<Report, String> {
    let w = Workload::named(&args.workload, args.cell_seed)
        .ok_or(format!("unknown workload {:?}", args.workload))?;
    Ok(if args.trace {
        run_traced(&w, args.seconds, args.seed)
    } else {
        run_untraced(&w, args.seconds)
    })
}
