//! Host-time gap attribution for a traced cell.
//!
//! The benchmark owns three inputs of `Decentralized::run_traced_with_hook`:
//! the `make_model` closure, the `update_hook`, and the [`GapSink`]. Each
//! stamps `Instant::now()` when it is called, and the host time since the
//! previous stamp (the *gap*) is charged to whatever closed it. A gap holds
//! all the work since the previous stamp, so the attribution is approximate:
//! event handlers that emit no record land in the next record's gap.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

use blockfed_telemetry::{AttrValue, RecordKind, TraceRecord, TraceSink};

/// Where a gap is charged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// Local training: the gap closed by `update_hook` (model parameters
    /// set, then the epochs run).
    Train,
    /// Inside `make_model`.
    ModelBuild,
    /// Aggregation: combination scoring, the aggregate-record flood, and the
    /// end of the peer's wait.
    Aggregate,
    /// A peer entering (or aborting) its wait: publishing its update.
    Wait,
    /// The tier-2 committee merge.
    Merge,
    /// Proof-of-work block seals.
    Pow,
    /// Chain reorganisations.
    Reorg,
    /// Flood scheduling and dropped deliveries.
    Flood,
    /// Payload-fetch episodes and retries.
    Fetch,
    /// Everything else (round and training span boundaries, faults,
    /// watchdog checks, the run's closing fold).
    Other,
}

/// The shared clock behind the timing points of one traced cell.
pub struct GapClock {
    state: RefCell<State>,
}

struct State {
    started: Instant,
    last: Instant,
    /// Set by the `watchdog.armed` record, which ends the run's set-up.
    armed_at: Option<Instant>,
    init_s: f64,
    /// Gaps of the event loop, per layer and per closing name.
    layers: BTreeMap<Layer, f64>,
    names: BTreeMap<&'static str, f64>,
    model_build_s: f64,
    /// Consecutive `net.flood` gaps not yet charged: `(origin, is an
    /// aggregate-record flood candidate, gap)`.
    pending: Vec<(u32, bool, f64)>,
    records: u64,
    floods: u64,
    trainings: u64,
}

/// Per-cell totals of a [`GapClock`].
#[derive(Debug, Clone, PartialEq)]
pub struct Gaps {
    /// Run entry to the `watchdog.armed` record: keys, genesis, chains,
    /// registration floods, first model builds.
    pub init_s: f64,
    /// `watchdog.armed` to the run's return.
    pub loop_s: f64,
    /// Event-loop gaps per layer.
    pub layers: BTreeMap<Layer, f64>,
    /// Event-loop gaps per closing record name.
    pub names: BTreeMap<&'static str, f64>,
    /// Host time inside `make_model`, set-up calls included.
    pub model_build_s: f64,
    /// Records the sink received.
    pub records: u64,
    /// `net.flood` records.
    pub floods: u64,
    /// `update_hook` calls: local trainings.
    pub trainings: u64,
}

impl Gaps {
    /// The gap total charged to `layer`.
    pub fn layer(&self, layer: Layer) -> f64 {
        self.layers.get(&layer).copied().unwrap_or(0.0)
    }

    /// Every event-loop gap; it falls short of `loop_s` only by the
    /// attribution's own bookkeeping.
    pub fn gap_sum(&self) -> f64 {
        self.layers.values().sum()
    }
}

impl GapClock {
    /// Starts the clock at run entry.
    pub fn start() -> Self {
        let now = Instant::now();
        GapClock {
            state: RefCell::new(State {
                started: now,
                last: now,
                armed_at: None,
                init_s: 0.0,
                layers: BTreeMap::new(),
                names: BTreeMap::new(),
                model_build_s: 0.0,
                pending: Vec::new(),
                records: 0,
                floods: 0,
                trainings: 0,
            }),
        }
    }

    /// Call at `make_model` entry.
    pub fn model_build_begin(&self) {
        self.state
            .borrow_mut()
            .close("make_model", Layer::Other, None);
    }

    /// Call at `make_model` exit.
    pub fn model_build_end(&self) {
        let mut s = self.state.borrow_mut();
        s.model_build_s += s.last.elapsed().as_secs_f64();
        s.close("make_model.build", Layer::ModelBuild, None);
    }

    /// Call from `update_hook`: closes a local training.
    pub fn trained(&self) {
        let mut s = self.state.borrow_mut();
        s.trainings += 1;
        s.close("update_hook", Layer::Train, None);
    }

    /// Call when the run returns.
    pub fn finish(self) -> Gaps {
        let mut s = self.state.into_inner();
        s.close("run.finish", Layer::Other, None);
        let loop_s = s
            .armed_at
            .map_or(0.0, |armed| s.last.duration_since(armed).as_secs_f64());
        Gaps {
            init_s: s.init_s,
            loop_s,
            layers: s.layers,
            names: s.names,
            model_build_s: s.model_build_s,
            records: s.records,
            floods: s.floods,
            trainings: s.trainings,
        }
    }

    /// The trace sink that stamps every record on this clock.
    pub fn sink(&self) -> GapSink<'_> {
        GapSink { clock: self }
    }
}

impl State {
    /// Charges the gap since the last stamp to `layer` under `name`.
    /// `aggregated_on` is the peer whose aggregation the closing record ends,
    /// if it ends one: pending aggregate-record floods of that peer are then
    /// charged to aggregation, every other pending flood to flooding.
    fn close(&mut self, name: &'static str, layer: Layer, aggregated_on: Option<u32>) {
        let now = Instant::now();
        let gap = now.duration_since(self.last).as_secs_f64();
        self.last = now;
        if self.armed_at.is_none() {
            return; // set-up time: reported whole as init_s
        }
        for (origin, candidate, flood_gap) in std::mem::take(&mut self.pending) {
            let layer = if candidate && Some(origin) == aggregated_on {
                Layer::Aggregate
            } else {
                Layer::Flood
            };
            *self.layers.entry(layer).or_default() += flood_gap;
            *self.names.entry("net.flood").or_default() += flood_gap;
        }
        *self.layers.entry(layer).or_default() += gap;
        *self.names.entry(name).or_default() += gap;
    }

    fn record(&mut self, rec: &TraceRecord) {
        self.records += 1;
        if self.armed_at.is_none() {
            if rec.name == "watchdog.armed" {
                let now = Instant::now();
                self.init_s = now.duration_since(self.started).as_secs_f64();
                self.armed_at = Some(now);
                self.last = now;
            }
            if rec.name == "net.flood" {
                self.floods += 1;
            }
            return;
        }
        if rec.name == "net.flood" {
            // A peer floods its aggregate record (a 512-byte control
            // transaction) right after scoring combinations, so that gap is
            // aggregation work when the peer's wait ends next.
            self.floods += 1;
            let now = Instant::now();
            let gap = now.duration_since(self.last).as_secs_f64();
            self.last = now;
            let candidate = attr(rec, "bytes") == Some(&AttrValue::U64(512))
                && attr(rec, "artifact") == Some(&AttrValue::Bool(false));
            self.pending.push((rec.track, candidate, gap));
            return;
        }
        let ends_wait = rec.name == "round.wait"
            && rec.kind == RecordKind::End
            && attr(rec, "aborted").is_none()
            && attr(rec, "truncated").is_none();
        let layer = match (rec.name, rec.kind) {
            ("round.wait", _) if ends_wait => Layer::Aggregate,
            ("round.aggregated", _) | ("round", RecordKind::End) => Layer::Aggregate,
            ("round.wait", _) => Layer::Wait,
            ("round.merged", _) => Layer::Merge,
            ("pow.sealed", _) => Layer::Pow,
            ("chain.reorg", _) => Layer::Reorg,
            ("net.dropped", _) => Layer::Flood,
            ("fetch" | "fetch.retry", _) => Layer::Fetch,
            _ => Layer::Other,
        };
        self.close(rec.name, layer, ends_wait.then_some(rec.track));
    }
}

fn attr<'r>(rec: &'r TraceRecord, key: &str) -> Option<&'r AttrValue> {
    rec.attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
}

/// A [`TraceSink`] that keeps no records: it stamps each one on its
/// [`GapClock`] and tallies it.
pub struct GapSink<'c> {
    clock: &'c GapClock,
}

impl TraceSink for GapSink<'_> {
    fn record(&mut self, rec: TraceRecord) {
        self.clock.state.borrow_mut().record(&rec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockfed_sim::SimTime;
    use blockfed_telemetry::RUN_TRACK;

    fn rec(
        name: &'static str,
        kind: RecordKind,
        track: u32,
        attrs: Vec<(&'static str, AttrValue)>,
    ) -> TraceRecord {
        TraceRecord {
            time: SimTime::ZERO,
            kind,
            name,
            track,
            id: 0,
            attrs,
        }
    }

    fn flood(track: u32, bytes: u64) -> TraceRecord {
        let attrs = vec![
            ("bytes", AttrValue::U64(bytes)),
            ("artifact", AttrValue::Bool(false)),
        ];
        rec("net.flood", RecordKind::Instant, track, attrs)
    }

    #[test]
    fn aggregate_record_flood_is_charged_to_aggregation() {
        let clock = GapClock::start();
        let mut sink = clock.sink();
        sink.record(flood(0, 512)); // set-up: init only
        sink.record(rec(
            "watchdog.armed",
            RecordKind::Instant,
            RUN_TRACK,
            Vec::new(),
        ));
        clock.model_build_begin();
        clock.model_build_end();
        clock.trained();
        sink.record(flood(1, 512)); // peer 1's aggregate record
        sink.record(flood(2, 1024)); // a block flood by peer 2
        sink.record(rec("round.wait", RecordKind::End, 1, Vec::new()));
        sink.record(flood(3, 512)); // not followed by peer 3's wait end
        sink.record(rec("pow.sealed", RecordKind::Instant, 3, Vec::new()));
        let gaps = clock.finish();
        assert_eq!((gaps.records, gaps.floods, gaps.trainings), (7, 4, 1));
        for layer in [
            Layer::Aggregate,
            Layer::Flood,
            Layer::Train,
            Layer::ModelBuild,
            Layer::Pow,
        ] {
            assert!(gaps.layers.contains_key(&layer), "{layer:?}: {gaps:?}");
        }
        assert!(!gaps.layers.contains_key(&Layer::Wait));
        assert!(gaps.init_s > 0.0 && gaps.loop_s >= gaps.gap_sum() - 1e-9);
    }
}
