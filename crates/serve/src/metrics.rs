//! Server metrics: counters, latency quantiles, and the `STATS` snapshot.
//!
//! Latencies are recorded in **nanoseconds** into a bounded reservoir (the
//! server is long-running; an unbounded sample vector would be the same
//! bug the Timeline ring buffer exists to prevent). Snapshots report
//! microseconds, rounding each quantile *up* — warm selects service in
//! well under a microsecond, so truncating division would report the
//! median of a busy server as 0 µs (the PR-8 reservoir bug). Quantiles are
//! computed on demand by sorting a copy taken under the reservoir lock and
//! sorted after releasing it — snapshots are rare relative to requests, and
//! the sort must not stall them.
//!
//! Counters are a closed [`Counter`] enum indexing one fixed atomic array;
//! per-kind request counts index another by [`REQUEST_KINDS`]. Only the
//! rung tallies, whose labels are an open set, keep a map.
//!
//! Snapshots carry wall-clock-derived latency numbers, so replay logs
//! exclude `Stats` responses (DESIGN.md §11); everything else in the
//! snapshot is a plain counter.

use crate::protocol::REQUEST_KINDS;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Cap on retained latency samples. Beyond it, recording falls back to
/// overwriting a rotating slot, which keeps quantiles fresh without growth.
const LATENCY_RESERVOIR: usize = 1 << 16;

/// Point-in-time server statistics, as returned for a `Stats` request.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StatsSnapshot {
    /// Requests served, all kinds.
    pub requests_total: u64,
    /// Per-kind request counts (`select`, `batch`, `run`, ...).
    pub requests_by_kind: BTreeMap<String, u64>,
    /// Median request service latency, µs (rounded up from nanosecond
    /// samples: any recorded request reports at least 1 µs).
    pub p50_latency_us: u64,
    /// 99th-percentile request service latency, µs (rounded up).
    pub p99_latency_us: u64,
    /// Profile-cache hits since startup.
    pub cache_hits: u64,
    /// Profile-cache misses since startup.
    pub cache_misses: u64,
    /// `hits / (hits + misses)`, 0 when nothing was looked up.
    pub cache_hit_rate: f64,
    /// Sessions currently connected.
    pub active_sessions: u64,
    /// Arbiter rebalances that changed at least one budget.
    pub arbiter_rebalances: u64,
    /// Budget reshuffles that made a session re-run selection.
    pub reselections: u64,
    /// Connections or batches refused with a typed `Overloaded`.
    pub overloaded: u64,
    /// `Run` requests answered from the idempotency memo (a retry with a
    /// known key) instead of executing again.
    pub idem_replays: u64,
    /// Frames that failed to parse (truncated, oversized, bad UTF-8, ...).
    pub protocol_errors: u64,
    /// Requests served per degradation-ladder rung label (PR-1 ladder:
    /// `model`, `model+fl(1)`, ..., `safe-min`).
    pub degradation_tallies: BTreeMap<String, u64>,
    /// Shard lease state: `standalone` (no coordinator configured),
    /// `unleased`, `leased`, or `degraded`.
    pub lease_state: String,
    /// The cap the shard currently enforces (its lease budget, or the
    /// configured global cap when standalone).
    pub lease_budget_w: f64,
    /// Times the shard has *entered* degraded mode (missed-renewal decay).
    pub degraded_entries: u64,
    /// Successful lease renewals against the coordinator.
    pub lease_renews: u64,
    /// Median renew round-trip latency, µs (0 when standalone).
    pub p50_renew_latency_us: u64,
    /// 99th-percentile renew round-trip latency, µs.
    pub p99_renew_latency_us: u64,
    /// Entries appended to the recovery journal by *this* process.
    pub journal_appends: u64,
    /// Entries replayed from the journal at startup.
    pub journal_replayed: u64,
    /// Measured-feedback observations consumed by per-session adaptive
    /// predictors (both live Reports and journal replay).
    #[serde(default)]
    pub adapt_observations: u64,
    /// Typed drift events (bias, variance blow-up, cluster mismatch)
    /// emitted by the drift detectors.
    #[serde(default)]
    pub drift_events: u64,
    /// Selections where the adaptive correction changed the configuration
    /// the static model would have picked.
    #[serde(default)]
    pub adapt_reselections: u64,
    /// Kernels flagged for cluster re-classification by a gross mismatch.
    #[serde(default)]
    pub reclassifications: u64,
    /// Deadline-carrying requests shed before service with a typed
    /// `ShedDeadline` (the deadline was already unmeetable).
    #[serde(default)]
    pub sheds: u64,
    /// Deadline-carrying requests that were served but finished *after*
    /// their declared deadline (served late, not shed).
    #[serde(default)]
    pub deadline_misses: u64,
    /// Current brownout level (0 = normal; higher levels progressively
    /// disable optional work before shedding real selects).
    #[serde(default)]
    pub brownout_level: u8,
    /// Times this shard observed its lease evicted by the coordinator
    /// (a renew rejected with `unknown-lease` after silence).
    #[serde(default)]
    pub evicted_shards: u64,
}

/// The registry's counters, one slot each in [`Metrics`]'s fixed atomic
/// array. Every one is monotone and feeds the [`StatsSnapshot`] field of the
/// same name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Connections or batches refused with a typed `Overloaded`.
    Overloaded,
    /// Frames that failed to parse.
    ProtocolErrors,
    /// Budget reshuffles that made a session re-run selection.
    Reselections,
    /// `Run` requests answered from the idempotency memo.
    IdemReplays,
    /// Successful lease renewals (counted by [`Metrics::record_renew`]).
    LeaseRenews,
    /// Measured-feedback observations consumed by adaptive predictors.
    AdaptObservations,
    /// Typed drift events emitted by the drift detectors.
    DriftEvents,
    /// Selections the adaptive correction steered off the static pick.
    AdaptReselections,
    /// Kernels flagged for cluster re-classification.
    Reclassifications,
    /// Deadline-carrying requests shed before service.
    Sheds,
    /// Deadline-carrying requests served after their deadline.
    DeadlineMisses,
    /// Renewals rejected with `unknown-lease`: the coordinator evicted us.
    EvictedShards,
}

const COUNTERS: usize = Counter::EvictedShards as usize + 1;

/// A bounded ring of nanosecond samples: once full, each new sample
/// overwrites the oldest. The write index lives under the same lock as the
/// samples.
#[derive(Default)]
struct Reservoir(Mutex<Ring>);

#[derive(Default)]
struct Ring {
    samples: Vec<u64>,
    next: usize,
}

impl Reservoir {
    fn record(&self, ns: u64) {
        let mut ring = self.0.lock();
        if ring.samples.len() < LATENCY_RESERVOIR {
            ring.samples.push(ns);
        } else {
            let at = ring.next;
            ring.samples[at] = ns;
            ring.next = (at + 1) % LATENCY_RESERVOIR;
        }
    }

    /// (p50, p99) in µs, rounded up so a recorded sample is never
    /// summarized as 0 µs; (0, 0) when empty. The samples are copied under
    /// the lock and sorted after it is released, so a quantile read never
    /// stalls the recorders.
    fn quantiles_us(&self) -> (u64, u64) {
        let mut samples = self.0.lock().samples.clone();
        if samples.is_empty() {
            return (0, 0);
        }
        samples.sort_unstable();
        // `.max(1)` guards the (clock-granularity) case of a 0 ns sample:
        // with any samples at all, quantiles are ≥ 1 µs by contract.
        let us = |q| quantile(&samples, q).div_ceil(1000).max(1);
        (us(0.50), us(0.99))
    }
}

/// Thread-safe metric registry shared by all sessions.
#[derive(Default)]
pub struct Metrics {
    counters: [AtomicU64; COUNTERS],
    /// Requests served, indexed like [`REQUEST_KINDS`].
    by_kind: [AtomicU64; REQUEST_KINDS.len()],
    latency: Reservoir,
    renew_latency: Reservoir,
    /// Rung labels (`model+fl(n)`, ...) are an open set, so they keep a map.
    degradation: Mutex<BTreeMap<String, u64>>,
}

impl Metrics {
    /// A zeroed registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n` to a counter. `Relaxed` suffices: a counter is a statistic
    /// and publishes no other data.
    pub fn add(&self, counter: Counter, n: u64) {
        self.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// A counter's current value.
    pub fn get(&self, counter: Counter) -> u64 {
        self.counters[counter as usize].load(Ordering::Relaxed)
    }

    /// Record one served request of `kind` (a [`REQUEST_KINDS`] label) with
    /// its service latency in nanoseconds (sub-µs services must not
    /// collapse to 0). Other labels are not counted.
    pub fn record_request(&self, kind: &str, latency_ns: u64) {
        if let Some(slot) = REQUEST_KINDS.iter().position(|k| *k == kind) {
            self.by_kind[slot].fetch_add(1, Ordering::Relaxed);
            self.latency.record(latency_ns);
        }
    }

    /// Record one successful lease renewal and its round-trip latency in
    /// nanoseconds.
    pub fn record_renew(&self, latency_ns: u64) {
        self.add(Counter::LeaseRenews, 1);
        self.renew_latency.record(latency_ns);
    }

    /// Tally one request served at a degradation-ladder rung.
    pub fn record_rung(&self, label: &str) {
        *self.degradation.lock().entry(label.to_string()).or_insert(0) += 1;
    }

    /// Seed the rung tallies from journal replay, so a restarted server's
    /// STATS reconcile with the history it recovered instead of restarting
    /// every rung at zero.
    pub fn seed_rungs(&self, tallies: &BTreeMap<String, u64>) {
        let mut degradation = self.degradation.lock();
        for (label, count) in tallies {
            *degradation.entry(label.clone()).or_insert(0) += count;
        }
    }

    /// The current 99th-percentile request latency in µs, straight off
    /// the reservoir. The brownout controller polls this; quantiles sort
    /// a copy, so callers should sample at a bounded rate.
    pub fn p99_latency_us_now(&self) -> u64 {
        self.latency.quantiles_us().1
    }

    /// The fields this registry owns, with every other field (cache,
    /// sessions, arbiter, lease, journal, brownout) zero or empty: the
    /// server's `stats()` fills those in. Kinds never seen are absent from
    /// `requests_by_kind`, and `requests_total` is the sum of its entries.
    pub fn snapshot(&self) -> StatsSnapshot {
        let requests_by_kind: BTreeMap<String, u64> = REQUEST_KINDS
            .iter()
            .zip(&self.by_kind)
            .map(|(kind, n)| (kind.to_string(), n.load(Ordering::Relaxed)))
            .filter(|&(_, n)| n > 0)
            .collect();
        let (p50_latency_us, p99_latency_us) = self.latency.quantiles_us();
        let (p50_renew_latency_us, p99_renew_latency_us) = self.renew_latency.quantiles_us();
        StatsSnapshot {
            requests_total: requests_by_kind.values().sum(),
            requests_by_kind,
            p50_latency_us,
            p99_latency_us,
            reselections: self.get(Counter::Reselections),
            overloaded: self.get(Counter::Overloaded),
            idem_replays: self.get(Counter::IdemReplays),
            protocol_errors: self.get(Counter::ProtocolErrors),
            degradation_tallies: self.degradation.lock().clone(),
            lease_renews: self.get(Counter::LeaseRenews),
            p50_renew_latency_us,
            p99_renew_latency_us,
            adapt_observations: self.get(Counter::AdaptObservations),
            drift_events: self.get(Counter::DriftEvents),
            adapt_reselections: self.get(Counter::AdaptReselections),
            reclassifications: self.get(Counter::Reclassifications),
            sheds: self.get(Counter::Sheds),
            deadline_misses: self.get(Counter::DeadlineMisses),
            evicted_shards: self.get(Counter::EvictedShards),
            ..StatsSnapshot::default()
        }
    }
}

/// Nearest-rank quantile of a sorted, non-empty sample.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    debug_assert!(!sorted.is_empty());
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_quantiles() {
        let m = Metrics::new();
        for us in 1..=100u64 {
            m.record_request("select", us * 1000); // µs-scale samples, in ns
        }
        m.record_request("stats", 1_000_000);
        let s = m.snapshot();
        assert_eq!(s.requests_total, 101);
        assert_eq!(s.requests_by_kind["select"], 100);
        assert_eq!(s.requests_by_kind["stats"], 1);
        // Kinds never seen stay absent, so the JSON keeps its shape.
        assert_eq!(s.requests_by_kind.len(), 2);
        assert_eq!(s.p50_latency_us, 51);
        assert_eq!(s.p99_latency_us, 100);

        // Every kind lands in its own entry, and the total is their sum.
        for (i, kind) in REQUEST_KINDS.iter().enumerate() {
            for _ in 0..=i {
                m.record_request(kind, 1_000);
            }
        }
        let s = m.snapshot();
        assert_eq!(s.requests_by_kind.len(), REQUEST_KINDS.len());
        for (i, kind) in REQUEST_KINDS.iter().enumerate() {
            let before = match *kind {
                "select" => 100,
                "stats" => 1,
                _ => 0,
            };
            assert_eq!(s.requests_by_kind[*kind], before + i as u64 + 1, "{kind}");
        }
        assert_eq!(s.requests_total, s.requests_by_kind.values().sum::<u64>());
        assert_eq!(s.requests_total, 101 + 36);
    }

    #[test]
    fn sub_microsecond_services_do_not_report_zero() {
        // The PR-8 reservoir bug: warm selects finish in hundreds of ns,
        // and µs-truncated recording summarized a busy server as p50 = 0.
        let m = Metrics::new();
        for ns in [120u64, 300, 450, 800, 950] {
            m.record_request("select", ns);
        }
        let s = m.snapshot();
        assert_eq!(s.p50_latency_us, 1, "sub-µs median rounds up to 1 µs");
        assert_eq!(s.p99_latency_us, 1);
        // Mixed scales: the µs-and-up tail still reports faithfully.
        m.record_request("select", 29_400); // 29.4 µs
        m.record_request("select", 30_001); // just over 30 µs rounds up
        for _ in 0..5 {
            m.record_request("select", 2_000);
        }
        let s = m.snapshot();
        assert_eq!(s.p50_latency_us, 2);
        assert_eq!(s.p99_latency_us, 31);
    }

    #[test]
    fn empty_registry_snapshots_cleanly() {
        let s = Metrics::new().snapshot();
        assert_eq!(s.requests_total, 0);
        assert!(s.requests_by_kind.is_empty());
        assert_eq!(s.p50_latency_us, 0);
        assert_eq!(s.p99_latency_us, 0);
        assert!(s.degradation_tallies.is_empty());
        assert_eq!(s.lease_renews, 0);
        assert_eq!(s.p50_renew_latency_us, 0);
    }

    #[test]
    fn lease_fields_flow_into_the_snapshot() {
        // The lease state, cap, and journal counters come from the server;
        // the e2e suites check those. The registry owns renewals, their
        // latency, and observed evictions.
        let m = Metrics::new();
        for us in [100u64, 200, 300] {
            m.record_renew(us * 1000);
        }
        m.add(Counter::EvictedShards, 1);
        let s = m.snapshot();
        assert_eq!(s.lease_renews, 3);
        assert_eq!(s.p50_renew_latency_us, 200);
        assert_eq!(s.p99_renew_latency_us, 300);
        assert_eq!(s.evicted_shards, 1);
        // Renewals never leak into the request reservoir.
        assert_eq!(s.p99_latency_us, 0);
    }

    #[test]
    fn reservoir_is_bounded() {
        let m = Metrics::new();
        for i in 0..(LATENCY_RESERVOIR as u64 + 500) {
            m.record_request("select", i);
        }
        assert_eq!(m.latency.0.lock().samples.len(), LATENCY_RESERVOIR);
        // The ring overwrote the oldest 500 samples, not arbitrary ones.
        assert_eq!(m.latency.0.lock().samples.iter().min(), Some(&500));
    }

    #[test]
    fn rung_tallies_accumulate() {
        let m = Metrics::new();
        m.record_rung("model");
        m.record_rung("model");
        m.record_rung("safe-min");
        let s = m.snapshot();
        assert_eq!(s.degradation_tallies["model"], 2);
        assert_eq!(s.degradation_tallies["safe-min"], 1);
    }

    #[test]
    fn seeded_rungs_merge_with_live_tallies() {
        // Recovery replay seeds the rung history; live requests keep
        // adding on top — the snapshot reports the reconciled sum.
        let m = Metrics::new();
        let mut replayed = BTreeMap::new();
        replayed.insert("model".to_string(), 3u64);
        replayed.insert("safe-min".to_string(), 1u64);
        m.seed_rungs(&replayed);
        m.record_rung("model");
        let s = m.snapshot();
        assert_eq!(s.degradation_tallies["model"], 4);
        assert_eq!(s.degradation_tallies["safe-min"], 1);
    }

    #[test]
    fn adaptation_counters_flow_into_the_snapshot() {
        let m = Metrics::new();
        m.add(Counter::AdaptObservations, 2);
        m.add(Counter::DriftEvents, 2);
        m.add(Counter::Reclassifications, 1);
        m.add(Counter::AdaptReselections, 1);
        let s = m.snapshot();
        assert_eq!(s.adapt_observations, 2);
        assert_eq!(s.drift_events, 2);
        assert_eq!(s.reclassifications, 1);
        assert_eq!(s.adapt_reselections, 1);
    }

    #[test]
    fn pre_adapt_snapshots_parse_with_zero_adapt_counters() {
        // A snapshot serialized before the adaptation counters existed
        // must still deserialize (old recordings, mixed-version fleets).
        let m = Metrics::new();
        let s = m.snapshot();
        let mut json = serde_json::to_string(&s).unwrap();
        for field in
            ["adapt_observations", "drift_events", "adapt_reselections", "reclassifications"]
        {
            json = json.replace(&format!(",\"{field}\":0"), "");
            json = json.replace(&format!("\"{field}\":0,"), "");
        }
        assert!(!json.contains("adapt_observations"));
        let back: StatsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn pre_shed_snapshots_parse_with_zero_overload_counters() {
        // Snapshots serialized before the overload layer existed lack the
        // shed/brownout/eviction fields; they must default to zero.
        let m = Metrics::new();
        let s = m.snapshot();
        let mut json = serde_json::to_string(&s).unwrap();
        for field in ["sheds", "deadline_misses", "brownout_level", "evicted_shards"] {
            json = json.replace(&format!(",\"{field}\":0"), "");
            json = json.replace(&format!("\"{field}\":0,"), "");
        }
        assert!(!json.contains("brownout_level"));
        let back: StatsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn shed_and_deadline_miss_counters_flow_into_the_snapshot() {
        let m = Metrics::new();
        m.add(Counter::Sheds, 2);
        m.add(Counter::DeadlineMisses, 1);
        let s = m.snapshot();
        assert_eq!(s.sheds, 2);
        assert_eq!(s.deadline_misses, 1);
        assert_eq!(s.brownout_level, 0);
        // The reservoir p99 accessor mirrors the snapshot's quantile.
        m.record_request("select", 5_000);
        assert_eq!(m.p99_latency_us_now(), 5);
    }

    #[test]
    fn snapshot_roundtrips_through_the_wire_format() {
        let m = Metrics::new();
        m.record_request("select", 10);
        m.record_rung("model");
        let s = m.snapshot();
        let json = serde_json::to_string(&s).unwrap();
        let back: StatsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
