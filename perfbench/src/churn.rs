//! `session-churn`: one load thread alternating two connections (two
//! arbiter nodes) of a journaled server under the demand policy, closed
//! loop. The mix is the one `bench_serve` drives through `loadgen`
//! (`BENCH_serve.json`), with Batch of 16 added: per connection every
//! 7th request is a Report with `loadgen --feedback`'s seeded feedback,
//! every 10th a Run, one in 20 a Batch, the rest Select. As in
//! `bench_serve`, each server answers 200 requests and is then replaced
//! by a fresh one, so each server's first sight of a kernel takes the
//! engine's cold path and each session starts cold. The engine miss path,
//! runtime, adaptation, arbiter rebalances, journal writes and large
//! frames do the work here, and a Report on one connection moves the
//! other session's budget, so stale budgets show.

use crate::common::{
    exchange, first_setups, hello, kernel_ids, teardown, timed_setup, Outcome, Reference, Rng,
    Running, Samples, Span, Windows, WorkDir, SERVER_SEED, STRETCHES,
};
use crate::layers::{self, Mix, Tally};
use acs_core::TrainedModel;
use acs_serve::{
    ArbiterPolicy, Client, ReportFeedback, Request, Response, ServeConfig, StatsSnapshot,
};
use acs_sim::Configuration;
use std::collections::HashSet;
use std::time::Instant;

/// Requests each server answers before it is replaced (`bench_serve`'s
/// `requests_per_policy`), half on each connection.
const EPOCH_REQUESTS: usize = 200;
/// `bench_serve`'s `report_every` and `run_every`: the 7th, 14th, ...
/// request of a connection is a Report, and the 10th, 20th, ... a Run
/// unless it is a Report.
const REPORT_EVERY: usize = 7;
const RUN_EVERY: usize = 10;
/// No existing workload sends Batch. Here the 5th, 25th, 45th, ...
/// request of a connection is one (unless it is a Report): one request in
/// 20, at positions the Run schedule never takes.
const BATCH_EVERY: usize = 20;
const BATCH_AT: usize = 4;
const BATCH: usize = 16;
/// Budget equality tolerance for telling an old budget from a new one.
const EPS_W: f64 = 1e-9;

fn config(work: &WorkDir) -> ServeConfig {
    ServeConfig {
        seed: SERVER_SEED,
        policy: ArbiterPolicy::DemandProportional,
        journal: Some(work.fresh("churn.journal")),
        brownout_us: 0,
        ..ServeConfig::default()
    }
}

/// Tracks each session's true budget and the rebalances it has not yet
/// been seen to apply. A `Budget` (or `Welcome`) reply is authoritative
/// for its own node, and by the exact-sum identity it fixes the other
/// node's budget too: cap minus this one.
struct Budgets {
    cap: f64,
    known: [f64; 2],
    /// Per connection: (budget before, budget after) of each rebalance
    /// that moved it since its last budget-carrying reply.
    pending: [Vec<(f64, f64)>; 2],
    resolved: u64,
    stale: u64,
}

impl Budgets {
    /// Connection `c`'s own authoritative budget `b`.
    fn authoritative(&mut self, c: usize, b: f64) {
        self.resolved += self.pending[c].len() as u64;
        self.pending[c].clear();
        self.known[c] = b;
        let other = 1 - c;
        let new = self.cap - b;
        if (self.known[other] - new).abs() > EPS_W {
            self.pending[other].push((self.known[other], new));
        }
        self.known[other] = new;
    }

    /// A budget-carrying reply on connection `c` that is not its own
    /// authoritative budget (a selection).
    fn observed(&mut self, c: usize, v: f64, out: &mut Outcome) {
        let pending = std::mem::take(&mut self.pending[c]);
        if pending.is_empty() {
            if (v - self.known[c]).abs() > EPS_W {
                out.fail(format!(
                    "session {c} replied under {v} W, its budget is {} W",
                    self.known[c]
                ));
            }
            return;
        }
        // Rebalances up to the newest one the reply reflects were applied;
        // the rest are stale.
        let applied = pending.iter().rposition(|(_, new)| (v - new).abs() <= EPS_W);
        if applied.is_none() && (v - pending[0].0).abs() > EPS_W {
            out.fail(format!("session {c} replied under {v} W, a budget it never held"));
        }
        let fresh = applied.map_or(0, |i| i + 1);
        self.resolved += pending.len() as u64;
        self.stale += (pending.len() - fresh) as u64;
    }
}

/// What the epochs measured. With `keep > 0` (the traced run) it also
/// keeps the first exchanges, client spans and each epoch's STATS.
#[derive(Default)]
struct Measured {
    rtt: Windows,
    cold: Samples,
    run: Samples,
    report: Samples,
    batch: Samples,
    resolved: u64,
    stale: u64,
    tally: Tally,
    keep: usize,
    exchanges: Vec<(Request, Response)>,
    spans: Option<Vec<Span>>,
    stats: Option<StatsSnapshot>,
}

struct Churn<'a> {
    seed: u64,
    model: &'a TrainedModel,
    reference: &'a Reference,
    work: &'a WorkDir,
    ids: Vec<String>,
    cap_w: f64,
    epoch: u64,
}

impl Churn<'_> {
    /// Request `index` of a connection. Report, Run and Select are drawn
    /// as `loadgen` draws them, Report with `--feedback` on.
    fn next_request(&self, rng: &mut Rng, index: usize) -> Request {
        let ids = &self.ids;
        let draw = rng.next_u64();
        let pick = |bits: u64| ids[(bits % ids.len() as u64) as usize].clone();
        if index % REPORT_EVERY == REPORT_EVERY - 1 {
            // Residual headroom in [0, 40) W; feedback for a drawn
            // (kernel, config): power in [15, 45) W, perf in [0.5, 8.5).
            let configs = Configuration::all();
            let feedback = ReportFeedback {
                kernel_id: pick(draw >> 8),
                config: configs[((draw >> 16) % configs.len() as u64) as usize],
                measured_power_w: 15.0 + ((draw >> 24) % 3000) as f64 / 100.0,
                measured_perf: 0.5 + ((draw >> 40) % 800) as f64 / 100.0,
            };
            Request::Report { residual_w: (draw % 4000) as f64 / 100.0, feedback: Some(feedback) }
        } else if index % RUN_EVERY == RUN_EVERY - 1 {
            Request::Run {
                kernel_id: pick(draw),
                iterations: 1 + draw % 3,
                idem: None,
                deadline_ms: None,
                priority: 0,
            }
        } else if index % BATCH_EVERY == BATCH_AT {
            let kernel_ids = (0..BATCH).map(|_| ids[rng.below(ids.len())].clone()).collect();
            Request::Batch { kernel_ids, deadline_ms: None, priority: 0 }
        } else {
            Request::Select { kernel_id: pick(draw), deadline_ms: None, priority: 0 }
        }
    }

    /// One epoch on `running`, whose first client has said Hello alone
    /// (so holds the whole cap), then stop the server.
    fn epoch(
        &mut self,
        running: Running,
        first: Client,
        m: &mut Measured,
        out: &mut Outcome,
    ) -> Result<(), String> {
        let mut rng = Rng::new(self.seed, 100 + self.epoch);
        self.epoch += 1;
        let mut budgets = Budgets {
            cap: self.cap_w,
            known: [self.cap_w, 0.0],
            pending: [vec![], vec![]],
            resolved: 0,
            stale: 0,
        };
        let mut second = running.connect()?;
        budgets.authoritative(1, hello(&mut second)?);
        let mut clients = [first, second];
        let mut seen: HashSet<String> = HashSet::new();

        let start = Instant::now();
        for i in 0..EPOCH_REQUESTS {
            let c = i % 2;
            let request = self.next_request(&mut rng, i / 2);
            let cold =
                matches!(&request, Request::Select { kernel_id, .. } if !seen.contains(kernel_id));
            let (reply, ns) = exchange(&mut clients[c], &request, m.spans.as_mut())?;
            out.attempted += 1;
            m.rtt.push(ns)?;
            m.tally.add(&request, cold);
            match (&request, &reply) {
                (Request::Select { kernel_id, .. }, Response::Selected(s)) => {
                    if cold {
                        m.cold.push(ns);
                    }
                    seen.insert(kernel_id.clone());
                    self.reference.check(kernel_id, s, out);
                    budgets.observed(c, s.budget_w, out);
                }
                (Request::Batch { kernel_ids, .. }, Response::BatchSelected { selections }) => {
                    m.batch.push(ns);
                    if selections.len() != kernel_ids.len() {
                        out.fail(format!(
                            "batch of {} answered {}",
                            kernel_ids.len(),
                            selections.len()
                        ));
                    }
                    for (id, s) in kernel_ids.iter().zip(selections) {
                        self.reference.check(id, s, out);
                        if s.budget_w != selections[0].budget_w {
                            out.fail("one batch selected under two budgets".into());
                        }
                        seen.insert(id.clone());
                    }
                    if let Some(s) = selections.first() {
                        budgets.observed(c, s.budget_w, out);
                    }
                }
                (
                    Request::Run { kernel_id, iterations, .. },
                    Response::Ran { kernel_id: k, iterations: n, config, .. },
                ) => {
                    m.run.push(ns);
                    if k != kernel_id || *n != (*iterations).max(1) {
                        out.fail(format!("Run {kernel_id}×{iterations} answered {k}×{n}"));
                    }
                    if Configuration::all().get(config.index()) != Some(config) {
                        out.fail(format!("Run {kernel_id} ran outside the space: {config:?}"));
                    }
                }
                (Request::Report { .. }, Response::Budget { budget_w }) => {
                    m.report.push(ns);
                    budgets.authoritative(c, *budget_w);
                    let err = running.handle.budget_conservation_error_w();
                    if err != 0.0 {
                        out.fail(format!("budgets miss the cap by {err} W after a Report"));
                    }
                }
                (request, other) => {
                    out.failed += 1;
                    out.fail(format!("{} answered {other:?}", request.kind()));
                }
            }
            if m.exchanges.len() < m.keep {
                m.exchanges.push((request, reply));
            }
        }
        m.rtt.elapse(start.elapsed().as_secs_f64())?;
        m.resolved += budgets.resolved;
        m.stale += budgets.stale;

        if m.keep > 0 {
            m.stats = Some(layers::stats(&mut clients[0])?);
        }
        if running.handle.protocol_errors() != 0 {
            out.fail(format!("{} protocol errors", running.handle.protocol_errors()));
        }
        drop(clients);
        running.stop()
    }

    /// Whole epochs until `seconds` have passed, the first one on `first`
    /// when given, each later one on a freshly bound server.
    fn measure(
        &mut self,
        seconds: f64,
        mut first: Option<(Running, Client)>,
        mut m: Measured,
        out: &mut Outcome,
    ) -> Result<Measured, String> {
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds {
            let (running, client) = match first.take() {
                Some(up) => up,
                None => {
                    let running = Running::start(config(self.work), self.model.clone())?;
                    let mut client = running.connect()?;
                    hello(&mut client)?;
                    (running, client)
                }
            };
            self.epoch(running, client, &mut m, out)?;
        }
        Ok(m)
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool, work: &WorkDir) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (first, trained, mut clock) =
        first_setups(&mut out, |_| timed_setup(&config(work)), teardown)?;
    let reference = Reference::new(&trained.model, &config(work));
    let mut churn = Churn {
        seed,
        model: &trained.model,
        reference: &reference,
        work,
        ids: kernel_ids(),
        cap_w: config(work).global_cap_w,
        epoch: 0,
    };
    let mut first = Some(first);
    if !trace {
        let mut m = Measured::default();
        for _ in 0..STRETCHES {
            m = churn.measure(seconds / STRETCHES as f64, first.take(), m, &mut out)?;
            clock.again(|| timed_setup(&config(work)), teardown)?;
        }
        clock.report(&mut out);
        out.extra("cold_select_rtt_p50_us", m.cold.p50_us(), "us", m.cold.len());
        out.extra("run_rtt_p50_us", m.run.p50_us(), "us", m.run.len());
        out.extra("report_rtt_p50_us", m.report.p50_us(), "us", m.report.len());
        out.extra("batch_rtt_p50_us", m.batch.p50_us(), "us", m.batch.len());
        let stale = m.stale as f64 / m.resolved.max(1) as f64;
        out.extra("stale_budget_ratio", stale, "ratio", m.resolved as usize);
        m.rtt.report(&mut out)?;
        return Ok(out);
    }
    let mut plain = Measured::default();
    let mut traced =
        Measured { keep: layers::KEEP, spans: Some(Vec::new()), ..Measured::default() };
    let slice = seconds / 4.0 / layers::SLICES as f64;
    for _ in 0..layers::SLICES {
        plain = churn.measure(slice, first.take(), plain, &mut out)?;
        traced = churn.measure(slice, None, traced, &mut out)?;
    }
    let mix = Mix {
        exchanges: traced.exchanges,
        tally: traced.tally,
        stats: traced.stats.ok_or("no STATS from the traced epochs")?,
        config: config(work),
        model: trained.model.clone(),
        setup: clock.report(&mut out),
        plain_p50_us: plain.rtt.all.p50_us(),
        traced_p50_us: traced.rtt.all.p50_us(),
        spans: traced.spans.unwrap_or_default(),
    };
    layers::trace("session-churn", &mix, seconds / 2.0, work, &mut out);
    Ok(out)
}
