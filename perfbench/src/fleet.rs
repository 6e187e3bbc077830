//! `fleet-rebalance`: a coordinator and two shards at the shipped
//! `renew_ms`/`tick_ms` defaults, one session per shard. The second shard
//! repeatedly leaves and joins; each time, the benchmark times how long
//! until every session's replies carry its converged budget. Only here do
//! `lease` and `coordinator` do the work; the other workloads run
//! standalone.
//!
//! A shard that holds no granted budget yet runs at its pre-lease floor,
//! which the deployment reserves outside the coordinator's cap
//! (`ServeConfig::lease_floor_w`, `ShardLease::on_granted`). The budgets
//! the sessions carry are checked against that deployment cap: the
//! coordinator's cap plus the floor of each shard still at its pre-lease
//! cap.
//!
//! Each event is triggered at a fixed offset after one of the first
//! shard's renewals, so the phase of the renew timers does not spread the
//! timings: a leave right after a renewal, a join half a period after one.

use crate::common::{
    characterize_and_train, exchange, first_setups, hello, kernel_ids, ns_since, Outcome,
    Reference, Rng, Running, Samples, Span, Trained, Windows, WorkDir, SERVER_SEED, STRETCHES,
};
use crate::layers::{self, Mix, Tally};
use acs_core::TrainedModel;
use acs_serve::{
    ArbiterPolicy, Client, Coordinator, CoordinatorConfig, CoordinatorHandle, Request, Response,
    ServeConfig, ServeError,
};
use std::collections::HashSet;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Each shard's demand; together they oversubscribe the global cap, so a
/// join moves the incumbent's budget.
const DEMAND_W: f64 = 100.0;
/// An event that has not converged by then is a failure.
const CONVERGE_LIMIT: Duration = Duration::from_secs(5);
const EPS_W: f64 = 1e-9;
/// Each shard's pre-lease floor, W.
const FLOOR_W: f64 = 5.0;

fn shard_config(coordinator: &str, shard_id: u64) -> ServeConfig {
    ServeConfig {
        seed: SERVER_SEED,
        policy: ArbiterPolicy::EqualShare,
        global_cap_w: DEMAND_W,
        coordinator: Some(coordinator.to_string()),
        shard_id: Some(shard_id),
        lease_floor_w: FLOOR_W,
        ..ServeConfig::default()
    }
}

struct Coord {
    addr: String,
    handle: CoordinatorHandle,
    thread: JoinHandle<Result<(), ServeError>>,
    cap_w: f64,
}

impl Coord {
    fn start() -> Result<Self, String> {
        let config = CoordinatorConfig::default();
        let cap_w = config.global_cap_w;
        let c = Coordinator::bind(config).map_err(|e| format!("coordinator: {e}"))?;
        let addr = c.local_addr().to_string();
        let handle = c.handle();
        let thread = std::thread::spawn(move || c.run());
        Ok(Self { addr, handle, thread, cap_w })
    }

    fn stop(self) -> Result<(), String> {
        self.handle.shutdown();
        match self.thread.join() {
            Ok(r) => r.map_err(|e| format!("coordinator: {e}")),
            Err(_) => Err("coordinator panicked".into()),
        }
    }
}

/// A shard and its one session.
struct Shard {
    running: Running,
    client: Client,
    /// No reply has carried a budget other than the pre-lease floor yet.
    pre_lease: bool,
}

impl Shard {
    fn start(coord: &Coord, id: u64, model: &TrainedModel) -> Result<Self, String> {
        let running = Running::start(shard_config(&coord.addr, id), model.clone())?;
        let mut client = running.connect()?;
        hello(&mut client)?;
        Ok(Self { running, client, pre_lease: true })
    }

    fn stop(self) -> Result<(), String> {
        drop(self.client);
        self.running.stop()
    }

    fn wait_leased(&self) -> Result<(), String> {
        let end = Instant::now() + CONVERGE_LIMIT;
        while self.running.handle.lease_state() != "leased" {
            if Instant::now() > end {
                return Err("shard never leased".into());
            }
            std::thread::sleep(Duration::from_micros(100));
        }
        Ok(())
    }
}

struct Fleet<'a> {
    coord: Coord,
    first: Shard,
    second: Option<Shard>,
    model: &'a TrainedModel,
    reference: &'a Reference,
    requests: Vec<Request>,
    next: usize,
    seen: [HashSet<String>; 2],
    rtt: Windows,
    tally: Tally,
    exchanges: Vec<(Request, Response)>,
    keep: usize,
}

impl Fleet<'_> {
    /// One Select on shard `s`'s session; returns the budget it carries.
    fn poll(
        &mut self,
        s: usize,
        spans: Option<&mut Vec<Span>>,
        out: &mut Outcome,
    ) -> Result<f64, String> {
        let request = self.requests[self.next % self.requests.len()].clone();
        self.next += 1;
        let shard =
            if s == 0 { &mut self.first } else { self.second.as_mut().expect("second shard up") };
        let (reply, ns) = exchange(&mut shard.client, &request, spans)?;
        out.attempted += 1;
        self.rtt.push(ns)?;
        let Request::Select { kernel_id, .. } = &request else { unreachable!("polls are Selects") };
        let cold = self.seen[s].insert(kernel_id.clone());
        self.tally.add(&request, cold);
        let budget = match &reply {
            Response::Selected(sel) => {
                self.reference.check(kernel_id, sel, out);
                shard.pre_lease &= (sel.budget_w - FLOOR_W).abs() <= EPS_W;
                sel.budget_w
            }
            other => {
                out.failed += 1;
                out.fail(format!("Select {kernel_id} on shard {} answered {other:?}", s + 1));
                f64::NAN
            }
        };
        if self.exchanges.len() < self.keep {
            self.exchanges.push((request, reply));
        }
        Ok(budget)
    }

    /// The deployment cap: the coordinator's cap plus the pre-lease
    /// reserve of each live shard still at its floor.
    fn deployment_cap_w(&self) -> f64 {
        let shards = std::iter::once(&self.first).chain(&self.second);
        self.coord.cap_w + FLOOR_W * shards.filter(|s| s.pre_lease).count() as f64
    }

    /// Poll every live session, back to back in a closed loop, until each
    /// carries its target budget; false if that takes longer than
    /// `CONVERGE_LIMIT` from `t0`. The polls' round trips are the
    /// workload's `rtt_p50_us`, over the time spent converging. Checks
    /// on every poll that the budgets the sessions last carried never sum
    /// above the deployment cap.
    fn converge(
        &mut self,
        t0: Instant,
        targets: &[f64],
        mut spans: Option<&mut Vec<Span>>,
        out: &mut Outcome,
    ) -> Result<bool, String> {
        let mut last = vec![f64::NAN; targets.len()];
        let start = Instant::now();
        let converged = loop {
            for s in 0..targets.len() {
                last[s] = self.poll(s, spans.as_deref_mut(), out)?;
                let sum: f64 = last.iter().filter(|v| !v.is_nan()).sum();
                let cap_w = self.deployment_cap_w();
                if sum > cap_w + EPS_W {
                    out.fail(format!("sessions carried {last:?} W, above the {cap_w} W cap"));
                }
            }
            if last.iter().zip(targets).all(|(v, t)| (v - t).abs() <= EPS_W) {
                break true;
            }
            if t0.elapsed() > CONVERGE_LIMIT {
                break false;
            }
        };
        self.rtt.elapse(start.elapsed().as_secs_f64())?;
        Ok(converged)
    }

    /// Block until the first shard completes its next renewal, then `delay`.
    fn after_renewal(&self, delay: Duration) -> Result<(), String> {
        let handle = &self.first.running.handle;
        let before = handle.lease_renews();
        let end = Instant::now() + CONVERGE_LIMIT;
        while handle.lease_renews() == before {
            if Instant::now() > end {
                return Err("first shard stopped renewing".into());
            }
            std::thread::sleep(Duration::from_micros(100));
        }
        std::thread::sleep(delay);
        Ok(())
    }

    fn leave(&mut self) -> Result<Instant, String> {
        self.after_renewal(Duration::ZERO)?;
        let t0 = Instant::now();
        self.second.take().expect("second shard up").stop()?;
        Ok(t0)
    }

    fn join(&mut self) -> Result<Instant, String> {
        let renew = Duration::from_millis(ServeConfig::default().renew_ms);
        self.after_renewal(renew / 2)?;
        let t0 = Instant::now();
        self.second = Some(Shard::start(&self.coord, 2, self.model)?);
        self.seen[1].clear();
        Ok(t0)
    }

    fn stop(self) -> Result<(), String> {
        if let Some(s) = self.second {
            s.stop()?;
        }
        self.first.stop()?;
        self.coord.stop()
    }
}

/// A coordinator and its two shards.
type Up = (Coord, Shard, Shard);

/// One timed set-up: characterize, train, bind the coordinator and both
/// shards, and wait until both hold a lease and answer their sessions.
fn timed_setup() -> Result<(Up, Trained, f64), String> {
    let t0 = Instant::now();
    let trained = characterize_and_train();
    let coord = Coord::start()?;
    let first = Shard::start(&coord, 1, &trained.model)?;
    let second = Shard::start(&coord, 2, &trained.model)?;
    first.wait_leased()?;
    second.wait_leased()?;
    Ok(((coord, first, second), trained, t0.elapsed().as_secs_f64()))
}

fn teardown((coord, first, second): Up) -> Result<(), String> {
    second.stop()?;
    first.stop()?;
    coord.stop()
}

pub fn run(seed: u64, seconds: f64, trace: bool, work: &WorkDir) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let ((coord, first, second), trained, mut clock) =
        first_setups(&mut out, |_| timed_setup(), teardown)?;
    let model = &trained.model;
    let reference = Reference::new(model, &shard_config(&coord.addr, 1));
    let ids = kernel_ids();
    let mut rng = Rng::new(seed, 3);
    let requests = (0..layers::KEEP)
        .map(|_| Request::Select {
            kernel_id: ids[rng.below(ids.len())].clone(),
            deadline_ms: None,
            priority: 0,
        })
        .collect();
    let mut fleet = Fleet {
        coord,
        first,
        second: Some(second),
        model,
        reference: &reference,
        requests,
        next: 0,
        seen: [HashSet::new(), HashSet::new()],
        rtt: Windows::default(),
        tally: Tally::default(),
        exchanges: Vec::new(),
        keep: if trace { layers::KEEP } else { 0 },
    };

    // Calibrate the converged budgets: both shards (settled for a few
    // renew periods since set-up), then the first shard alone.
    let renew = Duration::from_millis(ServeConfig::default().renew_ms);
    std::thread::sleep(renew * 3);
    let both = [fleet.poll(0, None, &mut out)?, fleet.poll(1, None, &mut out)?];
    fleet.leave()?;
    std::thread::sleep(renew * 3);
    let alone = fleet.poll(0, None, &mut out)?;
    out.notes.push(format!("converged budgets: alone {alone} W, together {both:?} W"));

    // Traced runs poll untraced for the first half, with spans after.
    // Untraced runs time a set-up after each stretch of measuring; the
    // time those take is not measuring time.
    let mut enforce = Samples::default();
    let mut spans = Vec::new();
    let measured_s = if trace { seconds / 2.0 } else { seconds };
    let start = Instant::now();
    let mut paused = Duration::ZERO;
    let measured = |paused: Duration| (start.elapsed() - paused).as_secs_f64();
    let mut setups = 0;
    let mut plain_p50 = None;
    while measured(paused) < measured_s {
        if trace && plain_p50.is_none() && measured(paused) > measured_s / 2.0 {
            plain_p50 = Some(fleet.rtt.all.p50_us());
            fleet.rtt = Windows::default();
        }
        let traced = plain_p50.is_some();
        let t0 = fleet.join()?;
        if fleet.converge(t0, &both, traced.then_some(&mut spans), &mut out)? {
            enforce.push(ns_since(t0));
        } else {
            out.fail(format!("join did not converge to {both:?} W"));
        }
        let t0 = fleet.leave()?;
        if fleet.converge(t0, &[alone], traced.then_some(&mut spans), &mut out)? {
            enforce.push(ns_since(t0));
        } else {
            out.fail(format!("leave did not converge to {alone} W"));
        }
        while !trace
            && setups < STRETCHES
            && measured(paused) >= measured_s * (setups + 1) as f64 / STRETCHES as f64
        {
            let t = Instant::now();
            clock.again(timed_setup, teardown)?;
            paused += t.elapsed();
            setups += 1;
        }
    }
    if !trace {
        clock.report(&mut out);
        std::mem::take(&mut fleet.rtt).report(&mut out)?;
        out.extra("fleet_enforce_ms", enforce.p50_us() / 1e3, "ms", enforce.len());
        fleet.stop()?;
        return Ok(out);
    }
    let stats = layers::stats(&mut fleet.first.client)?;
    let mix = Mix {
        exchanges: std::mem::take(&mut fleet.exchanges),
        tally: fleet.tally.clone(),
        stats,
        config: shard_config(&fleet.coord.addr, 1),
        model: model.clone(),
        setup: clock.report(&mut out),
        plain_p50_us: plain_p50.unwrap_or(0.0),
        traced_p50_us: fleet.rtt.all.p50_us(),
        spans,
    };
    fleet.stop()?;
    layers::trace("fleet-rebalance", &mix, seconds / 2.0, work, &mut out);
    Ok(out)
}
