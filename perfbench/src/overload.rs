//! `overload-open`: a true open loop on one connection. A sender thread
//! writes seeded Poisson arrivals of Select and Run (each with a
//! deadline) on schedule, whatever the server does; a receiver thread
//! reads the replies. Each request's clock starts when it was due, so a
//! stall counts against every request queued behind it, and the sender
//! reports how late it ran. Brownout is on. Phases alternate between a
//! rate well below the server's saturation rate and one about twice it;
//! only here does a queue build, so the shed gate, the brownout
//! controller and metrics contention under backlog do the work.
//!
//! Nothing here is pinned to one CPU, the control included, so its
//! scaled `setup_s` is not on the closed-loop workloads' scale.

use crate::common::{
    first_setups, kernel_ids, median_f64, ns_since, quantile, teardown, timed_setup, Outcome,
    Reference, Rng, Samples, WorkDir, SERVER_SEED,
};
use crate::layers::{self, Mix, Tally};
use acs_serve::{read_frame_blocking, write_frame, ArbiterPolicy, Request, Response, ServeConfig};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Offered rates, requests per second: one well below the saturation
/// rate of this mix on one connection, one about twice it. Saturation,
/// about 40k req/s, was measured with an unpaced burst on a 2-core x86-64
/// machine at the commit that added this benchmark; the rates stay fixed
/// so that later commits are offered the same load.
const LOWER_RPS: f64 = 8_000.0;
const UPPER_RPS: f64 = 80_000.0;
/// Phase lengths: a lower-rate phase, then an upper-rate burst.
const LOWER_PHASE: Duration = Duration::from_millis(1000);
const UPPER_PHASE: Duration = Duration::from_millis(200);
const DEADLINE_MS: u64 = 50;
const BROWNOUT_US: u64 = 2_000;

fn config() -> ServeConfig {
    ServeConfig {
        seed: SERVER_SEED,
        policy: ArbiterPolicy::EqualShare,
        brownout_us: BROWNOUT_US,
        ..ServeConfig::default()
    }
}

/// What one or more phases measured.
#[derive(Default)]
struct Phase {
    /// Latency from each request's due time to its reply.
    due: Samples,
    /// Latency from each request's actual send to its reply.
    send: Samples,
    /// How late the sender wrote each request.
    lateness: Samples,
    good: u64,
    sheds: u64,
    attempted: u64,
}

impl Phase {
    fn absorb(&mut self, p: Phase) {
        self.due.0.extend(p.due.0);
        self.send.0.extend(p.send.0);
        self.lateness.0.extend(p.lateness.0);
        self.good += p.good;
        self.sheds += p.sheds;
        self.attempted += p.attempted;
    }
}

/// The fixed inputs of every phase, and the exchanges kept for tracing.
struct Load<'a> {
    addr: &'a str,
    ids: &'a [String],
    reference: &'a Reference,
    keep: usize,
    exchanges: Vec<(Request, Response)>,
}

impl Load<'_> {
    /// Seeded Poisson arrivals at `rate_rps` over `length`: Select and
    /// Run, each with the deadline and a seeded priority.
    fn schedule(&self, rng: &mut Rng, rate_rps: f64, length: Duration) -> Vec<(u64, Request)> {
        let mut schedule = Vec::new();
        let mut t = 0.0;
        loop {
            t += -(1.0 - rng.unit()).ln() / rate_rps;
            if t >= length.as_secs_f64() {
                return schedule;
            }
            let kernel_id = self.ids[rng.below(self.ids.len())].clone();
            let priority = rng.below(256) as u8;
            let deadline_ms = Some(DEADLINE_MS);
            let request = if rng.unit() < 0.7 {
                Request::Select { kernel_id, deadline_ms, priority }
            } else {
                Request::Run { kernel_id, iterations: 1, idem: None, deadline_ms, priority }
            };
            schedule.push(((t * 1e9) as u64, request));
        }
    }

    /// One open-loop phase on a fresh connection.
    fn phase(
        &mut self,
        rng: &mut Rng,
        rate_rps: f64,
        length: Duration,
        out: &mut Outcome,
    ) -> Result<Phase, String> {
        let schedule = self.schedule(rng, rate_rps, length);
        let stream = TcpStream::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
        let mut reader = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
        let mut writer = stream;
        let start = Instant::now();
        let schedule = &schedule;
        let (sent_at, replies) = std::thread::scope(|s| {
            let sender = s.spawn(move || -> Result<Vec<u64>, String> {
                let mut sent_at = Vec::with_capacity(schedule.len());
                for (due, request) in schedule {
                    // Sleep, never spin: a spinning sender would take a
                    // core from the server on a small machine. The sleep's
                    // overshoot is the sender's lateness, and counts in
                    // every latency.
                    let due = Duration::from_nanos(*due);
                    let now = start.elapsed();
                    if now < due {
                        std::thread::sleep(due - now);
                    }
                    sent_at.push(ns_since(start));
                    write_frame(&mut writer, request).map_err(|e| format!("send: {e}"))?;
                }
                Ok(sent_at)
            });
            let mut replies = Vec::with_capacity(schedule.len());
            for _ in 0..schedule.len() {
                match read_frame_blocking::<_, Response>(&mut reader) {
                    Ok(Some(r)) => replies.push((ns_since(start), r)),
                    Ok(None) => return (sender.join(), Err("server closed mid-phase".to_string())),
                    Err(e) => return (sender.join(), Err(format!("receive: {e}"))),
                }
            }
            (sender.join(), Ok(replies))
        });
        let sent_at = sent_at.map_err(|_| "sender panicked".to_string())??;
        let replies = replies?;

        let mut p = Phase::default();
        for (((due, request), sent), (at, reply)) in schedule.iter().zip(&sent_at).zip(replies) {
            p.attempted += 1;
            out.attempted += 1;
            let latency = at.saturating_sub(*due);
            p.due.push(latency);
            p.send.push(at.saturating_sub(*sent));
            p.lateness.push(sent.saturating_sub(*due));
            let in_time = latency <= DEADLINE_MS * 1_000_000;
            match (request, &reply) {
                (Request::Select { kernel_id, .. }, Response::Selected(s)) => {
                    self.reference.check(kernel_id, s, out);
                    p.good += u64::from(in_time);
                }
                (Request::Run { kernel_id, .. }, Response::Ran { kernel_id: k, config, .. }) => {
                    if k != kernel_id
                        || acs_sim::Configuration::all().get(config.index()) != Some(config)
                    {
                        out.fail(format!("Run {kernel_id} answered {k} at {config:?}"));
                    }
                    p.good += u64::from(in_time);
                }
                (_, Response::ShedDeadline { deadline_ms, .. }) => {
                    if *deadline_ms != DEADLINE_MS {
                        out.fail(format!("shed echoed deadline {deadline_ms} ms"));
                    }
                    p.sheds += 1;
                }
                (request, other) => {
                    out.failed += 1;
                    out.fail(format!("{} answered {other:?}", request.kind()));
                }
            }
            if self.exchanges.len() < self.keep {
                self.exchanges.push((request.clone(), reply));
            }
        }
        Ok(p)
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool, work: &WorkDir) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let config = config();
    let ((running, client), trained, clock) =
        first_setups(&mut out, |_| timed_setup(&config), teardown)?;
    let reference = Reference::new(&trained.model, &config);
    let ids = kernel_ids();
    let mut rng = Rng::new(seed, 4);
    let mut load = Load {
        addr: &running.addr,
        ids: &ids,
        reference: &reference,
        keep: if trace { layers::KEEP } else { 0 },
        exchanges: Vec::new(),
    };

    // Goodput and the lower rate's p99 are medians over phases: one phase
    // disturbed by the machine moves them less than a pooled figure.
    let (mut lower, mut upper) = (Phase::default(), Phase::default());
    let (mut goodput, mut lower_p99) = (Vec::new(), Vec::new());
    let measured_s = if trace { seconds / 2.0 } else { seconds };
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < measured_s {
        let l = load.phase(&mut rng, LOWER_RPS, LOWER_PHASE, &mut out)?;
        let u = load.phase(&mut rng, UPPER_RPS, UPPER_PHASE, &mut out)?;
        goodput.push(u.good as f64 / UPPER_PHASE.as_secs_f64());
        lower_p99.push(l.due.p99_us());
        lower.absorb(l);
        upper.absorb(u);
    }
    let exchanges = std::mem::take(&mut load.exchanges);
    if running.handle.protocol_errors() != 0 {
        out.fail(format!("{} protocol errors", running.handle.protocol_errors()));
    }
    for (name, p) in [("lower", &lower), ("upper", &upper)] {
        let late = p.lateness.sorted();
        out.notes.push(format!(
            "{name} rate: {} attempted, {} good, {} shed; sender late p50 {:.1} us, p99 {:.1} us",
            p.attempted,
            p.good,
            p.sheds,
            quantile(&late, 0.5) as f64 / 1e3,
            quantile(&late, 0.99) as f64 / 1e3,
        ));
    }
    let attempted = lower.attempted + upper.attempted;
    let sheds = lower.sheds + upper.sheds;
    out.extra("goodput_rps", median_f64(&goodput), "1/s", upper.attempted as usize);
    out.extra("due_p50_us", lower.due.p50_us(), "us", lower.due.len());
    out.extra("due_p99_us", median_f64(&lower_p99), "us", lower.due.len());
    out.extra("shed_ratio", sheds as f64 / attempted.max(1) as f64, "ratio", attempted as usize);
    let setup = clock.report(&mut out);
    if !trace {
        return teardown((running, client)).map(|()| out);
    }
    let mut client = client;
    let stats = layers::stats(&mut client)?;
    teardown((running, client))?;
    let mut tally = Tally::default();
    for (request, _) in &exchanges {
        tally.add(request, false);
    }
    // An open loop has no closed-loop round trip; the stage table uses the
    // lower rate's send-to-reply latency, which no client span alters.
    let mix = Mix {
        exchanges,
        tally,
        stats,
        config,
        model: trained.model,
        setup,
        plain_p50_us: lower.send.p50_us(),
        traced_p50_us: lower.send.p50_us(),
        spans: Vec::new(),
    };
    layers::trace("overload-open", &mix, seconds / 2.0, work, &mut out);
    Ok(out)
}
