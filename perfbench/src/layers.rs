//! The traced run: each layer's public functions, timed from outside on
//! the workload's own generated inputs, and the stage table that splits
//! the client round trip into those layers plus an unexplained residual.

use crate::common::{
    exchange, kernel_ids, median_f64, ns_since, unpin, Echo, Outcome, Reference, Rng, Samples,
    SetupTimes, Span, WorkDir,
};
use crate::count::{allocs_in, CountingWriter};
use acs_core::{AdaptivePredictor, CappedRuntime, GuardPolicy, TrainedModel};
use acs_serve::{
    read_frame_blocking, should_shed, write_frame, Arbiter, Client, CoordClient, CoordRequest,
    CoordResponse, Coordinator, CoordinatorConfig, Engine, Journal, JournalEntry, Metrics, Request,
    Response, ServeConfig, StatsSnapshot,
};
use acs_sim::Machine;
use std::collections::HashMap;
use std::hint::black_box;
use std::io::Cursor;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What the measured loop sent, by kind; weights the stage table.
#[derive(Default, Clone)]
pub struct Tally {
    pub requests: u64,
    pub warm_selects: u64,
    pub cold_selects: u64,
    pub batches: u64,
    pub run_iterations: u64,
    pub reports: u64,
    pub feedback: u64,
    pub deadlined: u64,
}

impl Tally {
    /// Count one request; `cold` marks a Select that is its kernel's
    /// first sight on that server.
    pub fn add(&mut self, request: &Request, cold: bool) {
        self.requests += 1;
        if request.deadline().is_some() {
            self.deadlined += 1;
        }
        match request {
            Request::Select { .. } if cold => self.cold_selects += 1,
            Request::Select { .. } => self.warm_selects += 1,
            Request::Batch { .. } => self.batches += 1,
            Request::Run { iterations, .. } => self.run_iterations += (*iterations).max(1),
            Request::Report { feedback, .. } => {
                self.reports += 1;
                self.feedback += u64::from(feedback.is_some());
            }
            _ => {}
        }
    }
}

/// Exchanges a traced loop keeps as the workload's generated inputs.
pub const KEEP: usize = 4096;

/// A traced run alternates this many untraced and traced slices of its
/// loop, so that drift in the machine's speed falls on both alike.
pub const SLICES: usize = 5;

/// The server's STATS snapshot, asked for on `client`.
pub fn stats(client: &mut Client) -> Result<StatsSnapshot, String> {
    match exchange(client, &Request::Stats, None)?.0 {
        Response::Stats(s) => Ok(*s),
        other => Err(format!("Stats answered {other:?}")),
    }
}

/// A workload's traced run, handed to the layer timings.
pub struct Mix {
    /// Requests and replies of the traced loop, in order.
    pub exchanges: Vec<(Request, Response)>,
    pub tally: Tally,
    /// The server's STATS after the traced loop.
    pub stats: StatsSnapshot,
    pub config: ServeConfig,
    pub model: TrainedModel,
    pub setup: SetupTimes,
    /// Client p50 with tracing off, and with the client spans on.
    pub plain_p50_us: f64,
    pub traced_p50_us: f64,
    pub spans: Vec<Span>,
}

/// Median over rounds of the mean time per call of `f(i)`, `i` in `0..n`,
/// for about `budget` (at least three rounds).
fn per_call_ns(n: usize, budget: Duration, mut f: impl FnMut(usize)) -> (f64, usize) {
    let n = n.max(1);
    let end = Instant::now() + budget;
    let mut rounds = Vec::new();
    loop {
        let t = Instant::now();
        for i in 0..n {
            f(i);
        }
        rounds.push(ns_since(t) as f64 / n as f64);
        if rounds.len() >= 3 && Instant::now() >= end {
            break;
        }
    }
    let calls = rounds.len() * n;
    (median_f64(&rounds), calls)
}

fn encode<T: serde::Serialize>(msg: &T) -> Vec<u8> {
    let mut buf = Vec::new();
    write_frame(&mut buf, msg).expect("workload frames encode");
    buf
}

struct Protocol {
    encode_request_ns: f64,
    decode_request_ns: f64,
    encode_response_ns: f64,
    decode_response_ns: f64,
    response_bytes: f64,
    write_calls_per_frame: f64,
    allocs_per_frame: f64,
    calls: usize,
}

fn protocol(mix: &Mix, budget: Duration) -> Protocol {
    let reqs: Vec<&Request> = mix.exchanges.iter().map(|(q, _)| q).collect();
    let resps: Vec<&Response> = mix.exchanges.iter().map(|(_, r)| r).collect();
    let req_frames: Vec<Vec<u8>> = reqs.iter().map(encode).collect();
    let resp_frames: Vec<Vec<u8>> = resps.iter().map(encode).collect();
    let n = reqs.len();
    let b = budget / 4;
    let (encode_request_ns, c1) = per_call_ns(n, b, |i| {
        write_frame(&mut std::io::sink(), black_box(reqs[i])).expect("encode");
    });
    let (decode_request_ns, c2) = per_call_ns(n, b, |i| {
        let q: Option<Request> =
            read_frame_blocking(&mut Cursor::new(&req_frames[i])).expect("decode");
        black_box(q);
    });
    let (encode_response_ns, c3) = per_call_ns(n, b, |i| {
        write_frame(&mut std::io::sink(), black_box(resps[i])).expect("encode");
    });
    let (decode_response_ns, c4) = per_call_ns(n, b, |i| {
        let r: Option<Response> =
            read_frame_blocking(&mut Cursor::new(&resp_frames[i])).expect("decode");
        black_box(r);
    });
    let (mut writes, mut allocs) = (0u64, 0u64);
    for i in 0..n {
        let mut w = CountingWriter { inner: std::io::sink(), writes: 0 };
        allocs += allocs_in(|| write_frame(&mut w, reqs[i]).expect("encode")).1;
        writes += w.writes;
        let mut w = CountingWriter { inner: std::io::sink(), writes: 0 };
        allocs += allocs_in(|| write_frame(&mut w, resps[i]).expect("encode")).1;
        writes += w.writes;
        allocs += allocs_in(|| {
            let q: Option<Request> =
                read_frame_blocking(&mut Cursor::new(&req_frames[i])).expect("decode");
            black_box(q);
        })
        .1;
        allocs += allocs_in(|| {
            let r: Option<Response> =
                read_frame_blocking(&mut Cursor::new(&resp_frames[i])).expect("decode");
            black_box(r);
        })
        .1;
    }
    let frames = (2 * n.max(1)) as f64;
    Protocol {
        encode_request_ns,
        decode_request_ns,
        encode_response_ns,
        decode_response_ns,
        response_bytes: resp_frames.iter().map(Vec::len).sum::<usize>() as f64 / n.max(1) as f64,
        write_calls_per_frame: writes as f64 / frames,
        allocs_per_frame: allocs as f64 / frames,
        calls: c1.min(c2).min(c3).min(c4),
    }
}

/// Round trips of the benchmark's own framed echo over loopback: each
/// request frame has the size of a workload request, each reply the size
/// of its response, written in one call. No codec, no server logic.
fn loopback_floor(mix: &Mix, budget: Duration) -> Result<Samples, String> {
    let frames: Vec<Vec<u8>> =
        mix.exchanges.iter().map(|(q, r)| Echo::frame(encode(q).len(), encode(r).len())).collect();
    let mut echo = Echo::start()?;
    let mut samples = Samples::default();
    let end = Instant::now() + budget;
    for frame in frames.iter().cycle() {
        if Instant::now() >= end {
            break;
        }
        samples.push(echo.round_trip(frame)?);
    }
    echo.stop()?;
    Ok(samples)
}

/// The layer metrics, the stage table, and the tracing overhead.
pub fn trace(workload: &str, mix: &Mix, seconds: f64, work: &WorkDir, out: &mut Outcome) {
    if let Err(e) = trace_layers(workload, mix, seconds, work, out) {
        out.fail(format!("traced run: {e}"));
    }
}

fn trace_layers(
    workload: &str,
    mix: &Mix,
    seconds: f64,
    work: &WorkDir,
    out: &mut Outcome,
) -> Result<(), String> {
    let share = |f: f64| Duration::from_secs_f64(seconds * f);
    let t = &mix.tally;
    let n = t.requests.max(1) as f64;
    let ids = kernel_ids();
    let kernels: HashMap<String, _> =
        acs_kernels::all_kernel_instances().into_iter().map(|k| (k.id(), k)).collect();
    let mut rng = Rng::new(0x7ace, 0);

    // protocol
    let p = protocol(mix, share(0.2));
    out.layer("protocol.encode_request_ns", p.encode_request_ns, "ns", p.calls);
    out.layer("protocol.decode_request_ns", p.decode_request_ns, "ns", p.calls);
    out.layer("protocol.encode_response_ns", p.encode_response_ns, "ns", p.calls);
    out.layer("protocol.decode_response_ns", p.decode_response_ns, "ns", p.calls);
    out.layer("protocol.response_bytes", p.response_bytes, "bytes", mix.exchanges.len());
    out.layer(
        "protocol.write_calls_per_frame",
        p.write_calls_per_frame,
        "count",
        2 * mix.exchanges.len(),
    );
    out.layer("protocol.allocs_per_frame", p.allocs_per_frame, "count", 2 * mix.exchanges.len());

    // server
    let floor = loopback_floor(mix, share(0.2))?;
    out.layer("server.loopback_floor_us", floor.p50_us(), "us", floor.len());
    let gates: Vec<(u64, u8)> = mix.exchanges.iter().filter_map(|(q, _)| q.deadline()).collect();
    let gates = if gates.is_empty() { vec![(50, 0)] } else { gates };
    let est_p99 = mix.stats.p99_latency_us;
    let level = mix.stats.brownout_level;
    let (gate_ns, gate_calls) = per_call_ns(gates.len(), share(0.02), |i| {
        let (d, pr) = gates[i];
        black_box(should_shed(black_box(level), d, pr, est_p99));
    });
    out.layer("server.shed_gate_ns", gate_ns, "ns", gate_calls);

    // engine
    let model = Arc::new(mix.model.clone());
    let machine = || Machine::from_family(mix.config.family, mix.config.seed);
    let engine = Engine::new(Arc::clone(&model), machine());
    for id in &ids {
        engine.profile(id).map_err(|e| e.to_string())?;
    }
    let mut selects: Vec<(String, f64)> = mix
        .exchanges
        .iter()
        .filter_map(|(q, r)| match (q, r) {
            (Request::Select { kernel_id, .. }, Response::Selected(s)) => {
                Some((kernel_id.clone(), s.budget_w))
            }
            _ => None,
        })
        .collect();
    if selects.is_empty() {
        selects = ids.iter().map(|id| (id.clone(), mix.config.global_cap_w)).collect();
    }
    let (select_warm_ns, sw_calls) = per_call_ns(selects.len(), share(0.05), |i| {
        black_box(engine.select(&selects[i].0, selects[i].1).expect("suite kernel"));
    });
    out.layer("engine.select_warm_ns", select_warm_ns, "ns", sw_calls);
    let mut cold_rounds = Vec::new();
    let cold_end = Instant::now() + share(0.08);
    while cold_rounds.len() < 3 || Instant::now() < cold_end {
        let fresh = Engine::new(Arc::clone(&model), machine());
        let t0 = Instant::now();
        for id in &ids {
            black_box(fresh.profile(id).map_err(|e| e.to_string())?);
        }
        cold_rounds.push(ns_since(t0) as f64 / ids.len() as f64);
    }
    let profile_cold_ns = median_f64(&cold_rounds);
    out.layer("engine.profile_cold_us", profile_cold_ns / 1e3, "us", cold_rounds.len() * ids.len());
    let mut batches: Vec<(Vec<String>, f64)> = mix
        .exchanges
        .iter()
        .filter_map(|(q, r)| match (q, r) {
            (Request::Batch { kernel_ids, .. }, Response::BatchSelected { selections }) => {
                Some((kernel_ids.clone(), selections.first().map_or(0.0, |s| s.budget_w)))
            }
            _ => None,
        })
        .collect();
    if batches.is_empty() {
        batches = (0..64)
            .map(|_| {
                let ids16 = (0..16).map(|_| ids[rng.below(ids.len())].clone()).collect();
                (ids16, mix.config.global_cap_w)
            })
            .collect();
    }
    let (batch_ns, batch_calls) = per_call_ns(batches.len(), share(0.05), |i| {
        black_box(engine.select_batch(&batches[i].0, batches[i].1));
    });
    out.layer("engine.select_batch_us", batch_ns / 1e3, "us", batch_calls);
    let select_allocs: u64 =
        selects.iter().map(|(id, b)| allocs_in(|| engine.select(id, *b)).1).sum();
    out.layer(
        "engine.allocs_per_select",
        select_allocs as f64 / selects.len() as f64,
        "count",
        selects.len(),
    );
    let lookups = mix.stats.cache_hits + mix.stats.cache_misses;
    out.layer(
        "engine.cache_hit_ratio",
        mix.stats.cache_hits as f64 / lookups.max(1) as f64,
        "ratio",
        lookups as usize,
    );

    // core
    let mut runs: Vec<&str> = mix
        .exchanges
        .iter()
        .filter_map(|(q, _)| match q {
            Request::Run { kernel_id, .. } => Some(kernel_id.as_str()),
            _ => None,
        })
        .collect();
    if runs.is_empty() {
        runs = ids.iter().map(String::as_str).collect();
    }
    let mut rt = CappedRuntime::guarded(
        machine(),
        mix.model.clone(),
        mix.config.global_cap_w / 2.0,
        GuardPolicy::default(),
    );
    rt.timeline().set_capacity(Some(mix.config.timeline_capacity));
    for id in &runs {
        rt.run_kernel(&kernels[*id]).map_err(|e| e.to_string())?;
    }
    let (run_ns, run_calls) = per_call_ns(runs.len(), share(0.08), |i| {
        black_box(rt.run_kernel(&kernels[runs[i]]).expect("suite kernel runs"));
    });
    out.layer("core.runtime.run_kernel_us", run_ns / 1e3, "us", run_calls);
    let reference = Reference::new(&mix.model, &mix.config);
    let mut observations: Vec<(String, f64, f64, f64, f64)> = mix
        .exchanges
        .iter()
        .filter_map(|(q, _)| match q {
            Request::Report { feedback: Some(f), .. } => Some((
                f.kernel_id.clone(),
                f.measured_power_w,
                f.measured_perf,
                reference.power_w(&f.kernel_id, &f.config),
                reference.perf(&f.kernel_id, &f.config),
            )),
            _ => None,
        })
        .collect();
    if observations.is_empty() {
        observations = mix
            .exchanges
            .iter()
            .filter_map(|(_, r)| match r {
                Response::Selected(s) => Some((
                    s.kernel_id.clone(),
                    s.predicted_power_w * (0.95 + 0.1 * rng.unit()),
                    s.predicted_perf * (0.95 + 0.1 * rng.unit()),
                    s.predicted_power_w,
                    s.predicted_perf,
                )),
                _ => None,
            })
            .collect();
    }
    let mut predictor = AdaptivePredictor::default();
    let (observe_ns, obs_calls) = per_call_ns(observations.len(), share(0.04), |i| {
        let (k, mp, mf, pp, pf) = &observations[i];
        black_box(predictor.observe(k, *mp, *mf, *pp, *pf).expect("finite feedback"));
    });
    out.layer("core.adapt.observe_ns", observe_ns, "ns", obs_calls);
    out.layer("core.profile.characterize_ms", mix.setup.characterize_ms, "ms", mix.setup.samples);
    out.layer("core.offline.train_ms", mix.setup.train_ms, "ms", mix.setup.samples);

    // arbiter
    let mut residuals: Vec<f64> = mix
        .exchanges
        .iter()
        .filter_map(|(q, _)| match q {
            Request::Report { residual_w, .. } => Some(*residual_w),
            _ => None,
        })
        .collect();
    if residuals.is_empty() {
        residuals = (0..64).map(|_| 30.0 * rng.unit() - 5.0).collect();
    }
    let mut arbiter = Arbiter::new(mix.config.global_cap_w, mix.config.policy);
    arbiter.join(1);
    arbiter.join(2);
    let before = arbiter.rebalances();
    let (report_ns, report_calls) = per_call_ns(residuals.len(), share(0.03), |i| {
        black_box(arbiter.report(1 + (i as u64 % 2), residuals[i]));
    });
    out.layer("arbiter.report_ns", report_ns, "ns", report_calls);
    out.layer(
        "arbiter.rebalances_per_report",
        (arbiter.rebalances() - before) as f64 / report_calls as f64,
        "count",
        report_calls,
    );

    // metrics
    let kinds: Vec<&'static str> = mix.exchanges.iter().map(|(q, _)| q.kind()).collect();
    let kinds = if kinds.is_empty() { vec!["select"] } else { kinds };
    let metrics = Metrics::new();
    for i in 0..(1 << 16) {
        metrics.record_request("select", 1_000 + i);
    }
    let (record_ns, record_calls) = per_call_ns(kinds.len(), share(0.03), |i| {
        metrics.record_request(kinds[i], 1_000 + i as u64);
    });
    out.layer("metrics.record_request_ns", record_ns, "ns", record_calls);
    let contended: Vec<(f64, usize)> = std::thread::scope(|s| {
        let hs: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    unpin();
                    per_call_ns(kinds.len(), share(0.03), |i| {
                        metrics.record_request(kinds[i], 1_000 + i as u64);
                    })
                })
            })
            .collect();
        hs.into_iter().map(|h| h.join().expect("recorder thread")).collect()
    });
    out.layer(
        "metrics.record_request_2t_ns",
        (contended[0].0 + contended[1].0) / 2.0,
        "ns",
        contended[0].1 + contended[1].1,
    );
    let (p99_ns, p99_calls) = per_call_ns(1, share(0.03), |_| {
        black_box(metrics.p99_latency_us_now());
    });
    out.layer("metrics.p99_now_us", p99_ns / 1e3, "us", p99_calls);

    // journal
    let path = work.fresh("layer.journal");
    let (journal, _) = Journal::<JournalEntry>::open(&path).map_err(|e| e.to_string())?;
    let (append_ns, append_calls) = per_call_ns(residuals.len(), share(0.04), |i| {
        let entry = JournalEntry::Report { node_id: 1, residual_w: residuals[i], epoch: i as u64 };
        journal.append(&entry).expect("journal append");
    });
    drop(journal);
    let _ = std::fs::remove_file(&path);
    out.layer("journal.append_us", append_ns / 1e3, "us", append_calls);
    let appends_per_request =
        mix.stats.journal_appends as f64 / mix.stats.requests_total.max(1) as f64;
    out.layer(
        "journal.appends_per_request",
        appends_per_request,
        "count",
        mix.stats.requests_total as usize,
    );

    // lease
    let (renew, renews_to_converge) = lease(share(0.05))?;
    out.layer("lease.renew_rtt_us", renew.p50_us(), "us", renew.len());
    out.layer("lease.renews_to_converge", renews_to_converge as f64, "count", 1);

    // The stage table: each layer's cost per request of this workload's
    // mix, against the untraced client p50.
    let rows: Vec<(&str, f64)> = vec![
        ("server.loopback_floor", floor.p50_us()),
        (
            "protocol",
            (p.encode_request_ns
                + p.decode_request_ns
                + p.encode_response_ns
                + p.decode_response_ns)
                / 1e3,
        ),
        ("server.shed_gate", t.deadlined as f64 / n * gate_ns / 1e3),
        (
            "engine",
            (t.warm_selects as f64 * select_warm_ns
                + t.cold_selects as f64 * profile_cold_ns
                + t.batches as f64 * batch_ns
                + t.feedback as f64 * select_warm_ns)
                / n
                / 1e3,
        ),
        ("core", (t.run_iterations as f64 * run_ns + t.feedback as f64 * observe_ns) / n / 1e3),
        ("arbiter", t.reports as f64 * report_ns / n / 1e3),
        ("metrics", record_ns / 1e3),
        ("journal", appends_per_request * append_ns / 1e3),
        ("lease", 0.0),
    ];
    let client = mix.plain_p50_us;
    let explained: f64 = rows.iter().map(|r| r.1).sum();
    let residual = client - explained;
    out.layer("server.residual_us", residual, "us", t.requests as usize);
    out.layer("trace.overhead_us", mix.traced_p50_us - mix.plain_p50_us, "us", t.requests as usize);

    out.notes.push(format!("stage table, {workload}: per request of the workload's mix"));
    out.notes.push(format!("  {:<24} {:>10} {:>8}", "stage", "us/req", "share"));
    for (name, us) in rows.iter().chain(std::iter::once(&("server.residual", residual))) {
        out.notes.push(format!("  {name:<24} {us:>10.3} {:>7.1}%", 100.0 * us / client));
    }
    out.notes.push(format!("  {:<24} {client:>10.3} {:>7.1}%", "client p50 (untraced)", 100.0));
    let send = Samples(mix.spans.iter().map(|s| s[0]).collect());
    let wait = Samples(mix.spans.iter().map(|s| s[1]).collect());
    out.notes.push(format!(
        "  client spans (traced, n={}): encode+write p50 {:.3} us, read+decode p50 {:.3} us; \
         traced p50 {:.3} us vs untraced {:.3} us",
        mix.spans.len(),
        send.p50_us(),
        wait.p50_us(),
        mix.traced_p50_us,
        mix.plain_p50_us,
    ));
    Ok(())
}

/// Renew round trips against an in-process coordinator at its shipped
/// defaults, and how many renewals two oversubscribed leases take to
/// reach their converged budgets after the second one joins.
fn lease(budget: Duration) -> Result<(Samples, usize), String> {
    let coordinator =
        Coordinator::bind(CoordinatorConfig::default()).map_err(|e| format!("coordinator: {e}"))?;
    let addr = coordinator.local_addr().to_string();
    let handle = coordinator.handle();
    let thread = std::thread::spawn(move || coordinator.run());
    let result = (|| {
        let lease = |c: &mut CoordClient| -> Result<(u64, u64, f64), String> {
            match c.call(&CoordRequest::Lease { shard_id: None, demand_w: 100.0 }) {
                Ok(CoordResponse::Granted { lease_id, epoch, budget_w, .. }) => {
                    Ok((lease_id, epoch, budget_w))
                }
                other => Err(format!("lease answered {other:?}")),
            }
        };
        let renew = |c: &mut CoordClient, id: u64, epoch: &mut u64| -> Result<f64, String> {
            match c.call(&CoordRequest::Renew { lease_id: id, epoch: *epoch, demand_w: 100.0 }) {
                Ok(CoordResponse::Renewed { epoch: e, budget_w, .. }) => {
                    *epoch = e;
                    Ok(budget_w)
                }
                other => Err(format!("renew answered {other:?}")),
            }
        };
        let mut a = CoordClient::connect(&addr).map_err(|e| e.to_string())?;
        let (a_id, mut a_epoch, _) = lease(&mut a)?;
        let mut samples = Samples::default();
        let end = Instant::now() + budget;
        while Instant::now() < end {
            let t = Instant::now();
            renew(&mut a, a_id, &mut a_epoch)?;
            samples.push(ns_since(t));
        }
        let mut b = CoordClient::connect(&addr).map_err(|e| e.to_string())?;
        let (b_id, mut b_epoch, b_w) = lease(&mut b)?;
        let mut trail = vec![(renew(&mut a, a_id, &mut a_epoch)?, b_w)];
        for _ in 0..10 {
            let b_w = renew(&mut b, b_id, &mut b_epoch)?;
            let a_w = renew(&mut a, a_id, &mut a_epoch)?;
            trail.push((a_w, b_w));
        }
        let last = *trail.last().expect("non-empty");
        let settled = trail.iter().rposition(|w| *w != last).map_or(0, |i| i + 1);
        // Renewals, counting A's first one, until both budgets settle.
        Ok((samples, 1 + 2 * settled))
    })();
    handle.shutdown();
    thread.join().map_err(|_| "coordinator panicked".to_string())?.map_err(|e| e.to_string())?;
    result
}
