//! `select-hot`: one connection, closed loop, `Select` only over the 65
//! suite kernels after a warm-up pass; equal share, no journal, brownout
//! off. The engine answers from its cache in well under a microsecond, so
//! the round trip is almost all per-request fixed cost: frame codec,
//! socket writes, session-loop locks and metrics.

use crate::common::{
    exchange, first_setups, kernel_ids, ns_since, teardown, timed_setup, Outcome, Reference, Rng,
    Running, Samples, Span, Windows, WorkDir, SERVER_SEED, STRETCHES,
};
use crate::layers::{self, Mix, Tally};
use acs_serve::{ArbiterPolicy, Client, Request, Response, ServeConfig};
use std::io::{Cursor, Read};
use std::time::{Duration, Instant};

/// Length of the seeded request sequence; the measured loop cycles it.
const SEQ_LEN: usize = 4096;

fn config() -> ServeConfig {
    ServeConfig {
        seed: SERVER_SEED,
        policy: ArbiterPolicy::EqualShare,
        journal: None,
        brownout_us: 0,
        ..ServeConfig::default()
    }
}

fn select(kernel_id: &str) -> Request {
    Request::Select { kernel_id: kernel_id.to_string(), deadline_ms: None, priority: 0 }
}

/// Check one reply to a `Select`; a reply of another kind also counts
/// as a failed request.
fn check(reference: &Reference, request: &Request, reply: &Response, out: &mut Outcome) {
    let Request::Select { kernel_id, .. } = request else {
        unreachable!("select-hot sends Select only")
    };
    match reply {
        Response::Selected(s) => reference.check(kernel_id, s, out),
        other => {
            out.failed += 1;
            out.fail(format!("Select {kernel_id} answered {other:?}"));
        }
    }
}

/// Send `request` and read the reply frame's raw bytes, then decode them
/// with the program's own frame reader.
fn raw_exchange(client: &mut Client, request: &Request) -> Result<(Vec<u8>, Response), String> {
    let stream = client.stream_mut();
    acs_serve::write_frame(stream, request).map_err(|e| format!("send: {e}"))?;
    let mut header = [0u8; 4];
    stream.read_exact(&mut header).map_err(|e| format!("receive: {e}"))?;
    let mut frame = header.to_vec();
    frame.resize(4 + u32::from_be_bytes(header) as usize, 0);
    stream.read_exact(&mut frame[4..]).map_err(|e| format!("receive: {e}"))?;
    let reply = acs_serve::read_frame_blocking(&mut Cursor::new(&frame))
        .map_err(|e| format!("decode: {e}"))?
        .ok_or("empty frame")?;
    Ok((frame, reply))
}

/// What closed loops measured, accumulated over calls to [`measure`].
/// With `keep > 0` (traced) it also keeps the first exchanges and the
/// client spans.
#[derive(Default)]
struct Loop {
    rtt: Windows,
    keep: usize,
    exchanges: Vec<(Request, Response)>,
    spans: Option<Vec<Span>>,
}

/// The closed loop, for `seconds`, going on through the seeded sequence
/// where `m` left it.
fn measure(
    client: &mut Client,
    requests: &[Request],
    reference: &Reference,
    seconds: f64,
    m: &mut Loop,
    out: &mut Outcome,
) -> Result<(), String> {
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let mut window = start;
    for request in requests.iter().cycle().skip(m.rtt.all.len() % requests.len()) {
        let now = Instant::now();
        if now - window >= Duration::from_millis(10) {
            m.rtt.elapse((now - window).as_secs_f64())?;
            window = now;
        }
        if now >= end {
            break;
        }
        let (reply, ns) = exchange(client, request, m.spans.as_mut())?;
        m.rtt.push(ns)?;
        out.attempted += 1;
        check(reference, request, &reply, out);
        if m.exchanges.len() < m.keep {
            m.exchanges.push((request.clone(), reply));
        }
    }
    m.rtt.elapse(window.elapsed().as_secs_f64())?;
    Ok(())
}

pub fn run(seed: u64, seconds: f64, trace: bool, work: &WorkDir) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let config = config();
    let ids = kernel_ids();
    let mut rng = Rng::new(seed, 1);
    let mut warm = ids.clone();
    for i in (1..warm.len()).rev() {
        warm.swap(i, rng.below(i + 1));
    }
    let warm: Vec<Request> = warm.iter().map(|id| select(id)).collect();
    let requests: Vec<Request> = (0..SEQ_LEN).map(|_| select(&ids[rng.below(ids.len())])).collect();

    // Every set-up's server answers the warm-up pass (each kernel's first
    // sight: the cold path) and one pass of the sequence; their raw
    // response logs must be byte-identical.
    let mut reference: Option<Reference> = None;
    let mut first_log: Option<Vec<u8>> = None;
    let mut cold = Samples::default();
    let ((running, mut client), trained, mut clock) = first_setups(
        &mut out,
        |out| {
            let ((running, mut client), trained, s) = timed_setup(&config)?;
            let r = reference.get_or_insert_with(|| Reference::new(&trained.model, &config));
            let mut log = Vec::new();
            for (k, request) in warm.iter().chain(&requests).enumerate() {
                let t = Instant::now();
                let (frame, reply) = raw_exchange(&mut client, request)?;
                if k < warm.len() {
                    cold.push(ns_since(t));
                }
                out.attempted += 1;
                check(r, request, &reply, out);
                log.extend_from_slice(&frame);
            }
            match &first_log {
                None => first_log = Some(log),
                Some(first) if *first != log => out.fail(format!(
                    "select-hot response logs differ between servers at seed {seed}"
                )),
                Some(_) => {}
            }
            Ok(((running, client), trained, s))
        },
        teardown,
    )?;
    let reference = reference.expect("built at the first set-up");
    out.extra("cold_select_rtt_p50_us", cold.p50_us(), "us", cold.len());

    let finish = |running: Running, client: Client, out: &mut Outcome| {
        if running.handle.protocol_errors() != 0 {
            out.fail(format!("{} protocol errors", running.handle.protocol_errors()));
        }
        teardown((running, client))
    };
    if !trace {
        let mut m = Loop::default();
        for _ in 0..STRETCHES {
            let stretch = seconds / STRETCHES as f64;
            measure(&mut client, &requests, &reference, stretch, &mut m, &mut out)?;
            clock.again(|| timed_setup(&config), teardown)?;
        }
        finish(running, client, &mut out)?;
        clock.report(&mut out);
        m.rtt.report(&mut out)?;
        return Ok(out);
    }

    let mut plain = Loop::default();
    let mut traced = Loop { keep: layers::KEEP, spans: Some(Vec::new()), ..Loop::default() };
    let slice = seconds / 4.0 / layers::SLICES as f64;
    for _ in 0..layers::SLICES {
        measure(&mut client, &requests, &reference, slice, &mut plain, &mut out)?;
        measure(&mut client, &requests, &reference, slice, &mut traced, &mut out)?;
    }
    let stats = layers::stats(&mut client)?;
    finish(running, client, &mut out)?;
    let mut tally = Tally::default();
    for (request, _) in &traced.exchanges {
        tally.add(request, false);
    }
    let mix = Mix {
        exchanges: traced.exchanges,
        tally,
        stats,
        config,
        model: trained.model,
        setup: clock.report(&mut out),
        plain_p50_us: plain.rtt.all.p50_us(),
        traced_p50_us: traced.rtt.all.p50_us(),
        spans: traced.spans.unwrap_or_default(),
    };
    layers::trace("select-hot", &mix, seconds / 2.0, work, &mut out);
    Ok(out)
}
