//! What every workload shares: the seeded generator, the timed set-up
//! (characterize + train + bind), an in-process server, the control that
//! timings are scaled by, the selection checks, quantiles, and the result
//! type.
//!
//! # Scaled timings
//!
//! A virtual machine on a shared host is slowed as a whole by the host's
//! other tenants, by up to 1.7x and for spells of a second to minutes:
//! in one run every set-up and round trip can read 1.7x what it reads in
//! the next. A run therefore also times a control, the benchmark's own
//! framed echo over loopback ([`Echo`]), in the same moments and on the
//! same CPU as the program, and reports the program's times scaled to a
//! control round trip of [`CONTROL_REF_US`]: time x `CONTROL_REF_US` /
//! control round trip. On a 2-vCPU x86-64 VM the control read 9.4 us at
//! full speed and 15.5 us in a slow spell, and a `select-hot` round trip
//! 28 and 45 us in the same windows; the scaled figure held within 2%
//! across both. The control runs no program code and its frames have
//! fixed sizes, so a change to the program moves the scaled figure by
//! the same share as the raw one, which the context line keeps beside
//! it.

use acs_core::{train, KernelProfile, PredictedProfile, TrainedModel, TrainingParams};
use acs_serve::{
    Client, Engine, Request, Response, Selection, ServeConfig, ServeError, Server, ServerHandle,
};
use acs_sim::noise::splitmix64;
use acs_sim::{Configuration, Machine};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// Machine noise seed of the served model and of every server. The
/// workload seed only shapes the requests; the program under test is the
/// same on every run.
pub const SERVER_SEED: u64 = 2014;

/// Set-ups timed at the start of a run, before measuring.
pub const SETUPS_FIRST: usize = 3;

/// Set-ups timed between stretches of measuring, one after each of this
/// many equal stretches. `setup_s` is the median of all of a run's
/// set-ups; see [`SetupClock::report`].
pub const STRETCHES: usize = 12;

/// The control round trip that timings are scaled to, us (see the
/// module documentation).
const CONTROL_REF_US: f64 = 10.0;

/// Control round trips timed before and after each set-up.
const CONTROL_BURST: usize = 128;

/// One control round trip after every this many closed-loop round trips.
const CONTROL_EVERY: usize = 4;

/// Request and reply bytes of a control round trip: fixed, so that
/// nothing the program does changes the control's work.
const CONTROL_FRAME: (usize, usize) = (64, 256);

/// Seeded SplitMix64 stream.
pub struct Rng(u64);

impl Rng {
    /// An independent stream `stream` of workload seed `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(splitmix64(seed ^ splitmix64(stream)))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.0)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The 65 suite kernel ids, in suite order.
pub fn kernel_ids() -> Vec<String> {
    acs_kernels::all_kernel_instances().iter().map(|k| k.id()).collect()
}

/// A trained model and what producing it cost.
pub struct Trained {
    pub model: TrainedModel,
    pub characterize_s: f64,
    pub train_s: f64,
}

/// The offline stage, as `acs characterize` + `acs train` run it.
pub fn characterize_and_train() -> Trained {
    let t0 = Instant::now();
    let machine = Machine::new(SERVER_SEED);
    let profiles: Vec<KernelProfile> = acs_kernels::all_kernel_instances()
        .iter()
        .map(|k| KernelProfile::collect(&machine, k))
        .collect();
    let t1 = Instant::now();
    let model = train(&profiles, TrainingParams::default()).expect("full-suite training succeeds");
    let t2 = Instant::now();
    Trained { model, characterize_s: (t1 - t0).as_secs_f64(), train_s: (t2 - t1).as_secs_f64() }
}

/// A server running on its own thread.
pub struct Running {
    pub addr: String,
    pub handle: ServerHandle,
    thread: JoinHandle<Result<(), ServeError>>,
}

impl Running {
    pub fn start(config: ServeConfig, model: TrainedModel) -> Result<Self, String> {
        let server = Server::bind(config, model).map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().to_string();
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run());
        Ok(Self { addr, handle, thread })
    }

    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))
    }

    /// Stop the server and wait for its thread. Drop its clients first:
    /// a session blocked in a read otherwise takes up to its read timeout
    /// to notice.
    pub fn stop(self) -> Result<(), String> {
        self.handle.shutdown();
        match self.thread.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("server: {e}")),
            Err(_) => Err("server thread panicked".into()),
        }
    }
}

/// `Hello` on a fresh connection; returns the session's budget.
pub fn hello(client: &mut Client) -> Result<f64, String> {
    match client.call(&Request::Hello).map_err(|e| format!("hello: {e}"))? {
        Response::Welcome { budget_w, .. } => Ok(budget_w),
        other => Err(format!("hello answered with {other:?}")),
    }
}

/// One timed set-up of a standalone server: characterize, train, bind,
/// and the first request answered. Returns the server, a client that has
/// said Hello, the model, and the seconds it took.
pub fn timed_setup(config: &ServeConfig) -> Result<((Running, Client), Trained, f64), String> {
    let t0 = Instant::now();
    let trained = characterize_and_train();
    let running = Running::start(config.clone(), trained.model.clone())?;
    let mut client = running.connect()?;
    hello(&mut client)?;
    Ok(((running, client), trained, t0.elapsed().as_secs_f64()))
}

/// Stop a server set up by [`timed_setup`].
pub fn teardown((running, client): (Running, Client)) -> Result<(), String> {
    drop(client);
    running.stop()
}

/// Medians over a run's set-ups of the offline stage's two steps, ms.
pub struct SetupTimes {
    pub characterize_ms: f64,
    pub train_ms: f64,
    /// Set-ups the medians are over.
    pub samples: usize,
}

/// Every timed set-up of a run.
#[derive(Default)]
pub struct SetupClock {
    seconds: Vec<f64>,
    /// Control round trip around each set-up, us.
    control_us: Vec<f64>,
    characterize_ms: Vec<f64>,
    train_ms: Vec<f64>,
}

impl SetupClock {
    /// Time `setup` between two bursts of control round trips.
    fn time<T>(
        &mut self,
        setup: impl FnOnce() -> Result<(T, Trained, f64), String>,
    ) -> Result<(T, Trained), String> {
        let before = control_p50_us(CONTROL_BURST)?;
        let (up, trained, s) = setup()?;
        let after = control_p50_us(CONTROL_BURST)?;
        self.seconds.push(s);
        self.control_us.push((before + after) / 2.0);
        self.characterize_ms.push(trained.characterize_s * 1e3);
        self.train_ms.push(trained.train_s * 1e3);
        Ok((up, trained))
    }

    /// One more timed set-up, torn down at once.
    pub fn again<T>(
        &mut self,
        setup: impl FnOnce() -> Result<(T, Trained, f64), String>,
        teardown: impl FnOnce(T) -> Result<(), String>,
    ) -> Result<(), String> {
        let (up, _) = self.time(setup)?;
        teardown(up)
    }

    /// Report `setup_s`: the median over set-ups spread over the run of
    /// each one's time, scaled by the control timed around it. The
    /// unscaled median goes to the context line.
    pub fn report(&self, out: &mut Outcome) -> SetupTimes {
        let scaled: Vec<f64> = self
            .seconds
            .iter()
            .zip(&self.control_us)
            .map(|(s, c)| s * CONTROL_REF_US / c)
            .collect();
        let n = self.seconds.len();
        out.metric("setup_s", median_f64(&scaled), "s", n);
        out.extra("setup_unscaled_s", median_f64(&self.seconds), "s", n);
        out.notes.push(format!("set-ups (s): {:.3?}", self.seconds));
        out.notes.push(format!("control round trip around each (us): {:.2?}", self.control_us));
        SetupTimes {
            characterize_ms: median_f64(&self.characterize_ms),
            train_ms: median_f64(&self.train_ms),
            samples: self.seconds.len(),
        }
    }
}

/// `SETUPS_FIRST` set-ups, each torn down but the last, which is returned
/// with the clock that timed them.
pub fn first_setups<T>(
    out: &mut Outcome,
    mut setup: impl FnMut(&mut Outcome) -> Result<(T, Trained, f64), String>,
    mut teardown: impl FnMut(T) -> Result<(), String>,
) -> Result<(T, Trained, SetupClock), String> {
    let mut clock = SetupClock::default();
    for _ in 1..SETUPS_FIRST {
        let (up, _) = clock.time(|| setup(&mut *out))?;
        teardown(up)?;
    }
    let (up, trained) = clock.time(|| setup(&mut *out))?;
    Ok((up, trained, clock))
}

/// Nanoseconds since `t`.
pub fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
}

/// Nearest-rank quantile of sorted samples.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values.
pub fn median_f64(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Samples in nanoseconds, summarised on demand.
#[derive(Default, Clone)]
pub struct Samples(pub Vec<u64>);

impl Samples {
    pub fn push(&mut self, ns: u64) {
        self.0.push(ns);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn sorted(&self) -> Vec<u64> {
        let mut v = self.0.clone();
        v.sort_unstable();
        v
    }

    pub fn p50_us(&self) -> f64 {
        quantile(&self.sorted(), 0.5) as f64 / 1e3
    }

    pub fn p99_us(&self) -> f64 {
        quantile(&self.sorted(), 0.99) as f64 / 1e3
    }
}

/// Seconds of measuring per window of [`Windows`].
const WINDOW_S: f64 = 0.25;

/// Closed-loop round trips in windows of a quarter second of measuring,
/// with a control round trip after every [`CONTROL_EVERY`]th.
/// `rtt_p50_us` is the median over the windows of each window's p50
/// scaled by its control's p50 (see the module documentation). The p99
/// and the throughput are unscaled medians over the windows.
#[derive(Default)]
pub struct Windows {
    /// Every round trip of every window.
    pub all: Samples,
    current: Samples,
    control: Samples,
    current_s: f64,
    p50_us: Vec<f64>,
    control_us: Vec<f64>,
    p99_us: Vec<f64>,
    rps: Vec<f64>,
}

impl Windows {
    pub fn push(&mut self, ns: u64) -> Result<(), String> {
        self.all.push(ns);
        self.current.push(ns);
        if self.current.len().is_multiple_of(CONTROL_EVERY) {
            self.control.push(control_ns()?);
        }
        Ok(())
    }

    /// Count `seconds` of measuring towards the current window, and close
    /// it once it holds a window's worth.
    pub fn elapse(&mut self, seconds: f64) -> Result<(), String> {
        self.current_s += seconds;
        if self.current_s >= WINDOW_S {
            self.close()?;
        }
        Ok(())
    }

    fn close(&mut self) -> Result<(), String> {
        if self.control.0.is_empty() {
            self.control.push(control_ns()?);
        }
        let w = std::mem::take(&mut self.current);
        self.p50_us.push(w.p50_us());
        self.control_us.push(std::mem::take(&mut self.control).p50_us());
        self.p99_us.push(w.p99_us());
        self.rps.push(w.len() as f64 / self.current_s);
        self.current_s = 0.0;
        Ok(())
    }

    /// Report `rtt_p50_us`, `rtt_p99_us` and `throughput_rps`, and the
    /// unscaled p50 and the control's p50 beside them. A last window
    /// shorter than half a window is left out.
    ///
    /// Only the p50 goes on the result line: bursts of CPU steal on a
    /// shared host that last a whole run multiply the p99 and cut the
    /// throughput by several times while moving the p50 by a fraction.
    pub fn report(mut self, out: &mut Outcome) -> Result<(), String> {
        if self.current_s >= WINDOW_S / 2.0 || self.p50_us.is_empty() {
            self.close()?;
        }
        let scaled: Vec<f64> =
            self.p50_us.iter().zip(&self.control_us).map(|(p, c)| p * CONTROL_REF_US / c).collect();
        let n = self.all.len();
        out.metric("rtt_p50_us", median_f64(&scaled), "us", n);
        out.extra("rtt_p50_unscaled_us", median_f64(&self.p50_us), "us", n);
        out.extra("control_rtt_p50_us", median_f64(&self.control_us), "us", n / CONTROL_EVERY);
        out.extra("rtt_p99_us", median_f64(&self.p99_us), "us", n);
        out.extra("throughput_rps", median_f64(&self.rps), "1/s", n);
        out.notes.push(format!(
            "closed-loop figures are medians over {} windows of {WINDOW_S} s",
            self.p50_us.len()
        ));
        Ok(())
    }
}

/// Where a metric is reported.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// End to end, on the result line of an untraced run: the metrics
    /// every benchmarked workload reports.
    EndToEnd,
    /// End to end, but particular to one workload: printed, and recorded
    /// in the context line, not on the result line.
    Extra,
    /// Per layer, on the result line of a traced run.
    Layer,
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value summarises.
    pub samples: usize,
    pub kind: Kind,
}

/// What a run measured and whether the program's outputs were right.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Output checks that failed (the first few, with a total).
    pub check_failures: Vec<String>,
    pub check_failure_count: u64,
    /// Extra lines for the human-readable report.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.push(Kind::EndToEnd, name, value, unit, samples);
    }

    pub fn extra(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.push(Kind::Extra, name, value, unit, samples);
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.push(Kind::Layer, name, value, unit, samples);
    }

    fn push(&mut self, kind: Kind, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric { name: name.to_string(), value, unit, samples, kind });
    }

    /// Record a failed output check.
    pub fn fail(&mut self, what: String) {
        self.check_failure_count += 1;
        if self.check_failures.len() < 8 {
            self.check_failures.push(what);
        }
    }

    pub fn correct(&self) -> bool {
        self.check_failure_count == 0
    }
}

/// Static predictions for every suite kernel, from an engine built on the
/// same model and machine as the server's. Used to check selections.
pub struct Reference {
    profiles: HashMap<String, Arc<PredictedProfile>>,
    min_power_w: HashMap<String, f64>,
}

impl Reference {
    pub fn new(model: &TrainedModel, config: &ServeConfig) -> Self {
        let engine =
            Engine::new(Arc::new(model.clone()), Machine::from_family(config.family, config.seed));
        let mut profiles = HashMap::new();
        let mut min_power_w = HashMap::new();
        for id in kernel_ids() {
            let profile = engine.profile(&id).expect("suite kernel");
            let min = profile.points.iter().map(|p| p.power_w).fold(f64::INFINITY, f64::min);
            min_power_w.insert(id.clone(), min);
            profiles.insert(id, profile);
        }
        Self { profiles, min_power_w }
    }

    /// The checks every selection must pass: it answers the asked kernel,
    /// its configuration is in the machine's space, and it stays within
    /// its budget whenever some configuration would. An adaptive
    /// correction scales every predicted power of a kernel by one ratio,
    /// which the reply itself reveals.
    pub fn check(&self, asked: &str, s: &Selection, out: &mut Outcome) {
        if s.kernel_id != asked {
            out.fail(format!("selection for {} answered {asked}", s.kernel_id));
            return;
        }
        if Configuration::all().get(s.config.index()) != Some(&s.config) {
            out.fail(format!("{asked}: configuration {:?} not in Configuration::all()", s.config));
            return;
        }
        if s.predicted_power_w > s.budget_w {
            let profile = &self.profiles[asked];
            let ratio = s.predicted_power_w / profile.point_for(&s.config).power_w;
            let min_w = self.min_power_w[asked] * ratio;
            if min_w <= s.budget_w * (1.0 - 1e-12) {
                out.fail(format!(
                    "{asked}: predicted {:.3} W over budget {:.3} W though {min_w:.3} W fits",
                    s.predicted_power_w, s.budget_w
                ));
            }
        }
    }

    /// Static predicted power of `kernel` at `config`.
    pub fn power_w(&self, kernel: &str, config: &Configuration) -> f64 {
        self.profiles[kernel].point_for(config).power_w
    }

    pub fn perf(&self, kernel: &str, config: &Configuration) -> f64 {
        self.profiles[kernel].point_for(config).perf
    }
}

/// Client-side spans of one traced exchange: encode + write, then
/// read + decode (which includes all the server's time), ns.
pub type Span = [u64; 2];

/// One closed-loop exchange on `client`: write the request, wait for the
/// reply. Returns the reply and its round trip in ns; with `spans`, also
/// records where the client's time went.
pub fn exchange(
    client: &mut Client,
    request: &Request,
    spans: Option<&mut Vec<Span>>,
) -> Result<(Response, u64), String> {
    let t0 = Instant::now();
    acs_serve::write_frame(client.stream_mut(), request).map_err(|e| format!("send: {e}"))?;
    let t1 = spans.is_some().then(Instant::now);
    let reply = acs_serve::read_frame_blocking::<_, Response>(client.stream_mut())
        .map_err(|e| format!("receive: {e}"))?
        .ok_or("server closed the connection")?;
    let rtt = ns_since(t0);
    if let (Some(spans), Some(t1)) = (spans, t1) {
        spans.push([(t1 - t0).as_nanos() as u64, ns_since(t1)]);
    }
    Ok((reply, rtt))
}

/// The benchmark's own framed echo over loopback, served by a thread of
/// its own: each request frame carries the length of its reply in its
/// first four body bytes; the reply is that many bytes. No codec, no
/// program code.
pub struct Echo {
    stream: TcpStream,
    reply: Vec<u8>,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Echo {
    pub fn start() -> Result<Self, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("echo bind: {e}"))?;
        let addr = listener.local_addr().map_err(|e| format!("echo addr: {e}"))?;
        let thread = std::thread::spawn(move || -> std::io::Result<()> {
            let (mut s, _) = listener.accept()?;
            s.set_nodelay(true)?;
            let mut body = Vec::new();
            let mut reply = Vec::new();
            loop {
                let mut header = [0u8; 4];
                if s.read_exact(&mut header).is_err() {
                    return Ok(());
                }
                body.resize(u32::from_be_bytes(header) as usize, 0);
                s.read_exact(&mut body)?;
                let len = u32::from_be_bytes(body[..4].try_into().expect("4 bytes")) as usize;
                reply.clear();
                reply.extend_from_slice(&((len - 4) as u32).to_be_bytes());
                reply.resize(len, b' ');
                s.write_all(&reply)?;
            }
        });
        let stream = TcpStream::connect(addr).map_err(|e| format!("echo connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| format!("echo nodelay: {e}"))?;
        Ok(Self { stream, reply: Vec::new(), thread })
    }

    /// A request frame of `request` bytes asking for `reply` bytes back;
    /// at least 8 and 4 bytes.
    pub fn frame(request: usize, reply: usize) -> Vec<u8> {
        let mut f = ((request.max(8) - 4) as u32).to_be_bytes().to_vec();
        f.extend_from_slice(&(reply.max(4) as u32).to_be_bytes());
        f.resize(request.max(8), b' ');
        f
    }

    /// One round trip of `frame` (from [`Echo::frame`]), in ns.
    pub fn round_trip(&mut self, frame: &[u8]) -> Result<u64, String> {
        let reply = u32::from_be_bytes(frame[4..8].try_into().expect("4 bytes")) as usize;
        let t = Instant::now();
        self.stream.write_all(frame).map_err(|e| format!("echo write: {e}"))?;
        self.reply.resize(reply, 0);
        self.stream.read_exact(&mut self.reply).map_err(|e| format!("echo read: {e}"))?;
        Ok(ns_since(t))
    }

    /// Close the connection and wait for the echo thread.
    pub fn stop(self) -> Result<(), String> {
        drop(self.stream);
        self.thread
            .join()
            .map_err(|_| "echo thread panicked".to_string())?
            .map_err(|e| e.to_string())
    }
}

/// The control: one [`Echo`] for the whole run, started by its first
/// round trip, with its fixed frame.
static CONTROL: Mutex<Option<(Echo, Vec<u8>)>> = Mutex::new(None);

/// One control round trip, in ns.
pub fn control_ns() -> Result<u64, String> {
    let mut control = CONTROL.lock().map_err(|_| "control lock poisoned".to_string())?;
    if control.is_none() {
        *control = Some((Echo::start()?, Echo::frame(CONTROL_FRAME.0, CONTROL_FRAME.1)));
    }
    let (echo, frame) = control.as_mut().expect("started above");
    echo.round_trip(frame)
}

/// The p50 of `n` control round trips, us.
pub fn control_p50_us(n: usize) -> Result<f64, String> {
    let mut s = Samples::default();
    for _ in 0..n {
        s.push(control_ns()?);
    }
    Ok(s.p50_us())
}

/// Stop the control's echo, if it was started.
pub fn stop_control() -> Result<(), String> {
    let control = CONTROL.lock().map_err(|_| "control lock poisoned".to_string())?.take();
    control.map_or(Ok(()), |(echo, _)| echo.stop())
}

/// A scratch directory inside the working directory, removed by
/// [`WorkDir::remove`].
pub struct WorkDir(pub std::path::PathBuf);

impl WorkDir {
    pub fn create() -> Result<Self, String> {
        let dir = std::env::current_dir()
            .map_err(|e| format!("current dir: {e}"))?
            .join(".perfbench-work")
            .join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }

    /// A fresh (deleted) file path in the directory.
    pub fn fresh(&self, name: &str) -> std::path::PathBuf {
        let path = self.0.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    pub fn remove(self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Affinity mask as the `sched_*affinity` calls take it: 1024 CPUs.
type CpuMask = [u64; 16];

/// The process's affinity mask before [`pin_to_one_cpu`] narrowed it.
static ALL_CPUS: OnceLock<CpuMask> = OnceLock::new();

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

fn set_affinity(mask: &CpuMask) -> bool {
    // SAFETY: `mask` is a readable buffer of the size passed; pid 0 is
    // the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) == 0 }
}

/// Pin the calling thread, and every thread it starts from then on, to
/// the first CPU it may run on; returns that CPU, or `None` where the
/// affinity calls fail and nothing changed.
///
/// A closed loop over loopback then runs client and server on one CPU:
/// each round trip is the program's own work plus two context switches.
/// Spread over two CPUs, a round trip also waits for the hypervisor to
/// wake the idle one, which costs more than the program's work and
/// drifts with the host's load.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut all: CpuMask = [0; 16];
    // SAFETY: `all` is a writable buffer of the size passed.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&all), all.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..all.len() * 64).find(|&c| all[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one: CpuMask = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    ALL_CPUS.get_or_init(|| all);
    set_affinity(&one).then_some(cpu)
}

/// Let the calling thread run on every CPU again, after
/// [`pin_to_one_cpu`]; for work that must run in parallel.
pub fn unpin() {
    if let Some(all) = ALL_CPUS.get() {
        set_affinity(all);
    }
}
