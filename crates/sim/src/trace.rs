//! Phase-resolved power traces.
//!
//! The real microcontroller samples *instantaneous* power at 1 kHz while
//! the kernel's power draw swings between compute-busy and memory-stall
//! phases (CPU) or host and device phases (GPU). This module synthesizes a
//! piecewise-constant power signal whose time average equals the analytic
//! average model exactly, so the sensor can sample a realistic waveform
//! instead of a constant — short kernels then see genuine phase-aliasing
//! error, exactly like hardware.

use crate::config::{Configuration, Device};
use crate::cpu::{cpu_time_on, CpuTiming};
use crate::family::{FamilyId, MachineFamily};
use crate::gpu::{gpu_time_on, GpuTiming};
use crate::kernel::KernelCharacteristics;
use crate::noise::{NoiseSource, Stream};
use crate::power::{PowerBreakdown, PowerCalibration};
use crate::sensor::PowerSensor;
use serde::{Deserialize, Serialize};

/// A piecewise-constant two-plane power signal.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerTrace {
    segments: Vec<TraceSegment>,
    total_s: f64,
}

/// One constant-power span of a trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceSegment {
    /// Segment duration, seconds.
    pub duration_s: f64,
    /// Power during the segment.
    pub power: PowerBreakdown,
}

/// Target alternation period between phases, seconds. Real kernels swing
/// between compute and memory phases at sub-millisecond granularity.
const PHASE_PERIOD_S: f64 = 250e-6;

/// Maximum number of alternation cycles in a trace (bounds memory for
/// very long kernels; the sensor's own sample cap dominates anyway).
const MAX_CYCLES: usize = 512;

impl PowerTrace {
    /// Build a trace from two phases interleaved at a fixed sub-millisecond period
    /// granularity. `a` and `b` are (duration, power) pairs; phase `a`
    /// leads (e.g. launch/host work precedes device work).
    pub fn interleaved(a: (f64, PowerBreakdown), b: (f64, PowerBreakdown)) -> Self {
        let (dur_a, pow_a) = a;
        let (dur_b, pow_b) = b;
        let total = dur_a + dur_b;
        if total <= 0.0 {
            return Self { segments: Vec::new(), total_s: 0.0 };
        }
        if dur_a <= 0.0 || dur_b <= 0.0 {
            let (d, p) = if dur_a > 0.0 { (dur_a, pow_a) } else { (dur_b, pow_b) };
            return Self { segments: vec![TraceSegment { duration_s: d, power: p }], total_s: d };
        }

        let cycles = ((total / PHASE_PERIOD_S).ceil() as usize).clamp(1, MAX_CYCLES);
        let slice_a = dur_a / cycles as f64;
        let slice_b = dur_b / cycles as f64;
        let mut segments = Vec::with_capacity(cycles * 2);
        for _ in 0..cycles {
            segments.push(TraceSegment { duration_s: slice_a, power: pow_a });
            segments.push(TraceSegment { duration_s: slice_b, power: pow_b });
        }
        Self { segments, total_s: total }
    }

    /// A single-phase (constant) trace.
    pub fn constant(duration_s: f64, power: PowerBreakdown) -> Self {
        Self { segments: vec![TraceSegment { duration_s, power }], total_s: duration_s }
    }

    /// The trace's segments.
    pub fn segments(&self) -> &[TraceSegment] {
        &self.segments
    }

    /// Total duration, seconds.
    pub fn total_s(&self) -> f64 {
        self.total_s
    }

    /// Time-weighted average power over the whole trace.
    pub fn average(&self) -> PowerBreakdown {
        if self.total_s <= 0.0 {
            return PowerBreakdown { cpu_plane_w: 0.0, gpu_nb_plane_w: 0.0 };
        }
        let mut cpu = 0.0;
        let mut gpu = 0.0;
        for s in &self.segments {
            cpu += s.power.cpu_plane_w * s.duration_s;
            gpu += s.power.gpu_nb_plane_w * s.duration_s;
        }
        PowerBreakdown { cpu_plane_w: cpu / self.total_s, gpu_nb_plane_w: gpu / self.total_s }
    }

    /// Instantaneous power at time `t` (clamped into the trace).
    pub fn at(&self, t: f64) -> PowerBreakdown {
        let mut acc = 0.0;
        for s in &self.segments {
            acc += s.duration_s;
            if t < acc {
                return s.power;
            }
        }
        self.segments
            .last()
            .map(|s| s.power)
            .unwrap_or(PowerBreakdown { cpu_plane_w: 0.0, gpu_nb_plane_w: 0.0 })
    }

    /// Scale every segment duration by `factor` (used to apply run-to-run
    /// timing jitter to the waveform).
    pub fn scale_time(&mut self, factor: f64) {
        for s in &mut self.segments {
            s.duration_s *= factor;
        }
        self.total_s *= factor;
    }

    /// Scale every segment's power by `factor`.
    pub fn scale_power(&mut self, factor: f64) {
        for s in &mut self.segments {
            s.power.cpu_plane_w *= factor;
            s.power.gpu_nb_plane_w *= factor;
        }
    }

    /// Time-average of `plane` over the interval `[t0, t1)`, by exact
    /// integration of the piecewise-constant signal.
    pub fn window_average(&self, plane: fn(&PowerBreakdown) -> f64, t0: f64, t1: f64) -> f64 {
        self.window_average_from(&mut Cursor::default(), plane, t0, t1)
    }

    /// [`PowerTrace::window_average`] resumed at `cursor`, which first
    /// advances past every segment ending at or before `t0` (those add
    /// nothing to the window). Windows taken in order of non-decreasing
    /// `t0` therefore visit each segment a bounded number of times, and
    /// every floating-point operation happens in the same order as a scan
    /// from the first segment, so the result is bit-identical.
    fn window_average_from(
        &self,
        cursor: &mut Cursor,
        plane: fn(&PowerBreakdown) -> f64,
        t0: f64,
        t1: f64,
    ) -> f64 {
        if t1 <= t0 || self.segments.is_empty() {
            return 0.0;
        }
        while let Some(s) = self.segments.get(cursor.index) {
            let seg_end = cursor.start_s + s.duration_s;
            if seg_end <= t0 {
                cursor.index += 1;
                cursor.start_s = seg_end;
            } else {
                break;
            }
        }
        let mut acc = 0.0;
        let mut covered = 0.0;
        let mut seg_start = cursor.start_s;
        for s in &self.segments[cursor.index..] {
            let seg_end = seg_start + s.duration_s;
            let lo = t0.max(seg_start);
            let hi = t1.min(seg_end);
            if hi > lo {
                acc += plane(&s.power) * (hi - lo);
                covered += hi - lo;
            }
            seg_start = seg_end;
            if seg_start >= t1 {
                break;
            }
        }
        // Windows extending past the trace hold the last segment's power.
        if covered < (t1 - t0) - 1e-15 {
            let last = plane(&self.segments.last().expect("non-empty").power);
            let rest = (t1 - t0) - covered;
            acc += last * rest;
            covered += rest;
        }
        acc / covered
    }
}

/// Forward-scan position in a trace: the first segment that may overlap
/// the next window, and that segment's start time (summed segment by
/// segment from zero, exactly as a scan from the first segment sums it).
#[derive(Debug, Default)]
struct Cursor {
    index: usize,
    start_s: f64,
}

/// Build the phase trace of one kernel execution (no noise applied).
pub fn trace_for(
    kernel: &KernelCharacteristics,
    config: &Configuration,
    cal: &PowerCalibration,
) -> PowerTrace {
    trace_for_on(FamilyId::Trinity.descriptor(), kernel, config, cal)
}

/// [`trace_for`] on an explicit machine family.
pub fn trace_for_on(
    family: &MachineFamily,
    kernel: &KernelCharacteristics,
    config: &Configuration,
    cal: &PowerCalibration,
) -> PowerTrace {
    match config.device {
        Device::Cpu => cpu_trace(family, kernel, config, cal, &cpu_time_on(family, kernel, config)),
        Device::Gpu => gpu_trace(family, kernel, config, cal, &gpu_time_on(family, kernel, config)),
    }
}

/// The CPU phase trace (compute-busy vs. memory-stall) for timing `t`
/// already computed for `kernel` at `config`.
pub(crate) fn cpu_trace(
    family: &MachineFamily,
    kernel: &KernelCharacteristics,
    config: &Configuration,
    cal: &PowerCalibration,
    t: &CpuTiming,
) -> PowerTrace {
    let (busy, stall) = cal.cpu_phase_powers_on(family, kernel, config);
    PowerTrace::interleaved((t.busy_s, busy), (t.memory_s, stall))
}

/// The GPU phase trace (host vs. device) for timing `t` already computed
/// for `kernel` at `config`.
pub(crate) fn gpu_trace(
    family: &MachineFamily,
    kernel: &KernelCharacteristics,
    config: &Configuration,
    cal: &PowerCalibration,
    t: &GpuTiming,
) -> PowerTrace {
    let (host, device) = cal.gpu_phase_powers_on(family, kernel, config, t);
    PowerTrace::interleaved((t.host_s, host), (t.device_s, device))
}

impl PowerSensor {
    /// Estimate per-plane average power from a trace.
    ///
    /// The firmware exposes a running energy accumulator read at the
    /// sensor's rate: each reading reflects the *average* power over its
    /// window (not an instantaneous point), then suffers estimation noise
    /// and quantization. Short kernels therefore measure as one coarse
    /// window rather than a randomly-phased point sample.
    pub fn estimate_trace(
        &self,
        trace: &PowerTrace,
        plane: fn(&PowerBreakdown) -> f64,
        noise: &NoiseSource,
    ) -> f64 {
        if !self.sample_hz.is_finite() {
            return plane(&trace.average());
        }
        let n = self.samples_for(trace.total_s()).min(10_000);
        let dt = trace.total_s() / n as f64;
        // Lane windows start in increasing order, so one cursor walks the
        // trace once: O(samples + segments) rather than O(samples × segments).
        let mut cursor = Cursor::default();
        let mut acc = 0.0;
        for lane in 0..n {
            let t0 = lane as f64 * dt;
            let window = trace.window_average_from(&mut cursor, plane, t0, t0 + dt)
                * (1.0 + self.noise_sigma * noise.standard_normal(Stream::Sensor, lane));
            acc += self.quantize_pub(window.max(0.0));
        }
        acc / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::cpu_time;
    use crate::pstate::{CpuPState, GpuPState};

    fn kernel() -> KernelCharacteristics {
        KernelCharacteristics::default()
    }

    fn cal() -> PowerCalibration {
        PowerCalibration::default()
    }

    #[test]
    fn cpu_trace_average_matches_analytic_model() {
        let k = kernel();
        for threads in 1..=4u8 {
            let cfg = Configuration::cpu(threads, CpuPState(2));
            let trace = trace_for(&k, &cfg, &cal());
            let t = cpu_time(&k, &cfg);
            let analytic = cal().cpu_run_power(&k, &cfg, &t);
            let avg = trace.average();
            assert!((avg.cpu_plane_w - analytic.cpu_plane_w).abs() < 1e-9, "{threads}T cpu plane");
            assert!((avg.gpu_nb_plane_w - analytic.gpu_nb_plane_w).abs() < 1e-9);
            assert!((trace.total_s() - t.total_s).abs() < 1e-12);
        }
    }

    #[test]
    fn gpu_trace_average_matches_analytic_model() {
        let k = kernel();
        for gp in GpuPState::all() {
            let cfg = Configuration::gpu(gp, CpuPState(1));
            let trace = trace_for(&k, &cfg, &cal());
            let t = crate::gpu::gpu_time(&k, &cfg);
            let analytic = cal().gpu_run_power(&k, &cfg, &t);
            let avg = trace.average();
            assert!(
                (avg.cpu_plane_w - analytic.cpu_plane_w).abs() < 1e-9,
                "gpu pstate {gp:?} cpu plane {} vs {}",
                avg.cpu_plane_w,
                analytic.cpu_plane_w
            );
            assert!(
                (avg.gpu_nb_plane_w - analytic.gpu_nb_plane_w).abs() < 1e-9,
                "gpu pstate {gp:?}"
            );
        }
    }

    #[test]
    fn trace_has_phase_contrast() {
        let k = kernel();
        let cfg = Configuration::cpu(4, CpuPState::MAX);
        let trace = trace_for(&k, &cfg, &cal());
        let powers: Vec<f64> = trace.segments().iter().map(|s| s.power.total_w()).collect();
        let max = powers.iter().fold(0.0f64, |a, &b| a.max(b));
        let min = powers.iter().fold(f64::INFINITY, |a, &b| a.min(b));
        assert!(max > min + 1.0, "phases should differ by watts: {min}..{max}");
    }

    #[test]
    fn at_walks_segments() {
        let a = PowerBreakdown { cpu_plane_w: 10.0, gpu_nb_plane_w: 1.0 };
        let b = PowerBreakdown { cpu_plane_w: 2.0, gpu_nb_plane_w: 1.0 };
        let trace = PowerTrace::interleaved((0.001, a), (0.001, b));
        // First segment of the first cycle is phase a.
        assert_eq!(trace.at(0.0).cpu_plane_w, 10.0);
        // Past the end: clamps to the last segment (phase b).
        assert_eq!(trace.at(10.0).cpu_plane_w, 2.0);
    }

    #[test]
    fn degenerate_phases_collapse_to_constant() {
        let p = PowerBreakdown { cpu_plane_w: 5.0, gpu_nb_plane_w: 5.0 };
        let zero = PowerBreakdown { cpu_plane_w: 0.0, gpu_nb_plane_w: 0.0 };
        let t = PowerTrace::interleaved((0.01, p), (0.0, zero));
        assert_eq!(t.segments().len(), 1);
        assert_eq!(t.average(), p);
        let empty = PowerTrace::interleaved((0.0, p), (0.0, zero));
        assert!(empty.segments().is_empty());
        assert_eq!(empty.average().total_w(), 0.0);
    }

    #[test]
    fn sensor_on_trace_converges_for_long_kernels() {
        let k = KernelCharacteristics { compute_time_s: 1.0, memory_time_s: 0.4, ..kernel() };
        let cfg = Configuration::cpu(4, CpuPState::MAX);
        let trace = trace_for(&k, &cfg, &cal());
        let sensor = PowerSensor::default();
        let noise = NoiseSource::new(3, "trace-sensor", 0, 0);
        let est = sensor.estimate_trace(&trace, |p| p.cpu_plane_w, &noise);
        let truth = trace.average().cpu_plane_w;
        assert!((est - truth).abs() / truth < 0.02, "est {est} vs {truth}");
    }

    #[test]
    fn short_kernel_single_window_covers_whole_trace() {
        // A sub-millisecond kernel gets a single accumulator window, which
        // averages the whole execution: the noiseless estimate is the
        // quantized trace average (the accumulator architecture is what
        // keeps short-kernel measurements sane).
        let k = KernelCharacteristics { compute_time_s: 0.0004, memory_time_s: 0.0004, ..kernel() };
        let cfg = Configuration::cpu(4, CpuPState::MAX);
        let trace = trace_for(&k, &cfg, &cal());
        let sensor = PowerSensor { noise_sigma: 0.0, ..PowerSensor::default() };
        let noise = NoiseSource::new(3, "alias", 0, 0);
        let est = sensor.estimate_trace(&trace, |p| p.total_w(), &noise);
        let expected = sensor.quantize_pub(trace.average().total_w());
        assert!((est - expected).abs() < 1e-9, "est {est} vs quantized average {expected}");
    }

    #[test]
    fn window_average_integrates_exactly() {
        let a = PowerBreakdown { cpu_plane_w: 10.0, gpu_nb_plane_w: 0.0 };
        let b = PowerBreakdown { cpu_plane_w: 2.0, gpu_nb_plane_w: 0.0 };
        let trace = PowerTrace::interleaved((0.002, a), (0.002, b));
        // Whole-trace window equals the average.
        let whole = trace.window_average(|p| p.cpu_plane_w, 0.0, trace.total_s());
        assert!((whole - 6.0).abs() < 1e-9, "{whole}");
        // A window past the end extends the last phase.
        let past = trace.window_average(|p| p.cpu_plane_w, trace.total_s(), trace.total_s() + 1.0);
        assert!((past - 2.0).abs() < 1e-9, "{past}");
        // Degenerate window.
        assert_eq!(trace.window_average(|p| p.cpu_plane_w, 0.5, 0.5), 0.0);
    }

    #[test]
    fn windows_on_segment_boundaries_skip_the_ending_segment() {
        // 1 s over the 512-cycle cap: every segment lasts 2^-10 s, so
        // segment ends and 1024 Hz window edges are exact binary fractions
        // and each window starts exactly where a segment ends.
        let a = PowerBreakdown { cpu_plane_w: 10.0, gpu_nb_plane_w: 1.0 };
        let b = PowerBreakdown { cpu_plane_w: 2.0, gpu_nb_plane_w: 3.0 };
        let trace = PowerTrace::interleaved((0.5, a), (0.5, b));
        assert_eq!(trace.segments().len(), 1024);
        let dt = 1.0 / 1024.0;
        let mut cursor = Cursor::default();
        for lane in 0..1024 {
            let t0 = lane as f64 * dt;
            let resumed = trace.window_average_from(&mut cursor, |p| p.cpu_plane_w, t0, t0 + dt);
            let fresh = trace.window_average(|p| p.cpu_plane_w, t0, t0 + dt);
            assert_eq!(resumed.to_bits(), fresh.to_bits(), "lane {lane}");
            // The segment ending at t0 adds nothing: each window reads
            // exactly its own phase.
            assert_eq!(resumed, if lane % 2 == 0 { 10.0 } else { 2.0 }, "lane {lane}");
            assert_eq!(cursor.index, lane);
        }
        let sensor = PowerSensor { sample_hz: 1024.0, quantum_w: 0.0, noise_sigma: 0.0 };
        let noise = NoiseSource::new(0, "boundary", 0, 0);
        assert_eq!(sensor.estimate_trace(&trace, |p| p.cpu_plane_w, &noise), 6.0);
        assert_eq!(sensor.estimate_trace(&trace, |p| p.gpu_nb_plane_w, &noise), 2.0);
    }

    #[test]
    fn windows_past_the_end_hold_the_last_segment() {
        let a = PowerBreakdown { cpu_plane_w: 10.0, gpu_nb_plane_w: 0.0 };
        let b = PowerBreakdown { cpu_plane_w: 2.0, gpu_nb_plane_w: 0.0 };
        let trace = PowerTrace::interleaved((0.002, a), (0.002, b));
        let end = trace.total_s();
        let windows = [(0.0, end / 2.0), (end - 1e-4, end + 1e-4), (end + 1.0, end + 2.0)];
        let mut cursor = Cursor::default();
        for (t0, t1) in windows {
            let resumed = trace.window_average_from(&mut cursor, |p| p.cpu_plane_w, t0, t1);
            let fresh = trace.window_average(|p| p.cpu_plane_w, t0, t1);
            assert_eq!(resumed.to_bits(), fresh.to_bits(), "[{t0}, {t1})");
        }
        // The last window lies wholly past the end: the cursor has passed
        // every segment and the window reads the last phase's power.
        assert_eq!(cursor.index, trace.segments().len());
        assert_eq!(trace.window_average(|p| p.cpu_plane_w, end + 1.0, end + 2.0), 2.0);
    }

    #[test]
    fn scaling_preserves_structure() {
        let k = kernel();
        let cfg = Configuration::cpu(2, CpuPState(3));
        let mut trace = trace_for(&k, &cfg, &cal());
        let before = trace.average();
        let t_before = trace.total_s();
        trace.scale_time(2.0);
        trace.scale_power(0.5);
        assert!((trace.total_s() - 2.0 * t_before).abs() < 1e-12);
        let after = trace.average();
        assert!((after.total_w() - 0.5 * before.total_w()).abs() < 1e-9);
    }

    #[test]
    fn ideal_sensor_reads_exact_average() {
        let k = kernel();
        let cfg = Configuration::gpu(GpuPState::MAX, CpuPState::MAX);
        let trace = trace_for(&k, &cfg, &cal());
        let sensor = PowerSensor::ideal();
        let noise = NoiseSource::new(0, "ideal", 0, 0);
        let est = sensor.estimate_trace(&trace, |p| p.gpu_nb_plane_w, &noise);
        assert_eq!(est, trace.average().gpu_nb_plane_w);
    }
}
