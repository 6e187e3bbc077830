//! Property-based tests for the APU simulator: physical invariants that
//! must hold for *every* valid kernel, not just the shipped suite.

use acs_sim::noise::Stream;
use acs_sim::{
    Configuration, CpuPState, Device, FamilyId, GpuPState, KernelCharacteristics, Machine,
    NoiseSource, PowerBreakdown, PowerSensor, PowerTrace,
};
use proptest::prelude::*;

/// Strategy drawing one of the four machine families.
fn family_strategy() -> impl Strategy<Value = FamilyId> {
    (0usize..FamilyId::ALL.len()).prop_map(|i| FamilyId::ALL[i])
}

/// The sibling `.proptest-regressions` file must resolve from the test
/// harness's working directory and parse both entry formats — otherwise
/// persisted seeds would silently stop replaying in CI.
#[test]
fn persisted_regressions_resolve_and_parse() {
    let seeds = proptest::persisted_seeds(file!());
    assert_eq!(seeds.len(), 2, "expected both regression entries, got {seeds:?}");
    assert!(seeds.contains(&0x134), "native 16-hex entry must parse: {seeds:?}");
}

/// Strategy producing arbitrary valid kernels across the latent space.
fn kernel_strategy() -> impl Strategy<Value = KernelCharacteristics> {
    (
        0.0005..0.2f64, // compute_time_s
        0.0..0.05f64,   // memory_time_s
        0.3..1.0f64,    // parallel_fraction
        1.0..4.0f64,    // bw_saturation_threads
        0.0..0.5f64,    // module_sharing_penalty
        0.0..0.1f64,    // sync_overhead
        0.1..50.0f64,   // gpu_speedup
        0.0..1.0f64,    // branch_divergence
        (0.5..3.0f64, 0.0..0.002f64, 0.0..1.0f64, 1.0..100.0f64, 0.1..0.6f64, 0.1..0.9f64),
    )
        .prop_map(|(ct, mt, pf, bw, msp, sync, gs, bd, (gbw, lo, vf, ws, ca, ga))| {
            KernelCharacteristics {
                name: "prop".into(),
                benchmark: "Prop".into(),
                input: "P".into(),
                compute_time_s: ct,
                memory_time_s: mt,
                parallel_fraction: pf,
                bw_saturation_threads: bw,
                module_sharing_penalty: msp,
                sync_overhead: sync,
                gpu_speedup: gs,
                branch_divergence: bd,
                gpu_bw_advantage: gbw,
                launch_overhead_s: lo,
                vector_fraction: vf,
                working_set_mb: ws,
                cpu_activity: ca,
                gpu_activity: ga,
                weight: 1.0,
            }
        })
}

/// Strategy producing power traces as the sensor reads them: single-phase
/// or two-phase interleaved, from 20 µs to 1 s — or 1–3 s, long enough to
/// hit the 512-cycle segment cap and, at high sample rates, the sensor's
/// 10,000-sample cap — then time- and power-scaled like run jitter.
fn trace_strategy() -> impl Strategy<Value = PowerTrace> {
    (
        0u8..3,        // shape: single-phase, interleaved, long interleaved
        -4.7..0.0f64,  // log10 of the duration, seconds
        1.0..3.0f64,   // long duration, seconds
        0.02..0.98f64, // share of the duration in the leading phase
        (0.0..60.0f64, 0.0..60.0f64, 0.0..60.0f64, 0.0..60.0f64), // phase powers, W
        (0.5..2.0f64, 0.5..2.0f64), // scale_time, scale_power factors
    )
        .prop_map(|(shape, log_s, long_s, share, (ca, ga, cb, gb), (ts, ps))| {
            let a = PowerBreakdown { cpu_plane_w: ca, gpu_nb_plane_w: ga };
            let b = PowerBreakdown { cpu_plane_w: cb, gpu_nb_plane_w: gb };
            let total = if shape == 2 { long_s } else { 10f64.powf(log_s) };
            let mut trace = if shape == 0 {
                PowerTrace::constant(total, a)
            } else {
                PowerTrace::interleaved((total * share, a), (total * (1.0 - share), b))
            };
            trace.scale_time(ts);
            trace.scale_power(ps);
            trace
        })
}

/// Exact integration of `plane` over `[t0, t1)` by a scan from the first
/// segment, written independently of `PowerTrace::window_average`.
fn scan_from_zero(trace: &PowerTrace, plane: fn(&PowerBreakdown) -> f64, t0: f64, t1: f64) -> f64 {
    let Some(last) = trace.segments().last() else { return 0.0 };
    if t1 <= t0 {
        return 0.0;
    }
    let (mut acc, mut covered, mut seg_start) = (0.0, 0.0, 0.0);
    for s in trace.segments() {
        let seg_end = seg_start + s.duration_s;
        let (lo, hi) = (t0.max(seg_start), t1.min(seg_end));
        if hi > lo {
            acc += plane(&s.power) * (hi - lo);
            covered += hi - lo;
        }
        seg_start = seg_end;
        if seg_start >= t1 {
            break;
        }
    }
    if covered < (t1 - t0) - 1e-15 {
        let rest = (t1 - t0) - covered;
        acc += plane(&last.power) * rest;
        covered += rest;
    }
    acc / covered
}

/// `PowerSensor::estimate_trace` written as independent per-window
/// integrations: one public `window_average` call per sample lane.
fn per_window_estimate(
    sensor: &PowerSensor,
    trace: &PowerTrace,
    plane: fn(&PowerBreakdown) -> f64,
    noise: &NoiseSource,
) -> f64 {
    let n = sensor.samples_for(trace.total_s()).min(10_000);
    let dt = trace.total_s() / n as f64;
    let mut acc = 0.0;
    for lane in 0..n {
        let t0 = lane as f64 * dt;
        let window = trace.window_average(plane, t0, t0 + dt)
            * (1.0 + sensor.noise_sigma * noise.standard_normal(Stream::Sensor, lane));
        acc += sensor.quantize_pub(window.max(0.0));
    }
    acc / n as f64
}

proptest! {
    // `PROPTEST_CASES` (CI) overrides the local 64-case budget.
    #![proptest_config(ProptestConfig::with_cases_env(64))]

    #[test]
    fn generated_kernels_validate(k in kernel_strategy()) {
        prop_assert!(k.validate().is_empty(), "{:?}", k.validate());
    }

    #[test]
    fn every_run_is_physical(k in kernel_strategy(), seed in 0u64..100) {
        let m = Machine::new(seed);
        for cfg in Configuration::enumerate() {
            let r = m.run(&k, &cfg);
            prop_assert!(r.time_s > 0.0 && r.time_s.is_finite());
            prop_assert!(r.power_w() > 0.0 && r.power_w() < 200.0, "{}", r.power_w());
            prop_assert!(r.true_power.cpu_plane_w > 0.0);
            prop_assert!(r.true_power.gpu_nb_plane_w > 0.0);
        }
    }

    #[test]
    fn cpu_time_monotone_in_frequency(k in kernel_strategy(), threads in 1u8..=4) {
        let m = Machine::noiseless(0);
        let mut prev = f64::INFINITY;
        for p in CpuPState::all() {
            let t = m.run(&k, &Configuration::cpu(threads, p)).time_s;
            prop_assert!(t <= prev + 1e-15, "time must not rise with frequency");
            prev = t;
        }
    }

    #[test]
    fn cpu_thread_speedup_is_bounded(k in kernel_strategy(), ps in 0u8..6) {
        // Threads are NOT guaranteed to help: a high module-sharing
        // penalty can make a second FP-heavy thread a net loss, exactly
        // as on real shared-FPU modules. What must hold: speedup never
        // exceeds the thread count, and the slowdown never exceeds what
        // the sharing penalty + sync overhead can explain (~10%).
        let m = Machine::noiseless(0);
        let t1 = m.run(&k, &Configuration::cpu(1, CpuPState(ps))).time_s;
        for threads in 2..=4u8 {
            let t = m.run(&k, &Configuration::cpu(threads, CpuPState(ps))).time_s;
            let speedup = t1 / t;
            prop_assert!(speedup <= f64::from(threads) + 1e-9, "superlinear speedup {speedup}");
            prop_assert!(speedup >= 0.85, "threads {threads} slowdown too deep: {speedup}");
        }
    }

    #[test]
    fn cpu_power_monotone_in_frequency_and_threads(k in kernel_strategy()) {
        let m = Machine::noiseless(0);
        for threads in 1..=4u8 {
            let mut prev = 0.0;
            for p in CpuPState::all() {
                let w = m.run(&k, &Configuration::cpu(threads, p)).true_power_w();
                prop_assert!(w >= prev, "power must not fall with frequency");
                prev = w;
            }
        }
        for p in CpuPState::all() {
            let mut prev = 0.0;
            for threads in 1..=4u8 {
                let w = m.run(&k, &Configuration::cpu(threads, p)).true_power_w();
                prop_assert!(w >= prev, "power must not fall with threads");
                prev = w;
            }
        }
    }

    #[test]
    fn gpu_time_monotone_in_gpu_frequency(k in kernel_strategy(), cps in 0u8..6) {
        let m = Machine::noiseless(0);
        let mut prev = f64::INFINITY;
        for gp in GpuPState::all() {
            let t = m.run(&k, &Configuration::gpu(gp, CpuPState(cps))).time_s;
            prop_assert!(t <= prev + 1e-15);
            prev = t;
        }
    }

    #[test]
    fn energy_is_power_times_time(k in kernel_strategy(), seed in 0u64..50) {
        let m = Machine::new(seed);
        let cfg = Configuration::gpu(GpuPState::MAX, CpuPState::MAX);
        let r = m.run(&k, &cfg);
        let e = r.power_w() * r.time_s;
        prop_assert!(e > 0.0 && e.is_finite());
    }

    #[test]
    fn determinism_across_sweep_order(k in kernel_strategy(), seed in 0u64..50) {
        let m = Machine::new(seed);
        let forward = m.sweep(&k);
        // Re-run in reverse order; every observation must be identical.
        for cfg in Configuration::enumerate().iter().rev() {
            let r = m.run(&k, cfg);
            prop_assert_eq!(&r, &forward[cfg.index()]);
        }
    }

    #[test]
    fn counters_scale_with_work(k in kernel_strategy()) {
        let m = Machine::noiseless(0);
        let mut big = k.clone();
        big.compute_time_s *= 8.0;
        big.memory_time_s *= 8.0;
        let cfg = Configuration::cpu(4, CpuPState::MAX);
        let small_run = m.run(&k, &cfg);
        let big_run = m.run(&big, &cfg);
        prop_assert!(big_run.counters.instructions > small_run.counters.instructions);
        prop_assert!(big_run.counters.core_cycles > small_run.counters.core_cycles);
    }

    #[test]
    fn sensor_error_shrinks_with_duration(power in 5.0..60.0f64, seed in 0u64..100) {
        let sensor = acs_sim::PowerSensor::default();
        let noise = NoiseSource::new(seed, "sensor-prop", 0, 0);
        let short = (sensor.estimate(power, 0.002, &noise) - power).abs();
        let long = (sensor.estimate(power, 2.0, &noise) - power).abs();
        // The long estimate averages 2000 samples; allow a generous
        // margin but require it not be wildly worse than the short one.
        prop_assert!(long <= short.max(power * 0.02) + 0.2);
        prop_assert!(long < power * 0.05, "long-kernel sensor error {long}");
    }

    #[test]
    fn normalized_counter_features_are_finite(k in kernel_strategy(), seed in 0u64..50) {
        let m = Machine::new(seed);
        for cfg in [Configuration::cpu(4, CpuPState::MAX), Configuration::gpu(GpuPState::MAX, CpuPState::MAX)] {
            let r = m.run(&k, &cfg);
            for v in r.counters.normalized_features() {
                prop_assert!(v.is_finite() && v >= 0.0);
            }
        }
    }

    #[test]
    fn device_dispatch_matches_config(k in kernel_strategy()) {
        let m = Machine::noiseless(0);
        for cfg in Configuration::enumerate() {
            let r = m.run(&k, &cfg);
            match cfg.device {
                Device::Cpu => prop_assert_eq!(r.config.device, Device::Cpu),
                Device::Gpu => prop_assert_eq!(r.config.device, Device::Gpu),
            }
        }
    }

    #[test]
    fn family_instantiation_is_seed_deterministic(
        k in kernel_strategy(),
        family in family_strategy(),
        seed in 0u64..100,
    ) {
        let a = Machine::from_family(family, seed);
        let b = Machine::from_family(family, seed);
        prop_assert_eq!(&a, &b);
        for cfg in Configuration::enumerate() {
            prop_assert_eq!(a.run(&k, &cfg), b.run(&k, &cfg));
        }
    }

    #[test]
    fn every_family_run_is_physical(
        k in kernel_strategy(),
        family in family_strategy(),
        seed in 0u64..50,
    ) {
        let m = Machine::from_family(family, seed);
        for cfg in Configuration::enumerate() {
            let r = m.run(&k, &cfg);
            prop_assert!(r.time_s > 0.0 && r.time_s.is_finite(), "{family} time {}", r.time_s);
            prop_assert!(
                r.power_w() > 0.0 && r.power_w() < 400.0,
                "{family} power {}", r.power_w()
            );
            prop_assert!(r.true_power.cpu_plane_w > 0.0);
            prop_assert!(r.true_power.gpu_nb_plane_w > 0.0);
        }
    }

    #[test]
    fn trinity_family_is_bit_identical_to_legacy_machine(
        k in kernel_strategy(),
        seed in 0u64..50,
    ) {
        // The family layer must be a pure generalization: routing Trinity
        // through the descriptor reproduces the pre-family machine
        // bit-for-bit (goldens depend on this).
        let legacy = Machine::new(seed);
        let fam = Machine::from_family(FamilyId::Trinity, seed);
        for cfg in Configuration::enumerate() {
            let a = legacy.run(&k, &cfg);
            let b = fam.run(&k, &cfg);
            prop_assert_eq!(a.time_s.to_bits(), b.time_s.to_bits());
            prop_assert_eq!(
                a.true_power.cpu_plane_w.to_bits(),
                b.true_power.cpu_plane_w.to_bits()
            );
            prop_assert_eq!(
                a.true_power.gpu_nb_plane_w.to_bits(),
                b.true_power.gpu_nb_plane_w.to_bits()
            );
        }
    }

    #[test]
    fn family_cpu_time_monotone_in_frequency(
        k in kernel_strategy(),
        family in family_strategy(),
        threads in 1u8..=4,
    ) {
        let m = Machine::noiseless_from_family(family, 0);
        let mut prev = f64::INFINITY;
        for p in CpuPState::all() {
            let t = m.run(&k, &Configuration::cpu(threads, p)).time_s;
            prop_assert!(t <= prev + 1e-15, "{family}: time must not rise with frequency");
            prev = t;
        }
    }

    #[test]
    fn sensor_estimate_equals_per_window_integration(
        trace in trace_strategy(),
        sample_hz in 100.0..=10_000.0f64,
        seed in 0u64..1000,
    ) {
        // The estimator's single forward pass must reproduce independent
        // per-window integration bit for bit (goldens depend on this).
        let sensor = PowerSensor { sample_hz, ..PowerSensor::default() };
        let noise = NoiseSource::new(seed, "prop-trace", 0, 0);
        let planes: [fn(&PowerBreakdown) -> f64; 3] =
            [|p| p.cpu_plane_w, |p| p.gpu_nb_plane_w, |p| p.total_w()];
        for plane in planes {
            let fast = sensor.estimate_trace(&trace, plane, &noise);
            let reference = per_window_estimate(&sensor, &trace, plane, &noise);
            prop_assert_eq!(fast.to_bits(), reference.to_bits(), "{} vs {}", fast, reference);
        }
    }

    #[test]
    fn window_average_equals_scan_from_zero(
        trace in trace_strategy(),
        windows in 1u64..2000,
        offset in -0.5..0.5f64,
    ) {
        // Windows on a shifted sample grid, running one window past the end.
        let dt = trace.total_s() / windows as f64;
        for lane in 0..=windows {
            let t0 = (lane as f64 + offset) * dt;
            let got = trace.window_average(|p| p.total_w(), t0, t0 + dt);
            let want = scan_from_zero(&trace, |p| p.total_w(), t0, t0 + dt);
            prop_assert_eq!(got.to_bits(), want.to_bits(), "[{}, {}): {} vs {}", t0, t0 + dt, got, want);
        }
    }
}
