//! Reproducibility integration tests: every trial is a pure function of
//! (system, app, runtime, options). The paper averages five hardware runs
//! to tame variance; the simulator replaces that with exact determinism —
//! which these tests pin down so refactors cannot silently break it.

use magus_suite::experiments::drivers::{MagusDriver, NoopDriver, UpsDriver};
use magus_suite::experiments::harness::{run_trial, SystemId, TrialOpts, TrialResult};
use magus_suite::workloads::{app_trace, AppId, Platform};

fn fingerprint(r: &TrialResult) -> (u64, u64, u64, u64) {
    (
        r.summary.runtime_s.to_bits(),
        r.summary.energy.total_j().to_bits(),
        r.invocations,
        r.summary.uncore_transitions,
    )
}

#[test]
fn magus_trials_bit_identical() {
    let run = || {
        let mut d = MagusDriver::with_defaults();
        run_trial(
            SystemId::IntelA100,
            AppId::Srad,
            &mut d,
            TrialOpts::recorded(),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(fingerprint(&a), fingerprint(&b));
    assert_eq!(a.samples.len(), b.samples.len());
    for (x, y) in a.samples.iter().zip(&b.samples) {
        assert_eq!(x.mem_gbs.to_bits(), y.mem_gbs.to_bits());
        assert_eq!(x.uncore_ghz.to_bits(), y.uncore_ghz.to_bits());
    }
}

#[test]
fn ups_trials_bit_identical() {
    let run = || {
        let mut d = UpsDriver::with_defaults();
        run_trial(
            SystemId::IntelMax1550,
            AppId::Gemm,
            &mut d,
            TrialOpts::default(),
        )
    };
    assert_eq!(fingerprint(&run()), fingerprint(&run()));
}

#[test]
fn parallel_and_serial_trials_agree() {
    // Running trials on several threads at once must not change results.
    use std::thread;
    let serial = {
        let mut d = MagusDriver::with_defaults();
        run_trial(
            SystemId::IntelA100,
            AppId::Kmeans,
            &mut d,
            TrialOpts::default(),
        )
    };
    let handles: Vec<_> = (0..4)
        .map(|_| {
            thread::spawn(|| {
                let mut d = MagusDriver::with_defaults();
                run_trial(
                    SystemId::IntelA100,
                    AppId::Kmeans,
                    &mut d,
                    TrialOpts::default(),
                )
            })
        })
        .collect();
    for h in handles {
        assert_eq!(fingerprint(&h.join().unwrap()), fingerprint(&serial));
    }
}

#[test]
fn traces_differ_across_apps_and_platforms() {
    // Distinct seeds and parameters must actually produce distinct inputs.
    let a = app_trace(AppId::Bfs, Platform::IntelA100);
    let b = app_trace(AppId::Pathfinder, Platform::IntelA100);
    assert_ne!(a, b);
    let c = app_trace(AppId::Bfs, Platform::IntelMax1550);
    assert_ne!(a, c);
}

#[test]
fn baseline_runtime_equals_work_content() {
    // Unconstrained baselines complete in exactly the trace's work content
    // (the designed-in calibration invariant behind every perf-loss figure).
    for app in [AppId::Bfs, AppId::Unet, AppId::Laghos] {
        let trace = app_trace(app, Platform::IntelA100);
        let mut d = NoopDriver;
        let r = run_trial(SystemId::IntelA100, app, &mut d, TrialOpts::default());
        assert!(
            (r.summary.runtime_s - trace.total_work_s()).abs() < 0.25,
            "{app}: runtime {} vs work {}",
            r.summary.runtime_s,
            trace.total_work_s()
        );
    }
}

#[test]
fn engine_parallel_reduction_is_bit_identical_to_serial() {
    // The engine's worker fan-out must reduce to exactly the serial
    // (`--serial`, one worker) result, in the same order — callers can pass
    // `--serial` for debugging without changing a single bit of output.
    use magus_suite::experiments::engine::{Engine, GovernorSpec, TrialSpec};
    let specs: Vec<TrialSpec> = [AppId::Bfs, AppId::Srad, AppId::Kmeans]
        .into_iter()
        .flat_map(|app| {
            [
                TrialSpec::new(SystemId::IntelA100, app, GovernorSpec::Default),
                TrialSpec::new(SystemId::IntelA100, app, GovernorSpec::magus_default()),
            ]
        })
        .collect();
    let serial = Engine::ephemeral().serial().run_suite(&specs);
    let parallel = Engine::ephemeral().with_jobs(4).run_suite(&specs);
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.spec_hash, p.spec_hash);
        assert_eq!(fingerprint(&s.result), fingerprint(&p.result));
        assert_eq!(s.high_freq_fraction, p.high_freq_fraction);
    }
}
