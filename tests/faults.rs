//! Fault-injection integration tests: the contracts the robustness study
//! rests on.
//!
//! 1. An empty (or absent) fault plan is bit-for-bit invisible — on both
//!    the fast and the reference stepping path.
//! 2. A seeded plan produces one deterministic fault schedule: identical
//!    across repeated runs, across serial vs parallel engine scheduling,
//!    and across the two stepping paths.
//! 3. The `magus` binary applies a `--faults` plan to `fleet` and refuses
//!    it on `serve`.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};
use std::{env, fs};

use magus_suite::experiments::drivers::{MagusDriver, RuntimeDriver, UpsDriver};
use magus_suite::experiments::engine::{Engine, GovernorSpec, TrialBrief, TrialOutcome, TrialSpec};
use magus_suite::experiments::harness::{StepMode, SystemId, TrialBuilder, TrialOpts, TrialResult};
use magus_suite::hetsim::{FaultPlan, FleetSummary};
use magus_suite::workloads::AppId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn fingerprint(r: &TrialResult) -> (u64, u64, u64, u64, u64) {
    (
        r.summary.runtime_s.to_bits(),
        r.summary.energy.total_j().to_bits(),
        r.summary.monitor_writes,
        r.invocations,
        r.fault_counters.total(),
    )
}

fn faulted_magus_trial(path: StepMode, faults: Option<&FaultPlan>) -> TrialResult {
    let mut driver = MagusDriver::with_defaults();
    let mut trial = TrialBuilder::on(SystemId::IntelA100)
        .app(AppId::Srad)
        .path(path);
    if let Some(plan) = faults {
        trial = trial.faults(plan);
    }
    trial.run(&mut driver)
}

/// The tentpole's zero-cost contract: a present-but-empty plan must not
/// perturb a single bit of the simulation, on either stepping path.
#[test]
fn empty_fault_plan_is_bit_identical_on_both_paths() {
    let empty = FaultPlan::default();
    for path in [StepMode::Fast, StepMode::Reference] {
        let clean = faulted_magus_trial(path, None);
        let faulted = faulted_magus_trial(path, Some(&empty));
        assert_eq!(
            fingerprint(&clean),
            fingerprint(&faulted),
            "empty plan perturbed the {path:?} path"
        );
        assert_eq!(faulted.fault_counters.total(), 0);
    }
}

fn stress_plan() -> FaultPlan {
    FaultPlan::builder()
        .seed(7)
        .pcm_dropout_every(11)
        .pcm_stale_every(17)
        .pcm_spike(23, 0.4)
        .uncore_write_fail_every(5)
        .actuation_delay_us(30_000)
        .build()
        .expect("stress plan is valid")
}

/// One seed, one schedule: the same faulted trial reproduces exactly, and
/// the fast path agrees with the reference path bit-for-bit.
#[test]
fn faulted_trials_reproduce_across_runs_and_paths() {
    let plan = stress_plan();
    let fast_a = faulted_magus_trial(StepMode::Fast, Some(&plan));
    let fast_b = faulted_magus_trial(StepMode::Fast, Some(&plan));
    let reference = faulted_magus_trial(StepMode::Reference, Some(&plan));
    assert!(
        fast_a.fault_counters.total() > 0,
        "stress plan must actually inject: {:?}",
        fast_a.fault_counters
    );
    assert_eq!(fingerprint(&fast_a), fingerprint(&fast_b));
    assert_eq!(
        fingerprint(&fast_a),
        fingerprint(&reference),
        "fast and reference paths diverged under faults"
    );
    assert_eq!(fast_a.fault_counters, reference.fault_counters);
}

/// Injected actuation delays longer than a frozen span. A delayed write
/// comes due at a tick edge the governor did not choose, often in the
/// middle of a span the fast path would replay; the span must stop there.
/// Each trial runs armed, with the recorder off and at 70 ms (not a whole
/// number of 10 ms ticks), and both paths must agree on every observable.
#[test]
fn long_actuation_delays_match_across_paths() {
    for delay_us in [250_000, 1_000_000, 2_345_000] {
        let plan = FaultPlan::builder()
            .seed(3)
            .actuation_delay_us(delay_us)
            .build()
            .expect("delay-only plan is valid");
        for app in [AppId::Srad, AppId::Bfs, AppId::Gemm] {
            for governor in ["MAGUS", "UPS"] {
                for record_interval_us in [0, 70_000] {
                    let run = |path| {
                        let mut driver: Box<dyn RuntimeDriver> = match governor {
                            "MAGUS" => Box::new(MagusDriver::with_defaults()),
                            _ => Box::new(UpsDriver::with_defaults()),
                        };
                        let opts = TrialOpts {
                            record_interval_us,
                            ..TrialOpts::default()
                        };
                        TrialBuilder::on(SystemId::IntelA100)
                            .app(app)
                            .opts(opts)
                            .path(path)
                            .faults(&plan)
                            .arm_telemetry()
                            .run(driver.as_mut())
                    };
                    let fast = run(StepMode::Fast);
                    let reference = run(StepMode::Reference);
                    let ctx = format!(
                        "{governor} / {app:?} / delay {delay_us} us / recorder {record_interval_us} us"
                    );
                    assert!(
                        fast.fault_counters.delayed_writes > 0,
                        "no write was delayed: {ctx}"
                    );
                    assert_eq!(fast.summary, reference.summary, "summary: {ctx}");
                    assert_eq!(fast.samples, reference.samples, "samples: {ctx}");
                    assert_eq!(fast.events, reference.events, "events: {ctx}");
                    assert_eq!(
                        fast.fault_counters, reference.fault_counters,
                        "fault counters: {ctx}"
                    );
                    let (f, r) = (
                        fast.node_telemetry.expect("armed trial"),
                        reference.node_telemetry.expect("armed trial"),
                    );
                    assert_eq!(f.residency_us, r.residency_us, "residency: {ctx}");
                }
            }
        }
    }
}

/// Faulted specs through the engine: serial and parallel scheduling give
/// identical outcomes and byte-identical telemetry streams.
#[test]
fn fault_schedules_identical_across_scheduling_modes() {
    let plan = stress_plan();
    let specs: Vec<TrialSpec> = [AppId::Bfs, AppId::Srad, AppId::Gemm]
        .into_iter()
        .map(|app| {
            TrialSpec::new(SystemId::IntelA100, app, GovernorSpec::magus_default())
                .with_faults(plan)
        })
        .collect();

    // A telemetry sink arms every trial: each outcome carries node counters.
    let armed_brief = |_, outcome: TrialOutcome| {
        assert!(outcome.result.node_telemetry.is_some(), "trial not armed");
        TrialBrief::from(outcome)
    };
    // Four workers on any machine: one worker per CPU would compare serial
    // with serial on a one-CPU runner.
    let parallel = Engine::ephemeral().with_jobs(4).with_telemetry();
    let par_briefs = parallel.run_mapped(&specs, armed_brief);
    let serial = Engine::ephemeral().serial().with_telemetry();
    let ser_briefs = serial.run_mapped(&specs, armed_brief);

    assert_eq!(par_briefs, ser_briefs, "scheduling changed faulted results");
    assert!(par_briefs.iter().all(|b| b.fault_counters.total() > 0));
    let jsonl = parallel.telemetry_jsonl();
    assert!(
        jsonl.contains("fault_pcm_dropout"),
        "no fault events recorded"
    );
    assert_eq!(
        jsonl,
        serial.telemetry_jsonl(),
        "scheduling changed the faulted telemetry stream"
    );
}

/// An engine-level clean spec and a spec whose `faults` field holds an
/// explicitly empty plan hash differently only if the field serializes —
/// `with_faults` normalizes empty plans away, so they must be the same
/// spec with the same hash.
#[test]
fn with_faults_normalizes_empty_plans_to_clean_specs() {
    let clean = TrialSpec::new(
        SystemId::IntelA100,
        AppId::Bfs,
        GovernorSpec::magus_default(),
    );
    let emptied = clean.clone().with_faults(FaultPlan::default());
    assert_eq!(clean, emptied);
    assert_eq!(clean.content_hash(), emptied.content_hash());
}

/// Seeded cases per property loop below; every failure names its case.
const CASES: u64 = 8;

/// Any valid plan is deterministic: running it twice produces the same
/// bits and the same fault tally.
#[test]
fn random_plans_are_deterministic() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let mut b = FaultPlan::builder()
            .seed(rng.gen_range(0..=999) as u64)
            .pcm_dropout_every(rng.gen_range(2..=39) as u64)
            .pcm_stale_every(rng.gen_range(2..=39) as u64);
        if rng.gen_bool(0.5) {
            b = b.uncore_write_fail_every(rng.gen_range(3..=19) as u64);
        }
        if rng.gen_bool(0.5) {
            b = b.actuation_delay_us(rng.gen_range(1_000..=49_999) as u64);
        }
        let plan = b.build().expect("generated plan is valid");
        let opts = TrialOpts {
            max_s: 120.0,
            ..TrialOpts::default()
        };
        let run = || {
            let mut driver = MagusDriver::with_defaults();
            TrialBuilder::on(SystemId::IntelA100)
                .app(AppId::Bfs)
                .opts(opts)
                .faults(&plan)
                .run(&mut driver)
        };
        let a = run();
        let b2 = run();
        assert_eq!(fingerprint(&a), fingerprint(&b2), "case {case}");
        assert_eq!(a.fault_counters, b2.fault_counters, "case {case}");
    }
}

/// Seed-only plans (no fault models) stay empty and invisible: a plan
/// with no models is indistinguishable from no plan at all, whatever its
/// seed.
#[test]
fn seed_only_plans_are_empty() {
    for case in 0..CASES {
        let seed = SmallRng::seed_from_u64(case).gen_range(0..=9_999) as u64;
        let plan = FaultPlan::builder().seed(seed).build().expect("valid");
        assert!(plan.is_empty(), "case {case}");
        let spec = TrialSpec::new(
            SystemId::IntelA100,
            AppId::Bfs,
            GovernorSpec::magus_default(),
        );
        assert_eq!(spec.clone().with_faults(plan), spec, "case {case}");
    }
}

/// `magus --faults <plan> fleet` injects the plan into every node (PCM
/// dropouts and the fleet crash schedule both fire), and `serve`, whose
/// epochs run clean, exits with an error naming `--faults`.
#[test]
fn magus_fleet_applies_the_faults_flag_and_serve_refuses_it() {
    let dir = env::temp_dir().join(format!("magus-fleet-faults-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("temp dir");
    let plan = dir.join("plan.json");
    fs::write(
        &plan,
        r#"{"seed": 5, "pcm": {"dropout_every": 3},
            "fleet": {"crash_every": 4, "crash_at_us": 2000000}}"#,
    )
    .expect("write plan");
    let summary = dir.join("summary.json");
    let magus = env!("CARGO_BIN_EXE_magus");
    let fleet = Command::new(magus)
        .arg("--no-cache")
        .arg("--faults")
        .arg(&plan)
        .args([
            "fleet",
            "--nodes",
            "4",
            "--runtime",
            "magus",
            "--budget",
            "5",
        ])
        .arg("--summary")
        .arg(&summary)
        .output()
        .expect("run magus fleet");
    assert!(fleet.status.success(), "{fleet:?}");
    let summary: FleetSummary =
        serde::from_str(&fs::read_to_string(&summary).expect("summary written"))
            .expect("summary parses");
    assert!(summary.crashed >= 1, "crash_every=4 hits node 4 of 4");
    assert!(
        !summary.node_fault_counters.is_empty(),
        "MAGUS reads PCM, so the dropout schedule must fire"
    );

    let mut serve = Command::new(magus)
        .arg("--faults")
        .arg(&plan)
        .args(["serve", "--addr", "127.0.0.1:0", "--no-http"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn magus serve");
    let deadline = Instant::now() + Duration::from_secs(20);
    while serve.try_wait().expect("poll serve").is_none() {
        if Instant::now() > deadline {
            let _ = serve.kill();
            let _ = serve.wait();
            panic!("serve --faults kept running instead of refusing the plan");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = serve.wait_with_output().expect("serve output");
    assert!(!out.status.success(), "serve accepted --faults");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--faults"), "{stderr}");
    let _ = fs::remove_dir_all(&dir);
}
