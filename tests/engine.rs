//! Integration tests for the trial-execution engine: content-addressed
//! caching, version-salt invalidation, and manifest accounting.
//!
//! Cache tests use a per-process temp directory so concurrent test
//! processes (and stale state from aborted runs) cannot interfere.

use std::fs;
use std::path::PathBuf;

use magus_suite::experiments::engine::{
    spec_hash, Engine, GovernorSpec, RunManifest, TrialSpec, ENGINE_SALT,
};
use magus_suite::experiments::figures::{evaluate_app, AppEval};
use magus_suite::experiments::harness::SystemId;
use magus_suite::experiments::report::render_fig4_table;
use magus_suite::experiments::Comparison;
use magus_suite::workloads::{app_trace, synthesis_count, AppId, Platform};

fn temp_cache(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("magus-engine-test-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

#[test]
fn spec_hash_is_stable_and_field_sensitive() {
    let spec = TrialSpec::new(
        SystemId::IntelA100,
        AppId::Bfs,
        GovernorSpec::magus_default(),
    );
    assert_eq!(spec_hash(&spec, ENGINE_SALT), spec_hash(&spec, ENGINE_SALT));
    assert_eq!(spec.content_hash().len(), 32);
    let other_app = TrialSpec::new(
        SystemId::IntelA100,
        AppId::Srad,
        GovernorSpec::magus_default(),
    );
    let other_gov = TrialSpec::new(SystemId::IntelA100, AppId::Bfs, GovernorSpec::Default);
    assert_ne!(spec.content_hash(), other_app.content_hash());
    assert_ne!(spec.content_hash(), other_gov.content_hash());
    assert_ne!(
        spec_hash(&spec, ENGINE_SALT),
        spec_hash(&spec, "magus-engine/v0")
    );
}

#[test]
fn cache_hit_returns_bit_identical_result() {
    let dir = temp_cache("hit");
    let spec = TrialSpec::new(
        SystemId::IntelA100,
        AppId::Bfs,
        GovernorSpec::magus_default(),
    );
    let cold = Engine::with_cache(&dir).run(&spec);
    assert!(!cold.cached, "first run must be a miss");
    let warm = Engine::with_cache(&dir).run(&spec);
    assert!(warm.cached, "second run must hit the cache");
    assert_eq!(cold.spec_hash, warm.spec_hash);
    assert_eq!(
        cold.result.summary.runtime_s.to_bits(),
        warm.result.summary.runtime_s.to_bits()
    );
    assert_eq!(
        cold.result.summary.energy.total_j().to_bits(),
        warm.result.summary.energy.total_j().to_bits()
    );
    assert_eq!(cold.result.invocations, warm.result.invocations);
    assert_eq!(cold.high_freq_fraction, warm.high_freq_fraction);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn warm_suite_hits_at_least_90_percent() {
    let dir = temp_cache("warm");
    let specs: Vec<TrialSpec> = [AppId::Bfs, AppId::Srad]
        .into_iter()
        .flat_map(|app| {
            [
                TrialSpec::new(SystemId::IntelA100, app, GovernorSpec::Default),
                TrialSpec::new(SystemId::IntelA100, app, GovernorSpec::magus_default()),
            ]
        })
        .collect();
    {
        let cold = Engine::with_cache(&dir);
        cold.run_suite(&specs);
        let m = cold.manifest();
        assert_eq!(m.cache_hits, 0);
        assert_eq!(m.cache_misses, specs.len());
    }
    let warm = Engine::with_cache(&dir);
    let outs = warm.run_suite(&specs);
    assert!(outs.iter().all(|o| o.cached), "every warm trial must hit");
    let m = warm.manifest();
    assert_eq!(m.cache_misses, 0);
    assert!(m.hit_rate() >= 0.9, "hit rate {}", m.hit_rate());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn changing_the_version_salt_invalidates_the_cache() {
    let dir = temp_cache("salt");
    let spec = TrialSpec::idle(SystemId::IntelA100, GovernorSpec::Default, 2.0);
    let first = Engine::with_cache(&dir).run(&spec);
    assert!(!first.cached);
    // Same spec, same directory, different code-version salt: cold again.
    let bumped = Engine::with_cache(&dir).with_salt("magus-engine/v999");
    let second = bumped.run(&spec);
    assert!(!second.cached, "a salt bump must force a re-run");
    // And the original salt still hits its own entry.
    let back = Engine::with_cache(&dir).run(&spec);
    assert!(back.cached);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn changing_any_spec_field_forces_a_miss() {
    let dir = temp_cache("fields");
    let base = TrialSpec::idle(SystemId::IntelA100, GovernorSpec::Default, 2.0);
    {
        let engine = Engine::with_cache(&dir);
        assert!(!engine.run(&base).cached);
        assert!(engine.run(&base).cached, "same engine re-run hits");
    }
    let engine = Engine::with_cache(&dir);
    let variants = [
        TrialSpec::idle(SystemId::IntelMax1550, GovernorSpec::Default, 2.0),
        TrialSpec::idle(SystemId::IntelA100, GovernorSpec::magus_default(), 2.0),
        TrialSpec::idle(SystemId::IntelA100, GovernorSpec::Default, 3.0),
        TrialSpec::idle(SystemId::IntelA100, GovernorSpec::Default, 2.0).monitor_only(),
        TrialSpec::idle(SystemId::IntelA100, GovernorSpec::Default, 2.0).replicate(1),
    ];
    for variant in &variants {
        assert_ne!(variant.content_hash(), base.content_hash());
        assert!(
            !engine.run(variant).cached,
            "{} must miss after only {} was cached",
            variant.label(),
            base.label()
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

/// The fig-4 evaluation block for one app, in reduction order.
fn eval_block(system: SystemId, app: AppId) -> [TrialSpec; 3] {
    [
        TrialSpec::new(system, app, GovernorSpec::Default),
        TrialSpec::new(system, app, GovernorSpec::magus_default()),
        TrialSpec::new(system, app, GovernorSpec::ups_default()),
    ]
}

#[test]
fn rendered_fig4_rows_match_between_streaming_and_collect_paths() {
    let dir = temp_cache("render");
    let engine = Engine::with_cache(&dir);
    let system = SystemId::IntelA100;
    let apps = [AppId::Bfs, AppId::Srad];
    // Collect path: full outcomes in memory, reduced by hand exactly the
    // way the pre-streaming fig 4 did.
    let mut collect_rows = Vec::new();
    for &app in &apps {
        let outs = engine.run_suite(&eval_block(system, app));
        let [base, magus, ups] = <[_; 3]>::try_from(outs).expect("three outcomes");
        collect_rows.push(AppEval {
            app: app.name().to_string(),
            baseline_runtime_s: base.result.summary.runtime_s,
            baseline_cpu_w: base.result.summary.mean_cpu_w,
            magus: Comparison::against(&base.result.summary, &magus.result.summary),
            ups: Comparison::against(&base.result.summary, &ups.result.summary),
        });
    }
    // Streaming path: summary-only briefs digested inside the workers.
    let stream_rows: Vec<AppEval> = apps
        .iter()
        .map(|&app| evaluate_app(&engine, system, app))
        .collect();
    assert_eq!(
        render_fig4_table("differential", &collect_rows),
        render_fig4_table("differential", &stream_rows),
        "rendered results must be byte-identical through the streaming engine"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn interning_leaves_spec_hashes_and_salt_unchanged() {
    // The salt tracks changes to what a trial is or computes (v8: the
    // uncore actuation is the node's). Interning changes how traces are
    // materialized, not what a trial is, so it must never bump this.
    assert!(
        ENGINE_SALT.starts_with("magus-engine/v8/"),
        "unexpected engine salt (got {ENGINE_SALT}; bump this assertion \
         only on a schema change)"
    );
    let spec = TrialSpec::new(
        SystemId::IntelA100,
        AppId::Srad,
        GovernorSpec::magus_default(),
    );
    let cold_hash = spec.content_hash();
    // Warming the intern table must not perturb spec hashing — the trace
    // is not part of the spec's identity.
    let _ = app_trace(AppId::Srad, Platform::IntelA100);
    assert_eq!(spec.content_hash(), cold_hash);
    assert_eq!(spec_hash(&spec, ENGINE_SALT), spec_hash(&spec, ENGINE_SALT));
}

#[test]
fn warm_suite_run_synthesizes_nothing() {
    // Pin the process-global counter by warming every possible key first
    // (other tests in this binary share the intern table).
    for platform in [
        Platform::IntelA100,
        Platform::Intel4A100,
        Platform::IntelMax1550,
    ] {
        for &app in AppId::all() {
            let _ = app_trace(app, platform);
        }
    }
    let warmed = synthesis_count();
    let engine = Engine::ephemeral();
    let specs: Vec<TrialSpec> = AppId::all()
        .iter()
        .map(|&app| TrialSpec::new(SystemId::IntelA100, app, GovernorSpec::Default))
        .collect();
    engine.run_suite(&specs);
    engine.run_suite(&specs);
    assert_eq!(
        synthesis_count(),
        warmed,
        "full-suite runs must reuse interned traces, never re-synthesize"
    );
}

#[test]
fn finish_writes_a_manifest_next_to_the_cache() {
    let dir = temp_cache("manifest");
    let engine = Engine::with_cache(&dir);
    let spec = TrialSpec::idle(SystemId::IntelA100, GovernorSpec::Default, 2.0);
    engine.run(&spec);
    engine.finish("itest");
    let path = dir.join("itest.manifest.json");
    let raw = fs::read_to_string(&path).expect("manifest written");
    let manifest: RunManifest = serde::from_str(&raw).expect("manifest parses");
    assert_eq!(manifest.trials.len(), 1);
    assert_eq!(manifest.cache_misses, 1);
    assert_eq!(manifest.salt, ENGINE_SALT);
    let _ = fs::remove_dir_all(&dir);
}
