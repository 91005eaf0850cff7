//! The application catalog: one profile per paper application.
//!
//! Parameters are tuned to reproduce each application's *reported
//! behaviour*, not its internals: burst cadence and amplitude set the
//! memory dynamics MAGUS reacts to; duty cycle and memory-boundedness set
//! how much performance is at stake when the uncore throttles; quiet-phase
//! demand sets how much uncore power is recoverable. The comments on each
//! entry cite the paper observation the tuning targets.

use magus_hetsim::AppTrace;
use serde::{Deserialize, Serialize};

use crate::spec::{BurstTrainSpec, FluctuationSpec, InitSpec, Segment, UtilSpec, WorkloadSpec};

/// Target platform for a workload instantiation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Platform {
    /// 2× Xeon 8380 + 1× A100-40GB (CUDA).
    IntelA100,
    /// 2× Xeon 8380 + 4× A100-80GB (CUDA, PCIe).
    Intel4A100,
    /// 2× Xeon Max 9462 + Max 1550 (SYCL).
    IntelMax1550,
}

impl Platform {
    /// GPUs available on the platform.
    #[must_use]
    pub fn gpu_count(&self) -> usize {
        match self {
            Platform::Intel4A100 => 4,
            _ => 1,
        }
    }

    /// Memory-demand scale relative to the Intel+A100 baseline: the HBM
    /// host on Intel+Max1550 moves more data per burst; the 4-GPU node
    /// stages data for four devices.
    #[must_use]
    pub fn bw_scale(&self) -> f64 {
        match self {
            Platform::IntelA100 => 1.0,
            Platform::Intel4A100 => 1.9,
            Platform::IntelMax1550 => 1.3,
        }
    }
}

/// Identifier for every application in the evaluation (paper §5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum AppId {
    // Altis levels 1-2 (CUDA / SYCL ports).
    Bfs,
    Pathfinder,
    Cfd,
    CfdDouble,
    Fdtd2d,
    Gemm,
    Kmeans,
    Lavamd,
    Nw,
    ParticlefilterFloat,
    ParticlefilterNaive,
    Raytracing,
    Sort,
    Srad,
    Where,
    // ECP proxy applications.
    MiniGan,
    Cradl,
    Laghos,
    Sw4lite,
    // AI-enabled MD applications.
    Gromacs,
    Lammps,
    // MLPerf training workloads.
    Unet,
    Resnet50,
    BertLarge,
}

impl AppId {
    /// All applications in catalog order.
    #[must_use]
    pub fn all() -> &'static [AppId] {
        use AppId::*;
        &[
            Bfs,
            Pathfinder,
            Cfd,
            CfdDouble,
            Fdtd2d,
            Gemm,
            Kmeans,
            Lavamd,
            Nw,
            ParticlefilterFloat,
            ParticlefilterNaive,
            Raytracing,
            Sort,
            Srad,
            Where,
            MiniGan,
            Cradl,
            Laghos,
            Sw4lite,
            Gromacs,
            Lammps,
            Unet,
            Resnet50,
            BertLarge,
        ]
    }

    /// The name used in the paper's tables and figures.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            AppId::Bfs => "bfs",
            AppId::Pathfinder => "pathfinder",
            AppId::Cfd => "cfd",
            AppId::CfdDouble => "cfd_double",
            AppId::Fdtd2d => "fdtd2d",
            AppId::Gemm => "gemm",
            AppId::Kmeans => "kmeans",
            AppId::Lavamd => "lavamd",
            AppId::Nw => "nw",
            AppId::ParticlefilterFloat => "particlefilter_float",
            AppId::ParticlefilterNaive => "particlefilter_naive",
            AppId::Raytracing => "raytracing",
            AppId::Sort => "sort",
            AppId::Srad => "srad",
            AppId::Where => "where",
            AppId::MiniGan => "miniGAN",
            AppId::Cradl => "CRADL",
            AppId::Laghos => "Laghos",
            AppId::Sw4lite => "sw4lite",
            AppId::Gromacs => "gromacs",
            AppId::Lammps => "lammps",
            AppId::Unet => "UNet",
            AppId::Resnet50 => "Resnet50",
            AppId::BertLarge => "bert_large",
        }
    }

    /// Look an application up by its paper name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<AppId> {
        AppId::all().iter().copied().find(|a| a.name() == name)
    }
}

impl core::fmt::Display for AppId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// Shorthand for a standard periodic-burst profile.
#[allow(clippy::too_many_arguments)]
fn periodic(
    app: AppId,
    total_s: f64,
    init: Option<InitSpec>,
    period_s: f64,
    duty: f64,
    burst_bw: f64,
    quiet_bw: f64,
    burst_frac: f64,
    util: UtilSpec,
) -> WorkloadSpec {
    WorkloadSpec {
        name: app.name().to_string(),
        total_s,
        init,
        segments: vec![(
            Segment::Bursts(BurstTrainSpec {
                period_s,
                duty,
                burst_bw_gbs: burst_bw,
                quiet_bw_gbs: quiet_bw,
                burst_mem_frac: burst_frac,
                quiet_mem_frac: 0.08,
                jitter: 0.07,
                ramp_s: 0.6,
            }),
            total_s,
        )],
        util,
        seed: seed_for(app),
    }
}

fn init_bursts(duration_s: f64, bursts: u32, bw: f64) -> Option<InitSpec> {
    Some(InitSpec {
        duration_s,
        bursts,
        burst_bw_gbs: bw,
        mem_frac: 0.6,
    })
}

/// Deterministic per-app seed so every app's jitter is stable but distinct.
fn seed_for(app: AppId) -> u64 {
    0x4d41_4755_5300 + app as u64
}

/// Build the workload specification for `app` on the Intel+A100 baseline
/// scale (1 GPU, bw scale 1.0). [`app_trace`](crate::app_trace) applies
/// platform scaling.
#[must_use]
pub fn base_spec(app: AppId) -> WorkloadSpec {
    use AppId::*;
    // Graph/search kernels are latency-bound: modest GPU occupancy.
    let u_lat = UtilSpec::single(0.30, 0.12, 0.30, 0.32);
    // Dense kernels keep the GPU busier.
    let u = UtilSpec::single(0.30, 0.12, 0.55, 0.75);
    match app {
        // --- Compute-heavy Altis kernels: long quiet GPU phases, brief
        // staging bursts. The paper singles these out for the largest CPU
        // power savings ("BFS, GEMM, and Pathfinder ... higher CPU package
        // power savings", §6.1).
        Bfs => periodic(
            app,
            32.0,
            init_bursts(0.8, 1, 42.0),
            5.4,
            0.28,
            108.0,
            2.0,
            0.45,
            u_lat,
        ),
        Pathfinder => periodic(
            app,
            30.0,
            init_bursts(0.8, 1, 40.0),
            5.0,
            0.28,
            104.0,
            2.5,
            0.45,
            u_lat,
        ),
        Gemm => {
            // Jaccard 0.71: several brief init bursts land in the warm-up.
            periodic(
                app,
                26.0,
                init_bursts(2.3, 5, 75.0),
                5.2,
                0.2,
                110.0,
                2.0,
                0.4,
                u,
            )
        }
        Kmeans => periodic(
            app,
            30.0,
            init_bursts(1.0, 2, 45.0),
            5.0,
            0.28,
            106.0,
            3.0,
            0.45,
            u,
        ),
        Sort => periodic(
            app,
            28.0,
            init_bursts(0.9, 2, 45.0),
            4.6,
            0.28,
            108.0,
            3.5,
            0.5,
            u,
        ),
        Where => periodic(
            app,
            26.0,
            init_bursts(0.7, 1, 40.0),
            5.0,
            0.28,
            102.0,
            2.5,
            0.45,
            u_lat,
        ),
        Nw => periodic(
            app,
            30.0,
            init_bursts(0.8, 1, 42.0),
            4.8,
            0.28,
            105.0,
            3.0,
            0.5,
            u,
        ),
        Raytracing => periodic(
            app,
            34.0,
            init_bursts(1.2, 2, 60.0),
            4.8,
            0.2,
            100.0,
            4.0,
            0.5,
            u,
        ),

        // --- Moderately memory-active kernels.
        Cfd => periodic(
            app,
            32.0,
            init_bursts(1.0, 2, 70.0),
            3.8,
            0.28,
            106.0,
            5.0,
            0.55,
            u,
        ),
        CfdDouble => {
            // Jaccard 0.63: init bursts inside warm-up.
            periodic(
                app,
                22.0,
                init_bursts(2.6, 6, 80.0),
                4.2,
                0.22,
                112.0,
                5.0,
                0.58,
                u,
            )
        }
        Lavamd => periodic(
            app,
            30.0,
            init_bursts(1.0, 2, 60.0),
            3.6,
            0.3,
            104.0,
            6.0,
            0.55,
            u,
        ),
        Fdtd2d => {
            // Jaccard 0.40: "multiple brief bursts during the initialization
            // phase ... before MAGUS starts uncore scaling" — the densest
            // init-burst pattern in the suite, with a ~3% perf loss.
            periodic(
                app,
                16.0,
                init_bursts(3.9, 9, 85.0),
                4.5,
                0.14,
                108.0,
                5.0,
                0.55,
                u,
            )
        }

        // --- Memory-intensive kernels: least downscaling headroom; the
        // paper names particlefilter_naive and srad as the low-savings end.
        ParticlefilterFloat => periodic(
            app,
            24.0,
            init_bursts(2.4, 6, 85.0),
            2.8,
            0.40,
            110.0,
            10.0,
            0.62,
            u,
        ),
        ParticlefilterNaive => periodic(
            app,
            30.0,
            init_bursts(1.0, 2, 85.0),
            2.2,
            0.55,
            112.0,
            14.0,
            0.65,
            u,
        ),
        Srad => srad_spec(),

        // --- ECP proxy applications.
        MiniGan => periodic(
            app,
            40.0,
            init_bursts(1.5, 2, 45.0),
            4.4,
            0.27,
            85.0,
            5.0,
            0.55,
            UtilSpec::single(0.35, 0.15, 0.6, 0.95),
        ),
        Cradl => periodic(
            app,
            38.0,
            init_bursts(1.2, 2, 65.0),
            4.2,
            0.22,
            78.0,
            4.0,
            0.5,
            UtilSpec::single(0.32, 0.14, 0.55, 0.9),
        ),
        Laghos => periodic(
            app,
            42.0,
            init_bursts(1.0, 1, 42.0),
            5.0,
            0.24,
            80.0,
            4.0,
            0.5,
            UtilSpec::single(0.35, 0.18, 0.5, 0.88),
        ),
        Sw4lite => {
            // Jaccard 0.87: mildly irregular bursts.
            let mut spec = periodic(
                app,
                40.0,
                init_bursts(1.2, 2, 70.0),
                3.8,
                0.3,
                90.0,
                6.0,
                0.55,
                UtilSpec::single(0.35, 0.16, 0.55, 0.9),
            );
            if let Segment::Bursts(b) = &mut spec.segments[0].0 {
                b.jitter = 0.2;
            }
            spec
        }

        // --- Molecular-dynamics applications: frequent small host↔device
        // exchanges every few steps, moderate CPU activity.
        Gromacs => periodic(
            app,
            45.0,
            init_bursts(1.5, 2, 44.0),
            2.8,
            0.4,
            92.0,
            9.0,
            0.6,
            UtilSpec::single(0.45, 0.25, 0.6, 0.85),
        ),
        Lammps => periodic(
            app,
            45.0,
            init_bursts(1.2, 2, 42.0),
            3.2,
            0.33,
            85.0,
            7.0,
            0.55,
            UtilSpec::single(0.42, 0.22, 0.6, 0.85),
        ),

        // --- MLPerf training workloads.
        Unet => {
            // Calibration anchor (Figs 1-2): ≈47 s at max uncore, ≈+21% at
            // min uncore, ≈200 W package at max with ≈82 W uncore headroom.
            periodic(
                app,
                47.0,
                init_bursts(1.6, 2, 46.0),
                4.7,
                0.37,
                113.0,
                6.0,
                0.79,
                UtilSpec::single(0.42, 0.3, 0.55, 0.97),
            )
        }
        Resnet50 => periodic(
            app,
            50.0,
            init_bursts(1.5, 2, 48.0),
            4.0,
            0.3,
            100.0,
            7.0,
            0.58,
            UtilSpec::single(0.4, 0.28, 0.55, 0.96),
        ),
        BertLarge => {
            // Jaccard 0.84: training with occasional fluctuating
            // data-pipeline intervals.
            WorkloadSpec {
                name: app.name().to_string(),
                total_s: 52.0,
                init: init_bursts(1.8, 3, 80.0),
                segments: vec![
                    (
                        Segment::Bursts(BurstTrainSpec {
                            period_s: 4.0,
                            duty: 0.28,
                            burst_bw_gbs: 95.0,
                            quiet_bw_gbs: 8.0,
                            burst_mem_frac: 0.58,
                            quiet_mem_frac: 0.1,
                            jitter: 0.1,
                            ramp_s: 0.6,
                        }),
                        13.5,
                    ),
                    (
                        Segment::Fluctuation(FluctuationSpec {
                            dwell_s: 0.45,
                            high_bw_gbs: 70.0,
                            low_bw_gbs: 8.0,
                            mem_frac: 0.5,
                            jitter: 0.25,
                            ramp_s: 0.0,
                        }),
                        2.5,
                    ),
                ],
                util: UtilSpec::single(0.45, 0.3, 0.6, 0.96),
                seed: seed_for(app),
            }
        }
    }
}

/// SRAD, the §6.2 case study: alternating calm and *high-frequency
/// fluctuation* intervals. Fig 6 shows MAGUS locking the uncore at maximum
/// during roughly seconds 10–12.5 and after second 15; the segment layout
/// mirrors that timeline.
fn srad_spec() -> WorkloadSpec {
    let hf = |dwell: f64| {
        Segment::Fluctuation(FluctuationSpec {
            dwell_s: dwell,
            high_bw_gbs: 120.0,
            low_bw_gbs: 6.0,
            mem_frac: 0.92,
            jitter: 0.35,
            ramp_s: if dwell >= 0.8 { 0.35 } else { 0.0 },
        })
    };
    WorkloadSpec {
        name: AppId::Srad.name().to_string(),
        total_s: 20.0,
        init: init_bursts(1.0, 2, 70.0),
        segments: vec![
            // Ordinary iteration bursts.
            (
                Segment::Bursts(BurstTrainSpec {
                    period_s: 3.0,
                    duty: 0.3,
                    burst_bw_gbs: 88.0,
                    quiet_bw_gbs: 6.0,
                    burst_mem_frac: 0.6,
                    quiet_mem_frac: 0.1,
                    jitter: 0.08,
                    ramp_s: 0.4,
                }),
                3.5,
            ),
            // Slower alternation (trend prediction's home turf).
            (hf(1.0), 3.5),
            // High-frequency fluctuation, dwell comparable to the decision
            // period (lock expected).
            (hf(0.4), 2.5),
            // Calm compute.
            (Segment::Steady(5.0, 0.1), 6.5),
            // High-frequency fluctuation again.
            (hf(0.4), 3.0),
        ],
        util: UtilSpec::single(0.35, 0.15, 0.6, 0.9),
        seed: seed_for(AppId::Srad),
    }
}

/// Multi-GPU overrides: on the 4-GPU node the MD codes add fine-grained
/// inter-GPU halo-exchange phases (per-step alternation the single-GPU
/// runs don't have). These are what make the paper's Fig 4c GROMACS and
/// LAMMPS lose ~7% / ~5% under MAGUS despite its strong CPU power savings:
/// the exchanges alternate at the edge of the 0.3 s decision period.
fn multi_gpu_md_overrides(app: AppId, spec: &mut WorkloadSpec) {
    let exchange = |dwell: f64, high: f64, frac: f64| {
        Segment::Fluctuation(FluctuationSpec {
            dwell_s: dwell,
            // Values are pre-platform-scaling (the 4-GPU node multiplies by
            // 1.9): the exchanges saturate most of the system bandwidth.
            high_bw_gbs: high,
            low_bw_gbs: 5.0,
            mem_frac: frac,
            jitter: 0.3,
            ramp_s: 0.0,
        })
    };
    match app {
        AppId::Gromacs => {
            // Slow-ish alternation MAGUS tracks (and mistimes): big savings
            // on the low dwells, a lag penalty entering every high dwell.
            spec.segments = vec![
                (spec.segments[0].0, 11.0),
                (exchange(1.1, 78.0, 0.95), 14.0),
            ];
        }
        AppId::Lammps => {
            // Faster alternation: the high-frequency lock engages for much
            // of it, trading savings for stability.
            spec.segments = vec![
                (spec.segments[0].0, 13.0),
                (exchange(0.65, 74.0, 0.9), 10.0),
            ];
        }
        _ => {}
    }
}

/// Synthesize `app` for `platform` from scratch: scales memory demand,
/// replicates GPU utilisation across devices, and stretches multi-GPU work
/// slightly (the paper's multi-GPU runs are the same problems at larger
/// scale).
///
/// This always rebuilds the trace. Prefer [`crate::app_trace`], which
/// serves a shared `Arc` from the process-wide intern table and synthesizes
/// each `(AppId, Platform)` key exactly once; this function remains public
/// as the uninterned ground truth the interning tests compare against.
#[must_use]
pub fn synthesize_trace(app: AppId, platform: Platform) -> AppTrace {
    let mut spec = base_spec(app);
    if platform == Platform::Intel4A100 {
        multi_gpu_md_overrides(app, &mut spec);
    }
    let scale = platform.bw_scale();
    if (scale - 1.0).abs() > 1e-12 {
        if let Some(init) = &mut spec.init {
            init.burst_bw_gbs *= scale;
        }
        for (segment, _) in &mut spec.segments {
            match segment {
                Segment::Bursts(b) => {
                    b.burst_bw_gbs *= scale;
                    b.quiet_bw_gbs *= scale;
                }
                Segment::Fluctuation(f) => {
                    f.high_bw_gbs *= scale;
                    f.low_bw_gbs *= scale;
                }
                Segment::Steady(bw, _) => *bw *= scale,
            }
        }
    }
    spec.util = spec.util.across_gpus(platform.gpu_count());
    spec.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intern::app_trace;

    #[test]
    fn catalog_is_complete_and_names_unique() {
        let all = AppId::all();
        assert_eq!(all.len(), 24);
        let mut names: Vec<&str> = all.iter().map(|a| a.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 24);
        for &app in all {
            assert_eq!(AppId::from_name(app.name()), Some(app));
        }
        assert_eq!(AppId::from_name("nonexistent"), None);
    }

    #[test]
    fn every_app_builds_nonempty_traces() {
        for &app in AppId::all() {
            let trace = app_trace(app, Platform::IntelA100);
            assert!(!trace.is_empty(), "{app}");
            assert!(trace.total_work_s() > 10.0, "{app}");
            assert_eq!(trace.name, app.name());
        }
    }

    #[test]
    fn traces_are_deterministic() {
        for &app in AppId::all() {
            assert_eq!(
                app_trace(app, Platform::IntelA100),
                app_trace(app, Platform::IntelA100),
                "{app}"
            );
        }
    }

    #[test]
    fn platform_scaling_raises_demand_and_gpus() {
        let single = app_trace(AppId::Gromacs, Platform::IntelA100);
        let multi = app_trace(AppId::Gromacs, Platform::Intel4A100);
        assert!(multi.peak_mem_demand_gbs() > single.peak_mem_demand_gbs() * 1.5);
        let multi_gpu_util = &multi.phases[0].demand.gpu_util;
        assert_eq!(multi_gpu_util.len(), 4);
    }

    #[test]
    fn srad_has_high_frequency_segments() {
        let trace = app_trace(AppId::Srad, Platform::IntelA100);
        // Count sub-0.25 s phases carrying heavy demand: the hf segments.
        let hf_phases = trace
            .phases
            .iter()
            .filter(|p| p.work_s < 0.55 && p.demand.mem_gbs > 50.0)
            .count();
        assert!(hf_phases > 15, "hf_phases = {hf_phases}");
    }

    #[test]
    fn fdtd2d_init_is_dense() {
        let trace = app_trace(AppId::Fdtd2d, Platform::IntelA100);
        let init_bursts = trace
            .phases
            .iter()
            .filter(|p| {
                p.kind == magus_hetsim::workload::PhaseKind::Init && p.demand.mem_gbs > 50.0
            })
            .count();
        assert!(init_bursts >= 5, "init_bursts = {init_bursts}");
    }

    #[test]
    fn unet_total_work_matches_fig2_runtime() {
        let trace = app_trace(AppId::Unet, Platform::IntelA100);
        assert!((trace.total_work_s() - 47.0).abs() < 0.5);
    }

    #[test]
    fn compute_heavy_apps_have_low_mean_demand() {
        let bfs = app_trace(AppId::Bfs, Platform::IntelA100);
        let pf = app_trace(AppId::ParticlefilterNaive, Platform::IntelA100);
        assert!(bfs.mean_mem_demand_gbs() < pf.mean_mem_demand_gbs() * 0.6);
    }
}
