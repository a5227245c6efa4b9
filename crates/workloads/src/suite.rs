//! The 20-application evaluation suite (Table II of the paper) and
//! convenience runners.

use crate::util::{run_sequence_functional, scaled, scaled_dim2, scaled_dim3};
use crate::{axbench, polybench, sdk, stencil_apps};
use lazydram_common::{GpuConfig, SchedConfig};
use lazydram_gpu::{Kernel, RunResult, SimLimits};

/// One application of the evaluation suite.
#[derive(Clone)]
pub struct AppSpec {
    /// Paper abbreviation (e.g. `"GEMM"`).
    pub name: &'static str,
    /// Result group of Section V (1–4). Groups 1–3 are error tolerant
    /// (AMS applies); group 4 is delay-only.
    pub group: u8,
    /// One-line description from Table II.
    pub description: &'static str,
    builder: fn(f64) -> Vec<Box<dyn Kernel>>,
}

impl std::fmt::Debug for AppSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AppSpec")
            .field("name", &self.name)
            .field("group", &self.group)
            .finish()
    }
}

impl AppSpec {
    /// Builds the app's kernel launches at a work scale (1.0 = paper-sized
    /// inputs for this reproduction; tests use ≤ 0.1).
    pub fn launches(&self, scale: f64) -> Vec<Box<dyn Kernel>> {
        (self.builder)(scale)
    }

    /// `true` when AMS-based schemes are applicable (groups 1–3).
    pub fn error_tolerant(&self) -> bool {
        self.group != 4
    }
}

fn b_gemm(s: f64) -> Vec<Box<dyn Kernel>> {
    vec![Box::new(polybench::Gemm::new(scaled_dim2(384, s, 32)))]
}
fn b_2mm(s: f64) -> Vec<Box<dyn Kernel>> {
    polybench::two_mm(scaled_dim2(256, s, 32))
}
fn b_3mm(s: f64) -> Vec<Box<dyn Kernel>> {
    polybench::three_mm(scaled_dim2(224, s, 32))
}
fn b_mvt(s: f64) -> Vec<Box<dyn Kernel>> {
    polybench::mvt(scaled_dim2(1024, s, 32))
}
fn b_atax(s: f64) -> Vec<Box<dyn Kernel>> {
    polybench::atax(scaled_dim2(1152, s, 32))
}
fn b_bicg(s: f64) -> Vec<Box<dyn Kernel>> {
    polybench::bicg(scaled_dim2(896, s, 32))
}
fn b_3dconv(s: f64) -> Vec<Box<dyn Kernel>> {
    let d = scaled_dim3(64, s, 8);
    vec![Box::new(stencil_apps::conv3d(scaled_dim3(64, s, 32), d, d))]
}
fn b_cons(s: f64) -> Vec<Box<dyn Kernel>> {
    vec![Box::new(stencil_apps::cons(scaled(262_144, s, 128)))]
}
fn b_srad(s: f64) -> Vec<Box<dyn Kernel>> {
    vec![Box::new(stencil_apps::srad(
        scaled_dim2(512, s, 32),
        scaled_dim2(512, s, 8),
    ))]
}
fn b_lps(s: f64) -> Vec<Box<dyn Kernel>> {
    let d = scaled_dim3(64, s, 8);
    vec![Box::new(stencil_apps::lps(scaled_dim3(64, s, 32), d, d))]
}
fn b_meanfilter(s: f64) -> Vec<Box<dyn Kernel>> {
    vec![Box::new(stencil_apps::meanfilter(
        scaled_dim2(512, s, 32),
        scaled_dim2(512, s, 8),
    ))]
}
fn b_laplacian(s: f64) -> Vec<Box<dyn Kernel>> {
    vec![Box::new(stencil_apps::laplacian(
        scaled_dim2(512, s, 32),
        scaled_dim2(512, s, 8),
    ))]
}
fn b_blackscholes(s: f64) -> Vec<Box<dyn Kernel>> {
    vec![Box::new(axbench::blackscholes(scaled(262_144, s, 256)))]
}
fn b_inversek2j(s: f64) -> Vec<Box<dyn Kernel>> {
    vec![Box::new(axbench::inversek2j(scaled(262_144, s, 256)))]
}
fn b_newtonraph(s: f64) -> Vec<Box<dyn Kernel>> {
    vec![Box::new(axbench::newtonraph(scaled(131_072, s, 256)))]
}
fn b_jmeint(s: f64) -> Vec<Box<dyn Kernel>> {
    vec![Box::new(axbench::jmeint(scaled(32_768, s, 128)))]
}
fn b_ray(s: f64) -> Vec<Box<dyn Kernel>> {
    vec![Box::new(sdk::Ray::new(
        scaled_dim2(256, s, 32),
        scaled_dim2(256, s, 8),
        scaled(1_048_576, s, 1024),
    ))]
}
fn b_fwt(s: f64) -> Vec<Box<dyn Kernel>> {
    vec![Box::new(sdk::Fwt::new(scaled(524_288, s, 512), 512))]
}
fn b_scp(s: f64) -> Vec<Box<dyn Kernel>> {
    vec![Box::new(sdk::Scp::new(scaled(16_384, s, 32), 32))]
}
fn b_sla(s: f64) -> Vec<Box<dyn Kernel>> {
    vec![Box::new(sdk::Sla::new(scaled(2_097_152, s, 1024), 1024))]
}

/// The full 20-application suite in Table II order (grouped by thrashing
/// level in the paper; kept in a stable, alphabetical-by-source order here).
pub fn suite() -> Vec<AppSpec> {
    vec![
        AppSpec {
            name: "RAY",
            group: 3,
            description: "Ray tracing",
            builder: b_ray,
        },
        AppSpec {
            name: "inversek2j",
            group: 3,
            description: "Inverse kinematics for 2-joint arm",
            builder: b_inversek2j,
        },
        AppSpec {
            name: "newtonraph",
            group: 4,
            description: "Equation solver",
            builder: b_newtonraph,
        },
        AppSpec {
            name: "FWT",
            group: 4,
            description: "Fast Walsh Transform",
            builder: b_fwt,
        },
        AppSpec {
            name: "MVT",
            group: 2,
            description: "Matrix Vector Product and Transpose",
            builder: b_mvt,
        },
        AppSpec {
            name: "jmeint",
            group: 2,
            description: "Triangle intersection detection",
            builder: b_jmeint,
        },
        AppSpec {
            name: "ATAX",
            group: 4,
            description: "Matrix Transpose, Vector Multiplication",
            builder: b_atax,
        },
        AppSpec {
            name: "3DCONV",
            group: 2,
            description: "3D Convolution",
            builder: b_3dconv,
        },
        AppSpec {
            name: "CONS",
            group: 4,
            description: "1D Convolution",
            builder: b_cons,
        },
        AppSpec {
            name: "srad",
            group: 4,
            description: "Speckle Reducing Anisotropic Diffusion",
            builder: b_srad,
        },
        AppSpec {
            name: "LPS",
            group: 1,
            description: "3D Laplace Solver",
            builder: b_lps,
        },
        AppSpec {
            name: "BICG",
            group: 1,
            description: "BiCGStab Linear Solver",
            builder: b_bicg,
        },
        AppSpec {
            name: "SCP",
            group: 1,
            description: "Scalar products",
            builder: b_scp,
        },
        AppSpec {
            name: "GEMM",
            group: 4,
            description: "Matrix Multiplication",
            builder: b_gemm,
        },
        AppSpec {
            name: "blackscholes",
            group: 4,
            description: "Black-Scholes Option Pricing",
            builder: b_blackscholes,
        },
        AppSpec {
            name: "2MM",
            group: 4,
            description: "2 Matrix Multiplications",
            builder: b_2mm,
        },
        AppSpec {
            name: "3MM",
            group: 3,
            description: "3 Matrix Multiplications",
            builder: b_3mm,
        },
        AppSpec {
            name: "SLA",
            group: 4,
            description: "Scan of Large Arrays",
            builder: b_sla,
        },
        AppSpec {
            name: "meanfilter",
            group: 3,
            description: "Convolution Filter for Noise Reduction",
            builder: b_meanfilter,
        },
        AppSpec {
            name: "laplacian",
            group: 3,
            description: "Image sharpening filter",
            builder: b_laplacian,
        },
    ]
}

/// Looks an application up by (case-insensitive) name.
pub fn by_name(name: &str) -> Option<AppSpec> {
    suite()
        .into_iter()
        .find(|a| a.name.eq_ignore_ascii_case(name))
}

/// All applications in a given result group (1–4).
pub fn group(g: u8) -> Vec<AppSpec> {
    suite().into_iter().filter(|a| a.group == g).collect()
}

/// Runs one application end to end under a scheduling policy.
///
/// Convenience wrapper over [`SimBuilder`](crate::builder::SimBuilder) for
/// tests and one-off probes; anything that wants non-default limits, trace
/// capture or pausing should use the builder directly.
pub fn run_app(app: &AppSpec, cfg: &GpuConfig, sched: &SchedConfig, scale: f64) -> RunResult {
    run_app_limited(app, cfg, sched, scale, SimLimits::default())
}

/// [`run_app`] with explicit safety limits.
pub fn run_app_limited(
    app: &AppSpec,
    cfg: &GpuConfig,
    sched: &SchedConfig,
    scale: f64,
    limits: SimLimits,
) -> RunResult {
    crate::builder::SimBuilder::new(app)
        .gpu(cfg.clone())
        .sched(sched.clone(), "ad-hoc")
        .scale(scale)
        .limits(limits)
        .build()
        .run()
}

/// Computes the application's *exact* output at a scale (functional
/// execution — no timing, no approximation). This equals the timed
/// baseline's output and is the reference for application error.
pub fn exact_output(app: &AppSpec, scale: f64) -> Vec<f32> {
    let mut launches = app.launches(scale);
    run_sequence_functional(&mut launches)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_twenty_apps_with_unique_names() {
        let s = suite();
        assert_eq!(s.len(), 20);
        let names: std::collections::HashSet<_> = s.iter().map(|a| a.name).collect();
        assert_eq!(names.len(), 20);
    }

    #[test]
    fn groups_match_table_ii() {
        assert_eq!(
            group(1).iter().map(|a| a.name).collect::<Vec<_>>(),
            vec!["LPS", "BICG", "SCP"]
        );
        assert_eq!(group(2).len(), 3);
        assert_eq!(group(3).len(), 5);
        assert_eq!(group(4).len(), 9);
        assert!(group(4).iter().all(|a| !a.error_tolerant()));
    }

    #[test]
    fn by_name_is_case_insensitive() {
        assert_eq!(by_name("gemm").unwrap().name, "GEMM");
        assert_eq!(by_name("LAPLACIAN").unwrap().name, "laplacian");
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn every_app_builds_and_runs_functionally_at_tiny_scale() {
        for app in suite() {
            let out = exact_output(&app, 0.02);
            assert!(!out.is_empty(), "{} produced no output", app.name);
            assert!(
                out.iter().all(|v| v.is_finite()),
                "{} produced non-finite output",
                app.name
            );
        }
    }

    #[test]
    fn exact_output_is_deterministic() {
        let app = by_name("GEMM").unwrap();
        assert_eq!(exact_output(&app, 0.02), exact_output(&app, 0.02));
    }
}
