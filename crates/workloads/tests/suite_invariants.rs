//! Per-application invariants over the whole 20-app suite.

use lazydram_gpu::{apply_functional, run_functional, OpBuf, OpKind};
use lazydram_workloads::{all_apps, util::run_sequence_functional};

const SCALE: f64 = 0.02;

#[test]
fn every_app_has_positive_warp_counts() {
    for app in all_apps() {
        for (i, k) in app.launches(SCALE).iter().enumerate() {
            assert!(k.total_warps() > 0, "{} launch {i} has zero warps", app.name);
        }
    }
}

#[test]
fn annotations_never_cover_outputs() {
    // The `pragma pred_var` regions must not include data the kernel writes:
    // outputs are read back for the error metric and must be exact memory.
    for app in all_apps() {
        // FWT is explicitly in-place (reads == writes); the AMS write-safety
        // check protects it at run time, so it is exempt here.
        if app.name == "FWT" {
            continue;
        }
        let mut launches = app.launches(SCALE);
        let mut image = lazydram_gpu::MemoryImage::new();
        for (li, k) in launches.iter_mut().enumerate() {
            k.setup(&mut image);
            // The annotation must hold *while this launch runs*: later
            // launches may legitimately re-annotate a previous launch's
            // output as their own (read-only) input.
            let mut stores: Vec<u64> = Vec::new();
            for w in 0..k.total_warps() {
                let mut p = k.program(w);
                let mut buf = OpBuf::new();
                let mut loaded: Vec<f32> = Vec::new();
                loop {
                    p.next(&loaded, &mut buf);
                    if buf.kind() == OpKind::Store {
                        stores.extend(buf.writes().iter().map(|&(a, _)| a));
                    }
                    if !apply_functional(&buf, &mut image, &mut loaded) {
                        break;
                    }
                }
            }
            for addr in stores {
                assert!(
                    !k.approximable(addr),
                    "{} launch {li}: store target {addr:#x} is annotated approximable",
                    app.name
                );
            }
        }
    }
}

#[test]
fn programs_issue_nonempty_operations() {
    for app in all_apps() {
        let mut launches = app.launches(SCALE);
        let k = &mut launches[0];
        let mut image = lazydram_gpu::MemoryImage::new();
        k.setup(&mut image);
        let mut p = k.program(0);
        let mut buf = OpBuf::new();
        let mut loaded: Vec<f32> = Vec::new();
        let mut finished = false;
        for _ in 0..10_000 {
            p.next(&loaded, &mut buf);
            match buf.kind() {
                OpKind::Compute(c) => assert!(c > 0, "{}: zero-cycle compute", app.name),
                OpKind::Load => {
                    let runs = buf.runs();
                    assert!(!runs.is_empty(), "{}: empty load", app.name);
                    assert!(runs.iter().all(|r| r.words > 0), "{}: empty run", app.name);
                    assert!(runs.iter().all(|r| r.base % 4 == 0), "{}: unaligned load", app.name);
                }
                OpKind::Store => assert!(!buf.writes().is_empty(), "{}: empty store", app.name),
                OpKind::Finished => {
                    finished = true;
                    break;
                }
            }
            apply_functional(&buf, &mut image, &mut loaded);
        }
        assert!(finished, "{}: warp 0 did not finish in 10k ops", app.name);
    }
}

#[test]
fn outputs_have_stable_lengths_across_runs() {
    for app in all_apps().into_iter().take(6) {
        let a = run_sequence_functional(&mut app.launches(SCALE));
        let b = run_sequence_functional(&mut app.launches(SCALE));
        assert_eq!(a.len(), b.len(), "{}", app.name);
        assert_eq!(a, b, "{} output not deterministic", app.name);
    }
}

#[test]
fn single_launch_apps_work_with_run_functional() {
    for name in ["GEMM", "CONS", "RAY", "SLA"] {
        let app = lazydram_workloads::by_name(name).unwrap();
        let mut launches = app.launches(SCALE);
        assert_eq!(launches.len(), 1, "{name} is single-launch");
        let (out, _) = run_functional(launches[0].as_mut());
        assert!(!out.is_empty());
    }
}
