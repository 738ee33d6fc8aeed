//! The serving daemon: bootstrap parity with direct sessions, atomic
//! apply semantics (validate-before-swap, old snapshot keeps serving on
//! failure), and typed rejections surfacing through the daemon.

use hpacml_directive::sema::Bindings;
use hpacml_nn::spec::{Activation, ModelSpec};
use hpacml_serve::{DaemonBuilder, DaemonError};
use std::path::{Path, PathBuf};
use std::sync::mpsc::RecvTimeoutError;
use std::time::Duration;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("hpacml-daemon-api").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn save_mlp(path: &Path, seed: u64) {
    let spec = ModelSpec::mlp(3, &[8], 1, Activation::Tanh, 0.0);
    let mut model = spec.build(seed).unwrap();
    hpacml_nn::serialize::save_model(path, &spec, &mut model, None, None).unwrap();
}

/// 3-feature / 1-output infer directive bound to `model`.
fn directive_src(model: &Path) -> String {
    format!(
        r#"#pragma approx tensor functor(rows: [i, 0:3] = ([3*i : 3*i+3]))
#pragma approx tensor functor(single: [i, 0:1] = ([i]))
#pragma approx tensor map(to: rows(x[0:N]))
#pragma approx ml(infer) in(x) out(single(y[0:N])) model("{}")"#,
        model.display()
    )
}

/// Escape a string for embedding in config double quotes.
fn esc(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
        .replace('\t', "\\t")
}

fn region_cfg(name: &str, model: &Path, body: &str) -> String {
    format!(
        "region {name} {{\n directive \"{}\";\n bind N 1;\n input x 3;\n output y 1;\n {body}\n}}\n",
        esc(&directive_src(model))
    )
}

/// Direct per-sample reference through an ordinary session.
fn direct_outputs(model: &Path, samples: &[[f32; 3]]) -> Vec<f32> {
    let region = hpacml_core::Region::from_source("direct-ref", &directive_src(model)).unwrap();
    let binds = Bindings::new().with("N", 1);
    let session = region
        .session(&binds, &[("x", &[3]), ("y", &[1])], 4)
        .unwrap();
    samples
        .iter()
        .map(|s| {
            let mut y = [0.0f32; 1];
            let mut out = session
                .invoke()
                .input("x", s)
                .unwrap()
                .run(|| unreachable!())
                .unwrap();
            out.output("y", &mut y).unwrap();
            out.finish().unwrap();
            y[0]
        })
        .collect()
}

fn sample(i: usize) -> [f32; 3] {
    [
        (i as f32 * 0.37).sin(),
        (i as f32 * 0.11).cos(),
        i as f32 * 0.05 - 0.4,
    ]
}

#[test]
fn bootstrap_serves_bit_identical_to_direct_session() {
    let dir = tmpdir("bootstrap");
    let model = dir.join("m.hml");
    save_mlp(&model, 7);
    let samples: Vec<[f32; 3]> = (0..6).map(sample).collect();
    let direct = direct_outputs(&model, &samples);

    let cfg = region_cfg("demo", &model, "max_batch 4;\n max_wait 100us;");
    let daemon = DaemonBuilder::new().bootstrap(&cfg).unwrap();
    assert_eq!(daemon.generation(), 1);
    assert_eq!(daemon.snapshot().region_names(), vec!["demo".to_string()]);

    for (s, want) in samples.iter().zip(&direct) {
        let mut y = [0.0f32; 1];
        daemon.submit("demo", &[s], &mut [&mut y]).unwrap();
        assert_eq!(y[0], *want, "daemon output must match the direct session");
    }
    let stats = daemon.stats();
    assert_eq!(stats.served, 6);
    assert_eq!(stats.errored, 0);
    assert_eq!(stats.swaps, 0);

    // Unknown region and arity misuse are typed, not panics.
    let mut y = [0.0f32; 1];
    let err = daemon
        .submit("nope", &[&sample(0)], &mut [&mut y])
        .unwrap_err();
    assert!(
        matches!(err, DaemonError::UnknownRegion { generation: 1, .. }),
        "{err}"
    );
    let err = daemon
        .submit("demo", &[&[0.0; 2]], &mut [&mut y])
        .unwrap_err();
    assert!(matches!(err, DaemonError::Arity { .. }), "{err}");

    daemon.shutdown();
    let err = daemon
        .submit("demo", &[&sample(0)], &mut [&mut y])
        .unwrap_err();
    assert!(matches!(err, DaemonError::ShutDown), "{err}");
    let err = daemon.apply(&cfg).unwrap_err();
    assert!(matches!(err, DaemonError::ShutDown), "{err}");
}

#[test]
fn apply_swaps_model_and_limits_atomically() {
    let dir = tmpdir("apply");
    let (v1, v2) = (dir.join("v1.hml"), dir.join("v2.hml"));
    save_mlp(&v1, 3);
    save_mlp(&v2, 11);
    let samples: Vec<[f32; 3]> = (0..4).map(sample).collect();
    let d1 = direct_outputs(&v1, &samples);
    let d2 = direct_outputs(&v2, &samples);
    assert_ne!(d1, d2, "seeds must produce distinguishable models");

    let daemon = DaemonBuilder::new()
        .bootstrap(&region_cfg("demo", &v1, "max_batch 8;\n max_wait 100us;"))
        .unwrap();
    let mut y = [0.0f32; 1];
    daemon
        .submit("demo", &[&samples[0]], &mut [&mut y])
        .unwrap();
    assert_eq!(y[0], d1[0]);

    // The new config keeps the v1 directive but overrides the model path —
    // the `model` key must win over the directive's model clause.
    let mut cfg2 = region_cfg("demo", &v1, "max_batch 2;\n max_wait 50us;");
    cfg2 = cfg2.replace(
        " bind N 1;",
        &format!(" model \"{}\";\n bind N 1;", esc(&v2.display().to_string())),
    );
    let report = daemon.apply(&cfg2).unwrap();
    assert_eq!(report.generation, 2);
    assert_eq!(report.regions, vec!["demo".to_string()]);
    assert_eq!(daemon.generation(), 2);

    for (s, want) in samples.iter().zip(&d2) {
        let mut y = [0.0f32; 1];
        daemon.submit("demo", &[s], &mut [&mut y]).unwrap();
        assert_eq!(y[0], *want, "post-swap output must come from the new model");
    }
    let stats = daemon.stats();
    assert_eq!(stats.swaps, 1);
    assert_eq!(stats.errored, 0);
    assert_eq!(daemon.snapshot().config().regions[0].max_batch, 2);
}

#[test]
fn failed_apply_keeps_the_old_snapshot_serving() {
    let dir = tmpdir("failed-apply");
    let v1 = dir.join("v1.hml");
    save_mlp(&v1, 5);
    let samples = [sample(0)];
    let d1 = direct_outputs(&v1, &samples);

    let daemon = DaemonBuilder::new()
        .bootstrap(&region_cfg("demo", &v1, "max_batch 4;\n max_wait 100us;"))
        .unwrap();

    // Unparseable text: typed config error, nothing swapped.
    let err = daemon.apply("region { ").unwrap_err();
    assert!(matches!(err, DaemonError::Config(_)), "{err}");

    // Valid config, missing model: the shadow probe fails the build, the
    // candidate never serves, the old snapshot is untouched.
    let missing = dir.join("missing.hml");
    let err = daemon
        .apply(&region_cfg(
            "demo",
            &missing,
            "max_batch 4;\n max_wait 100us;",
        ))
        .unwrap_err();
    match &err {
        DaemonError::Build { region, msg } => {
            assert_eq!(region, "demo");
            assert!(msg.contains("probe"), "probe failure must be named: {msg}");
        }
        other => panic!("expected Build, got: {other}"),
    }

    assert_eq!(
        daemon.generation(),
        1,
        "failed applies must not bump the generation"
    );
    assert_eq!(daemon.stats().swaps, 0);
    let mut y = [0.0f32; 1];
    daemon
        .submit("demo", &[&samples[0]], &mut [&mut y])
        .unwrap();
    assert_eq!(
        y[0], d1[0],
        "old snapshot keeps serving after failed applies"
    );
}

#[test]
fn validation_policy_requires_a_host_handler() {
    let dir = tmpdir("validation-handler");
    let v1 = dir.join("v1.hml");
    save_mlp(&v1, 9);
    let body =
        "max_batch 4;\n max_wait 100us;\n validation { metric rmse; budget 1000000.0; rate 1000; }";
    let cfg = region_cfg("demo", &v1, body);

    let err = DaemonBuilder::new().bootstrap(&cfg).unwrap_err();
    match &err {
        DaemonError::Build { region, msg } => {
            assert_eq!(region, "demo");
            assert!(msg.contains("host handler"), "{msg}");
        }
        other => panic!("expected Build, got: {other}"),
    }

    // With a handler registered the same config serves.
    let daemon = DaemonBuilder::new()
        .host_handler("demo", |n, _ins, outs: &mut [Vec<f32>]| {
            for out in outs.iter_mut() {
                for v in out.iter_mut().take(n) {
                    *v = 42.0;
                }
            }
        })
        .bootstrap(&cfg)
        .unwrap();
    let mut y = [0.0f32; 1];
    daemon.submit("demo", &[&sample(1)], &mut [&mut y]).unwrap();
    assert_eq!(daemon.stats().served, 1);
}

#[test]
fn rejections_are_typed_through_the_daemon() {
    let dir = tmpdir("rejections");
    let v1 = dir.join("v1.hml");
    save_mlp(&v1, 13);
    // Three regions, one per rejection mode:
    //  dl: huge max_wait so a budgeted join is up-front rejected;
    //  ol: max_pending 1 so a second staged sample is shed;
    //  qd: one worker so a queued request can out-wait its budget.
    let cfg = [
        region_cfg("dl", &v1, "max_batch 2;\n max_wait 30s;\n workers 2;"),
        region_cfg(
            "ol",
            &v1,
            "max_batch 2;\n max_wait 300ms;\n max_pending 1;\n workers 2;",
        ),
        region_cfg("qd", &v1, "max_batch 4;\n max_wait 300ms;\n workers 1;"),
    ]
    .join("\n");
    let daemon = &DaemonBuilder::new().bootstrap(&cfg).unwrap();

    // --- Deadline: a parked leader makes the flush horizon ~30s; a 50ms
    // budget cannot make that join and is rejected up front. (A budgeted
    // submit that *leads* instead waits out min(max_wait, budget) — the
    // rejection is only decided against an already-forming batch.)
    std::thread::scope(|scope| {
        let leader = scope.spawn(move || {
            let mut y = [0.0f32; 1];
            daemon
                .submit("dl", &[&sample(0)], &mut [&mut y])
                .map(|()| y[0])
        });
        // Let the leader stage and park; staging takes microseconds once a
        // worker pops it off the daemon queue.
        std::thread::sleep(Duration::from_millis(200));
        let mut y = [0.0f32; 1];
        let err = daemon
            .submit_with_deadline(
                "dl",
                &[&sample(0)],
                &mut [&mut y],
                Duration::from_millis(50),
            )
            .unwrap_err();
        assert!(
            matches!(err.serve(), Some(hpacml_core::ServeError::Deadline { .. })),
            "up-front join rejection must be the core typed error: {err}"
        );
        assert!(err.is_deadline());
        // Fill the 2-slot batch so the parked leader flushes now.
        daemon.submit("dl", &[&sample(0)], &mut [&mut y]).unwrap();
        let lead = leader.join().unwrap().unwrap();
        assert_eq!(lead, y[0], "same sample in the same batch, same result");
    });

    // --- Overload: while one sample is staged, cap 1 sheds the next.
    std::thread::scope(|scope| {
        let leader = scope.spawn(move || {
            let mut y = [0.0f32; 1];
            daemon.submit("ol", &[&sample(1)], &mut [&mut y])
        });
        std::thread::sleep(Duration::from_millis(60));
        let mut y = [0.0f32; 1];
        let err = daemon
            .submit_with_deadline(
                "ol",
                &[&sample(1)],
                &mut [&mut y],
                Duration::from_millis(50),
            )
            .unwrap_err();
        assert!(
            err.is_overloaded(),
            "cap 1 must shed the second sample: {err}"
        );
        leader.join().unwrap().unwrap();
    });

    // --- Queue deadline: the only worker is parked with a 300ms leader;
    // a 20ms-budget request expires in the daemon queue behind it.
    std::thread::scope(|scope| {
        let leader = scope.spawn(move || {
            let mut y = [0.0f32; 1];
            daemon.submit("qd", &[&sample(2)], &mut [&mut y])
        });
        // Give the lone worker time to pick up the leader.
        std::thread::sleep(Duration::from_millis(60));
        let mut y = [0.0f32; 1];
        let err = daemon
            .submit_with_deadline(
                "qd",
                &[&sample(3)],
                &mut [&mut y],
                Duration::from_millis(20),
            )
            .unwrap_err();
        match &err {
            DaemonError::QueueDeadline {
                region,
                budget_ns,
                queued_ns,
            } => {
                assert_eq!(region, "qd");
                assert_eq!(*budget_ns, 20_000_000);
                assert!(queued_ns > budget_ns);
            }
            other => panic!("expected QueueDeadline, got: {other}"),
        }
        assert!(err.is_deadline());
        leader.join().unwrap().unwrap();
    });

    let stats = daemon.stats();
    assert!(stats.rejected_deadline >= 2, "{stats:?}");
    assert!(stats.rejected_overload >= 1, "{stats:?}");
    assert_eq!(stats.errored, 0, "{stats:?}");
}

#[test]
fn per_region_deadline_default_applies_from_config() {
    let dir = tmpdir("config-deadline");
    let v1 = dir.join("v1.hml");
    save_mlp(&v1, 17);
    // workers 1 + a parked 300ms leader: the configured 20ms deadline
    // rejects the queued request without the caller passing a budget.
    let cfg = region_cfg(
        "demo",
        &v1,
        "max_batch 4;\n max_wait 300ms;\n workers 1;\n deadline 20ms;",
    );
    let daemon = &DaemonBuilder::new().bootstrap(&cfg).unwrap();
    std::thread::scope(|scope| {
        let leader = scope.spawn(move || {
            let mut y = [0.0f32; 1];
            // An explicit generous budget overrides the config default.
            daemon.submit_with_deadline(
                "demo",
                &[&sample(0)],
                &mut [&mut y],
                Duration::from_secs(5),
            )
        });
        std::thread::sleep(Duration::from_millis(60));
        let mut y = [0.0f32; 1];
        let err = daemon
            .submit("demo", &[&sample(1)], &mut [&mut y])
            .unwrap_err();
        assert!(err.is_deadline(), "config deadline must apply: {err}");
        leader.join().unwrap().unwrap();
    });
}

/// Run `f` on a helper thread: a call still running after `secs` fails
/// the test instead of hanging it.
fn within<T: Send + 'static>(secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    let helper = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(out) => {
            helper.join().expect("the helper exits after sending");
            out
        }
        // The helper may be parked for good: leave it detached.
        Err(RecvTimeoutError::Timeout) => panic!("the call did not return within {secs} s"),
        Err(RecvTimeoutError::Disconnected) => match helper.join() {
            Err(panic) => std::panic::resume_unwind(panic),
            Ok(()) => unreachable!("the helper sends before it exits"),
        },
    }
}

#[test]
fn overflowing_max_batch_fails_the_build_instead_of_hanging() {
    let dir = tmpdir("overflow");
    let model = dir.join("m.hml");
    save_mlp(&model, 9);
    let samples = [sample(0)];
    let direct = direct_outputs(&model, &samples);
    // `usize::MAX / 2` samples of the 3-element input overflow `usize`.
    let bad = region_cfg("demo", &model, &format!("max_batch {};", usize::MAX / 2));
    let assert_build_error = |err: DaemonError| match err {
        DaemonError::Build { region, msg } => {
            assert_eq!(region, "demo");
            assert!(msg.contains("max_batch"), "overflow must be named: {msg}");
        }
        other => panic!("expected a build error, got {other}"),
    };

    let cfg = bad.clone();
    let err = within(30, move || DaemonBuilder::new().bootstrap(&cfg).map(|_| ()));
    assert_build_error(err.unwrap_err());

    let daemon = DaemonBuilder::new()
        .bootstrap(&region_cfg(
            "demo",
            &model,
            "max_batch 4;\n max_wait 100us;",
        ))
        .unwrap();
    let (daemon, applied) = within(30, move || {
        let applied = daemon.apply(&bad).map(|_| ());
        (daemon, applied)
    });
    assert_build_error(applied.unwrap_err());
    // The old snapshot keeps serving.
    assert_eq!(daemon.generation(), 1);
    let mut y = [0.0f32; 1];
    daemon
        .submit("demo", &[&samples[0]], &mut [&mut y])
        .unwrap();
    assert_eq!(y[0], direct[0]);
}
