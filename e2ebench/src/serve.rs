//! `serve`: the `hpacml-serve` daemon with one region under live applies.
//!
//! Two caller threads each submit one sample of a 3→16→16→1 Tanh MLP and
//! wait for it (`max_batch 2`, `max_wait 100us`, no `workers` key). Caller
//! 0 also applies a config that alternates between two model files every
//! 50 ms, between its own submits. Every output must be bitwise one of the
//! two models' results. The traced run also measures, in the same process,
//! the floors the daemon is compared with: one caller on `Session::invoke`
//! and the same two-caller load sent straight into `BatchServer::submit`.

use crate::common::*;
use crate::trace::{self, Span, Tracer};
use hpacml_apps::common::GenRng;
use hpacml_core::{BatchServer, PathTaken, Region, Session};
use hpacml_directive::sema::Bindings;
use hpacml_nn::spec::{Activation, ModelSpec};
use hpacml_serve::{Daemon, DaemonBuilder};
use hpacml_tensor::Tensor;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const CALLERS: usize = 2;
const FEATURES: usize = 3;
const REGION: &str = "demo";
const MAX_BATCH: usize = 2;
const MAX_WAIT: Duration = Duration::from_micros(100);
const APPLY_EVERY: Duration = Duration::from_millis(50);
/// Length of each floor phase of the traced run.
const FLOOR_SECONDS: f64 = 2.0;

const DIRECTIVE: &str = "#pragma approx tensor functor(rows: [i, 0:3] = ([3*i : 3*i+3]))
#pragma approx tensor functor(single: [i, 0:1] = ([i]))
#pragma approx tensor map(to: rows(x[0:N]))
#pragma approx ml(infer) in(x) out(single(y[0:N]))";

struct Fixture {
    models: [PathBuf; 2],
    configs: [String; 2],
    samples: [[f32; FEATURES]; CALLERS],
    /// `expect[caller][model]`: the caller's output under each model.
    expect: [[f32; 2]; CALLERS],
}

fn config_for(model: &Path) -> String {
    let esc = |s: &str| {
        s.replace('\\', "\\\\")
            .replace('"', "\\\"")
            .replace('\n', "\\n")
    };
    format!(
        "region {REGION} {{\n directive \"{}\";\n model \"{}\";\n bind N 1;\n input x {FEATURES};\n \
         output y 1;\n max_batch {MAX_BATCH};\n max_wait {}us;\n}}\n",
        esc(DIRECTIVE),
        esc(&model.display().to_string()),
        MAX_WAIT.as_micros()
    )
}

fn region(name: &str, model: &Path) -> Res<Region> {
    Region::builder(name)
        .directive(DIRECTIVE)
        .model(model)
        .build()
        .map_err(at("build region"))
}

fn session(region: &Region, max_batch: usize) -> Res<Session<'_>> {
    region
        .session(
            &Bindings::new().with("N", 1),
            &[("x", &[FEATURES]), ("y", &[1])],
            max_batch,
        )
        .map_err(at("compile session"))
}

/// One `Session::invoke`; `Ok(None)` when the host code ran.
fn invoke(session: &Session<'_>, x: &[f32]) -> hpacml_core::Result<Option<f32>> {
    let mut y = [f32::NAN];
    let mut host_ran = false;
    let mut outcome = session.invoke().input("x", x)?.run(|| host_ran = true)?;
    outcome.output("y", &mut y)?;
    let path = outcome.finish()?;
    Ok((!host_ran && path == PathTaken::Surrogate).then_some(y[0]))
}

fn fixture(ctx: &Ctx, dir: &Path) -> Res<Fixture> {
    let spec = ModelSpec::mlp(FEATURES, &[16, 16], 1, Activation::Tanh, 0.0);
    let models = [dir.join("a.hml"), dir.join("b.hml")];
    for (k, path) in models.iter().enumerate() {
        let mut net = spec
            .build(ctx.seed.wrapping_mul(2).wrapping_add(k as u64))
            .map_err(at("build model"))?;
        hpacml_nn::serialize::save_model(path, &spec, &mut net, None, None)
            .map_err(at("save_model"))?;
    }
    let mut rng = GenRng::new(ctx.seed);
    let samples: [[f32; FEATURES]; CALLERS] =
        std::array::from_fn(|_| std::array::from_fn(|_| rng.range(-1.0, 1.0)));
    // References: a one-sample session per model, outside the daemon.
    let mut expect = [[0.0f32; 2]; CALLERS];
    for (k, path) in models.iter().enumerate() {
        let r = region("serve-reference", path)?;
        let s = session(&r, 1)?;
        for (c, x) in samples.iter().enumerate() {
            expect[c][k] = invoke(&s, x)
                .map_err(at("reference invocation"))?
                .ok_or("reference invocation ran the host code")?;
        }
    }
    if ctx.corrupt_reference {
        corrupt(&mut expect[0][0]);
    }
    let configs = [config_for(&models[0]), config_for(&models[1])];
    Ok(Fixture {
        models,
        configs,
        samples,
        expect,
    })
}

/// Caller 0's control-plane work: the live applies and the batch-fill
/// counters, read before each apply because region stats restart there.
#[derive(Default)]
struct Applies {
    next_model: usize,
    ms: Vec<f64>,
    failed: u64,
    submitted: u64,
    flushed: u64,
}

impl Applies {
    fn read_fill(&mut self, daemon: &Daemon) {
        if let Some(s) = daemon.region_stats(REGION) {
            self.submitted += s.batch_submitted;
            self.flushed += s.batches_flushed;
        }
    }

    fn apply(&mut self, daemon: &Daemon, f: &Fixture) {
        self.next_model ^= 1;
        self.read_fill(daemon);
        let t0 = Instant::now();
        let res = daemon.apply(&f.configs[self.next_model]);
        self.ms.push(t0.elapsed().as_secs_f64() * 1e3);
        if res.is_err() {
            self.failed += 1;
        }
    }
}

/// One closed-loop caller against the daemon. Outcomes come from the
/// return value of `submit` alone; typed rejections count as failures.
fn caller(
    daemon: &Daemon,
    f: &Fixture,
    c: usize,
    (start, end): (Instant, Instant),
    stop: &AtomicBool,
    mut tr: Tracer,
    mut applies: Option<&mut Applies>,
) -> (Phase, Vec<Span>) {
    let x = &f.samples[c];
    let mut phase = Phase::new(start);
    let mut next_apply = start + APPLY_EVERY;
    let mut k = 0u64;
    while Instant::now() < end && !stop.load(Ordering::Relaxed) {
        if let Some(a) = applies.as_deref_mut() {
            if Instant::now() >= next_apply {
                a.apply(daemon, f);
                next_apply += APPLY_EVERY;
            }
        }
        let mut y = [f32::NAN];
        let t0 = Instant::now();
        let root = tr.begin_op("serve.op", k * CALLERS as u64 + c as u64);
        let res = tr.span("serve.submit", || {
            daemon.submit(REGION, &[x], &mut [&mut y])
        });
        tr.end(root);
        let ns = ns_since(t0);
        let ok = match res {
            Ok(()) => f.expect[c].iter().any(|e| e.to_bits() == y[0].to_bits()),
            Err(e) => {
                if !(e.is_overloaded() || e.is_deadline()) {
                    eprintln!("e2ebench: serve: submit failed: {e}");
                }
                false
            }
        };
        phase.record(Op { ns, samples: 1, ok });
        k += 1;
        if tr.full() {
            // Both callers stop together, so neither runs on alone.
            stop.store(true, Ordering::Relaxed);
        }
    }
    phase.elapsed_s = start.elapsed().as_secs_f64();
    (phase, tr.into_spans())
}

/// Both callers for `seconds`, traced or not.
fn daemon_phase(
    daemon: &Daemon,
    f: &Fixture,
    seconds: f64,
    traced: bool,
    applies: &mut Applies,
) -> (Phase, Vec<Span>) {
    let start = Instant::now();
    let window = (start, start + Duration::from_secs_f64(seconds));
    let stop = &AtomicBool::new(false);
    let (first, other) = std::thread::scope(|s| {
        let other =
            s.spawn(move || caller(daemon, f, 1, window, stop, Tracer::new(traced, start), None));
        let first = caller(
            daemon,
            f,
            0,
            window,
            stop,
            Tracer::new(traced, start),
            Some(applies),
        );
        (first, other.join().expect("caller thread panicked"))
    });
    let (mut phase, spans) = first;
    phase.merge(other.0);
    (phase, trace::concat(vec![spans, other.1]))
}

pub fn run(ctx: &Ctx) -> Res<Measured> {
    let mut clock = SetupClock::new(ctx);
    loop {
        let f = fixture(ctx, &clock.dir(ctx)?)?;
        let t0 = Instant::now();
        let daemon = DaemonBuilder::new()
            .bootstrap(&f.configs[0])
            .map_err(at("bootstrap daemon"))?;
        let bootstrap_ms = t0.elapsed().as_secs_f64() * 1e3;
        for x in &f.samples {
            let mut y = [0.0f32];
            daemon
                .submit(REGION, &[x], &mut [&mut y])
                .map_err(at("warm-up submit"))?;
        }
        if !clock.lap() {
            continue;
        }
        return measure(ctx, &f, &daemon, &clock, bootstrap_ms);
    }
}

fn measure(
    ctx: &Ctx,
    f: &Fixture,
    daemon: &Daemon,
    clock: &SetupClock,
    bootstrap_ms: f64,
) -> Res<Measured> {
    let mut m = Measured::default();
    let mut applies = Applies::default();
    let (untraced_s, traced_s) = ctx.phase_seconds();
    let retries0 = daemon.stats().swap_retries;
    let (base, _) = daemon_phase(daemon, f, untraced_s, false, &mut applies);
    if !ctx.trace {
        m.checks.push(("live applies succeed", applies.failed == 0));
        m.end_to_end(&base, clock);
        m.notes.push(format!("{} live applies", applies.ms.len()));
        return Ok(m);
    }
    let pool0 = hpacml_par::global().stats();
    let (traced, spans) = daemon_phase(daemon, f, traced_s, true, &mut applies);
    let pool = hpacml_par::global().stats().delta_since(&pool0);
    applies.read_fill(daemon);
    m.checks.push(("live applies succeed", applies.failed == 0));
    let analysis = finish_trace(ctx, "serve", &spans);
    m.traced_common("serve.unattributed_us", &base, &traced, &analysis, &pool);
    m.set("serve.apply_ms", median(&applies.ms));
    m.set(
        "serve.swap_retries",
        (daemon.stats().swap_retries - retries0) as f64,
    );
    m.set("serve.bootstrap_ms", bootstrap_ms);
    m.set(
        "core.batch_fill",
        applies.submitted as f64 / applies.flushed.max(1) as f64,
    );

    // Floors, same process, same model (a), after the daemon phases.
    let floor_region = region("serve-floor", &f.models[0])?;
    let t0 = Instant::now();
    let one = session(&floor_region, 1)?;
    m.set("core.session_compile_ms", t0.elapsed().as_secs_f64() * 1e3);
    let x0 = &f.samples[0];
    let session_floor = closed_loop(FLOOR_SECONDS, &mut Tracer::new(false, t0), 0, |_, _| {
        let t0 = Instant::now();
        let y = invoke(&one, x0);
        let ns = ns_since(t0);
        let ok = matches!(y, Ok(Some(v)) if v.to_bits() == f.expect[0][0].to_bits());
        Op { ns, samples: 1, ok }
    });
    let two = session(&floor_region, MAX_BATCH)?;
    let server = BatchServer::new(&two, MAX_WAIT).map_err(at("BatchServer::new"))?;
    let mut server_floor = Phase::new(Instant::now());
    std::thread::scope(|s| {
        let threads: Vec<_> = (0..CALLERS)
            .map(|c| {
                let server = &server;
                s.spawn(move || {
                    let x = &f.samples[c];
                    let mut tr = Tracer::new(false, Instant::now());
                    closed_loop(FLOOR_SECONDS, &mut tr, 0, |_, _| {
                        let mut y = [f32::NAN];
                        let t0 = Instant::now();
                        let res = server.submit(&[x], &mut [&mut y]);
                        let ns = ns_since(t0);
                        let ok = res.is_ok() && y[0].to_bits() == f.expect[c][0].to_bits();
                        Op { ns, samples: 1, ok }
                    })
                })
            })
            .collect();
        for t in threads {
            server_floor.merge(t.join().expect("floor caller panicked"));
        }
    });
    server.shutdown();
    m.count(&session_floor);
    m.count(&server_floor);
    let daemon_p50 = base.pct_us(0.50);
    let server_p50 = server_floor.pct_us(0.50);
    let session_p50 = session_floor.pct_us(0.50);
    m.set("core.session_p50_us", session_p50);
    m.set("core.batchserver_p50_us", server_p50);
    m.set("serve.self_us", daemon_p50 - server_p50);
    let x = Tensor::from_vec(x0.to_vec(), [1, FEATURES]).map_err(at("replay input"))?;
    record_layers(&mut m, &f.models[0], &x)?;

    m.notes.push(format!(
        "daemon p50 {daemon_p50:.2} us = {:.2}x session floor {session_p50:.2} us; \
         BatchServer floor {server_p50:.2} us; {} live applies",
        daemon_p50 / session_p50.max(1e-9),
        applies.ms.len()
    ));
    m.premise(
        &format!(
            "serve.self_us {:.2} us is {:.1}% of the daemon p50 (want > 50%)",
            daemon_p50 - server_p50,
            (daemon_p50 - server_p50) / daemon_p50.max(1e-9) * 100.0
        ),
        daemon_p50 - server_p50 > 0.5 * daemon_p50,
    );
    Ok(m)
}
