//! `stencil`: the MiniWeather region at batch 1, with data collection.
//!
//! Episodes of 256 timesteps start from the rising-bubble state (with a
//! small seeded perturbation). Every 16th step runs the host physics and is
//! collected into the region's db; the others run the CNN surrogate
//! (`MiniWeather::cnn_spec(32, 64, 4, 3)`, seeded random weights). Surrogate
//! outputs land in a scratch buffer and never feed the physics, so random
//! weights cannot wreck the state. Each episode ends by flushing the db,
//! reopening it with `H5File::open` and checking it; the next episode
//! collects into a fresh file.

use crate::common::*;
use crate::trace::Tracer;
use hpacml_apps::common::GenRng;
use hpacml_apps::miniweather::{self, MiniWeather, Sim, ID_RHOT};
use hpacml_apps::Benchmark;
use hpacml_core::{PathTaken, Region, Session};
use hpacml_store::H5File;
use hpacml_tensor::Tensor;
use std::path::{Path, PathBuf};
use std::time::Instant;

const NX: usize = 64;
const NZ: usize = 32;
const VARS: usize = miniweather::NUM_VARS;
const EPISODE: u64 = 256;
/// Every `COLLECT_EVERY`-th step is accurate and collected.
const COLLECT_EVERY: u64 = 16;
const COLLECTED: usize = (EPISODE / COLLECT_EVERY) as usize;

struct Fixture {
    spec: hpacml_nn::ModelSpec,
    model: PathBuf,
    db: PathBuf,
    region: Region,
    start: Sim,
    /// Interior state after `k` accurate steps, `k = 0..=COLLECTED`.
    states: Vec<Vec<f32>>,
    /// Surrogate output for `states[k]` (index 0 unused).
    expect: Vec<Vec<f32>>,
}

fn build_region(model: &Path, db: Option<&Path>) -> Res<Region> {
    let mut b = Region::builder("miniweather").model(model);
    for d in MiniWeather.directives() {
        b = b.directive(d);
    }
    if let Some(db) = db {
        b = b.database(db);
    }
    b.build().map_err(at("build region"))
}

fn fixture(ctx: &Ctx, dir: &Path) -> Res<Fixture> {
    let mut start = Sim::new(NX, NZ);
    let mut interior = start.interior();
    let mut rng = GenRng::new(ctx.seed);
    for v in &mut interior[ID_RHOT * NZ * NX..(ID_RHOT + 1) * NZ * NX] {
        *v += 1e-4 * rng.normal();
    }
    start.set_interior(&interior);
    let mut sim = start.clone();
    let mut states = vec![sim.interior()];
    for _ in 0..COLLECTED {
        sim.step();
        states.push(sim.interior());
    }

    let spec = MiniWeather::cnn_spec(NZ, NX, 4, 3);
    let mut net = spec.build(ctx.seed).map_err(at("build model"))?;
    let model = dir.join("miniweather.hml");
    hpacml_nn::serialize::save_model(&model, &spec, &mut net, None, None)
        .map_err(at("save_model"))?;
    let db = dir.join("miniweather.h5");
    let region = build_region(&model, Some(&db))?;

    // Reference surrogate outputs: a second region, one invocation each.
    let reference_region = build_region(&model, None)?;
    let session =
        miniweather::weather_session(&reference_region, &start).map_err(at("reference session"))?;
    let mut expect = vec![Vec::new()];
    for state in &states[1..] {
        let mut out = vec![0.0f32; state.len()];
        let mut host_ran = false;
        let mut outcome = session
            .invoke()
            .use_surrogate(true)
            .input("state", state)
            .and_then(|r| r.run(|| host_ran = true))
            .map_err(at("reference invocation"))?;
        outcome
            .output("state", &mut out)
            .map_err(at("reference output"))?;
        let path = outcome.finish().map_err(at("reference finish"))?;
        if host_ran || path != PathTaken::Surrogate {
            return Err("reference invocation ran the host step".into());
        }
        expect.push(out);
    }
    if ctx.corrupt_reference {
        corrupt(&mut expect[1][0]);
    }
    Ok(Fixture {
        spec,
        model,
        db,
        region,
        start,
        states,
        expect,
    })
}

/// The physics step of an accurate op, collected by `finish`. `Ok(false)`
/// when the runtime took the surrogate path instead.
fn accurate_op(
    session: &Session<'_>,
    sim: &mut Sim,
    cur: &[f32],
    next: &mut Vec<f32>,
    tr: &mut Tracer,
) -> hpacml_core::Result<bool> {
    let run = tr.span("core.invoke", || session.invoke());
    let run = tr.span("bridge.gather", || {
        run.use_surrogate(false).input("state", cur)
    })?;
    let open = tr.begin("core.run");
    let res = run.run(|| {
        let host = tr.begin("apps.accurate");
        sim.step();
        *next = sim.interior();
        tr.end(host);
    });
    tr.end(open);
    let mut outcome = res?;
    tr.span("bridge.collect", || {
        outcome.output("state", next).map(|_| ())
    })?;
    let path = tr.span("store.append", || outcome.finish())?;
    Ok(path == PathTaken::Accurate)
}

/// A surrogate op into `scratch`. `Ok(false)` when the host code ran.
fn surrogate_op(
    session: &Session<'_>,
    cur: &[f32],
    scratch: &mut [f32],
    tr: &mut Tracer,
) -> hpacml_core::Result<bool> {
    let run = tr.span("core.invoke", || session.invoke());
    let run = tr.span("bridge.gather", || {
        run.use_surrogate(true).input("state", cur)
    })?;
    let mut host_ran = false;
    let mut outcome = tr.span("nn.forward", || run.run(|| host_ran = true))?;
    tr.span("bridge.scatter", || {
        outcome.output("state", scratch).map(|_| ())
    })?;
    let path = tr.span("core.finish", || outcome.finish())?;
    Ok(!host_ran && path == PathTaken::Surrogate)
}

/// Flush the episode's db, reopen it and check it; then point the region
/// at a fresh file. Returns (db bytes, flush ms, check passed).
fn end_episode(f: &Fixture, episode: u64) -> (f64, f64, bool) {
    let bytes = f.region.db_size_bytes() as f64;
    let t0 = Instant::now();
    let flushed = f.region.flush_db();
    let flush_ms = t0.elapsed().as_secs_f64() * 1e3;
    let row = (episode % COLLECTED as u64) as usize;
    let ok = flushed.is_ok()
        && H5File::open(&f.db).is_ok_and(|file| {
            let rows = |kind: &str| {
                file.root()
                    .group_at(&format!("miniweather/{kind}"))
                    .and_then(|g| g.dataset("state"))
                    .ok()
                    .filter(|d| d.rows() == COLLECTED)
                    .and_then(|d| d.read_row_f32(row).ok())
            };
            file.recovery().is_none()
                && rows("inputs").is_some_and(|r| same_bits(&r, &f.states[row]))
                && rows("outputs").is_some_and(|r| same_bits(&r, &f.states[row + 1]))
        });
    f.region.set_db_path(&f.db);
    let removed = std::fs::remove_file(&f.db).is_ok();
    (bytes, flush_ms, ok && removed)
}

pub fn run(ctx: &Ctx) -> Res<Measured> {
    let mut clock = SetupClock::new(ctx);
    loop {
        let f = fixture(ctx, &clock.dir(ctx)?)?;
        let t0 = Instant::now();
        let session =
            miniweather::weather_session(&f.region, &f.start).map_err(at("compile session"))?;
        let compile_ms = t0.elapsed().as_secs_f64() * 1e3;
        // Warm-up op; nothing is collected, so the db stays empty.
        let mut scratch = vec![0.0f32; VARS * NZ * NX];
        let mut off = Tracer::new(false, Instant::now());
        surrogate_op(&session, &f.states[1], &mut scratch, &mut off).map_err(at("warm-up op"))?;
        if !clock.lap() {
            continue;
        }
        return measure(ctx, &f, &session, &clock, compile_ms);
    }
}

fn measure(
    ctx: &Ctx,
    f: &Fixture,
    session: &Session<'_>,
    clock: &SetupClock,
    compile_ms: f64,
) -> Res<Measured> {
    let mut sim = f.start.clone();
    let mut cur = f.states[0].clone();
    let mut next = cur.clone();
    let mut scratch = vec![0.0f32; cur.len()];
    // (db bytes, flush ms) per completed episode.
    let mut episodes: Vec<(f64, f64)> = Vec::new();
    let mut op = |i: u64, tr: &mut Tracer| {
        let t = i % EPISODE;
        let k = (t / COLLECT_EVERY) as usize;
        if t == 0 {
            sim = f.start.clone();
            cur.copy_from_slice(&f.states[0]);
        }
        let accurate = t.is_multiple_of(COLLECT_EVERY);
        let t0 = Instant::now();
        let mut ok = if accurate {
            let root = tr.begin_op("stencil.accurate_op", i);
            let res = accurate_op(session, &mut sim, &cur, &mut next, tr);
            tr.end(root);
            matches!(res, Ok(true)) && same_bits(&next, &f.states[k + 1])
        } else {
            scratch.fill(f32::NAN);
            let root = tr.begin_op("stencil.surrogate_op", i);
            let res = surrogate_op(session, &cur, &mut scratch, tr);
            tr.end(root);
            matches!(res, Ok(true)) && same_bits(&scratch, &f.expect[k + 1])
        };
        let ns = ns_since(t0);
        if accurate {
            std::mem::swap(&mut cur, &mut next);
        }
        if t == EPISODE - 1 {
            let (bytes, flush_ms, db_ok) = end_episode(f, i / EPISODE);
            episodes.push((bytes, flush_ms));
            ok &= db_ok;
        }
        Op { ns, samples: 1, ok }
    };
    let mut m = Measured::default();
    let (untraced_s, traced_s) = ctx.phase_seconds();
    let mut off = Tracer::new(false, Instant::now());
    let base = closed_loop(untraced_s, &mut off, 0, &mut op);
    if !ctx.trace {
        m.end_to_end(&base, clock);
        return Ok(m);
    }
    let first_traced_episode = (base.ops / EPISODE) as usize;
    let pool0 = hpacml_par::global().stats();
    let mut tr = Tracer::new(true, Instant::now());
    let traced = closed_loop(traced_s, &mut tr, base.ops, &mut op);
    let pool = hpacml_par::global().stats().delta_since(&pool0);
    let analysis = finish_trace(ctx, "stencil", &tr.into_spans());
    m.traced_common("stencil.unattributed_us", &base, &traced, &analysis, &pool);

    let forward = analysis.name("nn.forward").mean_us();
    let accurate = analysis.name("apps.accurate").mean_us();
    let surrogate_op = analysis.name("stencil.surrogate_op").mean_us();
    m.set("bridge.gather_us", analysis.name("bridge.gather").mean_us());
    m.set(
        "bridge.scatter_us",
        analysis.name("bridge.scatter").mean_us(),
    );
    m.set("nn.forward_us", forward);
    m.set("core.finish_us", analysis.name("core.finish").mean_us());
    m.set("core.session_compile_ms", compile_ms);
    m.set("core.batch_fill", f.region.stats().mean_batch_fill());
    m.set(
        "tensor.gflops_computed",
        forward_flops(&f.spec, 1) / (forward * 1e3).max(1e-9),
    );
    let traced_episodes = episodes.get(first_traced_episode..).unwrap_or(&[]);
    let flush: Vec<f64> = traced_episodes.iter().map(|e| e.1).collect();
    m.set("store.append_us", analysis.name("store.append").mean_us());
    m.set("store.flush_ms", median(&flush));
    m.set(
        "store.db_bytes",
        traced_episodes.first().map_or(0.0, |e| e.0),
    );
    m.set("apps.accurate_us", accurate);
    m.set("apps.speedup", accurate / surrogate_op.max(1e-9));
    let x = Tensor::from_vec(f.states[1].clone(), [1, VARS, NZ, NX]).map_err(at("replay input"))?;
    record_layers(&mut m, &f.model, &x)?;
    crate::sweep::record_kernel_split(&mut m);

    m.premise(
        &format!(
            "store layers active: append {:.1} us, flush {:.2} ms over {} episodes",
            m.metric("store.append_us"),
            m.metric("store.flush_ms"),
            flush.len()
        ),
        m.metric("store.append_us") > 0.0 && !flush.is_empty(),
    );
    m.premise(
        &format!(
            "nn.forward is {:.1}% of a surrogate step ({surrogate_op:.1} us)",
            forward / surrogate_op.max(1e-9) * 100.0
        ),
        forward > 0.5 * surrogate_op,
    );
    Ok(m)
}
