//! `sweep`: a Binomial-shaped sweep on the surrogate path.
//!
//! `OptionBatch::generate(65536, seed)` is priced in chunks of 1024 through
//! the Binomial region compiled into a `SweepSession`, one caller, with the
//! app's 5→64→32→1 ReLU MLP (seeded random weights). Forward dominates the
//! op; the serve and store layers do nothing, so daemon or db changes
//! should not move this workload.

use crate::common::*;
use crate::trace::Tracer;
use hpacml_apps::binomial::{self, BinomialConfig, BinomialOptions, OptionBatch, FEATURES};
use hpacml_apps::common::SweepSession;
use hpacml_apps::{BenchConfig, Benchmark, Scale};
use hpacml_core::{PathTaken, Region, Session};
use hpacml_tensor::{Act, Tensor};
use std::path::{Path, PathBuf};
use std::time::Instant;

const OPTIONS: usize = 65536;
const CHUNK: usize = 1024;
const CHUNKS: usize = OPTIONS / CHUNK;

struct Fixture {
    batch: OptionBatch,
    spec: hpacml_nn::ModelSpec,
    model: PathBuf,
    region: Region,
    reference_region: Region,
}

fn fixture(ctx: &Ctx, dir: &Path) -> Res<Fixture> {
    let batch = OptionBatch::generate(OPTIONS, ctx.seed);
    let spec = BinomialOptions.default_spec(&BenchConfig::quick(dir));
    let mut net = spec.build(ctx.seed).map_err(at("build model"))?;
    let model = dir.join("binomial.hml");
    hpacml_nn::serialize::save_model(&model, &spec, &mut net, None, None)
        .map_err(at("save_model"))?;
    let region = binomial::build_region(None, Some(&model)).map_err(at("build region"))?;
    let reference_region =
        binomial::build_region(None, Some(&model)).map_err(at("build reference region"))?;
    Ok(Fixture {
        batch,
        spec,
        model,
        region,
        reference_region,
    })
}

/// Reference prices: one-sample invocations of a second region's session.
/// Batched results are bit-identical to sequential ones by contract.
fn reference(f: &Fixture) -> Res<Vec<f32>> {
    let one = SweepSession::new(&f.reference_region, "opts", FEATURES, "prices", 1)
        .map_err(at("reference session"))?;
    let mut prices = vec![0.0f32; OPTIONS];
    let mut host_ran = false;
    one.run(&f.batch.data, &mut prices, true, |_, _, _| host_ran = true)
        .map_err(at("reference sweep"))?;
    if host_ran {
        return Err("reference sweep ran the host kernel".into());
    }
    Ok(prices)
}

/// One op: a 1024-option chunk through the batched session, each call into
/// a layer inside its own span. `Ok(false)` when the host code ran.
fn chunk_op(
    session: &Session<'_>,
    input: &[f32],
    out: &mut [f32],
    tr: &mut Tracer,
) -> hpacml_core::Result<bool> {
    let run = tr.span("core.invoke", || session.invoke_batch(CHUNK))?;
    let run = tr.span("bridge.gather", || {
        run.use_surrogate(true).input("opts", input)
    })?;
    let mut host_ran = false;
    let mut outcome = tr.span("nn.forward", || run.run(|| host_ran = true))?;
    tr.span("bridge.scatter", || {
        outcome.output("prices", out).map(|_| ())
    })?;
    let path = tr.span("core.finish", || outcome.finish())?;
    Ok(!host_ran && path == PathTaken::Surrogate)
}

pub fn run(ctx: &Ctx) -> Res<Measured> {
    let mut clock = SetupClock::new(ctx);
    loop {
        let f = fixture(ctx, &clock.dir(ctx)?)?;
        let t0 = Instant::now();
        let sweep = SweepSession::new(&f.region, "opts", FEATURES, "prices", CHUNK)
            .map_err(at("compile session"))?;
        let compile_ms = t0.elapsed().as_secs_f64() * 1e3;
        let mut expect = reference(&f)?;
        if ctx.corrupt_reference {
            corrupt(&mut expect[OPTIONS / 2]);
        }
        // Warm-up op: the thread's scratch is sized on first use.
        let mut out = vec![0.0f32; CHUNK];
        let mut off = Tracer::new(false, Instant::now());
        chunk_op(
            sweep.session(),
            &f.batch.data[..CHUNK * FEATURES],
            &mut out,
            &mut off,
        )
        .map_err(at("warm-up op"))?;
        if !clock.lap() {
            continue;
        }
        return measure(ctx, &f, sweep.session(), &expect, &clock, compile_ms);
    }
}

fn measure(
    ctx: &Ctx,
    f: &Fixture,
    session: &Session<'_>,
    expect: &[f32],
    clock: &SetupClock,
    compile_ms: f64,
) -> Res<Measured> {
    let mut out = vec![0.0f32; CHUNK];
    let mut op = |i: u64, tr: &mut Tracer| {
        let c = i as usize % CHUNKS;
        let input = &f.batch.data[c * CHUNK * FEATURES..(c + 1) * CHUNK * FEATURES];
        out.fill(f32::NAN);
        let t0 = Instant::now();
        let root = tr.begin_op("sweep.op", i);
        let res = chunk_op(session, input, &mut out, tr);
        tr.end(root);
        let ns = ns_since(t0);
        let ok = matches!(res, Ok(true)) && same_bits(&out, &expect[c * CHUNK..(c + 1) * CHUNK]);
        Op {
            ns,
            samples: CHUNK as u64,
            ok,
        }
    };
    let mut m = Measured::default();
    let (untraced_s, traced_s) = ctx.phase_seconds();
    let mut off = Tracer::new(false, Instant::now());
    let base = closed_loop(untraced_s, &mut off, 0, &mut op);
    if !ctx.trace {
        m.end_to_end(&base, clock);
        return Ok(m);
    }
    let pool0 = hpacml_par::global().stats();
    let mut tr = Tracer::new(true, Instant::now());
    let traced = closed_loop(traced_s, &mut tr, base.ops, &mut op);
    let pool = hpacml_par::global().stats().delta_since(&pool0);
    let analysis = finish_trace(ctx, "sweep", &tr.into_spans());
    m.traced_common("sweep.unattributed_us", &base, &traced, &analysis, &pool);

    let forward = analysis.name("nn.forward").mean_us();
    let op_us = analysis.op_ns as f64 / analysis.ops.max(1) as f64 / 1e3;
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
        forward_flops(&f.spec, CHUNK) / (forward * 1e3).max(1e-9),
    );
    let x = Tensor::from_vec(f.batch.data[..CHUNK * FEATURES].to_vec(), [CHUNK, FEATURES])
        .map_err(at("replay input"))?;
    record_layers(&mut m, &f.model, &x)?;
    record_kernel_split(&mut m);

    // The host kernel the surrogate replaces, on one chunk.
    let steps = BinomialConfig::for_scale(Scale::Quick).steps;
    let chunk = OptionBatch {
        data: f.batch.data[..CHUNK * FEATURES].to_vec(),
        n: CHUNK,
    };
    let mut prices = vec![0.0f32; CHUNK];
    let host_us: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            binomial::price_batch(&chunk, steps, &mut prices);
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    let host_us = median(&host_us);
    m.set("apps.accurate_us", host_us);
    m.set("apps.speedup", host_us / base.pct_us(0.50).max(1e-9));

    m.premise(
        &format!(
            "nn.forward is {:.1}% of sweep op time (want > 80%)",
            forward / op_us * 100.0
        ),
        forward > 0.8 * op_us,
    );
    Ok(m)
}

/// `tensor.l<i>_{pack,gemm,epilogue}_us` at the sweep's layer shapes. The
/// stencil's traced run records them too, since `sweep` is not among the
/// workloads `BENCHMARK.json` gates on.
pub fn record_kernel_split(m: &mut Measured) {
    const NAMES: [[&str; 3]; 3] = [
        [
            "tensor.l0_pack_us",
            "tensor.l0_gemm_us",
            "tensor.l0_epilogue_us",
        ],
        [
            "tensor.l1_pack_us",
            "tensor.l1_gemm_us",
            "tensor.l1_epilogue_us",
        ],
        [
            "tensor.l2_pack_us",
            "tensor.l2_gemm_us",
            "tensor.l2_epilogue_us",
        ],
    ];
    let layers = [
        (FEATURES, 64, Some(Act::Relu)),
        (64, 32, Some(Act::Relu)),
        (32, 1, None),
    ];
    let split = hpacml_bench::linear_kernel_split(CHUNK, &layers);
    for (names, s) in NAMES.iter().zip(split) {
        m.set(names[0], s.pack_ns as f64 / 1e3);
        m.set(names[1], s.gemm_ns as f64 / 1e3);
        m.set(names[2], s.epilogue_ns as f64 / 1e3);
    }
}
