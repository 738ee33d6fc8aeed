//! Shared pieces of the workloads: run context, set-up clock, closed-loop
//! phases, latency percentiles and the per-layer probes every workload
//! reports the same way.

use crate::trace::{Analysis, Tracer};
use hpacml_nn::spec::{LayerSpec, ModelSpec};
use hpacml_tensor::Tensor;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

pub type Res<T> = Result<T, String>;

/// `map_err` adapter naming the step that failed.
pub fn at<E: std::fmt::Display>(what: &'static str) -> impl FnOnce(E) -> String {
    move |e| format!("{what}: {e}")
}

/// Full set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 9;

pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub corrupt_reference: bool,
    /// Scratch directory for models and dbs, inside the checkout.
    pub dir: PathBuf,
    pub process_start: Instant,
}

impl Ctx {
    /// Length of the untraced phase and of the traced phase. A traced run
    /// splits its window: the first half runs untraced, as the baseline
    /// the tracing overhead is measured against.
    pub fn phase_seconds(&self) -> (f64, f64) {
        if self.trace {
            (self.seconds / 2.0, self.seconds / 2.0)
        } else {
            (self.seconds, 0.0)
        }
    }
}

/// Times repeated full set-ups. The first lap runs from process start.
pub struct SetupClock {
    start: Instant,
    laps: Vec<f64>,
}

impl SetupClock {
    pub fn new(ctx: &Ctx) -> SetupClock {
        SetupClock {
            start: ctx.process_start,
            laps: Vec::new(),
        }
    }

    /// Fresh directory for the next set-up, so no set-up reuses a model
    /// path an earlier one left in the engine's cache.
    pub fn dir(&self, ctx: &Ctx) -> Res<PathBuf> {
        let dir = ctx.dir.join(format!("setup{}", self.laps.len()));
        std::fs::create_dir_all(&dir).map_err(at("create set-up directory"))?;
        Ok(dir)
    }

    /// End one set-up; `true` once the last one has been timed.
    pub fn lap(&mut self) -> bool {
        self.laps.push(self.start.elapsed().as_secs_f64());
        self.start = Instant::now();
        self.laps.len() >= SETUPS
    }

    pub fn median_s(&self) -> f64 {
        median(&self.laps)
    }
}

/// One op's outcome as the closed loop records it.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub ns: u64,
    pub samples: u64,
    pub ok: bool,
}

/// Length of one measurement window. Other work on a shared host comes in
/// bursts of seconds and only ever slows a window down, so throughput and
/// p50 are medians over a run's windows, and p99, which such bursts move
/// most, is the lowest window p99: the tail the program delivers when the
/// host leaves it alone.
pub const WINDOW_S: f64 = 1.0;

#[derive(Debug, Default)]
struct Window {
    lat_ns: Vec<u64>,
    samples: u64,
}

/// Outcomes of one closed-loop phase, bucketed into windows of `WINDOW_S`
/// by completion time.
#[derive(Debug)]
pub struct Phase {
    start: Instant,
    pub ops: u64,
    pub failed: u64,
    pub elapsed_s: f64,
    windows: Vec<Window>,
}

impl Phase {
    pub fn new(start: Instant) -> Phase {
        Phase {
            start,
            ops: 0,
            failed: 0,
            elapsed_s: 0.0,
            windows: Vec::new(),
        }
    }

    pub fn record(&mut self, op: Op) {
        let k = (self.start.elapsed().as_secs_f64() / WINDOW_S) as usize;
        if self.windows.len() <= k {
            self.windows.resize_with(k + 1, Window::default);
        }
        let w = &mut self.windows[k];
        self.ops += 1;
        w.lat_ns.push(op.ns);
        if op.ok {
            w.samples += op.samples;
        } else {
            self.failed += 1;
        }
    }

    /// Fold in another caller's phase over the same window grid.
    pub fn merge(&mut self, other: Phase) {
        self.ops += other.ops;
        self.failed += other.failed;
        self.elapsed_s = self.elapsed_s.max(other.elapsed_s);
        if self.windows.len() < other.windows.len() {
            self.windows
                .resize_with(other.windows.len(), Window::default);
        }
        for (w, o) in self.windows.iter_mut().zip(other.windows) {
            w.lat_ns.extend(o.lat_ns);
            w.samples += o.samples;
        }
    }

    /// Nearest-rank percentile of op latency over the whole phase, in µs.
    pub fn pct_us(&self, q: f64) -> f64 {
        let mut all: Vec<u64> = self
            .windows
            .iter()
            .flat_map(|w| w.lat_ns.iter().copied())
            .collect();
        all.sort_unstable();
        percentile(&all, q) as f64 / 1e3
    }

    /// Throughput, p50 and p99 over the full windows (the one partial
    /// window when the phase is shorter); see [`WINDOW_S`].
    pub fn windowed(&self) -> Windowed {
        let full = ((self.elapsed_s / WINDOW_S) as usize).clamp(1, self.windows.len().max(1));
        let span_s = WINDOW_S.min(self.elapsed_s).max(1e-9);
        let (mut thr, mut p50, mut p99) = (Vec::new(), Vec::new(), Vec::new());
        let mut min_ops = usize::MAX;
        for w in self.windows.iter().take(full) {
            let mut lat = w.lat_ns.clone();
            lat.sort_unstable();
            min_ops = min_ops.min(lat.len());
            thr.push(w.samples as f64 / span_s);
            p50.push(percentile(&lat, 0.50) as f64 / 1e3);
            p99.push(percentile(&lat, 0.99) as f64 / 1e3);
        }
        Windowed {
            windows: thr.len(),
            min_ops,
            throughput: median(&thr),
            p50_us: median(&p50),
            p99_us: quantile(&p99, 0.0),
        }
    }
}

/// Window figures of one phase (see [`Phase::windowed`]).
#[derive(Debug, Clone, Copy)]
pub struct Windowed {
    pub windows: usize,
    /// Fewest ops in any window: each window's p99 has `min_ops / 100`
    /// samples beyond it at least.
    pub min_ops: usize,
    pub throughput: f64,
    pub p50_us: f64,
    pub p99_us: f64,
}

/// Run `op` back to back for `seconds`, or until the tracer is full (one
/// closed-loop caller). `op` receives the op index and the tracer, and
/// times itself, so work between ops (checks, episode ends) stays out of op
/// latency but inside the window.
pub fn closed_loop(
    seconds: f64,
    tracer: &mut Tracer,
    first_op: u64,
    mut op: impl FnMut(u64, &mut Tracer) -> Op,
) -> Phase {
    let start = Instant::now();
    let mut phase = Phase::new(start);
    let end = start + Duration::from_secs_f64(seconds);
    let mut i = first_op;
    while Instant::now() < end && !tracer.full() {
        phase.record(op(i, tracer));
        i += 1;
    }
    phase.elapsed_s = start.elapsed().as_secs_f64();
    phase
}

pub fn ns_since(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Nearest-rank quantile of `values` (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    v[((v.len() as f64 * q).ceil() as usize).clamp(1, v.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Peak resident set (VmHWM) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What a run measured: op counts, named validity checks and metrics.
#[derive(Debug, Default)]
pub struct Measured {
    pub attempted: u64,
    pub failed: u64,
    /// Validity checks beyond output correctness (the trace reconciling).
    pub checks: Vec<(&'static str, bool)>,
    pub metrics: BTreeMap<&'static str, f64>,
    pub notes: Vec<String>,
}

impl Measured {
    pub fn metric(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn fail_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.checks.iter().all(|(_, ok)| *ok)
    }

    pub fn count(&mut self, phase: &Phase) {
        self.attempted += phase.ops;
        self.failed += phase.failed;
    }

    /// The end-to-end metrics of an untraced run.
    pub fn end_to_end(&mut self, phase: &Phase, setup: &SetupClock) {
        self.count(phase);
        let w = phase.windowed();
        self.set("throughput_sps", w.throughput);
        self.set("latency_p50_us", w.p50_us);
        self.set("latency_p99_us", w.p99_us);
        self.set("success_rate", 1.0 - self.fail_rate());
        self.set("setup_s", setup.median_s());
        self.set("peak_rss_mb", peak_rss_mb());
        self.notes.push(format!(
            "{} ops in {:.2} s; {} windows of {WINDOW_S} s, each with >= {} ops \
             (>= {} beyond its p99); whole-run p50 {:.2} us, p99 {:.2} us; fail_rate {:.6}",
            phase.ops,
            phase.elapsed_s,
            w.windows,
            w.min_ops,
            w.min_ops / 100,
            phase.pct_us(0.50),
            phase.pct_us(0.99),
            self.fail_rate()
        ));
    }

    /// The metrics every traced run derives the same way: trace overhead,
    /// reconciliation, unattributed time and the pool's counters.
    pub fn traced_common(
        &mut self,
        unattributed: &'static str,
        base: &Phase,
        traced: &Phase,
        analysis: &Analysis,
        pool: &hpacml_par::PoolStats,
    ) {
        self.count(base);
        self.count(traced);
        let (b, t) = (base.pct_us(0.50), traced.pct_us(0.50));
        self.set("trace.overhead_pct", (t / b.max(1e-9) - 1.0) * 100.0);
        self.set("trace.reconcile_err_pct", analysis.reconcile_err * 100.0);
        self.set("trace.spans", analysis.spans as f64);
        self.set(unattributed, analysis.unattributed_us());
        self.checks
            .push(("trace reconciles", analysis.reconciled()));
        let ops = traced.ops.max(1) as f64;
        self.set("par.jobs_per_op", pool.jobs as f64 / ops);
        self.set("par.steal_ratio", pool.steal_ratio());
        self.set("par.occupancy", pool.occupancy());
        self.notes.push(format!(
            "traced {} ops, untraced baseline {} ops; p50 {t:.2} us traced vs {b:.2} us untraced; \
             reconcile error {:.5}% (tolerance {}%)",
            traced.ops,
            base.ops,
            analysis.reconcile_err * 100.0,
            crate::trace::RECONCILE_TOLERANCE * 100.0
        ));
    }

    /// Record a workload premise and note whether it held.
    pub fn premise(&mut self, what: &str, holds: bool) {
        let prev = self.metrics.get("trace.premise_ok").copied().unwrap_or(1.0);
        self.set(
            "trace.premise_ok",
            if holds && prev > 0.0 { 1.0 } else { 0.0 },
        );
        self.notes.push(format!(
            "premise {}: {what}",
            if holds { "holds" } else { "DOES NOT HOLD" }
        ));
    }
}

/// Load `path` with `load_model` (which also runs the inference compile
/// pass) a few times, then replay `x` through the loaded network one layer
/// at a time with `forward_into`. Returns the median load time in ms and
/// the median time per layer in µs.
pub fn replay_layers(path: &Path, x: &Tensor) -> Res<(f64, Vec<f64>)> {
    const LOADS: usize = 5;
    const REPS: usize = 201;
    let mut load_ms = Vec::with_capacity(LOADS);
    let mut model = None;
    for _ in 0..LOADS {
        let t0 = Instant::now();
        let m = hpacml_nn::serialize::load_model(path).map_err(at("load_model"))?;
        load_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        model = Some(m);
    }
    let model = model.expect("LOADS > 0");
    let layers = model.model.layers();
    let mut times: Vec<Vec<f64>> = vec![Vec::with_capacity(REPS); layers.len()];
    let (mut input, mut output) = (Tensor::default(), Tensor::default());
    for _ in 0..REPS {
        input.clone_from(x);
        for (layer, t) in layers.iter().zip(times.iter_mut()) {
            let t0 = Instant::now();
            layer
                .forward_into(std::hint::black_box(&input), &mut output)
                .map_err(at("layer forward_into"))?;
            t.push(t0.elapsed().as_secs_f64() * 1e6);
            std::mem::swap(&mut input, &mut output);
        }
    }
    Ok((median(&load_ms), times.iter().map(|t| median(t)).collect()))
}

/// Record `nn.layer<i>_us` and `nn.load_ms` from [`replay_layers`].
pub fn record_layers(m: &mut Measured, path: &Path, x: &Tensor) -> Res<()> {
    const NAMES: [&str; 3] = ["nn.layer0_us", "nn.layer1_us", "nn.layer2_us"];
    let (load_ms, layers) = replay_layers(path, x)?;
    m.set("nn.load_ms", load_ms);
    if layers.len() > NAMES.len() {
        return Err(format!(
            "model has {} compiled layers; the benchmark reports {}",
            layers.len(),
            NAMES.len()
        ));
    }
    for (name, us) in NAMES.iter().zip(layers) {
        m.set(name, us);
    }
    Ok(())
}

/// GEMM flops of one forward pass of `spec` over `batch` samples, computed
/// from the shapes of its `Linear` and `Conv2d` layers (the only layers
/// the workloads' models have besides activations, which are not counted).
pub fn forward_flops(spec: &ModelSpec, batch: usize) -> f64 {
    let mut shape = spec.input_shape.clone();
    let mut flops = 0.0;
    for layer in &spec.layers {
        match *layer {
            LayerSpec::Linear {
                in_features,
                out_features,
            } => {
                flops += 2.0 * (in_features * out_features) as f64;
                shape = vec![out_features];
            }
            LayerSpec::Conv2d {
                in_ch,
                out_ch,
                kernel,
                stride,
                pad,
            } => {
                let (h, w) = (shape[1], shape[2]);
                let ho = (h + 2 * pad - kernel) / stride + 1;
                let wo = (w + 2 * pad - kernel) / stride + 1;
                flops += 2.0 * (out_ch * in_ch * kernel * kernel * ho * wo) as f64;
                shape = vec![out_ch, ho, wo];
            }
            _ => {}
        }
    }
    flops * batch as f64
}

/// Bitwise equality of two f32 slices.
pub fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Flip the low mantissa bit of `v` (the `--corrupt-reference` probe).
pub fn corrupt(v: &mut f32) {
    *v = f32::from_bits(v.to_bits() ^ 1);
}

/// Directory for results that outlive a run (the results log, span dumps).
pub const OUT_DIR: &str = ".bench_out";

/// Keep the traced run's spans in `.bench_out/trace-<workload>-<seed>.tsv`
/// and analyse them.
pub fn finish_trace(ctx: &Ctx, workload: &str, spans: &[crate::trace::Span]) -> Analysis {
    let path = Path::new(OUT_DIR).join(format!("trace-{workload}-{}.tsv", ctx.seed));
    let written =
        std::fs::create_dir_all(OUT_DIR).and_then(|()| crate::trace::write_tsv(&path, spans));
    if let Err(e) = written {
        eprintln!("e2ebench: cannot write {}: {e}", path.display());
    }
    crate::trace::analyse(spans)
}
