//! End-to-end benchmark of the HPAC-ML runtime.
//!
//! ```sh
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload sweep|stencil|serve --seed N --seconds S --trace 0|1 \
//!     [--corrupt-reference]
//! ```
//!
//! Each workload is a closed loop through the runtime's public API. With
//! `--trace 0` the run prints the end-to-end metrics; with `--trace 1` it
//! records spans around every call into a layer and prints the per-layer
//! breakdown instead. Every output is checked against a reference computed
//! at set-up through a second public path; `--corrupt-reference` flips one
//! reference value so the check can be seen to fail. The last line of
//! standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! See `e2ebench/README.md` for the workloads and the metric map.

mod common;
mod fingerprint;
mod serve;
mod stencil;
mod sweep;
mod trace;

use common::{Ctx, Measured};
use std::process::ExitCode;
use std::time::Instant;

/// `HPACML_THREADS` for every run: the pool width is fixed, not inherited.
const POOL_THREADS: &str = "2";

/// End-to-end metrics (`--trace 0`), in print order, with their units.
const END_TO_END: &[(&str, &str)] = &[
    ("throughput_sps", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("success_rate", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), in print order, with their units. A
/// workload that does not exercise a metric's layer reports 0 for it.
const PER_LAYER: &[(&str, &str)] = &[
    ("bridge.gather_us", "us"),
    ("bridge.scatter_us", "us"),
    ("nn.forward_us", "us"),
    ("nn.layer0_us", "us"),
    ("nn.layer1_us", "us"),
    ("nn.layer2_us", "us"),
    ("nn.load_ms", "ms"),
    ("core.session_compile_ms", "ms"),
    ("tensor.l0_pack_us", "us"),
    ("tensor.l0_gemm_us", "us"),
    ("tensor.l0_epilogue_us", "us"),
    ("tensor.l1_pack_us", "us"),
    ("tensor.l1_gemm_us", "us"),
    ("tensor.l1_epilogue_us", "us"),
    ("tensor.l2_pack_us", "us"),
    ("tensor.l2_gemm_us", "us"),
    ("tensor.l2_epilogue_us", "us"),
    ("tensor.gflops_computed", "GFLOP/s"),
    ("par.jobs_per_op", "count"),
    ("par.steal_ratio", "ratio"),
    ("par.occupancy", "ratio"),
    ("core.finish_us", "us"),
    ("core.session_p50_us", "us"),
    ("core.batchserver_p50_us", "us"),
    ("core.batch_fill", "count"),
    ("serve.self_us", "us"),
    ("serve.apply_ms", "ms"),
    ("serve.swap_retries", "count"),
    ("serve.bootstrap_ms", "ms"),
    ("store.append_us", "us"),
    ("store.flush_ms", "ms"),
    ("store.db_bytes", "bytes"),
    ("apps.accurate_us", "us"),
    ("apps.speedup", "ratio"),
    ("sweep.unattributed_us", "us"),
    ("stencil.unattributed_us", "us"),
    ("serve.unattributed_us", "us"),
    ("trace.overhead_pct", "%"),
    ("trace.reconcile_err_pct", "%"),
    ("trace.spans", "count"),
    ("trace.premise_ok", "bool"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    corrupt_reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut corrupt_reference = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--corrupt-reference" {
            corrupt_reference = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        corrupt_reference,
    })
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    // Set before anything touches the pool, which reads it once.
    std::env::set_var("HPACML_THREADS", POOL_THREADS);
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("e2ebench: {msg}");
            return ExitCode::from(2);
        }
    };
    let run_root = std::path::Path::new(".bench_run");
    let run_dir = run_root.join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds as f64,
        trace: args.trace,
        corrupt_reference: args.corrupt_reference,
        dir: run_dir.clone(),
        process_start,
    };
    let result = std::fs::create_dir_all(&run_dir)
        .map_err(|e| format!("cannot create {}: {e}", run_dir.display()))
        .and_then(|()| match args.workload.as_str() {
            "sweep" => sweep::run(&ctx),
            "stencil" => stencil::run(&ctx),
            "serve" => serve::run(&ctx),
            other => Err(format!(
                "unknown workload `{other}` (sweep, stencil or serve)"
            )),
        });
    let _ = std::fs::remove_dir_all(&run_dir);
    // Only succeeds once no other run is using it.
    let _ = std::fs::remove_dir(run_root);
    let measured = match result {
        Ok(m) => m,
        Err(msg) => {
            eprintln!("e2ebench: {}: {msg}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let fp = fingerprint::collect(run_root);
    let line = result_line(&measured, args.trace);
    report(&args, &measured, &fp);
    let log = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"fingerprint\": {}, \"result\": {line}}}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        fp.json()
    );
    if let Err(e) = fingerprint::append_log(&log) {
        eprintln!("e2ebench: cannot append to the results log: {e}");
    }
    println!("{{\"fingerprint\": {}}}", fp.json());
    println!("{line}");
    ExitCode::SUCCESS
}

/// The result object: every end-to-end metric untraced, every per-layer
/// metric traced.
fn result_line(m: &Measured, trace: bool) -> String {
    let table = if trace { PER_LAYER } else { END_TO_END };
    let metrics: Vec<String> = table
        .iter()
        .map(|&(name, unit)| {
            let v = m.metric(name);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        m.correct(),
        m.attempted,
        m.failed,
        metrics.join(", ")
    )
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Human-readable summary on standard error.
fn report(args: &Args, m: &Measured, fp: &fingerprint::Fingerprint) {
    eprintln!(
        "e2ebench {} seed {} trace {}: {} ops attempted, {} failed (fail_rate {:.6}), correct {}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        m.attempted,
        m.failed,
        m.fail_rate(),
        m.correct()
    );
    for note in &m.notes {
        eprintln!("  {note}");
    }
    for (check, _) in m.checks.iter().filter(|(_, ok)| !ok) {
        eprintln!("  check failed: {check}");
    }
    eprintln!("  host: {}", fp.summary());
}
