//! Immutable runtime snapshots: the compiled form of a [`Config`].
//!
//! A snapshot owns one *region unit* per configured region. Each unit is an
//! OS thread (the *owner*) that builds the `Region`/`Session`/`BatchServer`
//! stack on its own call stack — the borrow chain
//! `BatchServer<'s,'r> → Session<'r> → &'r Region` makes the stack
//! self-referential, so it lives where borrows are free: a stack frame —
//! and then serves a close-able request queue with a scoped pool of submit
//! workers. Concurrent workers submitting into the same `BatchServer` is
//! what coalesces daemon requests into batched forward passes.
//!
//! The swap protocol is drop-free by construction:
//!
//! 1. requests enqueued before `close()` are always drained by the unit's
//!    workers before the owner exits;
//! 2. a push that races `close()` hands the request *back* to the caller
//!    ([`Queue::push`] returns it), and the daemon's submit loop retries it
//!    against the fresh snapshot.
//!
//! Before a unit reports ready, the owner *shadow-probes* the candidate:
//! one forced-surrogate invocation with deterministic inputs, run before
//! any validation policy is attached, so a missing or broken model fails
//! the `apply()` — the old snapshot keeps serving — instead of failing
//! live traffic after the swap.

use crate::config::{Config, DaemonConfig, Metric, Precision, RegionConfig, ValidationConfig};
use crate::daemon::DaemonError;
use hpacml_core::{
    BatchServer, CoreError, ErrorMetric, PrecisionPolicy, Region, RegionStats, Session,
    ValidationPolicy,
};
use hpacml_directive::sema::Bindings;
use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Host-code fallback for one region: `handler(n, staged_inputs, outputs)`
/// computes the `n` staged samples with the original code (the same
/// contract as [`BatchServer::with_fallback`]). Registered on the daemon
/// builder by region name; required for regions with a validation policy.
pub type HostHandler = Arc<dyn Fn(usize, &[Vec<f32>], &mut [Vec<f32>]) + Send + Sync + 'static>;

/// `Duration` → saturating u64 nanoseconds (diagnostic fields).
pub(crate) fn saturating_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

// ---------------------------------------------------------------------------
// Request plumbing
// ---------------------------------------------------------------------------

/// One-shot reply cell a submitter parks on until a worker publishes.
pub(crate) struct Reply {
    slot: Mutex<Option<Result<Vec<Vec<f32>>, DaemonError>>>,
    cv: Condvar,
}

impl Reply {
    pub(crate) fn new() -> Self {
        Reply {
            slot: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn publish(&self, result: Result<Vec<Vec<f32>>, DaemonError>) {
        let mut g = self.slot.lock();
        *g = Some(result);
        self.cv.notify_all();
    }

    pub(crate) fn wait(&self) -> Result<Vec<Vec<f32>>, DaemonError> {
        let mut g = self.slot.lock();
        while g.is_none() {
            self.cv.wait(&mut g);
        }
        g.take().expect("reply published")
    }
}

/// An in-flight invocation: owned input buffers (one per declared input
/// array), the optional per-request budget, and the reply cell.
pub(crate) struct Request {
    pub(crate) inputs: Vec<Vec<f32>>,
    pub(crate) budget: Option<Duration>,
    pub(crate) enqueued: Instant,
    pub(crate) reply: Arc<Reply>,
}

struct QueueInner {
    items: VecDeque<Request>,
    closed: bool,
}

/// Close-able MPMC queue between the daemon's submit path and a unit's
/// workers. The close contract is the zero-drop guarantee: items enqueued
/// before `close()` are always popped; a push after `close()` returns the
/// request to the caller for a retry elsewhere.
pub(crate) struct Queue {
    inner: Mutex<QueueInner>,
    cv: Condvar,
}

impl Queue {
    fn new() -> Self {
        Queue {
            inner: Mutex::new(QueueInner {
                items: VecDeque::new(),
                closed: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Enqueue, or hand the request back if the queue is already closed.
    pub(crate) fn push(&self, req: Request) -> Result<(), Request> {
        {
            let mut g = self.inner.lock();
            if g.closed {
                return Err(req);
            }
            g.items.push_back(req);
        }
        self.cv.notify_one();
        Ok(())
    }

    /// Blocking pop; `None` once the queue is closed *and* empty.
    fn pop(&self) -> Option<Request> {
        let mut g = self.inner.lock();
        loop {
            if let Some(req) = g.items.pop_front() {
                return Some(req);
            }
            if g.closed {
                return None;
            }
            self.cv.wait(&mut g);
        }
    }

    fn close(&self) {
        self.inner.lock().closed = true;
        self.cv.notify_all();
    }
}

/// Daemon-wide serving counters (shared across snapshots, so totals
/// survive swaps).
#[derive(Default)]
pub(crate) struct Counters {
    pub(crate) served: AtomicU64,
    pub(crate) rejected_overload: AtomicU64,
    pub(crate) rejected_deadline: AtomicU64,
    pub(crate) errored: AtomicU64,
    pub(crate) swaps: AtomicU64,
    pub(crate) swap_retries: AtomicU64,
}

/// State a unit exposes beyond its owner thread (live region stats).
pub(crate) struct UnitShared {
    region: Mutex<Option<Arc<Region>>>,
}

/// Rendezvous the owner uses to report bootstrap success/failure.
struct ReadyCell {
    slot: Mutex<Option<Result<(), String>>>,
    cv: Condvar,
}

impl ReadyCell {
    fn new() -> Self {
        ReadyCell {
            slot: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn publish(&self, result: Result<(), String>) {
        let mut g = self.slot.lock();
        *g = Some(result);
        self.cv.notify_all();
    }

    fn wait(&self) -> Result<(), String> {
        let mut g = self.slot.lock();
        while g.is_none() {
            self.cv.wait(&mut g);
        }
        g.take().expect("readiness published")
    }
}

/// The owner's one readiness report. Dropped unpublished — the build phase
/// unwound — it publishes `Err`, so `bootstrap`/`apply` fail with
/// [`DaemonError::Build`] instead of waiting forever.
struct ReadyReport<'a>(Option<&'a ReadyCell>);

impl ReadyReport<'_> {
    fn publish(&mut self, result: Result<(), String>) {
        if let Some(cell) = self.0.take() {
            cell.publish(result);
        }
    }
}

impl Drop for ReadyReport<'_> {
    fn drop(&mut self) {
        self.publish(Err("unit build panicked".into()));
    }
}

/// Per-region entry in a snapshot: the request queue plus the declared
/// array shapes the daemon validates submissions against.
pub(crate) struct Unit {
    pub(crate) queue: Arc<Queue>,
    pub(crate) shared: Arc<UnitShared>,
    pub(crate) inputs: Vec<(String, usize)>,
    pub(crate) outputs: Vec<(String, usize)>,
}

/// An immutable compiled configuration: every region resolved, probed, and
/// serving. The daemon holds the current snapshot in an `Arc` the request
/// path loads lock-free; `apply()` builds the next one off to the side and
/// swaps atomically.
pub struct RuntimeSnapshot {
    generation: u64,
    config: Config,
    pub(crate) units: BTreeMap<String, Unit>,
    owners: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl RuntimeSnapshot {
    /// Monotone snapshot generation (1 = bootstrap).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The configuration this snapshot was compiled from.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// Configured region names, sorted.
    pub fn region_names(&self) -> Vec<String> {
        self.units.keys().cloned().collect()
    }

    /// Live stats of one region's underlying `Region` (None while the unit
    /// is starting or after it retired).
    pub fn region_stats(&self, region: &str) -> Option<RegionStats> {
        let unit = self.units.get(region)?;
        let stats = unit.shared.region.lock().as_ref().map(|r| r.stats());
        stats
    }

    /// Compile a config into a running snapshot: start every region unit
    /// and wait for each to probe its model. Any failure tears down the
    /// units already started and returns the error — the caller's current
    /// snapshot is untouched and keeps serving.
    pub(crate) fn build(
        config: Config,
        handlers: &BTreeMap<String, HostHandler>,
        counters: &Arc<Counters>,
        generation: u64,
    ) -> Result<Arc<RuntimeSnapshot>, DaemonError> {
        let mut units = BTreeMap::new();
        let mut owners = Vec::new();
        for rc in &config.regions {
            if rc.validation.is_some() && !handlers.contains_key(&rc.name) {
                abort_units(&units, owners);
                return Err(DaemonError::Build {
                    region: rc.name.clone(),
                    msg: "validation policy requires a registered host handler".into(),
                });
            }
            match start_unit(
                rc,
                &config.daemon,
                handlers.get(&rc.name).cloned(),
                counters,
            ) {
                Ok((unit, owner)) => {
                    units.insert(rc.name.clone(), unit);
                    owners.push(owner);
                }
                Err(e) => {
                    abort_units(&units, owners);
                    return Err(e);
                }
            }
        }
        Ok(Arc::new(RuntimeSnapshot {
            generation,
            config,
            units,
            owners: Mutex::new(owners),
        }))
    }

    /// Close every unit queue and join the owners. Requests already
    /// enqueued are drained by the workers first; pushes racing the close
    /// are bounced back to the daemon's retry loop. Idempotent.
    pub(crate) fn retire(&self) {
        for unit in self.units.values() {
            unit.queue.close();
        }
        let mut held = self.owners.lock();
        let owners = std::mem::take(&mut *held);
        drop(held);
        for owner in owners {
            let _ = owner.join();
        }
    }
}

/// Tear down partially-started units after a mid-build failure.
fn abort_units(units: &BTreeMap<String, Unit>, owners: Vec<std::thread::JoinHandle<()>>) {
    for unit in units.values() {
        unit.queue.close();
    }
    for owner in owners {
        let _ = owner.join();
    }
}

fn start_unit(
    rc: &RegionConfig,
    daemon: &DaemonConfig,
    handler: Option<HostHandler>,
    counters: &Arc<Counters>,
) -> Result<(Unit, std::thread::JoinHandle<()>), DaemonError> {
    let queue = Arc::new(Queue::new());
    let shared = Arc::new(UnitShared {
        region: Mutex::new(None),
    });
    let ready = Arc::new(ReadyCell::new());
    let build_err = |msg: String| DaemonError::Build {
        region: rc.name.clone(),
        msg,
    };
    let ctx = UnitCtx {
        cfg: rc.clone(),
        workers: rc.effective_workers(daemon).max(1),
        max_pending: rc.effective_max_pending(daemon),
        deadline: rc.effective_deadline(daemon),
        handler,
        counters: Arc::clone(counters),
        queue: Arc::clone(&queue),
        shared: Arc::clone(&shared),
        ready: Arc::clone(&ready),
    };
    let owner = std::thread::Builder::new()
        .name(format!("hpacml-serve-{}", rc.name))
        .spawn(move || run_unit(ctx))
        .map_err(|e| build_err(format!("owner thread spawn failed: {e}")))?;
    match ready.wait() {
        Ok(()) => Ok((
            Unit {
                queue,
                shared,
                inputs: rc.inputs.clone(),
                outputs: rc.outputs.clone(),
            },
            owner,
        )),
        Err(msg) => {
            let _ = owner.join();
            Err(build_err(msg))
        }
    }
}

/// Everything a unit owner thread needs, bundled for the spawn.
struct UnitCtx {
    cfg: RegionConfig,
    workers: usize,
    max_pending: Option<usize>,
    deadline: Option<Duration>,
    handler: Option<HostHandler>,
    counters: Arc<Counters>,
    queue: Arc<Queue>,
    shared: Arc<UnitShared>,
    ready: Arc<ReadyCell>,
}

/// The owner thread: build region/session/server on this stack, probe,
/// report ready, then serve the queue with a scoped worker pool until the
/// queue closes.
fn run_unit(ctx: UnitCtx) {
    let cfg = &ctx.cfg;
    let mut ready = ReadyReport(Some(&ctx.ready));
    let region = match build_region(cfg) {
        Ok(r) => Arc::new(r),
        Err(e) => return ready.publish(Err(format!("region build failed: {e}"))),
    };
    if let Err(e) = apply_precision(&region, cfg) {
        return ready.publish(Err(format!("precision policy failed: {e}")));
    }
    let binds = cfg
        .binds
        .iter()
        .fold(Bindings::new(), |b, (name, v)| b.with(name.as_str(), *v));
    let dims: Vec<[usize; 1]> = cfg
        .inputs
        .iter()
        .chain(cfg.outputs.iter())
        .map(|(_, n)| [*n])
        .collect();
    let shapes: Vec<(&str, &[usize])> = cfg
        .inputs
        .iter()
        .chain(cfg.outputs.iter())
        .zip(dims.iter())
        .map(|((name, _), d)| (name.as_str(), d.as_slice()))
        .collect();
    let session = match region.session(&binds, &shapes, cfg.max_batch) {
        Ok(s) => s,
        Err(e) => return ready.publish(Err(format!("session build failed: {e}"))),
    };
    // Shadow-probe before any validation policy is attached: a drawn
    // shadow validation during the probe would score the surrogate against
    // a no-op closure and poison the fallback controller.
    if let Err(e) = probe(&session, cfg) {
        return ready.publish(Err(format!("shadow probe failed: {e}")));
    }
    region.reset_stats();
    if let Some(v) = &cfg.validation {
        if let Err(e) = region.set_validation_policy(validation_policy(v)) {
            return ready.publish(Err(format!("validation policy failed: {e}")));
        }
    }
    let mut server = match BatchServer::new(&session, cfg.max_wait) {
        Ok(s) => s,
        Err(e) => return ready.publish(Err(format!("server build failed: {e}"))),
    };
    if let Some(mp) = ctx.max_pending {
        server = server.with_max_pending(mp);
    }
    if let Some(h) = &ctx.handler {
        let h = Arc::clone(h);
        server = server.with_fallback(move |n, ins, outs| h(n, ins, outs));
    }
    ctx.shared.region.lock().replace(Arc::clone(&region));
    ready.publish(Ok(()));
    let server = &server;
    std::thread::scope(|scope| {
        for _ in 0..ctx.workers {
            let queue = &ctx.queue;
            let counters = &ctx.counters;
            let deadline = ctx.deadline;
            scope.spawn(move || worker_loop(server, cfg, queue, counters, deadline));
        }
    });
    // Queue closed and drained: flush any forming batch and detach.
    server.shutdown();
    ctx.shared.region.lock().take();
    let _ = region.flush_db();
}

/// One submit worker: pull requests, push them through the shared
/// `BatchServer` (where concurrent workers coalesce into batches), publish
/// the result. Exits when the queue is closed and empty.
fn worker_loop(
    server: &BatchServer<'_, '_>,
    cfg: &RegionConfig,
    queue: &Queue,
    counters: &Counters,
    deadline: Option<Duration>,
) {
    while let Some(req) = queue.pop() {
        let mut outs: Vec<Vec<f32>> = cfg.outputs.iter().map(|(_, n)| vec![0.0; *n]).collect();
        let ins: Vec<&[f32]> = req.inputs.iter().map(|v| v.as_slice()).collect();
        let budget = req.budget.or(deadline);
        let result = submit_one(server, cfg, &ins, &mut outs, budget, req.enqueued);
        match result {
            Ok(()) => {
                counters.served.fetch_add(1, Ordering::Relaxed);
                req.reply.publish(Ok(outs));
            }
            Err(e) => {
                if e.is_overloaded() {
                    counters.rejected_overload.fetch_add(1, Ordering::Relaxed);
                } else if e.is_deadline() {
                    counters.rejected_deadline.fetch_add(1, Ordering::Relaxed);
                } else {
                    counters.errored.fetch_add(1, Ordering::Relaxed);
                }
                req.reply.publish(Err(e));
            }
        }
    }
}

fn submit_one(
    server: &BatchServer<'_, '_>,
    cfg: &RegionConfig,
    ins: &[&[f32]],
    outs: &mut [Vec<f32>],
    budget: Option<Duration>,
    enqueued: Instant,
) -> Result<(), DaemonError> {
    let mut out_refs: Vec<&mut [f32]> = outs.iter_mut().map(|v| v.as_mut_slice()).collect();
    match budget {
        Some(b) => {
            // The budget covers queueing: time already spent in the daemon
            // queue is charged before the batch-join wait.
            let queued = enqueued.elapsed();
            let Some(remaining) = b.checked_sub(queued) else {
                return Err(DaemonError::QueueDeadline {
                    region: cfg.name.clone(),
                    budget_ns: saturating_ns(b),
                    queued_ns: saturating_ns(queued),
                });
            };
            server
                .submit_with_deadline(ins, &mut out_refs, remaining)
                .map_err(DaemonError::from)
        }
        None => server.submit(ins, &mut out_refs).map_err(DaemonError::from),
    }
}

fn build_region(cfg: &RegionConfig) -> Result<Region, CoreError> {
    let mut b = Region::builder(cfg.name.as_str()).directive(cfg.directive.as_str());
    if let Some(model) = &cfg.model {
        b = b.model(model.as_str());
    }
    if let Some(db) = &cfg.db {
        b = b.database(db.as_str());
    }
    b.build()
}

fn apply_precision(region: &Region, cfg: &RegionConfig) -> Result<(), CoreError> {
    let policy = match cfg.precision {
        Precision::F32 => return Ok(()),
        Precision::Bf16 => PrecisionPolicy::bf16(),
        Precision::Int8 => PrecisionPolicy::int8(),
    };
    let policy = match cfg.calib_rows {
        Some(rows) => policy.with_max_calib_rows(rows),
        None => policy,
    };
    region.set_precision_policy(&policy).map(|_| ())
}

fn validation_policy(v: &ValidationConfig) -> ValidationPolicy {
    let metric = match v.metric {
        Metric::Rmse => ErrorMetric::Rmse,
        Metric::Mape => ErrorMetric::Mape,
        Metric::MaxAbs => ErrorMetric::MaxAbs,
    };
    let mut policy = ValidationPolicy::new(metric, v.budget);
    if let Some(rate) = v.rate {
        policy = policy.with_sample_rate(rate);
    }
    if let Some(window) = v.window {
        policy = policy.with_window(window);
    }
    if let Some(k) = v.batch_samples {
        policy = policy.with_batch_samples(k);
    }
    policy
}

/// One forced-surrogate pass with deterministic inputs: proves the model
/// resolves, the packed panels build, and a forward pass completes —
/// before the unit is allowed into a snapshot.
fn probe(session: &Session<'_>, cfg: &RegionConfig) -> Result<(), CoreError> {
    let bufs: Vec<Vec<f32>> = cfg
        .inputs
        .iter()
        .enumerate()
        .map(|(k, (_, n))| {
            (0..*n)
                .map(|i| (k + 1) as f32 * 0.125 + i as f32 * 0.0625)
                .collect()
        })
        .collect();
    let mut run = session.invoke().use_surrogate(true);
    for ((name, _), buf) in cfg.inputs.iter().zip(bufs.iter()) {
        run = run.input(name, buf)?;
    }
    let mut out = run.run(|| {})?;
    let mut sink: Vec<Vec<f32>> = cfg.outputs.iter().map(|(_, n)| vec![0.0; *n]).collect();
    for ((name, _), buf) in cfg.outputs.iter().zip(sink.iter_mut()) {
        out.output(name, buf)?;
    }
    out.finish()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_unwound_build_reports_an_error() {
        let cell = ReadyCell::new();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ready = ReadyReport(Some(&cell));
            panic!("injected build-phase panic");
        }));
        assert!(unwound.is_err());
        assert_eq!(
            cell.slot.lock().take(),
            Some(Err("unit build panicked".to_string()))
        );
    }

    #[test]
    fn a_published_report_is_not_overwritten_on_drop() {
        let cell = ReadyCell::new();
        let mut ready = ReadyReport(Some(&cell));
        ready.publish(Ok(()));
        drop(ready);
        assert_eq!(cell.slot.lock().take(), Some(Ok(())));
    }
}
