//! The server: a batcher thread coalescing jobs into per-function packed
//! buffers, a small pool of evaluation workers, and the cloneable
//! [`ServeHandle`] callers submit through.
//!
//! # Lifecycle
//!
//! [`PwlServer::start`] spawns one **batcher** thread and
//! `eval_workers` **worker** threads. Submitted jobs land in a bounded
//! queue (backpressure: [`ServeHandle::submit`] blocks while the queue
//! holds `queue_elements` pending elements; [`ServeHandle::try_submit`]
//! returns [`ServeError::QueueFull`] instead). Flushing is
//! **per function**: a function's pending jobs drain when they reach
//! its [`FlushPolicy`] element threshold *or* its oldest pending job
//! has waited out the policy deadline — functions without an explicit
//! policy (see [`crate::FunctionRegistry::set_policy`]) use the
//! [`ServeConfig`] defaults. A due function flushes alone; other
//! functions' jobs stay queued until *their* policy fires, so a
//! latency-critical function under a tight deadline is never held
//! hostage by a throughput-oriented one. Each flush is planned with
//! [`FlushPlan`] into one unit per function and handed to the workers
//! with a snapshot of the function's **backend program** from the
//! registry (the native SIMD kernels, the SFU emulator, or any other
//! bound backend — a unit never mixes backends because it never mixes
//! functions). A unit of one job evaluates in that job's own buffer
//! through [`flexsfu_backend::BackendProgram::eval_in_place`]; a unit
//! of several is packed into one contiguous buffer and evaluated
//! through [`flexsfu_backend::BackendProgram::eval_scatter_into`],
//! which scatters each job's results back into its own buffer. Workers
//! record the flush's [`flexsfu_backend::FlushStats`] into the
//! registry's per-function counters and complete each job's oneshot
//! channel with the `Vec` the job was submitted in, now holding its
//! results: a round trip allocates no result buffer.
//!
//! [`PwlServer::shutdown`] (also run on drop) stops admissions, drains
//! every already-accepted job through a final flush, and joins all
//! threads — in-flight work is never discarded.

use crate::error::ServeError;
use crate::histogram::HistogramAccum;
use crate::obs::{FuncObs, ObsState, ServeObs};
use crate::oneshot;
use crate::plan::FlushPlan;
use crate::registry::{Bound, FunctionId, FunctionRegistry, StatsAccumulator};
use crate::testkit::Faults;
use flexsfu_backend::BackendProgram;
use flexsfu_core::Element;
use flexsfu_obs::{SpanCell, Stage};
use std::collections::HashMap;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::task::{Context, Poll};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// When one function's pending jobs flush: at `max_elems` pending
/// elements, or when the oldest of them has waited `deadline`.
///
/// Attached per function via
/// [`crate::FunctionRegistry::set_policy`]; the server's [`ServeConfig`]
/// supplies the defaults for functions without one. Both triggers are
/// per function — two functions with different deadlines flush
/// independently (pinned by the `serving_stress` suite).
///
/// Policies shape latency, not admission: when the shared queue's
/// element bound saturates (a submitter is parked waiting for space),
/// **every** pending function flushes regardless of its policy, so a
/// long-deadline function can never block other functions' admissions
/// through the shared bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlushPolicy {
    /// Flush as soon as this many of the function's elements are
    /// pending (the size threshold). Sized so a flush saturates the
    /// SIMD lanes without blowing the L2 working set.
    pub max_elems: usize,
    /// Flush when the function's oldest pending job has waited this
    /// long — bounds the function's tail latency under light traffic.
    /// A deadline too large for the clock (e.g. [`Duration::MAX`])
    /// saturates to "never": the function then flushes only on size,
    /// queue pressure, or shutdown.
    pub deadline: Duration,
}

/// Tuning knobs for [`PwlServer::start`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Default per-function size threshold: a function flushes as soon
    /// as this many of *its* elements are pending. Overridable per
    /// function with [`crate::FunctionRegistry::set_policy`].
    pub flush_elements: usize,
    /// Default per-function deadline: a function flushes when its
    /// oldest pending job has waited this long.
    pub flush_interval: Duration,
    /// Backpressure bound: the queue admits at most this many pending
    /// *elements* (a job larger than the whole bound is admitted alone
    /// into an empty queue, so oversized tensors cannot deadlock). This
    /// bound stays global — admission control protects the process,
    /// flush policy shapes latency.
    pub queue_elements: usize,
    /// Evaluation worker threads. More than one lets a flush of function
    /// A evaluate while function B's next flush is being packed.
    pub eval_workers: usize,
}

impl ServeConfig {
    /// The flush policy functions without an explicit one use.
    pub fn default_policy(&self) -> FlushPolicy {
        FlushPolicy {
            max_elems: self.flush_elements,
            deadline: self.flush_interval,
        }
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            flush_elements: 32_768,
            flush_interval: Duration::from_micros(500),
            queue_elements: 131_072,
            eval_workers: 2,
        }
    }
}

/// A precision the serving tier batches: `f64` or `f32` (sealed, like
/// [`Element`]). The hooks below are the only places the two lanes
/// differ — which queue and flush-unit variant carries a job, and which
/// of a function's backend programs evaluates it; admission, planning,
/// packing, evaluation and scatter-back are written once over `T`.
pub trait ServeElement: Element {
    /// Tags a job with its precision for the shared queue.
    #[doc(hidden)]
    fn queued(job: LaneJob<Self>) -> Job;

    /// Tags a flush unit with its precision for the worker channel.
    #[doc(hidden)]
    fn unit(unit: LaneUnit<Self>) -> FlushUnit;

    /// The binding's backend program in this precision, or `None` when
    /// its backend has no such lane.
    #[doc(hidden)]
    fn program(bound: &Bound) -> Option<&Arc<dyn BackendProgram<Self>>>;
}

impl ServeElement for f64 {
    fn queued(job: LaneJob<f64>) -> Job {
        Job::F64(job)
    }

    fn unit(unit: LaneUnit<f64>) -> FlushUnit {
        FlushUnit::F64(unit)
    }

    fn program(bound: &Bound) -> Option<&Arc<dyn BackendProgram>> {
        Some(&bound.program)
    }
}

impl ServeElement for f32 {
    fn queued(job: LaneJob<f32>) -> Job {
        Job::F32(job)
    }

    fn unit(unit: LaneUnit<f32>) -> FlushUnit {
        FlushUnit::F32(unit)
    }

    fn program(bound: &Bound) -> Option<&Arc<dyn BackendProgram<f32>>> {
        bound.program_f32.as_ref()
    }
}

/// One pending job: the tensor (in its submitted precision), its target
/// function, and the channel the result goes back over. An f32 job
/// stays f32 from submission to scatter-back — the packed flush buffer,
/// the kernels and the returned buffer never touch f64.
pub struct LaneJob<T: Element> {
    func: FunctionId,
    data: Vec<T>,
    tx: oneshot::Sender<Vec<T>>,
    /// Enqueue instant (obs clock, ns) — the queue-wait anchor. Zero
    /// when the server runs without observability.
    enqueued_ns: u64,
    /// Trace cell when this job was sampled.
    span: Option<Arc<SpanCell>>,
}

/// A queued job, tagged by precision: both precisions share one queue.
pub enum Job {
    F64(LaneJob<f64>),
    F32(LaneJob<f32>),
}

impl Job {
    fn func(&self) -> FunctionId {
        match self {
            Job::F64(j) => j.func,
            Job::F32(j) => j.func,
        }
    }
}

/// One job inside a flush unit: `(the job's own buffer, result
/// channel, trace cell)` in packed order. The buffer's inputs are
/// overwritten with their results and sent back, so no job gets a
/// result allocation.
type PackedJob<T> = (Vec<T>, oneshot::Sender<Vec<T>>, Option<Arc<SpanCell>>);

/// One function's share of a flush, ready for a worker: the backend
/// program snapshot it evaluates through (in the flush's precision — a
/// unit never mixes precisions, just as it never mixes functions), and
/// the stats sink the flush's cost lands in.
pub struct LaneUnit<T: Element> {
    program: Arc<dyn BackendProgram<T>>,
    stats: Arc<StatsAccumulator>,
    histogram: Arc<HistogramAccum>,
    /// The jobs' inputs packed end to end; empty for a unit of one job,
    /// which evaluates in its own buffer.
    xs: Vec<T>,
    jobs: Vec<PackedJob<T>>,
    obs: Option<UnitObs>,
}

/// A flush unit, tagged by precision for the worker channel.
pub enum FlushUnit {
    F64(LaneUnit<f64>),
    F32(LaneUnit<f32>),
}

/// The observability handles one flush unit carries to its worker: the
/// global state plus the unit's function-labelled series, both
/// pre-resolved — the worker records without locks or allocation.
struct UnitObs {
    state: Arc<ObsState>,
    func: Arc<FuncObs>,
}

/// Per-function pending aggregate — the flush-policy triggers.
struct FuncPending {
    /// Pending elements of this function.
    elems: usize,
    /// Arrival time of its oldest pending job — the deadline anchor.
    oldest: Instant,
}

/// Queue state behind the mutex.
struct QueueState {
    jobs: Vec<Job>,
    queued_elems: usize,
    /// Aggregates per function with pending jobs.
    pending: HashMap<FunctionId, FuncPending>,
    /// Submitters currently parked on the element bound. Non-zero means
    /// the queue is saturated: the batcher flushes *everything* rather
    /// than letting one long-deadline function hold the shared bound —
    /// and with it every other function's admissions — hostage.
    space_waiters: usize,
    /// Set when a non-blocking `try_submit` bounced off the full queue.
    /// The batcher consumes it as a one-shot pressure signal, so pure
    /// `try_submit` producers (which never park and so never raise
    /// `space_waiters`) also force a drain instead of seeing
    /// `QueueFull` forever against a never-flushing function.
    rejected_full: bool,
    shutdown: bool,
}

/// The mutex/condvar trio the handle and batcher share.
struct Shared {
    queue: Mutex<QueueState>,
    /// Signalled on submit and shutdown; the batcher waits here.
    job_ready: Condvar,
    /// Signalled on flush and shutdown; blocked submitters wait here.
    space: Condvar,
    /// Test-only fault injector ([`crate::testkit::Faults`]); `None` in
    /// production servers.
    faults: Option<Arc<Faults>>,
    /// Observability handles ([`PwlServer::start_with_obs`]); `None`
    /// keeps every instrumented site a single branch.
    obs: Option<Arc<ObsState>>,
}

/// A point-in-time reading of the submission queue — the stats hook the
/// wire tier reports in health-check pongs (see
/// [`ServeHandle::queue_depth`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueueDepth {
    /// Pending jobs not yet drained into a flush.
    pub jobs: usize,
    /// Pending elements across those jobs — the quantity the
    /// backpressure bound meters.
    pub elems: usize,
}

/// A running serving front-end. Dropping it shuts down gracefully.
pub struct PwlServer {
    shared: Arc<Shared>,
    registry: Arc<FunctionRegistry>,
    queue_elements: usize,
    batcher: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

/// A cloneable submission handle. Handles stay valid after shutdown —
/// submissions then fail with [`ServeError::ShuttingDown`].
#[derive(Clone)]
pub struct ServeHandle {
    shared: Arc<Shared>,
    registry: Arc<FunctionRegistry>,
    queue_elements: usize,
}

/// A pending result in precision `T` (`JobTicket` is the f64 ticket):
/// block on [`JobTicket::wait`] or `.await` it from any executor (the
/// oneshot receiver stores the task's waker).
pub struct JobTicket<T: Element = f64> {
    rx: oneshot::Receiver<Vec<T>>,
    span: Option<Arc<SpanCell>>,
}

impl<T: Element> JobTicket<T> {
    /// Blocks until the job's results arrive.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Disconnected`] if the server dropped the
    /// job's result channel without completing it (only possible if an
    /// evaluation worker panicked).
    pub fn wait(self) -> Result<Vec<T>, ServeError> {
        self.rx.recv().map_err(|_| ServeError::Disconnected)
    }

    /// The job's trace cell, when the server traced it — downstream
    /// tiers (the wire pump) stamp their stages through this.
    pub fn span(&self) -> Option<&Arc<SpanCell>> {
        self.span.as_ref()
    }
}

impl<T: Element> std::future::Future for JobTicket<T> {
    type Output = Result<Vec<T>, ServeError>;

    fn poll(self: std::pin::Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        std::pin::Pin::new(&mut self.get_mut().rx)
            .poll(cx)
            .map(|r| r.map_err(|_| ServeError::Disconnected))
    }
}

impl PwlServer {
    /// Spawns the batcher and worker threads over `registry`.
    ///
    /// # Panics
    ///
    /// Panics if `config.flush_elements`, `config.queue_elements` or
    /// `config.eval_workers` is zero.
    pub fn start(registry: Arc<FunctionRegistry>, config: ServeConfig) -> Self {
        Self::start_inner(registry, config, None, None)
    }

    /// [`Self::start`] with observability: metrics land in
    /// `obs.metrics`, sampled jobs are traced through `obs.spans`. The
    /// un-instrumented paths are unchanged; instrumented sites record
    /// through handles resolved once at start-up.
    ///
    /// # Panics
    ///
    /// As [`Self::start`].
    pub fn start_with_obs(
        registry: Arc<FunctionRegistry>,
        config: ServeConfig,
        obs: ServeObs,
    ) -> Self {
        Self::start_inner(registry, config, None, Some(obs))
    }

    /// [`Self::start`] with a [`crate::testkit::Faults`] injector
    /// installed — test-support only: the wire-protocol suites use it to
    /// deterministically trigger backpressure, dropped-reply and
    /// delayed-flush paths instead of racing for them.
    ///
    /// # Panics
    ///
    /// As [`Self::start`].
    pub fn start_with_faults(
        registry: Arc<FunctionRegistry>,
        config: ServeConfig,
        faults: Arc<Faults>,
    ) -> Self {
        Self::start_inner(registry, config, Some(faults), None)
    }

    fn start_inner(
        registry: Arc<FunctionRegistry>,
        config: ServeConfig,
        faults: Option<Arc<Faults>>,
        obs: Option<ServeObs>,
    ) -> Self {
        assert!(config.flush_elements > 0, "flush_elements must be nonzero");
        assert!(config.queue_elements > 0, "queue_elements must be nonzero");
        assert!(config.eval_workers > 0, "need at least one eval worker");
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState {
                jobs: Vec::new(),
                queued_elems: 0,
                pending: HashMap::new(),
                space_waiters: 0,
                rejected_full: false,
                shutdown: false,
            }),
            job_ready: Condvar::new(),
            space: Condvar::new(),
            faults,
            obs: obs.as_ref().map(|o| Arc::new(ObsState::new(o))),
        });

        let (unit_tx, unit_rx) = mpsc::channel::<FlushUnit>();
        let unit_rx = Arc::new(Mutex::new(unit_rx));
        let workers = (0..config.eval_workers)
            .map(|i| {
                let rx = Arc::clone(&unit_rx);
                let faults = shared.faults.clone();
                std::thread::Builder::new()
                    .name(format!("flexsfu-serve-worker-{i}"))
                    .spawn(move || worker_loop(&rx, faults.as_deref()))
                    .expect("spawn worker thread")
            })
            .collect();

        let batcher = {
            let shared = Arc::clone(&shared);
            let registry = Arc::clone(&registry);
            let cfg = config.clone();
            std::thread::Builder::new()
                .name("flexsfu-serve-batcher".into())
                .spawn(move || batcher_loop(&shared, &registry, &cfg, &unit_tx))
                .expect("spawn batcher thread")
        };

        Self {
            shared,
            registry,
            queue_elements: config.queue_elements,
            batcher: Some(batcher),
            workers,
        }
    }

    /// A new submission handle.
    pub fn handle(&self) -> ServeHandle {
        ServeHandle {
            shared: Arc::clone(&self.shared),
            registry: Arc::clone(&self.registry),
            queue_elements: self.queue_elements,
        }
    }

    /// The registry this server evaluates through — [`publish`] to it to
    /// hot-swap coefficient tables without stopping traffic.
    ///
    /// [`publish`]: FunctionRegistry::publish
    pub fn registry(&self) -> &Arc<FunctionRegistry> {
        &self.registry
    }

    /// Graceful shutdown: stops admitting jobs, drains and completes
    /// everything already accepted, then joins all threads. Equivalent to
    /// dropping the server, but explicit at call sites that care.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    /// The non-blocking first half of [`Self::shutdown`] — the drain
    /// hook the sharded deployment tier uses for handoff: admissions
    /// stop (new submits fail [`ServeError::ShuttingDown`]) and the
    /// batcher begins its final drain, but the call returns immediately
    /// instead of joining threads. Every job accepted before this call
    /// still completes; a later [`Self::shutdown`] (or drop) joins the
    /// threads as usual.
    pub fn begin_drain(&self) {
        {
            let mut q = self.shared.queue.lock().unwrap();
            q.shutdown = true;
        }
        self.shared.job_ready.notify_all();
        self.shared.space.notify_all();
    }

    /// Current submission-queue depth — see [`ServeHandle::queue_depth`].
    pub fn queue_depth(&self) -> QueueDepth {
        let q = self.shared.queue.lock().unwrap();
        QueueDepth {
            jobs: q.jobs.len(),
            elems: q.queued_elems,
        }
    }

    fn shutdown_inner(&mut self) {
        {
            let mut q = self.shared.queue.lock().unwrap();
            q.shutdown = true;
        }
        self.shared.job_ready.notify_all();
        self.shared.space.notify_all();
        if let Some(b) = self.batcher.take() {
            // The batcher drains the queue into the workers' channel and
            // drops its sender, which ends the worker loops.
            b.join().expect("batcher thread panicked");
        }
        for w in self.workers.drain(..) {
            w.join().expect("worker thread panicked");
        }
    }
}

impl Drop for PwlServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

impl ServeHandle {
    /// Submits `(func, data)` for evaluation, blocking while the queue is
    /// over its element bound, and returns the ticket the results arrive
    /// on. The results come back in `data` itself: each input is
    /// overwritten with its result and the ticket yields the same `Vec`
    /// (same allocation), so a caller can reuse it for its next
    /// submission. Zero-length tensors are legal and complete with an
    /// empty result.
    ///
    /// The precision follows `data`. An f32 tensor is batched into an
    /// f32 flush buffer, evaluated through the backend's f32 program
    /// (eight-wide f32 kernels on the native backend), and scattered
    /// back as f32 — bit-identical to evaluating the tensor directly
    /// with the registry's [`FunctionRegistry::engine_f32`]. f32 and f64
    /// jobs of one function share its flush policy and pending-element
    /// accounting but always flush in separate units — a unit never
    /// mixes precisions.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownFunction`] if `func` was never registered,
    /// [`ServeError::PrecisionUnsupported`] if the function's backend has
    /// no lane in `T`'s precision (f32 on a backend without an f32
    /// lane), [`ServeError::ShuttingDown`] if the server stopped
    /// admitting jobs (including while blocked waiting for space).
    pub fn submit<T: ServeElement>(
        &self,
        func: FunctionId,
        data: Vec<T>,
    ) -> Result<JobTicket<T>, ServeError> {
        self.submit_inner(func, data, true, None)
    }

    /// [`Self::submit`] for an f32 tensor, under the name the frozen
    /// benchmark calls.
    ///
    /// # Errors
    ///
    /// As [`Self::submit`].
    pub fn submit_f32(
        &self,
        func: FunctionId,
        data: Vec<f32>,
    ) -> Result<JobTicket<f32>, ServeError> {
        self.submit(func, data)
    }

    /// Non-blocking [`Self::submit`]: a full queue returns
    /// [`ServeError::QueueFull`] instead of waiting.
    ///
    /// # Errors
    ///
    /// As [`Self::submit`], plus [`ServeError::QueueFull`].
    pub fn try_submit<T: ServeElement>(
        &self,
        func: FunctionId,
        data: Vec<T>,
    ) -> Result<JobTicket<T>, ServeError> {
        self.submit_inner(func, data, false, None)
    }

    /// Non-blocking submit carrying a propagated distributed-trace id.
    ///
    /// With `trace == Some(id)` the job's span is **always** recorded
    /// (the origin that minted the id already made the sampling
    /// decision) and tagged with `id`, so a cross-process assembler can
    /// join it with the origin's stages; `None` behaves exactly like
    /// [`Self::try_submit`] (local sampling, no trace id).
    ///
    /// # Errors
    ///
    /// As [`Self::try_submit`].
    pub fn try_submit_traced<T: ServeElement>(
        &self,
        func: FunctionId,
        data: Vec<T>,
        trace: Option<u64>,
    ) -> Result<JobTicket<T>, ServeError> {
        self.submit_inner(func, data, false, trace)
    }

    /// The registry this handle's server evaluates through.
    pub fn registry(&self) -> &Arc<FunctionRegistry> {
        &self.registry
    }

    /// Current submission-queue depth (pending jobs and elements) — the
    /// load signal the wire tier folds into health-check pongs so a
    /// router can see a shard's pressure without submitting to it.
    /// Point-in-time: concurrent submits and flushes move it.
    pub fn queue_depth(&self) -> QueueDepth {
        let q = self.shared.queue.lock().unwrap();
        QueueDepth {
            jobs: q.jobs.len(),
            elems: q.queued_elems,
        }
    }

    /// Whether the server has stopped admitting jobs
    /// ([`PwlServer::begin_drain`] / [`PwlServer::shutdown`] / drop).
    /// Jobs accepted before that point still complete.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.queue.lock().unwrap().shutdown
    }

    /// The admission path, one body for both precisions: bounds,
    /// backpressure and pending-aggregate bookkeeping are element-based,
    /// so both precisions share one queue and one set of flush triggers.
    fn submit_inner<T: ServeElement>(
        &self,
        func: FunctionId,
        data: Vec<T>,
        block: bool,
        trace: Option<u64>,
    ) -> Result<JobTicket<T>, ServeError> {
        // The precision check runs at admission, not at flush: a job the
        // backend can never evaluate must bounce here, where the caller
        // can still handle it, not surface later as `Disconnected`.
        match self.registry.supports::<T>(func) {
            None => return Err(ServeError::UnknownFunction(func)),
            Some(false) => return Err(ServeError::PrecisionUnsupported(func)),
            Some(true) => {}
        }
        let (tx, rx) = oneshot::channel();
        // One clock read up front (observability on only): the Submit
        // stamp must predate any time spent parked on the element bound.
        let submit_ns = self.shared.obs.as_ref().map(|o| o.now_ns());
        // Injected backpressure (testkit): a forced bounce takes the
        // exact organic path — flag the pressure and wake the batcher —
        // so the retry loop under test exercises the real signals.
        // Non-blocking admissions only: forcing a *blocking* submit full
        // would just park it, which is not a fault worth injecting.
        if !block {
            if let Some(faults) = &self.shared.faults {
                if faults.take_queue_full() {
                    let mut q = self.shared.queue.lock().unwrap();
                    q.rejected_full = true;
                    drop(q);
                    self.shared.job_ready.notify_one();
                    return Err(ServeError::QueueFull);
                }
            }
        }
        let mut q = self.shared.queue.lock().unwrap();
        loop {
            if q.shutdown {
                return Err(ServeError::ShuttingDown);
            }
            // Admit when within the bound — or into an empty queue, so a
            // single job larger than the whole bound cannot wedge.
            if q.queued_elems == 0 || q.queued_elems + data.len() <= self.queue_elements {
                break;
            }
            if !block {
                // Same pressure rule as parking (below), minus the
                // wait: flag the saturation and wake the batcher so a
                // retrying caller finds space after the forced drain.
                q.rejected_full = true;
                drop(q);
                self.shared.job_ready.notify_one();
                return Err(ServeError::QueueFull);
            }
            // Park — and tell the batcher: a saturated queue overrides
            // every flush policy (see `batcher_loop`), otherwise a
            // long-deadline function could block all admissions for its
            // whole deadline.
            q.space_waiters += 1;
            self.shared.job_ready.notify_one();
            q = self.shared.space.wait(q).unwrap();
            q.space_waiters -= 1;
        }
        let pending = q.pending.entry(func).or_insert_with(|| FuncPending {
            elems: 0,
            oldest: Instant::now(),
        });
        pending.elems += data.len();
        q.queued_elems += data.len();
        // Sampling decision under the queue lock: job ids are assigned
        // in admission order, so a sequential replay samples the same
        // jobs every run. A propagated trace id bypasses local sampling
        // (the origin already decided) and tags the span for the
        // cross-process assembler.
        let (enqueued_ns, span) = match &self.shared.obs {
            Some(obs) => {
                obs.submits.inc();
                let span = match trace {
                    Some(id) => Some(obs.spans.adopt(func.0, id)),
                    None => obs.spans.try_start(func.0),
                };
                let now = obs.now_ns();
                if let Some(cell) = &span {
                    cell.record(Stage::Submit, submit_ns.unwrap_or(now));
                    cell.record(Stage::Enqueue, now);
                }
                obs.queue_jobs.set((q.jobs.len() + 1) as f64);
                obs.queue_elems.set(q.queued_elems as f64);
                (now, span)
            }
            None => (0, None),
        };
        q.jobs.push(T::queued(LaneJob {
            func,
            data,
            tx,
            enqueued_ns,
            span: span.clone(),
        }));
        drop(q);
        self.shared.job_ready.notify_one();
        Ok(JobTicket { rx, span })
    }
}

/// The batcher: waits for any function's size threshold or deadline,
/// drains exactly the due functions' jobs, plans/packs per-function
/// units, and feeds the workers. Returns (dropping the unit sender,
/// which ends the workers) once shutdown is set and the queue is fully
/// drained.
///
/// Lock order: the queue mutex may be held while taking the registry's
/// read lock (policy lookup); no code path acquires them in the other
/// order while holding either.
fn batcher_loop(
    shared: &Shared,
    registry: &FunctionRegistry,
    cfg: &ServeConfig,
    unit_tx: &mpsc::Sender<FlushUnit>,
) {
    let default_policy = cfg.default_policy();
    let mut q = shared.queue.lock().unwrap();
    loop {
        if q.shutdown && q.jobs.is_empty() {
            return;
        }
        // Evaluate every pending function's own policy. Two conditions
        // override the per-function triggers and make *everything* due:
        // shutdown (the final drain is one flush) and admission
        // pressure (a submitter parked on the element bound — policies
        // shape latency, they must never starve admissions).
        let now = Instant::now();
        // `rejected_full` is a consumed one-shot: a bounced try_submit
        // forces exactly one full drain (more rejections re-arm it).
        // Taken unconditionally — behind a short-circuiting `||` a drain
        // triggered by a parked waiter would leave the stale flag armed
        // and force a spurious policy-overriding flush later.
        let rejected_full = std::mem::take(&mut q.rejected_full);
        let force_all = q.shutdown || q.space_waiters > 0 || rejected_full;
        let mut due: Vec<FunctionId> = Vec::new();
        let mut next_deadline: Option<Instant> = None;
        for (&func, pending) in &q.pending {
            let policy = registry.policy(func).unwrap_or(default_policy);
            // `checked_add`: a huge deadline (`Duration::MAX` = "flush
            // on size or shutdown only") must saturate to "never", not
            // overflow `Instant` and panic the batcher.
            let deadline = pending.oldest.checked_add(policy.deadline);
            let fired_size = pending.elems >= policy.max_elems;
            let fired_deadline = deadline.is_some_and(|d| now >= d);
            if force_all || fired_size || fired_deadline {
                if let Some(obs) = &shared.obs {
                    // A function's own trigger takes precedence over the
                    // queue-wide overrides in the reason accounting: a
                    // size-due function drained during shutdown still
                    // flushed "because it was full".
                    let reason = if fired_size {
                        &obs.flush_size
                    } else if fired_deadline {
                        &obs.flush_deadline
                    } else if q.shutdown {
                        &obs.flush_shutdown
                    } else {
                        &obs.flush_pressure
                    };
                    reason.inc();
                }
                due.push(func);
            } else if let Some(d) = deadline {
                next_deadline = Some(next_deadline.map_or(d, |nd: Instant| nd.min(d)));
            }
        }
        if !due.is_empty() {
            // Drain only the due functions, preserving submission order
            // for the FIFO-per-function packing guarantee.
            let mut drained = Vec::new();
            let mut kept = Vec::with_capacity(q.jobs.len());
            for job in q.jobs.drain(..) {
                if due.contains(&job.func()) {
                    drained.push(job);
                } else {
                    kept.push(job);
                }
            }
            q.jobs = kept;
            for func in &due {
                if let Some(p) = q.pending.remove(func) {
                    q.queued_elems -= p.elems;
                }
            }
            if let Some(obs) = &shared.obs {
                obs.queue_jobs.set(q.jobs.len() as f64);
                obs.queue_elems.set(q.queued_elems as f64);
            }
            drop(q);
            shared.space.notify_all();
            if !drained.is_empty() {
                dispatch_flush(drained, registry, unit_tx, shared.obs.as_ref());
            }
            q = shared.queue.lock().unwrap();
            continue;
        }
        q = match next_deadline {
            // Sleep exactly until the earliest pending deadline (spurious
            // wakeups and early submits just re-evaluate the conditions).
            Some(deadline) => {
                let remaining = deadline.saturating_duration_since(now);
                shared.job_ready.wait_timeout(q, remaining).unwrap().0
            }
            // Jobs pending but no reachable deadline (every pending
            // function has a never-expiring policy): re-check on a
            // coarse tick rather than parking forever, so a concurrent
            // `set_policy` tightening a deadline takes effect within a
            // tick instead of waiting for the next submission.
            None if !q.jobs.is_empty() => {
                shared
                    .job_ready
                    .wait_timeout(q, Duration::from_millis(10))
                    .unwrap()
                    .0
            }
            None => shared.job_ready.wait(q).unwrap(),
        };
    }
}

/// Plans a drained batch, packs one contiguous buffer per function *and
/// precision*, and snapshots each function's current backend program
/// for the unit — a concurrently published table applies from the next
/// flush on, and no unit ever mixes tables (nor backends nor
/// precisions: units are per-function, and the drain is partitioned by
/// precision before planning, preserving submission order within each).
fn dispatch_flush(
    drained: Vec<Job>,
    registry: &FunctionRegistry,
    unit_tx: &mpsc::Sender<FlushUnit>,
    obs: Option<&Arc<ObsState>>,
) {
    let mut jobs64: Vec<LaneJob<f64>> = Vec::new();
    let mut jobs32: Vec<LaneJob<f32>> = Vec::new();
    for job in drained {
        match job {
            Job::F64(j) => jobs64.push(j),
            Job::F32(j) => jobs32.push(j),
        }
    }
    // One clock read covers the whole plan: every job in this drain was
    // planned at the same instant, and queue wait is measured to here.
    let plan_ns = obs.map(|o| o.now_ns()).unwrap_or_default();
    // Workers gone (panicked) — nothing to do; senders drop and the
    // submitters observe `Disconnected`.
    if dispatch_lane(jobs64, registry, unit_tx, obs, plan_ns) {
        dispatch_lane(jobs32, registry, unit_tx, obs, plan_ns);
    }
}

/// Plans and packs one precision's share of a drain into per-function
/// units and sends them to the workers. Returns `false` once the
/// workers are gone.
fn dispatch_lane<T: ServeElement>(
    jobs: Vec<LaneJob<T>>,
    registry: &FunctionRegistry,
    unit_tx: &mpsc::Sender<FlushUnit>,
    obs: Option<&Arc<ObsState>>,
    plan_ns: u64,
) -> bool {
    let shapes: Vec<(FunctionId, usize)> = jobs.iter().map(|j| (j.func, j.data.len())).collect();
    let plan = FlushPlan::build(&shapes);
    let mut slots: Vec<Option<LaneJob<T>>> = jobs.into_iter().map(Some).collect();
    for group in plan.groups {
        let Some((program, stats, histogram)) = registry.binding::<T>(group.func) else {
            // Unreachable in practice — submit validates ids and
            // precision support, and the registry never unregisters.
            // Dropping the senders fails the jobs with `Disconnected`
            // rather than poisoning the server.
            debug_assert!(false, "function {:?} lost its binding", group.func);
            continue;
        };
        let unit_obs = obs.map(|o| UnitObs {
            state: Arc::clone(o),
            func: o.func(group.func, registry),
        });
        // A lone job needs no pack: it evaluates in its own buffer.
        let lone = group.spans.len() == 1;
        let mut xs = Vec::with_capacity(if lone { 0 } else { group.total });
        let mut jobs = Vec::with_capacity(group.spans.len());
        for span in &group.spans {
            let job = slots[span.job].take().expect("span bijection");
            if !lone {
                debug_assert_eq!(xs.len(), span.offset, "spans tile the buffer");
                xs.extend_from_slice(&job.data);
            }
            if let Some(u) = &unit_obs {
                u.func
                    .queue_wait_ns
                    .record(plan_ns.saturating_sub(job.enqueued_ns));
                if let Some(cell) = &job.span {
                    cell.record(Stage::FlushPlan, plan_ns);
                }
            }
            jobs.push((job.data, job.tx, job.span));
        }
        if let Some(u) = &unit_obs {
            u.state.flush_units.inc();
            u.state.flush_elems.record(group.total as u64);
        }
        let unit = LaneUnit {
            program,
            stats,
            histogram,
            xs,
            jobs,
            obs: unit_obs,
        };
        if unit_tx.send(T::unit(unit)).is_err() {
            return false;
        }
    }
    true
}

/// Post-eval bookkeeping of one instrumented flush unit: evaluation
/// latency into the global and per-function histograms, modelled cost
/// into the backend counters (energy rounded to whole nanojoules).
fn record_flush_obs(u: &UnitObs, eval_start_ns: u64, stats: &flexsfu_backend::FlushStats) {
    let dt = u.state.now_ns().saturating_sub(eval_start_ns);
    u.state.eval_ns_all.record(dt);
    u.func.eval_ns.record(dt);
    u.state.backend_elems.add(stats.elems as u64);
    if let Some(hw) = stats.hw {
        u.state.cycles.add(hw.cycles);
        u.state.energy_nj.add(hw.energy_nj.round() as u64);
    }
}

/// An evaluation worker: runs each unit it dequeues (see
/// [`eval_unit`]) until the batcher hangs up.
fn worker_loop(rx: &Mutex<mpsc::Receiver<FlushUnit>>, faults: Option<&Faults>) {
    loop {
        // Hold the channel lock only for the dequeue, not the evaluation.
        let unit = match rx.lock().unwrap().recv() {
            Ok(u) => u,
            Err(_) => return, // batcher gone: shutdown complete
        };
        // Injected latency (testkit): widen the pending window so
        // out-of-order completion is observable deterministically.
        if let Some(delay) = faults.and_then(Faults::flush_delay) {
            std::thread::sleep(delay);
        }
        match unit {
            FlushUnit::F64(u) => eval_unit(u, faults),
            FlushUnit::F32(u) => eval_unit(u, faults),
        }
    }
}

/// Evaluates one unit through its backend program (in the unit's
/// precision) into the jobs' own buffers, records the flush cost, and
/// completes the oneshots with those buffers. A lone job evaluates in
/// place; several jobs evaluate from the packed buffer and scatter back
/// into their inputs.
fn eval_unit<T: Element>(unit: LaneUnit<T>, faults: Option<&Faults>) {
    let LaneUnit {
        program,
        stats,
        histogram,
        xs,
        mut jobs,
        obs,
    } = unit;
    // Record inputs before evaluating overwrites them, and before
    // completing any ticket: once every ticket of a quiesced batch has
    // resolved, the histogram already reflects all of its elements —
    // the ordering drift-window determinism relies on.
    match &jobs[..] {
        [(data, ..)] => histogram.record(data),
        _ => histogram.record(&xs),
    }
    let eval_start = obs.as_ref().map(|u| {
        let t = u.state.now_ns();
        for (_, _, cell) in &jobs {
            if let Some(cell) = cell {
                cell.record(Stage::BackendEval, t);
            }
        }
        t
    });
    let flush_stats = match &mut jobs[..] {
        [(data, ..)] => program.eval_in_place(data),
        _ => {
            let mut views: Vec<&mut [T]> = jobs.iter_mut().map(|j| j.0.as_mut_slice()).collect();
            program.eval_scatter_into(&xs, &mut views)
        }
    };
    stats.record(&flush_stats);
    if let (Some(u), Some(t0)) = (&obs, eval_start) {
        record_flush_obs(u, t0, &flush_stats);
    }
    for (out, tx, cell) in jobs {
        // Injected reply loss (testkit): drop the channel so the ticket
        // observes `Disconnected`.
        if faults.is_some_and(Faults::take_drop_reply) {
            continue;
        }
        // Stamp before completing the ticket: a replay driver that
        // advances a manual clock once all tickets resolved must never
        // race a late stamp.
        if let (Some(u), Some(cell)) = (&obs, &cell) {
            cell.record(Stage::ScatterBack, u.state.now_ns());
        }
        // A dropped ticket is fine — the caller stopped caring.
        tx.send(out);
    }
}
