//! The TCP serving front-end: a std-only listener that speaks the
//! [`crate::Frame`] protocol and forwards jobs into a
//! [`flexsfu_serve::ServeHandle`].
//!
//! # Connection anatomy
//!
//! Each accepted connection runs two threads:
//!
//! * a **reader** that reassembles frames ([`crate::FrameReader`]),
//!   admits submits through the serving handle's *non-blocking*
//!   `try_submit` (a full queue answers a typed
//!   [`crate::frame::ErrorCode::RetryAfter`] hint instead of stalling
//!   the whole connection), answers health pings, and replies
//!   [`crate::frame::ErrorCode::Protocol`] then closes on malformed
//!   bytes — torn frames and garbage never panic the server or leak the
//!   connection;
//! * a **completion pump** that polls every accepted job's ticket
//!   through a real [`std::task::Waker`] (the serve crate's oneshot
//!   stores it, so the pump sleeps until a result lands) and writes
//!   results back **in completion order** — responses are multiplexed
//!   by request id and may overtake each other, which is the point of
//!   per-connection request ids.
//!
//! A job is **accepted** exactly when its [`crate::Frame::Ack`] is
//! written; from then on the server answers it — with a result or a
//! typed error — even across [`WireServer::drain`]. The ack always
//! precedes the job's own result on the wire (writes are serialized per
//! connection), but carries no ordering relative to *other* requests.

use crate::client::WireElement;
use crate::frame::{ErrorCode, Frame, FrameReader};
use crate::obs::WireObsState;
use flexsfu_obs::{SpanCell, Stage};
use flexsfu_serve::{FunctionId, JobTicket, ServeError, ServeHandle, ServeObs};
use std::future::Future;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::task::{Context, Poll, Wake, Waker};
use std::thread::JoinHandle;
use std::time::Duration;

/// Knobs for [`WireServer::start`].
#[derive(Debug, Clone)]
pub struct WireConfig {
    /// The backoff hint served with [`ErrorCode::RetryAfter`] when the
    /// serving queue bounces a submit — pick the order of one flush
    /// interval, so a retrying client lands after the pressure flush.
    pub retry_after: Duration,
    /// How long blocking socket reads wait before re-checking the stop
    /// flag. Purely a shutdown-latency/CPU trade-off.
    pub poll_interval: Duration,
}

impl Default for WireConfig {
    fn default() -> Self {
        Self {
            retry_after: Duration::from_micros(500),
            poll_interval: Duration::from_millis(20),
        }
    }
}

/// Connection-count gauge with a condvar so shutdown (and leak tests)
/// can wait for it to reach zero instead of polling.
#[derive(Default)]
struct ConnGauge {
    count: Mutex<usize>,
    zero: Condvar,
}

impl ConnGauge {
    fn enter(&self) {
        *self.count.lock().unwrap() += 1;
    }

    fn exit(&self) {
        let mut c = self.count.lock().unwrap();
        *c -= 1;
        if *c == 0 {
            self.zero.notify_all();
        }
    }

    fn current(&self) -> usize {
        *self.count.lock().unwrap()
    }

    fn wait_zero(&self, timeout: Duration) -> bool {
        let (guard, res) = self
            .zero
            .wait_timeout_while(self.count.lock().unwrap(), timeout, |c| *c > 0)
            .unwrap();
        drop(guard);
        !res.timed_out()
    }
}

/// State shared by the listener and every connection.
struct ServerShared {
    handle: ServeHandle,
    config: WireConfig,
    stop: AtomicBool,
    draining: AtomicBool,
    /// Wire jobs accepted (acked) but not yet answered, server-wide —
    /// reported in pongs so a router can wait out a drain.
    inflight: AtomicU64,
    conns: ConnGauge,
    /// Pre-resolved telemetry handles; `None` runs the exact
    /// pre-observability hot path.
    obs: Option<Arc<WireObsState>>,
}

/// A running wire front-end over one [`flexsfu_serve::PwlServer`]'s
/// handle. Binds `127.0.0.1:0` by default (the sharded tier spawns
/// servers in-process and reads the port back via
/// [`WireServer::local_addr`]). Dropping the server shuts it down.
pub struct WireServer {
    shared: Arc<ServerShared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl WireServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// accepting connections, forwarding jobs into `handle`'s server.
    ///
    /// # Errors
    ///
    /// The bind error, if the address is unavailable.
    pub fn start(
        handle: ServeHandle,
        addr: SocketAddr,
        config: WireConfig,
    ) -> std::io::Result<Self> {
        Self::start_inner(handle, addr, config, None)
    }

    /// [`Self::start`] with telemetry: frame/byte/error counters, the
    /// ack→answer histogram, pong telemetry tails, and
    /// [`Frame::StatsRequest`] answered with real snapshots. Pass the
    /// *same* [`ServeObs`] the serving engine was started with, so the
    /// pong tail and the stats snapshot report the engine behind this
    /// socket.
    ///
    /// # Errors
    ///
    /// As [`Self::start`].
    pub fn start_with_obs(
        handle: ServeHandle,
        addr: SocketAddr,
        config: WireConfig,
        obs: ServeObs,
    ) -> std::io::Result<Self> {
        Self::start_inner(
            handle,
            addr,
            config,
            Some(Arc::new(WireObsState::new(&obs))),
        )
    }

    /// [`Self::start_with_obs`] on `127.0.0.1:0`.
    ///
    /// # Errors
    ///
    /// As [`Self::start`].
    pub fn start_local_with_obs(
        handle: ServeHandle,
        config: WireConfig,
        obs: ServeObs,
    ) -> std::io::Result<Self> {
        Self::start_with_obs(handle, ([127, 0, 0, 1], 0).into(), config, obs)
    }

    fn start_inner(
        handle: ServeHandle,
        addr: SocketAddr,
        config: WireConfig,
        obs: Option<Arc<WireObsState>>,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(ServerShared {
            handle,
            config,
            stop: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            inflight: AtomicU64::new(0),
            conns: ConnGauge::default(),
            obs,
        });
        let conn_threads = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let shared = Arc::clone(&shared);
            let conn_threads = Arc::clone(&conn_threads);
            std::thread::Builder::new()
                .name("flexsfu-wire-accept".into())
                .spawn(move || accept_loop(&listener, &shared, &conn_threads))
                .expect("spawn accept thread")
        };
        Ok(Self {
            shared,
            addr,
            accept: Some(accept),
            conn_threads,
        })
    }

    /// [`Self::start`] on `127.0.0.1:0` — the in-process deployment
    /// default.
    ///
    /// # Errors
    ///
    /// As [`Self::start`].
    pub fn start_local(handle: ServeHandle, config: WireConfig) -> std::io::Result<Self> {
        Self::start(handle, ([127, 0, 0, 1], 0).into(), config)
    }

    /// The bound address (with the resolved ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Puts the server into draining mode: new submissions answer
    /// [`ErrorCode::Draining`], accepted jobs keep completing, health
    /// pongs advertise the state. Also triggered remotely by a
    /// [`Frame::Drain`] frame. Idempotent; there is no un-drain.
    pub fn drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
    }

    /// Whether the server is draining.
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Wire jobs accepted but not yet answered (server-wide) — zero
    /// means a drain has fully settled.
    pub fn inflight(&self) -> u64 {
        self.shared.inflight.load(Ordering::SeqCst)
    }

    /// Currently open connections — the leak gauge the protocol suite
    /// checks after torn-frame and garbage-input cases.
    pub fn active_connections(&self) -> usize {
        self.shared.conns.current()
    }

    /// Stops accepting, closes every connection (accepted jobs are
    /// still answered first — the pump drains before closing), and
    /// joins all threads. Equivalent to drop, but explicit.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept.take() {
            t.join().expect("wire accept thread panicked");
        }
        let threads: Vec<_> = self.conn_threads.lock().unwrap().drain(..).collect();
        for t in threads {
            t.join().expect("wire connection thread panicked");
        }
        debug_assert!(self.shared.conns.wait_zero(Duration::from_secs(1)));
    }
}

impl Drop for WireServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Accepts until stopped. Non-blocking accept + sleep keeps this
/// std-only (no self-connect tricks); the poll interval bounds both
/// accept latency and shutdown latency.
fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<ServerShared>,
    conn_threads: &Mutex<Vec<JoinHandle<()>>>,
) {
    while !shared.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = Arc::clone(shared);
                shared.conns.enter();
                let t = std::thread::Builder::new()
                    .name("flexsfu-wire-conn".into())
                    .spawn(move || {
                        connection_loop(stream, &shared);
                        shared.conns.exit();
                    })
                    .expect("spawn connection thread");
                conn_threads.lock().unwrap().push(t);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            // Transient accept errors (peer vanished mid-handshake):
            // keep serving.
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// One accepted job awaiting its result in the pump.
struct PendingJob {
    req: u64,
    /// Clock read at the ack write (0 when the server runs without
    /// observability) — the start of the ack→answer histogram window.
    t_ack: u64,
    ticket: Ticket,
}

/// The parked ticket, either precision lane.
pub enum Ticket {
    F64(JobTicket),
    F32(JobTicket<f32>),
}

impl Ticket {
    /// Polls the ticket in its own precision; see [`poll_job`].
    fn poll(&mut self, req: u64, cx: &mut Context<'_>) -> Poll<(Frame, Option<Arc<SpanCell>>)> {
        match self {
            Ticket::F64(ticket) => poll_job(req, ticket, cx),
            Ticket::F32(ticket) => poll_job(req, ticket, cx),
        }
    }
}

/// The pump's shared state: tickets parked for completion, plus the
/// wake/closed signals. One waker serves the whole connection — a
/// completion wakes the pump, which polls everything pending (the
/// pending set is small: it is one connection's in-flight window).
struct Pump {
    inner: Mutex<PumpInner>,
    cv: Condvar,
}

struct PumpInner {
    pending: Vec<PendingJob>,
    wake: bool,
    closed: bool,
}

impl Pump {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            inner: Mutex::new(PumpInner {
                pending: Vec::new(),
                wake: false,
                closed: false,
            }),
            cv: Condvar::new(),
        })
    }

    fn add(&self, job: PendingJob) {
        let mut g = self.inner.lock().unwrap();
        g.pending.push(job);
        g.wake = true;
        self.cv.notify_one();
    }

    fn close(&self) {
        let mut g = self.inner.lock().unwrap();
        g.closed = true;
        g.wake = true;
        self.cv.notify_one();
    }

    fn notify(&self) {
        let mut g = self.inner.lock().unwrap();
        g.wake = true;
        self.cv.notify_one();
    }
}

/// The pump's waker: oneshot completions land here.
struct PumpWaker(Arc<Pump>);

impl Wake for PumpWaker {
    fn wake(self: Arc<Self>) {
        self.0.notify();
    }
}

/// Serialized frame writes over one connection. Outbound telemetry
/// (frames, bytes, per-code errors) is counted here, at the single
/// choke point every reply funnels through.
struct ConnWriter {
    stream: Mutex<TcpStream>,
    obs: Option<Arc<WireObsState>>,
}

impl ConnWriter {
    /// Writes one frame; an `Err` means the connection is dead (the
    /// caller stops using it — the peer is gone, nothing to report).
    fn send(&self, frame: &Frame) -> std::io::Result<()> {
        let bytes = frame.encode();
        if let Some(o) = &self.obs {
            o.count_outbound(frame, bytes.len());
        }
        let mut s = self.stream.lock().unwrap();
        s.write_all(&bytes)
    }
}

/// The per-connection reader: frames in, admissions + control out.
/// Returns only when the peer closed, a protocol error desynced the
/// stream, or the server stopped — always after joining its pump, so a
/// returned reader means the connection is fully retired.
fn connection_loop(stream: TcpStream, shared: &Arc<ServerShared>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.config.poll_interval));
    let writer = Arc::new(ConnWriter {
        stream: match stream.try_clone() {
            Ok(s) => Mutex::new(s),
            Err(_) => return,
        },
        obs: shared.obs.clone(),
    });

    let pump = Pump::new();
    let pump_thread = {
        let pump = Arc::clone(&pump);
        let writer = Arc::clone(&writer);
        let shared = Arc::clone(shared);
        std::thread::Builder::new()
            .name("flexsfu-wire-pump".into())
            .spawn(move || pump_loop(&pump, &writer, &shared))
            .expect("spawn pump thread")
    };

    read_frames(stream, shared, &writer, &pump);

    // Reader done (peer gone, protocol error, or stop): let the pump
    // finish answering accepted jobs, then retire the connection.
    pump.close();
    pump_thread.join().expect("wire pump thread panicked");
}

/// The reader half of [`connection_loop`], separated so every exit path
/// funnels through the pump teardown above.
fn read_frames(
    mut stream: TcpStream,
    shared: &Arc<ServerShared>,
    writer: &ConnWriter,
    pump: &Arc<Pump>,
) {
    let mut reader = FrameReader::new();
    let mut chunk = [0u8; 64 * 1024];
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return, // peer closed
            Ok(n) => {
                if let Some(o) = &shared.obs {
                    o.bytes_in.add(n as u64);
                }
                reader.feed(&chunk[..n]);
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return,
        }
        loop {
            match reader.next_frame() {
                Ok(Some(frame)) => {
                    if let Some(o) = &shared.obs {
                        o.frames_in.inc();
                    }
                    if !handle_frame(frame, shared, writer, pump) {
                        return;
                    }
                }
                Ok(None) => break,
                Err(_) => {
                    // Malformed bytes: typed protocol reply, then close.
                    // The stream is desynced, so nothing else is safe.
                    let _ = writer.send(&Frame::Error {
                        req: 0,
                        code: ErrorCode::Protocol,
                        detail: 0,
                    });
                    return;
                }
            }
        }
    }
}

/// Dispatches one inbound frame; `false` closes the connection.
fn handle_frame(
    frame: Frame,
    shared: &Arc<ServerShared>,
    writer: &ConnWriter,
    pump: &Arc<Pump>,
) -> bool {
    match frame {
        Frame::SubmitF64 {
            req,
            func,
            data,
            trace,
        } => submit(req, func, data, trace, shared, writer, pump),
        Frame::SubmitF32 {
            req,
            func,
            data,
            trace,
        } => submit(req, func, data, trace, shared, writer, pump),
        Frame::Ping { nonce } => {
            let depth = shared.handle.queue_depth();
            // The telemetry tail reads the serving tier's own series —
            // zeros when the server runs without observability.
            let (flushes, eval_p99_us) = match &shared.obs {
                Some(o) => (o.flush_units.get(), o.eval_ns.snapshot().p99() / 1_000),
                None => (0, 0),
            };
            writer
                .send(&Frame::Pong {
                    nonce,
                    draining: shared.draining.load(Ordering::SeqCst),
                    queued_elems: depth.elems as u64,
                    inflight: shared.inflight.load(Ordering::SeqCst),
                    queued_jobs: depth.jobs as u64,
                    flushes,
                    eval_p99_us,
                })
                .is_ok()
        }
        Frame::StatsRequest { nonce } => {
            let snapshot = shared
                .obs
                .as_ref()
                .map(|o| o.metrics.snapshot())
                .unwrap_or_default();
            writer
                .send(&Frame::Stats {
                    nonce,
                    snapshot: snapshot.encode(),
                })
                .is_ok()
        }
        Frame::Drain => {
            shared.draining.store(true, Ordering::SeqCst);
            true
        }
        // Server-to-client frames arriving at the server are a protocol
        // violation: typed reply, close.
        Frame::Ack { .. }
        | Frame::ResultF64 { .. }
        | Frame::ResultF32 { .. }
        | Frame::Error { .. }
        | Frame::Pong { .. }
        | Frame::Stats { .. } => {
            let _ = writer.send(&Frame::Error {
                req: 0,
                code: ErrorCode::Protocol,
                detail: 0,
            });
            false
        }
    }
}

/// Admits one submit frame's job into the serving tier, in the frame's
/// precision; `false` closes the connection.
fn submit<T: WireElement>(
    req: u64,
    func: u32,
    data: Vec<T>,
    trace: Option<u64>,
    shared: &Arc<ServerShared>,
    writer: &ConnWriter,
    pump: &Arc<Pump>,
) -> bool {
    if refuse_if_draining(req, shared, writer) {
        return true;
    }
    // The decoded trace tail rides into the serving tier so the
    // shard-side recorder adopts the router-minted id.
    match shared
        .handle
        .try_submit_traced(FunctionId(func), data, trace)
    {
        Ok(ticket) => accept(req, T::parked(ticket), shared, writer, pump),
        Err(e) => writer.send(&submit_error(req, &e, shared)).is_ok(),
    }
}

/// Answers a submit with [`ErrorCode::Draining`] when draining; returns
/// whether the submit was refused.
fn refuse_if_draining(req: u64, shared: &ServerShared, writer: &ConnWriter) -> bool {
    if shared.draining.load(Ordering::SeqCst) {
        let _ = writer.send(&Frame::Error {
            req,
            code: ErrorCode::Draining,
            detail: 0,
        });
        return true;
    }
    false
}

/// Acks an admitted job and parks its ticket in the pump. The ack is
/// written *before* the ticket is parked, so a job's ack always
/// precedes its result on the wire.
fn accept(
    req: u64,
    ticket: Ticket,
    shared: &ServerShared,
    writer: &ConnWriter,
    pump: &Pump,
) -> bool {
    if writer.send(&Frame::Ack { req }).is_err() {
        // Peer is gone before the ack: the job was never accepted from
        // the protocol's point of view; dropping the ticket abandons
        // the result harmlessly.
        return false;
    }
    let t_ack = shared.obs.as_ref().map_or(0, |o| o.now_ns());
    shared.inflight.fetch_add(1, Ordering::SeqCst);
    pump.add(PendingJob { req, t_ack, ticket });
    true
}

/// Maps a [`ServeError`] from admission onto its protocol reply.
fn submit_error(req: u64, e: &ServeError, shared: &ServerShared) -> Frame {
    let (code, detail) = match e {
        ServeError::QueueFull => {
            let micros = u32::try_from(shared.config.retry_after.as_micros()).unwrap_or(u32::MAX);
            (ErrorCode::RetryAfter, micros)
        }
        ServeError::UnknownFunction(id) => (ErrorCode::UnknownFunction, id.0),
        ServeError::PrecisionUnsupported(id) => (ErrorCode::PrecisionUnsupported, id.0),
        ServeError::ShuttingDown => (ErrorCode::ShuttingDown, 0),
        // Admission never returns LowerFailed/Disconnected; answer
        // Internal rather than unreachable!() so a future serve change
        // degrades to a typed error instead of a panicked connection.
        ServeError::LowerFailed(_) | ServeError::Disconnected => (ErrorCode::Internal, 0),
    };
    Frame::Error { req, code, detail }
}

/// The completion pump: polls parked tickets through the shared waker,
/// writes each completed job's result (or typed error) in completion
/// order, and exits once the reader closed the connection and nothing
/// is pending.
fn pump_loop(pump: &Arc<Pump>, writer: &ConnWriter, shared: &ServerShared) {
    let waker = Waker::from(Arc::new(PumpWaker(Arc::clone(pump))));
    let mut cx = Context::from_waker(&waker);
    loop {
        let mut batch = {
            let mut g = pump.inner.lock().unwrap();
            while !(g.wake || g.closed && g.pending.is_empty()) {
                // The timeout is a belt-and-braces tick; completions
                // arrive via the waker.
                g = pump
                    .cv
                    .wait_timeout(g, Duration::from_millis(100))
                    .unwrap()
                    .0;
            }
            if g.closed && g.pending.is_empty() {
                return;
            }
            g.wake = false;
            std::mem::take(&mut g.pending)
        };

        let mut still_pending = Vec::with_capacity(batch.len());
        for mut job in batch.drain(..) {
            match job.ticket.poll(job.req, &mut cx) {
                Poll::Ready((frame, span)) => {
                    // A dead socket is fine — the peer stopped caring;
                    // the job itself completed and is no longer
                    // in flight either way.
                    let _ = writer.send(&frame);
                    if let Some(o) = &shared.obs {
                        let now = o.now_ns();
                        if job.t_ack != 0 {
                            o.ack_to_result_ns.record(now.saturating_sub(job.t_ack));
                        }
                        if let Some(cell) = &span {
                            cell.record(Stage::WireWrite, now);
                        }
                    }
                    shared.inflight.fetch_sub(1, Ordering::SeqCst);
                }
                Poll::Pending => still_pending.push(job),
            }
        }

        let mut g = pump.inner.lock().unwrap();
        // New arrivals were appended while we polled; keep both.
        still_pending.append(&mut g.pending);
        g.pending = still_pending;
    }
}

/// Polls one parked ticket: the reply frame and the job's trace cell
/// once complete. A `Disconnected` ticket (an evaluation-side failure,
/// e.g. the testkit's drop-before-reply fault) answers
/// [`ErrorCode::Internal`] — accepted jobs are always answered.
fn poll_job<T: WireElement>(
    req: u64,
    ticket: &mut JobTicket<T>,
    cx: &mut Context<'_>,
) -> Poll<(Frame, Option<Arc<SpanCell>>)> {
    let frame = match std::pin::Pin::new(&mut *ticket).poll(cx) {
        Poll::Pending => return Poll::Pending,
        Poll::Ready(Ok(data)) => T::result_frame(req, data),
        Poll::Ready(Err(_)) => Frame::Error {
            req,
            code: ErrorCode::Internal,
            detail: 0,
        },
    };
    Poll::Ready((frame, ticket.span().cloned()))
}
