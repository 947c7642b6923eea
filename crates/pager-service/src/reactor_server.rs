//! The connection engine: both wire protocols served by an epoll
//! event loop, for any [`Handler`].
//!
//! Each shard thread owns a [`pager_reactor::Reactor`] and a set of
//! connection state machines (`read → cut message → dispatch →
//! await completion → write response → drain`). One listening socket
//! is registered in every shard's poller with `EPOLLEXCLUSIVE`, so the
//! kernel load-balances accepts across shards without `SO_REUSEPORT`.
//!
//! The engine does connection work only: accept (with an `EMFILE`
//! backoff), read, cut messages ([`pager_wire::frame::split`], so a
//! connection may interleave v1 JSON lines and v2 binary frames; rules
//! in `docs/wire.md`), flush, timers and drain. What a message *means*
//! belongs to the [`Handler`]: `pager-serve` serves a
//! [`crate::PagerService`], `pager-cluster launch` serves its router.
//! The handler is a type parameter, so the shard loop is monomorphic
//! per handler and a handler's zero-allocation fast path stays one.
//!
//! A message leaves the shard thread in one of three ways
//! ([`Dispatch`]):
//!
//! * **inline** — answered straight into the connection's write
//!   buffer (a cache-hit v2 plan, a ping, a control op, a malformed
//!   frame);
//! * **pending** — admitted to the handler's own asynchronous path
//!   (the service's bounded, coalescing planner queue), which answers
//!   later through a [`Reply`];
//! * **blocking** — a job on the engine's small unbounded I/O pool,
//!   for work that may block but must never be shed (an fsynced
//!   observe, WAL shipping, a forwarded router request).
//!
//! Each connection dispatches strictly serially: the next message is
//! cut only once the previous answer is queued, so answers leave in
//! request order and one connection holds at most one request in
//! flight. Every dispatched request is counted in flight until its
//! answer reaches the kernel. A per-request watchdog timer counts
//! requests that outlive their deadline ([`Handler::watchdog_fired`]).
//!
//! **Drain** — [`ReactorHandle::stop`] (or a handler answering with
//! `stop`) closes idle connections at once and stops dispatching
//! buffered messages, but every dispatched request is answered and
//! flushed before its connection closes. A peer that does not read
//! its answer is force-closed after a grace period.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pager_reactor::{Event, Interest, Reactor, Remote, TimerId, Turn, Waker};
use pager_wire::frame::{self, op, Split};

/// Registration token for the shared listener (the reactor reserves
/// `u64::MAX` for its waker).
const LISTENER_TOKEN: u64 = u64::MAX - 1;
/// Timer token: retry a paused accept loop after fd exhaustion.
const ACCEPT_RETRY_TOKEN: u64 = u64::MAX - 2;
/// Timer token: force-close stalled writers during drain.
const GRACE_TOKEN: u64 = u64::MAX - 3;
/// First token handed to a connection; tokens are monotone per shard
/// and never reused, so a late completion can never be delivered to a
/// recycled connection.
const FIRST_CONN_TOKEN: u64 = 0;

/// How long to wait after `EMFILE`/`ENFILE` before accepting again.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(100);
/// How long a draining shard keeps a connection whose peer is not
/// reading its pending response before force-closing it.
const FLUSH_GRACE: Duration = Duration::from_secs(30);
/// Poll cadence for [`ReactorHandle::drain`].
const DRAIN_POLL: Duration = Duration::from_millis(5);

/// Tuning knobs for [`serve_reactor_with`].
#[derive(Clone, Copy, Debug)]
pub struct ReactorConfig {
    /// Shard (event-loop) threads. Each owns its own epoll instance;
    /// accepts are kernel-balanced across them.
    pub shards: usize,
    /// Threads for [`Dispatch::Blocking`] jobs.
    pub io_threads: usize,
}

impl Default for ReactorConfig {
    fn default() -> ReactorConfig {
        ReactorConfig {
            shards: std::thread::available_parallelism()
                .map_or(1, usize::from)
                .clamp(1, 8),
            io_threads: 2,
        }
    }
}

/// One complete message cut from a connection's input.
#[derive(Debug)]
pub enum Message<'a> {
    /// A v1 JSON line, trimmed and non-empty.
    Line(&'a str),
    /// A v2 frame; the payload borrows the connection's read buffer.
    Frame {
        /// The frame's op byte.
        op: u8,
        /// The frame's payload (CRC trailer already checked and cut).
        payload: &'a [u8],
    },
    /// A v2 header the stream cannot recover from. The handler answers
    /// it; the engine then discards the rest of the input and closes
    /// the connection once the answer is flushed.
    Malformed(&'a str),
}

/// What a [`Handler`] did with one message.
pub enum Dispatch {
    /// The complete answer is in the write buffer. With `stop`, the
    /// server stops (and drains) once the answer is queued.
    Answered {
        /// Whether the message asked the server to stop.
        stop: bool,
    },
    /// Admitted to the handler's own asynchronous path, which answers
    /// through the [`Reply`] it took from [`Replies::reply`].
    Pending {
        /// Budget after which the request counts as overdue.
        watchdog_ms: Option<u64>,
    },
    /// Blocking work: the engine runs `job` on its I/O pool, and the
    /// job answers through the [`Reply`] it captured.
    Blocking {
        /// The work; it must send exactly one reply.
        job: IoJob,
        /// Budget after which the request counts as overdue.
        watchdog_ms: Option<u64>,
    },
}

/// A [`Dispatch::Blocking`] job.
pub type IoJob = Box<dyn FnOnce() + Send>;

/// What a connection's protocol logic plugs into the engine.
///
/// [`Handler::handle`] runs on a shard thread and must not block:
/// anything that may wait on a lock held across I/O, a disk, a socket
/// or a solver goes out as [`Dispatch::Pending`] or
/// [`Dispatch::Blocking`].
pub trait Handler: Send + Sync + 'static {
    /// Handles one message. Inline answers are appended to `out`, the
    /// connection's write buffer; deferred answers go through a
    /// [`Reply`] from `replies`.
    fn handle(
        self: &Arc<Self>,
        message: Message<'_>,
        out: &mut Vec<u8>,
        replies: &Replies<'_>,
    ) -> Dispatch;

    /// A connection was accepted.
    fn connection_opened(&self) {}

    /// A connection was closed.
    fn connection_closed(&self) {}

    /// A request was still in flight when its watchdog budget ran out.
    fn watchdog_fired(&self) {}
}

/// How a line-shaped response leaves the wire: as a bare v1 line or
/// wrapped in a checked v2 JSON response frame (op `0x7F`), matching
/// how the request arrived.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplyMode {
    /// A newline-terminated v1 line.
    Line,
    /// A `JSON_RESP` frame with a CRC trailer.
    JsonFrame,
}

impl ReplyMode {
    /// Appends `line` to `out` in this mode's framing.
    pub fn append(self, out: &mut Vec<u8>, line: &str) {
        match self {
            ReplyMode::Line => {
                out.extend_from_slice(line.as_bytes());
                out.push(b'\n');
            }
            ReplyMode::JsonFrame => {
                frame::write_checked_frame(out, op::JSON_RESP, line.as_bytes());
            }
        }
    }

    /// `line` as owned wire bytes in this mode's framing.
    #[must_use]
    pub fn package(self, line: &str) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(line.len() + frame::HEADER_LEN);
        self.append(&mut bytes, line);
        bytes
    }
}

/// A deferred answer on its way back to a shard.
struct Done {
    conn: u64,
    bytes: Vec<u8>,
    stop: bool,
}

/// Answers one deferred request from any thread.
pub struct Reply {
    remote: Remote<Done>,
    conn: u64,
}

impl Reply {
    /// Queues `bytes` (complete wire bytes) as the request's answer.
    pub fn send(self, bytes: Vec<u8>) {
        self.finish(bytes, false);
    }

    /// [`Reply::send`], then stops the server once the answer is
    /// queued.
    pub fn send_and_stop(self, bytes: Vec<u8>) {
        self.finish(bytes, true);
    }

    fn finish(self, bytes: Vec<u8>, stop: bool) {
        self.remote.complete(Done {
            conn: self.conn,
            bytes,
            stop,
        });
    }
}

/// Hands out [`Reply`] handles for the message being dispatched.
pub struct Replies<'a> {
    remote: &'a Remote<Done>,
    conn: u64,
}

impl Replies<'_> {
    /// A handle that answers the message being dispatched.
    #[must_use]
    pub fn reply(&self) -> Reply {
        Reply {
            remote: self.remote.clone(),
            conn: self.conn,
        }
    }
}

/// State shared between the shards and the handle.
struct Shared {
    stop: AtomicBool,
    /// Requests dispatched but not yet flushed to their sockets;
    /// `drain` waits for this to hit zero.
    inflight: AtomicU64,
    /// Condvar behind [`ReactorHandle::join`]: signalled when a stop
    /// is requested.
    stop_flag: Mutex<bool>,
    stop_cv: Condvar,
    /// Every shard's waker, for stop() and cross-shard shutdown.
    wakers: OnceLock<Vec<Waker>>,
    io_pool: IoPool,
}

impl Shared {
    /// Requests a stop: sets the flag, signals `join`ers, and wakes
    /// every shard so it observes the flag now rather than at its
    /// next natural wakeup.
    fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        {
            let mut stop_flag = self
                .stop_flag
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            *stop_flag = true;
        }
        self.stop_cv.notify_all();
        if let Some(wakers) = self.wakers.get() {
            for waker in wakers {
                waker.wake();
            }
        }
    }
}

/// Tiny unbounded pool for blocking jobs. Unbounded on purpose: these
/// operations are never shed, and each connection holds at most one
/// request in flight, so the queue is bounded by the connection count.
struct IoPool {
    tx: Mutex<Option<mpsc::Sender<IoJob>>>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl IoPool {
    fn new(count: usize) -> io::Result<IoPool> {
        let (tx, rx) = mpsc::channel::<IoJob>();
        let rx = Arc::new(Mutex::new(rx));
        let threads = (0..count.max(1))
            .map(|i| {
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("pager-io-{i}"))
                    .spawn(move || loop {
                        // Hold the receiver lock only for the dequeue.
                        let job = match rx.lock().unwrap_or_else(PoisonError::into_inner).recv() {
                            Ok(job) => job,
                            Err(_) => return,
                        };
                        job();
                    })
            })
            .collect::<io::Result<Vec<_>>>()?;
        Ok(IoPool {
            tx: Mutex::new(Some(tx)),
            threads: Mutex::new(threads),
        })
    }

    /// Hands the job back when the pool is already shut down.
    fn execute(&self, job: IoJob) -> Result<(), IoJob> {
        let tx = self.tx.lock().unwrap_or_else(PoisonError::into_inner);
        match tx.as_ref() {
            None => Err(job),
            Some(sender) => sender.send(job).map_err(|e| e.0),
        }
    }

    fn shutdown(&self) {
        self.tx
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        let handles: Vec<_> = self
            .threads
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .drain(..)
            .collect();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

/// One connection's state machine.
struct Conn {
    stream: TcpStream,
    read_buf: Vec<u8>,
    /// Consumed prefix of `read_buf` (compacted periodically).
    read_pos: usize,
    write_buf: Vec<u8>,
    /// Flushed prefix of `write_buf` (compacted on full flush).
    write_pos: usize,
    /// Total bytes ever queued / flushed; `pending_ends` holds the
    /// `queued_total` mark of each response not yet fully flushed, so
    /// the in-flight gauge decrements exactly when a response reaches
    /// the kernel.
    queued_total: u64,
    flushed_total: u64,
    pending_ends: VecDeque<u64>,
    /// A dispatched request is awaiting its completion; the
    /// connection dispatches strictly serially.
    busy: bool,
    read_closed: bool,
    broken: bool,
    /// Whether the current epoll registration includes `EPOLLOUT`.
    want_write: bool,
    /// Watchdog timer for the in-flight request.
    deadline: Option<TimerId>,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            read_buf: Vec::new(),
            read_pos: 0,
            write_buf: Vec::new(),
            write_pos: 0,
            queued_total: 0,
            flushed_total: 0,
            pending_ends: VecDeque::new(),
            busy: false,
            read_closed: false,
            broken: false,
            want_write: false,
            deadline: None,
        }
    }

    fn write_idle(&self) -> bool {
        self.write_pos >= self.write_buf.len()
    }

    /// Marks everything appended since `before` as one response.
    fn mark_response(&mut self, before: usize) {
        self.queued_total += (self.write_buf.len() - before) as u64;
        self.pending_ends.push_back(self.queued_total);
    }
}

/// Drains the socket into `read_buf` until `WouldBlock` (required
/// under edge-triggered delivery). A connection already marked
/// read-closed (EOF, or poisoned by a malformed frame) stops
/// consuming input.
fn read_into(conn: &mut Conn) {
    if conn.read_closed {
        return;
    }
    let mut chunk = [0u8; 16 * 1024];
    loop {
        match (&conn.stream).read(&mut chunk) {
            Ok(0) => {
                conn.read_closed = true;
                return;
            }
            Ok(n) => conn.read_buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.broken = true;
                return;
            }
        }
    }
}

/// Cuts the next complete message from the connection's input and
/// hands it to the handler; `None` when nothing complete is buffered
/// (or the connection just broke).
///
/// At EOF an unterminated v1 tail is still served; an incomplete v2
/// frame at EOF is a mid-frame disconnect and just closes. Invalid
/// UTF-8 in a v1 line poisons the connection. Every dispatched
/// message counts in flight; an inline answer is marked as one
/// response so the count drops when it is flushed.
fn next_message<H: Handler>(
    handler: &Arc<H>,
    conn: &mut Conn,
    replies: &Replies<'_>,
    inflight: &AtomicU64,
) -> Option<Dispatch> {
    let (message, consumed) = loop {
        let pending = &conn.read_buf[conn.read_pos..];
        let (line, consumed) = match frame::split(pending) {
            Split::NeedMore => {
                if !conn.read_closed || pending.first().is_none_or(|&b| b == frame::MAGIC) {
                    return None;
                }
                (pending, pending.len())
            }
            Split::V1Line { line, consumed } => (line, consumed),
            Split::V2Frame {
                op: frame_op,
                payload,
                consumed,
            } => {
                let message = Message::Frame {
                    op: frame_op,
                    payload,
                };
                break (message, consumed);
            }
            Split::Malformed(reason) => {
                // Discard the rest of the stream; `read_closed` stops
                // further reads and closes once the answer has flushed.
                conn.read_closed = true;
                break (Message::Malformed(reason), pending.len());
            }
        };
        match std::str::from_utf8(line).map(str::trim) {
            Err(_) => {
                conn.broken = true;
                return None;
            }
            Ok("") => advance(conn, consumed),
            Ok(text) => break (Message::Line(text), consumed),
        }
    };
    inflight.fetch_add(1, Ordering::SeqCst);
    let before = conn.write_buf.len();
    // Called through the trait path so `pager-lint` fans the call out
    // to every handler when it checks what the shard thread reaches.
    let outcome = Handler::handle(handler, message, &mut conn.write_buf, replies);
    if let Dispatch::Answered { .. } = outcome {
        conn.mark_response(before);
    }
    advance(conn, consumed);
    Some(outcome)
}

/// Consumes `consumed` bytes of input, compacting now and then.
fn advance(conn: &mut Conn, consumed: usize) {
    conn.read_pos += consumed;
    if conn.read_pos == conn.read_buf.len() || conn.read_pos > 64 * 1024 {
        conn.read_buf.drain(..conn.read_pos);
        conn.read_pos = 0;
    }
}

/// Writes until `WouldBlock` or empty; decrements the in-flight gauge
/// for every response that fully reached the kernel.
fn try_flush(conn: &mut Conn, inflight: &AtomicU64) {
    while conn.write_pos < conn.write_buf.len() {
        match (&conn.stream).write(&conn.write_buf[conn.write_pos..]) {
            Ok(0) => {
                conn.broken = true;
                break;
            }
            Ok(n) => {
                conn.write_pos += n;
                conn.flushed_total += n as u64;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.broken = true;
                break;
            }
        }
    }
    while conn
        .pending_ends
        .front()
        .is_some_and(|&end| end <= conn.flushed_total)
    {
        conn.pending_ends.pop_front();
        dec_inflight(inflight);
    }
    if conn.write_idle() {
        conn.write_buf.clear();
        conn.write_pos = 0;
    }
}

fn dec_inflight(inflight: &AtomicU64) {
    inflight.fetch_sub(1, Ordering::SeqCst);
}

struct Shard<H> {
    handler: Arc<H>,
    shared: Arc<Shared>,
    reactor: Reactor<Done>,
    remote: Remote<Done>,
    listener: Arc<TcpListener>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    accepting: bool,
    /// Set once the shard has observed the stop flag and torn down
    /// its accept registration / idle connections.
    stop_seen: bool,
    grace: Option<TimerId>,
}

impl<H: Handler> Shard<H> {
    fn new(
        handler: Arc<H>,
        shared: Arc<Shared>,
        listener: Arc<TcpListener>,
    ) -> io::Result<Shard<H>> {
        let reactor = Reactor::new()?;
        // Level-triggered + exclusive: every shard registers the same
        // listening socket; the kernel wakes one shard per backlog
        // burst, and level-triggering re-arms as long as the backlog
        // is non-empty.
        reactor.register(
            listener.as_raw_fd(),
            LISTENER_TOKEN,
            Interest {
                readable: true,
                writable: false,
                edge: false,
                exclusive: true,
            },
        )?;
        let remote = reactor.remote();
        Ok(Shard {
            handler,
            shared,
            reactor,
            remote,
            listener,
            conns: HashMap::new(),
            next_token: FIRST_CONN_TOKEN,
            accepting: true,
            stop_seen: false,
            grace: None,
        })
    }

    fn run(mut self) {
        let mut turn = Turn::new();
        loop {
            if !self.stop_seen && self.shared.stop.load(Ordering::SeqCst) {
                self.begin_stop();
            }
            if self.stop_seen && self.conns.is_empty() {
                return;
            }
            // While draining, tick periodically as a safety net; the
            // normal wake sources (completions, EPOLLOUT, timers)
            // drive progress.
            let wait = if self.stop_seen {
                Some(Duration::from_millis(50))
            } else {
                None
            };
            if self.reactor.turn(wait, &mut turn).is_err() {
                // epoll itself failed: this shard cannot continue.
                // Release the in-flight accounting its connections
                // hold so drain() is not wedged forever.
                let tokens: Vec<u64> = self.conns.keys().copied().collect();
                for token in tokens {
                    self.close(token);
                }
                return;
            }
            for done in std::mem::take(&mut turn.completions) {
                self.on_complete(done);
            }
            for token in std::mem::take(&mut turn.timers) {
                self.on_timer(token);
            }
            for event in std::mem::take(&mut turn.events) {
                if event.token == LISTENER_TOKEN {
                    self.accept_burst();
                } else {
                    self.on_conn_event(event);
                }
            }
        }
    }

    // ---- accepting -------------------------------------------------

    fn accept_burst(&mut self) {
        if !self.accepting || self.stop_seen {
            return;
        }
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => self.register_conn(stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) if is_fd_exhaustion(&e) => {
                    self.pause_accept();
                    return;
                }
                // Transient per-connection failures (ECONNABORTED):
                // the level-triggered registration retries naturally.
                Err(_) => return,
            }
        }
    }

    fn register_conn(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let token = self.next_token;
        self.next_token += 1;
        let interest = Interest {
            readable: true,
            writable: false,
            edge: true,
            exclusive: false,
        };
        if self
            .reactor
            .register(stream.as_raw_fd(), token, interest)
            .is_err()
        {
            return;
        }
        self.conns.insert(token, Conn::new(stream));
        self.handler.connection_opened();
    }

    /// Out of fds: unhook the listener (required — `EPOLLEXCLUSIVE`
    /// registrations cannot be modified) and retry after a backoff,
    /// by which time closes may have freed descriptors.
    fn pause_accept(&mut self) {
        let _ = self.reactor.deregister(self.listener.as_raw_fd());
        self.accepting = false;
        self.reactor.schedule(ACCEPT_BACKOFF, ACCEPT_RETRY_TOKEN);
    }

    fn resume_accept(&mut self) {
        if self.accepting || self.stop_seen {
            return;
        }
        let interest = Interest {
            readable: true,
            writable: false,
            edge: false,
            exclusive: true,
        };
        if self
            .reactor
            .register(self.listener.as_raw_fd(), LISTENER_TOKEN, interest)
            .is_ok()
        {
            self.accepting = true;
            self.accept_burst();
        } else {
            self.reactor.schedule(ACCEPT_BACKOFF, ACCEPT_RETRY_TOKEN);
        }
    }

    // ---- connection I/O --------------------------------------------

    fn on_conn_event(&mut self, event: Event) {
        let token = event.token;
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if event.error {
                conn.broken = true;
            }
            if event.readable || event.read_closed || event.error {
                read_into(conn);
            }
            if event.writable && !conn.broken {
                try_flush(conn, &self.shared.inflight);
            }
        }
        self.pump(token);
        self.update_interest(token);
        self.maybe_close(token);
    }

    /// Dispatches buffered messages strictly serially: the next one is
    /// cut only once the previous answer has been queued. Inline
    /// answers never mark the connection busy and keep the loop
    /// running.
    fn pump(&mut self, token: u64) {
        loop {
            if self.stop_seen || self.shared.stop.load(Ordering::SeqCst) {
                return;
            }
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.busy || conn.broken {
                return;
            }
            let replies = Replies {
                remote: &self.remote,
                conn: token,
            };
            let Some(dispatch) = next_message(&self.handler, conn, &replies, &self.shared.inflight)
            else {
                return;
            };
            match dispatch {
                Dispatch::Answered { stop } => {
                    try_flush(conn, &self.shared.inflight);
                    if stop {
                        // The answer is already queued, so the drain
                        // flushes it before this connection closes.
                        self.shared.request_stop();
                    }
                }
                Dispatch::Pending { watchdog_ms } => self.mark_busy(token, watchdog_ms),
                Dispatch::Blocking { job, watchdog_ms } => {
                    if self.shared.io_pool.execute(job).is_ok() {
                        self.mark_busy(token, watchdog_ms);
                    } else {
                        // The pool shuts down only after every shard
                        // has exited, so this cannot happen while one
                        // runs; if it did, nothing would answer the
                        // request, so drop the connection.
                        dec_inflight(&self.shared.inflight);
                        conn.broken = true;
                        return;
                    }
                }
            }
        }
    }

    /// Marks the connection awaiting a completion and arms its
    /// watchdog.
    fn mark_busy(&mut self, token: u64, watchdog_ms: Option<u64>) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        conn.busy = true;
        if let Some(ms) = watchdog_ms {
            conn.deadline = Some(self.reactor.schedule(Duration::from_millis(ms), token));
        }
    }

    fn on_complete(&mut self, done: Done) {
        let deadline = match self.conns.get_mut(&done.conn) {
            None => {
                // The connection died while its request was in flight;
                // the response has nowhere to go.
                dec_inflight(&self.shared.inflight);
                None
            }
            Some(conn) => {
                conn.busy = false;
                let before = conn.write_buf.len();
                conn.write_buf.extend_from_slice(&done.bytes);
                conn.mark_response(before);
                try_flush(conn, &self.shared.inflight);
                conn.deadline.take()
            }
        };
        if let Some(timer) = deadline {
            self.reactor.cancel_timer(timer);
        }
        if done.stop {
            self.shared.request_stop();
        }
        self.pump(done.conn);
        self.update_interest(done.conn);
        self.maybe_close(done.conn);
    }

    fn on_timer(&mut self, token: u64) {
        match token {
            ACCEPT_RETRY_TOKEN => self.resume_accept(),
            GRACE_TOKEN => self.on_grace(),
            conn_token => {
                let overdue = match self.conns.get_mut(&conn_token) {
                    None => false,
                    Some(conn) => {
                        conn.deadline = None;
                        conn.busy
                    }
                };
                if overdue {
                    self.handler.watchdog_fired();
                }
            }
        }
    }

    /// Re-arms write interest to match buffered output.
    fn update_interest(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.broken {
            return;
        }
        let want_write = !conn.write_idle();
        if want_write == conn.want_write {
            return;
        }
        conn.want_write = want_write;
        let interest = Interest {
            readable: true,
            writable: want_write,
            edge: true,
            exclusive: false,
        };
        if self
            .reactor
            .reregister(conn.stream.as_raw_fd(), token, interest)
            .is_err()
        {
            conn.broken = true;
        }
    }

    fn maybe_close(&mut self, token: u64) {
        let should_close = match self.conns.get(&token) {
            None => false,
            Some(conn) => {
                conn.broken
                    || (conn.read_closed && !conn.busy && conn.write_idle())
                    || (self.stop_seen && !conn.busy && conn.write_idle())
            }
        };
        if should_close {
            self.close(token);
        }
    }

    fn close(&mut self, token: u64) {
        let Some(mut conn) = self.conns.remove(&token) else {
            return;
        };
        let _ = self.reactor.deregister(conn.stream.as_raw_fd());
        if let Some(timer) = conn.deadline.take() {
            self.reactor.cancel_timer(timer);
        }
        // Responses queued but never flushed will never reach the
        // kernel now; release their in-flight accounting. (A request
        // still marked busy is released by `on_complete` when its
        // orphaned completion arrives.)
        for _ in conn.pending_ends.drain(..) {
            dec_inflight(&self.shared.inflight);
        }
        self.handler.connection_closed();
    }

    // ---- drain -----------------------------------------------------

    /// First reaction to the stop flag: stop accepting, close idle
    /// connections, keep flushing the rest. Dispatch of buffered
    /// messages has already ceased (see `pump`).
    fn begin_stop(&mut self) {
        self.stop_seen = true;
        if self.accepting {
            let _ = self.reactor.deregister(self.listener.as_raw_fd());
            self.accepting = false;
        }
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            self.maybe_close(token);
        }
        if !self.conns.is_empty() && self.grace.is_none() {
            self.grace = Some(self.reactor.schedule(FLUSH_GRACE, GRACE_TOKEN));
        }
    }

    /// Drain grace expired: force-close connections stalled on a peer
    /// that is not reading. Requests still in flight get another
    /// grace period.
    fn on_grace(&mut self) {
        self.grace = None;
        let stalled: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, conn)| !conn.busy)
            .map(|(&token, _)| token)
            .collect();
        for token in stalled {
            self.close(token);
        }
        if !self.conns.is_empty() {
            self.grace = Some(self.reactor.schedule(FLUSH_GRACE, GRACE_TOKEN));
        }
    }
}

fn is_fd_exhaustion(error: &io::Error) -> bool {
    matches!(error.raw_os_error(), Some(23) | Some(24)) // ENFILE | EMFILE
}

/// A running server.
pub struct ReactorHandle {
    addr: std::net::SocketAddr,
    shared: Arc<Shared>,
    shards: Mutex<Vec<JoinHandle<()>>>,
}

impl ReactorHandle {
    /// The bound address (useful with port 0).
    #[must_use]
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Whether a stop has been requested.
    #[must_use]
    pub fn stopping(&self) -> bool {
        self.shared.stop.load(Ordering::SeqCst)
    }

    /// Requests dispatched but not yet answered and flushed.
    #[must_use]
    pub fn inflight(&self) -> u64 {
        self.shared.inflight.load(Ordering::SeqCst)
    }

    /// Asks every shard to stop accepting and drain. Does not block.
    pub fn stop(&self) {
        self.shared.request_stop();
    }

    /// Stops, then waits up to `budget` for in-flight requests to be
    /// answered *and flushed*. Returns how many were still pending
    /// when the budget ran out (0 = drained cleanly).
    pub fn drain(&self, budget: Duration) -> u64 {
        self.stop();
        let deadline = Instant::now() + budget;
        loop {
            let pending = self.inflight();
            if pending == 0 || Instant::now() >= deadline {
                return pending;
            }
            std::thread::sleep(DRAIN_POLL);
        }
    }

    /// Blocks until a stop is requested (a handler answering with
    /// `stop`, or [`ReactorHandle::stop`]).
    pub fn join(&self) {
        let mut stop_flag = self
            .shared
            .stop_flag
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        while !*stop_flag {
            stop_flag = self
                .shared
                .stop_cv
                .wait(stop_flag)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl Drop for ReactorHandle {
    fn drop(&mut self) {
        self.stop();
        let handles: Vec<_> = self
            .shards
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .drain(..)
            .collect();
        for handle in handles {
            let _ = handle.join();
        }
        // Only after every shard exited: shards may still enqueue I/O
        // jobs while draining.
        self.shared.io_pool.shutdown();
    }
}

/// Serves `handler` on `addr` with the default [`ReactorConfig`].
///
/// # Errors
///
/// Binding, epoll setup, or thread spawning failures.
pub fn serve_reactor<H: Handler, A: ToSocketAddrs>(
    handler: Arc<H>,
    addr: A,
) -> io::Result<ReactorHandle> {
    serve_reactor_with(handler, addr, ReactorConfig::default())
}

/// [`serve_reactor`] with explicit shard / I/O pool sizing.
///
/// # Errors
///
/// Binding, epoll setup, or thread spawning failures.
pub fn serve_reactor_with<H: Handler, A: ToSocketAddrs>(
    handler: Arc<H>,
    addr: A,
    config: ReactorConfig,
) -> io::Result<ReactorHandle> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let listener = Arc::new(listener);
    let shared = Arc::new(Shared {
        stop: AtomicBool::new(false),
        inflight: AtomicU64::new(0),
        stop_flag: Mutex::new(false),
        stop_cv: Condvar::new(),
        wakers: OnceLock::new(),
        io_pool: IoPool::new(config.io_threads)?,
    });
    let shard_count = config.shards.max(1);
    let mut shards = Vec::with_capacity(shard_count);
    let mut wakers = Vec::with_capacity(shard_count);
    for _ in 0..shard_count {
        let shard = Shard::new(
            Arc::clone(&handler),
            Arc::clone(&shared),
            Arc::clone(&listener),
        )?;
        wakers.push(shard.reactor.waker());
        shards.push(shard);
    }
    // Set before any shard thread runs, so `request_stop` can always
    // reach every shard.
    let _ = shared.wakers.set(wakers);
    let threads = shards
        .into_iter()
        .enumerate()
        .map(|(i, shard)| {
            std::thread::Builder::new()
                .name(format!("pager-shard-{i}"))
                .spawn(move || shard.run())
        })
        .collect::<io::Result<Vec<_>>>()?;
    Ok(ReactorHandle {
        addr,
        shared,
        shards: Mutex::new(threads),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::Request;
    use crate::service::{PagerService, ServiceConfig};
    use jsonio::Value;
    use pager_core::Instance;
    use pager_wire::{binary, PlanSpec};
    use std::io::{BufRead, BufReader};
    use std::net::TcpStream;

    fn service() -> Arc<PagerService> {
        Arc::new(PagerService::new(ServiceConfig {
            workers: 2,
            capacity: 64,
            ..ServiceConfig::default()
        }))
    }

    fn start(service: Arc<PagerService>) -> ReactorHandle {
        serve_reactor_with(
            service,
            "127.0.0.1:0",
            ReactorConfig {
                shards: 2,
                io_threads: 1,
            },
        )
        .expect("bind reactor server")
    }

    fn request(stream: &mut TcpStream, line: &str) -> String {
        stream.write_all(line.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        response
    }

    #[test]
    fn tcp_round_trip_and_stop() {
        let handle = start(service());
        let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
        let response = request(
            &mut stream,
            r#"{"id": 1, "instance": [[0.5, 0.3, 0.2]], "delay": 2}"#,
        );
        let v = jsonio::parse(&response).unwrap();
        assert_eq!(v.get("ok").and_then(jsonio::Value::as_bool), Some(true));
        assert_eq!(v.get("id").and_then(jsonio::Value::as_i64), Some(1));
        // Pipelined lines answer in order on one connection.
        stream
            .write_all(b"{\"cmd\": \"ping\"}\n{\"cmd\": \"ping\"}\n")
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        for _ in 0..2 {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(line.contains("pong"), "{line}");
        }
        handle.stop();
        assert!(handle.stopping());
    }

    #[test]
    fn observe_and_uncached_plan_use_the_pool_path() {
        let handle = start(service());
        let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
        let observe = request(
            &mut stream,
            r#"{"cmd": "observe", "cells": 3, "sightings": [{"device": "a", "cell": 1, "time": 1.0}]}"#,
        );
        assert!(observe.contains("\"ingested\""), "{observe}");
        let uncached = request(
            &mut stream,
            r#"{"id": 2, "instance": [[0.5, 0.5]], "delay": 1, "cache": false}"#,
        );
        let v = jsonio::parse(&uncached).unwrap();
        assert_eq!(v.get("ok").and_then(jsonio::Value::as_bool), Some(true));
        assert_eq!(
            v.get("cached").and_then(jsonio::Value::as_bool),
            Some(false)
        );
    }

    #[test]
    fn shutdown_command_stops_every_shard() {
        let handle = start(service());
        let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
        let stopping = request(&mut stream, r#"{"cmd": "shutdown"}"#);
        assert!(stopping.contains("stopping"), "{stopping}");
        handle.join(); // must return: the command signalled the stop
        assert_eq!(handle.drain(Duration::from_secs(5)), 0);
        // New connections are no longer served once shards wind down.
        let refused = TcpStream::connect(handle.local_addr()).and_then(|mut s| {
            s.set_read_timeout(Some(Duration::from_millis(500)))?;
            s.write_all(b"{\"cmd\": \"ping\"}\n")?;
            let mut buf = String::new();
            BufReader::new(&mut s).read_line(&mut buf)?;
            Ok(buf)
        });
        // A connect/read error means refused or timed out — both fine.
        if let Ok(buf) = refused {
            assert!(buf.is_empty(), "served after shutdown: {buf}");
        }
    }

    #[test]
    fn drain_answers_inflight_requests_before_closing() {
        // Tiny pool so exact solves take a visible amount of time.
        let svc = Arc::new(PagerService::new(ServiceConfig {
            workers: 1,
            capacity: 64,
            queue_depth: 16,
            ..ServiceConfig::default()
        }));
        let handle = start(svc);
        let addr = handle.local_addr();
        let clients: Vec<_> = (0..3)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut stream = TcpStream::connect(addr).unwrap();
                    let line = format!(
                        r#"{{"id": {i}, "instance": [[0.4, 0.3, 0.2, 0.1], [0.1, 0.2, 0.3, 0.4]], "delay": {}, "variant": "exact", "cache": false}}"#,
                        2 + (i % 2)
                    );
                    request(&mut stream, &line)
                })
            })
            .collect();
        // Let the requests reach the server before draining.
        std::thread::sleep(Duration::from_millis(100));
        let pending = handle.drain(Duration::from_secs(10));
        assert_eq!(pending, 0, "drain left requests unanswered");
        for client in clients {
            let response = client.join().unwrap();
            let v = jsonio::parse(&response).unwrap();
            assert_eq!(
                v.get("ok").and_then(jsonio::Value::as_bool),
                Some(true),
                "{response}"
            );
        }
    }

    #[test]
    fn connection_gauge_tracks_opens_and_closes() {
        let svc = service();
        let metrics_connections = || svc.metrics().reactor_connections.get();
        let handle = start(Arc::clone(&svc));
        assert_eq!(metrics_connections(), 0);
        let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
        let _ = request(&mut stream, r#"{"cmd": "ping"}"#);
        assert_eq!(metrics_connections(), 1);
        drop(stream);
        let deadline = Instant::now() + Duration::from_secs(2);
        while metrics_connections() != 0 {
            assert!(Instant::now() < deadline, "connection close not observed");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// One decoded response message, either protocol.
    enum Msg {
        Line(String),
        Frame(u8, Vec<u8>),
    }

    /// Reads the next complete response message off the stream,
    /// buffering partial reads in `buf`.
    fn read_message(stream: &mut TcpStream, buf: &mut Vec<u8>) -> Msg {
        let mut chunk = [0u8; 1024];
        loop {
            let (msg, consumed) = match frame::split(buf) {
                Split::NeedMore => {
                    let n = stream.read(&mut chunk).unwrap();
                    assert!(n > 0, "connection closed before a full message");
                    buf.extend_from_slice(&chunk[..n]);
                    continue;
                }
                Split::V1Line { line, consumed } => (
                    Msg::Line(std::str::from_utf8(line).unwrap().to_string()),
                    consumed,
                ),
                Split::V2Frame {
                    op: frame_op,
                    payload,
                    consumed,
                } => (Msg::Frame(frame_op, payload.to_vec()), consumed),
                Split::Malformed(message) => panic!("malformed response: {message}"),
            };
            buf.drain(..consumed);
            return msg;
        }
    }

    fn plan_frame(id: i64, cache: bool) -> Vec<u8> {
        use pager_core::Delay;
        use pager_wire::Codec;
        let request = Request::Plan {
            id: Value::Int(id),
            instance: Instance::from_rows(vec![vec![0.6, 0.4]]).unwrap(),
            spec: PlanSpec::new(Delay::new(1).unwrap()).with_cache(cache),
        };
        let mut wire = Vec::new();
        pager_wire::BinaryCodec.encode_request(&request, &mut wire);
        wire
    }

    #[test]
    fn v2_plan_frames_solve_async_then_hit_the_cache() {
        let handle = start(service());
        let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
        let wire = plan_frame(21, true);
        let mut buf = Vec::new();
        stream.write_all(&wire).unwrap();
        let Msg::Frame(op1, p1) = read_message(&mut stream, &mut buf) else {
            panic!("expected a v2 frame");
        };
        let miss = binary::response_to_value(op1, &p1).unwrap();
        assert_eq!(miss.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(miss.get("id").and_then(Value::as_i64), Some(21));
        assert_eq!(miss.get("cached").and_then(Value::as_bool), Some(false));
        // The identical frame is now answered on the shard thread
        // straight from the cache.
        stream.write_all(&wire).unwrap();
        let Msg::Frame(op2, p2) = read_message(&mut stream, &mut buf) else {
            panic!("expected a v2 frame");
        };
        let hit = binary::response_to_value(op2, &p2).unwrap();
        assert_eq!(hit.get("id").and_then(Value::as_i64), Some(21));
        assert_eq!(hit.get("cached").and_then(Value::as_bool), Some(true));
        assert_eq!(hit.get("strategy"), miss.get("strategy"));
        // An uncacheable plan frame takes the I/O pool path.
        stream.write_all(&plan_frame(22, false)).unwrap();
        let Msg::Frame(op3, p3) = read_message(&mut stream, &mut buf) else {
            panic!("expected a v2 frame");
        };
        let uncached = binary::response_to_value(op3, &p3).unwrap();
        assert_eq!(uncached.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(uncached.get("cached").and_then(Value::as_bool), Some(false));
    }

    #[test]
    fn v1_and_v2_messages_interleave_on_one_connection() {
        let handle = start(service());
        let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
        let mut input = Vec::new();
        input.extend_from_slice(b"{\"id\": 1, \"instance\": [[0.6, 0.4]], \"delay\": 1}\n");
        input.extend_from_slice(&plan_frame(2, true));
        frame::write_frame(&mut input, op::PING, &[]);
        stream.write_all(&input).unwrap();
        let mut buf = Vec::new();
        let Msg::Line(first) = read_message(&mut stream, &mut buf) else {
            panic!("expected a v1 line first");
        };
        let v1 = jsonio::parse(&first).unwrap();
        assert_eq!(v1.get("id").and_then(Value::as_i64), Some(1));
        let Msg::Frame(op2, p2) = read_message(&mut stream, &mut buf) else {
            panic!("expected a v2 plan frame second");
        };
        let v2 = binary::response_to_value(op2, &p2).unwrap();
        assert_eq!(v2.get("id").and_then(Value::as_i64), Some(2));
        // The v1 request populated the cache the v2 probe hits, and
        // both codecs carry the same strategy.
        assert_eq!(v2.get("cached").and_then(Value::as_bool), Some(true));
        assert_eq!(v2.get("strategy"), v1.get("strategy"));
        let Msg::Frame(op3, _) = read_message(&mut stream, &mut buf) else {
            panic!("expected a pong frame third");
        };
        assert_eq!(op3, op::PONG);
    }

    #[test]
    fn json_wrapped_frames_answer_wrapped_and_propagate_shutdown() {
        let handle = start(service());
        let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
        let mut input = Vec::new();
        frame::write_frame(&mut input, op::JSON_REQ, b"{\"cmd\": \"metrics\"}");
        stream.write_all(&input).unwrap();
        let mut buf = Vec::new();
        let Msg::Frame(resp_op, payload) = read_message(&mut stream, &mut buf) else {
            panic!("expected a JSON response frame");
        };
        assert_eq!(resp_op, op::JSON_RESP);
        let v = jsonio::parse(std::str::from_utf8(&payload).unwrap()).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
        let mut input = Vec::new();
        frame::write_frame(&mut input, op::JSON_REQ, b"{\"cmd\": \"shutdown\"}");
        stream.write_all(&input).unwrap();
        let Msg::Frame(resp_op, payload) = read_message(&mut stream, &mut buf) else {
            panic!("expected a JSON response frame");
        };
        assert_eq!(resp_op, op::JSON_RESP);
        assert!(std::str::from_utf8(&payload).unwrap().contains("stopping"));
        handle.join(); // must return: the wrapped command signalled the stop
        assert_eq!(handle.drain(Duration::from_secs(5)), 0);
    }

    #[test]
    fn malformed_frames_get_an_error_frame_and_a_close() {
        let handle = start(service());
        let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        // A magic byte with a hostile version: unrecoverable.
        stream
            .write_all(&[frame::MAGIC, 9, 1, 0, 0, 0, 0, 0])
            .unwrap();
        let mut buf = Vec::new();
        let Msg::Frame(resp_op, payload) = read_message(&mut stream, &mut buf) else {
            panic!("expected an error frame");
        };
        let v = binary::response_to_value(resp_op, &payload).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(v.get("code").and_then(Value::as_str), Some("bad_request"));
        // Then a clean close — not a hang, not a panic.
        let mut tail = [0u8; 16];
        assert_eq!(
            stream.read(&mut tail).unwrap(),
            0,
            "expected EOF after the error"
        );
    }

    #[test]
    fn mid_frame_disconnect_closes_without_a_response() {
        let svc = service();
        let handle = start(Arc::clone(&svc));
        let addr = handle.local_addr();
        {
            // A header promising 64 payload bytes, then a disconnect.
            let mut stream = TcpStream::connect(addr).unwrap();
            let header = [frame::MAGIC, frame::VERSION, 0x01, 0, 64, 0, 0, 0];
            stream.write_all(&header).unwrap();
        }
        // The aborted connection is torn down (nothing leaks)...
        let deadline = Instant::now() + Duration::from_secs(2);
        while svc.metrics().reactor_connections.get() != 0 {
            assert!(
                Instant::now() < deadline,
                "mid-frame disconnect leaked a connection"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        // ...and the server keeps serving.
        let mut stream = TcpStream::connect(addr).unwrap();
        let response = request(&mut stream, r#"{"cmd": "ping"}"#);
        assert!(response.contains("pong"), "{response}");
    }

    #[test]
    fn partial_lines_and_eof_tails_are_served() {
        let handle = start(service());
        let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
        // Split one request across two writes.
        stream.write_all(b"{\"cmd\": ").unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(30));
        stream.write_all(b"\"ping\"}\n").unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("pong"), "{line}");
        // An unterminated final line is answered at EOF.
        stream.write_all(b"{\"cmd\": \"ping\"}").unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut tail = String::new();
        reader.read_line(&mut tail).unwrap();
        assert!(tail.contains("pong"), "{tail}");
    }
}
