//! The readiness loop: a small fixed set of reactor threads
//! multiplexing every connection over `poll(2)`.
//!
//! Each reactor owns a private set of nonblocking sockets and their
//! [`Conn`] state machines. Reactor 0 additionally owns the (also
//! nonblocking) listener and deals new connections round-robin across
//! the fleet. Everything else in the server — the job workers,
//! admission bookkeeping on other reactors — talks to a
//! reactor through its [`ReactorLink`]: a mutex-guarded inbox plus a
//! one-byte wakeup pipe that interrupts the reactor's `poll`.
//!
//! ```text
//!            ┌────────────────────────── reactor thread ──┐
//!  listener ─┤ poll([wakeup, listener, conn fds...])      │
//!  wakeup  ──┤   ├─ drain inbox (Adopt/Started/Reply/...) │
//!            │   ├─ accept burst → round-robin Adopt      │
//!            │   ├─ read pump → Conn::on_bytes → admit    │
//!            │   ├─ write pump ← Conn outbuf              │
//!            │   └─ reap pass (loris / stuck writers)     │
//!            └────────────────────────────────────────────┘
//! ```
//!
//! Interest sets are rebuilt from connection state every iteration:
//! `POLLIN` while the connection wants more requests (dropped under
//! outbuf backpressure), `POLLOUT` only while reply bytes are owed —
//! which is what keeps an idle connection from busy-waking on a
//! permanently writable socket, and what makes the
//! `serve.reactor.wakeups` counter a meaningful bound to assert on.

use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::conn::{Conn, ConnProto, ConnToken, Reap};
use crate::proto::{ErrStatus, Response};
use crate::server::{handle_wire_request, Shared};
use crate::sys::{poll_fds, PollFd, POLLIN, POLLOUT};

/// Longest a stopping reactor waits for final reply bytes to flush
/// before force-closing the stragglers.
const STOP_FLUSH_GRACE: Duration = Duration::from_secs(5);

/// Work delivered to a reactor from outside its thread.
pub(crate) enum ReactorMsg {
    /// Take ownership of a freshly accepted connection.
    Adopt(TcpStream),
    /// A request this connection admitted has started executing.
    Started {
        /// The owning connection.
        token: ConnToken,
    },
    /// A rendered reply for one of this reactor's connections.
    Reply {
        /// The owning connection.
        token: ConnToken,
        /// Wire-ready bytes (a JSON line or a sealed CSRV frame).
        bytes: Vec<u8>,
        /// Close the connection once these bytes flush.
        close_after: bool,
    },
    /// The last worker drained: flush what's owed, then exit.
    DrainComplete,
}

/// A reactor's externally visible half: an inbox and a wakeup pipe.
pub(crate) struct ReactorLink {
    inbox: Mutex<VecDeque<ReactorMsg>>,
    wake: UnixStream,
}

impl ReactorLink {
    pub(crate) fn new(wake: UnixStream) -> Self {
        ReactorLink {
            inbox: Mutex::new(VecDeque::new()),
            wake,
        }
    }

    /// Enqueues `msg` and pokes the reactor out of `poll`. A failed
    /// (would-block) pipe write means a wakeup is already pending,
    /// which is exactly as good as delivering another.
    pub(crate) fn send(&self, msg: ReactorMsg) {
        self.inbox
            .lock()
            .expect("reactor inbox poisoned")
            .push_back(msg);
        let _ = (&self.wake).write(&[1u8]);
    }

    fn take_all(&self) -> VecDeque<ReactorMsg> {
        std::mem::take(&mut *self.inbox.lock().expect("reactor inbox poisoned"))
    }
}

struct Entry {
    stream: TcpStream,
    conn: Conn,
}

/// One readiness-loop thread. See the module docs.
pub(crate) struct Reactor {
    shared: Arc<Shared>,
    id: usize,
    listener: Option<TcpListener>,
    wake_rx: UnixStream,
    conns: HashMap<ConnToken, Entry>,
    stopping: bool,
    stop_deadline: Option<Instant>,
}

impl Reactor {
    pub(crate) fn new(
        shared: Arc<Shared>,
        id: usize,
        listener: Option<TcpListener>,
        wake_rx: UnixStream,
    ) -> Self {
        Reactor {
            shared,
            id,
            listener,
            wake_rx,
            conns: HashMap::new(),
            stopping: false,
            stop_deadline: None,
        }
    }

    pub(crate) fn run(mut self) {
        let line_timeout = self.shared.cfg.line_timeout;
        let write_timeout = self.shared.cfg.write_timeout;
        let mut fds: Vec<PollFd> = Vec::new();
        let mut tokens: Vec<ConnToken> = Vec::new();
        loop {
            // Rebuild the interest set from connection state.
            fds.clear();
            tokens.clear();
            fds.push(PollFd::new(self.wake_rx.as_raw_fd(), POLLIN));
            let listen_slot = self.listener.as_ref().map(|l| {
                fds.push(PollFd::new(l.as_raw_fd(), POLLIN));
                fds.len() - 1
            });
            let conn_base = fds.len();
            for (token, entry) in &self.conns {
                let mut events = 0i16;
                if entry.conn.wants_read() {
                    events |= POLLIN;
                }
                if entry.conn.wants_write() {
                    events |= POLLOUT;
                }
                if events == 0 {
                    continue;
                }
                fds.push(PollFd::new(entry.stream.as_raw_fd(), events));
                tokens.push(*token);
            }

            // Sleep until traffic, a message, or the earliest deadline.
            let now = Instant::now();
            let mut deadline = self.stop_deadline;
            for entry in self.conns.values() {
                if let Some(d) = entry.conn.next_deadline(line_timeout, write_timeout) {
                    deadline = Some(deadline.map_or(d, |x: Instant| x.min(d)));
                }
            }
            if self.id == 0 {
                if let Some(d) = self.shared.next_waiter_deadline() {
                    deadline = Some(deadline.map_or(d, |x: Instant| x.min(d)));
                }
            }
            let timeout = deadline.map(|d| d.saturating_duration_since(now));
            if poll_fds(&mut fds, timeout).is_err() {
                // poll(2) only fails here for resource exhaustion;
                // back off a beat rather than spin on the error.
                std::thread::sleep(Duration::from_millis(1));
            }
            self.shared.obs.inc("serve.reactor.wakeups");
            let now = Instant::now();

            // 1. Wakeup pipe + inbox. The pipe is drained fully so one
            //    byte keeps meaning "check your inbox", never a queue.
            if fds[0].ready(POLLIN) {
                let mut sink = [0u8; 64];
                while matches!((&self.wake_rx).read(&mut sink), Ok(n) if n > 0) {}
            }
            let touched = self.drain_inbox(now);
            for token in touched {
                self.flush_now(token, now);
            }

            // 2. Accept burst, dealt round-robin across reactors.
            if let Some(slot) = listen_slot {
                if fds[slot].ready(POLLIN) {
                    self.accept_ready();
                }
            }

            // 3. Per-connection I/O for every fd the kernel flagged.
            for (i, token) in tokens.clone().into_iter().enumerate() {
                let pfd = fds[conn_base + i];
                self.conn_ready(token, pfd.ready(POLLIN), pfd.ready(POLLOUT), now);
            }

            // 4. Reap clocks: slow-loris reads, stuck writers.
            self.reap_pass(now, line_timeout, write_timeout);

            // 5. Reactor 0 also sweeps waiters the workers lost.
            if self.id == 0 {
                self.shared.sweep_stalled(now);
            }

            // 6. Drain-complete exit: close everything idle, give the
            //    rest a bounded grace to flush.
            if self.stopping {
                self.listener = None;
                let done: Vec<ConnToken> = self
                    .conns
                    .iter()
                    .filter(|(_, e)| e.conn.flushed() && e.conn.inflight() == 0)
                    .map(|(t, _)| *t)
                    .collect();
                for token in done {
                    self.close_conn(token);
                }
                let expired = self.stop_deadline.is_some_and(|d| d <= Instant::now());
                if self.conns.is_empty() || expired {
                    let leftover: Vec<ConnToken> = self.conns.keys().copied().collect();
                    for token in leftover {
                        self.close_conn(token);
                    }
                    return;
                }
            }
        }
    }

    fn drain_inbox(&mut self, now: Instant) -> Vec<ConnToken> {
        let msgs = self.shared.link(self.id).take_all();
        let mut touched = Vec::new();
        for msg in msgs {
            match msg {
                ReactorMsg::Adopt(stream) => self.adopt(stream),
                ReactorMsg::Started { token } => {
                    if let Some(entry) = self.conns.get_mut(&token) {
                        entry.conn.started();
                    }
                }
                ReactorMsg::Reply {
                    token,
                    bytes,
                    close_after,
                } => {
                    // A missing connection means the client hung up
                    // before its reply; the work is already counted.
                    if let Some(entry) = self.conns.get_mut(&token) {
                        entry.conn.resolve(&bytes, now);
                        if close_after {
                            entry.conn.mark_close_after_flush();
                        }
                        touched.push(token);
                    }
                }
                ReactorMsg::DrainComplete => {
                    self.stopping = true;
                    self.stop_deadline =
                        Some(now + self.shared.cfg.write_timeout.min(STOP_FLUSH_GRACE));
                }
            }
        }
        touched
    }

    fn adopt(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        // One-frame requests and replies are far smaller than a
        // segment; letting Nagle batch them just adds delayed-ACK
        // stalls to every latency sample.
        let _ = stream.set_nodelay(true);
        let token = self.shared.mint_token();
        self.shared.obs.inc("serve.conns.accepted");
        self.shared.conn_opened();
        self.conns.insert(
            token,
            Entry {
                stream,
                conn: Conn::new(token),
            },
        );
    }

    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    let target = self.shared.route_accept();
                    if target == self.id {
                        self.adopt(stream);
                    } else {
                        self.shared.link(target).send(ReactorMsg::Adopt(stream));
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                // Aborted handshakes and transient errors: the next
                // POLLIN will retry whatever is still pending.
                Err(_) => return,
            }
        }
    }

    /// Pumps one ready connection; removes it if the peer is gone.
    fn conn_ready(&mut self, token: ConnToken, readable: bool, writable: bool, now: Instant) {
        let Some(entry) = self.conns.get_mut(&token) else {
            return;
        };
        let mut dead = false;
        if readable && entry.conn.wants_read() {
            dead = pump_read(&self.shared, self.id, entry, now);
        }
        if !dead && (writable || entry.conn.wants_write()) {
            dead = pump_write(entry, now);
        }
        if dead {
            self.close_conn(token);
        }
    }

    /// Immediate write attempt after an injected reply, so a completed
    /// job's bytes go out this iteration instead of after one more
    /// poll round-trip.
    fn flush_now(&mut self, token: ConnToken, now: Instant) {
        let Some(entry) = self.conns.get_mut(&token) else {
            return;
        };
        if pump_write(entry, now) {
            self.close_conn(token);
        }
    }

    fn reap_pass(&mut self, now: Instant, line_timeout: Duration, write_timeout: Duration) {
        let mut to_close: Vec<ConnToken> = Vec::new();
        for (token, entry) in &mut self.conns {
            match entry.conn.tick(now, line_timeout, write_timeout) {
                Some(Reap::StalledRead) => {
                    self.shared.obs.inc("serve.conn.reaped_read");
                    match entry.conn.proto() {
                        ConnProto::Line => entry.conn.respond(
                            b"{\"status\":\"timeout\",\"reason\":\"request line stalled; connection reaped\"}\n",
                            now,
                        ),
                        ConnProto::Binary => {
                            let frame = Response::Error {
                                corr: 0,
                                status: ErrStatus::Timeout,
                                reason: "request frame stalled; connection reaped".to_owned(),
                            }
                            .encode();
                            entry.conn.respond(&frame, now);
                        }
                        // A stalled HTTP header block or a conn that
                        // never sent a byte has no protocol to answer
                        // in; it just closes.
                        ConnProto::Http | ConnProto::Unknown => {}
                    }
                    entry.conn.mark_close_after_flush();
                    if pump_write(entry, now) {
                        to_close.push(*token);
                    }
                }
                Some(Reap::StalledWrite) => {
                    self.shared.obs.inc("serve.conn.reaped_write");
                    to_close.push(*token);
                }
                None => {}
            }
        }
        for token in to_close {
            self.close_conn(token);
        }
    }

    fn close_conn(&mut self, token: ConnToken) {
        if self.conns.remove(&token).is_some() {
            self.shared.conn_closed();
        }
    }
}

/// Reads until the socket runs dry, feeding the state machine and
/// admitting every complete request. Returns true when the connection
/// must be torn down immediately (EOF or a hard I/O error).
fn pump_read(shared: &Arc<Shared>, reactor_id: usize, entry: &mut Entry, now: Instant) -> bool {
    let mut buf = [0u8; 16 * 1024];
    loop {
        match entry.stream.read(&mut buf) {
            Ok(0) => return true,
            Ok(n) => {
                match entry.conn.on_bytes(&buf[..n], now) {
                    Ok(requests) => {
                        for request in requests {
                            handle_wire_request(shared, reactor_id, &mut entry.conn, request);
                        }
                    }
                    Err(err) => {
                        // Typed garbage: answer with a best-effort
                        // error frame and close — the stream position
                        // past a corrupt frame is unreliable.
                        shared.obs.inc("serve.proto.corrupt");
                        shared.obs.inc("serve.responses.invalid");
                        let frame = Response::Error {
                            corr: 0,
                            status: ErrStatus::Invalid,
                            reason: err.to_string(),
                        }
                        .encode();
                        entry.conn.respond(&frame, now);
                        entry.conn.mark_close_after_flush();
                        return pump_write(entry, now);
                    }
                }
                if !entry.conn.wants_read() {
                    // Backpressure or a shutdown in the pipeline:
                    // leave the rest in the kernel buffer.
                    return pump_write(entry, now);
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return pump_write(entry, now),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return true,
        }
    }
}

/// Writes until flushed or the socket refuses. Returns true when the
/// connection is finished (flushed a closing conn, or the peer died).
fn pump_write(entry: &mut Entry, now: Instant) -> bool {
    while entry.conn.wants_write() {
        match entry.stream.write(entry.conn.writable()) {
            Ok(0) => return true,
            Ok(n) => entry.conn.did_write(n, now),
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return true,
        }
    }
    entry.conn.closing() && entry.conn.flushed()
}
