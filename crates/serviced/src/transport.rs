//! Pluggable byte transports: TCP, Unix-domain sockets, and an in-process
//! duplex pipe.
//!
//! The daemon and client are written against the [`Stream`] / [`Listener`]
//! traits so every robustness test can run hermetically over [`duplex`]
//! pipes — deterministic, no ports, no filesystem — while production
//! deployments listen on TCP or a Unix socket with identical semantics:
//! the two kernel sockets are one implementation, instantiated twice.
//! The pipe implements *bounded* buffers with real read/write timeouts, so
//! slow-client backpressure and write-timeout tests behave exactly like a
//! kernel socket buffer filling up.

use std::collections::VecDeque;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// A closure that force-closes a connection from another thread (the
/// drain watchdog's hammer for connections that outlive the deadline).
pub type AbortHandle = Box<dyn Fn() + Send + Sync>;

/// One bidirectional byte stream with timeout support.
pub trait Stream: Send {
    /// Read up to `buf.len()` bytes; `Ok(0)` means the peer closed.
    /// Honors the read timeout with `ErrorKind::WouldBlock`/`TimedOut`.
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize>;

    /// Write the whole buffer, honoring the write timeout.
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;

    /// Set the read timeout (`None` blocks forever).
    fn set_read_timeout(&self, d: Option<Duration>) -> io::Result<()>;

    /// Set the write timeout (`None` blocks forever).
    fn set_write_timeout(&self, d: Option<Duration>) -> io::Result<()>;

    /// A handle that closes this stream from any thread.
    fn abort_handle(&self) -> AbortHandle;
}

/// An accept source the daemon can poll.
pub trait Listener: Send {
    /// Accept one connection, waiting at most `timeout`.  `Ok(None)`
    /// means the timeout elapsed with nothing to accept (the daemon uses
    /// this to poll its drain flag).
    fn accept_timeout(&self, timeout: Duration) -> io::Result<Option<Box<dyn Stream>>>;
}

/// True when an I/O error is one of the two "nothing yet" timeout kinds.
pub fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

// ---------------------------------------------------------------------
// Kernel sockets: TCP and Unix-domain
// ---------------------------------------------------------------------

/// The one socket implementation: [`Stream`] for `$stream`, and
/// `$acceptor`, a [`Listener`] over a non-blocking `$listener`.
macro_rules! socket_transport {
    ($acceptor:ident, $listener:ident, $stream:ident) => {
        impl Stream for $stream {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                io::Read::read(self, buf)
            }

            fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
                io::Write::write_all(self, buf)
            }

            fn set_read_timeout(&self, d: Option<Duration>) -> io::Result<()> {
                $stream::set_read_timeout(self, d)
            }

            fn set_write_timeout(&self, d: Option<Duration>) -> io::Result<()> {
                $stream::set_write_timeout(self, d)
            }

            fn abort_handle(&self) -> AbortHandle {
                match self.try_clone() {
                    Ok(clone) => Box::new(move || {
                        let _ = clone.shutdown(std::net::Shutdown::Both);
                    }),
                    Err(_) => Box::new(|| {}),
                }
            }
        }

        #[doc = concat!("[`Listener`] over a non-blocking [`", stringify!($listener), "`].")]
        pub struct $acceptor {
            inner: $listener,
        }

        impl $acceptor {
            /// Wrap a bound listener (switched to non-blocking accepts).
            pub fn new(inner: $listener) -> io::Result<Self> {
                inner.set_nonblocking(true)?;
                Ok($acceptor { inner })
            }
        }

        impl Listener for $acceptor {
            fn accept_timeout(&self, timeout: Duration) -> io::Result<Option<Box<dyn Stream>>> {
                let deadline = Instant::now() + timeout;
                loop {
                    match self.inner.accept() {
                        Ok((stream, _addr)) => {
                            stream.set_nonblocking(false)?;
                            return Ok(Some(Box::new(stream)));
                        }
                        Err(e) if is_timeout(&e) => {
                            if Instant::now() >= deadline {
                                return Ok(None);
                            }
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        Err(e) => return Err(e),
                    }
                }
            }
        }
    };
}

socket_transport!(TcpAcceptor, TcpListener, TcpStream);
socket_transport!(UnixAcceptor, UnixListener, UnixStream);

// ---------------------------------------------------------------------
// In-process duplex pipe
// ---------------------------------------------------------------------

/// Capacity of one pipe direction — small enough that a reader who stops
/// draining makes the writer block (and hit its write timeout), exactly
/// like a kernel socket buffer.
pub const PIPE_CAPACITY: usize = 64 * 1024;

#[derive(Default)]
struct PipeBuf {
    data: VecDeque<u8>,
    closed: bool,
}

struct PipeDirection {
    buf: Mutex<PipeBuf>,
    /// Wakes readers when data arrives or the direction closes.
    readable: Condvar,
    /// Wakes writers when space frees up or the direction closes.
    writable: Condvar,
    capacity: usize,
}

impl PipeDirection {
    fn new(capacity: usize) -> Self {
        PipeDirection {
            buf: Mutex::new(PipeBuf::default()),
            readable: Condvar::new(),
            writable: Condvar::new(),
            capacity,
        }
    }

    fn close(&self) {
        self.buf.lock().unwrap_or_else(|p| p.into_inner()).closed = true;
        self.readable.notify_all();
        self.writable.notify_all();
    }

    fn read(&self, out: &mut [u8], timeout: Option<Duration>) -> io::Result<usize> {
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut buf = self.buf.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if !buf.data.is_empty() {
                let n = out.len().min(buf.data.len());
                for b in out.iter_mut().take(n) {
                    *b = buf.data.pop_front().expect("len checked");
                }
                drop(buf);
                self.writable.notify_all();
                return Ok(n);
            }
            if buf.closed {
                return Ok(0);
            }
            match deadline {
                None => {
                    buf = self.readable.wait(buf).unwrap_or_else(|p| p.into_inner());
                }
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        return Err(io::Error::new(io::ErrorKind::TimedOut, "pipe read timeout"));
                    }
                    let (guard, _to) = self
                        .readable
                        .wait_timeout(buf, d - now)
                        .unwrap_or_else(|p| p.into_inner());
                    buf = guard;
                }
            }
        }
    }

    fn write_all(&self, mut data: &[u8], timeout: Option<Duration>) -> io::Result<()> {
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut buf = self.buf.lock().unwrap_or_else(|p| p.into_inner());
        while !data.is_empty() {
            if buf.closed {
                return Err(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    "pipe peer closed",
                ));
            }
            let space = self.capacity - buf.data.len();
            if space > 0 {
                let n = space.min(data.len());
                buf.data.extend(&data[..n]);
                data = &data[n..];
                self.readable.notify_all();
                continue;
            }
            match deadline {
                None => {
                    buf = self.writable.wait(buf).unwrap_or_else(|p| p.into_inner());
                }
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "pipe write timeout",
                        ));
                    }
                    let (guard, _to) = self
                        .writable
                        .wait_timeout(buf, d - now)
                        .unwrap_or_else(|p| p.into_inner());
                    buf = guard;
                }
            }
        }
        Ok(())
    }
}

/// One end of an in-process duplex pipe.  Cheap to create, deterministic
/// under test, and faithful to socket semantics: bounded buffers, real
/// timeouts, `Ok(0)` on peer close.
pub struct PipeStream {
    /// The direction this end reads from.
    rx: Arc<PipeDirection>,
    /// The direction this end writes to.
    tx: Arc<PipeDirection>,
    timeouts: Arc<Mutex<(Option<Duration>, Option<Duration>)>>,
}

/// Both pipe ends, fully connected.
pub fn duplex() -> (PipeStream, PipeStream) {
    duplex_with_capacity(PIPE_CAPACITY)
}

/// [`duplex`] with an explicit per-direction capacity (tests shrink it to
/// trip write timeouts quickly).
pub fn duplex_with_capacity(capacity: usize) -> (PipeStream, PipeStream) {
    let a_to_b = Arc::new(PipeDirection::new(capacity));
    let b_to_a = Arc::new(PipeDirection::new(capacity));
    let a = PipeStream {
        rx: Arc::clone(&b_to_a),
        tx: Arc::clone(&a_to_b),
        timeouts: Arc::new(Mutex::new((None, None))),
    };
    let b = PipeStream {
        rx: a_to_b,
        tx: b_to_a,
        timeouts: Arc::new(Mutex::new((None, None))),
    };
    (a, b)
}

impl Drop for PipeStream {
    fn drop(&mut self) {
        // Dropping one end closes both directions, like a socket close.
        self.rx.close();
        self.tx.close();
    }
}

impl Stream for PipeStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let timeout = self.timeouts.lock().unwrap_or_else(|p| p.into_inner()).0;
        self.rx.read(buf, timeout)
    }

    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let timeout = self.timeouts.lock().unwrap_or_else(|p| p.into_inner()).1;
        self.tx.write_all(buf, timeout)
    }

    fn set_read_timeout(&self, d: Option<Duration>) -> io::Result<()> {
        self.timeouts.lock().unwrap_or_else(|p| p.into_inner()).0 = d;
        Ok(())
    }

    fn set_write_timeout(&self, d: Option<Duration>) -> io::Result<()> {
        self.timeouts.lock().unwrap_or_else(|p| p.into_inner()).1 = d;
        Ok(())
    }

    fn abort_handle(&self) -> AbortHandle {
        let rx = Arc::clone(&self.rx);
        let tx = Arc::clone(&self.tx);
        Box::new(move || {
            rx.close();
            tx.close();
        })
    }
}

/// An in-process [`Listener`]: tests hand the daemon one of these and
/// call [`PipeListener::connect`] to dial it.
#[derive(Clone)]
pub struct PipeListener {
    pending: Arc<(Mutex<VecDeque<PipeStream>>, Condvar)>,
    capacity: usize,
}

impl Default for PipeListener {
    fn default() -> Self {
        Self::new()
    }
}

impl PipeListener {
    pub fn new() -> Self {
        Self::with_capacity(PIPE_CAPACITY)
    }

    /// A listener whose pipes have the given per-direction capacity
    /// (slow-client tests shrink it so one unread response fills the
    /// buffer and trips the daemon's write timeout).
    pub fn with_capacity(capacity: usize) -> Self {
        PipeListener {
            pending: Arc::new((Mutex::new(VecDeque::new()), Condvar::new())),
            capacity,
        }
    }

    /// Dial the listener: returns the client end; the server end is
    /// queued for the daemon's next accept.
    pub fn connect(&self) -> PipeStream {
        let (client, server) = duplex_with_capacity(self.capacity);
        let (lock, cv) = &*self.pending;
        lock.lock()
            .unwrap_or_else(|p| p.into_inner())
            .push_back(server);
        cv.notify_all();
        client
    }
}

impl Listener for PipeListener {
    fn accept_timeout(&self, timeout: Duration) -> io::Result<Option<Box<dyn Stream>>> {
        let deadline = Instant::now() + timeout;
        let (lock, cv) = &*self.pending;
        let mut pending = lock.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if let Some(stream) = pending.pop_front() {
                return Ok(Some(Box::new(stream)));
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(None);
            }
            let (guard, _to) = cv
                .wait_timeout(pending, deadline - now)
                .unwrap_or_else(|p| p.into_inner());
            pending = guard;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipe_roundtrips_bytes() {
        let (mut a, mut b) = duplex();
        a.write_all(b"hello").unwrap();
        let mut buf = [0u8; 16];
        let n = b.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"hello");
    }

    #[test]
    fn pipe_read_times_out_then_recovers() {
        let (mut a, mut b) = duplex();
        b.set_read_timeout(Some(Duration::from_millis(20))).unwrap();
        let err = b.read(&mut [0u8; 4]).unwrap_err();
        assert!(is_timeout(&err));
        a.write_all(b"x").unwrap();
        assert_eq!(b.read(&mut [0u8; 4]).unwrap(), 1);
    }

    #[test]
    fn pipe_write_times_out_when_reader_stalls() {
        let (mut a, _b) = duplex_with_capacity(8);
        a.set_write_timeout(Some(Duration::from_millis(20)))
            .unwrap();
        // Fills the 8-byte buffer, then must time out (nobody reads).
        let err = a.write_all(&[0u8; 64]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
    }

    #[test]
    fn pipe_close_is_visible_to_the_peer() {
        let (a, mut b) = duplex();
        drop(a);
        assert_eq!(b.read(&mut [0u8; 4]).unwrap(), 0, "EOF after close");
        assert!(b.write_all(b"x").is_err(), "write into closed pipe fails");
    }

    #[test]
    fn pipe_listener_accepts_in_connect_order() {
        let listener = PipeListener::new();
        assert!(listener
            .accept_timeout(Duration::from_millis(5))
            .unwrap()
            .is_none());
        let mut c1 = listener.connect();
        let _c2 = listener.connect();
        let mut s1 = listener
            .accept_timeout(Duration::from_millis(100))
            .unwrap()
            .expect("first accept");
        c1.write_all(b"one").unwrap();
        let mut buf = [0u8; 8];
        let n = s1.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"one");
    }

    #[test]
    fn abort_handle_force_closes_a_blocked_read() {
        let (a, mut b) = duplex();
        let abort = b.abort_handle();
        let reader = std::thread::spawn(move || b.read(&mut [0u8; 4]));
        std::thread::sleep(Duration::from_millis(10));
        abort();
        assert_eq!(reader.join().unwrap().unwrap(), 0, "aborted read sees EOF");
        drop(a);
    }
}
