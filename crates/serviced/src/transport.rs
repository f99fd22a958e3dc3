//! Byte transports: TCP and Unix-domain sockets.
//!
//! The daemon and client are written against the [`Stream`] / [`Listener`]
//! traits, which the two kernel sockets implement through one macro
//! instantiated twice.  Deployments listen on either; every daemon test
//! and bench runs on a Unix socket, so the slow-client write timeout and
//! the drain watchdog's abort are exercised on the kernel buffers and
//! shutdowns the daemon serves over.

use std::io;
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn socket_roundtrips_bytes() {
        let (mut a, mut b) = UnixStream::pair().unwrap();
        a.write_all(b"hello").unwrap();
        let mut buf = [0u8; 16];
        let n = b.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"hello");
    }

    #[test]
    fn socket_read_times_out_then_recovers() {
        let (mut a, mut b) = UnixStream::pair().unwrap();
        Stream::set_read_timeout(&b, Some(Duration::from_millis(20))).unwrap();
        let err = b.read(&mut [0u8; 4]).unwrap_err();
        assert!(is_timeout(&err), "{err:?}");
        a.write_all(b"x").unwrap();
        assert_eq!(b.read(&mut [0u8; 4]).unwrap(), 1);
    }

    #[test]
    fn socket_write_times_out_when_reader_stalls() {
        let (mut a, _b) = UnixStream::pair().unwrap();
        Stream::set_write_timeout(&a, Some(Duration::from_millis(20))).unwrap();
        // Far past both socket buffers, and nobody reads.
        let err = a.write_all(&vec![0u8; 8 << 20]).unwrap_err();
        assert!(is_timeout(&err), "{err:?}");
    }

    #[test]
    fn socket_close_is_visible_to_the_peer() {
        let (a, mut b) = UnixStream::pair().unwrap();
        drop(a);
        assert_eq!(b.read(&mut [0u8; 4]).unwrap(), 0, "EOF after close");
        let err = b.write_all(b"x").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn unix_acceptor_accepts_in_connect_order() {
        let path = std::env::temp_dir().join(format!(
            "lec-serviced-transport-{}.sock",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let acceptor = UnixAcceptor::new(UnixListener::bind(&path).unwrap()).unwrap();
        assert!(acceptor
            .accept_timeout(Duration::from_millis(5))
            .unwrap()
            .is_none());
        let mut clients = [
            UnixStream::connect(&path).unwrap(),
            UnixStream::connect(&path).unwrap(),
        ];
        for (msg, client) in [b"one", b"two"].iter().zip(&mut clients) {
            let mut server = acceptor
                .accept_timeout(Duration::from_millis(100))
                .unwrap()
                .expect("a pending connection");
            client.write_all(*msg).unwrap();
            let mut buf = [0u8; 8];
            let n = server.read(&mut buf).unwrap();
            assert_eq!(&buf[..n], *msg);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn abort_handle_force_closes_a_blocked_read() {
        let (a, mut b) = UnixStream::pair().unwrap();
        let abort = b.abort_handle();
        let reader = std::thread::spawn(move || b.read(&mut [0u8; 4]));
        std::thread::sleep(Duration::from_millis(10));
        abort();
        assert_eq!(reader.join().unwrap().unwrap(), 0, "aborted read sees EOF");
        drop(a);
    }
}
