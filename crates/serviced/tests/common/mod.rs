//! A Unix-domain socket for one daemon under test: bound under the
//! system temp dir with a name unique to this process and call, served
//! through [`UnixAcceptor`], and removed when dropped.

use lec_serviced::UnixAcceptor;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

pub struct Socket {
    /// What the daemon accepts from: `daemon.run(&socket.acceptor)`.
    pub acceptor: UnixAcceptor,
    path: PathBuf,
}

impl Socket {
    pub fn bind() -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "lec-serviced-test-{}-{}.sock",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path).expect("bind unix socket");
        let acceptor = UnixAcceptor::new(listener).expect("acceptor");
        Socket { acceptor, path }
    }

    /// Dial the socket; the daemon accepts connections in dial order.
    /// Reads time out after 10 s, so a close the daemon never delivers
    /// fails the test instead of hanging it.
    pub fn connect(&self) -> UnixStream {
        let stream = UnixStream::connect(&self.path).expect("dial unix socket");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        stream
    }
}

impl Drop for Socket {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}
