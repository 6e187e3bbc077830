//! The one TCP transport under the selection server, the lease
//! coordinator and the chaos proxy: binding, the non-blocking accept loop
//! that polls SIGINT and a shutdown flag, and the blocking request/response
//! client. Frames themselves are [`crate::protocol`]'s.

use crate::protocol::{read_frame_blocking, write_frame, ProtocolError};
use crate::server::ServeError;
use serde::{Deserialize, Serialize};
use std::io::ErrorKind;
use std::marker::PhantomData;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long the accept loop sleeps when no connection is pending (also the
/// lease client's shutdown poll between renewals).
pub(crate) const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// Bind `addr` (`host:port`, port 0 for ephemeral) as a non-blocking
/// listener and read back the address actually bound.
pub(crate) fn bind(addr: &str) -> Result<(TcpListener, SocketAddr), ServeError> {
    let bind_error =
        |e: std::io::Error| ServeError::Bind { addr: addr.into(), detail: e.to_string() };
    let listener = TcpListener::bind(addr).map_err(bind_error)?;
    let local = listener.local_addr().map_err(bind_error)?;
    listener.set_nonblocking(true).map_err(|e| ServeError::Io(e.to_string()))?;
    Ok((listener, local))
}

/// Accept connections until SIGINT or `shutdown`, handing each one to
/// `on_conn`, then join every thread `on_conn` spawned. SIGINT sets
/// `shutdown`, so every connection drains the same way either way.
pub(crate) fn accept_until_shutdown(
    listener: &TcpListener,
    shutdown: &AtomicBool,
    mut on_conn: impl FnMut(TcpStream) -> Option<JoinHandle<()>>,
) -> Result<(), ServeError> {
    sig::install();
    let mut threads = Vec::new();
    loop {
        if sig::pending() {
            shutdown.store(true, Ordering::SeqCst);
        }
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        match listener.accept() {
            Ok((stream, _peer)) => threads.extend(on_conn(stream)),
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_POLL),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(ServeError::Io(e.to_string())),
        }
    }
    for thread in threads {
        let _ = thread.join();
    }
    Ok(())
}

/// SIGINT plumbing: the handler only sets a flag the accept loop polls.
#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    static SIGINT: AtomicBool = AtomicBool::new(false);
    const SIGINT_NO: i32 = 2;

    extern "C" fn on_sigint(_: i32) {
        SIGINT.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    pub fn install() {
        // SAFETY: `signal` is the C library's, called with a valid signal
        // number and an `extern "C"` handler that only stores to an atomic,
        // which is async-signal-safe.
        unsafe {
            signal(SIGINT_NO, on_sigint);
        }
    }

    pub fn pending() -> bool {
        SIGINT.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod sig {
    pub fn install() {}
    pub fn pending() -> bool {
        false
    }
}

/// A blocking request/response client over one TCP connection: one frame
/// out, one frame back. [`crate::Client`] speaks the selection protocol,
/// [`crate::CoordClient`] the lease protocol.
pub struct FrameClient<Req, Resp> {
    stream: TcpStream,
    messages: PhantomData<fn(&Req) -> Resp>,
}

impl<Req: Serialize, Resp: Deserialize> FrameClient<Req, Resp> {
    fn new(stream: TcpStream) -> Result<Self, ProtocolError> {
        stream.set_nodelay(true)?;
        Ok(Self { stream, messages: PhantomData })
    }

    /// Connect to `addr` (`host:port`).
    pub fn connect(addr: &str) -> Result<Self, ProtocolError> {
        Self::new(TcpStream::connect(addr)?)
    }

    /// Connect with a timeout on both the connect and later calls — the
    /// lease client uses this so a partitioned coordinator surfaces as a
    /// miss within one renewal interval, not a hung thread.
    pub fn connect_timeout(addr: &SocketAddr, timeout: Duration) -> Result<Self, ProtocolError> {
        let stream = TcpStream::connect_timeout(addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        Self::new(stream)
    }

    /// Send one request and wait for its response. On a stream with a read
    /// timeout the call gives up at the first timeout: before the response
    /// starts as [`ErrorKind::TimedOut`], after it as
    /// [`ProtocolError::Truncated`]. A peer close before the response is
    /// [`ErrorKind::UnexpectedEof`].
    pub fn call(&mut self, request: &Req) -> Result<Resp, ProtocolError> {
        write_frame(&mut self.stream, request)?;
        read_frame_blocking(&mut self.stream)?.ok_or_else(|| {
            ProtocolError::Io(std::io::Error::new(ErrorKind::UnexpectedEof, "peer closed mid-call"))
        })
    }

    /// The raw stream (for tests that need to write hostile bytes, and for
    /// per-call read timeouts).
    pub fn stream_mut(&mut self) -> &mut TcpStream {
        &mut self.stream
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{frame_header, Request};
    use crate::Client;
    use std::io::Write;

    #[test]
    fn call_reports_timeouts_and_peer_closes_by_kind() {
        // A peer that accepts and never answers: the read timeout fires.
        let silent = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = Client::connect(&silent.local_addr().unwrap().to_string()).unwrap();
        client.stream_mut().set_read_timeout(Some(Duration::from_millis(50))).unwrap();
        let (_held, _) = silent.accept().unwrap();
        match client.call(&Request::Hello) {
            Err(ProtocolError::Io(e)) => assert_eq!(e.kind(), ErrorKind::TimedOut),
            other => panic!("expected a TimedOut i/o error, got {other:?}"),
        }

        // A peer that sends a response header and then stalls: the call
        // gives up at the first timeout instead of waiting for the body.
        let stalling = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = Client::connect(&stalling.local_addr().unwrap().to_string()).unwrap();
        client.stream_mut().set_read_timeout(Some(Duration::from_millis(50))).unwrap();
        let (mut held, _) = stalling.accept().unwrap();
        held.write_all(&frame_header(10)).unwrap();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || done_tx.send(client.call(&Request::Hello)).unwrap());
        match done_rx.recv_timeout(Duration::from_secs(2)).expect("the call returned") {
            Err(ProtocolError::Truncated { expected: 10, got: 0 }) => {}
            other => panic!("expected a truncated response, got {other:?}"),
        }
        drop(held);

        // A peer that reads the request and then drops the connection.
        let closing = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = Client::connect(&closing.local_addr().unwrap().to_string()).unwrap();
        let peer = std::thread::spawn(move || {
            let (mut peer, _) = closing.accept().unwrap();
            let request: Option<Request> = read_frame_blocking(&mut peer).unwrap();
            assert_eq!(request, Some(Request::Hello));
        });
        match client.call(&Request::Hello) {
            Err(ProtocolError::Io(e)) => assert_eq!(e.kind(), ErrorKind::UnexpectedEof),
            other => panic!("expected an UnexpectedEof i/o error, got {other:?}"),
        }
        peer.join().unwrap();
    }
}
