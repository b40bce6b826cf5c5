//! Async sockets: nonblocking `std::net` sockets whose futures translate
//! `WouldBlock` into `Poll::Pending`, registering the socket's fd so the
//! executor wakes when it is ready.

use crate::runtime::{pending_on, POLLIN, POLLOUT};
use std::io;
use std::net::{self, SocketAddr, ToSocketAddrs};
use std::os::fd::AsRawFd;

/// Async UDP socket.
#[derive(Debug)]
pub struct UdpSocket {
    inner: net::UdpSocket,
}

impl UdpSocket {
    pub async fn bind<A: ToSocketAddrs>(addr: A) -> io::Result<UdpSocket> {
        let inner = net::UdpSocket::bind(addr)?;
        inner.set_nonblocking(true)?;
        Ok(UdpSocket { inner })
    }

    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.inner.local_addr()
    }

    pub async fn recv_from(&self, buf: &mut [u8]) -> io::Result<(usize, SocketAddr)> {
        loop {
            match self.inner.recv_from(buf) {
                Ok(v) => return Ok(v),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    pending_on(self.inner.as_raw_fd(), POLLIN).await
                }
                Err(e) => return Err(e),
            }
        }
    }

    pub async fn send_to<A: ToSocketAddrs>(&self, buf: &[u8], target: A) -> io::Result<usize> {
        let target = target
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address"))?;
        loop {
            match self.inner.send_to(buf, target) {
                Ok(n) => return Ok(n),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    pending_on(self.inner.as_raw_fd(), POLLOUT).await
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Nonblocking receive: surfaces `WouldBlock` instead of yielding, so a
    /// drain loop can pull every queued datagram per wakeup syscall-for-
    /// syscall, without constructing a future per datagram.
    pub fn try_recv_from(&self, buf: &mut [u8]) -> io::Result<(usize, SocketAddr)> {
        self.inner.recv_from(buf)
    }

    /// Nonblocking send: surfaces `WouldBlock` instead of yielding.
    pub fn try_send_to(&self, buf: &[u8], target: SocketAddr) -> io::Result<usize> {
        self.inner.send_to(buf, target)
    }

    /// Resolve once at least one datagram is queued for receive. Mirrors
    /// tokio's readiness API closely enough for drain-batch loops:
    /// `readable().await` then `try_recv_from` until `WouldBlock`.
    pub async fn readable(&self) -> io::Result<()> {
        let mut probe = [0u8; 1];
        loop {
            match self.inner.peek_from(&mut probe) {
                Ok(_) => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    pending_on(self.inner.as_raw_fd(), POLLIN).await
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// Async TCP stream. `read`/`write` primitives live here; the `read_exact` /
/// `write_all` combinators are on [`crate::io::AsyncReadExt`] /
/// [`crate::io::AsyncWriteExt`], mirroring tokio's split.
#[derive(Debug)]
pub struct TcpStream {
    inner: net::TcpStream,
}

impl TcpStream {
    pub async fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<TcpStream> {
        // Blocking connect: instantaneous at loopback, where all of this
        // workspace's wire traffic lives.
        let inner = net::TcpStream::connect(addr)?;
        inner.set_nonblocking(true)?;
        Ok(TcpStream { inner })
    }

    pub(crate) fn from_std(inner: net::TcpStream) -> io::Result<TcpStream> {
        inner.set_nonblocking(true)?;
        Ok(TcpStream { inner })
    }

    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.inner.local_addr()
    }

    pub fn peer_addr(&self) -> io::Result<SocketAddr> {
        self.inner.peer_addr()
    }

    pub(crate) async fn read_some(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        use std::io::Read;
        loop {
            match self.inner.read(buf) {
                Ok(n) => return Ok(n),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    pending_on(self.inner.as_raw_fd(), POLLIN).await
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    pub(crate) async fn write_some(&mut self, buf: &[u8]) -> io::Result<usize> {
        use std::io::Write;
        loop {
            match self.inner.write(buf) {
                Ok(n) => return Ok(n),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    pending_on(self.inner.as_raw_fd(), POLLOUT).await
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// Async TCP listener.
#[derive(Debug)]
pub struct TcpListener {
    inner: net::TcpListener,
}

impl TcpListener {
    pub async fn bind<A: ToSocketAddrs>(addr: A) -> io::Result<TcpListener> {
        let inner = net::TcpListener::bind(addr)?;
        inner.set_nonblocking(true)?;
        Ok(TcpListener { inner })
    }

    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.inner.local_addr()
    }

    pub async fn accept(&self) -> io::Result<(TcpStream, SocketAddr)> {
        loop {
            match self.inner.accept() {
                Ok((stream, peer)) => return Ok((TcpStream::from_std(stream)?, peer)),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    pending_on(self.inner.as_raw_fd(), POLLIN).await
                }
                Err(e) => return Err(e),
            }
        }
    }
}
