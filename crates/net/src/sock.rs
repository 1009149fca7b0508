//! A socket that is either a Unix-domain stream or a loopback TCP
//! stream, so the rest of the backend is transport-agnostic.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// One connected stream endpoint, Unix-domain or TCP.
#[derive(Debug)]
pub enum Sock {
    /// A Unix-domain stream socket.
    Unix(UnixStream),
    /// A TCP stream (the backend only ever dials loopback).
    Tcp(TcpStream),
}

impl Sock {
    /// Dial a coordinator at `unix:<path>` or `tcp:<host:port>`.
    pub fn connect(addr: &str) -> std::io::Result<Sock> {
        match addr.split_once(':') {
            Some(("unix", path)) => UnixStream::connect(path).map(Sock::Unix),
            Some(("tcp", hostport)) => Sock::tcp(TcpStream::connect(hostport)?),
            _ => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("bad coordinator address '{addr}'"),
            )),
        }
    }

    /// Wrap a connected TCP stream with Nagle's algorithm off. Every
    /// write is one whole frame, and nothing acknowledges frames in the
    /// other direction, so a ship of two frames would otherwise wait for
    /// the peer's delayed TCP ACK before its second frame leaves.
    pub(crate) fn tcp(stream: TcpStream) -> std::io::Result<Sock> {
        stream.set_nodelay(true)?;
        Ok(Sock::Tcp(stream))
    }

    /// Clone the underlying descriptor (independent read/write halves).
    pub fn try_clone(&self) -> std::io::Result<Sock> {
        Ok(match self {
            Sock::Unix(s) => Sock::Unix(s.try_clone()?),
            Sock::Tcp(s) => Sock::Tcp(s.try_clone()?),
        })
    }

    /// Bound blocking reads (`None` clears the bound). Only the
    /// handshake reads with a bound; once it is done both ends block
    /// until data, EOF or an error.
    pub fn set_read_timeout(&self, dur: Option<Duration>) -> std::io::Result<()> {
        match self {
            Sock::Unix(s) => s.set_read_timeout(dur),
            Sock::Tcp(s) => s.set_read_timeout(dur),
        }
    }

    /// Abruptly close both directions (best effort).
    pub fn shutdown_both(&self) {
        match self {
            Sock::Unix(s) => {
                let _ = s.shutdown(Shutdown::Both);
            }
            Sock::Tcp(s) => {
                let _ = s.shutdown(Shutdown::Both);
            }
        }
    }
}

impl Read for Sock {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Sock::Unix(s) => s.read(buf),
            Sock::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Sock {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Sock::Unix(s) => s.write(buf),
            Sock::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Sock::Unix(s) => s.flush(),
            Sock::Tcp(s) => s.flush(),
        }
    }
}

/// Whether an I/O error is the benign "read timed out" kind produced
/// by `set_read_timeout` (reported as `WouldBlock` on some platforms
/// and `TimedOut` on others).
pub fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
}
