//! Client for the server's admin telemetry endpoint.
//!
//! [`AdminClient`] speaks the same frame codec as the attestation
//! socket but only the two admin frame types: `STATS` (a point-in-time
//! metrics snapshot, Prometheus text or telemetry JSON) and
//! `EXEMPLARS` (the slow-round exemplar ring as JSON). `rap top` and
//! `rap stats --watch` are built on it; the connection is
//! request/response, one frame each way per call.

use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::client::{ClientError, RECV_CHUNK};
use crate::frame::{
    decode_error, encode_stats_request, write_frame, FrameBuf, FrameType, StatsFormat,
    DEFAULT_MAX_FRAME_LEN,
};

/// Connection settings for the admin telemetry endpoint.
#[derive(Debug, Clone)]
pub struct AdminClient {
    addr: String,
    connect_timeout: Duration,
    io_timeout: Duration,
    max_frame_len: u32,
}

impl AdminClient {
    /// Points at a server's admin address (the `admin on ADDR` line
    /// `rap serve --admin` prints, or [`Server::admin_addr`]).
    ///
    /// [`Server::admin_addr`]: crate::Server::admin_addr
    pub fn new(addr: impl Into<String>) -> AdminClient {
        AdminClient {
            addr: addr.into(),
            connect_timeout: Duration::from_secs(2),
            io_timeout: Duration::from_secs(5),
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
        }
    }

    /// Opens one admin connection. The server serves scrapers
    /// sequentially and drops idle ones after a second, so hold the
    /// connection only while actively scraping.
    ///
    /// # Errors
    ///
    /// [`ClientError::Protocol`] when the address does not parse;
    /// [`ClientError::Io`] on connect/configure failures.
    pub fn connect(&self) -> Result<AdminConn, ClientError> {
        let addr: SocketAddr = self
            .addr
            .parse()
            .map_err(|_| ClientError::Protocol("unparseable admin address"))?;
        let stream = TcpStream::connect_timeout(&addr, self.connect_timeout)?;
        stream.set_read_timeout(Some(self.io_timeout))?;
        stream.set_write_timeout(Some(self.io_timeout))?;
        let _ = stream.set_nodelay(true);
        Ok(AdminConn {
            stream,
            max_frame_len: self.max_frame_len,
            inbuf: FrameBuf::new(RECV_CHUNK),
        })
    }
}

/// One open admin connection; each method is one request/response
/// round-trip.
#[derive(Debug)]
pub struct AdminConn {
    stream: TcpStream,
    max_frame_len: u32,
    inbuf: FrameBuf,
}

impl AdminConn {
    /// Fetches a point-in-time snapshot in the given format:
    /// Prometheus text exposition, or the telemetry JSON document
    /// (uptime, server counters, metrics, per-device table).
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] when the server answers with an `ERROR`
    /// frame; [`ClientError::Protocol`] on an unexpected frame type or
    /// a non-UTF-8 payload; transport failures as [`ClientError::Io`].
    pub fn stats(&mut self, format: StatsFormat) -> Result<String, ClientError> {
        self.request(FrameType::Stats, &encode_stats_request(format))
    }

    /// Fetches the slow-round exemplar ring as JSON.
    ///
    /// # Errors
    ///
    /// As for [`AdminConn::stats`].
    pub fn exemplars(&mut self) -> Result<String, ClientError> {
        self.request(FrameType::Exemplars, &[])
    }

    fn request(&mut self, frame_type: FrameType, payload: &[u8]) -> Result<String, ClientError> {
        write_frame(&mut self.stream, frame_type, payload)?;
        let (reply_type, reply) = self
            .inbuf
            .read_frame(&mut self.stream, self.max_frame_len)?
            .ok_or(ClientError::Protocol("server closed the admin connection"))?;
        match reply_type {
            ft if ft == frame_type => std::str::from_utf8(reply)
                .map(str::to_owned)
                .map_err(|_| ClientError::Protocol("admin reply not UTF-8")),
            FrameType::Error => {
                let (code, msg) = decode_error(reply)?;
                Err(ClientError::Server { code, msg })
            }
            _ => Err(ClientError::Protocol("unexpected admin reply type")),
        }
    }
}
