//! A small synchronous client for the gridd protocol.
//!
//! [`GridClient`] dials one TCP connection per operation. The daemon's
//! fault plan can reset connections at will (`msg-loss`), so a fresh
//! connect per verb keeps every operation independently retryable —
//! exactly what an ftsh `try` block wants to wrap. (Populations that
//! pipeline many verbs over one persistent connection speak
//! [`crate::proto`] directly from their own reactor, as the bench
//! crate's client swarm does.)

use crate::proto::{read_frame, write_frame, ErrCode, ProtoError, Request, Response};
use std::io::{self};
use std::net::TcpStream;
use std::time::Duration;

/// How a grid operation can fail.
#[derive(Debug)]
pub enum GridError {
    /// Transport-level failure (refused, reset, deadline).
    Io(io::Error),
    /// The daemon answered with an error response.
    Server(ErrCode, String),
    /// The daemon answered gibberish.
    Proto(ProtoError),
    /// The daemon answered with the wrong response kind.
    Unexpected(&'static str),
}

impl std::fmt::Display for GridError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GridError::Io(e) => write!(f, "transport: {e}"),
            GridError::Server(code, msg) => write!(f, "{code}: {msg}"),
            GridError::Proto(e) => write!(f, "protocol: {e}"),
            GridError::Unexpected(what) => write!(f, "unexpected response: {what}"),
        }
    }
}

impl std::error::Error for GridError {}

impl From<io::Error> for GridError {
    fn from(e: io::Error) -> GridError {
        GridError::Io(e)
    }
}

/// A handle on one gridd endpoint for one client identity.
pub struct GridClient {
    addr: String,
    client: u32,
    timeout: Duration,
}

impl GridClient {
    /// A client labelled `client` talking to `addr` (`host:port`).
    pub fn new(addr: impl Into<String>, client: u32) -> GridClient {
        GridClient {
            addr: addr.into(),
            client,
            timeout: Duration::from_secs(10),
        }
    }

    /// Override the per-operation deadline (default 10 s).
    pub fn with_timeout(mut self, timeout: Duration) -> GridClient {
        self.timeout = timeout;
        self
    }

    fn call(&self, req: &Request) -> Result<Response, GridError> {
        let mut stream = TcpStream::connect(&self.addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(self.timeout))?;
        stream.set_write_timeout(Some(self.timeout))?;
        write_frame(&mut stream, &req.encode())?;
        let payload = read_frame(&mut stream)?;
        let resp = Response::decode(&payload).map_err(GridError::Proto)?;
        if let Response::Err { code, msg } = resp {
            return Err(GridError::Server(code, msg));
        }
        Ok(resp)
    }

    /// Submit a job; returns the job id the schedd assigned.
    pub fn submit(&self, job: &str) -> Result<String, GridError> {
        match self.call(&Request::Submit {
            client: self.client,
            job: job.into(),
        })? {
            Response::Ok { info } => Ok(info),
            _ => Err(GridError::Unexpected("submit wants ok")),
        }
    }

    /// Store `data` under `name` on the file server.
    pub fn put(&self, name: &str, data: &[u8]) -> Result<(), GridError> {
        match self.call(&Request::Put {
            client: self.client,
            name: name.into(),
            data: data.to_vec(),
        })? {
            Response::Ok { .. } => Ok(()),
            _ => Err(GridError::Unexpected("put wants ok")),
        }
    }

    /// Fetch the file stored under `name`.
    pub fn get(&self, name: &str) -> Result<Vec<u8>, GridError> {
        match self.call(&Request::Get {
            client: self.client,
            name: name.into(),
        })? {
            Response::Data { data } => Ok(data),
            _ => Err(GridError::Unexpected("get wants data")),
        }
    }

    /// Free schedd capacity right now (the carrier-sense read).
    pub fn df(&self) -> Result<u64, GridError> {
        match self.call(&Request::Df {
            client: self.client,
        })? {
            Response::Free { slots } => Ok(slots),
            _ => Err(GridError::Unexpected("df wants free")),
        }
    }

    /// Does `name` exist on the file server right now? The file
    /// server's carrier-sense read: free, never queued behind file
    /// service.
    pub fn stat(&self, name: &str) -> Result<bool, GridError> {
        match self.call(&Request::Stat {
            client: self.client,
            name: name.into(),
        })? {
            Response::Free { slots } => Ok(slots > 0),
            _ => Err(GridError::Unexpected("stat wants free")),
        }
    }

    /// The daemon's per-client counters as metrics JSON.
    pub fn stats(&self) -> Result<String, GridError> {
        match self.call(&Request::Stats)? {
            Response::Stats { json } => Ok(json),
            _ => Err(GridError::Unexpected("stats wants stats")),
        }
    }
}
