//! A blocking client for the serve protocol (`liar submit` and the
//! loopback bench are built on it).

use std::io::{self, BufReader, BufWriter};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::protocol::{
    read_frame, write_frame, FrameError, IntrospectResponse, MetricsResponse, OptimizeRequest,
    OptimizeResponse, Request, Response, StatsResponse,
};

/// Response-size cap on the client side. Responses echo the best
/// expression once per `(target, discount_scale)` pair, so they can be
/// several times larger than the request the server accepted — give them
/// generous headroom rather than mirroring the server's *request* limit.
const MAX_RESPONSE_FRAME: usize = 64 << 20;

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read, write, framing).
    Io(io::Error),
    /// No response arrived within the configured
    /// [`Client::set_timeout`]. The response may still be in flight, so
    /// the connection is **desynchronized**: further calls on this
    /// client fail with [`ClientError::Desynchronized`] — reconnect.
    Timeout,
    /// A previous timeout or transport failure left a response (possibly)
    /// pending on the wire; this connection can no longer pair requests
    /// with responses. Reconnect.
    Desynchronized,
    /// The server's response frame could not be decoded.
    BadResponse(String),
    /// The server answered with a structured error.
    Server {
        /// Machine-readable class name.
        code: String,
        /// Human-readable detail.
        message: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Timeout => write!(f, "timed out waiting for the response"),
            ClientError::Desynchronized => write!(
                f,
                "connection is desynchronized after an earlier timeout/failure; reconnect"
            ),
            ClientError::BadResponse(m) => write!(f, "bad response: {m}"),
            ClientError::Server { code, message } => write!(f, "server error [{code}]: {message}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(e) => ClientError::Io(e),
            FrameError::Idle => ClientError::Timeout,
            other => ClientError::BadResponse(other.to_string()),
        }
    }
}

/// A connected client. One request is in flight at a time (the protocol
/// is strictly request/response per connection). A timeout or transport
/// failure poisons the connection — the response it was waiting for may
/// still arrive later and would otherwise be paired with the *next*
/// request — so subsequent calls fail with
/// [`ClientError::Desynchronized`]; reconnect instead.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    poisoned: bool,
}

impl Client {
    /// Connect to a daemon.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
            poisoned: false,
        })
    }

    /// Bound how long a single response may take (None blocks forever).
    /// A request that hits this timeout fails with
    /// [`ClientError::Timeout`] and poisons the connection (see the type
    /// docs).
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// Send one request and read its response.
    pub fn request(&mut self, request: &Request) -> Result<Response, ClientError> {
        if self.poisoned {
            return Err(ClientError::Desynchronized);
        }
        match self.request_inner(request) {
            Ok(resp) => Ok(resp),
            Err(e) => {
                // Any transport-level failure (not a clean, well-framed
                // server error) may leave a response in flight.
                self.poisoned = true;
                Err(e)
            }
        }
    }

    fn request_inner(&mut self, request: &Request) -> Result<Response, ClientError> {
        write_frame(&mut self.writer, &request.to_payload())?;
        let payload = read_frame(&mut self.reader, MAX_RESPONSE_FRAME)?
            .ok_or_else(|| ClientError::BadResponse("connection closed".to_string()))?;
        Response::from_payload(&payload).map_err(ClientError::BadResponse)
    }

    /// Submit a program; structured server errors become
    /// [`ClientError::Server`].
    pub fn optimize(&mut self, req: OptimizeRequest) -> Result<OptimizeResponse, ClientError> {
        match self.request(&Request::Optimize(req))? {
            Response::Optimize(r) => Ok(r),
            Response::Error { code, message, .. } => Err(ClientError::Server {
                code: code.name().to_string(),
                message,
            }),
            other => Err(ClientError::BadResponse(format!(
                "expected an optimize response, got {other:?}"
            ))),
        }
    }

    /// Submit a program with proof production on (the `explain` op):
    /// every solution in the response carries a replayable
    /// [`crate::protocol::ProofMsg`] certificate. Equivalent to setting
    /// [`OptimizeRequest::explain`] and calling [`Client::optimize`].
    pub fn explain(&mut self, mut req: OptimizeRequest) -> Result<OptimizeResponse, ClientError> {
        req.explain = true;
        self.optimize(req)
    }

    /// Fetch the service + cache counters.
    pub fn stats(&mut self) -> Result<StatsResponse, ClientError> {
        match self.request(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            Response::Error { code, message, .. } => Err(ClientError::Server {
                code: code.name().to_string(),
                message,
            }),
            other => Err(ClientError::BadResponse(format!(
                "expected a stats response, got {other:?}"
            ))),
        }
    }

    /// Scrape the server's full metric set as Prometheus text exposition
    /// (`liar stats --prometheus` prints this verbatim).
    pub fn metrics(&mut self) -> Result<MetricsResponse, ClientError> {
        match self.request(&Request::Metrics)? {
            Response::Metrics(m) => Ok(m),
            Response::Error { code, message, .. } => Err(ClientError::Server {
                code: code.name().to_string(),
                message,
            }),
            other => Err(ClientError::BadResponse(format!(
                "expected a metrics response, got {other:?}"
            ))),
        }
    }

    /// Fetch live introspection: the latest cold saturation's growth
    /// tables plus the last `tail` flight-recorder events (`liar stats
    /// --inspect` prints this).
    pub fn introspect(&mut self, tail: usize) -> Result<IntrospectResponse, ClientError> {
        match self.request(&Request::Introspect { tail })? {
            Response::Introspect(r) => Ok(r),
            Response::Error { code, message, .. } => Err(ClientError::Server {
                code: code.name().to_string(),
                message,
            }),
            other => Err(ClientError::BadResponse(format!(
                "expected an introspect response, got {other:?}"
            ))),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.request(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(ClientError::BadResponse(format!(
                "expected pong, got {other:?}"
            ))),
        }
    }

    /// Ask the daemon to drain and exit.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.request(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(ClientError::BadResponse(format!(
                "expected a shutdown acknowledgement, got {other:?}"
            ))),
        }
    }
}
