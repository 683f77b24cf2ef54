//! Blocking TCP client for the `tcca_serve` protocol (v1–v5).
//!
//! The one-call-at-a-time methods ([`Client::transform`], [`Client::ping`], …)
//! speak plain v1 frames. The v2 surface is [`Client::send`] / [`Client::recv`]:
//! `send` fires a [`Request`] wrapped in a tagged envelope *without waiting*, and
//! `recv` returns the next `(id, response)` pair the server produced — possibly out
//! of request order. Pipelining many tagged requests over one connection keeps the
//! socket full instead of paying a round trip per request. The `*_deadline`
//! variants speak the v4 envelope: the remaining time budget rides the wire, so
//! the server sheds work it cannot finish in time with an in-band verdict.
//!
//! ## Timeouts
//!
//! [`Client::connect_timeout`] used to arm one socket timeout for the life of
//! the connection, which let a long-lived connection accumulate slack: a write
//! that burned most of the budget left the read with a full, fresh timeout.
//! The client now carries a per-**operation** budget ([`Client::set_op_timeout`]):
//! each call re-arms the socket with the time *remaining* in that operation's
//! budget before every write and read, so one call can never take more than its
//! budget end to end.
//!
//! ## Fault injection
//!
//! When a [`crate::FaultPlan`] targeting this connection's port is installed,
//! each connect/read/write consults the deterministic fault layer
//! ([`crate::faults`]) — injected refusals, stalls and truncated frames exercise
//! exactly the failure paths the router's retry discipline must survive. With no
//! plan installed the entire cost is one relaxed atomic load per connection.

use crate::faults::{self, Site};
use crate::wire::{
    read_frame, write_frame, ModelInfo, NamedOutput, Request, RescanReport, Response, ShardInfo,
};
use crate::{Result, ServeError};
use linalg::Matrix;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// One connection to a serving endpoint.
pub struct Client {
    reader: std::io::BufReader<TcpStream>,
    writer: std::io::BufWriter<TcpStream>,
    next_id: u64,
    /// Per-operation time budget; `None` waits indefinitely.
    op_timeout: Option<Duration>,
    /// Whether this connection's peer port was in the installed fault plan's
    /// blast radius at connect time (re-checked against the layer's activity
    /// flag on every use, so clearing the plan instantly restores clean I/O).
    faulty: bool,
}

impl Client {
    /// Connect to a serving endpoint.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self> {
        let resolved = resolve(addr)?;
        let faulty = check_connect_fault(resolved.port())?;
        let stream = TcpStream::connect(resolved)?;
        Self::from_stream(stream, None, faulty)
    }

    /// Connect with a deadline on the connect and a per-operation budget on
    /// every subsequent call. The router uses this for its shard links: a hung
    /// shard then surfaces as an I/O error (and fails over) instead of wedging
    /// a worker forever.
    pub fn connect_timeout(addr: impl ToSocketAddrs, timeout: Duration) -> Result<Self> {
        let resolved = resolve(addr)?;
        let faulty = check_connect_fault(resolved.port())?;
        let stream = TcpStream::connect_timeout(&resolved, timeout)?;
        Self::from_stream(stream, Some(timeout), faulty)
    }

    fn from_stream(stream: TcpStream, op_timeout: Option<Duration>, faulty: bool) -> Result<Self> {
        stream.set_nodelay(true)?;
        Ok(Self {
            reader: std::io::BufReader::new(stream.try_clone()?),
            writer: std::io::BufWriter::new(stream),
            next_id: 1,
            op_timeout,
            faulty,
        })
    }

    /// Set the per-operation time budget (`None` waits indefinitely). Each
    /// subsequent call gets a fresh budget; the socket is re-armed with the
    /// remaining slice before every write and read inside the call.
    pub fn set_op_timeout(&mut self, timeout: Option<Duration>) {
        self.op_timeout = timeout;
    }

    /// This operation's absolute deadline under the current budget.
    fn op_deadline(&self) -> Option<Instant> {
        self.op_timeout.map(|t| Instant::now() + t)
    }

    fn faults_armed(&self) -> bool {
        self.faulty && faults::active()
    }

    /// Time left before `deadline`, or the in-band timeout error.
    fn remaining(deadline: Instant) -> Result<Duration> {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(ServeError::Io(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "operation deadline elapsed",
            )));
        }
        Ok(left)
    }

    /// Write one request frame, re-arming the write timeout with the remaining
    /// budget (and consulting the fault layer when this connection is in a
    /// plan's blast radius).
    fn write_request(&mut self, payload: &[u8], deadline: Option<Instant>) -> Result<()> {
        if self.faults_armed() {
            if let Some(delay) = faults::fires(Site::WriteDelay) {
                if !delay.is_zero() {
                    std::thread::sleep(delay);
                }
            }
            if faults::fires(Site::WriteTrunc).is_some() {
                // Emit half a length prefix, then fail: the peer is left
                // holding an unfinishable frame, exactly like a sender dying
                // mid-write.
                use std::io::Write;
                let len = (payload.len() as u32).to_le_bytes();
                let _ = self.writer.write_all(&len[..2]);
                let _ = self.writer.flush();
                return Err(ServeError::Io(std::io::Error::new(
                    std::io::ErrorKind::BrokenPipe,
                    "injected truncated frame (fault layer)",
                )));
            }
        }
        if let Some(d) = deadline {
            self.writer
                .get_ref()
                .set_write_timeout(Some(Self::remaining(d)?))?;
        }
        write_frame(&mut self.writer, payload)?;
        Ok(())
    }

    /// Read one reply frame, re-arming the read timeout with the remaining
    /// budget.
    fn read_reply(&mut self, deadline: Option<Instant>) -> Result<Vec<u8>> {
        if self.faults_armed() {
            if let Some(delay) = faults::fires(Site::ReadDelay) {
                if !delay.is_zero() {
                    std::thread::sleep(delay);
                }
            }
        }
        if let Some(d) = deadline {
            self.reader
                .get_ref()
                .set_read_timeout(Some(Self::remaining(d)?))?;
        }
        read_frame(&mut self.reader)?.ok_or_else(|| {
            ServeError::Protocol("server closed the connection before replying".into())
        })
    }

    fn call(&mut self, request: &Request) -> Result<Response> {
        let deadline = self.op_deadline();
        self.write_request(&request.encode(), deadline)?;
        let payload = self.read_reply(deadline)?;
        Response::decode(&payload)
    }

    /// One blocking call under the v4 deadline envelope: the remaining budget
    /// (`budget_ms`, relative to the server's receipt) rides the wire, so the
    /// server itself drops the work in-band if it cannot finish in time.
    fn call_deadline(&mut self, request: Request, budget_ms: u32) -> Result<Response> {
        let deadline = self.op_deadline();
        let id = self.next_id;
        self.next_id += 1;
        let tagged = request.tagged_deadline(id, budget_ms);
        self.write_request(&tagged.encode(), deadline)?;
        let payload = self.read_reply(deadline)?;
        match Response::decode(&payload)? {
            Response::Tagged { id: rid, inner } if rid == id => Ok(*inner),
            other => Err(ServeError::Protocol(format!(
                "expected the reply tagged {id}, got {other:?}"
            ))),
        }
    }

    /// Pipelined send (protocol v2): wrap `request` in a tagged envelope with a
    /// fresh id, write it, and return the id without waiting for the reply.
    pub fn send(&mut self, request: &Request) -> Result<u64> {
        let deadline = self.op_deadline();
        let id = self.next_id;
        self.next_id += 1;
        let tagged = request.clone().tagged(id);
        self.write_request(&tagged.encode(), deadline)?;
        Ok(id)
    }

    /// Pipelined send carrying a deadline (protocol v4): like [`Client::send`]
    /// but the server is told it has `budget_ms` from receipt to answer.
    pub fn send_deadline(&mut self, request: &Request, budget_ms: u32) -> Result<u64> {
        let deadline = self.op_deadline();
        let id = self.next_id;
        self.next_id += 1;
        let tagged = request.clone().tagged_deadline(id, budget_ms);
        self.write_request(&tagged.encode(), deadline)?;
        Ok(id)
    }

    /// Pipelined receive (protocol v2): the next tagged reply as `(id, response)`.
    /// Replies may arrive out of request order; match them by id.
    pub fn recv(&mut self) -> Result<(u64, Response)> {
        let deadline = self.op_deadline();
        let payload = self.read_reply(deadline)?;
        match Response::decode(&payload)? {
            Response::Tagged { id, inner } => Ok((id, *inner)),
            other => Err(ServeError::Protocol(format!(
                "expected a tagged reply, got {other:?}"
            ))),
        }
    }

    /// Map a non-success reply onto the error taxonomy: overload and deadline
    /// verdicts keep their own variants (so retry policy never string-matches),
    /// plain errors become [`ServeError::Remote`].
    fn error_from(resp: Response, op: &str) -> ServeError {
        match resp {
            Response::Error(msg) => ServeError::Remote(msg),
            Response::Overloaded(msg) => ServeError::Overloaded(msg),
            Response::DeadlineExceeded(msg) => ServeError::DeadlineExceeded(msg),
            other => ServeError::Protocol(format!("unexpected reply to {op}: {other:?}")),
        }
    }

    /// Project instances through a stored model; the reply is bit-exact against the
    /// in-process `transform` of the same model.
    pub fn transform(&mut self, model: &str, inputs: &[Matrix]) -> Result<Matrix> {
        match self.call(&Request::Transform {
            model: model.to_string(),
            inputs: inputs.to_vec(),
        })? {
            Response::Embedding(z) => Ok(z),
            other => Err(Self::error_from(other, "Transform")),
        }
    }

    /// [`Client::transform`] with `budget_ms` of deadline on the wire (v4).
    pub fn transform_deadline(
        &mut self,
        model: &str,
        inputs: &[Matrix],
        budget_ms: u32,
    ) -> Result<Matrix> {
        match self.call_deadline(
            Request::Transform {
                model: model.to_string(),
                inputs: inputs.to_vec(),
            },
            budget_ms,
        )? {
            Response::Embedding(z) => Ok(z),
            other => Err(Self::error_from(other, "Transform")),
        }
    }

    /// Project a single view through the model's per-view projection (v2).
    pub fn transform_view(&mut self, model: &str, view: usize, input: &Matrix) -> Result<Matrix> {
        match self.call(&Request::TransformView {
            model: model.to_string(),
            view: view as u32,
            input: input.clone(),
        })? {
            Response::Embedding(z) => Ok(z),
            other => Err(Self::error_from(other, "TransformView")),
        }
    }

    /// [`Client::transform_view`] with `budget_ms` of deadline on the wire (v4).
    pub fn transform_view_deadline(
        &mut self,
        model: &str,
        view: usize,
        input: &Matrix,
        budget_ms: u32,
    ) -> Result<Matrix> {
        match self.call_deadline(
            Request::TransformView {
                model: model.to_string(),
                view: view as u32,
                input: input.clone(),
            },
            budget_ms,
        )? {
            Response::Embedding(z) => Ok(z),
            other => Err(Self::error_from(other, "TransformView")),
        }
    }

    /// All named candidate outputs of a stored model (v2) — the serving path for
    /// the multi-candidate baselines whose `transform` rejects by design.
    pub fn outputs(&mut self, model: &str, inputs: &[Matrix]) -> Result<Vec<NamedOutput>> {
        match self.call(&Request::Outputs {
            model: model.to_string(),
            inputs: inputs.to_vec(),
        })? {
            Response::Outputs(candidates) => Ok(candidates),
            other => Err(Self::error_from(other, "Outputs")),
        }
    }

    /// [`Client::outputs`] with `budget_ms` of deadline on the wire (v4).
    pub fn outputs_deadline(
        &mut self,
        model: &str,
        inputs: &[Matrix],
        budget_ms: u32,
    ) -> Result<Vec<NamedOutput>> {
        match self.call_deadline(
            Request::Outputs {
                model: model.to_string(),
                inputs: inputs.to_vec(),
            },
            budget_ms,
        )? {
            Response::Outputs(candidates) => Ok(candidates),
            other => Err(Self::error_from(other, "Outputs")),
        }
    }

    /// Ask the server to re-scan its model directory (v2). Returns what changed.
    pub fn rescan(&mut self) -> Result<RescanReport> {
        match self.call(&Request::Rescan)? {
            Response::Rescanned(report) => Ok(report),
            other => Err(Self::error_from(other, "Rescan")),
        }
    }

    /// The server's observability counters (v3): engine statistics plus trainer
    /// counters when a live-refresh trainer is attached.
    pub fn stats(&mut self) -> Result<Vec<(String, u64)>> {
        match self.call(&Request::Stats)? {
            Response::Stats(counters) => Ok(counters),
            other => Err(Self::error_from(other, "Stats")),
        }
    }

    /// Trigger an asynchronous model refresh from live-traffic statistics (v3).
    /// Returns the counter snapshot at trigger time; poll [`Client::stats`] for
    /// `trainer/refits` to watch the refresh land.
    pub fn refit(&mut self) -> Result<Vec<(String, u64)>> {
        match self.call(&Request::Refit)? {
            Response::Stats(counters) => Ok(counters),
            other => Err(Self::error_from(other, "Refit")),
        }
    }

    /// The server's model catalog.
    pub fn list_models(&mut self) -> Result<Vec<ModelInfo>> {
        match self.call(&Request::ListModels)? {
            Response::Models(models) => Ok(models),
            other => Err(Self::error_from(other, "ListModels")),
        }
    }

    /// The cluster membership table of a router-backed server (v5).
    pub fn cluster_info(&mut self) -> Result<Vec<ShardInfo>> {
        match self.call(&Request::ClusterInfo)? {
            Response::Cluster(shards) => Ok(shards),
            other => Err(Self::error_from(other, "ClusterInfo")),
        }
    }

    /// Admit a new remote shard at `addr` into a router-backed server (v5).
    /// The server validates the shard (connect + ping) before admitting it;
    /// returns the updated cluster snapshot.
    pub fn add_shard(&mut self, addr: &str) -> Result<Vec<ShardInfo>> {
        match self.call(&Request::AddShard {
            addr: addr.to_string(),
        })? {
            Response::Cluster(shards) => Ok(shards),
            other => Err(Self::error_from(other, "AddShard")),
        }
    }

    /// Drain and remove the shard with the given stable id (v5). Blocks until
    /// in-flight work on the shard completed (or the server's drain timeout
    /// expired); returns the updated cluster snapshot.
    pub fn remove_shard(&mut self, shard: u64) -> Result<Vec<ShardInfo>> {
        match self.call(&Request::RemoveShard { shard })? {
            Response::Cluster(shards) => Ok(shards),
            other => Err(Self::error_from(other, "RemoveShard")),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<()> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(Self::error_from(other, "Ping")),
        }
    }
}

fn resolve(addr: impl ToSocketAddrs) -> Result<SocketAddr> {
    addr.to_socket_addrs()?.next().ok_or_else(|| {
        ServeError::Io(std::io::Error::new(
            std::io::ErrorKind::AddrNotAvailable,
            "address resolved to nothing",
        ))
    })
}

/// Fault hook at connect time: decide whether this connection is in the
/// installed plan's blast radius, and if so whether this particular connect is
/// refused outright.
fn check_connect_fault(port: u16) -> Result<bool> {
    let faulty = faults::targets_port(port);
    if faulty && faults::fires(Site::ConnectRefuse).is_some() {
        return Err(ServeError::Io(faults::refusal()));
    }
    Ok(faulty)
}
