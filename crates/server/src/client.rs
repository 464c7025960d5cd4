//! The blocking client for `cohana-serve`.
//!
//! [`Client::connect`] performs the HELLO handshake; [`Client::prepare`] /
//! [`Client::execute`] mirror the in-process `Session` / `Statement` split.
//! An execution is a [`RemoteStream`]: pull its [`WireBatch`]es — one
//! merged batch, sent once the server's scan completes, or several runs of
//! its cohorts past the frame limit — or [`RemoteStream::collect`] them
//! into a [`CohortReport`] that is bit-identical to what
//! `Statement::execute` produces in-process. A slow reader holds back only
//! the server's write of this connection's result, never the scan or other
//! clients.
//!
//! Dropping a [`RemoteStream`] before its terminating STATS frame leaves
//! server frames in flight, so the connection is desynchronized; further
//! calls on the client fail with [`ClientError::Desynced`]. Drop the client
//! (or call [`RemoteStream::cancel`] first) instead — closing the
//! connection is itself the cancellation signal the server acts on.

use crate::protocol::{self as proto, PreparedInfo};
use cohana_core::{CohortReport, ReportAssembler, WireBatch};
use std::fmt;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The connection failed or closed unexpectedly.
    Io(io::Error),
    /// The server sent something that does not decode as the protocol.
    Protocol(String),
    /// The server answered with an ERROR frame; `code` is one of the
    /// stable `ERR_*` codes in [`crate::protocol`].
    Remote {
        /// Stable numeric error code.
        code: u16,
        /// Human-readable message (do not match on it).
        message: String,
    },
    /// A previous [`RemoteStream`] was dropped mid-stream, leaving server
    /// frames in flight; this connection can no longer be used.
    Desynced,
}

impl ClientError {
    /// The remote error code, if this is a [`ClientError::Remote`].
    pub fn remote_code(&self) -> Option<u16> {
        match self {
            ClientError::Remote { code, .. } => Some(*code),
            _ => None,
        }
    }
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Remote { code, message } => {
                write!(f, "server error {code}: {message}")
            }
            ClientError::Desynced => {
                write!(f, "connection desynchronized by a dropped stream")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

fn bad_wire(e: impl fmt::Display) -> ClientError {
    ClientError::Protocol(e.to_string())
}

/// A statement prepared on the server, addressable by id on the connection
/// that prepared it.
#[derive(Debug, Clone)]
pub struct Prepared {
    info: PreparedInfo,
}

impl Prepared {
    /// The server-assigned statement id.
    pub fn stmt_id(&self) -> u64 {
        self.info.stmt_id
    }

    /// Header names of the cohort attributes.
    pub fn cohort_attrs(&self) -> &[String] {
        &self.info.cohort_attrs
    }

    /// Header names of the aggregates.
    pub fn agg_names(&self) -> &[String] {
        &self.info.agg_names
    }

    /// The server's EXPLAIN rendering of the plan.
    pub fn explain(&self) -> &str {
        &self.info.explain
    }
}

/// One connection to a `cohana-serve` server.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    banner: String,
    default_table: String,
    /// Set while a [`RemoteStream`] is live; only a clean stream end (STATS
    /// terminator, terminal ERROR, or a drained cancel) clears it.
    mid_stream: bool,
}

impl Client {
    /// Connect and shake hands, identifying as `tenant`.
    pub fn connect(addr: impl ToSocketAddrs, tenant: &str) -> Result<Client, ClientError> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        proto::write_frame(&mut stream, proto::FRAME_HELLO, &proto::encode_hello(tenant))?;
        match proto::read_frame(&mut stream, proto::MAX_FRAME)? {
            proto::ReadFrame::Frame(proto::FRAME_HELLO, payload) => {
                let (version, banner, default_table) =
                    proto::decode_hello_ok(&payload).map_err(bad_wire)?;
                if version != proto::PROTOCOL_VERSION {
                    return Err(ClientError::Protocol(format!(
                        "server speaks protocol {version}, client speaks {}",
                        proto::PROTOCOL_VERSION
                    )));
                }
                Ok(Client { stream, banner, default_table, mid_stream: false })
            }
            proto::ReadFrame::Frame(proto::FRAME_ERROR, payload) => {
                let (code, message) = proto::decode_error(&payload).map_err(bad_wire)?;
                Err(ClientError::Remote { code, message })
            }
            proto::ReadFrame::Frame(ty, _) => {
                Err(ClientError::Protocol(format!("unexpected frame {ty} in handshake")))
            }
            proto::ReadFrame::Eof => Err(io::Error::from(io::ErrorKind::UnexpectedEof).into()),
            proto::ReadFrame::TooLarge(n) => {
                Err(ClientError::Protocol(format!("oversized handshake frame ({n} bytes)")))
            }
        }
    }

    /// The server's banner string.
    pub fn banner(&self) -> &str {
        &self.banner
    }

    /// The server's default table name.
    pub fn default_table(&self) -> &str {
        &self.default_table
    }

    fn check_sync(&self) -> Result<(), ClientError> {
        if self.mid_stream {
            Err(ClientError::Desynced)
        } else {
            Ok(())
        }
    }

    /// Read one frame, mapping ERROR frames to [`ClientError::Remote`] and
    /// anything unexpected to [`ClientError::Protocol`].
    fn expect_frame(&mut self, want: u8) -> Result<Vec<u8>, ClientError> {
        match proto::read_frame(&mut self.stream, proto::MAX_FRAME)? {
            proto::ReadFrame::Frame(ty, payload) if ty == want => Ok(payload),
            proto::ReadFrame::Frame(proto::FRAME_ERROR, payload) => {
                let (code, message) = proto::decode_error(&payload).map_err(bad_wire)?;
                Err(ClientError::Remote { code, message })
            }
            proto::ReadFrame::Frame(ty, _) => {
                Err(ClientError::Protocol(format!("unexpected frame type {ty}")))
            }
            proto::ReadFrame::Eof => Err(io::Error::from(io::ErrorKind::UnexpectedEof).into()),
            proto::ReadFrame::TooLarge(n) => {
                Err(ClientError::Protocol(format!("oversized frame ({n} bytes)")))
            }
        }
    }

    /// Parse and plan `sql` on the server.
    pub fn prepare(&mut self, sql: &str) -> Result<Prepared, ClientError> {
        self.check_sync()?;
        proto::write_frame(&mut self.stream, proto::FRAME_PREPARE, &proto::encode_prepare(sql))?;
        let payload = self.expect_frame(proto::FRAME_PREPARE)?;
        let info = proto::decode_prepared(&payload).map_err(bad_wire)?;
        Ok(Prepared { info })
    }

    /// Start executing a prepared statement. Admission errors (queue full,
    /// shutting down) surface from the stream's first
    /// [`RemoteStream::next_batch`].
    pub fn execute<'c>(&'c mut self, prepared: &Prepared) -> Result<RemoteStream<'c>, ClientError> {
        self.check_sync()?;
        proto::write_frame(
            &mut self.stream,
            proto::FRAME_EXECUTE,
            &proto::encode_execute(prepared.info.stmt_id),
        )?;
        self.mid_stream = true;
        Ok(RemoteStream {
            cohort_attrs: prepared.info.cohort_attrs.clone(),
            agg_names: prepared.info.agg_names.clone(),
            client: self,
            finished: false,
            stats: None,
        })
    }

    /// Prepare, execute, and collect in one call.
    pub fn query(&mut self, sql: &str) -> Result<CohortReport, ClientError> {
        let prepared = self.prepare(sql)?;
        self.execute(&prepared)?.collect()
    }

    /// This tenant's cumulative stats plus the server's admission snapshot.
    pub fn server_stats(&mut self) -> Result<proto::ServerStats, ClientError> {
        self.check_sync()?;
        proto::write_frame(&mut self.stream, proto::FRAME_STATS, &[])?;
        let payload = self.expect_frame(proto::FRAME_STATS)?;
        proto::decode_server_stats(&payload).map_err(bad_wire)
    }
}

/// One in-flight execution: BATCH frames pulled on demand, ended by the
/// server's STATS terminator (or a terminal ERROR).
#[derive(Debug)]
pub struct RemoteStream<'c> {
    client: &'c mut Client,
    cohort_attrs: Vec<String>,
    agg_names: Vec<String>,
    finished: bool,
    stats: Option<proto::ExecStats>,
}

impl RemoteStream<'_> {
    /// Pull the next batch; `Ok(None)` after the terminating STATS frame.
    /// A terminal ERROR (engine failure, cancellation, admission refusal)
    /// surfaces as [`ClientError::Remote`] and ends the stream.
    pub fn next_batch(&mut self) -> Result<Option<WireBatch>, ClientError> {
        if self.finished {
            return Ok(None);
        }
        match proto::read_frame(&mut self.client.stream, proto::MAX_FRAME) {
            Ok(proto::ReadFrame::Frame(proto::FRAME_BATCH, payload)) => {
                Ok(Some(WireBatch::decode(&payload).map_err(bad_wire)?))
            }
            Ok(proto::ReadFrame::Frame(proto::FRAME_STATS, payload)) => {
                self.stats = Some(proto::decode_exec_stats(&payload).map_err(bad_wire)?);
                self.finished = true;
                self.client.mid_stream = false;
                Ok(None)
            }
            Ok(proto::ReadFrame::Frame(proto::FRAME_ERROR, payload)) => {
                let (code, message) = proto::decode_error(&payload).map_err(bad_wire)?;
                self.finished = true;
                self.client.mid_stream = false;
                Err(ClientError::Remote { code, message })
            }
            Ok(proto::ReadFrame::Frame(ty, _)) => {
                Err(ClientError::Protocol(format!("unexpected frame type {ty} in stream")))
            }
            Ok(proto::ReadFrame::Eof) => Err(io::Error::from(io::ErrorKind::UnexpectedEof).into()),
            Ok(proto::ReadFrame::TooLarge(n)) => {
                Err(ClientError::Protocol(format!("oversized frame ({n} bytes)")))
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Pull every batch and assemble the report — bit-identical to the
    /// server running `Statement::execute` locally. The report carries this
    /// execution's server-side [`QueryStats`](cohana_core::QueryStats).
    pub fn collect(mut self) -> Result<CohortReport, ClientError> {
        let mut asm = ReportAssembler::new(self.cohort_attrs.clone(), self.agg_names.clone());
        while let Some(batch) = self.next_batch()? {
            asm.push(&batch).map_err(bad_wire)?;
        }
        let mut report = asm.finish();
        report.stats = self.stats.map(|s| s.stats);
        Ok(report)
    }

    /// The execution's server-side stats; present once the stream ended
    /// with its STATS terminator.
    pub fn stats(&self) -> Option<proto::ExecStats> {
        self.stats
    }

    /// Ask the server to stop this query, then drain until its terminal
    /// frame. Returns `true` if the server confirmed the cancellation,
    /// `false` if the query had already completed (the race is benign).
    pub fn cancel(mut self) -> Result<bool, ClientError> {
        if self.finished {
            return Ok(false);
        }
        proto::write_frame(&mut self.client.stream, proto::FRAME_CANCEL, &[])?;
        loop {
            match self.next_batch() {
                Ok(Some(_)) => continue, // batches already in flight
                Ok(None) => return Ok(false),
                Err(ClientError::Remote { code, .. }) if code == proto::ERR_CANCELLED => {
                    return Ok(true);
                }
                Err(e) => return Err(e),
            }
        }
    }
}
