//! `cohana-server`: a concurrent network serving layer for the COHANA
//! cohort engine.
//!
//! One [`Server`] wraps one shared [`Cohana`](cohana_core::Cohana) catalog
//! and serves it over a length-prefixed binary protocol
//! ([`protocol`], documented in `docs/PROTOCOL.md`) to any number of
//! concurrent connections, thread-per-connection:
//!
//! - **Admission control** ([`admission`]): at most `cap` queries decode at
//!   once; up to `queue_bound` more wait in FIFO order; the rest are
//!   refused fast. Queue time is reported separately from engine time.
//! - **One merged result per query**: the server folds each chunk's batch
//!   into the statement's merger as the scan yields it and sends the result
//!   as one [`WireBatch`](cohana_core::WireBatch) BATCH frame (split into
//!   runs of cohorts only past the frame limit); a slow client blocks only
//!   its own connection's final write, never another tenant's query.
//! - **Cancellation**: a CANCEL frame — or simply disconnecting — stops the
//!   query's chunk decode at the next chunk boundary.
//! - **Per-tenant accounting** ([`registry`]): every execution's exact
//!   [`QueryStats`](cohana_core::QueryStats) (recorder-attributed I/O, no
//!   double counting across concurrent sessions) folds into the tenant
//!   named at HELLO time.
//! - **Graceful shutdown**: draining in-flight streams, refusing new work,
//!   force-closing stragglers at a deadline.
//!
//! The matching blocking client lives in [`client`]; the `cohana-serve`
//! binary wraps [`Server`] around a file-backed or generated table.
//!
//! ```no_run
//! use cohana_server::{Client, Server, ServerConfig};
//! use std::sync::Arc;
//!
//! let engine = cohana_core::Cohana::new(Default::default());
//! // ... engine.open("game.cohana").open()? ...
//! let mut server = Server::start(Arc::new(engine), ServerConfig::default())?;
//! let mut client = Client::connect(server.local_addr(), "analytics")?;
//! let report = client.query(
//!     "SELECT country, COHORTSIZE, AGE, SUM(gold) FROM GameActions \
//!      BIRTH ON action = 'launch' GROUP BY COHORT country, AGE",
//! )?;
//! server.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod admission;
pub mod client;
pub mod protocol;
pub mod registry;
pub mod server;

pub use admission::{Admission, AdmissionStats, AdmitError, Permit};
pub use client::{Client, ClientError, Prepared, RemoteStream};
pub use registry::{TenantRegistry, TenantStats};
pub use server::{Server, ServerConfig};
