//! `arbalest-server` — a long-lived analysis service for ARBALEST traces.
//!
//! The instrumentation tier ([`arbalest_offload::trace`]) records what a
//! program *did*; this crate moves the expensive half — VSM state
//! tracking and race detection — out of the monitored process entirely.
//! Clients stream serialized [`TraceEvent`](arbalest_offload::trace::TraceEvent)
//! batches over TCP or a Unix-domain socket; each connection's thread
//! analyses its own session and streams back the same
//! [`Report`](arbalest_offload::report::Report)s an in-process
//! [`arbalest_core::replay`] would produce — byte-identical, because both
//! paths drive the same detector over the same event values.
//!
//! Layering:
//!
//! * [`proto`] — framed wire protocol (length-prefixed, versioned,
//!   std-only) shared by client and server.
//! * `session` — a connection's session: WAL append, analysis under a
//!   panic guard and a per-session budget, snapshots, resume from disk,
//!   and the gate that bounds how many sessions are analysed at once.
//! * [`supervise`] — typed session-failure reasons and the panic-guard /
//!   resource-governor metrics.
//! * [`stats`] — global counters behind the `Stats` frame.
//! * [`server`] — listeners, connection hardening (idle reaper, request
//!   deadlines, frame limit), graceful drain.
//! * [`tracesink`] — per-session causal-span collection behind
//!   `--trace-dir` and the `TraceSnapshot` admin frame.
//! * [`client`] — the client library used by `arbalest submit` and tests.

#![warn(missing_docs)]

pub mod client;
pub mod proto;
pub mod server;
mod session;
pub mod stats;
pub mod supervise;
pub mod tracesink;

pub use client::Client;
pub use proto::{Frame, ProtoError, StatsSnapshot, MAX_FRAME, WIRE_VERSION};
pub use server::{ListenAddr, Server, ServerConfig};
pub use supervise::{SessionFailure, SuperviseMetrics};
