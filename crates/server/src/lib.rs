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
//!   the span buffer behind `--trace-dir`, and the gate that bounds how
//!   many sessions are analysed at once.
//! * [`supervise`] — typed session-failure reasons.
//! * [`server`] — listeners, connection hardening (idle reaper, request
//!   deadlines, frame limit), graceful drain, and the `ServerMetrics`
//!   pack behind the `Stats` and `Metrics` frames.
//! * [`client`] — the client library used by `arbalest submit` and tests.

#![warn(missing_docs)]

pub mod client;
pub mod proto;
pub mod server;
mod session;
pub mod supervise;

pub use client::Client;
pub use proto::{Frame, ProtoError, StatsSnapshot, MAX_FRAME, WIRE_VERSION};
pub use server::{ListenAddr, Server, ServerConfig};
pub use supervise::SessionFailure;
