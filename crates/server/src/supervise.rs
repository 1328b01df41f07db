//! Typed session failures for the analysis service.
//!
//! The offload runtime is fault-tolerant; this module does the same for
//! the *service*: it defines the typed reasons a server may terminate a
//! session ([`SessionFailure`] — carried on the wire by
//! `Frame::SessionFailed`). The panic guard (quarantine) and the
//! per-session resource governor (evict-to-May degradation, budget
//! termination) that raise them live in the session, and count into the
//! server's metrics pack (`ServerMetrics`).
//!
//! The session lifecycle under supervision:
//!
//! ```text
//!            events                   budget breach          2nd breach /
//!   Live ────────────▶ Live ────────────────────────▶ Degraded ─────────▶ Quarantined
//!    │                                (evict-to-May)      │    panic          │
//!    │ panic anywhere in the session's analysis           │ Finish            │ Finish/Events
//!    ▼                                                    ▼                   ▼
//!   Quarantined(ShardPanic)                 SessionFailed(BudgetExceeded)  SessionFailed(..)
//! ```
//!
//! A quarantined session's later batches are refused and dropped
//! (counted, never analysed); every reply it would have received becomes
//! the typed failure. Other sessions are analysed on their own
//! connections' threads and are untouched.

use arbalest_offload::wire::{self, Cursor, WireError};

/// Why the server terminated a session (or connection) on its own
/// authority. Carried verbatim on the wire so clients see a *typed*
/// reason, not a free-form error string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionFailure {
    /// The server panicked while analysing this session's events. The
    /// session was quarantined; all other sessions are unaffected.
    ShardPanic {
        /// Panic payload, best effort (`Any` payloads render as a stub).
        message: String,
    },
    /// The session's side-table footprint exceeded its byte budget even
    /// after evict-to-May degradation, or finished while degraded (a
    /// degraded session's findings are incomplete by construction, so the
    /// server refuses to pass them off as sound).
    BudgetExceeded {
        /// Bytes attributed to the session when the budget fired.
        used_bytes: u64,
        /// The configured `--max-session-bytes` budget.
        budget_bytes: u64,
    },
    /// The connection sent no frame for longer than the idle limit and
    /// was reaped.
    IdleTimeout {
        /// Configured idle limit in milliseconds.
        limit_ms: u64,
    },
    /// A frame started arriving but did not complete within the
    /// per-request deadline (stalled reader / slowloris defence).
    DeadlineExceeded {
        /// Configured request deadline in milliseconds.
        limit_ms: u64,
    },
}

impl SessionFailure {
    /// Stable metric label for this failure kind.
    pub fn label(&self) -> &'static str {
        match self {
            SessionFailure::ShardPanic { .. } => "shard_panic",
            SessionFailure::BudgetExceeded { .. } => "budget_exceeded",
            SessionFailure::IdleTimeout { .. } => "idle_timeout",
            SessionFailure::DeadlineExceeded { .. } => "deadline_exceeded",
        }
    }

    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        match self {
            SessionFailure::ShardPanic { message } => {
                out.push(0);
                wire::put_str(out, message);
            }
            SessionFailure::BudgetExceeded { used_bytes, budget_bytes } => {
                out.push(1);
                out.extend_from_slice(&used_bytes.to_le_bytes());
                out.extend_from_slice(&budget_bytes.to_le_bytes());
            }
            SessionFailure::IdleTimeout { limit_ms } => {
                out.push(2);
                out.extend_from_slice(&limit_ms.to_le_bytes());
            }
            SessionFailure::DeadlineExceeded { limit_ms } => {
                out.push(3);
                out.extend_from_slice(&limit_ms.to_le_bytes());
            }
        }
    }

    pub(crate) fn decode(cur: &mut Cursor<'_>) -> Result<SessionFailure, WireError> {
        Ok(match cur.u8()? {
            0 => SessionFailure::ShardPanic { message: cur.string()? },
            1 => SessionFailure::BudgetExceeded { used_bytes: cur.u64()?, budget_bytes: cur.u64()? },
            2 => SessionFailure::IdleTimeout { limit_ms: cur.u64()? },
            3 => SessionFailure::DeadlineExceeded { limit_ms: cur.u64()? },
            tag => return Err(WireError::BadTag { what: "SessionFailure", tag }),
        })
    }
}

impl std::fmt::Display for SessionFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionFailure::ShardPanic { message } => {
                write!(f, "session analysis panicked ({message}); session quarantined")
            }
            SessionFailure::BudgetExceeded { used_bytes, budget_bytes } => write!(
                f,
                "session exceeded its memory budget ({used_bytes} of {budget_bytes} bytes)"
            ),
            SessionFailure::IdleTimeout { limit_ms } => {
                write!(f, "connection idle past the {limit_ms} ms limit")
            }
            SessionFailure::DeadlineExceeded { limit_ms } => {
                write!(f, "request exceeded the {limit_ms} ms deadline")
            }
        }
    }
}

/// Render a `catch_unwind` payload for the typed reply.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failures_round_trip_through_the_wire_encoding() {
        for failure in [
            SessionFailure::ShardPanic { message: "index out of bounds".into() },
            SessionFailure::BudgetExceeded { used_bytes: 1 << 30, budget_bytes: 1 << 20 },
            SessionFailure::IdleTimeout { limit_ms: 120_000 },
            SessionFailure::DeadlineExceeded { limit_ms: 30_000 },
        ] {
            let mut bytes = Vec::new();
            failure.encode(&mut bytes);
            let mut cur = Cursor::new(&bytes);
            assert_eq!(SessionFailure::decode(&mut cur).unwrap(), failure);
            assert!(cur.is_empty());
        }
    }

    #[test]
    fn bad_failure_tag_is_typed() {
        let mut cur = Cursor::new(&[9u8]);
        assert!(matches!(
            SessionFailure::decode(&mut cur),
            Err(WireError::BadTag { what: "SessionFailure", tag: 9 })
        ));
    }
}
