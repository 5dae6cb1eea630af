//! Typed events attached to the active span.

use std::fmt;
use std::sync::Arc;

use crate::export::esc;

/// The value of an op attribute ([`TraceEvent::OpAttr`]), kept typed:
/// a key version stays a `u64` from the call site to the wide event,
/// and an identifier is shared rather than copied. Exporters render
/// either as the same decimal or text string.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AttrValue {
    /// A number (key versions).
    U64(u64),
    /// An identifier (uid, authority).
    Text(Arc<str>),
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrValue::U64(n) => write!(f, "{n}"),
            AttrValue::Text(s) => f.write_str(s),
        }
    }
}

impl From<u64> for AttrValue {
    fn from(n: u64) -> Self {
        AttrValue::U64(n)
    }
}

impl From<&u64> for AttrValue {
    fn from(n: &u64) -> Self {
        AttrValue::U64(*n)
    }
}

impl From<Arc<str>> for AttrValue {
    fn from(s: Arc<str>) -> Self {
        AttrValue::Text(s)
    }
}

impl From<&str> for AttrValue {
    fn from(s: &str) -> Self {
        AttrValue::Text(s.into())
    }
}

/// One thing that happened inside a span, at a point in time.
///
/// Variants mirror the workspace's failure machinery: what the fault
/// injector fired, what the retry loop did about it, what reached the
/// journal, and which phase a crash-safe revocation was in. Keeping
/// them typed (rather than free-form strings) lets tests assert trace
/// structure and keeps the exporters self-describing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// The fault injector fired at a named point.
    FaultInjected {
        /// The fault point that was hit.
        point: &'static str,
        /// The injected kind's stable label (e.g. `authority_down`).
        kind: &'static str,
        /// 1-based hit index of the point when it fired.
        hit: u64,
    },
    /// A transient failure is about to be retried.
    RetryAttempt {
        /// The retried operation (the retry policy's `op` label).
        op: &'static str,
        /// The attempt that just failed (1-based).
        attempt: u32,
    },
    /// Virtual backoff accounted before the next attempt.
    Backoff {
        /// The retried operation.
        op: &'static str,
        /// Backoff in virtual microseconds.
        us: u64,
    },
    /// The retry loop exhausted its attempt or time budget.
    RetryGaveUp {
        /// The abandoned operation.
        op: &'static str,
        /// Attempts performed, including the first.
        attempts: u32,
    },
    /// A framed record was appended to the write-ahead log.
    JournalAppend {
        /// The log object written (`wal.<generation>.<seq>`), shared
        /// with the log that keeps its active segment's name.
        object: Arc<str>,
        /// Framed bytes appended.
        bytes: u64,
    },
    /// The write-ahead log was durably flushed.
    JournalSync {
        /// The log object synced.
        object: Arc<str>,
    },
    /// A checkpoint was committed.
    CheckpointWritten {
        /// The new committed generation.
        generation: u64,
        /// What it wrote as the generation's state: `delta` (the change
        /// since the previous generation) or `full` (a whole snapshot).
        kind: &'static str,
        /// Bytes it wrote: the delta or snapshot object plus its seal.
        bytes: u64,
    },
    /// Recovery replayed the committed generation's log.
    WalReplayed {
        /// The generation replayed from.
        generation: u64,
        /// Intact records recovered.
        records: u64,
        /// Bytes dropped from the torn/corrupt tail.
        dropped_bytes: u64,
    },
    /// A crash-safe revocation moved to a new phase.
    RevocationPhase {
        /// The phase entered (`begun`, `key_delivery`,
        /// `re_encryption`, `complete`, `recovered`).
        stage: &'static str,
    },
    /// The simulated disk killed the process at a store point.
    CrashInjected {
        /// The store point where power was lost.
        point: &'static str,
    },
    /// A journal write failed and the durable handle poisoned itself.
    Poisoned {
        /// The store point whose failure poisoned the handle.
        point: &'static str,
    },
    /// Structured op-boundary attribute (`authority`, `uid`,
    /// `key_version_observed`, …) the wide-event pipeline folds into
    /// the enclosing operation's record. Later attributes with the
    /// same key override earlier ones on the same span.
    OpAttr {
        /// Stable attribute key.
        key: &'static str,
        /// Attribute value (numbers render decimal).
        value: AttrValue,
    },
    /// Free-form annotation (sparingly — prefer a typed variant).
    Note {
        /// What happened.
        what: String,
    },
}

impl TraceEvent {
    /// Stable snake_case label of the variant, used as the event name
    /// in both exporters.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::FaultInjected { .. } => "fault_injected",
            TraceEvent::RetryAttempt { .. } => "retry_attempt",
            TraceEvent::Backoff { .. } => "backoff",
            TraceEvent::RetryGaveUp { .. } => "retry_gave_up",
            TraceEvent::JournalAppend { .. } => "journal_append",
            TraceEvent::JournalSync { .. } => "journal_sync",
            TraceEvent::CheckpointWritten { .. } => "checkpoint",
            TraceEvent::WalReplayed { .. } => "wal_replay",
            TraceEvent::RevocationPhase { .. } => "revocation_phase",
            TraceEvent::CrashInjected { .. } => "crash",
            TraceEvent::Poisoned { .. } => "poisoned",
            TraceEvent::OpAttr { .. } => "op_attr",
            TraceEvent::Note { .. } => "note",
        }
    }

    /// The variant's fields as a JSON object, for exporter `args`.
    pub fn args_json(&self) -> String {
        match self {
            TraceEvent::FaultInjected { point, kind, hit } => format!(
                "{{\"point\":\"{}\",\"kind\":\"{}\",\"hit\":{hit}}}",
                esc(point),
                esc(kind)
            ),
            TraceEvent::RetryAttempt { op, attempt } => {
                format!("{{\"op\":\"{}\",\"attempt\":{attempt}}}", esc(op))
            }
            TraceEvent::Backoff { op, us } => {
                format!("{{\"op\":\"{}\",\"us\":{us}}}", esc(op))
            }
            TraceEvent::RetryGaveUp { op, attempts } => {
                format!("{{\"op\":\"{}\",\"attempts\":{attempts}}}", esc(op))
            }
            TraceEvent::JournalAppend { object, bytes } => {
                format!("{{\"object\":\"{}\",\"bytes\":{bytes}}}", esc(object))
            }
            TraceEvent::JournalSync { object } => {
                format!("{{\"object\":\"{}\"}}", esc(object))
            }
            TraceEvent::CheckpointWritten {
                generation,
                kind,
                bytes,
            } => format!(
                "{{\"generation\":{generation},\"kind\":\"{}\",\"bytes\":{bytes}}}",
                esc(kind)
            ),
            TraceEvent::WalReplayed {
                generation,
                records,
                dropped_bytes,
            } => format!(
                "{{\"generation\":{generation},\"records\":{records},\
                 \"dropped_bytes\":{dropped_bytes}}}"
            ),
            TraceEvent::RevocationPhase { stage } => {
                format!("{{\"stage\":\"{}\"}}", esc(stage))
            }
            TraceEvent::CrashInjected { point } => {
                format!("{{\"point\":\"{}\"}}", esc(point))
            }
            TraceEvent::Poisoned { point } => {
                format!("{{\"point\":\"{}\"}}", esc(point))
            }
            TraceEvent::OpAttr { key, value } => match value {
                AttrValue::U64(n) => format!("{{\"key\":\"{}\",\"value\":\"{n}\"}}", esc(key)),
                AttrValue::Text(s) => {
                    format!("{{\"key\":\"{}\",\"value\":\"{}\"}}", esc(key), esc(s))
                }
            },
            TraceEvent::Note { what } => format!("{{\"what\":\"{}\"}}", esc(what)),
        }
    }
}
