//! The wide event: one canonical structured record per top-level
//! operation.

use std::sync::Arc;

use mabe_telemetry::export::json_escape;

/// Stable op-kind labels, in the order they appear in reports. One
/// wide event is emitted per *top-level* operation of these kinds;
/// nested op spans (`durable.read` wrapping `cloud.read`) fold into
/// the outermost one instead of double-counting.
pub const OP_KINDS: &[&str] = &[
    "grant",
    "publish",
    "read",
    "read_outsourced",
    "revoke",
    "lazy_drain",
    "recovery",
];

/// Maps a span name to its op kind, `None` for non-op spans. This is
/// the *only* coupling between the pipeline and instrumented code:
/// the spans the workspace already opens at its operation boundaries
/// are the wide-event boundaries.
pub fn op_kind(span_name: &str) -> Option<&'static str> {
    match span_name {
        "cloud.grant" | "durable.grant" => Some("grant"),
        "cloud.publish" | "durable.publish" => Some("publish"),
        "cloud.read" | "durable.read" => Some("read"),
        "cloud.read_outsourced" | "durable.read_outsourced" => Some("read_outsourced"),
        "cloud.revoke" | "cloud.revoke_user_at" | "durable.revoke" | "durable.revoke_user_at" => {
            Some("revoke")
        }
        "cloud.lazy_drain" => Some("lazy_drain"),
        "cloud.recover" | "durable.recover" | "durable.open" => Some("recovery"),
        _ => None,
    }
}

/// How an operation ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// The operation returned successfully.
    Ok,
    /// The operation failed; the span's error message rides along.
    Error(String),
}

impl Outcome {
    /// Stable label (`ok` / `error`) used by `/eventz` filters and the
    /// SLO engine.
    pub fn label(&self) -> &'static str {
        match self {
            Outcome::Ok => "ok",
            Outcome::Error(_) => "error",
        }
    }

    /// Whether this outcome is an error.
    pub fn is_error(&self) -> bool {
        matches!(self, Outcome::Error(_))
    }
}

/// Why a sampled-in event was kept (tail-based decision, made after
/// the outcome and latency are known).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KeepReason {
    /// Errors are always kept.
    Error,
    /// Ops that retried or hit a fault point are always kept.
    Retried,
    /// Ops at or beyond the per-kind p99 latency estimate are always
    /// kept.
    Slow,
    /// An OK-fast op the seeded sampler chose to keep.
    Sampled,
}

impl KeepReason {
    /// Stable snake_case label.
    pub fn label(self) -> &'static str {
        match self {
            KeepReason::Error => "error",
            KeepReason::Retried => "retried",
            KeepReason::Slow => "slow",
            KeepReason::Sampled => "sampled",
        }
    }
}

/// One wide event: everything the workspace knows about one completed
/// top-level operation, in one flat record.
#[derive(Clone, Debug)]
pub struct WideEvent {
    /// Emission order across the process (assigned by the pipeline;
    /// counts *all* emitted events, kept or not, so gaps in a spill
    /// file reveal exactly how much sampling dropped).
    pub seq: u64,
    /// The mabe-trace trace id — the join key into `/tracez` and
    /// `trace_*.json` artifacts.
    pub trace_id: u64,
    /// The op span's id within that trace.
    pub span_id: u64,
    /// Op kind (one of [`OP_KINDS`]).
    pub kind: &'static str,
    /// The op span's free-form detail (record/label, uid, …).
    pub detail: String,
    /// How the operation ended.
    pub outcome: Outcome,
    /// Start, microseconds since the process trace epoch.
    pub start_us: u64,
    /// End-to-end latency in microseconds.
    pub latency_us: u64,
    /// Authority the op touched (primary one when several).
    pub authority: Option<Arc<str>>,
    /// Acting user (or owner, for publish).
    pub uid: Option<Arc<str>>,
    /// Key version observed when the op first fetched state.
    pub key_version_observed: Option<u64>,
    /// Key version in effect when the op served/completed.
    pub key_version_served: Option<u64>,
    /// Retry attempts burned inside the op (all planes).
    pub retries: u32,
    /// Fault points that fired inside the op, as `point:kind`.
    pub fault_points: Vec<String>,
    /// WAL bytes appended on behalf of the op.
    pub wal_bytes: u64,
    /// The checkpoint the op paid for, if one ran inside it: `delta`
    /// (the change since the last one) or `full` (a whole snapshot).
    pub checkpoint: Option<&'static str>,
    /// Bytes that checkpoint wrote: its delta or snapshot object plus
    /// its seal (0 without one).
    pub checkpoint_bytes: u64,
    /// Why the tail sampler kept this record.
    pub kept: KeepReason,
}

fn opt_str(v: Option<&str>) -> String {
    match v {
        Some(s) => format!("\"{}\"", json_escape(s)),
        None => "null".to_owned(),
    }
}

fn opt_u64(v: Option<u64>) -> String {
    match v {
        Some(n) => n.to_string(),
        None => "null".to_owned(),
    }
}

impl WideEvent {
    /// The record as one JSON object (one line of a `.jsonl` spill
    /// file, one element of the `/eventz` array).
    pub fn to_json(&self) -> String {
        let faults = self
            .fault_points
            .iter()
            .map(|f| format!("\"{}\"", json_escape(f)))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"seq\":{},\"trace_id\":{},\"span_id\":{},\"kind\":\"{}\",\
             \"detail\":\"{}\",\"outcome\":\"{}\",\"error\":{},\
             \"start_us\":{},\"latency_us\":{},\"authority\":{},\"uid\":{},\
             \"key_version_observed\":{},\"key_version_served\":{},\
             \"retries\":{},\"fault_points\":[{}],\"wal_bytes\":{},\
             \"checkpoint\":{},\"checkpoint_bytes\":{},\"kept\":\"{}\"}}",
            self.seq,
            self.trace_id,
            self.span_id,
            self.kind,
            json_escape(&self.detail),
            self.outcome.label(),
            match &self.outcome {
                Outcome::Ok => "null".to_owned(),
                Outcome::Error(e) => format!("\"{}\"", json_escape(e)),
            },
            self.start_us,
            self.latency_us,
            opt_str(self.authority.as_deref()),
            opt_str(self.uid.as_deref()),
            opt_u64(self.key_version_observed),
            opt_u64(self.key_version_served),
            self.retries,
            faults,
            self.wal_bytes,
            opt_str(self.checkpoint),
            self.checkpoint_bytes,
            self.kept.label(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_names_map_to_op_kinds() {
        assert_eq!(op_kind("cloud.read"), Some("read"));
        assert_eq!(op_kind("durable.read"), Some("read"));
        assert_eq!(op_kind("cloud.revoke_user_at"), Some("revoke"));
        assert_eq!(op_kind("durable.open"), Some("recovery"));
        assert_eq!(op_kind("cloud.lazy_drain"), Some("lazy_drain"));
        assert_eq!(op_kind("cloud.deliver_keys"), None);
        assert_eq!(op_kind("server.fetch"), None);
    }

    #[test]
    fn json_carries_every_field_and_escapes() {
        let ev = WideEvent {
            seq: 7,
            trace_id: 3,
            span_id: 9,
            kind: "read",
            detail: "rec/\"x\"".into(),
            outcome: Outcome::Error("denied".into()),
            start_us: 10,
            latency_us: 250,
            authority: Some("MedOrg".into()),
            uid: Some("alice".into()),
            key_version_observed: Some(1),
            key_version_served: Some(2),
            retries: 3,
            fault_points: vec!["read.fetch:authority_down".into()],
            wal_bytes: 128,
            checkpoint: Some("delta"),
            checkpoint_bytes: 4096,
            kept: KeepReason::Error,
        };
        let json = ev.to_json();
        assert!(json.contains("\"kind\":\"read\""));
        assert!(json.contains("\"detail\":\"rec/\\\"x\\\"\""));
        assert!(json.contains("\"outcome\":\"error\""));
        assert!(json.contains("\"error\":\"denied\""));
        assert!(json.contains("\"trace_id\":3"));
        assert!(json.contains("\"authority\":\"MedOrg\""));
        assert!(json.contains("\"key_version_observed\":1"));
        assert!(json.contains("\"fault_points\":[\"read.fetch:authority_down\"]"));
        assert!(json.contains("\"checkpoint\":\"delta\",\"checkpoint_bytes\":4096"));
        assert!(json.contains("\"kept\":\"error\""));
    }

    #[test]
    fn optional_fields_serialize_as_null() {
        let ev = WideEvent {
            seq: 0,
            trace_id: 1,
            span_id: 1,
            kind: "grant",
            detail: String::new(),
            outcome: Outcome::Ok,
            start_us: 0,
            latency_us: 5,
            authority: None,
            uid: None,
            key_version_observed: None,
            key_version_served: None,
            retries: 0,
            fault_points: Vec::new(),
            wal_bytes: 0,
            checkpoint: None,
            checkpoint_bytes: 0,
            kept: KeepReason::Sampled,
        };
        let json = ev.to_json();
        assert!(json.contains("\"authority\":null"));
        assert!(json.contains("\"checkpoint\":null"));
        assert!(json.contains("\"error\":null"));
        assert!(json.contains("\"key_version_served\":null"));
        assert!(json.contains("\"fault_points\":[]"));
    }
}
