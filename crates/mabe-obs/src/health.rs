//! Readiness probes: named boolean checks the `/readyz` endpoint
//! evaluates on every request.
//!
//! A probe is a closure over whatever state the embedding process
//! wants to expose — `DurableSystem::poisoned()`, per-authority shard
//! liveness, a WAL-recovery flag. The server never caches results:
//! readiness is recomputed per scrape, so a system that poisons
//! itself mid-run flips `/readyz` to 503 on the very next request.
//!
//! Probes come in three severities. A **critical** probe
//! ([`Probe::new`]) gates readiness: any failure flips `/readyz` to
//! 503 and load balancers stop routing. A **soft** probe
//! ([`Probe::soft`]) reports *degradation* without failing readiness —
//! the disk-full read-only mode is the canonical case: the process
//! still serves every read, so it must keep receiving traffic, but
//! operators need the degraded bit surfaced on the same endpoint. A
//! **draining** probe ([`Probe::draining`]) reports *background work
//! still converging* — the lazy-revocation pending-upgrade queue is
//! the canonical case: security is already enforced (version bumps and
//! key delivery are synchronous), only server-side re-encryption is
//! outstanding, so `/readyz` stays 200 with `draining: true` until the
//! queue empties.

use std::fmt;

/// How a probe's failure is reported on `/readyz`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Severity {
    /// Failure fails readiness (503).
    Critical,
    /// Failure flags `degraded: true` at 200.
    Soft,
    /// Failure flags `draining: true` at 200.
    Draining,
}

/// One named readiness check.
pub struct Probe {
    name: String,
    severity: Severity,
    check: Box<dyn Fn() -> bool + Send + Sync>,
}

impl Probe {
    /// A critical probe: reports ready while `check` returns `true`,
    /// and fails `/readyz` (503) while it returns `false`.
    pub fn new(name: impl Into<String>, check: impl Fn() -> bool + Send + Sync + 'static) -> Self {
        Probe {
            name: name.into(),
            severity: Severity::Critical,
            check: Box::new(check),
        }
    }

    /// A soft probe: while `check` returns `false` the report carries
    /// `degraded: true`, but `/readyz` stays 200 — the process is
    /// impaired, not unservable.
    pub fn soft(name: impl Into<String>, check: impl Fn() -> bool + Send + Sync + 'static) -> Self {
        Probe {
            name: name.into(),
            severity: Severity::Soft,
            check: Box::new(check),
        }
    }

    /// A draining probe: while `check` returns `false` the report
    /// carries `draining: true`, but `/readyz` stays 200 — deferred
    /// background work (a non-empty lazy-revocation queue) is still
    /// converging, which is normal operation, not an outage.
    pub fn draining(
        name: impl Into<String>,
        check: impl Fn() -> bool + Send + Sync + 'static,
    ) -> Self {
        Probe {
            name: name.into(),
            severity: Severity::Draining,
            check: Box::new(check),
        }
    }

    /// The probe's name as `/readyz` reports it.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether a failure fails readiness (vs. merely flagging
    /// degradation or drain-in-progress).
    pub fn critical(&self) -> bool {
        self.severity == Severity::Critical
    }

    /// Whether a failure reports background work still draining.
    pub fn is_draining_kind(&self) -> bool {
        self.severity == Severity::Draining
    }

    /// Evaluates the probe now.
    pub fn ok(&self) -> bool {
        (self.check)()
    }
}

/// A ready-made *soft* probe over the global SLO engine: it fails
/// (flipping `degraded: true` on `/readyz`, status stays 200) while
/// any per-kind fast burn rate is tripped — the error budget is being
/// consumed faster than [`mabe_events::slo::FAST_BURN_THRESHOLD`]×
/// the sustainable rate. Soft rather than critical because a burning
/// budget means the service is *misbehaving*, not *unservable*:
/// pulling it from rotation would turn a partial outage into a total
/// one. The probe clears on its own once enough healthy operations
/// roll the fast window over.
pub fn slo_probe() -> Probe {
    Probe::soft("slo_fast_burn", || {
        !mabe_events::global().slo().any_fast_tripped()
    })
}

impl fmt::Debug for Probe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Probe")
            .field("name", &self.name)
            .field("severity", &self.severity)
            .finish()
    }
}

/// One probe's verdict inside a [`ReadinessReport`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProbeStatus {
    /// The probe's name.
    pub name: String,
    /// Its verdict at evaluation time.
    pub ok: bool,
    /// Whether a failure gates readiness (critical) or only flags
    /// degradation / drain-in-progress.
    pub critical: bool,
    /// Whether a failure means deferred background work is still
    /// draining rather than the process being impaired.
    pub draining: bool,
}

/// The outcome of evaluating every registered probe once.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReadinessReport {
    /// Each probe's status, in registration order.
    pub probes: Vec<ProbeStatus>,
}

impl ReadinessReport {
    /// Evaluates `probes` now. An empty probe list is ready — a
    /// process that registers no checks has nothing to be unready
    /// about.
    pub fn evaluate(probes: &[Probe]) -> Self {
        ReadinessReport {
            probes: probes
                .iter()
                .map(|p| ProbeStatus {
                    name: p.name().to_owned(),
                    ok: p.ok(),
                    critical: p.critical(),
                    draining: p.is_draining_kind(),
                })
                .collect(),
        }
    }

    /// Ready iff every *critical* probe passed. Soft probes never fail
    /// readiness.
    pub fn ready(&self) -> bool {
        self.probes.iter().all(|p| p.ok || !p.critical)
    }

    /// Degraded iff any *soft* probe failed — impaired but still
    /// servable (e.g. a disk-full read-only mode).
    pub fn degraded(&self) -> bool {
        self.probes
            .iter()
            .any(|p| !p.ok && !p.critical && !p.draining)
    }

    /// Draining iff any *draining* probe failed — deferred background
    /// work (e.g. the lazy-revocation pending-upgrade queue) has not
    /// converged yet. Normal operation, never an outage.
    pub fn draining(&self) -> bool {
        self.probes.iter().any(|p| !p.ok && p.draining)
    }

    /// The report as the `/readyz` JSON body.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"ready\":");
        out.push_str(if self.ready() { "true" } else { "false" });
        out.push_str(",\"degraded\":");
        out.push_str(if self.degraded() { "true" } else { "false" });
        out.push_str(",\"draining\":");
        out.push_str(if self.draining() { "true" } else { "false" });
        out.push_str(",\"probes\":[");
        for (i, p) in self.probes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ok\":{},\"critical\":{},\"draining\":{}}}",
                mabe_telemetry::export::json_escape(&p.name),
                p.ok,
                p.critical,
                p.draining
            ));
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    #[test]
    fn empty_probe_list_is_ready() {
        let report = ReadinessReport::evaluate(&[]);
        assert!(report.ready());
        assert!(!report.degraded());
        assert!(report.to_json().contains("\"ready\":true"));
    }

    #[test]
    fn one_failing_probe_flips_readiness() {
        let healthy = Arc::new(AtomicBool::new(true));
        let h = Arc::clone(&healthy);
        let probes = vec![
            Probe::new("wal_unpoisoned", move || h.load(Ordering::SeqCst)),
            Probe::new("always", || true),
        ];
        assert!(ReadinessReport::evaluate(&probes).ready());
        healthy.store(false, Ordering::SeqCst);
        let report = ReadinessReport::evaluate(&probes);
        assert!(!report.ready());
        let json = report.to_json();
        assert!(json.contains("\"name\":\"wal_unpoisoned\",\"ok\":false"));
        assert!(json.contains("\"name\":\"always\",\"ok\":true"));
    }

    #[test]
    fn a_failing_soft_probe_degrades_without_failing_readiness() {
        let writable = Arc::new(AtomicBool::new(true));
        let w = Arc::clone(&writable);
        let probes = vec![
            Probe::new("wal_unpoisoned", || true),
            Probe::soft("store_writable", move || w.load(Ordering::SeqCst)),
        ];
        let report = ReadinessReport::evaluate(&probes);
        assert!(report.ready());
        assert!(!report.degraded());

        writable.store(false, Ordering::SeqCst);
        let report = ReadinessReport::evaluate(&probes);
        assert!(report.ready(), "soft failures never fail readiness");
        assert!(report.degraded());
        let json = report.to_json();
        assert!(json.contains("\"ready\":true"));
        assert!(json.contains("\"degraded\":true"));
        assert!(json.contains("\"name\":\"store_writable\",\"ok\":false,\"critical\":false"));
    }

    #[test]
    fn a_draining_probe_reports_drain_in_progress_without_degrading() {
        let idle = Arc::new(AtomicBool::new(false));
        let i = Arc::clone(&idle);
        let probes = vec![
            Probe::new("wal_unpoisoned", || true),
            Probe::draining("lazy_queue_empty", move || i.load(Ordering::SeqCst)),
        ];
        let report = ReadinessReport::evaluate(&probes);
        assert!(report.ready(), "a draining queue never fails readiness");
        assert!(!report.degraded(), "draining is not degradation");
        assert!(report.draining());
        let json = report.to_json();
        assert!(json.contains("\"ready\":true"));
        assert!(json.contains("\"degraded\":false"));
        assert!(json.contains("\"draining\":true"));
        assert!(json.contains(
            "\"name\":\"lazy_queue_empty\",\"ok\":false,\"critical\":false,\"draining\":true"
        ));

        idle.store(true, Ordering::SeqCst);
        assert!(!ReadinessReport::evaluate(&probes).draining());
    }
}
