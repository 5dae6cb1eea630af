//! Tamper-evident audit trail for system operations.
//!
//! Cloud-storage deployments need an account of *who did what*: grants,
//! publications, reads (allowed and denied), revocations. The trail is
//! hash-chained (each entry commits to its predecessor via SHA-256), so
//! truncation or in-place edits are detectable — a cheap integrity layer
//! appropriate for the semi-trusted server model.

use std::fmt;

use mabe_crypto::sha256::{Sha256, DIGEST_LEN};

/// Why stored audit entries were rejected when a durable store opened.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AuditLoadError {
    /// The bytes do not parse (truncation, unknown event tag, trailing
    /// garbage, or inconsistent counters).
    Malformed(&'static str),
    /// Entry `index` fails the hash chain: its digest does not commit
    /// to its predecessor and its own fields — an in-place edit or a
    /// splice from another log.
    ChainBroken {
        /// 0-based position of the first failing entry.
        index: u64,
    },
    /// Entry `index` violates ordering: its position, sequence number,
    /// or logical timestamp is not strictly increasing — entries were
    /// reordered or renumbered.
    Reordered {
        /// 0-based position of the first failing entry.
        index: u64,
    },
}

impl fmt::Display for AuditLoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditLoadError::Malformed(what) => write!(f, "malformed audit log: {what}"),
            AuditLoadError::ChainBroken { index } => {
                write!(f, "audit hash chain broken at entry {index}")
            }
            AuditLoadError::Reordered { index } => {
                write!(f, "audit entries reordered at entry {index}")
            }
        }
    }
}

impl std::error::Error for AuditLoadError {}

/// The kind of event recorded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AuditEvent {
    /// An authority was registered.
    AuthorityAdded {
        /// Authority name.
        aid: String,
    },
    /// An owner was registered.
    OwnerAdded {
        /// Owner name.
        owner: String,
    },
    /// A user was registered.
    UserAdded {
        /// User name.
        uid: String,
    },
    /// Attributes were granted.
    Granted {
        /// Receiving user.
        uid: String,
        /// Granted attributes (canonical form).
        attributes: Vec<String>,
    },
    /// A record was published.
    Published {
        /// Publishing owner.
        owner: String,
        /// Record name.
        record: String,
        /// Component labels.
        components: Vec<String>,
    },
    /// A read attempt.
    Read {
        /// Reading user.
        uid: String,
        /// Record owner.
        owner: String,
        /// Record name.
        record: String,
        /// Component label.
        component: String,
        /// Whether decryption succeeded.
        allowed: bool,
    },
    /// An attribute (or whole user) revocation.
    Revoked {
        /// Affected user.
        uid: String,
        /// Revoked attributes.
        attributes: Vec<String>,
        /// Authority that performed it.
        aid: String,
        /// New key version.
        new_version: u64,
    },
    /// The journaled **intent** of a revocation: the authority has
    /// re-keyed (phase 1), but update-key delivery and proxy
    /// re-encryption (phase 2) have not completed. A `RevocationBegun`
    /// without a matching `RevocationCompleted` marks an in-flight
    /// revocation that [`crate::CloudSystem::recover`] must roll
    /// forward.
    RevocationBegun {
        /// Affected user.
        uid: String,
        /// Authority that re-keyed.
        aid: String,
        /// Version before the re-key.
        from_version: u64,
        /// Version being moved to.
        to_version: u64,
    },
    /// Phase 2 finished: every update key was delivered (or queued for
    /// offline users) and every affected ciphertext re-encrypted.
    RevocationCompleted {
        /// The authority whose revocation converged.
        aid: String,
        /// The version the system converged to.
        version: u64,
    },
    /// A revocation that had crashed mid-flight was rolled forward to
    /// completion by [`crate::CloudSystem::recover`].
    RevocationRecovered {
        /// The authority whose revocation was recovered.
        aid: String,
        /// The version the system converged to.
        version: u64,
    },
    /// The **security-complete** point of a lazy revocation: the
    /// authority re-keyed, fresh reduced keys reached the revoked user,
    /// update keys reached every holder and owner — but server-side
    /// re-encryption was parked on the pending-upgrade queue instead of
    /// running inline. The version check already denies the revoked
    /// user, so a `RevocationDeferred` closes the matching
    /// [`AuditEvent::RevocationBegun`] intent for security purposes;
    /// ciphertext convergence is tracked separately by
    /// [`AuditEvent::RevocationConverged`].
    RevocationDeferred {
        /// The authority whose re-encryption was deferred.
        aid: String,
        /// The version the deferred upgrade will converge to.
        version: u64,
    },
    /// A deferred re-encryption batch drained: every component of the
    /// authority reached `version` (through the background drain,
    /// read-triggered upgrades, or both).
    RevocationConverged {
        /// The authority whose ciphertexts converged.
        aid: String,
        /// The version every affected component now carries.
        version: u64,
    },
}

impl fmt::Display for AuditEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditEvent::AuthorityAdded { aid } => write!(f, "authority+ {aid}"),
            AuditEvent::OwnerAdded { owner } => write!(f, "owner+ {owner}"),
            AuditEvent::UserAdded { uid } => write!(f, "user+ {uid}"),
            AuditEvent::Granted { uid, attributes } => {
                write!(f, "grant {uid} <- {}", attributes.join(","))
            }
            AuditEvent::Published {
                owner,
                record,
                components,
            } => {
                write!(f, "publish {owner}/{record} [{}]", components.join(","))
            }
            AuditEvent::Read {
                uid,
                owner,
                record,
                component,
                allowed,
            } => write!(
                f,
                "read {uid} {owner}/{record}/{component}: {}",
                if *allowed { "allowed" } else { "DENIED" }
            ),
            AuditEvent::Revoked {
                uid,
                attributes,
                aid,
                new_version,
            } => write!(
                f,
                "revoke {uid} -{} @{aid} (v{new_version})",
                attributes.join(",")
            ),
            AuditEvent::RevocationBegun {
                uid,
                aid,
                from_version,
                to_version,
            } => write!(
                f,
                "revocation-begun {uid} @{aid} (v{from_version}->v{to_version})"
            ),
            AuditEvent::RevocationCompleted { aid, version } => {
                write!(f, "revocation-completed @{aid} (v{version})")
            }
            AuditEvent::RevocationRecovered { aid, version } => {
                write!(f, "revocation-recovered @{aid} (v{version})")
            }
            AuditEvent::RevocationDeferred { aid, version } => {
                write!(f, "revocation-deferred @{aid} (v{version})")
            }
            AuditEvent::RevocationConverged { aid, version } => {
                write!(f, "revocation-converged @{aid} (v{version})")
            }
        }
    }
}

/// One chained entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AuditEntry {
    /// Position in the log (0-based).
    pub index: u64,
    /// Monotonic sequence number drawn from the log's own counter. It
    /// survives independent of position, so a verifier who witnessed an
    /// earlier `seq` can prove later re-numbering.
    pub seq: u64,
    /// Logical (Lamport) timestamp at record time: strictly increasing,
    /// and advanceable past external clocks via
    /// [`AuditLog::observe_clock`] to order entries across components.
    pub timestamp: u64,
    /// The event.
    pub event: AuditEvent,
    /// `SHA-256(prev_digest ‖ index ‖ seq ‖ timestamp ‖ display(event))`.
    pub digest: [u8; DIGEST_LEN],
}

/// The hash-chained trail.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AuditLog {
    entries: Vec<AuditEntry>,
    next_seq: u64,
    clock: u64,
}

impl AuditLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    fn chain_digest(
        prev: &[u8; DIGEST_LEN],
        index: u64,
        seq: u64,
        timestamp: u64,
        event: &AuditEvent,
    ) -> [u8; DIGEST_LEN] {
        let mut h = Sha256::new();
        h.update(prev);
        h.update(&index.to_be_bytes());
        h.update(&seq.to_be_bytes());
        h.update(&timestamp.to_be_bytes());
        h.update(event.to_string().as_bytes());
        h.finalize()
    }

    /// Appends an event.
    pub fn record(&mut self, event: AuditEvent) {
        let index = self.entries.len() as u64;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.clock += 1;
        let timestamp = self.clock;
        let prev = self
            .entries
            .last()
            .map(|e| e.digest)
            .unwrap_or([0u8; DIGEST_LEN]);
        let digest = Self::chain_digest(&prev, index, seq, timestamp, &event);
        self.entries.push(AuditEntry {
            index,
            seq,
            timestamp,
            event,
            digest,
        });
    }

    /// Lamport-merges an external logical clock: subsequent entries will
    /// carry timestamps strictly greater than `external`.
    pub fn observe_clock(&mut self, external: u64) {
        self.clock = self.clock.max(external);
    }

    /// The current logical time (timestamp of the most recent entry).
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// All entries in order.
    pub fn entries(&self) -> &[AuditEntry] {
        &self.entries
    }

    /// The head digest (commits to the whole history).
    pub fn head(&self) -> Option<[u8; DIGEST_LEN]> {
        self.entries.last().map(|e| e.digest)
    }

    /// Recomputes the chain; `true` iff no entry was altered, reordered
    /// or removed from the middle, sequence numbers are strictly
    /// increasing, and logical timestamps are strictly increasing.
    pub fn verify(&self) -> bool {
        let mut prev = [0u8; DIGEST_LEN];
        let mut last_seq: Option<u64> = None;
        let mut last_ts: Option<u64> = None;
        for (i, entry) in self.entries.iter().enumerate() {
            if entry.index != i as u64 {
                return false;
            }
            if last_seq.is_some_and(|s| entry.seq <= s)
                || last_ts.is_some_and(|t| entry.timestamp <= t)
            {
                return false;
            }
            let expect =
                Self::chain_digest(&prev, entry.index, entry.seq, entry.timestamp, &entry.event);
            if expect != entry.digest {
                return false;
            }
            prev = entry.digest;
            last_seq = Some(entry.seq);
            last_ts = Some(entry.timestamp);
        }
        true
    }

    /// Entries involving a given user id.
    pub fn for_user<'a>(&'a self, uid: &'a str) -> impl Iterator<Item = &'a AuditEntry> {
        self.entries.iter().filter(move |e| match &e.event {
            AuditEvent::UserAdded { uid: u }
            | AuditEvent::Granted { uid: u, .. }
            | AuditEvent::Read { uid: u, .. }
            | AuditEvent::Revoked { uid: u, .. } => u == uid,
            _ => false,
        })
    }

    /// Denied reads — the interesting rows for a security review.
    pub fn denials(&self) -> impl Iterator<Item = &AuditEntry> {
        self.entries
            .iter()
            .filter(|e| matches!(e.event, AuditEvent::Read { allowed: false, .. }))
    }

    /// The `(next_seq, clock)` counters [`Self::from_entries`] takes
    /// back. The typed keyspace stores these in its `Meta` table and the
    /// entries in seals and per-index rows.
    pub(crate) fn counters(&self) -> (u64, u64) {
        (self.next_seq, self.clock)
    }

    /// Rebuilds a log from its `(next_seq, clock)` counters and one
    /// [`entry_bytes`] section per entry, in order — the sealed entries,
    /// then the journal tail's `Audit` rows — and **re-verifies** it:
    /// every digest is recomputed against its predecessor and ordering is
    /// checked, so a tampered, reordered, or spliced log is rejected with
    /// a typed error instead of being trusted.
    ///
    /// # Errors
    ///
    /// [`AuditLoadError::Malformed`] for unparseable or trailing bytes
    /// and counters behind the entries, [`AuditLoadError::ChainBroken`]
    /// for the first entry whose digest does not verify, and
    /// [`AuditLoadError::Reordered`] for the first entry out of order.
    pub(crate) fn from_entries<'a>(
        next_seq: u64,
        clock: u64,
        sections: impl IntoIterator<Item = &'a [u8]>,
    ) -> Result<Self, AuditLoadError> {
        let mut entries = Vec::new();
        for section in sections {
            let mut r = wire::Reader::new(section);
            Self::push_verified(&mut entries, &mut r)?;
            if !r.is_empty() {
                return Err(AuditLoadError::Malformed("trailing bytes after entry"));
            }
        }
        Self::with_counters(entries, next_seq, clock)
    }

    /// Reads the next serialized entry and appends it to `entries`
    /// after checking its position, its ordering after the previous
    /// entry, and its chain link.
    fn push_verified(
        entries: &mut Vec<AuditEntry>,
        r: &mut wire::Reader<'_>,
    ) -> Result<(), AuditLoadError> {
        let i = entries.len() as u64;
        let index = r.u64()?;
        let seq = r.u64()?;
        let timestamp = r.u64()?;
        let event = wire::get_event(r)?;
        let mut digest = [0u8; DIGEST_LEN];
        digest.copy_from_slice(r.bytes(DIGEST_LEN)?);
        let last = entries.last();
        if index != i || last.is_some_and(|e| seq <= e.seq || timestamp <= e.timestamp) {
            return Err(AuditLoadError::Reordered { index: i });
        }
        let prev = last.map_or([0u8; DIGEST_LEN], |e| e.digest);
        if Self::chain_digest(&prev, index, seq, timestamp, &event) != digest {
            return Err(AuditLoadError::ChainBroken { index: i });
        }
        entries.push(AuditEntry {
            index,
            seq,
            timestamp,
            event,
            digest,
        });
        Ok(())
    }

    /// Closes verified entries under the header counters, which must
    /// not lag the last entry.
    fn with_counters(
        entries: Vec<AuditEntry>,
        next_seq: u64,
        clock: u64,
    ) -> Result<Self, AuditLoadError> {
        if let Some(last) = entries.last() {
            if next_seq <= last.seq {
                return Err(AuditLoadError::Malformed("sequence counter behind entries"));
            }
            if clock < last.timestamp {
                return Err(AuditLoadError::Malformed("clock behind entries"));
            }
        }
        Ok(AuditLog {
            entries,
            next_seq,
            clock,
        })
    }

    /// `(aid, to_version)` pairs whose [`AuditEvent::RevocationBegun`]
    /// intent has no matching [`AuditEvent::RevocationCompleted`] **or**
    /// [`AuditEvent::RevocationDeferred`] — the revocations a crash left
    /// in flight. A deferred revocation is security-complete (keys
    /// moved, version bumped; only ciphertext upgrades remain queued),
    /// so it does not count as incomplete here. An empty answer is the
    /// audit log's view of "every revocation's security phase
    /// converged".
    pub fn incomplete_revocations(&self) -> Vec<(String, u64)> {
        let mut open: Vec<(String, u64)> = Vec::new();
        for entry in &self.entries {
            match &entry.event {
                AuditEvent::RevocationBegun {
                    aid, to_version, ..
                } => open.push((aid.clone(), *to_version)),
                AuditEvent::RevocationCompleted { aid, version }
                | AuditEvent::RevocationDeferred { aid, version } => {
                    open.retain(|(a, v)| !(a == aid && v == version));
                }
                _ => {}
            }
        }
        open
    }
}

/// One entry's serialized section. The durable layer persists entries
/// as exactly these bytes — in journaled `Audit` rows and, once a
/// checkpoint seals them, in seal payloads — and
/// [`AuditLog::from_entries`] reads them back.
pub(crate) fn entry_bytes(entry: &AuditEntry) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&entry.index.to_be_bytes());
    out.extend_from_slice(&entry.seq.to_be_bytes());
    out.extend_from_slice(&entry.timestamp.to_be_bytes());
    wire::put_event(&mut out, &entry.event);
    out.extend_from_slice(&entry.digest);
    out
}

/// Minimal framing for audit persistence: big-endian integers,
/// u32-length-prefixed UTF-8 strings, u8-tagged events.
mod wire {
    use super::{AuditEvent, AuditLoadError};

    pub(super) struct Reader<'a> {
        buf: &'a [u8],
        pos: usize,
    }

    impl<'a> Reader<'a> {
        pub(super) fn new(buf: &'a [u8]) -> Self {
            Reader { buf, pos: 0 }
        }

        pub(super) fn bytes(&mut self, n: usize) -> Result<&'a [u8], AuditLoadError> {
            if self.buf.len() - self.pos < n {
                return Err(AuditLoadError::Malformed("truncated"));
            }
            let out = &self.buf[self.pos..self.pos + n];
            self.pos += n;
            Ok(out)
        }

        pub(super) fn u8(&mut self) -> Result<u8, AuditLoadError> {
            Ok(self.bytes(1)?[0])
        }

        pub(super) fn u32(&mut self) -> Result<u32, AuditLoadError> {
            Ok(u32::from_be_bytes(self.bytes(4)?.try_into().unwrap()))
        }

        pub(super) fn u64(&mut self) -> Result<u64, AuditLoadError> {
            Ok(u64::from_be_bytes(self.bytes(8)?.try_into().unwrap()))
        }

        pub(super) fn is_empty(&self) -> bool {
            self.pos == self.buf.len()
        }

        fn string(&mut self) -> Result<String, AuditLoadError> {
            let len = self.u32()? as usize;
            if len > self.buf.len() - self.pos {
                return Err(AuditLoadError::Malformed("string length exceeds input"));
            }
            String::from_utf8(self.bytes(len)?.to_vec())
                .map_err(|_| AuditLoadError::Malformed("invalid utf-8"))
        }

        fn strings(&mut self) -> Result<Vec<String>, AuditLoadError> {
            let n = self.u32()? as usize;
            if n > self.buf.len() - self.pos {
                return Err(AuditLoadError::Malformed("list length exceeds input"));
            }
            (0..n).map(|_| self.string()).collect()
        }
    }

    fn put_string(out: &mut Vec<u8>, s: &str) {
        out.extend_from_slice(&(s.len() as u32).to_be_bytes());
        out.extend_from_slice(s.as_bytes());
    }

    fn put_strings(out: &mut Vec<u8>, items: &[String]) {
        out.extend_from_slice(&(items.len() as u32).to_be_bytes());
        for s in items {
            put_string(out, s);
        }
    }

    pub(super) fn put_event(out: &mut Vec<u8>, event: &AuditEvent) {
        match event {
            AuditEvent::AuthorityAdded { aid } => {
                out.push(1);
                put_string(out, aid);
            }
            AuditEvent::OwnerAdded { owner } => {
                out.push(2);
                put_string(out, owner);
            }
            AuditEvent::UserAdded { uid } => {
                out.push(3);
                put_string(out, uid);
            }
            AuditEvent::Granted { uid, attributes } => {
                out.push(4);
                put_string(out, uid);
                put_strings(out, attributes);
            }
            AuditEvent::Published {
                owner,
                record,
                components,
            } => {
                out.push(5);
                put_string(out, owner);
                put_string(out, record);
                put_strings(out, components);
            }
            AuditEvent::Read {
                uid,
                owner,
                record,
                component,
                allowed,
            } => {
                out.push(6);
                put_string(out, uid);
                put_string(out, owner);
                put_string(out, record);
                put_string(out, component);
                out.push(u8::from(*allowed));
            }
            AuditEvent::Revoked {
                uid,
                attributes,
                aid,
                new_version,
            } => {
                out.push(7);
                put_string(out, uid);
                put_strings(out, attributes);
                put_string(out, aid);
                out.extend_from_slice(&new_version.to_be_bytes());
            }
            AuditEvent::RevocationBegun {
                uid,
                aid,
                from_version,
                to_version,
            } => {
                out.push(8);
                put_string(out, uid);
                put_string(out, aid);
                out.extend_from_slice(&from_version.to_be_bytes());
                out.extend_from_slice(&to_version.to_be_bytes());
            }
            AuditEvent::RevocationCompleted { aid, version } => {
                out.push(9);
                put_string(out, aid);
                out.extend_from_slice(&version.to_be_bytes());
            }
            AuditEvent::RevocationRecovered { aid, version } => {
                out.push(10);
                put_string(out, aid);
                out.extend_from_slice(&version.to_be_bytes());
            }
            AuditEvent::RevocationDeferred { aid, version } => {
                out.push(11);
                put_string(out, aid);
                out.extend_from_slice(&version.to_be_bytes());
            }
            AuditEvent::RevocationConverged { aid, version } => {
                out.push(12);
                put_string(out, aid);
                out.extend_from_slice(&version.to_be_bytes());
            }
        }
    }

    pub(super) fn get_event(r: &mut Reader<'_>) -> Result<AuditEvent, AuditLoadError> {
        Ok(match r.u8()? {
            1 => AuditEvent::AuthorityAdded { aid: r.string()? },
            2 => AuditEvent::OwnerAdded { owner: r.string()? },
            3 => AuditEvent::UserAdded { uid: r.string()? },
            4 => AuditEvent::Granted {
                uid: r.string()?,
                attributes: r.strings()?,
            },
            5 => AuditEvent::Published {
                owner: r.string()?,
                record: r.string()?,
                components: r.strings()?,
            },
            6 => AuditEvent::Read {
                uid: r.string()?,
                owner: r.string()?,
                record: r.string()?,
                component: r.string()?,
                allowed: match r.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(AuditLoadError::Malformed("bad boolean")),
                },
            },
            7 => AuditEvent::Revoked {
                uid: r.string()?,
                attributes: r.strings()?,
                aid: r.string()?,
                new_version: r.u64()?,
            },
            8 => AuditEvent::RevocationBegun {
                uid: r.string()?,
                aid: r.string()?,
                from_version: r.u64()?,
                to_version: r.u64()?,
            },
            9 => AuditEvent::RevocationCompleted {
                aid: r.string()?,
                version: r.u64()?,
            },
            10 => AuditEvent::RevocationRecovered {
                aid: r.string()?,
                version: r.u64()?,
            },
            11 => AuditEvent::RevocationDeferred {
                aid: r.string()?,
                version: r.u64()?,
            },
            12 => AuditEvent::RevocationConverged {
                aid: r.string()?,
                version: r.u64()?,
            },
            _ => return Err(AuditLoadError::Malformed("unknown event tag")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> AuditLog {
        let mut log = AuditLog::new();
        log.record(AuditEvent::AuthorityAdded { aid: "Med".into() });
        log.record(AuditEvent::UserAdded {
            uid: "alice".into(),
        });
        log.record(AuditEvent::Granted {
            uid: "alice".into(),
            attributes: vec!["Doctor@Med".into()],
        });
        log.record(AuditEvent::Read {
            uid: "alice".into(),
            owner: "o".into(),
            record: "r".into(),
            component: "x".into(),
            allowed: true,
        });
        log.record(AuditEvent::Read {
            uid: "bob".into(),
            owner: "o".into(),
            record: "r".into(),
            component: "x".into(),
            allowed: false,
        });
        log
    }

    #[test]
    fn chain_verifies() {
        let log = sample_log();
        assert!(log.verify());
        assert_eq!(log.entries().len(), 5);
        assert!(log.head().is_some());
        assert!(AuditLog::new().verify());
        assert!(AuditLog::new().head().is_none());
    }

    #[test]
    fn tampering_detected() {
        let mut log = sample_log();
        // Flip the allowed bit of the denied read.
        if let AuditEvent::Read { allowed, .. } = &mut log.entries[4].event {
            *allowed = true;
        }
        assert!(!log.verify());
    }

    #[test]
    fn reorder_detected() {
        let mut log = sample_log();
        log.entries.swap(1, 2);
        assert!(!log.verify());
    }

    #[test]
    fn truncation_from_middle_detected() {
        let mut log = sample_log();
        log.entries.remove(2);
        assert!(!log.verify());
        // Truncating the tail is NOT detectable from the log alone (an
        // auditor must compare against a previously witnessed head).
        let mut log = sample_log();
        let old_head = log.head().unwrap();
        log.entries.pop();
        assert!(log.verify(), "tail truncation yields a valid shorter chain");
        assert_ne!(log.head().unwrap(), old_head, "but the head changed");
    }

    #[test]
    fn seq_and_timestamp_are_strictly_monotonic() {
        let log = sample_log();
        for pair in log.entries().windows(2) {
            assert!(pair[1].seq > pair[0].seq);
            assert!(pair[1].timestamp > pair[0].timestamp);
        }
        assert_eq!(log.clock(), log.entries().last().unwrap().timestamp);
    }

    #[test]
    fn timestamp_edit_detected() {
        let mut log = sample_log();
        log.entries[3].timestamp += 100;
        assert!(!log.verify(), "timestamp is committed to by the digest");
    }

    #[test]
    fn seq_edit_detected() {
        let mut log = sample_log();
        log.entries[2].seq = 99;
        assert!(
            !log.verify(),
            "sequence number is committed to by the digest"
        );
    }

    #[test]
    fn observed_external_clock_orders_later_entries() {
        let mut log = sample_log();
        let before = log.clock();
        log.observe_clock(before + 1000);
        log.record(AuditEvent::UserAdded { uid: "late".into() });
        let last = log.entries().last().unwrap();
        assert!(last.timestamp > before + 1000);
        assert!(log.verify());
        // Observing a clock in the past must not rewind time.
        log.observe_clock(0);
        log.record(AuditEvent::UserAdded {
            uid: "later".into(),
        });
        assert!(log.verify());
    }

    #[test]
    fn filters() {
        let log = sample_log();
        assert_eq!(log.for_user("alice").count(), 3);
        assert_eq!(log.for_user("bob").count(), 1);
        assert_eq!(log.denials().count(), 1);
    }

    #[test]
    fn display_is_informative() {
        let log = sample_log();
        let rendered: Vec<String> = log.entries().iter().map(|e| e.event.to_string()).collect();
        assert!(rendered[2].contains("Doctor@Med"));
        assert!(rendered[4].contains("DENIED"));
    }

    /// A log exercising every event variant (so the entry codec covers
    /// all tags).
    fn full_log() -> AuditLog {
        let mut log = sample_log();
        log.record(AuditEvent::OwnerAdded { owner: "o".into() });
        log.record(AuditEvent::Published {
            owner: "o".into(),
            record: "r".into(),
            components: vec!["x".into(), "y".into()],
        });
        log.record(AuditEvent::Revoked {
            uid: "alice".into(),
            attributes: vec!["Doctor@Med".into()],
            aid: "Med".into(),
            new_version: 2,
        });
        log.record(AuditEvent::RevocationBegun {
            uid: "alice".into(),
            aid: "Med".into(),
            from_version: 1,
            to_version: 2,
        });
        log.record(AuditEvent::RevocationRecovered {
            aid: "Med".into(),
            version: 2,
        });
        log.record(AuditEvent::RevocationCompleted {
            aid: "Med".into(),
            version: 2,
        });
        log.record(AuditEvent::RevocationDeferred {
            aid: "Med".into(),
            version: 3,
        });
        log.record(AuditEvent::RevocationConverged {
            aid: "Med".into(),
            version: 3,
        });
        log
    }

    /// The log's entries as the durable layer stores them.
    fn sections(log: &AuditLog) -> Vec<Vec<u8>> {
        log.entries().iter().map(entry_bytes).collect()
    }

    /// [`AuditLog::from_entries`] over `sections` under `log`'s counters.
    fn reload(log: &AuditLog, sections: &[Vec<u8>]) -> Result<AuditLog, AuditLoadError> {
        let (next_seq, clock) = log.counters();
        AuditLog::from_entries(next_seq, clock, sections.iter().map(Vec::as_slice))
    }

    #[test]
    fn from_entries_roundtrips_every_event_variant() {
        let log = full_log();
        let restored = reload(&log, &sections(&log)).unwrap();
        assert_eq!(restored, log);
        assert!(restored.verify());
        // The restored log continues the chain seamlessly.
        let mut restored = restored;
        restored.record(AuditEvent::UserAdded { uid: "next".into() });
        assert!(restored.verify());
        assert!(restored.entries().last().unwrap().seq > log.entries().last().unwrap().seq);
    }

    #[test]
    fn from_entries_rejects_a_flipped_byte() {
        // Every single-byte flip is either a parse failure or a broken
        // chain, never silent acceptance; flips inside an entry's event
        // or digest break the chain at that entry.
        let log = full_log();
        let mut sections = sections(&log);
        let mut chain_broken = 0;
        for entry in 0..sections.len() {
            for pos in 0..sections[entry].len() {
                sections[entry][pos] ^= 0x01;
                match reload(&log, &sections) {
                    Ok(loaded) => panic!("flip at entry {entry} byte {pos} accepted: {loaded:?}"),
                    Err(AuditLoadError::ChainBroken { index }) => {
                        assert_eq!(index, entry as u64);
                        chain_broken += 1;
                    }
                    Err(_) => {}
                }
                sections[entry][pos] ^= 0x01;
            }
        }
        assert!(chain_broken > 0, "no flip ever hit the chain check");
        let last = sections.len() - 1;
        *sections[last].last_mut().unwrap() ^= 1;
        assert_eq!(
            reload(&log, &sections),
            Err(AuditLoadError::ChainBroken { index: last as u64 })
        );
    }

    #[test]
    fn from_entries_rejects_reordered_entries() {
        // Hand-build a log whose chain digests are all valid but whose
        // second sequence number goes backwards: an adversary re-minting
        // digests cannot also fix ordering without being caught.
        let mut log = AuditLog::new();
        let e0 = AuditEvent::UserAdded { uid: "a".into() };
        let d0 = AuditLog::chain_digest(&[0u8; DIGEST_LEN], 0, 5, 5, &e0);
        let e1 = AuditEvent::UserAdded { uid: "b".into() };
        let d1 = AuditLog::chain_digest(&d0, 1, 3, 6, &e1);
        log.entries.push(AuditEntry {
            index: 0,
            seq: 5,
            timestamp: 5,
            event: e0,
            digest: d0,
        });
        log.entries.push(AuditEntry {
            index: 1,
            seq: 3, // went backwards
            timestamp: 6,
            event: e1,
            digest: d1,
        });
        log.next_seq = 6;
        log.clock = 6;
        assert_eq!(
            reload(&log, &sections(&log)),
            Err(AuditLoadError::Reordered { index: 1 })
        );
    }

    #[test]
    fn from_entries_rejects_truncation_trailing_bytes_and_lagging_counters() {
        let log = full_log();
        let base = sections(&log);
        for entry in 0..base.len() {
            for cut in 0..base[entry].len() {
                let mut cut_sections = base.clone();
                cut_sections[entry].truncate(cut);
                assert!(
                    reload(&log, &cut_sections).is_err(),
                    "entry {entry} cut at {cut} accepted"
                );
            }
        }
        let mut extended = base.clone();
        extended[2].push(0);
        assert_eq!(
            reload(&log, &extended),
            Err(AuditLoadError::Malformed("trailing bytes after entry"))
        );
        // The counters must not lag the entries they describe.
        let (next_seq, clock) = log.counters();
        let slices = || base.iter().map(Vec::as_slice);
        assert_eq!(
            AuditLog::from_entries(0, clock, slices()),
            Err(AuditLoadError::Malformed("sequence counter behind entries"))
        );
        assert_eq!(
            AuditLog::from_entries(next_seq, 0, slices()),
            Err(AuditLoadError::Malformed("clock behind entries"))
        );
    }

    #[test]
    fn empty_log_roundtrips() {
        let log = AuditLog::new();
        let restored = reload(&log, &[]).unwrap();
        assert!(restored.entries().is_empty());
        assert!(restored.verify());
    }

    #[test]
    fn incomplete_revocations_track_begun_vs_completed() {
        let mut log = AuditLog::new();
        assert!(log.incomplete_revocations().is_empty());
        log.record(AuditEvent::RevocationBegun {
            uid: "alice".into(),
            aid: "Med".into(),
            from_version: 1,
            to_version: 2,
        });
        log.record(AuditEvent::RevocationBegun {
            uid: "bob".into(),
            aid: "Trial".into(),
            from_version: 1,
            to_version: 2,
        });
        assert_eq!(
            log.incomplete_revocations(),
            vec![("Med".to_string(), 2), ("Trial".to_string(), 2)]
        );
        log.record(AuditEvent::RevocationCompleted {
            aid: "Med".into(),
            version: 2,
        });
        assert_eq!(log.incomplete_revocations(), vec![("Trial".to_string(), 2)]);
        log.record(AuditEvent::RevocationRecovered {
            aid: "Trial".into(),
            version: 2,
        });
        log.record(AuditEvent::RevocationCompleted {
            aid: "Trial".into(),
            version: 2,
        });
        assert!(log.incomplete_revocations().is_empty());
        assert!(log.verify());
        // The new events render distinctly.
        let rendered: Vec<String> = log.entries().iter().map(|e| e.event.to_string()).collect();
        assert!(rendered[0].contains("revocation-begun alice @Med (v1->v2)"));
        assert!(rendered[2].contains("revocation-completed @Med"));
        assert!(rendered[3].contains("revocation-recovered @Trial"));
        assert!(rendered[4].contains("revocation-completed @Trial"));
    }

    #[test]
    fn deferred_revocation_is_security_complete() {
        let mut log = AuditLog::new();
        log.record(AuditEvent::RevocationBegun {
            uid: "alice".into(),
            aid: "Med".into(),
            from_version: 1,
            to_version: 2,
        });
        assert_eq!(log.incomplete_revocations(), vec![("Med".to_string(), 2)]);
        // Deferring closes the intent: keys moved and the version check
        // already denies alice — only ciphertext upgrades remain queued.
        log.record(AuditEvent::RevocationDeferred {
            aid: "Med".into(),
            version: 2,
        });
        assert!(log.incomplete_revocations().is_empty());
        log.record(AuditEvent::RevocationConverged {
            aid: "Med".into(),
            version: 2,
        });
        assert!(log.incomplete_revocations().is_empty());
        assert!(log.verify());
        let rendered: Vec<String> = log.entries().iter().map(|e| e.event.to_string()).collect();
        assert!(rendered[1].contains("revocation-deferred @Med (v2)"));
        assert!(rendered[2].contains("revocation-converged @Med (v2)"));
    }
}
