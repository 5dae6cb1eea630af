//! Byte-accounted message transport between system entities.
//!
//! The paper's communication-cost analysis (Table IV) counts the bytes of
//! keys and ciphertexts exchanged between entity pairs. Instead of
//! sniffing a real network, every simulated send is accounted here with
//! its paper-accounted wire size, and [`Wire::report`] aggregates per
//! entity-pair class.
//!
//! The accounting is exact and cumulative: [`Wire::report`],
//! [`Wire::delivery_report`], [`Wire::total_bytes`] and
//! [`Wire::between`] read running totals over every message since the
//! last [`Wire::reset`]. The transcript ([`Wire::log`]) keeps only the
//! last [`TRANSCRIPT_CAPACITY`] messages, like the flight recorder's
//! span ring, so a server's memory does not grow with its traffic; a
//! full transcript overwrites its oldest entry in place, so a warmed
//! send allocates nothing.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

use mabe_core::{OwnerId, Uid};
use mabe_policy::AuthorityId;
use mabe_telemetry::{Counter, ResolvedFamily};

/// `mabe_wire_bytes_total{pair}` and `mabe_wire_messages_total{pair}`,
/// indexed by [`PairClass`].
static BYTES: ResolvedFamily<Counter, 6> = ResolvedFamily::new("mabe_wire_bytes_total", "pair");
static MESSAGES: ResolvedFamily<Counter, 6> =
    ResolvedFamily::new("mabe_wire_messages_total", "pair");
/// `mabe_wire_delivery_total{disposition}`, indexed by [`Disposition`].
static DELIVERY: ResolvedFamily<Counter, 5> =
    ResolvedFamily::new("mabe_wire_delivery_total", "disposition");

/// A message endpoint in the deployment.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Endpoint {
    /// The certificate authority.
    Ca,
    /// An attribute authority.
    Authority(AuthorityId),
    /// A data owner.
    Owner(OwnerId),
    /// A data consumer.
    User(Uid),
    /// The cloud server.
    Server,
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Ca => write!(f, "CA"),
            Endpoint::Authority(a) => write!(f, "AA:{a}"),
            Endpoint::Owner(o) => write!(f, "Owner:{o}"),
            Endpoint::User(u) => write!(f, "User:{u}"),
            Endpoint::Server => write!(f, "Server"),
        }
    }
}

/// Classes of entity pairs reported by the paper's Table IV.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum PairClass {
    /// Attribute authority ↔ user (secret keys, update keys).
    AuthorityUser,
    /// Attribute authority ↔ owner (public keys, update keys).
    AuthorityOwner,
    /// Server ↔ user (ciphertext downloads).
    ServerUser,
    /// Server ↔ owner (ciphertext uploads, update information).
    ServerOwner,
    /// Anything involving the CA (registration; not tabulated by the paper).
    Ca,
    /// Any other pair.
    Other,
}

impl PairClass {
    fn of(a: &Endpoint, b: &Endpoint) -> PairClass {
        use Endpoint::*;
        match (a, b) {
            (Authority(_), User(_)) | (User(_), Authority(_)) => PairClass::AuthorityUser,
            (Authority(_), Owner(_)) | (Owner(_), Authority(_)) => PairClass::AuthorityOwner,
            (Server, User(_)) | (User(_), Server) => PairClass::ServerUser,
            (Server, Owner(_)) | (Owner(_), Server) => PairClass::ServerOwner,
            (Ca, _) | (_, Ca) => PairClass::Ca,
            _ => PairClass::Other,
        }
    }
}

impl PairClass {
    /// Stable label for metric series (`mabe_wire_bytes_total{pair=...}`).
    pub fn metric_label(&self) -> &'static str {
        match self {
            PairClass::AuthorityUser => "authority_user",
            PairClass::AuthorityOwner => "authority_owner",
            PairClass::ServerUser => "server_user",
            PairClass::ServerOwner => "server_owner",
            PairClass::Ca => "ca",
            PairClass::Other => "other",
        }
    }
}

impl fmt::Display for PairClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PairClass::AuthorityUser => "AA<->User",
            PairClass::AuthorityOwner => "AA<->Owner",
            PairClass::ServerUser => "Server<->User",
            PairClass::ServerOwner => "Server<->Owner",
            PairClass::Ca => "CA<->*",
            PairClass::Other => "other",
        };
        f.write_str(s)
    }
}

/// What happened to a transmission on the (simulated, possibly faulty)
/// wire. Under fault injection a logical message may appear several
/// times in the log — e.g. one `Dropped` entry followed by a
/// `Retransmit` that got through — so byte accounting stays exact:
/// every entry is bandwidth that was actually spent.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Default)]
pub enum Disposition {
    /// Delivered on the first attempt (the no-fault default).
    #[default]
    Delivered,
    /// A delivered retransmission of a previously dropped or corrupted
    /// message.
    Retransmit,
    /// An injected duplicate delivery (bytes spent twice).
    Duplicate,
    /// Lost in transit — bandwidth spent, nothing delivered.
    Dropped,
    /// Arrived corrupted and was rejected by the receiver.
    Corrupted,
}

impl Disposition {
    /// Stable label for metric series.
    pub fn metric_label(&self) -> &'static str {
        match self {
            Disposition::Delivered => "delivered",
            Disposition::Retransmit => "retransmit",
            Disposition::Duplicate => "duplicate",
            Disposition::Dropped => "dropped",
            Disposition::Corrupted => "corrupted",
        }
    }

    /// Whether the payload reached (and was accepted by) the receiver.
    pub fn is_delivered(&self) -> bool {
        matches!(
            self,
            Disposition::Delivered | Disposition::Retransmit | Disposition::Duplicate
        )
    }
}

/// One recorded transmission.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Transmission {
    /// Sender.
    pub from: Endpoint,
    /// Receiver.
    pub to: Endpoint,
    /// Short description of the payload (e.g. `"user secret key"`).
    pub what: String,
    /// Paper-accounted size in bytes.
    pub bytes: usize,
    /// Delivery outcome (always `Delivered` without fault injection).
    pub disposition: Disposition,
}

/// Message/byte accounting broken down by delivery outcome, so the
/// paper's bandwidth numbers stay exact under injected faults:
/// `bytes_sent == bytes_delivered + bytes_lost`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeliveryReport {
    /// Messages put on the wire (all dispositions).
    pub sent: u64,
    /// Messages that reached the receiver (incl. retransmits/duplicates).
    pub delivered: u64,
    /// Injected drops.
    pub dropped: u64,
    /// Delivered retransmissions after a drop or corruption.
    pub retried: u64,
    /// Injected duplicate deliveries.
    pub duplicated: u64,
    /// Corrupted-and-rejected deliveries.
    pub corrupted: u64,
    /// Bandwidth spent, in bytes (every entry).
    pub bytes_sent: usize,
    /// Bytes that arrived intact.
    pub bytes_delivered: usize,
    /// Bytes spent on drops and corrupted deliveries.
    pub bytes_lost: usize,
}

/// Messages the transcript ([`Wire::log`]) retains: the last this many.
pub const TRANSCRIPT_CAPACITY: usize = 4096;

/// Pair classes, in [`PairClass`] order.
const PAIR_CLASSES: [PairClass; 6] = [
    PairClass::AuthorityUser,
    PairClass::AuthorityOwner,
    PairClass::ServerUser,
    PairClass::ServerOwner,
    PairClass::Ca,
    PairClass::Other,
];

/// What the wire has accounted since the last reset.
#[derive(Debug, Default)]
struct Ledger {
    /// The last [`TRANSCRIPT_CAPACITY`] messages; once full, `next` is
    /// the oldest, overwritten by the next send.
    transcript: Vec<Transmission>,
    next: usize,
    /// Messages and bytes per pair class, indexed like
    /// [`PAIR_CLASSES`].
    class_messages: [u64; 6],
    class_bytes: [usize; 6],
    delivery: DeliveryReport,
    /// Bytes per endpoint pair, keyed `(lesser, greater)`.
    pairs: BTreeMap<(Endpoint, Endpoint), usize>,
}

impl Ledger {
    fn account(
        &mut self,
        from: Endpoint,
        to: Endpoint,
        what: impl fmt::Display,
        bytes: usize,
        disposition: Disposition,
    ) {
        let class = PairClass::of(&from, &to) as usize;
        self.class_messages[class] += 1;
        self.class_bytes[class] += bytes;
        let r = &mut self.delivery;
        r.sent += 1;
        r.bytes_sent += bytes;
        match disposition {
            Disposition::Delivered => {}
            Disposition::Retransmit => r.retried += 1,
            Disposition::Duplicate => r.duplicated += 1,
            Disposition::Dropped => r.dropped += 1,
            Disposition::Corrupted => r.corrupted += 1,
        }
        if disposition.is_delivered() {
            r.delivered += 1;
            r.bytes_delivered += bytes;
        } else {
            r.bytes_lost += bytes;
        }
        let pair = if from <= to {
            (from.clone(), to.clone())
        } else {
            (to.clone(), from.clone())
        };
        match self.pairs.get_mut(&pair) {
            Some(total) => *total += bytes,
            None => {
                self.pairs.insert(pair, bytes);
            }
        }
        if self.transcript.len() < TRANSCRIPT_CAPACITY {
            self.transcript.push(Transmission {
                from,
                to,
                what: what.to_string(),
                bytes,
                disposition,
            });
            return;
        }
        // Full: overwrite the oldest entry, reusing its text buffer.
        let slot = &mut self.transcript[self.next];
        self.next = (self.next + 1) % TRANSCRIPT_CAPACITY;
        slot.from = from;
        slot.to = to;
        slot.what.clear();
        let _ = write!(slot.what, "{what}");
        slot.bytes = bytes;
        slot.disposition = disposition;
    }
}

/// The byte-accounting transport. Internally synchronized: concurrent
/// `&self` readers and the sharded control plane account bandwidth on
/// one shared wire; entries land in arrival order.
#[derive(Debug, Default)]
pub struct Wire {
    ledger: parking_lot::Mutex<Ledger>,
}

impl Wire {
    /// Creates an empty wire.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one delivered message — in the local accounts (for the
    /// paper's Table IV reports) and in the global telemetry registry
    /// (per-pair byte and message counters).
    pub fn send(&self, from: Endpoint, to: Endpoint, what: impl fmt::Display, bytes: usize) {
        self.send_with(from, to, what, bytes, Disposition::Delivered);
    }

    /// Records one message with an explicit delivery outcome. Dropped
    /// and corrupted transmissions still spend bandwidth, so they are
    /// logged and counted like any other — only the delivery report
    /// distinguishes them. `what` is formatted into the transcript.
    pub fn send_with(
        &self,
        from: Endpoint,
        to: Endpoint,
        what: impl fmt::Display,
        bytes: usize,
        disposition: Disposition,
    ) {
        let pair = PairClass::of(&from, &to);
        BYTES
            .get(pair as usize, pair.metric_label())
            .add(bytes as u64);
        MESSAGES.get(pair as usize, pair.metric_label()).inc();
        if disposition != Disposition::Delivered {
            DELIVERY
                .get(disposition as usize, disposition.metric_label())
                .inc();
        }
        self.ledger
            .lock()
            .account(from, to, what, bytes, disposition);
    }

    /// The last [`TRANSCRIPT_CAPACITY`] transmissions, oldest first (a
    /// snapshot copy — sends may continue concurrently).
    pub fn log(&self) -> Vec<Transmission> {
        let ledger = self.ledger.lock();
        let (newer, older) = ledger.transcript.split_at(ledger.next);
        older.iter().chain(newer).cloned().collect()
    }

    /// Total bytes transmitted.
    pub fn total_bytes(&self) -> usize {
        self.ledger.lock().delivery.bytes_sent
    }

    /// Aggregated bytes per entity-pair class (Table IV rows): every
    /// class that carried a message.
    pub fn report(&self) -> BTreeMap<PairClass, usize> {
        let ledger = self.ledger.lock();
        PAIR_CLASSES
            .iter()
            .filter(|class| ledger.class_messages[**class as usize] > 0)
            .map(|class| (*class, ledger.class_bytes[*class as usize]))
            .collect()
    }

    /// Message and byte accounting broken down by delivery outcome.
    pub fn delivery_report(&self) -> DeliveryReport {
        self.ledger.lock().delivery
    }

    /// Bytes exchanged between one concrete pair of endpoints
    /// (direction-insensitive).
    pub fn between(&self, a: &Endpoint, b: &Endpoint) -> usize {
        let pair = if a <= b {
            (a.clone(), b.clone())
        } else {
            (b.clone(), a.clone())
        };
        self.ledger.lock().pairs.get(&pair).copied().unwrap_or(0)
    }

    /// Clears the transcript and the totals (e.g. between experiment
    /// phases).
    pub fn reset(&self) {
        *self.ledger.lock() = Ledger::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn user(n: &str) -> Endpoint {
        Endpoint::User(Uid::new(n))
    }

    fn aa(n: &str) -> Endpoint {
        Endpoint::Authority(AuthorityId::new(n))
    }

    #[test]
    fn records_and_totals() {
        let w = Wire::new();
        w.send(aa("Med"), user("alice"), "secret key", 130);
        w.send(Endpoint::Server, user("alice"), "ciphertext", 500);
        assert_eq!(w.total_bytes(), 630);
        assert_eq!(w.log().len(), 2);
    }

    #[test]
    fn pair_classes() {
        let w = Wire::new();
        w.send(aa("Med"), user("alice"), "sk", 10);
        w.send(user("alice"), aa("Med"), "req", 5);
        w.send(
            Endpoint::Server,
            Endpoint::Owner(OwnerId::new("o")),
            "ui-ack",
            7,
        );
        w.send(Endpoint::Ca, user("alice"), "uid", 3);
        let report = w.report();
        assert_eq!(report[&PairClass::AuthorityUser], 15);
        assert_eq!(report[&PairClass::ServerOwner], 7);
        assert_eq!(report[&PairClass::Ca], 3);
        assert!(!report.contains_key(&PairClass::ServerUser));
    }

    #[test]
    fn between_is_symmetric() {
        let w = Wire::new();
        w.send(aa("Med"), user("a"), "x", 10);
        w.send(user("a"), aa("Med"), "y", 4);
        assert_eq!(w.between(&aa("Med"), &user("a")), 14);
        assert_eq!(w.between(&user("a"), &aa("Med")), 14);
        assert_eq!(w.between(&aa("Med"), &user("b")), 0);
    }

    #[test]
    fn reset_clears() {
        let w = Wire::new();
        w.send(aa("Med"), user("a"), "x", 10);
        w.reset();
        assert_eq!(w.total_bytes(), 0);
        assert!(w.log().is_empty());
    }

    #[test]
    fn endpoint_display() {
        assert_eq!(user("a").to_string(), "User:a");
        assert_eq!(Endpoint::Server.to_string(), "Server");
        assert_eq!(PairClass::AuthorityUser.to_string(), "AA<->User");
    }

    #[test]
    fn delivery_report_accounts_every_byte() {
        let w = Wire::new();
        // A message is dropped, retransmitted, then an unrelated one is
        // duplicated and a third arrives corrupted.
        w.send_with(aa("M"), user("a"), "uk", 85, Disposition::Dropped);
        w.send_with(aa("M"), user("a"), "uk", 85, Disposition::Retransmit);
        w.send(Endpoint::Server, user("a"), "ct", 500);
        w.send_with(
            Endpoint::Server,
            user("a"),
            "ct",
            500,
            Disposition::Duplicate,
        );
        w.send_with(aa("M"), user("b"), "uk", 85, Disposition::Corrupted);

        let r = w.delivery_report();
        assert_eq!(r.sent, 5);
        assert_eq!(r.delivered, 3);
        assert_eq!(r.dropped, 1);
        assert_eq!(r.retried, 1);
        assert_eq!(r.duplicated, 1);
        assert_eq!(r.corrupted, 1);
        assert_eq!(r.bytes_sent, 85 + 85 + 500 + 500 + 85);
        assert_eq!(r.bytes_delivered, 85 + 500 + 500);
        assert_eq!(r.bytes_lost, 85 + 85);
        assert_eq!(r.bytes_sent, r.bytes_delivered + r.bytes_lost);
        // The classic report still counts total bandwidth.
        assert_eq!(w.total_bytes(), r.bytes_sent);
    }

    #[test]
    fn default_sends_are_delivered() {
        let w = Wire::new();
        w.send(aa("M"), user("a"), "sk", 10);
        let r = w.delivery_report();
        assert_eq!(r.sent, 1);
        assert_eq!(r.delivered, 1);
        assert_eq!(r.dropped + r.retried + r.duplicated + r.corrupted, 0);
        assert!(w.log()[0].disposition.is_delivered());
    }
}
