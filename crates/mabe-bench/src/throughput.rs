//! The concurrent read-throughput workload, shared between the
//! `throughput` binary and the observability tests.
//!
//! One measurement opens a fresh [`DurableSystem`] over an in-memory
//! [`SimDisk`]: one authority, one owner, four records under
//! `A@Org`, `clients` granted readers and one granted scapegoat. Then
//! `clients` threads each make `reads` calls to [`DurableSystem::read`],
//! round-robin over the records, while the calling thread eagerly
//! revokes the scapegoat. A read is ok only if it returns its record's
//! plaintext.
//!
//! Set-up and the revocation run under a `bench.throughput` trace
//! root; each client roots its own `bench.client` trace. The wide-event
//! assembler reads a second op span open in one trace as a nested
//! delegation, so reads sharing one trace would lose their wide events.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use mabe_cloud::DurableSystem;
use mabe_store::SimDisk;

/// Records the clients read, round-robin.
const RECORDS: usize = 4;

/// One measured row of the scaling curve.
pub struct Row {
    /// Concurrent reading clients.
    pub clients: usize,
    /// Reads each client made.
    pub reads: u64,
    /// Reads that returned their record's plaintext.
    pub ok_reads: u64,
    /// Reads that returned an error.
    pub failed_reads: u64,
    /// Reads that returned another plaintext (always 0: [`measure`]
    /// panics first).
    pub wrong_reads: u64,
    /// From the clients' start to the last client's last read.
    pub elapsed: Duration,
}

impl Row {
    /// Successful reads per second of [`Row::elapsed`].
    pub fn ok_reads_per_s(&self) -> f64 {
        self.ok_reads as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

fn record(i: usize) -> String {
    format!("rec-{i}")
}

fn payload(i: usize) -> Vec<u8> {
    format!("payload-{i}").into_bytes()
}

/// Runs one measurement at `clients` clients making `reads` reads each,
/// on a freshly built durable world.
///
/// # Panics
///
/// Panics if the world fails to build, the revocation fails, or any
/// read returns a wrong plaintext.
pub fn measure(clients: usize, reads: u64) -> Row {
    let bench_span =
        mabe_trace::Span::root("bench.throughput").detail(format_args!("clients={clients}"));
    let (ds, _) = DurableSystem::open(SimDisk::unfaulted(), 0x7412).expect("fresh store opens");
    ds.add_authority("Org", &["A"]).expect("fresh authority");
    let owner = ds.add_owner("owner").expect("fresh owner");
    for i in 0..RECORDS {
        ds.publish(&owner, &record(i), &[("x", &payload(i), "A@Org")])
            .expect("publish succeeds");
    }
    let grant = |name: String| {
        let uid = ds.add_user(&name).expect("fresh user");
        ds.grant(&uid, &["A@Org"]).expect("managed attribute");
        uid
    };
    let readers: Vec<_> = (0..clients).map(|i| grant(format!("r{i}"))).collect();
    let scapegoat = grant("scapegoat".into());

    let (ok, failed, wrong) = (AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0));
    let start = Barrier::new(clients + 1);
    let (began, last) = std::thread::scope(|scope| {
        let handles: Vec<_> = readers
            .iter()
            .map(|uid| {
                let (ds, owner, start) = (&ds, &owner, &start);
                let (ok, failed, wrong) = (&ok, &failed, &wrong);
                scope.spawn(move || {
                    start.wait();
                    let _client = mabe_trace::Span::root("bench.client");
                    for n in 0..reads {
                        let i = n as usize % RECORDS;
                        let counter = match ds.read(uid, owner, &record(i), "x") {
                            Ok(data) if data == payload(i) => ok,
                            Ok(_) => wrong,
                            Err(_) => failed,
                        };
                        counter.fetch_add(1, Ordering::Relaxed);
                    }
                    Instant::now()
                })
            })
            .collect();
        start.wait();
        let began = Instant::now();
        ds.revoke(&scapegoat, "A@Org")
            .expect("the scapegoat's revocation succeeds");
        let last = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .max();
        (began, last)
    });
    drop(bench_span);
    let row = Row {
        clients,
        reads,
        ok_reads: ok.into_inner(),
        failed_reads: failed.into_inner(),
        wrong_reads: wrong.into_inner(),
        elapsed: last.map_or(Duration::ZERO, |end| end.saturating_duration_since(began)),
    };
    assert_eq!(row.wrong_reads, 0, "a read returned a wrong plaintext");
    row
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_clients_read_every_record_across_the_live_revocation() {
        let reads = 4;
        let row = measure(2, reads);
        assert_eq!(row.ok_reads, 2 * reads);
        assert_eq!(row.failed_reads, 0);
        assert_eq!(row.wrong_reads, 0);
        assert!(row.ok_reads_per_s() > 0.0);
    }
}
