//! The wire's transcript is bounded; its accounting is not.
//!
//! Every simulated message is accounted on the wire, reads included, so
//! a transcript that kept every message would grow a server's memory
//! with its traffic. The transcript keeps the last
//! `TRANSCRIPT_CAPACITY` messages, while the Table IV report, the
//! delivery report, the total and the per-pair bytes stay exact over
//! every message ever sent.

use mabe_cloud::{CloudSystem, Disposition, Endpoint, PairClass, TRANSCRIPT_CAPACITY};

const READS: usize = 10_000;

#[test]
fn ten_thousand_reads_keep_a_bounded_transcript_and_exact_totals() {
    let sys = CloudSystem::new(0x7a1c);
    sys.add_authority("MedOrg", &["Doctor"]).unwrap();
    let owner = sys.add_owner("hospital").unwrap();
    let alice = sys.add_user("alice").unwrap();
    sys.grant(&alice, &["Doctor@MedOrg"]).unwrap();
    sys.publish(
        &owner,
        "chart",
        &[("data", b"notes".as_slice(), "Doctor@MedOrg")],
    )
    .unwrap();

    let wire = sys.wire();
    let before = wire.delivery_report();
    let server_user = || wire.report().get(&PairClass::ServerUser).copied();
    let before_server_user = server_user().unwrap_or(0);
    let user = Endpoint::User(alice.clone());
    let before_between = wire.between(&Endpoint::Server, &user);
    let download = sys.server().fetch(&owner, "chart").unwrap().components[0].stored_size();
    for _ in 0..READS {
        assert_eq!(sys.read(&alice, &owner, "chart", "data").unwrap(), b"notes");
    }

    let log = wire.log();
    assert_eq!(
        log.len(),
        TRANSCRIPT_CAPACITY,
        "the transcript keeps the last N"
    );
    let last = log.last().unwrap();
    assert_eq!(
        (&last.from, &last.to, last.what.as_str(), last.bytes),
        (&Endpoint::Server, &user, "component chart/data", download),
        "the newest entry is the last read's download"
    );
    assert!(log.iter().all(|t| t.disposition == Disposition::Delivered));

    let after = wire.delivery_report();
    let read_bytes = READS * download;
    assert_eq!(after.sent, before.sent + READS as u64);
    assert_eq!(after.delivered, before.delivered + READS as u64);
    assert_eq!(after.bytes_sent, before.bytes_sent + read_bytes);
    assert_eq!(wire.total_bytes(), after.bytes_sent);
    assert_eq!(
        wire.between(&user, &Endpoint::Server),
        before_between + read_bytes
    );
    assert_eq!(server_user(), Some(before_server_user + read_bytes));
    assert_eq!(
        wire.report().values().sum::<usize>(),
        after.bytes_sent,
        "the per-class report covers every byte"
    );

    wire.reset();
    assert!(wire.log().is_empty());
    assert_eq!(wire.total_bytes(), 0);
    assert_eq!(wire.between(&user, &Endpoint::Server), 0);
}
