//! Typed-keyspace bench: the three costs the schema-table refactor is
//! on the hook for.
//!
//! 1. **Range-scan throughput** — hydration reads each user's keys and
//!    grants as a prefix scan of the folded keyspace. A `(aid, object,
//!    component)` table is loaded through the journaled typed-store
//!    path and scanned by its leading-component prefix; the number
//!    reported is rows streamed per second.
//! 2. **Hot-key cache hit ratio under Zipf** — readers in the wild are
//!    skewed; a Zipf(s≈1.07) workload over the published records must
//!    be served ≥90% from the content-key cache (the acceptance bar),
//!    with the miss floor being one decrypt per distinct record.
//! 3. **Reopen latency vs table count** — per-table checkpoint sections
//!    mean the open path decodes a section per table; reopen must stay
//!    linear in total rows, not blow up with the table count.
//!
//! Usage: `keyspace [rows_per_authority]` (default 1000). With
//! `MABE_METRICS_DIR` set the rows are dumped as `BENCH_keyspace.json`
//! alongside the registry snapshot.

use std::io::Write as _;
use std::time::Instant;

use mabe_cloud::CloudSystem;
use mabe_store::{define_table, Frame, FrameOp, Keyspace, Schema, SimDisk, TypedStore};

define_table!(
    /// Bench table keyed `(aid, object, component)`, so each leading
    /// component's rows are one contiguous prefix.
    Components: 1, "components",
    key(aid: str, object: str, component: u64)
);

const AUTHORITIES: usize = 8;
const COMPONENTS: u64 = 4;
const ZIPF_RECORDS: usize = 256;
const ZIPF_READS: usize = 5_000;
const ZIPF_S: f64 = 1.07;

/// Deterministic xorshift64* — the bench needs skewed sampling, not
/// cryptographic randomness, and zero new dependencies.
struct XorShift(u64);

impl XorShift {
    fn next_f64(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
    }
}

struct RangeRow {
    rows_total: usize,
    scans: usize,
    rows_scanned: usize,
    load_ms: f64,
    rows_per_s: f64,
}

/// Journals one frame batch and applies it to `ks` — the apply-then-
/// commit order the durable cloud plane follows.
fn journal(ts: &TypedStore<SimDisk>, ks: &mut Keyspace, frames: &[Frame]) {
    let seq = ts.stage_frames(frames);
    ks.apply(frames);
    ts.commit(seq).expect("journaled load");
}

/// Loads `AUTHORITIES * per_authority * COMPONENTS` rows through the
/// journaled path (batched frames, one sync per object) and then scans
/// authority prefixes round-robin.
fn range_scan(per_authority: usize) -> RangeRow {
    let (ts, _) = TypedStore::open(SimDisk::unfaulted()).expect("fresh store");
    let mut ks = Keyspace::new();
    ks.register::<Components>();

    let load = Instant::now();
    for a in 0..AUTHORITIES {
        for o in 0..per_authority {
            let frames: Vec<Frame> = (0..COMPONENTS)
                .map(|c| {
                    Frame::put::<Components>(
                        &(format!("aid-{a:02}"), format!("obj-{o:05}"), c),
                        &vec![0xC7; 96],
                    )
                })
                .collect();
            journal(&ts, &mut ks, &frames);
        }
    }
    let load_ms = load.elapsed().as_secs_f64() * 1e3;
    let rows_total = ks.rows(Components::ID);

    let scans = AUTHORITIES * 8;
    let mut rows_scanned = 0usize;
    let scan = Instant::now();
    for s in 0..scans {
        let mut prefix = Vec::new();
        mabe_store::key_str(&mut prefix, &format!("aid-{:02}", s % AUTHORITIES));
        let hits = ks.range::<Components>(&prefix).expect("scan decodes");
        rows_scanned += hits.len();
        assert_eq!(hits.len(), per_authority * COMPONENTS as usize);
        assert!(
            hits.iter()
                .all(|((aid, _, _), _)| { *aid == format!("aid-{:02}", s % AUTHORITIES) }),
            "prefix scan leaked a foreign authority"
        );
    }
    let scan_s = scan.elapsed().as_secs_f64();
    RangeRow {
        rows_total,
        scans,
        rows_scanned,
        load_ms,
        rows_per_s: rows_scanned as f64 / scan_s.max(1e-9),
    }
}

struct ZipfRow {
    records: usize,
    reads: usize,
    hits: u64,
    misses: u64,
    hit_ratio: f64,
}

/// Zipf-skewed reads over the cloud plane's published records; the
/// content-key cache must absorb the skew.
fn zipf_cache() -> ZipfRow {
    let sys = CloudSystem::new(0x5ca1e);
    sys.add_authority("Org", &["A"]).expect("authority");
    let owner = sys.add_owner("owner").expect("owner");
    let bob = sys.add_user("bob").expect("user");
    sys.grant(&bob, &["A@Org"]).expect("grant");
    for r in 0..ZIPF_RECORDS {
        sys.publish(
            &owner,
            &format!("rec-{r}"),
            &[("f", format!("body-{r}").as_bytes(), "A@Org")],
        )
        .expect("publish");
    }

    // Inverse-CDF Zipf over the record ranks.
    let weights: Vec<f64> = (1..=ZIPF_RECORDS)
        .map(|rank| 1.0 / (rank as f64).powf(ZIPF_S))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
    let sample = |rng: &mut XorShift| -> usize {
        let mut u = rng.next_f64() * total;
        for (i, w) in weights.iter().enumerate() {
            u -= w;
            if u <= 0.0 {
                return i;
            }
        }
        ZIPF_RECORDS - 1
    };

    for _ in 0..ZIPF_READS {
        let r = sample(&mut rng);
        let got = sys
            .read(&bob, &owner, &format!("rec-{r}"), "f")
            .expect("reader never errors");
        assert_eq!(got, format!("body-{r}").into_bytes(), "corrupt hot read");
    }
    let stats = sys.cache_stats();
    ZipfRow {
        records: ZIPF_RECORDS,
        reads: ZIPF_READS,
        hits: stats.content_hits,
        misses: stats.content_misses,
        hit_ratio: stats.content_hits as f64
            / (stats.content_hits + stats.content_misses).max(1) as f64,
    }
}

struct ReopenRow {
    tables: u16,
    rows: usize,
    reopen_ms: f64,
}

/// Fixed total row count spread over a growing table count: the
/// per-table snapshot sections must not make reopen scale with the
/// number of tables.
fn reopen(tables: u16, total_rows: usize) -> ReopenRow {
    let (ts, _) = TypedStore::open(SimDisk::unfaulted()).expect("fresh store");
    let mut ks = Keyspace::new();
    let per_table = total_rows / tables as usize;
    for t in 0..tables {
        let frames: Vec<Frame> = (0..per_table)
            .map(|i| Frame {
                table: t,
                op: FrameOp::Put,
                key: format!("key-{i:06}").into_bytes(),
                value: vec![0xA5; 64],
            })
            .collect();
        journal(&ts, &mut ks, &frames);
    }
    ts.checkpoint_keyspace(&ks, None)
        .expect("per-table snapshot");
    let disk = ts.into_store();

    let start = Instant::now();
    let (_, open) = TypedStore::open(disk).expect("reopen");
    let reopen_ms = start.elapsed().as_secs_f64() * 1e3;
    let rows = open.keyspace.total_rows();
    assert_eq!(rows, per_table * tables as usize);
    ReopenRow {
        tables,
        rows,
        reopen_ms,
    }
}

fn emit_json(range: &RangeRow, zipf: &ZipfRow, reopens: &[ReopenRow]) {
    let Some(dir) = std::env::var_os("MABE_METRICS_DIR") else {
        return;
    };
    let reopen_rows: Vec<String> = reopens
        .iter()
        .map(|r| {
            format!(
                "{{\"tables\": {}, \"rows\": {}, \"reopen_ms\": {:.3}}}",
                r.tables, r.rows, r.reopen_ms
            )
        })
        .collect();
    let doc = format!(
        "{{\n\"bench\": \"keyspace\",\n\
         \"range_rows_total\": {},\n\"range_scans\": {},\n\
         \"range_rows_per_s\": {:.1},\n\"range_load_ms\": {:.3},\n\
         \"zipf_records\": {},\n\"zipf_reads\": {},\n\
         \"zipf_hits\": {},\n\"zipf_misses\": {},\n\
         \"zipf_hit_ratio\": {:.4},\n\"reopen\": [\n{}\n]}}\n",
        range.rows_total,
        range.scans,
        range.rows_per_s,
        range.load_ms,
        zipf.records,
        zipf.reads,
        zipf.hits,
        zipf.misses,
        zipf.hit_ratio,
        reopen_rows.join(",\n")
    );
    let path = std::path::Path::new(&dir).join("BENCH_keyspace.json");
    let write = std::fs::File::create(&path).and_then(|mut f| f.write_all(doc.as_bytes()));
    match write {
        Ok(()) => eprintln!("# wrote {}", path.display()),
        Err(e) => eprintln!("# BENCH_keyspace.json failed: {e}"),
    }
}

fn main() {
    let per_authority: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .filter(|&n| n >= 10)
        .unwrap_or(1000);

    eprintln!(
        "# keyspace: {AUTHORITIES} authorities x {per_authority} objects x {COMPONENTS} \
         components; zipf s={ZIPF_S} over {ZIPF_RECORDS} records"
    );

    let range = range_scan(per_authority);
    println!("section\tmetric\tvalue");
    println!("range\trows_total\t{}", range.rows_total);
    println!("range\trows_scanned\t{}", range.rows_scanned);
    println!("range\trows_per_s\t{:.1}", range.rows_per_s);
    println!("range\tload_ms\t{:.3}", range.load_ms);

    let zipf = zipf_cache();
    println!("zipf\thits\t{}", zipf.hits);
    println!("zipf\tmisses\t{}", zipf.misses);
    println!("zipf\thit_ratio\t{:.4}", zipf.hit_ratio);
    assert!(
        zipf.hit_ratio >= 0.90,
        "zipf hit ratio below the 90% acceptance bar (got {:.4})",
        zipf.hit_ratio
    );

    let total_rows = 4096;
    let reopens: Vec<ReopenRow> = [4u16, 16, 64]
        .into_iter()
        .map(|t| {
            let row = reopen(t, total_rows);
            println!("reopen\ttables_{}_ms\t{:.3}", row.tables, row.reopen_ms);
            row
        })
        .collect();
    // Same total rows across every point: 16x the tables must not cost
    // more than a small constant factor on top of row decoding.
    let spread = reopens.last().expect("measured").reopen_ms
        / reopens.first().expect("measured").reopen_ms.max(1e-9);
    eprintln!("# reopen spread 4->64 tables (same rows): {spread:.2}x");
    assert!(
        spread <= 8.0,
        "reopen latency scales with table count, not rows ({spread:.2}x)"
    );

    emit_json(&range, &zipf, &reopens);
    mabe_bench::metrics::emit("keyspace");
    mabe_obs::profiler::emit("keyspace");
}
