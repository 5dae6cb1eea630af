//! Extension experiment: read throughput of the durable serving path
//! under concurrency — client threads reading through
//! `DurableSystem::read` while a scapegoat's eager revocation lands (see
//! `mabe_bench::throughput`). Only reads that return their record's
//! plaintext count toward `ok_reads_per_s`.
//!
//! With `MABE_METRICS_DIR` set the rows are dumped as
//! `BENCH_throughput.json` alongside the standard registry snapshot;
//! with `MABE_OBS_DIR` set the span profiler writes
//! `profile_throughput.folded` (flamegraph.pl / inferno input).
//!
//! Usage: `throughput [clients] [reads_per_client]` (defaults 4 and
//! 25). Client counts 1, 2, 4, … and `clients` itself are each
//! measured, so the dump records a scaling curve, not one point.

use std::io::Write as _;

use mabe_bench::throughput::{measure, Row};

fn emit_json(rows: &[Row]) {
    let Some(dir) = std::env::var_os("MABE_METRICS_DIR") else {
        return;
    };
    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"clients\": {}, \"reads\": {}, \"ok_reads\": {}, \"failed_reads\": {}, \
                 \"wrong_reads\": {}, \"elapsed_ms\": {:.3}, \"ok_reads_per_s\": {:.1}}}",
                r.clients,
                r.reads,
                r.ok_reads,
                r.failed_reads,
                r.wrong_reads,
                r.elapsed.as_secs_f64() * 1e3,
                r.ok_reads_per_s()
            )
        })
        .collect();
    let doc = format!(
        "{{\n\"bench\": \"throughput\",\n\"rows\": [\n{}\n]}}\n",
        body.join(",\n")
    );
    let path = std::path::Path::new(&dir).join("BENCH_throughput.json");
    let write = std::fs::File::create(&path).and_then(|mut f| f.write_all(doc.as_bytes()));
    match write {
        Ok(()) => eprintln!("# wrote {}", path.display()),
        Err(e) => eprintln!("# BENCH_throughput.json failed: {e}"),
    }
}

fn print_row(row: &Row) {
    println!(
        "{}\t{}\t{}\t{}\t{}\t{:.3}\t{:.1}",
        row.clients,
        row.reads,
        row.ok_reads,
        row.failed_reads,
        row.wrong_reads,
        row.elapsed.as_secs_f64() * 1e3,
        row.ok_reads_per_s()
    );
}

fn main() {
    let mut args = std::env::args().skip(1);
    let clients_max: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(4);
    let reads: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(25);

    println!("clients\treads\tok_reads\tfailed_reads\twrong_reads\telapsed_ms\tok_reads_per_s");
    let mut rows = Vec::new();
    let mut n = 1;
    while n <= clients_max {
        let row = measure(n, reads);
        print_row(&row);
        rows.push(row);
        n *= 2;
    }
    if rows.last().map(|r| r.clients) != Some(clients_max) {
        let row = measure(clients_max, reads);
        print_row(&row);
        rows.push(row);
    }
    emit_json(&rows);
    mabe_bench::metrics::emit("throughput");
    mabe_obs::profiler::emit("throughput");
}
