//! The traced run: the same seeded op sequence, with spans owned by the
//! benchmark around every call it makes, exact per-op counts, and probe
//! calls that price each layer's unit of work on the workload's own
//! inputs. Busy time per layer is count × unit cost, except checkpoints
//! and reopen, which are measured directly; what no layer explains is the
//! residual. Nothing here reads the program's own spans or profiles.

use std::fmt::Write as _;
use std::process::Command;
use std::time::Instant;

use mabe_bench::workload::{and_policy, OurWorld, Shape as WorldShape};
use mabe_core::{open_component_with_kem, seal_envelope};
use mabe_math::{generator_mul, pairing, Fr, G1Affine, Gt, G1};
use mabe_policy::{AccessStructure, Attribute};
use mabe_store::TypedStore;
use mabe_telemetry::OpSnapshot;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::counts::Counts;
use crate::plan::{Kind, Op, Plan, Workload};
use crate::run::E2e;
use crate::stats::median;
use crate::world::{copy_disk, Outcome, Violation, World, LABEL};

/// What the traced run needs from the untraced run of the same seed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Reference {
    /// Sum of the untraced op calls, seconds.
    pub wall_s: f64,
    /// Counts over the untraced timed phase.
    pub counts: Counts,
    /// Untraced median revoke latency, ms (0 without revocations).
    pub revoke_ack_p50_ms: f64,
    /// Untraced median reopen of the crashed store, seconds.
    pub reopen_s: f64,
}

impl Reference {
    /// The untraced run's summary.
    pub fn from_e2e(e2e: &E2e) -> Reference {
        Reference {
            wall_s: e2e.wall_s(),
            counts: e2e.counts,
            revoke_ack_p50_ms: e2e.latency_ms(Kind::Revoke, 0.5).unwrap_or(0.0),
            reopen_s: median(&e2e.reopen_s).unwrap_or(0.0),
        }
    }

    /// One report line the traced run parses back.
    pub fn to_line(&self) -> String {
        format!(
            "reference wall_s={} revoke_ack_p50_ms={} reopen_s={} {}",
            self.wall_s,
            self.revoke_ack_p50_ms,
            self.reopen_s,
            self.counts.to_line()
        )
    }

    /// Parses [`Reference::to_line`] output.
    pub fn from_line(line: &str) -> Option<Reference> {
        let rest = line.strip_prefix("reference ")?;
        let mut parts = rest.splitn(4, ' ');
        let mut field = |name: &str| -> Option<f64> {
            parts
                .next()?
                .strip_prefix(name)?
                .strip_prefix('=')?
                .parse()
                .ok()
        };
        let wall_s = field("wall_s")?;
        let revoke_ack_p50_ms = field("revoke_ack_p50_ms")?;
        let reopen_s = field("reopen_s")?;
        let counts = Counts::from_line(parts.next()?)?;
        Some(Reference {
            wall_s,
            counts,
            revoke_ack_p50_ms,
            reopen_s,
        })
    }
}

/// Runs this program untraced on the same arguments in a child process
/// (a fresh process, since the program's registries are process-wide)
/// and reads back its reference line.
///
/// # Errors
///
/// The child failing or printing no reference line.
pub fn reference(workload: Workload, seed: u64, seconds: u64) -> Result<Reference, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload.name(), "--trace", "0"])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .output()
        .map_err(|e| e.to_string())?;
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    if !out.status.success() {
        return Err(format!("exited with {}", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .find_map(Reference::from_line)
        .ok_or_else(|| "no reference line".to_owned())
}

/// One benchmark-owned span.
struct SpanRecord {
    parent: Option<usize>,
    op: usize,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// Spans kept in memory and written out when the run ends.
struct Spans {
    t0: Instant,
    records: Vec<SpanRecord>,
}

impl Spans {
    fn open(&mut self, name: &'static str, parent: Option<usize>, op: usize) -> usize {
        let start_ns = self.t0.elapsed().as_nanos() as u64;
        self.records.push(SpanRecord {
            parent,
            op,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.records.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.records[id].end_ns = self.t0.elapsed().as_nanos() as u64;
    }

    fn in_span<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: usize,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, op);
        let out = f();
        self.close(id);
        out
    }

    /// JSON lines: `{"id", "parent", "op", "name", "start_ns", "end_ns"}`.
    fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.records.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"op\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.op, s.name, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Per op kind: exact counts and call times.
#[derive(Clone, Debug, Default)]
struct KindStats {
    attempted: usize,
    failed: usize,
    /// Call latencies, seconds.
    latencies: Vec<f64>,
    /// Whether the generation advanced during each op.
    checkpointed: Vec<bool>,
    counts: Counts,
    /// Components a revocation had to re-encrypt, summed.
    components: u64,
}

impl KindStats {
    fn time_s(&self) -> f64 {
        self.latencies.iter().fold(0.0, |sum, l| sum + l)
    }

    /// Seconds the ops that advanced the generation spent beyond the
    /// kind's median op without a checkpoint.
    fn checkpoint_s(&self) -> (f64, usize) {
        let plain: Vec<f64> = self
            .latencies
            .iter()
            .zip(&self.checkpointed)
            .filter(|(_, c)| !**c)
            .map(|(l, _)| *l)
            .collect();
        let typical = median(&plain).unwrap_or(0.0);
        let carrying: Vec<f64> = self
            .latencies
            .iter()
            .zip(&self.checkpointed)
            .filter(|(_, c)| **c)
            .map(|(l, _)| *l)
            .collect();
        (
            carrying
                .iter()
                .fold(0.0, |sum, l| sum + (l - typical).max(0.0)),
            carrying.len(),
        )
    }
}

/// `mabe-math` unit costs, microseconds.
#[derive(Clone, Copy, Debug, Default)]
struct MathUnits {
    pairing_us: f64,
    /// The scheme's G1 multiplications mix variable-base ones (public
    /// keys, update information) with fixed-base ones on the generator,
    /// in about equal numbers when encrypting; the counter does not tell
    /// them apart, so the unit cost is the mean of the two.
    g1_mul_us: f64,
    gt_pow_us: f64,
}

impl MathUnits {
    /// Microseconds of `mabe-math` work for `ops`.
    fn math_us(&self, ops: &OpSnapshot) -> f64 {
        ops.pairings as f64 * self.pairing_us
            + ops.g1_muls as f64 * self.g1_mul_us
            + ops.gt_pows as f64 * self.gt_pow_us
    }
}

/// Samples the `mabe-math` unit costs between ops all through the run,
/// so that they follow the host's speed as the ops met it: on a shared
/// VM that speed drifts by tens of percent within a minute.
struct MathSampler {
    a: G1Affine,
    b: G1Affine,
    g: G1,
    k: Fr,
    t: Gt,
    sum_s: [f64; 3],
    samples: usize,
}

impl MathSampler {
    fn new(seed: u64) -> MathSampler {
        let mut rng = StdRng::seed_from_u64(seed);
        MathSampler {
            a: G1Affine::from(G1::random(&mut rng)),
            b: G1Affine::from(G1::random(&mut rng)),
            g: G1::random(&mut rng),
            k: Fr::random(&mut rng),
            t: Gt::random(&mut rng),
            sum_s: [0.0; 3],
            samples: 0,
        }
    }

    /// Times one pairing, one variable- and one fixed-base G1
    /// multiplication, and one G_T exponentiation.
    fn sample(&mut self) {
        let t0 = Instant::now();
        std::hint::black_box(pairing(&self.a, &self.b));
        let t1 = Instant::now();
        std::hint::black_box(self.g.mul(&self.k));
        std::hint::black_box(generator_mul(&self.k));
        let t2 = Instant::now();
        std::hint::black_box(self.t.pow(&self.k));
        let t3 = Instant::now();
        self.sum_s[0] += (t1 - t0).as_secs_f64();
        self.sum_s[1] += (t2 - t1).as_secs_f64() / 2.0;
        self.sum_s[2] += (t3 - t2).as_secs_f64();
        self.samples += 1;
    }

    fn units(&self) -> MathUnits {
        let mean_us = |sum: f64| sum / self.samples.max(1) as f64 * 1e6;
        MathUnits {
            pairing_us: mean_us(self.sum_s[0]),
            g1_mul_us: mean_us(self.sum_s[1]),
            gt_pow_us: mean_us(self.sum_s[2]),
        }
    }
}

/// Unit costs from probe calls after the run.
#[derive(Clone, Copy, Debug, Default)]
struct Probes {
    /// Math unit costs at probe time, to take the math out of the
    /// decrypt, seal and re-encrypt probes.
    math: MathUnits,
    lsss_solve_us: f64,
    decrypt_ms: f64,
    decrypt_ops: OpSnapshot,
    seal_ms: f64,
    seal_ops: OpSnapshot,
    reencrypt_us: f64,
    reencrypt_ops: OpSnapshot,
    aead_open_us: f64,
    span_pair_ns: f64,
}

/// Median seconds per call of `f`, over `rounds` rounds of `batch` calls.
fn per_call_s(rounds: usize, batch: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..rounds)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..batch {
                f();
            }
            start.elapsed().as_secs_f64() / batch as f64
        })
        .collect();
    median(&times).unwrap_or(0.0)
}

/// Prices each layer's unit of work on a world of the workload's shape.
fn probe(plan: &Plan) -> Probes {
    let shape = WorldShape {
        authorities: plan.policies[0].len(),
        attrs_per_authority: plan.shape.attrs,
    };
    let mut world = OurWorld::new(shape, plan.program_seed);
    let mut p = Probes::default();

    let mut sampler = MathSampler::new(plan.program_seed);
    for _ in 0..16 {
        sampler.sample();
    }
    p.math = sampler.units();

    let policy = and_policy(shape);
    let access = AccessStructure::from_policy(&policy).expect("an AND policy is injective");
    let held: std::collections::BTreeSet<Attribute> =
        policy.leaves().into_iter().cloned().collect();
    p.lsss_solve_us = per_call_s(7, 32, || {
        std::hint::black_box(access.reconstruction_coefficients(&held));
    }) * 1e6;

    let ct = world.encrypt_once();
    (_, p.decrypt_ops) = mabe_telemetry::measure(|| world.decrypt_once(&ct));
    p.decrypt_ms = per_call_s(5, 1, || {
        std::hint::black_box(world.decrypt_once(&ct));
    }) * 1e3;

    let payload = vec![0x5a; plan.shape.payload];
    let specs = [(LABEL, payload.as_slice(), &policy)];
    let (envelope, seal_ops) = mabe_telemetry::measure(|| {
        seal_envelope(&mut world.owner, &specs, &mut world.rng).expect("keys learned")
    });
    p.seal_ops = seal_ops;
    let mut seals = Vec::new();
    for _ in 0..5 {
        let start = Instant::now();
        let sealed = seal_envelope(&mut world.owner, &specs, &mut world.rng).expect("keys learned");
        seals.push(start.elapsed().as_secs_f64());
        std::hint::black_box(sealed);
    }
    p.seal_ms = median(&seals).unwrap_or(0.0) * 1e3;

    let component = &envelope.components[0];
    let kem = world.decrypt_once(&component.key_ct);
    p.aead_open_us = per_call_s(7, 16, || {
        std::hint::black_box(open_component_with_kem(component, &kem).expect("own key"));
    }) * 1e6;

    let victim = world.authorities[0]
        .attributes()
        .iter()
        .next()
        .expect("an authority has attributes")
        .clone();
    let uid = world.user_pk.uid.clone();
    let event = world.authorities[0]
        .revoke_attribute(&uid, &victim, &mut world.rng)
        .expect("the user holds the attribute");
    let uk = event.update_keys[world.owner.id()].clone();
    world.owner.apply_update_key(&uk).expect("versions chain");
    let ui = world
        .owner
        .update_info_for(ct.id, &uk.aid, uk.from_version, uk.to_version)
        .expect("the owner kept the ciphertext");
    (_, p.reencrypt_ops) = mabe_telemetry::measure(|| {
        let mut c = ct.clone();
        mabe_core::reencrypt(&mut c, &uk, &ui).expect("valid update")
    });
    p.reencrypt_us = per_call_s(5, 4, || {
        let mut c = ct.clone();
        mabe_core::reencrypt(&mut c, &uk, &ui).expect("valid update");
        std::hint::black_box(c);
    }) * 1e6;

    p.span_pair_ns = per_call_s(5, 200, || {
        let _histogram =
            mabe_telemetry::Span::with_labels("perfbench_probe", &[("op", "span_pair")]);
        let _trace = mabe_trace::Span::child("perfbench.probe");
    }) * 1e9;
    p
}

/// The program method an op calls, as a span name.
fn method(op: &Op) -> &'static str {
    match op {
        Op::Read { .. } | Op::Probe { .. } => "DurableSystem::read",
        Op::Publish { .. } => "DurableSystem::publish",
        Op::Revoke { .. } => "DurableSystem::revoke",
        Op::Grant { .. } => "DurableSystem::grant",
        Op::Drain => "DurableSystem::drain_lazy",
    }
}

/// The traced run's output.
pub struct Report {
    /// The per-layer table, printed before the result line.
    pub table: String,
    /// Failed ops.
    pub failed: usize,
    /// Per-layer metrics `(name, value, unit)`.
    pub metrics: Vec<(String, f64, &'static str)>,
}

/// One layer row of a kind's split.
struct Row {
    layer: &'static str,
    count: String,
    busy_s: f64,
}

/// Math samples taken between the ops of a traced run.
const MATH_SAMPLES: usize = 64;

/// The op sequence run with spans and per-op counts.
pub struct Traced {
    world: World,
    kinds: Vec<KindStats>,
    spans: Spans,
    /// Math unit costs sampled between the ops.
    math: MathUnits,
}

impl Traced {
    /// Counts by [`Kind::index`].
    pub fn counts_by_kind(&self) -> Vec<Counts> {
        self.kinds.iter().map(|k| k.counts).collect()
    }

    /// Ops attempted by [`Kind::index`].
    pub fn attempted_by_kind(&self) -> Vec<usize> {
        self.kinds.iter().map(|k| k.attempted).collect()
    }

    /// Counts over the whole timed phase: what the untraced run counts.
    pub fn total(&self) -> Counts {
        let mut total = Counts::default();
        for k in &self.kinds {
            total.add(&k.counts);
        }
        total
    }
}

/// Builds the plan's world and runs its op sequence with a span around
/// every call and exact counts per op.
///
/// # Errors
///
/// A failed output check.
pub fn trace_ops(plan: &Plan) -> Result<Traced, Violation> {
    let mut spans = Spans {
        t0: Instant::now(),
        records: Vec::new(),
    };
    let mut world = spans.in_span("setup", None, 0, || World::build(plan, &mut || {}))?;
    let mut kinds = vec![KindStats::default(); Kind::ALL.len()];
    let mut math = MathSampler::new(plan.program_seed);
    let stride = (plan.ops.len() / MATH_SAMPLES).max(1);
    for (i, op) in plan.ops.iter().enumerate() {
        let op_id = i + 1;
        if i % stride == 0 {
            spans.in_span("probe.math", None, op_id, || math.sample());
        }
        let root = spans.open(op.kind().name(), None, op_id);
        let (before, components) = spans.in_span("counters", Some(root), op_id, || {
            let components = match op {
                Op::Revoke { authority, .. } => world.affected(*authority) as u64,
                _ => 0,
            };
            (Counts::system(&world.sys), components)
        });
        let call = spans.open(method(op), Some(root), op_id);
        let start = Instant::now();
        let (result, ops) = mabe_telemetry::measure(|| world.call(op));
        let dt = start.elapsed().as_secs_f64();
        spans.close(call);
        let delta = spans.in_span("counters", Some(root), op_id, || {
            Counts::system(&world.sys).since(&before).with_ops(&ops)
        });
        let outcome = spans.in_span("check", Some(root), op_id, || world.check(op, result))?;
        spans.close(root);

        let k = &mut kinds[op.kind().index()];
        k.attempted += 1;
        k.failed += usize::from(matches!(outcome, Outcome::Failed { .. }));
        k.latencies.push(dt);
        k.checkpointed.push(delta.checkpoints > 0);
        k.counts.add(&delta);
        k.components += components;
    }
    Ok(Traced {
        world,
        kinds,
        spans,
        math: math.units(),
    })
}

/// Runs the plan traced and splits each op kind across the layers.
///
/// # Errors
///
/// A failed output check, or counts that differ from the untraced run's.
pub fn run(plan: &Plan, reference: &Reference) -> Result<Report, Violation> {
    let traced = trace_ops(plan)?;
    let total = traced.total();
    if total != reference.counts {
        return Err(Violation(format!(
            "traced counts differ from the untraced run's:\n  traced   {}\n  untraced {}",
            total.to_line(),
            reference.counts.to_line()
        )));
    }
    let Traced {
        world,
        kinds,
        mut spans,
        math,
    } = traced;

    let verify_s = spans.in_span("probe.audit_verify", None, 0, || {
        per_call_s(3, 1, || {
            std::hint::black_box(world.sys.audit().verify());
        })
    });
    let audit_entries = world.sys.audit().entries().len();
    let reopened = spans.in_span("reopen", None, 0, || {
        world.crash_and_reopen(3, plan.program_seed, &mut || {})
    })?;
    let open_s = spans.in_span("probe.store_open", None, 0, || {
        let times: Vec<f64> = (0..3)
            .map(|_| {
                let copy = copy_disk(&reopened.crashed);
                let start = Instant::now();
                let opened = TypedStore::open(copy);
                let t = start.elapsed().as_secs_f64();
                std::hint::black_box(opened.is_ok());
                t
            })
            .collect();
        median(&times).unwrap_or(0.0)
    });
    let p = spans.in_span("probe.units", None, 0, || probe(plan));
    let reopen_times: Vec<f64> = reopened
        .spans
        .iter()
        .map(|(start, end)| (*end - *start).as_secs_f64())
        .collect();
    let reopen_s = median(&reopen_times).unwrap_or(0.0);

    let traced_wall: f64 = kinds.iter().map(KindStats::time_s).sum();
    let ops_n: usize = kinds.iter().map(|k| k.attempted).sum();
    let mut all = Counts::default();
    for k in &kinds {
        all.add(&k.counts);
    }
    let per_entry_hash_s = if audit_entries > 0 {
        verify_s / audit_entries as f64
    } else {
        0.0
    };
    let decrypt_core_us =
        (p.decrypt_ms * 1e3 - p.math.math_us(&p.decrypt_ops) - p.lsss_solve_us).max(0.0);
    let seal_core_us = (p.seal_ms * 1e3 - p.math.math_us(&p.seal_ops)).max(0.0);
    let reencrypt_core_us = (p.reencrypt_us - p.math.math_us(&p.reencrypt_ops)).max(0.0);

    let mut table = String::new();
    let _ = writeln!(
        table,
        "perfbench {} traced: per-layer split of each op kind's call time",
        plan.workload.name()
    );
    let _ = writeln!(
        table,
        "unit costs: pairing {:.1} us, G1 mul {:.1} us, G_T pow {:.1} us, LSSS solve {:.1} us, decrypt {:.3} ms, seal {:.3} ms, re-encrypt {:.1} us, AEAD open {:.2} us, audit hash {:.3} us/entry, span pair {:.0} ns",
        math.pairing_us, math.g1_mul_us, math.gt_pow_us, p.lsss_solve_us, p.decrypt_ms, p.seal_ms, p.reencrypt_us, p.aead_open_us, per_entry_hash_s * 1e6, p.span_pair_ns
    );
    // Per kind: the math, checkpoint and residual shares of call time.
    let mut split = [[0.0; 3]; Kind::ALL.len()];
    for kind in Kind::ALL {
        let k = &kinds[kind.index()];
        if k.attempted == 0 {
            continue;
        }
        let c = &k.counts;
        let ops = OpSnapshot {
            pairings: c.pairings,
            g1_muls: c.g1_muls,
            gt_pows: c.gt_pows,
            ..OpSnapshot::default()
        };
        let decrypts = if kind == Kind::Read {
            c.content_misses
        } else {
            0
        };
        let seals = if kind == Kind::Publish {
            k.attempted as u64
        } else {
            0
        };
        let reencrypts = match kind {
            Kind::Revoke if !plan.workload.lazy() => k.components,
            Kind::Drain => c.drained,
            _ => c.read_upgrades,
        };
        let opens = if kind == Kind::Read {
            k.attempted as u64
        } else {
            0
        };
        let (checkpoint_s, carrying) = k.checkpoint_s();
        let math_s = math.math_us(&ops) * 1e-6;
        let rows = [
            Row {
                layer: "mabe-math",
                count: format!(
                    "pairings={} g1_muls={} gt_pows={}",
                    c.pairings, c.g1_muls, c.gt_pows
                ),
                busy_s: math_s,
            },
            Row {
                layer: "mabe-policy",
                count: format!("lsss_solves={decrypts}"),
                busy_s: decrypts as f64 * p.lsss_solve_us * 1e-6,
            },
            Row {
                layer: "mabe-core",
                count: format!("decrypts={decrypts} seals={seals} reencrypts={reencrypts}"),
                busy_s: (decrypts as f64 * decrypt_core_us
                    + seals as f64 * seal_core_us
                    + reencrypts as f64 * reencrypt_core_us)
                    * 1e-6,
            },
            Row {
                layer: "mabe-crypto",
                count: format!("aead_opens={opens}"),
                busy_s: opens as f64 * p.aead_open_us * 1e-6,
            },
            Row {
                layer: "cloud.cache",
                count: format!(
                    "content_hits={} misses={} evictions={} chain_hits={} chain_misses={}",
                    c.content_hits,
                    c.content_misses,
                    c.content_evictions,
                    c.chain_hits,
                    c.chain_misses
                ),
                busy_s: 0.0,
            },
            Row {
                layer: "cloud.audit",
                count: format!("entries={}", c.audit_entries),
                busy_s: c.audit_entries as f64 * per_entry_hash_s,
            },
            Row {
                layer: "cloud.persist",
                count: format!(
                    "checkpoints={} (measured over {carrying} ops)",
                    c.checkpoints
                ),
                busy_s: checkpoint_s,
            },
            Row {
                layer: "mabe-store",
                count: format!("wal_bytes={} commits={}", c.wal_bytes, c.commits),
                busy_s: 0.0,
            },
            Row {
                layer: "observability",
                count: format!("events={}", c.events),
                busy_s: c.events as f64 * p.span_pair_ns * 1e-9,
            },
        ];
        let time_s = k.time_s();
        let _ = writeln!(
            table,
            "{}: attempted={} failed={} call time {:.3} s",
            kind.name(),
            k.attempted,
            k.failed,
            time_s
        );
        let _ = writeln!(
            table,
            "  {:14} {:>11} {:>7}  counts",
            "layer", "busy_ms", "share"
        );
        let mut explained = 0.0;
        for row in &rows {
            explained += row.busy_s;
            let _ = writeln!(
                table,
                "  {:14} {:11.3} {:6.1}%  {}",
                row.layer,
                row.busy_s * 1e3,
                100.0 * row.busy_s / time_s,
                row.count
            );
        }
        let residual = time_s - explained;
        let _ = writeln!(
            table,
            "  {:14} {:11.3} {:6.1}%  (op lock, WAL commit, directory, allocation, ...)",
            "residual",
            residual * 1e3,
            100.0 * residual / time_s
        );
        split[kind.index()] = [math_s / time_s, checkpoint_s / time_s, residual / time_s];
    }
    let overhead = traced_wall / reference.wall_s - 1.0;
    let _ = writeln!(
        table,
        "tracing overhead: traced op calls {:.3} s vs untraced {:.3} s ({:+.1}%)",
        traced_wall,
        reference.wall_s,
        100.0 * overhead
    );
    let _ = writeln!(
        table,
        "reopen {:.3} s = store open {:.3} s + audit verify {:.3} s + hydrate {:.3} s",
        reopen_s,
        open_s,
        verify_s,
        reopen_s - open_s - verify_s
    );
    let path = std::path::PathBuf::from(format!(
        "perfbench/out/spans-{}-{}.jsonl",
        plan.workload.name(),
        plan.seed
    ));
    match spans.write(&path) {
        Ok(()) => {
            let _ = writeln!(
                table,
                "spans: {} written to {}",
                spans.records.len(),
                path.display()
            );
        }
        Err(e) => {
            let _ = writeln!(table, "spans: not written ({e})");
        }
    }

    let read = &kinds[Kind::Read.index()];
    let publish = &kinds[Kind::Publish.index()];
    let revoke = &kinds[Kind::Revoke.index()];
    let per = |n: u64, d: usize| if d == 0 { 0.0 } else { n as f64 / d as f64 };
    let ratio = |hits: u64, misses: u64| per(hits, (hits + misses) as usize);
    let checkpoint_lat: Vec<f64> = kinds
        .iter()
        .flat_map(|k| {
            k.latencies
                .iter()
                .zip(&k.checkpointed)
                .filter(|(_, c)| **c)
                .map(|(l, _)| *l)
        })
        .collect();
    let mut metrics: Vec<(String, f64, &'static str)> = vec![
        (
            "math.pairings_per_read".into(),
            per(read.counts.pairings, read.attempted),
            "count",
        ),
        (
            "math.gt_pows_per_read".into(),
            per(read.counts.gt_pows, read.attempted),
            "count",
        ),
        (
            "math.g1_muls_per_publish".into(),
            per(publish.counts.g1_muls, publish.attempted),
            "count",
        ),
        ("math.pairing_us".into(), math.pairing_us, "us"),
        ("policy.lsss_solve_us".into(), p.lsss_solve_us, "us"),
        ("core.decrypt_ms".into(), p.decrypt_ms, "ms"),
        ("core.seal_ms".into(), p.seal_ms, "ms"),
        ("core.reencrypt_us".into(), p.reencrypt_us, "us"),
        ("core.aead_open_us".into(), p.aead_open_us, "us"),
        (
            "cache.content_hit_ratio".into(),
            ratio(all.content_hits, all.content_misses),
            "ratio",
        ),
        (
            "cache.content_evictions".into(),
            all.content_evictions as f64,
            "count",
        ),
        (
            "cache.chain_hit_ratio".into(),
            ratio(all.chain_hits, all.chain_misses),
            "ratio",
        ),
        (
            "control.components_per_revoke".into(),
            per(revoke.components, revoke.attempted),
            "count",
        ),
        (
            "control.revoke_ack_p50_ms".into(),
            reference.revoke_ack_p50_ms,
            "ms",
        ),
        (
            "lazy.read_upgrades_per_kop".into(),
            1e3 * per(all.read_upgrades, ops_n),
            "1/kop",
        ),
        (
            "lazy.drained_components".into(),
            all.drained as f64,
            "count",
        ),
        (
            "audit.entries_per_op".into(),
            per(all.audit_entries, ops_n),
            "count",
        ),
        ("audit.verify_ms".into(), verify_s * 1e3, "ms"),
        (
            "persist.checkpoints_per_kop".into(),
            1e3 * per(all.checkpoints, ops_n),
            "1/kop",
        ),
        (
            "persist.checkpoint_ms".into(),
            median(&checkpoint_lat).unwrap_or(0.0) * 1e3,
            "ms",
        ),
        (
            "persist.checkpoint_share".into(),
            checkpoint_lat.iter().fold(0.0, |sum, l| sum + l) / traced_wall,
            "ratio",
        ),
        ("persist.reopen_s".into(), reference.reopen_s, "s"),
        (
            "persist.hydrate_ms".into(),
            (reopen_s - open_s - verify_s) * 1e3,
            "ms",
        ),
        (
            "store.wal_bytes_per_op".into(),
            per(all.wal_bytes, ops_n),
            "B",
        ),
        (
            "store.commits_per_op".into(),
            per(all.commits, ops_n),
            "count",
        ),
        ("store.open_ms".into(), open_s * 1e3, "ms"),
        ("obs.span_pair_ns".into(), p.span_pair_ns, "ns"),
        ("obs.events_per_op".into(), per(all.events, ops_n), "count"),
        ("trace.overhead_share".into(), overhead, "ratio"),
    ];
    for kind in [Kind::Read, Kind::Publish, Kind::Revoke] {
        let parts = ["math_share", "checkpoint_share", "residual_share"];
        for (part, value) in parts.into_iter().zip(split[kind.index()]) {
            metrics.push((format!("split.{}.{part}", kind.name()), value, "ratio"));
        }
    }
    Ok(Report {
        table,
        failed: kinds.iter().map(|k| k.failed).sum(),
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_reference_line_reads_back() {
        let reference = Reference {
            wall_s: 9.25,
            counts: Counts {
                pairings: 55,
                wal_bytes: 4096,
                ..Counts::default()
            },
            revoke_ack_p50_ms: 61.5,
            reopen_s: 0.1875,
        };
        assert_eq!(Reference::from_line(&reference.to_line()), Some(reference));
    }
}
