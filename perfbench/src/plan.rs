//! Seeded workload plans: the world a workload builds and the fixed op
//! sequence its timed phase runs.
//!
//! A plan is a pure function of the workload, the seed and the op count.
//! The program under test only ever sees the inputs a plan lists; the
//! plan's own model (who holds what, which pairs were read) exists only
//! to generate ops that are valid when they run.

/// SplitMix64: the benchmark's own generator, independent of the
/// program's crypto RNG.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6d61_6265_6265_6e63)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `n` random bytes.
    pub fn bytes(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| self.next_u64() as u8).collect()
    }

    /// `k` distinct positions in `0..n`, in draw order.
    fn distinct(&mut self, k: usize, n: usize) -> Vec<usize> {
        let mut out = Vec::with_capacity(k);
        while out.len() < k {
            let p = self.below(n);
            if !out.contains(&p) {
                out.push(p);
            }
        }
        out
    }
}

/// The four workloads. Each is a closed loop with one client.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's 5×5 point; every read is the first of its pair.
    Cold5x5,
    /// Two authorities, a warmed Zipf-read working set, writes beside.
    HotZipf,
    /// Revoke and re-grant among reads and publishes, eager revocation.
    ChurnEager,
    /// The same traffic with lazy revocation and fixed drain points.
    ChurnLazy,
}

/// Sizes of a workload's world.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shape {
    /// Attribute authorities `A1..`.
    pub authorities: usize,
    /// Attributes `x1..` per authority.
    pub attrs: usize,
    /// Users `u0..`; every user starts holding every attribute.
    pub users: usize,
    /// Records `r0..` published during set-up.
    pub records: usize,
    /// Payload bytes per record (one component per record).
    pub payload: usize,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Cold5x5,
        Workload::HotZipf,
        Workload::ChurnEager,
        Workload::ChurnLazy,
    ];

    /// The name used on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Cold5x5 => "cold_5x5",
            Workload::HotZipf => "hot_zipf",
            Workload::ChurnEager => "churn_eager",
            Workload::ChurnLazy => "churn_lazy",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The world this workload builds.
    pub fn shape(self) -> Shape {
        match self {
            Workload::Cold5x5 => Shape {
                authorities: 5,
                attrs: 5,
                users: 8,
                records: 8,
                payload: 1024,
            },
            Workload::HotZipf => Shape {
                authorities: 2,
                attrs: 1,
                users: 4,
                records: HOT_RECORDS,
                payload: 1024,
            },
            Workload::ChurnEager | Workload::ChurnLazy => Shape {
                authorities: 3,
                attrs: 1,
                users: 6,
                records: 96,
                payload: 1024,
            },
        }
    }

    /// Whether the system runs with lazy revocation.
    pub fn lazy(self) -> bool {
        self == Workload::ChurnLazy
    }

    /// Client ops in one block of the op sequence: every block holds the
    /// same op mix, at seeded positions.
    pub fn block(self) -> usize {
        match self {
            Workload::Cold5x5 => 8,
            Workload::HotZipf => 64,
            Workload::ChurnEager | Workload::ChurnLazy => CHURN_BLOCK,
        }
    }

    /// Client ops one `--seconds` second buys: a fixed constant, so the
    /// op count depends only on the arguments, never on how fast the
    /// program runs. Sized so that the timed phase lasts about
    /// `seconds` on a 2-vCPU x86-64 VM, and so that `--seconds 20`
    /// gives `cold_5x5` 50 publishes.
    fn ops_per_second(self) -> f64 {
        match self {
            Workload::Cold5x5 => 20.0,
            Workload::HotZipf => 1200.0,
            Workload::ChurnEager | Workload::ChurnLazy => 64.0,
        }
    }

    /// The op count for a run of `seconds`: whole blocks, at least one.
    pub fn ops_for(self, seconds: u64) -> usize {
        let blocks = (seconds as f64 * self.ops_per_second() / self.block() as f64).ceil();
        (blocks as usize).max(1) * self.block()
    }
}

/// Hot records in `hot_zipf`, read by Zipf rank (record `i` has rank `i`).
const HOT_RECORDS: usize = 64;
/// Zipf exponent of `hot_zipf` reads.
const HOT_ZIPF_S: f64 = 1.0;
/// The `hot_zipf` records that owners replace: one in eight, from the
/// colder half of the ranks. A replacement leaves every reader's cached
/// content key stale, so all later reads of the record fail; from the
/// colder half these records draw about 1.7% of reads, which keeps the
/// defect visible (above 1%, so p99 would sit on failures) while p90
/// stays on successful reads.
pub const HOT_REPLACEABLE: [usize; 4] = [39, 47, 55, 63];
/// Client ops per `churn_*` block: one revoke, one re-grant, one
/// publish, the rest reads.
const CHURN_BLOCK: usize = 20;
/// `churn_lazy` drains the lazy queue after every this many blocks.
const CHURN_DRAIN_EVERY: usize = 5;

/// One client op of the timed phase.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// `user` reads record `record`.
    Read {
        /// User index.
        user: usize,
        /// Record index.
        record: usize,
    },
    /// The owner publishes `data` as record `record`: a new record when
    /// `record` is the next index, a replacement otherwise.
    Publish {
        /// Record index.
        record: usize,
        /// Payload.
        data: Vec<u8>,
    },
    /// Revokes `user`'s attributes at `authority`.
    Revoke {
        /// User index.
        user: usize,
        /// Authority index.
        authority: usize,
    },
    /// Right after a revocation, the revoked `user` reads `record`,
    /// whose policy needs the revoked attribute: a check that must be
    /// denied. It is timed like a drain, since it journals an audit
    /// entry (which counts toward the checkpoint interval) and, under
    /// lazy revocation, upgrades the stale record before denying.
    Probe {
        /// User index.
        user: usize,
        /// Record index.
        record: usize,
    },
    /// Re-grants `user` its attributes at `authority`.
    Grant {
        /// User index.
        user: usize,
        /// Authority index.
        authority: usize,
    },
    /// Drains the lazy re-encryption queue (`churn_lazy` only).
    Drain,
}

/// Op kinds, in report order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// [`Op::Read`].
    Read,
    /// [`Op::Publish`].
    Publish,
    /// [`Op::Revoke`].
    Revoke,
    /// [`Op::Grant`].
    Grant,
    /// [`Op::Drain`].
    Drain,
    /// [`Op::Probe`].
    Probe,
}

impl Kind {
    /// Every kind, in report order.
    pub const ALL: [Kind; 6] = [
        Kind::Read,
        Kind::Publish,
        Kind::Revoke,
        Kind::Grant,
        Kind::Drain,
        Kind::Probe,
    ];

    /// Report name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Read => "read",
            Kind::Publish => "publish",
            Kind::Revoke => "revoke",
            Kind::Grant => "grant",
            Kind::Drain => "drain",
            Kind::Probe => "probe",
        }
    }

    /// Whether a client makes this op; drains and probes are the
    /// benchmark's own, timed but not counted as served ops.
    pub fn is_client(self) -> bool {
        !matches!(self, Kind::Drain | Kind::Probe)
    }

    /// Index into per-kind arrays.
    pub fn index(self) -> usize {
        self as usize
    }
}

impl Op {
    /// This op's kind.
    pub fn kind(&self) -> Kind {
        match self {
            Op::Read { .. } => Kind::Read,
            Op::Publish { .. } => Kind::Publish,
            Op::Revoke { .. } => Kind::Revoke,
            Op::Grant { .. } => Kind::Grant,
            Op::Drain => Kind::Drain,
            Op::Probe { .. } => Kind::Probe,
        }
    }
}

/// Everything one run executes.
#[derive(Clone, Debug)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// Its world's sizes.
    pub shape: Shape,
    /// The seed the plan was generated from.
    pub seed: u64,
    /// Seed of the program's own RNG.
    pub program_seed: u64,
    /// Authorities (indices) each record's policy ANDs over, by record
    /// index, for every record the plan ever publishes.
    pub policies: Vec<Vec<usize>>,
    /// Payloads of the records published during set-up.
    pub initial: Vec<Vec<u8>>,
    /// Set-up reads `(user, record)` that warm the content-key cache.
    pub warm: Vec<(usize, usize)>,
    /// The timed phase.
    pub ops: Vec<Op>,
}

impl Plan {
    /// The plan of `workload` for `seed`, with `ops` client ops rounded
    /// up to whole blocks.
    pub fn new(workload: Workload, seed: u64, ops: usize) -> Plan {
        let shape = workload.shape();
        let mut rng = Rng::new(seed);
        let program_seed = rng.next_u64();
        let blocks = ops.div_ceil(workload.block()).max(1);
        let mut plan = Plan {
            workload,
            shape,
            seed,
            program_seed,
            policies: Vec::new(),
            initial: Vec::new(),
            warm: Vec::new(),
            ops: Vec::new(),
        };
        match workload {
            Workload::Cold5x5 => plan.cold(&mut rng, blocks),
            Workload::HotZipf => plan.hot(&mut rng, blocks),
            Workload::ChurnEager | Workload::ChurnLazy => plan.churn(&mut rng, blocks),
        }
        plan
    }

    fn publish_new(&mut self, rng: &mut Rng, authorities: Vec<usize>) -> Op {
        let record = self.policies.len();
        self.policies.push(authorities);
        Op::Publish {
            record,
            data: rng.bytes(self.shape.payload),
        }
    }

    fn seed_records(&mut self, rng: &mut Rng, mut policy: impl FnMut(&mut Rng) -> Vec<usize>) {
        for _ in 0..self.shape.records {
            let authorities = policy(rng);
            self.policies.push(authorities);
            self.initial.push(rng.bytes(self.shape.payload));
        }
    }

    /// One publish in eight; every read takes a (user, record) pair never
    /// read before, so the content-key cache never hits. Eight users and
    /// seven reads a block keep unread pairs from running out.
    fn cold(&mut self, rng: &mut Rng, blocks: usize) {
        let all: Vec<usize> = (0..self.shape.authorities).collect();
        self.seed_records(rng, |_| all.clone());
        let users = self.shape.users;
        let mut unread: Vec<(usize, usize)> = (0..self.shape.records)
            .flat_map(|r| (0..users).map(move |u| (u, r)))
            .collect();
        let block = self.workload.block();
        for _ in 0..blocks {
            let publish_at = rng.below(block);
            for i in 0..block {
                if i == publish_at {
                    let op = self.publish_new(rng, all.clone());
                    let record = self.policies.len() - 1;
                    unread.extend((0..users).map(|u| (u, record)));
                    self.ops.push(op);
                } else {
                    let (user, record) = unread.swap_remove(rng.below(unread.len()));
                    self.ops.push(Op::Read { user, record });
                }
            }
        }
    }

    /// Zipf reads over the warmed hot records; per 64 ops one new record
    /// (appended past the hot ranks, so it is written but not read) and
    /// one replacement of a [`HOT_REPLACEABLE`] record.
    fn hot(&mut self, rng: &mut Rng, blocks: usize) {
        let both: Vec<usize> = (0..self.shape.authorities).collect();
        self.seed_records(rng, |_| both.clone());
        let users = self.shape.users;
        self.warm = (0..self.shape.records)
            .flat_map(|r| (0..users).map(move |u| (u, r)))
            .collect();
        for i in (1..self.warm.len()).rev() {
            let j = rng.below(i + 1);
            self.warm.swap(i, j);
        }
        let mut cdf = Vec::with_capacity(HOT_RECORDS);
        let mut total = 0.0;
        for rank in 0..HOT_RECORDS {
            total += 1.0 / ((rank + 1) as f64).powf(HOT_ZIPF_S);
            cdf.push(total);
        }
        let block = self.workload.block();
        for _ in 0..blocks {
            let at = rng.distinct(2, block);
            for i in 0..block {
                if i == at[0] {
                    let op = self.publish_new(rng, both.clone());
                    self.ops.push(op);
                } else if i == at[1] {
                    let record = HOT_REPLACEABLE[rng.below(HOT_REPLACEABLE.len())];
                    let data = rng.bytes(self.shape.payload);
                    self.ops.push(Op::Publish { record, data });
                } else {
                    let u = rng.unit() * total;
                    let record = cdf.partition_point(|&c| c <= u).min(HOT_RECORDS - 1);
                    let user = rng.below(users);
                    self.ops.push(Op::Read { user, record });
                }
            }
        }
    }

    /// Two-authority AND policies; per block one revoke (and its probe),
    /// one re-grant of the holder revoked in the block before, one new
    /// record, and uniform reads by users the policy admits. `churn_lazy`
    /// adds a drain after every [`CHURN_DRAIN_EVERY`] blocks; its client
    /// ops are the same as `churn_eager`'s.
    fn churn(&mut self, rng: &mut Rng, blocks: usize) {
        const PAIRS: [[usize; 2]; 3] = [[0, 1], [1, 2], [0, 2]];
        let pick = |rng: &mut Rng| PAIRS[rng.below(PAIRS.len())].to_vec();
        self.seed_records(rng, pick);
        let (users, authorities) = (self.shape.users, self.shape.authorities);
        let mut holds = vec![vec![true; authorities]; users];
        let mut revoked: std::collections::VecDeque<(usize, usize)> = Default::default();
        for block in 0..blocks {
            let at = rng.distinct(3, CHURN_BLOCK);
            for i in 0..CHURN_BLOCK {
                if i == at[0] {
                    let user = loop {
                        let u = rng.below(users);
                        if holds[u].iter().all(|&h| h) {
                            break u;
                        }
                    };
                    let authority = rng.below(authorities);
                    let probe = loop {
                        let r = rng.below(self.policies.len());
                        if self.policies[r].contains(&authority) {
                            break r;
                        }
                    };
                    holds[user][authority] = false;
                    revoked.push_back((user, authority));
                    self.ops.push(Op::Revoke { user, authority });
                    self.ops.push(Op::Probe {
                        user,
                        record: probe,
                    });
                } else if i == at[1] && block > 0 {
                    let (user, authority) = revoked.pop_front().expect("a holder is revoked");
                    holds[user][authority] = true;
                    self.ops.push(Op::Grant { user, authority });
                } else if i == at[2] {
                    let authorities = pick(rng);
                    let op = self.publish_new(rng, authorities);
                    self.ops.push(op);
                } else {
                    let (user, record) = loop {
                        let (u, r) = (rng.below(users), rng.below(self.policies.len()));
                        if self.policies[r].iter().all(|&a| holds[u][a]) {
                            break (u, r);
                        }
                    };
                    self.ops.push(Op::Read { user, record });
                }
            }
            if self.workload.lazy() && (block + 1) % CHURN_DRAIN_EVERY == 0 {
                self.ops.push(Op::Drain);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_repeat_for_a_seed_and_differ_across_seeds() {
        for w in Workload::ALL {
            let a = Plan::new(w, 7, 200);
            let b = Plan::new(w, 7, 200);
            let c = Plan::new(w, 8, 200);
            assert_eq!(a.ops, b.ops, "{}", w.name());
            assert_ne!(a.ops, c.ops, "{}", w.name());
        }
    }

    #[test]
    fn lazy_churn_runs_the_eager_client_ops_plus_drains() {
        let eager = Plan::new(Workload::ChurnEager, 3, 400);
        let lazy = Plan::new(Workload::ChurnLazy, 3, 400);
        let client: Vec<&Op> = lazy.ops.iter().filter(|op| **op != Op::Drain).collect();
        assert!(eager.ops.iter().any(|op| op.kind() == Kind::Probe));
        assert_eq!(client, eager.ops.iter().collect::<Vec<_>>());
        assert_eq!(
            lazy.ops.len() - eager.ops.len(),
            400 / CHURN_BLOCK / CHURN_DRAIN_EVERY
        );
    }

    #[test]
    fn every_revoke_is_followed_by_a_probe_its_authority_guards() {
        let plan = Plan::new(Workload::ChurnEager, 5, 400);
        let mut revokes = 0;
        for pair in plan.ops.windows(2) {
            if let Op::Revoke { user, authority } = pair[0] {
                revokes += 1;
                match pair[1] {
                    Op::Probe { user: u, record } => {
                        assert_eq!(u, user);
                        assert!(plan.policies[record].contains(&authority));
                    }
                    ref other => panic!("a revoke is followed by {other:?}"),
                }
            }
        }
        assert_eq!(revokes, 400 / CHURN_BLOCK);
    }

    #[test]
    fn cold_reads_never_repeat_a_pair() {
        let plan = Plan::new(Workload::Cold5x5, 11, 400);
        let mut seen = std::collections::BTreeSet::new();
        for op in &plan.ops {
            if let Op::Read { user, record } = op {
                assert!(seen.insert((*user, *record)));
            }
        }
        let publishes = plan
            .ops
            .iter()
            .filter(|op| op.kind() == Kind::Publish)
            .count();
        assert_eq!(publishes * 8, plan.ops.len());
    }
}
