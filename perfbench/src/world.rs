//! A workload's world over `DurableSystem<SimDisk>`: set-up, the calls
//! the timed phase makes, and the output checks around them.

use std::collections::HashMap;
use std::time::Instant;

use mabe_cloud::{CloudError, DurableSystem};
use mabe_core::{Error, OwnerId, Uid, WireCodec};
use mabe_policy::AuthorityId;
use mabe_store::{SimDisk, Storage};

use crate::plan::{Op, Plan, Rng};

/// Label of the one component every record holds.
pub const LABEL: &str = "doc";

/// What the check after an op found.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// The op succeeded and its output was right.
    Ok,
    /// The op returned an error. `replaced` marks a read of a record
    /// replaced since the reader last read it, failing authentication:
    /// the known stale content-key defect.
    Failed {
        /// Whether this is the known replaced-record failure.
        replaced: bool,
    },
}

/// An output check that failed: the run must stop and print no numbers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation(pub String);

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// A built world plus the benchmark's model of what it must hold.
pub struct World {
    /// The system under test.
    pub sys: DurableSystem<SimDisk>,
    owner: OwnerId,
    users: Vec<Uid>,
    authorities: Vec<AuthorityId>,
    /// Record names, by record index (every record the plan publishes).
    names: Vec<String>,
    /// Policy strings, by record index.
    policies: Vec<String>,
    /// Attribute strings, by authority index.
    attrs: Vec<Vec<String>>,
    /// Authorities each record's policy needs, by record index.
    needs: Vec<Vec<usize>>,
    /// Last bytes written, by record index (`None`: not yet published).
    content: Vec<Option<Vec<u8>>>,
    /// How often each record was written.
    version: Vec<u32>,
    /// The record version each (user, record) pair last read successfully.
    seen: HashMap<(usize, usize), u32>,
    /// Whether each user holds its attributes at each authority.
    holds: Vec<Vec<bool>>,
    /// Whether the workload revokes lazily.
    lazy: bool,
}

fn setup<T>(what: &str, r: Result<T, CloudError>) -> Result<T, Violation> {
    r.map_err(|e| Violation(format!("set-up {what} failed: {e}")))
}

impl World {
    /// Builds the plan's world: authorities, the owner, users holding
    /// every attribute, the initial records and the warm-up reads.
    /// `between` runs between its program calls.
    pub fn build(plan: &Plan, between: &mut dyn FnMut()) -> Result<World, Violation> {
        let shape = plan.shape;
        let (sys, _) = DurableSystem::open(SimDisk::unfaulted(), plan.program_seed)
            .map_err(|e| Violation(format!("opening an empty store failed: {e}")))?;
        sys.system().set_lazy_revocation(plan.workload.lazy());
        let attr_names: Vec<String> = (1..=shape.attrs).map(|j| format!("x{j}")).collect();
        let attr_refs: Vec<&str> = attr_names.iter().map(String::as_str).collect();
        let mut authorities = Vec::new();
        let mut attrs: Vec<Vec<String>> = Vec::new();
        for k in 1..=shape.authorities {
            between();
            let name = format!("A{k}");
            authorities.push(setup(
                "add_authority",
                sys.add_authority(&name, &attr_refs),
            )?);
            attrs.push(attr_names.iter().map(|x| format!("{x}@{name}")).collect());
        }
        let owner = setup("add_owner", sys.add_owner("owner"))?;
        let policies = plan
            .policies
            .iter()
            .map(|needs| {
                let leaves: Vec<&str> = needs
                    .iter()
                    .flat_map(|&a| attrs[a].iter().map(String::as_str))
                    .collect::<Vec<_>>();
                leaves.join(" AND ")
            })
            .collect();
        let mut world = World {
            sys,
            owner,
            users: Vec::new(),
            authorities,
            names: (0..plan.policies.len()).map(|r| format!("r{r}")).collect(),
            policies,
            attrs,
            needs: plan.policies.clone(),
            content: vec![None; plan.policies.len()],
            version: vec![0; plan.policies.len()],
            seen: HashMap::new(),
            holds: vec![vec![true; shape.authorities]; shape.users],
            lazy: plan.workload.lazy(),
        };
        for i in 0..shape.users {
            between();
            let uid = setup("add_user", world.sys.add_user(&format!("u{i}")))?;
            let all: Vec<&str> = world.attrs.iter().flatten().map(String::as_str).collect();
            setup("grant", world.sys.grant(&uid, &all))?;
            world.users.push(uid);
        }
        for (record, data) in plan.initial.iter().enumerate() {
            between();
            let op = Op::Publish {
                record,
                data: data.clone(),
            };
            let result = world.call(&op);
            world.expect_ok(&op, result, "set-up publish")?;
        }
        for &(user, record) in &plan.warm {
            between();
            let op = Op::Read { user, record };
            let result = world.call(&op);
            world.expect_ok(&op, result, "warm-up read")?;
        }
        Ok(world)
    }

    fn expect_ok(
        &mut self,
        op: &Op,
        result: Result<Option<Vec<u8>>, CloudError>,
        what: &str,
    ) -> Result<(), Violation> {
        match self.check(op, result)? {
            Outcome::Ok => Ok(()),
            Outcome::Failed { .. } => Err(Violation(format!("{what} failed: {op:?}"))),
        }
    }

    /// The program call an op makes: the only part of an op that is
    /// timed. Reads return the bytes read.
    pub fn call(&self, op: &Op) -> Result<Option<Vec<u8>>, CloudError> {
        match op {
            Op::Read { user, record } | Op::Probe { user, record } => self
                .sys
                .read(&self.users[*user], &self.owner, &self.names[*record], LABEL)
                .map(Some),
            Op::Publish { record, data } => self
                .sys
                .publish(
                    &self.owner,
                    &self.names[*record],
                    &[(LABEL, data.as_slice(), self.policies[*record].as_str())],
                )
                .map(|()| None),
            Op::Revoke {
                user, authority, ..
            } => self
                .sys
                .revoke(&self.users[*user], &self.attrs[*authority][0])
                .map(|()| None),
            Op::Grant { user, authority } => {
                let attrs: Vec<&str> = self.attrs[*authority].iter().map(String::as_str).collect();
                self.sys.grant(&self.users[*user], &attrs).map(|()| None)
            }
            Op::Drain => self.sys.drain_lazy().map(|_| None),
        }
    }

    /// Checks an op's result against the model and advances the model.
    ///
    /// # Errors
    ///
    /// A wrong output: bytes other than the last written, or a revoked
    /// user reading.
    pub fn check(
        &mut self,
        op: &Op,
        result: Result<Option<Vec<u8>>, CloudError>,
    ) -> Result<Outcome, Violation> {
        if let Op::Probe { user, record } = op {
            return match result {
                Err(_) => Ok(Outcome::Ok),
                Ok(_) => Err(Violation(format!(
                    "u{user} still read r{record} after its revocation"
                ))),
            };
        }
        let out = match result {
            Ok(out) => out,
            Err(e) => {
                let replaced = match op {
                    Op::Read { user, record } => {
                        matches!(e, CloudError::Core(Error::SymmetricAuthentication))
                            && self
                                .seen
                                .get(&(*user, *record))
                                .is_some_and(|&v| v < self.version[*record])
                    }
                    _ => false,
                };
                return Ok(Outcome::Failed { replaced });
            }
        };
        match op {
            Op::Read { user, record } => {
                let got = out.expect("reads return bytes");
                if self.content[*record].as_deref() != Some(got.as_slice()) {
                    return Err(Violation(format!(
                        "u{user} read r{record} and got bytes other than the last written"
                    )));
                }
                self.seen.insert((*user, *record), self.version[*record]);
            }
            Op::Publish { record, data } => {
                self.content[*record] = Some(data.clone());
                self.version[*record] += 1;
            }
            Op::Revoke { user, authority } => self.holds[*user][*authority] = false,
            Op::Grant { user, authority } => self.holds[*user][*authority] = true,
            Op::Drain | Op::Probe { .. } => {}
        }
        Ok(Outcome::Ok)
    }

    /// Components a revocation at `authority` would re-encrypt now.
    pub fn affected(&self, authority: usize) -> usize {
        let aid = &self.authorities[authority];
        let system = self.sys.system();
        let version = system.authority_version(aid).unwrap_or(0);
        system
            .server()
            .affected_ciphertexts(&self.owner, aid, version)
            .len()
    }

    /// Live user payload bytes: the last write of every record.
    pub fn user_bytes(&self) -> usize {
        self.content.iter().flatten().map(Vec::len).sum()
    }

    /// The checks after the timed phase. Verifies the audit chain, cuts
    /// power, reopens copies of the crashed disk `reopens` times
    /// (`between` runs before and after each reopen), then checks that
    /// the reopened store holds every acked record with its pre-crash
    /// envelope bytes and that a seeded sample decrypts to the bytes
    /// last written.
    ///
    /// # Errors
    ///
    /// Any failed check, or a reopen or checkpoint that fails.
    pub fn crash_and_reopen(
        self,
        reopens: usize,
        seed: u64,
        between: &mut dyn FnMut(),
    ) -> Result<Reopened, Violation> {
        if !self.sys.audit().verify() {
            return Err(Violation("the audit hash chain does not verify".into()));
        }
        if self.lazy {
            self.sys
                .drain_lazy()
                .map_err(|e| Violation(format!("the final lazy drain failed: {e}")))?;
        }
        let server = self.sys.system().server();
        let mut envelopes = Vec::new();
        for (record, content) in self.content.iter().enumerate() {
            if content.is_some() {
                let envelope = server
                    .fetch(&self.owner, &self.names[record])
                    .ok_or_else(|| {
                        Violation(format!(
                            "acked record r{record} is missing before the crash"
                        ))
                    })?;
                envelopes.push((record, envelope.to_wire_bytes()));
            }
        }
        let World {
            sys,
            owner,
            users,
            names,
            needs,
            content,
            holds,
            lazy,
            ..
        } = self;
        let mut disk = sys.into_storage();
        disk.crash();
        let mut spans = Vec::with_capacity(reopens);
        let mut reopened = None;
        for _ in 0..reopens.max(1) {
            drop(reopened.take());
            let copy = copy_disk(&disk);
            between();
            let start = Instant::now();
            let (sys, _) = DurableSystem::open(copy, seed)
                .map_err(|e| Violation(format!("reopening the crashed store failed: {e}")))?;
            spans.push((start, Instant::now()));
            reopened = Some(sys);
        }
        between();
        let sys = reopened.expect("reopened at least once");
        let stored = |record: usize| {
            sys.system()
                .server()
                .fetch(&owner, &names[record])
                .map(|e| e.to_wire_bytes())
                .ok_or_else(|| Violation(format!("acked record r{record} lost in the crash")))
        };
        let decrypts = |record: usize| -> Result<(), Violation> {
            let Some(user) = (0..users.len()).find(|&u| needs[record].iter().all(|&a| holds[u][a]))
            else {
                return Ok(());
            };
            let got = sys
                .read(&users[user], &owner, &names[record], LABEL)
                .map_err(|e| {
                    Violation(format!("u{user} cannot read r{record} after reopen: {e}"))
                })?;
            if content[record].as_deref() != Some(got.as_slice()) {
                return Err(Violation(format!(
                    "r{record} decrypts to other bytes after reopen"
                )));
            }
            Ok(())
        };
        for (record, bytes) in &envelopes {
            if stored(*record)? == *bytes {
                continue;
            }
            // Lazy revocation does not journal the re-encryption a read
            // does before serving, so such a component reopens at an
            // older key version. Drained before the crash, it must
            // converge on its next read to exactly its pre-crash bytes.
            decrypts(*record)?;
            if !lazy || stored(*record)? != *bytes {
                return Err(Violation(format!(
                    "record r{record} reopened with other envelope bytes"
                )));
            }
        }
        let mut rng = Rng::new(seed ^ 0xc4a5);
        for _ in 0..3 {
            decrypts(envelopes[rng.below(envelopes.len())].0)?;
        }
        if !sys.audit().verify() {
            return Err(Violation("the reopened audit chain does not verify".into()));
        }
        sys.checkpoint()
            .map_err(|e| Violation(format!("checkpointing the reopened store failed: {e}")))?;
        let checkpointed_bytes = sys.storage().total_durable_bytes();
        Ok(Reopened {
            spans,
            crashed: disk,
            checkpointed_bytes,
        })
    }
}

/// What [`World::crash_and_reopen`] measured.
pub struct Reopened {
    /// When each reopen started and ended.
    pub spans: Vec<(Instant, Instant)>,
    /// The crashed end-of-run disk.
    pub crashed: SimDisk,
    /// Durable bytes of the reopened store right after a checkpoint: its
    /// size without a write-ahead tail, whose length depends on where
    /// the last automatic checkpoint fell.
    pub checkpointed_bytes: usize,
}

/// A fresh disk holding `disk`'s durable bytes, so that every reopen
/// starts from the same crashed state.
pub fn copy_disk(disk: &SimDisk) -> SimDisk {
    let mut out = SimDisk::unfaulted();
    for name in disk.list() {
        let bytes = disk.durable_bytes(&name).expect("listed object").to_vec();
        out.set_durable(&name, bytes);
    }
    out
}
