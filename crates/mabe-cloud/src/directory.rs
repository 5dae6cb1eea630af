//! Directory layer: identities and registries.
//!
//! The directory owns everything that *names* an entity — the CA, the
//! owner registry, and the user registry (public keys, secret-key
//! slots, grants, offline flags, queued update keys). It hands the
//! control plane and the data plane shared, lock-guarded views so
//! every system operation works from `&CloudSystem`.
//!
//! Lock ordering (see DESIGN.md §12): an authority-shard lock may be
//! held while taking `users` or `owners`; the reverse order is
//! forbidden. `ca` and `rng` are leaves.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::AtomicUsize;
use std::sync::{Arc, OnceLock};

use parking_lot::{Mutex, RwLock};

use mabe_core::{
    AttributeAuthority, CertificateAuthority, DataOwner, Error, OwnerId, Uid, UpdateKey,
    UserPublicKey, UserSecretKey,
};
use mabe_math::FixedPairing;
use mabe_policy::{Attribute, AuthorityId, Policy};

use crate::audit::AuditEvent;
use crate::system::{CloudError, CloudSystem};
use crate::wire::Endpoint;

/// A user's secret keys for one owner's records, one per authority.
pub(crate) type OwnerKeys = BTreeMap<AuthorityId, UserSecretKey>;

/// Per-user runtime state: the CA-issued public key plus every secret
/// key, slotted by owner and then authority, and the derived tables of
/// its serving decrypts (never journaled): the `PK_UID` lines and one
/// key-side table per owner and policy.
#[derive(Debug)]
pub(crate) struct UserState {
    pub(crate) pk: UserPublicKey,
    /// Each owner's set sits behind one `Arc` and is replaced
    /// copy-on-write ([`Self::insert_key`], [`Self::key_mut`]), so a
    /// read's key view is a reference-count bump and stays a snapshot.
    keys: BTreeMap<OwnerId, Arc<OwnerKeys>>,
    /// Content-key cache misses this user's reads took, counted until
    /// its lines are built.
    pub(crate) cold_reads: AtomicUsize,
    /// `PK_UID`'s Miller lines, built outside the directory lock at the
    /// [`mabe_core::LINES_BREAK_EVEN`]-th cold read and installed once;
    /// `PK_UID` never changes, so nothing invalidates them.
    pub(crate) lines: OnceLock<Arc<FixedPairing>>,
    /// The key-side table of each (owner, policy) this user read under:
    /// the lines of its latest `K*` ([`mabe_core::decrypt_fast`]).
    key_tables: Mutex<Vec<KeyTable>>,
}

/// One slot of [`UserState`]'s key-side tables.
#[derive(Debug)]
struct KeyTable {
    owner: OwnerId,
    policy: Policy,
    table: Arc<FixedPairing>,
}

impl UserState {
    /// A user's state as registered or reloaded: keys, no tables.
    pub(crate) fn new(pk: UserPublicKey, keys: BTreeMap<OwnerId, OwnerKeys>) -> Self {
        UserState {
            pk,
            keys: keys.into_iter().map(|(o, k)| (o, Arc::new(k))).collect(),
            cold_reads: AtomicUsize::new(0),
            lines: OnceLock::new(),
            key_tables: Mutex::new(Vec::new()),
        }
    }

    /// Every key, in `(owner, authority)` order.
    pub(crate) fn keys(&self) -> impl Iterator<Item = (&OwnerId, &AuthorityId, &UserSecretKey)> {
        self.keys
            .iter()
            .flat_map(|(owner, keys)| keys.iter().map(move |(aid, key)| (owner, aid, key)))
    }

    /// The keys for `owner`'s records, as a snapshot.
    pub(crate) fn owner_keys(&self, owner: &OwnerId) -> Arc<OwnerKeys> {
        self.keys.get(owner).cloned().unwrap_or_default()
    }

    /// The key from `aid` for `owner`'s records.
    pub(crate) fn key(&self, owner: &OwnerId, aid: &AuthorityId) -> Option<&UserSecretKey> {
        self.keys.get(owner)?.get(aid)
    }

    /// The key from `aid` for `owner`'s records, to change in place;
    /// the owner's set is copied first if a key view still holds it.
    pub(crate) fn key_mut(
        &mut self,
        owner: &OwnerId,
        aid: &AuthorityId,
    ) -> Option<&mut UserSecretKey> {
        let keys = self.keys.get_mut(owner)?;
        if !keys.contains_key(aid) {
            return None;
        }
        Arc::make_mut(keys).get_mut(aid)
    }

    /// Slots `key` as the key from `aid` for `owner`'s records.
    pub(crate) fn insert_key(&mut self, owner: OwnerId, aid: AuthorityId, key: UserSecretKey) {
        Arc::make_mut(self.keys.entry(owner).or_default()).insert(aid, key);
    }

    /// The key-side table kept for reads of `owner`'s records under
    /// `policy`, whatever `K*` it was built from.
    pub(crate) fn key_table(&self, owner: &OwnerId, policy: &Policy) -> Option<Arc<FixedPairing>> {
        let slots = self.key_tables.lock();
        let slot = slots
            .iter()
            .find(|slot| slot.owner == *owner && slot.policy == *policy)?;
        Some(Arc::clone(&slot.table))
    }

    /// Keeps `table` as the key-side table of `owner`'s records under
    /// `policy`, in place of the one there.
    pub(crate) fn install_key_table(
        &self,
        owner: &OwnerId,
        policy: &Policy,
        table: Arc<FixedPairing>,
    ) {
        let mut slots = self.key_tables.lock();
        match slots
            .iter_mut()
            .find(|slot| slot.owner == *owner && slot.policy == *policy)
        {
            Some(slot) => slot.table = table,
            None => slots.push(KeyTable {
                owner: owner.clone(),
                policy: policy.clone(),
                table,
            }),
        }
    }
}

/// The user registry: one lock covers keys, grants, presence, and the
/// offline update-key queues, because revocation key delivery reads
/// and writes them together.
#[derive(Debug, Default)]
pub(crate) struct UserDirectory {
    pub(crate) users: BTreeMap<Uid, UserState>,
    pub(crate) grants: BTreeMap<Uid, BTreeSet<Attribute>>,
    pub(crate) offline: BTreeSet<Uid>,
    pub(crate) pending_updates: BTreeMap<Uid, Vec<(OwnerId, UpdateKey)>>,
}

impl UserDirectory {
    /// Every user currently granted at least one attribute at `aid`, in
    /// uid order.
    pub(crate) fn holders_of_authority(&self, aid: &AuthorityId) -> Vec<Uid> {
        self.grants
            .iter()
            .filter(|(_, attrs)| attrs.iter().any(|attr| attr.authority() == aid))
            .map(|(uid, _)| uid.clone())
            .collect()
    }
}

/// Identity and registry state (CA, owners, users).
#[derive(Debug)]
pub(crate) struct Directory {
    pub(crate) ca: Mutex<CertificateAuthority>,
    pub(crate) owners: RwLock<BTreeMap<OwnerId, DataOwner>>,
    pub(crate) users: RwLock<UserDirectory>,
}

impl Directory {
    pub(crate) fn new() -> Self {
        Directory {
            ca: Mutex::new(CertificateAuthority::new()),
            owners: RwLock::new(BTreeMap::new()),
            users: RwLock::new(UserDirectory::default()),
        }
    }
}

impl CloudSystem {
    /// Registers an attribute authority managing `attribute_names`, and
    /// introduces it to every existing owner (SK_o registration plus
    /// public-key download, both byte-accounted).
    ///
    /// # Errors
    ///
    /// Fails if the AID is taken.
    pub fn add_authority(
        &self,
        name: &str,
        attribute_names: &[&str],
    ) -> Result<AuthorityId, CloudError> {
        let aid = self.directory.ca.lock().register_authority(name)?;
        let aa = AttributeAuthority::new(aid.clone(), attribute_names, &mut *self.rng.lock());
        self.install_authority(aa)
    }

    /// Introduces a freshly set-up authority to the system: every
    /// existing owner not already registered with it exchanges `SK_o`,
    /// every owner re-learns its public keys, and the registration is
    /// audited.
    pub(crate) fn install_authority(
        &self,
        mut aa: AttributeAuthority,
    ) -> Result<AuthorityId, CloudError> {
        let aid = aa.aid().clone();
        {
            let mut owners = self.directory.owners.write();
            for owner in owners.values_mut() {
                if !aa.has_owner(owner.id()) {
                    let sk = owner.owner_secret_key();
                    self.wire.send(
                        Endpoint::Owner(owner.id().clone()),
                        Endpoint::Authority(aid.clone()),
                        "owner secret key",
                        sk.wire_size(),
                    );
                    aa.register_owner(sk)?;
                }
                let pks = aa.public_keys();
                self.wire.send(
                    Endpoint::Authority(aid.clone()),
                    Endpoint::Owner(owner.id().clone()),
                    "authority public keys",
                    pks.wire_size(),
                );
                owner.learn_authority_keys(pks);
            }
        }
        self.control.insert_authority(aa);
        self.audit.lock().record(AuditEvent::AuthorityAdded {
            aid: aid.to_string(),
        });
        Ok(aid)
    }

    /// Registers a data owner, exchanging `SK_o` / public keys with every
    /// existing authority and issuing this owner's user secret keys to
    /// every already-granted user.
    ///
    /// # Errors
    ///
    /// Fails if the owner id collides.
    pub fn add_owner(&self, name: &str) -> Result<OwnerId, CloudError> {
        let id = OwnerId::new(name);
        if self.directory.owners.read().contains_key(&id) {
            return Err(CloudError::Core(Error::AlreadyRegistered(name.to_owned())));
        }
        let owner = DataOwner::new(id.clone(), &mut *self.rng.lock());
        self.install_owner(owner)
    }

    /// Installs a fresh owner: exchanges keys with every authority it is
    /// not yet registered with, issues this owner's user secret keys to
    /// every already-granted user, and audits the registration.
    pub(crate) fn install_owner(&self, mut owner: DataOwner) -> Result<OwnerId, CloudError> {
        let id = owner.id().clone();
        if self.directory.owners.read().contains_key(&id) {
            return Err(CloudError::Core(Error::AlreadyRegistered(id.to_string())));
        }
        let shards = self.control.shards.read();
        for (aid, shard) in shards.iter() {
            let mut st = shard.state.lock();
            if !st.authority.has_owner(&id) {
                let sk = owner.owner_secret_key();
                self.wire.send(
                    Endpoint::Owner(id.clone()),
                    Endpoint::Authority(aid.clone()),
                    "owner secret key",
                    sk.wire_size(),
                );
                st.authority.register_owner(sk)?;
            }
            let pks = st.authority.public_keys();
            self.wire.send(
                Endpoint::Authority(aid.clone()),
                Endpoint::Owner(id.clone()),
                "authority public keys",
                pks.wire_size(),
            );
            owner.learn_authority_keys(pks);
        }
        // Existing users need keys scoped to the new owner. Keygen runs
        // per shard; the issued keys are slotted into the user registry
        // afterwards (shard lock before users lock, never the reverse).
        let granted: Vec<(Uid, Vec<AuthorityId>)> = self
            .directory
            .users
            .read()
            .grants
            .iter()
            .map(|(uid, attrs)| {
                let involved: BTreeSet<AuthorityId> =
                    attrs.iter().map(|a| a.authority().clone()).collect();
                (uid.clone(), involved.into_iter().collect())
            })
            .collect();
        let mut issued: Vec<(Uid, AuthorityId, UserSecretKey)> = Vec::new();
        for (uid, involved) in granted {
            for aid in involved {
                let shard = shards.get(&aid).expect("authority exists");
                let key = shard.state.lock().authority.keygen(&uid, &id)?;
                self.wire.send(
                    Endpoint::Authority(aid.clone()),
                    Endpoint::User(uid.clone()),
                    "user secret key",
                    key.wire_size(),
                );
                issued.push((uid.clone(), aid, key));
            }
        }
        drop(shards);
        {
            let mut users = self.directory.users.write();
            for (uid, aid, key) in issued {
                users
                    .users
                    .get_mut(&uid)
                    .expect("granted user exists")
                    .insert_key(id.clone(), aid, key);
            }
        }
        self.directory.owners.write().insert(id.clone(), owner);
        self.audit.lock().record(AuditEvent::OwnerAdded {
            owner: id.to_string(),
        });
        Ok(id)
    }

    /// Registers a user with the CA.
    ///
    /// # Errors
    ///
    /// Fails if the UID collides.
    pub fn add_user(&self, name: &str) -> Result<Uid, CloudError> {
        let pk = self
            .directory
            .ca
            .lock()
            .register_user(name, &mut *self.rng.lock())?;
        Ok(self.install_user(pk))
    }

    /// Installs a CA-registered user: the key delivery is byte-accounted,
    /// runtime state allocated, and the registration audited.
    pub(crate) fn install_user(&self, pk: UserPublicKey) -> Uid {
        let uid = pk.uid.clone();
        self.wire.send(
            Endpoint::Ca,
            Endpoint::User(uid.clone()),
            "uid + public key",
            pk.wire_size(),
        );
        {
            let mut users = self.directory.users.write();
            users
                .users
                .insert(uid.clone(), UserState::new(pk, BTreeMap::new()));
            users.grants.insert(uid.clone(), BTreeSet::new());
        }
        self.audit.lock().record(AuditEvent::UserAdded {
            uid: uid.to_string(),
        });
        uid
    }

    /// Marks a user offline: update keys queue up instead of being
    /// applied (the paper sends `UK` to all non-revoked users; offline
    /// ones catch up later via [`Self::sync_user`]).
    pub fn set_offline(&self, uid: &Uid) {
        self.directory.users.write().offline.insert(uid.clone());
    }
}

#[cfg(test)]
mod tests {
    use crate::CloudSystem;

    /// `holders_of_authority` lists, in uid order, exactly the users
    /// granted something at the authority, before and after
    /// revocations strip one of them.
    #[test]
    fn holders_of_authority_lists_granted_users_in_uid_order() {
        let sys = CloudSystem::new(6160);
        let org = sys.add_authority("Org", &["A", "C"]).unwrap();
        let lab = sys.add_authority("Lab", &["B"]).unwrap();
        sys.add_owner("owner").unwrap();
        let [carol, alice, bob, _dave] =
            ["carol", "alice", "bob", "dave"].map(|name| sys.add_user(name).unwrap());
        sys.grant(&carol, &["A@Org"]).unwrap();
        sys.grant(&alice, &["A@Org", "C@Org", "B@Lab"]).unwrap();
        sys.grant(&bob, &["B@Lab"]).unwrap();
        let holders = |aid| sys.directory.users.read().holders_of_authority(aid);
        assert_eq!(holders(&org), [alice.clone(), carol.clone()]);
        assert_eq!(holders(&lab), [alice.clone(), bob.clone()]);

        sys.revoke(&alice, "A@Org").unwrap();
        assert_eq!(
            holders(&org),
            [alice.clone(), carol.clone()],
            "alice still holds C@Org"
        );
        sys.revoke_user_at(&alice, &org).unwrap();
        assert_eq!(holders(&org), [carol]);
        assert_eq!(holders(&lab), [alice, bob]);
    }
}
