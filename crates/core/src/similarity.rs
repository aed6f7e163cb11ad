//! Similarity keys and group tables.
//!
//! "Similar jobs are disjoint groups of job submissions that use similar
//! amounts of resource capacities" (§2.1). Since job IDs are rarely
//! available, groups are identified by a tuple of job-request parameters;
//! for the LANL CM5 the paper settles on (user ID, application number,
//! requested memory). There is no formal method to pick the parameter set —
//! it is a trial-and-error design choice — so [`SimilarityPolicy`] makes the
//! key configurable and [`GroupTable`] stores per-group learning state for
//! any policy.

use std::collections::HashMap;

use resmatch_workload::Job;
use serde::{Deserialize, Serialize};

/// Which job-request parameters make up the similarity key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SimilarityPolicy {
    /// (user, application, requested memory) — the paper's CM5 key.
    #[default]
    UserAppRequest,
    /// (user, application) — coarser: one group per program per user.
    UserApp,
    /// (user) — coarsest: one group per user.
    User,
    /// (application, requested memory) — ignores the submitting user.
    AppRequest,
}

/// A concrete similarity-group key under some policy. Unused components are
/// `None` so keys from different policies never collide accidentally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SimilarityKey {
    /// User component, if the policy includes it.
    pub user: Option<u32>,
    /// Application component, if the policy includes it.
    pub app: Option<u32>,
    /// Requested-memory component, if the policy includes it.
    pub requested_mem_kb: Option<u64>,
}

/// Manual `Hash`: the derived impl feeds each `Option` discriminant and
/// value to the hasher separately (six writes), and group-table lookups
/// hash a key on every estimate and every feedback. Packing the fields
/// into three writes — a presence mask plus two words, three multiplies
/// through [`WordHasher`] — keeps the injection (`None` never collides
/// with `Some(0)`; the mask disambiguates).
impl std::hash::Hash for SimilarityKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        let mask = (u8::from(self.user.is_some()) << 2)
            | (u8::from(self.app.is_some()) << 1)
            | u8::from(self.requested_mem_kb.is_some());
        state.write_u8(mask);
        state.write_u64(
            (u64::from(self.user.unwrap_or(0)) << 32) | u64::from(self.app.unwrap_or(0)),
        );
        state.write_u64(self.requested_mem_kb.unwrap_or(0));
    }
}

impl SimilarityKey {
    /// A stable 64-bit fingerprint of this key (FNV-1a over the fields).
    ///
    /// Used as the payload of `EstimateScope::Group`, so it must be
    /// deterministic across runs, platforms, and toolchain versions —
    /// `std`'s `DefaultHasher` makes no such promise, hence the hand-rolled
    /// hash. Each field is folded as a presence byte followed by the value,
    /// so `None` never collides with `Some(0)`.
    pub fn stable_hash(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut fold = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        let mut fold_opt_u64 = |v: Option<u64>| match v {
            Some(x) => {
                fold(&[1]);
                fold(&x.to_le_bytes());
            }
            None => fold(&[0]),
        };
        fold_opt_u64(self.user.map(u64::from));
        fold_opt_u64(self.app.map(u64::from));
        fold_opt_u64(self.requested_mem_kb);
        h
    }
}

/// Fixed-seed word hasher for the in-memory tables hashed on the
/// simulator's hot path (similarity keys, group fingerprints, user and
/// job ids): each integer write is one folded 64×64→128-bit multiply of
/// `state ^ x` by a fixed odd constant, where a byte-serial hash pays one
/// dependent multiply per byte. Only the *bucket placement* changes versus
/// any other hasher — key equality, and therefore every lookup result, is
/// untouched — and no walk over these tables reaches an output unsorted.
///
/// Deterministic (no per-process seed) and not DoS-resistant; all keys
/// here come from trusted trace data. [`SimilarityKey::stable_hash`] is a
/// separate, pinned function.
#[derive(Debug, Clone, Copy)]
pub struct WordHasher(u64);

impl WordHasher {
    /// Initial state: an arbitrary fixed constant (π's fraction bits), so a
    /// zero first word does not leave the state at zero.
    const SEED: u64 = 0x243F_6A88_85A3_08D3;
    /// The odd multiplier (2⁶⁴ over the golden ratio).
    const MUL: u64 = 0x9E37_79B9_7F4A_7C15;

    #[inline]
    fn mix(&mut self, x: u64) {
        let p = u128::from(self.0 ^ x) * u128::from(Self::MUL);
        self.0 = (p as u64) ^ ((p >> 64) as u64);
    }
}

impl Default for WordHasher {
    fn default() -> Self {
        WordHasher(Self::SEED)
    }
}

impl std::hash::Hasher for WordHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    /// Byte slices (no key here writes one) fold eight bytes at a time,
    /// the last word zero-padded, then the length.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
        self.mix(bytes.len() as u64);
    }

    fn write_u8(&mut self, i: u8) {
        self.mix(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.mix(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.mix(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.mix(i as u64);
    }
}

/// `BuildHasher` plugging [`WordHasher`] into `HashMap`.
pub type WordBuildHasher = std::hash::BuildHasherDefault<WordHasher>;

impl SimilarityPolicy {
    /// Extract the key for `job`.
    pub fn key(&self, job: &Job) -> SimilarityKey {
        match self {
            SimilarityPolicy::UserAppRequest => SimilarityKey {
                user: Some(job.user),
                app: Some(job.app),
                requested_mem_kb: Some(job.requested_mem_kb),
            },
            SimilarityPolicy::UserApp => SimilarityKey {
                user: Some(job.user),
                app: Some(job.app),
                requested_mem_kb: None,
            },
            SimilarityPolicy::User => SimilarityKey {
                user: Some(job.user),
                app: None,
                requested_mem_kb: None,
            },
            SimilarityPolicy::AppRequest => SimilarityKey {
                user: None,
                app: Some(job.app),
                requested_mem_kb: Some(job.requested_mem_kb),
            },
        }
    }
}

/// Per-group learning state, keyed by [`SimilarityKey`].
///
/// The paper highlights that Algorithm 1 "is very memory space efficient: it
/// only saves two parameters per similarity group" — this table is the
/// realization of that registry.
#[derive(Debug, Clone, Default)]
pub struct GroupTable<T> {
    policy: SimilarityPolicy,
    groups: HashMap<SimilarityKey, T, WordBuildHasher>,
}

impl<T> GroupTable<T> {
    /// Create a table under the given policy.
    pub fn new(policy: SimilarityPolicy) -> Self {
        GroupTable {
            policy,
            groups: HashMap::default(),
        }
    }

    /// The policy keys are extracted with.
    pub fn policy(&self) -> SimilarityPolicy {
        self.policy
    }

    /// Number of groups seen so far.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// True when no group exists yet.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// The group state for `job`, if the group exists.
    pub fn get(&self, job: &Job) -> Option<&T> {
        self.groups.get(&self.policy.key(job))
    }

    /// Mutable group state for `job`, if the group exists.
    pub fn get_mut(&mut self, job: &Job) -> Option<&mut T> {
        self.groups.get_mut(&self.policy.key(job))
    }

    /// The group state for `job`, creating it with `init` on first sight
    /// (Algorithm 1 line 4: "Initialize a new group").
    pub fn get_or_insert_with(&mut self, job: &Job, init: impl FnOnce(&Job) -> T) -> &mut T {
        self.groups
            .entry(self.policy.key(job))
            .or_insert_with(|| init(job))
    }

    /// Iterate over `(key, state)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&SimilarityKey, &T)> {
        self.groups.iter()
    }

    /// Insert state under an explicit key (state restoration after a
    /// scheduler restart). Replaces any existing entry.
    pub fn insert_key(&mut self, key: SimilarityKey, value: T) {
        self.groups.insert(key, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resmatch_workload::job::JobBuilder;

    fn job(user: u32, app: u32, req: u64) -> Job {
        JobBuilder::new(1)
            .user(user)
            .app(app)
            .requested_mem_kb(req)
            .build()
    }

    #[test]
    fn paper_policy_distinguishes_all_three_fields() {
        let p = SimilarityPolicy::UserAppRequest;
        let base = p.key(&job(1, 2, 100));
        assert_eq!(base, p.key(&job(1, 2, 100)));
        assert_ne!(base, p.key(&job(9, 2, 100)));
        assert_ne!(base, p.key(&job(1, 9, 100)));
        assert_ne!(base, p.key(&job(1, 2, 999)));
    }

    #[test]
    fn coarser_policies_merge() {
        assert_eq!(
            SimilarityPolicy::UserApp.key(&job(1, 2, 100)),
            SimilarityPolicy::UserApp.key(&job(1, 2, 999))
        );
        assert_eq!(
            SimilarityPolicy::User.key(&job(1, 2, 100)),
            SimilarityPolicy::User.key(&job(1, 9, 999))
        );
        assert_eq!(
            SimilarityPolicy::AppRequest.key(&job(1, 2, 100)),
            SimilarityPolicy::AppRequest.key(&job(7, 2, 100))
        );
    }

    #[test]
    fn keys_from_different_policies_do_not_collide() {
        // UserApp leaves requested_mem None; UserAppRequest fills it.
        let a = SimilarityPolicy::UserApp.key(&job(1, 2, 100));
        let b = SimilarityPolicy::UserAppRequest.key(&job(1, 2, 100));
        assert_ne!(a, b);
    }

    #[test]
    fn table_creates_groups_lazily() {
        let mut t: GroupTable<u32> = GroupTable::new(SimilarityPolicy::UserAppRequest);
        assert!(t.is_empty());
        assert!(t.get(&job(1, 1, 100)).is_none());
        *t.get_or_insert_with(&job(1, 1, 100), |_| 0) += 5;
        *t.get_or_insert_with(&job(1, 1, 100), |_| 0) += 5;
        *t.get_or_insert_with(&job(2, 1, 100), |_| 100) += 1;
        assert_eq!(t.len(), 2);
        assert_eq!(*t.get(&job(1, 1, 100)).unwrap(), 10);
        assert_eq!(*t.get(&job(2, 1, 100)).unwrap(), 101);
    }

    #[test]
    fn stable_hash_is_injective_on_distinct_keys_and_fixed() {
        let keys = [
            SimilarityPolicy::UserAppRequest.key(&job(1, 2, 100)),
            SimilarityPolicy::UserAppRequest.key(&job(1, 2, 999)),
            SimilarityPolicy::UserApp.key(&job(1, 2, 100)),
            SimilarityPolicy::User.key(&job(1, 2, 100)),
            SimilarityPolicy::AppRequest.key(&job(1, 2, 100)),
            // None vs Some(0) on every field.
            SimilarityPolicy::UserAppRequest.key(&job(0, 0, 0)),
            SimilarityPolicy::UserApp.key(&job(0, 0, 0)),
            SimilarityPolicy::User.key(&job(0, 0, 0)),
            SimilarityPolicy::AppRequest.key(&job(0, 0, 0)),
        ];
        let mut hashes: Vec<u64> = keys.iter().map(|k| k.stable_hash()).collect();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), keys.len(), "distinct keys must not collide");

        // The value is part of the golden-reproducibility surface: it routes
        // service shards and partitions snapshots, so these literals may
        // never move — not with the in-memory table hasher, not with the
        // platform or toolchain.
        let pinned = [
            (
                SimilarityPolicy::UserAppRequest.key(&job(1, 2, 100)),
                0xa3a0_ad5d_610c_9b81,
            ),
            (
                SimilarityPolicy::UserAppRequest.key(&job(0, 0, 0)),
                0x3c14_a359_4164_1ce2,
            ),
            (
                SimilarityPolicy::UserApp.key(&job(0, 0, 0)),
                0xbc8d_741c_4ad8_b655,
            ),
            (
                SimilarityPolicy::User.key(&job(0, 0, 0)),
                0x97cc_6ae3_e26e_ca8c,
            ),
            (
                SimilarityPolicy::AppRequest.key(&job(0, 0, 0)),
                0x3a0e_8d52_fc8d_b621,
            ),
        ];
        for (key, want) in pinned {
            assert_eq!(key.stable_hash(), want, "stable_hash moved for {key:?}");
        }
    }

    #[test]
    fn word_hasher_separates_keys_and_byte_lengths() {
        use std::hash::{BuildHasher, Hasher};
        let build = WordBuildHasher::default();
        let keys = [
            SimilarityPolicy::UserAppRequest.key(&job(1, 2, 100)),
            SimilarityPolicy::UserAppRequest.key(&job(0, 0, 0)),
            SimilarityPolicy::UserApp.key(&job(0, 0, 0)),
            SimilarityPolicy::User.key(&job(0, 0, 0)),
            SimilarityPolicy::AppRequest.key(&job(0, 0, 0)),
        ];
        let mut hashes: Vec<u64> = keys.iter().map(|k| build.hash_one(k)).collect();
        assert_eq!(
            hashes[0],
            build.hash_one(keys[0]),
            "equal keys hash equally"
        );
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), keys.len());
        // The byte-slice fallback folds the length: a zero-padded tail
        // does not alias a longer slice.
        let bytes = |b: &[u8]| {
            let mut h = build.build_hasher();
            h.write(b);
            h.finish()
        };
        assert_eq!(bytes(&[1, 2, 3]), bytes(&[1, 2, 3]));
        assert_ne!(bytes(&[1, 2, 3]), bytes(&[1, 2, 3, 0]));
    }

    #[test]
    fn get_mut_edits_in_place() {
        let mut t: GroupTable<Vec<u32>> = GroupTable::new(SimilarityPolicy::User);
        t.get_or_insert_with(&job(1, 1, 100), |_| vec![]);
        t.get_mut(&job(1, 5, 7)).unwrap().push(3); // same user → same group
        assert_eq!(t.get(&job(1, 0, 0)).unwrap(), &[3]);
    }
}
