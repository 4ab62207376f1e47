//! S-BGP-style route attestations.
//!
//! The paper builds on secure BGP (§1, citing Kent et al. \[13\]): "Secure
//! variants of BGP, such as S-BGP, have been proposed as mechanisms for
//! ISPs to check that a routing announcement does correspond to the
//! claimed path and destination" — and PVR's condition 1 (§3.2) relies on
//! exactly this: "To support condition 1, we can sign all the routing
//! announcements."
//!
//! Construction: when AS `s` announces prefix `p` with path `P` to
//! neighbor `t`, it appends an attestation — its signature over
//! `(p, P, t)`. The chain of attestations, one per AS on the path, proves
//! that every hop authorized the announcement to the next hop, so a
//! receiver can check that the route "was provided to A by some N_i".
//!
//! Not covered by signatures (as in real S-BGP): LOCAL_PREF, MED, and
//! communities — they are non-transitive or locally meaningful.
//!
//! A router's own attestations are signed when first read, not when
//! made, and on cores the process leaves free ([`crate::cores`]) helper
//! threads sign them ahead of the readers: PKCS#1 v1.5 signing is
//! deterministic, so who computes a signature, and when, changes no
//! byte.

use crate::cores::{CoreBudget, Spare};
use crate::path::AsPath;
use crate::route::Route;
use crate::types::{Asn, Prefix};
use pvr_crypto::encoding::{Reader, Wire, WireError};
use pvr_crypto::keys::{Identity, KeyStore};
use pvr_crypto::rsa::RsaSignature;
use pvr_crypto::sha256::sha256_concat;
use std::collections::hash_map::{Entry, HashMap};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError, Weak};
use std::time::Duration;

/// One hop's signature over (prefix, path-so-far, intended receiver).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Attestation {
    /// The announced prefix.
    pub prefix: Prefix,
    /// The path at signing time, nearest AS (the signer) first.
    pub path: AsPath,
    /// The AS the announcement was directed to.
    pub target: Asn,
    /// The signing AS (must equal `path.first_as()`).
    pub signer: Asn,
    /// Signature over the canonical encoding of the above.
    pub signature: RsaSignature,
}

impl Attestation {
    /// Writes the canonical signing payload into `buf` (which is
    /// cleared first). Chain verification reuses one growable buffer
    /// across all attestations instead of allocating per hop.
    fn signed_bytes_into(
        buf: &mut Vec<u8>,
        prefix: &Prefix,
        path: &AsPath,
        target: Asn,
        signer: Asn,
    ) {
        buf.clear();
        buf.extend_from_slice(b"pvr.sbgp.v1");
        prefix.encode(buf);
        path.encode(buf);
        target.encode(buf);
        signer.encode(buf);
    }

    fn signed_bytes(prefix: &Prefix, path: &AsPath, target: Asn, signer: Asn) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64);
        Self::signed_bytes_into(&mut buf, prefix, path, target, signer);
        buf
    }

    /// Creates `identity`'s attestation for announcing (`prefix`, `path`)
    /// to `target`. The one place an attestation signature is computed.
    pub fn create(identity: &Identity, prefix: Prefix, path: &AsPath, target: Asn) -> Attestation {
        let signer = Asn(identity.id() as u32);
        debug_assert_eq!(path.first_as(), Some(signer), "signer must head the path");
        let bytes = Self::signed_bytes(&prefix, path, target, signer);
        Attestation { prefix, path: path.clone(), target, signer, signature: identity.sign(&bytes) }
    }

    /// Verifies the signature.
    pub fn verify(&self, keys: &KeyStore) -> Result<(), SbgpError> {
        let bytes = Self::signed_bytes(&self.prefix, &self.path, self.target, self.signer);
        keys.verify(self.signer.principal(), &bytes, &self.signature)
            .map_err(|_| SbgpError::BadSignature(self.signer))
    }
}

// A chain's nodes encode through this line too (`ChainNode::attestation`);
// only their length sum (`ChainNode::encoded_len`) restates the fields.
pvr_crypto::wire_struct!(Attestation { prefix, path, target, signer, signature });

/// A persistent (structurally shared) attestation chain.
///
/// Propagating a signed route appends exactly one attestation to the
/// chain it arrived with, so chains across a network form a tree of
/// shared prefixes. The pre-E14 representation (`Vec<Attestation>`)
/// deep-copied the whole prefix — path slices and signature bytes — at
/// every hop and for every per-neighbor clone. This cons list shares
/// the parent instead: [`AttestationChain::push`] allocates one node,
/// and every clone anywhere downstream is a reference-count bump.
///
/// The newest attestation (last hop's) is the list head; origin-first
/// order — the canonical wire and verification order — is recovered by
/// collecting node references, which chains are short enough (path
/// length) to make free compared to one RSA verify.
///
/// Attestations are handed out by value ([`newest`](Self::newest),
/// [`origin`](Self::origin), [`to_vec`](Self::to_vec)): a node may not
/// hold its signature yet, and reading one signs it.
#[derive(Clone, Default)]
pub struct AttestationChain(Option<Arc<ChainNode>>);

/// One attestation of a chain: the [`Attestation`] fields, with the
/// signature either given at construction (decoded, hand-built, forged
/// or eagerly signed attestations) or made from `key` on first read —
/// whichever thread reads first signs, once, and every reader sees the
/// same bytes. The job is the fields already here plus the key, so a
/// deferred node costs a once-state and one pointer over a finished one
/// (`chain_node_stays_small` holds the size).
struct ChainNode {
    prefix: Prefix,
    path: AsPath,
    target: Asn,
    signer: Asn,
    signature: OnceLock<RsaSignature>,
    /// The signer's identity while the signature may still be owed;
    /// `None` when it was given.
    key: Option<Arc<Identity>>,
    parent: Option<Arc<ChainNode>>,
    /// Number of attestations up to and including this node.
    len: u32,
}

impl ChainNode {
    /// The signature, computed here if this is its first read.
    fn signature(&self) -> &RsaSignature {
        self.signature.get_or_init(|| {
            Attestation::create(self.key(), self.prefix, &self.path, self.target).signature
        })
    }

    /// The key of a node whose signature is still owed.
    fn key(&self) -> &Identity {
        self.key.as_deref().expect("a node without a signature holds its key")
    }

    fn is_signed(&self) -> bool {
        self.signature.get().is_some()
    }

    /// The node as an [`Attestation`], signing it if owed. Equality and
    /// encoding go through here, so `Attestation`'s derived `PartialEq`
    /// and its `wire_struct!` line stay the one statement of both; they
    /// are off the hot path (tests, checkpoints, `Debug`).
    fn attestation(&self) -> Attestation {
        Attestation {
            prefix: self.prefix,
            path: self.path.clone(),
            target: self.target,
            signer: self.signer,
            signature: self.signature().clone(),
        }
    }

    /// The length of the node's [`Attestation`] encoding, without
    /// signing: an owed PKCS#1 v1.5 signature is exactly as long as the
    /// modulus. This sum is on every send (`BgpUpdate::wire_size`), so it
    /// restates the field set; the exhaustive pattern makes a new field
    /// a compile error here, and `tests/wire.rs` checks the sum against
    /// the encoding.
    fn encoded_len(&self) -> usize {
        let ChainNode { prefix, path, target, signer, signature, key: _, parent: _, len: _ } = self;
        let signature = match signature.get() {
            Some(sig) => sig.encoded_len(),
            None => {
                let bytes = self.key().public().modulus_len();
                (bytes as u32).encoded_len() + bytes
            }
        };
        prefix.encoded_len()
            + path.encoded_len()
            + target.encoded_len()
            + signer.encoded_len()
            + signature
    }
}

impl AttestationChain {
    /// The empty chain (an unsigned route).
    pub fn empty() -> AttestationChain {
        AttestationChain(None)
    }

    /// Builds a chain from origin-first attestations (wire order). Used
    /// by decoding, tests, and attack strategies that forge chains
    /// explicitly.
    pub fn from_attestations(atts: Vec<Attestation>) -> AttestationChain {
        let mut chain = AttestationChain::empty();
        for att in atts {
            chain = chain.push(att);
        }
        chain
    }

    /// A new chain extending `self` with `att` (the newest hop's
    /// attestation). `self` is shared, never copied.
    pub fn push(&self, att: Attestation) -> AttestationChain {
        let Attestation { prefix, path, target, signer, signature } = att;
        self.push_node(prefix, path, target, signer, OnceLock::from(signature), None)
    }

    /// [`push`](Self::push) of `key`'s attestation for announcing
    /// (`prefix`, `path`) to `target`, signed on first read.
    fn push_unsigned(
        &self,
        key: &Arc<Identity>,
        prefix: Prefix,
        path: &AsPath,
        target: Asn,
    ) -> AttestationChain {
        let signer = Asn(key.id() as u32);
        debug_assert_eq!(path.first_as(), Some(signer), "signer must head the path");
        self.push_node(prefix, path.clone(), target, signer, OnceLock::new(), Some(Arc::clone(key)))
    }

    fn push_node(
        &self,
        prefix: Prefix,
        path: AsPath,
        target: Asn,
        signer: Asn,
        signature: OnceLock<RsaSignature>,
        key: Option<Arc<Identity>>,
    ) -> AttestationChain {
        let len = self.len() as u32 + 1;
        let parent = self.0.clone();
        let node = ChainNode { prefix, path, target, signer, signature, key, parent, len };
        AttestationChain(Some(Arc::new(node)))
    }

    /// Number of attestations.
    pub fn len(&self) -> usize {
        self.0.as_ref().map_or(0, |n| n.len as usize)
    }

    /// True when the chain holds no attestations.
    pub fn is_empty(&self) -> bool {
        self.0.is_none()
    }

    /// The most recent attestation (the last signer's), if any.
    pub fn newest(&self) -> Option<Attestation> {
        self.0.as_deref().map(ChainNode::attestation)
    }

    /// The origin AS's attestation (the oldest), if any.
    pub fn origin(&self) -> Option<Attestation> {
        self.nodes_newest_first().last().map(ChainNode::attestation)
    }

    /// Clones all attestations in canonical origin-first order.
    pub fn to_vec(&self) -> Vec<Attestation> {
        self.nodes().into_iter().map(ChainNode::attestation).collect()
    }

    /// The nodes newest-first (list order; O(1) per step).
    fn nodes_newest_first(&self) -> impl Iterator<Item = &ChainNode> {
        std::iter::successors(self.0.as_deref(), |n| n.parent.as_deref())
    }

    /// The nodes in canonical origin-first order.
    fn nodes(&self) -> Vec<&ChainNode> {
        let mut nodes: Vec<&ChainNode> = self.nodes_newest_first().collect();
        nodes.reverse();
        nodes
    }
}

impl PartialEq for AttestationChain {
    fn eq(&self, other: &Self) -> bool {
        if self.len() != other.len() {
            return false;
        }
        let mut a = self.0.as_deref();
        let mut b = other.0.as_deref();
        while let (Some(x), Some(y)) = (a, b) {
            // Shared suffixes compare in O(1); a chain equals itself or
            // a clone without walking.
            if std::ptr::eq(x, y) {
                return true;
            }
            if x.attestation() != y.attestation() {
                return false;
            }
            a = x.parent.as_deref();
            b = y.parent.as_deref();
        }
        true
    }
}

impl Eq for AttestationChain {}

impl std::fmt::Debug for AttestationChain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.to_vec()).finish()
    }
}

/// Attestations made but not yet signed, for helper threads to sign
/// ahead of the routers that will read them.
///
/// A signed network on a host with more cores than shards holds one
/// queue, shared by its routers (which push what they make) and by
/// [`with_helpers`](Self::with_helpers) (which runs the helpers for the
/// length of a convergence call). Helpers sign only on cores the
/// process's [`CoreBudget`] leaves free, so they vanish under a
/// parallel sweep and reappear when it ends; while none holds a core,
/// routers queue nothing. The engine reads an UPDATE's signatures when
/// it delivers it, oldest first, and signs inline whatever no helper
/// has reached; helpers take the newest, so the two rarely meet on one
/// node. The queue holds weak references: it keeps no attestation
/// alive, and an entry whose node was read or dropped is discarded
/// unsigned. Nothing a helper does is observable except as time — a
/// node is signed by whoever reads it first, with the same bytes.
pub(crate) struct SignQueue {
    /// Most helper threads one [`with_helpers`](Self::with_helpers)
    /// call runs.
    helpers: usize,
    /// Whose free cores the helpers sign on.
    budget: &'static CoreBudget,
    /// Helpers holding a spare core now. Only a hint for `push` (the
    /// queue itself is behind `state`), so every access is `Relaxed`.
    signing: AtomicUsize,
    state: Mutex<QueueState>,
    wake: Condvar,
}

/// How long a helper without a core waits before asking the budget
/// again.
const PAUSE: Duration = Duration::from_millis(1);

#[derive(Default)]
struct QueueState {
    /// Oldest at the front, newest at the back.
    pending: VecDeque<Weak<ChainNode>>,
    /// Helpers waiting for work.
    idle: usize,
    /// Whether helpers should keep running.
    open: bool,
}

/// Locks `mutex`, recovering from poisoning: every structure behind
/// this module's locks is updated whole, so a panic elsewhere never
/// leaves one half-written.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl SignQueue {
    /// A queue whose [`with_helpers`](Self::with_helpers) runs up to
    /// `helpers` threads on the cores `budget` leaves free.
    pub(crate) fn new(helpers: usize, budget: &'static CoreBudget) -> SignQueue {
        SignQueue {
            helpers,
            budget,
            signing: AtomicUsize::new(0),
            state: Mutex::default(),
            wake: Condvar::new(),
        }
    }

    /// Queues the newest node of `chain`, if a helper is signing.
    /// Entries the readers have already signed or dropped leave from
    /// the front, so the queue stays about as long as the signatures
    /// still owed.
    fn push(&self, chain: &AttestationChain) {
        let Some(node) = &chain.0 else { return };
        if self.signing.load(Ordering::Relaxed) == 0 {
            return;
        }
        let mut state = lock(&self.state);
        while state.pending.front().is_some_and(|oldest| !still_owed(oldest)) {
            state.pending.pop_front();
        }
        state.pending.push_back(Arc::downgrade(node));
        if state.idle > 0 {
            self.wake.notify_one();
        }
    }

    /// Runs `work` with this queue's helper threads signing beside it —
    /// one per core the budget leaves free now, up to `helpers` — and
    /// returns once they have all stopped. The caller counts `work`'s
    /// own threads in the budget first.
    pub(crate) fn with_helpers<R>(&self, work: impl FnOnce() -> R) -> R {
        std::thread::scope(|scope| {
            lock(&self.state).open = true;
            // Dropped when `work` returns or unwinds, before the scope
            // joins the helpers it tells to stop.
            let _close = Close(self);
            let spares = std::iter::from_fn(|| self.budget.take_spare()).take(self.helpers);
            for core in spares {
                // Counted before `work` starts pushing.
                let signing = Signing::new(&self.signing, core);
                scope.spawn(move || self.help(signing));
            }
            work()
        })
    }

    /// One helper: signs queued nodes newest first until closed, while
    /// it holds a spare core. It gives the core back as soon as the
    /// process counts more busy threads than cores, and asks for one
    /// again every [`PAUSE`].
    fn help<'a>(&'a self, signing: Signing<'a>) {
        let mut signing = Some(signing);
        let mut state = lock(&self.state);
        while state.open {
            if signing.is_some() && self.budget.oversubscribed() {
                signing = None;
            }
            if signing.is_none() {
                match self.budget.take_spare() {
                    Some(core) => signing = Some(Signing::new(&self.signing, core)),
                    None => {
                        state = self
                            .wake
                            .wait_timeout(state, PAUSE)
                            .unwrap_or_else(PoisonError::into_inner)
                            .0;
                        continue;
                    }
                }
            }
            match state.pending.pop_back() {
                Some(entry) => {
                    drop(state);
                    if let Some(node) = entry.upgrade() {
                        node.signature();
                    }
                    state = lock(&self.state);
                }
                None => {
                    state.idle += 1;
                    state = self.wake.wait(state).unwrap_or_else(PoisonError::into_inner);
                    state.idle -= 1;
                }
            }
        }
    }
}

/// A helper's spare core, counted in its queue's `signing` while held.
struct Signing<'a> {
    count: &'a AtomicUsize,
    _core: Spare<'a>,
}

impl<'a> Signing<'a> {
    fn new(count: &'a AtomicUsize, core: Spare<'a>) -> Signing<'a> {
        count.fetch_add(1, Ordering::Relaxed);
        Signing { count, _core: core }
    }
}

impl Drop for Signing<'_> {
    fn drop(&mut self) {
        self.count.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Stops a queue's helpers when dropped. What is still owed stays
/// queued for the next call's helpers; the rest is let go.
struct Close<'a>(&'a SignQueue);

impl Drop for Close<'_> {
    fn drop(&mut self) {
        let mut state = lock(&self.0.state);
        state.open = false;
        state.pending.retain(still_owed);
        drop(state);
        self.0.wake.notify_all();
    }
}

/// Whether a queued node is alive and not yet signed.
fn still_owed(entry: &Weak<ChainNode>) -> bool {
    entry.upgrade().is_some_and(|node| !node.is_signed())
}

/// A cache memo exported for checkpointing, in the order the CACHE
/// section holds it: the call and hit counters, then the sorted
/// `(signer, digest, verdict)` entries.
pub(crate) type CacheState = (u64, u64, Vec<(Asn, [u8; 32], bool)>);

/// An RSA-verification memo for attestation signatures.
///
/// `sbgp` re-verifies the *entire* chain at every import hop, so a
/// route that crosses `h` ASes costs `O(h²)` RSA verifies network-wide
/// — and every prefix-suffix attestation past the first hop is one
/// some router already checked. A cache shared by the routers of a
/// [`crate::BgpNetwork`] collapses that: the verdict for an
/// attestation depends only on the signer, the signed payload, and
/// the signature bytes, all captured in the cache key.
///
/// The key is `(signer, sha256(signed_bytes ‖ signature))`. Hashing
/// the signature *with* the payload is load-bearing: a forged
/// attestation carries the same signed bytes as the genuine one but a
/// different (invalid) signature, and a payload-only key would let the
/// genuine chain's cached `true` launder the forgery (pinned by the
/// cache regression tests in `tests/detection_matrix.rs`).
///
/// A network holds one cache per engine shard, shared by that shard's
/// routers through an `Arc` — hence the `Mutex` and the atomics. A
/// shard's window runs on one thread, so the lock is never contended
/// and `check` holds it across the RSA verify of a miss; what a shard
/// count changes is only the hit counter (a verdict cached on one
/// shard is a miss on the next).
#[derive(Debug, Default)]
pub struct VerifyCache {
    verdicts: Mutex<HashMap<(Asn, [u8; 32]), bool>>,
    calls: AtomicU64,
    hits: AtomicU64,
}

impl VerifyCache {
    /// An empty cache.
    pub fn new() -> VerifyCache {
        VerifyCache::default()
    }

    /// Total attestation-signature checks requested through the cache.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// How many of those were answered from the memo (no RSA math).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Exports the memo for checkpointing: `(calls, hits, entries)`
    /// with entries in `(signer, digest)` order, so the same cache
    /// state always serializes to the same bytes.
    pub(crate) fn export_state(&self) -> CacheState {
        let mut entries: Vec<(Asn, [u8; 32], bool)> = lock(&self.verdicts)
            .iter()
            .map(|(&(signer, digest), &verdict)| (signer, digest, verdict))
            .collect();
        entries.sort_unstable_by_key(|&(signer, digest, _)| (signer, digest));
        (self.calls(), self.hits(), entries)
    }

    /// Replaces the memo with a checkpointed state. Restore only: the
    /// cache is shared by `Arc`, so this goes through the interior
    /// mutability the hot path already uses.
    pub(crate) fn load_state(&self, (calls, hits, entries): CacheState) {
        let mut verdicts = lock(&self.verdicts);
        verdicts.clear();
        for (signer, digest, verdict) in entries {
            verdicts.insert((signer, digest), verdict);
        }
        drop(verdicts);
        self.calls.store(calls, Ordering::Relaxed);
        self.hits.store(hits, Ordering::Relaxed);
    }

    /// Checks `signer`'s signature over `signed_bytes`, consulting the
    /// memo first. The verdict (valid or not) is cached either way —
    /// a forged chain replayed at every hop would otherwise cost the
    /// full RSA verify each time it is rejected.
    ///
    /// A lock poisoned by a panic elsewhere is used as it stands: an
    /// entry goes in whole, after its verify, so the memo only ever
    /// holds verdicts that were computed.
    fn check(&self, signer: Asn, signed_bytes: &[u8], sig: &RsaSignature, keys: &KeyStore) -> bool {
        self.calls.fetch_add(1, Ordering::Relaxed);
        let digest = sha256_concat(&[signed_bytes, &sig.0]);
        let mut key = [0u8; 32];
        key.copy_from_slice(digest.as_bytes());
        match lock(&self.verdicts).entry((signer, key)) {
            Entry::Occupied(hit) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                *hit.get()
            }
            Entry::Vacant(miss) => {
                *miss.insert(keys.verify(signer.principal(), signed_bytes, sig).is_ok())
            }
        }
    }
}

/// A route bundled with its attestation chain (origin's attestation
/// first on the wire). An empty chain means the route is unsigned
/// (plain BGP mode).
///
/// The chain is a shared persistent list: cloning a `SignedRoute` — as
/// per-neighbor fan-out, RIB storage, and delivery tracing all do —
/// never copies attestation bytes, and [`SignedRoute::extend`] shares
/// the received chain rather than re-copying its prefix. Forged or
/// hand-built chains are constructed explicitly via
/// [`AttestationChain::from_attestations`] and
/// [`SignedRoute::with_chain`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SignedRoute {
    /// The route as announced.
    pub route: Route,
    /// Attestation chain; length equals the path length when signed,
    /// zero when unsigned.
    chain: AttestationChain,
}

impl SignedRoute {
    /// Wraps a route without signatures (plain BGP).
    pub fn unsigned(route: Route) -> SignedRoute {
        SignedRoute { route, chain: AttestationChain::empty() }
    }

    /// Bundles a route with an explicitly built chain (decoders, tests,
    /// and attack strategies forging or splicing chains).
    pub fn with_chain(route: Route, chain: AttestationChain) -> SignedRoute {
        SignedRoute { route, chain }
    }

    /// The attestation chain.
    pub fn chain(&self) -> &AttestationChain {
        &self.chain
    }

    /// True if the route carries an attestation chain.
    pub fn is_signed(&self) -> bool {
        !self.chain.is_empty()
    }

    /// Originates a signed route: `identity`'s AS announces its own
    /// prefix to `target`. The route's path must be exactly `[signer]`.
    pub fn originate(identity: &Identity, route: Route, target: Asn) -> SignedRoute {
        assert_eq!(
            route.path.asns(),
            &[Asn(identity.id() as u32)],
            "origination path must be [self]"
        );
        let att = Attestation::create(identity, route.prefix, &route.path, target);
        SignedRoute { route, chain: AttestationChain::empty().push(att) }
    }

    /// Extends a received signed route for re-announcement: `identity`'s
    /// AS prepends itself (already done in `route`) and signs toward
    /// `target`. `route.path` must start with the signer and continue
    /// with the received chain's path. The received chain is shared,
    /// not copied.
    pub fn extend(
        received: &SignedRoute,
        identity: &Identity,
        route: Route,
        target: Asn,
    ) -> SignedRoute {
        debug_assert_eq!(route.path.first_as(), Some(Asn(identity.id() as u32)));
        let att = Attestation::create(identity, route.prefix, &route.path, target);
        SignedRoute { route, chain: received.chain.push(att) }
    }

    /// [`extend`](Self::extend) of `received`, or
    /// [`originate`](Self::originate) when there is none, except that
    /// the new attestation is signed when first read — by whichever
    /// reader or `queue` helper gets there first — instead of now. Every
    /// byte, verdict and length is the eager form's.
    pub(crate) fn signed_later(
        received: Option<&SignedRoute>,
        identity: &Arc<Identity>,
        route: Route,
        target: Asn,
        queue: Option<&SignQueue>,
    ) -> SignedRoute {
        debug_assert!(received.is_some() || route.path.len() == 1, "origination path is [self]");
        let origin = AttestationChain::empty();
        let below = received.map_or(&origin, |r| &r.chain);
        let chain = below.push_unsigned(identity, route.prefix, &route.path, target);
        if let Some(queue) = queue {
            queue.push(&chain);
        }
        SignedRoute { route, chain }
    }

    /// Verifies the whole chain for an announcement delivered to
    /// `receiver`. Checks, per §1's S-BGP description, that the
    /// announcement corresponds to the claimed path and destination:
    ///
    /// * one attestation per AS on the path, origin first;
    /// * each attestation's path is the correct suffix of the route path;
    /// * each attestation's target is the next AS (the last one's is
    ///   `receiver`);
    /// * every signature verifies.
    pub fn verify(&self, receiver: Asn, keys: &KeyStore) -> Result<(), SbgpError> {
        self.verify_cached(receiver, keys, None)
    }

    /// [`SignedRoute::verify`] with an optional network-wide
    /// [`VerifyCache`]: verdicts are identical with or without the
    /// cache, only the number of RSA operations differs.
    pub fn verify_cached(
        &self,
        receiver: Asn,
        keys: &KeyStore,
        cache: Option<&VerifyCache>,
    ) -> Result<(), SbgpError> {
        let path = self.route.path.asns();
        if path.is_empty() {
            return Err(SbgpError::EmptyPath);
        }
        if self.route.path.has_loop() {
            return Err(SbgpError::PathLoop);
        }
        if self.chain.len() != path.len() {
            return Err(SbgpError::ChainLength { expected: path.len(), got: self.chain.len() });
        }
        let m = path.len();
        // One signing-payload buffer for the whole chain; the node
        // collection restores origin-first order so error precedence
        // matches the pre-sharing implementation exactly.
        let mut buf = Vec::with_capacity(64);
        for (j, att) in self.chain.nodes().into_iter().enumerate() {
            // Attestation j (origin first) was made by path[m-1-j].
            let signer_idx = m - 1 - j;
            let expected_signer = path[signer_idx];
            let expected_target = if signer_idx == 0 { receiver } else { path[signer_idx - 1] };
            if att.signer != expected_signer {
                return Err(SbgpError::WrongSigner { expected: expected_signer, got: att.signer });
            }
            if att.prefix != self.route.prefix {
                return Err(SbgpError::PrefixMismatch);
            }
            if att.path.asns() != &path[signer_idx..] {
                return Err(SbgpError::PathMismatch(att.signer));
            }
            if att.target != expected_target {
                return Err(SbgpError::WrongTarget { expected: expected_target, got: att.target });
            }
            Attestation::signed_bytes_into(
                &mut buf,
                &att.prefix,
                &att.path,
                att.target,
                att.signer,
            );
            let signature = att.signature();
            let ok = match cache {
                Some(cache) => cache.check(att.signer, &buf, signature, keys),
                None => keys.verify(att.signer.principal(), &buf, signature).is_ok(),
            };
            if !ok {
                return Err(SbgpError::BadSignature(att.signer));
            }
        }
        Ok(())
    }
}

/// Hand-written: the chain is a shared cons list held newest-first,
/// while the wire (and verification) order is origin-first. Encoding
/// signs what is still owed; `encoded_len` — every sent UPDATE's
/// `wire_size` — never does.
impl Wire for SignedRoute {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.route.encode(buf);
        let nodes = self.chain.nodes();
        (nodes.len() as u32).encode(buf);
        for node in nodes {
            node.attestation().encode(buf);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(SignedRoute {
            route: Route::decode(r)?,
            chain: AttestationChain::from_attestations(Vec::decode(r)?),
        })
    }
    fn encoded_len(&self) -> usize {
        self.route.encoded_len()
            + 4
            + self.chain.nodes_newest_first().map(ChainNode::encoded_len).sum::<usize>()
    }
}

/// Builds a genuine `hops`-long attestation chain AS1 → … → AS`hops`,
/// announced toward AS`hops+1`, plus the populated key store. The
/// shared fixture behind the E13 experiment, the chain-verify bench,
/// and the cache regression tests — one place to change if chain
/// conventions ever do.
pub fn demo_chain(
    hops: u32,
    key_bits: usize,
    seed: &[u8],
) -> (SignedRoute, KeyStore, /* receiver */ Asn) {
    use pvr_crypto::drbg::HmacDrbg;
    assert!(hops >= 1, "a chain needs at least an origin");
    let mut rng = HmacDrbg::new(seed);
    let ids: Vec<Identity> =
        (1..=hops as u64).map(|a| Identity::generate(a, key_bits, &mut rng)).collect();
    let mut keys = KeyStore::new();
    for id in &ids {
        keys.register_identity(id);
    }
    let prefix = Prefix::parse("10.77.0.0/16").unwrap();
    let mut route = Route::originate(prefix);
    route.path = AsPath::from_slice(&[Asn(1)]);
    let mut chain = SignedRoute::originate(&ids[0], route, Asn(2));
    for hop in 2..=hops {
        let next = chain.route.clone().propagated_by(Asn(hop));
        chain = SignedRoute::extend(&chain, &ids[hop as usize - 1], next, Asn(hop + 1));
    }
    (chain, keys, Asn(hops + 1))
}

/// Attestation-chain verification failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SbgpError {
    /// Route has no path (locally originated routes are not announced).
    EmptyPath,
    /// Path contains a repeated AS.
    PathLoop,
    /// Number of attestations does not match path length.
    ChainLength {
        /// Path length.
        expected: usize,
        /// Attestation count.
        got: usize,
    },
    /// An attestation was made by the wrong AS.
    WrongSigner {
        /// AS that should have signed at this position.
        expected: Asn,
        /// AS that actually signed.
        got: Asn,
    },
    /// An attestation covers a different prefix.
    PrefixMismatch,
    /// An attestation's path is not the expected suffix.
    PathMismatch(Asn),
    /// An attestation was directed at the wrong next hop.
    WrongTarget {
        /// Required target.
        expected: Asn,
        /// Actual target.
        got: Asn,
    },
    /// A signature failed.
    BadSignature(Asn),
}

impl std::fmt::Display for SbgpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SbgpError::EmptyPath => write!(f, "empty AS path"),
            SbgpError::PathLoop => write!(f, "AS path contains a loop"),
            SbgpError::ChainLength { expected, got } => {
                write!(f, "attestation chain length {got}, expected {expected}")
            }
            SbgpError::WrongSigner { expected, got } => {
                write!(f, "attestation signed by {got}, expected {expected}")
            }
            SbgpError::PrefixMismatch => write!(f, "attestation prefix mismatch"),
            SbgpError::PathMismatch(asn) => write!(f, "attestation path mismatch at {asn}"),
            SbgpError::WrongTarget { expected, got } => {
                write!(f, "attestation targeted {got}, expected {expected}")
            }
            SbgpError::BadSignature(asn) => write!(f, "bad signature from {asn}"),
        }
    }
}

impl std::error::Error for SbgpError {}

#[cfg(test)]
mod tests {
    use super::*;
    use pvr_crypto::drbg::HmacDrbg;

    fn prefix() -> Prefix {
        Prefix::parse("10.0.0.0/8").unwrap()
    }

    /// Identities for AS 1..=4 plus a populated key store.
    fn setup() -> (Vec<Identity>, KeyStore) {
        let mut rng = HmacDrbg::new(b"sbgp tests");
        let ids: Vec<Identity> = (1..=4).map(|a| Identity::generate(a, 512, &mut rng)).collect();
        let mut keys = KeyStore::new();
        for id in &ids {
            keys.register_identity(id);
        }
        (ids, keys)
    }

    /// Builds the chain AS1 → AS2 → AS3 (receiver AS3).
    fn two_hop_chain(ids: &[Identity]) -> SignedRoute {
        let mut r1 = Route::originate(prefix());
        r1.path = AsPath::from_slice(&[Asn(1)]);
        let sr1 = SignedRoute::originate(&ids[0], r1, Asn(2));
        // AS2 re-announces to AS3.
        let r2 = {
            let mut r = sr1.route.clone().propagated_by(Asn(2));
            r.prefix = sr1.route.prefix;
            r
        };
        SignedRoute::extend(&sr1, &ids[1], r2, Asn(3))
    }

    #[test]
    fn valid_chain_verifies() {
        let (ids, keys) = setup();
        let sr = two_hop_chain(&ids);
        assert!(sr.verify(Asn(3), &keys).is_ok());
    }

    #[test]
    fn wrong_receiver_rejected() {
        // AS3 forwarding AS2's announcement to AS4 unchanged must fail:
        // the top attestation targets AS3, not AS4 (cut-and-paste attack).
        let (ids, keys) = setup();
        let sr = two_hop_chain(&ids);
        assert_eq!(
            sr.verify(Asn(4), &keys),
            Err(SbgpError::WrongTarget { expected: Asn(4), got: Asn(3) })
        );
    }

    #[test]
    fn truncated_chain_rejected() {
        // Path shortening attack: AS3 strips AS2 from the path.
        let (ids, keys) = setup();
        let sr = two_hop_chain(&ids);
        let mut forged = sr.clone();
        forged.route.path = AsPath::from_slice(&[Asn(2)]);
        assert!(matches!(forged.verify(Asn(3), &keys), Err(SbgpError::ChainLength { .. })));
    }

    #[test]
    fn path_insertion_rejected() {
        // AS3 invents a shorter-looking path it never received.
        let (ids, keys) = setup();
        let sr = two_hop_chain(&ids);
        let mut forged = sr.clone();
        forged.route.path = AsPath::from_slice(&[Asn(4), Asn(2), Asn(1)]);
        assert!(forged.verify(Asn(3), &keys).is_err());
    }

    #[test]
    fn tampered_prefix_rejected() {
        let (ids, keys) = setup();
        let mut sr = two_hop_chain(&ids);
        sr.route.prefix = Prefix::parse("192.168.0.0/16").unwrap();
        assert!(sr.verify(Asn(3), &keys).is_err());
    }

    #[test]
    fn tampered_signature_rejected() {
        let (ids, keys) = setup();
        let sr = two_hop_chain(&ids);
        let mut atts = sr.chain().to_vec();
        atts[0].signature.0[5] ^= 1;
        let sr = SignedRoute::with_chain(sr.route, AttestationChain::from_attestations(atts));
        assert_eq!(sr.verify(Asn(3), &keys), Err(SbgpError::BadSignature(Asn(1))));
    }

    #[test]
    fn looped_path_rejected() {
        let (ids, keys) = setup();
        let mut sr = two_hop_chain(&ids);
        sr.route.path = AsPath::from_slice(&[Asn(2), Asn(1), Asn(2)]);
        let repeat = sr.chain().newest().unwrap();
        sr = SignedRoute::with_chain(sr.route.clone(), sr.chain().push(repeat));
        assert_eq!(sr.verify(Asn(3), &keys), Err(SbgpError::PathLoop));
    }

    #[test]
    fn empty_path_rejected() {
        let (_, keys) = setup();
        let sr = SignedRoute::unsigned(Route::originate(prefix()));
        assert_eq!(sr.verify(Asn(3), &keys), Err(SbgpError::EmptyPath));
    }

    #[test]
    fn attributes_not_covered_by_signature() {
        // LOCAL_PREF changes must not invalidate the chain (non-transitive
        // attributes are outside the attestation, as in real S-BGP).
        let (ids, keys) = setup();
        let mut sr = two_hop_chain(&ids);
        sr.route.local_pref = 999;
        sr.route.med = 7;
        assert!(sr.verify(Asn(3), &keys).is_ok());
    }

    #[test]
    fn unsigned_round_trip() {
        let sr = SignedRoute::unsigned(Route::originate(prefix()));
        assert!(!sr.is_signed());
        let back: SignedRoute = pvr_crypto::decode_exact(&sr.to_wire()).unwrap();
        assert_eq!(back, sr);
    }

    #[test]
    fn signed_wire_round_trip() {
        let (ids, keys) = setup();
        let sr = two_hop_chain(&ids);
        let back: SignedRoute = pvr_crypto::decode_exact(&sr.to_wire()).unwrap();
        assert_eq!(back, sr);
        assert!(back.verify(Asn(3), &keys).is_ok());
    }

    #[test]
    fn cached_verify_matches_uncached() {
        let (ids, keys) = setup();
        let sr = two_hop_chain(&ids);
        let cache = VerifyCache::new();
        assert_eq!(sr.verify(Asn(3), &keys), sr.verify_cached(Asn(3), &keys, Some(&cache)));
        assert_eq!(cache.calls(), 2);
        assert_eq!(cache.hits(), 0);
        // Second pass: every signature check answered from the memo.
        assert!(sr.verify_cached(Asn(3), &keys, Some(&cache)).is_ok());
        assert_eq!(cache.calls(), 4);
        assert_eq!(cache.hits(), 2);
    }

    #[test]
    fn cache_does_not_launder_forged_signatures() {
        // Same signed bytes, different signature: the genuine chain's
        // cached `true` must not validate the forgery (the cache key
        // covers the signature, not just the payload).
        let (ids, keys) = setup();
        let sr = two_hop_chain(&ids);
        let cache = VerifyCache::new();
        assert!(sr.verify_cached(Asn(3), &keys, Some(&cache)).is_ok());
        let mut atts = sr.chain().to_vec();
        atts[0].signature.0[5] ^= 1;
        let forged =
            SignedRoute::with_chain(sr.route.clone(), AttestationChain::from_attestations(atts));
        assert_eq!(
            forged.verify_cached(Asn(3), &keys, Some(&cache)),
            Err(SbgpError::BadSignature(Asn(1)))
        );
        // And the rejection itself is memoized on replay.
        let calls = cache.calls();
        assert_eq!(
            forged.verify_cached(Asn(3), &keys, Some(&cache)),
            Err(SbgpError::BadSignature(Asn(1)))
        );
        assert_eq!(cache.calls(), calls + 1);
        assert!(cache.hits() >= 1);
    }

    /// The persistent chain must be observationally identical to the
    /// owned `Vec<Attestation>` it replaced: construction by `push` or
    /// `from_attestations`, accessors, equality, wire round-trips, and
    /// encoded length all behave as if the chain were the vector.
    /// Attestations here carry dummy signatures — representation
    /// equivalence is independent of signature validity.
    /// Derives an attestation deterministically from one seed (the
    /// vendored proptest shim has no tuple strategies). Signatures are
    /// dummies — representation equivalence does not depend on
    /// signature validity.
    fn dummy_attestations(seeds: &[u64]) -> Vec<Attestation> {
        seeds
            .iter()
            .map(|&seed| Attestation {
                prefix: Prefix::parse("10.0.0.0/8").unwrap(),
                path: AsPath::from_slice(&[Asn(1 + (seed % 97) as u32)]),
                target: Asn(1 + ((seed >> 8) % 97) as u32),
                signer: Asn(1 + (seed % 97) as u32),
                signature: pvr_crypto::rsa::RsaSignature(
                    (0..4 + (seed % 28) as u8).map(|i| i ^ (seed >> 16) as u8).collect(),
                ),
            })
            .collect()
    }

    use proptest::prelude::*;

    proptest! {
        #[test]
        fn chain_matches_owned_vec_semantics(
            seeds in proptest::collection::vec(any::<u64>(), 0..6),
        ) {
            let atts = dummy_attestations(&seeds);
            // from_attestations == repeated push.
            let chain = AttestationChain::from_attestations(atts.clone());
            let mut pushed = AttestationChain::empty();
            for a in &atts {
                pushed = pushed.push(a.clone());
            }
            prop_assert_eq!(&chain, &pushed);
            // Accessors mirror the vector.
            prop_assert_eq!(chain.len(), atts.len());
            prop_assert_eq!(chain.is_empty(), atts.is_empty());
            prop_assert_eq!(chain.origin().as_ref(), atts.first());
            prop_assert_eq!(chain.newest().as_ref(), atts.last());
            prop_assert_eq!(chain.to_vec(), atts.clone());
            // Clones share structure but compare equal; an extended
            // clone diverges without disturbing the parent.
            let shared = chain.clone();
            prop_assert_eq!(&shared, &chain);
            if let Some(first) = atts.first() {
                let longer = chain.push(first.clone());
                prop_assert_eq!(longer.len(), chain.len() + 1);
                prop_assert_ne!(&longer, &chain);
                prop_assert_eq!(chain.to_vec(), atts.clone());
            }
            // Wire bytes equal the origin-first sequence encoding, and
            // the arithmetic length matches (SignedRoute carries the
            // chain on the wire).
            let sr = SignedRoute::with_chain(
                Route::originate(Prefix::parse("10.0.0.0/8").unwrap()),
                chain.clone(),
            );
            let mut expect = sr.route.to_wire();
            atts.encode(&mut expect);
            prop_assert_eq!(sr.to_wire(), expect);
            prop_assert_eq!(sr.encoded_len(), sr.to_wire().len());
            let back: SignedRoute = pvr_crypto::decode_exact(&sr.to_wire()).unwrap();
            prop_assert_eq!(back, sr);
        }
    }

    #[test]
    fn three_hop_chain() {
        let (ids, keys) = setup();
        let sr = two_hop_chain(&ids);
        // AS3 extends to AS4.
        let r3 = sr.route.clone().propagated_by(Asn(3));
        let sr3 = SignedRoute::extend(&sr, &ids[2], r3, Asn(4));
        assert!(sr3.verify(Asn(4), &keys).is_ok());
        assert_eq!(sr3.chain().len(), 3);
        // And the intermediate receiver can no longer be claimed.
        assert!(sr3.verify(Asn(3), &keys).is_err());
    }

    /// [`setup`]'s identities, shared the way a router shares its own,
    /// generated once for every test and case that signs later.
    fn shared_setup() -> &'static (Vec<Arc<Identity>>, KeyStore) {
        static SETUP: OnceLock<(Vec<Arc<Identity>>, KeyStore)> = OnceLock::new();
        SETUP.get_or_init(|| {
            let (ids, keys) = setup();
            (ids.into_iter().map(Arc::new).collect(), keys)
        })
    }

    fn is_pending(sr: &SignedRoute) -> bool {
        sr.chain.nodes().iter().any(|node| !node.is_signed())
    }

    /// A chain node is the attestation plus a once-state and one key
    /// pointer: 16 bytes over the 72 a finished-only node took.
    #[test]
    fn chain_node_stays_small() {
        let node = std::mem::size_of::<ChainNode>();
        assert!(node <= 88, "ChainNode is {node} B");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// A chain signed later is the chain signed now: the same wire
        /// bytes and length, the same verdicts for the right and a wrong
        /// receiver, and a length read that signs nothing.
        #[test]
        fn signed_later_equals_signed_now(
            addr in any::<u32>(),
            prefix_len in 0u8..=32,
            hops in 1usize..=4,
            first in 0usize..4,
            target in 5u32..1000,
        ) {
            let (ids, keys) = shared_setup();
            let prefix = Prefix::new(addr, prefix_len);
            // Signers run through AS1..AS4 from a random first one.
            let signers: Vec<&Arc<Identity>> = (0..hops).map(|h| &ids[(first + h) % 4]).collect();
            let target_of = |h: usize| match signers.get(h + 1) {
                Some(next) => Asn(next.id() as u32),
                None => Asn(target),
            };
            let mut route = Route::originate(prefix);
            route.path = AsPath::from_slice(&[Asn(signers[0].id() as u32)]);
            let mut now = SignedRoute::originate(signers[0], route.clone(), target_of(0));
            let mut later = SignedRoute::signed_later(None, signers[0], route, target_of(0), None);
            for (h, &signer) in signers.iter().enumerate().skip(1) {
                let next = now.route.clone().propagated_by(Asn(signer.id() as u32));
                now = SignedRoute::extend(&now, signer, next.clone(), target_of(h));
                later = SignedRoute::signed_later(Some(&later), signer, next, target_of(h), None);
            }
            prop_assert!(is_pending(&later));
            prop_assert_eq!(later.encoded_len(), now.to_wire().len());
            prop_assert!(is_pending(&later), "encoded_len signed an attestation");
            prop_assert_eq!(later.to_wire(), now.to_wire());
            prop_assert!(!is_pending(&later));
            prop_assert_eq!(later.encoded_len(), now.encoded_len());
            prop_assert_eq!(later.verify(Asn(target), keys), Ok(()));
            let wrong = Asn(target + 1);
            prop_assert_eq!(later.verify(wrong, keys), now.verify(wrong, keys));
            prop_assert_eq!(&later, &now);
        }
    }

    /// Comparing and verifying sign what they read, each reaching the
    /// eager form's answer.
    #[test]
    fn comparing_and_verifying_sign_what_they_read() {
        let (ids, keys) = shared_setup();
        let mut route = Route::originate(prefix());
        route.path = AsPath::from_slice(&[Asn(1)]);
        let now = SignedRoute::originate(&ids[0], route.clone(), Asn(2));
        let later = || SignedRoute::signed_later(None, &ids[0], route.clone(), Asn(2), None);
        let compared = later();
        assert_eq!(compared, now);
        assert!(!is_pending(&compared));
        let verified = later();
        assert_eq!(verified.verify(Asn(2), keys), Ok(()));
        assert!(!is_pending(&verified));
        assert_eq!(later().chain().newest(), now.chain().newest());
    }

    /// Four threads reading one pending node at once all read the one
    /// signature the node stores, equal to the eager one.
    #[test]
    fn racing_readers_share_one_signature() {
        let (ids, _) = shared_setup();
        let mut route = Route::originate(prefix());
        route.path = AsPath::from_slice(&[Asn(3)]);
        let now = SignedRoute::originate(&ids[2], route.clone(), Asn(4));
        let later = SignedRoute::signed_later(None, &ids[2], route, Asn(4), None);
        let node = later.chain.0.as_deref().expect("one attestation");
        let barrier = std::sync::Barrier::new(4);
        let read: Vec<usize> = std::thread::scope(|scope| {
            let readers: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        node.signature() as *const RsaSignature as usize
                    })
                })
                .collect();
            readers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        assert!(read.iter().all(|&at| at == read[0]), "readers saw different signatures");
        assert_eq!(node.signature(), &now.chain().newest().unwrap().signature);
    }

    /// AS1's origination of the `i`-th /24 toward AS2, signed later and
    /// offered to `queue`.
    fn queued_origination(queue: &SignQueue, i: u32) -> SignedRoute {
        let (ids, _) = shared_setup();
        let mut route = Route::originate(Prefix::new(i << 8, 24));
        route.path = AsPath::from_slice(&[Asn(1)]);
        SignedRoute::signed_later(None, &ids[0], route, Asn(2), Some(queue))
    }

    /// Spins until `done`, failing after a minute.
    fn wait_until(what: &str, done: impl Fn() -> bool) {
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        while !done() {
            assert!(std::time::Instant::now() < deadline, "timed out: {what}");
            std::thread::yield_now();
        }
    }

    fn helpers_signing(queue: &SignQueue) -> usize {
        queue.signing.load(Ordering::Relaxed)
    }

    /// A queue's helpers take the cores the engine leaves free, sign
    /// what routers queue while the work they run beside waits, and are
    /// stopped when it returns.
    #[test]
    fn helpers_sign_queued_attestations() {
        static BUDGET: CoreBudget = CoreBudget::new(3);
        let queue = SignQueue::new(4, &BUDGET);
        let _engine = BUDGET.occupy(1);
        queue.with_helpers(|| {
            assert_eq!(helpers_signing(&queue), 2, "one helper per free core");
            let routes: Vec<SignedRoute> = (0..16).map(|i| queued_origination(&queue, i)).collect();
            wait_until("helpers sign the queue", || !routes.iter().any(is_pending));
        });
        assert_eq!(helpers_signing(&queue), 0);
        let state = lock(&queue.state);
        assert!(!state.open);
        assert!(state.pending.is_empty());
    }

    /// A helper gives its core back while the process counts more busy
    /// threads than cores — routers then queue nothing — and signs again
    /// once a core is free.
    #[test]
    fn helpers_give_way_to_busy_threads() {
        static BUDGET: CoreBudget = CoreBudget::new(2);
        let queue = SignQueue::new(1, &BUDGET);
        let _engine = BUDGET.occupy(1);
        queue.with_helpers(|| {
            assert_eq!(helpers_signing(&queue), 1);
            let unqueued = {
                // The engine takes a second thread: three want two cores.
                let _second_shard = BUDGET.occupy(2);
                wait_until("the helper yields", || helpers_signing(&queue) == 0);
                queued_origination(&queue, 0)
            };
            assert!(lock(&queue.state).pending.is_empty(), "queued while nobody signs");
            wait_until("the helper resumes", || helpers_signing(&queue) == 1);
            let queued = queued_origination(&queue, 1);
            wait_until("the helper signs again", || !is_pending(&queued));
            assert!(is_pending(&unqueued));
        });
    }

    /// With every core counted, no helper starts and nothing is queued.
    #[test]
    fn no_spare_core_means_no_helper() {
        static BUDGET: CoreBudget = CoreBudget::new(1);
        let queue = SignQueue::new(1, &BUDGET);
        let _engine = BUDGET.occupy(1);
        let route = queue.with_helpers(|| {
            assert_eq!(helpers_signing(&queue), 0);
            queued_origination(&queue, 0)
        });
        assert!(is_pending(&route));
        assert!(lock(&queue.state).pending.is_empty());
    }

    /// A panic while the memo's lock was held leaves it poisoned; the
    /// cache still answers, caches and counts.
    #[test]
    fn poisoned_verify_cache_still_answers() {
        let (ids, keys) = setup();
        let sr = two_hop_chain(&ids);
        let cache = VerifyCache::new();
        std::thread::scope(|scope| {
            let poisoner = scope.spawn(|| {
                let _held = cache.verdicts.lock().unwrap();
                panic!("poisoning the verify cache on purpose");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(cache.verdicts.is_poisoned());
        assert_eq!(sr.verify_cached(Asn(3), &keys, Some(&cache)), Ok(()));
        assert_eq!((cache.calls(), cache.hits()), (2, 0));
        assert_eq!(sr.verify_cached(Asn(3), &keys, Some(&cache)), Ok(()));
        assert_eq!((cache.calls(), cache.hits()), (4, 2));
        let (calls, hits, entries) = cache.export_state();
        assert_eq!((calls, hits, entries.len()), (4, 2, 2));
        cache.load_state((calls, hits, entries));
        assert_eq!(cache.calls(), 4);
    }
}
