//! Private path verification as a first-class network mode (§3.1 run
//! for real, at topology scale).
//!
//! The paper's tentpole claim is that routing can be verified *with
//! privacy*: no AS reveals its candidate routes, yet everyone learns
//! whether the selected route was the policy-best one. This module
//! wires the bit-sliced GMW engine ([`pvr_smc::batch`]) into
//! convergence:
//!
//! 1. **Enqueue.** Whenever a router in private-verification mode
//!    changes its best route and holds ≥ 2 candidates in the winning
//!    LOCAL_PREF tier, it enqueues a [`PrivateRequest`]: the claimed
//!    (selected) path length plus each tier candidate's length, one
//!    per neighbor — the per-party secret inputs of an SMC session.
//! 2. **Flush.** At every calendar-queue barrier (a drained sim-time
//!    instant — a point that does not depend on the shard count, see
//!    [`pvr_netsim::BarrierHook`]), pending requests are sorted by the
//!    shard-invariant key `(asn, router-local sequence)`, grouped by
//!    party count, packed ≤ `lane_cap` per batch, and pushed through
//!    one batched [`min_circuit`] pass (is the claim really the tier
//!    minimum?) and one batched [`majority_circuit`] pass (do a
//!    majority of neighbors find the claim plausible — the §3.6-style
//!    gossip aggregation) per batch.
//! 3. **Charge.** Each batch's cost is priced by the FairplayMP-
//!    calibrated [`SmcCostModel`] on the batch-aggregate
//!    [`pvr_smc::GmwStats`] — rounds paid once per batch,
//!    OTs/bits per lane — and charged as sim-time latency on a
//!    reserved verdict timer, so e17's convergence wall-clock includes
//!    the privacy overhead.
//!
//! ## Determinism
//!
//! Requests are enqueued from shard worker threads in nondeterministic
//! *arrival* order, but every flush sorts by `(asn, seq)`; a router's
//! own event order is shard-invariant, so flush content and order
//! are too. Batch DRBGs derive from the verifier seed with a per-flush
//! label (the workspace's `from_u64_labeled` recipe) — and per
//! the randomness-independence argument in [`pvr_smc::batch`], GMW
//! verdicts and stats don't depend on that randomness at all. Verdict
//! timers are emitted in batch order, nodes ascending. The result:
//! every counter, timeline window, and verdict below is byte-identical
//! across shard counts — *no* carve-out, unlike the
//! verify-cache hit family.

use crate::types::{Asn, Prefix};
use pvr_crypto::drbg::HmacDrbg;
use pvr_netsim::{BarrierHook, NodeId, SimDuration, SimTime};
use pvr_smc::{
    from_bits, majority_circuit, min_circuit, pack_lane_inputs, to_bits, BatchGmw, Circuit,
    GmwStats, SmcCostModel,
};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Path lengths are encoded in this many bits for the min circuit
/// (clamped; interdomain paths are far shorter than 255 hops).
const LEN_BITS: usize = 8;

pvr_obs::metric_struct! {
    /// Network-wide private-verification counters, owned by the
    /// [`PrivateVerifier`], not by any router's
    /// [`RouterStats`](crate::RouterStats).
    /// [`BgpNetwork::metrics_snapshot`](crate::BgpNetwork::metrics_snapshot)
    /// adds them as `pvr_smc_<field>_total` counters when the network
    /// has a private verifier; e17 reports them field by field in its
    /// rows' `smc` object.
    pub struct SmcBatchStats, prefix = "pvr_smc" {
        /// Verification requests enqueued by routers.
        pub requests: u64,
        /// Barrier flushes that found pending requests.
        pub flushes: u64,
        /// Batched circuit passes executed (one min + one majority
        /// evaluation each).
        pub batches: u64,
        /// Lanes occupied across all batches (= requests served).
        pub lanes_occupied: u64,
        /// Lane slots provisioned (batches × lane capacity);
        /// `lanes_occupied / lane_slots` is the batch occupancy.
        pub lane_slots: u64,
        /// AND gates in the evaluated circuits (per batch, not per
        /// lane — one word-wide pass covers every lane).
        pub and_gates: u64,
        /// Communication rounds charged to the cost model (shared
        /// across each batch's lanes — the bit-slicing win).
        pub rounds_charged: u64,
        /// Beaver triples consumed, per lane.
        pub triples: u64,
        /// Equivalent 1-out-of-2 OTs, per lane.
        pub equivalent_ots: u64,
        /// Bits broadcast, per lane.
        pub bits_broadcast: u64,
        /// Modeled SMC latency charged as sim-time, in microseconds.
        pub modeled_micros: u64,
        /// Verdicts where the claim passed both circuits.
        pub verdict_pass: u64,
        /// Verdicts where the claim failed the min or majority check.
        pub verdict_fail: u64,
        /// Verdicts delivered back to their requesting router (timer
        /// fired and the mailbox was drained).
        pub verdicts_delivered: u64,
    }
}

/// One pending verification request (see the module docs).
#[derive(Clone, Debug)]
pub struct PrivateRequest {
    /// Requesting AS.
    pub asn: Asn,
    /// Router-local sequence number — with `asn`, the shard-invariant
    /// flush ordering key.
    pub seq: u64,
    /// Prefix whose selection is being verified.
    pub prefix: Prefix,
    /// Claimed (selected) path length.
    pub claimed_len: u64,
    /// Path length held by each party (the winning-tier candidates,
    /// neighbor-ASN ascending). `len() >= 2` — a single candidate has
    /// nothing to hide the comparison from.
    pub candidate_lens: Vec<u64>,
}

/// An undelivered verdict parked in a router's mailbox.
struct PendingVerdict {
    deliver_at_us: u64,
    ok: bool,
}

struct VerifierInner {
    seed: u64,
    lane_cap: usize,
    model: SmcCostModel,
    /// ASN → simulator node, for addressing verdict timers. Installed
    /// by `Topology::instantiate*` once node ids exist.
    node_of: BTreeMap<Asn, NodeId>,
    pending: Vec<PrivateRequest>,
    mailboxes: BTreeMap<Asn, Vec<PendingVerdict>>,
    /// Per-party-count circuit cache: `k → (min, majority)`.
    circuits: BTreeMap<usize, (Circuit, Circuit)>,
    stats: SmcBatchStats,
    timeline: pvr_obs::TimelineRecorder,
}

/// The shared private-verification service: one per network, held by
/// every router (like the [`VerifyCache`](crate::VerifyCache)) and by
/// the engine's barrier hook. All state sits behind one mutex; shard
/// workers only ever push requests or drain their own mailbox, and the
/// flush runs on the coordinator with the network quiesced at the
/// barrier instant.
pub struct PrivateVerifier {
    inner: Mutex<VerifierInner>,
}

impl PrivateVerifier {
    /// Creates a verifier. `lane_cap` (1..=64) bounds lanes per batch;
    /// `timeline_window` sizes the verifier-owned SMC timeline.
    pub fn new(seed: u64, lane_cap: usize, timeline_window: SimDuration) -> PrivateVerifier {
        let lane_cap = lane_cap.clamp(1, pvr_smc::MAX_LANES);
        PrivateVerifier {
            inner: Mutex::new(VerifierInner {
                seed,
                lane_cap,
                model: SmcCostModel::fairplay_calibrated(),
                node_of: BTreeMap::new(),
                pending: Vec::new(),
                mailboxes: BTreeMap::new(),
                circuits: BTreeMap::new(),
                stats: SmcBatchStats::default(),
                timeline: pvr_obs::TimelineRecorder::new(
                    timeline_window.as_micros().max(1),
                    pvr_obs::timeline::SMC_CHANNELS,
                ),
            }),
        }
    }

    /// Installs the ASN → node map (topology wiring, before the run).
    pub fn set_node_map(&self, node_of: BTreeMap<Asn, NodeId>) {
        self.inner.lock().expect("verifier poisoned").node_of = node_of;
    }

    /// The configured lanes-per-batch cap.
    pub fn lane_cap(&self) -> usize {
        self.inner.lock().expect("verifier poisoned").lane_cap
    }

    /// Queues a verification request (router → verifier, during
    /// dispatch; any thread).
    pub fn enqueue(&self, request: PrivateRequest) {
        debug_assert!(request.candidate_lens.len() >= 2, "nothing to verify below 2 parties");
        let mut inner = self.inner.lock().expect("verifier poisoned");
        inner.stats.requests += 1;
        inner.pending.push(request);
    }

    /// Delivers any verdicts due at `now` to `asn`'s mailbox owner;
    /// called from the router's verdict-timer handler. Returns the
    /// delivered `(ok)` verdict count as `(pass, fail)`.
    pub fn deliver(&self, asn: Asn, now: SimTime) -> (u64, u64) {
        let mut inner = self.inner.lock().expect("verifier poisoned");
        let now_us = now.as_micros();
        let Some(mailbox) = inner.mailboxes.get_mut(&asn) else { return (0, 0) };
        let mut pass = 0;
        let mut fail = 0;
        mailbox.retain(|v| {
            if v.deliver_at_us <= now_us {
                if v.ok {
                    pass += 1;
                } else {
                    fail += 1;
                }
                false
            } else {
                true
            }
        });
        inner.stats.verdicts_delivered += pass + fail;
        (pass, fail)
    }

    /// Snapshot of the network-wide counters.
    pub fn stats(&self) -> SmcBatchStats {
        self.inner.lock().expect("verifier poisoned").stats.clone()
    }

    /// A copy of the verifier-owned SMC timeline.
    pub fn timeline(&self) -> pvr_obs::TimelineRecorder {
        self.inner.lock().expect("verifier poisoned").timeline.clone()
    }

    /// Wraps an `Arc`'d verifier as an engine barrier hook.
    pub fn hook(verifier: &Arc<PrivateVerifier>) -> Box<dyn BarrierHook> {
        Box::new(VerifierHook { verifier: Arc::clone(verifier) })
    }

    /// Flushes all pending requests through batched circuit passes;
    /// returns the verdict timers to schedule. See the module docs for
    /// the ordering and determinism argument.
    fn flush(&self, now: SimTime) -> Vec<(NodeId, SimDuration, u64)> {
        let mut inner = self.inner.lock().expect("verifier poisoned");
        if inner.pending.is_empty() {
            return Vec::new();
        }
        let inner = &mut *inner;
        let mut pending = std::mem::take(&mut inner.pending);
        pending.sort_by_key(|r| (r.asn, r.seq));
        let flush_idx = inner.stats.flushes;
        inner.stats.flushes += 1;
        let now_us = now.as_micros();

        // Group by party count (each count runs a different circuit),
        // preserving the sorted order within each group.
        let mut by_parties: BTreeMap<usize, Vec<PrivateRequest>> = BTreeMap::new();
        for req in pending {
            by_parties.entry(req.candidate_lens.len()).or_default().push(req);
        }

        let mut timers: Vec<(NodeId, SimDuration, u64)> = Vec::new();
        let mut batch_idx = 0u64;
        for (k, reqs) in by_parties {
            let (min_c, maj_c) = inner
                .circuits
                .entry(k)
                .or_insert_with(|| (min_circuit(k, LEN_BITS), majority_circuit(k)));
            for chunk in reqs.chunks(inner.lane_cap) {
                let lanes = chunk.len();
                let mut rng = HmacDrbg::from_u64_labeled(
                    inner.seed ^ (flush_idx << 20 | batch_idx),
                    "pvr-smc-batch",
                );
                batch_idx += 1;

                // Pass 1: k-way min over the tier candidates.
                let min_inputs: Vec<Vec<Vec<bool>>> = chunk
                    .iter()
                    .map(|r| {
                        r.candidate_lens
                            .iter()
                            .map(|&len| to_bits(len.min(255), LEN_BITS))
                            .collect()
                    })
                    .collect();
                let min_run = BatchGmw::new(min_c).run(&pack_lane_inputs(&min_inputs), &mut rng);

                // Pass 2: majority of "claim ≤ my candidate" votes.
                let maj_inputs: Vec<Vec<Vec<bool>>> = chunk
                    .iter()
                    .map(|r| {
                        r.candidate_lens.iter().map(|&len| vec![r.claimed_len <= len]).collect()
                    })
                    .collect();
                let maj_run = BatchGmw::new(maj_c).run(&pack_lane_inputs(&maj_inputs), &mut rng);

                // One SMC session computes both verdicts: setup once,
                // rounds and traffic summed.
                let min_agg = min_run.aggregate_stats();
                let maj_agg = maj_run.aggregate_stats();
                let combined = GmwStats {
                    parties: k,
                    gates: min_agg.gates + maj_agg.gates,
                    and_gates: min_agg.and_gates + maj_agg.and_gates,
                    rounds: min_agg.rounds + maj_agg.rounds,
                    triples: min_agg.triples + maj_agg.triples,
                    equivalent_ots: min_agg.equivalent_ots + maj_agg.equivalent_ots,
                    bits_broadcast: min_agg.bits_broadcast + maj_agg.bits_broadcast,
                };
                let secs = inner.model.estimate_seconds(&combined);
                let delay_us = ((secs * 1e6).ceil() as u64).max(1);

                for (lane, req) in chunk.iter().enumerate() {
                    let tier_min = from_bits(&min_run.lane_outputs(lane));
                    let min_ok = tier_min == req.claimed_len.min(255);
                    let maj_ok = maj_run.lane_outputs(lane)[0];
                    let ok = min_ok && maj_ok;
                    if ok {
                        inner.stats.verdict_pass += 1;
                    } else {
                        inner.stats.verdict_fail += 1;
                    }
                    inner
                        .mailboxes
                        .entry(req.asn)
                        .or_default()
                        .push(PendingVerdict { deliver_at_us: now_us + delay_us, ok });
                }

                // One verdict timer per distinct requester, ascending
                // node id (chunks are ASN-sorted; dedup adjacent).
                let mut nodes: Vec<NodeId> =
                    chunk.iter().filter_map(|r| inner.node_of.get(&r.asn).copied()).collect();
                nodes.sort_unstable();
                nodes.dedup();
                for node in nodes {
                    timers.push((node, SimDuration::from_micros(delay_us), PVR_VERDICT_TIMER));
                }

                inner.stats.batches += 1;
                inner.stats.lanes_occupied += lanes as u64;
                inner.stats.lane_slots += inner.lane_cap as u64;
                inner.stats.and_gates += combined.and_gates as u64;
                inner.stats.rounds_charged += combined.rounds as u64;
                inner.stats.triples += combined.triples as u64;
                inner.stats.equivalent_ots += combined.equivalent_ots;
                inner.stats.bits_broadcast += combined.bits_broadcast;
                inner.stats.modeled_micros += delay_us;

                use pvr_obs::timeline::{SMC_BATCHES, SMC_LANES, SMC_REQUESTS, SMC_ROUNDS};
                inner.timeline.add(now_us, SMC_REQUESTS, lanes as u64);
                inner.timeline.add(now_us, SMC_BATCHES, 1);
                inner.timeline.add(now_us, SMC_LANES, inner.lane_cap as u64);
                inner.timeline.add(now_us, SMC_ROUNDS, combined.rounds as u64);
            }
        }
        timers
    }
}

/// Reserved timer id for verdict delivery (`MRAI = MAX`,
/// `DAMP = MAX-1`; router schedules can never reach these values).
pub const PVR_VERDICT_TIMER: u64 = u64::MAX - 2;

struct VerifierHook {
    verifier: Arc<PrivateVerifier>,
}

impl BarrierHook for VerifierHook {
    fn on_barrier(&mut self, now: SimTime) -> Vec<(NodeId, SimDuration, u64)> {
        self.verifier.flush(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prefix(s: &str) -> Prefix {
        Prefix::parse(s).unwrap()
    }

    fn verifier(lane_cap: usize) -> Arc<PrivateVerifier> {
        let v = Arc::new(PrivateVerifier::new(42, lane_cap, SimDuration::from_millis(5)));
        v.set_node_map((1..=16u32).map(|a| (Asn(a), a as NodeId)).collect());
        v
    }

    fn request(asn: u32, seq: u64, claimed: u64, lens: &[u64]) -> PrivateRequest {
        PrivateRequest {
            asn: Asn(asn),
            seq,
            prefix: prefix("10.0.0.0/8"),
            claimed_len: claimed,
            candidate_lens: lens.to_vec(),
        }
    }

    #[test]
    fn honest_claim_passes_both_circuits() {
        let v = verifier(64);
        v.enqueue(request(1, 0, 2, &[2, 3, 5]));
        let timers = v.flush(SimTime::ZERO);
        assert_eq!(timers.len(), 1);
        assert_eq!(timers[0].2, PVR_VERDICT_TIMER);
        let stats = v.stats();
        assert_eq!(stats.verdict_pass, 1);
        assert_eq!(stats.verdict_fail, 0);
        assert_eq!(stats.batches, 1);
        // Latency is charged: well past setup (2 s) in sim-time.
        assert!(timers[0].1.as_micros() >= 2_000_000);
    }

    #[test]
    fn dishonest_claim_fails() {
        let v = verifier(64);
        // Claims length 2 but the tier minimum is 3 → min check fails.
        v.enqueue(request(1, 0, 2, &[3, 4]));
        // Claims length 9, longer than every candidate → majority of
        // "claim ≤ mine" votes fails (and so does the min check).
        v.enqueue(request(2, 0, 9, &[3, 4]));
        v.flush(SimTime::ZERO);
        let stats = v.stats();
        assert_eq!(stats.verdict_pass, 0);
        assert_eq!(stats.verdict_fail, 2);
    }

    #[test]
    fn zero_pending_flush_is_free() {
        let v = verifier(64);
        let timers = v.flush(SimTime::ZERO);
        assert!(timers.is_empty());
        let stats = v.stats();
        assert_eq!(stats.flushes, 0);
        assert_eq!(stats.batches, 0);
        assert_eq!(stats.lane_slots, 0);
    }

    #[test]
    fn partial_last_batch_occupancy() {
        let v = verifier(8);
        // 19 requests at cap 8 → batches of 8, 8, 3.
        for i in 0..19 {
            v.enqueue(request(1 + (i % 16) as u32, i, 2, &[2, 5]));
        }
        v.flush(SimTime::ZERO);
        let stats = v.stats();
        assert_eq!(stats.batches, 3);
        assert_eq!(stats.lanes_occupied, 19);
        assert_eq!(stats.lane_slots, 24);
        assert_eq!(stats.verdict_pass, 19);
    }

    #[test]
    fn flush_order_is_arrival_independent() {
        // Same requests, opposite arrival order → identical stats,
        // timeline, and timers (the shard-count invariance).
        let reqs: Vec<PrivateRequest> =
            (0..10).map(|i| request(1 + (i % 5) as u32, i / 5, 2 + i % 3, &[2, 3, 4])).collect();
        let a = verifier(4);
        let b = verifier(4);
        for r in &reqs {
            a.enqueue(r.clone());
        }
        for r in reqs.iter().rev() {
            b.enqueue(r.clone());
        }
        let ta = a.flush(SimTime::ZERO);
        let tb = b.flush(SimTime::ZERO);
        assert_eq!(ta, tb);
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.timeline().cells(), b.timeline().cells());
    }

    #[test]
    fn verdicts_deliver_at_their_time() {
        let v = verifier(64);
        v.enqueue(request(3, 0, 1, &[1, 2]));
        let timers = v.flush(SimTime::ZERO);
        let delay = timers[0].1;
        // Too early: nothing delivered.
        assert_eq!(v.deliver(Asn(3), SimTime::ZERO), (0, 0));
        let at = SimTime::ZERO + delay;
        assert_eq!(v.deliver(Asn(3), at), (1, 0));
        // Drained: second delivery finds nothing.
        assert_eq!(v.deliver(Asn(3), at), (0, 0));
        assert_eq!(v.stats().verdicts_delivered, 1);
    }

    #[test]
    fn mixed_party_counts_run_separate_batches() {
        let v = verifier(64);
        v.enqueue(request(1, 0, 2, &[2, 3]));
        v.enqueue(request(2, 0, 2, &[2, 3, 4]));
        v.enqueue(request(3, 0, 2, &[2, 5]));
        v.flush(SimTime::ZERO);
        let stats = v.stats();
        // Two party counts → two batches even under one cap.
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.lanes_occupied, 3);
        assert_eq!(stats.verdict_pass, 3);
    }
}
