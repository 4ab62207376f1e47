//! Bit-sliced batched GMW: 64 independent verifications per circuit pass.
//!
//! # Bit-slicing layout
//!
//! The serial engine ([`crate::gmw::run_gmw`]) holds one `bool` per
//! party per wire. This module packs **64 independent executions of the
//! same circuit** ("lanes") into `u64` words: bit `k` of every share
//! word belongs to lane `k`, so a single XOR/AND/NOT machine
//! instruction evaluates the gate for all lanes at once. A [`BitBatch`]
//! is one such lane-packed word plus its live lane count; partially
//! filled batches mask the dead upper bits so they can never leak into
//! outputs.
//!
//! # The dealer tape
//!
//! The dealer is word-wide too: one 64-bit word of DRBG output is 64
//! lanes' worth of one share or triple bit, where the serial engine
//! spends a whole `HmacDrbg::chance(0.5)` — one `generate` plus its
//! state update, eight SHA-256 compressions — *per lane per bit*. The
//! number of words a pass needs is fixed by the circuit and the party
//! count `n`: `n − 1` per input gate (the owner's share is the parity)
//! and `2 + 3(n − 1)` per AND gate (the triple's `a` and `b`, then
//! `n − 1` shares each of `a`, `b` and `c`). [`BatchGmw::run`] therefore
//! draws the whole tape with **one** `generate` — two compressions per
//! 32 bytes, one state update per pass — and reads words off it in gate
//! order. That, not the word-wide gate ops (under 1 % of a pass), is
//! where the batched throughput E4 measures comes from.
//!
//! # Determinism proof sketch (why lanes match serial runs exactly)
//!
//! A GMW execution's *reconstructed outputs* are independent of the
//! dealer/sharing randomness: every random bit `r` injected while
//! sharing a value enters an even number of party shares, so the XOR
//! reconstruction cancels it and only the plaintext gate semantics
//! survive (inductively over the topologically ordered gates:
//! Input/Const reconstruct to the plaintext bit, XOR/NOT are linear,
//! and the Beaver identity `z = c ⊕ d·b ⊕ e·a ⊕ d·e` with
//! `d = x ⊕ a`, `e = y ⊕ b`, `c = a·b` reconstructs to `x·y`).
//! Likewise [`GmwStats`] counts only circuit structure (gate counts,
//! AND depth) and the party count — never a random bit. Therefore each
//! lane of a batched run is **identical in outputs and stats** to a
//! serial `run_gmw` call on that lane's inputs, for *any* DRBG state —
//! which frees the batch engine to draw one tape per pass instead of
//! replaying the serial per-bit draw sequence. The property
//! test `prop_batch_gmw_equals_serial` pins this lane-for-lane, and the
//! batch DRBG itself follows the workspace's derivation recipe
//! ([`HmacDrbg::from_u64_labeled`]) so network-level flushes are
//! shard-invariant.

use crate::circuit::{Circuit, Gate};
use crate::gmw::GmwStats;
use pvr_crypto::drbg::HmacDrbg;

/// Maximum lanes a batch can carry (one per bit of the packed word).
pub const MAX_LANES: usize = 64;

/// A lane-packed word of booleans: bit `k` is lane `k`'s value.
///
/// Dead lanes (indices `>= lanes`) are always zero — every constructor
/// and operation masks them off.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BitBatch {
    bits: u64,
    lanes: usize,
}

impl BitBatch {
    /// An all-zero batch of `lanes` lanes.
    pub fn zero(lanes: usize) -> BitBatch {
        assert!((1..=MAX_LANES).contains(&lanes), "lanes must be 1..=64, got {lanes}");
        BitBatch { bits: 0, lanes }
    }

    /// Packs one bool per lane (`values.len()` lanes).
    pub fn pack(values: &[bool]) -> BitBatch {
        let mut b = BitBatch::zero(values.len());
        for (k, &v) in values.iter().enumerate() {
            b.set_lane(k, v);
        }
        b
    }

    /// A batch holding `value` in every lane.
    pub fn splat(value: bool, lanes: usize) -> BitBatch {
        let mut b = BitBatch::zero(lanes);
        if value {
            b.bits = b.mask();
        }
        b
    }

    /// The mask with every live lane bit set.
    pub fn mask(&self) -> u64 {
        if self.lanes == MAX_LANES {
            u64::MAX
        } else {
            (1u64 << self.lanes) - 1
        }
    }

    /// Live lane count.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The raw packed word (dead lanes zero).
    pub fn bits(&self) -> u64 {
        self.bits
    }

    /// Lane `k`'s value.
    pub fn lane(&self, k: usize) -> bool {
        assert!(k < self.lanes, "lane {k} out of range ({} lanes)", self.lanes);
        (self.bits >> k) & 1 == 1
    }

    /// Sets lane `k`.
    pub fn set_lane(&mut self, k: usize, v: bool) {
        assert!(k < self.lanes, "lane {k} out of range ({} lanes)", self.lanes);
        if v {
            self.bits |= 1 << k;
        } else {
            self.bits &= !(1 << k);
        }
    }

    /// Unpacks into one bool per lane.
    pub fn unpack(&self) -> Vec<bool> {
        (0..self.lanes).map(|k| self.lane(k)).collect()
    }
}

/// The result of one batched GMW execution.
#[derive(Clone, Debug)]
pub struct BatchGmwResult {
    /// Reconstructed output words, one per circuit output wire; lane
    /// `k` of each word is lane `k`'s output bit.
    pub outputs: Vec<BitBatch>,
    /// The stats of **each individual lane** — identical to what a
    /// serial [`crate::gmw::run_gmw`] call on that lane would report
    /// (stats count circuit structure only, so all lanes agree).
    pub lane_stats: GmwStats,
    /// Live lanes in this batch.
    pub lanes: usize,
}

impl BatchGmwResult {
    /// Lane `k`'s reconstructed output bits.
    pub fn lane_outputs(&self, k: usize) -> Vec<bool> {
        self.outputs.iter().map(|w| w.lane(k)).collect()
    }

    /// Aggregate cost of the whole batch, suitable for
    /// [`crate::costmodel::SmcCostModel::estimate_seconds`]: rounds are
    /// paid **once** for all lanes (the batching win — lanes share the
    /// same broadcast rounds), while triples, OTs, and bits scale with
    /// the lane count.
    pub fn aggregate_stats(&self) -> GmwStats {
        let l = self.lanes as u64;
        GmwStats {
            parties: self.lane_stats.parties,
            gates: self.lane_stats.gates,
            and_gates: self.lane_stats.and_gates,
            rounds: self.lane_stats.rounds,
            triples: self.lane_stats.triples * self.lanes,
            equivalent_ots: self.lane_stats.equivalent_ots * l,
            bits_broadcast: self.lane_stats.bits_broadcast * l,
        }
    }
}

/// Bit-sliced batched GMW runner over a fixed circuit.
///
/// Construction pre-computes the per-lane [`GmwStats`] skeleton (gate
/// counts and AND-depth rounds depend only on the circuit); each
/// [`run`](BatchGmw::run) then evaluates up to [`MAX_LANES`]
/// independent lanes word-wide.
#[derive(Clone, Debug)]
pub struct BatchGmw<'c> {
    circuit: &'c Circuit,
}

impl<'c> BatchGmw<'c> {
    /// Wraps `circuit` for batched evaluation.
    pub fn new(circuit: &'c Circuit) -> BatchGmw<'c> {
        BatchGmw { circuit }
    }

    /// Executes the circuit among `inputs.len()` GMW parties with all
    /// lanes in parallel.
    ///
    /// `inputs[p]` holds party `p`'s lane-packed input words in
    /// input-gate creation order (mirroring the serial engine's
    /// `inputs[p][i]` bit). Every word must carry the same lane count.
    /// Panics if the circuit references more parties than provided.
    pub fn run(&self, inputs: &[Vec<BitBatch>], rng: &mut HmacDrbg) -> BatchGmwResult {
        let n = inputs.len();
        assert!(n >= 1, "at least one party");
        let lanes = inputs
            .iter()
            .flat_map(|per_party| per_party.iter())
            .map(|b| b.lanes())
            .next()
            .unwrap_or(MAX_LANES);
        assert!(
            inputs.iter().all(|per_party| per_party.iter().all(|b| b.lanes() == lanes)),
            "all input words must carry the same lane count"
        );
        let mask = BitBatch::zero(lanes).mask();
        let circuit = self.circuit;

        // The dealer tape: every random word this pass will consume,
        // from one `generate` (see the module docs for the count).
        let input_gates =
            circuit.gates().iter().filter(|g| matches!(g, Gate::Input { .. })).count();
        let tape_words = input_gates * (n - 1) + circuit.and_count() * (2 + 3 * (n - 1));
        let mut tape_bytes = vec![0u8; 8 * tape_words];
        rng.generate(&mut tape_bytes);
        let mut tape = tape_bytes
            .chunks_exact(8)
            .map(|w| u64::from_be_bytes(w.try_into().expect("8-byte chunk")) & mask);
        let mut word = || tape.next().expect("dealer tape sized from the circuit");

        let mut cursor = vec![0usize; n];
        let mut shares: Vec<Vec<u64>> = vec![Vec::with_capacity(circuit.len()); n];
        // One AND gate's triple shares, reused across gates:
        // `[a-shares | b-shares | c-shares]`, `n` words each.
        let mut triple = vec![0u64; 3 * n];
        let mut stats = GmwStats { parties: n, gates: circuit.len(), ..Default::default() };
        let mut wire_round: Vec<usize> = Vec::with_capacity(circuit.len());

        for gate in circuit.gates() {
            match *gate {
                Gate::Input { party } => {
                    let p = party as usize;
                    assert!(p < n, "circuit references party {p}, only {n} present");
                    let v = inputs[p][cursor[p]].bits();
                    cursor[p] += 1;
                    // Owner deals one random word to every other party —
                    // 64 lanes of share bits each — and keeps the parity.
                    let mut acc = v;
                    for (q, sh) in shares.iter_mut().enumerate() {
                        if q == p {
                            continue;
                        }
                        let r = word();
                        sh.push(r);
                        acc ^= r;
                    }
                    shares[p].push(acc);
                    wire_round.push(0);
                }
                Gate::Const(c) => {
                    for (q, sh) in shares.iter_mut().enumerate() {
                        sh.push(if q == 0 && c { mask } else { 0 });
                    }
                    wire_round.push(0);
                }
                Gate::Xor(a, b) => {
                    for sh in shares.iter_mut() {
                        let v = sh[a.0 as usize] ^ sh[b.0 as usize];
                        sh.push(v);
                    }
                    wire_round.push(wire_round[a.0 as usize].max(wire_round[b.0 as usize]));
                }
                Gate::Not(a) => {
                    for (q, sh) in shares.iter_mut().enumerate() {
                        let v = sh[a.0 as usize] ^ if q == 0 { mask } else { 0 };
                        sh.push(v);
                    }
                    wire_round.push(wire_round[a.0 as usize]);
                }
                Gate::And(a, b) => {
                    // Word-wide Beaver triple: bit k of (ta, tb, tc) is
                    // lane k's triple, tc = ta & tb lane-wise; each is
                    // dealt as n − 1 tape words plus the parity word.
                    let ta = word();
                    let tb = word();
                    for (v, dealt) in [ta, tb, ta & tb].into_iter().zip(triple.chunks_exact_mut(n))
                    {
                        let (parity, random) = dealt.split_last_mut().expect("n >= 1");
                        *parity = v;
                        for s in random {
                            *s = word();
                            *parity ^= *s;
                        }
                    }
                    let (sa, rest) = triple.split_at(n);
                    let (sb, sc) = rest.split_at(n);

                    // Public openings d = x ⊕ a, e = y ⊕ b, lane-wise.
                    let mut d = 0u64;
                    let mut e = 0u64;
                    for (q, sh) in shares.iter().enumerate() {
                        d ^= sh[a.0 as usize] ^ sa[q];
                        e ^= sh[b.0 as usize] ^ sb[q];
                    }
                    stats.bits_broadcast += 2 * n as u64 * (n as u64 - 1);

                    // z_p = c_p ⊕ (d & b_p) ⊕ (e & a_p) ⊕ [p == 0](d & e)
                    for (q, sh) in shares.iter_mut().enumerate() {
                        let mut z = sc[q] ^ (d & sb[q]) ^ (e & sa[q]);
                        if q == 0 {
                            z ^= d & e;
                        }
                        sh.push(z);
                    }
                    stats.and_gates += 1;
                    stats.triples += 1;
                    stats.equivalent_ots += 2 * (n as u64) * (n as u64 - 1);
                    wire_round.push(wire_round[a.0 as usize].max(wire_round[b.0 as usize]) + 1);
                }
            }
        }

        debug_assert!(tape.next().is_none(), "dealer tape not fully consumed");
        stats.rounds =
            circuit.outputs().iter().map(|w| wire_round[w.0 as usize]).max().unwrap_or(0);

        let outputs: Vec<BitBatch> = circuit
            .outputs()
            .iter()
            .map(|w| {
                let word = shares.iter().fold(0u64, |acc, sh| acc ^ sh[w.0 as usize]);
                BitBatch { bits: word & mask, lanes }
            })
            .collect();
        stats.bits_broadcast += (circuit.outputs().len() as u64) * n as u64 * (n as u64 - 1);

        BatchGmwResult { outputs, lane_stats: stats, lanes }
    }
}

/// Packs per-lane plaintext inputs into the lane-packed layout
/// [`BatchGmw::run`] expects.
///
/// `lane_inputs[k][p]` is lane `k`'s party-`p` input bits (exactly what
/// each serial [`crate::gmw::run_gmw`] call would receive); the result
/// is indexed `[party][input_bit]` with lane `k` in bit `k`. All lanes
/// must agree on party count and per-party bit counts (they run the
/// same circuit).
pub fn pack_lane_inputs(lane_inputs: &[Vec<Vec<bool>>]) -> Vec<Vec<BitBatch>> {
    let lanes = lane_inputs.len();
    assert!((1..=MAX_LANES).contains(&lanes), "lanes must be 1..=64, got {lanes}");
    let parties = lane_inputs[0].len();
    let mut packed: Vec<Vec<BitBatch>> = Vec::with_capacity(parties);
    for p in 0..parties {
        let bits = lane_inputs[0][p].len();
        let mut per_party = Vec::with_capacity(bits);
        for i in 0..bits {
            let mut word = BitBatch::zero(lanes);
            for (k, lane) in lane_inputs.iter().enumerate() {
                assert_eq!(lane.len(), parties, "lane {k} has a different party count");
                assert_eq!(lane[p].len(), bits, "lane {k} party {p} has a different bit count");
                word.set_lane(k, lane[p][i]);
            }
            per_party.push(word);
        }
        packed.push(per_party);
    }
    packed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::{from_bits, majority_circuit, min_circuit, to_bits};
    use crate::gmw::run_gmw;
    use proptest::prelude::*;

    fn min_lane_inputs(vals: &[Vec<u64>], width: usize) -> Vec<Vec<Vec<bool>>> {
        vals.iter().map(|lane| lane.iter().map(|&v| to_bits(v, width)).collect()).collect()
    }

    #[test]
    fn batch_min_matches_plaintext_per_lane() {
        let c = min_circuit(3, 8);
        let lanes: Vec<Vec<u64>> =
            vec![vec![200, 13, 77], vec![5, 255, 9], vec![0, 0, 0], vec![64, 64, 63]];
        let packed = pack_lane_inputs(&min_lane_inputs(&lanes, 8));
        let mut rng = HmacDrbg::from_u64_labeled(7, "smc-batch-test");
        let result = BatchGmw::new(&c).run(&packed, &mut rng);
        assert_eq!(result.lanes, 4);
        for (k, lane) in lanes.iter().enumerate() {
            let expect = *lane.iter().min().unwrap();
            assert_eq!(from_bits(&result.lane_outputs(k)), expect, "lane {k}");
        }
    }

    #[test]
    fn lane_stats_match_serial_formulas() {
        let c = min_circuit(5, 8);
        let lanes: Vec<Vec<u64>> = (0..64).map(|k| vec![k, k + 1, 200, 13, 77]).collect();
        let packed = pack_lane_inputs(&min_lane_inputs(&lanes, 8));
        let mut rng = HmacDrbg::from_u64_labeled(1, "smc-batch-test");
        let result = BatchGmw::new(&c).run(&packed, &mut rng);
        // Serial stats are randomness-independent, so any seed works.
        let serial = run_gmw(
            &c,
            &lanes[0].iter().map(|&v| to_bits(v, 8)).collect::<Vec<_>>(),
            &mut HmacDrbg::new(b"other seed entirely"),
        );
        assert_eq!(result.lane_stats, serial.stats);
        let agg = result.aggregate_stats();
        assert_eq!(agg.rounds, serial.stats.rounds, "rounds are shared across lanes");
        assert_eq!(agg.bits_broadcast, serial.stats.bits_broadcast * 64);
        assert_eq!(agg.equivalent_ots, serial.stats.equivalent_ots * 64);
        assert_eq!(agg.triples, serial.stats.triples * 64);
    }

    #[test]
    fn batch_majority_matches_plaintext() {
        let c = majority_circuit(5);
        let lane_votes: Vec<Vec<bool>> = vec![
            vec![true, false, true, true, false],
            vec![false, false, true, false, true],
            vec![true, true, true, true, true],
        ];
        let lane_inputs: Vec<Vec<Vec<bool>>> =
            lane_votes.iter().map(|votes| votes.iter().map(|&v| vec![v]).collect()).collect();
        let packed = pack_lane_inputs(&lane_inputs);
        let mut rng = HmacDrbg::from_u64_labeled(3, "smc-batch-test");
        let result = BatchGmw::new(&c).run(&packed, &mut rng);
        assert_eq!(result.lane_outputs(0), vec![true]);
        assert_eq!(result.lane_outputs(1), vec![false]);
        assert_eq!(result.lane_outputs(2), vec![true]);
    }

    #[test]
    fn deterministic_given_seed() {
        let c = min_circuit(3, 6);
        let lanes: Vec<Vec<u64>> = vec![vec![9, 4, 30], vec![1, 2, 3]];
        let packed = pack_lane_inputs(&min_lane_inputs(&lanes, 6));
        let a = BatchGmw::new(&c).run(&packed, &mut HmacDrbg::new(b"s"));
        let b = BatchGmw::new(&c).run(&packed, &mut HmacDrbg::new(b"s"));
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.lane_stats, b.lane_stats);
    }

    #[test]
    fn one_generate_per_run() {
        // The whole dealer tape is one DRBG request, whatever the
        // circuit, party count or lane count — a single party and a
        // circuit without AND gates (empty tape) included.
        let mut rng = HmacDrbg::from_u64_labeled(11, "smc-batch-test");
        let mut xor_only = Circuit::new();
        let (a, b) = (xor_only.input(0), xor_only.input(0));
        let x = xor_only.xor(a, b);
        xor_only.set_outputs(&[x]);
        let cases: Vec<(Circuit, Vec<Vec<Vec<bool>>>)> = vec![
            (min_circuit(4, 8), min_lane_inputs(&vec![vec![9, 4, 30, 2]; 64], 8)),
            (min_circuit(2, 3), min_lane_inputs(&[vec![5, 6]], 3)),
            (majority_circuit(5), vec![vec![vec![true]; 5]; 8]),
            (xor_only, vec![vec![vec![true, false]]; 3]),
        ];
        for (i, (c, lane_inputs)) in cases.iter().enumerate() {
            let before = rng.generate_count();
            BatchGmw::new(c).run(&pack_lane_inputs(lane_inputs), &mut rng);
            assert_eq!(rng.generate_count(), before + 1, "case {i}");
        }
    }

    #[test]
    fn outputs_and_stats_ignore_the_dealer_seed() {
        let c = min_circuit(4, 8);
        for lanes in [1usize, 8, 64] {
            let vals: Vec<Vec<u64>> =
                (0..lanes as u64).map(|k| vec![200 - k, 13 + 3 * k, 77, (k * k) % 256]).collect();
            let packed = pack_lane_inputs(&min_lane_inputs(&vals, 8));
            let a = BatchGmw::new(&c).run(&packed, &mut HmacDrbg::new(b"one dealer"));
            let b = BatchGmw::new(&c).run(&packed, &mut HmacDrbg::from_u64_labeled(99, "another"));
            assert_eq!(a.outputs, b.outputs, "{lanes} lanes");
            assert_eq!(a.lane_stats, b.lane_stats, "{lanes} lanes");
            for (k, lane) in vals.iter().enumerate() {
                assert_eq!(from_bits(&a.lane_outputs(k)), *lane.iter().min().unwrap());
            }
        }
    }

    #[test]
    fn partial_lane_masks_stay_clean() {
        // 3 live lanes: dead bits must never reach the outputs.
        let c = min_circuit(2, 4);
        let lanes: Vec<Vec<u64>> = vec![vec![15, 15], vec![0, 1], vec![7, 8]];
        let packed = pack_lane_inputs(&min_lane_inputs(&lanes, 4));
        let mut rng = HmacDrbg::from_u64_labeled(9, "smc-batch-test");
        let result = BatchGmw::new(&c).run(&packed, &mut rng);
        for w in &result.outputs {
            assert_eq!(w.bits() & !w.mask(), 0, "dead lanes leaked into outputs");
        }
        assert_eq!(from_bits(&result.lane_outputs(0)), 15);
        assert_eq!(from_bits(&result.lane_outputs(1)), 0);
        assert_eq!(from_bits(&result.lane_outputs(2)), 7);
    }

    #[test]
    #[should_panic(expected = "only 2 present")]
    fn missing_party_panics() {
        let c = min_circuit(3, 4);
        let lanes: Vec<Vec<u64>> = vec![vec![1, 2]];
        let packed = pack_lane_inputs(&min_lane_inputs(&lanes, 4));
        BatchGmw::new(&c).run(&packed, &mut HmacDrbg::new(b"x"));
    }

    #[test]
    fn bitbatch_pack_unpack_roundtrip() {
        let vals = vec![true, false, true, true, false, false, true];
        let b = BitBatch::pack(&vals);
        assert_eq!(b.lanes(), 7);
        assert_eq!(b.unpack(), vals);
        assert!(BitBatch::splat(true, 64).bits() == u64::MAX);
        assert!(BitBatch::splat(true, 3).bits() == 0b111);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        #[test]
        fn prop_batch_gmw_equals_serial(
            lanes in 1usize..=64,
            parties in 2usize..5,
            width in 1usize..8,
            seed in any::<u64>(),
        ) {
            // Random inputs per lane, derived deterministically from the
            // proptest seed so failures replay.
            let mut gen = HmacDrbg::from_u64_labeled(seed, "prop-batch-inputs");
            let bound = 1u64 << width;
            let lane_vals: Vec<Vec<u64>> = (0..lanes)
                .map(|_| (0..parties).map(|_| gen.below(bound)).collect())
                .collect();
            let c = min_circuit(parties, width);
            let packed = pack_lane_inputs(&min_lane_inputs(&lane_vals, width));
            let mut batch_rng = HmacDrbg::from_u64_labeled(seed, "prop-batch-rng");
            let batch = BatchGmw::new(&c).run(&packed, &mut batch_rng);
            // Each lane must equal a serial run in outputs AND stats —
            // under a *different* DRBG, which is the whole point: both
            // are randomness-independent.
            for (k, lane) in lane_vals.iter().enumerate() {
                let inputs: Vec<Vec<bool>> =
                    lane.iter().map(|&v| to_bits(v, width)).collect();
                let mut serial_rng =
                    HmacDrbg::from_u64_labeled(seed ^ k as u64, "prop-serial-rng");
                let serial = run_gmw(&c, &inputs, &mut serial_rng);
                prop_assert_eq!(&batch.lane_outputs(k), &serial.outputs, "lane {} outputs", k);
                prop_assert_eq!(batch.lane_stats, serial.stats, "lane {} stats", k);
            }
        }

        #[test]
        fn prop_majority_lanes_equal_serial(
            lanes in 1usize..=64,
            parties in 3usize..6,
            seed in any::<u64>(),
        ) {
            let mut gen = HmacDrbg::from_u64_labeled(seed, "prop-maj-inputs");
            let lane_votes: Vec<Vec<bool>> = (0..lanes)
                .map(|_| (0..parties).map(|_| gen.chance(0.5)).collect())
                .collect();
            let c = majority_circuit(parties);
            let lane_inputs: Vec<Vec<Vec<bool>>> = lane_votes
                .iter()
                .map(|votes| votes.iter().map(|&v| vec![v]).collect())
                .collect();
            let packed = pack_lane_inputs(&lane_inputs);
            let mut batch_rng = HmacDrbg::from_u64_labeled(seed, "prop-maj-rng");
            let batch = BatchGmw::new(&c).run(&packed, &mut batch_rng);
            for (k, votes) in lane_votes.iter().enumerate() {
                let inputs: Vec<Vec<bool>> = votes.iter().map(|&v| vec![v]).collect();
                let serial = run_gmw(&c, &inputs, &mut HmacDrbg::from_u64_labeled(seed, "s"));
                prop_assert_eq!(&batch.lane_outputs(k), &serial.outputs, "lane {}", k);
                prop_assert_eq!(batch.lane_stats, serial.stats);
            }
        }
    }
}
