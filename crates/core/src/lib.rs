//! # pvr-core — Private and Verifiable Routing
//!
//! The paper's primary contribution: a protocol by which a network's
//! neighbors can *collectively verify* that it keeps its routing
//! promises, *without learning anything the routing protocol does not
//! already reveal* (§2.3: Detection, Evidence, Accuracy,
//! Confidentiality).
//!
//! * [`bits`] — the §3.2 existential bit and §3.3 bit-vector encodings;
//! * [`record`] — the §3.7 per-vertex records `I(x)` for graph
//!   navigation;
//! * [`session`] — the committing network's round state: evaluation,
//!   bit commitment, the §3.6 MHT, signed roots, selective disclosure;
//! * [`verify`] — provider/receiver checks and gossip cross-checking;
//! * [`evidence`] — transferable evidence and the third-party auditor;
//! * [`adversary`] — Byzantine committer strategies mapped to the checks
//!   that catch them;
//! * [`round`] — one PVR round, stated once: the cast, A's hand-out,
//!   each neighbor's check, the judgment, per-participant transcripts;
//! * [`confidential`] — the counterfactual-indistinguishability auditor
//!   (experiment E7);
//! * [`batch`] — §3.8 burst batching with a small MHT (experiment E5);
//! * [`simproto`] — the round's messages carried by `pvr-netsim`;
//! * [`harness`] — Figure-1 test/bench beds with genuine attestation
//!   chains.

pub mod ablation;
pub mod adversary;
pub mod batch;
pub mod bits;
pub mod confidential;
pub mod epochs;
pub mod evidence;
pub mod extended;
pub mod harness;
pub mod navigate;
pub mod record;
pub mod round;
pub mod session;
pub mod simproto;
pub mod verify;

pub use ablation::{compare_naive_vs_paper, AblationReport, NaiveCommitter, NaiveDisclosure};
pub use adversary::{Adversary, Misbehavior};
pub use bits::{check_monotone, claimed_min, existential_bit, min_bit_vector};
pub use epochs::{EpochTracker, Freshness, PvrSession};
pub use evidence::{Auditor, Evidence, Suspicion, Verdict};
pub use extended::{
    cross_check_exports, verify_as_receiver_with_epsilon, verify_promise4, UnequalExportsEvidence,
};
pub use harness::Figure1Bed;
pub use navigate::{NavError, VisibleGraph, VisibleVertex};
pub use record::{VertexContent, VertexOpenings, VertexRecord};
pub use round::{run_min_round, Cast, Prover, RoundReport, RouterCast, Transcript};
pub use session::{BitReveal, Committer, Disclosure, GraphReveal, PvrParams, RoundContext};
pub use verify::{
    cross_check_roots, verify_as_provider, verify_as_provider_existential, verify_as_receiver,
    verify_as_receiver_existential, Outcome,
};
