//! # pvr-store — content-addressed, copy-on-write persistent RIB store
//!
//! The durability layer under the simulator's RIBs: ROADMAP's
//! "persistent copy-on-write RIB store" grown out of the [`pvr_mht`]
//! sparse-trie construction. Where `pvr-mht` builds a hash tree once to
//! commit to a set of leaves, this crate makes the same
//! domain-separated, content-addressed trie *mutable and persistent*:
//!
//! * [`PMap`] — a 16-ary radix trie over byte keys with `Arc` structural
//!   sharing. Updates are copy-on-write: an insert rebuilds only the
//!   nibble path it touches (`O(key length)` new nodes) and shares every
//!   other subtree with its parent version; [`PMap::apply`] takes a
//!   whole sorted batch of sets and removes and rebuilds each dirty node
//!   once, however many of the batch's keys sit under it — the way a
//!   RIB snapshot is captured — and reuses, instead of building, any
//!   node whose content a live map of the same lineage already holds,
//!   so a snapshot history holds each distinct node once. Cloning a
//!   [`PMap`] is an
//!   **O(1) snapshot** — exactly what a router needs to retain its RIB
//!   at a convergence barrier without stalling the event loop.
//! * [`diff`] — incremental structural diff between two snapshots:
//!   shared subtrees are skipped by content hash, so the cost is
//!   proportional to what actually changed, not to table size.
//! * [`dump_snapshots`] / [`load_snapshots`] — a versioned checkpoint
//!   format in which every node is stored with its SHA-256 content
//!   address and re-verified on load. Truncated, bit-flipped, or
//!   version-bumped files surface as typed [`StoreError`]s — never a
//!   panic, never silently corrupt state. Snapshots dumped together
//!   share nodes on disk, so a checkpoint history costs little more
//!   than its churn.
//! * [`framing`] — the sectioned container format (`tag`, length,
//!   payload, SHA-256 trailer) the full simulator checkpoint files are
//!   built from: streamed to a writer, read back as sections borrowing
//!   the file bytes.
//!
//! [`pvr_mht`]: https://docs.rs/pvr-mht

pub mod dump;
pub mod error;
pub mod framing;
pub mod pmap;

pub use dump::{dump_snapshots, load_snapshots, DUMP_MAGIC, DUMP_VERSION};
pub use error::StoreError;
pub use framing::{
    read_container, require_section, write_container, write_header, write_section, Section,
    HEADER_LEN, SECTION_OVERHEAD,
};
pub use pmap::{diff, DiffEntry, PMap};
