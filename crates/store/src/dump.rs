//! Versioned snapshot dump/load with per-node SHA-256 integrity.
//!
//! A dump holds any number of named snapshot roots over one shared node
//! table. Nodes are written post-order (children strictly before
//! parents) and deduplicated by content address, so a checkpoint
//! history of `k` snapshots costs the *union* of their nodes — the
//! shared bulk of a slowly-churning RIB is stored once.
//!
//! On load every node's content address is recomputed from its decoded
//! payload and compared against the stored address; any mismatch —
//! a flipped bit in a value, a swapped child pointer, a reordered
//! table — is rejected with a typed [`StoreError`] naming the node.
//! Truncations surface as [`StoreError::Truncated`], alien files as
//! [`StoreError::BadMagic`], and future format revisions as
//! [`StoreError::UnsupportedVersion`]. The loader builds its result
//! entirely before returning, so a failed load leaves nothing behind.
//!
//! The maps one load returns are one lineage: every node the loader
//! builds is registered in their shared intern table, so a
//! [`PMap::apply`] on any of them reuses a loaded node wherever it would
//! rebuild its content.

use crate::error::StoreError;
use crate::pmap::{child_hashes, content_address, encode_content, Node, NodeTable, PMap, FANOUT};
use pvr_crypto::encoding::{Reader, Wire};
use pvr_crypto::sha256::{Digest, DIGEST_LEN};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};

/// First 8 bytes of every snapshot dump.
pub const DUMP_MAGIC: &[u8; 8] = b"PVRSTOR1";
/// Format version this build writes and accepts.
pub const DUMP_VERSION: u32 = 1;

/// The smallest node a dump can hold: a valueless tag, an empty
/// bitmap and the node's address.
const MIN_NODE_LEN: usize = 1 + 2 + DIGEST_LEN;
/// The smallest root entry: a label and the tag of an absent root.
const MIN_ROOT_LEN: usize = 8 + 1;

/// Serializes `snapshots` (label → map) into a self-contained,
/// integrity-checked byte vector. Labels are caller-defined (the
/// checkpoint layer uses snapshot sim-times); order is preserved.
pub fn dump_snapshots(snapshots: &[(u64, &PMap)]) -> Vec<u8> {
    let mut nodes: Vec<&Arc<Node>> = Vec::new();
    let mut seen: HashSet<Digest> = HashSet::new();
    for (_, map) in snapshots {
        if let Some(root) = map.root() {
            collect_post_order(root, &mut seen, &mut nodes);
        }
    }

    let mut out = Vec::new();
    out.extend_from_slice(DUMP_MAGIC);
    DUMP_VERSION.encode(&mut out);
    (nodes.len() as u32).encode(&mut out);
    for node in &nodes {
        encode_content(node.value.as_deref(), child_hashes(&node.children), &mut out);
        node.hash.encode(&mut out);
    }
    (snapshots.len() as u32).encode(&mut out);
    for (label, map) in snapshots {
        label.encode(&mut out);
        map.root().map(|r| r.hash).encode(&mut out);
    }
    out
}

fn collect_post_order<'a>(
    node: &'a Arc<Node>,
    seen: &mut HashSet<Digest>,
    out: &mut Vec<&'a Arc<Node>>,
) {
    if seen.contains(&node.hash) {
        return;
    }
    for child in node.children.iter().flatten() {
        collect_post_order(child, seen, out);
    }
    // Check again: a diamond (two children with identical content)
    // could have inserted this very hash while we recursed.
    if seen.insert(node.hash) {
        out.push(node);
    }
}

/// Parses and verifies a dump produced by [`dump_snapshots`].
///
/// Every node's content address is recomputed and checked; the whole
/// input must be consumed. On any failure the file's contents are
/// discarded and a typed error is returned — no partial state escapes.
pub fn load_snapshots(bytes: &[u8]) -> Result<Vec<(u64, PMap)>, StoreError> {
    let mut r = Reader::new(bytes);
    if r.take(DUMP_MAGIC.len()).map_err(|_| StoreError::Truncated)? != DUMP_MAGIC {
        return Err(StoreError::BadMagic);
    }
    let version = u32::decode(&mut r)?;
    if version != DUMP_VERSION {
        return Err(StoreError::UnsupportedVersion(version));
    }

    // The counts come from the input and size reservations, so each is
    // bounded by how many of its smallest entry the input could hold: a
    // larger count is a corrupt prefix, not a huge table.
    let node_count = u32::decode(&mut r)?;
    if node_count as usize > bytes.len() / MIN_NODE_LEN {
        return Err(StoreError::Corrupt("node count exceeds input size"));
    }
    let mut by_hash: HashMap<Digest, Arc<Node>> = HashMap::with_capacity(node_count as usize);
    let mut table = NodeTable::default();
    for index in 0..node_count {
        let value = Option::<Vec<u8>>::decode(&mut r)?;
        let bitmap = u16::decode(&mut r)?;
        let mut child_hashes: [Option<Digest>; FANOUT] = std::array::from_fn(|_| None);
        for (i, slot) in child_hashes.iter_mut().enumerate() {
            if bitmap & (1 << i) != 0 {
                *slot = Some(Digest::decode(&mut r)?);
            }
        }
        let claimed = Digest::decode(&mut r)?;
        if content_address(value.as_deref(), child_hashes.iter().map(Option::as_ref)) != claimed {
            return Err(StoreError::NodeHashMismatch { index });
        }
        let mut children: [Option<Arc<Node>>; FANOUT] = std::array::from_fn(|_| None);
        for (i, h) in child_hashes.iter().enumerate() {
            if let Some(h) = h {
                children[i] = Some(Arc::clone(by_hash.get(h).ok_or(StoreError::MissingChild)?));
            }
        }
        // The children were fetched by the very hashes `claimed` was
        // checked against, so it is the address of the node built here.
        let node = Arc::new(Node::with_hash(value, children, claimed));
        table.register(&node);
        by_hash.insert(claimed, node);
    }
    let table = Arc::new(Mutex::new(table));

    let root_count = u32::decode(&mut r)?;
    if root_count as usize > bytes.len() / MIN_ROOT_LEN {
        return Err(StoreError::Corrupt("root count exceeds input size"));
    }
    let mut out = Vec::with_capacity(root_count as usize);
    for _ in 0..root_count {
        let label = u64::decode(&mut r)?;
        let map = match Option::<Digest>::decode(&mut r)? {
            None => PMap::from_root(None, &table),
            Some(h) => PMap::from_root(
                Some(Arc::clone(by_hash.get(&h).ok_or(StoreError::MissingChild)?)),
                &table,
            ),
        };
        out.push((label, map));
    }
    if r.remaining() > 0 {
        return Err(StoreError::TrailingBytes(r.remaining()));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map_of(pairs: &[(&[u8], &[u8])]) -> PMap {
        let mut m = PMap::new();
        for (k, v) in pairs {
            m = m.insert(k, v);
        }
        m
    }

    #[test]
    fn round_trip_single_snapshot() {
        let m = map_of(&[(b"abc", b"1"), (b"abd", b"2"), (b"zz", b"3")]);
        let bytes = dump_snapshots(&[(7, &m)]);
        let loaded = load_snapshots(&bytes).unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].0, 7);
        assert_eq!(loaded[0].1.root_hash(), m.root_hash());
        assert_eq!(loaded[0].1.entries(), m.entries());
    }

    #[test]
    fn round_trip_empty_snapshot() {
        let bytes = dump_snapshots(&[(0, &PMap::new())]);
        let loaded = load_snapshots(&bytes).unwrap();
        assert!(loaded[0].1.is_empty());
    }

    #[test]
    fn history_shares_nodes_on_disk() {
        // 64 keys, then one change: the two-snapshot dump must be far
        // smaller than two independent dumps (shared bulk stored once).
        let mut m = PMap::new();
        for i in 0u32..64 {
            m = m.insert(&i.to_be_bytes(), b"value-payload-of-some-size");
        }
        let m2 = m.insert(&7u32.to_be_bytes(), b"changed");
        let one = dump_snapshots(&[(1, &m)]).len();
        let both = dump_snapshots(&[(1, &m), (2, &m2)]).len();
        let separate = one + dump_snapshots(&[(2, &m2)]).len();
        // The second snapshot must cost only its changed root-to-leaf
        // path (which includes the wide fan-out nodes near the root),
        // not a second copy of the table.
        assert!(
            both < separate - one / 3,
            "shared history must dedup: {both} vs {separate} bytes ({one} for one snapshot)"
        );
        let loaded = load_snapshots(&dump_snapshots(&[(1, &m), (2, &m2)])).unwrap();
        assert_eq!(loaded[0].1.root_hash(), m.root_hash());
        assert_eq!(loaded[1].1.root_hash(), m2.root_hash());
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let m = map_of(&[(b"abc", b"1"), (b"x", b"2")]);
        let bytes = dump_snapshots(&[(3, &m)]);
        for cut in 0..bytes.len() {
            let err =
                load_snapshots(&bytes[..cut]).expect_err(&format!("truncation at {cut} must fail"));
            // Any typed error is acceptable; panics/successes are not.
            let _ = err.to_string();
        }
    }

    #[test]
    fn bit_flips_are_detected() {
        let m = map_of(&[(b"abc", b"payload-one"), (b"abd", b"payload-two")]);
        let bytes = dump_snapshots(&[(9, &m)]);
        let mut undetected = 0usize;
        for pos in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 0x01;
            match load_snapshots(&corrupt) {
                Err(_) => {}
                Ok(loaded) => {
                    // The only acceptable "success" is one that changed
                    // nothing observable (e.g. the root label field,
                    // which carries no integrity claim of its own).
                    undetected += 1;
                    assert_eq!(
                        loaded[0].1.entries(),
                        m.entries(),
                        "flip at {pos} silently corrupted data"
                    );
                }
            }
        }
        // Labels are 8 bytes; everything else must be covered.
        assert!(undetected <= 8, "{undetected} byte flips went undetected");
    }

    #[test]
    fn counts_past_what_the_input_can_hold_are_corrupt() {
        // Section digests are not MACs: a crafted count must be refused
        // before it sizes a reservation, and a count at the bound must
        // get past the check (to fail later, on the missing entries).
        let m = map_of(&[(b"abc", b"1"), (b"abd", b"2"), (b"zz", b"3")]);
        let bytes = dump_snapshots(&[(7, &m)]);
        let with_count = |at: usize, count: usize| {
            let mut forged = bytes.clone();
            forged[at..at + 4].copy_from_slice(&(count as u32).to_be_bytes());
            load_snapshots(&forged)
        };
        // The node count follows magic and version; the root count
        // precedes the one root entry (label, tag, digest) at the end.
        let (node_count_at, root_count_at) = (12, bytes.len() - (4 + 8 + 1 + DIGEST_LEN));
        let cases = [
            (node_count_at, bytes.len() / MIN_NODE_LEN, "node count exceeds input size"),
            (root_count_at, bytes.len() / MIN_ROOT_LEN, "root count exceeds input size"),
        ];
        for (at, bound, why) in cases {
            assert_eq!(with_count(at, bound + 1), Err(StoreError::Corrupt(why)));
            assert!(with_count(at, bound).is_err_and(|e| e != StoreError::Corrupt(why)));
        }
    }

    #[test]
    fn version_bump_rejected() {
        let bytes = dump_snapshots(&[(0, &PMap::new())]);
        let mut bumped = bytes.clone();
        bumped[11] = 2; // version u32 big-endian lives at offset 8..12
        assert_eq!(load_snapshots(&bumped), Err(StoreError::UnsupportedVersion(2)));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = dump_snapshots(&[(0, &PMap::new())]);
        bytes[0] = b'X';
        assert_eq!(load_snapshots(&bytes), Err(StoreError::BadMagic));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = dump_snapshots(&[(0, &PMap::new())]);
        bytes.push(0);
        assert_eq!(load_snapshots(&bytes), Err(StoreError::TrailingBytes(1)));
    }

    #[test]
    fn missing_child_rejected() {
        // Dump two snapshots, then drop the node table down to just the
        // leaf-less prefix — parents referencing missing children must
        // be caught. Easiest construction: dump a one-node map and make
        // its root reference a absent hash by rewriting the root list.
        let m = map_of(&[(b"a", b"1")]);
        let mut bytes = dump_snapshots(&[(0, &m)]);
        let n = bytes.len();
        // The final 33 bytes are Option tag + root digest; flip a digest
        // byte so it points at an undefined node. The node table is
        // untouched, so this is MissingChild, not a hash mismatch.
        bytes[n - 1] ^= 0xff;
        assert_eq!(load_snapshots(&bytes), Err(StoreError::MissingChild));
    }
}
