//! Sectioned container format for checkpoint files.
//!
//! A container is `magic ‖ version ‖ section*`, where each section is
//! `tag(u8) ‖ len(u64) ‖ payload ‖ SHA-256(tag ‖ len ‖ payload)`. The
//! per-section digest makes corruption attributable: a reader learns
//! *which* part of a checkpoint was damaged (engine state vs. router
//! RIBs vs. snapshot history) instead of just "bad file", and a
//! truncated download fails loudly at the first incomplete section.
//!
//! The layer above (e.g. the BGP checkpoint codec) decides what lives
//! in each section; this module only guarantees framing integrity.
//! [`write_container`] streams a whole container to any [`Write`] (a
//! checkpoint goes straight to a buffered file, never through one
//! in-memory copy of itself); [`write_header`] and [`write_section`]
//! append the same bytes to a `Vec<u8>`.

use crate::error::StoreError;
use pvr_crypto::encoding::{Reader, Wire};
use pvr_crypto::sha256::{sha256_concat, Digest, DIGEST_LEN};
use std::io::{self, Write};

/// One decoded section: its tag and verified payload, borrowed from
/// the container bytes it was read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Section<'a> {
    /// Caller-defined section kind.
    pub tag: u8,
    /// The section payload (integrity already verified).
    pub payload: &'a [u8],
}

/// Bytes [`write_header`] appends.
pub const HEADER_LEN: usize = 8 + 4;
/// Bytes of a section head: tag and payload length.
const HEAD_LEN: usize = 1 + 8;
/// Bytes [`write_section`] appends around its payload: tag, length and
/// digest. With [`HEADER_LEN`], what a writer needs to size a
/// container's buffer once instead of growing it by doubling.
pub const SECTION_OVERHEAD: usize = HEAD_LEN + DIGEST_LEN;

fn section_head(tag: u8, len: usize) -> [u8; HEAD_LEN] {
    let mut head = [0; HEAD_LEN];
    head[0] = tag;
    head[1..].copy_from_slice(&(len as u64).to_be_bytes());
    head
}

/// The digest that closes a section: over its head and payload,
/// domain-separated.
fn section_digest(head: &[u8; HEAD_LEN], payload: &[u8]) -> Digest {
    sha256_concat(&[b"pvr.store.section", head, payload])
}

fn put_header(out: &mut impl Write, magic: &[u8; 8], version: u32) -> io::Result<()> {
    out.write_all(magic)?;
    out.write_all(&version.to_be_bytes())
}

/// The one statement of a section's layout: head, payload, digest.
fn put_section(out: &mut impl Write, tag: u8, payload: &[u8]) -> io::Result<()> {
    let head = section_head(tag, payload.len());
    out.write_all(&head)?;
    out.write_all(payload)?;
    out.write_all(section_digest(&head, payload).as_bytes())
}

/// Streams a whole container — `magic`, `version`, then each
/// `(tag, payload)` as a section, in order — to `out`, and returns the
/// bytes written. The payloads are written as they are, never copied
/// into a container-sized buffer first.
pub fn write_container<P: AsRef<[u8]>>(
    out: &mut impl Write,
    magic: &[u8; 8],
    version: u32,
    sections: &[(u8, P)],
) -> io::Result<u64> {
    put_header(out, magic, version)?;
    let mut len = HEADER_LEN;
    for (tag, payload) in sections {
        put_section(out, *tag, payload.as_ref())?;
        len += SECTION_OVERHEAD + payload.as_ref().len();
    }
    Ok(len as u64)
}

/// Starts a container: writes `magic` and `version`.
pub fn write_header(magic: &[u8; 8], version: u32, out: &mut Vec<u8>) {
    put_header(out, magic, version).expect("writing to a Vec<u8> cannot fail");
}

/// Appends one integrity-protected section.
pub fn write_section(tag: u8, payload: &[u8], out: &mut Vec<u8>) {
    put_section(out, tag, payload).expect("writing to a Vec<u8> cannot fail");
}

/// Parses a container: checks `magic`, returns the version and every
/// section with its SHA-256 trailer verified. `expect_version` rejects
/// anything else with [`StoreError::UnsupportedVersion`].
///
/// The sections borrow `bytes`. Framing is read first; then the digests
/// are checked, the largest section's on a helper thread while the
/// caller checks the rest. The error does not depend on which thread
/// finishes first: it is the first damaged section in file order, and a
/// framing error (truncation) only when every section before it is
/// intact.
pub fn read_container<'a>(
    bytes: &'a [u8],
    magic: &[u8; 8],
    expect_version: u32,
) -> Result<Vec<Section<'a>>, StoreError> {
    let mut r = Reader::new(bytes);
    if r.take(magic.len()).map_err(|_| StoreError::Truncated)? != magic {
        return Err(StoreError::BadMagic);
    }
    let version = u32::decode(&mut r)?;
    if version != expect_version {
        return Err(StoreError::UnsupportedVersion(version));
    }
    let mut framed = Vec::new();
    let framing = loop {
        if r.remaining() == 0 {
            break Ok(());
        }
        match read_section(&mut r) {
            Ok(section) => framed.push(section),
            Err(e) => break Err(e),
        }
    };
    if let Some(tag) = first_damaged(&framed) {
        return Err(StoreError::SectionHashMismatch { tag });
    }
    framing?;
    Ok(framed.into_iter().map(|(section, _)| section).collect())
}

/// One section's framing and the digest it claims, unchecked.
fn read_section<'a>(r: &mut Reader<'a>) -> Result<(Section<'a>, Digest), StoreError> {
    let tag = r.take(1)?[0];
    let len = u64::decode(r)?;
    if len > r.remaining() as u64 {
        return Err(StoreError::Truncated);
    }
    let payload = r.take(len as usize)?;
    let claimed = Digest(r.take_array::<DIGEST_LEN>()?);
    Ok((Section { tag, payload }, claimed))
}

/// The tag of the first section, in file order, whose payload does not
/// hash to the digest it claims.
fn first_damaged(framed: &[(Section<'_>, Digest)]) -> Option<u8> {
    let intact = |i: usize| {
        let (section, claimed) = &framed[i];
        section_digest(&section_head(section.tag, section.payload.len()), section.payload)
            == *claimed
    };
    let largest = (0..framed.len()).max_by_key(|&i| framed[i].0.payload.len())?;
    let first = std::thread::scope(|scope| {
        let helper = scope.spawn(move || intact(largest));
        let rest = (0..framed.len()).filter(|&i| i != largest).find(|&i| !intact(i));
        let largest_intact = helper.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        rest.into_iter().chain((!largest_intact).then_some(largest)).min()
    });
    first.map(|i| framed[i].0.tag)
}

/// Finds the unique section with `tag`, or a typed error when it is
/// absent or duplicated.
pub fn require_section<'a>(sections: &[Section<'a>], tag: u8) -> Result<&'a [u8], StoreError> {
    let mut found = None;
    for s in sections {
        if s.tag == tag {
            if found.is_some() {
                return Err(StoreError::Corrupt("duplicate section tag"));
            }
            found = Some(s.payload);
        }
    }
    found.ok_or(StoreError::Corrupt("missing required section"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: &[u8; 8] = b"PVRTEST1";

    fn container() -> Vec<u8> {
        let mut out = Vec::new();
        write_header(MAGIC, 3, &mut out);
        write_section(1, b"engine-bytes", &mut out);
        write_section(2, b"router-bytes", &mut out);
        out
    }

    #[test]
    fn length_constants_match_the_writers() {
        let payloads = b"engine-bytes".len() + b"router-bytes".len();
        assert_eq!(container().len(), HEADER_LEN + 2 * SECTION_OVERHEAD + payloads);
    }

    #[test]
    fn streamed_container_equals_the_appended_one() {
        let sections: [(u8, &[u8]); 2] = [(1, b"engine-bytes"), (2, b"router-bytes")];
        let mut streamed = Vec::new();
        let len = write_container(&mut streamed, MAGIC, 3, &sections).unwrap();
        assert_eq!(streamed, container());
        assert_eq!(len, streamed.len() as u64);
    }

    #[test]
    fn round_trip() {
        let bytes = container();
        let sections = read_container(&bytes, MAGIC, 3).unwrap();
        assert_eq!(sections.len(), 2);
        assert_eq!(require_section(&sections, 1).unwrap(), b"engine-bytes");
        assert_eq!(require_section(&sections, 2).unwrap(), b"router-bytes");
        assert!(require_section(&sections, 9).is_err());
    }

    #[test]
    fn every_truncation_fails_typed_or_drops_sections() {
        // Cutting inside a section is a framing error; cutting exactly
        // at a section boundary yields a *valid shorter* container, and
        // the missing section is then caught by `require_section` (the
        // checkpoint layer always requires its full section set).
        let bytes = container();
        for cut in 0..bytes.len() {
            match read_container(&bytes[..cut], MAGIC, 3) {
                Err(_) => {}
                Ok(sections) => {
                    assert!(
                        require_section(&sections, 2).is_err(),
                        "cut at {cut} kept the final section intact"
                    );
                }
            }
        }
    }

    #[test]
    fn payload_bit_flip_names_the_section() {
        let mut bytes = container();
        // Flip a byte inside the second section's payload region.
        let pos = bytes.len() - DIGEST_LEN - 3;
        bytes[pos] ^= 0x40;
        assert_eq!(
            read_container(&bytes, MAGIC, 3),
            Err(StoreError::SectionHashMismatch { tag: 2 })
        );
    }

    #[test]
    fn a_damaged_section_outranks_a_later_truncation() {
        let mut bytes = container();
        bytes[HEADER_LEN + HEAD_LEN] ^= 0x40;
        let cut = bytes.len() - 1;
        assert_eq!(
            read_container(&bytes[..cut], MAGIC, 3),
            Err(StoreError::SectionHashMismatch { tag: 1 })
        );
    }

    #[test]
    fn version_and_magic_checked() {
        assert_eq!(read_container(&container(), MAGIC, 4), Err(StoreError::UnsupportedVersion(3)));
        assert_eq!(read_container(&container(), b"OTHERMAG", 3), Err(StoreError::BadMagic));
    }

    #[test]
    fn length_overflow_is_truncation_not_panic() {
        let mut out = Vec::new();
        write_header(MAGIC, 3, &mut out);
        out.push(1);
        u64::MAX.encode(&mut out); // absurd length
        out.extend_from_slice(b"short");
        assert_eq!(read_container(&out, MAGIC, 3), Err(StoreError::Truncated));
    }
}
