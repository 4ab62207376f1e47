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

use crate::error::StoreError;
use pvr_crypto::encoding::{Reader, Wire};
use pvr_crypto::sha256::{sha256_concat, Digest, DIGEST_LEN};

/// One decoded section: its tag and verified payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Section {
    /// Caller-defined section kind.
    pub tag: u8,
    /// The section payload (integrity already verified).
    pub payload: Vec<u8>,
}

fn section_digest(tag: u8, payload: &[u8]) -> Digest {
    sha256_concat(&[b"pvr.store.section", &[tag], &(payload.len() as u64).to_be_bytes(), payload])
}

/// Bytes [`write_header`] appends.
pub const HEADER_LEN: usize = 8 + 4;
/// Bytes [`write_section`] appends around its payload: tag, length and
/// digest. With [`HEADER_LEN`], what a writer needs to size a
/// container's buffer once instead of growing it by doubling.
pub const SECTION_OVERHEAD: usize = 1 + 8 + DIGEST_LEN;

/// Starts a container: writes `magic` and `version`.
pub fn write_header(magic: &[u8; 8], version: u32, out: &mut Vec<u8>) {
    out.extend_from_slice(magic);
    version.encode(out);
}

/// Appends one integrity-protected section.
pub fn write_section(tag: u8, payload: &[u8], out: &mut Vec<u8>) {
    out.push(tag);
    (payload.len() as u64).encode(out);
    out.extend_from_slice(payload);
    out.extend_from_slice(section_digest(tag, payload).as_bytes());
}

/// Parses a container: checks `magic`, returns the version and every
/// section with its SHA-256 trailer verified. `expect_version` rejects
/// anything else with [`StoreError::UnsupportedVersion`].
pub fn read_container(
    bytes: &[u8],
    magic: &[u8; 8],
    expect_version: u32,
) -> Result<Vec<Section>, StoreError> {
    let mut r = Reader::new(bytes);
    if r.take(magic.len()).map_err(|_| StoreError::Truncated)? != magic {
        return Err(StoreError::BadMagic);
    }
    let version = u32::decode(&mut r)?;
    if version != expect_version {
        return Err(StoreError::UnsupportedVersion(version));
    }
    let mut sections = Vec::new();
    while r.remaining() > 0 {
        let tag = r.take(1)?[0];
        let len = u64::decode(&mut r)?;
        if len > r.remaining() as u64 {
            return Err(StoreError::Truncated);
        }
        let payload = r.take(len as usize)?.to_vec();
        let claimed = Digest(r.take_array::<DIGEST_LEN>()?);
        if section_digest(tag, &payload) != claimed {
            return Err(StoreError::SectionHashMismatch { tag });
        }
        sections.push(Section { tag, payload });
    }
    Ok(sections)
}

/// Finds the unique section with `tag`, or a typed error when it is
/// absent or duplicated.
pub fn require_section(sections: &[Section], tag: u8) -> Result<&[u8], StoreError> {
    let mut found = None;
    for s in sections {
        if s.tag == tag {
            if found.is_some() {
                return Err(StoreError::Corrupt("duplicate section tag"));
            }
            found = Some(s.payload.as_slice());
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
    fn round_trip() {
        let sections = read_container(&container(), MAGIC, 3).unwrap();
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
