//! The versioned on-disk artifact container.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic       8 bytes   b"PPCHART1"
//! version     u32       FORMAT_VERSION
//! sections    u32       number of sections (bounded)
//! table       n × { id: u32, len: u64, checksum: u64 }
//! payloads    concatenated section bytes, in table order
//! file_sum    u64       digest of every preceding byte
//! ```
//!
//! The trailing file checksum catches any single flipped byte anywhere
//! in the file (header included); per-section checksums additionally
//! localize corruption and protect readers that only touch one section.
//! Decoding applies the [`crate::wire`] hardening rules: the section
//! count and every length are validated against the actual file size
//! before allocation, and trailing bytes after the checksum are
//! rejected.

use crate::digest::Hasher128;
use crate::wire::{self, Reader};
use std::io;

/// Container magic ("PowerPruning CHaracterization ARTifacts v1").
pub const MAGIC: &[u8; 8] = b"PPCHART1";

/// Current container format version. Bump on any change to the layout,
/// the section payload encodings, or the key/checksum hash.
pub const FORMAT_VERSION: u32 = 1;

/// Upper bound on sections per container (a real artifact has < 10).
pub const MAX_SECTIONS: u32 = 64;

/// One typed payload inside a container.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Section {
    /// Section type id; meanings are assigned by the artifact layer.
    pub id: u32,
    /// Opaque payload bytes.
    pub bytes: Vec<u8>,
}

impl Section {
    /// A section from an id and payload.
    #[must_use]
    pub fn new(id: u32, bytes: Vec<u8>) -> Self {
        Section { id, bytes }
    }
}

fn checksum(data: &[u8]) -> u64 {
    let mut h = Hasher128::new("charstore.checksum");
    h.update(data);
    h.finalize().lo64()
}

/// Serializes sections into a checksummed container.
#[must_use]
pub fn encode(sections: &[Section]) -> Vec<u8> {
    assert!(
        sections.len() <= MAX_SECTIONS as usize,
        "too many sections ({})",
        sections.len()
    );
    let payload_len: usize = sections.iter().map(|s| s.bytes.len()).sum();
    let mut out = Vec::with_capacity(16 + sections.len() * 20 + payload_len + 8);
    out.extend_from_slice(MAGIC);
    wire::put_u32(&mut out, FORMAT_VERSION);
    wire::put_u32(&mut out, sections.len() as u32);
    for s in sections {
        wire::put_u32(&mut out, s.id);
        wire::put_u64(&mut out, s.bytes.len() as u64);
        wire::put_u64(&mut out, checksum(&s.bytes));
    }
    for s in sections {
        out.extend_from_slice(&s.bytes);
    }
    let sum = checksum(&out);
    wire::put_u64(&mut out, sum);
    out
}

/// Parses and verifies a container, returning its sections.
///
/// # Errors
///
/// `InvalidData` on bad magic, unknown version, any checksum mismatch,
/// implausible section counts/lengths, or trailing bytes.
pub fn decode(data: &[u8]) -> io::Result<Vec<Section>> {
    // Whole-file integrity first: any flipped byte fails here, before
    // the parser trusts a single header field.
    if data.len() < MAGIC.len() + 4 + 4 + 8 {
        return Err(wire::invalid("container shorter than fixed header"));
    }
    let (body, sum_bytes) = data.split_at(data.len() - 8);
    let stored_sum = u64::from_le_bytes(sum_bytes.try_into().expect("8 bytes"));
    if checksum(body) != stored_sum {
        return Err(wire::invalid(
            "container checksum mismatch (corrupted file)",
        ));
    }

    let mut r = Reader::new(body);
    if r.take(8)? != MAGIC {
        return Err(wire::invalid("not a charstore container (bad magic)"));
    }
    let version = r.u32()?;
    if version != FORMAT_VERSION {
        return Err(wire::invalid(format!(
            "unsupported container version {version} (expected {FORMAT_VERSION})"
        )));
    }
    let count = r.u32()?;
    if count > MAX_SECTIONS {
        return Err(wire::invalid(format!(
            "implausible section count {count} (max {MAX_SECTIONS})"
        )));
    }
    if (count as usize) * 20 > r.remaining() {
        return Err(wire::invalid("section table exceeds file size"));
    }
    let mut table = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let id = r.u32()?;
        let len = r.u64()?;
        let sum = r.u64()?;
        table.push((id, len, sum));
    }
    let declared: u64 = table
        .iter()
        .try_fold(0u64, |acc, &(_, len, _)| acc.checked_add(len))
        .ok_or_else(|| wire::invalid("section lengths overflow"))?;
    if declared != r.remaining() as u64 {
        return Err(wire::invalid(format!(
            "section lengths sum to {declared} but {} payload bytes are present",
            r.remaining()
        )));
    }
    let mut sections = Vec::with_capacity(table.len());
    for (id, len, _sum) in table {
        // The whole-file checksum verified above already covers every
        // payload byte; re-hashing each section here would double the
        // decode cost of the warm-start path for no integrity gain.
        // The per-section sums stay in the format for tools that read
        // a single section without the surrounding file.
        let bytes = r.take(len as usize)?;
        sections.push(Section::new(id, bytes.to_vec()));
    }
    r.finish()?;
    Ok(sections)
}

/// Finds a section by id.
#[must_use]
pub fn find(sections: &[Section], id: u32) -> Option<&Section> {
    sections.iter().find(|s| s.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Section> {
        vec![
            Section::new(1, b"provenance: test".to_vec()),
            Section::new(2, vec![0u8; 301]),
            Section::new(7, (0..=255u8).collect()),
        ]
    }

    #[test]
    fn round_trips() {
        let sections = sample();
        let encoded = encode(&sections);
        assert_eq!(decode(&encoded).unwrap(), sections);
    }

    #[test]
    fn empty_container_round_trips() {
        assert_eq!(decode(&encode(&[])).unwrap(), Vec::<Section>::new());
    }

    #[test]
    fn every_single_flipped_byte_is_detected() {
        let encoded = encode(&sample());
        for i in 0..encoded.len() {
            let mut bad = encoded.clone();
            bad[i] ^= 0x40;
            assert!(decode(&bad).is_err(), "flip at byte {i} went undetected");
        }
    }

    #[test]
    fn truncation_is_detected() {
        let encoded = encode(&sample());
        for cut in [0, 1, 10, encoded.len() - 1] {
            assert!(decode(&encoded[..cut]).is_err(), "cut to {cut} bytes");
        }
    }

    #[test]
    fn trailing_bytes_are_detected() {
        let mut encoded = encode(&sample());
        encoded.push(0);
        assert!(decode(&encoded).is_err());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut encoded = encode(&sample());
        encoded[0..8].copy_from_slice(b"NOTMAGIC");
        // Fails the file checksum; also repair the checksum to prove the
        // magic check itself fires.
        assert!(decode(&encoded).is_err());
        let body_len = encoded.len() - 8;
        let sum = {
            let mut h = Hasher128::new("charstore.checksum");
            h.update(&encoded[..body_len]);
            h.finalize().lo64()
        };
        encoded[body_len..].copy_from_slice(&sum.to_le_bytes());
        let err = decode(&encoded).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");
    }

    /// `body` followed by its file checksum: a container whose bytes
    /// reach the parser, whatever they hold.
    fn sealed(body: &[u8]) -> Vec<u8> {
        let mut out = body.to_vec();
        wire::put_u64(&mut out, checksum(body));
        out
    }

    /// `decode` on hostile bytes: no panic, only `InvalidData`, and a
    /// decoded container stays inside the caps its allocations are
    /// sized by: at most [`MAX_SECTIONS`] sections, holding no more
    /// payload than the input has.
    fn assert_decode_holds(data: &[u8]) {
        match decode(data) {
            Ok(sections) => {
                assert!(sections.len() <= MAX_SECTIONS as usize);
                let payload: usize = sections.iter().map(|s| s.bytes.len()).sum();
                assert!(payload + 16 + sections.len() * 20 + 8 <= data.len());
            }
            Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}"),
        }
    }

    #[test]
    fn decode_survives_arbitrary_bytes() {
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for case in 0..2000 {
            let len = (next() % 400) as usize;
            let bytes: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            assert_decode_holds(&bytes);
            assert_decode_holds(&sealed(&bytes));
            // Past the magic and version into the section table, with
            // counts around the cap and table entries whose lengths
            // are small enough to sometimes fit.
            let mut header = MAGIC.to_vec();
            wire::put_u32(&mut header, FORMAT_VERSION);
            wire::put_u32(&mut header, (case % 70) as u32);
            for _ in 0..case % 5 {
                wire::put_u32(&mut header, next() as u32);
                wire::put_u64(&mut header, next() % 64);
                wire::put_u64(&mut header, next());
            }
            header.extend_from_slice(&bytes);
            assert_decode_holds(&sealed(&header));
        }
        // Counts far past the cap, or past what the bytes can hold,
        // fail before the section table is allocated.
        for count in [MAX_SECTIONS + 1, u32::MAX, MAX_SECTIONS] {
            let mut header = MAGIC.to_vec();
            wire::put_u32(&mut header, FORMAT_VERSION);
            wire::put_u32(&mut header, count);
            assert!(decode(&sealed(&header)).is_err(), "count {count}");
        }
    }

    #[test]
    fn decode_survives_truncation_and_flips() {
        let encoded = encode(&[
            Section::new(1, b"prov".to_vec()),
            Section::new(2, vec![0u8; 7]),
            Section::new(7, (0..16u8).collect()),
        ]);
        let body = &encoded[..encoded.len() - 8];
        for cut in 0..encoded.len() {
            assert!(decode(&encoded[..cut]).is_err(), "cut to {cut} bytes");
            if cut < body.len() {
                // The parser proper, past a checksum that matches.
                assert!(decode(&sealed(&body[..cut])).is_err(), "body cut to {cut}");
            }
        }
        for pos in 0..encoded.len() {
            for flip in 1..=255u8 {
                let mut flipped = encoded.clone();
                flipped[pos] ^= flip;
                assert!(decode(&flipped).is_err(), "flip {flip:#x} at {pos}");
                if pos < body.len() {
                    assert_decode_holds(&sealed(&flipped[..body.len()]));
                }
            }
        }
    }

    #[test]
    fn find_locates_sections() {
        let sections = sample();
        assert!(find(&sections, 2).is_some());
        assert!(find(&sections, 99).is_none());
    }
}
