//! WAL segment framing: `wal.<gen>.<seq>` objects holding CRC32-framed
//! records.
//!
//! A segment is `b"MSEG0001"` followed by frames of
//! `u32 len ‖ u32 crc32(payload) ‖ payload`. Two parsers share the
//! walk: the *tolerant* one ([`parse_frames`]) drops everything from
//! the first bad frame — correct only for the **active** (last) segment,
//! whose tail may legitimately be torn by a crash; and the *strict* one
//! ([`verify_frames`]) treats any bad frame or trailing garbage as
//! corruption — correct for **cold** segments, which were fully synced
//! before the manifest ever referenced a successor, so a bad frame there
//! is bit rot, not a tear.

use crate::crc::crc32;
use crate::storage::StoreError;

pub(crate) const SEG_MAGIC: &[u8; 8] = b"MSEG0001";

/// Largest record payload the codec will believe (16 MiB); anything
/// larger is treated as frame corruption.
const MAX_RECORD_LEN: u32 = 16 << 20;

/// Name of the segment holding `seq` within checkpoint `generation`.
pub(crate) fn segment_name(generation: u64, seq: u64) -> String {
    format!("wal.{generation}.{seq}")
}

/// Bytes of a frame's header: `u32 len ‖ u32 crc32(payload)`.
pub(crate) const FRAME_HEADER: usize = 8;

/// Frames one record payload for appending.
pub(crate) fn frame(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
    frame.extend_from_slice(&[0; FRAME_HEADER]);
    frame.extend_from_slice(payload);
    finish_frame(&mut frame);
    frame
}

/// Fills in the header reserved at the start of `framed` from the
/// payload that follows it.
pub(crate) fn finish_frame(framed: &mut [u8]) {
    let (header, payload) = framed.split_at_mut(FRAME_HEADER);
    header[..4].copy_from_slice(&(payload.len() as u32).to_be_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_be_bytes());
}

/// Splits back-to-back framed records (as [`frame`] builds them) into
/// one slice per record, headers included.
pub(crate) fn framed_records(mut bytes: &[u8]) -> impl Iterator<Item = &[u8]> {
    std::iter::from_fn(move || {
        let len = u32::from_be_bytes(bytes.get(..4)?.try_into().expect("4 bytes"));
        let (record, rest) = bytes.split_at(FRAME_HEADER + len as usize);
        bytes = rest;
        Some(record)
    })
}

/// Splits a segment into intact record payloads, dropping the tail from
/// the first bad frame (returned as dropped byte count). A segment
/// shorter than its magic is a torn creation and yields nothing; a
/// *wrong* magic is corruption.
pub(crate) fn parse_frames(bytes: &[u8]) -> Result<(Vec<Vec<u8>>, usize), StoreError> {
    if bytes.len() < SEG_MAGIC.len() {
        return Ok((Vec::new(), bytes.len()));
    }
    if &bytes[..SEG_MAGIC.len()] != SEG_MAGIC {
        return Err(StoreError::Corrupt("wal segment header"));
    }
    let mut records = Vec::new();
    let mut pos = SEG_MAGIC.len();
    while pos < bytes.len() {
        match frame_at(bytes, pos) {
            Some((payload, next)) => {
                records.push(payload.to_vec());
                pos = next;
            }
            None => break, // torn or corrupt tail
        }
    }
    Ok((records, bytes.len() - pos))
}

/// Strictly verifies a cold segment: every frame must check out and no
/// trailing bytes may remain. Returns the payloads and frame count.
pub(crate) fn verify_frames(bytes: &[u8]) -> Result<Vec<Vec<u8>>, StoreError> {
    if bytes.len() < SEG_MAGIC.len() || &bytes[..SEG_MAGIC.len()] != SEG_MAGIC {
        return Err(StoreError::Corrupt("wal segment header"));
    }
    let mut records = Vec::new();
    let mut pos = SEG_MAGIC.len();
    while pos < bytes.len() {
        let (payload, next) =
            frame_at(bytes, pos).ok_or(StoreError::Corrupt("wal segment frame"))?;
        records.push(payload.to_vec());
        pos = next;
    }
    Ok(records)
}

/// Decodes the frame at `pos`; `None` if it is torn or fails its CRC.
fn frame_at(bytes: &[u8], pos: usize) -> Option<(&[u8], usize)> {
    let remaining = bytes.len() - pos;
    if remaining < 8 {
        return None; // torn frame header
    }
    let len = u32::from_be_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes"));
    let want = u32::from_be_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes"));
    if len > MAX_RECORD_LEN || len as usize > remaining - 8 {
        return None; // torn or corrupt length
    }
    let payload = &bytes[pos + 8..pos + 8 + len as usize];
    if crc32(payload) != want {
        return None; // corrupt payload (or a length corrupted into range)
    }
    Some((payload, pos + 8 + len as usize))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn segment(payloads: &[&[u8]]) -> Vec<u8> {
        let mut bytes = SEG_MAGIC.to_vec();
        for p in payloads {
            bytes.extend_from_slice(&frame(p));
        }
        bytes
    }

    #[test]
    fn tolerant_parse_drops_only_the_torn_tail() {
        let mut bytes = segment(&[b"one", b"two"]);
        let intact = bytes.len();
        bytes.extend_from_slice(&frame(b"torn"));
        bytes.truncate(intact + 5);
        let (records, dropped) = parse_frames(&bytes).unwrap();
        assert_eq!(records, vec![b"one".to_vec(), b"two".to_vec()]);
        assert_eq!(dropped, 5);
    }

    #[test]
    fn strict_verify_rejects_what_tolerant_parse_forgives() {
        let mut bytes = segment(&[b"one", b"two"]);
        assert_eq!(verify_frames(&bytes).unwrap().len(), 2);
        bytes.push(0xFF);
        assert!(parse_frames(&bytes).is_ok());
        assert_eq!(
            verify_frames(&bytes).unwrap_err(),
            StoreError::Corrupt("wal segment frame")
        );
    }

    #[test]
    fn mid_segment_bit_rot_is_detected_strictly() {
        let mut bytes = segment(&[b"first-record", b"second-record"]);
        bytes[SEG_MAGIC.len() + 9] ^= 0x01; // inside the first payload
        let (records, dropped) = parse_frames(&bytes).unwrap();
        assert!(records.is_empty(), "tolerant parse stops at the rot");
        assert!(dropped > 0);
        assert!(verify_frames(&bytes).is_err());
    }

    #[test]
    fn wrong_magic_is_corruption_short_magic_is_a_torn_creation() {
        assert!(parse_frames(b"NOTMAGIC").is_err());
        let (records, dropped) = parse_frames(b"MSEG").unwrap();
        assert!(records.is_empty());
        assert_eq!(dropped, 4);
    }
}
