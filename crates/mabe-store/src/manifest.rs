//! The segment manifest: which WAL segments are live, and under which
//! checkpoint generation.
//!
//! The manifest is the log's root of trust, so it gets the classic
//! dual-slot (ping-pong) treatment: two fixed objects, `manifest.0` and
//! `manifest.1`, each holding `b"MMAN0001" ‖ u32 crc32(payload) ‖
//! payload`. A swap writes the *stale* slot (the one the current
//! manifest does not occupy) and syncs it; recovery decodes both slots
//! and picks the valid one with the highest swap sequence. A torn swap
//! therefore costs nothing — the torn slot fails its checksum and the
//! surviving slot still names a consistent segment set.
//!
//! Each sealed (cold) segment's entry also records its exact byte
//! length, fixed at rotation time: CRC framing alone cannot detect a
//! cold segment truncated at a frame boundary, but a length mismatch
//! can. The active segment's entry carries length 0 (still growing).
//!
//! The manifest also counts the committed audit seals: `seal.0` up to
//! `seal.<seals-1>` are part of the committed state, and a seal
//! numbered at or above the count is a stray from a crashed checkpoint.
//!
//! Payload layout (all big-endian):
//!
//! ```text
//! u64 seq         monotonically increasing swap sequence
//! u64 generation  checkpoint generation (names snapshot-<g>)
//! u64 seals       committed seal objects (seal.0 … seal.<seals-1>)
//! u32 n           number of live segments
//! n × (u64 seq ‖ u64 bytes)   live segments, seq ascending
//! ```
//!
//! `MMAN0001` was the layout before seals (no `seals` field, the audit
//! trail inside the snapshot). Such a slot is recognised, never read:
//! [`legacy_format`] names it so recovery can fail typed.

use crate::crc::crc32;

const MAN_MAGIC: &[u8; 8] = b"MMAN0002";

/// Magic of the pre-seal manifest layout.
const LEGACY_MAN_MAGIC: &[u8; 8] = b"MMAN0001";

/// Fixed payload bytes before the segment list.
const HEADER_LEN: usize = 28;

/// Most segments a manifest will decode (a corrupted count field must
/// not allocate unbounded memory).
const MAX_SEGMENTS: u32 = 1 << 20;

/// Name of manifest slot `i` (0 or 1).
pub(crate) fn slot_name(i: u64) -> String {
    format!("manifest.{i}")
}

/// One live segment the manifest names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SegmentEntry {
    /// The segment's sequence number within its generation.
    pub seq: u64,
    /// Exact byte length the segment was sealed at (0 for the active
    /// segment, whose length is still growing).
    pub bytes: u64,
}

/// The decoded manifest: the live segment set as of swap `seq`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Manifest {
    /// Swap sequence — each successful swap increments it, and
    /// recovery trusts the valid slot with the highest value.
    pub seq: u64,
    /// The committed checkpoint generation (`snapshot-<g>` holds the
    /// state every live segment's records apply on top of).
    pub generation: u64,
    /// Committed audit seals: `seal.0` … `seal.<seals-1>`, never
    /// collected.
    pub seals: u64,
    /// Live segments within `generation`, seq ascending. Only the last
    /// may be missing or torn on disk (created after the swap that
    /// announced it); the rest were synced and sealed at a recorded
    /// length before any swap referenced a successor.
    pub segments: Vec<SegmentEntry>,
}

impl Manifest {
    /// The slot this manifest occupies (swaps alternate slots).
    pub(crate) fn slot(&self) -> u64 {
        self.seq % 2
    }

    /// Frames the manifest for a slot write.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::with_capacity(HEADER_LEN + self.segments.len() * 16);
        payload.extend_from_slice(&self.seq.to_be_bytes());
        payload.extend_from_slice(&self.generation.to_be_bytes());
        payload.extend_from_slice(&self.seals.to_be_bytes());
        payload.extend_from_slice(&(self.segments.len() as u32).to_be_bytes());
        for seg in &self.segments {
            payload.extend_from_slice(&seg.seq.to_be_bytes());
            payload.extend_from_slice(&seg.bytes.to_be_bytes());
        }
        let mut framed = Vec::with_capacity(12 + payload.len());
        framed.extend_from_slice(MAN_MAGIC);
        framed.extend_from_slice(&crc32(&payload).to_be_bytes());
        framed.extend_from_slice(&payload);
        framed
    }

    /// Decodes one slot's bytes; `None` for anything invalid (torn,
    /// rotted, wrong magic) — recovery then consults the other slot.
    pub(crate) fn decode(framed: &[u8]) -> Option<Manifest> {
        if framed.len() < 12 || &framed[..8] != MAN_MAGIC {
            return None;
        }
        let want = u32::from_be_bytes(framed[8..12].try_into().expect("4 bytes"));
        let payload = &framed[12..];
        if crc32(payload) != want || payload.len() < HEADER_LEN {
            return None;
        }
        let u64_at = |at: usize| u64::from_be_bytes(payload[at..at + 8].try_into().expect("8"));
        let seq = u64_at(0);
        let generation = u64_at(8);
        let seals = u64_at(16);
        let n = u32::from_be_bytes(payload[24..28].try_into().expect("4 bytes"));
        if n > MAX_SEGMENTS || payload.len() != HEADER_LEN + n as usize * 16 {
            return None;
        }
        let segments: Vec<SegmentEntry> = (0..n as usize)
            .map(|i| {
                let at = HEADER_LEN + i * 16;
                SegmentEntry {
                    seq: u64_at(at),
                    bytes: u64_at(at + 8),
                }
            })
            .collect();
        if segments.is_empty() || !segments.windows(2).all(|w| w[0].seq < w[1].seq) {
            return None;
        }
        Some(Manifest {
            seq,
            generation,
            seals,
            segments,
        })
    }
}

/// Names the format of a slot written in the pre-seal layout — a
/// checksum-verified `MMAN0001` frame — and `None` for anything else
/// (current, torn or rotted slots). A single bit flip cannot turn one
/// magic into the other, so rot never masquerades as the old format.
pub(crate) fn legacy_format(framed: &[u8]) -> Option<&'static str> {
    if framed.len() < 12 || &framed[..8] != LEGACY_MAN_MAGIC {
        return None;
    }
    let want = u32::from_be_bytes(framed[8..12].try_into().expect("4 bytes"));
    (crc32(&framed[12..]) == want).then_some("MMAN0001 manifest (audit trail in the snapshot)")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(seq: u64, bytes: u64) -> SegmentEntry {
        SegmentEntry { seq, bytes }
    }

    #[test]
    fn roundtrips() {
        let m = Manifest {
            seq: 7,
            generation: 3,
            seals: 5,
            segments: vec![entry(0, 120), entry(1, 88), entry(4, 0)],
        };
        assert_eq!(Manifest::decode(&m.encode()), Some(m.clone()));
        assert_eq!(m.slot(), 1);
    }

    #[test]
    fn any_tear_or_flip_invalidates_the_slot() {
        let m = Manifest {
            seq: 2,
            generation: 1,
            seals: 1,
            segments: vec![entry(0, 64), entry(5, 0)],
        };
        let good = m.encode();
        for cut in 0..good.len() {
            assert_eq!(Manifest::decode(&good[..cut]), None, "torn at {cut}");
        }
        for byte in 0..good.len() {
            let mut bad = good.clone();
            bad[byte] ^= 0x10;
            assert_eq!(Manifest::decode(&bad), None, "bit flip at {byte}");
        }
    }

    #[test]
    fn rejects_unordered_or_empty_segment_lists() {
        let unordered = Manifest {
            seq: 1,
            generation: 0,
            seals: 0,
            segments: vec![entry(3, 8), entry(1, 8)],
        };
        assert_eq!(Manifest::decode(&unordered.encode()), None);
        let empty = Manifest {
            seq: 1,
            generation: 0,
            seals: 0,
            segments: vec![],
        };
        assert_eq!(Manifest::decode(&empty.encode()), None);
    }

    #[test]
    fn a_pre_seal_slot_is_named_never_decoded() {
        // The MMAN0001 layout: seq, generation, n, segments.
        let mut payload = Vec::new();
        payload.extend_from_slice(&1u64.to_be_bytes());
        payload.extend_from_slice(&0u64.to_be_bytes());
        payload.extend_from_slice(&1u32.to_be_bytes());
        payload.extend_from_slice(&[0; 16]);
        let mut framed = LEGACY_MAN_MAGIC.to_vec();
        framed.extend_from_slice(&crc32(&payload).to_be_bytes());
        framed.extend_from_slice(&payload);
        assert_eq!(Manifest::decode(&framed), None);
        assert!(legacy_format(&framed).is_some());
        // A rotted legacy slot is rot, not a format.
        let last = framed.len() - 1;
        framed[last] ^= 1;
        assert_eq!(legacy_format(&framed), None);
        // A current slot is not legacy, whole or flipped.
        let current = Manifest {
            seq: 1,
            generation: 0,
            seals: 0,
            segments: vec![entry(0, 0)],
        }
        .encode();
        for byte in 0..current.len() {
            for bit in 0..8 {
                let mut bad = current.clone();
                bad[byte] ^= 1 << bit;
                assert_eq!(legacy_format(&bad), None, "byte {byte} bit {bit}");
            }
        }
    }
}
