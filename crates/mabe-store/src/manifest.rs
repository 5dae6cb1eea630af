//! The segment manifest: which WAL segments are live, and under which
//! checkpoint generation.
//!
//! The manifest is the log's root of trust, so it gets the classic
//! dual-slot (ping-pong) treatment: two fixed objects, `manifest.0` and
//! `manifest.1`, each holding `b"MMAN0003" ‖ u32 crc32(payload) ‖
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
//! It names the committed state as a base and its deltas: `base` is the
//! generation of the last full checkpoint (`snapshot-<base>`), and every
//! generation in `(base, generation]` committed a `delta-<g>` on top of
//! it. Recovery applies the snapshot, then each delta in order.
//!
//! Payload layout (all big-endian):
//!
//! ```text
//! u64 seq         monotonically increasing swap sequence
//! u64 generation  checkpoint generation (names wal.<g>.* and the last delta)
//! u64 base        generation of the last full snapshot (0 only at g = 0)
//! u64 seals       committed seal objects (seal.0 … seal.<seals-1>)
//! u32 n           number of live segments
//! n × (u64 seq ‖ u64 bytes)   live segments, seq ascending
//! ```
//!
//! `MMAN0001` was the layout before seals (no `seals` field, the audit
//! trail inside the snapshot), and `MMAN0002` the layout before deltas
//! (no `base` field, every checkpoint a full snapshot). Such slots are
//! recognised, never read: [`legacy_format`] names them so recovery can
//! fail typed.

use crate::crc::crc32;

const MAN_MAGIC: &[u8; 8] = b"MMAN0003";

/// The earlier manifest layouts: magic, the payload offset of the
/// `u32` segment count (16-byte entries follow it), and the format
/// [`legacy_format`] names.
const LEGACY_LAYOUTS: [(&[u8; 8], usize, &str); 2] = [
    (
        b"MMAN0001",
        16,
        "MMAN0001 manifest (audit trail in the snapshot)",
    ),
    (
        b"MMAN0002",
        24,
        "MMAN0002 manifest (every checkpoint a full snapshot)",
    ),
];

/// Fixed payload bytes before the segment list.
const HEADER_LEN: usize = 36;

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
    /// The committed checkpoint generation: `snapshot-<base>` plus the
    /// deltas up to `delta-<generation>` hold the state every live
    /// segment's records apply on top of.
    pub generation: u64,
    /// Generation of the last full checkpoint, whose `snapshot-<base>`
    /// the deltas `(base, generation]` apply to (0 only at generation
    /// 0).
    pub base: u64,
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
        payload.extend_from_slice(&self.base.to_be_bytes());
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
        let base = u64_at(16);
        let seals = u64_at(24);
        let n = u32::from_be_bytes(payload[32..36].try_into().expect("4 bytes"));
        if n > MAX_SEGMENTS || payload.len() != HEADER_LEN + n as usize * 16 {
            return None;
        }
        if base > generation || (base == 0) != (generation == 0) {
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
            base,
            seals,
            segments,
        })
    }

    /// Deltas the committed state applies on top of its base snapshot.
    pub(crate) fn deltas(&self) -> u64 {
        self.generation - self.base
    }
}

/// Names the format of a slot written in an earlier layout — an
/// `MMAN0001` or `MMAN0002` frame whose checksum verifies and whose
/// payload length matches that layout's segment count — and `None` for
/// anything else (current, torn or rotted slots). One flipped bit can
/// turn `MMAN0003` into either old magic, but the payload it leaves is
/// in the current layout, whose length the old count never matches, so
/// rot never masquerades as an old format.
pub(crate) fn legacy_format(framed: &[u8]) -> Option<&'static str> {
    if framed.len() < 12 {
        return None;
    }
    let (_, count_at, format) = LEGACY_LAYOUTS
        .iter()
        .find(|(magic, ..)| &framed[..8] == *magic)?;
    let want = u32::from_be_bytes(framed[8..12].try_into().expect("4 bytes"));
    let payload = &framed[12..];
    let count = payload.get(*count_at..count_at + 4)?;
    let n = u32::from_be_bytes(count.try_into().expect("4 bytes")) as usize;
    (crc32(payload) == want && payload.len() == count_at + 4 + 16 * n).then_some(*format)
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
            base: 2,
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
            base: 1,
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
            base: 0,
            seals: 0,
            segments: vec![entry(3, 8), entry(1, 8)],
        };
        assert_eq!(Manifest::decode(&unordered.encode()), None);
        let empty = Manifest {
            seq: 1,
            generation: 0,
            base: 0,
            seals: 0,
            segments: vec![],
        };
        assert_eq!(Manifest::decode(&empty.encode()), None);
    }

    #[test]
    fn a_base_past_the_generation_or_missing_beside_one_is_rejected() {
        for (generation, base) in [(3, 4), (2, 0), (0, 1)] {
            let m = Manifest {
                seq: 1,
                generation,
                base,
                seals: 0,
                segments: vec![entry(0, 0)],
            };
            assert_eq!(Manifest::decode(&m.encode()), None, "{generation}/{base}");
        }
    }

    /// A checksum-verified slot of `magic` over `payload`.
    fn framed(magic: &[u8; 8], payload: &[u8]) -> Vec<u8> {
        let mut framed = magic.to_vec();
        framed.extend_from_slice(&crc32(payload).to_be_bytes());
        framed.extend_from_slice(payload);
        framed
    }

    #[test]
    fn earlier_layouts_are_named_never_decoded() {
        // MMAN0001: seq, generation, n, segments. MMAN0002 adds seals
        // before n.
        let mut pre_seal = Vec::new();
        pre_seal.extend_from_slice(&1u64.to_be_bytes());
        pre_seal.extend_from_slice(&0u64.to_be_bytes());
        let mut pre_delta = pre_seal.clone();
        pre_delta.extend_from_slice(&0u64.to_be_bytes());
        for payload in [&mut pre_seal, &mut pre_delta] {
            payload.extend_from_slice(&1u32.to_be_bytes());
            payload.extend_from_slice(&[0; 16]);
        }
        for (magic, payload) in [(b"MMAN0001", &pre_seal), (b"MMAN0002", &pre_delta)] {
            let mut slot = framed(magic, payload);
            assert_eq!(Manifest::decode(&slot), None);
            let format = legacy_format(&slot).expect("named");
            assert!(format.starts_with(std::str::from_utf8(magic).unwrap()));
            // A rotted legacy slot is rot, not a format.
            let last = slot.len() - 1;
            slot[last] ^= 1;
            assert_eq!(legacy_format(&slot), None);
        }
        // A current slot is not legacy, whole or flipped.
        let current = Manifest {
            seq: 1,
            generation: 0,
            base: 0,
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
