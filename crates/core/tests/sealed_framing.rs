//! Property tests for the sealed-blob framing every chunk and header
//! is stored in: payload ‖ little-endian CRC-32 trailer.
//!
//! Over arbitrary payload lengths — the empty payload and 0–3-byte
//! blobs included — a seal/open round trip is exact, every single-bit
//! flip anywhere in the blob reads as `Corrupt` (CRC-32 detects all
//! single-bit errors), every truncation or extension reads as
//! `Corrupt`, and a blob too short to carry a trailer reads as
//! `Corrupt` rather than panicking.
//!
//! Truncation and extension are caught because the bytes that land in
//! the trailer position almost never equal the CRC of what precedes
//! them (a 2⁻³² coincidence per case); generation is deterministic, so
//! a run that passes once passes always.

use ecc_cluster::{Cluster, ClusterSpec};
use eccheck::sealed::{get_sealed, open, seal, Sealed, TRAILER};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn seal_open_round_trip_is_exact(payload in proptest::collection::vec(any::<u8>(), 0..300)) {
        let blob = seal(payload.clone());
        prop_assert_eq!(blob.len(), payload.len() + TRAILER);
        prop_assert_eq!(&blob[..payload.len()], &payload[..]);
        prop_assert_eq!(open(Some(blob)), Sealed::Intact(payload));
    }

    #[test]
    fn every_single_bit_flip_is_corrupt(payload in proptest::collection::vec(any::<u8>(), 0..40)) {
        let blob = seal(payload);
        for bit in 0..blob.len() * 8 {
            let mut flipped = blob.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            prop_assert_eq!(open(Some(flipped)), Sealed::Corrupt, "bit {} of {}", bit, blob.len());
        }
    }

    #[test]
    fn every_truncation_or_extension_is_corrupt(
        payload in proptest::collection::vec(any::<u8>(), 0..40),
        tail in proptest::collection::vec(any::<u8>(), 1..9),
    ) {
        let blob = seal(payload);
        for cut in 0..blob.len() {
            prop_assert_eq!(open(Some(blob[..cut].to_vec())), Sealed::Corrupt, "cut at {}", cut);
        }
        for extra in 1..=tail.len() {
            let mut longer = blob.clone();
            longer.extend_from_slice(&tail[..extra]);
            prop_assert_eq!(open(Some(longer)), Sealed::Corrupt, "{} extra bytes", extra);
        }
    }

    #[test]
    fn blobs_shorter_than_the_trailer_are_corrupt(
        short in proptest::collection::vec(any::<u8>(), 0..TRAILER),
    ) {
        prop_assert_eq!(open(Some(short.clone())), Sealed::Corrupt);
        // The same bytes arriving through a data plane (e.g. from a
        // TCP peer) read the same way.
        let mut plane = Cluster::new(ClusterSpec::tiny_test(1, 1));
        plane.put_local(0, "k", short).unwrap();
        prop_assert_eq!(get_sealed(&plane, 0, "k"), Sealed::Corrupt);
    }
}

#[test]
fn empty_payload_seals_to_a_bare_trailer() {
    let blob = seal(Vec::new());
    assert_eq!(blob.len(), TRAILER);
    assert_eq!(open(Some(blob)), Sealed::Intact(Vec::new()));
    assert_eq!(open(None), Sealed::Missing);
}

#[test]
fn every_blob_of_up_to_two_bytes_is_corrupt() {
    assert_eq!(open(Some(Vec::new())), Sealed::Corrupt);
    for a in 0..=255u8 {
        assert_eq!(open(Some(vec![a])), Sealed::Corrupt);
        for b in 0..=255u8 {
            assert_eq!(open(Some(vec![a, b])), Sealed::Corrupt);
        }
    }
}
