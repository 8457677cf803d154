//! Self-verifying blobs: the engine's one integrity framing.
//!
//! Every chunk and every header the engine stores is a single *sealed*
//! blob: the payload followed by a 4-byte little-endian CRC-32 trailer
//! (the IEEE polynomial of [`ecc_checkpoint::crc32`]). One key, one
//! put: a crash can lose a blob, but never leave a blob without its
//! checksum or a checksum without its blob. Reading a sealed blob
//! yields [`Sealed::Intact`] with the trailer stripped, [`Sealed::Missing`],
//! or [`Sealed::Corrupt`] — which also covers a blob too short to carry
//! a trailer, so truncated bytes from a remote peer can never panic.
//!
//! The trailer is appended in place. Buffers the engine seals are
//! allocated with [`TRAILER`] bytes of headroom, so sealing never
//! reallocates and copies a whole chunk.

use ecc_checkpoint::crc32;
use ecc_cluster::{ClusterError, DataPlane, NodeId};

/// Bytes the CRC-32 trailer adds to every sealed blob.
pub const TRAILER: usize = 4;

/// Outcome of reading one sealed blob.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Sealed {
    /// The blob matches its trailer; holds the payload, trailer removed.
    Intact(Vec<u8>),
    /// No blob under the key (or the node is down).
    Missing,
    /// The blob fails its trailer, or is shorter than one: silent
    /// corruption, to be treated as an erasure.
    Corrupt,
}

/// A zeroed `len`-byte payload buffer with room for the trailer.
pub(crate) fn zeroed(len: usize) -> Vec<u8> {
    let mut buf = Vec::with_capacity(len + TRAILER);
    buf.resize(len, 0);
    buf
}

/// Copies `payload` into a fresh buffer with room for the trailer.
pub(crate) fn copy_with_headroom(payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(payload.len() + TRAILER);
    buf.extend_from_slice(payload);
    buf
}

/// Seals `payload` by appending its CRC-32 trailer.
///
/// # Examples
///
/// ```
/// use eccheck::sealed::{open, seal, Sealed};
///
/// let blob = seal(b"chunk".to_vec());
/// assert_eq!(blob.len(), 5 + eccheck::sealed::TRAILER);
/// assert_eq!(open(Some(blob)), Sealed::Intact(b"chunk".to_vec()));
/// assert_eq!(open(Some(vec![1, 2, 3])), Sealed::Corrupt);
/// assert_eq!(open(None), Sealed::Missing);
/// ```
pub fn seal(payload: Vec<u8>) -> Vec<u8> {
    let crc = crc32(&payload);
    seal_with(payload, crc)
}

/// Seals `payload` with an already-known CRC-32 of it (e.g. one
/// stitched from piece CRCs with [`ecc_checkpoint::crc32_combine`]).
pub(crate) fn seal_with(mut payload: Vec<u8>, crc: u32) -> Vec<u8> {
    debug_assert_eq!(crc32(&payload), crc, "the supplied CRC must cover the payload");
    payload.extend_from_slice(&crc.to_le_bytes());
    payload
}

/// Seals a copy of `payload`: one allocation, one copy, one CRC pass.
pub(crate) fn seal_copy(payload: &[u8]) -> Vec<u8> {
    seal(copy_with_headroom(payload))
}

/// The payload of a sealed blob, or `None` when the blob fails its
/// trailer or is too short to carry one.
pub(crate) fn verify(blob: &[u8]) -> Option<&[u8]> {
    let split = blob.len().checked_sub(TRAILER)?;
    let (payload, trailer) = blob.split_at(split);
    (crc32(payload).to_le_bytes()[..] == *trailer).then_some(payload)
}

/// Verifies a fetched blob and strips its trailer in place.
pub fn open(blob: Option<Vec<u8>>) -> Sealed {
    let Some(mut blob) = blob else { return Sealed::Missing };
    match verify(&blob).map(<[u8]>::len) {
        Some(len) => {
            blob.truncate(len);
            Sealed::Intact(blob)
        }
        None => Sealed::Corrupt,
    }
}

/// Seals `payload` and stores it on `node` under `key` in one put.
///
/// # Errors
///
/// Propagates the plane's put error (e.g. the node is down).
pub fn put_sealed(
    plane: &mut impl DataPlane,
    node: NodeId,
    key: &str,
    payload: Vec<u8>,
) -> Result<(), ClusterError> {
    plane.put_local(node, key, seal(payload))
}

/// Reads and verifies the sealed blob `node` holds under `key`.
pub fn get_sealed(plane: &impl DataPlane, node: NodeId, key: &str) -> Sealed {
    open(plane.get_local(node, key))
}

/// Reads and verifies a sealed blob from remote storage (tier 1).
pub fn get_sealed_remote(plane: &impl DataPlane, key: &str) -> Sealed {
    open(plane.get_remote(key))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trailer_is_the_little_endian_crc() {
        let blob = seal(b"123456789".to_vec());
        assert_eq!(&blob[9..], &0xCBF4_3926u32.to_le_bytes());
        assert_eq!(seal(Vec::new()), vec![0; TRAILER], "CRC-32 of nothing is 0");
    }

    #[test]
    fn headroom_buffers_seal_without_reallocating() {
        for buf in [zeroed(4096), copy_with_headroom(&[7u8; 4096])] {
            let before = buf.as_ptr();
            let blob = seal(buf);
            assert_eq!(blob.as_ptr(), before, "sealing must append in place");
        }
        assert_eq!(seal_copy(&[7u8; 4096]), seal(vec![7u8; 4096]));
    }

    #[test]
    fn plane_helpers_round_trip_and_flag_damage() {
        use ecc_cluster::{Cluster, ClusterSpec};
        let mut c = Cluster::new(ClusterSpec::tiny_test(2, 1));
        put_sealed(&mut c, 0, "k", b"payload".to_vec()).unwrap();
        assert_eq!(get_sealed(&c, 0, "k"), Sealed::Intact(b"payload".to_vec()));
        assert_eq!(get_sealed(&c, 1, "k"), Sealed::Missing);
        c.put_local(1, "k", vec![0xFF; 2]).unwrap();
        assert_eq!(get_sealed(&c, 1, "k"), Sealed::Corrupt);
        c.put_remote("r", seal(vec![9; 3]));
        assert_eq!(get_sealed_remote(&c, "r"), Sealed::Intact(vec![9; 3]));
        assert_eq!(get_sealed_remote(&c, "absent"), Sealed::Missing);
    }
}
