//! On-disk framing for individual artifacts.
//!
//! Every artifact lives in its own blob file:
//!
//! ```text
//! +----------+---------+------+-----------+-------------+---------+-----------+
//! | ANEKBLOB | version | kind | key (u128)| payload len | payload | checksum  |
//! |  8 bytes |   u32   |  u8  |  16 bytes |     u64     |  bytes  | u128 FNV  |
//! +----------+---------+------+-----------+-------------+---------+-----------+
//! ```
//!
//! The checksum covers every preceding byte, so truncation, bit flips and
//! header tampering are all detected uniformly. A blob that fails *any*
//! frame check decodes to [`BlobError`] and must be treated by callers as a
//! counted corrupt entry — never a panic.

use crate::codec::{CodecError, Dec};
use anek_core::memo::{hash_bytes, CacheKey};
use std::fmt;

/// Magic prefix of every artifact blob.
pub const BLOB_MAGIC: &[u8; 8] = b"ANEKBLOB";
/// On-disk format version. Bumping it makes every existing blob a clean
/// miss.
pub const FORMAT_VERSION: u32 = 1;

/// Which artifact class a blob holds. The tag is part of the frame, so a
/// blob can never be decoded as the wrong class even if keys collide. The
/// tags are on-disk values: retired tags (1, 2, 3, 4 and 6) are never
/// reused; 2 tagged the permissions flow graphs older stores hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ArtifactKind {
    /// A committed per-method solve record (the memoization unit).
    Solve = 5,
}

impl ArtifactKind {
    fn from_u8(b: u8) -> Option<ArtifactKind> {
        (b == ArtifactKind::Solve as u8).then_some(ArtifactKind::Solve)
    }

    /// Short lower-case label used in file names.
    pub fn label(self) -> &'static str {
        match self {
            ArtifactKind::Solve => "solve",
        }
    }
}

/// Why a blob failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlobError {
    /// The file is shorter than its fixed header.
    Truncated,
    /// The magic prefix is wrong.
    BadMagic,
    /// The format version does not match [`FORMAT_VERSION`].
    VersionSkew {
        /// Version found in the file.
        found: u32,
    },
    /// The kind tag is unknown or does not match the expected class.
    WrongKind,
    /// The embedded key does not match the requested key.
    WrongKey,
    /// The declared payload length disagrees with the file size.
    BadLength,
    /// The trailing checksum does not match the content.
    BadChecksum,
    /// The frame was intact but the payload failed structural decoding.
    Payload(CodecError),
}

impl fmt::Display for BlobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlobError::Truncated => f.write_str("blob truncated"),
            BlobError::BadMagic => f.write_str("bad blob magic"),
            BlobError::VersionSkew { found } => {
                write!(f, "format version skew (found {found}, want {FORMAT_VERSION})")
            }
            BlobError::WrongKind => f.write_str("wrong artifact kind"),
            BlobError::WrongKey => f.write_str("embedded key mismatch"),
            BlobError::BadLength => f.write_str("payload length mismatch"),
            BlobError::BadChecksum => f.write_str("checksum mismatch"),
            BlobError::Payload(e) => write!(f, "payload: {e}"),
        }
    }
}

impl std::error::Error for BlobError {}

fn checksum(bytes: &[u8]) -> CacheKey {
    hash_bytes(bytes)
}

/// Frames `payload` as a blob file for (`kind`, `key`).
pub fn frame_blob(kind: ArtifactKind, key: CacheKey, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(8 + 4 + 1 + 16 + 8 + payload.len() + 16);
    buf.extend_from_slice(BLOB_MAGIC);
    buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    buf.push(kind as u8);
    buf.extend_from_slice(&key.to_le_bytes());
    buf.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    buf.extend_from_slice(payload);
    let sum = checksum(&buf);
    buf.extend_from_slice(&sum.to_le_bytes());
    buf
}

/// Unframes a blob file, verifying magic, version, kind, key, length and
/// checksum, and returns the payload slice.
pub fn unframe_blob(data: &[u8], kind: ArtifactKind, key: CacheKey) -> Result<&[u8], BlobError> {
    const HEADER: usize = 8 + 4 + 1 + 16 + 8;
    if data.len() < HEADER + 16 {
        return Err(BlobError::Truncated);
    }
    if &data[0..8] != BLOB_MAGIC {
        return Err(BlobError::BadMagic);
    }
    let version = u32::from_le_bytes(data[8..12].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return Err(BlobError::VersionSkew { found: version });
    }
    if ArtifactKind::from_u8(data[12]) != Some(kind) {
        return Err(BlobError::WrongKind);
    }
    let embedded = u128::from_le_bytes(data[13..29].try_into().expect("16 bytes"));
    if embedded != key {
        return Err(BlobError::WrongKey);
    }
    let len = u64::from_le_bytes(data[29..37].try_into().expect("8 bytes"));
    // Checked: a hostile length field must not overflow the comparison.
    let expected = usize::try_from(len)
        .ok()
        .and_then(|l| l.checked_add(HEADER + 16))
        .ok_or(BlobError::BadLength)?;
    if data.len() != expected {
        return Err(BlobError::BadLength);
    }
    let len = expected - HEADER - 16;
    let body = &data[..HEADER + len];
    let stored = u128::from_le_bytes(data[HEADER + len..].try_into().expect("16 bytes"));
    if checksum(body) != stored {
        return Err(BlobError::BadChecksum);
    }
    Ok(&data[HEADER..HEADER + len])
}

/// Decodes a framed payload with `decode`, mapping codec failures into
/// [`BlobError::Payload`].
pub fn decode_payload<T>(
    payload: &[u8],
    decode: impl FnOnce(&mut Dec<'_>) -> Result<T, CodecError>,
) -> Result<T, BlobError> {
    crate::codec::from_bytes(payload, decode).map_err(BlobError::Payload)
}
