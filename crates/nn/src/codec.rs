//! `DBC1` — the compact, versioned binary codec behind all persistence.
//!
//! The paper's Table 5 compares methods on index *disk size*, and its §6
//! dynamic-schema-update story depends on saving and reloading routers
//! instead of retraining — so the serialized index is a product, not a
//! debugging artifact. This module defines the on-disk container every
//! persistence path goes through:
//!
//! ```text
//! offset 0  magic    b"DBC1"
//! offset 4  version  u16 LE (currently 1)
//! offset 6  count    u16 LE (number of sections)
//! then, per section:
//!           tag      [u8; 4]     (e.g. b"PARM", b"GRPH")
//!           len      u64 LE      (payload byte length)
//!           payload  len bytes
//! ```
//!
//! Everything is little-endian and length-prefixed; `f32` weights are stored
//! as raw bits (`to_le_bytes`), so every bit pattern — including NaN
//! payloads, infinities and negative zero — survives a save→load round trip
//! exactly. Decoding validates magic, version, section framing and tensor
//! shapes, returning typed [`PersistError`]s in release builds (never a
//! `debug_assert!`). A reader looks up the tags it needs and skips every
//! other section unread.
//!
//! The parameter-store section (`PARM`) payload is:
//!
//! ```text
//! u32 param_count
//! per parameter, in registration (ParamId) order:
//!   u32 name_len, name (UTF-8)
//!   u32 rows, u32 cols
//!   rows * cols × f32 (raw LE bits)
//! ```

use crate::optim::ParamStore;
use crate::serialize::PersistError;
use crate::tensor::Tensor;

/// File magic: the first four bytes of every binary artifact.
pub const MAGIC: [u8; 4] = *b"DBC1";

/// Current (and only) container version.
const VERSION: u16 = 1;

/// Section tag for a [`ParamStore`] payload.
pub const SEC_PARAMS: [u8; 4] = *b"PARM";

/// One tagged, length-prefixed payload inside a `DBC1` container.
///
/// Payload bytes are [`Cow`](std::borrow::Cow): encoders hand over owned
/// buffers, while [`decode_container`] borrows straight from the input so
/// multi-megabyte weight sections are not copied an extra time per load.
pub struct Section<'a> {
    pub tag: [u8; 4],
    pub bytes: std::borrow::Cow<'a, [u8]>,
}

impl<'a> Section<'a> {
    pub fn new(tag: [u8; 4], bytes: Vec<u8>) -> Self {
        Section { tag, bytes: std::borrow::Cow::Owned(bytes) }
    }

    fn borrowed(tag: [u8; 4], bytes: &'a [u8]) -> Self {
        Section { tag, bytes: std::borrow::Cow::Borrowed(bytes) }
    }
}

// ---------------------------------------------------------------------------
// container framing
// ---------------------------------------------------------------------------

/// Exact encoded length of a container holding payloads of the given sizes.
fn container_len(payload_lens: &[usize]) -> usize {
    8 + payload_lens.iter().map(|l| 12 + l).sum::<usize>()
}

/// Encode sections into a `DBC1` container.
///
/// # Panics
/// Panics if there are more than `u16::MAX` sections (a caller bug; real
/// containers hold a handful).
pub fn encode_container(sections: &[Section<'_>]) -> Vec<u8> {
    let cap = container_len(&sections.iter().map(|s| s.bytes.len()).collect::<Vec<_>>());
    let mut out = Vec::with_capacity(cap);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    let count = u16::try_from(sections.len()).expect("too many sections");
    out.extend_from_slice(&count.to_le_bytes());
    for s in sections {
        out.extend_from_slice(&s.tag);
        out.extend_from_slice(&(s.bytes.len() as u64).to_le_bytes());
        out.extend_from_slice(&s.bytes);
    }
    debug_assert_eq!(out.len(), cap);
    out
}

/// Decode a `DBC1` container, validating magic, version, section framing and
/// the absence of trailing bytes.
pub fn decode_container(bytes: &[u8]) -> Result<Vec<Section<'_>>, PersistError> {
    let mut r = Reader::new(bytes);
    let magic = r.take_array::<4>("magic")?;
    if magic != MAGIC {
        return Err(PersistError::BadMagic { found: magic });
    }
    let version = r.take_u16("version")?;
    if version != VERSION {
        return Err(PersistError::UnsupportedVersion { found: version, supported: VERSION });
    }
    let count = r.take_u16("section count")? as usize;
    let mut sections = Vec::with_capacity(count);
    for i in 0..count {
        let tag = r.take_array::<4>("section tag")?;
        let len = r.take_u64("section length")?;
        let len = usize::try_from(len)
            .map_err(|_| PersistError::Corrupt(format!("section {i} length overflows usize")))?;
        let payload = r.take_bytes(len, "section payload")?;
        sections.push(Section::borrowed(tag, payload));
    }
    r.expect_end()?;
    Ok(sections)
}

/// Find the unique section with `tag`; duplicates and absence are corruption.
pub fn require_section<'a, 'b>(
    sections: &'b [Section<'a>],
    tag: [u8; 4],
) -> Result<&'b Section<'a>, PersistError> {
    find_section(sections, tag)?.ok_or_else(|| {
        PersistError::Corrupt(format!("missing {:?} section", String::from_utf8_lossy(&tag)))
    })
}

/// Find an *optional* section with `tag`: `Ok(None)` when absent, but
/// duplicates are still corruption.
pub fn find_section<'a, 'b>(
    sections: &'b [Section<'a>],
    tag: [u8; 4],
) -> Result<Option<&'b Section<'a>>, PersistError> {
    let mut found = None;
    for s in sections {
        if s.tag == tag {
            if found.is_some() {
                return Err(PersistError::Corrupt(format!(
                    "duplicate {:?} section",
                    String::from_utf8_lossy(&tag)
                )));
            }
            found = Some(s);
        }
    }
    Ok(found)
}

// ---------------------------------------------------------------------------
// ParamStore section
// ---------------------------------------------------------------------------

/// Exact byte length of the `PARM` section payload for `store`.
fn store_section_len(store: &ParamStore) -> usize {
    4 + store.iter_values().map(|(name, value)| 4 + name.len() + 8 + 4 * value.len()).sum::<usize>()
}

/// Encode a store into a `PARM` section payload (weights as raw `f32` bits).
pub fn encode_store_section(store: &ParamStore) -> Vec<u8> {
    let mut out = Vec::with_capacity(store_section_len(store));
    out.extend_from_slice(&(store.len() as u32).to_le_bytes());
    for (name, value) in store.iter_values() {
        out.extend_from_slice(&(name.len() as u32).to_le_bytes());
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(&(value.rows() as u32).to_le_bytes());
        out.extend_from_slice(&(value.cols() as u32).to_le_bytes());
        for &v in value.as_slice() {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    debug_assert_eq!(out.len(), store_section_len(store));
    out
}

/// Decode a `PARM` section payload, validating names and shapes.
pub fn decode_store_section(bytes: &[u8]) -> Result<ParamStore, PersistError> {
    let mut r = Reader::new(bytes);
    let count = r.take_u32("param count")? as usize;
    let mut store = ParamStore::new();
    for i in 0..count {
        let name_len = r.take_u32("param name length")? as usize;
        let name_bytes = r.take_bytes(name_len, "param name")?;
        let name = std::str::from_utf8(name_bytes)
            .map_err(|_| PersistError::Corrupt(format!("param {i} name is not UTF-8")))?
            .to_string();
        let rows = r.take_u32("tensor rows")? as usize;
        let cols = r.take_u32("tensor cols")? as usize;
        let n = rows.checked_mul(cols).ok_or_else(|| {
            PersistError::Corrupt(format!("param {name:?} shape {rows}x{cols} overflows"))
        })?;
        // bytes are proven present before any shape-sized allocation, so a
        // crafted huge shape fails as truncation, not as an aborting
        // capacity-overflow panic
        let data = r.take_f32s(n, "tensor data")?;
        if store.id_of(&name).is_some() {
            return Err(PersistError::Corrupt(format!("duplicate param name {name:?}")));
        }
        store.add(name, Tensor::from_vec(rows, cols, data));
    }
    r.expect_end()?;
    Ok(store)
}

/// Exact on-disk size of a store saved alone in a `DBC1` container.
pub fn encoded_store_len(store: &ParamStore) -> usize {
    container_len(&[store_section_len(store)])
}

/// Encode a store as a standalone single-section `DBC1` container.
pub fn encode_store(store: &ParamStore) -> Vec<u8> {
    encode_container(&[Section::new(SEC_PARAMS, encode_store_section(store))])
}

/// Decode a standalone store container.
pub fn decode_store(bytes: &[u8]) -> Result<ParamStore, PersistError> {
    let sections = decode_container(bytes)?;
    let parm = require_section(&sections, SEC_PARAMS)?;
    decode_store_section(&parm.bytes)
}

// ---------------------------------------------------------------------------
// bounded reader
// ---------------------------------------------------------------------------

/// A bounds-checked cursor over a byte slice; every read names what it was
/// reading so truncation errors say which field the file ran out in.
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn truncated(&self, what: &str, need: usize) -> PersistError {
        PersistError::Corrupt(format!(
            "truncated file: {what} needs {need} bytes at offset {} but only {} remain",
            self.pos,
            self.bytes.len() - self.pos
        ))
    }

    pub fn take_bytes(&mut self, n: usize, what: &str) -> Result<&'a [u8], PersistError> {
        if self.bytes.len() - self.pos < n {
            return Err(self.truncated(what, n));
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    pub fn take_array<const N: usize>(&mut self, what: &str) -> Result<[u8; N], PersistError> {
        let b = self.take_bytes(N, what)?;
        let mut out = [0u8; N];
        out.copy_from_slice(b);
        Ok(out)
    }

    fn take_u16(&mut self, what: &str) -> Result<u16, PersistError> {
        Ok(u16::from_le_bytes(self.take_array::<2>(what)?))
    }

    pub fn take_u32(&mut self, what: &str) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.take_array::<4>(what)?))
    }

    pub fn take_u64(&mut self, what: &str) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.take_array::<8>(what)?))
    }

    /// A `u32` element count, refused unless `min_bytes_each` bytes per
    /// element still remain: prove the bytes exist before any count-sized
    /// allocation, so a crafted count fails as truncation rather than as an
    /// aborting multi-gigabyte `Vec::with_capacity`.
    pub fn take_count(&mut self, what: &str, min_bytes_each: usize) -> Result<usize, PersistError> {
        let count = self.take_u32(what)? as usize;
        let remaining = self.bytes.len() - self.pos;
        match count.checked_mul(min_bytes_each) {
            Some(need) if need <= remaining => Ok(count),
            _ => Err(PersistError::Corrupt(format!(
                "truncated file: {what} of {count} needs at least {min_bytes_each} bytes each \
                 at offset {} but only {remaining} remain",
                self.pos
            ))),
        }
    }

    /// `n` little-endian `f32`s.
    pub fn take_f32s(&mut self, n: usize, what: &str) -> Result<Vec<f32>, PersistError> {
        let byte_len = n
            .checked_mul(4)
            .ok_or_else(|| PersistError::Corrupt(format!("{what} of {n} floats overflows")))?;
        let raw = self.take_bytes(byte_len, what)?;
        Ok(raw.chunks_exact(4).map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect())
    }

    /// Fail unless every byte has been consumed (catches foreign data glued
    /// onto a valid file, and framing bugs).
    pub fn expect_end(&self) -> Result<(), PersistError> {
        if self.pos != self.bytes.len() {
            return Err(PersistError::Corrupt(format!(
                "{} trailing bytes after offset {}",
                self.bytes.len() - self.pos,
                self.pos
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{seeded_rng, xavier_uniform};

    fn sample_store() -> ParamStore {
        let mut rng = seeded_rng(3);
        let mut store = ParamStore::new();
        store.add("w", xavier_uniform(4, 3, &mut rng));
        store.add("emb.weight", xavier_uniform(7, 2, &mut rng));
        store
    }

    #[test]
    fn store_roundtrip_is_bit_exact() {
        let store = sample_store();
        let bytes = encode_store(&store);
        assert_eq!(bytes.len(), encoded_store_len(&store));
        let loaded = decode_store(&bytes).unwrap();
        assert_eq!(loaded.len(), store.len());
        for ((an, av), (bn, bv)) in store.iter_values().zip(loaded.iter_values()) {
            assert_eq!(an, bn);
            assert_eq!(av.shape(), bv.shape());
            for (x, y) in av.as_slice().iter().zip(bv.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn non_finite_bits_survive() {
        let mut store = ParamStore::new();
        store.add(
            "weird",
            Tensor::from_row(vec![
                f32::NAN,
                f32::INFINITY,
                f32::NEG_INFINITY,
                -0.0,
                f32::from_bits(0x7fc0_dead), // NaN with payload
                f32::MIN_POSITIVE / 2.0,     // subnormal
            ]),
        );
        let loaded = decode_store(&encode_store(&store)).unwrap();
        let id = loaded.id_of("weird").unwrap();
        let (orig, back) = (store.value(store.id_of("weird").unwrap()), loaded.value(id));
        for (x, y) in orig.as_slice().iter().zip(back.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut bytes = encode_store(&sample_store());
        bytes[0] = b'X';
        match decode_store(&bytes) {
            Err(PersistError::BadMagic { found }) => assert_eq!(&found, b"XBC1"),
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }

    #[test]
    fn future_version_is_typed() {
        let mut bytes = encode_store(&sample_store());
        bytes[4..6].copy_from_slice(&2u16.to_le_bytes());
        match decode_store(&bytes) {
            Err(PersistError::UnsupportedVersion { found: 2, supported: 1 }) => {}
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn every_truncation_errors_without_panic() {
        let bytes = encode_store(&sample_store());
        for cut in 0..bytes.len() {
            assert!(decode_store(&bytes[..cut]).is_err(), "prefix of {cut} bytes must fail");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode_store(&sample_store());
        bytes.push(0);
        match decode_store(&bytes) {
            Err(PersistError::Corrupt(msg)) => assert!(msg.contains("trailing"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn oversized_section_length_rejected() {
        let mut bytes = encode_store(&sample_store());
        // section length field sits right after magic+version+count+tag
        bytes[12..20].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(decode_store(&bytes), Err(PersistError::Corrupt(_))));
    }

    #[test]
    fn crafted_huge_shape_is_corrupt_not_capacity_panic() {
        // rows * cols fits in usize but * 4 overflows: must be Corrupt
        let mut payload = 1u32.to_le_bytes().to_vec(); // one param
        payload.extend_from_slice(&1u32.to_le_bytes()); // name len
        payload.push(b'w');
        payload.extend_from_slice(&0x8000_0000u32.to_le_bytes()); // rows
        payload.extend_from_slice(&0x8000_0000u32.to_le_bytes()); // cols
        let bytes = encode_container(&[Section::new(SEC_PARAMS, payload.clone())]);
        match decode_store(&bytes) {
            Err(PersistError::Corrupt(msg)) => assert!(msg.contains("overflows"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }

        // a huge-but-representable shape must fail as truncation before any
        // shape-sized allocation is attempted
        let mut payload = 1u32.to_le_bytes().to_vec();
        payload.extend_from_slice(&1u32.to_le_bytes());
        payload.push(b'w');
        payload.extend_from_slice(&0x00ff_ffffu32.to_le_bytes());
        payload.extend_from_slice(&0x00ff_ffffu32.to_le_bytes());
        let bytes = encode_container(&[Section::new(SEC_PARAMS, payload)]);
        match decode_store(&bytes) {
            Err(PersistError::Corrupt(msg)) => assert!(msg.contains("truncated"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_param_names_rejected() {
        let store = {
            let mut s = ParamStore::new();
            s.add("dup", Tensor::zeros(1, 1));
            s
        };
        let mut section = encode_store_section(&store);
        // splice the single-param payload in twice with count=2
        let param_bytes = section.split_off(4);
        let mut payload = 2u32.to_le_bytes().to_vec();
        payload.extend_from_slice(&param_bytes);
        payload.extend_from_slice(&param_bytes);
        let bytes = encode_container(&[Section::new(SEC_PARAMS, payload)]);
        match decode_store(&bytes) {
            Err(PersistError::Corrupt(msg)) => assert!(msg.contains("duplicate"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_section_rejected_by_both_finders() {
        let payload = encode_store_section(&sample_store());
        let bytes = encode_container(&[
            Section::new(SEC_PARAMS, payload.clone()),
            Section::new(SEC_PARAMS, payload),
        ]);
        let sections = decode_container(&bytes).unwrap();
        for verdict in [find_section(&sections, SEC_PARAMS).err(), decode_store(&bytes).err()] {
            match verdict {
                Some(PersistError::Corrupt(msg)) => assert!(msg.contains("duplicate"), "{msg}"),
                other => panic!("expected Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn missing_section_rejected() {
        let bytes = encode_container(&[Section::new(*b"XXXX", vec![1, 2, 3])]);
        match decode_store(&bytes) {
            Err(PersistError::Corrupt(msg)) => assert!(msg.contains("missing"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }
}
