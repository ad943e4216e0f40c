//! The error type of every persistence path.
//!
//! The one on-disk format is the [`crate::codec`] `DBC1` binary container:
//! compact (4 bytes per weight), versioned, and bit-exact — every `f32` bit
//! pattern, including NaN payloads and infinities, survives a save→load
//! round trip. Anything else fails with a typed [`PersistError`].

/// Errors from saving/loading parameter stores and router bundles.
#[derive(Debug)]
pub enum PersistError {
    Io(std::io::Error),
    /// A JSON-payload section (config, vocabulary, graph) failed to
    /// encode or decode.
    Codec(serde_json::Error),
    /// The file does not start with the `DBC1` magic.
    BadMagic {
        found: [u8; 4],
    },
    /// The file is a `DBC1` container from an unknown format version.
    UnsupportedVersion {
        found: u16,
        supported: u16,
    },
    /// Structurally invalid content: truncation, bad framing, shape or
    /// name mismatches against the expected model layout.
    Corrupt(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "io error: {e}"),
            PersistError::Codec(e) => write!(f, "codec error: {e}"),
            PersistError::BadMagic { found } => {
                write!(f, "bad magic {found:?}: not a DBC1 file")
            }
            PersistError::UnsupportedVersion { found, supported } => {
                write!(f, "unsupported DBC1 version {found} (this build reads {supported})")
            }
            PersistError::Corrupt(msg) => write!(f, "corrupt file: {msg}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<serde_json::Error> for PersistError {
    fn from(e: serde_json::Error) -> Self {
        PersistError::Codec(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec;
    use crate::init::seeded_rng;
    use crate::init::xavier_uniform;
    use crate::optim::ParamStore;

    fn sample_store() -> (ParamStore, crate::ParamId, crate::ParamId) {
        let mut rng = seeded_rng(9);
        let mut store = ParamStore::new();
        let a = store.add("alpha", xavier_uniform(3, 2, &mut rng));
        let b = store.add("beta", xavier_uniform(1, 5, &mut rng));
        (store, a, b)
    }

    #[test]
    fn binary_roundtrip_preserves_values_and_names() {
        let (store, a, b) = sample_store();
        let buf = codec::encode_store(&store);
        assert!(buf.starts_with(&codec::MAGIC));
        let loaded = codec::decode_store(&buf).unwrap();
        assert_eq!(loaded.len(), 2);
        let la = loaded.id_of("alpha").unwrap();
        let lb = loaded.id_of("beta").unwrap();
        assert!(loaded.value(la).approx_eq(store.value(a), 0.0));
        assert!(loaded.value(lb).approx_eq(store.value(b), 0.0));
    }

    #[test]
    fn serialized_size_matches_actual_output() {
        let (store, _, _) = sample_store();
        assert_eq!(codec::encoded_store_len(&store), codec::encode_store(&store).len());
    }

    #[test]
    fn garbage_input_is_typed() {
        assert!(matches!(
            codec::decode_store(b"GARBAGE DATA").unwrap_err(),
            PersistError::BadMagic { .. }
        ));
        assert!(matches!(codec::decode_store(b"DB").unwrap_err(), PersistError::Corrupt(_)));
        // JSON is not a bundle format: a `{`-leading buffer is just a wrong magic
        match codec::decode_store(br#"{"params": []}"#).unwrap_err() {
            PersistError::BadMagic { found } => assert_eq!(&found, b"{\"pa"),
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }
}
