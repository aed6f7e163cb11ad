//! The service crate's workspace-facing error type.

use std::fmt;

use resmatch_core::snapshot::SnapshotError;

/// Everything that can go wrong operating an estimator service: snapshot
/// semantics (delegated to [`SnapshotError`]), wire-format decoding, file
/// I/O, and service configuration.
///
/// `#[non_exhaustive]`: future service features (e.g. replication) may add
/// variants without a breaking release — match with a wildcard arm.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// A snapshot operation failed at the estimator-state level.
    Snapshot(SnapshotError),
    /// Snapshot bytes did not decode as the format promises.
    Codec {
        /// Byte offset at which decoding failed.
        offset: usize,
        /// What the decoder was trying to read.
        detail: String,
    },
    /// The file does not start with the `RSNP` snapshot magic.
    BadMagic,
    /// The snapshot file's format version is newer than this build reads.
    UnsupportedVersion {
        /// Version number found in the file header.
        found: u32,
    },
    /// Reading or writing the snapshot file failed at the OS level.
    Io {
        /// Path of the file involved.
        path: String,
        /// Stringified `std::io::Error`.
        detail: String,
    },
    /// The service configuration is unusable (zero shards, zero batch,
    /// estimator α/β out of range).
    Config {
        /// What about the configuration is invalid.
        detail: &'static str,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Snapshot(err) => write!(f, "snapshot: {err}"),
            ServiceError::Codec { offset, detail } => {
                write!(f, "malformed snapshot at byte {offset}: {detail}")
            }
            ServiceError::BadMagic => {
                write!(f, "not a resmatch snapshot file (missing RSNP magic)")
            }
            ServiceError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "snapshot format version {found} is not supported by this build"
                )
            }
            ServiceError::Io { path, detail } => write!(f, "{path}: {detail}"),
            ServiceError::Config { detail } => write!(f, "invalid service config: {detail}"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Snapshot(err) => Some(err),
            _ => None,
        }
    }
}

impl From<SnapshotError> for ServiceError {
    fn from(err: SnapshotError) -> Self {
        ServiceError::Snapshot(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let err = ServiceError::from(SnapshotError::Empty);
        assert!(err.to_string().contains("snapshot"));
        assert!(std::error::Error::source(&err).is_some());
        assert!(ServiceError::BadMagic.to_string().contains("RSNP"));
        assert!(ServiceError::UnsupportedVersion { found: 9 }
            .to_string()
            .contains('9'));
        let codec = ServiceError::Codec {
            offset: 12,
            detail: "u64".into(),
        };
        assert!(codec.to_string().contains("byte 12"));
        assert!(std::error::Error::source(&codec).is_none());
    }
}
