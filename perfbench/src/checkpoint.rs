//! Service checkpoints through the RSNP snapshot codec: snapshot → encode
//! → decode → restore into a fresh service, then a byte-for-byte
//! re-snapshot check outside the timed steps.

use resmatch_service::prelude::*;

use crate::layers::timed;

/// Nanoseconds per checkpoint step, and the encoded size.
#[derive(Debug, Default, Clone, Copy)]
pub struct Steps {
    /// Exporting the state.
    pub snapshot_ns: u64,
    /// Encoding it to bytes.
    pub encode_ns: u64,
    /// Decoding the bytes.
    pub decode_ns: u64,
    /// Building a fresh instance and restoring the state into it.
    pub restore_ns: u64,
    /// Encoded size.
    pub bytes: u64,
}

impl Steps {
    /// The whole checkpoint, in seconds.
    pub fn total_s(&self) -> f64 {
        (self.snapshot_ns + self.encode_ns + self.decode_ns + self.restore_ns) as f64 * 1e-9
    }
}

/// Checkpoint a service into a fresh one built from `cfg`. Returns the
/// restored service (when restore succeeded), the steps, and whether it
/// re-snapshots to identical bytes.
pub fn service(
    svc: &mut EstimatorService,
    cfg: &ServiceConfig,
) -> (Option<EstimatorService>, Steps, bool) {
    let (doc, snapshot_ns) = timed(|| svc.snapshot());
    let Ok(doc) = doc else {
        return (None, Steps::default(), false);
    };
    let (bytes, encode_ns) = timed(|| doc.encode());
    let (decoded, decode_ns) = timed(|| SnapshotDocument::decode(&bytes));
    let Ok(decoded) = decoded else {
        return (None, Steps::default(), false);
    };
    let (fresh, restore_ns) = timed(|| {
        let mut fresh = EstimatorService::new(cfg)?;
        fresh.restore(decoded.state).map(|()| fresh)
    });
    let Ok(mut fresh) = fresh else {
        return (None, Steps::default(), false);
    };
    let same = fresh.snapshot().is_ok_and(|d| d.encode() == bytes);
    let steps = Steps {
        snapshot_ns,
        encode_ns,
        decode_ns,
        restore_ns,
        bytes: bytes.len() as u64,
    };
    (Some(fresh), steps, same)
}
