//! Golden snapshot fixture: pins the on-disk wire format.
//!
//! `tests/fixtures/golden-successive-v1.rsnp` was produced by the
//! (ignored) `regenerate_golden_fixture` test from a fixed, deterministic
//! training run. The regular tests assert the current build still
//! *decodes* that file to the expected state and still *encodes* the same
//! state to the identical bytes — any codec or layout drift fails here
//! before it can corrupt a deployment's snapshots.
//!
//! A layout change the fixture cannot see (a new variant, an added field,
//! a retyped one) fails `snapshot_schema_is_released`: it fingerprints the
//! type layout the derived `Deserialize` impls decode and requires that
//! fingerprint to be the last entry of [`RELEASED`], under the current
//! `FORMAT_VERSION`.
//!
//! If the format changes on purpose, bump `FORMAT_VERSION`, append its
//! pair to [`RELEASED`], keep decoding the old version, and regenerate
//! the fixture with:
//! `cargo test -p resmatch-service --test golden_snapshot -- --ignored`

use std::path::PathBuf;

use resmatch_cluster::{CapacityLadder, Demand};
use resmatch_core::prelude::*;
use resmatch_service::file::FORMAT_VERSION;
use resmatch_service::prelude::*;
use resmatch_workload::job::JobBuilder;
use resmatch_workload::Job;
use serde::Deserialize;

const MB: u64 = 1024;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden-successive-v1.rsnp")
}

/// The fixed training run behind the fixture. Fully deterministic: no RNG,
/// no clocks, sorted state export.
fn golden_document() -> SnapshotDocument {
    let ladder = CapacityLadder::new(vec![32 * MB, 24 * MB, 16 * MB, 8 * MB]);
    let cfg = ServiceConfig::new(EstimatorSpec::paper_successive(), ladder.clone())
        .shards(8)
        .feedback_batch(32);
    let mut svc = EstimatorService::new(&cfg).expect("valid config");
    for round in 0..6u64 {
        for user in 0..40u32 {
            let job: Job = JobBuilder::new(round * 100 + u64::from(user))
                .user(user)
                .app(user % 5)
                .requested_mem_kb(32 * MB)
                .used_mem_kb(u64::from(user % 7 + 1) * MB)
                .build();
            let d = svc.estimate(&job);
            let node = ladder.round_up(d.mem_kb).unwrap_or(d.mem_kb);
            let fb = Feedback::explicit(job.used_mem_kb <= node, Demand::memory(job.used_mem_kb));
            svc.observe(&job, d, fb);
        }
    }
    svc.snapshot().expect("successive supports snapshots")
}

#[test]
fn golden_fixture_decodes_to_the_expected_state() {
    let doc = SnapshotDocument::read_from(&fixture_path()).expect("fixture is checked in");
    assert_eq!(doc.estimator, "successive-approximation");
    assert_eq!(doc.shards_at_save, 8);
    assert_eq!(doc.state.kind(), "successive-v1");
    assert_eq!(doc.state.group_count(), 40);
    assert_eq!(doc, golden_document());
}

#[test]
fn current_encoder_reproduces_the_fixture_bytes_exactly() {
    let on_disk = std::fs::read(fixture_path()).expect("fixture is checked in");
    assert_eq!(
        golden_document().encode(),
        on_disk,
        "wire format drifted: if intentional, bump FORMAT_VERSION and \
         regenerate the fixture (see module docs)"
    );
}

#[test]
fn restored_fixture_serves_walked_down_estimates() {
    let doc = SnapshotDocument::read_from(&fixture_path()).expect("fixture is checked in");
    let ladder = CapacityLadder::new(vec![32 * MB, 24 * MB, 16 * MB, 8 * MB]);
    let cfg = ServiceConfig::new(EstimatorSpec::paper_successive(), ladder);
    let mut svc = EstimatorService::new(&cfg).expect("valid config");
    svc.restore(doc.state).expect("same family");
    // User 3 trained down from a 32 MB request; the restored service must
    // estimate below the request immediately, with no warmup.
    let job = JobBuilder::new(1)
        .user(3)
        .app(3)
        .requested_mem_kb(32 * MB)
        .used_mem_kb(4 * MB)
        .build();
    let d = svc.estimate(&job);
    assert!(
        d.mem_kb < 32 * MB,
        "restored state did not carry learned estimates (got {} KB)",
        d.mem_kb
    );
}

/// Every released wire layout, oldest first: `(FORMAT_VERSION, schema
/// fingerprint)`. Versions strictly increase; the last pair is the
/// current build's.
const RELEASED: &[(u32, u64)] = &[(1, 0xd99c_782c_78aa_0643)];

/// A `Deserializer` that reads no input. It answers `Some` to every
/// option, one element to every sequence and the planned variant to every
/// enum, and logs each request the derived impls make: struct, field,
/// variant list and primitive kind. The log is the layout the codec
/// decodes; an integer width the wire does not carry (`u32` vs `u64`)
/// does not show in it.
#[derive(Default)]
struct SchemaWalker {
    log: Vec<String>,
    /// `(picked, variant count)` for each enum met on the current walk.
    plan: Vec<(usize, usize)>,
    enums_met: usize,
}

impl<'de> serde::Deserializer<'de> for SchemaWalker {
    type Error = &'static str;

    fn deserialize_bool(&mut self) -> Result<bool, Self::Error> {
        self.log.push("bool".into());
        Ok(false)
    }
    fn deserialize_u64(&mut self) -> Result<u64, Self::Error> {
        self.log.push("u64".into());
        Ok(0)
    }
    fn deserialize_i64(&mut self) -> Result<i64, Self::Error> {
        self.log.push("i64".into());
        Ok(0)
    }
    fn deserialize_f64(&mut self) -> Result<f64, Self::Error> {
        self.log.push("f64".into());
        Ok(0.0)
    }
    fn deserialize_string(&mut self) -> Result<String, Self::Error> {
        self.log.push("string".into());
        Ok(String::new())
    }
    fn deserialize_option(&mut self) -> Result<bool, Self::Error> {
        self.log.push("option".into());
        Ok(true)
    }
    fn begin_seq(&mut self) -> Result<usize, Self::Error> {
        self.log.push("seq".into());
        Ok(1)
    }
    fn end_seq(&mut self) -> Result<(), Self::Error> {
        self.log.push("end seq".into());
        Ok(())
    }
    fn begin_struct(&mut self, name: &'static str, fields: usize) -> Result<(), Self::Error> {
        self.log.push(format!("struct {name} ({fields} fields)"));
        Ok(())
    }
    fn deserialize_field(&mut self, name: &'static str) -> Result<(), Self::Error> {
        self.log.push(format!("field {name}"));
        Ok(())
    }
    fn end_struct(&mut self) -> Result<(), Self::Error> {
        self.log.push("end struct".into());
        Ok(())
    }
    fn begin_variant(
        &mut self,
        name: &'static str,
        variants: &'static [&'static str],
    ) -> Result<u32, Self::Error> {
        if self.enums_met == self.plan.len() {
            self.plan.push((0, variants.len()));
        }
        let (pick, _) = self.plan[self.enums_met];
        self.enums_met += 1;
        self.log
            .push(format!("enum {name} {variants:?}: {}", variants[pick]));
        Ok(u32::try_from(pick).expect("few variants"))
    }
    fn end_variant(&mut self) -> Result<(), Self::Error> {
        self.log.push("end enum".into());
        Ok(())
    }
    fn invalid_data(&mut self, what: &'static str) -> Self::Error {
        what
    }
}

/// The layout of `SnapshotDocument`: one walk per combination of enum
/// variants, concatenated.
fn snapshot_schema() -> Vec<String> {
    let mut walker = SchemaWalker::default();
    let mut schema = Vec::new();
    loop {
        walker.enums_met = 0;
        SnapshotDocument::deserialize(&mut walker).expect("the walker feeds valid values");
        schema.append(&mut walker.log);
        // Advance the innermost enum that has a variant left, and forget
        // the enums after it: the next walk meets them afresh.
        while let Some((pick, count)) = walker.plan.pop() {
            if pick + 1 < count {
                walker.plan.push((pick + 1, count));
                break;
            }
        }
        if walker.plan.is_empty() {
            return schema;
        }
    }
}

/// FNV-1a over the schema lines.
fn fingerprint(schema: &[String]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in schema.join("\n").bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

#[test]
fn snapshot_schema_is_released() {
    let schema = snapshot_schema();
    assert!(
        schema.iter().any(|l| l.contains("SuccessiveV1"))
            && schema.iter().any(|l| l.contains("LastInstanceV1")),
        "the walk must take every SnapshotState variant:\n{}",
        schema.join("\n")
    );
    assert!(
        RELEASED.windows(2).all(|w| w[0].0 < w[1].0),
        "RELEASED versions must strictly increase: {RELEASED:?}"
    );
    let current = (FORMAT_VERSION, fingerprint(&schema));
    assert_eq!(
        RELEASED.last(),
        Some(&current),
        "the snapshot layout changed: bump FORMAT_VERSION and append \
         ({}, {:#018x}) to RELEASED (and regenerate the fixture). Layout:\n{}",
        FORMAT_VERSION + 1,
        current.1,
        schema.join("\n")
    );
}

/// Regenerates the fixture. Run explicitly after an intentional format
/// change: `cargo test -p resmatch-service --test golden_snapshot -- --ignored`
#[test]
#[ignore = "writes the checked-in fixture; run only on intentional format changes"]
fn regenerate_golden_fixture() {
    let path = fixture_path();
    std::fs::create_dir_all(path.parent().expect("fixture path has a parent"))
        .expect("create fixtures dir");
    golden_document().write_to(&path).expect("write fixture");
}
