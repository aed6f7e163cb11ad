//! Standard Workload Format (SWF) v2 reader and writer.
//!
//! SWF is the Parallel Workloads Archive's trace format: one line per job
//! with 18 whitespace-separated integer fields, `-1` meaning "not recorded",
//! and `;`-prefixed header/comment lines. The LANL CM5 file the paper
//! analyses is distributed in this format, so parsing it here lets the real
//! trace replace the synthetic one without touching any experiment code.

use std::fmt;
use std::str::FromStr;

use crate::job::{Job, JobId, JobStatus, Workload};
use crate::time::Time;

/// Metadata gathered from `;`-prefixed header directives.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SwfHeader {
    /// `; MaxNodes:` directive, if present.
    pub max_nodes: Option<u32>,
    /// `; MaxJobs:` directive, if present.
    pub max_jobs: Option<u64>,
    /// `; Computer:` directive, if present.
    pub computer: Option<String>,
    /// All raw header lines, in order, without the leading `;`.
    pub raw: Vec<String>,
}

/// A parse failure, tagged with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwfError {
    /// 1-based line number in the input.
    pub line: usize,
    /// What went wrong.
    pub kind: SwfErrorKind,
}

/// The ways an SWF line can be malformed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SwfErrorKind {
    /// Fewer than 18 fields.
    TooFewFields(usize),
    /// A field failed integer parsing.
    BadField {
        /// 1-based SWF field index.
        field: usize,
        /// Offending token.
        token: String,
    },
    /// A field parsed but does not fit the job model: a time beyond the
    /// millisecond clock's range, or a count beyond `u32`.
    OutOfRange {
        /// 1-based SWF field index.
        field: usize,
        /// Offending value.
        value: i64,
    },
}

impl fmt::Display for SwfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            SwfErrorKind::TooFewFields(n) => {
                write!(f, "line {}: expected 18 fields, found {}", self.line, n)
            }
            SwfErrorKind::BadField { field, token } => write!(
                f,
                "line {}: field {} is not an integer: {:?}",
                self.line, field, token
            ),
            SwfErrorKind::OutOfRange { field, value } => write!(
                f,
                "line {}: field {} is out of range: {}",
                self.line, field, value
            ),
        }
    }
}

impl std::error::Error for SwfError {}

/// Result of parsing an SWF document: header plus workload.
#[derive(Debug, Clone, PartialEq)]
pub struct SwfTrace {
    /// Header metadata.
    pub header: SwfHeader,
    /// The jobs, ordered by submit time.
    pub workload: Workload,
}

fn parse_header_line(line: &str, header: &mut SwfHeader) {
    let body = line.trim_start_matches(';').trim();
    header.raw.push(body.to_string());
    if let Some(rest) = body.strip_prefix("MaxNodes:") {
        header.max_nodes = rest.trim().parse().ok();
    } else if let Some(rest) = body.strip_prefix("MaxJobs:") {
        header.max_jobs = rest.trim().parse().ok();
    } else if let Some(rest) = body.strip_prefix("Computer:") {
        header.computer = Some(rest.trim().to_string());
    }
}

fn field<T: FromStr>(tokens: &[&str], idx0: usize, line: usize) -> Result<T, SwfError> {
    tokens[idx0].parse().map_err(|_| SwfError {
        line,
        kind: SwfErrorKind::BadField {
            field: idx0 + 1,
            token: tokens[idx0].to_string(),
        },
    })
}

fn out_of_range(line: usize, idx0: usize, value: i64) -> SwfError {
    SwfError {
        line,
        kind: SwfErrorKind::OutOfRange {
            field: idx0 + 1,
            value,
        },
    }
}

/// A whole-second field as a [`Time`], negatives floored at zero.
fn secs_field(value: i64, idx0: usize, line: usize) -> Result<Time, SwfError> {
    (value.max(0) as u64)
        .checked_mul(1000)
        .map(Time::from_millis)
        .ok_or_else(|| out_of_range(line, idx0, value))
}

/// A count field as a `u32`, values below `floor` raised to it.
fn u32_field(value: i64, floor: i64, idx0: usize, line: usize) -> Result<u32, SwfError> {
    u32::try_from(value.max(floor)).map_err(|_| out_of_range(line, idx0, value))
}

/// Parse one SWF job line (already known not to be a comment).
fn parse_job_line(line_no: usize, line: &str) -> Result<Job, SwfError> {
    let tokens: Vec<&str> = line.split_whitespace().collect();
    if tokens.len() < 18 {
        return Err(SwfError {
            line: line_no,
            kind: SwfErrorKind::TooFewFields(tokens.len()),
        });
    }
    let job_number: i64 = field(&tokens, 0, line_no)?;
    let submit: i64 = field(&tokens, 1, line_no)?;
    let _wait: i64 = field(&tokens, 2, line_no)?;
    let run_time: i64 = field(&tokens, 3, line_no)?;
    let allocated: i64 = field(&tokens, 4, line_no)?;
    let _avg_cpu: f64 = field(&tokens, 5, line_no)?;
    let used_mem: i64 = field(&tokens, 6, line_no)?;
    let requested_procs: i64 = field(&tokens, 7, line_no)?;
    let requested_time: i64 = field(&tokens, 8, line_no)?;
    let requested_mem: i64 = field(&tokens, 9, line_no)?;
    let status: i64 = field(&tokens, 10, line_no)?;
    let user: i64 = field(&tokens, 11, line_no)?;
    let _group: i64 = field(&tokens, 12, line_no)?;
    let app: i64 = field(&tokens, 13, line_no)?;
    // Fields 15-18 (queue, partition, preceding job, think time) are parsed
    // for validation but not retained in the job model.
    for idx0 in 14..18 {
        let _: i64 = field(&tokens, idx0, line_no)?;
    }

    let runtime = secs_field(run_time, 3, line_no)?;
    let requested_runtime = if requested_time > 0 {
        secs_field(requested_time, 8, line_no)?
    } else {
        runtime
    };
    let nodes = if requested_procs > 0 {
        u32_field(requested_procs, 1, 7, line_no)?
    } else {
        u32_field(allocated, 1, 4, line_no)?
    };
    let used_mem_kb = used_mem.max(0) as u64;
    let requested_mem_kb = if requested_mem > 0 {
        requested_mem as u64
    } else {
        used_mem_kb
    };
    Ok(Job {
        id: JobId(job_number.max(0) as u64),
        user: u32_field(user, 0, 11, line_no)?,
        app: u32_field(app, 0, 13, line_no)?,
        submit: secs_field(submit, 1, line_no)?,
        runtime,
        requested_runtime,
        nodes,
        requested_mem_kb,
        used_mem_kb,
        requested_disk_kb: 0,
        used_disk_kb: 0,
        requested_packages: 0,
        used_packages: 0,
        status: match status {
            1 => JobStatus::Completed,
            0 => JobStatus::Failed,
            5 => JobStatus::Cancelled,
            _ => JobStatus::Completed,
        },
    })
}

/// Parse an SWF document from a string.
pub fn parse_str(input: &str) -> Result<SwfTrace, SwfError> {
    let mut header = SwfHeader::default();
    let mut jobs = Vec::new();
    for (i, raw_line) in input.lines().enumerate() {
        let line_no = i + 1;
        let line = raw_line.trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with(';') {
            parse_header_line(line, &mut header);
            continue;
        }
        jobs.push(parse_job_line(line_no, line)?);
    }
    Ok(SwfTrace {
        header,
        workload: Workload::new(jobs),
    })
}

/// Parse an SWF file from disk.
pub fn parse_file(path: &std::path::Path) -> std::io::Result<Result<SwfTrace, SwfError>> {
    let content = std::fs::read_to_string(path)?;
    Ok(parse_str(&content))
}

/// Quantize a workload to what SWF can represent: whole-second submit
/// times, runtimes, and runtime estimates (the simulator's millisecond
/// resolution exceeds the format's). `write_str` followed by `parse_str`
/// reproduces exactly the quantized workload.
pub fn quantize(workload: &Workload) -> Workload {
    Workload::new(
        workload
            .jobs()
            .iter()
            .map(|j| {
                let mut job = j.clone();
                job.submit = Time::from_secs(j.submit.as_secs());
                job.runtime = Time::from_secs(j.runtime.as_secs());
                job.requested_runtime = Time::from_secs(j.requested_runtime.as_secs());
                job
            })
            .collect(),
    )
}

/// Serialize a workload back to SWF text. Fields this model does not track
/// (wait time, CPU time, group, queue, partition, preceding job, think time)
/// are written as `-1`, which SWF defines as "not recorded".
pub fn write_str(workload: &Workload, header_lines: &[&str]) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(workload.len() * 64 + 128);
    for h in header_lines {
        let _ = writeln!(out, "; {h}");
    }
    for j in workload.jobs() {
        let status = match j.status {
            JobStatus::Completed => 1,
            JobStatus::Failed => 0,
            JobStatus::Cancelled => 5,
        };
        let _ = writeln!(
            out,
            "{} {} -1 {} {} -1 {} {} {} {} {} {} -1 {} -1 -1 -1 -1",
            j.id.0,
            j.submit.as_secs(),
            j.runtime.as_secs(),
            j.nodes,
            j.used_mem_kb,
            j.nodes,
            j.requested_runtime.as_secs(),
            j.requested_mem_kb,
            status,
            j.user,
            j.app,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobBuilder;

    const SAMPLE: &str = "\
; Computer: Thinking Machines CM-5
; MaxNodes: 1024
; MaxJobs: 122055
1 0 5 100 32 -1 4096 32 120 32768 1 7 -1 3 1 -1 -1 -1
2 60 0 50 64 -1 1024 64 60 8192 0 8 -1 4 1 -1 -1 -1
3 90 0 10 32 -1 512 -1 -1 -1 5 9 -1 5 1 -1 -1 -1
";

    #[test]
    fn parses_header_directives() {
        let trace = parse_str(SAMPLE).unwrap();
        assert_eq!(trace.header.max_nodes, Some(1024));
        assert_eq!(trace.header.max_jobs, Some(122_055));
        assert_eq!(
            trace.header.computer.as_deref(),
            Some("Thinking Machines CM-5")
        );
        assert_eq!(trace.header.raw.len(), 3);
    }

    #[test]
    fn parses_job_fields() {
        let trace = parse_str(SAMPLE).unwrap();
        let jobs = trace.workload.jobs();
        assert_eq!(jobs.len(), 3);
        let j = &jobs[0];
        assert_eq!(j.id, JobId(1));
        assert_eq!(j.submit, Time::ZERO);
        assert_eq!(j.runtime, Time::from_secs(100));
        assert_eq!(j.requested_runtime, Time::from_secs(120));
        assert_eq!(j.nodes, 32);
        assert_eq!(j.used_mem_kb, 4096);
        assert_eq!(j.requested_mem_kb, 32_768);
        assert_eq!(j.status, JobStatus::Completed);
        assert_eq!(j.user, 7);
        assert_eq!(j.app, 3);
    }

    #[test]
    fn status_codes_map() {
        let trace = parse_str(SAMPLE).unwrap();
        assert_eq!(trace.workload.jobs()[1].status, JobStatus::Failed);
        assert_eq!(trace.workload.jobs()[2].status, JobStatus::Cancelled);
    }

    #[test]
    fn missing_fields_fall_back() {
        let trace = parse_str(SAMPLE).unwrap();
        let j = &trace.workload.jobs()[2];
        // Requested procs -1 → allocated; requested time -1 → runtime;
        // requested mem -1 → used mem.
        assert_eq!(j.nodes, 32);
        assert_eq!(j.requested_runtime, j.runtime);
        assert_eq!(j.requested_mem_kb, j.used_mem_kb);
    }

    #[test]
    fn too_few_fields_is_an_error() {
        let err = parse_str("1 2 3\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert_eq!(err.kind, SwfErrorKind::TooFewFields(3));
    }

    #[test]
    fn bad_integer_is_an_error_with_field_index() {
        let line = "1 0 5 100 32 -1 4096 32 120 oops 1 7 -1 3 1 -1 -1 -1";
        let err = parse_str(line).unwrap_err();
        match err.kind {
            SwfErrorKind::BadField { field, ref token } => {
                assert_eq!(field, 10);
                assert_eq!(token, "oops");
            }
            other => panic!("unexpected error kind {other:?}"),
        }
        // Display is human readable and names the line.
        assert!(err.to_string().contains("line 1"));
    }

    #[test]
    fn out_of_range_fields_are_errors() {
        // 10^17 s overflows the millisecond clock; 2^32 + 1 processors
        // once wrapped silently to a 1-node job. Requested processors are
        // -1 in the base line, so the allocated count (field 5) is read.
        let base = "1 0 5 100 32 -1 4096 -1 120 32768 1 7 -1 3 1 -1 -1 -1";
        let time = "100000000000000000";
        let count = "4294967297";
        for (field, token) in [
            (2, time),
            (4, time),
            (9, time),
            (5, count),
            (8, count),
            (12, count),
            (14, count),
        ] {
            let mut tokens: Vec<&str> = base.split(' ').collect();
            tokens[field - 1] = token;
            let err = parse_str(&format!("; header\n{}", tokens.join(" "))).unwrap_err();
            assert_eq!(err.line, 2);
            let value = token.parse().unwrap();
            assert_eq!(err.kind, SwfErrorKind::OutOfRange { field, value });
            assert!(err.to_string().contains(&format!("field {field}")));
        }
        let max = base.replace("4096 -1", "4096 4294967295");
        assert_eq!(parse_str(&max).unwrap().workload.jobs()[0].nodes, u32::MAX);
    }

    #[test]
    fn blank_lines_and_comments_skipped() {
        let input = "\n; comment\n\n1 0 5 100 32 -1 4096 32 120 32768 1 7 -1 3 1 -1 -1 -1\n\n";
        let trace = parse_str(input).unwrap();
        assert_eq!(trace.workload.len(), 1);
    }

    #[test]
    fn round_trip_preserves_model_fields() {
        let jobs = vec![
            JobBuilder::new(10)
                .user(3)
                .app(9)
                .submit(Time::from_secs(100))
                .runtime(Time::from_secs(500))
                .requested_runtime(Time::from_secs(600))
                .nodes(128)
                .requested_mem_kb(32_768)
                .used_mem_kb(5_300)
                .build(),
            JobBuilder::new(11)
                .submit(Time::from_secs(200))
                .status(JobStatus::Failed)
                .build(),
        ];
        let original = Workload::new(jobs);
        let text = write_str(&original, &["Computer: synthetic"]);
        let reparsed = parse_str(&text).unwrap();
        assert_eq!(reparsed.workload, original);
        assert_eq!(reparsed.header.computer.as_deref(), Some("synthetic"));
    }

    #[test]
    fn quantize_truncates_to_seconds_and_is_idempotent() {
        let jobs = vec![JobBuilder::new(1)
            .submit(Time::from_millis(1_700))
            .runtime(Time::from_millis(2_999))
            .requested_runtime(Time::from_millis(3_500))
            .build()];
        let w = Workload::new(jobs);
        let q = quantize(&w);
        assert_eq!(q.jobs()[0].submit, Time::from_secs(1));
        assert_eq!(q.jobs()[0].runtime, Time::from_secs(2));
        assert_eq!(q.jobs()[0].requested_runtime, Time::from_secs(3));
        assert_eq!(quantize(&q), q);
        // Round trip reproduces the quantized workload exactly.
        let reparsed = parse_str(&write_str(&q, &[])).unwrap();
        assert_eq!(reparsed.workload, q);
    }

    #[test]
    fn write_emits_one_line_per_job_plus_header() {
        let w = Workload::new(vec![JobBuilder::new(1).build()]);
        let text = write_str(&w, &["a", "b"]);
        assert_eq!(text.lines().count(), 3);
        assert!(text.starts_with("; a\n; b\n"));
    }
}
