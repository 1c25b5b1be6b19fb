//! SWF parsing.

use super::SwfConfig;
use crate::job::{Job, JobId};
use crate::workload_set::Workload;
use dmhpc_des::rng::SplitMix64;
use dmhpc_des::time::{SimDuration, SimTime, MICROS_PER_SEC};
use std::collections::BTreeMap;
use std::io::BufRead;

/// A parsed SWF trace: the usable jobs plus header metadata and a count of
/// lines that were skipped (malformed, zero-runtime, filtered status).
#[derive(Debug, Clone)]
pub struct SwfTrace {
    /// Jobs in arrival order.
    pub workload: Workload,
    /// `; Key: value` header entries.
    pub header: BTreeMap<String, String>,
    /// Data lines that did not become jobs.
    pub skipped: usize,
}

/// Parse SWF text.
pub fn parse_str(text: &str, cfg: &SwfConfig) -> Result<SwfTrace, String> {
    parse_lines(text.lines().map(|l| Ok(l.to_owned())), cfg)
}

/// Parse SWF from any buffered reader (streams multi-GB archive traces
/// without loading them whole).
pub fn parse_reader<R: BufRead>(reader: R, cfg: &SwfConfig) -> Result<SwfTrace, String> {
    parse_lines(
        reader
            .lines()
            .map(|r| r.map_err(|e| format!("I/O error reading SWF: {e}"))),
        cfg,
    )
}

fn parse_lines<I>(lines: I, cfg: &SwfConfig) -> Result<SwfTrace, String>
where
    I: Iterator<Item = Result<String, String>>,
{
    if cfg.cores_per_node == 0 {
        return Err("SWF config: cores_per_node must be >= 1".to_owned());
    }
    let mut header = BTreeMap::new();
    let mut jobs = Vec::new();
    let mut skipped = 0usize;

    for (lineno, line) in lines.enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix(';') {
            if let Some((k, v)) = rest.split_once(':') {
                header.insert(k.trim().to_owned(), v.trim().to_owned());
            }
            continue;
        }
        match parse_data_line(line, cfg) {
            Ok(Some(job)) => jobs.push(job),
            Ok(None) => skipped += 1,
            Err(e) => return Err(format!("SWF line {}: {e}", lineno + 1)),
        }
    }
    Ok(SwfTrace {
        workload: Workload::from_jobs(jobs),
        header,
        skipped,
    })
}

/// Field accessor: SWF uses -1 for "missing".
fn field(fields: &[i64], idx: usize) -> Option<i64> {
    fields.get(idx).copied().filter(|&v| v >= 0)
}

fn parse_data_line(line: &str, cfg: &SwfConfig) -> Result<Option<Job>, String> {
    let fields: Vec<i64> = line
        .split_ascii_whitespace()
        .map(|tok| {
            tok.parse::<i64>()
                .map_err(|_| format!("non-integer field {tok:?}"))
        })
        .collect::<Result<_, _>>()?;
    if fields.len() < 11 {
        return Err(format!("expected >= 11 fields, got {}", fields.len()));
    }

    let job_number = field(&fields, 0).ok_or("missing job number")?;
    let submit = field(&fields, 1).ok_or("missing submit time")?;

    // Runtime is mandatory for simulation; jobs without one are metadata-only.
    let Some(runtime_s) = field(&fields, 3).filter(|&r| r > 0) else {
        return Ok(None);
    };

    // Status filter: 1 = completed. Everything else is kept only on request.
    let status = field(&fields, 10).unwrap_or(1);
    if status != 1 && !cfg.include_failed {
        return Ok(None);
    }

    // Processors: prefer the request, fall back to the allocation.
    let procs = field(&fields, 7)
        .filter(|&p| p > 0)
        .or_else(|| field(&fields, 4).filter(|&p| p > 0));
    let Some(procs) = procs else {
        return Ok(None);
    };
    let nodes = u32::try_from((procs as u64).div_ceil(cfg.cores_per_node as u64))
        .map_err(|_| format!("{procs} processors is more nodes than a job can hold"))?;

    // Walltime: requested time, floored at the actual runtime (SWF traces
    // occasionally contain runtime > request after clock skew corrections).
    let walltime_s = field(&fields, 8)
        .filter(|&t| t > 0)
        .unwrap_or(runtime_s)
        .max(runtime_s);

    // Memory: KiB per processor; used (7th, idx 6) preferred over requested
    // (10th, idx 9).
    let mem_kib_per_proc = field(&fields, 6)
        .filter(|&m| m > 0)
        .or_else(|| field(&fields, 9).filter(|&m| m > 0));
    let mem_per_node = match mem_kib_per_proc {
        Some(kib) => {
            let per_node_kib = (kib as u64)
                .checked_mul(cfg.cores_per_node as u64)
                .ok_or_else(|| format!("{kib} KiB per processor overflows a node's memory"))?;
            (per_node_kib / 1024).max(1)
        }
        None => cfg.default_mem_per_node,
    };

    let user = field(&fields, 11).map(|u| u as u32).unwrap_or(0);

    // Deterministic pseudo-intensity from the job id: SWF has no such
    // column, and hashing keeps re-parses identical.
    let (lo, hi) = cfg.intensity_range;
    let hash = SplitMix64::mix(cfg.intensity_seed, job_number as u64);
    let unit = (hash >> 11) as f64 / (1u64 << 53) as f64;
    let intensity = lo + (hi - lo) * unit;

    let job = Job {
        id: JobId(job_number as u64),
        user,
        arrival: SimTime::from_micros(micros(submit, "submit time")?),
        nodes,
        walltime: SimDuration::from_micros(micros(walltime_s, "requested time")?),
        runtime: SimDuration::from_micros(micros(runtime_s, "run time")?),
        mem_per_node,
        intensity,
        slo: None,
    };
    job.validate().map_err(|e| format!("invalid job: {e}"))?;
    Ok(Some(job))
}

/// `secs` (never negative here) in microseconds, or an error naming the
/// field when the clock cannot hold it.
fn micros(secs: i64, what: &str) -> Result<u64, String> {
    (secs as u64)
        .checked_mul(MICROS_PER_SEC)
        .ok_or_else(|| format!("{what} {secs} s overflows the simulation clock"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reader_and_str_agree() {
        let text = "1 0 -1 100 4 -1 -1 4 200 -1 1 2 -1 -1 -1 -1 -1 -1\n";
        let cfg = SwfConfig::default();
        let a = parse_str(text, &cfg).unwrap();
        let b = parse_reader(std::io::Cursor::new(text.as_bytes()), &cfg).unwrap();
        assert_eq!(a.workload, b.workload);
        assert_eq!(a.workload.len(), 1);
        assert_eq!(a.workload.jobs()[0].nodes, 4);
    }

    #[test]
    fn malformed_line_is_an_error() {
        let err = parse_str("1 0 abc 100 4\n", &SwfConfig::default()).unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        assert!(err.contains("abc"), "{err}");
    }

    #[test]
    fn short_line_is_an_error() {
        let err = parse_str("1 0 100\n", &SwfConfig::default()).unwrap_err();
        assert!(err.contains(">= 11 fields"), "{err}");
    }

    #[test]
    fn zero_runtime_skipped_not_error() {
        let t = parse_str(
            "1 0 -1 0 4 -1 -1 4 200 -1 1 2 -1 -1 -1 -1 -1 -1\n",
            &SwfConfig::default(),
        )
        .unwrap();
        assert_eq!(t.workload.len(), 0);
        assert_eq!(t.skipped, 1);
    }

    #[test]
    fn allocated_procs_fallback() {
        // Requested procs (-1) missing -> use allocated (field 5).
        let t = parse_str(
            "1 0 -1 100 8 -1 -1 -1 200 -1 1 2 -1 -1 -1 -1 -1 -1\n",
            &SwfConfig {
                cores_per_node: 4,
                ..SwfConfig::default()
            },
        )
        .unwrap();
        assert_eq!(t.workload.jobs()[0].nodes, 2);
    }

    #[test]
    fn walltime_floored_at_runtime() {
        let t = parse_str(
            "1 0 -1 500 1 -1 -1 1 200 -1 1 2 -1 -1 -1 -1 -1 -1\n",
            &SwfConfig::default(),
        )
        .unwrap();
        assert_eq!(t.workload.jobs()[0].walltime.as_secs(), 500);
    }

    #[test]
    fn default_memory_when_absent() {
        let cfg = SwfConfig {
            default_mem_per_node: 4096,
            ..SwfConfig::default()
        };
        let t = parse_str("1 0 -1 100 1 -1 -1 1 200 -1 1 2 -1 -1 -1 -1 -1 -1\n", &cfg).unwrap();
        assert_eq!(t.workload.jobs()[0].mem_per_node, 4096);
    }

    /// Times past the clock's range (~1.84e13 s in microseconds) are line
    /// errors, not an overflow: that panics in a debug build and wraps in
    /// a release one, where a submit of 2e13 s reads as 1.55e12 s.
    #[test]
    fn times_past_the_clock_are_errors() {
        for (line, field) in [
            (
                "1 20000000000000 -1 100 4 -1 -1 4 200 -1 1 2 -1 -1 -1 -1 -1 -1",
                "submit time",
            ),
            (
                "1 0 -1 18500000000000 4 -1 -1 4 -1 -1 1 2 -1 -1 -1 -1 -1 -1",
                "requested time",
            ),
        ] {
            let err = parse_str(line, &SwfConfig::default()).unwrap_err();
            assert!(err.starts_with("SWF line 1: "), "{err}");
            assert!(err.contains(field), "{err}");
        }
    }

    #[test]
    fn huge_processor_and_memory_counts_are_errors() {
        let procs = "1 0 -1 100 -1 -1 -1 4294967296 200 -1 1 2 -1 -1 -1 -1 -1 -1";
        let err = parse_str(procs, &SwfConfig::default()).unwrap_err();
        assert!(err.contains("more nodes"), "{err}");
        let mem = "1 0 -1 100 1 -1 9223372036854775807 1 200 -1 1 2 -1 -1 -1 -1 -1 -1";
        let cfg = SwfConfig {
            cores_per_node: 4,
            ..SwfConfig::default()
        };
        let err = parse_str(mem, &cfg).unwrap_err();
        assert!(err.contains("KiB per processor"), "{err}");
    }

    #[test]
    fn zero_cores_per_node_is_an_error() {
        let cfg = SwfConfig {
            cores_per_node: 0,
            ..SwfConfig::default()
        };
        let err = parse_str("", &cfg).unwrap_err();
        assert!(err.contains("cores_per_node"), "{err}");
    }

    #[test]
    fn header_without_colon_ignored() {
        let t = parse_str("; just a comment\n; Version: 2.2\n", &SwfConfig::default()).unwrap();
        assert_eq!(t.header.len(), 1);
        assert_eq!(t.header.get("Version").map(String::as_str), Some("2.2"));
    }
}
