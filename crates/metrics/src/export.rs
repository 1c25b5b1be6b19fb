//! CSV and JSON export of reports.
//!
//! CSV output is deliberately hand-rolled (the format here is numeric and
//! label-safe, no quoting edge cases); JSON goes through the in-tree
//! [`crate::json`] module, so the whole export layer is dependency-free.

use crate::classes::{ClassBreakdown, ClassRow, JobClass};
use crate::json::{Json, JsonError};
use crate::summary::SimReport;

/// Column headers matching [`report_csv_row`].
pub const REPORT_CSV_HEADER: &str = "label,completed,killed,rejected,failed,interruptions,\
rework_s,avail_util,mean_wait_s,p50_wait_s,\
p95_wait_s,max_wait_s,mean_bsld,p95_bsld,mean_turnaround_s,makespan_h,throughput_jobs_per_day,\
node_util,pool_util,dram_util,queue_depth_mean,queue_depth_max,borrowed_fraction,\
mean_far_fraction,mean_dilation_borrowers,inflated_fraction,inflation_overhead_node_h,\
user_fairness";

/// One CSV row for a report (no trailing newline).
pub fn report_csv_row(r: &SimReport) -> String {
    format!(
        "{},{},{},{},{},{},{:.2},{:.4},{:.2},{:.2},{:.2},{:.2},{:.4},{:.4},{:.2},{:.3},{:.2},{:.4},{:.4},{:.4},{:.3},{:.0},{:.4},{:.4},{:.4},{:.4},{:.3},{:.4}",
        sanitize(&r.label),
        r.completed,
        r.killed,
        r.rejected,
        r.failed,
        r.interruptions,
        r.rework_s,
        r.avail_util,
        r.mean_wait_s,
        r.p50_wait_s,
        r.p95_wait_s,
        r.max_wait_s,
        r.mean_bsld,
        r.p95_bsld,
        r.mean_turnaround_s,
        r.makespan_h,
        r.throughput_jobs_per_day,
        r.node_util,
        r.pool_util,
        r.dram_util,
        r.queue_depth_mean,
        r.queue_depth_max,
        r.borrowed_fraction,
        r.mean_far_fraction,
        r.mean_dilation_borrowers,
        r.inflated_fraction,
        r.inflation_overhead_node_h,
        r.user_fairness,
    )
}

/// The JSON document model for one report.
pub fn report_to_value(r: &SimReport) -> Json {
    let classes = Json::Arr(
        r.classes
            .rows
            .iter()
            .map(|row| {
                Json::obj(vec![
                    ("class", Json::Str(row.class.name().into())),
                    ("jobs", Json::UInt(row.jobs as u64)),
                    ("mean_wait_s", Json::F64(row.mean_wait_s)),
                    ("mean_bsld", Json::F64(row.mean_bsld)),
                    ("borrowed_fraction", Json::F64(row.borrowed_fraction)),
                    ("inflated_fraction", Json::F64(row.inflated_fraction)),
                ])
            })
            .collect(),
    );
    Json::obj(vec![
        ("label", Json::Str(r.label.clone())),
        ("completed", Json::UInt(r.completed as u64)),
        ("killed", Json::UInt(r.killed as u64)),
        ("rejected", Json::UInt(r.rejected as u64)),
        ("failed", Json::UInt(r.failed as u64)),
        ("interruptions", Json::UInt(r.interruptions)),
        ("rework_s", Json::F64(r.rework_s)),
        ("avail_util", Json::F64(r.avail_util)),
        ("mean_wait_s", Json::F64(r.mean_wait_s)),
        ("p50_wait_s", Json::F64(r.p50_wait_s)),
        ("p95_wait_s", Json::F64(r.p95_wait_s)),
        ("max_wait_s", Json::F64(r.max_wait_s)),
        ("mean_bsld", Json::F64(r.mean_bsld)),
        ("p95_bsld", Json::F64(r.p95_bsld)),
        ("mean_turnaround_s", Json::F64(r.mean_turnaround_s)),
        ("makespan_h", Json::F64(r.makespan_h)),
        (
            "throughput_jobs_per_day",
            Json::F64(r.throughput_jobs_per_day),
        ),
        ("node_util", Json::F64(r.node_util)),
        ("pool_util", Json::F64(r.pool_util)),
        ("dram_util", Json::F64(r.dram_util)),
        ("queue_depth_mean", Json::F64(r.queue_depth_mean)),
        ("queue_depth_max", Json::F64(r.queue_depth_max)),
        ("borrowed_fraction", Json::F64(r.borrowed_fraction)),
        ("mean_far_fraction", Json::F64(r.mean_far_fraction)),
        (
            "mean_dilation_borrowers",
            Json::F64(r.mean_dilation_borrowers),
        ),
        ("inflated_fraction", Json::F64(r.inflated_fraction)),
        (
            "inflation_overhead_node_h",
            Json::F64(r.inflation_overhead_node_h),
        ),
        ("user_fairness", Json::F64(r.user_fairness)),
        ("classes", classes),
    ])
}

/// Rebuild a report from its JSON document model.
pub fn report_from_value(v: &Json) -> Result<SimReport, JsonError> {
    let f = |key: &str| -> Result<f64, JsonError> { v.expect_key(key)?.to_f64() };
    let n = |key: &str| -> Result<usize, JsonError> { v.expect_key(key)?.to_usize() };
    let rows = v
        .expect_key("classes")?
        .to_arr()?
        .iter()
        .map(|row| {
            let name = row.expect_key("class")?.to_str()?;
            let class = JobClass::ALL
                .into_iter()
                .find(|c| c.name() == name)
                .ok_or_else(|| JsonError {
                    message: format!("unknown job class {name:?}"),
                    offset: 0,
                })?;
            Ok(ClassRow {
                class,
                jobs: row.expect_key("jobs")?.to_usize()?,
                mean_wait_s: row.expect_key("mean_wait_s")?.to_f64()?,
                mean_bsld: row.expect_key("mean_bsld")?.to_f64()?,
                borrowed_fraction: row.expect_key("borrowed_fraction")?.to_f64()?,
                inflated_fraction: row.expect_key("inflated_fraction")?.to_f64()?,
            })
        })
        .collect::<Result<Vec<_>, JsonError>>()?;
    let node_util = f("node_util")?;
    Ok(SimReport {
        label: v.expect_key("label")?.to_str()?.to_string(),
        completed: n("completed")?,
        killed: n("killed")?,
        rejected: n("rejected")?,
        // Fault fields were introduced after PR-3; documents written by
        // earlier engines (result-cache entries in particular) lack them
        // and are by construction fault-free: zero counters, and
        // availability-weighted utilization equal to plain utilization.
        failed: match v.get("failed") {
            Some(x) => x.to_usize()?,
            None => 0,
        },
        interruptions: match v.get("interruptions") {
            Some(x) => x.to_u64()?,
            None => 0,
        },
        rework_s: match v.get("rework_s") {
            Some(x) => x.to_f64()?,
            None => 0.0,
        },
        avail_util: match v.get("avail_util") {
            Some(x) => x.to_f64()?,
            None => node_util,
        },
        mean_wait_s: f("mean_wait_s")?,
        p50_wait_s: f("p50_wait_s")?,
        p95_wait_s: f("p95_wait_s")?,
        max_wait_s: f("max_wait_s")?,
        mean_bsld: f("mean_bsld")?,
        p95_bsld: f("p95_bsld")?,
        mean_turnaround_s: f("mean_turnaround_s")?,
        makespan_h: f("makespan_h")?,
        throughput_jobs_per_day: f("throughput_jobs_per_day")?,
        node_util,
        pool_util: f("pool_util")?,
        dram_util: f("dram_util")?,
        queue_depth_mean: f("queue_depth_mean")?,
        queue_depth_max: f("queue_depth_max")?,
        borrowed_fraction: f("borrowed_fraction")?,
        mean_far_fraction: f("mean_far_fraction")?,
        mean_dilation_borrowers: f("mean_dilation_borrowers")?,
        inflated_fraction: f("inflated_fraction")?,
        inflation_overhead_node_h: f("inflation_overhead_node_h")?,
        user_fairness: f("user_fairness")?,
        classes: ClassBreakdown { rows },
    })
}

/// Strip CSV-hostile characters from labels. Public so other table
/// writers (e.g. experiment-result export) keep row arity intact for
/// arbitrary user-supplied labels.
pub fn sanitize(s: &str) -> String {
    s.replace([',', '\n', '\r', '"'], "_")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::ClassThresholds;
    use crate::summary::RunData;

    fn report(label: &str) -> SimReport {
        SimReport::compute(
            &RunData {
                label: label.into(),
                records: vec![],
                makespan_s: 3600.0,
                node_util: 0.5,
                pool_util: 0.0,
                dram_util: 0.25,
                queue_depth_mean: 0.0,
                queue_depth_max: 0.0,
                faults: crate::FaultSummary {
                    avail_util: 0.5,
                    ..Default::default()
                },
            },
            &ClassThresholds::standard(1024),
        )
    }

    #[test]
    fn csv_shape() {
        let (a, b) = (report_csv_row(&report("a")), report_csv_row(&report("b")));
        let lines = [REPORT_CSV_HEADER, a.as_str(), b.as_str()];
        let ncols = lines[0].split(',').count();
        for l in &lines[1..] {
            assert_eq!(l.split(',').count(), ncols, "row arity matches header");
        }
        assert!(lines[1].starts_with("a,"));
    }

    #[test]
    fn labels_sanitized() {
        let row = report_csv_row(&report("has,comma\nand newline"));
        assert!(!row.contains("has,comma"));
        assert!(row.starts_with("has_comma_and newline,"));
    }

    #[test]
    fn json_roundtrip() {
        let r = report("x");
        let json = report_to_value(&r).to_string_pretty();
        let back = report_from_value(&crate::json::parse(&json).unwrap()).unwrap();
        assert_eq!(back.label, "x");
        assert_eq!(back.node_util, 0.5);
        assert_eq!(back.classes.rows.len(), r.classes.rows.len());
        // Bit-exact field round trip through the shortest-float writer.
        assert_eq!(back.p95_bsld, r.p95_bsld);
        assert_eq!(back.user_fairness, r.user_fairness);
        assert_eq!(back.avail_util, r.avail_util);
    }

    #[test]
    fn pre_fault_documents_parse_with_defaults() {
        // A report written before the fault fields existed (PR-2/PR-3
        // result-cache entries) must parse with zero fault counters and
        // avail_util == node_util — not miss.
        let mut doc = report_to_value(&report("old")).to_string_pretty();
        for key in ["failed", "interruptions", "rework_s", "avail_util"] {
            let needle = format!("\"{key}\"");
            let start = doc.find(&needle).expect("field present");
            let end = doc[start..].find('\n').unwrap() + start + 1;
            doc.replace_range(start..end, "");
        }
        let back = report_from_value(&crate::json::parse(&doc).unwrap()).unwrap();
        assert_eq!(back.failed, 0);
        assert_eq!(back.interruptions, 0);
        assert_eq!(back.rework_s, 0.0);
        assert_eq!(back.avail_util, back.node_util, "bit-equal default");
    }
}
