//! The metric names this benchmark reports, with unit and direction; the
//! same lists as `BENCHMARK.json` at the repository root (a test compares
//! them).

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median an end-to-end metric may worsen by.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better, bound: 0.0 }
}

use Better::{Higher, Lower};

/// What a user of the system sees, reported by every workload with tracing
/// off. See the README for what each name means on each workload, and for
/// why every timing and rate carries the widest bound the driver allows.
pub const END_TO_END: &[MetricDef] = &[
    e2e("q1_ms", "ms", Lower, 0.25),
    e2e("q2_ms", "ms", Lower, 0.25),
    e2e("q3_ms", "ms", Lower, 0.25),
    e2e("q4_ms", "ms", Lower, 0.25),
    e2e("qw_ms", "ms", Lower, 0.25),
    e2e("pass_ms", "ms", Lower, 0.25),
    e2e("queries_per_s", "1/s", Higher, 0.25),
    e2e("load_rows_per_s", "1/s", Higher, 0.25),
    e2e("disk_bytes_per_row", "bytes", Lower, 0.02),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Single-layer figures, reported by every workload's traced run.
pub const PER_LAYER: &[MetricDef] = &[
    layer("sql.parse_us", "us", Lower),
    layer("plan.prepare_us", "us", Lower),
    layer("plan.pruned_share_q1", "share", Higher),
    layer("plan.pruned_share_q2", "share", Higher),
    layer("plan.pruned_share_q3", "share", Higher),
    layer("plan.pruned_share_q4", "share", Higher),
    layer("source.read_decode_ms_per_pass", "ms", Lower),
    layer("source.bytes_read_per_pass", "bytes", Lower),
    layer("source.bytes_decompressed_per_pass", "bytes", Lower),
    layer("source.cache_hit_share", "share", Higher),
    layer("source.evictions_per_pass", "count", Lower),
    layer("source.decompress_share_of_memcpy", "share", Higher),
    layer("codec.raw_mbps", "MB/s", Higher),
    layer("codec.delta_mbps", "MB/s", Higher),
    layer("codec.ans_mbps", "MB/s", Higher),
    layer("codec.raw_replay_mbps", "MB/s", Higher),
    layer("codec.delta_replay_mbps", "MB/s", Higher),
    layer("codec.ans_replay_mbps", "MB/s", Higher),
    layer("bitpack.unpack_ns_per_value", "ns", Lower),
    layer("bitpack.unpack_gbps", "GB/s", Higher),
    layer("bitpack.unpack_share_of_memcpy", "share", Higher),
    layer("exec.ns_per_row_q1", "ns", Lower),
    layer("exec.ns_per_row_q2", "ns", Lower),
    layer("exec.ns_per_row_q3", "ns", Lower),
    layer("exec.ns_per_row_q4", "ns", Lower),
    layer("exec.rows_per_s", "1/s", Higher),
    layer("exec.q5_ms", "ms", Lower),
    layer("exec.q6_ms", "ms", Lower),
    layer("exec.q7_ms", "ms", Lower),
    layer("exec.q8_ms", "ms", Lower),
    layer("exec.p2_speedup", "x", Higher),
    layer("exec.p2_utilization", "share", Higher),
    layer("merge.report_ms", "ms", Lower),
    layer("wire.encode_ms", "ms", Lower),
    layer("wire.decode_assemble_ms", "ms", Lower),
    layer("wire.bytes_per_query", "bytes", Lower),
    layer("wire.bytes_per_result_row", "bytes", Lower),
    layer("server.overhead_ms", "ms", Lower),
    layer("server.queue_wait_ms", "ms", Lower),
    layer("server.peak_active", "count", Lower),
    layer("server.refused", "count", Lower),
    layer("ingest.rows_per_s", "1/s", Higher),
    layer("ingest.append_ms_first", "ms", Lower),
    layer("ingest.append_ms_last", "ms", Lower),
    layer("ingest.chunks_rewritten_per_batch", "count", Lower),
    layer("ingest.write_amp", "x", Lower),
    layer("ingest.compact_ms", "ms", Lower),
    layer("ingest.reclaimed_bytes", "bytes", Higher),
    layer("ingest.dead_ratio_peak", "share", Lower),
    layer("ingest.reader_stall_ms", "ms", Lower),
    layer("proc.peak_rss_mb", "MB", Lower),
    layer("calib.memcpy_gbps", "GB/s", Higher),
    layer("calib.seq_read_mbps", "MB/s", Higher),
    layer("calib.spin_ms", "ms", Lower),
    layer("calib.spin_drift_share", "share", Lower),
    layer("trace.share_source", "share", Lower),
    layer("trace.share_codec", "share", Lower),
    layer("trace.share_exec", "share", Lower),
    layer("trace.share_merge", "share", Lower),
    layer("trace.share_wire", "share", Lower),
    layer("trace.share_server", "share", Lower),
    layer("trace.share_ingest", "share", Lower),
    layer("trace.unattributed_share", "share", Lower),
    layer("trace.overhead_share", "share", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "bad name {}", m.name);
            assert!(valid_unit(m.unit), "bad unit {}", m.unit);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
            assert!((0.0..=0.25).contains(&m.bound));
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Lower));
    }

    /// `BENCHMARK.json` is what the driver reads; it must list exactly the
    /// metrics and workloads the program reports.
    #[test]
    fn benchmark_json_lists_the_same_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let listed = |key: &str, with_bound: bool| -> Vec<(String, String, String, f64)> {
            let Some(Json::Arr(items)) = doc.get(key) else { panic!("{key} missing") };
            items
                .iter()
                .map(|m| {
                    let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    let bound = m.get("bound").and_then(Json::as_f64);
                    assert_eq!(bound.is_some(), with_bound, "{key} bound");
                    (field("name"), field("unit"), field("better"), bound.unwrap_or(0.0))
                })
                .collect()
        };
        let ours = |defs: &[MetricDef]| -> Vec<(String, String, String, f64)> {
            defs.iter()
                .map(|m| (m.name.into(), m.unit.into(), m.better.as_str().into(), m.bound))
                .collect()
        };
        assert_eq!(listed("end_to_end", true), ours(END_TO_END));
        assert_eq!(listed("per_layer", false), ours(PER_LAYER));

        let Some(Json::Arr(workloads)) = doc.get("workloads") else { panic!("workloads") };
        let names: Vec<&str> =
            workloads.iter().map(|w| w.get("name").and_then(Json::as_str).unwrap()).collect();
        let ours: Vec<&str> = crate::workloads::Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ours);
        for w in workloads {
            let why = w.get("why").and_then(Json::as_str).unwrap();
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
    }
}
