//! The metric names this benchmark fixes. `/BENCHMARK.json` lists the
//! same names; `tests::names_match_benchmark_json` keeps them equal.

use std::collections::BTreeMap;

/// `(name, unit)`. Every workload reports every one of these, untraced.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("open_s", "s"),
    ("strq_p50_us", "us"),
    ("tpq_p50_us", "us"),
    ("bytes_per_point", "B"),
    ("recon_mae_m", "m"),
    ("approx_precision", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)`, prefixed by crate. Reported by traced runs; a workload
/// that does not exercise a layer reports 0 for its metrics.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("traj.gen_s", "s"),
    ("predict.fit_ns_per_point", "ns"),
    ("quantize.batch_ns_per_point", "ns"),
    ("quantize.codewords", "count"),
    ("cqc.encode_ns_per_point", "ns"),
    ("cqc.bytes", "B"),
    ("tpi.build_s", "s"),
    ("tpi.bytes", "B"),
    ("tpi.periods", "count"),
    ("tpi.probe_ns", "ns"),
    ("tpi.ids_per_probe", "count"),
    ("sindex.decode_ns_per_id", "ns"),
    ("core.push_slice_ns_per_point", "ns"),
    ("core.finish_s", "s"),
    ("core.summary_encode_s", "s"),
    ("core.summary_bytes", "B"),
    ("core.strq_ns", "ns"),
    ("core.tpq_ns", "ns"),
    ("core.visited_per_strq", "count"),
    ("core.candidates_per_strq", "count"),
    ("core.exact_over_candidates", "ratio"),
    ("core.slowest_shard_share", "ratio"),
    ("core.snapshot_ns", "ns"),
    ("core.state_encode_ns", "ns"),
    ("core.state_bytes", "B"),
    ("repo.write_s", "s"),
    ("repo.pages", "count"),
    ("repo.dir_resident_bytes", "B"),
    ("repo.open_s", "s"),
    ("repo.strq_ns", "ns"),
    ("repo.tpq_ns", "ns"),
    ("repo.dir_lookup_ns", "ns"),
    ("repo.pages_planned_per_query", "count"),
    ("repo.append_ns", "ns"),
    ("repo.append_bytes", "B"),
    ("repo.compact_ns", "ns"),
    ("repo.compact_bytes", "B"),
    ("storage.page_ins_per_query", "count"),
    ("storage.pool_hit_rate", "ratio"),
    ("storage.evictions", "count"),
    ("storage.fetch_batch_ns", "ns"),
    ("storage.read_ns_per_page", "ns"),
    ("storage.backend_io_uring", "bool"),
    ("live.wal_append_ns", "ns"),
    ("live.wal_sync_ns", "ns"),
    ("live.wal_syncs", "count"),
    ("live.wal_bytes_per_point", "B"),
    ("live.folds", "count"),
    ("live.compactions", "count"),
    ("live.publishes", "count"),
    ("live.fold_ns", "ns"),
    ("live.publish_ns", "ns"),
    ("live.bytes_written_per_user_byte", "ratio"),
    ("live.reader_stall_p99_us", "us"),
    ("live.recover_ns", "ns"),
    ("live.tail_records", "count"),
    ("live.service_strq_ns", "ns"),
    ("live.append_p50_ms", "ms"),
    ("live.append_p99_ms", "ms"),
    ("server.wire_overhead_p50_us", "us"),
    ("server.frame_rtt_ns", "ns"),
    ("server.req_encode_ns", "ns"),
    ("server.req_decode_ns", "ns"),
    ("server.resp_encode_ns", "ns"),
    ("server.resp_decode_ns", "ns"),
    ("server.bytes_in_per_req", "B"),
    ("server.bytes_out_per_req", "B"),
    ("server.shed", "count"),
    ("server.append_ns", "ns"),
    ("obs.trace_overhead_ratio", "ratio"),
    ("load.late_p99_us", "us"),
    ("load.offered_ops_per_s", "1/s"),
    ("load.achieved_ops_per_s", "1/s"),
    ("load.self_ns_per_op", "ns"),
    ("load.strq_p99_us", "us"),
    ("load.tpq_p99_us", "us"),
];

/// Values collected by a run, keyed by metric name.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pull `"name": "<x>"` values out of one top-level array of
    /// `BENCHMARK.json` without a JSON dependency.
    fn names_in(json: &str, key: &str) -> Vec<String> {
        let start = json.find(&format!("\"{key}\"")).expect(key);
        let open = start + json[start..].find('[').unwrap();
        let close = open + json[open..].find(']').unwrap();
        json[open..close]
            .split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).unwrap().to_string())
            .collect()
    }

    #[test]
    fn names_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let ours = |list: &[(&str, &str)]| -> Vec<String> {
            list.iter().map(|(n, _)| n.to_string()).collect()
        };
        assert_eq!(names_in(json, "end_to_end"), ours(END_TO_END));
        assert_eq!(names_in(json, "per_layer"), ours(PER_LAYER));
        assert_eq!(
            names_in(json, "workloads"),
            crate::WORKLOADS
                .iter()
                .map(|w| w.to_string())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "{name} used twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    }
}
