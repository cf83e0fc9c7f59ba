//! The metric catalogue and the one JSON line a run ends with.
//!
//! Every workload reports every end-to-end metric (untraced run) or every
//! per-layer metric (traced run). A per-layer metric of a layer the
//! workload does not exercise reads 0.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: name and unit.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("fit_s", "s"),
    ("auc_pct", "%"),
    ("p50_ms", "ms"),
];

/// Per-layer metrics: name and unit. `client.p99_ms` is the end-to-end
/// p99 latency, kept out of the gated list because its run-to-run spread
/// on a shared 2-core host exceeds any allowed bound.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("core.search_s", "s"),
    ("core.contrast_evals", "count"),
    ("core.slice_draws", "count"),
    ("core.levels", "count"),
    ("core.slice_draw_ns", "ns"),
    ("stats.test_ns", "ns"),
    ("outlier.index_build_s", "s"),
    ("data.save_s", "s"),
    ("outlier.precompute_s", "s"),
    ("outlier.precompute_knn_queries", "count"),
    ("data.artifact_open_ms", "ms"),
    ("outlier.hoods_load_ms", "ms"),
    ("outlier.engine_build_ms", "ms"),
    ("outlier.engine_build_hoods_ms", "ms"),
    ("outlier.hoods_adopted", "bool"),
    ("outlier.score_us_per_point", "us"),
    ("outlier.index_queries_per_point", "count"),
    ("outlier.shard_score_us", "us"),
    ("serve.stage.head_parse_us_mean", "us"),
    ("serve.stage.head_parse_us_p99", "us"),
    ("serve.stage.body_us_mean", "us"),
    ("serve.stage.body_us_p99", "us"),
    ("serve.stage.enqueue_us_mean", "us"),
    ("serve.stage.enqueue_us_p99", "us"),
    ("serve.stage.score_us_mean", "us"),
    ("serve.stage.score_us_p99", "us"),
    ("serve.stage.flush_us_mean", "us"),
    ("serve.stage.flush_us_p99", "us"),
    ("serve.queue_wait_us", "us"),
    ("serve.batch_score_us", "us"),
    ("serve.batch_size_mean", "count"),
    ("serve.coalesced_ratio", "ratio"),
    ("serve.wakeups_per_req", "count"),
    ("serve.backpressure_stalls", "count"),
    ("serve.cpu_us_per_req", "us"),
    ("route.upstream_us.shard0", "us"),
    ("route.upstream_us.shard1", "us"),
    ("route.overhead_us", "us"),
    ("route.hedges_per_req", "ratio"),
    ("route.hedge_win_ratio", "ratio"),
    ("route.retries_per_req", "ratio"),
    ("route.threads_peak", "count"),
    ("route.cpu_us_per_req", "us"),
    ("client.lag_ms_p99", "ms"),
    ("client.p99_ms", "ms"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.fit_accounted_pct", "%"),
    ("bench.setup_accounted_pct", "%"),
];

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (fits, scored points, requests, stream lines).
    pub attempted: u64,
    /// Operations that failed, output mismatches included.
    pub failed: u64,
    /// Output mismatches: a served or fitted result that differs from the
    /// in-process reference.
    pub mismatches: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Shape, checksums, rates, limits and thread counts: what must match
    /// before two runs may be compared.
    pub fingerprint: Vec<(&'static str, String)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, key: &'static str, value: impl ToString) {
        self.fingerprint.push((key, value.to_string()));
    }

    /// Records one checked operation.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Records one output check; a mismatch is also a failed operation.
    pub fn check(&mut self, matches: bool) {
        self.op(matches);
        if !matches {
            self.mismatches += 1;
        }
    }

    /// The fingerprint as one JSON object.
    pub fn fingerprint_json(&self) -> String {
        let mut s = String::from("{");
        for (i, (k, v)) in self.fingerprint.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            hics_serve::json::escape_string(&mut s, k);
            s.push_str(": ");
            hics_serve::json::escape_string(&mut s, v);
        }
        s.push('}');
        s
    }

    /// The result line: every metric of `catalogue`, in order.
    pub fn result_json(&self, catalogue: &[(&'static str, &'static str)]) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.mismatches == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        );
        for (i, (name, unit)) in catalogue.iter().enumerate() {
            let value = self.metrics.get(name).copied().unwrap_or(0.0);
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hics_serve::json::{parse, Json};

    /// The catalogue here and the one in `BENCHMARK.json` are the same
    /// metrics, in the same order, with the same units.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = parse(text).expect("BENCHMARK.json parses");
        for (key, catalogue) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = catalogue
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
    }

    #[test]
    fn result_line_lists_every_metric_with_full_digits() {
        let mut o = Outcome::default();
        o.check(true);
        o.check(false);
        o.set("setup_s", 0.123456789);
        let line = o.result_json(&END_TO_END);
        let doc = parse(&line).expect("result line is JSON");
        assert_eq!(doc.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(doc.get("attempted").and_then(Json::as_f64), Some(2.0));
        assert_eq!(doc.get("failed").and_then(Json::as_f64), Some(1.0));
        let metrics = doc.get("metrics").expect("metrics");
        let setup = metrics.get("setup_s").expect("setup_s");
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(0.123456789));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
        assert!(END_TO_END.iter().all(|(n, _)| metrics.get(n).is_some()));
    }
}
