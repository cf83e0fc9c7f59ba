//! Prometheus text exposition, read as deltas.
//!
//! The servers' `/metrics` counters and summary `_sum`/`_count` series are
//! cumulative since process start, so a measured window is the difference
//! of a scrape taken after it and one taken before it. Summary quantile
//! series (`{quantile="0.99"}`) are cumulative snapshots and cannot be
//! differenced; [`Scrape::get`] on the *after* scrape reads them, which is
//! the window's value when the window dominates the server's lifetime.

use std::collections::BTreeMap;

/// One scrape: series key (`name` or `name{labels}`, exactly as exposed) to
/// value.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scrape {
    series: BTreeMap<String, f64>,
}

impl Scrape {
    /// Parses an exposition. Comment and blank lines are skipped; any other
    /// line must be `<series> <value>`.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut series = BTreeMap::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .rsplit_once(' ')
                .ok_or_else(|| format!("line {}: no value in {line:?}", i + 1))?;
            let value: f64 = value
                .parse()
                .map_err(|_| format!("line {}: bad value in {line:?}", i + 1))?;
            series.insert(key.trim().to_string(), value);
        }
        Ok(Self { series })
    }

    /// `after − before` for every series of `after` (a series missing
    /// before counts from 0). Meaningful for counters and `_sum`/`_count`.
    pub fn delta(before: &Scrape, after: &Scrape) -> Scrape {
        let series = after
            .series
            .iter()
            .map(|(k, v)| (k.clone(), v - before.series.get(k).copied().unwrap_or(0.0)))
            .collect();
        Scrape { series }
    }

    /// One series by its exact key; 0 when absent.
    pub fn get(&self, key: &str) -> f64 {
        self.series.get(key).copied().unwrap_or(0.0)
    }

    /// Sum over every label variant of metric `name` (quantile series
    /// excluded).
    pub fn sum(&self, name: &str) -> f64 {
        self.series
            .iter()
            .filter(|(k, _)| metric_name(k) == name && !k.contains("quantile=\""))
            .map(|(_, v)| v)
            .sum()
    }

    /// Mean of a summary over the scrape: `Δ_sum / Δ_count` on a delta,
    /// for the variant with exactly `labels` (`""` for none, else
    /// `stage="score"`). 0 when the summary saw nothing.
    pub fn summary_mean(&self, name: &str, labels: &str) -> f64 {
        let count = self.get(&series_key(&format!("{name}_count"), labels));
        if count <= 0.0 {
            return 0.0;
        }
        self.get(&series_key(&format!("{name}_sum"), labels)) / count
    }

    /// A summary's quantile series (`q` as exposed, e.g. `0.99`) for the
    /// variant with `labels`.
    pub fn quantile(&self, name: &str, labels: &str, q: &str) -> f64 {
        let labels = if labels.is_empty() {
            format!("quantile=\"{q}\"")
        } else {
            format!("{labels},quantile=\"{q}\"")
        };
        self.get(&series_key(name, &labels))
    }
}

/// The metric name of a series key (the part before `{`).
fn metric_name(key: &str) -> &str {
    key.split_once('{').map_or(key, |(name, _)| name)
}

/// `name{labels}`, or bare `name` when `labels` is empty.
fn series_key(name: &str, labels: &str) -> String {
    if labels.is_empty() {
        name.to_string()
    } else {
        format!("{name}{{{labels}}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BEFORE: &str = "\
# HELP hics_requests_total Requests.
# TYPE hics_requests_total counter
hics_requests_total 10
hics_reactor_wakeups_total{reactor=\"0\"} 5
hics_reactor_wakeups_total{reactor=\"1\"} 7
hics_request_stage_seconds{stage=\"score\",quantile=\"0.99\"} 0.004
hics_request_stage_seconds_sum{stage=\"score\"} 0.01
hics_request_stage_seconds_count{stage=\"score\"} 10
";

    const AFTER: &str = "\
hics_requests_total 110
hics_reactor_wakeups_total{reactor=\"0\"} 105
hics_reactor_wakeups_total{reactor=\"1\"} 57
hics_request_stage_seconds{stage=\"score\",quantile=\"0.99\"} 0.002
hics_request_stage_seconds_sum{stage=\"score\"} 0.21
hics_request_stage_seconds_count{stage=\"score\"} 110
hics_connections_shed_total 0
";

    #[test]
    fn counters_and_summaries_difference_over_the_window() {
        let before = Scrape::parse(BEFORE).unwrap();
        let after = Scrape::parse(AFTER).unwrap();
        let d = Scrape::delta(&before, &after);
        assert_eq!(d.get("hics_requests_total"), 100.0);
        assert_eq!(d.sum("hics_reactor_wakeups_total"), 150.0);
        let mean = d.summary_mean("hics_request_stage_seconds", "stage=\"score\"");
        assert!((mean - 0.002).abs() < 1e-12, "{mean}");
        // Quantiles are snapshots: read from the after scrape.
        assert_eq!(
            after.quantile("hics_request_stage_seconds", "stage=\"score\"", "0.99"),
            0.002
        );
    }

    #[test]
    fn series_new_in_the_window_count_from_zero_and_absent_ones_read_zero() {
        let d = Scrape::delta(
            &Scrape::parse(BEFORE).unwrap(),
            &Scrape::parse(AFTER).unwrap(),
        );
        assert_eq!(d.get("hics_connections_shed_total"), 0.0);
        assert_eq!(d.get("hics_not_exposed_total"), 0.0);
        assert_eq!(d.summary_mean("hics_batch_score_seconds", ""), 0.0);
    }

    #[test]
    fn sums_skip_quantile_series() {
        let s = Scrape::parse(AFTER).unwrap();
        assert_eq!(s.sum("hics_request_stage_seconds"), 0.0);
        assert_eq!(s.sum("hics_request_stage_seconds_count"), 110.0);
    }

    #[test]
    fn malformed_lines_are_errors() {
        assert!(Scrape::parse("hics_requests_total").is_err());
        assert!(Scrape::parse("hics_requests_total ten").is_err());
        assert_eq!(
            Scrape::parse("\n# only comments\n").unwrap(),
            Scrape::default()
        );
    }
}
