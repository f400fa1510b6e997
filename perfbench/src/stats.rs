//! Order statistics and the metric record every workload reports.

use std::fmt::Write as _;

/// The `q`-quantile of `values` (linear interpolation between order
/// statistics); `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The highest of p99/p95/p90/p75/p50 that has at least ten samples
/// beyond it, with its value; `None` below twenty samples.
pub fn tail(values: &[f64]) -> Option<(u32, f64)> {
    [99u32, 95, 90, 75, 50].into_iter().find_map(|p| {
        let beyond = values.len() as f64 * (100 - p) as f64 / 100.0;
        (beyond >= 10.0).then(|| (p, quantile(values, p as f64 / 100.0)))
    })
}

/// One reported number: a median over `samples` measurements, with the
/// tail percentile when there are enough samples for one.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
    pub tail: Option<(u32, f64)>,
    /// The raw samples, kept in the per-run result file.
    pub values: Vec<f64>,
}

impl Metric {
    /// The median of `values`, with its tail percentile.
    pub fn from_samples(name: &str, unit: &'static str, values: &[f64]) -> Self {
        Metric {
            name: name.to_string(),
            unit,
            value: median(values),
            samples: values.len(),
            tail: tail(values),
            values: values.to_vec(),
        }
    }

    /// `setup_s`, in seconds: the mean of the run's set-ups. A set-up is
    /// short enough to land wholly in one state of a shared host, and the
    /// states are about 1.6× apart, so the median and the low percentiles
    /// flip between them from run to run; the mean over set-ups spread
    /// across the run weighs the states as the rest of the run meets them.
    pub fn setup_s(values: &[f64]) -> Self {
        Metric {
            value: values.iter().sum::<f64>() / values.len().max(1) as f64,
            ..Metric::from_samples("setup_s", "s", values)
        }
    }

    /// A single number (a count, a ratio or a derived quantity).
    pub fn single(name: &str, unit: &'static str, value: f64, samples: usize) -> Self {
        Metric {
            name: name.to_string(),
            unit,
            value,
            samples,
            tail: None,
            values: Vec::new(),
        }
    }
}

/// Renders metrics as a JSON object keyed by name.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{}\":{{\"value\":{},\"unit\":\"{}\",\"samples\":{}",
            m.name,
            json_number(m.value),
            m.unit,
            m.samples
        );
        if let Some((p, v)) = m.tail {
            let _ = write!(out, ",\"tail\":{{\"p\":{p},\"value\":{}}}", json_number(v));
        }
        if !m.values.is_empty() {
            let values: Vec<String> = m.values.iter().map(|&v| json_number(v)).collect();
            let _ = write!(out, ",\"values\":[{}]", values.join(","));
        }
        out.push('}');
    }
    out.push('}');
    out
}

/// A JSON number with all its digits; non-finite values become `null`.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// A quoted, escaped JSON string.
pub fn json_string(s: &str) -> String {
    format!("\"{}\"", noisy_serve::http::json_escape(s))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_and_tails_need_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.5);
        assert_eq!(tail(&v).map(|t| t.0), Some(90));
        assert_eq!(tail(&v[..19]), None);
        assert_eq!(tail(&v[..40]).map(|t| t.0), Some(75));
    }
}
