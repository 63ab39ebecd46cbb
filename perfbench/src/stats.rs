//! Order statistics, process memory readings and JSON number formatting.

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN value.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 1) of `values`, or `None` when
/// fewer than `min_beyond` samples lie strictly above the reported rank.
pub fn percentile(values: &[f64], p: f64, min_beyond: usize) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    (v.len() - rank >= min_beyond).then(|| v[rank - 1])
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    let logs: f64 = values.iter().map(|v| v.ln()).sum();
    (logs / values.len() as f64).exp()
}

/// Peak resident set (`VmHWM`) in MB of this process (`pid = None`) or of
/// a child process, read from procfs. Returns 0 where procfs is missing.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A finite JSON number with every digit `f64` carries (`{:?}` prints the
/// shortest round-tripping form); non-finite values become 0.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Escapes a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9, 10), Some(90.0));
        assert_eq!(percentile(&v, 0.9, 11), None);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn json_numbers_keep_their_digits() {
        assert_eq!(json_num(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_num(f64::NAN), "0.0");
        assert_eq!(json_str("a\"b\n"), "\"a\\\"b\\n\"");
    }
}
