//! Deterministic text renderers shared by the `hawkeye-analyze` CLI and
//! the `hawkeye-report` pipeline.
//!
//! Everything here maps numbers to fixed-width ASCII/Unicode strings with
//! no locale, wall-clock, or float-formatting ambiguity: the same inputs
//! always yield the same bytes, which is what lets REPORT.md be golden-
//! file tested (DESIGN.md §12).

use hawkeye_metrics::LogHistogram;
use std::borrow::Borrow;

/// Width (in characters) of a full [`bar`].
pub const BAR_WIDTH: usize = 40;

/// A proportional `#` bar: `frac` in `[0, 1]` maps to 0..=[`BAR_WIDTH`]
/// characters (values outside the range clamp).
pub fn bar(frac: f64) -> String {
    let n = (frac * BAR_WIDTH as f64).round().clamp(0.0, BAR_WIDTH as f64) as usize;
    "#".repeat(n)
}

/// Appends one cycle-ledger line: label, raw cycles, percentage of
/// `total`, and a proportional bar. `total == 0` renders as 0%.
pub fn pct_line(out: &mut String, label: &str, cycles: u64, total: u64) {
    let frac = if total == 0 { 0.0 } else { cycles as f64 / total as f64 };
    out.push_str(&format!(
        "    {label:<8} {cycles:>16}  {:>6.2}%  |{}\n",
        frac * 100.0,
        bar(frac)
    ));
}

/// Appends one histogram summary line (count, p50/p90/p99, max), or a
/// `(no events)` placeholder for an empty histogram.
pub fn hist_line(out: &mut String, label: &str, h: &LogHistogram) {
    if h.count() == 0 {
        out.push_str(&format!("    {label:<14} (no events)\n"));
        return;
    }
    out.push_str(&format!(
        "    {label:<14} n={:<8} p50={:<12} p90={:<12} p99={:<12} max={}\n",
        h.count(),
        h.percentile(50.0),
        h.percentile(90.0),
        h.percentile(99.0),
        h.max(),
    ));
}

/// Appends a markdown table: a header row, the `---|` rule, then one
/// row per entry of `rows`.
pub fn table<H: Borrow<str>>(out: &mut String, headers: &[H], rows: &[Vec<String>]) {
    out.push_str(&format!("| {} |\n", headers.join(" | ")));
    out.push_str(&format!("|{}\n", "---|".repeat(headers.len())));
    for cells in rows {
        out.push_str(&format!("| {} |\n", cells.join(" | ")));
    }
}

/// Renders `values` as a fixed-alphabet sparkline (`▁▂▃▄▅▆▇█`), scaled
/// so the maximum value is a full block. All-zero (or empty) input
/// renders every cell as the lowest block, so the string length always
/// equals `values.len()`.
pub fn sparkline(values: &[f64]) -> String {
    const RAMP: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().cloned().fold(0.0f64, f64::max);
    values
        .iter()
        .map(|&v| {
            if max <= 0.0 || v <= 0.0 {
                RAMP[0]
            } else {
                let idx = (v / max * 7.0).round().clamp(0.0, 7.0) as usize;
                RAMP[idx]
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bar_clamps_and_scales() {
        assert_eq!(bar(0.0), "");
        assert_eq!(bar(1.0).len(), BAR_WIDTH);
        assert_eq!(bar(2.0).len(), BAR_WIDTH, "clamped above");
        assert_eq!(bar(-1.0), "", "clamped below");
        assert_eq!(bar(0.5).len(), BAR_WIDTH / 2);
    }

    #[test]
    fn sparkline_scales_to_max_and_handles_zeroes() {
        let s = sparkline(&[0.0, 1.0, 2.0, 4.0]);
        assert_eq!(s.chars().count(), 4);
        assert!(s.ends_with('█'));
        assert!(s.starts_with('▁'));
        assert_eq!(sparkline(&[0.0, 0.0]), "▁▁");
        assert_eq!(sparkline(&[]), "");
    }

    #[test]
    fn pct_line_zero_total_is_zero_percent() {
        let mut out = String::new();
        pct_line(&mut out, "walk", 5, 0);
        assert!(out.contains("0.00%"), "{out}");
    }
}
