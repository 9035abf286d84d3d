//! Rendering helpers for the reproduction harness.
//!
//! The benches and examples print the reproduced tables and figure series as
//! plain text (fixed-width tables and CSV blocks), so the output can be
//! compared against the paper side by side and archived in EXPERIMENTS.md.

use simclock::{Cdf, TimeSeries};

/// Renders a fixed-width text table.
///
/// # Example
///
/// ```
/// use analysis::report::text_table;
///
/// let table = text_table(
///     &["Period", "Sum", "Avg"],
///     &[vec!["P0".into(), "1285513".into(), "196.5".into()]],
/// );
/// assert!(table.contains("Period"));
/// assert!(table.contains("1285513"));
/// ```
pub fn text_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let columns = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(columns) {
            if cell.len() > widths[i] {
                widths[i] = cell.len();
            }
        }
    }
    let mut out = String::new();
    let render_row = |cells: Vec<String>, widths: &[usize]| -> String {
        let padded: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, cell)| {
                format!(
                    "{cell:<width$}",
                    width = widths.get(i).copied().unwrap_or(cell.len())
                )
            })
            .collect();
        format!("| {} |\n", padded.join(" | "))
    };
    out.push_str(&render_row(
        headers.iter().map(|h| h.to_string()).collect(),
        &widths,
    ));
    let separator: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    out.push_str(&format!("|-{}-|\n", separator.join("-|-")));
    for row in rows {
        out.push_str(&render_row(row.clone(), &widths));
    }
    out
}

/// Formats a duration in seconds the way Table II prints it (three decimal
/// places).
pub fn secs(value: f64) -> String {
    format!("{value:.3}")
}

/// Formats a count with thousands separators (`1'285'513` like the paper).
pub fn count(value: usize) -> String {
    let digits: Vec<char> = value.to_string().chars().rev().collect();
    let mut grouped = String::new();
    for (i, c) in digits.iter().enumerate() {
        if i > 0 && i % 3 == 0 {
            grouped.push('\'');
        }
        grouped.push(*c);
    }
    grouped.chars().rev().collect()
}

/// Renders a time series as a CSV block with the given column names.
pub fn timeseries_csv(series: &TimeSeries, x_label: &str, y_label: &str) -> String {
    let mut out = format!("{x_label},{y_label}\n");
    for &(x, y) in series.points() {
        out.push_str(&format!("{x:.1},{y:.1}\n"));
    }
    out
}

/// Renders a CDF evaluated at the given points as a CSV block.
pub fn cdf_csv(cdf: &Cdf, points: &[f64], x_label: &str) -> String {
    let mut out = format!("{x_label},cdf\n");
    for (x, fraction) in cdf.evaluate_at(points) {
        out.push_str(&format!("{x:.1},{fraction:.4}\n"));
    }
    out
}

/// Renders a simple horizontal ASCII bar chart for histogram-like data
/// (used to eyeball Fig. 3 / Fig. 4 in terminal output).
pub fn bar_chart(entries: &[(String, u64)], max_width: usize) -> String {
    let max_value = entries.iter().map(|(_, v)| *v).max().unwrap_or(1).max(1);
    let label_width = entries.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (label, value) in entries {
        let bar_len = ((*value as f64 / max_value as f64) * max_width as f64).round() as usize;
        out.push_str(&format!(
            "{label:<label_width$} | {} {}\n",
            "#".repeat(bar_len.max(usize::from(*value > 0))),
            count(*value as usize)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_table_aligns_columns() {
        let table = text_table(
            &["a", "long-header"],
            &[
                vec!["x".into(), "1".into()],
                vec!["yyyyyy".into(), "22".into()],
            ],
        );
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines have the same width.
        assert!(lines.windows(2).all(|w| w[0].len() == w[1].len()));
        assert!(lines[0].contains("long-header"));
    }

    #[test]
    fn count_groups_thousands_like_the_paper() {
        assert_eq!(count(0), "0");
        assert_eq!(count(999), "999");
        assert_eq!(count(1_285_513), "1'285'513");
        assert_eq!(count(42_038), "42'038");
    }

    #[test]
    fn secs_has_three_decimals() {
        assert_eq!(secs(196.556), "196.556");
        assert_eq!(secs(3883.8283), "3883.828");
    }

    #[test]
    fn csv_renderers_produce_headers_and_rows() {
        let series: TimeSeries = vec![(0.0, 1.0), (30.0, 5.0)].into_iter().collect();
        let csv = timeseries_csv(&series, "time_s", "conns");
        assert!(csv.starts_with("time_s,conns\n"));
        assert_eq!(csv.lines().count(), 3);

        let cdf = Cdf::from_samples(&[1.0, 2.0, 3.0]);
        let csv = cdf_csv(&cdf, &[1.0, 2.0, 3.0], "duration_s");
        assert!(csv.starts_with("duration_s,cdf\n"));
        assert!(csv.trim_end().ends_with("1.0000"));
    }

    #[test]
    fn bar_chart_scales_to_max_width() {
        let chart = bar_chart(&[("a".into(), 100), ("b".into(), 50), ("c".into(), 0)], 20);
        let lines: Vec<&str> = chart.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].matches('#').count() >= lines[1].matches('#').count());
        assert_eq!(lines[2].matches('#').count(), 0);
    }
}
