//! Plain-text reporting helpers: aligned tables, CSV blocks, a small
//! ASCII line chart for per-frame / per-action series, and the
//! median-of-5 statistic the bench binaries report host times by.

use std::fmt::Write as _;

/// The median of five samples of `sample`, each taken separately.
pub fn median_of_5(mut sample: impl FnMut() -> f64) -> f64 {
    let mut samples: Vec<f64> = (0..5).map(|_| sample()).collect();
    samples.sort_by(f64::total_cmp);
    samples[2]
}

/// Render rows as an aligned text table. The first row is the header.
pub fn table(rows: &[Vec<String>]) -> String {
    if rows.is_empty() {
        return String::new();
    }
    let cols = rows.iter().map(Vec::len).max().unwrap_or(0);
    let mut widths = vec![0usize; cols];
    for row in rows {
        for (c, cell) in row.iter().enumerate() {
            widths[c] = widths[c].max(cell.chars().count());
        }
    }
    let mut out = String::new();
    for (i, row) in rows.iter().enumerate() {
        for (c, cell) in row.iter().enumerate() {
            if c > 0 {
                out.push_str("  ");
            }
            let pad = widths[c] - cell.chars().count();
            // Right-align numeric-looking cells, left-align the rest.
            let numeric = cell
                .chars()
                .next()
                .is_some_and(|ch| ch.is_ascii_digit() || ch == '-');
            if numeric && i > 0 {
                for _ in 0..pad {
                    out.push(' ');
                }
                out.push_str(cell);
            } else {
                out.push_str(cell);
                if c + 1 < cols {
                    for _ in 0..pad {
                        out.push(' ');
                    }
                }
            }
        }
        out.push('\n');
        if i == 0 {
            for (c, w) in widths.iter().enumerate() {
                if c > 0 {
                    out.push_str("  ");
                }
                out.extend(std::iter::repeat_n('-', *w));
            }
            out.push('\n');
        }
    }
    out
}

/// Render named series as CSV: header `x,name1,name2,…`, one row per index.
/// Series shorter than the longest are padded with empty cells.
pub fn csv(x_name: &str, series: &[(&str, &[f64])]) -> String {
    let mut out = String::new();
    out.push_str(x_name);
    for (name, _) in series {
        let _ = write!(out, ",{name}");
    }
    out.push('\n');
    let len = series.iter().map(|(_, s)| s.len()).max().unwrap_or(0);
    for i in 0..len {
        let _ = write!(out, "{i}");
        for (_, s) in series {
            match s.get(i) {
                Some(v) => {
                    let _ = write!(out, ",{v:.4}");
                }
                None => out.push(','),
            }
        }
        out.push('\n');
    }
    out
}

/// A small ASCII line chart of one or more series over a shared x axis.
/// Each series is drawn with its glyph; y is auto-scaled to the data.
pub fn chart(series: &[(&[f64], char)], width: usize, height: usize) -> String {
    let all: Vec<f64> = series
        .iter()
        .flat_map(|(s, _)| s.iter().copied())
        .filter(|v| v.is_finite())
        .collect();
    if all.is_empty() || width < 2 || height < 2 {
        return String::new();
    }
    let ymin = all.iter().cloned().fold(f64::MAX, f64::min);
    let ymax = all.iter().cloned().fold(f64::MIN, f64::max);
    let span = (ymax - ymin).max(1e-12);
    let mut grid = vec![vec![' '; width]; height];
    for (s, glyph) in series {
        if s.is_empty() {
            continue;
        }
        for (i, &v) in s.iter().enumerate() {
            if !v.is_finite() {
                continue;
            }
            let col = if s.len() == 1 {
                0
            } else {
                i * (width - 1) / (s.len() - 1)
            };
            let row = ((ymax - v) / span * (height - 1) as f64).round() as usize;
            if row < height && col < width {
                grid[row][col] = *glyph;
            }
        }
    }
    let mut out = String::with_capacity((width + 12) * height);
    for (r, row) in grid.iter().enumerate() {
        let label = if r == 0 {
            format!("{ymax:8.2} |")
        } else if r == height - 1 {
            format!("{ymin:8.2} |")
        } else {
            "         |".to_string()
        };
        out.push_str(&label);
        out.extend(row.iter());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = table(&[
            vec!["name".into(), "value".into()],
            vec!["numeric".into(), "5.70".into()],
            vec!["relaxation".into(), "1.10".into()],
        ]);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[1].starts_with("----"));
        // All data lines have equal width.
        assert_eq!(lines[2].len(), lines[3].len());
        assert!(table(&[]).is_empty());
    }

    #[test]
    fn csv_pads_short_series() {
        let a = [1.0, 2.0];
        let b = [3.0];
        let c = csv("frame", &[("x", &a), ("y", &b)]);
        let lines: Vec<&str> = c.lines().collect();
        assert_eq!(lines[0], "frame,x,y");
        assert_eq!(lines[1], "0,1.0000,3.0000");
        assert_eq!(lines[2], "1,2.0000,");
    }

    #[test]
    fn chart_draws_glyphs_within_bounds() {
        let a = [0.0, 1.0, 2.0, 3.0];
        let b = [3.0, 2.0, 1.0, 0.0];
        let c = chart(&[(&a, '*'), (&b, 'o')], 40, 10);
        assert_eq!(c.lines().count(), 10);
        assert!(c.contains('*') && c.contains('o'));
        assert!(c.contains("3.00") && c.contains("0.00"));
        assert!(chart(&[], 40, 10).is_empty());
    }

    #[test]
    fn chart_handles_constant_series() {
        let a = [5.0, 5.0, 5.0];
        let c = chart(&[(&a, '#')], 20, 5);
        assert!(c.contains('#'));
    }
}
