//! ASCII renderings for the figure regenerators.
//!
//! The paper's figures are regenerated as terminal plots plus CSV series so
//! that results can be checked visually (shape) and numerically (data).

use crate::hist::Histogram2d;

/// Renders an x/y polyline as an ASCII scatter over a `width × height` grid.
///
/// Multiple series are rendered with distinct glyphs; later series overwrite
/// earlier ones where they collide.
pub fn plot_lines(series: &[(&str, &[(f64, f64)])], width: usize, height: usize) -> String {
    assert!(width >= 8 && height >= 4, "plot too small");
    let all: Vec<(f64, f64)> = series
        .iter()
        .flat_map(|(_, pts)| pts.iter().copied())
        .collect();
    if all.is_empty() {
        return String::from("(no data)\n");
    }
    let (mut x_lo, mut x_hi) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut y_lo, mut y_hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for (x, y) in &all {
        x_lo = x_lo.min(*x);
        x_hi = x_hi.max(*x);
        y_lo = y_lo.min(*y);
        y_hi = y_hi.max(*y);
    }
    if x_lo == x_hi {
        x_hi = x_lo + 1.0;
    }
    if y_lo == y_hi {
        y_hi = y_lo + 1.0;
    }
    const GLYPHS: &[char] = &['A', 'B', 'C', 'D', 'E', 'F', '*', '+'];
    let mut grid = vec![vec![' '; width]; height];
    for (si, (_, pts)) in series.iter().enumerate() {
        let glyph = GLYPHS[si % GLYPHS.len()];
        for (x, y) in pts.iter() {
            let cx = (((x - x_lo) / (x_hi - x_lo)) * (width - 1) as f64).round() as usize;
            // Screen y grows downward; data y grows upward.
            let cy = (((y - y_lo) / (y_hi - y_lo)) * (height - 1) as f64).round() as usize;
            let cy = height - 1 - cy.min(height - 1);
            grid[cy][cx.min(width - 1)] = glyph;
        }
    }
    let mut out = String::new();
    for row in grid {
        out.push('|');
        out.extend(row);
        out.push('\n');
    }
    out.push('+');
    out.extend(std::iter::repeat('-').take(width));
    out.push('\n');
    let mut legend = String::new();
    for (si, (name, _)) in series.iter().enumerate() {
        legend.push_str(&format!("  {} = {}", GLYPHS[si % GLYPHS.len()], name));
    }
    out.push_str(&legend);
    out.push('\n');
    out
}

/// Renders a 2-D histogram as an ASCII density map (darker glyph = denser).
pub fn plot_density(hist: &Histogram2d) -> String {
    const SHADES: &[char] = &[' ', '.', ':', '+', '*', '#', '@'];
    let max = hist.max_cell().max(1) as f64;
    let mut out = String::new();
    for iy in (0..hist.ny()).rev() {
        out.push('|');
        for ix in 0..hist.nx() {
            let v = hist.cell(ix, iy) as f64 / max;
            let idx = (v * (SHADES.len() - 1) as f64).round() as usize;
            out.push(SHADES[idx.min(SHADES.len() - 1)]);
        }
        out.push('\n');
    }
    out.push('+');
    out.extend(std::iter::repeat('-').take(hist.nx()));
    out.push('\n');
    out
}

/// Renders a horizontal bar chart of labelled counts.
pub fn bar_chart(rows: &[(String, u64)], max_width: usize) -> String {
    let max = rows.iter().map(|(_, v)| *v).max().unwrap_or(0).max(1);
    let label_w = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (label, v) in rows {
        let w = ((*v as f64 / max as f64) * max_width as f64).round() as usize;
        out.push_str(&format!(
            "{label:<label_w$} | {bar} {v}\n",
            bar = "#".repeat(w)
        ));
    }
    out
}

/// Formats a table with aligned columns: `header` then `rows`.
pub fn format_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row arity mismatch");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    // Cells are padded to their column's width, except that a line never
    // ends in padding.
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let cells: Vec<String> = cells
            .iter()
            .zip(widths)
            .map(|(cell, w)| format!("{cell:<w$}"))
            .collect();
        let line = cells.join("  ");
        format!("{}\n", line.trim_end())
    };
    out.push_str(&fmt_row(
        &header.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        &widths,
    ));
    out.push_str(&format!(
        "{}\n",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1))
    ));
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::Histogram2d;

    #[test]
    fn plot_lines_contains_glyphs_and_legend() {
        let a = [(0.0, 0.0), (1.0, 1.0)];
        let b = [(0.0, 1.0), (1.0, 0.0)];
        let s = plot_lines(&[("up", &a), ("down", &b)], 20, 10);
        assert!(s.contains('A'));
        assert!(s.contains('B'));
        assert!(s.contains("A = up"));
        assert!(s.contains("B = down"));
    }

    #[test]
    fn plot_lines_empty() {
        let s = plot_lines(&[("e", &[])], 20, 10);
        assert!(s.contains("no data"));
    }

    #[test]
    fn density_renders_grid() {
        let mut h = Histogram2d::new(0.0, 2.0, 0.0, 2.0, 2, 2);
        h.add(0.5, 0.5);
        let s = plot_density(&h);
        assert_eq!(s.lines().count(), 3); // 2 rows + axis
        assert!(s.contains('@'));
    }

    #[test]
    fn bar_chart_scales() {
        let rows = vec![("a".to_string(), 10), ("b".to_string(), 5)];
        let s = bar_chart(&rows, 10);
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[0].matches('#').count() > lines[1].matches('#').count());
    }

    #[test]
    fn table_aligns_columns() {
        let s = format_table(
            &["name", "n"],
            &[
                vec!["alpha".into(), "1".into()],
                vec!["b".into(), "22".into()],
            ],
        );
        assert!(s.contains("name"));
        assert!(s.lines().count() == 4);
        assert!(
            s.lines().all(|l| !l.ends_with(' ')),
            "trailing padding:\n{s:?}"
        );
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn table_rejects_ragged_rows() {
        let _ = format_table(&["a", "b"], &[vec!["x".into()]]);
    }
}
