//! Figure 3: Cray YMP/8 vs Cedar efficiency scatter for the manually
//! optimized Perfect codes, with the U/I/H band boundaries.

use cedar_baselines::ymp;
use cedar_metrics::bands::{classify_efficiency, PerfBand};
use cedar_perfect::manual::{fig3_cedar_efficiencies, fig3_width};
use cedar_perfect::model::ExecutionModel;

use crate::paper_machine;

/// One scatter point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// Code name.
    pub name: &'static str,
    /// Cedar efficiency (horizontal axis).
    pub cedar: f64,
    /// YMP/8 efficiency (vertical axis).
    pub ymp: f64,
    /// Cedar band.
    pub cedar_band: PerfBand,
    /// YMP band.
    pub ymp_band: PerfBand,
}

/// Regenerates the scatter data: one shared calibration, then the
/// per-code lookups fan out over [`cedar_exec::run_sweep_on`].
#[must_use]
pub fn run() -> Vec<Point> {
    let mut sys = paper_machine();
    let model = ExecutionModel::calibrate(&mut sys);
    cedar_exec::run_sweep_on(
        cedar_exec::threads(),
        fig3_cedar_efficiencies(&model),
        |c| {
            let y = ymp::FIG3_EFFICIENCIES
                .iter()
                .find(|e| e.name == c.name)
                .expect("every code has a YMP point");
            Point {
                name: c.name,
                cedar: c.efficiency,
                ymp: y.efficiency,
                cedar_band: classify_efficiency(c.efficiency, fig3_width(c.name)),
                ymp_band: classify_efficiency(y.efficiency, 8),
            }
        },
    )
}

/// Renders the data as a CSV-ish listing plus an ASCII scatter.
/// Deterministic: every run yields this exact string, byte for byte.
#[must_use]
pub fn report() -> String {
    use std::fmt::Write;

    let points = run();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 3: Cray YMP/8 vs Cedar efficiency (manually optimized Perfect codes)"
    );
    let _ = writeln!(
        out,
        "{:8} {:>9} {:>13} {:>9} {:>13}",
        "code", "cedar", "band", "ymp", "band"
    );
    for p in &points {
        let _ = writeln!(
            out,
            "{:8} {:>9.3} {:>13} {:>9.3} {:>13}",
            p.name,
            p.cedar,
            p.cedar_band.to_string(),
            p.ymp,
            p.ymp_band.to_string()
        );
    }

    // ASCII scatter: 21 rows (YMP eff 1.0 -> 0.0), 41 cols (Cedar eff).
    let rows = 21usize;
    let cols = 41usize;
    let mut grid = vec![vec![' '; cols]; rows];
    for p in &points {
        let col = ((p.cedar * (cols - 1) as f64).round() as usize).min(cols - 1);
        let row = rows - 1 - ((p.ymp * (rows - 1) as f64).round() as usize).min(rows - 1);
        grid[row][col] = match grid[row][col] {
            ' ' => p.name.chars().next().unwrap_or('?'),
            _ => '*',
        };
    }
    let _ = writeln!(out, "\nYMP eff");
    for (i, line) in grid.iter().enumerate() {
        let y = 1.0 - i as f64 / (rows - 1) as f64;
        let s: String = line.iter().collect();
        let _ = writeln!(out, "{y:4.1} |{s}|");
    }
    let _ = writeln!(out, "      0.0 {:^31} 1.0", "Cedar efficiency");
    let high = points
        .iter()
        .filter(|p| p.cedar_band == PerfBand::High)
        .count();
    let unacc_cedar = points
        .iter()
        .filter(|p| p.cedar_band == PerfBand::Unacceptable)
        .count();
    let unacc_ymp = points
        .iter()
        .filter(|p| p.ymp_band == PerfBand::Unacceptable)
        .count();
    let _ = writeln!(
        out,
        "\nCedar: {high} high, {} intermediate, {unacc_cedar} unacceptable  (paper: ~1/4 high, rest intermediate, none unacceptable)",
        points.len() - high - unacc_cedar
    );
    let _ = writeln!(
        out,
        "YMP: {} high, {} intermediate, {unacc_ymp} unacceptable  (paper: ~half high, half intermediate, one unacceptable)",
        points.iter().filter(|p| p.ymp_band == PerfBand::High).count(),
        points
            .iter()
            .filter(|p| p.ymp_band == PerfBand::Intermediate)
            .count()
    );
    out
}

/// Prints the data.
pub fn print() {
    print!("{}", report());
}
