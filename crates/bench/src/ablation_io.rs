//! The BDNA I/O ablation (§4.2).
//!
//! "The execution time for BDNA is reduced to 70 secs. by simply
//! replacing formatted with unformatted I/O." The automatable BDNA
//! runs 111 s; the 41 s gap is almost entirely ASCII conversion on the
//! interactive processors. This ablation reconstructs BDNA's I/O
//! volume from that gap and replays it through the Xylem I/O model
//! both ways.

use cedar_runtime::io::{IoSubsystem, RecordFormat};

/// BDNA's published automatable and hand-optimized times, seconds.
pub const BDNA_AUTO_S: f64 = 111.0;
/// The manual (unformatted-I/O) time.
pub const BDNA_MANUAL_S: f64 = 70.0;

/// The ablation outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IoAblation {
    /// Words of trajectory output inferred from the published gap.
    pub words: u64,
    /// IP seconds spent with formatted records.
    pub formatted_seconds: f64,
    /// IP seconds spent with unformatted records.
    pub unformatted_seconds: f64,
    /// Whole-application time with formatted I/O.
    pub app_formatted_s: f64,
    /// Whole-application time with unformatted I/O.
    pub app_unformatted_s: f64,
}

/// Reconstructs the volume and replays both encodings, one arm per
/// record format over [`cedar_exec::run_sweep_on`].
#[must_use]
pub fn run() -> IoAblation {
    let probe = IoSubsystem::new();
    // Invert the published gap for the output volume.
    let gap = BDNA_AUTO_S - BDNA_MANUAL_S;
    let per_word_gap = probe.reformat_savings_seconds(1);
    let words = (gap / per_word_gap).round() as u64;

    let arms = cedar_exec::run_sweep_on(
        cedar_exec::threads(),
        vec![RecordFormat::Formatted, RecordFormat::Unformatted],
        |format| IoSubsystem::new().transfer(format, words),
    );
    let (f, u) = (arms[0], arms[1]);

    let compute = BDNA_AUTO_S - f.seconds;
    IoAblation {
        words,
        formatted_seconds: f.seconds,
        unformatted_seconds: u.seconds,
        app_formatted_s: compute + f.seconds,
        app_unformatted_s: compute + u.seconds,
    }
}

/// Prints the ablation.
pub fn print() {
    let a = run();
    println!("BDNA I/O ablation (Xylem file service through the IPs)");
    println!(
        "inferred trajectory output: {:.1} M words",
        a.words as f64 / 1e6
    );
    println!(
        "formatted:   {:6.1} s of IP conversion -> application {:6.1} s (paper: 111 s)",
        a.formatted_seconds, a.app_formatted_s
    );
    println!(
        "unformatted: {:6.1} s of block I/O     -> application {:6.1} s (paper:  70 s)",
        a.unformatted_seconds, a.app_unformatted_s
    );
    println!(
        "improvement: {:.2}x from changing one WRITE statement (paper: 1.7x)",
        a.app_formatted_s / a.app_unformatted_s
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replaying_the_volume_reproduces_both_times() {
        let a = run();
        assert!((a.app_formatted_s - BDNA_AUTO_S).abs() < 0.5);
        assert!((a.app_unformatted_s - BDNA_MANUAL_S).abs() < 3.0);
    }

    #[test]
    fn inferred_volume_is_physically_plausible() {
        // A biomolecular trajectory dump of a couple of million words
        // (tens of MB) is the right order for BDNA's data set.
        let a = run();
        assert!(
            (500_000..10_000_000).contains(&a.words),
            "inferred {} words",
            a.words
        );
    }

    #[test]
    fn improvement_matches_table4() {
        let a = run();
        let improvement = a.app_formatted_s / a.app_unformatted_s;
        assert!(
            (1.5..1.9).contains(&improvement),
            "paper prints 1.7, got {improvement:.2}"
        );
    }
}
