//! Judging: cells in, Practical Parallelism verdicts out.
//!
//! The judge is a pure function of the cell vectors, so a cached warm
//! sweep reaches exactly the verdicts of the cold one. Cedar's own
//! PPT1–PPT4 inputs are the very vectors `examples/judging_machines`
//! and `cedar-bench`'s PPT4 study compute, so its verdicts here are
//! bit-identical to the existing judgments (held by the facade's
//! `zoo_cedar_identity` test).

use cedar_metrics::ppt::{ppt1, ppt2, ppt3, ppt4, ppt5, PptSummary, ScalabilityPoint};

use crate::cell::{scalability_coords, Workload, ZooCell, HOT_PPMS};
use crate::machine::{Machine, MACHINES};

/// Exceptions granted to every machine's PPT2 stability judgment
/// (the paper's "stable with a small number of exceptions").
pub const PPT2_EXCEPTIONS: usize = 2;

/// One machine's verdict sheet.
#[derive(Debug, Clone)]
pub struct MachineVerdict {
    /// Which machine.
    pub machine: Machine,
    /// The five Practical Parallelism Test verdicts.
    pub summary: PptSummary,
    /// Hotspot bandwidth (requests per CE cycle equivalent) at each
    /// entry of [`HOT_PPMS`].
    pub hotspot_bandwidth: Vec<f64>,
    /// Requests absorbed by combining at each hot fraction (zero for
    /// every machine without combining hardware).
    pub words_combined: Vec<f64>,
}

impl MachineVerdict {
    /// Bandwidth retained at the hottest fraction relative to uniform
    /// traffic — the tree-saturation survival score.
    #[must_use]
    pub fn hotspot_retention(&self) -> f64 {
        let base = self.hotspot_bandwidth[0];
        let hot = *self
            .hotspot_bandwidth
            .last()
            .expect("hotspot sweep is never empty");
        if base > 0.0 {
            hot / base
        } else {
            0.0
        }
    }
}

/// Finds the cell of one (machine, workload) pair.
fn cell(cells: &[ZooCell], machine: Machine, workload: Workload) -> &ZooCell {
    cells
        .iter()
        .find(|c| c.machine == machine.tag() && c.workload == workload.tag())
        .unwrap_or_else(|| panic!("missing cell {}/{}", machine.name(), workload.name()))
}

/// Judges one machine from its four cells.
#[must_use]
pub fn judge_machine(cells: &[ZooCell], machine: Machine, smoke: bool) -> MachineVerdict {
    let compiled = cell(cells, machine, Workload::PerfectCompiled);
    let manual = cell(cells, machine, Workload::PerfectManual);
    let grid = cell(cells, machine, Workload::Scalability);
    let hot = cell(cells, machine, Workload::SyncHotspot);

    let ppt1 = ppt1(&manual.primary, machine.processors());
    let ppt2 = ppt2(&compiled.primary, PPT2_EXCEPTIONS);
    let (portable, best) = compiled.aux.split_at(compiled.aux.len() / 2);
    let ppt3 = ppt3(portable, best);

    let coords = scalability_coords(machine, smoke);
    assert_eq!(coords.len(), grid.primary.len(), "grid layout drifted");
    let points: Vec<ScalabilityPoint> = coords
        .iter()
        .zip(&grid.primary)
        .map(|(&(p, n), &speedup)| ScalabilityPoint {
            processors: p,
            problem_size: n,
            speedup,
        })
        .collect();
    let ppt4 = ppt4(&points, &grid.aux);
    let ppt5 = ppt5(&machine.complexity());

    let n = HOT_PPMS.len();
    let words_combined = if hot.aux.len() == 2 * n {
        hot.aux[n..].to_vec()
    } else {
        vec![0.0; n]
    };
    MachineVerdict {
        machine,
        summary: PptSummary {
            ppt1,
            ppt2,
            ppt3,
            ppt4,
            ppt5,
        },
        hotspot_bandwidth: hot.primary.clone(),
        words_combined,
    }
}

/// Judges the whole zoo, in [`MACHINES`] order.
#[must_use]
pub fn judge(cells: &[ZooCell], smoke: bool) -> Vec<MachineVerdict> {
    MACHINES
        .iter()
        .map(|&m| judge_machine(cells, m, smoke))
        .collect()
}

/// Hot-fraction bandwidth advantage of the combining machine over the
/// plain-omega Cedar: `ultra_bw / cedar_bw` at the hottest swept
/// fraction. Combining earns its keep iff this exceeds 1.
#[must_use]
pub fn combining_gain(verdicts: &[MachineVerdict]) -> f64 {
    let find = |m: Machine| {
        verdicts
            .iter()
            .find(|v| v.machine == m)
            .unwrap_or_else(|| panic!("{} missing from verdicts", m.name()))
    };
    let ultra = find(Machine::Ultra);
    let cedar = find(Machine::Cedar);
    let last = HOT_PPMS.len() - 1;
    ultra.hotspot_bandwidth[last] / cedar.hotspot_bandwidth[last]
}

/// Renders the cross-machine matrix as fixed-width text (the report
/// binary's stdout body).
#[must_use]
pub fn render_report(verdicts: &[MachineVerdict]) -> String {
    let mut out = String::new();
    out.push_str(
        "machine      PPT1 PPT2 PPT3 PPT4 PPT5  passed  eff   In(K,2)  hot-retain  combined\n",
    );
    for v in verdicts {
        let s = &v.summary;
        let mark = |b: bool| if b { "pass" } else { "FAIL" };
        out.push_str(&format!(
            "{:<12} {:<4} {:<4} {:<4} {:<4} {:<4}  {}/5     {:.3} {:>8.1}  {:>9.2}  {:>8.0}\n",
            v.machine.name(),
            mark(s.ppt1.passes),
            mark(s.ppt2.passes),
            mark(s.ppt3.passes),
            mark(!s.ppt4.any_unacceptable && s.ppt4.size_stable),
            mark(s.ppt5.passes),
            s.passed(),
            s.efficiency_score(),
            s.ppt2.report.instability,
            v.hotspot_retention(),
            v.words_combined.iter().sum::<f64>(),
        ));
    }
    let gain = combining_gain(verdicts);
    out.push_str(&format!(
        "\ncombining gain on the hotspot (ultra vs cedar, hottest fraction): {gain:.2}x\n"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::run_cached_on;

    fn smoke_verdicts() -> Vec<MachineVerdict> {
        judge(&run_cached_on(cedar_exec::threads(), None, true), true)
    }

    #[test]
    fn every_machine_gets_all_five_verdicts() {
        let verdicts = smoke_verdicts();
        assert_eq!(verdicts.len(), MACHINES.len());
        for v in &verdicts {
            assert_eq!(v.hotspot_bandwidth.len(), HOT_PPMS.len());
            assert!(v.summary.passed() <= 5);
            assert!(v.summary.efficiency_score() > 0.0);
            assert!(v.summary.efficiency_score() <= 1.0);
        }
    }

    #[test]
    fn combining_beats_plain_cedar_on_the_hotspot() {
        let verdicts = smoke_verdicts();
        assert!(
            combining_gain(&verdicts) > 1.0,
            "the combining network must outrun the plain omega on hot traffic"
        );
    }

    #[test]
    fn only_combining_machines_combine() {
        for v in smoke_verdicts() {
            let combined: f64 = v.words_combined.iter().sum();
            if v.machine == Machine::Ultra {
                assert!(combined > 0.0, "ultra must actually combine");
            } else {
                assert_eq!(combined, 0.0, "{} must not combine", v.machine.name());
            }
        }
    }

    #[test]
    fn uniprocessors_are_stable_but_unjudgeable_on_ppt1() {
        let verdicts = smoke_verdicts();
        let ws = verdicts
            .iter()
            .find(|v| v.machine == Machine::Workstation)
            .expect("workstation is in the zoo");
        // Speedup 1 on 1 processor is High-band by definition.
        assert!(ws.summary.ppt1.passes);
        assert!(ws.summary.ppt2.passes, "the anchor is the stability story");
    }

    #[test]
    fn report_renders_every_machine_and_the_gain() {
        let text = render_report(&smoke_verdicts());
        for m in MACHINES {
            assert!(text.contains(m.name()), "report must mention {}", m.name());
        }
        assert!(text.contains("combining gain"));
    }
}
