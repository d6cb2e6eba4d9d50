//! In-memory spans recorded around calls into the program's layers,
//! written out once when the run ends.
//!
//! Spans are taken only by the benchmark's own code, around the public
//! functions it calls; nothing inside the program is instrumented. A
//! span names its layer by the prefix before the first `.`
//! (`net.run` belongs to `net`), and carries the id of the point or
//! request it served plus the name of the span that caused it.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Point or request id, shared by every span of that unit of work.
    pub id: u64,
    pub name: &'static str,
    /// The enclosing span's name, if any.
    pub parent: Option<&'static str>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    #[must_use]
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    #[must_use]
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// A span buffer with a shared clock. Worker threads each fill their
/// own and the caller merges them.
#[derive(Debug, Clone)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    #[must_use]
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    /// A fresh buffer on the same clock.
    #[must_use]
    pub fn fork(&self) -> Self {
        Tracer::new(self.epoch)
    }

    #[must_use]
    pub fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn record(
        &mut self,
        id: u64,
        name: &'static str,
        parent: Option<&'static str>,
        start_ns: u64,
        end_ns: u64,
    ) {
        self.spans.push(Span {
            id,
            name,
            parent,
            start_ns,
            end_ns,
        });
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        id: u64,
        name: &'static str,
        parent: Option<&'static str>,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.record(id, name, parent, start, end);
        out
    }

    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// `(count, total seconds)` of the spans called `name`.
    #[must_use]
    pub fn total(&self, name: &str) -> (u64, f64) {
        let mut count = 0;
        let mut ns = 0u64;
        for s in self.spans.iter().filter(|s| s.name == name) {
            count += 1;
            ns += s.ns();
        }
        (count, ns as f64 / 1e9)
    }

    /// Mean duration of the spans called `name` in µs, 0 if none.
    #[must_use]
    pub fn mean_us(&self, name: &str) -> f64 {
        match self.total(name) {
            (0, _) => 0.0,
            (n, s) => s * 1e6 / n as f64,
        }
    }

    /// Self time of `layer` in seconds: the durations of its spans
    /// minus those of their direct children (same id, `parent` naming
    /// the span).
    #[must_use]
    pub fn self_s(&self, layer: &str) -> f64 {
        let mut child_ns: HashMap<(u64, &str), u64> = HashMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                *child_ns.entry((s.id, p)).or_default() += s.ns();
            }
        }
        let own_ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.layer() == layer)
            .map(|s| {
                s.ns()
                    .saturating_sub(child_ns.get(&(s.id, s.name)).copied().unwrap_or(0))
            })
            .sum();
        own_ns as f64 / 1e9
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of the create or write.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.name,
                s.parent.map_or("null".to_owned(), |p| format!("\"{p}\"")),
                s.start_ns,
                s.end_ns
            );
        }
        let mut f = std::fs::File::create(path)?;
        f.write_all(out.as_bytes())?;
        f.flush()
    }
}

/// Renders a layer table: one row per layer with its self time and
/// share of `total_s`, then the `unattributed` remainder.
#[must_use]
pub fn render_table(title: &str, total_s: f64, rows: &[(&str, f64)]) -> String {
    let mut out = format!(
        "{title}\n  {:<24} {:>10} {:>8}\n",
        "layer", "self_s", "share"
    );
    let mut attributed = 0.0;
    for (layer, secs) in rows {
        attributed += secs;
        let _ = writeln!(
            out,
            "  {layer:<24} {secs:>10.4} {:>7.1}%",
            100.0 * secs / total_s
        );
    }
    let rest = total_s - attributed;
    let _ = writeln!(
        out,
        "  {:<24} {rest:>10.4} {:>7.1}%",
        "unattributed",
        100.0 * rest / total_s
    );
    let _ = writeln!(out, "  {:<24} {total_s:>10.4}", "total");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_of_the_same_id() {
        let mut t = Tracer::new(Instant::now());
        t.record(1, "exec.point", None, 0, 100);
        t.record(1, "net.build", Some("exec.point"), 10, 30);
        t.record(1, "net.run", Some("exec.point"), 30, 90);
        // A child of another point must not be subtracted from point 1.
        t.record(2, "net.run", Some("exec.point"), 0, 50);
        assert!((t.self_s("exec") - 20e-9).abs() < 1e-15);
        assert!((t.self_s("net") - 130e-9).abs() < 1e-15);
        assert_eq!(t.total("net.run"), (2, 110e-9));
    }

    #[test]
    fn table_ends_with_the_unattributed_remainder() {
        let table = render_table("t", 2.0, &[("net", 1.5), ("exec", 0.25)]);
        let last_rows: Vec<&str> = table.lines().rev().take(2).collect();
        assert!(last_rows[1].contains("unattributed") && last_rows[1].contains("0.2500"));
    }
}
