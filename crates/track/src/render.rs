//! The static perf dashboard: one self-contained HTML file.
//!
//! The renderer embeds the entire history as a `window.BENCHMARK_DATA`
//! JSON blob (the same pattern github-action-benchmark publishes to
//! `dev/bench/`) and a small inline script that draws per-metric trend
//! tables with SVG sparklines. No external fetches, no CDN scripts, no
//! stylesheets: the file opens from `file://` on an air-gapped box.
//!
//! The embedded blob is validated with the cedar-obs structural JSON
//! validator before it is interpolated, so a malformed entry can never
//! ship a dashboard with a syntax error in its data island.

use std::fmt::Write as _;

use cedar_obs::export::{escape_json, validate_json};

use crate::gate::GateReport;
use crate::history::HistoryEntry;

/// Renders the `window.BENCHMARK_DATA` JSON blob for `entries` and an
/// optional gate report.
///
/// # Errors
///
/// Returns a description when the assembled blob fails structural JSON
/// validation (which would indicate a renderer bug, not bad input).
pub fn render_data_blob(
    entries: &[HistoryEntry],
    gate: Option<&GateReport>,
) -> Result<String, String> {
    let mut out = String::with_capacity(1024 + entries.len() * 512);
    out.push_str("{\"schema\":\"cedar-track-dashboard/1\",\"entries\":[");
    for (i, e) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&e.render_line());
    }
    out.push_str("],\"gate\":");
    match gate {
        None => out.push_str("null"),
        Some(g) => {
            let _ = write!(
                out,
                "{{\"commit\":\"{}\",\"mode\":\"{}\",\"regressions\":{},\"outcomes\":[",
                escape_json(&g.commit),
                escape_json(&g.mode),
                g.regressions()
            );
            for (i, o) in g.worst_first().iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"metric\":\"{}\",\"newest\":{},\"baseline\":{},\"change_pct\":{},\"band\":{},\"samples\":{},\"regressed\":{}}}",
                    escape_json(&o.metric),
                    finite(o.newest),
                    finite(o.baseline),
                    finite(o.change_pct),
                    finite(o.band),
                    o.samples,
                    o.regressed
                );
            }
            for (key, list) in [("unresolved", &g.unresolved), ("skipped", &g.skipped)] {
                let _ = write!(out, "],\"{key}\":[");
                for (i, s) in list.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "\"{}\"", escape_json(s));
                }
            }
            out.push_str("]}");
        }
    }
    out.push('}');
    validate_json(&out).map_err(|e| format!("dashboard data blob invalid: {e}"))?;
    Ok(out)
}

fn finite(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// Renders the full standalone dashboard HTML.
///
/// # Errors
///
/// Propagates [`render_data_blob`] errors.
pub fn render_dashboard(
    entries: &[HistoryEntry],
    gate: Option<&GateReport>,
) -> Result<String, String> {
    let blob = render_data_blob(entries, gate)?;
    // `</script` inside a string literal would terminate the data
    // island early; the validator-approved blob only ever contains it
    // via a metric name or note, but escape defensively anyway.
    let blob = blob.replace("</", "<\\/");
    let mut html = String::with_capacity(blob.len() + TEMPLATE_HEAD.len() + TEMPLATE_TAIL.len());
    html.push_str(TEMPLATE_HEAD);
    html.push_str(&blob);
    html.push_str(TEMPLATE_TAIL);
    Ok(html)
}

const TEMPLATE_HEAD: &str = r##"<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>cedar perf history</title>
<style>
  body { font: 14px/1.45 system-ui, sans-serif; margin: 2rem auto; max-width: 72rem; color: #1a1a1a; }
  h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2rem; }
  table { border-collapse: collapse; width: 100%; }
  th, td { text-align: left; padding: 0.3rem 0.6rem; border-bottom: 1px solid #e4e4e4; white-space: nowrap; }
  td.num { text-align: right; font-variant-numeric: tabular-nums; }
  .up { color: #0a7a2f; } .down { color: #b01515; } .flat { color: #777; }
  .callout { border: 1px solid #b01515; background: #fdf0f0; padding: 0.7rem 1rem; border-radius: 6px; margin: 1rem 0; }
  .callout.ok { border-color: #0a7a2f; background: #f0faf3; }
  svg.spark { vertical-align: middle; }
  .meta { color: #777; font-size: 0.85rem; }
  code { background: #f4f4f4; padding: 0 0.25rem; border-radius: 3px; }
</style>
</head>
<body>
<h1>cedar perf history</h1>
<div id="summary" class="meta"></div>
<div id="callouts"></div>
<div id="tables"></div>
<script>
window.BENCHMARK_DATA = "##;

const TEMPLATE_TAIL: &str = r##";
(function () {
  "use strict";
  var data = window.BENCHMARK_DATA;
  var entries = data.entries || [];
  function el(tag, attrs, text) {
    var e = document.createElement(tag);
    for (var k in attrs || {}) e.setAttribute(k, attrs[k]);
    if (text !== undefined) e.textContent = text;
    return e;
  }
  function fmt(v) {
    if (!isFinite(v)) return "-";
    if (Math.abs(v) >= 1000) return v.toLocaleString("en-US", { maximumFractionDigits: 0 });
    return v.toLocaleString("en-US", { maximumFractionDigits: 3 });
  }
  var summary = document.getElementById("summary");
  if (entries.length) {
    var last = entries[entries.length - 1];
    summary.textContent = entries.length + " entries; newest commit " +
      last.commit.slice(0, 12) + " (" + last.timestamp + ", mode " + last.mode +
      ", host " + last.host.hostname + ")";
  } else {
    summary.textContent = "history is empty";
  }
  var callouts = document.getElementById("callouts");
  if (data.gate) {
    var g = data.gate;
    var box = el("div", { "class": "callout" + (g.regressions ? "" : " ok") });
    box.appendChild(el("strong", {}, g.regressions
      ? g.regressions + " regression(s) at commit " + g.commit.slice(0, 12)
      : "gate passed at commit " + g.commit.slice(0, 12)));
    var list = el("ul", {});
    g.outcomes.slice(0, 8).forEach(function (o) {
      var sign = o.change_pct >= 0 ? "+" : "";
      list.appendChild(el("li", {},
        (o.regressed ? "REGRESSION " : "ok ") + o.metric + ": " + fmt(o.newest) +
        " vs median " + fmt(o.baseline) + " (" + sign + o.change_pct.toFixed(2) +
        "%, band \u00b1" + fmt(o.band) + ", " + o.samples + " samples)"));
    });
    g.unresolved.forEach(function (u) { list.appendChild(el("li", {}, "unresolved " + u)); });
    box.appendChild(list);
    callouts.appendChild(box);
  }
  // Collect every metric name across the history, grouped by prefix.
  var names = {};
  entries.forEach(function (e) {
    Object.keys(e.metrics).forEach(function (k) { names[k] = true; });
  });
  var groups = {};
  Object.keys(names).sort().forEach(function (k) {
    var g = k.split(".")[0];
    (groups[g] = groups[g] || []).push(k);
  });
  function sparkline(values) {
    var w = 140, h = 24, pad = 2;
    var svg = document.createElementNS("http://www.w3.org/2000/svg", "svg");
    svg.setAttribute("class", "spark");
    svg.setAttribute("width", w); svg.setAttribute("height", h);
    var finite = values.filter(function (v) { return v !== null && isFinite(v); });
    if (finite.length < 2) return svg;
    var min = Math.min.apply(null, finite), max = Math.max.apply(null, finite);
    var span = (max - min) || 1;
    var pts = [];
    values.forEach(function (v, i) {
      if (v === null || !isFinite(v)) return;
      var x = pad + (w - 2 * pad) * (values.length === 1 ? 0 : i / (values.length - 1));
      var y = h - pad - (h - 2 * pad) * ((v - min) / span);
      pts.push(x.toFixed(1) + "," + y.toFixed(1));
    });
    var line = document.createElementNS("http://www.w3.org/2000/svg", "polyline");
    line.setAttribute("points", pts.join(" "));
    line.setAttribute("fill", "none");
    line.setAttribute("stroke", "#3467c4");
    line.setAttribute("stroke-width", "1.5");
    svg.appendChild(line);
    return svg;
  }
  var tables = document.getElementById("tables");
  Object.keys(groups).sort().forEach(function (group) {
    tables.appendChild(el("h2", {}, group));
    var table = el("table", {});
    var head = el("tr", {});
    ["metric", "trend", "latest", "first", "change"].forEach(function (t) {
      head.appendChild(el("th", {}, t));
    });
    table.appendChild(head);
    groups[group].forEach(function (metric) {
      var series = entries.map(function (e) {
        return metric in e.metrics ? e.metrics[metric] : null;
      });
      var present = series.filter(function (v) { return v !== null; });
      if (!present.length) return;
      var latest = present[present.length - 1], first = present[0];
      var row = el("tr", {});
      row.appendChild(el("td", {}, metric));
      var trend = el("td", {});
      trend.appendChild(sparkline(series));
      row.appendChild(trend);
      row.appendChild(el("td", { "class": "num" }, fmt(latest)));
      row.appendChild(el("td", { "class": "num" }, fmt(first)));
      var change = first ? ((latest - first) / Math.abs(first)) * 100 : 0;
      var cls = change > 0.5 ? "up" : change < -0.5 ? "down" : "flat";
      row.appendChild(el("td", { "class": "num " + cls },
        (change >= 0 ? "+" : "") + change.toFixed(2) + "%"));
      table.appendChild(row);
    });
    tables.appendChild(table);
  });
})();
</script>
</body>
</html>
"##;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{check, default_gates};
    use crate::history::{HostFingerprint, SCHEMA};
    use std::collections::BTreeMap;

    fn entry(commit: &str, value: f64) -> HistoryEntry {
        let mut metrics = BTreeMap::new();
        metrics.insert("perf.sweep.speedup".to_owned(), value);
        metrics.insert("serve.closed.max_throughput_rps".to_owned(), value * 100.0);
        HistoryEntry {
            schema: SCHEMA.to_owned(),
            commit: commit.to_owned(),
            timestamp: "2026-08-08T00:00:00Z".to_owned(),
            host: HostFingerprint {
                hostname: "h".to_owned(),
                cpus: 8,
                os: "linux/x86_64".to_owned(),
            },
            mode: "full".to_owned(),
            sources: vec!["perf".to_owned()],
            metrics,
            notes: None,
        }
    }

    #[test]
    fn data_blob_is_valid_json_and_embeds_every_entry() {
        let entries = vec![entry("aaa", 1.0), entry("bbb", 2.0), entry("ccc", 3.0)];
        let blob = render_data_blob(&entries, None).unwrap();
        validate_json(&blob).unwrap();
        for e in &entries {
            assert!(blob.contains(&e.commit), "missing {}", e.commit);
        }
        let parsed = cedar_obs::json::parse(&blob).unwrap();
        match parsed.get("entries") {
            Some(cedar_obs::json::Json::Arr(items)) => assert_eq!(items.len(), 3),
            other => panic!("entries not an array: {other:?}"),
        }
    }

    #[test]
    fn dashboard_is_standalone_html_with_data_island() {
        let entries = vec![entry("aaa", 1.0), entry("bbb", 2.0)];
        let report = check(&entries, &default_gates(), true).unwrap();
        let html = render_dashboard(&entries, Some(&report)).unwrap();
        assert!(html.starts_with("<!doctype html>"));
        assert!(html.contains("window.BENCHMARK_DATA = {"));
        assert!(html.contains("perf.sweep.speedup"));
        // Standalone: no network fetches of any kind.
        for needle in [
            "http://", "https://", "src=", "fetch(", "@import", "link rel",
        ] {
            let hits = html.matches(needle).count();
            // The SVG namespace URI is the one permitted "http://" —
            // it is an identifier, not a fetch.
            let allowed = if needle == "http://" {
                html.matches("http://www.w3.org/2000/svg").count()
            } else {
                0
            };
            assert_eq!(hits, allowed, "dashboard must not reference {needle}");
        }
    }

    #[test]
    fn gate_report_lands_in_the_blob_worst_first() {
        let mut entries = vec![entry("aaa", 10.0), entry("bbb", 10.0), entry("ccc", 10.0)];
        entries.push(entry("ddd", 1.0)); // 90% drop on both gated metrics
        let report = check(&entries, &default_gates(), true).unwrap();
        assert!(report.regressions() >= 1);
        let blob = render_data_blob(&entries, Some(&report)).unwrap();
        assert!(blob.contains("\"regressed\":true"));
        assert!(blob.contains("\"regressions\":2"));
    }

    #[test]
    fn script_terminator_in_notes_cannot_break_the_island() {
        let mut e = entry("aaa", 1.0);
        e.notes = Some("sneaky </script><script>alert(1)".to_owned());
        let html = render_dashboard(&[e], None).unwrap();
        // The raw terminator must not appear inside the data island.
        assert!(!html.contains("sneaky </script>"));
        assert!(html.contains("sneaky <\\/script>"));
    }

    #[test]
    fn empty_history_still_renders() {
        let html = render_dashboard(&[], None).unwrap();
        assert!(html.contains("window.BENCHMARK_DATA"));
    }
}
