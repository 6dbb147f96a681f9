//! Report formatting shared by the figure harnesses: aligned text tables
//! on stdout plus machine-readable JSON lines, and the [`Report`] sink
//! that turns one experiment run into a `BENCH_<experiment>.json` record.

use crate::rusage::Rusage;
use std::fmt::Write as _;
use svagc_metrics::json::write_json_str;
use svagc_metrics::{Registry, ToJson};

/// A simple aligned-column table builder.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Table {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (cells stringified by the caller).
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) {
        self.rows.push(cells.into_iter().map(Into::into).collect());
    }

    /// Render with per-column widths.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = h.len();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |out: &mut String, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                if i == 0 {
                    let _ = write!(out, "{:<w$}", c, w = widths[i]);
                } else {
                    let _ = write!(out, "  {:>w$}", c, w = widths[i]);
                }
            }
            out.push('\n');
        };
        fmt_row(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            fmt_row(&mut out, row);
        }
        out
    }
}

/// Version tag of the per-experiment BENCH JSON layout.
pub const BENCH_REPORT_SCHEMA: &str = "svagc-bench-report-v1";

/// 64-bit FNV-1a over `bytes` — the digest that pins an experiment's
/// simulated output for the perf gate.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The sink one experiment writes into instead of stdout.
///
/// Everything an experiment produces splits into two planes:
///
/// * **Simulated** — rows (the `@json` records), headline counters, and
///   derived scalars. All of it is a pure function of the simulation, so
///   it must be byte-identical between serial and host-parallel runs;
///   [`Report::sim_digest`] hashes the canonical JSON of this plane and is
///   the exact-match key the CI perf gate compares.
/// * **Host** — the rendered text (human tables, paper notes) and wall
///   time, which the runner measures. Excluded from the digest.
pub struct Report {
    id: String,
    caption: String,
    text: String,
    rows: Vec<(String, String)>,
    counters: Registry,
    derived: Vec<(String, f64)>,
}

impl Report {
    /// Empty report for experiment `id`.
    pub fn new(id: &str, caption: &str) -> Report {
        Report {
            id: id.to_string(),
            caption: caption.to_string(),
            text: String::new(),
            rows: Vec::new(),
            counters: Registry::new(),
            derived: Vec::new(),
        }
    }

    /// Experiment identifier (`fig06`, `table3`, `ablation_threshold`...).
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Human caption.
    pub fn caption(&self) -> &str {
        &self.caption
    }

    /// Append one text line (the `println!` replacement).
    pub fn say(&mut self, line: impl AsRef<str>) {
        self.text.push_str(line.as_ref());
        self.text.push('\n');
    }

    /// Append a rendered table.
    pub fn table(&mut self, t: &Table) {
        self.text.push_str(&t.render());
    }

    /// Record one simulated row: stored for the BENCH JSON and echoed as
    /// an `@json tag {...}` text line, keeping stdout greppable as before.
    pub fn row<T: ToJson + ?Sized>(&mut self, tag: &str, value: &T) {
        let json = value.to_json();
        let _ = writeln!(self.text, "@json {tag} {json}");
        self.rows.push((tag.to_string(), json));
    }

    /// Record (accumulate) a headline simulated counter.
    pub fn counter(&mut self, name: &str, v: u64) {
        self.counters.add(name, v);
    }

    /// Fold a whole registry into the headline counters.
    pub fn counters_from(&mut self, reg: &Registry) {
        for (k, v) in reg.iter() {
            self.counters.add(k, v);
        }
    }

    /// Record a derived simulated scalar (speedups, geomeans, ...).
    pub fn derived(&mut self, name: &str, v: f64) {
        self.derived.push((name.to_string(), v));
    }

    /// The rendered human text (tables + notes + `@json` echo lines).
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Canonical JSON of the simulated plane. Deterministic: rows in
    /// emission order, counters key-sorted, derived in emission order,
    /// floats via Rust's shortest-round-trip `Display`.
    pub fn sim_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.rows.len() * 128);
        out.push_str("{\"rows\":[");
        for (i, (tag, json)) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"tag\":");
            write_json_str(&mut out, tag);
            out.push_str(",\"data\":");
            out.push_str(json);
            out.push('}');
        }
        out.push_str("],\"counters\":");
        out.push_str(&self.counters.to_json());
        out.push_str(",\"derived\":{");
        for (i, (name, v)) in self.derived.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_json_str(&mut out, name);
            out.push(':');
            v.write_json(&mut out);
        }
        out.push_str("}}");
        out
    }

    /// Exact-match key over [`Report::sim_json`], e.g. `fnv1a:9f86d081884c7d65`.
    pub fn sim_digest(&self) -> String {
        format!("fnv1a:{:016x}", fnv1a(self.sim_json().as_bytes()))
    }

    /// Headline counters (for the summary roll-up).
    pub fn counters(&self) -> &Registry {
        &self.counters
    }

    /// The full `BENCH_<experiment>.json` document.
    pub fn bench_json(&self, host: &HostInfo) -> String {
        let mut out = String::with_capacity(512);
        out.push_str("{\"schema\":\"");
        out.push_str(BENCH_REPORT_SCHEMA);
        out.push_str("\",\"experiment\":");
        write_json_str(&mut out, &self.id);
        out.push_str(",\"caption\":");
        write_json_str(&mut out, &self.caption);
        out.push_str(",\"sim\":");
        out.push_str(&self.sim_json());
        out.push_str(",\"sim_digest\":\"");
        out.push_str(&self.sim_digest());
        out.push_str("\",\"host\":");
        host.write_json(&mut out);
        out.push('}');
        out
    }
}

/// The host-measurement section of a BENCH record: everything here is
/// machine-dependent and therefore outside the simulated digest.
#[derive(Debug, Clone, Copy)]
pub struct HostInfo {
    /// Host wall-clock time of the experiment, milliseconds.
    pub wall_ms: f64,
    /// Host CPU time and minor faults of the experiment; written beside
    /// `wall_ms` when present, omitted from host-parallel runs.
    pub rusage: Option<Rusage>,
    /// Host worker threads the runner used.
    pub threads: usize,
    /// Was the experiment part of a host-parallel fan-out?
    pub parallel: bool,
}

impl ToJson for HostInfo {
    fn write_json(&self, out: &mut String) {
        out.push_str("{\"wall_ms\":");
        self.wall_ms.write_json(out);
        if let Some(r) = &self.rusage {
            r.write_json_fields(out);
        }
        out.push_str(",\"threads\":");
        self.threads.write_json(out);
        out.push_str(",\"parallel\":");
        self.parallel.write_json(out);
        out.push('}');
    }
}

/// Format milliseconds with sensible precision.
pub fn ms(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}")
    } else if v >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

/// Format a percentage.
pub fn pct(v: f64) -> String {
    format!("{v:.1}%")
}

/// Format a speedup factor.
pub fn x(v: f64) -> String {
    format!("{v:.2}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns() {
        let mut t = Table::new(["name", "value"]);
        t.row(["a", "1"]);
        t.row(["longer-name", "12345"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[3].starts_with("longer-name"));
        assert!(lines[0].contains("value"));
    }

    #[test]
    fn formatters() {
        assert_eq!(ms(123.4), "123");
        assert_eq!(ms(12.34), "12.34");
        assert_eq!(ms(0.1234), "0.1234");
        assert_eq!(pct(12.34), "12.3%");
        assert_eq!(x(3.821), "3.82x");
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    fn sample_report() -> Report {
        struct Row {
            pages: u64,
            us: f64,
        }
        svagc_metrics::impl_to_json!(Row { pages, us });
        let mut rep = Report::new("fig99", "a synthetic experiment");
        rep.say("hello");
        rep.row("fig99", &Row { pages: 8, us: 1.25 });
        rep.counter("gc.pause_cycles", 1 << 40);
        rep.derived("speedup", 2.5);
        rep
    }

    #[test]
    fn sim_json_is_stable_and_digested() {
        let rep = sample_report();
        assert_eq!(
            rep.sim_json(),
            r#"{"rows":[{"tag":"fig99","data":{"pages":8,"us":1.25}}],"counters":{"gc.pause_cycles":1099511627776},"derived":{"speedup":2.5}}"#
        );
        assert_eq!(rep.sim_digest(), rep.sim_digest());
        assert!(rep.sim_digest().starts_with("fnv1a:"));
        assert_eq!(rep.sim_digest().len(), "fnv1a:".len() + 16);
        // Text lines (host plane) must not move the digest.
        let mut other = sample_report();
        other.say("extra narration");
        assert_eq!(other.sim_digest(), rep.sim_digest());
        // Simulated rows must.
        let mut changed = sample_report();
        changed.counter("gc.pause_cycles", 1);
        assert_ne!(changed.sim_digest(), rep.sim_digest());
    }

    #[test]
    fn bench_json_parses_and_carries_both_planes() {
        use svagc_metrics::{parse_json, JsonValue};
        let rep = sample_report();
        let host = HostInfo { wall_ms: 12.5, rusage: None, threads: 4, parallel: true };
        let doc = parse_json(&rep.bench_json(&host)).unwrap();
        assert_eq!(
            doc.get("schema").and_then(JsonValue::as_str),
            Some(BENCH_REPORT_SCHEMA)
        );
        assert_eq!(doc.get("experiment").and_then(JsonValue::as_str), Some("fig99"));
        assert_eq!(
            doc.get("sim_digest").and_then(JsonValue::as_str),
            Some(rep.sim_digest().as_str())
        );
        let sim = doc.get("sim").unwrap();
        assert_eq!(
            sim.get("counters").unwrap().get("gc.pause_cycles").and_then(JsonValue::as_u64),
            Some(1 << 40)
        );
        let host_v = doc.get("host").unwrap();
        assert_eq!(host_v.get("wall_ms").and_then(JsonValue::as_f64), Some(12.5));
        assert_eq!(host_v.get("parallel"), Some(&JsonValue::Bool(true)));
        assert_eq!(host_v.get("user_ms"), None);
        let rusage = Some(Rusage { user_ms: 3.0, sys_ms: 1.0, minor_faults: 9, max_rss_mib: 40.5 });
        let serial = HostInfo { rusage, parallel: false, threads: 1, ..host };
        let doc2 = parse_json(&rep.bench_json(&serial)).unwrap();
        assert_eq!(doc2.get("sim_digest"), doc.get("sim_digest"));
        let host2 = doc2.get("host").unwrap();
        assert_eq!(host2.get("sys_ms").and_then(JsonValue::as_f64), Some(1.0));
        assert_eq!(host2.get("minor_faults").and_then(JsonValue::as_u64), Some(9));
        assert_eq!(host2.get("max_rss_mib").and_then(JsonValue::as_f64), Some(40.5));
        // The text echo of rows stays greppable.
        assert!(rep.text().contains("@json fig99 {\"pages\":8"));
    }
}
