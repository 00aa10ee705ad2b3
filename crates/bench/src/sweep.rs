//! The one shape every throughput harness (`ingest_throughput`,
//! `fim_throughput`) is written in: repetition medians, nearest-rank
//! percentiles, environment overrides, acceptance criteria as data,
//! and one JSON writer.
//!
//! Each sweep samples every timed configuration once per repetition
//! and reports the median, and returns its JSON object together with
//! its [`Criterion`] list. A criterion states its text, bound and mode
//! once: correctness criteria gate every run, timing criteria
//! ([`Criterion::full_only`]) gate full runs only, because under
//! `--smoke` the stream is tiny and the CI cores are shared, so timing
//! is noise. [`finish`] prints the list, writes the report and exits
//! nonzero unless [`met`].

use std::fmt::Write as _;

/// Median of a sample set (not required to be sorted). Empty input
/// returns 0 — a sweep that recorded nothing has nothing to report.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v[v.len() / 2]
}

/// Nearest-rank percentile of an ascending-sorted slice (0 when empty).
pub fn percentile<T: Copy + Default>(sorted: &[T], pct: usize) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = (sorted.len() * pct).div_ceil(100);
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

/// Numeric environment override with a default (`RTDAC_REQUESTS`-style
/// knobs).
pub fn env_or(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// One acceptance criterion: what is measured, against which bound,
/// whether it passed, and whether it gates this run.
#[derive(Clone, Debug, PartialEq)]
pub struct Criterion {
    name: String,
    target: f64,
    measured: f64,
    pass: bool,
    /// False for a timing criterion in a smoke run: it is reported but
    /// cannot fail the run.
    gates: bool,
}

impl Criterion {
    fn new(name: impl Into<String>, target: f64, measured: f64, pass: bool) -> Self {
        Criterion {
            name: name.into(),
            target,
            measured,
            pass,
            gates: true,
        }
    }

    /// Passes when `measured >= target`.
    pub fn at_least(name: impl Into<String>, measured: f64, target: f64) -> Self {
        Self::new(name, target, measured, measured >= target)
    }

    /// Passes when `measured > target`.
    pub fn above(name: impl Into<String>, measured: f64, target: f64) -> Self {
        Self::new(name, target, measured, measured > target)
    }

    /// Passes when `measured <= target`.
    pub fn at_most(name: impl Into<String>, measured: f64, target: f64) -> Self {
        Self::new(name, target, measured, measured <= target)
    }

    /// Passes when `measured < target`.
    pub fn below(name: impl Into<String>, measured: f64, target: f64) -> Self {
        Self::new(name, target, measured, measured < target)
    }

    /// A yes/no check (target 1, measured 1 or 0).
    pub fn holds(name: impl Into<String>, ok: bool) -> Self {
        Self::new(name, 1.0, f64::from(u8::from(ok)), ok)
    }

    /// Marks a timing criterion: it gates full runs only.
    pub fn full_only(mut self, smoke: bool) -> Self {
        self.gates = !smoke;
        self
    }

    /// Whether the measurement met the bound (gating or not).
    pub fn pass(&self) -> bool {
        self.pass
    }

    fn json(&self) -> Obj {
        Obj::new()
            .field("name", self.name.as_str())
            .num("target", self.target, 2)
            .num("measured", self.measured, 3)
            .field("pass", self.pass)
            .field("gates", self.gates)
    }
}

/// Whether every gating criterion passed.
pub fn met(criteria: &[Criterion]) -> bool {
    criteria.iter().all(|c| c.pass || !c.gates)
}

/// Ends a harness run: prints the acceptance block, appends it to
/// `report` as `acceptance`, writes the JSON to `RTDAC_BENCH_OUT`
/// (default: `file` at the repository root), and exits nonzero unless
/// every gating criterion passed.
pub fn finish(report: Obj, criteria: &[Criterion], smoke: bool, file: &str) {
    print_acceptance(criteria, smoke);
    let report: Json = report.field("acceptance", acceptance_json(criteria)).into();
    let out = std::env::var("RTDAC_BENCH_OUT")
        .unwrap_or_else(|_| format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR")));
    std::fs::write(&out, report.render()).unwrap_or_else(|e| panic!("writing {out}: {e}"));
    println!("\nwrote {out}");
    if !met(criteria) {
        eprintln!("\nACCEPTANCE FAILED (see criteria above)");
        std::process::exit(1);
    }
}

fn print_acceptance(criteria: &[Criterion], smoke: bool) {
    println!(
        "\nacceptance (timing gates {}):",
        if smoke { "off — smoke" } else { "on" }
    );
    for c in criteria {
        let status = match (c.pass, c.gates) {
            (true, _) => "pass",
            (false, true) => "FAIL",
            (false, false) => "skip",
        };
        println!(
            "  [{status}] target {:>10.2}  measured {:>12.2}  {}{}",
            c.target,
            c.measured,
            c.name,
            if c.gates { "" } else { " (not gating)" },
        );
    }
    println!("  met={}", met(criteria));
}

fn acceptance_json(criteria: &[Criterion]) -> Json {
    Obj::new()
        .field(
            "criteria",
            criteria.iter().map(Criterion::json).collect::<Vec<_>>(),
        )
        .field("met", met(criteria))
        .into()
}

/// A JSON value (the workspace builds offline; no serde). Floats carry
/// their print precision; a non-finite float is written as `null`.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Bool(bool),
    Int(u64),
    Num(f64, usize),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(&'static str, Json)>),
}

/// Builder for a JSON object; fields keep insertion order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Obj(Vec<(&'static str, Json)>);

impl Obj {
    pub fn new() -> Self {
        Obj::default()
    }

    pub fn field(mut self, key: &'static str, value: impl Into<Json>) -> Self {
        self.0.push((key, value.into()));
        self
    }

    /// A float field printed with `precision` decimals.
    pub fn num(self, key: &'static str, value: f64, precision: usize) -> Self {
        self.field(key, Json::Num(value, precision))
    }
}

impl From<Obj> for Json {
    fn from(o: Obj) -> Json {
        Json::Obj(o.0)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Int(n)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Int(n as u64)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

impl Json {
    /// Pretty-printed text with a trailing newline. A container whose
    /// children are all scalars or arrays of scalars goes on one line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn is_scalar(&self) -> bool {
        !matches!(self, Json::Arr(_) | Json::Obj(_))
    }

    fn is_leaf(&self) -> bool {
        match self {
            Json::Arr(items) => items.iter().all(Json::is_scalar),
            other => other.is_scalar(),
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Num(x, precision) if x.is_finite() => {
                let _ = write!(out, "{x:.precision$}");
            }
            Json::Num(..) => out.push_str("null"),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                let entries: Vec<(Option<&str>, &Json)> = items.iter().map(|v| (None, v)).collect();
                write_container(out, indent, ('[', ']'), &entries);
            }
            Json::Obj(fields) => {
                let entries: Vec<(Option<&str>, &Json)> =
                    fields.iter().map(|(k, v)| (Some(*k), v)).collect();
                write_container(out, indent, ('{', '}'), &entries);
            }
        }
    }
}

fn write_container(
    out: &mut String,
    indent: usize,
    (open, close): (char, char),
    entries: &[(Option<&str>, &Json)],
) {
    let inline = entries.iter().all(|(_, v)| v.is_leaf());
    out.push(open);
    for (i, (key, value)) in entries.iter().enumerate() {
        if inline {
            if i > 0 {
                out.push_str(", ");
            }
        } else {
            out.push_str(if i > 0 { ",\n" } else { "\n" });
            out.push_str(&" ".repeat(indent + 2));
        }
        if let Some(key) = key {
            write_str(out, key);
            out.push_str(": ");
        }
        value.write(out, indent + 2);
    }
    if !inline && !entries.is_empty() {
        out.push('\n');
        out.push_str(&" ".repeat(indent));
    }
    out.push(close);
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_order_insensitive_and_total() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        // Even-length: upper-median convention (index len/2).
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 3.0);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&sorted, 50), 2.0);
        assert_eq!(percentile(&sorted, 99), 4.0);
        assert_eq!(percentile::<f64>(&[], 50), 0.0);
        let ints = [10u64, 20, 30];
        assert_eq!(percentile(&ints, 50), 20);
        assert_eq!(percentile(&ints, 99), 30);
        assert_eq!(percentile::<u64>(&[], 99), 0);
    }

    #[test]
    fn met_picks_criteria_by_mode() {
        let criteria = |smoke: bool| {
            vec![
                Criterion::holds("correct", true),
                Criterion::at_least("fast", 0.5, 1.0).full_only(smoke),
            ]
        };
        // Slow but correct: passes a smoke run, fails a full one.
        assert!(met(&criteria(true)));
        assert!(!met(&criteria(false)));
        assert!(!met(&[Criterion::holds("wrong", false).full_only(false)]));
        assert!(!met(&[Criterion::below("tail", 2.0, 2.0)]));
        assert!(met(&[Criterion::above("gain", 0.1, 0.0)]));
        assert!(met(&[Criterion::at_most("ratio", 1.0, 1.0)]));
    }

    #[test]
    fn writer_escapes_strings() {
        let s = Json::from("say \"hi\" \\ now\n\tend\r\u{1}");
        assert_eq!(
            s.render(),
            "\"say \\\"hi\\\" \\\\ now\\n\\tend\\r\\u0001\"\n"
        );
        let o: Json = Obj::new().field("k\"ey", "é").into();
        assert_eq!(o.render(), "{\"k\\\"ey\": \"é\"}\n");
    }

    #[test]
    fn writer_prints_floats_at_precision_and_non_finite_as_null() {
        let row: Json = Obj::new()
            .num("secs", 0.123_456_789, 6)
            .num("rate", 1_234_567.89, 0)
            .num("ratio", 1.0 / 3.0, 3)
            .num("nan", f64::NAN, 3)
            .num("inf", f64::INFINITY, 2)
            .field("n", 42u64)
            .field("ok", false)
            .into();
        assert_eq!(
            row.render(),
            "{\"secs\": 0.123457, \"rate\": 1234568, \"ratio\": 0.333, \
             \"nan\": null, \"inf\": null, \"n\": 42, \"ok\": false}\n"
        );
    }

    #[test]
    fn writer_nests_containers() {
        let doc: Json = Obj::new()
            .field("ops", vec![1u64, 2, 3])
            .field("empty", Vec::<Json>::new())
            .field(
                "rows",
                vec![Json::from(Obj::new().field("a", 1u64)), Obj::new().into()],
            )
            .into();
        assert_eq!(
            doc.render(),
            "{\n  \"ops\": [1, 2, 3],\n  \"empty\": [],\n  \"rows\": [\n    \
             {\"a\": 1},\n    {}\n  ]\n}\n"
        );
    }

    #[test]
    fn acceptance_json_lists_criteria_and_met() {
        let criteria = [Criterion::at_least("speedup", 3.25, 3.0).full_only(true)];
        assert_eq!(
            acceptance_json(&criteria).render(),
            "{\n  \"criteria\": [\n    {\"name\": \"speedup\", \"target\": 3.00, \
             \"measured\": 3.250, \"pass\": true, \"gates\": false}\n  ],\n  \
             \"met\": true\n}\n"
        );
    }
}
