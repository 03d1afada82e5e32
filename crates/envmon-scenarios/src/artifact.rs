//! Replication artifacts: the CSV + one-line-JSON pair every scenario
//! replication emits.
//!
//! Both renderings are deterministic down to the byte: floats always go
//! through [`fmt_f64`] (fixed six decimal places, no locale, no `%g`
//! shortest-round-trip wobble), fields are emitted in declaration order,
//! and nothing timestamps itself with wall-clock state. Same `(exp, rep,
//! seed)` ⇒ same bytes, which is what the golden files and the
//! determinism referee in `sweep scenarios` compare.

/// One machine-checked invariant, evaluated per replication.
#[derive(Clone, Debug)]
pub struct Invariant {
    /// Short stable name (`cap-never-exceeded`, `duty-monotone`, …).
    pub name: &'static str,
    /// Whether the replication satisfied it.
    pub pass: bool,
    /// Human-readable evidence (margins, counts) for the summary line.
    pub detail: String,
}

impl Invariant {
    /// Convenience constructor.
    pub fn new(name: &'static str, pass: bool, detail: impl Into<String>) -> Self {
        Invariant {
            name,
            pass,
            detail: detail.into(),
        }
    }
}

/// Everything one replication of one scenario produced.
#[derive(Clone, Debug)]
pub struct Replication {
    /// Scenario key (`exp1`..`exp4`).
    pub exp: &'static str,
    /// Replication index within the run.
    pub rep: usize,
    /// The seed this replication ran under.
    pub seed: u64,
    /// The per-decision (or per-mechanism) CSV trace, header included.
    pub csv: String,
    /// Ordered scalar summary fields beyond `exp`/`rep`/`seed`; values are
    /// pre-rendered (numbers via [`fmt_f64`] or integer formatting).
    pub summary: Vec<(&'static str, String)>,
    /// The invariants this replication was checked against.
    pub invariants: Vec<Invariant>,
}

impl Replication {
    /// Whether every invariant passed.
    pub fn passed(&self) -> bool {
        self.invariants.iter().all(|i| i.pass)
    }

    /// The one-line JSON summary row. Values that parse as numbers are
    /// emitted bare; everything else is quoted. `invariant` is the AND of
    /// all checks (1/0) so a grep-level gate needs no JSON parser.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"exp\": \"{}\", \"rep\": {}, \"seed\": {}",
            self.exp, self.rep, self.seed
        );
        for (key, value) in &self.summary {
            if value.parse::<f64>().is_ok() {
                out.push_str(&format!(", \"{key}\": {value}"));
            } else {
                out.push_str(&format!(", \"{key}\": \"{value}\""));
            }
        }
        out.push_str(&format!(
            ", \"invariant\": {}}}",
            if self.passed() { 1 } else { 0 }
        ));
        out
    }

    /// The golden-file artifact: CSV, then the JSON summary line, then one
    /// line per invariant verdict.
    pub fn artifact(&self) -> String {
        let mut out = self.csv.clone();
        if !out.ends_with('\n') {
            out.push('\n');
        }
        out.push_str(&self.json());
        out.push('\n');
        for inv in &self.invariants {
            out.push_str(&format!(
                "# invariant {} {}: {}\n",
                inv.name,
                if inv.pass { "PASS" } else { "FAIL" },
                inv.detail
            ));
        }
        out
    }

    /// One human-readable line for `repro scenarios` output.
    pub fn summary_line(&self) -> String {
        let fields: Vec<String> = self
            .summary
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        format!(
            "{} rep{} seed={:#018x} {} [{}]",
            self.exp,
            self.rep,
            self.seed,
            fields.join(" "),
            if self.passed() {
                "ok"
            } else {
                "INVARIANT FAILED"
            }
        )
    }
}

/// The one float formatter every artifact goes through: fixed six decimal
/// places, so renderings never depend on shortest-round-trip printing.
pub fn fmt_f64(x: f64) -> String {
    format!("{x:.6}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep() -> Replication {
        Replication {
            exp: "exp1",
            rep: 2,
            seed: 7,
            csv: "a,b\n1,2".into(),
            summary: vec![("mean_w", fmt_f64(31.25)), ("note", "text".into())],
            invariants: vec![Invariant::new("cap", true, "margin 0.5 W")],
        }
    }

    #[test]
    fn json_quotes_only_non_numeric_fields() {
        let j = rep().json();
        assert!(j.contains("\"mean_w\": 31.250000"), "{j}");
        assert!(j.contains("\"note\": \"text\""), "{j}");
        assert!(j.ends_with("\"invariant\": 1}"), "{j}");
    }

    #[test]
    fn artifact_terminates_every_section_with_newline() {
        let a = rep().artifact();
        assert!(a.starts_with("a,b\n1,2\n{\"exp\""));
        assert!(a.ends_with("# invariant cap PASS: margin 0.5 W\n"));
    }

    #[test]
    fn failed_invariant_flips_the_flag() {
        let mut r = rep();
        r.invariants
            .push(Invariant::new("other", false, "off by 2"));
        assert!(!r.passed());
        assert!(r.json().ends_with("\"invariant\": 0}"));
        assert!(r.summary_line().contains("INVARIANT FAILED"));
    }
}
