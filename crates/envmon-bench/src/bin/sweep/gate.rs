//! Gates: the regressions `sweep check` refuses.
//!
//! Only scale-free figures are held against the committed recording —
//! ratios and flags, never absolute wall clock, since `--quick` runs
//! smaller scales than the committed full sweeps and hosts differ. A ratio
//! may lose at most 20 % against the committed one; a flag admits no
//! tolerance. Invariants that a sweep asserts in-process are not re-read
//! from its fresh JSON: a run that broke one never wrote any.

use crate::json::values;
use std::fmt;

/// How one figure is read from a BENCH JSON document.
#[derive(Clone, Copy, Debug)]
pub enum Read {
    /// The smallest value of a key.
    Min(&'static str),
    /// The largest value of a key.
    Max(&'static str),
    /// The largest percentage under a key, as a ratio: `1 + max / 100`.
    MaxPct(&'static str),
    /// The key's value on the row whose `agents` is the given count.
    Agents(usize, &'static str),
}

impl Read {
    fn read(self, doc: &str) -> Option<f64> {
        let extreme = |key, pick: fn(f64, f64) -> f64| values(doc, key).into_iter().reduce(pick);
        match self {
            Read::Min(key) => extreme(key, f64::min),
            Read::Max(key) => extreme(key, f64::max),
            Read::MaxPct(key) => extreme(key, f64::max).map(|pct| 1.0 + pct / 100.0),
            Read::Agents(agents, key) => {
                let tag = format!("\"agents\": {agents},");
                doc.lines()
                    .filter(|row| row.contains(&tag))
                    .find_map(|row| values(row, key).first().copied())
            }
        }
    }
}

/// What a gate demands of the fresh and committed documents.
#[derive(Clone, Copy, Debug)]
pub enum Rule {
    /// Higher is better: fresh must hold at least 80 % of committed.
    Floor(Read, Read),
    /// Lower is better: fresh may exceed committed by at most 20 %.
    Ceiling(Read, Read),
    /// A [`Rule::Floor`] on parallel speedup, skipped when either side's
    /// widest `pool_width` is 1 (absent counts as 1): such a leg ran
    /// serial against serial, and its "speedup" is scheduler noise.
    Speedup(Read, Read),
    /// A committed figure must stay strictly below a fixed bound.
    CommittedBelow(Read, f64),
    /// Every committed value of the key is 1, and at least this many rows
    /// carry it.
    Flag(&'static str, usize),
}

/// Largest regression a ratio gate forgives.
const TOLERANCE: f64 = 0.2;

/// One named gate.
#[derive(Clone, Copy, Debug)]
pub struct Gate {
    pub label: &'static str,
    pub rule: Rule,
}

impl Gate {
    pub const fn new(label: &'static str, rule: Rule) -> Self {
        Gate { label, rule }
    }
}

/// The outcome of one gate, printed as one line.
#[derive(Debug)]
pub enum Verdict {
    Ok(&'static str, String),
    Skip(&'static str, String),
    Fail(&'static str, String),
}

impl Verdict {
    pub fn failed(&self) -> bool {
        matches!(self, Verdict::Fail(..))
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (tag, label, detail) = match self {
            Verdict::Ok(l, d) => ("ok  ", l, d),
            Verdict::Skip(l, d) => ("skip", l, d),
            Verdict::Fail(l, d) => ("FAIL", l, d),
        };
        write!(f, "{tag} {label:<32} {detail}")
    }
}

impl Gate {
    /// Judge the fresh document against the committed one.
    pub fn judge(&self, fresh: &str, committed: &str) -> Verdict {
        let label = self.label;
        let ok = |pass: bool, detail: String| {
            if pass {
                Verdict::Ok(label, detail)
            } else {
                Verdict::Fail(label, detail)
            }
        };
        let missing = |side: &str, r: Read| {
            Verdict::Fail(label, format!("{r:?} missing from the {side} JSON"))
        };
        let pair = |f: Read, c: Read| match (f.read(fresh), c.read(committed)) {
            (Some(a), Some(b)) => Ok((a, b)),
            (None, _) => Err(missing("fresh", f)),
            (_, None) => Err(missing("committed", c)),
        };
        match self.rule {
            Rule::Floor(f, c) => match pair(f, c) {
                Ok((a, b)) => ok(
                    a >= (1.0 - TOLERANCE) * b,
                    format!("{a:.2} vs committed {b:.2}"),
                ),
                Err(v) => v,
            },
            Rule::Ceiling(f, c) => match pair(f, c) {
                Ok((a, b)) => ok(
                    a <= (1.0 + TOLERANCE) * b,
                    format!("{a:.2} vs committed {b:.2}"),
                ),
                Err(v) => v,
            },
            Rule::Speedup(f, c) => {
                let width = |doc| Read::Max("pool_width").read(doc).unwrap_or(1.0);
                let (fw, cw) = (width(fresh), width(committed));
                if fw <= 1.0 || cw <= 1.0 {
                    return Verdict::Skip(
                        label,
                        format!(
                            "pool width fresh {fw} committed {cw}: \
                             serial-vs-serial ratios are noise"
                        ),
                    );
                }
                Gate::new(label, Rule::Floor(f, c)).judge(fresh, committed)
            }
            Rule::CommittedBelow(c, bound) => match c.read(committed) {
                Some(b) => ok(b < bound, format!("{b} < {bound}")),
                None => missing("committed", c),
            },
            Rule::Flag(key, min_rows) => {
                let flags = values(committed, key);
                let set = flags.iter().filter(|&&v| v == 1.0).count();
                ok(
                    set == flags.len() && set >= min_rows,
                    format!(
                        "{set} of {} committed rows are 1 (need all, >= {min_rows})",
                        flags.len()
                    ),
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SWEEPS;

    fn gate(label: &str) -> Gate {
        SWEEPS
            .iter()
            .flat_map(|s| s.gates)
            .find(|g| g.label == label)
            .copied()
            .unwrap_or_else(|| panic!("no gate {label}"))
    }

    fn committed(name: &str) -> String {
        let path = format!("{}/../../BENCH_{name}.json", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
    }

    #[test]
    fn committed_files_pass_against_themselves() {
        // Every gate finds its keys in the committed rows, and no gate
        // fails a recording held against itself.
        for s in &SWEEPS {
            let doc = committed(s.name);
            for g in s.gates {
                let v = g.judge(&doc, &doc);
                assert!(!v.failed(), "{}: {v}", s.name);
            }
        }
    }

    #[test]
    fn floor_fails_a_lost_collection_factor() {
        let g = gate("cache collection_factor");
        let row = |x: f64| format!("{{\"collection_factor\": {x:.1}}}\n");
        assert!(g.judge(&row(25.0), &row(32.0)).failed());
        assert!(!g.judge(&row(26.0), &row(32.0)).failed());
    }

    #[test]
    fn ceiling_fails_a_costlier_telemetry_layer() {
        let g = gate("telemetry on/off ratio");
        let row = |pct: f64| format!("{{\"overhead_pct\": {pct:.1}}}\n");
        // On/off ratio 1.30 against committed 1.08: past 1.2 × 1.08.
        assert!(g.judge(&row(30.0), &row(8.0)).failed());
        assert!(!g.judge(&row(29.0), &row(8.0)).failed());
    }

    #[test]
    fn flag_fails_a_committed_zero() {
        let g = gate("committed query coherent");
        let doc = committed("query").replacen("\"coherent\": 1", "\"coherent\": 0", 1);
        assert!(g.judge("", &doc).failed());
    }

    #[test]
    fn flag_fails_too_few_or_no_rows() {
        let g = gate("committed scenario invariant");
        let rows = |n| "{\"invariant\": 1}\n".repeat(n);
        assert!(g.judge("", &rows(3)).failed());
        assert!(!g.judge("", &rows(4)).failed());
        let doc = committed("scenarios").replace("\"invariant\"", "\"checked\"");
        assert!(g.judge("", &doc).failed());
    }

    #[test]
    fn committed_launch_bound_is_strict() {
        let g = gate("committed 49k launch_ms");
        let doc = |ms: &str| {
            format!(
                "{{\"agents\": 16384, \"launch_ms\": 3.4}}\n\
                 {{\"agents\": 49152, \"launch_ms\": {ms}}}\n"
            )
        };
        assert!(g.judge("", &doc("10.0")).failed());
        assert!(!g.judge("", &doc("9.9")).failed());
        // A missing 49k row is a failure, not a pass by matching nothing.
        assert!(g
            .judge("", "{\"agents\": 16384, \"launch_ms\": 3.4}")
            .failed());
    }

    #[test]
    fn serial_pool_skips_the_speedup_gate() {
        let g = gate("cluster parallel speedup");
        let row = |width: usize, speedup: f64| {
            format!("{{\"pool_width\": {width}, \"speedup\": {speedup:.2}}}\n")
        };
        let v = g.judge(&row(1, 0.5), &row(2, 1.8));
        assert!(matches!(v, Verdict::Skip(..)), "{v}");
        let v = g.judge(&row(2, 1.8), &row(1, 0.5));
        assert!(matches!(v, Verdict::Skip(..)), "{v}");
        // Legacy JSON without pool_width counts as width 1.
        let v = g.judge("{\"speedup\": 0.5}", &row(2, 1.8));
        assert!(matches!(v, Verdict::Skip(..)), "{v}");
        // Both sides parallel: the floor applies.
        assert!(g.judge(&row(2, 1.0), &row(2, 1.8)).failed());
        assert!(matches!(
            g.judge(&row(2, 1.6), &row(2, 1.8)),
            Verdict::Ok(..)
        ));
    }
}
