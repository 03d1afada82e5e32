//! The BENCH JSON format, written and read in one place.
//!
//! A document is one object: header fields, then arrays whose rows sit one
//! per line as flat `{"key": value, …}` objects. Numbers are printed at a
//! fixed precision per field. The line-per-row shape is what lets the gate
//! reader get by without a JSON parser: every value it needs is a number
//! after `"key": `.

use std::fmt::Display;

/// A BENCH JSON document under construction, members in insertion order.
pub struct Doc(Vec<String>);

impl Doc {
    /// A document headed by `"bench"`, `"seed"` and the `"host_cpus"` it
    /// ran on.
    pub fn new(bench: &str, seed: u64) -> Self {
        Doc(Vec::new())
            .field("bench", format_args!("\"{bench}\""))
            .field("seed", seed)
            .field("host_cpus", moneq::host_cpus())
    }

    /// A member whose value is printed as is (a number, or `true`/`false`).
    pub fn field(mut self, key: &str, value: impl Display) -> Self {
        self.0.push(format!("  \"{key}\": {value}"));
        self
    }

    /// An array member, one row per line.
    pub fn rows<R: Display>(mut self, key: &str, rows: impl IntoIterator<Item = R>) -> Self {
        let rows: Vec<String> = rows.into_iter().map(|r| format!("    {r}")).collect();
        self.0
            .push(format!("  \"{key}\": [\n{}\n  ]", rows.join(",\n")));
        self
    }

    /// The finished document text.
    pub fn finish(self) -> String {
        format!("{{\n{}\n}}\n", self.0.join(",\n"))
    }
}

/// One flat row object, printed on one line.
#[derive(Default)]
pub struct Obj(Vec<String>);

impl Obj {
    /// A member whose value is printed as is.
    pub fn field(mut self, key: &str, value: impl Display) -> Self {
        self.0.push(format!("\"{key}\": {value}"));
        self
    }

    /// A string member.
    pub fn text(self, key: &str, value: &str) -> Self {
        self.field(key, format_args!("\"{value}\""))
    }
}

impl Display for Obj {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{{}}}", self.0.join(", "))
    }
}

/// `x` printed with `places` decimals.
pub fn fixed(x: f64, places: usize) -> String {
    format!("{x:.places$}")
}

/// Every numeric value of `key` in `doc`, in document order.
pub fn values(doc: &str, key: &str) -> Vec<f64> {
    let needle = format!("\"{key}\":");
    doc.match_indices(&needle)
        .filter_map(|(at, _)| {
            let rest = doc[at + needle.len()..].trim_start();
            let end = rest
                .find(|c: char| !(c.is_ascii_digit() || matches!(c, '-' | '.' | 'e' | 'E' | '+')))
                .unwrap_or(rest.len());
            rest[..end].parse().ok()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn written_rows_read_back() {
        let doc = Doc::new("demo", 7)
            .field("reps", 3)
            .rows(
                "sweeps",
                [1.25, -0.5].map(|x| Obj::default().text("name", "a").field("x", fixed(x, 2))),
            )
            .field("all_x", 1)
            .finish();
        assert_eq!(
            doc,
            format!(
                "{{\n  \"bench\": \"demo\",\n  \"seed\": 7,\n  \"host_cpus\": {},\n  \
                 \"reps\": 3,\n  \"sweeps\": [\n    \
                 {{\"name\": \"a\", \"x\": 1.25}},\n    {{\"name\": \"a\", \"x\": -0.50}}\n  ],\n  \
                 \"all_x\": 1\n}}\n",
                moneq::host_cpus()
            )
        );
        assert_eq!(values(&doc, "x"), [1.25, -0.5]);
        // A key only matches whole: `all_x` is not `x`.
        assert_eq!(values(&doc, "all_x"), [1.0]);
        assert!(values(&doc, "name").is_empty());
    }
}
