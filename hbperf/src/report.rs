//! Metrics as the benchmark prints them.

/// A metric name with the field of an operation's record it reads.
pub type Field<T> = (&'static str, fn(&T) -> u64);

/// One reported metric with the number of samples behind it.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// Metrics of one run: end-to-end (untraced) and per-layer (traced).
#[derive(Default)]
pub struct Metrics {
    pub e2e: Vec<Metric>,
    pub layer: Vec<Metric>,
}

impl Metrics {
    pub fn e2e(&mut self, name: impl Into<String>, value: f64, unit: &'static str, samples: usize) {
        self.e2e.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    pub fn layer(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) {
        self.layer.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    pub fn extend(&mut self, other: Metrics) {
        self.e2e.extend(other.e2e);
        self.layer.extend(other.layer);
    }
}

/// A JSON number for a finite `v`: Rust prints the shortest text that
/// reads back as the same `f64`, so every digit measured is kept.
pub fn json_number(v: f64) -> String {
    format!("{v}")
}

/// `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    format!("\"{}\"", hb_syntax::diag::json_escape(s))
}
