//! The result line: the last line a run prints on standard output.
//!
//! `{"correct": true, "attempted": 1000, "failed": 0, "metrics":
//! {"host_ios_per_s": {"value": 1.5, "unit": "IO/s"}, ...}}`, on one line.
//! [`Outcome::parse`] reads back exactly the lines [`Outcome::to_line`]
//! writes; `--workload all` uses it to merge the per-workload runs.

/// What one run reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)`, written in this order.
    pub metrics: Vec<(String, f64, String)>,
}

impl Outcome {
    /// The one-line JSON form. Names and units are plain identifiers (no
    /// quotes or backslashes); non-finite values, which JSON cannot hold,
    /// must be rejected by the caller first.
    pub fn to_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Parse a line written by [`Outcome::to_line`].
    pub fn parse(line: &str) -> Option<Outcome> {
        let mut p = Cursor(line.trim());
        p.eat("{\"correct\": ")?;
        let correct = if p.eat("true").is_some() {
            true
        } else {
            p.eat("false")?;
            false
        };
        p.eat(", \"attempted\": ")?;
        let attempted = p.until(",")?.parse().ok()?;
        p.eat(", \"failed\": ")?;
        let failed = p.until(",")?.parse().ok()?;
        p.eat(", \"metrics\": {")?;
        let mut metrics = Vec::new();
        while p.eat("}}").is_none() {
            if !metrics.is_empty() {
                p.eat(", ")?;
            }
            p.eat("\"")?;
            let name = p.until("\"")?.to_string();
            p.eat("\": {\"value\": ")?;
            let value = p.until(",")?.parse().ok()?;
            p.eat(", \"unit\": \"")?;
            let unit = p.until("\"")?.to_string();
            p.eat("\"}")?;
            metrics.push((name, value, unit));
        }
        p.0.is_empty().then_some(Outcome {
            correct,
            attempted,
            failed,
            metrics,
        })
    }
}

/// The unread rest of a line.
struct Cursor<'a>(&'a str);

impl<'a> Cursor<'a> {
    /// Consume `prefix`, if the rest starts with it.
    fn eat(&mut self, prefix: &str) -> Option<()> {
        self.0 = self.0.strip_prefix(prefix)?;
        Some(())
    }

    /// Consume and return everything before the next `end` (which stays).
    fn until(&mut self, end: &str) -> Option<&'a str> {
        let i = self.0.find(end)?;
        let (head, rest) = self.0.split_at(i);
        self.0 = rest;
        Some(head)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_round_trip() {
        let o = Outcome {
            correct: false,
            attempted: 12,
            failed: 3,
            metrics: vec![
                ("host_ios_per_s".into(), 1234.5678, "IO/s".into()),
                ("setup_s".into(), 0.000123, "s".into()),
            ],
        };
        assert_eq!(Outcome::parse(&o.to_line()), Some(o.clone()));
        let empty = Outcome {
            metrics: Vec::new(),
            ..o
        };
        assert_eq!(Outcome::parse(&empty.to_line()), Some(empty));
        assert_eq!(Outcome::parse("{\"correct\": maybe}"), None);
    }
}
