#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # pioeval-bench
//!
//! The benchmark harness: one experiment per figure of the paper
//! (F1–F4) and per quantitative claim its text makes (E1–E14), as
//! indexed in DESIGN.md. Each experiment is a pure function returning an
//! [`ExpOutput`]; `exp_all` prints them, EXPERIMENTS.md records
//! them, and `benches/experiments.rs` measures their core operations
//! with Criterion.

pub mod experiments;

use pioeval_core::Table;

/// Experiment scale: `Full` for the recorded tables, `Quick` for
/// Criterion iterations and smoke tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The scale EXPERIMENTS.md records.
    Full,
    /// A reduced scale that finishes in tens of milliseconds.
    Quick,
}

impl Scale {
    /// Pick `full` or `quick` by scale.
    pub fn pick<T>(self, full: T, quick: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Quick => quick,
        }
    }
}

/// One experiment's rendered result.
pub struct ExpOutput {
    /// Experiment id (e.g. "F3", "E11").
    pub id: &'static str,
    /// Title line.
    pub title: &'static str,
    /// What the paper claims/shows (the expectation being reproduced).
    pub paper: &'static str,
    /// The regenerated table.
    pub table: Table,
    /// Observations worth recording alongside the table.
    pub notes: Vec<String>,
}

impl ExpOutput {
    /// Render the full report block.
    pub fn render(&self) -> String {
        let mut out = format!("== {}: {} ==\n", self.id, self.title);
        out.push_str(&format!("paper: {}\n\n", self.paper));
        out.push_str(&self.table.render());
        if !self.notes.is_empty() {
            out.push('\n');
            for n in &self.notes {
                out.push_str(&format!("note: {n}\n"));
            }
        }
        out
    }

    /// Print to stdout (binary entry points).
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_pick() {
        assert_eq!(Scale::Full.pick(10, 1), 10);
        assert_eq!(Scale::Quick.pick(10, 1), 1);
    }

    /// Every experiment must produce a non-empty table at quick scale —
    /// the smoke test that keeps the whole harness runnable.
    #[test]
    fn all_experiments_produce_tables_at_quick_scale() {
        let outputs = experiments::all(Scale::Quick);
        assert_eq!(outputs.len(), 24);
        for (o, (id, _)) in outputs.iter().zip(experiments::EXPERIMENTS) {
            assert!(!o.table.is_empty(), "{} produced an empty table", o.id);
            assert!(!o.render().is_empty());
            // `exp_all` ids name the index entry the experiment reports.
            assert_eq!(id.replace("fig", "f").to_uppercase(), o.id);
        }
    }
}
