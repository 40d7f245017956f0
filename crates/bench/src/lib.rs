//! The JSON value model, [`json`], that fkbench (`benchmark/`) reports
//! through and the paper scorecard (`tests/scorecard.rs`) pins its
//! counters with. The package also builds the `fkq` binary and the
//! criterion benches.

#![warn(missing_docs)]

pub mod json;
