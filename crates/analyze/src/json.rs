//! The JSON codec under its historical path: [`Value`] is
//! [`hawkeye_metrics::json::Json`]. Kept for the standalone `perf/`
//! benchmark crate; code in this workspace imports the codec from
//! `hawkeye_metrics::json`.

pub use hawkeye_metrics::json::{parse, Json as Value};
