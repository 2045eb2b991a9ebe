//! The workspace's JSON codec.
//!
//! The workspace builds offline with no external crates, so its JSON
//! writers and readers share the one codec in [`json`]: a value tree, a
//! string escaper, and a strict parser. simtrace, simmetrics, simdash and
//! the bench harness all use it.

pub mod json;
