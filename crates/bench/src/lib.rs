//! # dmhpc-bench — the reproduction harness
//!
//! One function per table/figure of the reconstructed evaluation
//! (`repro --list` prints the index). Each experiment returns its printed
//! rows; the `repro` binary dispatches on experiment id and also writes the
//! output under `results/`. Criterion performance benches (reproduction
//! target T3) live in `benches/`.

#![forbid(unsafe_code)]

pub mod experiments;
