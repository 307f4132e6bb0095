//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation (§6), over the synthetic dataset stand-ins of
//! [`hcl_workloads`].
//!
//! One binary per artefact (`table1`–`table3`, `fig1`, `fig6`–`fig9`,
//! `paper_example`, `ablation`), all thin wrappers over the functions in
//! [`experiments`]; `all_experiments` runs the lot. `bench_query` is the
//! in-process query-path ledger (`BENCH_query.json`).
//!
//! Environment knobs:
//!
//! | variable | default | meaning |
//! |----------|---------|---------|
//! | `HCL_SCALE` | `1.0` | dataset size multiplier (~1/1000 of the paper at 1.0) |
//! | `HCL_QUERIES` | `100000` | query pairs for fast methods (paper: 100,000) |
//! | `HCL_DATASETS` | all | comma-separated dataset subset |
//! | `HCL_PLL_MAX_EDGES` | `1000000` | PLL feasibility gate (larger ⇒ `DNF`) |
//! | `HCL_ISL_MAX_EDGES` | `60000` | IS-L feasibility gate (larger ⇒ `DNF`) |
//!
//! The feasibility gates replace the paper's one-day/512 GB DNF criterion:
//! on our scaled-down stand-ins, PLL and IS-L hit their walls at
//! proportionally scaled sizes, and the gates print `DNF` exactly where the
//! method would otherwise dominate the run (Table 2 of the paper shows the
//! same pattern at 1000× the scale).

pub mod experiments;
pub mod harness;

pub use harness::*;
