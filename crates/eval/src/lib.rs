//! Experiment harness: everything needed to regenerate the tables and
//! figures of the NOMAD paper's evaluation (Section 5 and Appendices A–F).
//!
//! The harness has four layers:
//!
//! * [`mod@env`] — cluster specifications (single machine, HPC, commodity) that
//!   bundle a topology with the matching network and compute cost models,
//! * [`solver`] — a single entry point, [`solver::run_solver`], that runs
//!   any of the algorithms in the workspace on a dataset under a cluster
//!   spec and returns its convergence trace,
//! * [`figures`] — one function per paper figure/table family, each
//!   producing a [`figures::Figure`] (a set of labelled traces),
//! * [`report`] — CSV / markdown renderers used by the `fig` binary
//!   (`src/bin/fig.rs`), which reproduces any table or figure by id, or
//!   all of them with `fig all`.

#![warn(missing_docs)]

pub mod env;
pub mod figures;
pub mod report;
pub mod solver;

pub use env::ClusterSpec;
pub use figures::{Figure, ReproScale, Series};
pub use report::{figure_to_csv, figure_to_markdown};
pub use solver::{run_solver, SolverKind};
