//! The four workloads.  Each module's header says why it exists and which
//! layer dominates it; `README.md` has the same in one place.

pub mod serve_mesh;
pub mod serve_static;
pub mod train_local;
pub mod train_ranks;

use crate::harness::{Ctx, Outcome};
use crate::spec;

pub fn run(workload: &str, ctx: &Ctx) -> Result<Outcome, String> {
    match workload {
        spec::TRAIN_LOCAL => train_local::run(ctx),
        spec::TRAIN_RANKS => train_ranks::run(ctx),
        spec::SERVE_STATIC => serve_static::run(ctx),
        spec::SERVE_MESH => serve_mesh::run(ctx),
        other => Err(format!("unknown workload {other:?}")),
    }
}
