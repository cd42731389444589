//! The one in-process launcher.  [`crate::DistributedNomad::run`]'s
//! Loopback and thread-TCP deployments, the fuzz harnesses and the
//! engine's tests all start a mesh with [`launch`]; re-exec'd rank
//! processes start in [`crate::process`].
//!
//! When the driver is done — returned, failed or panicked — the launcher
//! closes the mesh ([`Transport::close`]).  A rank still waiting for its
//! `Setup` then returns [`NetError::Closed`] at once, and a joiner still
//! waiting for admission counts as turned away, so the caller hears the
//! driver's outcome without waiting on ranks the driver will never
//! answer.  Frames sent before the close are still delivered: an evicted
//! rank reads its `Evict` and exits cleanly.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::time::Duration;

use nomad_matrix::RatingMatrix;

use crate::driver::{run_driver, DistOutput, NetConfig};
use crate::rank::{join_rank, run_rank};
use crate::serve_router::ServeRouter;
use crate::transport::{NetError, Transport};

/// Runs one distributed NOMAD job on `mesh` — a driver endpoint and its
/// rank endpoints, as [`crate::Loopback::mesh`] and
/// [`crate::TcpTransport::mesh`] build them — inside this process:
/// [`run_rank`] on a scoped thread per initial rank, [`join_rank`] on one
/// per `(slot, delay)` joiner (after sleeping `delay`), and [`run_driver`]
/// with `cfg` and `router` on the calling thread.  Every endpoint passes
/// through `wrap` first: the identity, or a [`crate::ChaosTransport`].
/// Returns the driver's outcome and each started rank's, in slot order (a
/// joiner the run turned away is `Ok`).
///
/// # Panics
/// Panics if a joiner's slot is not one of `initial_ranks..capacity`,
/// with [`run_driver`]'s panics, and with a rank thread's panic.
pub fn launch<T, R: Transport>(
    mesh: (T, Vec<T>),
    joiners: &[(usize, Duration)],
    data: &RatingMatrix,
    cfg: &NetConfig,
    router: Option<&ServeRouter>,
    wrap: impl Fn(T) -> R,
) -> (Result<DistOutput, NetError>, Vec<Result<(), NetError>>) {
    let (driver, endpoints) = mesh;
    let capacity = endpoints.len();
    let initial = cfg.initial_ranks_of(capacity);
    for &(slot, _) in joiners {
        assert!(
            (initial..capacity).contains(&slot),
            "joiner slot {slot} must be an initially-empty mesh slot"
        );
    }
    std::thread::scope(|scope| {
        let mut ranks = Vec::new();
        for (slot, ep) in endpoints.into_iter().enumerate() {
            let join = joiners.iter().find(|j| j.0 == slot).map(|j| j.1);
            if slot >= initial && join.is_none() {
                continue;
            }
            let ep = wrap(ep);
            ranks.push(scope.spawn(move || {
                let run = match join {
                    None => run_rank(&ep),
                    Some(delay) => {
                        std::thread::sleep(delay);
                        join_rank(&ep).map(drop)
                    }
                };
                ep.linger();
                run
            }));
        }
        let driver = wrap(driver);
        let out = catch_unwind(AssertUnwindSafe(|| run_driver(&driver, data, cfg, router)));
        // Done, failed or panicked: the driver will answer no rank again.
        driver.close();
        let ranks = ranks
            .into_iter()
            .map(|rank| rank.join().unwrap_or_else(|panic| resume_unwind(panic)))
            .collect();
        (out.unwrap_or_else(|panic| resume_unwind(panic)), ranks)
    })
}
