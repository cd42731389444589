//! Multi-process deployment: each rank is a re-exec of the current
//! executable, keyed by environment variables.
//!
//! The paper's distributed implementation is MPI + threads; the repo's
//! stand-in is `std::process::Command` self-spawn — the same binary is
//! launched once per rank with [`RANK_ENV`]/[`DRIVER_ENV`] set, and
//! [`child_entry`] (which the binary must call first thing in `main`)
//! diverts those children into the rank loop before any of the parent's
//! own logic runs.  Everything a rank needs — configuration, its user
//! shard, its rating slice, the initial tokens — arrives over the wire,
//! so children never touch the filesystem or re-derive the dataset.

use std::net::TcpListener;
use std::process::{Command, Stdio};

use nomad_matrix::RatingMatrix;

use crate::driver::{run_driver, DistOutput, NetConfig};
use crate::serve_router::ServeRouter;
use crate::tcp::TcpTransport;
use crate::transport::{NetError, Transport};

/// Environment variable carrying the child's rank index.
pub const RANK_ENV: &str = "NOMAD_NET_RANK";

/// Environment variable carrying the driver's `ip:port`.
pub const DRIVER_ENV: &str = "NOMAD_NET_DRIVER";

/// Exit code of a rank child that failed (sysexits' `EX_SOFTWARE`).
pub const CHILD_FAILURE_EXIT: i32 = 70;

/// Rank-child entry hook.  **Must be the first call in `main`** of any
/// binary that runs [`crate::Deployment::Processes`].
///
/// In the parent (no [`RANK_ENV`] set) this is a no-op.  In a child it
/// connects to the driver, runs the rank to quiescence and **exits the
/// process** — control never returns to the caller's `main`.
pub fn child_entry() {
    let Ok(rank) = std::env::var(RANK_ENV) else {
        return;
    };
    let result = (|| -> Result<(), NetError> {
        let rank: usize = rank
            .parse()
            .map_err(|_| NetError::Protocol(format!("bad {RANK_ENV}={rank:?}")))?;
        let addr = std::env::var(DRIVER_ENV)
            .map_err(|_| NetError::Protocol(format!("{DRIVER_ENV} unset in rank child")))?;
        let addr = addr
            .parse()
            .map_err(|_| NetError::Protocol(format!("bad {DRIVER_ENV}={addr:?}")))?;
        let transport = TcpTransport::connect_rank(&addr, rank)?;
        let run = crate::rank::run_rank(&transport);
        transport.linger();
        run
    })();
    match result {
        Ok(()) => std::process::exit(0),
        Err(e) => {
            eprintln!("nomad-net rank child failed: {e}");
            std::process::exit(CHILD_FAILURE_EXIT);
        }
    }
}

/// Spawns `ranks` re-exec'd children, drives the run (serving queries
/// through `router` when one is given), reaps the children.
pub(crate) fn run_processes(
    cfg: &NetConfig,
    data: &RatingMatrix,
    ranks: usize,
    router: Option<&ServeRouter>,
) -> Result<DistOutput, NetError> {
    let listener = TcpListener::bind(("127.0.0.1", 0))?;
    let addr = listener.local_addr()?;
    let exe = std::env::current_exe()?;
    let mut children = Vec::with_capacity(ranks);
    for r in 0..ranks {
        let child = Command::new(&exe)
            .env(RANK_ENV, r.to_string())
            .env(DRIVER_ENV, addr.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            // stderr inherited: a failing rank's diagnostic should surface.
            .spawn()?;
        children.push(child);
    }
    let run = (|| {
        let transport = TcpTransport::accept_ranks(listener, ranks)?;
        run_driver(&transport, data, cfg, router)
    })();
    // Reap the children whatever happened; on driver failure the dropped
    // transport shuts the sockets, so children cannot outlive this loop.
    // A child the driver evicted mid-run is *expected* to exit abnormally
    // (a killed process cannot exit cleanly), so its status is ignored.
    let evicted: Vec<usize> = run
        .as_ref()
        .map(|out| out.stats.evicted.iter().map(|&r| r as usize).collect())
        .unwrap_or_default();
    let mut child_errors = Vec::new();
    for (r, mut child) in children.into_iter().enumerate() {
        if run.is_err() || evicted.contains(&r) {
            let _ = child.kill();
        }
        match child.wait() {
            Ok(status) if status.success() || evicted.contains(&r) => {}
            Ok(status) => child_errors.push(format!("rank {r} exited with {status}")),
            Err(e) => child_errors.push(format!("rank {r} unreapable: {e}")),
        }
    }
    let out = run?;
    if !child_errors.is_empty() {
        return Err(NetError::Protocol(child_errors.join("; ")));
    }
    Ok(out)
}
