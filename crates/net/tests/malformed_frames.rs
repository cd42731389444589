//! A rank refuses a frame whose shape is wrong instead of panicking.
//!
//! The codec only lays `Setup` and `ShardTransfer` out; whether their
//! rating columns and factor rows describe the segment they claim is the
//! receiving rank's question.  Each case here runs one rank of a one-rank
//! loopback mesh on a frame that differs from a well-formed one in one
//! flaw and checks that `run_rank` returns `NetError::Protocol`.  A
//! `Drain` follows every frame, so a rank that wrongly accepts one ends
//! its run and fails the assertion instead of training forever.  A rank
//! that accepted a membership naming a rank that never runs would wait
//! for it forever instead, so the addressing cases (rank, mesh,
//! membership, and a control frame naming a rank outside the mesh) run
//! under a watchdog.

use std::sync::mpsc::{channel, RecvTimeoutError};
use std::time::Duration;

use nomad_core::RoutingPolicy;
use nomad_net::{
    run_rank, Loopback, Message, NetError, SetupPayload, ShardTransferPayload, Transport, WireCols,
};

/// A well-formed setup for the one rank of a one-rank mesh: users 2..5 of
/// a 6 × 4 matrix at k = 2, whose columns hold rows {2}, {3, 4}, {} and
/// {4}.
fn setup() -> SetupPayload {
    SetupPayload {
        rank: 0,
        ranks: 1,
        nrows: 6,
        ncols: 4,
        row_start: 2,
        row_count: 3,
        k: 2,
        seed: 7,
        lambda: 0.05,
        alpha: 0.012,
        beta: 0.05,
        routing: RoutingPolicy::UniformRandom,
        budget: 1_000,
        message_batch: 100,
        progress_every: 1_000,
        heartbeat_timeout_ms: 0,
        abort_after_updates: 0,
        serve_publish_every: 0,
        serve_nprobe: 0,
        epoch: 0,
        active_ranks: vec![0],
        w_rows: vec![0.5; 6],
        cols: WireCols {
            counts: vec![1, 2, 0, 1],
            rows: vec![2, 3, 4, 4],
            values: vec![3.0, 4.0, 5.0, 1.0],
        },
    }
}

/// Sends `frames` and then `Drain` from the driver of a one-rank loopback
/// mesh, and runs the rank on them.
fn run_on(frames: Vec<Message>) -> Result<(), NetError> {
    let (driver, ranks) = Loopback::mesh(1);
    for frame in frames.iter().chain([&Message::Drain]) {
        driver.send(0, frame).expect("loopback send");
    }
    run_rank(&ranks[0])
}

fn assert_refused(frames: Vec<Message>) {
    let got = run_on(frames);
    assert!(matches!(got, Err(NetError::Protocol(_))), "{got:?}");
}

fn refused_setup(setup: SetupPayload) {
    assert_refused(vec![Message::Setup(Box::new(setup))]);
}

/// [`refused_setup`] on its own thread, failing if the rank is still
/// running after ten seconds.
fn refused_setup_in_time(setup: SetupPayload) {
    refused_in_time(vec![Message::Setup(Box::new(setup))]);
}

/// A well-formed setup and then `frame`, refused on its own thread within
/// ten seconds: a rank past the membership bitmaps (70) once panicked the
/// comm thread, which left `run_rank` waiting forever, or aliased rank 6.
fn refused_after_setup_in_time(frame: Message) {
    refused_in_time(vec![Message::Setup(Box::new(setup())), frame]);
}

/// [`assert_refused`] on its own thread, failing if the rank is still
/// running after ten seconds.
fn refused_in_time(frames: Vec<Message>) {
    let limit = Duration::from_secs(10);
    let (done, finished) = channel();
    let handle = std::thread::spawn(move || {
        assert_refused(frames);
        let _ = done.send(());
    });
    if finished.recv_timeout(limit) == Err(RecvTimeoutError::Timeout) {
        panic!("the rank still runs on the frames after {limit:?}");
    }
    handle
        .join()
        .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
}

fn with_cols(counts: Vec<u32>, rows: Vec<u32>) -> SetupPayload {
    let values = vec![1.0; rows.len()];
    SetupPayload {
        cols: WireCols {
            counts,
            rows,
            values,
        },
        ..setup()
    }
}

#[test]
fn a_well_formed_setup_runs_to_its_shard() {
    let got = run_on(vec![Message::Setup(Box::new(setup()))]);
    assert!(got.is_ok(), "{got:?}");
}

#[test]
fn malformed_setup_counts_not_summing_to_rows_is_refused() {
    refused_setup(with_cols(vec![1, 2, 0, 2], vec![2, 3, 4, 4]));
    refused_setup(with_cols(vec![1, 2, 0, 0], vec![2, 3, 4, 4]));
}

#[test]
fn malformed_setup_row_outside_the_segment_is_refused() {
    refused_setup(with_cols(vec![1, 2, 0, 1], vec![1, 3, 4, 4]));
    refused_setup(with_cols(vec![1, 2, 0, 1], vec![2, 3, 4, 5]));
}

#[test]
fn malformed_setup_descending_rows_are_refused() {
    refused_setup(with_cols(vec![1, 2, 0, 1], vec![2, 4, 3, 4]));
}

#[test]
fn malformed_setup_duplicate_row_is_refused() {
    refused_setup(with_cols(vec![1, 2, 0, 1], vec![2, 3, 3, 4]));
}

#[test]
fn malformed_setup_counts_length_is_refused() {
    refused_setup(with_cols(vec![1, 2, 1], vec![2, 3, 4, 4]));
    refused_setup(with_cols(vec![1, 2, 0, 1, 0], vec![2, 3, 4, 4]));
}

#[test]
fn malformed_setup_short_w_rows_is_refused() {
    refused_setup(SetupPayload {
        w_rows: vec![0.5; 5],
        ..setup()
    });
    refused_setup(SetupPayload {
        row_count: 5,
        w_rows: vec![0.5; 10],
        ..setup()
    });
}

#[test]
fn malformed_shard_transfer_is_refused() {
    let transfer = |row_start, rows: Vec<f64>, cols| {
        Message::ShardTransfer(Box::new(ShardTransferPayload {
            row_start,
            k: 2,
            rows,
            cols,
        }))
    };
    let user_0 = WireCols {
        counts: vec![0, 0, 1, 0],
        rows: vec![0],
        values: vec![1.0],
    };
    for bad in [
        transfer(5, vec![0.5; 3], WireCols::default()), // half a row
        transfer(1, vec![0.5; 2], user_0),              // user 0 is not in 1..2
    ] {
        assert_refused(vec![Message::Setup(Box::new(setup())), bad]);
    }
}

#[test]
fn malformed_setup_for_another_rank_is_refused() {
    refused_setup_in_time(SetupPayload { rank: 1, ..setup() });
}

#[test]
fn malformed_setup_for_another_mesh_is_refused() {
    refused_setup_in_time(SetupPayload {
        ranks: 2,
        ..setup()
    });
}

#[test]
fn malformed_setup_active_rank_past_the_bitmap_is_refused() {
    refused_setup_in_time(SetupPayload {
        active_ranks: vec![0, 70],
        ..setup()
    });
}

#[test]
fn malformed_setup_active_rank_outside_the_mesh_is_refused() {
    refused_setup_in_time(SetupPayload {
        active_ranks: vec![0, 3],
        ..setup()
    });
}

#[test]
fn malformed_setup_without_this_rank_active_is_refused() {
    refused_setup_in_time(SetupPayload {
        active_ranks: vec![],
        ..setup()
    });
}

#[test]
fn malformed_fin_from_a_rank_outside_the_mesh_is_refused() {
    refused_after_setup_in_time(Message::Fin { rank: 70 });
}

#[test]
fn malformed_census_mark_from_a_rank_outside_the_mesh_is_refused() {
    refused_after_setup_in_time(Message::CensusMark { epoch: 1, rank: 70 });
}

#[test]
fn malformed_evict_of_a_rank_outside_the_mesh_is_refused() {
    refused_after_setup_in_time(Message::Evict { epoch: 1, rank: 70 });
}

#[test]
fn malformed_add_rank_outside_the_mesh_is_refused() {
    refused_after_setup_in_time(Message::AddRank { epoch: 1, rank: 70 });
}
