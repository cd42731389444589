//! The token queue alone: [`nomad_core::queue::Inbox`], the one queue
//! every engine's workers and transports use.
//!
//! Section 3.5 of the paper: "the only interaction between threads is via
//! operations on the queue."  Two groups:
//!
//! - `queue_push_pop_single_thread` — one push and one pop on one thread:
//!   the uncontended cost a hop pays on each side of a hand-off.
//! - `queue_handoff_two_threads` — a token handed to another thread and
//!   handed back, the consumer waiting on its queue between tokens as an
//!   idle worker does.  Reported per round trip (two hand-offs).
//!
//! The payload is the engine's token shape — an `(item, pass)` index pair,
//! 16 bytes, no heap.

use std::hint::black_box;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use nomad_core::queue::Inbox;

/// The engine's token: item index plus pass count, nothing heap-allocated.
type Token = (u32, u64);

/// Pops `queue`, waiting on it while it is empty.
fn pop_or_wait(queue: &Inbox<Token>) -> Token {
    loop {
        if let Some(token) = queue.pop() {
            return token;
        }
        queue.wait(None);
    }
}

fn bench_single_thread(c: &mut Criterion) {
    let mut group = c.benchmark_group("queue_push_pop_single_thread");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    group.bench_function("inbox/token", |b| {
        let q: Inbox<Token> = Inbox::with_capacity(1);
        b.iter(|| {
            q.push(black_box((7, 42)));
            black_box(q.pop())
        });
    });
    group.finish();
}

fn bench_handoff(c: &mut Criterion) {
    let mut group = c.benchmark_group("queue_handoff_two_threads");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    group.bench_function("inbox/round_trip", |b| {
        let (ping, pong) = (Inbox::with_capacity(1), Inbox::with_capacity(1));
        std::thread::scope(|scope| {
            // The echo thread ends on the `u32::MAX` item.
            scope.spawn(|| loop {
                let (item, pass) = pop_or_wait(&ping);
                pong.push((item, pass + 1));
                if item == u32::MAX {
                    break;
                }
            });
            b.iter(|| {
                ping.push(black_box((7, 42)));
                black_box(pop_or_wait(&pong))
            });
            ping.push((u32::MAX, 0));
        });
    });
    group.finish();
}

criterion_group!(queues, bench_single_thread, bench_handoff);
criterion_main!(queues);
