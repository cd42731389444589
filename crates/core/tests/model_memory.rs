//! Proof that a threaded run holds one user matrix `W`.
//!
//! A tracking global allocator keeps the live heap bytes and their
//! high-water mark.  Just before `ThreadedNomad::run` the mark is reset to
//! the live bytes, so afterwards it reads the most the run ever held on top
//! of what existed before it.  The run must allocate its one `W`
//! (`nrows·k·8` bytes, returned in the model); a per-worker copy of the user
//! blocks, or a second `W` gathered at the end of a round, would each add
//! another.  The rest of the run (rating slices, `H`, slab, queues) is a
//! fraction of `W` on this dataset, so the peak must stay under 1.5 × `W`,
//! at one round and at several.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use nomad_core::{NomadConfig, StopCondition, ThreadedNomad};
use nomad_data::{named_dataset, SizeTier};
use nomad_sgd::HyperParams;

/// Forwards to the system allocator, tracking live bytes and their peak.
struct TrackingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: pure pass-through to `System` plus relaxed counter updates.
unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        match new_size.checked_sub(layout.size()) {
            Some(more) => grew(more),
            None => {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: TrackingAlloc = TrackingAlloc;

/// One test function, so no other test thread of this binary allocates
/// while a run is measured.
#[test]
fn a_threaded_run_holds_one_user_matrix() {
    let ds = named_dataset("netflix-sim", SizeTier::Small)
        .unwrap()
        .build();
    let k = 32;
    let w_bytes = ds.matrix.nrows() * k * 8;
    for rounds in [1, 4] {
        let cfg = NomadConfig::new(HyperParams::netflix().with_k(k))
            .with_stop(StopCondition::Updates(200_000))
            .with_seed(5)
            .with_schedule_recording(false);
        let engine = ThreadedNomad::new(cfg);
        let before = LIVE.load(Ordering::SeqCst);
        PEAK.store(before, Ordering::SeqCst);
        let out = engine.run(&ds.matrix, &ds.test, 2, rounds);
        let above = PEAK.load(Ordering::SeqCst) - before;
        assert_eq!(out.model.num_users(), ds.matrix.nrows());
        assert!(
            above * 2 < w_bytes * 3,
            "{rounds} round(s): the run's peak was {above} bytes above its start, \
             {:.2} × W ({w_bytes} bytes); one W is the whole budget",
            above as f64 / w_bytes as f64
        );
    }
}
