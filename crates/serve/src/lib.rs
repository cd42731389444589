//! Low-latency top-k recommendation serving over **live-training** NOMAD
//! models.
//!
//! The training engines in `nomad-core` keep a model moving at millions of
//! updates per second; this crate adds the read path the ROADMAP's "serve
//! heavy traffic" north star needs, without ever making a query thread take
//! a lock the trainers contend on:
//!
//! * [`ModelSnapshot`] — a compact, immutable-once-published copy of the
//!   factor model with item rows laid out densely for sequential scoring
//!   (the opposite layout trade-off from the training-side `FactorSlab`,
//!   whose cache-line padding serves concurrent writers).
//! * [`SnapshotPublisher`] — epoch-based publication: trainers publish a
//!   snapshot roughly every `publish_every` updates, readers get the latest
//!   epoch with a handful of atomic operations, and an old epoch's memory
//!   is reclaimed when its last reader drops (displaced, unshared buffers
//!   are recycled so steady-state publishing allocates nothing).  For the
//!   threaded engine the snapshot is built *cooperatively* by the training
//!   workers themselves, reusing NOMAD's token-ownership argument so no
//!   locks, stalls, or data races are introduced — see [`publisher`] for
//!   the protocol.
//! * [`QueryEngine`] — exact top-k, code-filtered (reusing the 4-accumulator
//!   `nomad_linalg::dot` kernel), single or batched across scoped worker
//!   threads (small batches answer inline rather than paying a spawn),
//!   with per-query user-factor lookup and seen-item filtering.  A batch
//!   is answered from a single consistent epoch.
//! * [`IvfIndex`] — the approximate path for large catalogs: a seeded
//!   k-means shortlist index probed by [`QueryEngine::top_k_approx`],
//!   exact-reranked so every returned score is a real `⟨w, h⟩`, and
//!   **bit-identical** to the exact scan when every centroid is probed.
//!   Each queried snapshot carries its own index: the epoch's first
//!   approximate query has the publisher patch the run's newest one
//!   forward from its per-row update clocks
//!   ([`SnapshotPublisher::changed_items_since`]) — the same delta set
//!   `nomad-net` ships as `ReplicaDelta` frames — and every later query
//!   of the epoch only reads it.  See [`ivf`] for the recall contract
//!   and the work bound.
//!
//! Freshness: every snapshot carries the update-clock stamp it was
//! initiated at ([`ModelSnapshot::updates_at`]); the publisher tracks the
//! largest gap between consecutive publishes
//! ([`SnapshotPublisher::max_publish_gap`]), which tests hold to the
//! configured interval plus the engines' documented overshoot.  At every
//! quiesce point the engines force-publish the assembled model, so a
//! quiesced snapshot is **bit-identical** to the returned `FactorModel`.
//!
//! The training-side entry points live in `nomad-core`
//! (`run_serving`/`run_online_serving` on the serial and threaded engines).

#![warn(missing_docs)]

mod filter;
pub mod ivf;
pub mod publisher;
pub mod query;
pub mod snapshot;

pub use ivf::{IvfIndex, IvfParams};
pub use publisher::SnapshotPublisher;
pub use query::{QueryEngine, ServeError, UserQuery};
pub use snapshot::{ModelSnapshot, Recommendation, TopK};
