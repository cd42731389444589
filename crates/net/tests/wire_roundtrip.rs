//! Property tests for the wire codec.
//!
//! Two families: (1) arbitrary token batches, setups and shards encode →
//! decode bit-identically (`f64` payloads compared by bit pattern, since
//! factors must survive the wire unchanged for the p=1 serial-identity
//! guarantee to hold); (2) fuzz-ish totality — truncating or corrupting
//! any encoded frame produces a [`WireError`], never a panic and never an
//! allocation beyond what the input length could legitimately describe.

use proptest::prelude::*;

use nomad_core::RoutingPolicy;
use nomad_net::{
    Message, ReplicaDeltaPayload, ReplicaPayload, SetupPayload, ShardPayload, TelemetryPayload,
    WireCols, WireDeltaRow, WireError, WireSegment, WireToken, QUERY_UNKNOWN_USER,
};
use nomad_telemetry::{HistSnapshot, TelemetrySnapshot, HIST_BUCKETS};

/// Strategy: an arbitrary factor row, including non-finite and
/// signed-zero bit patterns (decoded factors must be *bit*-faithful).
fn arb_factor() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(any::<u64>(), 0..12)
        .prop_map(|bits| bits.into_iter().map(f64::from_bits).collect())
}

/// Strategy: a metric name within the codec's length cap (the cap itself
/// is pinned by a unit test in the wire module). Names are drawn from the
/// dotted-lowercase alphabet real metrics use.
fn arb_metric_name() -> impl Strategy<Value = String> {
    const CHARSET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789._";
    proptest::collection::vec(0usize..CHARSET.len(), 1..24)
        .prop_map(|idx| idx.into_iter().map(|i| CHARSET[i] as char).collect())
}

/// Strategy: an arbitrary frozen telemetry snapshot — counters, gauges
/// (including negative values, via bit reinterpretation), and full
/// 65-bucket histograms with unconstrained totals.
fn arb_telemetry() -> impl Strategy<Value = TelemetrySnapshot> {
    (
        proptest::collection::vec((arb_metric_name(), any::<u64>()), 0..6),
        proptest::collection::vec((arb_metric_name(), any::<u64>()), 0..6),
        proptest::collection::vec(
            (
                arb_metric_name(),
                any::<u64>(),
                proptest::collection::vec(any::<u64>(), HIST_BUCKETS..HIST_BUCKETS + 1),
            ),
            0..3,
        ),
    )
        .prop_map(|(counters, gauge_bits, hists)| TelemetrySnapshot {
            counters,
            gauges: gauge_bits
                .into_iter()
                .map(|(name, bits)| (name, bits as i64))
                .collect(),
            hists: hists
                .into_iter()
                .map(|(name, seed, bucket_vec)| {
                    let mut buckets = [0u64; HIST_BUCKETS];
                    buckets.copy_from_slice(&bucket_vec);
                    (
                        name,
                        HistSnapshot {
                            count: seed,
                            sum: seed.rotate_left(17),
                            max: seed >> 3,
                            buckets,
                        },
                    )
                })
                .collect(),
        })
}

fn arb_tokens() -> impl Strategy<Value = Vec<WireToken>> {
    proptest::collection::vec(
        (any::<u32>(), any::<u64>(), arb_factor()).prop_map(|(item, pass, factor)| WireToken {
            item,
            pass,
            factor,
        }),
        0..20,
    )
}

/// Bit-exact message equality: `PartialEq` on `f64` treats `-0.0 == 0.0`
/// and `NaN != NaN`, so compare the re-encoded bytes instead.
fn assert_bit_identical(a: &Message, b: &Message) {
    assert_eq!(
        a.encode().unwrap(),
        b.encode().unwrap(),
        "decoded message must re-encode to identical bytes"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Token batches survive the wire bit-identically.
    #[test]
    fn token_batches_round_trip(qlen in any::<u64>(), tokens in arb_tokens()) {
        let msg = Message::TokenBatch { qlen, tokens };
        let decoded = Message::decode(&msg.encode().unwrap()).unwrap();
        assert_bit_identical(&msg, &decoded);
    }

    /// Shards (factor rows + held tokens + conservation counters) survive
    /// the wire bit-identically.
    #[test]
    fn shards_round_trip(
        rank in 0u32..64,
        seg_starts in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..4),
        k in 0u32..16,
        w_bits in proptest::collection::vec(any::<u64>(), 0..64),
        tokens in arb_tokens(),
        tickets in any::<u64>(),
        updates in any::<u64>(),
        remote_sends in any::<u64>(),
    ) {
        let segments = seg_starts
            .into_iter()
            .map(|(row_start, n)| WireSegment {
                row_start,
                rows: (0..(n % 8)).map(|i| f64::from_bits(row_start ^ i)).collect(),
            })
            .collect();
        let msg = Message::Shard(Box::new(ShardPayload {
            rank,
            k,
            segments,
            tokens,
            tickets,
            updates,
            remote_sends,
        }));
        let decoded = Message::decode(&msg.encode().unwrap()).unwrap();
        assert_bit_identical(&msg, &decoded);
    }

    /// Setup payloads survive the wire (structural equality is enough
    /// here: the strategy only generates finite floats).
    #[test]
    fn setups_round_trip(
        rank in 0u32..8,
        ranks in 1u32..8,
        dims in (1u64..2000, 1u64..2000),
        seed in any::<u64>(),
        routing in 0usize..3,
        budget in any::<u64>(),
        counts in proptest::collection::vec(any::<u32>(), 0..12),
        ratings in proptest::collection::vec((any::<u32>(), -5.0f64..5.0), 0..40),
        w in proptest::collection::vec(-1.0f64..1.0, 0..32),
    ) {
        let msg = Message::Setup(Box::new(SetupPayload {
            rank,
            ranks,
            nrows: dims.0,
            ncols: dims.1,
            row_start: dims.0 / 2,
            row_count: dims.0 - dims.0 / 2,
            k: 8,
            seed,
            lambda: 0.05,
            alpha: 0.012,
            beta: 0.05,
            routing: [
                RoutingPolicy::UniformRandom,
                RoutingPolicy::LeastLoaded,
                RoutingPolicy::RoundRobin,
            ][routing],
            budget,
            message_batch: 100,
            progress_every: 4096,
            heartbeat_timeout_ms: 10_000,
            abort_after_updates: 0,
            serve_publish_every: budget / 7,
            serve_nprobe: rank * 4,
            epoch: 3,
            active_ranks: (0..ranks).collect(),
            w_rows: w,
            // The codec lays columns out without judging them: any counts,
            // rows and values survive.
            cols: WireCols {
                counts,
                rows: ratings.iter().map(|&(i, _)| i).collect(),
                values: ratings.iter().map(|&(_, v)| v).collect(),
            },
        }));
        let decoded = Message::decode(&msg.encode().unwrap()).unwrap();
        prop_assert_eq!(&msg, &decoded);
    }

    /// Serving queries survive the wire exactly (ids, excluded items).
    #[test]
    fn queries_round_trip(
        id in any::<u64>(),
        user in any::<u32>(),
        k in any::<u32>(),
        seen in proptest::collection::vec(any::<u32>(), 0..40),
    ) {
        let msg = Message::Query { id, user, k, seen };
        let decoded = Message::decode(&msg.encode().unwrap()).unwrap();
        prop_assert_eq!(&msg, &decoded);
    }

    /// Query replies survive the wire bit-identically — recommendation
    /// scores are `f64`s and must not be disturbed (NaN/-0.0 included).
    #[test]
    fn query_replies_round_trip(
        id in any::<u64>(),
        status in 0u8..=3,
        clocks in (any::<u64>(), any::<u64>(), any::<u64>()),
        rec_bits in proptest::collection::vec((any::<u32>(), any::<u64>()), 0..30),
    ) {
        let msg = Message::QueryReply {
            id,
            status,
            epoch: clocks.0,
            updates_at: clocks.1,
            staleness: clocks.2,
            recs: rec_bits.into_iter().map(|(j, b)| (j, f64::from_bits(b))).collect(),
        };
        let decoded = Message::decode(&msg.encode().unwrap()).unwrap();
        assert_bit_identical(&msg, &decoded);
    }

    /// A reply status outside the defined range is a decode error, not a
    /// value the router has to defend against.
    #[test]
    fn undefined_reply_statuses_are_rejected(bad in QUERY_UNKNOWN_USER + 1..=u8::MAX) {
        let msg = Message::QueryReply {
            id: 1,
            status: QUERY_UNKNOWN_USER, // encode something valid first
            epoch: 0,
            updates_at: 0,
            staleness: 0,
            recs: vec![],
        };
        let mut bytes = msg.encode().unwrap();
        // The status byte sits right after the tag byte and the u64 id.
        bytes[1 + 8] = bad;
        prop_assert!(matches!(Message::decode(&bytes), Err(WireError::BadValue(_))));
    }

    /// Replica frames (snapshot mirrors for failover) survive the wire
    /// bit-identically.
    #[test]
    fn replicas_round_trip(
        rank in 0u32..64,
        k in 1u32..8,
        epoch in any::<u64>(),
        updates_at in any::<u64>(),
        seg_starts in proptest::collection::vec((any::<u64>(), 0u64..4), 0..4),
        item_bits in proptest::collection::vec(any::<u64>(), 0..48),
    ) {
        let segments = seg_starts
            .into_iter()
            .map(|(row_start, n)| WireSegment {
                row_start,
                rows: (0..n * k as u64).map(|i| f64::from_bits(row_start ^ i)).collect(),
            })
            .collect();
        let msg = Message::Replica(Box::new(ReplicaPayload {
            rank,
            k,
            epoch,
            updates_at,
            segments,
            items: item_bits.into_iter().map(f64::from_bits).collect(),
        }));
        let decoded = Message::decode(&msg.encode().unwrap()).unwrap();
        assert_bit_identical(&msg, &decoded);
    }

    /// Replica *delta* frames (changed rows only, chained by epoch)
    /// survive the wire bit-identically — NaN payloads and signed zeros
    /// included, since the delta chain promises the driver a replica
    /// byte-identical to full-frame publishing.
    #[test]
    fn replica_deltas_round_trip(
        rank in 0u32..64,
        k in 0u32..8,
        clocks in (any::<u64>(), any::<u64>(), any::<u64>()),
        w_rows in proptest::collection::vec((any::<u64>(), arb_factor()), 0..6),
        h_rows in proptest::collection::vec((any::<u64>(), arb_factor()), 0..6),
    ) {
        let rows = |list: Vec<(u64, Vec<f64>)>| {
            list.into_iter()
                .map(|(row, factors)| WireDeltaRow { row, factors })
                .collect::<Vec<_>>()
        };
        let msg = Message::ReplicaDelta(Box::new(ReplicaDeltaPayload {
            rank,
            k,
            epoch: clocks.0,
            base_epoch: clocks.1,
            updates_at: clocks.2,
            w_rows: rows(w_rows),
            h_rows: rows(h_rows),
        }));
        let decoded = Message::decode(&msg.encode().unwrap()).unwrap();
        assert_bit_identical(&msg, &decoded);
    }

    /// Truncating or byte-flipping a replica delta frame is total: an
    /// error or a different valid message, never a panic.
    #[test]
    fn replica_delta_corruption_is_total(
        h_rows in proptest::collection::vec((any::<u64>(), arb_factor()), 0..4),
        cut_seed in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let msg = Message::ReplicaDelta(Box::new(ReplicaDeltaPayload {
            rank: 2,
            k: 4,
            epoch: 9,
            base_epoch: 8,
            updates_at: 77,
            w_rows: vec![WireDeltaRow { row: 3, factors: vec![1.0, -0.0, f64::NAN, 2.5] }],
            h_rows: h_rows
                .into_iter()
                .map(|(row, factors)| WireDeltaRow { row, factors })
                .collect(),
        }));
        let bytes = msg.encode().unwrap();
        let cut = (cut_seed % bytes.len() as u64) as usize;
        prop_assert!(Message::decode(&bytes[..cut]).is_err());
        let mut flipped = bytes.clone();
        let pos = (cut_seed % bytes.len() as u64) as usize;
        flipped[pos] ^= flip;
        let _ = Message::decode(&flipped); // must not panic
    }

    /// Pure random garbage never decodes to a replica delta that would
    /// allocate more factor storage than the input itself contained.
    #[test]
    fn garbage_deltas_never_over_allocate(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        if let Ok(Message::ReplicaDelta(p)) = Message::decode(&bytes) {
            let decoded_f64s: usize = p
                .w_rows
                .iter()
                .chain(&p.h_rows)
                .map(|r| r.factors.len())
                .sum();
            prop_assert!(decoded_f64s * 8 <= bytes.len());
        }
    }

    /// Telemetry frames — cumulative counter/gauge/histogram snapshots a
    /// rank reports to the driver — survive the wire exactly. Everything
    /// in the payload is integral, so structural equality is exact.
    #[test]
    fn telemetry_frames_round_trip(
        rank in any::<u32>(),
        seq in any::<u64>(),
        snapshot in arb_telemetry(),
    ) {
        let msg = Message::Telemetry(Box::new(TelemetryPayload { rank, seq, snapshot }));
        let decoded = Message::decode(&msg.encode().unwrap()).unwrap();
        prop_assert_eq!(&msg, &decoded);
    }

    /// Truncating a telemetry frame anywhere is a clean [`WireError`],
    /// and flipping any single byte never panics the decoder — metric
    /// names make these the only frames carrying length-prefixed strings,
    /// so the name-length guard gets fuzzed here.
    #[test]
    fn telemetry_frame_corruption_is_total(
        snapshot in arb_telemetry(),
        cut_seed in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let msg = Message::Telemetry(Box::new(TelemetryPayload { rank: 3, seq: 9, snapshot }));
        let bytes = msg.encode().unwrap();
        let cut = (cut_seed % bytes.len() as u64) as usize;
        prop_assert!(Message::decode(&bytes[..cut]).is_err());
        let mut flipped = bytes.clone();
        let pos = (cut_seed % bytes.len() as u64) as usize;
        flipped[pos] ^= flip;
        let _ = Message::decode(&flipped); // must not panic
    }

    /// Truncating or corrupting serving frames is total: an error or a
    /// different valid message, never a panic.
    #[test]
    fn serving_frame_corruption_is_total(
        seen in proptest::collection::vec(any::<u32>(), 0..12),
        cut_seed in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let bytes = Message::Query { id: 42, user: 7, k: 10, seen }.encode().unwrap();
        let cut = (cut_seed % bytes.len() as u64) as usize;
        prop_assert!(Message::decode(&bytes[..cut]).is_err());
        let mut flipped = bytes.clone();
        let pos = (cut_seed % bytes.len() as u64) as usize;
        flipped[pos] ^= flip;
        let _ = Message::decode(&flipped); // must not panic
    }

    /// Every strict prefix of a valid frame fails to decode — cleanly.
    #[test]
    fn truncations_error_instead_of_panicking(tokens in arb_tokens(), cut_seed in any::<u64>()) {
        let bytes = Message::TokenBatch { qlen: 7, tokens }.encode().unwrap();
        let cut = (cut_seed % bytes.len().max(1) as u64) as usize;
        prop_assert!(Message::decode(&bytes[..cut]).is_err());
    }

    /// Flipping any single byte of a frame either still decodes to *some*
    /// message (e.g. a flipped float bit) or errors — it never panics.
    /// Appending garbage after a valid payload always errors.
    #[test]
    fn corruption_is_total(tokens in arb_tokens(), pos_seed in any::<u64>(), flip in 1u8..=255) {
        let mut bytes = Message::TokenBatch { qlen: 3, tokens }.encode().unwrap();
        let pos = (pos_seed % bytes.len() as u64) as usize;
        bytes[pos] ^= flip;
        let _ = Message::decode(&bytes); // must not panic
        let mut extended = Message::Drain.encode().unwrap();
        extended.push(flip);
        prop_assert_eq!(Message::decode(&extended), Err(WireError::Trailing(1)));
    }

    /// Pure random garbage never decodes to a token batch that would
    /// allocate more factor storage than the input itself contained.
    #[test]
    fn garbage_never_over_allocates(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        if let Ok(Message::TokenBatch { tokens, .. }) = Message::decode(&bytes) {
            let decoded_f64s: usize = tokens.iter().map(|t| t.factor.len()).sum();
            prop_assert!(decoded_f64s * 8 <= bytes.len());
        }
    }
}
