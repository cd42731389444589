//! Golden frames: the byte format of every `nomad-net` message, pinned.
//!
//! [`GOLDEN`] holds, as hex, the payload the hand-written codec of the
//! commit before the table-driven one produced for each message of
//! [`messages`] — one per tag.  `wire_roundtrip.rs` proves decode inverts
//! encode; only this file proves the bytes themselves never move, so a
//! rank built from one commit can talk to a driver built from the next.
//! A new message adds one entry to each list; an existing literal is
//! never edited.  The one deliberate break so far: `Setup` (4) and
//! `ShardTransfer` (19) stopped shipping ratings as `(user, item, rating)`
//! triplets and ship them as the columns a rank sweeps ([`WireCols`]), so
//! those two literals were re-captured from the new layout; the other 22
//! are the hand-written codec's bytes, unchanged.  The last test holds the
//! stream decoder (`read_from`, what a TCP edge runs) to the slice decoder
//! on the same frames.

use std::io::{BufRead, BufReader, Read};

use nomad_core::RoutingPolicy;
use nomad_net::{
    Message, NetError, ReplicaDeltaPayload, ReplicaPayload, SetupPayload, ShardPayload,
    ShardTransferPayload, TelemetryPayload, WireCols, WireDeltaRow, WireError, WireSegment,
    WireToken, QUERY_UNKNOWN_USER,
};
use nomad_telemetry::{HistSnapshot, TelemetrySnapshot, HIST_BUCKETS};

/// One message per tag, in tag order.  Between them they carry a negative
/// gauge, `-0.0`, empty and non-empty sequences of every
/// element type, and every boxed payload.
fn messages() -> Vec<Message> {
    let mut buckets = [0u64; HIST_BUCKETS];
    buckets[0] = 1;
    buckets[9] = 2;
    buckets[HIST_BUCKETS - 1] = u64::MAX;
    let token = |item, pass, factor: &[f64]| WireToken {
        item,
        pass,
        factor: factor.to_vec(),
    };
    let segment = |row_start, rows: &[f64]| WireSegment {
        row_start,
        rows: rows.to_vec(),
    };
    let delta_row = |row, factors: &[f64]| WireDeltaRow {
        row,
        factors: factors.to_vec(),
    };
    vec![
        Message::Hello {
            rank: 3,
            port: 40001,
        },
        Message::PeerHello { rank: 7 },
        Message::Peers {
            ports: vec![5000, 0, 65535],
        },
        Message::Setup(Box::new(SetupPayload {
            rank: 2,
            ranks: 4,
            nrows: 1000,
            ncols: 500,
            row_start: 500,
            row_count: 250,
            k: 2,
            seed: 0xDEAD_BEEF_0BAD_F00D,
            lambda: 0.05,
            alpha: 0.012,
            beta: -0.0,
            routing: RoutingPolicy::LeastLoaded,
            budget: 400_000,
            message_batch: 100,
            progress_every: 4096,
            heartbeat_timeout_ms: 10_000,
            abort_after_updates: 77,
            serve_publish_every: 2_000,
            serve_nprobe: 8,
            epoch: 3,
            active_ranks: vec![0, 1, 3],
            w_rows: vec![0.125, -1.5, f64::MAX, f64::MIN_POSITIVE],
            // The codec lays columns out without judging them (three
            // counts for 500 items is the receiving rank's to refuse).
            cols: WireCols {
                counts: vec![0, 2, 0],
                rows: vec![500, 749],
                values: vec![4.5, -0.0],
            },
        })),
        Message::TokenBatch {
            qlen: 42,
            tokens: vec![
                token(0, 0, &[]),
                token(u32::MAX, 17, &[1.5, -0.25, -0.0, f64::EPSILON]),
            ],
        },
        Message::Progress {
            rank: 1,
            updates: 123_456_789,
            staleness: u64::MAX,
            publish_gap: 4096,
        },
        Message::Drain,
        Message::Fin { rank: 5 },
        Message::Shard(Box::new(ShardPayload {
            rank: 1,
            k: 2,
            segments: vec![segment(0, &[1.0, 2.0, 3.0, 4.0]), segment(700, &[])],
            tokens: vec![token(9, 3, &[0.5, 0.25])],
            tickets: 12,
            updates: 300,
            remote_sends: 5,
        })),
        Message::Ping { rank: 63 },
        Message::Suspect { rank: 0, peer: 2 },
        Message::Evict { epoch: 1, rank: 2 },
        Message::CensusMark {
            epoch: u64::MAX,
            rank: 0,
        },
        Message::Inventory {
            epoch: 1,
            rank: 0,
            tickets: 99,
            held: vec![(7, 12), (u32::MAX, u64::MAX)],
        },
        Message::Reconfigure { epoch: 258 },
        Message::Join { rank: 5 },
        Message::AddRank { epoch: 4, rank: 5 },
        Message::Rebalance {
            epoch: 4,
            to: 5,
            row_start: 250,
            row_count: 125,
        },
        Message::ShardTransfer(Box::new(ShardTransferPayload {
            row_start: 250,
            k: 2,
            rows: vec![0.5, 0.25, -1.0, 2.0],
            cols: WireCols::default(),
        })),
        Message::Query {
            id: u64::MAX,
            user: 42,
            k: 10,
            seen: vec![3, 1, 1, u32::MAX],
        },
        Message::QueryReply {
            id: 7,
            status: QUERY_UNKNOWN_USER,
            epoch: 3,
            updates_at: 10_000,
            staleness: 512,
            recs: vec![(5, 4.5), (0, -0.0), (u32::MAX, f64::NEG_INFINITY)],
        },
        Message::Replica(Box::new(ReplicaPayload {
            rank: 2,
            k: 2,
            epoch: 5,
            updates_at: 9_000,
            segments: vec![segment(16, &[1.0, 2.0])],
            items: vec![0.5, -0.5, 1.5, -1.5],
        })),
        Message::Telemetry(Box::new(TelemetryPayload {
            rank: 3,
            seq: 9,
            snapshot: TelemetrySnapshot {
                counters: vec![("engine.updates".into(), 12_345), (String::new(), 0)],
                gauges: vec![
                    ("engine.publish_gap".into(), 4096),
                    ("net.clock_skew".into(), -17),
                ],
                hists: vec![(
                    "serve.latency_µs".into(),
                    HistSnapshot {
                        count: 3,
                        sum: 1_000_250,
                        max: 1_000_000,
                        buckets,
                    },
                )],
            },
        })),
        Message::ReplicaDelta(Box::new(ReplicaDeltaPayload {
            rank: 1,
            k: 2,
            epoch: 6,
            base_epoch: 5,
            updates_at: 11_000,
            w_rows: vec![],
            h_rows: vec![
                delta_row(0, &[0.25, -0.25]),
                delta_row(u64::from(u32::MAX), &[f64::MIN_POSITIVE, -0.0]),
            ],
        })),
    ]
}

/// The payload bytes of [`messages`], in the same order.
const GOLDEN: [&str; 24] = [
    // 1 Hello
    "0103000000419c",
    // 2 PeerHello
    "0207000000",
    // 3 Peers
    "030300000088130000ffff",
    // 4 Setup
    "040200000004000000e803000000000000f401000000000000f401000000000000fa00000000000000020000\
     000df0ad0befbeadde9a9999999999a93ffa7e6abc7493883f000000000000008001801a0600000000006400\
     00000010000000000000102700004d00000000000000d0070000000000000800000003000000000000000300\
     000000000000010000000300000004000000000000000000c03f000000000000f8bfffffffffffffef7f0000\
     0000000010000300000000000000020000000000000002000000f4010000ed02000002000000000000000000\
     12400000000000000080",
    // 5 TokenBatch
    "052a000000000000000200000000000000000000000000000000000000ffffffff1100000000000000040000\
     00000000000000f83f000000000000d0bf0000000000000080000000000000b03c",
    // 6 Progress
    "060100000015cd5b0700000000ffffffffffffffff0010000000000000",
    // 7 Drain
    "07",
    // 8 Fin
    "0805000000",
    // 9 Shard
    "09010000000200000002000000000000000000000004000000000000000000f03f0000000000000040000000\
     00000008400000000000001040bc020000000000000000000001000000090000000300000000000000020000\
     00000000000000e03f000000000000d03f0c000000000000002c010000000000000500000000000000",
    // 10 Ping
    "0a3f000000",
    // 11 Suspect
    "0b0000000002000000",
    // 12 Evict
    "0c010000000000000002000000",
    // 13 CensusMark
    "0dffffffffffffffff00000000",
    // 14 Inventory
    "0e010000000000000000000000630000000000000002000000070000000c00000000000000ffffffffffffff\
     ffffffffff",
    // 15 Reconfigure
    "0f0201000000000000",
    // 16 Join
    "1005000000",
    // 17 AddRank
    "11040000000000000005000000",
    // 18 Rebalance
    "12040000000000000005000000fa000000000000007d00000000000000",
    // 19 ShardTransfer
    "13fa000000000000000200000004000000000000000000e03f000000000000d03f000000000000f0bf000000\
     0000000040000000000000000000000000",
    // 20 Query
    "14ffffffffffffffff2a0000000a00000004000000030000000100000001000000ffffffff",
    // 21 QueryReply
    "1507000000000000000303000000000000001027000000000000000200000000000003000000050000000000\
     000000001240000000000000000000000080ffffffff000000000000f0ff",
    // 22 Replica
    "1602000000020000000500000000000000282300000000000001000000100000000000000002000000000000\
     000000f03f000000000000004004000000000000000000e03f000000000000e0bf000000000000f83f000000\
     000000f8bf",
    // 23 Telemetry
    "17030000000900000000000000020000000e00656e67696e652e757064617465733930000000000000000000\
     00000000000000020000001200656e67696e652e7075626c6973685f67617000100000000000000e006e6574\
     2e636c6f636b5f736b6577efffffffffffffff01000000110073657276652e6c6174656e63795fc2b5730300\
     0000000000003a430f000000000040420f000000000001000000000000000000000000000000000000000000\
     0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000\
     0000000000000200000000000000000000000000000000000000000000000000000000000000000000000000\
     0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000\
     0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000\
     0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000\
     0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000\
     0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000\
     0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000\
     0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000\
     0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000\
     0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000\
     000000000000ffffffffffffffff",
    // 24 ReplicaDelta
    "18010000000200000006000000000000000500000000000000f82a0000000000000000000002000000000000\
     000000000002000000000000000000d03f000000000000d0bfffffffff000000000200000000000000000010\
     000000000000000080",
];

fn unhex(hex: &str) -> Vec<u8> {
    assert_eq!(hex.len() % 2, 0);
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex digit"))
        .collect()
}

fn golden() -> Vec<(Message, Vec<u8>)> {
    let messages = messages();
    assert_eq!(messages.len(), GOLDEN.len());
    messages
        .into_iter()
        .zip(GOLDEN.iter().map(|hex| unhex(hex)))
        .collect()
}

#[test]
fn every_tag_has_one_golden_frame() {
    for (i, (msg, bytes)) in golden().iter().enumerate() {
        assert_eq!(bytes[0] as usize, i + 1, "{msg:?} is out of tag order");
    }
}

#[test]
fn encode_produces_the_golden_bytes() {
    for (msg, bytes) in golden() {
        assert_eq!(msg.encode().expect("encode"), bytes, "{msg:?}");
    }
}

#[test]
fn decode_of_the_golden_bytes_is_the_message() {
    for (msg, bytes) in golden() {
        let back = Message::decode(&bytes).expect("decode");
        assert_eq!(back, msg);
        // `==` on floats cannot tell `-0.0` from `0.0`; the bytes can.
        assert_eq!(back.encode().expect("re-encode"), bytes, "{msg:?}");
    }
}

#[test]
fn every_strict_prefix_is_truncated() {
    for (msg, bytes) in golden() {
        for cut in 0..bytes.len() {
            assert_eq!(
                Message::decode(&bytes[..cut]),
                Err(WireError::Truncated),
                "{cut}-byte prefix of {msg:?}"
            );
        }
    }
}

#[test]
fn one_appended_byte_is_trailing() {
    for (msg, mut bytes) in golden() {
        bytes.push(0);
        assert_eq!(
            Message::decode(&bytes),
            Err(WireError::Trailing(1)),
            "{msg:?}"
        );
    }
}

/// Flips every bit of every byte (and inverts every byte) of every golden
/// frame.  Decode must return, and whatever it accepts must re-encode to
/// exactly the bytes it was given: each element of each sequence then
/// accounts for at least one byte of the frame, so no `Ok` owns more
/// element slots than the frame is long.
#[test]
fn single_byte_flips_never_panic_or_over_allocate() {
    for (msg, bytes) in golden() {
        for pos in 0..bytes.len() {
            for mask in (0..8).map(|bit| 1u8 << bit).chain([0xFF]) {
                let mut flipped = bytes.clone();
                flipped[pos] ^= mask;
                if let Ok(accepted) = Message::decode(&flipped) {
                    assert_eq!(
                        accepted.encode().expect("re-encode"),
                        flipped,
                        "byte {pos} ^ {mask:#04x} of {msg:?}"
                    );
                }
            }
        }
    }
}

/// A reader that hands out one byte per `read` and per `fill_buf`, so
/// every value the stream decoder reads straddles a refill.
struct OneByte<'a>(&'a [u8]);

impl Read for OneByte<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = buf.len().min(self.0.len()).min(1);
        buf[..n].copy_from_slice(&self.0[..n]);
        self.0 = &self.0[n..];
        Ok(n)
    }
}

impl BufRead for OneByte<'_> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        Ok(&self.0[..self.0.len().min(1)])
    }

    fn consume(&mut self, n: usize) {
        self.0 = &self.0[n..];
    }
}

/// `payload` behind its own length prefix.
fn framed(payload: &[u8]) -> Vec<u8> {
    let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(payload);
    frame
}

/// A decode outcome as bytes: `==` on messages cannot tell `-0.0` from
/// `0.0` and never holds for a NaN, the re-encoded bytes can and do.
fn outcome(decoded: Result<Message, WireError>) -> Result<Vec<u8>, WireError> {
    decoded.map(|msg| msg.encode().expect("re-encode"))
}

/// One frame through [`Message::read_from`], as `decode` would report it.
fn read_one(r: &mut impl BufRead) -> Result<Vec<u8>, WireError> {
    match Message::read_from(r) {
        Ok(Some(msg)) => outcome(Ok(msg)),
        Err(NetError::Wire(e)) => Err(e),
        other => panic!("a whole frame must decode or be refused, got {other:?}"),
    }
}

/// `frame` read through one-byte reads and through a `BufReader` smaller
/// than the frame (7 bytes, so no run of 8-byte values lines up with its
/// refills); both must agree, and the common outcome is returned.
fn read_streamed(frame: &[u8]) -> Result<Vec<u8>, WireError> {
    let one_byte = read_one(&mut OneByte(frame));
    let small = read_one(&mut BufReader::with_capacity(7.min(frame.len() - 1), frame));
    assert_eq!(one_byte, small, "the two stream readers disagree");
    one_byte
}

/// The stream decoder is the slice decoder: on every golden frame, every
/// strict prefix, one trailing byte and every single-bit flip,
/// `read_from` gives exactly what `decode` gives; and the 24 frames
/// written back to back with `write_to` read back in order with nothing
/// left over.
#[test]
fn stream_decoding_equals_slice_decoding_on_the_golden_frames() {
    let mut stream = Vec::new();
    for (msg, bytes) in golden() {
        assert_eq!(read_streamed(&framed(&bytes)), Ok(bytes.clone()), "{msg:?}");
        for cut in 0..bytes.len() {
            assert_eq!(
                read_streamed(&framed(&bytes[..cut])),
                outcome(Message::decode(&bytes[..cut])),
                "{cut}-byte prefix of {msg:?}"
            );
        }
        let mut longer = bytes.clone();
        longer.push(0);
        assert_eq!(
            read_streamed(&framed(&longer)),
            Err(WireError::Trailing(1)),
            "{msg:?}"
        );
        for pos in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[pos] ^= 1 << bit;
                assert_eq!(
                    read_streamed(&framed(&flipped)),
                    outcome(Message::decode(&flipped)),
                    "byte {pos} bit {bit} of {msg:?}"
                );
            }
        }
        assert_eq!(msg.write_to(&mut stream).expect("write"), bytes.len());
    }

    let expected: Vec<Vec<u8>> = golden().into_iter().map(|(_, bytes)| bytes).collect();
    let mut one_byte = OneByte(&stream);
    let mut small = BufReader::with_capacity(7, &stream[..]);
    for bytes in &expected {
        assert_eq!(read_one(&mut one_byte).as_ref(), Ok(bytes));
        assert_eq!(read_one(&mut small).as_ref(), Ok(bytes));
    }
    assert!(Message::read_from(&mut one_byte)
        .expect("clean end")
        .is_none());
    assert!(Message::read_from(&mut small).expect("clean end").is_none());
}
