//! Wire-format golden fixtures: one representative frame per [`Message`]
//! variant, checked in as hex.
//!
//! These pin the *byte layout* of the wire format, not just its
//! round-trip behaviour: a varint rule change, a reordered field, or a
//! renumbered tag decodes fine against its own encoder but would silently
//! break compatibility with recorded traces and the DESIGN.md tag table.
//! Any drift fails here byte-for-byte. When a format change is
//! intentional, regenerate with:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test -p envirotrack-core --test wire_goldens
//! ```
//!
//! and review the fixture diff like any other code change.

use std::fmt::Write as _;
use std::path::PathBuf;

use bytes::Bytes;
use envirotrack_core::aggregate::ReadingValue;
use envirotrack_core::context::{ContextLabel, ContextTypeId};
use envirotrack_core::transport::Port;
use envirotrack_core::wire::{
    crc, BaseReport, DecodeError, DirQuery, DirRegister, DirResponse, DirSync, GeoForward,
    Heartbeat, Message, MtpAck, MtpSegment, Relinquish, Report,
};
use envirotrack_sim::time::Timestamp;
use envirotrack_world::field::NodeId;
use envirotrack_world::geometry::Point;

fn check(name: &str, actual: &str) {
    let path: PathBuf = [env!("CARGO_MANIFEST_DIR"), "tests", "goldens", name]
        .iter()
        .collect();
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir goldens");
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {name} ({e}); generate with UPDATE_GOLDENS=1"));
    assert_eq!(
        expected, actual,
        "golden {name} drifted — the wire format changed; if intentional, \
         regenerate with UPDATE_GOLDENS=1 and review the diff"
    );
}

fn label(t: u16, c: u32, s: u32) -> ContextLabel {
    ContextLabel {
        type_id: ContextTypeId(t),
        creator: NodeId(c),
        seq: s,
    }
}

/// One representative message per variant, with fixed field values chosen
/// to exercise multi-byte varints, options in both states, and payloads.
fn representatives() -> Vec<(&'static str, Message)> {
    vec![
        (
            "heartbeat",
            Message::Heartbeat(Heartbeat {
                label: label(1, 7, 300),
                leader: NodeId(7),
                leader_pos: Point::new(2.5, 10.0),
                weight: 4_000,
                hb_seq: 129,
                ttl: 1,
                state: Some(Bytes::from_static(b"st")),
            }),
        ),
        (
            "relinquish",
            Message::Relinquish(Relinquish {
                label: label(1, 7, 300),
                from: NodeId(7),
                weight: 4_000,
                successor: Some(NodeId(130)),
                state: None,
            }),
        ),
        (
            "report",
            Message::Report(Report {
                label: label(2, 15, 6),
                member: NodeId(15),
                taken_at: Timestamp::from_millis(1_500),
                values: vec![
                    (0, ReadingValue::Scalar(0.75)),
                    (1, ReadingValue::Position(Point::new(-4.0, 3.0))),
                ],
            }),
        ),
        (
            "dir_register",
            Message::DirRegister(DirRegister {
                label: label(3, 200, 1),
                location: Point::new(12.0, 0.5),
            }),
        ),
        (
            "dir_query",
            Message::DirQuery(DirQuery {
                type_id: ContextTypeId(3),
                reply_to: NodeId(42),
                reply_pos: Point::new(0.0, -6.25),
                query_id: 77_000,
            }),
        ),
        (
            "dir_response",
            Message::DirResponse(DirResponse {
                query_id: 77_000,
                entries: vec![
                    (label(3, 200, 1), Point::new(12.0, 0.5)),
                    (label(3, 201, 2), Point::new(-1.0, 64.0)),
                ],
            }),
        ),
        (
            "mtp",
            Message::Mtp(MtpSegment {
                src_label: label(4, 9, 2),
                src_port: Port(300),
                dst_label: label(5, 77, 1),
                dst_port: Port(2),
                src_leader: NodeId(9),
                src_leader_pos: Point::new(5.0, 5.0),
                chain_hops: 2,
                seq: 1_000,
                payload: Bytes::from_static(b"segment"),
            }),
        ),
        (
            "base",
            Message::Base(BaseReport {
                label: label(2, 15, 6),
                generated_at: Timestamp::from_secs(9),
                payload: Bytes::from_static(&[0xca, 0xfe]),
            }),
        ),
        (
            "geo",
            Message::Geo(GeoForward {
                dest: Point::new(100.0, 200.0),
                deliver_to: Some(NodeId(512)),
                inner: Box::new(Message::Base(BaseReport {
                    label: label(2, 15, 6),
                    generated_at: Timestamp::from_secs(9),
                    payload: Bytes::from_static(&[0xca, 0xfe]),
                })),
            }),
        ),
        (
            "mtp_ack",
            Message::MtpAckMsg(MtpAck {
                dst_label: label(5, 77, 1),
                src_node: NodeId(9),
                seq: 1_000,
                acker: NodeId(77),
                acker_pos: Point::new(6.0, 6.0),
            }),
        ),
        (
            "dir_sync",
            Message::DirSyncMsg(DirSync {
                type_id: ContextTypeId(3),
                from: NodeId(42),
                reply: true,
                entries: vec![
                    (label(3, 200, 1), Point::new(12.0, 0.5), Timestamp::from_secs(9)),
                    (
                        label(3, 201, 2),
                        Point::new(-1.0, 64.0),
                        Timestamp::from_millis(12_500),
                    ),
                ],
            }),
        ),
    ]
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn binary_frames_match_hex_fixtures() {
    let mut digest = String::new();
    for (name, msg) in representatives() {
        let bytes = msg.encode();
        let _ = writeln!(digest, "{name}={}", hex(&bytes));
        // The fixture must stay decodable and canonical, not just frozen.
        assert_eq!(Message::decode(&bytes).unwrap(), msg, "{name}");
    }
    check("wire_binary.hex", &digest);
}

/// The integrity property behind the corruption-resilient link layer,
/// proven exhaustively over the golden corpus: *every* single-bit flip and
/// *every* 1–4 byte tail truncation of an encoded frame is rejected. (CRC-32
/// guarantees detection of all single-bit errors and all burst errors up to
/// 32 bits; this pins that the codec actually delivers it end to end.)
#[test]
fn crc_detects_every_single_bit_flip_and_short_truncation() {
    for (name, msg) in representatives() {
        let bytes = msg.encode().to_vec();
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[byte] ^= 1 << bit;
                assert!(
                    Message::decode(&flipped).is_err(),
                    "{name}: flip of byte {byte} bit {bit} accepted"
                );
            }
        }
        for cut in 1..=4usize {
            // The surviving tail becomes a bogus trailer.
            let err = Message::decode(&bytes[..bytes.len() - cut]).unwrap_err();
            assert!(
                matches!(err, DecodeError::CrcMismatch { .. }),
                "{name}: cut {cut} gave {err:?}"
            );
        }
        // And the trailer really is a CRC-32 of everything before it.
        let (body, trailer) = bytes.split_at(bytes.len() - crc::TRAILER_BYTES);
        assert_eq!(trailer, crc::crc32(body).to_le_bytes());
    }
}
