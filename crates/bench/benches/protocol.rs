//! Micro-benchmarks for the protocol-level data structures: the operations
//! every node performs per message or per timer tick. These bound the
//! simulator's throughput and sanity-check that the hot paths stay
//! allocation-light.
//!
//! Plain `harness = false` binary over the in-tree timing loop
//! ([`envirotrack_bench::harness::measure`]); run with `cargo bench`.

use std::hint::black_box;

use envirotrack_bench::harness::measure;
use envirotrack_core::aggregate::{AggregateFn, ReadingValue, ReadingWindow};
use envirotrack_core::context::{ContextLabel, ContextTypeId};
use envirotrack_core::transport::{LeaderLoc, LruTable};
use envirotrack_core::wire::{Heartbeat, Message, Report};
use envirotrack_net::routing::GeoRouter;
use envirotrack_sim::queue::EventQueue;
use envirotrack_sim::time::{SimDuration, Timestamp};
use envirotrack_world::field::{Deployment, NodeId};
use envirotrack_world::geometry::Point;
use envirotrack_world::grid::neighbor_lists;

fn label() -> ContextLabel {
    ContextLabel {
        type_id: ContextTypeId(0),
        creator: NodeId(7),
        seq: 3,
    }
}

fn heartbeat() -> Message {
    Message::Heartbeat(Heartbeat {
        label: label(),
        leader: NodeId(7),
        leader_pos: Point::new(3.5, 0.5),
        weight: 41,
        hb_seq: 1000,
        ttl: 1,
        state: None,
    })
}

fn report() -> Message {
    Message::Report(Report {
        label: label(),
        member: NodeId(9),
        taken_at: Timestamp::from_secs(12),
        values: vec![
            (0, ReadingValue::Position(Point::new(3.0, 0.5))),
            (1, ReadingValue::Scalar(199.5)),
        ],
    })
}

fn bench_wire(out: &mut Vec<String>) {
    let hb = heartbeat();
    let rp = report();
    out.push(measure("wire/encode_heartbeat", || black_box(&hb).encode()).report());
    out.push(measure("wire/encode_report", || black_box(&rp).encode()).report());
    let hb_bytes = hb.encode();
    let rp_bytes = rp.encode();
    out.push(
        measure("wire/decode_heartbeat", || {
            Message::decode(black_box(&hb_bytes)).unwrap()
        })
        .report(),
    );
    out.push(
        measure("wire/decode_report", || {
            Message::decode(black_box(&rp_bytes)).unwrap()
        })
        .report(),
    );
}

fn bench_window(out: &mut Vec<String>) {
    out.push(
        measure("aggregate_window/insert_evaluate_8_members", || {
            let mut w = ReadingWindow::new();
            for i in 0..8u32 {
                w.insert(
                    NodeId(i),
                    Timestamp::from_millis(900 + u64::from(i)),
                    ReadingValue::Position(Point::new(f64::from(i), 0.5)),
                );
            }
            w.evaluate(
                &AggregateFn::CenterOfGravity,
                Timestamp::from_secs(1),
                SimDuration::from_secs(1),
                2,
            )
        })
        .report(),
    );
}

fn bench_lru(out: &mut Vec<String>) {
    let mut lru: LruTable<ContextLabel, LeaderLoc> = LruTable::new(8);
    let labels: Vec<ContextLabel> = (0..16u32)
        .map(|i| ContextLabel {
            type_id: ContextTypeId(0),
            creator: NodeId(i),
            seq: 0,
        })
        .collect();
    let mut i = 0usize;
    out.push(
        measure("mtp_lru/insert_get_cycle", || {
            let l = labels[i % labels.len()];
            lru.insert(
                l,
                LeaderLoc {
                    node: l.creator,
                    pos: Point::ORIGIN,
                },
            );
            let got = lru.get(labels[(i / 2) % labels.len()]);
            i += 1;
            black_box(got.copied())
        })
        .report(),
    );
}

fn bench_queue(out: &mut Vec<String>) {
    out.push(
        measure("event_queue/push_pop_1k", || {
            let mut q = EventQueue::new();
            for i in 0..1000u64 {
                q.push(Timestamp::from_micros((i * 7919) % 5000), i);
            }
            let mut sum = 0u64;
            while let Some((_, v)) = q.pop() {
                sum = sum.wrapping_add(v);
            }
            black_box(sum)
        })
        .report(),
    );
}

fn bench_routing(out: &mut Vec<String>) {
    let field = Deployment::grid(20, 20, 1.0);
    let router = GeoRouter::new(&field, neighbor_lists(&field, 1.5).into());
    out.push(
        measure("geo_routing/route_corner_to_corner_20x20", || {
            router
                .route(black_box(NodeId(0)), Point::new(19.0, 19.0))
                .unwrap()
        })
        .report(),
    );
    out.push(
        measure("geo_routing/next_hop", || {
            router.next_hop(black_box(NodeId(0)), Point::new(19.0, 19.0))
        })
        .report(),
    );
}

fn bench_payload_sizes(out: &mut Vec<String>) {
    // Not a speed benchmark: documents frame costs stay stable.
    let cfg = envirotrack_net::medium::RadioConfig::default();
    let frame = envirotrack_net::packet::Frame::broadcast(
        NodeId(0),
        heartbeat().kind(),
        heartbeat().encode(),
    );
    out.push(
        measure("frame_airtime/tx_time_heartbeat", || {
            cfg.tx_time(black_box(&frame))
        })
        .report(),
    );
}

fn main() {
    let mut out = Vec::new();
    bench_wire(&mut out);
    bench_window(&mut out);
    bench_lru(&mut out);
    bench_queue(&mut out);
    bench_routing(&mut out);
    bench_payload_sizes(&mut out);
    println!("protocol micro-benchmarks");
    println!("-------------------------");
    for line in out {
        println!("{line}");
    }
}
