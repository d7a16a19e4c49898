//! The `serve_fanout` load: an in-process `Server` with two socket
//! workers, driven by one open-loop load generator. It runs inside
//! `sparse_field`'s traced run, for the `serve.*` metrics, and in
//! `--serve-sweep`, which finds the rate it can carry.
//!
//! The generator is one polling thread plus one thread that opens
//! connections (the blocking `Client::open` handshake), so it never holds
//! more than two TCP connections and never stalls its schedule on a
//! handshake. SUBSCRIBEs and PINGs are due at fixed rates whatever the
//! server does; each is timed from when it was due. Each connection is
//! retired after `LIFETIME` (drained, CLOSEd, reopened), the two staggered
//! by half a lifetime, so live subscriptions stay bounded at about
//! `SUB_RATE * LIFETIME`.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use envirotrack_core::context::ContextTypeId;
use envirotrack_core::wire::session::{Close, CloseReason, SessionMsg, Subscribe, TrackEvent};
use envirotrack_serve::client::Client;
use envirotrack_serve::frame::FrameReader;
use envirotrack_serve::server::{Server, ServerConfig};
use envirotrack_serve::worlds::{SCENARIO_TESTBED, SCENARIO_WIDE};

use crate::stats::{median, quantile};
use crate::{Inject, Outcome};

/// SUBSCRIBEs due per second (open loop) in the traced run: a third of
/// 360/s, the highest rate at which `--serve-sweep` saw no failed
/// operation, no problem and no growing backlog on a 2-vCPU host. Above
/// it the server sheds the generator as a slow consumer (see
/// perfbench/README.md).
const SUB_RATE: f64 = 120.0;
/// PINGs due per SUBSCRIBE.
const PINGS_PER_SUB: f64 = 1.0 / 3.0;
/// How long a connection takes new operations before it is rotated.
const LIFETIME: Duration = Duration::from_millis(500);
/// Longest wait for outstanding answers once the schedule ends.
const DRAIN: Duration = Duration::from_secs(2);
/// Longest sleep between generator polls.
const POLL: Duration = Duration::from_micros(200);
/// Every `INJECT_EVERY`-th SUBSCRIBE expects the wrong SUBACK id under
/// `--inject-fault suback-id`.
const INJECT_EVERY: u32 = 50;

/// The served `(scenario, seed)` worlds; `SCENARIO_WIDE` needs the
/// `CAP_SCENARIO_RUN` capability, which `Client::open` negotiates.
fn worlds(seed: u64) -> [(u8, u64); 4] {
    [
        (SCENARIO_TESTBED, seed),
        (SCENARIO_WIDE, seed),
        (SCENARIO_TESTBED, seed.wrapping_add(1)),
        (SCENARIO_WIDE, seed.wrapping_add(1)),
    ]
}

fn server_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    }
}

fn subscribe(query_id: u32, world: (u8, u64)) -> SessionMsg {
    SessionMsg::Subscribe(Subscribe {
        query_id,
        scenario: world.0,
        seed: world.1,
        type_id: ContextTypeId(0),
    })
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[derive(PartialEq, Eq, Clone, Copy)]
enum Phase {
    /// Takes new operations.
    Active,
    /// Retired: waits for its outstanding answers, then CLOSEs.
    Draining,
    /// CLOSE sent; waits for the server's CLOSE or end of stream.
    Closing,
}

struct Query {
    world: usize,
    acked: bool,
    next_seq: u64,
    first: Option<(Instant, f64)>,
    last: Option<(Instant, f64)>,
}

struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    out: Vec<u8>,
    opened: Instant,
    phase: Phase,
    /// Expected SUBACK id → when the SUBSCRIBE was due.
    subs: HashMap<u32, Instant>,
    /// PING nonce → when it was sent.
    pings: HashMap<u64, Instant>,
    queries: HashMap<u32, Query>,
}

impl Conn {
    fn new(client: &Client, opened: Instant) -> std::io::Result<Conn> {
        let stream = client.stream().try_clone()?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            reader: FrameReader::new(),
            out: Vec::new(),
            opened,
            phase: Phase::Active,
            subs: HashMap::new(),
            pings: HashMap::new(),
            queries: HashMap::new(),
        })
    }

    fn pending(&self) -> usize {
        self.subs.len() + self.pings.len()
    }
}

/// What one load phase measured, client side.
#[derive(Default)]
struct Load {
    wall_s: f64,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    ack_ms: Vec<f64>,
    /// `ack_ms` of the SUBSCRIBEs due in the first and in the second half
    /// of the schedule: latency that grows from one to the other means a
    /// growing backlog.
    ack_halves: [Vec<f64>; 2],
    /// Most operations outstanding at once.
    pending_max: usize,
    ping_rtt_ms: Vec<f64>,
    late_ms: Vec<f64>,
    events: u64,
    /// Per world: each finished query's virtual-seconds-per-wall-second.
    world_rates: Vec<Vec<f64>>,
    live_subs_max: usize,
    opens_ms: Vec<f64>,
    decode_ns: f64,
    frames: u64,
    sample: Vec<TrackEvent>,
}

impl Load {
    fn problem(&mut self, p: String) {
        if self.problems.len() < 20 {
            self.problems.push(p);
        }
    }

    /// Median over worlds of the per-world median query rate, and the sum
    /// over worlds of those medians.
    fn rates(&self) -> (f64, f64) {
        let per_world: Vec<f64> = self.world_rates.iter().map(|r| median(r)).collect();
        (median(&per_world), per_world.iter().sum())
    }
}

/// Runs the open-loop generator against `addr` for `seconds`, issuing
/// `sub_rate` SUBSCRIBEs per second.
#[allow(clippy::too_many_lines)]
fn load(
    addr: SocketAddr,
    seed: u64,
    seconds: f64,
    sub_rate: f64,
    inject: Inject,
    trace: bool,
) -> std::io::Result<Load> {
    let keys = worlds(seed);
    let ping_rate = sub_rate * PINGS_PER_SUB;
    let mut l = Load {
        world_rates: vec![Vec::new(); keys.len()],
        ..Load::default()
    };
    let (want_tx, want_rx) = mpsc::channel::<()>();
    let (got_tx, got_rx) = mpsc::channel::<(std::io::Result<Client>, f64)>();
    let opener = std::thread::spawn(move || {
        while want_rx.recv().is_ok() {
            let t = Instant::now();
            let c = Client::open(addr, Some(Duration::from_secs(10)));
            if got_tx.send((c, ms(t.elapsed()))).is_err() {
                break;
            }
        }
    });
    let mut slots: [Option<Conn>; 2] = [None, None];
    let t0 = Instant::now();
    for (i, slot) in slots.iter_mut().enumerate() {
        want_tx.send(()).map_err(std::io::Error::other)?;
        let (client, open_ms) = got_rx.recv().map_err(std::io::Error::other)?;
        l.opens_ms.push(open_ms);
        // Stagger the two lifetimes so one connection is always active.
        let opened = t0
            .checked_sub(LIFETIME / 2 * u32::try_from(i).unwrap_or(0))
            .unwrap_or(t0);
        *slot = Some(Conn::new(&client?, opened)?);
    }
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let mut next_sub = 0u32;
    let mut next_ping = 0u64;
    let mut rr = 0usize;
    let mut opening = false;
    let mut drain_deadline: Option<Instant> = None;
    let mut chunk = vec![0u8; 64 * 1024];
    let finish_query = |l: &mut Load, q: &Query| {
        if let (Some((w0, a0)), Some((w1, a1))) = (q.first, q.last) {
            let wall = w1.duration_since(w0).as_secs_f64();
            if wall > 0.05 {
                l.world_rates[q.world].push((a1 - a0) / wall);
            }
        }
    };
    loop {
        let now = Instant::now();
        let scheduling = now < end;
        if !scheduling && drain_deadline.is_none() {
            drain_deadline = Some(now + DRAIN);
        }
        let pending: usize = slots.iter().flatten().map(Conn::pending).sum();
        l.pending_max = l.pending_max.max(pending);
        if let Some(d) = drain_deadline {
            if pending == 0 || now >= d {
                break;
            }
        }

        // Rotation: retire an old connection while the other is active.
        let active = slots
            .iter()
            .flatten()
            .filter(|c| c.phase == Phase::Active)
            .count();
        for c in slots.iter_mut().flatten() {
            if c.phase == Phase::Active && active == 2 && now.duration_since(c.opened) >= LIFETIME {
                c.phase = Phase::Draining;
            }
            if c.phase == Phase::Draining && c.pending() == 0 {
                c.out.extend_from_slice(
                    &SessionMsg::Close(Close {
                        reason: CloseReason::Normal,
                    })
                    .encode(),
                );
                c.phase = Phase::Closing;
            }
        }
        if scheduling && !opening && slots.iter().any(Option::is_none) {
            want_tx.send(()).map_err(std::io::Error::other)?;
            opening = true;
        }
        if let Ok((client, open_ms)) = got_rx.try_recv() {
            opening = false;
            l.opens_ms.push(open_ms);
            let conn = Conn::new(&client?, Instant::now())?;
            if let Some(slot) = slots.iter_mut().find(|s| s.is_none()) {
                *slot = Some(conn);
            }
        }

        // Open loop: issue everything that is due, on an active connection.
        loop {
            let sub_due = start + Duration::from_secs_f64(f64::from(next_sub) / sub_rate);
            #[allow(clippy::cast_precision_loss)]
            let ping_due = start + Duration::from_secs_f64((next_ping as f64 + 0.5) / ping_rate);
            let (due, is_sub) = if sub_due <= ping_due {
                (sub_due, true)
            } else {
                (ping_due, false)
            };
            if due > now || due >= end {
                break;
            }
            let live: Vec<usize> = (0..2)
                .filter(|&i| slots[i].as_ref().is_some_and(|c| c.phase == Phase::Active))
                .collect();
            if live.is_empty() {
                break; // both rotating: the ops go out late, and that shows
            }
            rr += 1;
            let c = slots[live[rr % live.len()]].as_mut().expect("live slot");
            l.late_ms.push(ms(now.duration_since(due)));
            l.attempted += 1;
            if is_sub {
                next_sub += 1;
                let id = next_sub;
                let world = id as usize % keys.len();
                let expect = if inject == Inject::SubackId && id.is_multiple_of(INJECT_EVERY) {
                    id + 1_000_000
                } else {
                    id
                };
                c.out
                    .extend_from_slice(&subscribe(id, keys[world]).encode());
                c.subs.insert(expect, due);
                c.queries.insert(
                    id,
                    Query {
                        world,
                        acked: false,
                        next_seq: 0,
                        first: None,
                        last: None,
                    },
                );
            } else {
                next_ping += 1;
                c.out
                    .extend_from_slice(&SessionMsg::Ping { nonce: next_ping }.encode());
                c.pings.insert(next_ping, now);
            }
        }

        // Flush, then read and carve frames.
        let mut gone = [false; 2];
        for (i, slot) in slots.iter_mut().enumerate() {
            let Some(c) = slot.as_mut() else { continue };
            while !c.out.is_empty() {
                match c.stream.write(&c.out) {
                    Ok(0) => break,
                    Ok(n) => {
                        c.out.drain(..n);
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            let mut eof = false;
            loop {
                match c.stream.read(&mut chunk) {
                    Ok(0) => {
                        eof = true;
                        break;
                    }
                    Ok(n) => c.reader.extend(&chunk[..n]),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => {
                        eof = true;
                        break;
                    }
                }
            }
            let at = Instant::now();
            loop {
                let t = trace.then(Instant::now);
                let frame = match c.reader.next_frame() {
                    Ok(Some(f)) => f,
                    Ok(None) => break,
                    Err(e) => {
                        l.problem(format!("corrupt frame from the server: {e}"));
                        eof = true;
                        break;
                    }
                };
                if let Some(t) = t {
                    #[allow(clippy::cast_precision_loss)]
                    {
                        l.decode_ns += t.elapsed().as_nanos() as f64;
                    }
                }
                l.frames += 1;
                match frame {
                    SessionMsg::SubAck(a) => match c.subs.remove(&a.query_id) {
                        Some(due) if a.accepted => {
                            let lat = ms(at.duration_since(due));
                            l.ack_ms.push(lat);
                            let late = due.duration_since(start).as_secs_f64() >= seconds / 2.0;
                            l.ack_halves[usize::from(late)].push(lat);
                            if let Some(q) = c.queries.get_mut(&a.query_id) {
                                q.acked = true;
                            }
                        }
                        Some(_) => {
                            l.failed += 1;
                            l.problem(format!("SUBSCRIBE {} denied", a.query_id));
                        }
                        None => l.problem(format!("SUBACK for unexpected query {}", a.query_id)),
                    },
                    SessionMsg::Event(e) => match c.queries.get_mut(&e.query_id) {
                        Some(q) if q.acked => {
                            if e.seq != q.next_seq {
                                l.problem(format!(
                                    "query {} seq gap: got {} want {}",
                                    e.query_id, e.seq, q.next_seq
                                ));
                            }
                            q.next_seq = e.seq + 1;
                            let v = e.at.as_secs_f64();
                            q.first.get_or_insert((at, v));
                            q.last = Some((at, v));
                            l.events += 1;
                            if trace && l.sample.len() < 20_000 {
                                l.sample.push(e);
                            }
                        }
                        _ => l.problem(format!("EVENT for unacknowledged query {}", e.query_id)),
                    },
                    SessionMsg::Pong { nonce } => match c.pings.remove(&nonce) {
                        Some(sent) => l.ping_rtt_ms.push(ms(at.duration_since(sent))),
                        None => l.problem(format!("PONG for unexpected nonce {nonce}")),
                    },
                    SessionMsg::Close(close) => {
                        if c.phase != Phase::Closing {
                            l.problem(format!(
                                "server closed an active session: {:?}",
                                close.reason
                            ));
                        }
                        eof = true;
                    }
                    other => l.problem(format!("unexpected frame {other:?}")),
                }
            }
            gone[i] = eof;
        }
        for (i, slot) in slots.iter_mut().enumerate() {
            if !gone[i] {
                continue;
            }
            if let Some(c) = slot.take() {
                // Whatever was still outstanding on it is lost.
                l.failed += c.pending() as u64;
                for q in c.queries.values() {
                    finish_query(&mut l, q);
                }
            }
        }
        let live = slots
            .iter()
            .flatten()
            .map(|c| c.queries.values().filter(|q| q.acked).count())
            .sum();
        l.live_subs_max = l.live_subs_max.max(live);

        let now = Instant::now();
        let next_due = start
            + Duration::from_secs_f64(f64::from(next_sub) / sub_rate).min(Duration::from_secs_f64(
                #[allow(clippy::cast_precision_loss)]
                {
                    (next_ping as f64 + 0.5) / ping_rate
                },
            ));
        let nap = next_due.saturating_duration_since(now).min(POLL);
        if !nap.is_zero() {
            std::thread::sleep(nap);
        }
    }
    l.wall_s = end.min(Instant::now()).duration_since(start).as_secs_f64();
    for c in slots.iter_mut().filter_map(Option::take) {
        if c.pending() > 0 {
            l.failed += c.pending() as u64;
            l.problem(format!(
                "{} operation(s) unanswered after the drain",
                c.pending()
            ));
        }
        for q in c.queries.values() {
            finish_query(&mut l, q);
        }
        let mut s = c.stream;
        s.set_nonblocking(false)?;
        s.write_all(
            &SessionMsg::Close(Close {
                reason: CloseReason::Normal,
            })
            .encode(),
        )?;
    }
    drop(want_tx);
    opener
        .join()
        .map_err(|_| std::io::Error::other("opener thread panicked"))?;
    Ok(l)
}

/// Server-side counters that must stay zero.
fn server_problems(server: &Server) -> Vec<String> {
    use std::sync::atomic::Ordering::Relaxed;
    let m = server.metrics();
    [
        ("protocol errors", m.protocol_errors.load(Relaxed)),
        ("corrupt frames", m.corrupt_frames.load(Relaxed)),
        ("state violations", m.state_violations.load(Relaxed)),
        ("slow-consumer sheds", m.slow_consumer_sheds.load(Relaxed)),
        ("server panics", m.panics.load(Relaxed)),
    ]
    .iter()
    .filter(|(_, v)| *v > 0)
    .map(|(what, v)| format!("server counted {v} {what}"))
    .collect()
}

/// Adds one load phase's operations and problems, and the server's, to `out`.
fn account(out: &mut Outcome, server: &Server, l: &Load) {
    out.attempted += l.attempted;
    out.failed += l.failed;
    out.problems.extend(l.problems.iter().cloned());
    out.problems.extend(server_problems(server));
}

/// One load phase on a fresh server, shut down afterwards.
fn serve_once(
    seed: u64,
    seconds: f64,
    sub_rate: f64,
    inject: Inject,
    trace: bool,
    out: &mut Outcome,
) -> std::io::Result<(Load, ServeCounts)> {
    let server = Server::start(server_config())?;
    let l = load(server.addr(), seed, seconds, sub_rate, inject, trace)?;
    // Give the workers a moment to account the final CLOSEs.
    std::thread::sleep(Duration::from_millis(50));
    account(out, &server, &l);
    let counts = ServeCounts::read(&server);
    server.shutdown();
    Ok((l, counts))
}

/// What the server's own metrics said at the end of a load phase.
struct ServeCounts {
    hub_ack_p50_us: u64,
    hub_ack_p99_us: u64,
    hub_ack_samples: u64,
    first_event_p50_us: u64,
    events_sent: u64,
    events_dropped: u64,
    subs_denied: u64,
    slow_consumer_sheds: u64,
    protocol_errors: u64,
}

impl ServeCounts {
    fn read(server: &Server) -> ServeCounts {
        use std::sync::atomic::Ordering::Relaxed;
        let m = server.metrics();
        let (hub_ack_p50_us, hub_ack_p99_us, hub_ack_samples) =
            m.with_ack_histogram(|h| (h.quantile(0.5), h.quantile(0.99), h.count()));
        ServeCounts {
            hub_ack_p50_us,
            hub_ack_p99_us,
            hub_ack_samples,
            first_event_p50_us: m.with_first_event_histogram(|h| h.quantile(0.5)),
            events_sent: m.events_sent.load(Relaxed),
            events_dropped: m.events_dropped.load(Relaxed),
            subs_denied: m.subs_denied.load(Relaxed),
            slow_consumer_sheds: m.slow_consumer_sheds.load(Relaxed),
            protocol_errors: m.protocol_errors.load(Relaxed),
        }
    }
}

/// Workload properties every serve report carries.
fn describe(out: &mut Outcome, l: &Load) {
    out.report
        .int("worlds", l.world_rates.len() as u64)
        .num("sub_rate_per_s", SUB_RATE)
        .num("ping_rate_per_s", SUB_RATE * PINGS_PER_SUB)
        .num("connection_lifetime_s", LIFETIME.as_secs_f64())
        .int("live_subs_max", l.live_subs_max as u64)
        .int("ack_samples", l.ack_ms.len() as u64)
        .int("ping_samples", l.ping_rtt_ms.len() as u64)
        .int("events", l.events)
        .int("connections_opened", l.opens_ms.len() as u64)
        .num("client_open_p50_ms", median(&l.opens_ms))
        .num("gen_late_p99_ms", quantile(&l.late_ms, 0.99));
}

/// One traced load phase of `seconds`, reported as the `serve.*` per-layer
/// metrics (plus the generator's own).
#[allow(clippy::cast_precision_loss)]
pub fn trace_into(
    seed: u64,
    seconds: f64,
    inject: Inject,
    out: &mut Outcome,
) -> std::io::Result<()> {
    let (l, c) = serve_once(seed, seconds, SUB_RATE, inject, true, out)?;
    out.set("serve.hub_ack_p50_us", c.hub_ack_p50_us as f64);
    out.set("serve.hub_ack_p99_us", c.hub_ack_p99_us as f64);
    out.set("serve.hub_ack_samples", c.hub_ack_samples as f64);
    out.set("serve.ping_rtt_p50_ms", quantile(&l.ping_rtt_ms, 0.5));
    out.set("serve.ping_rtt_p99_ms", quantile(&l.ping_rtt_ms, 0.99));
    out.set("serve.ping_samples", l.ping_rtt_ms.len() as f64);
    out.set("serve.first_event_p50_us", c.first_event_p50_us as f64);
    out.set("serve.events_sent", c.events_sent as f64);
    out.set("serve.events_dropped", c.events_dropped as f64);
    out.set("serve.subs_denied", c.subs_denied as f64);
    out.set("serve.slow_consumer_sheds", c.slow_consumer_sheds as f64);
    out.set("serve.protocol_errors", c.protocol_errors as f64);
    out.set(
        "serve.frame_decode_ns",
        l.decode_ns / l.frames.max(1) as f64,
    );
    out.set("serve.event_encode_ns", encode_ns(&l.sample));
    out.set("serve.worlds", l.world_rates.len() as f64);
    out.set("serve.live_subs_max", l.live_subs_max as f64);
    out.set("bench.ack_samples", l.ack_ms.len() as f64);
    out.set("bench.gen_late_p99_ms", quantile(&l.late_ms, 0.99));
    describe(out, &l);
    Ok(())
}

/// `--serve-sweep`: one untraced load phase of `seconds` per SUBSCRIBE
/// rate, each on a fresh server, printed as one JSON line per rate. The
/// limits a rate must hold, and how the nominal `SUB_RATE` follows from
/// them, are in perfbench/README.md.
#[allow(clippy::cast_precision_loss)]
pub fn sweep(seed: u64, seconds: f64, rates: &[f64]) -> std::io::Result<()> {
    for &rate in rates {
        let mut out = Outcome::default();
        let (l, c) = serve_once(seed, seconds, rate, Inject::None, false, &mut out)?;
        let [early, late] = &l.ack_halves;
        let mut o = crate::stats::Obj::default();
        o.num("sub_rate_per_s", rate)
            .num("ack_p50_ms", quantile(&l.ack_ms, 0.5))
            .num("ack_p99_ms", quantile(&l.ack_ms, 0.99))
            .num("ack_p50_growth", median(late) / median(early))
            .num("gen_late_p99_ms", quantile(&l.late_ms, 0.99))
            .int("pending_max", l.pending_max as u64)
            .int("live_subs_max", l.live_subs_max as u64)
            .num("events_per_s", l.events as f64 / l.wall_s)
            .num("virtual_rate", l.rates().0)
            .int("hub_ack_p99_us", c.hub_ack_p99_us)
            .int("attempted", out.attempted)
            .int("failed", out.failed)
            .int("problems", out.problems.len() as u64)
            .text(
                "first_problem",
                out.problems.first().map_or("", String::as_str),
            );
        println!("{}", o.render());
    }
    Ok(())
}

/// Mean ns of `SessionMsg::encode` over the sampled TrackEvents.
fn encode_ns(sample: &[TrackEvent]) -> f64 {
    if sample.is_empty() {
        return 0.0;
    }
    let t = Instant::now();
    let mut bytes = 0usize;
    for e in sample {
        bytes += std::hint::black_box(SessionMsg::Event(e.clone()).encode()).len();
    }
    std::hint::black_box(bytes);
    #[allow(clippy::cast_precision_loss)]
    let per = t.elapsed().as_nanos() as f64 / sample.len() as f64;
    per
}
