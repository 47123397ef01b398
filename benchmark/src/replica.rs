//! `replica_catch_up`: replica 0 holds 10⁵ journaled block_chain(4,4)
//! ops durably; an empty durable replica 1 starts one anti-entropy
//! exchange with it over loopback (two threads, one connection, journals
//! fsync'd) and the round ends when the digests match. A pass repeats
//! the catch-up into a fresh empty replica until its time is up.

use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use idr_obs::{MetricsRegistry, TraceHandle};
use idr_relation::exec::Guard;
use idr_store::journal::JournalFile;
use idr_sync::{initiate_exchange, respond_exchange, ExchangeFaults, Hello, Replica};

use crate::gen::Gen;
use crate::span::Recorder;
use crate::util::{dir_bytes, median, ratio, ScratchDir};
use crate::{another_round, Ctx, Metrics, Pass, Tally, Workload};

pub struct CatchUp;

pub struct State {
    gen: Gen,
    ops: usize,
    source: Mutex<Replica>,
    expected: Vec<String>,
    guard: Guard,
    _dir: ScratchDir,
}

const TIMEOUT: Duration = Duration::from_secs(60);

/// One catch-up's readings.
struct Round {
    catch_up_s: f64,
    exchange_s: f64,
    respond_s: f64,
    shipped: usize,
    exchanges: usize,
}

/// Catches a fresh empty durable replica in `dir` up with the source.
fn catch_up(
    st: &State,
    dir: &Path,
    rec: &mut Recorder,
    id: u64,
) -> Result<(Round, Replica), String> {
    let db = &st.gen.db;
    let t0 = Instant::now();
    let replica = rec.span("open_durable", id, |_| {
        Replica::open_durable(1, 2, db, dir, true, &st.guard)
    });
    let replica = Mutex::new(replica.map_err(|e| format!("open replica: {e}"))?);
    let (mut exchange_s, mut respond_s, mut shipped, mut exchanges) = (0.0, 0.0, 0, 0);
    // One exchange is enough; a second would mean the first lost ops.
    while exchanges < 3 {
        let source_digest = st.source.lock().expect("source replica").digest();
        if replica.lock().expect("replica").digest() == source_digest {
            break;
        }
        exchanges += 1;
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener.local_addr().map_err(|e| format!("addr: {e}"))?;
        let none = ExchangeFaults::none();
        let (ours, theirs) = std::thread::scope(|s| {
            let responder = s.spawn(|| {
                let r0 = Instant::now();
                let (stream, _) = listener.accept().map_err(|e| format!("accept: {e}"))?;
                let out = respond_exchange(
                    stream,
                    &Hello::new(0, 2, db),
                    &st.source,
                    &none,
                    TIMEOUT,
                    &st.guard,
                    &TraceHandle::none(),
                )
                .map_err(|e| format!("respond: {e}"));
                out.map(|o| (o, r0.elapsed().as_secs_f64()))
            });
            let e0 = Instant::now();
            let ours = rec.span("initiate_exchange", id, |_| {
                let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
                initiate_exchange(
                    stream,
                    &Hello::new(1, 2, db),
                    &replica,
                    &none,
                    TIMEOUT,
                    &st.guard,
                    &TraceHandle::none(),
                )
                .map_err(|e| format!("initiate: {e}"))
            });
            exchange_s += e0.elapsed().as_secs_f64();
            (ours, responder.join().expect("responder thread"))
        });
        ours?;
        let (out, secs) = theirs?;
        respond_s += secs;
        shipped += out.shipped;
    }
    let round = Round {
        catch_up_s: t0.elapsed().as_secs_f64(),
        exchange_s,
        respond_s,
        shipped,
        exchanges,
    };
    Ok((round, replica.into_inner().expect("replica")))
}

impl Workload for CatchUp {
    type State = State;
    const NAME: &'static str = "replica_catch_up";
    const SPANS: &'static [&'static str] = &["catch_up", "open_durable", "initiate_exchange"];

    fn info(&self, ctx: &Ctx) -> Vec<(&'static str, String)> {
        vec![
            ("family", "block_chain(4,4)".into()),
            (
                "preload",
                format!(
                    "{} journaled ops at replica 0, replica 1 empty",
                    ctx.size(OPS, 1_000)
                ),
            ),
            (
                "ops",
                "one catch-up per round into a fresh empty replica, rounds until time is up".into(),
            ),
            (
                "op_mix",
                "100% inserts shipped in one anti-entropy exchange".into(),
            ),
            (
                "flush",
                "journals fsync'd (one fsync per attached range)".into(),
            ),
            (
                "clients",
                "2 threads (initiator, responder), one loopback connection".into(),
            ),
            (
                "why",
                "the only workload on sync::net: framing, CRC chain, journal attach, then replay"
                    .into(),
            ),
        ]
    }

    fn setup(&self, ctx: &Ctx) -> State {
        let gen = Gen::block_chain44(ctx.seed);
        let ops = ctx.size(OPS, 1_000);
        let dir = ctx.dir("replica-source");
        {
            // Journal the ops with one fsync at the end.
            let rec = JournalFile::open(&dir.join("origin-0.log"), true).expect("open journal");
            let mut file = rec.file;
            let lines = gen.stream(ops);
            file.append_batch(lines.iter().map(String::as_str))
                .expect("write journal");
        }
        let guard = Guard::unlimited();
        let source = Replica::open_durable(0, 2, &gen.db, dir.path(), true, &guard)
            .expect("open source replica");
        assert!(source.is_consistent(), "generated stream is consistent");
        let expected = source.state_lines();
        State {
            gen,
            ops,
            source: Mutex::new(source),
            expected,
            guard,
            _dir: dir,
        }
    }

    fn pass(&self, ctx: &Ctx, st: &mut State, seconds: f64, trace: bool) -> Pass {
        let mut rec = Recorder::new(trace, Instant::now());
        let mut tally = Tally::default();
        let mut rounds = Vec::new();
        let mut attempts = 0;
        let mut bytes = 0;
        let source_digest = st.source.lock().expect("source replica").digest();
        let t0 = Instant::now();
        while another_round(t0, attempts, seconds) {
            let id = attempts as u64;
            attempts += 1;
            let dir = ctx.dir("replica-target");
            let out = rec.span("catch_up", id, |rec| catch_up(st, dir.path(), rec, id));
            let (round, replica) = match out {
                Ok(x) => x,
                Err(e) => {
                    tally.op(false, || format!("catch-up: {e}"));
                    continue;
                }
            };
            // Every shipped op is attached and replayed exactly once.
            let wrong = round.shipped.abs_diff(st.ops) + usize::from(round.exchanges != 1);
            tally.ops(st.ops as u64, wrong as u64, || {
                format!(
                    "shipped {} ops in {} exchanges",
                    round.shipped, round.exchanges
                )
            });
            tally.state(replica.digest() == source_digest, || {
                "catch-up: digests differ".into()
            });
            tally.state(
                replica.is_consistent() && replica.diverged().is_none(),
                || {
                    format!(
                        "catch-up: replica inconsistent or diverged ({:?})",
                        replica.diverged()
                    )
                },
            );
            if id == 0 {
                tally.state(replica.state_lines() == st.expected, || {
                    "catch-up: state_lines differ from the source's".into()
                });
            }
            bytes = dir_bytes(dir.path());
            rounds.push(round);
        }
        let wall_s = t0.elapsed().as_secs_f64();
        let catch: Vec<f64> = rounds.iter().map(|r| r.catch_up_s).collect();
        let exch: Vec<f64> = rounds.iter().map(|r| r.exchange_s).collect();
        let resp: Vec<f64> = rounds.iter().map(|r| r.respond_s).collect();
        let catch_up_s = median(&catch);
        let mut detail = Metrics::default();
        detail.push("catch_up_s", catch_up_s, "s");
        detail.push("rounds", rounds.len() as f64, "count");
        let mut layers = Metrics::default();
        layers.push("sync.exchange_s", median(&exch), "s");
        layers.push("sync.respond_s", median(&resp), "s");
        layers.push(
            "sync.ops_shipped",
            rounds.first().map_or(0.0, |r| r.shipped as f64),
            "count",
        );
        layers.push("sync.bytes_per_op", ratio(bytes as f64, st.ops as f64), "B");
        Pass {
            tally,
            ops_per_s: (st.ops * rounds.len()) as f64 / catch.iter().sum::<f64>(),
            latencies_us: catch.iter().map(|s| s * 1e6).collect(),
            disk_bytes_per_tuple: ratio(bytes as f64, st.ops as f64),
            detail,
            layers,
            wall_s,
            spans: vec![rec.into_spans()],
            outside: Default::default(),
        }
    }

    fn extra_layers(&self, ctx: &Ctx, st: &mut State, _: &Pass, tally: &mut Tally) -> Metrics {
        // Replay alone: one more catch-up, then reopen the caught-up
        // replica from its journal; the rest of that exchange is wire.
        let dir = ctx.dir("replica-apply");
        let mut rec = Recorder::new(false, Instant::now());
        let mut m = Metrics::default();
        let (round, replica) = match catch_up(st, dir.path(), &mut rec, 0) {
            Ok(x) => x,
            Err(e) => {
                tally.op(false, || format!("catch-up: {e}"));
                return m;
            }
        };
        drop(replica);
        let t = Instant::now();
        let reopened = Replica::open_durable(1, 2, &st.gen.db, dir.path(), true, &st.guard);
        let apply_s = t.elapsed().as_secs_f64();
        let held = reopened.map_or(0, |r| r.ops_held());
        tally.op(held == st.ops as u64, || {
            format!("reopened replica holds {held} ops")
        });
        m.push("sync.apply_s", apply_s, "s");
        m.push("sync.wire_s", round.exchange_s - apply_s, "s");
        m
    }

    fn registry(_: &State) -> Option<&MetricsRegistry> {
        // Replicas build their engines without a registry.
        None
    }
}

/// Journaled ops at the source replica.
const OPS: usize = 100_000;
