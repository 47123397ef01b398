//! `serve_mixed`: block_chain(4,4) with 10⁵ tuples preloaded durably;
//! two closed-loop clients run a fixed op script with per-op commits
//! under the `idr serve` defaults (fsync on, zero commit window).
//!
//! Op `k` of client `c` is a pure function of `(seed, c, k)`:
//! every 9th op reads (alternating an in-block and a cross-block total
//! projection), op `k ≡ 37 (mod 100)` re-inserts a preloaded key with
//! fresh values (rejected), op `k ≡ 71 (mod 100)` deletes a preloaded
//! tuple (removed), and the rest insert fragments of fresh entities
//! (accepted). The two clients touch disjoint entities, so every verdict
//! is known whatever the interleaving.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use idr_core::{BatchOp, Engine, Hub, Observability};
use idr_obs::{MetricsRegistry, OpTimeline, Phase, TraceHandle};
use idr_relation::exec::Guard;
use idr_relation::parse::parse_tuple_line;
use idr_relation::{AttrSet, DatabaseState, SymbolTable};
use idr_store::{SharedStore, Store};

use crate::gen::Gen;
use crate::span::{Recorder, Span};
use crate::util::{mean, median, quantile, ratio, ScratchDir};
use crate::{note_phases, Ctx, Metrics, Outside, Pass, Tally, Workload};

pub struct ServeMixed;

const CLIENTS: usize = 2;

pub struct State {
    gen: Gen,
    /// Preloaded entities: every one has a fragment in every relation.
    entities: u64,
    /// Entities below this are the delete pool; the rest the conflict
    /// pool (their fragments are never deleted).
    delete_pool: u64,
    hub: Hub<'static>,
    shared: Arc<SharedStore>,
    registry: Arc<MetricsRegistry>,
    guard: Guard,
    in_block: AttrSet,
    cross_block: AttrSet,
    /// Each client's next script index (a second pass continues).
    next: [u64; CLIENTS],
    /// Tuples the state must hold: preload + accepted − removed.
    expected_tuples: usize,
    dir: ScratchDir,
}

enum Op {
    Write { line: String, kind: Kind },
    Read { cross: bool },
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    Fresh,
    Conflict,
    Delete,
}

impl Kind {
    /// The verdict the generator constructed the op for.
    fn expected(self) -> bool {
        self != Kind::Conflict
    }
}

impl State {
    fn op(&self, c: u64, k: u64) -> Op {
        let rels = self.gen.rels() as u64;
        if k % 9 == 8 {
            return Op::Read {
                cross: (k / 9) % 2 == 1,
            };
        }
        let (line, kind) = match k % 100 {
            37 => {
                let q = k / 100;
                let pool = (self.entities - self.delete_pool) / 2;
                let e = self.delete_pool + 2 * (q % pool) + c;
                let line = self.gen.conflict((q % rels) as usize, e, 2 * q + c);
                (format!("insert {line}"), Kind::Conflict)
            }
            71 => {
                let q = k / 100;
                let e = 2 * (q / rels) + c;
                assert!(e < self.delete_pool, "delete pool exhausted");
                let line = self.gen.fragment((q % rels) as usize, e);
                (format!("delete {line}"), Kind::Delete)
            }
            _ => {
                let e = self.entities + 2 * (k / rels) + c;
                let line = self.gen.fragment((k % rels) as usize, e);
                (format!("insert {line}"), Kind::Fresh)
            }
        };
        Op::Write { line, kind }
    }
}

/// One client's readings.
#[derive(Default)]
struct Client {
    tally: Tally,
    ops: u64,
    accepted: u64,
    removed: u64,
    write_us: Vec<f64>,
    read_us: Vec<f64>,
    parse_us: Vec<f64>,
    lane_wait_us: Vec<f64>,
    maintain_us: Vec<f64>,
    reject_us: Vec<f64>,
    delete_us: Vec<f64>,
    commit_us: Vec<f64>,
    publish_us: Vec<f64>,
    query_in_us: Vec<f64>,
    query_cross_us: Vec<f64>,
    answer_tuples: Vec<f64>,
    outside: Outside,
    spans: Vec<Span>,
}

struct Shared<'a> {
    st: &'a State,
    symbols: Arc<Mutex<SymbolTable>>,
    deadline: Instant,
    /// Script ops started by all clients in every pass so far, for the
    /// reads' upper bound.
    started: AtomicU64,
}

fn client(sh: &Shared<'_>, c: usize, trace: bool, t0: Instant) -> (Client, u64) {
    let st = sh.st;
    let db = &st.gen.db;
    let writer = st.hub.write_handle();
    let mut rec = Recorder::new(trace, t0);
    let mut out = Client::default();
    let mut k = st.next[c];
    while Instant::now() < sh.deadline {
        let op = st.op(c as u64, k);
        sh.started.fetch_add(1, Ordering::Relaxed);
        let id = ((c as u64) << 48) | k;
        let start = Instant::now();
        match op {
            Op::Write { line, kind } => {
                let (verb, tail) = line.split_once(' ').expect("verb and tuple");
                rec.span("op", id, |rec| {
                    let p0 = Instant::now();
                    let parsed = rec.span("parse", id, |_| {
                        let mut sym = sh.symbols.lock().expect("symbol table");
                        parse_tuple_line(tail, db, &mut sym)
                    });
                    out.parse_us.push(p0.elapsed().as_secs_f64() * 1e6);
                    let tl = Arc::new(OpTimeline::new());
                    tl.stamp(Phase::Enqueue);
                    let verdict = match parsed {
                        Err(e) => Err(e),
                        Ok((rel, t)) if verb == "insert" => rec
                            .span("insert_timed", id, |_| {
                                writer.insert_timed(rel, t, &st.guard, &tl)
                            })
                            .map_err(|e| e.to_string()),
                        Ok((rel, t)) => rec
                            .span("delete_timed", id, |_| {
                                writer.delete_timed(rel, &t, &st.guard, &tl)
                            })
                            .map_err(|e| e.to_string()),
                    };
                    let ok = verdict == Ok(kind.expected());
                    out.tally
                        .op(ok, || format!("{line}: {verdict:?}, expected {kind:?}"));
                    if ok && kind == Kind::Fresh {
                        out.accepted += 1;
                    }
                    if ok && kind == Kind::Delete {
                        out.removed += 1;
                    }
                    let phase = |p| tl.get(p).map(|v| v as f64);
                    if let (Some(e), Some(l)) = (phase(Phase::Enqueue), phase(Phase::LaneAcquire)) {
                        out.lane_wait_us.push(l - e);
                    }
                    if let (Some(w), Some(f)) = (phase(Phase::WalAppend), phase(Phase::Fsync)) {
                        out.commit_us.push(f - w);
                    }
                    note_phases(&mut out.outside, &tl);
                    // Per-op writes chase after the fsync: the apply phase.
                    let apply = tl.duration_of(Phase::Apply) as f64;
                    match kind {
                        Kind::Fresh => out.maintain_us.push(apply),
                        Kind::Conflict => out.reject_us.push(apply),
                        Kind::Delete => out.delete_us.push(apply),
                    }
                });
                out.write_us.push(start.elapsed().as_secs_f64() * 1e6);
            }
            Op::Read { cross } => {
                let x = if cross { st.cross_block } else { st.in_block };
                rec.span("op", id, |rec| {
                    let p0 = Instant::now();
                    let view = rec.span("read_view", id, |_| writer.read_view());
                    let publish_us = p0.elapsed().as_secs_f64() * 1e6;
                    out.publish_us.push(publish_us);
                    out.outside
                        .entry("hub.publish_us".into())
                        .or_default()
                        .push(publish_us);
                    let q0 = Instant::now();
                    let ans = rec.span("total_projection", id, |_| {
                        view.total_projection(x, &st.guard)
                    });
                    let q_us = q0.elapsed().as_secs_f64() * 1e6;
                    out.outside
                        .entry("session.query_us".into())
                        .or_default()
                        .push(q_us);
                    if cross {
                        out.query_cross_us.push(q_us);
                    } else {
                        out.query_in_us.push(q_us);
                    }
                    // Every preloaded entity outside the delete pool is
                    // complete and answers; fresh entities add at most one
                    // tuple each.
                    let lo = (st.entities - st.delete_pool) as usize;
                    let hi = (st.entities + 2 + sh.started.load(Ordering::Relaxed)) as usize;
                    let n = match &ans {
                        Ok(Some(a)) => a.len(),
                        _ => 0,
                    };
                    out.answer_tuples.push(n as f64);
                    out.tally.op(n >= lo && n <= hi, || {
                        format!(
                            "read cross={cross}: {n} tuples outside [{lo}, {hi}] ({:?})",
                            ans.err()
                        )
                    });
                });
                out.read_us.push(start.elapsed().as_secs_f64() * 1e6);
            }
        }
        out.ops += 1;
        k += 1;
    }
    out.spans = rec.into_spans();
    (out, k)
}

fn lane_busy_us(registry: &MetricsRegistry, blocks: usize) -> u64 {
    (0..blocks)
        .map(|b| {
            registry
                .counter(&format!("hub.lane_busy_us{{block={b}}}"))
                .get()
        })
        .sum()
}

impl Workload for ServeMixed {
    type State = State;
    const NAME: &'static str = "serve_mixed";
    const SPANS: &'static [&'static str] = &[
        "op",
        "parse",
        "insert_timed",
        "delete_timed",
        "read_view",
        "total_projection",
    ];

    fn info(&self, ctx: &Ctx) -> Vec<(&'static str, String)> {
        let rels = 19;
        vec![
            ("family", "block_chain(4,4)".into()),
            ("preload", format!("{} tuples", ctx.size(ENTITIES, 60) * rels)),
            ("ops", "closed loop until time is up; op k of each client is fixed by the seed".into()),
            ("op_mix", "1 in 9 reads (in-block / cross-block total projection alternating), 1% key-conflicting inserts, 1% deletes, the rest fresh inserts".into()),
            ("flush", "fsync on, one WAL record and commit per op, commit window 0".into()),
            ("clients", CLIENTS.to_string()),
            ("why", "the user-facing serving path: parse, lanes, WAL and fsync on writes, publish and query on reads, block rebuilds on conflicts and deletes".into()),
        ]
    }

    fn setup(&self, ctx: &Ctx) -> State {
        let gen = Gen::block_chain44(ctx.seed);
        let entities = ctx.size(ENTITIES, 60) as u64;
        let registry = Arc::new(MetricsRegistry::new());
        // The hub borrows its engine for as long as the state lives; one
        // small engine per set-up is leaked to keep the two together.
        let engine: &'static Engine = Box::leak(Box::new(
            Engine::new(gen.db.clone()).with_observability(Observability {
                tracer: TraceHandle::none(),
                metrics: Some(registry.clone()),
                provenance: false,
            }),
        ));
        let dir = ctx.dir("serve");
        let store = Store::init(dir.path(), &gen.db)
            .expect("init serve store")
            .with_observability(TraceHandle::none(), Some(registry.clone()));
        let shared = Arc::new(SharedStore::new(store).with_group_window(Duration::ZERO));
        let guard = Guard::unlimited();
        let hub = engine
            .hub_with(&DatabaseState::empty(&gen.db), &guard, shared.clone())
            .expect("empty state binds");
        // Durable preload: framed groups, one fsync each.
        let writer = hub.write_handle();
        let symbols = shared.symbols();
        let lines = gen.stream(entities as usize * gen.rels());
        for chunk in lines.chunks(ctx.size(10_000, 200)) {
            let ops: Vec<BatchOp> = {
                let mut sym = symbols.lock().expect("symbol table");
                chunk
                    .iter()
                    .map(|l| {
                        let (rel, t) = parse_tuple_line(&l["insert ".len()..], &gen.db, &mut sym)
                            .expect("generated line parses");
                        BatchOp::Insert { rel, t }
                    })
                    .collect()
            };
            let v = writer.apply_batch(&ops, &guard).expect("preload group");
            assert!(v.iter().all(|&a| a), "preload is accepted");
        }
        let u = gen.db.universe();
        let set = |names: &[&str]| AttrSet::from_iter(names.iter().map(|n| u.attr_of(n)));
        State {
            in_block: set(&["X0_0", "X0_1"]),
            cross_block: set(&["X0_1", "X1_1"]),
            delete_pool: entities / 2 / 2 * 2,
            entities,
            expected_tuples: lines.len(),
            gen,
            hub,
            shared,
            registry,
            guard,
            next: [0; CLIENTS],
            dir,
        }
    }

    fn pass(&self, _ctx: &Ctx, st: &mut State, seconds: f64, trace: bool) -> Pass {
        let blocks = st.hub.engine().ir().map_or(1, |ir| ir.len());
        let busy0 = lane_busy_us(&st.registry, blocks);
        let fsyncs0 = st.shared.group_wal().fsyncs();
        let guard0 = st.guard.snapshot();
        let epoch0 = st.hub.read_view().epoch();
        let t0 = Instant::now();
        let sh = Shared {
            st,
            symbols: st.shared.symbols(),
            deadline: t0 + Duration::from_secs_f64(seconds),
            started: AtomicU64::new(st.next.iter().sum()),
        };
        let results: Vec<(Client, u64)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let sh = &sh;
                    s.spawn(move || client(sh, c, trace, t0))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let wall_s = t0.elapsed().as_secs_f64();
        drop(sh);
        let guard1 = st.guard.snapshot();
        let fsyncs = st.shared.group_wal().fsyncs() - fsyncs0;
        let busy = lane_busy_us(&st.registry, blocks) - busy0;
        let epoch1 = st.hub.read_view().epoch();

        let mut tally = Tally::default();
        let mut all = Client::default();
        let mut spans = Vec::new();
        let mut outside = Outside::new();
        for (c, (r, next)) in results.into_iter().enumerate() {
            for (name, v) in r.outside {
                outside.entry(name).or_default().extend(v);
            }
            st.next[c] = next;
            tally.merge(r.tally);
            all.ops += r.ops;
            all.accepted += r.accepted;
            all.removed += r.removed;
            macro_rules! pool {
                ($($f:ident),*) => { $( all.$f.extend(r.$f); )* };
            }
            pool!(
                write_us,
                read_us,
                parse_us,
                lane_wait_us,
                maintain_us,
                reject_us,
                delete_us,
                commit_us,
                publish_us,
                query_in_us,
                query_cross_us,
                answer_tuples
            );
            spans.push(r.spans);
        }
        st.expected_tuples = st.expected_tuples + all.accepted as usize - all.removed as usize;
        let view = st.hub.read_view();
        tally.state(view.is_consistent(), || {
            "serve: final state inconsistent".into()
        });
        let tuples = view.state().total_tuples();
        tally.state(tuples == st.expected_tuples, || {
            format!("serve: {tuples} tuples, expected {}", st.expected_tuples)
        });

        let writes = all.write_us.len() as f64;
        let reads = all.read_us.len() as f64;
        let mut detail = Metrics::default();
        detail.push("ops_per_s", all.ops as f64 / wall_s, "1/s");
        detail.push("write_p50_us", median(&all.write_us), "us");
        detail.push("write_p99_us", quantile(&all.write_us, 0.99), "us");
        detail.push("read_p50_us", median(&all.read_us), "us");
        detail.push("read_p90_us", quantile(&all.read_us, 0.9), "us");
        detail.push("writes", writes, "count");
        detail.push("reads", reads, "count");

        let mut layers = Metrics::default();
        layers.push("parse.us_per_line", mean(&all.parse_us), "us");
        // Most ops find their lane free, so the median wait reads 0 at
        // the timeline's microsecond resolution; the mean shows queueing.
        layers.push("lane.wait_us_mean", mean(&all.lane_wait_us), "us");
        layers.push("lane.wait_us_p99", quantile(&all.lane_wait_us, 0.99), "us");
        layers.push(
            "lane.busy_share",
            ratio(busy as f64, wall_s * 1e6 * blocks as f64),
            "ratio",
        );
        layers.push("maintain.us_per_op", mean(&all.maintain_us), "us");
        layers.push(
            "maintain.chase_steps_per_op",
            ratio((guard1.chase_steps - guard0.chase_steps) as f64, writes),
            "count",
        );
        layers.push(
            "maintain.lookups_per_op",
            ratio((guard1.lookups - guard0.lookups) as f64, writes),
            "count",
        );
        layers.push("maintain.reject_us_p50", median(&all.reject_us), "us");
        layers.push("maintain.delete_us_p50", median(&all.delete_us), "us");
        layers.push("wal.fsyncs_per_op", ratio(fsyncs as f64, writes), "ratio");
        layers.push("wal.commit_us_p50", median(&all.commit_us), "us");
        layers.push("publish.us_p50", median(&all.publish_us), "us");
        layers.push(
            "publish.epochs_per_read",
            ratio((epoch1 - epoch0) as f64, reads),
            "ratio",
        );
        layers.push("query.us_p50.in_block", median(&all.query_in_us), "us");
        layers.push(
            "query.us_p50.cross_block",
            median(&all.query_cross_us),
            "us",
        );
        layers.push("query.tuples_per_answer", mean(&all.answer_tuples), "count");

        let mut latencies_us = all.write_us;
        latencies_us.extend(all.read_us);
        Pass {
            tally,
            ops_per_s: all.ops as f64 / wall_s,
            latencies_us,
            disk_bytes_per_tuple: ratio(
                crate::util::dir_bytes(st.dir.path()) as f64,
                st.expected_tuples as f64,
            ),
            detail,
            layers,
            wall_s,
            spans,
            outside,
        }
    }

    fn extra_layers(&self, _: &Ctx, _: &mut State, _: &Pass, _: &mut Tally) -> Metrics {
        Metrics::default()
    }

    fn registry(st: &State) -> Option<&MetricsRegistry> {
        Some(&st.registry)
    }
}

/// Preloaded entities; each has a fragment in all 19 relations, so the
/// preload is 5264 × 19 = 100,016 tuples.
const ENTITIES: usize = 5_264;
