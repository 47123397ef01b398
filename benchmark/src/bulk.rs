//! `bulk_load`: star(16) `insert` lines parsed and committed as framed
//! `apply_batch` groups into a fresh durable store, one fsync per group.
//! A pass loads the whole stream into fresh stores, round after round,
//! until its time is up; the state grows from empty in every round, so
//! per-decile maintenance cost shows whether it stays bounded.

use std::sync::Arc;
use std::time::{Duration, Instant};

use idr_core::{BatchOp, Engine, Observability};
use idr_obs::{EventLog, MetricsRegistry, OpTimeline, Phase, TraceHandle};
use idr_relation::exec::Guard;
use idr_relation::parse::parse_tuple_line;
use idr_relation::DatabaseState;
use idr_store::{snapshot, SharedStore, Store};

use crate::gen::Gen;
use crate::span::Recorder;
use crate::util::{self, median, ratio};
use crate::{another_round, note_phases, Ctx, Metrics, Outside, Pass, Tally, Workload};

pub struct BulkLoad;

pub struct State {
    gen: Gen,
    lines: Vec<String>,
    group: usize,
    registry: Arc<MetricsRegistry>,
}

/// One group's readings.
struct Group {
    ops: usize,
    parse_s: f64,
    latency_s: f64,
    /// The timeline phase holding the batch chase: lane acquired → WAL
    /// record queued (verdicts are earned before the group is logged).
    maintain_us: f64,
    commit_us: f64,
    timeline: Arc<OpTimeline>,
    chase_steps: u64,
    lookups: u64,
}

/// One round: every line loaded into a fresh store.
struct Round {
    load_s: f64,
    groups: Vec<Group>,
    fsyncs: u64,
    wal_bytes: u64,
    dir_bytes: u64,
}

fn engine(gen: &Gen, registry: &Arc<MetricsRegistry>, tracer: TraceHandle) -> Engine {
    Engine::new(gen.db.clone()).with_observability(Observability {
        tracer,
        metrics: Some(registry.clone()),
        provenance: false,
    })
}

/// Loads every line of `st` into a fresh durable store under `ctx`.
fn round(ctx: &Ctx, st: &State, engine: &Engine, rec: &mut Recorder, tally: &mut Tally) -> Round {
    let dir = ctx.dir("bulk");
    let store = Store::init(dir.path(), &st.gen.db)
        .expect("init bulk store")
        .with_observability(TraceHandle::none(), Some(st.registry.clone()));
    let shared = Arc::new(SharedStore::new(store).with_group_window(Duration::ZERO));
    let guard = Guard::unlimited();
    let hub = engine
        .hub_with(&DatabaseState::empty(&st.gen.db), &guard, shared.clone())
        .expect("empty state binds");
    let writer = hub.write_handle();
    let symbols = shared.symbols();
    let db = &st.gen.db;
    let fsyncs0 = shared.group_wal().fsyncs();
    let mut groups = Vec::new();
    let t0 = Instant::now();
    for (gi, chunk) in st.lines.chunks(st.group).enumerate() {
        let g0 = Instant::now();
        let mut group = rec.span("group", gi as u64, |rec| {
            let p0 = Instant::now();
            let ops = rec.span("parse", gi as u64, |_| {
                let mut sym = symbols.lock().expect("symbol table");
                chunk
                    .iter()
                    .filter_map(|line| {
                        let tail = line.strip_prefix("insert ")?;
                        let (rel, t) = parse_tuple_line(tail, db, &mut sym).ok()?;
                        Some(BatchOp::Insert { rel, t })
                    })
                    .collect::<Vec<_>>()
            });
            let parse_s = p0.elapsed().as_secs_f64();
            let tl = Arc::new(OpTimeline::new());
            tl.stamp(Phase::Enqueue);
            let before = guard.snapshot();
            let verdicts = rec.span("apply_batch", gi as u64, |_| {
                writer.apply_batch_timed(&ops, &guard, &tl)
            });
            let after = guard.snapshot();
            let accepted = verdicts
                .as_ref()
                .map_or(0, |v| v.iter().filter(|&&a| a).count());
            // Every line of the stream is a fresh fragment: it parses and
            // is accepted.
            let n = chunk.len();
            tally.ops(n as u64, (n - accepted) as u64, || {
                format!(
                    "group {gi}: {accepted} of {n} lines accepted ({:?})",
                    verdicts.as_ref().err()
                )
            });
            Group {
                ops: chunk.len(),
                parse_s,
                latency_s: 0.0,
                maintain_us: tl.duration_of(Phase::WalAppend) as f64,
                commit_us: tl
                    .get(Phase::Fsync)
                    .zip(tl.get(Phase::WalAppend))
                    .map_or(0.0, |(f, w)| f.saturating_sub(w) as f64),
                timeline: tl,
                chase_steps: after.chase_steps - before.chase_steps,
                lookups: after.lookups - before.lookups,
            }
        });
        group.latency_s = g0.elapsed().as_secs_f64();
        groups.push(group);
    }
    let load_s = t0.elapsed().as_secs_f64();
    let view = hub.read_view();
    tally.state(view.is_consistent(), || {
        "bulk: final state inconsistent".into()
    });
    let tuples = view.state().total_tuples();
    tally.state(tuples == st.lines.len(), || {
        format!("bulk: {tuples} tuples after loading {}", st.lines.len())
    });
    let fsyncs = shared.group_wal().fsyncs() - fsyncs0;
    let wal_bytes = std::fs::metadata(snapshot::wal_path(dir.path(), 0)).map_or(0, |m| m.len());
    Round {
        load_s,
        groups,
        fsyncs,
        wal_bytes,
        dir_bytes: util::dir_bytes(dir.path()),
    }
}

impl Workload for BulkLoad {
    type State = State;
    const NAME: &'static str = "bulk_load";
    const SPANS: &'static [&'static str] = &["round", "group", "parse", "apply_batch"];

    fn info(&self, ctx: &Ctx) -> Vec<(&'static str, String)> {
        let tuples = ctx.size(TUPLES, 1_600);
        vec![
            ("family", "star(16)".into()),
            ("preload", "0".into()),
            ("ops", format!("{tuples} inserts per round, rounds until time is up")),
            ("op_mix", format!("100% fresh inserts in framed groups of {}", ctx.size(GROUP, 100))),
            ("flush", "fsync on, one fsync per group, commit window 0".into()),
            ("clients", "1".into()),
            ("why", "maintenance dominates a bulk load; per-decile cost shows whether it stays bounded as the state grows (no lanes, publish or query)".into()),
        ]
    }

    fn setup(&self, ctx: &Ctx) -> State {
        let gen = Gen::star16(ctx.seed);
        let lines = gen.stream(ctx.size(TUPLES, 1_600));
        State {
            gen,
            lines,
            group: ctx.size(GROUP, 100),
            registry: Arc::new(MetricsRegistry::new()),
        }
    }

    fn pass(&self, ctx: &Ctx, st: &mut State, seconds: f64, trace: bool) -> Pass {
        let engine = engine(&st.gen, &st.registry, TraceHandle::none());
        let mut rec = Recorder::new(trace, Instant::now());
        let mut tally = Tally::default();
        let mut rounds = Vec::new();
        let t0 = Instant::now();
        while another_round(t0, rounds.len(), seconds) {
            rounds.push(rec.span("round", rounds.len() as u64, |rec| {
                round(ctx, st, &engine, rec, &mut tally)
            }));
        }
        let wall_s = t0.elapsed().as_secs_f64();
        let n = st.lines.len() as f64;
        let load_s: Vec<f64> = rounds.iter().map(|r| r.load_s).collect();
        let groups: Vec<&Group> = rounds.iter().flat_map(|r| &r.groups).collect();
        let last = rounds.last().expect("one round");
        let ops_total: f64 = groups.iter().map(|g| g.ops as f64).sum();

        let mut detail = Metrics::default();
        let tuples_per_s = n * rounds.len() as f64 / load_s.iter().sum::<f64>();
        detail.push("tuples_per_s", tuples_per_s, "1/s");
        detail.push("rounds", rounds.len() as f64, "count");
        detail.push("load_s", median(&load_s), "s");

        let mut layers = Metrics::default();
        let per_op =
            |f: &dyn Fn(&Group) -> f64| ratio(groups.iter().map(|g| f(g)).sum(), ops_total);
        layers.push("parse.us_per_line", per_op(&|g| g.parse_s * 1e6), "us");
        layers.push("maintain.us_per_op", per_op(&|g| g.maintain_us), "us");
        layers.push(
            "maintain.chase_steps_per_op",
            per_op(&|g| g.chase_steps as f64),
            "count",
        );
        layers.push(
            "maintain.lookups_per_op",
            per_op(&|g| g.lookups as f64),
            "count",
        );
        // Deciles of load progress, pooled over rounds.
        let per_round = last.groups.len();
        for d in 0..10 {
            let sel: Vec<&Group> = rounds
                .iter()
                .flat_map(|r| r.groups.iter().enumerate())
                .filter(|(i, _)| i * 10 / per_round == d)
                .map(|(_, g)| g)
                .collect();
            let ops: f64 = sel.iter().map(|g| g.ops as f64).sum();
            let sum = |f: &dyn Fn(&Group) -> f64| ratio(sel.iter().map(|g| f(g)).sum(), ops);
            layers.push(
                format!("maintain.us_per_op.d{d}"),
                sum(&|g| g.maintain_us),
                "us",
            );
            layers.push(
                format!("maintain.chase_steps_per_op.d{d}"),
                sum(&|g| g.chase_steps as f64),
                "count",
            );
            layers.push(
                format!("maintain.lookups_per_op.d{d}"),
                sum(&|g| g.lookups as f64),
                "count",
            );
        }
        let commit: Vec<f64> = groups.iter().map(|g| g.commit_us).collect();
        layers.push("wal.fsyncs_per_op", ratio(last.fsyncs as f64, n), "ratio");
        layers.push("wal.commit_us_p50", median(&commit), "us");
        layers.push("wal.bytes_per_tuple", last.wal_bytes as f64 / n, "B");

        let mut outside = Outside::new();
        for g in &groups {
            note_phases(&mut outside, &g.timeline);
            outside
                .entry("store.commit_us".into())
                .or_default()
                .push(g.commit_us);
        }
        Pass {
            tally,
            ops_per_s: tuples_per_s,
            latencies_us: groups.iter().map(|g| g.latency_s * 1e6).collect(),
            disk_bytes_per_tuple: last.dir_bytes as f64 / n,
            detail,
            layers,
            wall_s,
            spans: vec![rec.into_spans()],
            outside,
        }
    }

    fn extra_layers(
        &self,
        ctx: &Ctx,
        st: &mut State,
        untraced: &Pass,
        tally: &mut Tally,
    ) -> Metrics {
        // The engine's own event tracer, on: one round with a ring-buffer
        // log attached against the untraced pass's throughput.
        let log = Arc::new(EventLog::new(1 << 16));
        let engine = engine(&st.gen, &st.registry, TraceHandle::to_log(log));
        let mut rec = Recorder::new(false, Instant::now());
        let r = round(ctx, st, &engine, &mut rec, tally);
        let on = st.lines.len() as f64 / r.load_s;
        let mut m = Metrics::default();
        m.push(
            "obs.tracer_on_ratio",
            ratio(untraced.ops_per_s, on),
            "ratio",
        );
        m
    }

    fn registry(st: &State) -> Option<&MetricsRegistry> {
        Some(&st.registry)
    }
}

/// Tuples per round and per framed group.
const TUPLES: usize = 200_000;
const GROUP: usize = 10_000;
