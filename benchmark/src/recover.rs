//! `recover`: `idr_store::recover_with` of a block_chain(4,4) data dir
//! holding a snapshot plus a per-op WAL tail of fresh inserts with a few
//! deletes and key-conflicting inserts spread through it. A pass
//! recovers the same dir round after round (recovery only truncates a
//! torn tail, and there is none), so every round does the same work:
//! snapshot load, WAL scan, a whole-block chase at hub build, and
//! per-op replay. It does no fsync and no reads.

use std::sync::Arc;
use std::time::Instant;

use idr_core::Engine;
use idr_obs::{MetricsRegistry, TraceHandle};
use idr_relation::exec::Guard;
use idr_relation::parse::{parse_tuple_line, render_tuple_line};
use idr_relation::{DatabaseState, SymbolTable};
use idr_store::{recover_with, snapshot, wal, RecoveryStats, Store, WalWriter};

use crate::gen::Gen;
use crate::span::Recorder;
use crate::util::{dir_bytes, median, ratio, ScratchDir};
use crate::{another_round, Ctx, Metrics, Pass, Tally, Workload};

pub struct Recover;

pub struct State {
    gen: Gen,
    dir: ScratchDir,
    /// The written state as sorted rendered lines.
    expected: Vec<String>,
    tail_records: usize,
    conflicts: usize,
    registry: Arc<MetricsRegistry>,
    /// The latest round's recovery stats.
    stats: Option<RecoveryStats>,
}

fn sorted_lines(gen: &Gen, state: &DatabaseState, symbols: &SymbolTable) -> Vec<String> {
    let mut v: Vec<String> = state
        .iter_all()
        .map(|(i, t)| render_tuple_line(&gen.db, symbols, i, t))
        .collect();
    v.sort_unstable();
    v
}

impl Workload for Recover {
    type State = State;
    const NAME: &'static str = "recover";
    const SPANS: &'static [&'static str] = &["recover_with"];

    fn info(&self, ctx: &Ctx) -> Vec<(&'static str, String)> {
        vec![
            ("family", "block_chain(4,4)".into()),
            (
                "preload",
                format!(
                    "snapshot of {} tuples, WAL tail of {} per-op records",
                    ctx.size(SNAP_ENTITIES, 60) * 19,
                    ctx.size(TAIL, 400) + 2 * ctx.size(EDITS, 3)
                ),
            ),
            ("ops", "recover_with of the same dir, rounds until time is up".into()),
            (
                "op_mix",
                format!(
                    "tail: fresh inserts plus {} deletes and {} key-conflicting inserts",
                    ctx.size(EDITS, 3),
                    ctx.size(EDITS, 3)
                ),
            ),
            ("flush", "none while recovering (the dir was written before the pass)".into()),
            ("clients", "1".into()),
            ("why", "restart delay: snapshot parse, WAL scan, a whole-block chase at hub build and per-op replay".into()),
        ]
    }

    fn setup(&self, ctx: &Ctx) -> State {
        // The dir is written directly in the store's formats, with the
        // records the write path would log: a rejected insert leaves its
        // intent record and no abort marker. The expected state is the
        // generator's model of the tail, not the engine's answer.
        let gen = Gen::block_chain44(ctx.seed);
        let db = &gen.db;
        let rels = gen.rels() as u64;
        let snap_entities = ctx.size(SNAP_ENTITIES, 60) as u64;
        let tail = ctx.size(TAIL, 400) as u64;
        let edits = ctx.size(EDITS, 3) as u64;
        let dir = ctx.dir("recover");
        drop(Store::init(dir.path(), db).expect("init recover store"));
        let mut symbols = SymbolTable::new();
        let mut parse =
            |line: &str| parse_tuple_line(line, db, &mut symbols).expect("generated line parses");
        let mut state = DatabaseState::empty(db);
        for line in gen.stream((snap_entities * rels) as usize) {
            let (rel, t) = parse(&line["insert ".len()..]);
            state.insert(rel, t).expect("fragment matches its relation");
        }
        let mut records = Vec::new();
        let every = tail / edits.max(1);
        let mut conflicts = 0;
        for k in 0..tail {
            let e = snap_entities + k / rels;
            records.push(("insert", parse(&gen.fragment((k % rels) as usize, e))));
            if k % every == every / 2 && conflicts < edits {
                // Deletes take even preloaded entities, conflicts odd ones.
                let q = k / every;
                records.push(("delete", parse(&gen.fragment((q % rels) as usize, 2 * q))));
                records.push((
                    "insert",
                    parse(&gen.conflict(((q + 1) % rels) as usize, 2 * q + 1, q)),
                ));
                conflicts += 1;
            }
        }
        snapshot::write_snapshot(dir.path(), 1, db, &state, &symbols, false)
            .expect("write snapshot");
        std::fs::remove_file(snapshot::wal_path(dir.path(), 0)).expect("drop epoch-0 wal");
        let mut wal =
            WalWriter::create(&snapshot::wal_path(dir.path(), 1), false).expect("create wal");
        for (verb, (rel, t)) in &records {
            wal.append(&format!(
                "{verb} {}",
                render_tuple_line(db, &symbols, *rel, t)
            ))
            .expect("append wal record");
        }
        let mut model = state;
        let mut tuples = records.iter();
        while let Some((verb, (rel, t))) = tuples.next() {
            if *verb == "delete" {
                model.remove(*rel, t).expect("relation index");
                tuples.next(); // the conflict that follows is rejected
            } else {
                model
                    .insert(*rel, t.clone())
                    .expect("fragment matches its relation");
            }
        }
        let expected = sorted_lines(&gen, &model, &symbols);
        State {
            gen,
            dir,
            expected,
            tail_records: records.len(),
            conflicts: conflicts as usize,
            registry: Arc::new(MetricsRegistry::new()),
            stats: None,
        }
    }

    fn pass(&self, _ctx: &Ctx, st: &mut State, seconds: f64, trace: bool) -> Pass {
        let mut rec = Recorder::new(trace, Instant::now());
        let mut tally = Tally::default();
        let mut secs = Vec::new();
        let mut restored = 0;
        let t0 = Instant::now();
        while another_round(t0, secs.len(), seconds) {
            let r0 = Instant::now();
            let rec_out = rec.span("recover_with", secs.len() as u64, |_| {
                recover_with(
                    st.dir.path(),
                    TraceHandle::none(),
                    Some(st.registry.clone()),
                )
            });
            secs.push(r0.elapsed().as_secs_f64());
            let r = match rec_out {
                Ok(r) => r,
                Err(e) => {
                    tally.op(false, || format!("recover_with: {e}"));
                    continue;
                }
            };
            // Every replayed record re-earns the verdict it was written
            // with: the conflicts re-reject, everything else applies.
            let wrong = r.stats.replayed.abs_diff(st.tail_records)
                + r.stats.rejected.abs_diff(st.conflicts);
            tally.ops(
                r.stats.replayed.max(st.tail_records) as u64,
                wrong as u64,
                || format!("recover: {:?}", r.stats),
            );
            tally.state(r.consistent, || {
                "recover: recovered state inconsistent".into()
            });
            restored = r.stats.snapshot_tuples + r.stats.replayed;
            st.stats = Some(r.stats.clone());
            if secs.len() == 1 {
                let symbols = r.store.symbols();
                let got = sorted_lines(&st.gen, &r.state, &symbols.lock().expect("symbol table"));
                tally.state(got == st.expected, || {
                    format!(
                        "recover: recovered state ({} tuples) differs from the written one ({})",
                        got.len(),
                        st.expected.len()
                    )
                });
            } else {
                tally.state(r.state.total_tuples() == st.expected.len(), || {
                    "recover: tuple count changed between rounds".into()
                });
            }
        }
        let wall_s = t0.elapsed().as_secs_f64();
        let recover_s = median(&secs);
        let mut detail = Metrics::default();
        detail.push("recover_s", recover_s, "s");
        detail.push("rounds", secs.len() as f64, "count");
        Pass {
            tally,
            ops_per_s: (restored * secs.len()) as f64 / secs.iter().sum::<f64>(),
            latencies_us: secs.iter().map(|s| s * 1e6).collect(),
            disk_bytes_per_tuple: ratio(dir_bytes(st.dir.path()) as f64, st.expected.len() as f64),
            detail,
            layers: Metrics::default(),
            wall_s,
            spans: vec![rec.into_spans()],
            outside: Default::default(),
        }
    }

    fn extra_layers(&self, _: &Ctx, st: &mut State, untraced: &Pass, _: &mut Tally) -> Metrics {
        // The sub-steps of recovery, each timed by calling it on the same
        // dir; replay is what remains of the untraced recovery time.
        let dir = st.dir.path();
        let (mut load, mut scan, mut hub) = (Vec::new(), Vec::new(), Vec::new());
        let mut records = 0;
        for _ in 0..3 {
            let t = Instant::now();
            let mut symbols = SymbolTable::new();
            let (epoch, state) =
                snapshot::load_snapshot(dir, &st.gen.db, &mut symbols).expect("load snapshot");
            load.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            records = wal::scan_file(&snapshot::wal_path(dir, epoch))
                .expect("scan wal")
                .records
                .len();
            scan.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            let engine = Engine::new(st.gen.db.clone());
            let guard = Guard::unlimited();
            drop(engine.hub(&state, &guard).expect("snapshot binds"));
            hub.push(t.elapsed().as_secs_f64());
        }
        let recover_s = median(&untraced.latencies_us) / 1e6;
        let (load, scan, hub) = (median(&load), median(&scan), median(&hub));
        let mut m = Metrics::default();
        m.push("recover.snapshot_load_s", load, "s");
        m.push("recover.wal_scan_s", scan, "s");
        m.push("recover.hub_build_s", hub, "s");
        m.push(
            "recover.replay_us_per_record",
            ratio((recover_s - load - scan - hub) * 1e6, records as f64),
            "us",
        );
        let s = st.stats.clone().unwrap_or_default();
        m.push("recover.stats.epoch", s.epoch as f64, "count");
        m.push(
            "recover.stats.snapshot_tuples",
            s.snapshot_tuples as f64,
            "count",
        );
        m.push("recover.stats.wal_records", s.wal_records as f64, "count");
        m.push("recover.stats.torn_bytes", s.torn_bytes as f64, "B");
        m.push("recover.stats.replayed", s.replayed as f64, "count");
        m.push("recover.stats.aborted", s.aborted as f64, "count");
        m.push("recover.stats.rejected", s.rejected as f64, "count");
        m
    }

    fn registry(st: &State) -> Option<&MetricsRegistry> {
        Some(&st.registry)
    }
}

/// Snapshot entities (× 19 relations = tuples), tail inserts, and
/// deletes (= key conflicts) in the tail.
const SNAP_ENTITIES: usize = 5_264;
const TAIL: usize = 50_000;
const EDITS: usize = 10;
