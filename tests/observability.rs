//! Golden-trace and provenance integration tests for the observability
//! layer (`crates/obs`).
//!
//! The determinism contract under test: trace streams contain no clocks,
//! addresses or other run-dependent data, and under block-parallel
//! evaluation every block writes to its own shard, merged in block order
//! at the join barrier. Serial re-runs are therefore byte-stable, and
//! parallel runs produce *identical* streams to serial ones — a stronger
//! property than the multiset equality the sharding argument needs.

use std::sync::Arc;

use independence_reducible::exec::Guard;
use independence_reducible::prelude::*;
use independence_reducible::workload::fixtures::{example1_r, example3, paper_examples};
use independence_reducible::workload::generators::{block_chain_scheme, star_scheme};
use independence_reducible::workload::states::{generate, WorkloadConfig};

fn traced_engine(
    db: DatabaseScheme,
    parallel: bool,
    provenance: bool,
) -> (Engine, Arc<EventLog>) {
    let log = Arc::new(EventLog::new(1 << 18));
    let engine = Engine::new(db)
        .with_parallel(parallel)
        .with_observability(Observability {
            tracer: TraceHandle::to_log(Arc::clone(&log)),
            metrics: None,
            provenance,
        });
    (engine, log)
}

/// One full traced workout — hub build, insert stream (some inserts
/// corrupted, so both verdicts appear), one epoch-publishing query —
/// rendered to JSON lines.
fn trace_of(db: &DatabaseScheme, parallel: bool) -> Vec<String> {
    let mut sym = SymbolTable::new();
    let w = generate(
        db,
        &mut sym,
        WorkloadConfig {
            entities: 6,
            fragment_pct: 70,
            inserts: 8,
            corrupt_pct: 25,
            seed: 0xC0FFEE,
        },
    );
    let (engine, log) = traced_engine(db.clone(), parallel, false);
    let g = Guard::unlimited();
    let hub = engine.hub(&w.state, &g).expect("unlimited guard");
    let writer = hub.write_handle();
    for (i, t) in &w.inserts {
        let _ = writer.insert(*i, t.clone(), &g).expect("unlimited guard");
    }
    let _ = hub
        .read_view()
        .total_projection(db.scheme(0).attrs(), &g)
        .expect("unlimited guard");
    log.drain().iter().map(|e| e.to_json()).collect()
}

#[test]
fn serial_traces_are_byte_stable_across_runs() {
    for fx in paper_examples() {
        let first = trace_of(&fx.scheme, false);
        let second = trace_of(&fx.scheme, false);
        assert!(!first.is_empty(), "{}: empty trace", fx.name);
        assert_eq!(first, second, "{}: serial trace not byte-stable", fx.name);
    }
}

#[test]
fn parallel_streams_are_identical_to_serial() {
    for fx in paper_examples() {
        let serial = trace_of(&fx.scheme, false);
        let parallel = trace_of(&fx.scheme, true);
        assert_eq!(
            serial, parallel,
            "{}: parallel trace diverged from serial",
            fx.name
        );
    }
}

#[test]
fn traces_start_with_the_scheme_verdicts() {
    for fx in paper_examples() {
        let trace = trace_of(&fx.scheme, true);
        assert!(
            trace[0].starts_with(r#"{"type":"recognition_done""#),
            "{}: {}",
            fx.name,
            trace[0]
        );
        let accepted = trace[0].contains(r#""accepted":true"#);
        assert_eq!(
            accepted,
            trace[1].starts_with(r#"{"type":"kep_computed""#),
            "{}: kep_computed must follow acceptance exactly",
            fx.name
        );
    }
}

#[test]
fn example3_rejection_names_the_violated_key_dependency() {
    // Example 3: the all-keys triangle {AB, BC, AC}. a1 already
    // determines b1 through R1's key A, so inserting (a1, b2) must be
    // rejected, and the explanation must name A→B with both witnesses.
    let fx = example3();
    let db = fx.scheme;
    let u = db.universe().clone();
    let mut sym = SymbolTable::new();
    let state = state_of(
        &db,
        &mut sym,
        &[
            ("R1", &[("A", "a1"), ("B", "b1")][..]),
            ("R2", &[("B", "b1"), ("C", "c1")][..]),
            ("R3", &[("A", "a1"), ("C", "c1")][..]),
        ],
    )
    .unwrap();
    let (engine, log) = traced_engine(db.clone(), true, true);
    let g = Guard::unlimited();
    let hub = engine.hub(&state, &g).unwrap();
    let writer = hub.write_handle();
    assert!(hub.is_consistent());
    let bad = Tuple::from_pairs([
        (u.attr("A").unwrap(), sym.intern("a1")),
        (u.attr("B").unwrap(), sym.intern("b2")),
    ]);
    assert!(!writer.insert(0, bad, &g).unwrap(), "insert must be rejected");
    let r = hub.explain_rejection().expect("rejection recorded");
    assert_eq!(r.fd.render(&u), "A→B");
    assert_eq!(u.name(r.column), "B");
    // The probed witness is the speculative insert into R1 (index 0);
    // the resident witness is whichever state row represents a1's class
    // (R3's row in practice — its B-null was equated to b1 first).
    assert_eq!(r.tags.1, Some(0));
    assert!(r.tags.0.is_some(), "resident witness must be a state row");
    // The key is a single base column: agreement needs no fd firings.
    assert_eq!(r.lhs.len(), 1);
    assert_eq!(u.name(r.lhs[0].0), "A");
    assert!(r.lhs[0].1.is_empty() && r.lhs[0].2.is_empty());
    // The trace stream carries the same verdict.
    let events = log.drain();
    assert!(
        events.iter().any(|e| matches!(
            e,
            TraceEvent::StateRejected { violating_fd, column, .. }
                if violating_fd.as_ref() == "A→B" && column.as_ref() == "B"
        )),
        "no state_rejected event naming A→B"
    );
    assert!(events.iter().any(|e| matches!(
        e,
        TraceEvent::InsertApplied { accepted: false, .. }
    )));
}

#[test]
fn university_derived_cell_has_the_exact_firing_chain() {
    // Example 1: R2 records (h1, t1, r1) without a course; R1's HR→C and
    // HR→T link it to R1's row, so the T cell of the (c1, t1, h1) answer
    // is derived, not given.
    let fx = example1_r();
    let db = fx.scheme;
    let u = db.universe().clone();
    let mut sym = SymbolTable::new();
    let state = state_of(
        &db,
        &mut sym,
        &[
            ("R1", &[("H", "h1"), ("R", "r1"), ("C", "c1")][..]),
            ("R2", &[("H", "h1"), ("T", "t1"), ("R", "r1")][..]),
        ],
    )
    .unwrap();
    let (engine, _log) = traced_engine(db.clone(), true, true);
    let g = Guard::unlimited();
    let hub = engine.hub(&state, &g).unwrap();
    let x = u.set_of("HTC");
    let answers = hub
        .read_view()
        .total_projection(x, &g)
        .unwrap()
        .expect("consistent");
    assert_eq!(answers.len(), 1);
    let exp = hub.explain(x, &answers[0]).expect("witness row exists");
    assert_eq!(exp.tag, Some(0), "witness is R1's row");
    for cell in &exp.cells {
        match u.name(cell.column) {
            // H and C are base constants of R1's own tuple.
            "H" | "C" => assert!(cell.chain.is_empty(), "H/C must be given"),
            // T reached R1's row through exactly one firing of HR→T.
            "T" => {
                assert_eq!(cell.chain.len(), 1, "T needs exactly one firing");
                let f = &cell.chain[0];
                assert_eq!(f.fd.render(&u), "HR→T");
                assert_eq!(u.name(f.column), "T");
                assert_eq!(
                    (f.tags.0.is_some(), f.tags.1.is_some()),
                    (true, true),
                    "both firing rows are state rows"
                );
            }
            other => panic!("unexpected cell column {other}"),
        }
    }
    // Without provenance the same witness is found but chains are empty.
    let plain = Engine::new(db.clone()).with_parallel(true);
    let plain_hub = plain.hub(&state, &g).unwrap();
    let exp = plain_hub.explain(x, &answers[0]).expect("witness");
    assert!(exp.cells.iter().all(|c| c.chain.is_empty()));
}

/// Named `(name, value)` lists: clock-free counters, gauges, and
/// histogram observation counts, in registry order.
type DeterministicMetrics = (Vec<(String, u64)>, Vec<(String, u64)>, Vec<(String, u64)>);

/// The same traced workout as [`trace_of`], but through a metrics
/// registry, keeping only the clock-free parts of the snapshot: counters
/// whose name carries no `_us` suffix, every gauge, and each histogram's
/// observation *count* (sums and bucket placement of latency histograms
/// are wall-clock).
fn deterministic_metrics(db: &DatabaseScheme, parallel: bool) -> DeterministicMetrics {
    let mut sym = SymbolTable::new();
    let w = generate(
        db,
        &mut sym,
        WorkloadConfig {
            entities: 6,
            fragment_pct: 70,
            inserts: 8,
            corrupt_pct: 25,
            seed: 0xC0FFEE,
        },
    );
    let registry = Arc::new(MetricsRegistry::new());
    let engine = Engine::new(db.clone())
        .with_parallel(parallel)
        .with_observability(Observability {
            tracer: TraceHandle::none(),
            metrics: Some(Arc::clone(&registry)),
            provenance: false,
        });
    let g = Guard::unlimited();
    let hub = engine.hub(&w.state, &g).expect("unlimited guard");
    let writer = hub.write_handle();
    for (i, t) in &w.inserts {
        let _ = writer.insert(*i, t.clone(), &g).expect("unlimited guard");
    }
    let _ = hub
        .read_view()
        .total_projection(db.scheme(0).attrs(), &g)
        .expect("unlimited guard");
    let snap = registry.snapshot();
    let counters = snap
        .counters
        .into_iter()
        .filter(|(n, _)| !n.contains("_us"))
        .collect();
    let gauges = snap.gauges;
    let hist_counts = snap
        .histograms
        .into_iter()
        .map(|h| (h.name, h.count))
        .collect();
    (counters, gauges, hist_counts)
}

/// PR 8's extension of the determinism contract to derived metrics:
/// every deterministic counter (session verdicts, chase work, per-block
/// lane ops), every gauge (epoch, epoch lag, guard spend) and every
/// histogram's observation count must be equal between a serial and a
/// block-parallel run — across the 11 paper fixtures plus two synthetic
/// multi-block schemes. Only latency *values* (the `_us` sums and bucket
/// placements) are allowed to differ.
#[test]
fn serial_and_parallel_runs_agree_on_every_deterministic_metric() {
    let mut fixtures: Vec<(String, DatabaseScheme)> = paper_examples()
        .into_iter()
        .map(|fx| (fx.name.to_string(), fx.scheme))
        .collect();
    fixtures.push(("block_chain(4,3)".to_string(), block_chain_scheme(4, 3)));
    fixtures.push(("star(4)".to_string(), star_scheme(4)));
    assert_eq!(fixtures.len(), 13, "fixture roster drifted");
    for (name, db) in &fixtures {
        let serial = deterministic_metrics(db, false);
        let parallel = deterministic_metrics(db, true);
        assert!(
            !serial.0.is_empty(),
            "{name}: no clock-free counters recorded"
        );
        assert_eq!(serial.0, parallel.0, "{name}: counters diverged");
        assert_eq!(serial.1, parallel.1, "{name}: gauges diverged");
        assert_eq!(
            serial.2, parallel.2,
            "{name}: histogram observation counts diverged"
        );
    }
}

#[test]
fn metrics_registry_counts_session_operations() {
    let fx = example1_r();
    let db = fx.scheme;
    let u = db.universe().clone();
    let mut sym = SymbolTable::new();
    let state = state_of(
        &db,
        &mut sym,
        &[
            ("R1", &[("H", "h1"), ("R", "r1"), ("C", "c1")][..]),
            ("R2", &[("H", "h1"), ("T", "t1"), ("R", "r1")][..]),
        ],
    )
    .unwrap();
    let registry = Arc::new(MetricsRegistry::new());
    let engine = Engine::new(db.clone()).with_observability(Observability {
        tracer: TraceHandle::none(),
        metrics: Some(Arc::clone(&registry)),
        provenance: false,
    });
    let g = Guard::unlimited();
    let hub = engine.hub(&state, &g).unwrap();
    let writer = hub.write_handle();
    let ok = Tuple::from_pairs([
        (u.attr("C").unwrap(), sym.intern("c1")),
        (u.attr("S").unwrap(), sym.intern("s1")),
        (u.attr("G").unwrap(), sym.intern("g1")),
    ]);
    assert!(writer.insert(3, ok, &g).unwrap());
    let bad = Tuple::from_pairs([
        (u.attr("H").unwrap(), sym.intern("h1")),
        (u.attr("R").unwrap(), sym.intern("r1")),
        (u.attr("C").unwrap(), sym.intern("c9")),
    ]);
    assert!(!writer.insert(0, bad, &g).unwrap());
    let _ = hub.read_view().total_projection(u.set_of("HTC"), &g).unwrap();
    let snap = registry.snapshot();
    let counter = |name: &str| {
        snap.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("missing counter {name}"))
    };
    assert_eq!(counter("session.builds"), 1);
    assert_eq!(counter("session.inserts_accepted"), 1);
    assert_eq!(counter("session.inserts_rejected"), 1);
    assert_eq!(counter("session.queries"), 1);
    // Hub writes are Algorithm 2 key lookups, charged to the guard.
    let lookups = snap
        .gauges
        .iter()
        .find(|(n, _)| n == "guard.lookups")
        .map(|&(_, v)| v)
        .expect("guard.lookups gauge");
    assert!(lookups >= 2, "both inserts charge lookups: {lookups}");
    let hist = snap
        .histograms
        .iter()
        .find(|h| h.name == "session.insert_us")
        .expect("insert latency histogram");
    assert_eq!(hist.count, 2);
    let json = snap.to_json();
    assert!(json.starts_with(r#"{"counters":{"#), "{json}");
}
