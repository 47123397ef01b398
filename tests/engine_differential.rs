//! Differential suite for the PR 2 engine: the indexed incremental
//! [`Engine`]/[`Hub`] facade must be observationally equal to the
//! naive whole-state chase on every fixture the paper provides and on the
//! synthetic scaling families — same consistency verdict, same total
//! projections (the query-visible part of the representative instance),
//! same accept/reject decision for every insert.
//!
//! The suite also pins the Theorem 4.2 claim the engine exploits: block
//! evaluation may run in parallel, and parallel and serial execution
//! agree tuple-for-tuple even on corrupted states and under injected
//! budget faults (the guard is shared across worker threads, so a trip in
//! one block must surface identically in both modes).

use std::mem::discriminant;

use independence_reducible::exec::{Budget, ExecError};
use independence_reducible::prelude::*;
use independence_reducible::workload::generators;
use independence_reducible::workload::states::{generate, WorkloadConfig};

/// Every query the engine can answer, compared against the chase oracle.
fn check_queries(db: &DatabaseScheme, state: &DatabaseState, engine: &Engine, case: &str) {
    let kd = KeyDeps::of(db);
    let g = Guard::unlimited();
    let oracle_consistent = is_consistent(db, state, kd.full(), &g).unwrap();
    let hub = engine.hub(state, &g).unwrap();
    assert_eq!(hub.is_consistent(), oracle_consistent, "{case}: verdict");
    let view = hub.read_view();
    let mut targets: Vec<AttrSet> = db.schemes().iter().map(|s| s.attrs()).collect();
    targets.push(db.universe().all());
    for x in targets {
        let oracle = total_projection(db, state, kd.full(), x, &g).unwrap();
        let ours = engine.total_projection(state, x, &g).unwrap();
        assert_eq!(
            ours,
            oracle,
            "{case}: [{}]",
            db.universe().render(x)
        );
        // The hub's read view serves the same answer from its snapshot.
        let via_view = view.total_projection(x, &g).unwrap();
        assert_eq!(via_view, oracle, "{case}: view [{}]", db.universe().render(x));
    }
}

#[test]
fn engine_matches_the_chase_on_all_paper_fixtures() {
    for fx in independence_reducible::workload::paper_examples() {
        let engine = Engine::new(fx.scheme.clone());
        for (seed, corrupt_pct) in [(11u64, 0u32), (12, 0), (13, 35), (14, 70)] {
            let mut sym = SymbolTable::new();
            let w = generate(
                &fx.scheme,
                &mut sym,
                WorkloadConfig {
                    entities: 6,
                    fragment_pct: 55,
                    inserts: 0,
                    corrupt_pct,
                    seed,
                },
            );
            let case = format!("{} (seed {seed}, corrupt {corrupt_pct}%)", fx.name);
            check_queries(&fx.scheme, &w.state, &engine, &case);
        }
    }
}

#[test]
fn engine_matches_the_chase_on_synthetic_families() {
    let families: Vec<(&str, DatabaseScheme)> = vec![
        ("chain(6)", generators::chain_scheme(6)),
        ("cycle(5)", generators::cycle_scheme(5)),
        ("split(4)", generators::split_scheme(4)),
        ("star(4)", generators::star_scheme(4)),
        ("block_chain(3,3)", generators::block_chain_scheme(3, 3)),
        ("example2", generators::example2_scheme()),
    ];
    for (name, db) in families {
        let engine = Engine::new(db.clone());
        for (seed, corrupt_pct) in [(21u64, 0u32), (22, 40)] {
            let mut sym = SymbolTable::new();
            let w = generate(
                &db,
                &mut sym,
                WorkloadConfig {
                    entities: 7,
                    fragment_pct: 60,
                    inserts: 0,
                    corrupt_pct,
                    seed,
                },
            );
            let case = format!("{name} (seed {seed}, corrupt {corrupt_pct}%)");
            check_queries(&db, &w.state, &engine, &case);
        }
    }
}

/// Insert differential: the write handle's incremental accept/reject
/// decision equals "add the tuple, re-chase from scratch, keep it iff
/// consistent".
#[test]
fn incremental_inserts_match_recompute_from_scratch() {
    let families: Vec<(&str, DatabaseScheme)> = vec![
        ("block_chain(3,3)", generators::block_chain_scheme(3, 3)),
        ("chain(5)", generators::chain_scheme(5)),
        ("example2", generators::example2_scheme()),
    ];
    for (name, db) in families {
        let kd = KeyDeps::of(&db);
        let engine = Engine::new(db.clone());
        for seed in [31u64, 32, 33] {
            let mut sym = SymbolTable::new();
            let w = generate(
                &db,
                &mut sym,
                WorkloadConfig {
                    entities: 6,
                    fragment_pct: 50,
                    inserts: 8,
                    corrupt_pct: 0,
                    seed,
                },
            );
            let g = Guard::unlimited();
            let hub = engine.hub(&w.state, &g).unwrap();
            let writer = hub.write_handle();
            let mut naive = w.state.clone();
            for (i, t) in &w.inserts {
                let accepted = writer.insert(*i, t.clone(), &g).unwrap();
                // Oracle: apply to a copy and re-chase the whole state.
                let mut candidate = naive.clone();
                candidate.insert(*i, t.clone()).unwrap();
                let want = is_consistent(&db, &candidate, kd.full(), &g).unwrap();
                assert_eq!(accepted, want, "{name} seed {seed}: insert {t:?} into {i}");
                if want {
                    naive = candidate;
                }
            }
            // After the whole stream the hub's published state equals the
            // naive replay, and so do its answers.
            let view = hub.read_view();
            assert_eq!(view.state().total_tuples(), naive.total_tuples());
            let x = db.universe().all();
            assert_eq!(
                view.total_projection(x, &g).unwrap(),
                total_projection(&db, &naive, kd.full(), x, &g).unwrap(),
                "{name} seed {seed}"
            );
        }
    }
}

/// Theorem 4.2 under stress: on a multi-block fixture, parallel and
/// serial block evaluation agree — on clean states, on corrupted states,
/// and when a shared budget guard trips mid-evaluation.
#[test]
fn parallel_and_serial_agree_under_injected_faults() {
    let db = generators::block_chain_scheme(4, 3);
    let parallel = Engine::new(db.clone()); // parallel is the default
    let serial = Engine::new(db.clone()).with_parallel(false);
    assert!(parallel.is_independence_reducible());
    for (seed, corrupt_pct) in [(41u64, 0u32), (42, 50), (43, 80)] {
        let mut sym = SymbolTable::new();
        let w = generate(
            &db,
            &mut sym,
            WorkloadConfig {
                entities: 8,
                fragment_pct: 55,
                inserts: 0,
                corrupt_pct,
                seed,
            },
        );
        let g = Guard::unlimited();
        let sp = parallel.hub(&w.state, &g).unwrap();
        let ss = serial.hub(&w.state, &g).unwrap();
        assert_eq!(sp.is_consistent(), ss.is_consistent(), "seed {seed}");
        assert_eq!(
            sp.inconsistent_blocks(),
            ss.inconsistent_blocks(),
            "seed {seed}: same blocks poisoned"
        );
        let x = db.universe().all();
        assert_eq!(
            sp.read_view().total_projection(x, &g).unwrap(),
            ss.read_view().total_projection(x, &g).unwrap(),
            "seed {seed}"
        );

        // Injected faults: progressively tighter lookup budgets (the hub
        // build charges Algorithm 1's key-index probes). Both modes must
        // classify each budget identically — either both finish (and
        // agree) or both trip with the same error variant.
        for steps in [0u64, 1, 2, 4, 64, 4096] {
            let budget = Budget::unlimited().with_max_lookups(steps);
            let rp = parallel.hub(&w.state, &Guard::new(budget));
            let rs = serial.hub(&w.state, &Guard::new(budget));
            match (rp, rs) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.is_consistent(), b.is_consistent(), "seed {seed}/{steps}");
                    assert_eq!(
                        a.inconsistent_blocks(),
                        b.inconsistent_blocks(),
                        "seed {seed}/{steps}"
                    );
                }
                (Err(a), Err(b)) => {
                    assert!(
                        matches!(a, ExecError::BudgetExceeded { .. }),
                        "seed {seed}/{steps}: {a}"
                    );
                    assert_eq!(discriminant(&a), discriminant(&b), "seed {seed}/{steps}");
                }
                (a, b) => panic!(
                    "seed {seed}/{steps}: parallel {:?} vs serial {:?} disagree on success",
                    a.is_ok(),
                    b.is_ok()
                ),
            }
        }
    }
}
