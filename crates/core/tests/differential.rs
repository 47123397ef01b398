//! Differential tests: every specialised algorithm of the paper against
//! the generic chase oracle, over the synthetic families of
//! `idr-workload`.
//!
//! * Algorithm 1 (`KeRep::build`) decides consistency exactly like the
//!   chase, and its tuples are exactly the constant components of the
//!   chased state tableau's rows.
//! * Algorithms 2 and 5 decide the maintenance problem exactly like
//!   re-chasing the updated state, and (on split-free schemes) agree with
//!   each other.
//! * The Theorem 4.1 total-projection expressions compute exactly
//!   `πt_X(CHASE_F(T_r))`.
//! * Algorithm 6's verdict matches the definitional check
//!   (`is_ir_partition`) on its own partition.

use idr_core::maintain::{algorithm2, algorithm5, IrMaintainer, StateIndex};
use idr_core::query::ir_total_projection;
use idr_core::recognition::{is_ir_partition, recognize};
use idr_fd::KeyDeps;
use idr_relation::exec::{Guard, RetryPolicy};
use idr_relation::{AttrSet, DatabaseScheme, SymbolTable, Tuple};
use idr_workload::generators;
use idr_workload::states::{generate, WorkloadConfig};

fn families() -> Vec<(&'static str, DatabaseScheme)> {
    vec![
        ("chain6", generators::chain_scheme(6)),
        ("cycle5", generators::cycle_scheme(5)),
        ("split3", generators::split_scheme(3)),
        ("star4", generators::star_scheme(4)),
        ("blocks2x3", generators::block_chain_scheme(2, 3)),
        ("example4", idr_workload::fixtures::example4().scheme),
        ("example6", idr_workload::fixtures::example6().scheme),
        ("example11", idr_workload::fixtures::example11().scheme),
    ]
}

fn g() -> Guard {
    Guard::unlimited()
}

fn rp() -> RetryPolicy {
    RetryPolicy::none()
}

fn cfg(seed: u64) -> WorkloadConfig {
    WorkloadConfig {
        entities: 30,
        fragment_pct: 55,
        inserts: 30,
        corrupt_pct: 40,
        seed,
    }
}

#[test]
fn algorithm1_matches_chase_consistency_and_tuples() {
    for (name, db) in families() {
        let kd = KeyDeps::of(&db);
        let ir = recognize(&db, &kd)
            .accepted()
            .unwrap_or_else(|| panic!("{name} must be accepted"));
        for seed in 0..4u64 {
            let mut sym = SymbolTable::new();
            let w = generate(&db, &mut sym, cfg(seed));
            // The generated base state is consistent by construction;
            // both deciders must agree.
            assert!(
                idr_chase::is_consistent(&db, &w.state, kd.full(), &g()).unwrap(),
                "{name}/{seed}: oracle rejects the generated state"
            );
            assert!(
                IrMaintainer::state_consistent(&db, &ir, &w.state, &g()).unwrap(),
                "{name}/{seed}: Algorithm 1 rejects a consistent state"
            );
            // Per-block rep tuples = constant components of chased rows.
            let rep_oracle =
                idr_chase::representative_instance(&db, &w.state, kd.full(), &g())
                .unwrap()
                .expect("consistent state has a representative instance");
            let mut oracle_tuples: Vec<Tuple> = rep_oracle
                .tableau
                .rows()
                .iter()
                .map(|r| r.const_tuple())
                .collect();
            oracle_tuples.sort();
            oracle_tuples.dedup();
            let m = IrMaintainer::new(&db, &ir, &w.state, &g()).unwrap();
            let mut fast_tuples: Vec<Tuple> =
                m.reps().iter().flat_map(|r| r.iter().cloned()).collect();
            fast_tuples.sort();
            fast_tuples.dedup();
            if ir.len() == 1 {
                // Key-equivalent scheme: Algorithm 1's merged tuples are
                // exactly the constant components of the chased rows
                // (Corollary 3.1(a)).
                assert_eq!(
                    fast_tuples, oracle_tuples,
                    "{name}/{seed}: representative instances differ"
                );
            } else {
                // Multi-block scheme: the full chase additionally merges
                // *across* blocks (Lemma 4.2 chases the induced state on
                // D further), so each block-rep tuple must appear as a
                // restriction of some chased row — not necessarily as a
                // whole row.
                for t in &fast_tuples {
                    assert!(
                        oracle_tuples
                            .iter()
                            .any(|o| t.attrs().is_subset(o.attrs())
                                && o.project(t.attrs()) == *t),
                        "{name}/{seed}: rep tuple {t:?} missing from the chase"
                    );
                }
            }
        }
    }
}

#[test]
fn algorithm2_matches_chase_on_inserts() {
    for (name, db) in families() {
        let kd = KeyDeps::of(&db);
        let ir = recognize(&db, &kd).accepted().unwrap();
        for seed in 0..4u64 {
            let mut sym = SymbolTable::new();
            let w = generate(&db, &mut sym, cfg(seed));
            let maintainer = IrMaintainer::new(&db, &ir, &w.state, &g()).unwrap();
            for (i, t) in &w.inserts {
                let b = ir.block_of[*i];
                let (outcome, _) =
                    algorithm2(&db, &maintainer.reps()[b], *i, t, &g(), &rp()).unwrap();
                let mut updated = w.state.clone();
                updated.insert(*i, t.clone()).unwrap();
                let oracle = idr_chase::is_consistent(&db, &updated, kd.full(), &g()).unwrap();
                assert_eq!(
                    outcome.is_consistent(),
                    oracle,
                    "{name}/{seed}: Algorithm 2 disagrees with the chase on {t:?} into {i}"
                );
            }
        }
    }
}

#[test]
fn algorithm5_matches_chase_on_split_free_schemes() {
    for (name, db) in families() {
        let kd = KeyDeps::of(&db);
        let ir = recognize(&db, &kd).accepted().unwrap();
        let split_free = ir
            .partition
            .iter()
            .all(|b| idr_core::split::is_split_free(&db, &kd, b));
        if !split_free {
            continue;
        }
        for seed in 0..4u64 {
            let mut sym = SymbolTable::new();
            let w = generate(&db, &mut sym, cfg(seed));
            for (i, t) in &w.inserts {
                let b = ir.block_of[*i];
                let idx = StateIndex::build(&db, &ir.partition[b], &w.state).unwrap();
                let (outcome, _) = algorithm5(&db, &idx, *i, t, &g(), &rp()).unwrap();
                let mut updated = w.state.clone();
                updated.insert(*i, t.clone()).unwrap();
                let oracle = idr_chase::is_consistent(&db, &updated, kd.full(), &g()).unwrap();
                assert_eq!(
                    outcome.is_consistent(),
                    oracle,
                    "{name}/{seed}: Algorithm 5 disagrees with the chase on {t:?} into {i}"
                );
            }
        }
    }
}

#[test]
fn total_projection_expressions_match_chase() {
    for (name, db) in families() {
        let kd = KeyDeps::of(&db);
        let ir = recognize(&db, &kd).accepted().unwrap();
        // Query targets: every scheme, every pair-of-schemes union, and a
        // few cross-block attribute pairs.
        let mut targets: Vec<AttrSet> = db.schemes().iter().map(|s| s.attrs()).collect();
        for i in 0..db.len().min(4) {
            for j in (i + 1)..db.len().min(4) {
                targets.push(db.scheme(i).attrs() | db.scheme(j).attrs());
            }
        }
        let attrs: Vec<_> = db.universe().iter().collect();
        if attrs.len() >= 2 {
            targets.push(AttrSet::from_iter([attrs[0], attrs[attrs.len() - 1]]));
        }
        let mut sym = SymbolTable::new();
        let w = generate(&db, &mut sym, cfg(7));
        for x in targets {
            let fast = ir_total_projection(&db, &kd, &ir, &w.state, x, &g()).unwrap();
            let oracle = idr_chase::total_projection(&db, &w.state, kd.full(), x, &g())
                .unwrap()
                .expect("consistent state");
            assert_eq!(
                fast.sorted_tuples(),
                oracle,
                "{name}: [X] differs for X = {}",
                db.universe().render(x)
            );
        }
    }
}

#[test]
fn recognition_verdicts_are_definitionally_sound() {
    for (name, db) in families() {
        let kd = KeyDeps::of(&db);
        let ir = recognize(&db, &kd).accepted().unwrap();
        assert!(
            is_ir_partition(&db, &kd, &ir.partition),
            "{name}: accepted partition fails the definition"
        );
    }
    // And a rejected scheme: no partition the algorithm could have chosen
    // works — spot-check the KEP partition and the all-singletons
    // partition.
    let db = generators::example2_scheme();
    let kd = KeyDeps::of(&db);
    assert!(recognize(&db, &kd).accepted().is_none());
    let singletons: Vec<Vec<usize>> = (0..db.len()).map(|i| vec![i]).collect();
    assert!(!is_ir_partition(&db, &kd, &singletons));
}

#[test]
fn maintainers_stay_in_sync_over_insert_streams() {
    // Apply a long stream of inserts through IrMaintainer; after each
    // accepted insert the maintained representative instance must equal
    // the from-scratch rebuild.
    for (name, db) in families() {
        let kd = KeyDeps::of(&db);
        let ir = recognize(&db, &kd).accepted().unwrap();
        let mut sym = SymbolTable::new();
        let w = generate(&db, &mut sym, cfg(11));
        let mut maintainer = IrMaintainer::new(&db, &ir, &w.state, &g()).unwrap();
        let mut applied = w.state.clone();
        for (i, t) in &w.inserts {
            let (outcome, _) = maintainer.insert(*i, t.clone(), &g(), &rp()).unwrap();
            if outcome.is_consistent() {
                applied.insert(*i, t.clone()).unwrap();
            }
        }
        let rebuilt = IrMaintainer::new(&db, &ir, &applied, &g()).unwrap();
        let collect = |m: &IrMaintainer| {
            let mut v: Vec<Tuple> = m.reps().iter().flat_map(|r| r.iter().cloned()).collect();
            v.sort();
            v
        };
        assert_eq!(
            collect(&maintainer),
            collect(&rebuilt),
            "{name}: incremental and rebuilt representative instances differ"
        );
    }
}

#[test]
fn ctm_maintainer_agrees_with_ir_maintainer_on_split_free_schemes() {
    use idr_core::maintain::CtmMaintainer;
    for (name, db) in families() {
        let kd = KeyDeps::of(&db);
        let ir = recognize(&db, &kd).accepted().unwrap();
        let split_free = ir
            .partition
            .iter()
            .all(|b| idr_core::split::is_split_free(&db, &kd, b));
        if !split_free {
            continue;
        }
        let mut sym = SymbolTable::new();
        let w = generate(&db, &mut sym, cfg(13));
        let mut a2 = IrMaintainer::new(&db, &ir, &w.state, &g()).unwrap();
        let mut a5 = CtmMaintainer::new(&db, &ir, &w.state, &g()).unwrap();
        for (i, t) in &w.inserts {
            let v2 = a2.insert(*i, t.clone(), &g(), &rp()).unwrap().0.is_consistent();
            let v5 = a5.insert(*i, t.clone(), &g(), &rp()).unwrap().0.is_consistent();
            assert_eq!(v2, v5, "{name}: Algorithms 2 and 5 disagree on {t:?}");
        }
    }
}

#[test]
fn rep_based_projection_matches_expression_and_chase() {
    // The live-system query path (joins over maintained reps) agrees with
    // the compiled Theorem 4.1 expression and the chase — including after
    // a stream of maintained inserts.
    for (name, db) in families() {
        let kd = KeyDeps::of(&db);
        let ir = recognize(&db, &kd).accepted().unwrap();
        let mut sym = SymbolTable::new();
        let w = generate(&db, &mut sym, cfg(17));
        let mut m = idr_core::maintain::IrMaintainer::new(&db, &ir, &w.state, &g()).unwrap();
        let mut applied = w.state.clone();
        for (i, t) in &w.inserts {
            if m.insert(*i, t.clone(), &g(), &rp()).unwrap().0.is_consistent() {
                applied.insert(*i, t.clone()).unwrap();
            }
        }
        let mut targets: Vec<AttrSet> = db.schemes().iter().take(3).map(|s| s.attrs()).collect();
        let attrs: Vec<_> = db.universe().iter().collect();
        targets.push(AttrSet::from_iter([attrs[0], attrs[attrs.len() - 1]]));
        for x in targets {
            let via_rep = m.total_projection(x, &g()).unwrap();
            let via_expr = ir_total_projection(&db, &kd, &ir, &applied, x, &g())
                .unwrap()
                .sorted_tuples();
            let via_chase = idr_chase::total_projection(&db, &applied, kd.full(), x, &g())
                .unwrap()
                .expect("consistent state");
            assert_eq!(via_rep, via_chase, "{name}: rep-based [X] differs from chase");
            assert_eq!(via_expr, via_chase, "{name}: expression [X] differs from chase");
        }
    }
}

#[test]
fn total_projections_are_monotone_under_consistent_inserts() {
    // The weak-instance semantics is monotone: an accepted insert can only
    // add derivable facts, never retract them.
    for (name, db) in families() {
        let kd = KeyDeps::of(&db);
        let ir = recognize(&db, &kd).accepted().unwrap();
        let mut sym = SymbolTable::new();
        let w = generate(&db, &mut sym, cfg(23));
        let mut m = idr_core::maintain::IrMaintainer::new(&db, &ir, &w.state, &g()).unwrap();
        let x = db.universe().all();
        let mut applied = w.state.clone();
        let mut before = idr_chase::total_projection(&db, &applied, kd.full(), x, &g())
        .unwrap()
        .expect("consistent state");
        for (i, t) in w.inserts.iter().take(10) {
            if m.insert(*i, t.clone(), &g(), &rp()).unwrap().0.is_consistent() {
                applied.insert(*i, t.clone()).unwrap();
                let after =
                    idr_chase::total_projection(&db, &applied, kd.full(), x, &g())
                        .unwrap()
                        .expect("consistent state");
                for old in &before {
                    assert!(
                        after.contains(old),
                        "{name}: accepted insert retracted a derived fact"
                    );
                }
                before = after;
            }
        }
    }
}
