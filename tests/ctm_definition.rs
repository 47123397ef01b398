//! The formal ctm definition of §2.7, checked against Algorithm 5's
//! actual behaviour:
//!
//! 1. **Single-tuple**: every selection Algorithm 5 issues returns at most
//!    one tuple (it uses key-equality lookups over locally consistent
//!    relations).
//! 2. **Definedness**: each selection's constants come from the inserted
//!    tuple or from tuples returned by earlier selections
//!    (`CST(Φᵢ) ⊆ CST({t} ∪ σ_{Φ1}(…) ∪ … ∪ σ_{Φi−1}(…))`).
//! 3. **Constancy**: the number of selections depends only on `R` and `F`
//!    — across states of wildly different sizes the trace length for a
//!    given (scheme, insert-shape) stays within a fixed bound.
//! 4. **On the serving path** (Cor 3.3, Thm 3.3): a hub insert is decided
//!    by Algorithm 2's key lookups, so its guard charge is flat in the
//!    state size on a split-free block and bounded by the block's key
//!    count on any key-equivalent block.

use std::collections::HashSet;

use independence_reducible::core::maintain::{algorithm5_traced, StateIndex};
use independence_reducible::core::recognition::recognize;
use independence_reducible::core::split::is_split_free;
use independence_reducible::prelude::*;
use independence_reducible::workload::generators;
use independence_reducible::workload::scale::bulk_inserts;
use independence_reducible::workload::states::{generate, WorkloadConfig};

fn split_free_families() -> Vec<DatabaseScheme> {
    vec![
        generators::chain_scheme(6),
        generators::cycle_scheme(5),
        generators::star_scheme(4),
        generators::block_chain_scheme(2, 4),
    ]
}

#[test]
fn selection_sequences_are_defined_on_the_instance() {
    for db in split_free_families() {
        let kd = KeyDeps::of(&db);
        let ir = recognize(&db, &kd).accepted().unwrap();
        let mut sym = SymbolTable::new();
        let w = generate(
            &db,
            &mut sym,
            WorkloadConfig {
                entities: 40,
                fragment_pct: 60,
                inserts: 25,
                corrupt_pct: 40,
                seed: 99,
            },
        );
        for (i, t) in &w.inserts {
            let b = ir.block_of[*i];
            let idx = StateIndex::build(&db, &ir.partition[b], &w.state).unwrap();
            let (_, _, trace) = algorithm5_traced(&db, &idx, *i, t);
            // Known constants start as CST(t) and grow with each result.
            let mut known: HashSet<Value> = t.constants().into_iter().collect();
            for (step_no, step) in trace.iter().enumerate() {
                for v in &step.values {
                    assert!(
                        known.contains(v),
                        "step {step_no} of the trace uses a constant not yet retrieved"
                    );
                }
                if let Some(p) = &step.result {
                    known.extend(p.constants());
                }
            }
        }
    }
}

#[test]
fn trace_length_is_independent_of_state_size() {
    for db in split_free_families() {
        let kd = KeyDeps::of(&db);
        let ir = recognize(&db, &kd).accepted().unwrap();
        // For each scheme, insert a fresh-entity tuple into states of
        // growing size and record the trace length.
        let mut lengths_per_scheme: Vec<HashSet<usize>> = vec![HashSet::new(); db.len()];
        for entities in [10usize, 100, 1000] {
            let mut sym = SymbolTable::new();
            let w = generate(
                &db,
                &mut sym,
                WorkloadConfig {
                    entities,
                    fragment_pct: 60,
                    inserts: 0,
                    corrupt_pct: 0,
                    seed: 5,
                },
            );
            for (i, lens) in lengths_per_scheme.iter_mut().enumerate() {
                let t = independence_reducible::workload::states::entity_tuple(
                    &db,
                    &mut sym,
                    entities + 1,
                )
                .project(db.scheme(i).attrs());
                let b = ir.block_of[i];
                let idx = StateIndex::build(&db, &ir.partition[b], &w.state).unwrap();
                let (_, stats, trace) = algorithm5_traced(&db, &idx, i, &t);
                assert_eq!(stats.lookups, trace.len());
                lens.insert(trace.len());
            }
        }
        // A fresh-entity insert sees the same misses regardless of how big
        // the state is: the trace length is a function of (R, F, scheme).
        for (i, lens) in lengths_per_scheme.iter().enumerate() {
            assert_eq!(
                lens.len(),
                1,
                "scheme {i}: trace length varied with state size: {lens:?}"
            );
        }
    }
}

#[test]
fn selections_are_single_tuple() {
    // StateIndex lookups return at most one tuple by construction; this
    // asserts the *observable* contract on a workload with heavy key
    // sharing.
    let db = generators::cycle_scheme(4);
    let kd = KeyDeps::of(&db);
    let ir = recognize(&db, &kd).accepted().unwrap();
    let mut sym = SymbolTable::new();
    let w = generate(
        &db,
        &mut sym,
        WorkloadConfig {
            entities: 60,
            fragment_pct: 90,
            inserts: 15,
            corrupt_pct: 0,
            seed: 123,
        },
    );
    for (i, t) in &w.inserts {
        let b = ir.block_of[*i];
        let idx = StateIndex::build(&db, &ir.partition[b], &w.state).unwrap();
        let (_, _, trace) = algorithm5_traced(&db, &idx, *i, t);
        for step in trace {
            if let Some(p) = step.result {
                // The returned tuple really matches the formula.
                for (a, v) in step.key.iter().zip(step.values.iter()) {
                    assert_eq!(p.value(a), *v);
                }
            }
        }
    }
}

/// A hub write handle over the first `n` tuples of the bulk stream
/// over `db` (entity `id`'s fragments carry the values `<attr>#<id>`),
/// handed to `check` with the stream's symbol table.
fn loaded(
    db: &DatabaseScheme,
    n: usize,
    mut check: impl FnMut(&WriteHandle<'_>, &mut SymbolTable),
) {
    let mut sym = SymbolTable::new();
    let mut state = DatabaseState::empty(db);
    for (i, t) in bulk_inserts(db, &mut sym, n) {
        state.insert(i, t).unwrap();
    }
    let engine = Engine::new(db.clone());
    let hub = engine.hub(&state, &Guard::unlimited()).unwrap();
    check(&hub.write_handle(), &mut sym);
}

/// Lookups charged to a fresh guard by inserting entity `id`'s
/// fragment on relation `i`.
fn insert_lookups(w: &WriteHandle<'_>, sym: &mut SymbolTable, i: usize, id: &str) -> u64 {
    let db = w.engine().scheme();
    let u = db.universe();
    let attrs = db.scheme(i).attrs();
    let t = Tuple::from_pairs(
        attrs
            .iter()
            .map(|a| (a, sym.intern(&format!("{}#{id}", u.name(a))))),
    );
    let g = Guard::unlimited();
    w.insert(i, t, &g).unwrap();
    g.snapshot().lookups
}

#[test]
fn hub_insert_lookups_are_independent_of_state_size() {
    // star(8) is split-free: a fresh fragment costs the same lookups
    // whether 10², 10³ or 10⁴ tuples are loaded.
    let db = generators::star_scheme(8);
    let kd = KeyDeps::of(&db);
    assert!(is_split_free(&db, &kd, &(0..db.len()).collect::<Vec<_>>()));
    let mut charged = Vec::new();
    for n in [100, 1_000, 10_000] {
        loaded(&db, n, |w, sym| charged.push(insert_lookups(w, sym, 0, "fresh")));
    }
    assert!(charged[0] > 0, "hub inserts charge Algorithm 2's lookups");
    assert!(charged.iter().all(|&c| c == charged[0]), "{charged:?}");

    // split(2) is key-equivalent but not split-free: every insert, of a
    // loaded entity's fragment or a fresh one, stays within the block's
    // key count at every size.
    let db = generators::split_scheme(2);
    let kd = KeyDeps::of(&db);
    let ir = recognize(&db, &kd).accepted().unwrap();
    assert!(ir.len() == 1 && !is_split_free(&db, &kd, &ir.partition[0]));
    let mut keys = ir.block_keys[0].clone();
    keys.sort();
    keys.dedup();
    for n in [100, 1_000, 10_000] {
        loaded(&db, n, |w, sym| {
            for (i, id) in (0..db.len()).flat_map(|i| [(i, "0"), (i, "fresh")]) {
                let c = insert_lookups(w, sym, i, id);
                assert!(0 < c && c <= keys.len() as u64, "n={n} R{i} {id}: {c} lookups");
            }
        });
    }
}
