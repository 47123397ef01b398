//! An end-to-end load simulation on the university scheme of Example 1:
//! build a term's worth of data, drive thousands of maintained inserts
//! (mixed valid/invalid), and answer queries from the maintained
//! representative instances — the workflow a registrar system built on
//! this library would run.
//!
//! Run with: `cargo run --release --example registrar_load`

use std::time::Instant;

use independence_reducible::prelude::*;
use independence_reducible::workload::states::{generate, WorkloadConfig};

fn main() {
    let db = SchemeBuilder::new("CTHRSG")
        .scheme("R1", "HRC", ["HR"])
        .scheme("R2", "HTR", ["HT", "HR"])
        .scheme("R3", "HTC", ["HT"])
        .scheme("R4", "CSG", ["CS"])
        .scheme("R5", "HSR", ["HS"])
        .build()
        .expect("scheme");
    let kd = KeyDeps::of(&db);
    let ir = recognize(&db, &kd).accepted().expect("accepted");
    let g = Guard::unlimited();
    let rp = RetryPolicy::none();
    println!(
        "scheme: {} relations, {} blocks, ctm = {}",
        db.len(),
        ir.len(),
        classify(&db).ctm == Some(true)
    );

    // Base load: 20k entities scattered across the five relations, plus a
    // stream of 5k mixed inserts.
    let mut sym = SymbolTable::new();
    let t0 = Instant::now();
    let w = generate(
        &db,
        &mut sym,
        WorkloadConfig {
            entities: 20_000,
            fragment_pct: 55,
            inserts: 5_000,
            corrupt_pct: 35,
            seed: 0xACAD,
        },
    );
    println!(
        "generated {} base tuples + {} inserts in {:?}",
        w.state.total_tuples(),
        w.inserts.len(),
        t0.elapsed()
    );

    // Build the maintainer (Algorithm 1 per block = initial consistency
    // check + representative instances).
    let t0 = Instant::now();
    let mut m =
        IrMaintainer::new(&db, &ir, &w.state, &g).expect("base state consistent");
    println!(
        "representative instances built in {:?} ({} merged tuples)",
        t0.elapsed(),
        m.reps().iter().map(|r| r.len()).sum::<usize>()
    );

    // Drive the insert stream through Algorithm 2.
    let t0 = Instant::now();
    let mut accepted = 0usize;
    let mut rejected = 0usize;
    let mut lookups = 0usize;
    for (i, t) in &w.inserts {
        let (outcome, stats) = m.insert(*i, t.clone(), &g, &rp).unwrap();
        lookups += stats.lookups;
        if outcome.is_consistent() {
            accepted += 1;
        } else {
            rejected += 1;
        }
    }
    let dt = t0.elapsed();
    println!(
        "maintained {} inserts in {:?} ({:.1} µs/insert, {:.2} lookups/insert): {} accepted, {} rejected",
        w.inserts.len(),
        dt,
        dt.as_micros() as f64 / w.inserts.len() as f64,
        lookups as f64 / w.inserts.len() as f64,
        accepted,
        rejected
    );

    // Query phase: total projections straight off the maintained reps.
    let u = db.universe();
    let t0 = Instant::now();
    let queries = ["TC", "HSC", "CSG", "TR"];
    for q in queries {
        let x = u.set_of(q);
        let rows = m.total_projection(x, &g).unwrap();
        println!("  [{q}] → {} rows", rows.len());
    }
    println!("4 total projections answered in {:?}", t0.elapsed());

    // Spot-check one query against the chase (on a small substate — the
    // full chase at this scale is exactly what boundedness avoids).
    let mut small_sym = SymbolTable::new();
    let small = generate(
        &db,
        &mut small_sym,
        WorkloadConfig {
            entities: 50,
            fragment_pct: 55,
            inserts: 0,
            corrupt_pct: 0,
            seed: 0xACAD,
        },
    );
    let m_small = IrMaintainer::new(&db, &ir, &small.state, &g).unwrap();
    let x = u.set_of("TC");
    let fast = m_small.total_projection(x, &g).unwrap();
    let oracle = total_projection(&db, &small.state, kd.full(), x, &g)
        .unwrap()
        .expect("consistent");
    assert_eq!(fast, oracle, "rep-based answer must match the chase");
    println!("chase spot-check on a 50-entity substate: OK");
}
