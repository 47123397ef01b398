//! Batch-vs-serial differential fuzzing for the batch write pipeline.
//!
//! The eighth oracle arm (`idr fuzz --batch`). The batch path's whole
//! contract is *observational equivalence*: applying a framed op group
//! through [`WriteHandle::apply_batch`](idr_core::WriteHandle) must be
//! indistinguishable from applying its ops one by one — same per-op
//! verdicts, same final state, same consistency verdict, same query
//! answers. A single op is a one-op batch, and a framed group runs each
//! slot's ops serially through the same slot steps, so that is true by
//! construction; this arm checks
//! it differentially, and — because both hub sides run Algorithm 2 —
//! also diffs every verdict against an independent reference chase:
//!
//! * the same generated op stream as the crash arm (accepted and
//!   rejected inserts, deletes of present and absent tuples) is cut
//!   into random frames — single ops, small mixed groups, and one big
//!   pure-insert prefix now and then — and applied through
//!   `apply_batch` over a **real durable store**;
//! * a second, purely in-memory hub applies the identical stream per
//!   op; verdicts are compared position by position, then state lines,
//!   verdict, and a probe projection;
//! * a third side, the reference chase, checks each per-op insert
//!   verdict against [`idr_chase::is_consistent`] of `mirror ∪ {t}`
//!   (the mirror follows the accepted ops) and the final state's
//!   verdict against a chase of the final mirror;
//! * finally the batch run's data dir is recovered and its replayed
//!   state is diffed again — a logged batch must replay to exactly the
//!   state it applied (the write pipeline logs *after* verdicts, under
//!   the block locks, and rolls a failed group back before anything is
//!   logged, so log == memory is the invariant under test).
//!
//! Ops run under unlimited guards: a typed error from either side is
//! itself a failure, not a skip.

use std::sync::Arc;

use idr_core::serving::BatchOp;
use idr_core::Engine;
use idr_fd::KeyDeps;
use idr_relation::exec::Guard;
use idr_relation::rng::SplitMix64;
use idr_relation::{DatabaseState, SymbolTable};
use idr_store::tempdir::TempDir;
use idr_store::{recover, SharedStore, Store};

use crate::crash::{answer_lines, gen_ops, gen_scheme, state_lines, CrashOp};
use crate::interp::naive_consistent;

/// One case where the batch application diverged from per-op serial
/// application (or from its own recovery).
#[derive(Clone, Debug)]
pub struct BatchFailure {
    /// The per-case seed (reproduces the whole case).
    pub seed: u64,
    /// What disagreed (`verdict`, `chase`, `state`, `consistency`,
    /// `answer`, `recovery`, `batch_error`, `setup`).
    pub kind: String,
    /// Human-readable detail.
    pub detail: String,
}

impl std::fmt::Display for BatchFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "seed {} [{}]: {}", self.seed, self.kind, self.detail)
    }
}

/// Outcome of a batch-fuzzing run.
#[derive(Clone, Debug, Default)]
pub struct BatchFuzzSummary {
    /// Cases (op streams × framings) executed.
    pub cases: usize,
    /// Total ops applied through the batch side.
    pub ops_run: usize,
    /// Total framed groups committed.
    pub groups: usize,
    /// Disagreements, in discovery order.
    pub failures: Vec<BatchFailure>,
}

impl BatchFuzzSummary {
    /// Whether every batch application matched serial application.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Cuts `n` ops into frame sizes. Mostly small mixed frames (1–4 ops);
/// one case in four opens with a single large frame, so the undo list
/// and the multi-slot lock set see group sizes the small frames never
/// produce.
fn gen_frames(n: usize, rng: &mut SplitMix64) -> Vec<usize> {
    let mut frames = Vec::new();
    let mut left = n;
    if rng.gen_pct(25) && n > 4 {
        let big = rng.gen_range_inclusive(4, n);
        frames.push(big);
        left -= big;
    }
    while left > 0 {
        let sz = rng.gen_range_inclusive(1, left.min(4));
        frames.push(sz);
        left -= sz;
    }
    frames
}

fn run_case(seed: u64, summary: &mut BatchFuzzSummary) {
    let mut rng = SplitMix64::new(seed);
    let db = gen_scheme(&mut rng);
    let mut case_symbols = SymbolTable::new();
    let ops = gen_ops(&db, &mut case_symbols, &mut rng);
    let probe = db.scheme(rng.gen_range(0, db.len())).attrs();
    let frames = gen_frames(ops.len(), &mut rng);
    let mut fail = |kind: &str, detail: String| {
        summary.failures.push(BatchFailure {
            seed,
            kind: kind.to_string(),
            detail,
        });
    };
    let guard = Guard::unlimited();

    // --- Batch side: framed groups over a real durable store -------------
    let live_dir = TempDir::new("batch-live");
    let store = match Store::init(live_dir.path(), &db) {
        Ok(s) => s.with_sync(false),
        Err(e) => return fail("setup", format!("init: {e}")),
    };
    let store = Arc::new(SharedStore::new(store));
    {
        let shared = store.symbols();
        shared
            .lock()
            .expect("fresh store symbol lock")
            .clone_from(&case_symbols);
    }
    let engine = Engine::new(db.clone());
    let mut batch_verdicts: Vec<bool> = Vec::with_capacity(ops.len());
    let batch_final;
    let batch_consistent;
    let batch_answer;
    {
        let base = DatabaseState::empty(&db);
        let hub = match engine.hub_with(&base, &guard, store.clone()) {
            Ok(h) => h,
            Err(e) => return fail("setup", format!("batch hub: {e}")),
        };
        let writer = hub.write_handle();
        let mut next = 0usize;
        for &sz in &frames {
            let group: Vec<BatchOp> = ops[next..next + sz]
                .iter()
                .map(|(is_insert, rel, t): &CrashOp| {
                    if *is_insert {
                        BatchOp::Insert {
                            rel: *rel,
                            t: t.clone(),
                        }
                    } else {
                        BatchOp::Delete {
                            rel: *rel,
                            t: t.clone(),
                        }
                    }
                })
                .collect();
            next += sz;
            match writer.apply_batch(&group, &guard) {
                Ok(vs) => batch_verdicts.extend(vs),
                Err(e) => return fail("batch_error", format!("group of {sz}: {e}")),
            }
            summary.groups += 1;
            summary.ops_run += sz;
        }
        let view = hub.read_view();
        batch_final = state_lines(&db, view.state(), &case_symbols);
        batch_consistent = view.is_consistent();
        batch_answer = match view.total_projection(probe, &guard) {
            Ok(a) => a.map(|ts| answer_lines(&db, &ts, &case_symbols)),
            Err(e) => return fail("batch_error", format!("batch probe: {e}")),
        };
    }
    drop(store);

    // --- Serial side: the same stream, one op at a time, in memory, each
    // insert verdict diffed against the reference chase of mirror ∪ {t} --
    let serial_engine = Engine::new(db.clone());
    let hub = match serial_engine.hub(&DatabaseState::empty(&db), &guard) {
        Ok(h) => h,
        Err(e) => return fail("setup", format!("serial hub: {e}")),
    };
    let writer = hub.write_handle();
    let kd = KeyDeps::of(&db);
    let mut mirror = DatabaseState::empty(&db);
    let mut serial_verdicts: Vec<bool> = Vec::with_capacity(ops.len());
    for (k, (is_insert, rel, t)) in ops.iter().enumerate() {
        let r = if *is_insert {
            writer.insert(*rel, t.clone(), &guard)
        } else {
            writer.delete(*rel, t, &guard)
        };
        let v = match r {
            Ok(v) => v,
            Err(e) => return fail("setup", format!("serial op {k}: {e}")),
        };
        if *is_insert {
            let mut cand = mirror.clone();
            cand.insert(*rel, t.clone())
                .expect("generated tuples match their relation");
            let expected = naive_consistent(&db, &kd, &cand);
            if v != expected {
                return fail(
                    "chase",
                    format!("op {k}: hub verdict {v}, reference chase says consistent={expected}"),
                );
            }
            if v {
                mirror = cand;
            }
        } else if v {
            mirror
                .remove(*rel, t)
                .expect("generated tuples match their relation");
        }
        serial_verdicts.push(v);
    }
    let view = hub.read_view();
    if naive_consistent(&db, &kd, &mirror) != batch_consistent {
        return fail(
            "chase",
            format!(
                "batch consistent={batch_consistent}, reference chase of the final state disagrees"
            ),
        );
    }

    // --- Differential checks ----------------------------------------------
    if batch_verdicts != serial_verdicts {
        return fail(
            "verdict",
            format!("batch {batch_verdicts:?} != serial {serial_verdicts:?} (frames {frames:?})"),
        );
    }
    let serial_final = state_lines(&db, view.state(), &case_symbols);
    if batch_final != serial_final {
        return fail(
            "state",
            format!(
                "batch [{}] != serial [{}] (frames {frames:?})",
                batch_final.join("; "),
                serial_final.join("; ")
            ),
        );
    }
    if batch_consistent != view.is_consistent() {
        return fail(
            "consistency",
            format!(
                "batch consistent={batch_consistent} serial={}",
                view.is_consistent()
            ),
        );
    }
    let serial_answer = match view.total_projection(probe, &guard) {
        Ok(a) => a.map(|ts| answer_lines(&db, &ts, &case_symbols)),
        Err(e) => return fail("setup", format!("serial probe: {e}")),
    };
    if batch_answer != serial_answer {
        return fail(
            "answer",
            format!("batch {batch_answer:?} != serial {serial_answer:?}"),
        );
    }

    // --- Recovery: the logged batches must replay to the applied state ---
    let recovered = match recover::recover(live_dir.path()) {
        Ok(r) => r,
        Err(e) => return fail("recovery", format!("recover: {e}")),
    };
    let rec_symbols = recovered.store.symbols();
    let rec_symbols = rec_symbols.lock().expect("recovered symbol lock");
    let rec_lines = state_lines(&db, &recovered.state, &rec_symbols);
    if rec_lines != batch_final {
        return fail(
            "recovery",
            format!(
                "recovered [{}] != applied [{}] (frames {frames:?})",
                rec_lines.join("; "),
                batch_final.join("; ")
            ),
        );
    }
    if recovered.consistent != batch_consistent {
        fail(
            "recovery",
            format!(
                "recovered consistent={} applied={batch_consistent}",
                recovered.consistent
            ),
        );
    }
}

/// Runs `cases` batch-equivalence cases from master seed `seed`;
/// per-case seeds are drawn from the master stream (same convention as
/// [`crate::fuzz`]). `progress` is called after each case with
/// `(index, failures so far)`.
pub fn batch_fuzz(
    seed: u64,
    cases: usize,
    mut progress: Option<&mut dyn FnMut(usize, usize)>,
) -> BatchFuzzSummary {
    let mut master = SplitMix64::new(seed);
    let mut summary = BatchFuzzSummary::default();
    for k in 0..cases {
        let case_seed = master.next_u64();
        summary.cases += 1;
        run_case(case_seed, &mut summary);
        if let Some(p) = progress.as_mut() {
            p(k + 1, summary.failures.len());
        }
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_fuzz_smoke_is_clean() {
        let summary = batch_fuzz(0xBA7C4, 25, None);
        assert_eq!(summary.cases, 25);
        assert!(summary.groups > 0 && summary.ops_run > 0);
        assert!(
            summary.is_clean(),
            "batch != serial: {:?}",
            summary.failures
        );
    }

    #[test]
    fn frames_partition_exactly() {
        let mut rng = SplitMix64::new(7);
        for n in 1..40 {
            let frames = gen_frames(n, &mut rng);
            assert_eq!(frames.iter().sum::<usize>(), n);
            assert!(frames.iter().all(|&f| f > 0));
        }
    }
}
