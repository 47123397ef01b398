//! `idr-oracle` — seed-deterministic differential fuzzing for the
//! independence-reducible engine.
//!
//! The paper proves that on independence-reducible schemes three very
//! different evaluation strategies must agree: Theorem 4.1's chase-free
//! projection expressions, Theorem 4.2's block-parallel evaluation, and
//! the naive from-scratch chase they both shortcut. That redundancy is a
//! free test oracle, and this crate weaponises it:
//!
//! * [`gen::gen_case`] derives a complete `(scheme, state, ops)` case
//!   from a single `u64` seed through the vendored SplitMix64 — no
//!   external randomness, no flaky reruns;
//! * [`interp::run_case`] replays the ops against four oracles in
//!   lockstep (parallel session, serial session, naive chase, Theorem
//!   4.1 expressions) and checks verdict/answer/trace agreement plus
//!   post-`Err` atomicity invariants after budget trips and injected
//!   faults;
//! * [`shrink::shrink`] greedily minimises a failing case while
//!   preserving its divergence kind;
//! * [`ops::Case`] renders to/parses from a line-oriented fixture format
//!   so every failure is a replayable file under `tests/corpus/`.
//!
//! The top-level [`fuzz`] driver ties these together for the `idr fuzz`
//! CLI subcommand and the CI smoke run.
//!
//! A fifth oracle arrived with the durability layer:
//! [`crash::crash_fuzz`] runs durable op streams against a real data
//! dir, kills the write-ahead log at every byte boundary, recovers, and
//! checks the recovered session against the in-memory session that
//! never crashed (`idr fuzz --crash`).
//!
//! A sixth arm covers replication: [`sync_fuzz::sync_fuzz`] partitions
//! random op streams across simulated replicas under random fault
//! plans (drop, delay, duplication, partition, crash mid-sync) and
//! asserts that after quiescence every replica's rendered state,
//! verdict, and query answers match a never-partitioned baseline
//! (`idr fuzz --sync`), shrinking failures to replayable scenario
//! files.
//!
//! The seventh arm targets the concurrent serving layer:
//! [`concurrent::concurrent_fuzz`] races client threads over one hub,
//! records the committed op order through the durability sink, and
//! asserts that a serial replay of that order reproduces the
//! concurrent final state byte for byte — Theorem 4.2's commutation
//! claim under real threads (`idr fuzz --concurrent`). Its crash-side
//! twin, [`crash::concurrent_crash_fuzz`], cuts a group-commit WAL at
//! every byte, mid-batch included (`idr fuzz --crash --concurrent`).
//!
//! The eighth arm pins the batch write pipeline:
//! [`batch::batch_fuzz`] cuts generated op streams into framed groups,
//! applies them through `WriteHandle::apply_batch` over a real durable
//! store, and diffs per-op verdicts, state, verdict and probe answers
//! against per-op serial application and every insert verdict against
//! the reference chase — then recovers the data dir and diffs again
//! (`idr fuzz --batch`).

#![warn(missing_docs)]
pub mod batch;
pub mod concurrent;
pub mod crash;
pub mod gen;
pub mod interp;
pub mod ops;
pub mod shrink;
pub mod sync_fuzz;

use std::panic::{catch_unwind, AssertUnwindSafe};

pub use batch::{batch_fuzz, BatchFailure, BatchFuzzSummary};
pub use concurrent::{
    concurrent_fuzz, concurrent_fuzz_with, ConcurrentFailure, ConcurrentFuzzSummary,
};
pub use crash::{concurrent_crash_fuzz, crash_fuzz, CrashFailure, CrashFuzzSummary};
pub use interp::{CaseReport, Divergence};
pub use ops::Case;
pub use sync_fuzz::{sync_fuzz, SyncFailure, SyncFuzzSummary};

/// [`interp::run_case`] with a panic shield: an oracle (or the engine
/// under test) panicking is itself a reportable divergence, not a fuzzer
/// crash. Used by both the driver and the shrinker.
pub fn run_case_guarded(case: &Case) -> Result<CaseReport, Divergence> {
    match catch_unwind(AssertUnwindSafe(|| interp::run_case(case))) {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Err(Divergence {
                step: None,
                op: None,
                kind: "panic".to_string(),
                detail: format!("case panicked: {msg}"),
            })
        }
    }
}

/// One failing case: the divergence, the case that produced it, and (if
/// shrinking was requested) its minimised form.
#[derive(Clone, Debug)]
pub struct Failure {
    /// Seed of the generated case.
    pub seed: u64,
    /// What disagreed.
    pub divergence: Divergence,
    /// The original generated case.
    pub case: Case,
    /// The shrunken case and its (same-kind) divergence, when requested.
    pub shrunk: Option<(Case, Divergence)>,
}

/// Outcome of a fuzzing run.
#[derive(Clone, Debug, Default)]
pub struct FuzzSummary {
    /// Cases generated and executed.
    pub cases: usize,
    /// Total ops executed across clean cases.
    pub ops_run: usize,
    /// Cases whose final state was consistent.
    pub consistent: usize,
    /// Divergent cases, in discovery order.
    pub failures: Vec<Failure>,
}

impl FuzzSummary {
    /// Whether every case agreed across all four oracles.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Runs `cases` generated cases starting from master seed `seed`; each
/// case's own seed is drawn from the master SplitMix64 stream, so a
/// failure is reproducible from its per-case seed alone. With `shrink`,
/// failing cases are greedily minimised. `progress` (if given) is called
/// after every case with `(index, failures so far)`.
pub fn fuzz(
    seed: u64,
    cases: usize,
    shrink_failures: bool,
    mut progress: Option<&mut dyn FnMut(usize, usize)>,
) -> FuzzSummary {
    let mut master = idr_relation::rng::SplitMix64::new(seed);
    let mut summary = FuzzSummary::default();
    for k in 0..cases {
        let case_seed = master.next_u64();
        let case = gen::gen_case(case_seed);
        summary.cases += 1;
        match run_case_guarded(&case) {
            Ok(report) => {
                summary.ops_run += report.ops_run;
                summary.consistent += usize::from(report.final_consistent);
            }
            Err(divergence) => {
                let shrunk = shrink_failures
                    .then(|| shrink::shrink(&case, &divergence));
                summary.failures.push(Failure {
                    seed: case_seed,
                    divergence,
                    case,
                    shrunk,
                });
            }
        }
        if let Some(p) = progress.as_deref_mut() {
            p(k + 1, summary.failures.len());
        }
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A bounded end-to-end run over the real engine must be divergence
    /// free — this is the in-process version of the CI smoke run.
    #[test]
    fn bounded_fuzz_run_is_clean() {
        let summary = fuzz(42, 60, false, None);
        assert_eq!(summary.cases, 60);
        assert!(
            summary.is_clean(),
            "divergences: {}",
            summary
                .failures
                .iter()
                .map(|f| format!("seed {}: {}", f.seed, f.divergence))
                .collect::<Vec<_>>()
                .join("; ")
        );
        assert!(summary.ops_run > 0);
    }

    /// Same master seed, same run — byte-for-byte. (The shrinker's
    /// behaviour on real failures is pinned by the corpus fixtures in
    /// tests/corpus_replay.rs, which were produced by it.)
    #[test]
    fn fuzz_is_deterministic() {
        let a = fuzz(7, 25, false, None);
        let b = fuzz(7, 25, false, None);
        assert_eq!(a.cases, b.cases);
        assert_eq!(a.ops_run, b.ops_run);
        assert_eq!(a.consistent, b.consistent);
        assert_eq!(a.failures.len(), b.failures.len());
    }
}
