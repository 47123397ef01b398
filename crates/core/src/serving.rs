//! The concurrent serving layer: one [`Hub`] per bound state, many
//! [`WriteHandle`]s and [`ReadView`]s over it.
//!
//! Theorem 4.2 is a concurrency structure in disguise: on an
//! independence-reducible scheme the blocks of the IR partition are
//! maintained *independently*, so per-block consistency is global
//! consistency — and therefore ops on different blocks commute. The hub
//! turns that into a serving discipline:
//!
//! * **each block slot** holds the block's representative instance
//!   ([`KeRep`], built by Algorithm 1) beside the block's substate. An
//!   insert is decided by Algorithm 2 — a handful of key lookups into
//!   the rep, charged against the guard — and a delete rebuilds the
//!   block's rep from its substate. A non-IR scheme gets one whole-state
//!   slot holding an [`IncrementalChase`] tableau instead;
//! * **writes** go through [`WriteHandle`]: each block has its own write
//!   lock, a writer holds it across *maintain → log → apply*, so the WAL
//!   order of any one block equals its apply order while writers on
//!   different blocks proceed in parallel. A single insert or delete is
//!   a one-op batch: every write runs the one pipeline of
//!   [`WriteHandle::apply_batch`], decided before it is logged and
//!   rolled back through one undo list;
//! * **reads** go through [`ReadView`]: an epoch-stamped immutable
//!   snapshot, published lazily from a consistent cut of every block.
//!   Readers never block writers and never see a half-applied op;
//! * **durability** is an owned, shared [`DurabilitySink`] — under
//!   concurrency the sink can coalesce the WAL appends of overlapping
//!   writers into one fsync (group commit, `idr_store::SharedStore`).
//!
//! Because per-block log order equals per-block apply order and
//! cross-block ops commute, **a serial replay of the log reproduces the
//! concurrent final state** — the invariant the concurrency stress suite
//! and the `idr fuzz --concurrent` oracle arm check end to end.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use idr_core::Engine;
//! use idr_relation::exec::Guard;
//! use idr_relation::{parse, DatabaseState, SymbolTable};
//!
//! let db = parse::parse_scheme(
//!     "universe: A B C D\n\
//!      scheme R1: A B keys A\n\
//!      scheme R2: C D keys C\n",
//! )
//! .unwrap();
//! let engine = Engine::new(db);
//! let guard = Guard::unlimited();
//! let symbols = Arc::new(std::sync::Mutex::new(SymbolTable::new()));
//!
//! let state = DatabaseState::empty(engine.scheme());
//! let hub = engine.hub(&state, &guard).unwrap();
//! let writer = hub.write_handle();
//!
//! // Two writer threads, one per block — concurrent, serialized per block.
//! std::thread::scope(|s| {
//!     for rel in 0..2 {
//!         let w = writer.clone();
//!         let symbols = Arc::clone(&symbols);
//!         let engine = &engine;
//!         let guard = &guard;
//!         s.spawn(move || {
//!             let line = ["R1: A=a B=b", "R2: C=c D=d"][rel];
//!             let (i, t) = {
//!                 let mut sym = symbols.lock().unwrap();
//!                 parse::parse_tuple_line(line, engine.scheme(), &mut sym).unwrap()
//!             };
//!             assert!(w.insert(i, t, guard).unwrap());
//!         });
//!     }
//! });
//!
//! // A read view is an immutable epoch: consistent, stamped, shareable.
//! let view = hub.read_view();
//! assert!(view.is_consistent());
//! assert_eq!(view.state().total_tuples(), 2);
//! let x = engine.scheme().universe().set_of("AB");
//! assert_eq!(view.total_projection(x, &guard).unwrap().unwrap().len(), 1);
//! ```

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use idr_chase::{IncrementalChase, RejectionExplanation, TupleExplanation};
use idr_obs::timeline::{self, OpTimeline, Phase};
use idr_obs::{Counter, Gauge, Histogram, MetricsRegistry, TraceEvent, TraceHandle};
use idr_relation::exec::{ExecError, Guard, RetryPolicy};
use idr_relation::{AttrSet, DatabaseState, Tuple};

use crate::durability::DurabilitySink;
use crate::engine::{evaluate_blocks, Engine};
use crate::maintain::{block_rep, rep_insert};
use crate::rep::KeRep;

/// An immutable, epoch-stamped cut of the hub's state. Cheap to share
/// (`Arc`ed by [`ReadView`]); queries over it are wait-free with respect
/// to writers.
#[derive(Debug)]
pub struct Snapshot {
    epoch: u64,
    state: DatabaseState,
    consistent: bool,
}

/// One block's serialized write lane: the structure that decides its
/// writes plus the slice of the base state the block owns (full-width
/// [`DatabaseState`], only this block's relations populated — blocks
/// partition the relations, so the union over slots is the whole state).
#[derive(Debug)]
struct Slot {
    maint: Maint,
    state: DatabaseState,
}

/// How a slot decides its writes.
#[derive(Debug)]
enum Maint {
    /// An IR block's representative instance, maintained by Algorithm 2.
    Rep(KeRep),
    /// An IR block whose substate is inconsistent (Algorithm 1 failed,
    /// with this detail): inserts are refused until a delete restores
    /// consistency.
    Poisoned(String),
    /// The non-IR whole-state slot: the incremental chase tableau
    /// (boxed: it dwarfs a rep, and a hub has at most one).
    Chase(Box<IncrementalChase>),
}

impl Maint {
    /// The inconsistency that poisoned the slot, if any.
    fn failure(&self) -> Option<ExecError> {
        match self {
            Maint::Rep(_) => None,
            Maint::Poisoned(detail) => Some(ExecError::Inconsistent {
                detail: detail.clone(),
            }),
            Maint::Chase(chase) => chase.failure().map(|f| f.clone().into()),
        }
    }
}

/// The most recent rejected insert: its slot, relation and tuple. Its
/// explanation is chased on demand ([`Hub::explain_rejection`]).
type Rejected = (usize, usize, Tuple);

/// State shared by every handle of one hub.
#[derive(Debug)]
struct HubShared {
    slots: Vec<Mutex<Slot>>,
    /// `true` when the scheme is not IR (single whole-state slot).
    whole: bool,
    /// The most recently published snapshot. Lock order: `publish`
    /// before any slot; writers take a single slot and never `publish`.
    publish: Mutex<Arc<Snapshot>>,
    epoch: AtomicU64,
    /// Set by writers after mutating a slot; cleared (before the slot
    /// scan) by the publisher. A spurious republish is harmless, a lost
    /// update is not — see [`HubShared::publish_snapshot`].
    stale: AtomicBool,
    /// Owned durability sink for the concurrent write pipeline.
    sink: Option<Arc<dyn DurabilitySink>>,
    /// The most recent rejected insert across all writers.
    last_rejection: Mutex<Option<Rejected>>,
    /// Pre-resolved metric handles (None when metrics are off). The
    /// write pipeline must never pay a registry name lookup — the
    /// registry's maps are the locks a periodic snapshot takes.
    metrics: Option<HubMetrics>,
}

/// Every metric the per-op serving path touches, resolved once at hub
/// build. Incrementing is then pure relaxed atomics, so writer lanes
/// never contend with `MetricsRegistry::snapshot` (the `--stats-every`
/// path) on the registry's map locks.
#[derive(Debug)]
struct HubMetrics {
    inserts_accepted: Arc<Counter>,
    inserts_rejected: Arc<Counter>,
    deletes: Arc<Counter>,
    insert_us: Arc<Histogram>,
    epochs_published: Arc<Counter>,
    epoch: Arc<Gauge>,
    publish_us: Arc<Histogram>,
    /// Ops applied since the last published epoch — how far readers of
    /// the current snapshot trail the write frontier.
    epoch_lag: Arc<Gauge>,
    /// Per-block op counts: `hub.lane_ops{block=B}`. Thm 4.2 read
    /// operationally — independent blocks predict near-uniform lanes.
    lane_ops: Vec<Arc<Counter>>,
    /// Per-block microseconds spent holding the block lock:
    /// `hub.lane_busy_us{block=B}` — the utilization numerator.
    lane_busy_us: Vec<Arc<Counter>>,
    /// Per-phase pipeline latency: `pipeline.us{phase=P}`.
    phase_us: [Arc<Histogram>; 7],
    guard_chase_steps: Arc<Gauge>,
    guard_lookups: Arc<Gauge>,
    guard_enumeration: Arc<Gauge>,
}

impl HubMetrics {
    fn new(m: &MetricsRegistry, blocks: usize) -> HubMetrics {
        HubMetrics {
            inserts_accepted: m.counter("session.inserts_accepted"),
            inserts_rejected: m.counter("session.inserts_rejected"),
            deletes: m.counter("session.deletes"),
            insert_us: m.latency_histogram("session.insert_us"),
            epochs_published: m.counter("hub.epochs_published"),
            epoch: m.gauge("hub.epoch"),
            publish_us: m.latency_histogram("hub.publish_us"),
            epoch_lag: m.gauge("hub.epoch_lag"),
            lane_ops: (0..blocks)
                .map(|b| m.counter(&format!("hub.lane_ops{{block={b}}}")))
                .collect(),
            lane_busy_us: (0..blocks)
                .map(|b| m.counter(&format!("hub.lane_busy_us{{block={b}}}")))
                .collect(),
            phase_us: Phase::ALL
                .map(|p| m.latency_histogram(&format!("pipeline.us{{phase={}}}", p.as_str()))),
            guard_chase_steps: m.gauge("guard.chase_steps"),
            guard_lookups: m.gauge("guard.lookups"),
            guard_enumeration: m.gauge("guard.enumeration"),
        }
    }

    /// The pre-resolved equivalent of [`Engine::record_guard_metrics`].
    fn record_guard(&self, guard: &Guard) {
        let s = guard.snapshot();
        self.guard_chase_steps.set(s.chase_steps);
        self.guard_lookups.set(s.lookups);
        self.guard_enumeration.set(s.enumeration);
    }

    /// Folds a completed op's timeline into the per-phase histograms.
    fn record_timeline(&self, tl: &OpTimeline) {
        for (p, d) in tl.phase_durations() {
            self.phase_us[p as usize].observe(d);
        }
    }
}

/// Recovers a slot lock from poison: a writer panicking mid-op is
/// rebuilt away by the rollback paths, and the slot ops themselves never
/// leave a slot half-mutated across an unwind point we own.
fn lock_slot(slot: &Mutex<Slot>) -> MutexGuard<'_, Slot> {
    slot.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Maps Algorithm 1's outcome onto a block slot: an inconsistent
/// substate poisons the slot — a verdict, not an error.
fn block_maint(rep: Result<KeRep, ExecError>) -> Result<Maint, ExecError> {
    match rep {
        Ok(rep) => Ok(Maint::Rep(rep)),
        Err(ExecError::Inconsistent { detail }) => Ok(Maint::Poisoned(detail)),
        Err(e) => Err(e),
    }
}

/// An [`Engine`] bound to one evolving state for concurrent service.
///
/// The hub owns the per-block slots and the published snapshot; it
/// hands out cloneable [`WriteHandle`]s (serialized per block, parallel
/// across blocks) and epoch-stamped [`ReadView`]s. Built by
/// [`Engine::hub`] / [`Engine::hub_with`].
#[derive(Debug)]
pub struct Hub<'e> {
    engine: &'e Engine,
    shared: Arc<HubShared>,
}

/// A cloneable writer over a [`Hub`]: routes each insert/delete to its
/// block's serialized write lane. Many handles (threads) may write
/// concurrently; ops on the same block serialize, ops on different
/// blocks run in parallel (Theorem 4.2).
#[derive(Debug)]
pub struct WriteHandle<'e> {
    engine: &'e Engine,
    shared: Arc<HubShared>,
}

impl Clone for WriteHandle<'_> {
    fn clone(&self) -> Self {
        WriteHandle {
            engine: self.engine,
            shared: Arc::clone(&self.shared),
        }
    }
}

/// An immutable reader over one published epoch. Opening a view
/// publishes the latest consistent cut if writers dirtied the state
/// since the last publication; the view itself then never changes —
/// snapshot isolation, not read-your-latest.
#[derive(Debug)]
pub struct ReadView<'e> {
    engine: &'e Engine,
    snap: Arc<Snapshot>,
}

impl Clone for ReadView<'_> {
    fn clone(&self) -> Self {
        ReadView {
            engine: self.engine,
            snap: Arc::clone(&self.snap),
        }
    }
}

/// One op of a framed batch group, applied through
/// [`WriteHandle::apply_batch`]. The verdict contract per op matches the
/// single-op paths: an insert's verdict is *accepted*, a delete's is
/// *removed*.
#[derive(Clone, Debug)]
pub enum BatchOp {
    /// Insert `t` into relation `rel`.
    Insert {
        /// Target relation index.
        rel: usize,
        /// The tuple being inserted.
        t: Tuple,
    },
    /// Delete `t` from relation `rel`.
    Delete {
        /// Target relation index.
        rel: usize,
        /// The tuple being deleted.
        t: Tuple,
    },
}

impl BatchOp {
    /// The op's target relation.
    pub fn rel(&self) -> usize {
        match self {
            BatchOp::Insert { rel, .. } | BatchOp::Delete { rel, .. } => *rel,
        }
    }
}

impl<'e> Hub<'e> {
    /// Builds the hub: carves the state into per-block slots and builds
    /// every block's representative instance (in parallel when the
    /// engine enables it; one whole-state chase on a non-IR scheme), then
    /// publishes epoch 0. Emits the `session_built` event and the
    /// `session.build*` metrics.
    pub(crate) fn build(
        engine: &'e Engine,
        state: &DatabaseState,
        guard: &Guard,
        sink: Option<Arc<dyn DurabilitySink>>,
    ) -> Result<Hub<'e>, ExecError> {
        let t0 = Instant::now();
        let obs = engine.observability();
        let (slots, whole) = match engine.ir() {
            Some(ir) if !ir.is_empty() => {
                let built = evaluate_blocks(ir.len(), engine.parallel_enabled(), |b| {
                    let maint = block_maint(block_rep(ir, b, state, guard))?;
                    let mut sub = DatabaseState::empty(engine.scheme());
                    for &i in &ir.partition[b] {
                        for t in state.relation(i).iter() {
                            sub.insert(i, t.clone())
                                .expect("tuple comes from relation i of a matching state");
                        }
                    }
                    Ok(Mutex::new(Slot { maint, state: sub }))
                });
                (built.into_iter().collect::<Result<_, ExecError>>()?, false)
            }
            _ => (
                vec![Mutex::new(Slot {
                    maint: Maint::Chase(Box::new(engine.chase_slot(
                        None,
                        state,
                        guard,
                        obs.tracer.clone(),
                    )?)),
                    state: state.clone(),
                })],
                true,
            ),
        };
        let consistent = slots.iter().all(|s| lock_slot(s).maint.failure().is_none());
        let metrics = obs
            .metrics
            .as_ref()
            .map(|m| HubMetrics::new(m, slots.len()));
        let hub = Hub {
            engine,
            shared: Arc::new(HubShared {
                whole,
                publish: Mutex::new(Arc::new(Snapshot {
                    epoch: 0,
                    state: state.clone(),
                    consistent,
                })),
                epoch: AtomicU64::new(0),
                stale: AtomicBool::new(false),
                sink,
                last_rejection: Mutex::new(None),
                metrics,
                slots,
            }),
        };
        obs.tracer.emit_with(|| TraceEvent::SessionBuilt {
            blocks: hub.shared.slots.len(),
            consistent,
        });
        if let Some(m) = &obs.metrics {
            m.counter("session.builds").inc();
            m.latency_histogram("session.build_us")
                .observe_duration(t0.elapsed());
            engine.record_guard_metrics(guard);
        }
        Ok(hub)
    }

    /// The engine this hub serves.
    pub fn engine(&self) -> &'e Engine {
        self.engine
    }

    /// A new writer over this hub. Cloneable and `Send` — hand one to
    /// each client thread.
    pub fn write_handle(&self) -> WriteHandle<'e> {
        WriteHandle {
            engine: self.engine,
            shared: Arc::clone(&self.shared),
        }
    }

    /// An epoch-stamped read view. If writers dirtied the state since
    /// the last publication this first publishes a fresh consistent cut
    /// (briefly locking each block in turn); the returned view is then
    /// immutable.
    pub fn read_view(&self) -> ReadView<'e> {
        ReadView {
            engine: self.engine,
            snap: publish_snapshot(self.engine, &self.shared),
        }
    }

    /// Whether every block's current substate is consistent.
    pub fn is_consistent(&self) -> bool {
        self.shared
            .slots
            .iter()
            .all(|s| lock_slot(s).maint.failure().is_none())
    }

    /// Block indexes whose substate is inconsistent (always `[0]` or
    /// `[]` for the whole-state backend).
    pub fn inconsistent_blocks(&self) -> Vec<usize> {
        self.shared
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| lock_slot(s).maint.failure().is_some())
            .map(|(b, _)| b)
            .collect()
    }

    /// Provenance for a derived tuple: the first block (in block order)
    /// witnessing `t` total on `x`, with per-column fd-firing chains.
    /// On an IR block the witness is a live representative-instance
    /// tuple total on `x` agreeing with `t`, and the chains come from an
    /// on-demand chase of the block's substate; the whole-state slot
    /// answers from its live tableau. Chains are empty unless the engine
    /// was built with
    /// [`Observability::provenance`](crate::Observability::provenance)
    /// set. `None` when nothing witnesses `t` — in particular when `t` is
    /// not in the X-total projection.
    pub fn explain(&self, x: AttrSet, t: &Tuple) -> Option<TupleExplanation> {
        self.shared.slots.iter().enumerate().find_map(|(si, s)| {
            let slot = lock_slot(s);
            match &slot.maint {
                Maint::Chase(chase) => chase.explain_tuple(x, t),
                Maint::Poisoned(_) => None,
                Maint::Rep(rep) => {
                    let agrees = |r: &Tuple| {
                        x.iter()
                            .all(|a| r.get(a).is_some_and(|v| t.get(a) == Some(v)))
                    };
                    if !rep.iter().any(agrees) {
                        return None;
                    }
                    let unl = Guard::unlimited();
                    let chase = self
                        .engine
                        .chase_slot(Some(si), &slot.state, &unl, TraceHandle::none())
                        .expect("an unlimited chase of a consistent block cannot trip");
                    // The rep decides presence; a chase that disagrees
                    // (the rep drifted from its substate) still reports
                    // the rep's witness, with no row and no chains.
                    Some(chase.explain_tuple(x, t).unwrap_or(TupleExplanation {
                        row: chase.len(),
                        tag: None,
                        cells: Vec::new(),
                    }))
                }
            }
        })
    }

    /// Provenance of the most recent rejected insert across all writers:
    /// the rejected tuple is chased on demand against its block's
    /// current substate. `None` when no insert was rejected, or when
    /// later writes to the block have since made the tuple acceptable.
    pub fn explain_rejection(&self) -> Option<RejectionExplanation> {
        let (si, rel, t) = self
            .shared
            .last_rejection
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()?;
        let slot = lock_slot(&self.shared.slots[si]);
        self.rejection_chase(si, &slot.state, rel, &t, TraceHandle::none())
    }

    /// Routes relation `i` to its slot index.
    fn slot_of(&self, i: usize) -> usize {
        assert!(i < self.engine.scheme().len(), "relation index out of range");
        if self.shared.whole {
            0
        } else {
            let ir = self.engine.ir().expect("block slots imply an IR partition");
            ir.block_of[i]
        }
    }

    /// Decides and applies an insert of `t` into relation `rel` of slot
    /// `si` — Algorithm 2 on an IR block's rep, a push-and-run on the
    /// whole-state tableau. `Ok(true)`: accepted, rep and substate
    /// updated. `Ok(false)`: rejected, the slot is unchanged (a tracer,
    /// when on, receives the rejection's chase). `Err`: a poisoned slot
    /// (or a failed whole-state chase) or a guard trip; the slot is
    /// unchanged.
    fn slot_insert(
        &self,
        si: usize,
        slot: &mut Slot,
        rel: usize,
        t: &Tuple,
        guard: &Guard,
    ) -> Result<bool, ExecError> {
        // Maintenance needs a consistent base: an inconsistent slot
        // refuses inserts until a delete restores consistency.
        if let Some(e) = slot.maint.failure() {
            return Err(e);
        }
        let accepted = match &mut slot.maint {
            Maint::Rep(rep) => {
                let scheme = self.engine.scheme();
                let (outcome, _) = rep_insert(scheme, rep, rel, t, guard, &RetryPolicy::none())?;
                let tracer = &self.engine.observability().tracer;
                if !outcome.is_consistent() && tracer.enabled() {
                    self.rejection_chase(si, &slot.state, rel, t, tracer.clone());
                }
                outcome.is_consistent()
            }
            Maint::Poisoned(_) => unreachable!("failure() refused the poisoned slot"),
            Maint::Chase(chase) => {
                let pushed = chase.push_tuple(t, Some(rel)).map(|_| ());
                match pushed.and_then(|()| chase.run(guard).map(|_| ())) {
                    Ok(()) => true,
                    // The tableau holds the speculative row either way:
                    // rebuild it from the untouched substate (a chase
                    // already known to succeed — not charged).
                    Err(e) => {
                        slot.maint = self
                            .rebuilt(si, &slot.state, &Guard::unlimited())
                            .expect("rebuilding a previously consistent block cannot fail");
                        match e {
                            ExecError::Inconsistent { .. } => false,
                            e => return Err(e),
                        }
                    }
                }
            }
        };
        if accepted {
            slot.state
                .insert(rel, t.clone())
                .expect("tuple was checked against scheme rel, so it matches");
        }
        Ok(accepted)
    }

    /// Removes `t` from relation `rel` of slot `si` and rebuilds the
    /// slot's rep (or tableau) from the smaller substate under `guard`.
    /// `Ok(false)` when the tuple was absent. On `Err` (a guard trip
    /// mid-rebuild) the tuple is restored and the old rep still answers.
    fn slot_delete(
        &self,
        si: usize,
        slot: &mut Slot,
        rel: usize,
        t: &Tuple,
        guard: &Guard,
    ) -> Result<bool, ExecError> {
        let removed = slot
            .state
            .remove(rel, t)
            .expect("relation index was validated by slot_of");
        if removed {
            match self.rebuilt(si, &slot.state, guard) {
                Ok(maint) => slot.maint = maint,
                Err(e) => {
                    slot.state
                        .insert(rel, t.clone())
                        .expect("tuple was just removed from relation rel");
                    return Err(e);
                }
            }
        }
        Ok(removed)
    }

    /// A fresh [`Maint`] for slot `si` from substate `state`: Algorithm 1
    /// on an IR block (an inconsistent substate poisons the slot), the
    /// whole-state chase otherwise (emitting into the hub's tracer).
    fn rebuilt(&self, si: usize, state: &DatabaseState, guard: &Guard) -> Result<Maint, ExecError> {
        match self.engine.ir() {
            Some(ir) if !self.shared.whole => block_maint(block_rep(ir, si, state, guard)),
            _ => {
                let tracer = self.engine.observability().tracer.clone();
                Ok(Maint::Chase(Box::new(self.engine.chase_slot(None, state, guard, tracer)?)))
            }
        }
    }

    /// Why inserting `t` into relation `rel` of slot `si` is rejected:
    /// chases the slot's substate plus `t` into `trace` and reads the
    /// violation back. `None` when the chase finds none.
    fn rejection_chase(
        &self,
        si: usize,
        state: &DatabaseState,
        rel: usize,
        t: &Tuple,
        trace: TraceHandle,
    ) -> Option<RejectionExplanation> {
        let block = (!self.shared.whole).then_some(si);
        let unl = Guard::unlimited();
        let mut chase = self.engine.chase_slot(block, state, &unl, trace).ok()?;
        chase.push_tuple(t, Some(rel)).ok()?;
        let _ = chase.run(&unl);
        chase.explain_rejection()
    }

    /// The slot half of the write pipeline — every insert, delete and
    /// batch runs through here (a single op is a one-op batch). Applies
    /// the op group as one unit across every block it touches; see
    /// [`WriteHandle::apply_batch`] for the contract. Returns the per-op
    /// verdicts (in op order) and the number of blocks touched.
    ///
    /// Ops are logged **after** their verdicts are known. Each slot runs
    /// its share of the ops serially through
    /// [`slot_insert`](Hub::slot_insert) / [`slot_delete`](Hub::slot_delete)
    /// — Algorithm 2 decides each insert exactly, so serial application
    /// *is* the batch semantics — and records every substate change in
    /// an undo list. A typed error at or before the log call is the
    /// **single rollback point**: the undo list is replayed in reverse
    /// and the touched slots are rebuilt from their restored substates,
    /// so nothing is logged, nothing is applied, and log == memory holds
    /// without abort markers (DESIGN.md §12).
    pub(crate) fn batch_op(
        &self,
        ops: &[BatchOp],
        guard: &Guard,
    ) -> Result<(Vec<bool>, usize), ExecError> {
        if ops.is_empty() {
            return Ok((Vec::new(), 0));
        }
        let mut by_slot: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (k, op) in ops.iter().enumerate() {
            by_slot.entry(self.slot_of(op.rel())).or_default().push(k);
        }
        // Every involved block lock, acquired in index order, so
        // concurrent writers cannot deadlock; holding all of them across
        // maintain → log → unlock keeps per-block WAL order equal to
        // apply order.
        let mut guards: Vec<MutexGuard<'_, Slot>> = by_slot
            .keys()
            .map(|&si| lock_slot(&self.shared.slots[si]))
            .collect();
        timeline::stamp_current(Phase::LaneAcquire);
        let lane_t0 = Instant::now();
        // Phase 1 — serial per-slot maintenance, recording every applied
        // op as (slot position, op index) for the rollback.
        let mut verdicts = vec![false; ops.len()];
        let mut undo: Vec<(usize, usize)> = Vec::new();
        let mut rejected: Option<Rejected> = None;
        let mut failure: Option<ExecError> = None;
        'slots: for (g, (slot, (&si, idxs))) in guards.iter_mut().zip(&by_slot).enumerate() {
            for &k in idxs {
                let r = match &ops[k] {
                    BatchOp::Insert { rel, t } => self.slot_insert(si, slot, *rel, t, guard),
                    BatchOp::Delete { rel, t } => self.slot_delete(si, slot, *rel, t, guard),
                };
                match (r, &ops[k]) {
                    (Ok(true), _) => {
                        verdicts[k] = true;
                        undo.push((g, k));
                    }
                    (Ok(false), BatchOp::Insert { rel, t }) => {
                        rejected = Some((si, *rel, t.clone()));
                    }
                    (Ok(false), BatchOp::Delete { .. }) => {}
                    (Err(e), _) => {
                        failure = Some(e);
                        break 'slots;
                    }
                }
            }
        }
        // Phase 2 — log the whole group: one sink batch, one
        // group-commit barrier, one fsync.
        if failure.is_none() {
            if let Some(d) = &self.shared.sink {
                if let Err(e) = d.log_ops(ops) {
                    failure = Some(e);
                }
            }
            // Durable sinks stamp wal-append where the records are
            // queued; this fallback covers in-memory sinks (first write
            // wins).
            timeline::stamp_current(Phase::WalAppend);
        }
        if let Some(e) = failure {
            // Single rollback point: undo the substate changes newest
            // first, then rebuild each touched slot from its restored
            // substate. Nothing was logged, so log == memory holds.
            let mut touched = vec![false; guards.len()];
            for &(g, k) in undo.iter().rev() {
                touched[g] = true;
                let slot = &mut guards[g];
                match &ops[k] {
                    BatchOp::Insert { rel, t } => {
                        slot.state.remove(*rel, t).expect("relation index was validated");
                    }
                    BatchOp::Delete { rel, t } => {
                        slot.state
                            .insert(*rel, t.clone())
                            .expect("tuple was removed from relation rel");
                    }
                }
            }
            for (g, (&si, _)) in by_slot.iter().enumerate() {
                if touched[g] {
                    guards[g].maint = self
                        .rebuilt(si, &guards[g].state, &Guard::unlimited())
                        .expect("an unlimited rebuild of the pre-batch substate cannot trip");
                }
            }
            return Err(e);
        }
        timeline::stamp_current(Phase::Apply);
        let applied = undo.len() as u64;
        if applied > 0 {
            self.shared.stale.store(true, Ordering::Release);
        }
        if let Some(hm) = &self.shared.metrics {
            let lane_us = lane_t0.elapsed().as_micros() as u64;
            for (&si, idxs) in &by_slot {
                hm.lane_ops[si].add(idxs.len() as u64);
                hm.lane_busy_us[si].add(lane_us);
            }
            hm.epoch_lag.add(applied);
        }
        drop(guards);
        if rejected.is_some() {
            *self
                .shared
                .last_rejection
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner) = rejected;
        }
        Ok((verdicts, by_slot.len()))
    }

    /// After a completed op: asks the sink whether a snapshot is due and,
    /// if so, quiesces every block and hands over a consistent cut.
    /// Called with no slot lock held.
    fn sink_op_finished(&self) -> Result<(), ExecError> {
        let Some(sink) = &self.shared.sink else {
            return Ok(());
        };
        if !sink.op_finished()? {
            return Ok(());
        }
        // Quiesce: publish-lock first (lock order), then every block in
        // index order. Holding all block locks means no writer is inside
        // log_ops, so the assembled state covers exactly the logged
        // prefix — the rotation the sink performs is safe.
        let _publish = self
            .shared
            .publish
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let slots: Vec<_> = self.shared.slots.iter().map(lock_slot).collect();
        let mut state = DatabaseState::empty(self.engine.scheme());
        for s in &slots {
            for (i, t) in s.state.iter_all() {
                state
                    .insert(i, t.clone())
                    .expect("slot substates are projections of one scheme-valid state");
            }
        }
        sink.write_snapshot(&state)
    }
}

impl<'e> WriteHandle<'e> {
    /// The engine behind this handle.
    pub fn engine(&self) -> &'e Engine {
        self.engine
    }

    /// A hub facade over the same shared state (for queries, explain,
    /// verdicts). Cheap — an `Arc` clone.
    fn hub(&self) -> Hub<'e> {
        Hub {
            engine: self.engine,
            shared: Arc::clone(&self.shared),
        }
    }

    /// Inserts `t` into relation `i` through the block's serialized
    /// write lane — a one-op [`apply_batch`](WriteHandle::apply_batch)
    /// that reports as a single insert.
    ///
    /// `Ok(true)`: accepted and applied — on an IR block Algorithm 2
    /// decided it with a few key lookups into the block's representative
    /// instance, charged against `guard`. `Ok(false)`: rejected, the
    /// state is unchanged and the insert is kept for
    /// [`explain_rejection`](WriteHandle::explain_rejection).
    /// `Err(Inconsistent)`: the block was already poisoned — maintenance
    /// needs a consistent base. Other `Err`s are guard trips or storage
    /// failures; the insert then did *not* happen and nothing was
    /// logged, so the caller may retry with a fresh guard.
    pub fn insert(&self, i: usize, t: Tuple, guard: &Guard) -> Result<bool, ExecError> {
        self.insert_timed(i, t, guard, &Arc::new(OpTimeline::new()))
    }

    /// [`insert`](WriteHandle::insert) with a caller-owned
    /// [`OpTimeline`]: the caller stamps [`Phase::Enqueue`] when it
    /// queues the op; this method installs the timeline as the thread's
    /// current op so every pipeline layer (block lock, WAL, group
    /// commit) stamps its phase, then folds the completed timeline into
    /// the per-phase histograms.
    ///
    /// The target block's lock is held across *maintain → log → apply*,
    /// so per-block WAL order equals apply order.
    pub fn insert_timed(
        &self,
        i: usize,
        t: Tuple,
        guard: &Guard,
        tl: &Arc<OpTimeline>,
    ) -> Result<bool, ExecError> {
        let t0 = Instant::now();
        let accepted = self.write(&[BatchOp::Insert { rel: i, t }], guard, tl)?.0[0];
        let obs = self.engine.observability();
        obs.tracer.emit_with(|| TraceEvent::InsertApplied {
            relation: Arc::from(self.engine.scheme().scheme(i).name()),
            accepted,
        });
        if let Some(hm) = &self.shared.metrics {
            hm.insert_us.observe_duration(t0.elapsed());
        }
        Ok(accepted)
    }

    /// Removes `t` from relation `i` — a one-op
    /// [`apply_batch`](WriteHandle::apply_batch) that reports as a single
    /// delete. Deletion never breaks consistency but can *restore* it,
    /// and it can unmerge representative-instance tuples, so the block's
    /// rep is rebuilt from its substate by Algorithm 1 (charged against
    /// `guard`). `Ok(false)` when the tuple was not present. On `Err` (a
    /// guard trip mid-rebuild, a storage failure) the delete did *not*
    /// happen: the tuple is restored, nothing was logged, and the caller
    /// may retry with a fresh guard.
    pub fn delete(&self, i: usize, t: &Tuple, guard: &Guard) -> Result<bool, ExecError> {
        self.delete_timed(i, t, guard, &Arc::new(OpTimeline::new()))
    }

    /// [`delete`](WriteHandle::delete) with a caller-owned
    /// [`OpTimeline`] — see [`insert_timed`](WriteHandle::insert_timed).
    pub fn delete_timed(
        &self,
        i: usize,
        t: &Tuple,
        guard: &Guard,
        tl: &Arc<OpTimeline>,
    ) -> Result<bool, ExecError> {
        let op = BatchOp::Delete { rel: i, t: t.clone() };
        let removed = self.write(&[op], guard, tl)?.0[0];
        let obs = self.engine.observability();
        obs.tracer.emit_with(|| TraceEvent::DeleteApplied {
            relation: Arc::from(self.engine.scheme().scheme(i).name()),
            removed,
        });
        Ok(removed)
    }

    /// Applies a framed group of ops as **one unit**: one write-lock
    /// acquisition per involved block, one WAL batch (one group-commit barrier, one fsync), one
    /// aggregated [`TraceEvent::BatchApplied`] event. Returns the per-op
    /// verdicts in op order — observationally identical to applying the
    /// ops one by one through [`insert`](WriteHandle::insert) /
    /// [`delete`](WriteHandle::delete) (the `idr fuzz --batch` oracle arm
    /// pins this).
    ///
    /// On a typed error (an insert into a block that is still poisoned,
    /// a guard trip or a capacity trip mid-batch, a storage failure) the
    /// **whole group** is rolled back through its undo list: no op of the
    /// batch is applied and nothing is logged — the single rollback point
    /// sits at the WAL append, so log == memory holds without abort
    /// markers (DESIGN.md §12).
    pub fn apply_batch(&self, ops: &[BatchOp], guard: &Guard) -> Result<Vec<bool>, ExecError> {
        self.apply_batch_timed(ops, guard, &Arc::new(OpTimeline::new()))
    }

    /// [`apply_batch`](WriteHandle::apply_batch) with a caller-owned
    /// [`OpTimeline`] — see [`insert_timed`](WriteHandle::insert_timed).
    pub fn apply_batch_timed(
        &self,
        ops: &[BatchOp],
        guard: &Guard,
        tl: &Arc<OpTimeline>,
    ) -> Result<Vec<bool>, ExecError> {
        let (verdicts, blocks) = self.write(ops, guard, tl)?;
        let applied = verdicts.iter().filter(|&&v| v).count();
        let obs = self.engine.observability();
        obs.tracer.emit_with(|| TraceEvent::BatchApplied {
            ops: ops.len(),
            applied,
            blocks,
        });
        Ok(verdicts)
    }

    /// The write pipeline shared by every write: installs `tl` as the
    /// thread's current op, runs `ops` through [`Hub::batch_op`], hands
    /// the sink a due snapshot, stamps [`Phase::Publish`] — the
    /// visibility handoff: the ops' effect is marked for the next epoch
    /// cut — and counts the verdicts. Returns the per-op verdicts and the
    /// number of blocks touched.
    fn write(
        &self,
        ops: &[BatchOp],
        guard: &Guard,
        tl: &Arc<OpTimeline>,
    ) -> Result<(Vec<bool>, usize), ExecError> {
        let _cur = timeline::set_current(tl);
        let hub = self.hub();
        let (verdicts, blocks) = hub.batch_op(ops, guard)?;
        hub.sink_op_finished()?;
        tl.stamp(Phase::Publish);
        if let Some(hm) = &self.shared.metrics {
            for (op, &v) in ops.iter().zip(&verdicts) {
                match op {
                    BatchOp::Insert { .. } if v => hm.inserts_accepted.inc(),
                    BatchOp::Insert { .. } => hm.inserts_rejected.inc(),
                    BatchOp::Delete { .. } => hm.deletes.inc(),
                }
            }
            hm.record_guard(guard);
            hm.record_timeline(tl);
        }
        Ok((verdicts, blocks))
    }

    /// An epoch-stamped read view (see [`Hub::read_view`]) — gives every
    /// writer thread snapshot-isolated queries without a hub reference.
    pub fn read_view(&self) -> ReadView<'e> {
        self.hub().read_view()
    }

    /// Whether every block's current substate is consistent.
    pub fn is_consistent(&self) -> bool {
        self.hub().is_consistent()
    }

    /// Provenance of the most recent rejected insert across all writers.
    pub fn explain_rejection(&self) -> Option<RejectionExplanation> {
        self.hub().explain_rejection()
    }
}

impl Snapshot {
    /// The epoch number this snapshot was published as.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

impl<'e> ReadView<'e> {
    /// The engine behind this view.
    pub fn engine(&self) -> &'e Engine {
        self.engine
    }

    /// The epoch this view reads — monotone across publications of one
    /// hub.
    pub fn epoch(&self) -> u64 {
        self.snap.epoch
    }

    /// The epoch's consistency verdict (O(1), decided at publication).
    pub fn is_consistent(&self) -> bool {
        self.snap.consistent
    }

    /// The epoch's base state.
    pub fn state(&self) -> &DatabaseState {
        &self.snap.state
    }

    /// The X-total projection `[x]` of this epoch. `Ok(None)` when the
    /// epoch is inconsistent. On IR schemes this is chase-free (the
    /// cached Theorem 4.1 expression over the snapshot state); non-IR
    /// schemes chase the snapshot — never the live slots, so the
    /// answer is stable no matter what writers do meanwhile.
    pub fn total_projection(
        &self,
        x: AttrSet,
        guard: &Guard,
    ) -> Result<Option<Vec<Tuple>>, ExecError> {
        let t0 = Instant::now();
        if !self.snap.consistent {
            return Ok(None);
        }
        // The cached Theorem 4.1 expression when one covers `x` (IR
        // schemes only), else one chase of the snapshot state.
        let state = &self.snap.state;
        let (result, method) = match self.engine.total_projection_expr(x, guard)? {
            Some(expr) => {
                let rel = expr
                    .eval(self.engine.scheme(), state)
                    .expect("cached projection expressions are well-formed");
                (Ok(Some(rel.sorted_tuples())), "expr")
            }
            None => {
                let kd = self.engine.key_deps().full();
                let chased = idr_chase::total_projection(self.engine.scheme(), state, kd, x, guard);
                (chased, "chase")
            }
        };
        emit_query(self.engine, x, method, &result, t0, guard);
        result
    }
}

type ProjectionResult = Result<Option<Vec<Tuple>>, ExecError>;

/// The `query_answered` event + metrics every query path shares.
fn emit_query(
    engine: &Engine,
    x: AttrSet,
    method: &'static str,
    result: &ProjectionResult,
    t0: Instant,
    guard: &Guard,
) {
    if let Ok(Some(tuples)) = result {
        let obs = engine.observability();
        obs.tracer.emit_with(|| TraceEvent::QueryAnswered {
            attrs: Arc::from(engine.scheme().universe().render(x).as_str()),
            method: Arc::from(method),
            tuples: tuples.len(),
        });
        if let Some(m) = &obs.metrics {
            m.counter("session.queries").inc();
            m.counter(if method == "expr" {
                "session.queries_expr"
            } else {
                "session.queries_chase"
            })
            .inc();
            m.latency_histogram("session.query_us")
                .observe_duration(t0.elapsed());
            engine.record_guard_metrics(guard);
        }
    }
}

/// Returns the current snapshot, republishing first when writers dirtied
/// the state. The stale flag is cleared *before* the slot scan: a writer
/// landing mid-scan re-marks it and the next view republishes — at worst
/// a spurious republication, never a lost update.
fn publish_snapshot(engine: &Engine, shared: &HubShared) -> Arc<Snapshot> {
    if !shared.stale.load(Ordering::Acquire) {
        return Arc::clone(
            &shared
                .publish
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        );
    }
    let mut published = shared
        .publish
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if shared.stale.swap(false, Ordering::AcqRel) {
        let t0 = Instant::now();
        let mut state = DatabaseState::empty(engine.scheme());
        let mut consistent = true;
        for s in &shared.slots {
            let slot = lock_slot(s);
            consistent &= slot.maint.failure().is_none();
            for (i, t) in slot.state.iter_all() {
                state
                    .insert(i, t.clone())
                    .expect("slot substates are projections of one scheme-valid state");
            }
        }
        let epoch = shared.epoch.fetch_add(1, Ordering::Relaxed) + 1;
        let tuples = state.total_tuples();
        let obs = engine.observability();
        obs.tracer.emit_with(|| TraceEvent::EpochPublished {
            epoch,
            tuples,
            consistent,
        });
        if let Some(hm) = &shared.metrics {
            hm.epochs_published.inc();
            hm.epoch.set(epoch);
            hm.epoch_lag.set(0);
            hm.publish_us.observe_duration(t0.elapsed());
        }
        *published = Arc::new(Snapshot {
            epoch,
            state,
            consistent,
        });
    }
    Arc::clone(&published)
}

#[cfg(test)]
mod tests {
    use super::*;
    use idr_relation::exec::Budget;
    use idr_relation::{state_of, DatabaseScheme, SchemeBuilder, SymbolTable};
    use idr_workload::generators::block_chain_scheme;

    fn two_block_scheme() -> DatabaseScheme {
        SchemeBuilder::new("ABCD")
            .scheme("R1", "AB", ["A"])
            .scheme("R2", "CD", ["C"])
            .build()
            .unwrap()
    }

    /// The tuple `attr=value, …` over `db`'s universe.
    fn tup(db: &DatabaseScheme, sym: &mut SymbolTable, pairs: &[(&str, &str)]) -> Tuple {
        let u = db.universe();
        Tuple::from_pairs(pairs.iter().map(|&(a, v)| (u.attr_of(a), sym.intern(v))))
    }

    /// Applies `ops` one at a time through `insert` / `delete`.
    fn per_op(w: &WriteHandle<'_>, ops: &[BatchOp], g: &Guard) -> Vec<bool> {
        ops.iter()
            .map(|op| match op {
                BatchOp::Insert { rel, t } => w.insert(*rel, t.clone(), g).unwrap(),
                BatchOp::Delete { rel, t } => w.delete(*rel, t, g).unwrap(),
            })
            .collect()
    }

    /// Sorted `(relation, tuple)` lines of a view's state.
    fn dump(v: &ReadView<'_>) -> Vec<(usize, Tuple)> {
        let mut all: Vec<(usize, Tuple)> =
            v.state().iter_all().map(|(i, t)| (i, t.clone())).collect();
        all.sort();
        all
    }

    #[test]
    fn read_views_are_snapshot_isolated_and_epoch_stamped() {
        let db = two_block_scheme();
        let engine = Engine::new(db.clone());
        let g = Guard::unlimited();
        let mut sym = SymbolTable::new();
        let state = state_of(&db, &mut sym, &[("R1", &[("A", "a"), ("B", "b")])]).unwrap();
        let hub = engine.hub(&state, &g).unwrap();

        let v0 = hub.read_view();
        assert_eq!(v0.epoch(), 0);
        assert_eq!(v0.state().total_tuples(), 1);

        let w = hub.write_handle();
        let t = tup(&db, &mut sym, &[("C", "c"), ("D", "d")]);
        assert!(w.insert(1, t, &g).unwrap());

        // The old view still reads epoch 0; a new view sees the insert.
        assert_eq!(v0.state().total_tuples(), 1);
        let v1 = hub.read_view();
        assert!(v1.epoch() > v0.epoch());
        assert_eq!(v1.state().total_tuples(), 2);
        // No writes since: the same epoch is re-served, not republished.
        assert_eq!(hub.read_view().epoch(), v1.epoch());
    }

    #[test]
    fn concurrent_block_writers_commute() {
        let db = block_chain_scheme(4, 3);
        let engine = Engine::new(db.clone());
        let g = Guard::unlimited();
        let hub = engine.hub(&DatabaseState::empty(&db), &g).unwrap();
        let symbols = std::sync::Mutex::new(SymbolTable::new());
        let w = hub.write_handle();
        std::thread::scope(|s| {
            for k in 0..4usize {
                let w = w.clone();
                let symbols = &symbols;
                let db = &db;
                let g = &g;
                s.spawn(move || {
                    for e in 0..3usize {
                        let i = k * 3; // first relation of block k
                        let t = {
                            let mut sym = symbols.lock().unwrap();
                            Tuple::from_pairs(db.scheme(i).attrs().iter().map(|a| {
                                (
                                    a,
                                    sym.intern(&format!(
                                        "{}_{e}",
                                        db.universe().name(a)
                                    )),
                                )
                            }))
                        };
                        assert!(w.insert(i, t, g).unwrap());
                    }
                });
            }
        });
        let v = hub.read_view();
        assert!(v.is_consistent());
        assert_eq!(v.state().total_tuples(), 12);
    }

    #[test]
    fn rejected_insert_leaves_the_epoch_unchanged() {
        let db = two_block_scheme();
        let engine = Engine::new(db.clone());
        let g = Guard::unlimited();
        let mut sym = SymbolTable::new();
        let state = state_of(&db, &mut sym, &[("R1", &[("A", "a"), ("B", "b")])]).unwrap();
        let hub = engine.hub(&state, &g).unwrap();
        let w = hub.write_handle();
        let bad = tup(&db, &mut sym, &[("A", "a"), ("B", "b2")]);
        let before = hub.read_view().epoch();
        assert!(!w.insert(0, bad, &g).unwrap());
        assert!(w.explain_rejection().is_some());
        let v = hub.read_view();
        assert_eq!(v.epoch(), before, "a rejected insert publishes nothing");
        assert_eq!(v.state().total_tuples(), 1);
        assert!(v.is_consistent());
    }

    #[test]
    fn guard_trip_rolls_back_and_aborts_nothing_visible() {
        // star(3) with a shared hub value: Algorithm 2's first key
        // lookup trips a zero-lookup budget mid-insert.
        let db = idr_workload::generators::star_scheme(3);
        let mut sym = SymbolTable::new();
        let state = state_of(
            &db,
            &mut sym,
            &[
                ("R0", &[("K", "k"), ("A0", "x0")]),
                ("R1", &[("K", "k"), ("A1", "x1")]),
                ("R2", &[("K", "k"), ("A2", "x2")]),
            ],
        )
        .unwrap();
        let engine = Engine::new(db.clone());
        let g = Guard::unlimited();
        let hub = engine.hub(&state, &g).unwrap();
        let w = hub.write_handle();
        let u = db.universe();
        let t = tup(&db, &mut sym, &[("K", "k"), ("A2", "x2b")]);
        let tight = Guard::new(Budget::unlimited().with_max_lookups(0));
        let err = w.insert(2, t.clone(), &tight).unwrap_err();
        assert!(matches!(err, ExecError::BudgetExceeded { .. }), "{err:?}");
        let v = hub.read_view();
        assert!(!v.state().relation(2).contains(&t));
        assert!(v.is_consistent());
        let x = AttrSet::from_iter([u.attr_of("K"), u.attr_of("A2")]);
        assert!(hub.explain(x, &t).is_none(), "speculative merge leaked");
    }

    #[test]
    fn apply_batch_matches_per_op_application() {
        // Mixed inserts and deletes across two blocks, including a
        // rejected insert and a delete of an absent tuple: the batch
        // verdicts and final state must equal per-op serial application.
        let db = two_block_scheme();
        let engine_a = Engine::new(db.clone());
        let engine_b = Engine::new(db.clone());
        let g = Guard::unlimited();
        let mut sym = SymbolTable::new();
        let state = state_of(&db, &mut sym, &[("R1", &[("A", "a"), ("B", "b")])]).unwrap();
        let mut t = |x: &str, xv: &str, y: &str, yv: &str| tup(&db, &mut sym, &[(x, xv), (y, yv)]);
        let ops = vec![
            BatchOp::Insert { rel: 1, t: t("C", "c", "D", "d") },
            BatchOp::Insert { rel: 0, t: t("A", "a2", "B", "b2") },
            // Rejected: clashes with the seeded (a, b) on key A.
            BatchOp::Insert { rel: 0, t: t("A", "a", "B", "bX") },
            BatchOp::Delete { rel: 0, t: t("A", "a", "B", "b") },
            // Absent: was never inserted.
            BatchOp::Delete { rel: 1, t: t("C", "cX", "D", "dX") },
            // Accepted: the clashing (a, b) is gone by now.
            BatchOp::Insert { rel: 0, t: t("A", "a", "B", "bX") },
        ];

        let hub_a = engine_a.hub(&state, &g).unwrap();
        let batch_verdicts = hub_a.write_handle().apply_batch(&ops, &g).unwrap();

        let hub_b = engine_b.hub(&state, &g).unwrap();
        let serial_verdicts = per_op(&hub_b.write_handle(), &ops, &g);

        assert_eq!(batch_verdicts, serial_verdicts);
        assert_eq!(batch_verdicts, vec![true, true, false, true, false, true]);
        let va = hub_a.read_view();
        let vb = hub_b.read_view();
        assert_eq!(va.is_consistent(), vb.is_consistent());
        assert_eq!(dump(&va), dump(&vb));
        // The rejected (a, bX) was applied later in the same batch, so
        // the on-demand explanation finds nothing left to explain...
        assert!(hub_a.explain_rejection().is_none());
        // ...while a rejection that stands is explained.
        let clash = vec![BatchOp::Insert { rel: 0, t: t("A", "a", "B", "bY") }];
        assert_eq!(hub_a.write_handle().apply_batch(&clash, &g).unwrap(), vec![false]);
        assert!(hub_a.explain_rejection().is_some(), "rejection provenance kept");
    }

    #[test]
    fn apply_batch_rolls_back_whole_group_on_guard_trip() {
        let db = idr_workload::generators::star_scheme(3);
        let mut sym = SymbolTable::new();
        let state = state_of(
            &db,
            &mut sym,
            &[
                ("R0", &[("K", "k"), ("A0", "x0")]),
                ("R1", &[("K", "k"), ("A1", "x1")]),
            ],
        )
        .unwrap();
        let engine = Engine::new(db.clone());
        let g = Guard::unlimited();
        let hub = engine.hub(&state, &g).unwrap();
        let w = hub.write_handle();
        let u = db.universe();
        let t = tup(&db, &mut sym, &[("K", "k"), ("A2", "x2")]);
        let gone = tup(&db, &mut sym, &[("K", "k"), ("A0", "x0")]);
        // The insert costs one lookup and is applied; the delete's rep
        // rebuild then trips the two-lookup budget, so the undo list has
        // to take the applied insert back out.
        let ops = vec![
            BatchOp::Insert { rel: 2, t: t.clone() },
            BatchOp::Delete { rel: 0, t: gone.clone() },
        ];
        let tight = Guard::new(Budget::unlimited().with_max_lookups(2));
        let err = w.apply_batch(&ops, &tight).unwrap_err();
        assert!(matches!(err, ExecError::BudgetExceeded { .. }), "{err:?}");
        let v = hub.read_view();
        assert!(v.is_consistent());
        assert!(!v.state().relation(2).contains(&t), "speculative op leaked");
        assert!(v.state().relation(0).contains(&gone), "rolled-back delete lost");
        let x = AttrSet::from_iter([u.attr_of("K"), u.attr_of("A2")]);
        assert!(hub.explain(x, &t).is_none(), "speculative merge leaked");
        // The hub is fully usable afterwards: the same batch under a
        // real guard applies.
        assert_eq!(w.apply_batch(&ops, &g).unwrap(), vec![true, true]);
        let v = hub.read_view();
        assert!(v.state().relation(2).contains(&t));
        assert!(!v.state().relation(0).contains(&gone));
    }

    /// A test sink that counts logged records and, while `fail` is set,
    /// refuses every log call the way a failed fsync would.
    #[derive(Debug, Default)]
    struct FaultySink {
        fail: AtomicBool,
        records: AtomicU64,
    }

    impl DurabilitySink for FaultySink {
        fn log_ops(&self, ops: &[BatchOp]) -> Result<(), ExecError> {
            if self.fail.load(Ordering::Relaxed) {
                return Err(ExecError::Faulted {
                    kind: idr_relation::exec::FaultKind::Permanent,
                    operation: "wal append".to_string(),
                    attempts: 1,
                });
            }
            self.records.fetch_add(ops.len() as u64, Ordering::Relaxed);
            Ok(())
        }

        fn op_finished(&self) -> Result<bool, ExecError> {
            Ok(false)
        }

        fn write_snapshot(&self, _state: &DatabaseState) -> Result<(), ExecError> {
            Ok(())
        }
    }

    #[test]
    fn poisoned_block_takes_deletes_in_batches_as_per_op() {
        // R1's key A is violated by the base state, so block 0 starts
        // poisoned. A delete restores consistency, batched or not; an
        // insert into the still-poisoned block is refused, unlogged.
        let db = two_block_scheme();
        let engine = Engine::new(db.clone());
        let g = Guard::unlimited();
        let mut sym = SymbolTable::new();
        let state = state_of(
            &db,
            &mut sym,
            &[
                ("R1", &[("A", "a"), ("B", "b1")]),
                ("R1", &[("A", "a"), ("B", "b2")]),
            ],
        )
        .unwrap();
        let bad = BatchOp::Delete { rel: 0, t: tup(&db, &mut sym, &[("A", "a"), ("B", "b2")]) };
        let fresh = BatchOp::Insert { rel: 0, t: tup(&db, &mut sym, &[("A", "a2"), ("B", "c")]) };
        for ops in [vec![bad.clone()], vec![bad, fresh.clone()]] {
            let batched = engine.hub(&state, &g).unwrap();
            let serial = engine.hub(&state, &g).unwrap();
            assert!(!batched.is_consistent());
            let verdicts = batched.write_handle().apply_batch(&ops, &g).unwrap();
            assert_eq!(verdicts, per_op(&serial.write_handle(), &ops, &g), "{ops:?}");
            let (vb, vs) = (batched.read_view(), serial.read_view());
            assert_eq!(dump(&vb), dump(&vs));
            assert!(vb.is_consistent() && vs.is_consistent());
        }

        let sink = Arc::new(FaultySink::default());
        let hub = engine.hub_with(&state, &g, sink.clone()).unwrap();
        let before = hub.read_view();
        let err = hub.write_handle().apply_batch(&[fresh], &g).unwrap_err();
        assert!(matches!(err, ExecError::Inconsistent { .. }), "{err:?}");
        let after = hub.read_view();
        assert_eq!(after.epoch(), before.epoch(), "nothing applied");
        assert_eq!(dump(&after), dump(&before));
        assert_eq!(sink.records.load(Ordering::Relaxed), 0, "nothing logged");
        assert_eq!(hub.inconsistent_blocks(), vec![0]);
    }

    #[test]
    fn failed_log_rolls_every_write_back() {
        let db = two_block_scheme();
        let engine = Engine::new(db.clone());
        let g = Guard::unlimited();
        let mut sym = SymbolTable::new();
        let state = state_of(&db, &mut sym, &[("R1", &[("A", "a"), ("B", "b")])]).unwrap();
        let mut pair =
            |x: &str, xv: &str, y: &str, yv: &str| tup(&db, &mut sym, &[(x, xv), (y, yv)]);
        let seeded = pair("A", "a", "B", "b");
        let a2b2 = pair("A", "a2", "B", "b2");
        let a2b3 = pair("A", "a2", "B", "b3");
        let cd = pair("C", "c", "D", "d");
        let sink = Arc::new(FaultySink::default());
        let hub = engine.hub_with(&state, &g, sink.clone()).unwrap();
        let w = hub.write_handle();
        let before = hub.read_view();
        sink.fail.store(true, Ordering::Relaxed);
        let check = |r: Result<(), ExecError>| {
            assert!(matches!(r, Err(ExecError::Faulted { .. })), "{r:?}");
            let v = hub.read_view();
            assert_eq!(v.epoch(), before.epoch());
            assert_eq!(dump(&v), dump(&before));
            assert!(hub.is_consistent());
        };
        // An insert Algorithm 2 accepts, a delete of a present tuple, and
        // a mixed batch across both blocks.
        check(w.insert(0, a2b2.clone(), &g).map(|_| ()));
        check(w.delete(0, &seeded, &g).map(|_| ()));
        let mixed = [
            BatchOp::Insert { rel: 1, t: cd },
            BatchOp::Delete { rel: 0, t: seeded.clone() },
            BatchOp::Insert { rel: 0, t: a2b2 },
        ];
        check(w.apply_batch(&mixed, &g).map(|_| ()));
        assert_eq!(sink.records.load(Ordering::Relaxed), 0);
        // The rep forgot the rolled-back (a2, b2): a tuple that would
        // clash with it on key A is accepted, and (a, b) is still there.
        sink.fail.store(false, Ordering::Relaxed);
        assert!(w.insert(0, a2b3, &g).unwrap());
        assert!(!w.insert(0, pair("A", "a", "B", "bX"), &g).unwrap());
        assert_eq!(sink.records.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn whole_state_backend_serves_reads_and_writes() {
        // Example 2: rejected by Algorithm 6 — one whole-state slot.
        let db = SchemeBuilder::new("ABC")
            .scheme("R1", "AB", ["A"])
            .scheme("R2", "BC", ["B"])
            .scheme("R3", "AC", ["A"])
            .build()
            .unwrap();
        let engine = Engine::new(db.clone());
        assert!(engine.ir().is_none());
        let g = Guard::unlimited();
        let mut sym = SymbolTable::new();
        let state = state_of(
            &db,
            &mut sym,
            &[
                ("R1", &[("A", "a"), ("B", "b")]),
                ("R2", &[("B", "b"), ("C", "c")]),
            ],
        )
        .unwrap();
        let hub = engine.hub(&state, &g).unwrap();
        let v = hub.read_view();
        assert!(v.is_consistent());
        // [AC] is derivable through the chase even with no AC relation —
        // and the snapshot path, the one-shot engine path and the
        // reference chase must all agree.
        let x = db.universe().set_of("AC");
        let via_view = v.total_projection(x, &g).unwrap().unwrap();
        assert_eq!(via_view.len(), 1);
        let via_engine = engine.total_projection(&state, x, &g).unwrap().unwrap();
        assert_eq!(via_view, via_engine);
        let via_chase =
            idr_chase::total_projection(&db, &state, engine.key_deps().full(), x, &g).unwrap();
        assert_eq!(Some(via_view), via_chase);
        let t = tup(&db, &mut sym, &[("A", "a2"), ("B", "b2")]);
        assert!(hub.write_handle().insert(0, t, &g).unwrap());
        assert_eq!(hub.read_view().state().total_tuples(), 3);
    }
}
