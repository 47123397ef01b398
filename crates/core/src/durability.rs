//! The durability hook the engine calls around every mutation.
//!
//! The paper's maintenance theorems (4.1/4.2) reduce state evolution to a
//! sequence of small insert/delete steps, which is exactly the shape of a
//! write-ahead log. This module defines the *interface* the
//! [`WriteHandle`](crate::WriteHandle) mutation paths call; the
//! implementation — an append-only checksummed WAL with group commit,
//! snapshots and crash recovery (`idr_store::SharedStore`) — lives in
//! `idr-store`, keeping this crate free of filesystem concerns.
//!
//! ## Contract
//!
//! The hub owns its sink as an `Arc<dyn DurabilitySink>` shared by every
//! writer thread. Every write — a single insert or delete is a one-op
//! batch — is decided first: Algorithm 2 (Theorem 4.2) settles an insert
//! with a few key lookups before anything changes, and the hub records
//! every substate change in an undo list. Only then, still holding the
//! touched blocks' write locks, does it call
//! [`DurabilitySink::log_ops`] with the whole op group. A typed error at
//! or before that call (a poisoned block, a guard trip, a failed log)
//! rolls memory back through the undo list, so nothing is logged and
//! nothing is applied: the log and memory always agree, and no write
//! path writes an abort marker. Ops that complete with a verdict —
//! accepted *or* rejected inserts, present or absent deletes — are
//! logged as-is; replaying them through the same guarded write path
//! re-earns the same verdict deterministically.
//!
//! After every completed write the sink only *reports* whether a
//! snapshot is due ([`DurabilitySink::op_finished`]); the hub then
//! quiesces every block and hands over a consistent state
//! ([`DurabilitySink::write_snapshot`]), so the sink can cut a snapshot
//! and truncate the log at a safe point.

use idr_relation::exec::ExecError;
use idr_relation::DatabaseState;

use crate::serving::BatchOp;

/// A durability sink shared by concurrent writers, through `&self` so
/// many [`WriteHandle`](crate::WriteHandle)s can log at once.
/// Implementations serialise (or group-commit) internally;
/// `idr_store::SharedStore` is the canonical one. The engine only sees
/// this trait, so the core crate stays independent of the storage layer.
///
/// Errors are surfaced as [`ExecError`] (storage failures map to
/// [`ExecError::Faulted`]); a failed `log_ops` rolls the write back, so
/// log and memory stay in agreement.
///
/// The write pipeline calls [`log_ops`](DurabilitySink::log_ops) while
/// holding every touched block's write lock, so the log order of any
/// one block equals its apply order — which, per Theorem 4.2 block
/// independence, makes a serial replay of the whole log reproduce the
/// concurrent final state.
pub trait DurabilitySink: std::fmt::Debug + Send + Sync {
    /// Appends (and makes durable) the records for a group of ops, in
    /// order, as one durability unit. Called once per write — a single
    /// insert or delete arrives as a one-op group — *after* every
    /// verdict is known and under every touched block's write lock. On
    /// `Err` the hub rolls the whole group back, so a failed call must
    /// leave no record of it.
    fn log_ops(&self, ops: &[BatchOp]) -> Result<(), ExecError>;

    /// Called after every write that reached its verdicts. Returns
    /// `true` when the sink wants a snapshot — the caller then quiesces
    /// every block and calls
    /// [`write_snapshot`](DurabilitySink::write_snapshot) with the
    /// resulting consistent state.
    fn op_finished(&self) -> Result<bool, ExecError>;

    /// Cuts a snapshot of `state` and rotates the log. Only called with
    /// a quiesced, consistent cut (no in-flight `log_ops` anywhere).
    fn write_snapshot(&self, state: &DatabaseState) -> Result<(), ExecError>;
}
