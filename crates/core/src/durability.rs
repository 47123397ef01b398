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
//! writer thread, and upholds write-ahead ordering:
//! [`DurabilitySink::log_op`] is called **before** any in-memory
//! mutation. If the op later fails with a typed error (a guard trip
//! mid-chase), the writer rolls memory back and calls
//! [`DurabilitySink::log_abort`], so the log and memory agree again: a
//! recovery replaying the log skips aborted records. Ops that complete
//! with a verdict — accepted *or* rejected inserts, present or absent
//! deletes — are left in the log as-is; replaying them through the same
//! guarded write path re-earns the same verdict deterministically.
//!
//! After every completed op the sink only *reports* whether a snapshot
//! is due ([`DurabilitySink::op_finished`]); the hub then quiesces every
//! block and hands over a consistent state
//! ([`DurabilitySink::write_snapshot`]), so the sink can cut a snapshot
//! and truncate the log at a safe point.

use idr_relation::exec::ExecError;
use idr_relation::{DatabaseState, Tuple};

/// One loggable mutation, borrowed from the caller at the
/// write-ahead point (before the in-memory state changes).
#[derive(Clone, Copy, Debug)]
pub enum DurableOp<'a> {
    /// [`WriteHandle::insert`](crate::WriteHandle::insert) of `t` into
    /// relation `rel` — logged whether the insert ends up accepted or
    /// rejected; replay re-derives the verdict.
    Insert {
        /// Target relation index.
        rel: usize,
        /// The tuple being inserted.
        t: &'a Tuple,
    },
    /// [`WriteHandle::delete`](crate::WriteHandle::delete) of `t` from
    /// relation `rel`.
    Delete {
        /// Target relation index.
        rel: usize,
        /// The tuple being deleted.
        t: &'a Tuple,
    },
}

/// A write-ahead durability sink shared by concurrent writers, through
/// `&self` so many [`WriteHandle`](crate::WriteHandle)s can log at once.
/// Implementations serialise (or group-commit) internally;
/// `idr_store::SharedStore` is the canonical one. The engine only sees
/// this trait, so the core crate stays independent of the storage layer.
///
/// Errors are surfaced as [`ExecError`] (storage failures map to
/// [`ExecError::Faulted`]); a failed `log_op` aborts the mutation before
/// memory changes, keeping log and memory in agreement.
///
/// The write pipeline calls [`log_op`](DurabilitySink::log_op) while
/// holding the target block's write lock, so the log order of any one
/// block equals its apply order — which, per Theorem 4.2 block
/// independence, makes a serial replay of the whole log reproduce the
/// concurrent final state.
pub trait DurabilitySink: std::fmt::Debug + Send + Sync {
    /// Appends (and makes durable) the intent record for `op`. Called
    /// before the in-memory mutation, under the target block's write
    /// lock; on `Err` the mutation is not attempted.
    fn log_op(&self, op: DurableOp<'_>) -> Result<(), ExecError>;

    /// Appends (and makes durable) the intent records for a whole batch
    /// of ops, in order, as one durability unit. The batch write path
    /// ([`WriteHandle::apply_batch`](crate::WriteHandle::apply_batch))
    /// calls this once per batch while holding every involved block's
    /// write lock, *after* chase verdicts are known and *before* any
    /// in-memory state mutation — so a failed batch logs nothing and a
    /// logged batch always applies, keeping log == memory without abort
    /// markers.
    ///
    /// The default implementation loops [`log_op`](DurabilitySink::log_op)
    /// (N commit barriers); `idr_store::SharedStore` overrides it to ride
    /// the whole batch on one group-commit barrier — one write pass, one
    /// fsync.
    fn log_ops(&self, ops: &[DurableOp<'_>]) -> Result<(), ExecError> {
        for &op in ops {
            self.log_op(op)?;
        }
        Ok(())
    }

    /// Marks this writer's most recently logged op as rolled back.
    /// Called under the same block lock as the `log_op` it cancels, so
    /// the abort marker lands before any later op of the same block.
    fn log_abort(&self) -> Result<(), ExecError>;

    /// Called after every op that reached a verdict. Returns `true` when
    /// the sink wants a snapshot — the caller then quiesces every block
    /// and calls [`write_snapshot`](DurabilitySink::write_snapshot) with
    /// the resulting consistent state.
    fn op_finished(&self) -> Result<bool, ExecError>;

    /// Cuts a snapshot of `state` and rotates the log. Only called with
    /// a quiesced, consistent cut (no in-flight `log_op` anywhere).
    fn write_snapshot(&self, state: &DatabaseState) -> Result<(), ExecError>;
}
