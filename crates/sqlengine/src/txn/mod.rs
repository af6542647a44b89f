//! Transaction handles and the transaction manager.
//!
//! A [`TxnHandle`] carries the in-memory undo list (so runtime aborts do
//! not scan the log) and the locks held, with their modes. Commit and abort
//! logic lives in [`crate::storage::Storage`], which owns the pages and
//! indexes the undo actions touch.

pub mod locks;

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::wal::log::{ClrAction, Lsn, TxnId};

use self::locks::{LockMode, LockTarget};

/// One undoable page action performed by a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UndoEntry {
    /// LSN of the record being compensated.
    pub lsn: Lsn,
    /// The *undo* action (inverse of what was done).
    pub action: ClrAction,
    /// Affected table.
    pub table: u32,
    /// Affected page.
    pub page: u32,
    /// Affected slot.
    pub slot: u16,
}

/// A live transaction.
pub struct TxnHandle {
    /// Transaction id (doubles as wait-die age).
    pub id: TxnId,
    undo: Mutex<Vec<UndoEntry>>,
    /// Held locks: target → bitmask of granted modes.
    locks: Mutex<HashMap<LockTarget, u8>>,
}

impl TxnHandle {
    /// Record an undoable action.
    pub fn push_undo(&self, e: UndoEntry) {
        self.undo.lock().push(e);
    }

    /// Drain the undo list in reverse (apply order for abort).
    pub fn take_undo_reversed(&self) -> Vec<UndoEntry> {
        let mut v = std::mem::take(&mut *self.undo.lock());
        v.reverse();
        v
    }

    /// Remember a granted lock for release at commit/abort.
    pub fn note_lock(&self, target: LockTarget, mode: LockMode) {
        *self.locks.lock().entry(target).or_insert(0) |= mode.bit();
    }

    /// Whether a granted lock on `target` already covers `mode`, so a
    /// repeated request need not reach the lock manager.
    pub(crate) fn holds(&self, target: LockTarget, mode: LockMode) -> bool {
        self.locks
            .lock()
            .get(&target)
            .is_some_and(|&mask| mode.covered_by(mask))
    }

    /// Drain the remembered lock set.
    pub fn take_locks(&self) -> Vec<LockTarget> {
        self.locks.lock().drain().map(|(t, _)| t).collect()
    }

    /// Number of buffered undo actions (tests/metrics).
    pub fn undo_len(&self) -> usize {
        self.undo.lock().len()
    }
}

/// Issues transaction ids.
pub struct TxnManager {
    next: AtomicU64,
}

impl Default for TxnManager {
    fn default() -> Self {
        TxnManager {
            next: AtomicU64::new(1),
        }
    }
}

impl TxnManager {
    /// Start numbering above ids seen in the recovered log so wait-die
    /// ages stay monotonic across restarts.
    pub fn starting_at(next: TxnId) -> Self {
        TxnManager {
            next: AtomicU64::new(next.max(1)),
        }
    }

    /// Issue a fresh transaction handle.
    pub fn begin(&self) -> TxnHandle {
        TxnHandle {
            id: self.next.fetch_add(1, Ordering::Relaxed),
            undo: Mutex::new(Vec::new()),
            locks: Mutex::new(HashMap::new()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_monotonic() {
        let m = TxnManager::default();
        let a = m.begin().id;
        let b = m.begin().id;
        assert!(b > a);
    }

    #[test]
    fn starting_at_respects_floor() {
        let m = TxnManager::starting_at(100);
        assert_eq!(m.begin().id, 100);
        let m0 = TxnManager::starting_at(0);
        assert_eq!(m0.begin().id, 1);
    }

    #[test]
    fn undo_drained_in_reverse() {
        let m = TxnManager::default();
        let t = m.begin();
        for i in 0..3 {
            t.push_undo(UndoEntry {
                lsn: i,
                action: ClrAction::Tombstone,
                table: 1,
                page: 1,
                slot: i as u16,
            });
        }
        let drained = t.take_undo_reversed();
        assert_eq!(
            drained.iter().map(|e| e.lsn).collect::<Vec<_>>(),
            vec![2, 1, 0]
        );
        assert_eq!(t.undo_len(), 0);
    }

    #[test]
    fn lock_set_tracked() {
        let m = TxnManager::default();
        let t = m.begin();
        t.note_lock(LockTarget::table(3), LockMode::IntentionShared);
        t.note_lock(LockTarget::table(3), LockMode::Shared);
        t.note_lock(LockTarget::row(5, 9), LockMode::Exclusive);
        assert!(t.holds(LockTarget::table(3), LockMode::IntentionShared));
        assert!(!t.holds(LockTarget::table(3), LockMode::IntentionExclusive));
        assert!(t.holds(LockTarget::row(5, 9), LockMode::Shared));
        let mut locks = t.take_locks();
        locks.sort();
        assert_eq!(locks, vec![LockTarget::table(3), LockTarget::row(5, 9)]);
    }
}
