//! Restart recovery: analysis, redo, undo (ARIES-style, simplified by
//! quiesced checkpoints and append-only page tuple space).
//!
//! * **Analysis** — locate the last checkpoint via the master record,
//!   restore the catalog snapshot, and scan forward classifying
//!   transactions into winners (Commit seen), explicit aborts, and losers.
//! * **Redo** — replay every page action whose LSN is newer than the page's
//!   on-disk LSN; DDL and page allocations are top actions replayed
//!   idempotently against the catalog.
//! * **Undo** — roll back losers in reverse LSN order, skipping actions
//!   already compensated by a CLR (so recovery itself is idempotent and a
//!   crash *during* recovery is handled by simply running recovery again —
//!   the property Phoenix relies on, and which `tests/` fault-injects).
//!
//! Each phase — tail scan, analysis, redo, undo, flush and the optional
//! scrub — is timed into a `sqlengine.recovery.<phase>` obskit histogram
//! and span, so a restart's wall time splits into its parts. PK indexes
//! are not rebuilt here: each is built on its table's first use (see
//! `Storage::pk_index`), so a restart reads only the pages redo and undo
//! touch.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use crate::catalog::Catalog;
use crate::error::Result;
use crate::storage::buffer::{with_page_mut, BufferPool};
use crate::storage::disk::MemDisk;
use crate::storage::heap::Storage;
use crate::storage::page::Page;
use crate::txn::TxnManager;
use crate::wal::log::{ClrAction, GroupCommit, LogManager, LogRecord, LogStore, Lsn, TxnId};

/// Tuning for the recovered engine.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryConfig {
    /// Buffer-pool capacity (pages) for the recovered engine.
    pub pool_capacity: usize,
    /// Run a full checksum scrub (detect + repair every allocated page)
    /// after redo/undo complete. Off by default: scrubbing reads every
    /// page, which would skew the recovery-time experiments; servers
    /// that expect storage faults opt in.
    pub scrub: bool,
    /// Group-commit window for the recovered engine's WAL manager.
    /// Disabled by default: single-session workloads gain nothing from
    /// batching, and the window adds commit latency.
    pub group_commit: GroupCommit,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            pool_capacity: 4096,
            scrub: false,
            group_commit: GroupCommit::default(),
        }
    }
}

/// Statistics describing what recovery did (reported by the server and
/// interesting for the recovery-time experiments).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Log records examined after the checkpoint.
    pub records_scanned: usize,
    /// Page actions re-applied during redo.
    pub redo_applied: usize,
    /// Loser transactions rolled back.
    pub losers_rolled_back: usize,
    /// Undo actions applied (CLRs written).
    pub undo_actions: usize,
    /// Bytes of torn log tail truncated before analysis.
    pub torn_tail_bytes: u64,
    /// Pages found corrupt (and repaired) by the post-recovery scrub,
    /// when [`RecoveryConfig::scrub`] is on.
    pub scrub_repaired: u32,
}

/// Times consecutive restart phases: each [`lap`](Self::lap) records the
/// time since the previous lap (or the start) under the phase's name.
struct PhaseClock(Instant);

impl PhaseClock {
    fn lap(&mut self, name: &'static str) {
        let now = Instant::now();
        let d = now - self.0;
        obskit::metrics::global().record(name, d);
        obskit::trace::emit_span(name, d, String::new());
        self.0 = now;
    }
}

/// Rebuild a [`Storage`] kernel from durable state.
pub fn recover(
    disk: Arc<MemDisk>,
    store: Arc<LogStore>,
    config: RecoveryConfig,
) -> Result<(Storage, RecoveryStats)> {
    // A torn tail — the residue of a flush that failed mid-append — is
    // truncated *before* anything reads the log, so the manager's base
    // offset and every scan below see only whole, verified records.
    // Mid-log corruption surfaces here as `Error::Corruption`.
    let mut clock = PhaseClock(Instant::now());
    let mut stats = RecoveryStats {
        torn_tail_bytes: store.recover_tail()?,
        ..RecoveryStats::default()
    };
    clock.lap("sqlengine.recovery.tail_scan");
    let log = Arc::new(LogManager::with_group(
        Arc::clone(&store),
        config.group_commit,
    ));

    // --- Analysis: restore catalog from checkpoint ---
    faultkit::crashpoint!("recovery.analysis");
    // The records from the checkpoint are decoded once: the first is the
    // checkpoint record, whose snapshot restores the catalog, and the
    // rest are what redo replays.
    let from_checkpoint = match store.checkpoint() {
        Some(cp_lsn) => {
            let records = store.records_from(cp_lsn)?;
            match records.first() {
                Some((first_lsn, LogRecord::Checkpoint { snapshot })) => {
                    debug_assert_eq!(*first_lsn, cp_lsn);
                    Some((Catalog::restore(snapshot)?, records))
                }
                // A master record pointing at a torn record or past the
                // log end means the checkpoint never fully made it out;
                // distrust it and replay from the start rather than
                // aborting recovery.
                _ => None,
            }
        }
        None => None,
    };
    let (catalog, records) = match from_checkpoint {
        Some(restored) => restored,
        None => (Catalog::new(), store.records_from(0)?),
    };
    let catalog = Arc::new(catalog);
    let pool = Arc::new(BufferPool::new(
        Arc::clone(&disk),
        Arc::clone(&log),
        config.pool_capacity,
    ));
    stats.records_scanned = records.len();

    // Classify transactions and collect undo info in one pass.
    let mut ended: HashSet<TxnId> = HashSet::new();
    let mut seen: HashSet<TxnId> = HashSet::new();
    type UndoItem = (Lsn, ClrAction, u32, u32, u16);
    let mut undo_log: HashMap<TxnId, Vec<UndoItem>> = HashMap::new();
    let mut compensated: HashMap<TxnId, HashSet<Lsn>> = HashMap::new();
    let mut max_txn: TxnId = 0;

    for (lsn, rec) in &records {
        if let Some(t) = rec.txn() {
            seen.insert(t);
            max_txn = max_txn.max(t);
        }
        match rec {
            LogRecord::Commit { txn } | LogRecord::Abort { txn } => {
                ended.insert(*txn);
            }
            LogRecord::Insert {
                txn,
                table,
                page,
                slot,
                ..
            } => {
                undo_log.entry(*txn).or_default().push((
                    *lsn,
                    ClrAction::Tombstone,
                    *table,
                    *page,
                    *slot,
                ));
            }
            LogRecord::Delete {
                txn,
                table,
                page,
                slot,
            } => {
                undo_log.entry(*txn).or_default().push((
                    *lsn,
                    ClrAction::Untombstone,
                    *table,
                    *page,
                    *slot,
                ));
            }
            LogRecord::Clr { txn, undoes, .. } => {
                compensated.entry(*txn).or_default().insert(*undoes);
            }
            _ => {}
        }
    }
    clock.lap("sqlengine.recovery.analysis");

    // --- Redo ---
    faultkit::crashpoint!("recovery.redo");
    for (lsn, rec) in &records {
        match rec {
            LogRecord::CreateTable { table_id, schema } => {
                catalog.create_table_with_id(*table_id, schema.clone());
            }
            LogRecord::DropTable { table_id } => {
                catalog.drop_table_if_exists(*table_id);
            }
            LogRecord::CreateProc { name, body } => {
                catalog.create_proc(name, body, true)?;
            }
            LogRecord::DropProc { name } => {
                // lint:allow(discard): redo of a drop is idempotent; the proc may already be gone
                let _ = catalog.drop_proc(name);
            }
            LogRecord::AllocPage { table, page } => {
                if catalog.get(*table).is_none() {
                    continue;
                }
                disk.ensure_capacity(*page + 1, disk.current_epoch())?;
                let guard = pool.fetch(*page)?;
                let mut data = guard.write();
                let needs_init = {
                    let p = Page::new(&mut data);
                    p.lsn() < *lsn
                };
                if needs_init {
                    let mut p = Page::init(&mut data, *table);
                    p.set_lsn(*lsn);
                    stats.redo_applied += 1;
                }
                drop(data);
                catalog.add_page(*table, *page)?;
            }
            LogRecord::Insert {
                table,
                page,
                slot,
                data,
                ..
            } => {
                if catalog.get(*table).is_none() {
                    continue;
                }
                let guard = pool.fetch(*page)?;
                let applied = with_page_mut(&guard, *lsn, |p| {
                    if p.lsn() < *lsn {
                        p.insert_expect(*slot, data)?;
                        Ok(true)
                    } else {
                        Ok(false)
                    }
                })?;
                if applied {
                    stats.redo_applied += 1;
                }
            }
            LogRecord::Delete {
                table, page, slot, ..
            } => {
                if catalog.get(*table).is_none() {
                    continue;
                }
                let guard = pool.fetch(*page)?;
                let applied = with_page_mut(&guard, *lsn, |p| {
                    if p.lsn() < *lsn {
                        p.tombstone(*slot)?;
                        Ok(true)
                    } else {
                        Ok(false)
                    }
                })?;
                if applied {
                    stats.redo_applied += 1;
                }
            }
            LogRecord::Clr {
                table,
                page,
                slot,
                action,
                ..
            } => {
                if catalog.get(*table).is_none() {
                    continue;
                }
                let guard = pool.fetch(*page)?;
                let applied = with_page_mut(&guard, *lsn, |p| {
                    if p.lsn() < *lsn {
                        match action {
                            ClrAction::Tombstone => p.tombstone(*slot)?,
                            ClrAction::Untombstone => p.untombstone(*slot)?,
                        }
                        Ok(true)
                    } else {
                        Ok(false)
                    }
                })?;
                if applied {
                    stats.redo_applied += 1;
                }
            }
            _ => {}
        }
    }
    clock.lap("sqlengine.recovery.redo");

    // --- Undo losers ---
    faultkit::crashpoint!("recovery.redo.done");
    let losers: Vec<TxnId> = seen
        .iter()
        .copied()
        .filter(|t| !ended.contains(t))
        .collect();
    for txn in &losers {
        faultkit::crashpoint!("recovery.undo");
        let done = compensated.remove(txn).unwrap_or_default();
        let mut entries = undo_log.remove(txn).unwrap_or_default();
        entries.sort_by_key(|e| e.0);
        for (lsn, action, table, page, slot) in entries.into_iter().rev() {
            if done.contains(&lsn) {
                continue;
            }
            if catalog.get(table).is_none() {
                continue;
            }
            let clr_lsn = log.append(&LogRecord::Clr {
                txn: *txn,
                undoes: lsn,
                action,
                table,
                page,
                slot,
            });
            let guard = pool.fetch(page)?;
            with_page_mut(&guard, clr_lsn, |p| match action {
                ClrAction::Tombstone => p.tombstone(slot),
                ClrAction::Untombstone => p.untombstone(slot),
            })?;
            stats.undo_actions += 1;
        }
        log.append(&LogRecord::Abort { txn: *txn });
        stats.losers_rolled_back += 1;
    }
    clock.lap("sqlengine.recovery.undo");
    faultkit::crashpoint!("recovery.flush");
    log.flush_all()?;
    clock.lap("sqlengine.recovery.flush");

    // Post-recovery scrub hook: verify (and repair) every allocated
    // page before the engine serves traffic, so latent disk damage
    // cannot outlive a restart on servers that opt in.
    if config.scrub {
        let report = pool.scrub()?;
        stats.scrub_repaired = report.repaired;
        clock.lap("sqlengine.recovery.scrub");
    }

    let storage = Storage::new(catalog, pool, log, TxnManager::starting_at(max_txn + 1));
    Ok((storage, stats))
}

/// Build a brand-new empty database (fresh durable state).
pub fn bootstrap(
    disk: Arc<MemDisk>,
    store: Arc<LogStore>,
    config: RecoveryConfig,
) -> Result<Storage> {
    let (storage, _) = recover(disk, store, config)?;
    Ok(storage)
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;
    use crate::error::Error;
    use crate::schema::{Column, TableId, TableSchema};
    use crate::storage::disk::DiskModel;
    use crate::storage::heap::{pk_key, KeyBytes, RowId};
    use crate::types::{DataType, Row, Value};

    fn fresh_durable() -> (Arc<MemDisk>, Arc<LogStore>) {
        (
            Arc::new(MemDisk::new(DiskModel::default())),
            Arc::new(LogStore::new()),
        )
    }

    fn schema() -> TableSchema {
        TableSchema::new(
            "t",
            vec![
                Column::new("id", DataType::Int),
                Column::new("v", DataType::Str),
            ],
        )
        .with_primary_key(vec![0])
    }

    fn row(i: i64) -> Vec<Value> {
        vec![Value::Int(i), Value::Str(format!("row-{i}"))]
    }

    /// The `RowId`s the PK index holds for `row(i)`'s key.
    fn rids_of(st: &Storage, tid: TableId, i: i64) -> Vec<RowId> {
        st.key_range(tid, &pk_key(&schema(), &row(i)).unwrap())
            .unwrap()
    }

    #[test]
    fn committed_work_survives_crash() {
        let (disk, store) = fresh_durable();
        let tid;
        {
            let st = bootstrap(Arc::clone(&disk), Arc::clone(&store), Default::default()).unwrap();
            tid = st.create_table(schema()).unwrap();
            let txn = st.begin();
            for i in 0..100 {
                st.insert_row(&txn, tid, &row(i)).unwrap();
            }
            st.commit(&txn).unwrap();
            // Crash: drop volatile state without flushing pages.
        }
        let (st2, stats) =
            recover(Arc::clone(&disk), Arc::clone(&store), Default::default()).unwrap();
        assert!(stats.redo_applied > 0);
        let rows = st2.scan_all(tid).unwrap();
        assert_eq!(rows.len(), 100);
        // The index is built from the recovered heap on first use.
        let found = st2.fetch_rows(&rids_of(&st2, tid, 42), None).unwrap();
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].1[1], Value::Str("row-42".into()));
    }

    #[test]
    fn uncommitted_work_rolled_back() {
        let (disk, store) = fresh_durable();
        let tid;
        {
            let st = bootstrap(Arc::clone(&disk), Arc::clone(&store), Default::default()).unwrap();
            tid = st.create_table(schema()).unwrap();
            let t1 = st.begin();
            st.insert_row(&t1, tid, &row(1)).unwrap();
            st.commit(&t1).unwrap();

            let t2 = st.begin();
            st.insert_row(&t2, tid, &row(2)).unwrap();
            st.delete_row(&t2, tid, rids_of(&st, tid, 1)[0]).unwrap();
            // Force the loser's records durable so recovery actually has
            // work to undo.
            st.log.flush_all().unwrap();
            // Crash without commit.
        }
        let (st2, stats) = recover(disk, store, Default::default()).unwrap();
        assert_eq!(stats.losers_rolled_back, 1);
        assert!(stats.undo_actions >= 2);
        let rows: Vec<_> = st2
            .scan_all(tid)
            .unwrap()
            .into_iter()
            .map(|(_, r)| r)
            .collect();
        assert_eq!(rows, vec![row(1)]);
    }

    #[test]
    fn unflushed_commit_is_lost_but_flushed_commit_is_not() {
        let (disk, store) = fresh_durable();
        let tid;
        {
            let st = bootstrap(Arc::clone(&disk), Arc::clone(&store), Default::default()).unwrap();
            tid = st.create_table(schema()).unwrap();
            let txn = st.begin();
            st.insert_row(&txn, tid, &row(7)).unwrap();
            st.commit(&txn).unwrap(); // commit flushes
        }
        let (st2, _) = recover(disk, store, Default::default()).unwrap();
        assert_eq!(st2.scan_all(tid).unwrap().len(), 1);
    }

    #[test]
    fn recovery_is_idempotent() {
        let (disk, store) = fresh_durable();
        let tid;
        {
            let st = bootstrap(Arc::clone(&disk), Arc::clone(&store), Default::default()).unwrap();
            tid = st.create_table(schema()).unwrap();
            let t = st.begin();
            for i in 0..10 {
                st.insert_row(&t, tid, &row(i)).unwrap();
            }
            st.log.flush_all().unwrap(); // loser, durable
        }
        // Recover twice in a row (crash immediately after first recovery).
        let (st1, s1) = recover(Arc::clone(&disk), Arc::clone(&store), Default::default()).unwrap();
        assert_eq!(s1.losers_rolled_back, 1);
        drop(st1); // crash again, without any checkpoint
        let (st2, s2) = recover(Arc::clone(&disk), Arc::clone(&store), Default::default()).unwrap();
        // Second recovery sees the CLRs and skips re-undoing.
        assert_eq!(s2.undo_actions, 0);
        assert_eq!(st2.scan_all(tid).unwrap().len(), 0);
    }

    #[test]
    fn checkpoint_bounds_redo() {
        let (disk, store) = fresh_durable();
        let tid;
        {
            let st = bootstrap(Arc::clone(&disk), Arc::clone(&store), Default::default()).unwrap();
            tid = st.create_table(schema()).unwrap();
            let t = st.begin();
            for i in 0..50 {
                st.insert_row(&t, tid, &row(i)).unwrap();
            }
            st.commit(&t).unwrap();
            st.checkpoint().unwrap();
            let t2 = st.begin();
            st.insert_row(&t2, tid, &row(100)).unwrap();
            st.commit(&t2).unwrap();
        }
        let (st2, stats) = recover(disk, store, Default::default()).unwrap();
        // Only the post-checkpoint insert should need redo.
        assert_eq!(stats.redo_applied, 1);
        assert_eq!(st2.scan_all(tid).unwrap().len(), 51);
    }

    #[test]
    fn dropped_table_records_skipped() {
        let (disk, store) = fresh_durable();
        {
            let st = bootstrap(Arc::clone(&disk), Arc::clone(&store), Default::default()).unwrap();
            let tid = st.create_table(schema()).unwrap();
            let t = st.begin();
            st.insert_row(&t, tid, &row(1)).unwrap();
            st.commit(&t).unwrap();
            st.drop_table("t").unwrap();
        }
        let (st2, _) = recover(disk, store, Default::default()).unwrap();
        assert!(st2.catalog.resolve("t").is_none());
    }

    #[test]
    fn procedures_survive_crash() {
        let (disk, store) = fresh_durable();
        {
            let st = bootstrap(Arc::clone(&disk), Arc::clone(&store), Default::default()).unwrap();
            st.create_proc("p1", "SELECT 1", false).unwrap();
        }
        let (st2, _) = recover(disk, store, Default::default()).unwrap();
        assert_eq!(st2.catalog.get_proc("p1").unwrap(), "SELECT 1");
    }

    #[test]
    fn runtime_abort_then_crash_recovers_clean() {
        let (disk, store) = fresh_durable();
        let tid;
        {
            let st = bootstrap(Arc::clone(&disk), Arc::clone(&store), Default::default()).unwrap();
            tid = st.create_table(schema()).unwrap();
            let t = st.begin();
            st.insert_row(&t, tid, &row(1)).unwrap();
            st.abort(&t).unwrap();
            let t2 = st.begin();
            st.insert_row(&t2, tid, &row(2)).unwrap();
            st.commit(&t2).unwrap();
        }
        let (st2, stats) = recover(disk, store, Default::default()).unwrap();
        assert_eq!(stats.losers_rolled_back, 0);
        let rows: Vec<_> = st2
            .scan_all(tid)
            .unwrap()
            .into_iter()
            .map(|(_, r)| r)
            .collect();
        assert_eq!(rows, vec![row(2)]);
    }

    /// Two keyed tables: a composite key on the leading columns, and one
    /// on trailing columns out of column order, whose float column's two
    /// zeros are one key. Table 1's long strings spread it over pages.
    fn keyed_schemas() -> [TableSchema; 2] {
        [
            TableSchema::new(
                "a",
                vec![
                    Column::new("k1", DataType::Int),
                    Column::new("k2", DataType::Str),
                    Column::new("v", DataType::Int),
                ],
            )
            .with_primary_key(vec![0, 1]),
            TableSchema::new(
                "b",
                vec![
                    Column::new("pad", DataType::Str),
                    Column::new("f", DataType::Float),
                    Column::new("d", DataType::Date),
                ],
            )
            .with_primary_key(vec![2, 1]),
        ]
    }

    fn random_row(rng: &mut StdRng, table: usize) -> Row {
        if table == 0 {
            vec![
                Value::Int(rng.gen_range(0..4)),
                Value::Str(["", "x", "é€"][rng.gen_range(0..3)].into()),
                Value::Int(rng.gen_range(0..100)),
            ]
        } else {
            vec![
                Value::Str("p".repeat(rng.gen_range(0..3000))),
                Value::Float([-0.0, 0.0, 1.5, -2.25][rng.gen_range(0..4)]),
                Value::Date(rng.gen_range(0..4)),
            ]
        }
    }

    /// A few random inserts, deletes and key-changing updates in `txn`.
    fn random_ops(st: &Storage, txn: &crate::txn::TxnHandle, tids: &[TableId], rng: &mut StdRng) {
        for _ in 0..rng.gen_range(1..8) {
            let t = rng.gen_range(0..tids.len());
            let tid = tids[t];
            let live = st.scan_all(tid).unwrap();
            let op = rng.gen_range(0..3);
            let res = if op == 0 || live.is_empty() {
                st.insert_row(txn, tid, &random_row(rng, t)).map(|_| ())
            } else {
                let rid = live[rng.gen_range(0..live.len())].0;
                if op == 1 {
                    st.delete_row(txn, tid, rid).map(|_| ())
                } else {
                    st.update_row(txn, tid, rid, &random_row(rng, t))
                        .map(|_| ())
                }
            };
            match res {
                Ok(()) | Err(Error::DuplicateKey(_)) => {}
                Err(e) => panic!("{e}"),
            }
        }
    }

    /// Every key prefix of `tid` (the empty one, each row's leading
    /// columns, each full key) answered by `key_range` exactly as a full
    /// scan filtered on the same columns.
    fn assert_index_matches_scan(st: &Storage, tid: TableId, pk: &[usize]) {
        let live = st.scan_all(tid).unwrap();
        let all: Vec<RowId> = live.iter().map(|(rid, _)| *rid).collect();
        assert_eq!(st.key_range(tid, &KeyBytes::default()).unwrap(), all);
        for (_, row) in &live {
            for len in 1..=pk.len() {
                let mut prefix = KeyBytes::default();
                for &c in &pk[..len] {
                    prefix.push(&row[c]);
                }
                let want: Vec<RowId> = live
                    .iter()
                    .filter(|(_, r)| pk[..len].iter().all(|&c| r[c] == row[c]))
                    .map(|(rid, _)| *rid)
                    .collect();
                assert_eq!(st.key_range(tid, &prefix).unwrap(), want, "{row:?}");
            }
        }
    }

    /// After each restart, threads touch a keyed table of many pages for
    /// the first time all at once — so their index builds race each other
    /// and their own inserts, deletes and key-changing updates — and the
    /// index that wins answers every prefix as a full scan does. Each
    /// thread owns the rows whose leading key column is its number, as key
    /// locks would give it.
    #[test]
    fn first_touch_races_build_exact_indexes() {
        const THREADS: i64 = 4;
        let schema = TableSchema::new(
            "r",
            vec![
                Column::new("owner", DataType::Int),
                Column::new("k", DataType::Int),
                Column::new("pad", DataType::Str),
            ],
        )
        .with_primary_key(vec![0, 1]);
        let row = |owner: i64, k: i64| {
            vec![
                Value::Int(owner),
                Value::Int(k),
                Value::Str("p".repeat(300)),
            ]
        };
        let (disk, store) = fresh_durable();
        let st = bootstrap(Arc::clone(&disk), Arc::clone(&store), Default::default()).unwrap();
        let tid = st.create_table(schema.clone()).unwrap();
        let txn = st.begin();
        for owner in 0..THREADS {
            for k in 0..100 {
                st.insert_row(&txn, tid, &row(owner, k)).unwrap();
            }
        }
        st.commit(&txn).unwrap();
        st.checkpoint().unwrap();
        drop(st);
        for round in 0..8u64 {
            let (st, _) =
                recover(Arc::clone(&disk), Arc::clone(&store), Default::default()).unwrap();
            let start = std::sync::Barrier::new(THREADS as usize);
            std::thread::scope(|s| {
                for owner in 0..THREADS {
                    let (st, start) = (&st, &start);
                    s.spawn(move || {
                        let mut rng = StdRng::seed_from_u64(round * 100 + owner as u64);
                        let mut mine: HashMap<i64, RowId> = st
                            .scan_all(tid)
                            .unwrap()
                            .into_iter()
                            .filter(|(_, r)| r[0] == Value::Int(owner))
                            .map(|(rid, r)| (r[1].as_i64().unwrap(), rid))
                            .collect();
                        start.wait();
                        for _ in 0..30 {
                            let txn = st.begin();
                            let before = mine.clone();
                            let ks: Vec<i64> = mine.keys().copied().collect();
                            let k = ks[rng.gen_range(0..ks.len())];
                            let fresh = (0..)
                                .map(|_| rng.gen_range(0..1000))
                                .find(|n| !mine.contains_key(n))
                                .unwrap();
                            match rng.gen_range(0..3) {
                                0 => {
                                    let rid = st.insert_row(&txn, tid, &row(owner, fresh)).unwrap();
                                    mine.insert(fresh, rid);
                                }
                                1 if mine.len() > 1 => {
                                    st.delete_row(&txn, tid, mine.remove(&k).unwrap()).unwrap();
                                }
                                _ => {
                                    let old = mine.remove(&k).unwrap();
                                    let rid =
                                        st.update_row(&txn, tid, old, &row(owner, fresh)).unwrap();
                                    mine.insert(fresh, rid);
                                }
                            }
                            if rng.gen_range(0..4) == 0 {
                                st.abort(&txn).unwrap();
                                mine = before;
                            } else {
                                st.commit(&txn).unwrap();
                            }
                        }
                    });
                }
            });
            assert_index_matches_scan(&st, tid, &schema.primary_key);
            st.checkpoint().unwrap();
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// After committed, aborted and (at the crash) loser transactions,
        /// with checkpoints between some of them, the index built after the
        /// restart answers every key prefix exactly as a full scan does.
        #[test]
        fn restart_rebuilds_exact_indexes(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let schemas = keyed_schemas();
            let (disk, store) = fresh_durable();
            let tids: Vec<TableId>;
            {
                let st = bootstrap(Arc::clone(&disk), Arc::clone(&store), Default::default()).unwrap();
                tids = schemas.iter().map(|s| st.create_table(s.clone()).unwrap()).collect();
                for _ in 0..20 {
                    let txn = st.begin();
                    random_ops(&st, &txn, &tids, &mut rng);
                    if rng.gen_range(0..4) == 0 {
                        st.abort(&txn).unwrap();
                    } else {
                        st.commit(&txn).unwrap();
                    }
                    if rng.gen_range(0..6) == 0 {
                        st.checkpoint().unwrap();
                    }
                }
                let loser = st.begin();
                random_ops(&st, &loser, &tids, &mut rng);
                st.log.flush_all().unwrap();
                // Crash: the loser never ends.
            }
            let (st2, _) = recover(disk, store, Default::default()).unwrap();
            for (schema, &tid) in schemas.iter().zip(&tids) {
                assert_index_matches_scan(&st2, tid, &schema.primary_key);
            }
        }
    }
}
