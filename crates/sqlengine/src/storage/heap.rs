//! Heap-file row operations, ordered primary-key indexes, and the
//! [`Storage`] kernel that ties the catalog, buffer pool, WAL, locks and
//! transactions together.

use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use super::buffer::{with_page, with_page_mut, BufferPool};
use super::disk::PageId;
use super::page::Page;
use crate::catalog::Catalog;
use crate::error::{Error, Result};
use crate::schema::{decode_row, encode_row, encode_value, encoded_key, TableId, TableSchema};
use crate::txn::locks::{LockManager, LockMode, LockTarget};
use crate::txn::{TxnHandle, TxnManager, UndoEntry};
use crate::types::{Row, Value};
use crate::wal::log::{ClrAction, LogManager, LogRecord};

/// Physical row address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RowId {
    /// Page containing the row.
    pub page: PageId,
    /// Slot within the page.
    pub slot: u16,
}

/// One table's primary-key index: [`KeyBytes`] → row location. Volatile
/// (rebuilt at recovery) and ordered, so the keys under any leading-column
/// prefix form one contiguous range of the map.
type PkIndex = Arc<Mutex<BTreeMap<Vec<u8>, RowId>>>;

#[derive(Default)]
pub struct IndexManager {
    maps: RwLock<HashMap<TableId, PkIndex>>,
}

impl IndexManager {
    fn index_for(&self, table: TableId) -> PkIndex {
        if let Some(m) = self.maps.read().get(&table) {
            return Arc::clone(m);
        }
        let mut maps = self.maps.write();
        Arc::clone(maps.entry(table).or_default())
    }

    fn drop_table(&self, table: TableId) {
        self.maps.write().remove(&table);
    }
}

/// An encoded primary key, or a prefix of one: the concatenation of the
/// leading key columns' self-delimiting [`encode_value`] encodings, so a
/// prefix's bytes are a byte prefix of every key under it.
#[derive(Debug, Default)]
pub(crate) struct KeyBytes {
    /// The concatenated column encodings.
    bytes: Vec<u8>,
    /// Where each column's encoding ends in `bytes`.
    ends: Vec<usize>,
}

impl KeyBytes {
    /// Append the next key column's value (already of the column's type).
    pub(crate) fn push(&mut self, v: &Value) {
        match v {
            // SQL equality has -0.0 = 0.0, so the key has one encoding.
            Value::Float(f) if *f == 0.0 => encode_value(&Value::Float(0.0), &mut self.bytes),
            v => encode_value(v, &mut self.bytes),
        }
        self.ends.push(self.bytes.len());
    }

    /// Number of key columns encoded.
    pub(crate) fn columns(&self) -> usize {
        self.ends.len()
    }

    /// The bytes of each proper prefix, shortest first.
    fn proper_prefixes(&self) -> impl Iterator<Item = &[u8]> {
        let n = self.ends.len().saturating_sub(1);
        self.ends[..n].iter().map(|&e| &self.bytes[..e])
    }
}

/// The full primary key of a conformed row (`None` for a keyless table).
pub(crate) fn pk_key(schema: &TableSchema, row: &[Value]) -> Option<KeyBytes> {
    if schema.primary_key.is_empty() {
        return None;
    }
    let mut key = KeyBytes::default();
    for &i in &schema.primary_key {
        key.push(&row[i]);
    }
    Some(key)
}

/// The storage kernel: everything volatile the engine needs to run SQL.
pub struct Storage {
    /// Durable table metadata.
    pub catalog: Arc<Catalog>,
    /// Page cache.
    pub pool: Arc<BufferPool>,
    /// Write-ahead log front end.
    pub log: Arc<LogManager>,
    /// Multi-granularity lock manager.
    pub locks: LockManager,
    /// Transaction-id issuer.
    pub txns: TxnManager,
    indexes: IndexManager,
}

impl Storage {
    /// Assemble a storage kernel from recovered parts.
    pub fn new(
        catalog: Arc<Catalog>,
        pool: Arc<BufferPool>,
        log: Arc<LogManager>,
        txns: TxnManager,
    ) -> Self {
        Storage {
            catalog,
            pool,
            log,
            locks: LockManager::default(),
            txns,
            indexes: IndexManager::default(),
        }
    }

    // -- transactions --------------------------------------------------------

    /// Begin a transaction (logs `Begin`).
    pub fn begin(&self) -> TxnHandle {
        let txn = self.txns.begin();
        self.log.append(&LogRecord::Begin { txn: txn.id });
        txn
    }

    /// Commit: log, force the log (possibly riding a group-commit
    /// batch leader's fsync), release locks.
    pub fn commit(&self, txn: &TxnHandle) -> Result<()> {
        let lsn = self.log.append(&LogRecord::Commit { txn: txn.id });
        self.log.commit_flush(lsn)?;
        // Undo info no longer needed.
        txn.take_undo_reversed();
        self.locks.release_all(txn.id, txn.take_locks());
        Ok(())
    }

    /// Abort: apply undo actions (logging CLRs), log Abort, release locks.
    pub fn abort(&self, txn: &TxnHandle) -> Result<()> {
        for e in txn.take_undo_reversed() {
            self.apply_undo(txn, &e)?;
        }
        let lsn = self.log.append(&LogRecord::Abort { txn: txn.id });
        self.log.flush_to(lsn)?;
        self.locks.release_all(txn.id, txn.take_locks());
        Ok(())
    }

    fn apply_undo(&self, txn: &TxnHandle, e: &UndoEntry) -> Result<()> {
        let guard = self.pool.fetch(e.page)?;
        let schema_has_pk = self
            .catalog
            .get(e.table)
            .map(|m| !m.read().schema.primary_key.is_empty())
            .unwrap_or(false);
        // CLR append + page action atomically under the page latch; index
        // maintenance afterwards (page latch → index lock ordering would
        // otherwise invert against insert_row).
        let row_bytes = {
            let mut data = guard.write();
            let mut page = Page::new(&mut data);
            let lsn = self.log.append(&LogRecord::Clr {
                txn: txn.id,
                undoes: e.lsn,
                action: e.action,
                table: e.table,
                page: e.page,
                slot: e.slot,
            });
            let bytes = if schema_has_pk {
                page.get_raw(e.slot).map(|b| b.to_vec())
            } else {
                None
            };
            match e.action {
                ClrAction::Tombstone => page.tombstone(e.slot)?,
                ClrAction::Untombstone => page.untombstone(e.slot)?,
            }
            page.set_lsn(lsn);
            bytes
        };
        if let Some(bytes) = row_bytes {
            let row = decode_row(&bytes)?;
            match e.action {
                ClrAction::Tombstone => self.index_remove(e.table, &row)?,
                ClrAction::Untombstone => self.index_add_unchecked(
                    e.table,
                    &row,
                    RowId {
                        page: e.page,
                        slot: e.slot,
                    },
                )?,
            }
        }
        Ok(())
    }

    // -- DDL (top actions: logged, applied, and immediately durable) ---------

    /// Create a table (top action: survives even a following crash).
    pub fn create_table(&self, schema: TableSchema) -> Result<TableId> {
        let id = self.catalog.create_table(schema.clone())?;
        let lsn = self.log.append(&LogRecord::CreateTable {
            table_id: id,
            schema,
        });
        self.log.flush_to(lsn)?;
        Ok(id)
    }

    /// Drop a table by name (top action).
    pub fn drop_table(&self, name: &str) -> Result<()> {
        let meta = self
            .catalog
            .resolve(name)
            .ok_or_else(|| Error::NotFound(format!("table {name}")))?;
        let id = meta.read().id;
        self.catalog.drop_table(id)?;
        self.indexes.drop_table(id);
        let lsn = self.log.append(&LogRecord::DropTable { table_id: id });
        self.log.flush_to(lsn)?;
        Ok(())
    }

    /// Create (or replace) a stored procedure (top action).
    pub fn create_proc(&self, name: &str, body: &str, replace: bool) -> Result<()> {
        self.catalog.create_proc(name, body, replace)?;
        let lsn = self.log.append(&LogRecord::CreateProc {
            name: name.to_string(),
            body: body.to_string(),
        });
        self.log.flush_to(lsn)?;
        Ok(())
    }

    /// Drop a stored procedure (top action).
    pub fn drop_proc(&self, name: &str) -> Result<()> {
        self.catalog.drop_proc(name)?;
        let lsn = self.log.append(&LogRecord::DropProc {
            name: name.to_string(),
        });
        self.log.flush_to(lsn)?;
        Ok(())
    }

    // -- DML ------------------------------------------------------------------

    /// Insert a conformed row. Caller holds the table X lock.
    pub fn insert_row(&self, txn: &TxnHandle, table: TableId, row: &[Value]) -> Result<RowId> {
        let meta = self
            .catalog
            .get(table)
            .ok_or_else(|| Error::NotFound(format!("table id {table}")))?;
        let (schema, last_page) = {
            let m = meta.read();
            (m.schema.clone(), m.pages.last().copied())
        };

        // PK uniqueness.
        let key = pk_key(&schema, row).map(|k| k.bytes);
        if let Some(k) = &key {
            let idx = self.indexes.index_for(table);
            if idx.lock().contains_key(k) {
                return Err(Error::DuplicateKey(format!(
                    "table {} pk {:?}",
                    schema.name,
                    schema
                        .primary_key
                        .iter()
                        .map(|&i| row[i].to_string())
                        .collect::<Vec<_>>()
                )));
            }
        }

        let mut bytes = Vec::new();
        encode_row(row, &mut bytes);

        // Apply: the log append and the page mutation must be atomic under
        // the page's write latch — with row-level locking, transactions on
        // different rows interleave on the same page, and redo correctness
        // depends on page LSNs increasing in application order.
        let mut candidate = last_page;
        let rid = loop {
            let (pid, guard) = match candidate.take() {
                Some(pid) => (pid, self.pool.fetch(pid)?),
                None => {
                    // Allocate a fresh page (top action).
                    let (pid, guard) = self.pool.new_page(table)?;
                    let lsn = self.log.append(&LogRecord::AllocPage { table, page: pid });
                    with_page_mut(&guard, lsn, |_| Ok(()))?;
                    self.catalog.add_page(table, pid)?;
                    (pid, guard)
                }
            };
            let mut data = guard.write();
            let mut page = Page::new(&mut data);
            if !page.fits(bytes.len()) {
                continue; // allocate a new page next iteration
            }
            let slot = page.slot_count();
            let lsn = self.log.append(&LogRecord::Insert {
                txn: txn.id,
                table,
                page: pid,
                slot,
                data: bytes.clone(),
            });
            page.insert_expect(slot, &bytes)?;
            page.set_lsn(lsn);
            drop(data);
            txn.push_undo(UndoEntry {
                lsn,
                action: ClrAction::Tombstone,
                table,
                page: pid,
                slot,
            });
            break RowId { page: pid, slot };
        };
        if let Some(k) = key {
            self.indexes.index_for(table).lock().insert(k, rid);
        }
        Ok(rid)
    }

    /// Delete the row at `rid`, returning its old contents.
    pub fn delete_row(&self, txn: &TxnHandle, table: TableId, rid: RowId) -> Result<Row> {
        let guard = self.pool.fetch(rid.page)?;
        // Log append + tombstone atomically under the page latch (see
        // `insert_row` for why).
        let old = {
            let mut data = guard.write();
            let mut page = Page::new(&mut data);
            let old = page
                .get(rid.slot)
                .map(|b| b.to_vec())
                .ok_or_else(|| Error::Storage(format!("delete of missing row {rid:?}")))?;
            let lsn = self.log.append(&LogRecord::Delete {
                txn: txn.id,
                table,
                page: rid.page,
                slot: rid.slot,
            });
            page.tombstone(rid.slot)?;
            page.set_lsn(lsn);
            txn.push_undo(UndoEntry {
                lsn,
                action: ClrAction::Untombstone,
                table,
                page: rid.page,
                slot: rid.slot,
            });
            old
        };
        let old_row = decode_row(&old)?;
        self.index_remove(table, &old_row)?;
        Ok(old_row)
    }

    /// Update = delete + insert (rows are immutable in place; see page.rs).
    pub fn update_row(
        &self,
        txn: &TxnHandle,
        table: TableId,
        rid: RowId,
        new_row: &[Value],
    ) -> Result<RowId> {
        self.delete_row(txn, table, rid)?;
        self.insert_row(txn, table, new_row)
    }

    fn index_remove(&self, table: TableId, row: &[Value]) -> Result<()> {
        let Some(meta) = self.catalog.get(table) else {
            return Ok(());
        };
        let schema = meta.read().schema.clone();
        if let Some(k) = pk_key(&schema, row) {
            self.indexes.index_for(table).lock().remove(&k.bytes);
        }
        Ok(())
    }

    fn index_add_unchecked(&self, table: TableId, row: &[Value], rid: RowId) -> Result<()> {
        let Some(meta) = self.catalog.get(table) else {
            return Ok(());
        };
        let schema = meta.read().schema.clone();
        if let Some(k) = pk_key(&schema, row) {
            self.indexes.index_for(table).lock().insert(k.bytes, rid);
        }
        Ok(())
    }

    // -- reads ----------------------------------------------------------------

    /// Every row under a key prefix (a full key gives at most one), in heap
    /// order: sorted `RowId`s, since a table's pages are kept in id order.
    pub(crate) fn key_range(&self, table: TableId, prefix: &KeyBytes) -> Vec<RowId> {
        let p = prefix.bytes.as_slice();
        let mut rids: Vec<RowId> = self
            .indexes
            .index_for(table)
            .lock()
            .range::<[u8], _>((Bound::Included(p), Bound::Unbounded))
            .take_while(|(k, _)| k.starts_with(p))
            .map(|(_, &rid)| rid)
            .collect();
        rids.sort_unstable();
        rids
    }

    /// Fetch the live rows at sorted `rids`, latching each page once.
    pub(crate) fn fetch_rows(&self, rids: &[RowId]) -> Result<Vec<(RowId, Row)>> {
        let mut out = Vec::with_capacity(rids.len());
        for run in rids.chunk_by(|a, b| a.page == b.page) {
            let guard = self.pool.fetch(run[0].page)?;
            let entries: Vec<(RowId, Vec<u8>)> = with_page(&guard, |p| {
                run.iter()
                    .filter_map(|&rid| p.get(rid.slot).map(|b| (rid, b.to_vec())))
                    .collect()
            });
            for (rid, bytes) in entries {
                out.push((rid, decode_row(&bytes)?));
            }
        }
        Ok(out)
    }

    /// Sequential scan. Materializes one page at a time; the iterator owns
    /// a reference to the storage so it can outlive the calling frame
    /// (lazy result-set streaming).
    pub fn scan(self: &Arc<Self>, table: TableId) -> Result<ScanIter> {
        let meta = self
            .catalog
            .get(table)
            .ok_or_else(|| Error::NotFound(format!("table id {table}")))?;
        let pages = meta.read().pages.clone();
        Ok(ScanIter {
            storage: Arc::clone(self),
            pages,
            page_idx: 0,
            buffered: Vec::new(),
            buf_idx: 0,
        })
    }

    /// Convenience: scan fully into memory (does not require `Arc`).
    pub fn scan_all(&self, table: TableId) -> Result<Vec<(RowId, Row)>> {
        let meta = self
            .catalog
            .get(table)
            .ok_or_else(|| Error::NotFound(format!("table id {table}")))?;
        let pages = meta.read().pages.clone();
        let mut out = Vec::new();
        for pid in pages {
            let guard = self.pool.fetch(pid)?;
            let entries: Vec<(u16, Vec<u8>)> = with_page(&guard, |p| {
                p.live_slots()
                    .filter_map(|s| p.get(s).map(|b| (s, b.to_vec())))
                    .collect()
            });
            for (slot, bytes) in entries {
                out.push((RowId { page: pid, slot }, decode_row(&bytes)?));
            }
        }
        Ok(out)
    }

    /// Rebuild every PK index by scanning heaps (restart path). Each key
    /// is cut from its encoded row without decoding it (`encoded_key`
    /// still validates the whole row), and each table's map is bulk-built
    /// from its `(key, RowId)` pairs in heap order: `collect` sorts them
    /// stably and keeps the last of equal keys, so a later row wins, as
    /// inserting them one at a time would have it.
    pub fn rebuild_indexes(&self) -> Result<()> {
        let mut bounds = Vec::new();
        for name in self.catalog.table_names() {
            // Names come from the catalog itself, but a concurrent DROP can
            // remove the entry between the two calls — skip it if so.
            let Some(meta) = self.catalog.resolve(&name) else {
                continue;
            };
            let (id, key_cols, pages) = {
                let m = meta.read();
                (m.id, m.schema.primary_key.clone(), m.pages.clone())
            };
            if key_cols.is_empty() {
                continue;
            }
            let mut entries = Vec::new();
            for pid in pages {
                let guard = self.pool.fetch(pid)?;
                with_page(&guard, |p| -> Result<()> {
                    for slot in p.live_slots() {
                        if let Some(bytes) = p.get(slot) {
                            let key = encoded_key(bytes, &key_cols, &mut bounds)?;
                            entries.push((key, RowId { page: pid, slot }));
                        }
                    }
                    Ok(())
                })?;
            }
            let map: BTreeMap<Vec<u8>, RowId> = entries.into_iter().collect();
            *self.indexes.index_for(id).lock() = map;
        }
        Ok(())
    }

    // -- checkpoint -----------------------------------------------------------

    /// Quiesced checkpoint: flush data pages, snapshot the catalog, write
    /// the checkpoint record, update the master record. The caller must
    /// ensure no transactions are active.
    pub fn checkpoint(&self) -> Result<()> {
        faultkit::crashpoint!("wal.checkpoint.pre");
        let t_ckpt = std::time::Instant::now();
        self.log.flush_all()?;
        self.pool.flush_all()?;
        let snapshot = self.catalog.snapshot();
        let lsn = self.log.append(&LogRecord::Checkpoint { snapshot });
        self.log.flush_all()?;
        self.log.store().set_checkpoint(lsn);
        obskit::metrics::global().record("sqlengine.wal.checkpoint", t_ckpt.elapsed());
        obskit::trace::emit_span("sqlengine.wal.checkpoint", t_ckpt.elapsed(), String::new());
        faultkit::crashpoint!("wal.checkpoint.post");
        Ok(())
    }

    /// Verify every allocated page's checksum, repairing corrupt pages
    /// from WAL redo. See [`BufferPool::scrub`].
    pub fn scrub(&self) -> Result<crate::storage::buffer::ScrubReport> {
        self.pool.scrub()
    }

    // -- lock helpers ----------------------------------------------------------

    /// Table-granularity lock, remembered on the transaction for release.
    pub fn lock_table(&self, txn: &TxnHandle, table: TableId, mode: LockMode) -> Result<()> {
        self.lock_target(txn, LockTarget::table(table), mode)
    }

    /// Lock a key or key prefix top-down: the intention mode of `mode` on
    /// the table and on each proper prefix of `key`, then `mode` on `key`
    /// itself — a row for a full key, every row under it for a prefix.
    pub(crate) fn lock_key(
        &self,
        txn: &TxnHandle,
        table: TableId,
        key: &KeyBytes,
        mode: LockMode,
    ) -> Result<()> {
        let intent = match mode {
            LockMode::Shared | LockMode::IntentionShared => LockMode::IntentionShared,
            LockMode::Exclusive | LockMode::IntentionExclusive => LockMode::IntentionExclusive,
        };
        self.lock_table(txn, table, intent)?;
        for prefix in key.proper_prefixes() {
            self.lock_target(txn, LockTarget::row(table, row_key_hash(prefix)), intent)?;
        }
        self.lock_target(txn, LockTarget::row(table, row_key_hash(&key.bytes)), mode)
    }

    fn lock_target(&self, txn: &TxnHandle, target: LockTarget, mode: LockMode) -> Result<()> {
        if txn.holds(target, mode) {
            return Ok(());
        }
        self.locks.lock(txn.id, target, mode)?;
        txn.note_lock(target, mode);
        Ok(())
    }
}

/// FNV-1a hash of key or key-prefix bytes → lock key. A collision merges
/// two lock targets, which can only over-lock.
pub fn row_key_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Page-at-a-time scan iterator. Owns its storage handle so lazy result
/// cursors can carry it across call frames.
pub struct ScanIter {
    storage: Arc<Storage>,
    pages: Vec<PageId>,
    page_idx: usize,
    buffered: Vec<(RowId, Vec<u8>)>,
    buf_idx: usize,
}

impl Iterator for ScanIter {
    type Item = Result<(RowId, Row)>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if self.buf_idx < self.buffered.len() {
                let (rid, bytes) = &self.buffered[self.buf_idx];
                self.buf_idx += 1;
                return Some(decode_row(bytes).map(|r| (*rid, r)));
            }
            if self.page_idx >= self.pages.len() {
                return None;
            }
            let pid = self.pages[self.page_idx];
            self.page_idx += 1;
            let guard = match self.storage.pool.fetch(pid) {
                Ok(g) => g,
                Err(e) => return Some(Err(e)),
            };
            self.buffered = with_page(&guard, |p| {
                p.live_slots()
                    .filter_map(|s| p.get(s).map(|b| (RowId { page: pid, slot: s }, b.to_vec())))
                    .collect()
            });
            self.buf_idx = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// Values of every column type, with the cases key encoding must get
    /// right: both float zeros, NaN, and empty and multi-byte strings.
    fn arb_value() -> impl Strategy<Value = Value> {
        const CHARS: [char; 6] = ['a', 'Z', '0', 'é', '€', '😀'];
        prop_oneof![
            Just(Value::Null),
            any::<i64>().prop_map(Value::Int),
            prop_oneof![Just(0.0), Just(-0.0), any::<f64>()].prop_map(Value::Float),
            prop::collection::vec(0..CHARS.len(), 0..6)
                .prop_map(|ix| Value::Str(ix.into_iter().map(|i| CHARS[i]).collect())),
            any::<i32>().prop_map(Value::Date),
        ]
    }

    /// Distinct key column indexes below `n`, in draw order: leading or
    /// not, in column order or not.
    fn key_cols(picks: &[u16], n: usize) -> Vec<usize> {
        let mut cols = Vec::new();
        for &p in picks {
            let c = p as usize % n;
            if !cols.contains(&c) {
                cols.push(c);
            }
        }
        cols
    }

    fn is_corruption<T>(r: &Result<T>) -> bool {
        matches!(r, Err(Error::Corruption { .. }))
    }

    /// [`encoded_key`] agrees with decoding the row and keying it: the
    /// same bytes, or `Error::Corruption` from both.
    fn assert_agrees(bytes: &[u8], cols: &[usize]) {
        let got = encoded_key(bytes, cols, &mut Vec::new());
        match decode_row(bytes) {
            Ok(row) if cols.iter().all(|&c| c < row.len()) => {
                let schema = TableSchema::new("t", Vec::new()).with_primary_key(cols.to_vec());
                let want = pk_key(&schema, &row).map(|k| k.bytes);
                assert_eq!(got.ok(), want, "row {row:?} key {cols:?}");
            }
            Ok(_) => assert!(is_corruption(&got), "key {cols:?} past the row"),
            Err(e) => {
                assert!(matches!(e, Error::Corruption { .. }), "decode_row: {e}");
                assert!(
                    is_corruption(&got),
                    "encoded_key accepted what decode_row refused"
                );
            }
        }
    }

    /// Where each value's encoding starts in the encoded row.
    fn value_offsets(row: &[Value]) -> Vec<usize> {
        let mut buf = vec![0, 0];
        row.iter()
            .map(|v| {
                let at = buf.len();
                encode_value(v, &mut buf);
                at
            })
            .collect()
    }

    #[test]
    fn encoded_key_folds_negative_zero_in_any_key_order() {
        let row = vec![
            Value::Int(-3),
            Value::Str("é€".into()),
            Value::Float(-0.0),
            Value::Str(String::new()),
        ];
        let mut bytes = Vec::new();
        encode_row(&row, &mut bytes);
        for cols in [vec![2, 0], vec![3, 1], vec![1, 2, 3, 0]] {
            assert_agrees(&bytes, &cols);
        }
        let mut pos_zero = KeyBytes::default();
        pos_zero.push(&Value::Float(0.0));
        assert_eq!(
            encoded_key(&bytes, &[2], &mut Vec::new()).unwrap(),
            pos_zero.bytes
        );
        // A key column past the row's column count is corruption.
        assert!(is_corruption(&encoded_key(
            &bytes,
            &[0, 4],
            &mut Vec::new()
        )));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn encoded_key_matches_decoded_pk_key(
            row in prop::collection::vec(arb_value(), 1..8),
            picks in prop::collection::vec(any::<u16>(), 1..4),
        ) {
            let mut bytes = Vec::new();
            encode_row(&row, &mut bytes);
            let cols = key_cols(&picks, row.len());
            prop_assert!(encoded_key(&bytes, &cols, &mut Vec::new()).is_ok());
            assert_agrees(&bytes, &cols);
        }

        /// Truncation, a bad tag, bad UTF-8 and arbitrary byte damage:
        /// both paths refuse or both agree.
        #[test]
        fn encoded_key_refuses_what_decode_row_refuses(
            row in prop::collection::vec(arb_value(), 1..8),
            picks in prop::collection::vec(any::<u16>(), 1..4),
            at in any::<u16>(),
            byte in any::<u8>(),
        ) {
            let mut bytes = Vec::new();
            encode_row(&row, &mut bytes);
            let cols = key_cols(&picks, row.len());
            let offsets = value_offsets(&row);

            let cut = at as usize % bytes.len();
            prop_assert!(decode_row(&bytes[..cut]).is_err());
            assert_agrees(&bytes[..cut], &cols);

            let mut bad_tag = bytes.clone();
            bad_tag[offsets[at as usize % offsets.len()]] = 5 + byte % 251;
            prop_assert!(decode_row(&bad_tag).is_err());
            assert_agrees(&bad_tag, &cols);

            // A string's first byte set to 0xFF (never valid UTF-8).
            for (v, &off) in row.iter().zip(&offsets) {
                if let Value::Str(s) = v {
                    if !s.is_empty() {
                        let mut bad_utf8 = bytes.clone();
                        bad_utf8[off + 5] = 0xFF;
                        prop_assert!(decode_row(&bad_utf8).is_err());
                        assert_agrees(&bad_utf8, &cols);
                    }
                }
            }

            let mut damaged = bytes.clone();
            damaged[at as usize % bytes.len()] = byte;
            assert_agrees(&damaged, &cols);
        }

        #[test]
        fn encoded_key_agrees_on_garbage(
            bytes in prop::collection::vec(any::<u8>(), 0..64),
            cols in prop::collection::vec(0usize..6, 1..4),
        ) {
            assert_agrees(&bytes, &cols);
        }
    }
}
