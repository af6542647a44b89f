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
use crate::schema::{decode_row, encode_row, encode_value, TableId, TableSchema};
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

    /// Rebuild every PK index by scanning heaps (restart path).
    pub fn rebuild_indexes(&self) -> Result<()> {
        for name in self.catalog.table_names() {
            // Names come from the catalog itself, but a concurrent DROP can
            // remove the entry between the two calls — skip it if so.
            let Some(meta) = self.catalog.resolve(&name) else {
                continue;
            };
            let (id, schema, pages) = {
                let m = meta.read();
                (m.id, m.schema.clone(), m.pages.clone())
            };
            if schema.primary_key.is_empty() {
                continue;
            }
            let idx = self.indexes.index_for(id);
            let mut map = idx.lock();
            map.clear();
            for pid in pages {
                let guard = self.pool.fetch(pid)?;
                let entries: Vec<(u16, Vec<u8>)> = with_page(&guard, |p| {
                    p.live_slots()
                        .filter_map(|s| p.get(s).map(|b| (s, b.to_vec())))
                        .collect()
                });
                for (slot, bytes) in entries {
                    let row = decode_row(&bytes)?;
                    if let Some(k) = pk_key(&schema, &row) {
                        map.insert(k.bytes, RowId { page: pid, slot });
                    }
                }
            }
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
