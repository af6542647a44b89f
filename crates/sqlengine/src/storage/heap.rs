//! Heap-file row operations, ordered primary-key indexes, and the
//! [`Storage`] kernel that ties the catalog, buffer pool, WAL, locks and
//! transactions together.

use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Mutex, RwLock};

use super::buffer::{with_page, with_page_mut, BufferPool};
use super::disk::PageId;
use super::page::Page;
use crate::catalog::Catalog;
use crate::error::{Error, Result};
use crate::schema::{
    decode_row, decode_row_masked, encode_row, encode_value, encoded_key, TableId, TableSchema,
};
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
/// (built from the heap on first use, see [`Storage::pk_index`]) and
/// ordered, so the keys under any leading-column prefix form one
/// contiguous range of the map.
type PkIndex = Arc<Mutex<BTreeMap<Vec<u8>, RowId>>>;

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
    /// The PK indexes built so far; a table without an entry has not been
    /// keyed since the restart.
    indexes: RwLock<HashMap<TableId, PkIndex>>,
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
            indexes: RwLock::default(),
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
        // Built before the page changes, so a failed build undoes nothing.
        let index = self.key_index(e.table)?;
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
            let bytes = index
                .as_ref()
                .and_then(|_| page.get_raw(e.slot).map(|b| b.to_vec()));
            match e.action {
                ClrAction::Tombstone => page.tombstone(e.slot)?,
                ClrAction::Untombstone => page.untombstone(e.slot)?,
            }
            page.set_lsn(lsn);
            bytes
        };
        if let (Some(bytes), Some((cols, index))) = (row_bytes, index) {
            let key = encoded_key(&bytes, &cols, &mut Vec::new())?;
            let mut map = index.lock();
            match e.action {
                ClrAction::Tombstone => map.remove(&key),
                ClrAction::Untombstone => map.insert(
                    key,
                    RowId {
                        page: e.page,
                        slot: e.slot,
                    },
                ),
            };
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
        self.indexes.write().remove(&id);
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
        let key = match pk_key(&schema, row) {
            Some(k) => Some((k.bytes, self.pk_index(table)?)),
            None => None,
        };
        if let Some((k, index)) = &key {
            if index.lock().contains_key(k) {
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
        if let Some((k, index)) = key {
            index.lock().insert(k, rid);
        }
        Ok(rid)
    }

    /// Delete the row at `rid`, returning its old contents.
    pub fn delete_row(&self, txn: &TxnHandle, table: TableId, rid: RowId) -> Result<Row> {
        let guard = self.pool.fetch(rid.page)?;
        // Built before the page changes, so a failed build deletes nothing.
        let index = self.key_index(table)?;
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
        if let Some((cols, index)) = index {
            let key = encoded_key(&old, &cols, &mut Vec::new())?;
            index.lock().remove(&key);
        }
        decode_row(&old)
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

    // -- PK indexes -------------------------------------------------------------

    /// The PK index of `table`, built from its heap the first time any
    /// path needs it. The build holds page latches only, one page at a
    /// time, and installs its map first-writer-wins: every insert or delete
    /// applies its index step to the map this returns, which is the
    /// installed one, after its page step, so a row changed while a losing
    /// build ran is right in the winner's map whether or not that build saw
    /// the change. A build that fails installs nothing (the next access
    /// builds again), and one that finishes after `DROP TABLE` installs
    /// nothing.
    fn pk_index(&self, table: TableId) -> Result<PkIndex> {
        if let Some(index) = self.indexes.read().get(&table) {
            return Ok(Arc::clone(index));
        }
        let built = self.build_index(table)?;
        let mut indexes = self.indexes.write();
        if self.catalog.get(table).is_none() {
            return Err(Error::NotFound(format!("table id {table}")));
        }
        let index = indexes
            .entry(table)
            .or_insert_with(|| Arc::new(Mutex::new(built)));
        Ok(Arc::clone(index))
    }

    /// The PK columns and index of `table`, or `None` for a keyless or
    /// dropped table.
    fn key_index(&self, table: TableId) -> Result<Option<(Vec<usize>, PkIndex)>> {
        let Some(meta) = self.catalog.get(table) else {
            return Ok(None);
        };
        let cols = meta.read().schema.primary_key.clone();
        if cols.is_empty() {
            return Ok(None);
        }
        Ok(Some((cols, self.pk_index(table)?)))
    }

    /// Key `table`'s heap (empty for a keyless table). Each key is cut
    /// from its encoded row without decoding it (`encoded_key` still
    /// validates the whole row), and the map is bulk-built from the
    /// `(key, RowId)` pairs in heap order: `collect` sorts them stably and
    /// keeps the last of equal keys, so a later row wins, as inserting
    /// them one at a time would have it. Timed into the
    /// `sqlengine.index.build` histogram and span and counted in
    /// `sqlengine.index.builds`.
    fn build_index(&self, table: TableId) -> Result<BTreeMap<Vec<u8>, RowId>> {
        let t_build = Instant::now();
        let meta = self
            .catalog
            .get(table)
            .ok_or_else(|| Error::NotFound(format!("table id {table}")))?;
        let (name, cols, pages) = {
            let m = meta.read();
            (
                m.schema.name.clone(),
                m.schema.primary_key.clone(),
                m.pages.clone(),
            )
        };
        let mut entries = Vec::new();
        if !cols.is_empty() {
            let mut bounds = Vec::new();
            for pid in pages {
                let guard = self.pool.fetch(pid)?;
                with_page(&guard, |p| -> Result<()> {
                    for slot in p.live_slots() {
                        if let Some(bytes) = p.get(slot) {
                            let key = encoded_key(bytes, &cols, &mut bounds)?;
                            entries.push((key, RowId { page: pid, slot }));
                        }
                    }
                    Ok(())
                })?;
            }
        }
        let map = entries.into_iter().collect();
        let metrics = obskit::metrics::global();
        metrics.record("sqlengine.index.build", t_build.elapsed());
        metrics.counter("sqlengine.index.builds").incr();
        obskit::trace::emit_span("sqlengine.index.build", t_build.elapsed(), name);
        Ok(map)
    }

    // -- reads ----------------------------------------------------------------

    /// Every row under a key prefix (a full key gives at most one), in heap
    /// order: sorted `RowId`s, since a table's pages are kept in id order.
    pub(crate) fn key_range(&self, table: TableId, prefix: &KeyBytes) -> Result<Vec<RowId>> {
        let p = prefix.bytes.as_slice();
        let mut rids: Vec<RowId> = self
            .pk_index(table)?
            .lock()
            .range::<[u8], _>((Bound::Included(p), Bound::Unbounded))
            .take_while(|(k, _)| k.starts_with(p))
            .map(|(_, &rid)| rid)
            .collect();
        rids.sort_unstable();
        Ok(rids)
    }

    /// Fetch the live rows at sorted `rids`, latching each page once and
    /// decoding only the columns `keep` marks (see [`decode_row_masked`]).
    pub(crate) fn fetch_rows(
        &self,
        rids: &[RowId],
        keep: Option<&[bool]>,
    ) -> Result<Vec<(RowId, Row)>> {
        let mut out = Vec::with_capacity(rids.len());
        for run in rids.chunk_by(|a, b| a.page == b.page) {
            let guard = self.pool.fetch(run[0].page)?;
            with_page(&guard, |p| -> Result<()> {
                for &rid in run {
                    if let Some(bytes) = p.get(rid.slot) {
                        out.push((rid, decode_row_masked(bytes, keep)?));
                    }
                }
                Ok(())
            })?;
        }
        Ok(out)
    }

    /// Sequential scan decoding only the columns `keep` marks (see
    /// [`decode_row_masked`]). Materializes one page at a time; the
    /// iterator owns a reference to the storage so it can outlive the
    /// calling frame (lazy result-set streaming). On a disk with a read
    /// latency the scan reads ahead (see [`ScanIter`]).
    pub fn scan(self: &Arc<Self>, table: TableId, keep: Option<&[bool]>) -> Result<ScanIter> {
        let meta = self
            .catalog
            .get(table)
            .ok_or_else(|| Error::NotFound(format!("table id {table}")))?;
        let pages = meta.read().pages.clone();
        let reads_ahead = !self.pool.disk().model().read_latency.is_zero();
        Ok(ScanIter {
            storage: Arc::clone(self),
            pages,
            page_idx: 0,
            buffered: Vec::new().into_iter(),
            keep: keep.map(<[bool]>::to_vec),
            requested: 0,
            clock: reads_ahead.then(Instant::now),
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
            with_page(&guard, |p| -> Result<()> {
                for slot in p.live_slots() {
                    if let Some(bytes) = p.get(slot) {
                        out.push((RowId { page: pid, slot }, decode_row(bytes)?));
                    }
                }
                Ok(())
            })?;
        }
        Ok(out)
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

/// Pages per read-ahead request: a 64 KiB extent, SQL Server's unit of
/// space allocation and of its sequential read-ahead.
const EXTENT_PAGES: usize = 8;

/// Extents a scan keeps requested beyond the one holding its current page.
const EXTENTS_AHEAD: usize = 2;

/// Page-at-a-time scan iterator, decoding each page's rows at once under
/// its latch. Owns its storage handle so lazy result cursors can carry it
/// across call frames.
///
/// On a disk with a read latency the scan reads ahead: before it fetches
/// a page, the extent holding it and the next [`EXTENTS_AHEAD`] extents of
/// the table's page list have been requested with
/// [`BufferPool::read_ahead`] on the scan's own device clock, so the
/// device time of later pages passes while this one's rows are processed,
/// and a fetch that must wait for its page sleeps outside the pool's
/// locks. A zero-latency disk never reads ahead.
pub struct ScanIter {
    storage: Arc<Storage>,
    pages: Vec<PageId>,
    page_idx: usize,
    buffered: std::vec::IntoIter<Result<(RowId, Row)>>,
    keep: Option<Vec<bool>>,
    /// Pages `pages[..requested]` have been requested by read-ahead.
    requested: usize,
    /// When the scan's last read-ahead request completes; `None` when
    /// the disk has no read latency.
    clock: Option<Instant>,
}

impl ScanIter {
    /// Keep the extent of `pages[page_idx]` and the ones after it
    /// requested.
    fn read_ahead(&mut self) {
        let Some(clock) = &mut self.clock else {
            return;
        };
        let want = ((self.page_idx / EXTENT_PAGES + 1 + EXTENTS_AHEAD) * EXTENT_PAGES)
            .min(self.pages.len());
        while self.requested < want {
            let end = (self.requested + EXTENT_PAGES).min(want);
            self.storage
                .pool
                .read_ahead(&self.pages[self.requested..end], clock);
            self.requested = end;
        }
    }
}

impl Iterator for ScanIter {
    type Item = Result<(RowId, Row)>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(row) = self.buffered.next() {
                return Some(row);
            }
            self.read_ahead();
            let pid = *self.pages.get(self.page_idx)?;
            self.page_idx += 1;
            let guard = match self.storage.pool.fetch(pid) {
                Ok(g) => g,
                Err(e) => return Some(Err(e)),
            };
            let keep = self.keep.as_deref();
            let rows: Vec<_> = with_page(&guard, |p| {
                p.live_slots()
                    .filter_map(|s| {
                        let rid = RowId { page: pid, slot: s };
                        p.get(s)
                            .map(|b| decode_row_masked(b, keep).map(|r| (rid, r)))
                    })
                    .collect()
            });
            self.buffered = rows.into_iter();
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

    /// `row` re-encoded, so rows holding NaN floats compare by value.
    fn encoded(row: &[Value]) -> Vec<u8> {
        let mut bytes = Vec::new();
        encode_row(row, &mut bytes);
        bytes
    }

    /// [`decode_row_masked`] agrees with decoding every column and then
    /// setting the ones `keep` leaves out to NULL, or gives
    /// `Error::Corruption` where that would: damaged bytes, or a `keep`
    /// that is not one entry per column.
    fn assert_masked_agrees(bytes: &[u8], keep: &[bool]) {
        let got = decode_row_masked(bytes, Some(keep));
        match decode_row(bytes) {
            Ok(row) if row.len() == keep.len() => {
                let want: Row = row
                    .into_iter()
                    .zip(keep)
                    .map(|(v, &k)| if k { v } else { Value::Null })
                    .collect();
                assert_eq!(got.map(|r| encoded(&r)).ok(), Some(encoded(&want)));
            }
            Ok(_) => assert!(is_corruption(&got), "mask of the wrong length accepted"),
            Err(_) => assert!(
                is_corruption(&got),
                "decode_row_masked accepted what decode_row refused"
            ),
        }
    }

    fn mask(bits: u64, n: usize) -> Vec<bool> {
        (0..n).map(|i| bits >> (i % 64) & 1 == 1).collect()
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
        fn decode_row_masked_nulls_exactly_the_left_out_columns(
            row in prop::collection::vec(arb_value(), 0..8),
            bits in any::<u64>(),
        ) {
            let bytes = encoded(&row);
            assert_masked_agrees(&bytes, &mask(bits, row.len()));
            let all = vec![true; row.len()];
            let got = decode_row_masked(&bytes, Some(&all)).unwrap();
            prop_assert_eq!(encoded(&got), encoded(&decode_row(&bytes).unwrap()));
            prop_assert_eq!(encoded(&decode_row_masked(&bytes, None).unwrap()), bytes.clone());
            // A mask one entry too long or too short is corruption.
            assert_masked_agrees(&bytes, &mask(bits, row.len() + 1));
            if !row.is_empty() {
                assert_masked_agrees(&bytes, &mask(bits, row.len() - 1));
            }
        }

        /// Truncation, a bad tag, bad UTF-8 and arbitrary byte damage,
        /// under any mask: both decoders refuse or both agree.
        #[test]
        fn decode_row_masked_refuses_what_decode_row_refuses(
            row in prop::collection::vec(arb_value(), 1..8),
            bits in any::<u64>(),
            at in any::<u16>(),
            byte in any::<u8>(),
        ) {
            let bytes = encoded(&row);
            let keep = mask(bits, row.len());
            let offsets = value_offsets(&row);

            let cut = at as usize % bytes.len();
            assert_masked_agrees(&bytes[..cut], &keep);

            let mut bad_tag = bytes.clone();
            bad_tag[offsets[at as usize % offsets.len()]] = 5 + byte % 251;
            assert_masked_agrees(&bad_tag, &keep);

            for (v, &off) in row.iter().zip(&offsets) {
                if let Value::Str(s) = v {
                    if !s.is_empty() {
                        let mut bad_utf8 = bytes.clone();
                        bad_utf8[off + 5] = 0xFF;
                        prop_assert!(is_corruption(&decode_row_masked(&bad_utf8, Some(&keep))));
                    }
                }
            }

            let mut damaged = bytes.clone();
            damaged[at as usize % bytes.len()] = byte;
            assert_masked_agrees(&damaged, &keep);
        }

        #[test]
        fn decode_row_masked_agrees_on_garbage(
            bytes in prop::collection::vec(any::<u8>(), 0..64),
            bits in any::<u64>(),
            n in 0usize..8,
        ) {
            assert_masked_agrees(&bytes, &mask(bits, n));
        }

        #[test]
        fn encoded_key_agrees_on_garbage(
            bytes in prop::collection::vec(any::<u8>(), 0..64),
            cols in prop::collection::vec(0usize..6, 1..4),
        ) {
            assert_agrees(&bytes, &cols);
        }
    }

    mod read_ahead {
        use std::time::{Duration, Instant};

        use super::*;
        use crate::schema::Column;
        use crate::storage::disk::{DiskModel, MemDisk};
        use crate::types::DataType;
        use crate::wal::log::LogStore;
        use crate::wal::recovery::{bootstrap, recover, RecoveryConfig};

        const LATENCY: Duration = Duration::from_micros(200);

        /// A keyless table of more than `pages` pages on a disk with a read
        /// latency, checkpointed and reopened by recovery, which reads none
        /// of it, so that none of it is cached.
        fn cold_table(pages: usize) -> (Arc<Storage>, TableId) {
            let disk = Arc::new(MemDisk::new(DiskModel {
                read_latency: LATENCY,
                write_latency: Duration::ZERO,
            }));
            let store = Arc::new(LogStore::new());
            let config = || RecoveryConfig {
                pool_capacity: 256,
                ..Default::default()
            };
            let st = bootstrap(Arc::clone(&disk), Arc::clone(&store), config()).unwrap();
            let schema = TableSchema::new(
                "t",
                vec![
                    Column::new("id", DataType::Int),
                    Column::new("pad", DataType::Str),
                ],
            );
            let tid = st.create_table(schema).unwrap();
            let txn = st.begin();
            for i in 0.. {
                if st.catalog.get(tid).unwrap().read().pages.len() > pages {
                    break;
                }
                st.insert_row(&txn, tid, &[Value::Int(i), Value::Str("x".repeat(500))])
                    .unwrap();
            }
            st.commit(&txn).unwrap();
            st.checkpoint().unwrap();
            drop(st);
            let (st, _) = recover(disk, store, config()).unwrap();
            (Arc::new(st), tid)
        }

        #[test]
        fn scan_pays_full_device_time_for_each_uncached_page_once() {
            let (st, tid) = cold_table(40);
            let n = st.catalog.get(tid).unwrap().read().pages.len() as u64;
            let disk = Arc::clone(st.pool.disk());
            let before = disk.stats().snapshot();
            let t0 = Instant::now();
            let rows = st.scan(tid, None).unwrap().count();
            let took = t0.elapsed();
            let io = disk.stats().snapshot().delta(before);
            assert!(rows > 0);
            assert_eq!(io.reads, n, "one read per uncached page");
            assert_eq!(io.busy, LATENCY * n as u32, "each read charged in full");
            assert!(took >= LATENCY * n as u32, "{n} reads took only {took:?}");

            // The table is cached now: a re-scan reads nothing.
            let before = disk.stats().snapshot();
            assert_eq!(st.scan(tid, None).unwrap().count(), rows);
            assert_eq!(disk.stats().snapshot().delta(before).reads, 0);
        }
    }
}
