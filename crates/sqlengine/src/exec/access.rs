//! Access paths to a base table's rows. [`choose`] takes the longest
//! primary-key prefix a statement's `col = const` conjuncts pin: every key
//! column gives a point read, some leading columns an index prefix scan,
//! none a full heap scan. [`collect`] reads the rows of a path under locks
//! of the path's granularity, so SELECT, UPDATE and DELETE share one
//! locking discipline:
//!
//! - a key path takes the intention mode on the table and on each shorter
//!   prefix, then S (reads) or X (writes) on the key or prefix itself;
//! - a full scan takes table S or X.
//!
//! An INSERT locks its row's key the same way, so under strict 2PL no row
//! can appear under, or vanish from, a prefix another transaction has
//! scanned: a prefix scan is phantom-safe.

use std::collections::HashMap;

use super::binding::BExpr;
use super::eval::{eval, truthy, Env};
use super::ExecCtx;
use crate::error::Result;
use crate::schema::{TableId, TableSchema};
use crate::sql::ast::{BinOp, Expr};
use crate::storage::heap::KeyBytes;
use crate::storage::RowId;
use crate::txn::locks::LockMode;
use crate::types::{DataType, Row, Value};

/// How a statement reaches a base table's rows.
#[derive(Debug)]
pub(crate) enum AccessPath {
    /// No key column pinned: heap scan under a table lock.
    Full,
    /// The leading key columns pinned (all of them: a point read).
    Key(KeyBytes),
}

/// The access path for `conjuncts` (top-level `AND` terms) over `schema`.
pub(crate) fn choose(ctx: &ExecCtx, schema: &TableSchema, conjuncts: &[&Expr]) -> AccessPath {
    let mut pinned: HashMap<usize, Value> = HashMap::new();
    for c in conjuncts {
        let Expr::Binary {
            op: BinOp::Eq,
            left,
            right,
        } = c
        else {
            continue;
        };
        let (col, lit) = match (&**left, &**right) {
            (Expr::Column { name, .. }, other) | (other, Expr::Column { name, .. }) => {
                match const_value(ctx, other) {
                    Some(v) => (name, v),
                    None => continue,
                }
            }
            _ => continue,
        };
        if let Some(i) = schema.col_index(col) {
            pinned.entry(i).or_insert(lit);
        }
    }
    let mut key = KeyBytes::default();
    for &i in &schema.primary_key {
        let Some(v) = pinned
            .remove(&i)
            .and_then(|v| key_value(v, schema.columns[i].dtype))
        else {
            break;
        };
        key.push(&v);
    }
    if key.columns() == 0 {
        AccessPath::Full
    } else {
        AccessPath::Key(key)
    }
}

/// `v` as a key column of type `dtype`, for the coercions under which SQL
/// equality with the column is byte equality of the key encodings — so
/// every row the filter keeps lies under the prefix. Other constants pin
/// nothing, and the filter alone decides.
fn key_value(v: Value, dtype: DataType) -> Option<Value> {
    match (&v, dtype) {
        (Value::Int(_), DataType::Int | DataType::Float)
        | (Value::Float(_), DataType::Float)
        | (Value::Str(_), DataType::Str | DataType::Date)
        | (Value::Date(_), DataType::Date) => v.coerce(dtype).ok(),
        _ => None,
    }
}

fn const_value(ctx: &ExecCtx, e: &Expr) -> Option<Value> {
    match e {
        Expr::Literal(v) => Some(v.clone()),
        Expr::Neg(inner) => match const_value(ctx, inner)? {
            Value::Int(i) => Some(Value::Int(-i)),
            Value::Float(f) => Some(Value::Float(-f)),
            _ => None,
        },
        Expr::Param(p) => ctx.params.get(&p.to_ascii_lowercase()).cloned(),
        _ => None,
    }
}

/// Which of `schema`'s columns a statement reads: `None` (all of them)
/// unless the statement's SELECT entry pruned its reads to the column
/// names it references (`ExecCtx::columns`).
pub(crate) fn column_mask(ctx: &ExecCtx, schema: &TableSchema) -> Option<Vec<bool>> {
    let names = ctx.columns.as_ref()?;
    let keep: Vec<bool> = schema
        .columns
        .iter()
        .map(|c| names.contains(&c.name.to_ascii_lowercase()))
        .collect();
    keep.contains(&false).then_some(keep)
}

/// The rows of `table` on `path` that pass `filter`, in heap order, read
/// under `mode` (S to read, X to write) at the path's granularity, with
/// the columns `keep` leaves out decoded as NULL.
pub(crate) fn collect(
    ctx: &ExecCtx,
    table: TableId,
    path: &AccessPath,
    filter: Option<&BExpr>,
    mode: LockMode,
    keep: Option<&[bool]>,
) -> Result<Vec<(RowId, Row)>> {
    let passes = |row: &Row| -> Result<bool> {
        Ok(match filter {
            Some(f) => truthy(&eval(ctx, &Env::base(row), f)?) == Some(true),
            None => true,
        })
    };
    let mut out = Vec::new();
    match path {
        AccessPath::Key(key) => {
            ctx.storage.lock_key(&ctx.txn, table, key, mode)?;
            let rids = ctx.storage.key_range(table, key)?;
            for (rid, row) in ctx.storage.fetch_rows(&rids, keep)? {
                if passes(&row)? {
                    out.push((rid, row));
                }
            }
        }
        AccessPath::Full => {
            ctx.storage.lock_table(&ctx.txn, table, mode)?;
            for item in ctx.storage.scan(table, keep)? {
                let (rid, row) = item?;
                if passes(&row)? {
                    out.push((rid, row));
                }
            }
        }
    }
    Ok(out)
}
