//! Column pruning is invisible: every SELECT whose base-table reads
//! decode only the columns it references returns exactly what the same
//! statement returns when every column is decoded. The reference read
//! goes through `sqlengine::exec::execute_select_reading` with no column
//! set; the pruned read is the ordinary statement path.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use sqlengine::exec::select::referenced_columns;
use sqlengine::exec::{execute_select_reading, ExecCtx, TempTables};
use sqlengine::sql::ast::Stmt;
use sqlengine::sql::parser::parse_one;
use sqlengine::{Column, Durable, Engine, Row};
use workloads::client::EngineClient;
use workloads::tpch::{self, queries, TpchScale};

struct Db {
    engine: Arc<Engine>,
    sid: u64,
    _client: EngineClient,
    _durable: Durable,
}

fn tpch_db() -> Db {
    let durable = Durable::new(Default::default());
    let engine = Arc::new(Engine::recover(&durable, Default::default()).unwrap());
    let client = EngineClient::new(Arc::clone(&engine)).unwrap();
    tpch::load(&client, TpchScale::new(0.01), 7).unwrap();
    let sid = engine.create_session().unwrap();
    Db {
        engine,
        sid,
        _client: client,
        _durable: durable,
    }
}

/// `sql` read with every column decoded, in a transaction of its own.
fn all_columns(engine: &Engine, sql: &str) -> (Vec<Column>, Vec<Row>) {
    let Stmt::Select(q) = parse_one(sql).unwrap() else {
        panic!("not a SELECT: {sql}");
    };
    let storage = Arc::clone(engine.storage());
    let ctx = ExecCtx {
        txn: Arc::new(storage.begin()),
        storage: Arc::clone(&storage),
        temps: Arc::new(Mutex::new(TempTables::default())),
        params: Arc::new(HashMap::new()),
        depth: 0,
        columns: None,
    };
    let rows = execute_select_reading(&ctx, &q, None).unwrap();
    let schema = rows.schema.clone();
    let rows = rows.collect::<sqlengine::Result<Vec<Row>>>().unwrap();
    storage.commit(&ctx.txn).unwrap();
    (schema, rows)
}

fn assert_pruning_invisible(db: &Db, label: &str, sql: &str) {
    let pruned = db
        .engine
        .execute_collect(db.sid, sql)
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    let reference = all_columns(&db.engine, sql);
    assert_eq!(pruned.0, reference.0, "{label}: result schemas differ");
    assert_eq!(
        pruned.1.len(),
        reference.1.len(),
        "{label}: row counts differ"
    );
    assert_eq!(pruned.1, reference.1, "{label}: rows differ");
}

/// Hand-written statements covering the naming rules pruning must get
/// right: wildcards alone and nested, correlated subqueries naming outer
/// columns unqualified, one table under two aliases, derived-table
/// aliases, ORDER BY alias and ordinal, outer joins, COUNT(*), and
/// mixed-case names.
const STATEMENTS: &[&str] = &[
    "SELECT * FROM nation WHERE n_regionkey = 1",
    "SELECT n.* FROM nation n, region r WHERE n.n_regionkey = r.r_regionkey AND r.r_name = 'ASIA'",
    "SELECT r_name FROM region WHERE EXISTS \
     (SELECT * FROM nation WHERE n_regionkey = r_regionkey AND n_name LIKE 'A%')",
    "SELECT x.n_name FROM (SELECT * FROM nation) x WHERE x.n_nationkey < 5",
    "SELECT y.s_name, y.s_phone FROM (SELECT s.* FROM supplier s WHERE s.s_acctbal > 0) y \
     ORDER BY y.s_name",
    "SELECT s_name FROM supplier WHERE s_acctbal > \
     (SELECT AVG(c_acctbal) FROM customer WHERE c_nationkey = s_nationkey) ORDER BY s_name",
    "SELECT p_name FROM part WHERE p_size < 5 AND EXISTS \
     (SELECT 1 FROM partsupp WHERE ps_partkey = p_partkey AND ps_availqty > 9000) ORDER BY p_name",
    "SELECT o_orderkey FROM orders WHERE o_custkey IN \
     (SELECT c_custkey FROM customer WHERE c_mktsegment = 'BUILDING') AND o_orderkey < 2000 \
     ORDER BY o_orderkey",
    "SELECT n1.n_name, n2.n_name FROM nation n1, nation n2 \
     WHERE n1.n_regionkey = n2.n_regionkey AND n1.n_nationkey < n2.n_nationkey ORDER BY 1, 2",
    "SELECT d.nm AS name_alias, d.rk FROM (SELECT n_name AS nm, n_regionkey AS rk FROM nation) d \
     ORDER BY name_alias DESC",
    "SELECT d.nm, d.rk AS region FROM (SELECT n_name AS nm, n_regionkey AS rk FROM nation) d \
     ORDER BY 2, 1",
    "SELECT c_custkey, o_orderkey FROM customer LEFT OUTER JOIN orders \
     ON c_custkey = o_custkey AND o_totalprice > 100000 WHERE c_custkey < 50 \
     ORDER BY c_custkey, o_orderkey",
    "SELECT COUNT(*) FROM lineitem",
    "SELECT l_returnflag, COUNT(*) FROM lineitem GROUP BY l_returnflag ORDER BY 1",
    "SELECT o_orderpriority, COUNT(*) AS n FROM orders GROUP BY o_orderpriority \
     HAVING SUM(o_totalprice) > 0 ORDER BY o_orderpriority",
    "SELECT N_NAME, n_RegionKey FROM Nation WHERE N_NATIONKEY = 3",
    "SELECT COUNT(*) FROM Supplier WHERE S_Comment LIKE '%Customer%'",
    "SELECT TOP 5 L_OrderKey, l_LINENUMBER FROM LineItem WHERE L_QUANTITY > 49",
];

#[test]
fn pruned_reads_return_what_all_column_reads_return() {
    let db = tpch_db();
    for (qid, sql) in queries::all_queries() {
        let Stmt::Select(q) = parse_one(&sql).unwrap() else {
            panic!("Q{qid} is not a SELECT");
        };
        assert!(
            referenced_columns(&q).is_some(),
            "Q{qid} names its columns, so its reads are pruned"
        );
        assert_pruning_invisible(&db, &format!("Q{qid}"), &sql);
    }
    for sql in STATEMENTS {
        assert_pruning_invisible(&db, sql, sql);
    }

    // An `INSERT … SELECT` source is pruned like any SELECT (it is the
    // statement Phoenix materializes every persisted result with), and
    // the rows it inserts are the all-columns read of the source.
    let run = |sql: &str| db.engine.execute_collect(db.sid, sql).unwrap();
    run("CREATE TABLE picked (k INT, name VARCHAR(25), cnt INT)");
    let source = "SELECT n_nationkey, n_name, \
                  (SELECT COUNT(*) FROM supplier WHERE s_nationkey = n_nationkey) \
                  FROM nation WHERE n_regionkey = 2";
    run(&format!("INSERT INTO picked {source}"));
    let (_, mut inserted) = run("SELECT * FROM picked");
    let (_, mut want) = all_columns(&db.engine, source);
    inserted.sort_by(|a, b| a[0].total_cmp(&b[0]));
    want.sort_by(|a, b| a[0].total_cmp(&b[0]));
    assert!(!want.is_empty());
    assert_eq!(inserted, want, "INSERT … SELECT");
}
