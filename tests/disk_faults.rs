//! Deterministic end-to-end storage-fault tests: each scenario installs
//! an exact `faultkit::disk` schedule (the `<kind>#<nth>` spec grammar,
//! e.g. `bitflip#1`) on the simulated data disk or WAL device and
//! asserts the engine's corruption story end to end — detection on read,
//! repair from WAL redo, torn-tail truncation at restart, and the
//! fsyncgate fail-stop discipline for failed log flushes.
//!
//! Every test opens `faultkit::session()` first: the crashpoint registry
//! is process-global, so tests must not interleave with one whose trace
//! recording is active.

use std::collections::BTreeSet;

use faultkit::disk::DiskPlan;
use integration_tests::{record_trace, restart_with_retry};
use sqlengine::engine::{Durable, Engine};
use sqlengine::storage::disk::DiskModel;
use sqlengine::wal::recovery::RecoveryConfig;
use sqlengine::{Error, Value};
use wire::{DbServer, ServerConfig};

fn plan(spec: &str) -> Option<DiskPlan> {
    Some(DiskPlan::parse(spec).unwrap_or_else(|| panic!("bad disk plan spec {spec:?}")))
}

/// `execute` whose success payload has no `Debug`; unwrap the error arm.
fn expect_exec_err(engine: &Engine, sid: u64, sql: &str, why: &str) -> Error {
    match engine.execute(sid, sql) {
        Ok(_) => panic!("{why}: {sql:?} unexpectedly succeeded"),
        Err(e) => e,
    }
}

fn count_rows(engine: &Engine, sid: u64, table: &str) -> i64 {
    let (_, rows) = engine
        .execute_collect(sid, &format!("SELECT COUNT(*) FROM {table}"))
        .unwrap();
    rows[0][0].as_i64().unwrap()
}

// ---------------------------------------------------------------------------
// Data-device faults: detect, quarantine, repair
// ---------------------------------------------------------------------------

/// A bit flip written to a durable page image is caught by the checksum
/// sweep and repaired from WAL redo — twice over: the first scrub
/// detects and repairs, a second scrub finds nothing left.
#[test]
fn bit_flip_on_data_page_is_detected_and_repaired_by_scrub() {
    let _fk = faultkit::session();
    let durable = Durable::new(DiskModel::default());
    let engine = Engine::recover(&durable, RecoveryConfig::default()).unwrap();
    let sid = engine.create_session().unwrap();
    engine
        .execute(sid, "CREATE TABLE t (a INT PRIMARY KEY, b VARCHAR(20))")
        .unwrap();
    let vals: Vec<String> = (0..64).map(|i| format!("({i}, 'row-{i}')")).collect();
    engine
        .execute(sid, &format!("INSERT INTO t VALUES {}", vals.join(",")))
        .unwrap();
    engine.checkpoint().unwrap();

    // Corrupt the next page flush, then heal the device.
    durable.disk.set_fault_plan(plan("bitflip#1"));
    engine
        .execute(sid, "INSERT INTO t VALUES (64, 'late')")
        .unwrap();
    engine.checkpoint().unwrap();
    durable.disk.set_fault_plan(None);

    let report = engine.scrub().unwrap();
    assert!(report.detected >= 1, "scrub must find the flipped page");
    assert_eq!(report.repaired, report.detected, "every hit repaired");
    let clean = engine.scrub().unwrap();
    assert_eq!(clean.detected, 0, "second scrub must come up clean");
    assert_eq!(count_rows(&engine, sid, "t"), 65);
}

/// A torn page write (prefix lands, trailer never does) is equally
/// detected and repaired — the trailer-last layout makes a torn image
/// unverifiable by construction.
#[test]
fn torn_page_write_is_detected_and_repaired_by_scrub() {
    let _fk = faultkit::session();
    let durable = Durable::new(DiskModel::default());
    let engine = Engine::recover(&durable, RecoveryConfig::default()).unwrap();
    let sid = engine.create_session().unwrap();
    engine
        .execute(sid, "CREATE TABLE t (a INT PRIMARY KEY)")
        .unwrap();
    engine
        .execute(sid, "INSERT INTO t VALUES (1), (2), (3)")
        .unwrap();
    engine.checkpoint().unwrap();

    durable.disk.set_fault_plan(plan("torn#1"));
    engine.execute(sid, "INSERT INTO t VALUES (4)").unwrap();
    engine.checkpoint().unwrap();
    durable.disk.set_fault_plan(None);

    let report = engine.scrub().unwrap();
    assert!(report.detected >= 1, "torn image must fail verification");
    assert_eq!(report.repaired, report.detected);
    assert_eq!(count_rows(&engine, sid, "t"), 4);
}

/// An injected read error surfaces as a storage error on the statement
/// that hit it, and is transient: the bounded schedule exhausts and the
/// retry succeeds.
#[test]
fn injected_read_error_is_transient() {
    let _fk = faultkit::session();
    let durable = Durable::new(DiskModel::default());
    // A pool far smaller than the table, so a scan always misses and
    // must read from the faulty device.
    let cfg = RecoveryConfig {
        pool_capacity: 4,
        scrub: false,
        ..Default::default()
    };
    let engine = Engine::recover(&durable, cfg).unwrap();
    let sid = engine.create_session().unwrap();
    engine
        .execute(sid, "CREATE TABLE t (a INT PRIMARY KEY, b VARCHAR(20))")
        .unwrap();
    let vals: Vec<String> = (0..6000).map(|i| format!("({i}, 'row-{i}')")).collect();
    for c in vals.chunks(400) {
        engine
            .execute(sid, &format!("INSERT INTO t VALUES {}", c.join(",")))
            .unwrap();
    }
    engine.checkpoint().unwrap();

    durable.disk.set_fault_plan(plan("readerr#1"));
    let err = engine
        .execute_collect(sid, "SELECT COUNT(*) FROM t")
        .expect_err("the scan's first pool miss must hit the injected error");
    assert!(
        matches!(&err, Error::Storage(m) if m.contains("injected read error")),
        "got {err:?}"
    );
    // The schedule is spent; the retry reads clean.
    assert_eq!(count_rows(&engine, sid, "t"), 6000);
}

// ---------------------------------------------------------------------------
// WAL-device faults: fail-stop poisoning and torn-tail truncation
// ---------------------------------------------------------------------------

/// fsyncgate discipline: the first failed log flush poisons the WAL
/// manager fail-stop — every later statement fails too, even though the
/// fault schedule is spent — and a restart recovers cleanly with the
/// failed transaction rolled back.
#[test]
fn failed_wal_flush_poisons_until_restart() {
    let _fk = faultkit::session();
    let server = DbServer::start(ServerConfig::instant_net()).unwrap();
    {
        let engine = server.engine().unwrap();
        let sid = engine.create_session().unwrap();
        engine
            .execute(sid, "CREATE TABLE t (a INT PRIMARY KEY)")
            .unwrap();
        engine.close_session(sid);
        engine.checkpoint().unwrap();
    }
    server.set_disk_fault_plan(None, plan("writeerr#1"));

    let engine = server.engine().unwrap();
    let sid = engine.create_session().unwrap();
    let err = expect_exec_err(
        &engine,
        sid,
        "INSERT INTO t VALUES (1)",
        "commit must hit the injected flush failure",
    );
    assert!(
        matches!(&err, Error::Storage(m) if m.contains("injected log flush failure")),
        "got {err:?}"
    );
    assert!(engine.storage().log.is_poisoned());
    // The schedule is spent, but the manager stays fail-stop.
    let err2 = expect_exec_err(
        &engine,
        sid,
        "INSERT INTO t VALUES (2)",
        "poisoned WAL must refuse further work",
    );
    assert!(
        matches!(&err2, Error::Storage(m) if m.contains("fail-stop")),
        "got {err2:?}"
    );

    server.crash();
    restart_with_retry(&server, 100);
    let engine = server.engine().unwrap();
    let sid = engine.create_session().unwrap();
    // Neither failed insert committed; fresh writes work again.
    assert_eq!(count_rows(&engine, sid, "t"), 0);
    engine.execute(sid, "INSERT INTO t VALUES (9)").unwrap();
    assert_eq!(count_rows(&engine, sid, "t"), 1);
}

/// A torn log append leaves a partial frame at the durable tail; restart
/// recovery truncates exactly that tail (counted in
/// `RecoveryStats::torn_tail_bytes`) and the acknowledged prefix
/// survives intact.
#[test]
fn torn_wal_tail_is_truncated_at_restart() {
    let _fk = faultkit::session();
    let server = DbServer::start(ServerConfig::instant_net()).unwrap();
    {
        let engine = server.engine().unwrap();
        let sid = engine.create_session().unwrap();
        engine
            .execute(sid, "CREATE TABLE t (a INT PRIMARY KEY)")
            .unwrap();
        engine.execute(sid, "INSERT INTO t VALUES (1)").unwrap();
        engine.close_session(sid);
    }
    server.set_disk_fault_plan(None, plan("torn#1"));
    {
        let engine = server.engine().unwrap();
        let sid = engine.create_session().unwrap();
        let err = expect_exec_err(
            &engine,
            sid,
            "INSERT INTO t VALUES (2)",
            "the torn append must fail the commit",
        );
        assert!(
            matches!(&err, Error::Storage(m) if m.contains("torn log append")),
            "got {err:?}"
        );
    }
    server.crash();
    let stats = server.restart().unwrap();
    assert!(
        stats.torn_tail_bytes > 0,
        "recovery must truncate the torn tail; stats: {stats:?}"
    );
    let engine = server.engine().unwrap();
    let sid = engine.create_session().unwrap();
    let (_, rows) = engine
        .execute_collect(sid, "SELECT a FROM t ORDER BY a")
        .unwrap();
    assert_eq!(rows, vec![vec![Value::Int(1)]]);
}

/// With `scrub_on_restart` set, restart recovery's final phase repairs
/// latent page corruption before any client reconnects.
#[test]
fn scrub_on_restart_repairs_latent_corruption() {
    let _fk = faultkit::session();
    let mut cfg = ServerConfig::instant_net();
    cfg.scrub_on_restart = true;
    let server = DbServer::start(cfg).unwrap();
    {
        let engine = server.engine().unwrap();
        let sid = engine.create_session().unwrap();
        engine
            .execute(sid, "CREATE TABLE t (a INT PRIMARY KEY, b VARCHAR(20))")
            .unwrap();
        let vals: Vec<String> = (0..32).map(|i| format!("({i}, 'row-{i}')")).collect();
        engine
            .execute(sid, &format!("INSERT INTO t VALUES {}", vals.join(",")))
            .unwrap();
        engine.checkpoint().unwrap();
        // Corrupt one flushed page image, then heal the device.
        server.set_disk_fault_plan(plan("bitflip#1"), None);
        engine
            .execute(sid, "INSERT INTO t VALUES (32, 'late')")
            .unwrap();
        engine.checkpoint().unwrap();
        server.set_disk_fault_plan(None, None);
    }
    server.crash();
    let stats = server.restart().unwrap();
    assert!(
        stats.scrub_repaired >= 1,
        "restart scrub must repair the flipped page; stats: {stats:?}"
    );
    let engine = server.engine().unwrap();
    let sid = engine.create_session().unwrap();
    assert_eq!(count_rows(&engine, sid, "t"), 33);
    // Nothing latent remains.
    assert_eq!(engine.scrub().unwrap().detected, 0);
}

// ---------------------------------------------------------------------------
// Instrumentation: the disk layer's crashpoints are all reachable
// ---------------------------------------------------------------------------

/// One corruption-and-repair scenario hits every `disk.` crashpoint the
/// storage-fault layer introduces: `disk.read`, `disk.write`,
/// `disk.wal.flush`, `disk.repair`, and `disk.scrub` — so the schedule
/// explorer can enumerate crashes at each of them.
#[test]
fn disk_crashpoints_are_all_instrumented() {
    let fk = faultkit::session();
    let durable = Durable::new(DiskModel::default());
    let engine = Engine::recover(&durable, RecoveryConfig::default()).unwrap();
    let sid = engine.create_session().unwrap();

    let trace = record_trace(&fk, || {
        engine
            .execute(sid, "CREATE TABLE t (a INT PRIMARY KEY)")
            .unwrap();
        engine
            .execute(sid, "INSERT INTO t VALUES (1), (2), (3)")
            .unwrap();
        engine.checkpoint().unwrap();
        // Corrupt a flushed image so the scrub exercises the repair path.
        durable.disk.set_fault_plan(plan("bitflip#1"));
        engine.execute(sid, "INSERT INTO t VALUES (4)").unwrap();
        engine.checkpoint().unwrap();
        durable.disk.set_fault_plan(None);
        let report = engine.scrub().unwrap();
        assert!(report.repaired >= 1, "scenario must repair a page");
    });

    let names: BTreeSet<&'static str> = trace.iter().map(|p| p.name).collect();
    for want in [
        "disk.read",
        "disk.write",
        "disk.wal.flush",
        "disk.repair",
        "disk.scrub",
    ] {
        assert!(
            names.contains(want),
            "crashpoint {want:?} never hit; trace names: {names:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// Read-ahead: faults met by a scan's extent reads
// ---------------------------------------------------------------------------

/// A disk with a read latency, so that heap scans read ahead.
fn slow_read_disk() -> Durable {
    Durable::new(DiskModel {
        read_latency: std::time::Duration::from_micros(50),
        write_latency: std::time::Duration::ZERO,
    })
}

/// Load a keyless table `t` of `rows` rows spanning many pages and
/// checkpoint it; with `fault`, one more row is inserted and flushed
/// under that data-device fault plan. Then restart on a cold pool (a
/// restart after a checkpoint reads no page, so none of the table is
/// cached) and return the new engine with a session.
fn cold_table(durable: &Durable, rows: usize, fault: Option<&str>) -> (Engine, u64) {
    let cfg = || RecoveryConfig {
        pool_capacity: 64,
        ..Default::default()
    };
    let engine = Engine::recover(durable, cfg()).unwrap();
    let sid = engine.create_session().unwrap();
    engine
        .execute(sid, "CREATE TABLE t (a INT, b VARCHAR(200))")
        .unwrap();
    let vals: Vec<String> = (0..rows)
        .map(|i| format!("({i}, 'row-{i}-{}')", "x".repeat(100)))
        .collect();
    for c in vals.chunks(100) {
        engine
            .execute(sid, &format!("INSERT INTO t VALUES {}", c.join(",")))
            .unwrap();
    }
    engine.checkpoint().unwrap();
    if let Some(spec) = fault {
        durable.disk.set_fault_plan(plan(spec));
        engine
            .execute(sid, &format!("INSERT INTO t VALUES ({rows}, 'late')"))
            .unwrap();
        engine.checkpoint().unwrap();
        durable.disk.set_fault_plan(None);
    }
    drop(engine);
    durable.fence();
    let engine = Engine::recover(durable, cfg()).unwrap();
    let sid = engine.create_session().unwrap();
    (engine, sid)
}

fn column_a(engine: &Engine, sid: u64, sql: &str) -> Vec<i64> {
    let (_, rows) = engine.execute_collect(sid, sql).unwrap();
    rows.iter().map(|r| r[0].as_i64().unwrap()).collect()
}

/// A bit-flipped page image that a scan's read-ahead meets fails its
/// checksum and is left out of the pool; the scan's own fetch then
/// quarantines and repairs it from WAL redo, exactly once, and serves
/// the repaired rows.
#[test]
fn bit_flip_met_by_read_ahead_is_served_repaired() {
    let _fk = faultkit::session();
    let durable = slow_read_disk();
    let (engine, sid) = cold_table(&durable, 1500, Some("bitflip#1"));
    let metrics = obskit::metrics::global();
    let detected = metrics.counter("storage.corruption.detected");
    let repaired = metrics.counter("storage.corruption.repaired");
    let (d0, r0) = (detected.get(), repaired.get());
    let got = column_a(&engine, sid, "SELECT a FROM t ORDER BY a");
    assert_eq!(got, (0..=1500).collect::<Vec<i64>>());
    assert_eq!(detected.get() - d0, 1, "one corrupt image detected");
    assert_eq!(repaired.get() - r0, 1, "and repaired once");
}

/// An injected read error on a page that read-ahead requests is never a
/// page silently missing from the scan: the page is read again by the
/// scan's own fetch, and every row arrives — on the streaming path and on
/// the materializing one.
#[test]
fn read_error_during_read_ahead_is_reread_synchronously() {
    let _fk = faultkit::session();
    // Read 2 falls inside the scan's first extent request, read 11 inside
    // its second.
    for (spec, sql) in [
        ("readerr#2", "SELECT a FROM t"),
        ("readerr#11", "SELECT a, b FROM t WHERE a >= 0 ORDER BY a"),
    ] {
        let durable = slow_read_disk();
        let (engine, sid) = cold_table(&durable, 1500, None);
        durable.disk.set_fault_plan(plan(spec));
        let got = column_a(&engine, sid, sql);
        durable.disk.set_fault_plan(None);
        assert_eq!(got, (0..1500).collect::<Vec<i64>>(), "{spec}: {sql}");
    }
}

// ---------------------------------------------------------------------------
// PK indexes built on first use after a restart
// ---------------------------------------------------------------------------

/// Two keyed tables of many pages each, `t` and `u`, loaded and
/// checkpointed; then a crash and a restart. Returns the new engine with
/// a session, and the disk's reads before the restart began.
fn restarted_keyed_tables(durable: &Durable) -> (Engine, u64, u64) {
    let engine = Engine::recover(durable, RecoveryConfig::default()).unwrap();
    let sid = engine.create_session().unwrap();
    for table in ["t", "u"] {
        engine
            .execute(
                sid,
                &format!("CREATE TABLE {table} (a INT PRIMARY KEY, b VARCHAR(200))"),
            )
            .unwrap();
        let vals: Vec<String> = (0..1500)
            .map(|i| format!("({i}, 'row-{i}-{}')", "x".repeat(100)))
            .collect();
        for c in vals.chunks(100) {
            engine
                .execute(sid, &format!("INSERT INTO {table} VALUES {}", c.join(",")))
                .unwrap();
        }
    }
    engine.checkpoint().unwrap();
    drop(engine);
    durable.fence();
    let reads = durable.io_snapshot().reads;
    let engine = Engine::recover(durable, RecoveryConfig::default()).unwrap();
    let sid = engine.create_session().unwrap();
    (engine, sid, reads)
}

fn pages_of(engine: &Engine, table: &str) -> u64 {
    let meta = engine.storage().catalog.resolve(table).unwrap();
    let pages = meta.read().pages.len();
    pages as u64
}

/// A restart of a checkpointed, quiescent database reads no page: no PK
/// index is built until a table is first used. The first keyed access to
/// `t` then reads exactly `t`'s pages, and `u` is never keyed.
#[test]
fn restart_reads_no_page_and_first_keyed_access_reads_its_table() {
    let _fk = faultkit::session();
    let durable = Durable::new(DiskModel::default());
    let (engine, sid, before) = restarted_keyed_tables(&durable);
    let after_restart = durable.io_snapshot().reads;
    assert_eq!(after_restart - before, 0, "restart read pages");

    let builds = obskit::metrics::global().counter("sqlengine.index.builds");
    let b0 = builds.get();
    let (_, rows) = engine
        .execute_collect(sid, "SELECT b FROM t WHERE a = 1234")
        .unwrap();
    assert_eq!(rows.len(), 1);
    let pages = pages_of(&engine, "t");
    assert!(pages > 10, "t spans {pages} pages");
    assert_eq!(durable.io_snapshot().reads - after_restart, pages);
    assert!(builds.get() > b0, "the build is counted");
}

/// An injected read error met while a table's first keyed access builds
/// its PK index fails that statement only and installs no partial index:
/// the next statements see every key, and a duplicate is still refused.
#[test]
fn read_error_during_lazy_index_build_fails_only_that_statement() {
    let _fk = faultkit::session();
    let durable = Durable::new(DiskModel::default());
    let (engine, sid, _) = restarted_keyed_tables(&durable);
    // The fifth page read is inside the build, after four pages of keys.
    durable.disk.set_fault_plan(plan("readerr#5"));
    let err = engine
        .execute_collect(sid, "SELECT b FROM t WHERE a = 1499")
        .expect_err("the build's fifth page read must hit the injected error");
    assert!(
        matches!(&err, Error::Storage(m) if m.contains("injected read error")),
        "got {err:?}"
    );
    durable.disk.set_fault_plan(None);
    for a in 0..1500 {
        let (_, rows) = engine
            .execute_collect(sid, &format!("SELECT a FROM t WHERE a = {a}"))
            .unwrap();
        assert_eq!(rows, vec![vec![Value::Int(a)]], "key {a}");
    }
    let err = expect_exec_err(&engine, sid, "INSERT INTO t VALUES (7, 'dup')", "duplicate");
    assert!(matches!(err, Error::DuplicateKey(_)), "got {err:?}");
    assert_eq!(count_rows(&engine, sid, "t"), 1500);
}
