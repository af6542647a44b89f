//! Engine concurrency tests: multi-threaded sessions against one engine,
//! isolation under multi-granularity locking (key-prefix locks included),
//! and crash-safety of concurrent workloads.

// Integration tests unwrap freely; hygiene lints target library code.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use sqlengine::engine::{Durable, Engine, ExecOutcome};
use sqlengine::types::Value;
use sqlengine::wal::recovery::RecoveryConfig;
use sqlengine::Error;

fn engine() -> (Durable, Arc<Engine>) {
    let durable = Durable::new(Default::default());
    let e = Arc::new(Engine::recover(&durable, RecoveryConfig::default()).unwrap());
    (durable, e)
}

#[test]
fn concurrent_pk_writers_do_not_interfere() {
    let (_d, e) = engine();
    let sid = e.create_session().unwrap();
    e.execute(sid, "CREATE TABLE c (k INT PRIMARY KEY, n INT)")
        .unwrap();
    let vals: Vec<String> = (0..32).map(|k| format!("({k}, 0)")).collect();
    e.execute(sid, &format!("INSERT INTO c VALUES {}", vals.join(",")))
        .unwrap();

    let threads = 8;
    let bumps_per_thread = 50;
    let mut handles = Vec::new();
    for t in 0..threads {
        let e2 = Arc::clone(&e);
        handles.push(std::thread::spawn(move || {
            let sid = e2.create_session().unwrap();
            for i in 0..bumps_per_thread {
                let k = (t * 4 + i) % 32;
                loop {
                    match e2.execute(sid, &format!("UPDATE c SET n = n + 1 WHERE k = {k}")) {
                        Ok(_) => break,
                        Err(Error::Deadlock) => continue,
                        Err(e) => panic!("{e}"),
                    }
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let (_, rows) = e.execute_collect(sid, "SELECT SUM(n) FROM c").unwrap();
    assert_eq!(rows[0][0], Value::Int((threads * bumps_per_thread) as i64));
}

#[test]
fn readers_see_only_committed_state() {
    let (_d, e) = engine();
    let writer = e.create_session().unwrap();
    let reader = e.create_session().unwrap();
    e.execute(writer, "CREATE TABLE iso (k INT PRIMARY KEY, v INT)")
        .unwrap();
    e.execute(writer, "INSERT INTO iso VALUES (1, 10)").unwrap();

    // Writer holds an uncommitted update (row X lock under IX).
    e.execute(writer, "BEGIN TRAN").unwrap();
    e.execute(writer, "UPDATE iso SET v = 99 WHERE k = 1")
        .unwrap();

    // A younger reader's full scan needs table S, which conflicts with the
    // writer's IX → wait-die kills it rather than show dirty data.
    let r = e.execute_collect(reader, "SELECT v FROM iso");
    assert!(matches!(r, Err(Error::Deadlock)), "got {r:?}");

    e.execute(writer, "ROLLBACK").unwrap();
    let (_, rows) = e.execute_collect(reader, "SELECT v FROM iso").unwrap();
    assert_eq!(rows[0][0], Value::Int(10), "rollback restored the value");
}

#[test]
fn point_read_blocks_only_on_the_locked_row() {
    let (_d, e) = engine();
    let writer = e.create_session().unwrap();
    let reader = e.create_session().unwrap();
    e.execute(writer, "CREATE TABLE p (k INT PRIMARY KEY, v INT)")
        .unwrap();
    e.execute(writer, "INSERT INTO p VALUES (1, 10), (2, 20)")
        .unwrap();

    e.execute(writer, "BEGIN TRAN").unwrap();
    e.execute(writer, "UPDATE p SET v = 11 WHERE k = 1")
        .unwrap();

    // A point read of a DIFFERENT row proceeds (IS + row S on k=2).
    let (_, rows) = e
        .execute_collect(reader, "SELECT v FROM p WHERE k = 2")
        .unwrap();
    assert_eq!(rows[0][0], Value::Int(20));
    // The locked row's point read conflicts.
    assert!(matches!(
        e.execute_collect(reader, "SELECT v FROM p WHERE k = 1"),
        Err(Error::Deadlock)
    ));
    e.execute(writer, "COMMIT").unwrap();
    let (_, rows) = e
        .execute_collect(reader, "SELECT v FROM p WHERE k = 1")
        .unwrap();
    assert_eq!(rows[0][0], Value::Int(11));
}

#[test]
fn concurrent_inserts_then_crash_recovers_all_committed() {
    let durable = Durable::new(Default::default());
    {
        let e = Arc::new(Engine::recover(&durable, RecoveryConfig::default()).unwrap());
        let sid = e.create_session().unwrap();
        e.execute(sid, "CREATE TABLE bulk (k INT PRIMARY KEY)")
            .unwrap();
        let mut handles = Vec::new();
        for t in 0..6 {
            let e2 = Arc::clone(&e);
            handles.push(std::thread::spawn(move || {
                let sid = e2.create_session().unwrap();
                for i in 0..100 {
                    let k = t * 1000 + i;
                    e2.execute(sid, &format!("INSERT INTO bulk VALUES ({k})"))
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        durable.fence(); // crash without checkpoint
    }
    let e = Engine::recover(&durable, RecoveryConfig::default()).unwrap();
    let sid = e.create_session().unwrap();
    let (_, rows) = e.execute_collect(sid, "SELECT COUNT(*) FROM bulk").unwrap();
    assert_eq!(rows[0][0], Value::Int(600));
    // PK index built correctly from all interleaved pages.
    for t in 0..6 {
        let (_, rows) = e
            .execute_collect(
                sid,
                &format!("SELECT k FROM bulk WHERE k = {}", t * 1000 + 57),
            )
            .unwrap();
        assert_eq!(rows.len(), 1);
    }
}

#[test]
fn wait_die_stress_many_threads_no_hangs_or_lost_updates() {
    // 10 threads hammer 16 overlapping rows with transfer transactions
    // (two row X locks each, acquired in random order — the classic
    // deadlock shape), while 3 readers sum a group of accounts through
    // its key prefix. Wait-die must keep the system live: every victim
    // retries and eventually commits, nothing hangs, and the money
    // supply is conserved (no lost or duplicated grants) — in every
    // prefix sum a reader sees, not just at the end.
    let (_d, e) = engine();
    let sid = e.create_session().unwrap();
    e.execute(
        sid,
        "CREATE TABLE acct (g INT, k INT, bal INT, PRIMARY KEY (g, k))",
    )
    .unwrap();
    let rows: Vec<String> = (0..16).map(|k| format!("({}, {k}, 100)", k / 8)).collect();
    e.execute(sid, &format!("INSERT INTO acct VALUES {}", rows.join(",")))
        .unwrap();

    let writers: u64 = 10;
    let readers: u64 = 3;
    let transfers = 30;
    let sums = 20;
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let mut handles = Vec::new();
    for t in 0..writers + readers {
        let e2 = Arc::clone(&e);
        let done = done_tx.clone();
        handles.push(std::thread::spawn(move || {
            let sid = e2.create_session().unwrap();
            let mut seed = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(t + 1);
            let mut rng = move || {
                seed = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (seed >> 33) as usize
            };
            if t >= writers {
                // Reader: each group's prefix sum is always 800.
                for _ in 0..sums {
                    let g = rng() % 2;
                    let sql = format!("SELECT SUM(bal) FROM acct WHERE g = {g}");
                    loop {
                        match e2.execute_collect(sid, &sql) {
                            Ok((_, rows)) => {
                                assert_eq!(rows[0][0], Value::Int(800), "torn prefix sum");
                                break;
                            }
                            Err(Error::Deadlock) => continue,
                            Err(e) => panic!("{e}"),
                        }
                    }
                }
                done.send(t).unwrap();
                return;
            }
            for _ in 0..transfers {
                // Transfers stay inside one group of 8 accounts.
                let g = rng() % 2;
                let from = rng() % 8;
                let to = (from + 1 + rng() % 7) % 8;
                // One transfer per transaction; wait-die victims retry
                // the whole transaction, as a client would.
                loop {
                    let r = (|| {
                        e2.execute(sid, "BEGIN TRAN")?;
                        e2.execute(
                            sid,
                            &format!(
                                "UPDATE acct SET bal = bal - 1 WHERE g = {g} AND k = {}",
                                g * 8 + from
                            ),
                        )?;
                        e2.execute(
                            sid,
                            &format!(
                                "UPDATE acct SET bal = bal + 1 WHERE g = {g} AND k = {}",
                                g * 8 + to
                            ),
                        )?;
                        e2.execute(sid, "COMMIT")?;
                        Ok::<(), Error>(())
                    })();
                    match r {
                        Ok(()) => break,
                        Err(Error::Deadlock) => continue, // aborted; retry
                        Err(e) => panic!("{e}"),
                    }
                }
            }
            done.send(t).unwrap();
        }));
    }
    drop(done_tx);
    // Liveness watchdog: every worker must finish well inside the lock
    // manager's worst-case wait bound times the retry budget. A recv
    // timeout here means a waiter hung (lost notification / stuck grant).
    for _ in 0..writers + readers {
        done_rx
            .recv_timeout(Duration::from_secs(120))
            .expect("wait-die stress worker hung");
    }
    for h in handles {
        h.join().unwrap();
    }
    let (_, rows) = e.execute_collect(sid, "SELECT SUM(bal) FROM acct").unwrap();
    assert_eq!(rows[0][0], Value::Int(1600), "transfers lost or duplicated");
    let (_, rows) = e.execute_collect(sid, "SELECT COUNT(*) FROM acct").unwrap();
    assert_eq!(rows[0][0], Value::Int(16));
}

#[test]
fn lock_waits_resolve_when_older_waits_for_younger_commit() {
    let (_d, e) = engine();
    let s1 = e.create_session().unwrap();
    e.execute(s1, "CREATE TABLE w (k INT PRIMARY KEY, v INT)")
        .unwrap();
    e.execute(s1, "INSERT INTO w VALUES (1, 0)").unwrap();

    // Younger txn takes the row lock...
    let s2 = e.create_session().unwrap();
    // (make s1's txn *older*: begin it first)
    e.execute(s1, "BEGIN TRAN").unwrap();
    e.execute(s1, "SELECT COUNT(*) FROM w").unwrap(); // S lock, establishes age
    e.execute(s2, "BEGIN TRAN").unwrap();
    let r2 = e.execute(s2, "UPDATE w SET v = 2 WHERE k = 1");
    // s2 is younger and conflicts with s1's S table lock → dies.
    assert!(matches!(r2, Err(Error::Deadlock)));
    e.execute(s1, "COMMIT").unwrap();

    // Fresh round: now the writer commits and a blocked older reader
    // completes after release.
    let e2 = Arc::clone(&e);
    let s3 = e.create_session().unwrap();
    e.execute(s3, "BEGIN TRAN").unwrap();
    e.execute(s3, "UPDATE w SET v = 3 WHERE k = 1").unwrap();
    let h = std::thread::spawn(move || {
        let s4 = e2.create_session().unwrap();
        // Point-read the row: waits grace, then dies or (after commit)
        // succeeds. Retry loop models the client.
        loop {
            match e2.execute_collect(s4, "SELECT v FROM w WHERE k = 1") {
                Ok((_, rows)) => return rows[0][0].clone(),
                Err(Error::Deadlock) => continue,
                Err(e) => panic!("{e}"),
            }
        }
    });
    std::thread::sleep(Duration::from_millis(50));
    e.execute(s3, "COMMIT").unwrap();
    assert_eq!(h.join().unwrap(), Value::Int(3));
}

#[test]
fn prefix_scan_locks_only_its_prefix() {
    let (_d, e) = engine();
    let reader = e.create_session().unwrap();
    let writer = e.create_session().unwrap();
    e.execute(
        reader,
        "CREATE TABLE kp (a INT, b INT, c INT, v INT, PRIMARY KEY (a, b, c))",
    )
    .unwrap();
    e.execute(
        reader,
        "INSERT INTO kp VALUES (1, 1, 1, 0), (1, 1, 2, 0), (1, 2, 1, 0), (2, 1, 1, 0)",
    )
    .unwrap();

    // The reader's scan of prefix (1, 1) holds S on that prefix only.
    e.execute(reader, "BEGIN TRAN").unwrap();
    let (_, rows) = e
        .execute_collect(reader, "SELECT c FROM kp WHERE a = 1 AND b = 1")
        .unwrap();
    assert_eq!(rows.len(), 2);

    // A younger writer cannot insert, delete or update under it...
    for sql in [
        "INSERT INTO kp VALUES (1, 1, 3, 0)",
        "DELETE FROM kp WHERE a = 1 AND b = 1 AND c = 1",
        "UPDATE kp SET v = 1 WHERE a = 1 AND b = 1 AND c = 2",
        "UPDATE kp SET v = 1 WHERE a = 1",
        "DELETE FROM kp WHERE v = 7",
    ] {
        assert!(
            matches!(e.execute(writer, sql), Err(Error::Deadlock)),
            "{sql} got past the prefix lock"
        );
    }
    // ...but works freely beside it, under the same leading column too.
    for sql in [
        "INSERT INTO kp VALUES (1, 2, 2, 0)",
        "INSERT INTO kp VALUES (2, 1, 2, 0)",
        "UPDATE kp SET v = 1 WHERE a = 1 AND b = 2",
        "DELETE FROM kp WHERE a = 2 AND b = 1 AND c = 1",
    ] {
        e.execute(writer, sql)
            .unwrap_or_else(|err| panic!("{sql}: {err}"));
    }
    // The reader's rescan sees exactly what it saw before.
    let (_, again) = e
        .execute_collect(reader, "SELECT c FROM kp WHERE a = 1 AND b = 1")
        .unwrap();
    assert_eq!(again, rows);
    e.execute(reader, "COMMIT").unwrap();

    // The other way round: an uncommitted write under (1, 2) stops a
    // younger scan of (1, 2) and of (1), not one of (1, 1).
    e.execute(reader, "BEGIN TRAN").unwrap();
    e.execute(
        reader,
        "UPDATE kp SET v = 5 WHERE a = 1 AND b = 2 AND c = 1",
    )
    .unwrap();
    for sql in [
        "SELECT v FROM kp WHERE a = 1 AND b = 2",
        "SELECT v FROM kp WHERE a = 1",
        "SELECT v FROM kp",
    ] {
        assert!(
            matches!(e.execute_collect(writer, sql), Err(Error::Deadlock)),
            "{sql} read past an uncommitted write"
        );
    }
    let (_, rows) = e
        .execute_collect(writer, "SELECT v FROM kp WHERE a = 1 AND b = 1")
        .unwrap();
    assert_eq!(rows.len(), 2);
    e.execute(reader, "ROLLBACK").unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Inserts, deletes and updates run concurrently under a key prefix
    /// (and beside it) while another transaction scans the prefix twice:
    /// both scans return the same rows, so no phantom appears.
    #[test]
    fn prefix_scans_see_no_phantoms(seed in any::<u64>(), writers in 1u64..4) {
        let (_d, e) = engine();
        let sid = e.create_session().unwrap();
        e.execute(
            sid,
            "CREATE TABLE ph (a INT, b INT, c INT, v INT, PRIMARY KEY (a, b, c))",
        )
        .unwrap();
        let rows: Vec<String> = (0..24)
            .map(|i| format!("({}, {}, {}, 0)", 1 + i % 2, 1 + (i / 2) % 2, i))
            .collect();
        e.execute(sid, &format!("INSERT INTO ph VALUES {}", rows.join(",")))
            .unwrap();

        // Per writer: attempts started (u64::MAX once done) and whether one
        // is in flight — possibly blocked on the scanner's locks — so the
        // scanner can wait for every writer to have a go between its scans.
        let progress: Arc<Vec<(AtomicU64, AtomicBool)>> = Arc::new(
            (0..writers)
                .map(|_| (AtomicU64::new(0), AtomicBool::new(false)))
                .collect(),
        );
        let mut handles = Vec::new();
        for t in 0..writers {
            let e2 = Arc::clone(&e);
            let progress = Arc::clone(&progress);
            handles.push(std::thread::spawn(move || {
                let (started, busy) = &progress[t as usize];
                let sid = e2.create_session().unwrap();
                let mut x = seed ^ (t + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let mut rng = move |n: u64| {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (x >> 33) % n
                };
                for _ in 0..40 {
                    let (a, b, c) = (1 + rng(2), 1 + rng(2), rng(48));
                    let sql = match rng(4) {
                        0 => format!("INSERT INTO ph VALUES ({a}, {b}, {c}, 1)"),
                        1 => format!("DELETE FROM ph WHERE a = {a} AND b = {b} AND c = {c}"),
                        2 => format!("UPDATE ph SET v = v + 1 WHERE a = {a} AND b = {b} AND c = {c}"),
                        _ => format!("DELETE FROM ph WHERE a = {a} AND b = {b} AND v = {}", rng(3)),
                    };
                    busy.store(true, Ordering::SeqCst);
                    started.fetch_add(1, Ordering::SeqCst);
                    match e2.execute(sid, &sql) {
                        Ok(_) | Err(Error::Deadlock) | Err(Error::DuplicateKey(_)) => {}
                        Err(e) => panic!("{sql}: {e}"),
                    }
                    busy.store(false, Ordering::SeqCst);
                }
                started.store(u64::MAX, Ordering::SeqCst);
            }));
        }

        // The scanner alternates a two-column and a one-column prefix; a
        // wait-die victim retries the whole transaction.
        for round in 0..8 {
            let sql = if round % 2 == 0 {
                "SELECT a, b, c, v FROM ph WHERE a = 1 AND b = 1"
            } else {
                "SELECT a, b, c, v FROM ph WHERE a = 2"
            };
            loop {
                let r = (|| {
                    e.execute(sid, "BEGIN TRAN")?;
                    let (_, first) = e.execute_collect(sid, sql)?;
                    // Rescan once every writer has started a fresh attempt,
                    // is in one (perhaps blocked on this scan), or is done.
                    let snap: Vec<u64> =
                        progress.iter().map(|(n, _)| n.load(Ordering::SeqCst)).collect();
                    while !progress.iter().zip(&snap).all(|((n, busy), &s)| {
                        n.load(Ordering::SeqCst) > s || busy.load(Ordering::SeqCst) || s == u64::MAX
                    }) {
                        std::thread::yield_now();
                    }
                    let (_, second) = e.execute_collect(sid, sql)?;
                    e.execute(sid, "COMMIT")?;
                    Ok::<_, Error>((first, second))
                })();
                match r {
                    Ok((first, second)) => {
                        prop_assert_eq!(first, second, "phantom under {}", sql);
                        break;
                    }
                    Err(Error::Deadlock) => continue,
                    Err(err) => panic!("{sql}: {err}"),
                }
            }
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    /// A prefix scan returns exactly the rows, in the same order, of a
    /// full scan with the same filter, and UPDATE/DELETE through a prefix
    /// touch exactly the rows a full scan would. Updates relocate rows,
    /// so heap order drifts away from key order; variable-length string
    /// keys check that a prefix never matches a longer string.
    #[test]
    fn prefix_scan_matches_full_scan(
        ops in prop::collection::vec((0u64..5, 0u64..3, 0u64..4, 0u64..8, 0u64..4), 1..90),
        probe in (0u64..3, 0u64..4, 0u64..8, 0u64..4),
    ) {
        const STRS: [&str; 4] = ["", "a", "ab", "b"];
        let (_d, e) = engine();
        let sid = e.create_session().unwrap();
        // `px` is reached through key prefixes; `fx` holds the same rows
        // and is only ever reached by full scans (`a + 0` pins nothing).
        for t in ["px", "fx"] {
            e.execute(
                sid,
                &format!(
                    "CREATE TABLE {t} (a INT, s VARCHAR(4), c INT, v INT, pad VARCHAR(400), \
                     PRIMARY KEY (a, s, c))"
                ),
            )
            .unwrap();
        }
        let pad = "x".repeat(300);
        let pred = |full: bool, a: u64, s: Option<u64>, c: Option<u64>| {
            let mut p = if full { format!("a + 0 = {a}") } else { format!("a = {a}") };
            if let Some(s) = s {
                p += &format!(" AND s = '{}'", STRS[s as usize]);
            }
            if let Some(c) = c {
                p += &format!(" AND c = {c}");
            }
            p
        };
        let outcome = |sql: &str| match e.execute(sid, sql).map(|r| r.outcome) {
            Ok(ExecOutcome::Affected(n)) => format!("{n} rows"),
            Ok(_) => "ok".to_string(),
            Err(Error::DuplicateKey(_)) => "duplicate key".to_string(),
            Err(err) => panic!("{sql}: {err}"),
        };
        for &(kind, a, s, c, v) in &ops {
            let stmt = |t: &str, full: bool| match kind {
                0 | 1 => format!(
                    "INSERT INTO {t} VALUES ({a}, '{}', {c}, {v}, '{pad}')",
                    STRS[s as usize]
                ),
                2 => format!("DELETE FROM {t} WHERE {}", pred(full, a, Some(s), Some(c))),
                3 => format!("UPDATE {t} SET v = v + 1 WHERE {}", pred(full, a, Some(s), None)),
                _ => format!("DELETE FROM {t} WHERE {} AND v = {v}", pred(full, a, None, None)),
            };
            prop_assert_eq!(outcome(&stmt("px", false)), outcome(&stmt("fx", true)));
        }
        let (pa, ps, pc, min_v) = probe;
        for (s, c) in [(None, None), (Some(ps), None), (Some(ps), Some(pc))] {
            let q = |t: &str, full: bool| {
                format!(
                    "SELECT a, s, c, v FROM {t} WHERE {} AND v >= {min_v}",
                    pred(full, pa, s, c)
                )
            };
            let via_prefix = e.execute_collect(sid, &q("px", false)).unwrap().1;
            prop_assert_eq!(&via_prefix, &e.execute_collect(sid, &q("px", true)).unwrap().1);
            prop_assert_eq!(&via_prefix, &e.execute_collect(sid, &q("fx", true)).unwrap().1);
        }
    }
}
