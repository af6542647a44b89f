//! `crash_recover`: one Phoenix session repeating a crash cycle. Each
//! cycle runs three wrapped DML statements against a ledger table, opens
//! Q11 (several hundred rows, persisted server-side) and fetches most of
//! it, crashes and restarts the server, fetches the rest, and
//! checkpoints so the redo work of every restart stays the same.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use odbcsim::{DriverConfig, OdbcConnection};
use phoenix::{CacheMode, ExecKind, PhoenixConfig, PhoenixConnection, STATUS_TABLE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqlengine::storage::disk::DiskModel;
use sqlengine::types::{Row, Value};
use sqlengine::Error;
use wire::{AdmissionConfig, DbServer, GroupCommit, ServerConfig};
use workloads::tpch::{queries, TpchScale};
use workloads::{EngineClient, ExecResult, SqlClient};

use crate::layers::{Probe, Tee};
use crate::metrics::{Outcome, Values};
use crate::trace;
use crate::util::{
    lan, mean, median, ms, process_cpu, quantile, ratio, repeated_setup, ErrCounts, Server,
    SetupTime, DATA_SEED,
};
use crate::Args;

const SF: f64 = 0.02;
/// Holds the whole database (~2650 pages) and every result table.
const POOL_PAGES: usize = 1 << 16;
const LEDGER: &str = "perf_ledger";
/// Rows left unfetched when the server crashes.
const TAIL: std::ops::RangeInclusive<usize> = 16..=48;

fn server_config() -> ServerConfig {
    ServerConfig {
        disk_model: DiskModel::default(),
        pool_capacity: POOL_PAGES,
        net_c2s: lan(),
        net_s2c: lan(),
        // One row per message, so the unfetched tail is still at the
        // server, not in the client's buffers, when it crashes.
        row_batch: 1,
        faults: None,
        scrub_on_restart: false,
        group_commit: GroupCommit::default(),
        admission: AdmissionConfig::default(),
    }
}

fn phoenix_config() -> PhoenixConfig {
    let mut cfg = PhoenixConfig {
        driver: DriverConfig {
            query_timeout: Some(Duration::from_secs(60)),
            ..Default::default()
        },
        cache: CacheMode::Disabled,
        ..Default::default()
    };
    // A driver buffer of a few rows: a post-crash fetch needs the server.
    cfg.driver.buffer_bytes = 64;
    cfg
}

fn q11() -> String {
    queries::q11_with_fraction(0.0001)
}

/// What the ledger table and Phoenix's status ledger must hold.
#[derive(Default)]
struct Model {
    rows: BTreeMap<i64, (i64, i64)>,
    /// Affected count of each wrapped statement, in request order.
    status: Vec<u64>,
    next_id: i64,
}

impl Model {
    /// The next cycle's DML statements with their expected affected
    /// counts; applies them to the model.
    fn next_dml(&mut self, rng: &mut StdRng, cycle: u64) -> Vec<(String, u64)> {
        let (a, b) = (self.next_id + 1, self.next_id + 2);
        self.next_id += 2;
        let (x, y) = (rng.gen_range(1..1000i64), rng.gen_range(1..1000i64));
        self.rows.insert(a, (cycle as i64, x));
        self.rows.insert(b, (cycle as i64, y));
        let keys: Vec<i64> = self.rows.keys().copied().collect();
        let upd = keys[rng.gen_range(0..keys.len())];
        let d = rng.gen_range(1..100i64);
        self.rows.get_mut(&upd).expect("picked from the model").1 += d;
        let del = keys[rng.gen_range(0..keys.len())];
        self.rows.remove(&del);
        let stmts = vec![
            (
                format!("INSERT INTO {LEDGER} VALUES ({a}, {cycle}, {x}), ({b}, {cycle}, {y})"),
                2,
            ),
            (
                format!("UPDATE {LEDGER} SET amount = amount + {d} WHERE id = {upd}"),
                1,
            ),
            (format!("DELETE FROM {LEDGER} WHERE id = {del}"), 1),
        ];
        self.status.extend(stmts.iter().map(|(_, n)| *n));
        stmts
    }
}

struct Fixture {
    px: PhoenixConnection,
    /// Q11's rows, computed by the engine at set-up.
    expected: Vec<Row>,
    model: Model,
    rng: StdRng,
    cycles: u64,
    server: Server,
}

fn setup(seed: u64) -> (Fixture, SetupTime) {
    trace::span("bench.setup", String::new, || {
        let t = Instant::now();
        let server = Server(DbServer::start(server_config()).expect("server start"));
        let engine = server.engine().expect("server is up");
        let c = EngineClient::new(engine.clone()).expect("engine session");
        let load = trace::span("workloads.load", String::new, || {
            let t = Instant::now();
            workloads::tpch::load(&c, TpchScale::new(SF), DATA_SEED).expect("TPC-H load");
            c.execute(&format!(
                "CREATE TABLE {LEDGER} (id INT PRIMARY KEY, cycle INT, amount INT)"
            ))
            .expect("ledger table");
            t.elapsed()
        });
        trace::span("sqlengine.checkpoint", String::new, || {
            engine.checkpoint().expect("checkpoint")
        });
        let px = trace::span("phoenix.connect", String::new, || {
            PhoenixConnection::connect(&server, phoenix_config()).expect("connect")
        });
        let total = t.elapsed();
        let expected = c.query(&q11()).expect("Q11 reference");
        assert!(
            expected.len() >= 200,
            "Q11 returned {} rows",
            expected.len()
        );
        let fx = Fixture {
            px,
            expected,
            model: Model::default(),
            rng: StdRng::seed_from_u64(seed ^ 0xC4A5),
            cycles: 0,
            server,
        };
        (fx, SetupTime { total, load })
    })
}

#[derive(Default)]
struct Tally {
    cycles: u64,
    failed: u64,
    errs: ErrCounts,
    outage_ms: Vec<f64>,
    restart_ms: Vec<f64>,
    recover_ms: Vec<f64>,
    /// Per recovery phase, in `RecoveryPhases::NAMES` order.
    phase_ms: [Vec<f64>; 6],
    scanned: Vec<f64>,
    redo: Vec<f64>,
    undo: Vec<f64>,
    cpu: Duration,
    wall: Duration,
}

fn row_matches(out: &mut Outcome, expected: &[Row], i: usize, row: &Row) {
    out.check(expected.get(i) == Some(row), || {
        format!("Q11 row {i} delivered out of order or changed")
    });
}

/// One crash cycle. Returns `Err` when an operation failed.
fn cycle(
    fx: &mut Fixture,
    t: &mut Tally,
    stmts: &AtomicU64,
    out: &mut Outcome,
) -> Result<(), Error> {
    let n = fx.cycles;
    fx.cycles += 1;
    for (sql, want) in fx.model.next_dml(&mut fx.rng, n) {
        stmts.fetch_add(1, Ordering::Relaxed);
        let got = trace::span(
            "phoenix.dml",
            || crate::layers::verb(&sql),
            || fx.px.exec(&sql),
        )?;
        out.check(got == ExecKind::RowCount(want), || {
            format!("`{sql}` returned {got:?}, expected {want} rows")
        });
    }
    stmts.fetch_add(1, Ordering::Relaxed);
    trace::span("phoenix.exec", || "Q11".into(), || fx.px.exec(&q11()))?;
    let total = fx.expected.len();
    let head = total - fx.rng.gen_range(TAIL);
    let mut delivered = 0;
    trace::span(
        "phoenix.fetch",
        || "head".into(),
        || -> Result<(), Error> {
            while delivered < head {
                let row = fx
                    .px
                    .fetch()?
                    .ok_or(Error::Internal("Q11 ended early".into()))?;
                row_matches(out, &fx.expected, delivered, &row);
                delivered += 1;
            }
            Ok(())
        },
    )?;

    let recoveries = fx.px.stats().recoveries;
    let crashed = Instant::now();
    trace::span("wire.crash", String::new, || fx.server.crash());
    let restarted = Instant::now();
    let stats = trace::span("wire.restart", String::new, || fx.server.restart())?;
    t.restart_ms.push(ms(restarted.elapsed()));
    // The outage ends with the first row the recovered session delivers
    // (rows still in the driver's buffer come out before recovery).
    let outage = trace::span(
        "phoenix.fetch",
        || "recover".into(),
        || -> Result<Duration, Error> {
            loop {
                let row = fx
                    .px
                    .fetch()?
                    .ok_or(Error::Internal("Q11 tail lost".into()))?;
                row_matches(out, &fx.expected, delivered, &row);
                delivered += 1;
                if fx.px.stats().recoveries > recoveries {
                    return Ok(crashed.elapsed());
                }
            }
        },
    )?;
    trace::span(
        "phoenix.fetch",
        || "tail".into(),
        || -> Result<(), Error> {
            while let Some(row) = fx.px.fetch()? {
                row_matches(out, &fx.expected, delivered, &row);
                delivered += 1;
            }
            Ok(())
        },
    )?;
    out.check(delivered == total, || {
        format!("cycle {n}: delivered {delivered} of {total} Q11 rows")
    });
    out.check(fx.px.stats().recoveries == recoveries + 1, || {
        format!("cycle {n}: expected exactly one session recovery")
    });
    fx.px.close_result();
    let engine = fx.server.engine().ok_or(Error::ServerShutdown)?;
    trace::span("sqlengine.checkpoint", String::new, || engine.checkpoint())?;

    t.outage_ms.push(ms(outage));
    t.scanned.push(stats.records_scanned as f64);
    t.redo.push(stats.redo_applied as f64);
    t.undo.push(stats.undo_actions as f64);
    if let Some(r) = fx.px.last_recovery_timing() {
        t.recover_ms.push(ms(r.virtual_session + r.sql_state));
    }
    if let Some(p) = fx.px.last_recovery_phases() {
        for (i, (_, d)) in p.named().iter().enumerate() {
            t.phase_ms[i].push(ms(*d));
        }
    }
    Ok(())
}

fn run_phase(
    fx: &mut Fixture,
    measure: Duration,
    out: &mut Outcome,
) -> (Tally, crate::layers::Delta) {
    let stmts = AtomicU64::new(0);
    let mut t = Tally::default();
    let p0 = Probe::take(&fx.server, &[&fx.px], &stmts);
    let (start, cpu0) = (Instant::now(), process_cpu());
    while start.elapsed() < measure {
        let label = fx.cycles.to_string();
        match trace::span(
            "workloads.cycle",
            || label,
            || cycle(fx, &mut t, &stmts, out),
        ) {
            Ok(()) => t.cycles += 1,
            Err(e) => {
                t.errs.note(&e);
                t.failed += 1;
                out.fail(format!("crash cycle failed: {e}"));
                break;
            }
        }
    }
    t.wall = start.elapsed();
    t.cpu = process_cpu() - cpu0;
    let p1 = Probe::take(&fx.server, &[&fx.px], &stmts);
    (t, p0.delta(&p1))
}

/// The ledger table and this session's `phx_status` rows must match the
/// model: every wrapped statement applied exactly once.
fn check_ledgers(fx: &Fixture, out: &mut Outcome) {
    let c = EngineClient::new(fx.server.engine().expect("server is up")).expect("engine session");
    let rows = c
        .query(&format!(
            "SELECT id, cycle, amount FROM {LEDGER} ORDER BY id"
        ))
        .expect("ledger query");
    let want: Vec<Row> = fx
        .model
        .rows
        .iter()
        .map(|(id, (cy, amt))| vec![Value::Int(*id), Value::Int(*cy), Value::Int(*amt)])
        .collect();
    out.check(rows == want, || {
        format!("{LEDGER} holds {} rows, model {}", rows.len(), want.len())
    });
    let status = c
        .query(&format!(
            "SELECT req_id, affected FROM {STATUS_TABLE} WHERE app_key = '{}' ORDER BY req_id",
            fx.px.app_key()
        ))
        .expect("status query");
    let want: Vec<Row> = fx
        .model
        .status
        .iter()
        .enumerate()
        .map(|(i, n)| vec![Value::Int(i as i64 + 1), Value::Int(*n as i64)])
        .collect();
    out.check(status == want, || {
        format!(
            "{STATUS_TABLE} holds {} rows for this session, model {}",
            status.len(),
            want.len()
        )
    });
}

fn set_end_to_end(v: &mut Values, t: &Tally, setup_s: f64) {
    v.set("setup_s", setup_s);
    v.set("ops_per_s", ratio(t.cycles as f64, t.wall.as_secs_f64()));
    v.set("op_p50_ms", median(&t.outage_ms));
    v.set("op_p95_ms", quantile(&t.outage_ms, 0.95));
    v.set("cpu_ms_per_op", ratio(ms(t.cpu), t.cycles as f64));
    v.set(
        "success_frac",
        ratio(t.cycles as f64, (t.cycles + t.failed) as f64),
    );
}

/// Cycle `n` without the crash, through the three-stack replay.
fn replay_cycle(
    tee: &Tee,
    model: &mut Model,
    rng: &mut StdRng,
    n: u64,
    expected: &[Row],
    out: &mut Outcome,
) {
    for (sql, want) in model.next_dml(rng, n) {
        let r = tee.execute(&sql);
        out.check(r == Ok(ExecResult::Affected(want)), || {
            format!("replay `{sql}` returned {r:?}")
        });
    }
    let rows = tee.query(&q11());
    out.check(rows.as_deref() == Ok(expected), || {
        "replay Q11 differs".into()
    });
}

pub fn run(args: &Args, v: &mut Values, out: &mut Outcome) {
    let measure = Duration::from_secs(args.seconds);
    let (mut fixtures, setup_s, load_s) =
        repeated_setup(if args.trace { 3 } else { 1 }, || setup(args.seed));
    let mut fx = fixtures.pop().expect("a fixture");
    if !args.trace {
        let (t, _) = run_phase(&mut fx, measure, out);
        check_ledgers(&fx, out);
        out.attempted = t.cycles + t.failed;
        out.failed = t.failed;
        set_end_to_end(v, &t, setup_s);
        return;
    }

    {
        let native = OdbcConnection::connect(&fixtures[0].server, phoenix_config().driver)
            .expect("native connect");
        let engine = EngineClient::new(fixtures[1].server.engine().expect("up")).expect("session");
        let tee = Tee::new(&fx.px, &native, &engine);
        trace::set_enabled(true);
        let until = Instant::now() + measure / 4;
        while Instant::now() < until {
            let n = fx.cycles;
            fx.cycles += 1;
            trace::span(
                "bench.replay",
                || n.to_string(),
                || replay_cycle(&tee, &mut fx.model, &mut fx.rng, n, &fx.expected, out),
            );
        }
        trace::set_enabled(false);
        for m in tee.mismatches() {
            out.fail(m);
        }
        tee.fill(v);
        native.disconnect();
    }
    fixtures.clear();

    let (plain, _) = run_phase(&mut fx, measure / 2, out);
    trace::set_enabled(true);
    let (t, delta) = run_phase(&mut fx, measure / 2, out);
    trace::set_enabled(false);
    check_ledgers(&fx, out);
    out.attempted = t.cycles + t.failed;
    out.failed = t.failed;
    let cycles = t.cycles as f64;
    delta.fill(v, cycles, delta.wrapped as f64);
    v.set("phoenix.recover_ms", mean(&t.recover_ms));
    for (i, name) in [
        "phoenix.recovery.detect_ms",
        "phoenix.recovery.ping_ms",
        "phoenix.recovery.reconnect_ms",
        "phoenix.recovery.rebind_ms",
        "phoenix.recovery.reinstall_ms",
        "phoenix.recovery.reposition_ms",
    ]
    .into_iter()
    .enumerate()
    {
        v.set(name, mean(&t.phase_ms[i]));
    }
    v.set("wire.restart_ms", mean(&t.restart_ms));
    v.set("sqlengine.recovery.records_scanned", mean(&t.scanned));
    v.set("sqlengine.recovery.redo_applied", mean(&t.redo));
    v.set("sqlengine.recovery.undo_actions", mean(&t.undo));
    v.set("workloads.load_s", load_s);
    crate::fill_failures(v, t.cycles + t.failed, t.failed, &t.errs);
    v.set(
        "bench.trace_overhead_frac",
        ratio(t.wall.as_secs_f64(), cycles) / ratio(plain.wall.as_secs_f64(), plain.cycles as f64)
            - 1.0,
    );
}
