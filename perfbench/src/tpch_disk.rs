//! `tpch_disk`: one Phoenix session repeating the TPC-H power stream
//! (22 queries in `stream_order(0)`, then RF1 and RF2) with client
//! caching off, so every SELECT is persisted server-side, over a buffer
//! pool a quarter of the database's size and a 100 µs-per-page disk.

use std::sync::atomic::AtomicU64;
use std::time::{Duration, Instant};

use odbcsim::{DriverConfig, OdbcConnection};
use phoenix::{CacheMode, ExecKind, PhoenixConfig, PhoenixConnection};
use sqlengine::storage::disk::DiskModel;
use sqlengine::types::Row;
use wire::{AdmissionConfig, DbServer, GroupCommit, ServerConfig};
use workloads::tpch::refresh::{rf1, rf2, RefreshState};
use workloads::tpch::{queries, TpchScale};
use workloads::{EngineClient, SqlClient};

use crate::layers::{Counted, Probe, Tee};
use crate::metrics::{Outcome, Values};
use crate::trace;
use crate::util::{
    lan, mean, median, ms, process_cpu, quantile, ratio, repeated_setup, ErrCounts, Server,
    SetupTime, DATA_SEED,
};
use crate::Args;

const SF: f64 = 0.01;
/// The loaded database is ~1320 pages; the pool holds under a quarter.
const POOL_PAGES: usize = 320;
const IO_LATENCY: Duration = Duration::from_micros(100);

fn server_config() -> ServerConfig {
    ServerConfig {
        disk_model: DiskModel::uniform(IO_LATENCY),
        pool_capacity: POOL_PAGES,
        net_c2s: lan(),
        net_s2c: lan(),
        row_batch: 16,
        faults: None,
        scrub_on_restart: false,
        // One session: every commit flushes the WAL on its own.
        group_commit: GroupCommit::default(),
        admission: AdmissionConfig::default(),
    }
}

fn phoenix_config() -> PhoenixConfig {
    PhoenixConfig {
        driver: DriverConfig {
            query_timeout: Some(Duration::from_secs(120)),
            ..Default::default()
        },
        cache: CacheMode::Disabled,
        ..Default::default()
    }
}

struct Fixture {
    px: PhoenixConnection,
    refresh: RefreshState,
    server: Server,
}

fn refresh_state(seed: u64) -> RefreshState {
    RefreshState::new(TpchScale::new(SF), seed ^ 0xF00D)
}

fn load(server: &DbServer) -> Duration {
    trace::span("workloads.load", String::new, || {
        let t = Instant::now();
        let c = EngineClient::new(server.engine().expect("server is up")).expect("session");
        workloads::tpch::load(&c, TpchScale::new(SF), DATA_SEED).expect("TPC-H load");
        t.elapsed()
    })
}

fn setup(seed: u64) -> (Fixture, SetupTime) {
    trace::span("bench.setup", String::new, || {
        let t = Instant::now();
        let server = Server(DbServer::start(server_config()).expect("server start"));
        let load = load(&server);
        let engine = server.engine().expect("server is up");
        trace::span("sqlengine.checkpoint", String::new, || {
            engine.checkpoint().expect("checkpoint")
        });
        let px = trace::span("phoenix.connect", String::new, || {
            PhoenixConnection::connect(&server, phoenix_config()).expect("connect")
        });
        let total = t.elapsed();
        let pages = server.durable().disk.num_pages() as usize;
        assert!(
            POOL_PAGES * 4 <= pages,
            "pool of {POOL_PAGES} pages is over a quarter of the {pages}-page database"
        );
        let fx = Fixture {
            px,
            refresh: refresh_state(seed),
            server,
        };
        (fx, SetupTime { total, load })
    })
}

/// The correctness reference: the same database on a server whose pool
/// holds all of it and whose disk costs nothing, queried straight
/// through the engine, and sent the same refresh statements, so it is
/// always in the state the measured server is in. It is built after
/// set-up and queried outside the timed stream.
struct Reference {
    client: EngineClient,
    refresh: RefreshState,
    _server: Server,
}

impl Reference {
    fn new(seed: u64) -> Reference {
        let server = Server(
            DbServer::start(ServerConfig {
                pool_capacity: 1 << 16,
                ..ServerConfig::instant_net()
            })
            .expect("server start"),
        );
        load(&server);
        Reference {
            client: EngineClient::new(server.engine().expect("server is up")).expect("session"),
            refresh: refresh_state(seed),
            _server: server,
        }
    }

    /// Apply the refresh pair the measured server just ran; returns the
    /// rows they changed.
    fn refresh(&mut self) -> sqlengine::Result<(u64, u64)> {
        Ok((
            rf1(&self.client, &mut self.refresh)?,
            rf2(&self.client, &mut self.refresh)?,
        ))
    }
}

/// Run one query through Phoenix: exec (probe, create, materialize,
/// reopen) then fetch every row.
fn phoenix_query(px: &PhoenixConnection, qid: usize, sql: &str) -> sqlengine::Result<Vec<Row>> {
    trace::span(
        "workloads.query",
        || format!("Q{qid:02}"),
        || {
            let kind = trace::span("phoenix.exec", || format!("Q{qid:02}"), || px.exec(sql))?;
            match kind {
                ExecKind::ResultSet { .. } => {
                    trace::span("phoenix.fetch", || format!("Q{qid:02}"), || px.fetch_all())
                }
                _ => Ok(Vec::new()),
            }
        },
    )
}

#[derive(Default)]
struct Tally {
    streams: u64,
    failed: u64,
    errs: ErrCounts,
    /// Seconds per completed stream (correctness checks excluded).
    stream_s: Vec<f64>,
    busy: Duration,
    cpu: Duration,
}

/// One power stream. Every query result is compared with the
/// reference's result for the same statement on the same state, and the
/// refresh functions must change the same rows on both (untimed).
fn stream(
    fx: &mut Fixture,
    reference: &mut Reference,
    stmts: &AtomicU64,
    t: &mut Tally,
    out: &mut Outcome,
) {
    let mut elapsed = Duration::ZERO;
    let mut cpu = Duration::ZERO;
    let mut ok = true;
    for (qid, sql) in queries::stream_order(0) {
        let (t0, c0) = (Instant::now(), process_cpu());
        stmts.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let r = phoenix_query(&fx.px, qid, &sql);
        elapsed += t0.elapsed();
        cpu += process_cpu() - c0;
        match r {
            Ok(rows) => {
                let want = trace::span(
                    "bench.check",
                    || format!("Q{qid:02}"),
                    || reference.client.query(&sql),
                );
                out.check(want.as_ref() == Ok(&rows), || {
                    format!("Q{qid}: Phoenix result differs from the engine's")
                });
            }
            Err(e) => {
                t.errs.note(&e);
                ok = false;
            }
        }
    }
    let counted = Counted {
        inner: &fx.px,
        stmts,
    };
    let (t0, c0) = (Instant::now(), process_cpu());
    let r1 = trace::span("workloads.rf1", String::new, || {
        rf1(&counted, &mut fx.refresh)
    });
    let r2 = trace::span("workloads.rf2", String::new, || {
        rf2(&counted, &mut fx.refresh)
    });
    elapsed += t0.elapsed();
    cpu += process_cpu() - c0;
    for r in [&r1, &r2] {
        if let Err(e) = r {
            t.errs.note(e);
            ok = false;
        }
    }
    let want = trace::span("bench.check", || "RF".into(), || reference.refresh());
    if let (Ok(a), Ok(b)) = (&r1, &r2) {
        out.check(want == Ok((*a, *b)) && *a > 0 && *b > 0, || {
            format!("RF1/RF2 changed {a}/{b} rows, reference {want:?}")
        });
    }
    if ok {
        t.streams += 1;
        t.stream_s.push(elapsed.as_secs_f64());
    } else {
        t.failed += 1;
    }
    t.busy += elapsed;
    t.cpu += cpu;
}

/// Streams until `measure` of stream time has passed (at least `min`).
fn run_phase(
    fx: &mut Fixture,
    reference: &mut Reference,
    measure: Duration,
    min: u64,
    out: &mut Outcome,
) -> (Tally, crate::layers::Delta) {
    let stmts = AtomicU64::new(0);
    let p0 = Probe::take(&fx.server, &[&fx.px], &stmts);
    let mut t = Tally::default();
    let mut n = 0;
    while t.busy < measure || n < min {
        stream(fx, reference, &stmts, &mut t, out);
        n += 1;
    }
    let p1 = Probe::take(&fx.server, &[&fx.px], &stmts);
    (t, p0.delta(&p1))
}

fn set_end_to_end(v: &mut Values, t: &Tally, setup_s: f64) {
    let attempted = (t.streams + t.failed) as f64;
    v.set("setup_s", setup_s);
    v.set("ops_per_s", ratio(t.streams as f64, t.busy.as_secs_f64()));
    v.set("op_p50_ms", median(&t.stream_s) * 1e3);
    v.set("op_p95_ms", quantile(&t.stream_s, 0.95) * 1e3);
    v.set("cpu_ms_per_op", ratio(ms(t.cpu), t.streams as f64));
    v.set("success_frac", ratio(t.streams as f64, attempted));
}

pub fn run(args: &Args, v: &mut Values, out: &mut Outcome) {
    let measure = Duration::from_secs(args.seconds);
    let (mut fixtures, setup_s, load_s) =
        repeated_setup(if args.trace { 3 } else { 1 }, || setup(args.seed));
    let mut fx = fixtures.pop().expect("a fixture");
    let mut reference = Reference::new(args.seed);
    // Warm-up: the first queries of a stream bring the pool to its
    // steady state.
    for (qid, sql) in queries::stream_order(0).into_iter().take(4) {
        let _ = phoenix_query(&fx.px, qid, &sql);
    }
    if !args.trace {
        let (t, _) = run_phase(&mut fx, &mut reference, measure, 2, out);
        out.attempted = t.streams + t.failed;
        out.failed = t.failed;
        set_end_to_end(v, &t, setup_s);
        return;
    }

    // Replay one stream through all three stacks, each on its own
    // identically loaded server.
    {
        let native = OdbcConnection::connect(&fixtures[0].server, phoenix_config().driver)
            .expect("native connect");
        let engine = EngineClient::new(fixtures[1].server.engine().expect("up")).expect("session");
        let tee = Tee::new(&fx.px, &native, &engine);
        trace::set_enabled(true);
        for (qid, sql) in queries::stream_order(0) {
            let r = trace::span("bench.replay", || format!("Q{qid:02}"), || tee.query(&sql));
            out.check(r.is_ok(), || format!("replay Q{qid} failed"));
        }
        let r = trace::span(
            "bench.replay",
            || "RF".into(),
            || rf1(&tee, &mut fx.refresh).and_then(|_| rf2(&tee, &mut fx.refresh)),
        );
        out.check(r.is_ok() && reference.refresh().is_ok(), || {
            "replay RF failed".into()
        });
        trace::set_enabled(false);
        for m in tee.mismatches() {
            out.fail(m);
        }
        tee.fill(v);
        native.disconnect();
    }
    fixtures.clear();

    let (plain, _) = run_phase(&mut fx, &mut reference, measure / 2, 1, out);
    trace::set_enabled(true);
    let (t, delta) = run_phase(&mut fx, &mut reference, measure / 2, 1, out);
    trace::set_enabled(false);
    out.attempted = t.streams + t.failed;
    out.failed = t.failed;
    let streams = t.streams as f64;
    delta.fill(v, streams, delta.wrapped as f64);
    v.set("workloads.load_s", load_s);
    crate::fill_failures(v, t.streams + t.failed, t.failed, &t.errs);
    v.set(
        "bench.trace_overhead_frac",
        mean(&t.stream_s) / mean(&plain.stream_s) - 1.0,
    );
}
