//! Per-layer accounting: counter snapshots around a measured phase, and
//! the three-stack statement replay that splits a statement's time into
//! its Phoenix, driver/network and engine shares.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use obskit::HistogramSnapshot;
use odbcsim::OdbcConnection;
use phoenix::{PhoenixConnection, PhoenixStats};
use sqlengine::storage::disk::IoSnapshot;
use sqlengine::Result;
use wire::DbServer;
use workloads::{EngineClient, ExecResult, SqlClient};

use crate::metrics::Values;
use crate::trace;
use crate::util::{median, ratio, us};

/// Everything the layers expose publicly, at one instant.
pub struct Probe {
    reg: obskit::Snapshot,
    io: IoSnapshot,
    shed: u64,
    px: PhoenixStats,
    stmts: u64,
}

impl Probe {
    pub fn take(server: &DbServer, conns: &[&PhoenixConnection], stmts: &AtomicU64) -> Probe {
        let mut px = PhoenixStats::default();
        for c in conns {
            let s = c.stats();
            px.results_persisted += s.results_persisted;
            px.results_cached += s.results_cached;
            px.updates_wrapped += s.updates_wrapped;
            px.recoveries += s.recoveries;
        }
        Probe {
            reg: obskit::metrics::global().snapshot(),
            io: server.io_snapshot(),
            shed: server.admission_stats().shed,
            px,
            stmts: stmts.load(Ordering::Relaxed),
        }
    }

    /// Activity between `self` and `later`.
    pub fn delta(&self, later: &Probe) -> Delta {
        Delta {
            reg: self.reg.diff(&later.reg),
            io: later.io.delta(self.io),
            shed: later.shed - self.shed,
            persisted: later.px.results_persisted - self.px.results_persisted,
            cached: later.px.results_cached - self.px.results_cached,
            wrapped: later.px.updates_wrapped - self.px.updates_wrapped,
            stmts: later.stmts - self.stmts,
        }
    }
}

/// Layer activity over one phase.
pub struct Delta {
    reg: obskit::Snapshot,
    pub io: IoSnapshot,
    pub shed: u64,
    pub persisted: u64,
    pub cached: u64,
    pub wrapped: u64,
    /// Application statements issued.
    pub stmts: u64,
}

impl Delta {
    fn hist(&self, name: &str) -> HistogramSnapshot {
        self.reg.hists.get(name).cloned().unwrap_or_default()
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.reg.counters.get(name).copied().unwrap_or(0)
    }

    /// Number of observations of histogram `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.hist(name).count
    }

    /// Sum of histogram `name` (nanoseconds) in milliseconds.
    pub fn sum_ms(&self, name: &str) -> f64 {
        self.hist(name).sum as f64 / 1e6
    }

    /// Mean of histogram `name` in microseconds (0 when empty).
    pub fn mean_us(&self, name: &str) -> f64 {
        let h = self.hist(name);
        ratio(h.sum as f64 / 1e3, h.count as f64)
    }

    /// Set the per-layer metrics derived from counters alone. `ops` is
    /// the workload's unit of work, `commits` the operations that
    /// committed durable work.
    pub fn fill(&self, v: &mut Values, ops: f64, commits: f64) {
        let stmts = self.stmts as f64;
        v.set(
            "phoenix.persist.probe_us",
            self.mean_us("phoenix.persist.probe"),
        );
        v.set(
            "phoenix.persist.create_us",
            self.mean_us("phoenix.persist.create"),
        );
        v.set(
            "phoenix.persist.materialize_us",
            self.mean_us("phoenix.persist.materialize"),
        );
        v.set(
            "phoenix.persist.reopen_us",
            self.mean_us("phoenix.persist.reopen"),
        );
        v.set(
            "phoenix.persisted_per_stmt",
            ratio(self.persisted as f64, stmts),
        );
        v.set("phoenix.cached_per_stmt", ratio(self.cached as f64, stmts));
        v.set(
            "phoenix.wrapped_per_txn",
            ratio(self.wrapped as f64, commits),
        );
        v.set(
            "odbcsim.roundtrips_per_stmt",
            ratio(self.count("odbcsim.roundtrip.exec") as f64, stmts),
        );
        v.set("wire.shed_per_op", ratio(self.shed as f64, ops));
        v.set(
            "sqlengine.lock.deadlocks_per_commit",
            ratio(self.counter("sqlengine.lock.deadlocks") as f64, commits),
        );
        v.set(
            "sqlengine.lock.wait_ms_per_txn",
            ratio(self.sum_ms("sqlengine.lock.wait"), commits),
        );
        v.set(
            "sqlengine.wal.flushes_per_commit",
            ratio(self.count("sqlengine.wal.flush") as f64, commits),
        );
        v.set(
            "sqlengine.disk.reads_per_op",
            ratio(self.io.reads as f64, ops),
        );
        v.set(
            "sqlengine.disk.writes_per_op",
            ratio(self.io.writes as f64, ops),
        );
        v.set(
            "sqlengine.disk.busy_ms_per_op",
            ratio(self.io.busy.as_secs_f64() * 1e3, ops),
        );
        v.set(
            "sqlengine.checkpoint_ms",
            ratio(
                self.sum_ms("sqlengine.wal.checkpoint"),
                self.count("sqlengine.wal.checkpoint") as f64,
            ),
        );
    }
}

/// A [`SqlClient`] that counts the statements it forwards to Phoenix and
/// records a `phoenix.stmt` span around each (detail: the first word).
pub struct Counted<'a, C> {
    pub inner: &'a C,
    pub stmts: &'a AtomicU64,
}

pub fn verb(sql: &str) -> String {
    sql.split_whitespace()
        .next()
        .unwrap_or("")
        .to_ascii_uppercase()
}

impl<C: SqlClient> SqlClient for Counted<'_, C> {
    fn execute(&self, sql: &str) -> Result<ExecResult> {
        self.stmts.fetch_add(1, Ordering::Relaxed);
        trace::span("phoenix.stmt", || verb(sql), || self.inner.execute(sql))
    }
}

/// The three-stack replay: every statement runs on three identically
/// loaded servers — through Phoenix, through the native driver, and
/// straight into the engine — so the difference between Phoenix and
/// native is the Phoenix share, and the difference between native and
/// engine-only is the driver and network share. The results must agree.
pub struct Tee<'a> {
    phoenix: &'a PhoenixConnection,
    native: &'a OdbcConnection,
    engine: &'a EngineClient,
    /// Per statement: (phoenix, native, engine).
    samples: RefCell<Vec<[Duration; 3]>>,
    mismatches: RefCell<Vec<String>>,
}

fn timed<R>(name: &'static str, sql: &str, f: impl FnOnce() -> R) -> (Duration, R) {
    let t = Instant::now();
    let r = trace::span(name, || verb(sql), f);
    (t.elapsed(), r)
}

fn same(a: &Result<ExecResult>, b: &Result<ExecResult>) -> bool {
    match (a, b) {
        (Ok(x), Ok(y)) => x == y,
        (Err(_), Err(_)) => true,
        _ => false,
    }
}

impl<'a> Tee<'a> {
    pub fn new(
        phoenix: &'a PhoenixConnection,
        native: &'a OdbcConnection,
        engine: &'a EngineClient,
    ) -> Tee<'a> {
        Tee {
            phoenix,
            native,
            engine,
            samples: RefCell::new(Vec::new()),
            mismatches: RefCell::new(Vec::new()),
        }
    }

    /// Statements whose three results differed.
    pub fn mismatches(&self) -> Vec<String> {
        self.mismatches.borrow().clone()
    }

    /// Set the replay-derived per-layer metrics.
    pub fn fill(&self, v: &mut Values) {
        let samples = self.samples.borrow();
        let col = |i: usize| -> Vec<f64> { samples.iter().map(|s| us(s[i])).collect() };
        let (px, native, engine) = (col(0), col(1), col(2));
        let (px_sum, native_sum): (f64, f64) = (px.iter().sum(), native.iter().sum());
        v.set("phoenix.stmt_p50_us", median(&px));
        v.set("odbcsim.stmt_p50_us", median(&native));
        v.set("sqlengine.stmt_p50_us", median(&engine));
        v.set(
            "phoenix.self_us_per_stmt",
            ratio(px_sum - native_sum, px.len() as f64),
        );
        v.set("phoenix.vs_native_ratio", ratio(px_sum, native_sum));
        v.set("bench.replay_stmts", px.len() as f64);
    }
}

impl SqlClient for Tee<'_> {
    fn execute(&self, sql: &str) -> Result<ExecResult> {
        let (te, re) = timed("sqlengine.stmt", sql, || self.engine.execute(sql));
        let (tn, rn) = timed("odbcsim.stmt", sql, || self.native.execute(sql));
        let (tp, rp) = timed("phoenix.stmt", sql, || self.phoenix.execute(sql));
        if !same(&rp, &rn) || !same(&rp, &re) {
            let mut m = self.mismatches.borrow_mut();
            if m.len() < 5 {
                m.push(format!(
                    "replay results differ for `{}`",
                    sql.chars().take(80).collect::<String>()
                ));
            }
        }
        self.samples.borrow_mut().push([tp, tn, te]);
        rp
    }
}
