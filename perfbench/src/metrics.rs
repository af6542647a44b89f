//! The metric catalogue (names, units) and the result line.
//!
//! Every workload reports every metric of the catalogue it is asked for:
//! the end-to-end set with `--trace 0`, the per-layer set with
//! `--trace 1`. A per-layer metric that a workload does not exercise
//! reads 0. `perfbench/README.md` says what each metric means on each
//! workload.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, measured with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p95_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("success_frac", "frac"),
    ("rss_mb", "MiB"),
];

/// Per-layer metrics, from the traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("phoenix.stmt_p50_us", "us"),
    ("phoenix.self_us_per_stmt", "us"),
    ("phoenix.vs_native_ratio", "ratio"),
    ("phoenix.persist.probe_us", "us"),
    ("phoenix.persist.create_us", "us"),
    ("phoenix.persist.materialize_us", "us"),
    ("phoenix.persist.reopen_us", "us"),
    ("phoenix.persisted_per_stmt", "count/stmt"),
    ("phoenix.cached_per_stmt", "count/stmt"),
    ("phoenix.wrapped_per_txn", "count/txn"),
    ("phoenix.recover_ms", "ms"),
    ("phoenix.recovery.detect_ms", "ms"),
    ("phoenix.recovery.ping_ms", "ms"),
    ("phoenix.recovery.reconnect_ms", "ms"),
    ("phoenix.recovery.rebind_ms", "ms"),
    ("phoenix.recovery.reinstall_ms", "ms"),
    ("phoenix.recovery.reposition_ms", "ms"),
    ("odbcsim.roundtrips_per_stmt", "count/stmt"),
    ("odbcsim.stmt_p50_us", "us"),
    ("wire.restart_ms", "ms"),
    ("wire.shed_per_op", "count/op"),
    ("sqlengine.stmt_p50_us", "us"),
    ("sqlengine.lock.deadlocks_per_commit", "count/commit"),
    ("sqlengine.lock.wait_ms_per_txn", "ms"),
    ("sqlengine.wal.flushes_per_commit", "count/commit"),
    ("sqlengine.disk.reads_per_op", "count/op"),
    ("sqlengine.disk.writes_per_op", "count/op"),
    ("sqlengine.disk.busy_ms_per_op", "ms"),
    ("sqlengine.recovery.records_scanned", "count"),
    ("sqlengine.recovery.redo_applied", "count"),
    ("sqlengine.recovery.undo_actions", "count"),
    ("sqlengine.checkpoint_ms", "ms"),
    ("workloads.retries_per_commit", "count/commit"),
    ("workloads.load_s", "s"),
    ("bench.trace_overhead_frac", "frac"),
    ("bench.failed_frac", "frac"),
    ("bench.err.deadlock", "count"),
    ("bench.err.txn_aborted", "count"),
    ("bench.err.timeout", "count"),
    ("bench.err.server_busy", "count"),
    ("bench.err.other", "count"),
    ("bench.replay_stmts", "count"),
];

/// Values for one catalogue; every name starts at 0.
pub struct Values {
    catalogue: &'static [(&'static str, &'static str)],
    values: BTreeMap<&'static str, f64>,
}

impl Values {
    pub fn new(catalogue: &'static [(&'static str, &'static str)]) -> Values {
        Values {
            catalogue,
            values: catalogue.iter().map(|(n, _)| (*n, 0.0)).collect(),
        }
    }

    /// Set a metric. Panics on a name outside the catalogue: that is a
    /// bug in the benchmark, not in the program measured.
    pub fn set(&mut self, name: &'static str, v: f64) {
        let slot = self
            .values
            .get_mut(name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        *slot = if v.is_finite() { v } else { 0.0 };
    }

    /// One `name value unit` line per metric, in catalogue order.
    pub fn render_table(&self) -> String {
        let mut s = String::new();
        for (name, unit) in self.catalogue {
            let _ = writeln!(s, "{name:<40} {:>14.4} {unit}", self.values[name]);
        }
        s
    }
}

/// The run's outcome, printed as the last line of standard output.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Why `correct` is false, one line each.
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn new() -> Outcome {
        Outcome {
            correct: true,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    /// Record a failed correctness check.
    pub fn fail(&mut self, why: String) {
        self.correct = false;
        if self.problems.len() < 20 {
            self.problems.push(why);
        }
    }

    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.fail(why());
        }
    }
}

pub fn result_line(out: &Outcome, values: &Values) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.correct,
        out.attempted.max(1),
        out.failed
    );
    for (i, (name, unit)) in values.catalogue.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{name}\": {{\"value\": {:?}, \"unit\": \"{unit}\"}}",
            values.values[name]
        );
    }
    s.push_str("}}");
    s
}
