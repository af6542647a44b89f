//! Shared measurement helpers: clocks, memory, quantiles, error classes,
//! server presets and the repeated set-up step.

use std::time::{Duration, Instant};

use sqlengine::Error;
use wire::{DbServer, NetConfig};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed by every thread of this process, in nanosecond
/// resolution (`/proc/self/stat` only has 10 ms ticks).
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Quantile `q` of `xs` with linear interpolation between ranks (the
/// `inclusive` method of Python's `statistics.quantiles`). 0 when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// `a / b`, or 0 when nothing was counted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The error kinds every failed or retried operation is counted under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrKind {
    Deadlock,
    TxnAborted,
    Timeout,
    ServerBusy,
    Other,
}

impl ErrKind {
    pub const ALL: [ErrKind; 5] = [
        ErrKind::Deadlock,
        ErrKind::TxnAborted,
        ErrKind::Timeout,
        ErrKind::ServerBusy,
        ErrKind::Other,
    ];

    pub fn of(e: &Error) -> ErrKind {
        match e {
            Error::Deadlock => ErrKind::Deadlock,
            Error::TxnAborted(_) => ErrKind::TxnAborted,
            Error::Timeout => ErrKind::Timeout,
            Error::ServerBusy { .. } => ErrKind::ServerBusy,
            _ => ErrKind::Other,
        }
    }

    /// The per-layer metric counting this kind.
    pub fn metric(self) -> &'static str {
        match self {
            ErrKind::Deadlock => "bench.err.deadlock",
            ErrKind::TxnAborted => "bench.err.txn_aborted",
            ErrKind::Timeout => "bench.err.timeout",
            ErrKind::ServerBusy => "bench.err.server_busy",
            ErrKind::Other => "bench.err.other",
        }
    }
}

/// Failed-or-retried attempts per [`ErrKind`].
#[derive(Debug, Default, Clone, Copy)]
pub struct ErrCounts([u64; 5]);

impl ErrCounts {
    pub fn note(&mut self, e: &Error) {
        self.0[ErrKind::of(e) as usize] += 1;
    }

    pub fn add(&mut self, other: &ErrCounts) {
        for (a, b) in self.0.iter_mut().zip(other.0) {
            *a += b;
        }
    }

    pub fn get(&self, k: ErrKind) -> u64 {
        self.0[k as usize]
    }
}

/// Seed of the TPC-C and TPC-H data generators. As with TPC-H's own
/// dbgen, a workload's database is the same on every run; `--seed`
/// varies what runs against it (transaction parameters, refresh data,
/// crash points). Measured: loading TPC-H from the run seed made stream
/// time differ by ~10% between seeds.
pub const DATA_SEED: u64 = 1;

/// The simulated LAN every workload runs over: 100 µs propagation,
/// 100 Mbit/s, a 64 KiB server output buffer and 20 µs per message.
pub fn lan() -> NetConfig {
    NetConfig {
        latency: Duration::from_micros(100),
        bytes_per_sec: Some(12_500_000),
        buffer_bytes: 64 * 1024,
        per_msg_cost: Duration::from_micros(20),
    }
}

/// A server that is crashed when dropped, so a discarded set-up leaves
/// no connection threads running.
pub struct Server(pub DbServer);

impl Drop for Server {
    fn drop(&mut self) {
        self.0.crash();
    }
}

impl std::ops::Deref for Server {
    type Target = DbServer;
    fn deref(&self) -> &DbServer {
        &self.0
    }
}

/// Set-up timings of one repetition.
#[derive(Debug, Clone, Copy)]
pub struct SetupTime {
    /// Start, load, checkpoint and connect.
    pub total: Duration,
    /// The workload generator's load alone.
    pub load: Duration,
}

/// Set-up repetitions per run; the median is reported.
const SETUP_REPS: usize = 3;

/// Run `setup` [`SETUP_REPS`] times and return the median total and load
/// seconds with the fixtures of the last `keep` repetitions (identical
/// copies a traced run replays against); earlier ones are dropped as
/// soon as they are timed, so they do not count towards peak memory.
pub fn repeated_setup<T>(
    keep: usize,
    mut setup: impl FnMut() -> (T, SetupTime),
) -> (Vec<T>, f64, f64) {
    let mut fixtures = Vec::new();
    let mut totals = Vec::new();
    let mut loads = Vec::new();
    for i in 0..SETUP_REPS {
        let (f, t) = setup();
        if SETUP_REPS - i <= keep {
            fixtures.push(f);
        }
        totals.push(t.total.as_secs_f64());
        loads.push(t.load.as_secs_f64());
    }
    (fixtures, median(&totals), median(&loads))
}

/// Sleep until `t` (no-op when it has passed).
pub fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert!((quantile(&xs, 0.95) - 3.85).abs() < 1e-12);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn errors_are_counted_by_kind() {
        let mut c = ErrCounts::default();
        c.note(&Error::Deadlock);
        c.note(&Error::Deadlock);
        c.note(&Error::TxnAborted("crash".into()));
        c.note(&Error::ServerBusy {
            retry_after: Duration::from_millis(1),
        });
        c.note(&Error::Syntax("x".into()));
        assert_eq!(c.get(ErrKind::Deadlock), 2);
        assert_eq!(c.get(ErrKind::TxnAborted), 1);
        assert_eq!(c.get(ErrKind::Timeout), 0);
        assert_eq!(c.get(ErrKind::ServerBusy), 1);
        assert_eq!(c.get(ErrKind::Other), 1);
    }
}
