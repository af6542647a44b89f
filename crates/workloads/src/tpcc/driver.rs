//! Multi-user TPC-C driver: emulated users with zero think time submit
//! transactions at the spec mix; the measurement interval starts after a
//! warm-up and reports TPM-C (new-order transactions per minute).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sqlengine::{Error, Result};

use super::txns::{run_with_retries, TxnOutcome, TxnType};
use super::TpccScale;
use crate::client::SqlClient;

/// Spec transaction mix (weights out of 100): payment ≥43%, order-status /
/// delivery / stock-level ≥4% each, new-order making up the rest.
pub const MIX: [(TxnType, u32); 5] = [
    (TxnType::NewOrder, 45),
    (TxnType::Payment, 43),
    (TxnType::OrderStatus, 4),
    (TxnType::Delivery, 4),
    (TxnType::StockLevel, 4),
];

fn pick_txn(rng: &mut StdRng) -> TxnType {
    let roll = rng.gen_range(0..100u32);
    let mut acc = 0;
    for (t, w) in MIX {
        acc += w;
        if roll < acc {
            return t;
        }
    }
    TxnType::NewOrder
}

/// Transactions that failed permanently, by the error that ended them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TxnErrors {
    /// Wait-die victims that exhausted the retry budget.
    pub deadlock: u64,
    /// Crash-aborted transactions that exhausted the retry budget.
    pub txn_aborted: u64,
    /// Requests that timed out.
    pub timeout: u64,
    /// Statements the server shed as busy.
    pub server_busy: u64,
    /// Any other error.
    pub other: u64,
}

impl TxnErrors {
    /// Count one failure.
    pub fn note(&mut self, e: &Error) {
        let slot = match e {
            Error::Deadlock => &mut self.deadlock,
            Error::TxnAborted(_) => &mut self.txn_aborted,
            Error::Timeout => &mut self.timeout,
            Error::ServerBusy { .. } => &mut self.server_busy,
            _ => &mut self.other,
        };
        *slot += 1;
    }

    /// Failures of every kind.
    pub fn total(&self) -> u64 {
        self.deadlock + self.txn_aborted + self.timeout + self.server_busy + self.other
    }

    /// `(kind, count)` pairs, for reports.
    pub fn by_kind(&self) -> [(&'static str, u64); 5] {
        [
            ("deadlock", self.deadlock),
            ("txn_aborted", self.txn_aborted),
            ("timeout", self.timeout),
            ("server_busy", self.server_busy),
            ("other", self.other),
        ]
    }
}

/// Aggregated results of a driver run.
#[derive(Debug, Clone)]
pub struct TpccReport {
    /// New-order transactions per minute during the measurement interval.
    pub tpm_c: f64,
    /// All completed transactions (any type) during measurement.
    pub total_txns: u64,
    /// Completions per transaction type.
    pub per_type: HashMap<TxnType, u64>,
    /// Spec-mandated 1%-invalid-item rollbacks observed.
    pub user_aborts: u64,
    /// Deadlock / crash-abort retries performed.
    pub retries: u64,
    /// Transactions that failed permanently (retry budget exhausted, or
    /// an error that is not retried), by kind.
    pub errors: TxnErrors,
    /// Actual measurement interval.
    pub measured: Duration,
}

#[derive(Default)]
struct Counters {
    per_type: HashMap<TxnType, u64>,
    new_orders: u64,
    total: u64,
    user_aborts: u64,
    retries: u64,
    errors: TxnErrors,
}

/// Run `clients.len()` emulated users for `warmup + measure`. Each client
/// runs on its own thread with zero think time. Only transactions
/// completing inside the measurement interval are counted.
pub fn run_mixed_load<C: SqlClient + Send + 'static>(
    clients: Vec<C>,
    scale: TpccScale,
    warmup: Duration,
    measure: Duration,
    seed: u64,
) -> Result<TpccReport> {
    let stop = Arc::new(AtomicBool::new(false));
    let measuring = Arc::new(AtomicBool::new(false));
    let counters = Arc::new(Mutex::new(Counters::default()));

    let mut handles = Vec::new();
    for (u, client) in clients.into_iter().enumerate() {
        let stop = Arc::clone(&stop);
        let measuring = Arc::clone(&measuring);
        let counters = Arc::clone(&counters);
        handles.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(seed ^ (u as u64 + 1).wrapping_mul(0x9E37_79B9));
            while !stop.load(Ordering::Relaxed) {
                let t = pick_txn(&mut rng);
                match run_with_retries(&client, &mut rng, &scale, t, 30) {
                    Ok((outcome, retries)) => {
                        if measuring.load(Ordering::Relaxed) {
                            let mut c = counters.lock();
                            c.retries += retries as u64;
                            match outcome {
                                TxnOutcome::Committed => {
                                    c.total += 1;
                                    *c.per_type.entry(t).or_insert(0) += 1;
                                    if t == TxnType::NewOrder {
                                        c.new_orders += 1;
                                    }
                                }
                                TxnOutcome::UserAborted => c.user_aborts += 1,
                            }
                        }
                    }
                    Err(e) => {
                        if measuring.load(Ordering::Relaxed) {
                            counters.lock().errors.note(&e);
                        }
                    }
                }
            }
        }));
    }

    std::thread::sleep(warmup);
    measuring.store(true, Ordering::Relaxed);
    let t0 = Instant::now();
    std::thread::sleep(measure);
    measuring.store(false, Ordering::Relaxed);
    let measured = t0.elapsed();
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        let _ = h.join();
    }

    let c = Arc::try_unwrap(counters)
        .map(|m| m.into_inner())
        .unwrap_or_else(|arc| {
            let guard = arc.lock();
            Counters {
                per_type: guard.per_type.clone(),
                new_orders: guard.new_orders,
                total: guard.total,
                user_aborts: guard.user_aborts,
                retries: guard.retries,
                errors: guard.errors,
            }
        });
    Ok(TpccReport {
        tpm_c: c.new_orders as f64 / (measured.as_secs_f64() / 60.0),
        total_txns: c.total,
        per_type: c.per_type,
        user_aborts: c.user_aborts,
        retries: c.retries,
        errors: c.errors,
        measured,
    })
}
