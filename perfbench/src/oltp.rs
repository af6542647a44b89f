//! `oltp`: the TPC-C mix through Phoenix with client caching, two
//! closed-loop clients with zero think time, on a database that fits in
//! the buffer pool over a zero-latency disk.

use std::sync::atomic::AtomicU64;
use std::time::{Duration, Instant};

use odbcsim::{DriverConfig, OdbcConnection};
use phoenix::{CacheMode, PhoenixConfig, PhoenixConnection};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqlengine::storage::disk::DiskModel;
use sqlengine::types::Value;
use sqlengine::Error;
use wire::{AdmissionConfig, DbServer, GroupCommit, ServerConfig};
use workloads::tpcc::txns::{run_with_retries, TxnOutcome, TxnType};
use workloads::tpcc::TpccScale;
use workloads::{EngineClient, SqlClient};

use crate::layers::{Counted, Probe, Tee};
use crate::metrics::{Outcome, Values};
use crate::trace;
use crate::util::{
    lan, mean, median, ms, process_cpu, quantile, ratio, repeated_setup, sleep_until, ErrCounts,
    Server, SetupTime, DATA_SEED,
};
use crate::Args;

/// Pages the buffer pool holds: the loaded database is ~510 pages, and
/// this leaves room for a run's growth, so every page stays cached.
const POOL_PAGES: usize = 4096;
const CLIENTS: usize = 2;
/// Wait-die victims are retried, as the TPC-C driver does.
const MAX_RETRIES: u32 = 30;
const WARMUP: Duration = Duration::from_secs(2);

fn server_config() -> ServerConfig {
    ServerConfig {
        disk_model: DiskModel::default(),
        pool_capacity: POOL_PAGES,
        net_c2s: lan(),
        net_s2c: lan(),
        row_batch: 16,
        faults: None,
        scrub_on_restart: false,
        // Both clients' commits share one WAL flush when they meet.
        group_commit: GroupCommit::on(CLIENTS, Duration::from_micros(500)),
        admission: AdmissionConfig::default(),
    }
}

fn phoenix_config() -> PhoenixConfig {
    PhoenixConfig {
        driver: DriverConfig {
            query_timeout: Some(Duration::from_secs(120)),
            ..Default::default()
        },
        cache: CacheMode::enabled(64 * 1024),
        ..Default::default()
    }
}

struct Fixture {
    clients: Vec<PhoenixConnection>,
    server: Server,
}

fn setup() -> (Fixture, SetupTime) {
    trace::span("bench.setup", String::new, || {
        let t = Instant::now();
        let server = Server(DbServer::start(server_config()).expect("server start"));
        let engine = server.engine().expect("server is up");
        let load = trace::span("workloads.load", String::new, || {
            let t = Instant::now();
            let c = EngineClient::new(engine.clone()).expect("engine session");
            workloads::tpcc::load(&c, TpccScale::default(), DATA_SEED).expect("TPC-C load");
            t.elapsed()
        });
        trace::span("sqlengine.checkpoint", String::new, || {
            engine.checkpoint().expect("checkpoint")
        });
        let clients = trace::span("phoenix.connect", String::new, || {
            (0..CLIENTS)
                .map(|_| PhoenixConnection::connect(&server, phoenix_config()).expect("connect"))
                .collect()
        });
        let total = t.elapsed();
        (Fixture { clients, server }, SetupTime { total, load })
    })
}

/// The TPC-C card deck (clause 5.2.4.2): every 23 transactions a client
/// runs 10 new-order, 10 payment and one each of order-status, delivery
/// and stock-level, in a seeded shuffled order. Dealing from a deck
/// instead of rolling per transaction keeps the share of the expensive,
/// rare types the same in every run.
struct Deck {
    cards: Vec<TxnType>,
}

impl Deck {
    fn new() -> Deck {
        Deck { cards: Vec::new() }
    }

    fn deal(&mut self, rng: &mut StdRng) -> TxnType {
        if self.cards.is_empty() {
            self.cards = [TxnType::NewOrder, TxnType::Payment]
                .iter()
                .flat_map(|t| std::iter::repeat_n(*t, 10))
                .chain([TxnType::OrderStatus, TxnType::Delivery, TxnType::StockLevel])
                .collect();
            for i in (1..self.cards.len()).rev() {
                self.cards.swap(i, rng.gen_range(0..=i));
            }
        }
        self.cards.pop().expect("a refilled deck has cards")
    }
}

/// One transaction, retried in this loop so every failed attempt is
/// classified. Returns the outcome and the retries it took.
fn run_txn(
    client: &impl SqlClient,
    rng: &mut StdRng,
    t: TxnType,
    errs: &mut ErrCounts,
) -> (Result<TxnOutcome, Error>, u32) {
    let scale = TpccScale::default();
    let mut retries = 0;
    loop {
        match run_with_retries(client, rng, &scale, t, 0) {
            Ok((o, _)) => return (Ok(o), retries),
            Err(e) => {
                errs.note(&e);
                let retriable = matches!(e, Error::Deadlock | Error::TxnAborted(_));
                if !retriable || retries >= MAX_RETRIES {
                    return (Err(e), retries);
                }
                retries += 1;
                std::thread::sleep(Duration::from_micros(rng.gen_range(200..1500)));
            }
        }
    }
}

#[derive(Default)]
struct Tally {
    committed: u64,
    user_aborted: u64,
    failed: u64,
    retries: u64,
    errs: ErrCounts,
    latency_ms: Vec<f64>,
}

impl Tally {
    fn add(&mut self, o: Tally) {
        self.committed += o.committed;
        self.user_aborted += o.user_aborted;
        self.failed += o.failed;
        self.retries += o.retries;
        self.errs.add(&o.errs);
        self.latency_ms.extend(o.latency_ms);
    }

    fn attempted(&self) -> u64 {
        self.committed + self.user_aborted + self.failed
    }
}

struct Phase {
    tally: Tally,
    wall: Duration,
    cpu: Duration,
    delta: crate::layers::Delta,
}

/// Run both clients for `warmup + measure`; count the transactions that
/// complete inside the measurement window.
fn run_phase(fx: &Fixture, seed: u64, warmup: Duration, measure: Duration) -> Phase {
    let stmts = AtomicU64::new(0);
    let start = Instant::now();
    let (t0, end) = (start + warmup, start + warmup + measure);
    std::thread::scope(|s| {
        let handles: Vec<_> = fx
            .clients
            .iter()
            .enumerate()
            .map(|(u, px)| {
                let stmts = &stmts;
                s.spawn(move || {
                    let client = Counted { inner: px, stmts };
                    let mut rng = StdRng::seed_from_u64(seed ^ ((u as u64 + 1) * 0x9E37_79B9));
                    let mut deck = Deck::new();
                    let mut tally = Tally::default();
                    while Instant::now() < end {
                        let t = deck.deal(&mut rng);
                        let begun = Instant::now();
                        let mut errs = ErrCounts::default();
                        let (r, retries) = trace::span(
                            "workloads.txn",
                            || format!("{t:?}"),
                            || run_txn(&client, &mut rng, t, &mut errs),
                        );
                        let done = Instant::now();
                        if done < t0 || done > end {
                            continue;
                        }
                        tally.retries += retries as u64;
                        tally.errs.add(&errs);
                        match r {
                            Ok(TxnOutcome::Committed) => {
                                tally.committed += 1;
                                tally.latency_ms.push(ms(done - begun));
                            }
                            Ok(TxnOutcome::UserAborted) => tally.user_aborted += 1,
                            Err(_) => tally.failed += 1,
                        }
                    }
                    tally
                })
            })
            .collect();
        let conns: Vec<&PhoenixConnection> = fx.clients.iter().collect();
        sleep_until(t0);
        let (cpu0, p0) = (process_cpu(), Probe::take(&fx.server, &conns, &stmts));
        sleep_until(end);
        let (cpu1, p1) = (process_cpu(), Probe::take(&fx.server, &conns, &stmts));
        let mut tally = Tally::default();
        for h in handles {
            tally.add(h.join().expect("client thread panicked"));
        }
        Phase {
            tally,
            wall: measure,
            cpu: cpu1 - cpu0,
            delta: p0.delta(&p1),
        }
    })
}

fn rows(c: &EngineClient, sql: &str) -> Vec<Vec<Value>> {
    c.query(sql)
        .unwrap_or_else(|e| panic!("check query `{sql}`: {e}"))
}

fn num(v: &Value) -> f64 {
    v.as_f64().unwrap_or(f64::NAN)
}

/// TPC-C consistency conditions 1 and 2–3: W_YTD = Σ D_YTD per
/// warehouse, and D_NEXT_O_ID − 1 = max(O_ID) = max(NO_O_ID) per
/// district, read through the engine directly.
fn check_consistency(server: &DbServer, out: &mut Outcome) {
    let c = EngineClient::new(server.engine().expect("server is up")).expect("engine session");
    for w in rows(&c, "SELECT w_id, w_ytd FROM warehouse") {
        let (id, ytd) = (num(&w[0]), num(&w[1]));
        let sum = rows(
            &c,
            &format!("SELECT SUM(d_ytd) FROM district WHERE d_w_id = {id}"),
        );
        let d = num(&sum[0][0]);
        out.check((ytd - d).abs() < 0.01, || {
            format!("warehouse {id}: W_YTD {ytd} != sum(D_YTD) {d}")
        });
    }
    for d in rows(&c, "SELECT d_w_id, d_id, d_next_o_id FROM district") {
        let (w, id, next) = (num(&d[0]), num(&d[1]), num(&d[2]));
        let max_o = rows(
            &c,
            &format!("SELECT MAX(o_id) FROM orders WHERE o_w_id = {w} AND o_d_id = {id}"),
        );
        let max_no = rows(
            &c,
            &format!("SELECT MAX(no_o_id) FROM new_order WHERE no_w_id = {w} AND no_d_id = {id}"),
        );
        let (mo, mno) = (num(&max_o[0][0]), num(&max_no[0][0]));
        out.check(next - 1.0 == mo && mo == mno, || {
            format!(
                "district {w}/{id}: D_NEXT_O_ID-1 {} max(O_ID) {mo} max(NO_O_ID) {mno}",
                next - 1.0
            )
        });
    }
}

fn outcome_of(tally: &Tally, out: &mut Outcome) {
    out.attempted = tally.attempted();
    out.failed = tally.failed;
    out.check(tally.committed > 0, || "no transaction committed".into());
}

pub fn run(args: &Args, v: &mut Values, out: &mut Outcome) {
    let measure = Duration::from_secs(args.seconds);
    let (mut fixtures, setup_s, load_s) = repeated_setup(if args.trace { 3 } else { 1 }, setup);
    if !args.trace {
        let fx = &fixtures[0];
        let p = run_phase(fx, args.seed, WARMUP, measure);
        check_consistency(&fx.server, out);
        outcome_of(&p.tally, out);
        let t = &p.tally;
        v.set("setup_s", setup_s);
        v.set("ops_per_s", t.committed as f64 / p.wall.as_secs_f64());
        v.set("op_p50_ms", median(&t.latency_ms));
        v.set("op_p95_ms", quantile(&t.latency_ms, 0.95));
        v.set("cpu_ms_per_op", ratio(ms(p.cpu), t.committed as f64));
        v.set(
            "success_frac",
            ratio((t.attempted() - t.failed) as f64, t.attempted() as f64),
        );
        return;
    }

    // Replay one client's seeded transaction stream through all three
    // stacks, each on its own identically loaded server.
    let fx = fixtures.pop().expect("a fixture");
    {
        let native = OdbcConnection::connect(&fixtures[0].server, DriverConfig::default())
            .expect("native connect");
        let engine = EngineClient::new(fixtures[1].server.engine().expect("up")).expect("session");
        let tee = Tee::new(&fx.clients[0], &native, &engine);
        let mut rng = StdRng::seed_from_u64(args.seed ^ 0x5EED);
        let mut errs = ErrCounts::default();
        let mut deck = Deck::new();
        trace::set_enabled(true);
        let until = Instant::now() + measure / 2;
        while Instant::now() < until {
            let t = deck.deal(&mut rng);
            let (r, _) = trace::span(
                "bench.replay",
                || format!("{t:?}"),
                || run_txn(&tee, &mut rng, t, &mut errs),
            );
            out.check(r.is_ok(), || format!("replay {t:?} failed: {r:?}"));
        }
        trace::set_enabled(false);
        for m in tee.mismatches() {
            out.fail(m);
        }
        tee.fill(v);
        native.disconnect();
    }
    fixtures.clear();

    let plain = run_phase(&fx, args.seed, WARMUP / 2, measure / 2);
    trace::set_enabled(true);
    let traced = run_phase(&fx, args.seed, WARMUP / 2, measure / 2);
    trace::set_enabled(false);
    check_consistency(&fx.server, out);
    outcome_of(&traced.tally, out);

    let t = &traced.tally;
    let commits = t.committed as f64;
    traced.delta.fill(v, commits, commits);
    v.set(
        "workloads.retries_per_commit",
        ratio(t.retries as f64, commits),
    );
    v.set("workloads.load_s", load_s);
    crate::fill_failures(v, t.attempted(), t.failed, &t.errs);
    v.set(
        "bench.trace_overhead_frac",
        mean(&t.latency_ms) / mean(&plain.tally.latency_ms) - 1.0,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deck_deals_the_spec_mix_every_23_cards() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut deck = Deck::new();
        for _ in 0..3 {
            let hand: Vec<TxnType> = (0..23).map(|_| deck.deal(&mut rng)).collect();
            let n = |t: TxnType| hand.iter().filter(|x| **x == t).count();
            assert_eq!(n(TxnType::NewOrder), 10);
            assert_eq!(n(TxnType::Payment), 10);
            assert_eq!(n(TxnType::OrderStatus), 1);
            assert_eq!(n(TxnType::Delivery), 1);
            assert_eq!(n(TxnType::StockLevel), 1);
        }
    }
}
