//! **Ablation** — Table 4 sensitivity: how the TPC-C comparison responds
//! to the disk model (per-I/O latency) and buffer-pool size: whether the
//! native-vs-Phoenix ordering is an artifact of one configuration, and how
//! far each setting leaves the server disk-bound.
//!
//! Env: `PHX_USERS` (default 4), `PHX_MEASURE_S` (default 10), `PHX_SEED`.

use std::time::Duration;

use bench::measure::CpuClock;
use bench::{env_u64, start_loaded, tpcc_server, TextTable};
use odbcsim::{DriverConfig, OdbcConnection};
use phoenix::{PhoenixConfig, PhoenixConnection};
use workloads::tpcc::driver::run_mixed_load;
use workloads::tpcc::TpccScale;

fn main() {
    let users = env_u64("PHX_USERS", 4) as usize;
    let measure = Duration::from_secs(env_u64("PHX_MEASURE_S", 10));
    let warmup = Duration::from_secs(2);
    let seed = env_u64("PHX_SEED", 42);
    let scale = TpccScale::default();

    let mut table = TextTable::new(
        "Ablation: TPC-C sensitivity to disk latency and pool size",
        &[
            "io latency",
            "pool pages",
            "mode",
            "TPM-C",
            "DISK UTIL",
            "CPU UTIL",
        ],
    );

    for (io_us, pool) in [(100u64, 512usize), (300, 128), (600, 64)] {
        for phoenix_mode in [false, true] {
            let server = start_loaded(tpcc_server(pool, Duration::from_micros(io_us)), |c| {
                workloads::tpcc::load(c, scale, seed)
            });
            let disk0 = server.io_snapshot();
            let clock = CpuClock::start();
            let report = if phoenix_mode {
                let clients: Vec<PhoenixConnection> = (0..users)
                    .map(|_| {
                        PhoenixConnection::connect(
                            &server,
                            PhoenixConfig {
                                driver: DriverConfig {
                                    query_timeout: Some(Duration::from_secs(60)),
                                    ..Default::default()
                                },
                                ..Default::default()
                            },
                        )
                        .unwrap()
                    })
                    .collect();
                run_mixed_load(clients, scale, warmup, measure, seed).unwrap()
            } else {
                let clients: Vec<OdbcConnection> = (0..users)
                    .map(|_| {
                        OdbcConnection::connect(
                            &server,
                            DriverConfig {
                                query_timeout: Some(Duration::from_secs(60)),
                                ..Default::default()
                            },
                        )
                        .unwrap()
                    })
                    .collect();
                run_mixed_load(clients, scale, warmup, measure, seed).unwrap()
            };
            let (elapsed, cpu) = clock.lap();
            let disk = server.io_snapshot().delta(disk0);
            table.row(vec![
                format!("{io_us} µs"),
                pool.to_string(),
                if phoenix_mode { "phoenix" } else { "native" }.into(),
                format!("{:.0}", report.tpm_c),
                format!(
                    "{:.0}%",
                    (disk.busy.as_secs_f64() / elapsed.as_secs_f64()).min(1.0) * 100.0
                ),
                format!("{:.0}%", cpu.as_secs_f64() / elapsed.as_secs_f64() * 100.0),
            ]);
            server.crash();
            eprintln!(
                "[ablation_tpcc] io={io_us}us pool={pool} {} done",
                if phoenix_mode { "phoenix" } else { "native" }
            );
        }
    }
    table.emit("ablation_tpcc_sensitivity");
    bench::emit_json(
        "ablation_tpcc_sensitivity",
        &[
            ("users", users.to_string()),
            ("measure_s", measure.as_secs().to_string()),
            ("seed", seed.to_string()),
        ],
    );
}
