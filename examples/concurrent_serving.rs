//! Concurrent serving: one shared `AdsalaService` answering GEMM traffic
//! from several client threads at once.
//!
//! This is the ROADMAP's production shape in miniature: install once,
//! bundle the artefacts, then serve `sgemm` through a `Send + Sync`
//! handle whose execution runs on a persistent thread pool (no per-call
//! OS-thread spawning) and whose decisions come from a lock-striped,
//! capacity-bounded memo.
//!
//! ```sh
//! cargo run --release --example concurrent_serving
//! ```

use std::sync::Arc;

use adsala::install::{InstallConfig, Installation};
use adsala::{AdsalaService, GemmArgs, OpRequest, RunOptions, ServiceConfig, ServiceStats};
use adsala_machine::{MachineModel, SimTimer};

fn main() {
    // 1. Install on the simulated Gadi node and keep only the immutable
    //    artefact bundle (config + model + candidate ladder).
    let timer = SimTimer::new(MachineModel::gadi());
    println!("installing on {} ...", adsala_machine::GemmTimer::name(&timer));
    let install = Installation::run(&timer, &InstallConfig::quick()).expect("install");
    println!("selected model family: {:?}", install.selected);
    let bundle = install.into_bundle().into_shared();

    // 2. Stand up the serving layer: a persistent GEMM pool plus a
    //    sharded decision cache, all behind one shareable handle.
    let service =
        AdsalaService::with_config(Arc::clone(&bundle), ServiceConfig { pool_workers: 0 });
    println!(
        "service up: {} pool workers, {} candidate thread counts",
        service.stats().pool.workers,
        service.candidates().len()
    );

    // 3. Hammer it from several clients with overlapping shape streams.
    //    Every client checks its own results against the closed form for
    //    these constant operands: C[i][j] = k * 1.0 * 0.5.
    let n_clients = 4u64;
    let calls_per_client = 24u64;
    let shapes: [(usize, usize, usize); 6] =
        [(64, 256, 64), (96, 96, 96), (32, 512, 48), (128, 64, 128), (48, 48, 48), (80, 160, 40)];
    std::thread::scope(|scope| {
        for client in 0..n_clients {
            let service = &service;
            scope.spawn(move || {
                for i in 0..calls_per_client {
                    let (m, k, n) = shapes[((i + client) % shapes.len() as u64) as usize];
                    let a = vec![1.0f32; m * k];
                    let b = vec![0.5f32; k * n];
                    let mut c = vec![0.0f32; m * n];
                    let mut req: OpRequest<'_, f32> =
                        GemmArgs::untransposed(m, n, k, 1.0, &a, k, &b, n, 0.0, &mut c, n).into();
                    let (decision, stats) = service
                        .run_with(&mut req, RunOptions::with_host_cap(8))
                        .expect("well-formed sgemm");
                    assert!(
                        service.candidates().contains(&decision.threads()),
                        "decision escaped the ladder"
                    );
                    assert!(stats.exec.threads_used >= 1);
                    let expected = k as f32 * 0.5;
                    assert!(
                        c.iter().all(|&v| (v - expected).abs() <= 1e-2 * expected),
                        "client {client}: wrong product for {m}x{k}x{n}"
                    );
                }
            });
        }
    });
    println!("{} clients x {} GEMMs served and verified", n_clients, calls_per_client);

    // 4. Inspect the serving diagnostics.
    let ServiceStats { cache: stats, evaluations: sweeps, share_capped, .. } = service.stats();
    println!(
        "cache: {} hits / {} misses ({:.0}% hit rate), {} evictions, {}/{} entries, {} shards",
        stats.hits,
        stats.misses,
        100.0 * stats.hit_rate(),
        stats.evictions,
        stats.entries,
        stats.capacity,
        stats.shards
    );
    println!("model sweeps: {sweeps}");
    // Calls that arrived while other clients held the pool decided within
    // their share of its workers.
    println!("calls capped to their pool share: {share_capped}");
    assert_eq!(stats.lookups(), n_clients * calls_per_client, "every call is one lookup");
    assert!(stats.hits > 0, "overlapping streams must hit the memo");
    println!("done.");
}
