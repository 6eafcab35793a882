//! One seeded trace through three manager stacks: the paper's plain
//! `MrcpRm`, a one-cell `Federation`, and a one-cell `DurableFederation`
//! with live telemetry attached and a crash part-way through the run. The
//! outer layers (routing, the write-ahead log and its recovery, telemetry)
//! must not change a single plan, so the three runs' deterministic
//! signatures are equal.

use cluster::{simulate_cluster, ClusterConfig, ClusterSimConfig, DurableFederation};
use desim::RngStreams;
use durability::{scratch_dir, DurabilityConfig, StoreConfig, WalConfig};
use mrcp::sim_driver::simulate_detailed;
use mrcp::{simulate_with, ManagerCrashConfig, MrcpConfig, SimConfig, SolveBudget};
use telemetry::Telemetry;
use workload::{SyntheticConfig, SyntheticGenerator};

/// Node-bounded rounds with no wall-clock cap, so every stack retraces
/// the same searches (crash replay re-runs logged rounds).
fn det_sim() -> SimConfig {
    SimConfig {
        manager: MrcpConfig {
            budget: SolveBudget {
                node_limit: 2_000,
                fail_limit: 2_000,
                time_limit_ms: None,
                workers: 1,
                ..SolveBudget::default()
            },
            ..MrcpConfig::default()
        },
        ..SimConfig::default()
    }
}

#[test]
fn plain_federated_and_durable_stacks_plan_identically() {
    let wl = SyntheticConfig {
        maps_per_job: (1, 6),
        reduces_per_job: (1, 3),
        e_max: 10,
        lambda: 0.05,
        resources: 4,
        map_capacity: 2,
        reduce_capacity: 2,
        s_max: 100,
        ..Default::default()
    };
    let resources = wl.cluster();
    let rng = RngStreams::new(11).stream("stack-equivalence");
    let jobs = SyntheticGenerator::new(wl, rng).take_jobs(30);
    let sim = det_sim();
    let one_cell = ClusterConfig {
        cells: 1,
        ..ClusterConfig::default()
    };

    let (plain, _) = simulate_detailed(&sim, &resources, jobs.clone());
    assert_eq!(plain.arrived, 30);
    assert_eq!(plain.completed, plain.arrived, "plain run drains");
    assert!(plain.invocations > 0, "the solver ran");

    let (federated, _) = simulate_cluster(
        &ClusterSimConfig {
            sim: sim.clone(),
            cluster: one_cell,
        },
        &resources,
        jobs.clone(),
    );

    let crashed = SimConfig {
        manager_crashes: ManagerCrashConfig {
            at_commands: vec![60],
            ..ManagerCrashConfig::default()
        },
        ..sim.clone()
    };
    let dir = scratch_dir("stack-equivalence");
    let durability = DurabilityConfig::power_loss(StoreConfig {
        snapshot_every: 16,
        wal: WalConfig::default(),
    });
    let tel = Telemetry::new();
    let (durable, _, fed) = simulate_with(&crashed, &resources, jobs, |mgr_cfg| {
        let mut fed =
            DurableFederation::new(&one_cell, mgr_cfg, resources.clone(), &dir, durability);
        fed.set_telemetry(&tel);
        fed
    });
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(fed.crashes(), 1, "the mid-run crash fired");
    let rounds = tel.registry.snapshot().counter_total("mrcp_rounds_total");
    assert!(rounds > 0, "rounds reach the live registry");

    assert_eq!(
        plain.deterministic_signature(),
        federated.deterministic_signature(),
        "a one-cell federation planned differently from the plain manager"
    );
    assert_eq!(
        plain.deterministic_signature(),
        durable.deterministic_signature(),
        "durability, telemetry or crash recovery changed a plan"
    );
}
