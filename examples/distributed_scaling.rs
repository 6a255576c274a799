//! D-M2TD scaling study (the paper's Table III, as an application).
//!
//! Runs the three-phase distributed M2TD on the in-process MapReduce
//! engine, verifies the result against the serial implementation, and
//! projects the measured per-phase work onto modeled clusters of
//! increasing size.
//!
//! ```text
//! cargo run --release --example distributed_scaling
//! ```

use m2td::core::{m2td_decompose, M2tdOptions, Workbench, WorkbenchConfig};
use m2td::dist::{d_m2td, ClusterModel, DistJob, MapReduce};
use m2td::sim::systems::DoublePendulum;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let system = DoublePendulum::default();
    let cfg = WorkbenchConfig {
        resolution: 12,
        time_steps: 12,
        t_end: 2.0,
        substeps: 16,
        rank: 4,
        seed: 31,
        noise_sigma: 0.0,
    };
    let bench = Workbench::new(&system, cfg)?;
    let (x1, x2, partition) = bench.subsystems(4, 1.0, 1.0, 1.0)?;
    let join_ranks: Vec<usize> = partition
        .join_modes()
        .iter()
        .map(|&m| 4usize.min(bench.full_dims()[m]))
        .collect();

    // Distributed run (2 in-process workers) + serial cross-check.
    let engine = MapReduce::new(2);
    let dist = d_m2td(
        &x1,
        &x2,
        partition.k(),
        &join_ranks,
        M2tdOptions::default(),
        &engine,
        &DistJob::default(),
    )?;
    let serial = m2td_decompose(&x1, &x2, partition.k(), &join_ranks, M2tdOptions::default())?;
    let core_diff = dist.tucker.core.sub(&serial.tucker.core)?.frobenius_norm();
    println!("distributed vs serial core difference: {core_diff:.2e} (must be ~0)\n");

    println!("measured per-phase work:");
    for (name, p) in [
        ("phase1 sub-tensor decomposition", &dist.phase1),
        ("phase2 JE-stitching", &dist.phase2),
        ("phase3 core recovery", &dist.phase3),
    ] {
        println!(
            "  {name:<34} serial {:>8.4} s, {:>9} shuffled pairs, {:>6} groups",
            p.serial_secs, p.shuffle.shuffled_pairs, p.shuffle.reduce_groups
        );
    }

    println!("\nprojected phase times on modeled clusters (paper Table III shape):");
    println!(
        "{:>8}  {:>10} {:>10} {:>10} {:>10}",
        "servers", "phase1", "phase2", "phase3", "total"
    );
    for servers in [1usize, 2, 4, 9, 18, 36] {
        let model = ClusterModel::new(servers);
        let c1 = dist.phase1.on_cluster(&model).total();
        let c2 = dist.phase2.on_cluster(&model).total();
        let c3 = dist.phase3.on_cluster(&model).total();
        println!(
            "{servers:>8}  {c1:>10.4} {c2:>10.4} {c3:>10.4} {:>10.4}",
            c1 + c2 + c3
        );
    }
    println!("\n(phase 3 dominates and parallelizes with diminishing returns,");
    println!(" matching the paper's observation for Table III)");
    Ok(())
}
