//! Quickstart: run the BHMR protocol under a random workload, inspect the
//! statistics, and *prove* the resulting pattern satisfies RDT.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use rdt::workloads::RandomEnvironment;
use rdt::{run_protocol_kind, PatternAnalysis, ProtocolKind, SimConfig, StopCondition};

fn main() {
    // 8 processes, everything derived from one seed.
    let config = SimConfig::new(8)
        .with_seed(2026)
        .with_basic_checkpoints(rdt::sim::BasicCheckpointModel::Exponential { mean: 80 })
        .with_stop(StopCondition::MessagesSent(2_000));

    println!("running BHMR over a random 8-process workload...");
    let outcome = run_protocol_kind(ProtocolKind::Bhmr, &config, &mut RandomEnvironment::new(20));

    let stats = &outcome.stats.total;
    println!(
        "  messages sent/delivered : {}/{}",
        stats.messages_sent, stats.messages_delivered
    );
    println!("  basic checkpoints       : {}", stats.basic_checkpoints);
    println!("  forced checkpoints      : {}", stats.forced_checkpoints);
    println!("  R = forced/basic        : {:.4}", stats.forced_ratio());
    println!(
        "  piggyback bytes/message : {:.1}",
        stats.mean_piggyback_bytes()
    );

    // Every checkpoint record carries, on the fly, the minimum consistent
    // global checkpoint containing it (Corollary 4.5).
    if let Some(record) = outcome.records.iter().flatten().last() {
        println!(
            "  last checkpoint {} -> minimum consistent GC {:?}",
            record.id,
            record
                .min_consistent_gc
                .as_ref()
                .expect("BHMR tracks dependencies")
        );
    }

    // Offline verification: all rollback dependencies of this run are
    // trackable (Theorem 4.4).
    let report = PatternAnalysis::new(&outcome.trace.to_pattern()).rdt_report();
    println!(
        "  RDT verified offline    : {} ({} R-paths checked)",
        if report.holds() { "yes" } else { "NO (bug!)" },
        report.r_paths_found()
    );
    assert!(report.holds());
}
