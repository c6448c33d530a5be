//! Audit an arbitrary checkpoint and communication pattern: rebuild the
//! paper's Figure 1, run every theory query on it, and print the DOT
//! graphs.
//!
//! ```text
//! cargo run --example rdt_audit
//! ```

use rdt::theory::chains::MessageChain;
use rdt::theory::characterization::undoubled_chains;
use rdt::theory::{dot, min_max, paper_figures};
use rdt::{CheckpointId, PatternAnalysis};

fn main() {
    let (pattern, f) = paper_figures::figure_1_with_handles();
    println!(
        "auditing the paper's Figure 1 ({} messages, {} checkpoints)\n",
        pattern.num_messages(),
        pattern.total_checkpoints()
    );

    // Chain classification, exactly as §3.2 narrates.
    for (name, messages, note) in [
        ("m3 m2", [f.m3, f.m2], ""),
        ("m5 m4", [f.m5, f.m4], ""),
        ("m5 m6", [f.m5, f.m6], " (the causal sibling of [m5 m4])"),
    ] {
        let chain = MessageChain::new(messages);
        let (is_chain, causal) = (chain.is_chain(&pattern), chain.is_causal(&pattern));
        println!("[{name}] is a chain: {is_chain}, causal: {causal}{note}");
    }

    // RDT verdict with a concrete counterexample; one analysis serves all.
    let analysis = PatternAnalysis::new(&pattern);
    let report = analysis.rdt_report();
    println!("\nRDT holds: {}", report.holds());
    for violation in report.violations() {
        println!("  {violation}");
    }

    // The chain-level view of the same defect.
    println!("\nundoubled chains (endpoints):");
    for u in undoubled_chains(&analysis) {
        println!("  {} -> {} has no causal doubling", u.from, u.to);
    }

    // Consistency and min/max global checkpoints.
    let ci2 = CheckpointId::new(f.pi, 2);
    let useless = analysis.zigzag().on_z_cycle(ci2);
    println!("\nC(i,2) on a z-cycle (useless): {useless}");
    let min = min_max::min_consistent_containing(&pattern, &[ci2]).expect("not useless");
    let max = min_max::max_consistent_containing(&pattern, &[ci2]).expect("not useless");
    println!("minimum consistent GC containing C(i,2): {min}");
    println!("maximum consistent GC containing C(i,2): {max}");

    // Graphviz output for the figure and its R-graph.
    println!("\n--- pattern.dot ---\n{}", dot::pattern_to_dot(&pattern));
    println!(
        "--- rgraph.dot ---\n{}",
        dot::rgraph_to_dot(analysis.rgraph())
    );
}
