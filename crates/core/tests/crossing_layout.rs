//! Layout regression for the crossing index: bytes per crossing pair on
//! the paper suite's I1 candidate set.
//!
//! The compact layout costs 16 B of key, 12 B of record, two 12-byte
//! neighbor entries and 8 B per `(path, count)` entry — about 71 B per
//! pair on I1. A layout that brings back per-record heap allocation or
//! wide ids lands far above the 80 B bound.

use operon::codesign::{generate_candidates, NetCandidates};
use operon::config::OperonConfig;
use operon::CrossingIndex;
use operon_cluster::build_hyper_nets;
use operon_netlist::synth::{generate, paper_benchmark};

#[test]
fn i1_index_stays_within_80_bytes_per_pair() {
    let config = OperonConfig::default();
    let design = generate(&paper_benchmark("I1").expect("I1"), 2018);
    let nets = build_hyper_nets(&design, &config.cluster);
    let config = config.resolved_for(nets.iter().map(|n| n.bit_count()));
    let candidates: Vec<NetCandidates> = nets
        .iter()
        .enumerate()
        .map(|(i, n)| generate_candidates(n, i, &config))
        .collect();
    let index = CrossingIndex::build(&candidates);
    assert!(index.len() > 100_000, "I1 has ~211k crossing pairs");
    let per_pair = index.heap_bytes() as f64 / index.len() as f64;
    assert!(per_pair <= 80.0, "{per_pair:.1} B per crossing pair");
}
