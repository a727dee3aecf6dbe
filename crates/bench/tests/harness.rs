//! Every experiment of the `repro` harness at tiny scale, run twice: the
//! two runs must agree on every field that is not a timing (recall,
//! candidates, decrypted, bytes in both directions, distance
//! computations), so a harness change that moves a key seed, a pivot set
//! or a workload shows up here as a changed figure or a panic.

use std::time::Duration;

use simcloud_bench::{
    ablation_k, ablation_network, ablation_pivots, ablation_strategy, ablation_transform,
    comparison_1nn, construction_encrypted, construction_plain, search_encrypted, search_plain,
    SearchRow, Which,
};
use simcloud_core::CostReport;

const SEED: u64 = 20120830;
const QUERIES: usize = 4;
const K: usize = 10;
const CANDS: [usize; 2] = [50, 150];

/// A cost report with every timing zeroed: what two runs must share.
fn counts(c: &CostReport) -> CostReport {
    CostReport {
        client: Duration::ZERO,
        encryption: Duration::ZERO,
        decryption: Duration::ZERO,
        distance: Duration::ZERO,
        server: Duration::ZERO,
        communication: Duration::ZERO,
        ..*c
    }
}

fn search_counts(rows: &[SearchRow]) -> Vec<(usize, CostReport, f64)> {
    rows.iter()
        .map(|r| (r.cand_size, counts(&r.costs), r.recall))
        .collect()
}

/// Everything but the timings of one run of every experiment, rendered
/// as text so the two runs compare with one `assert_eq!`.
fn run_all() -> Vec<String> {
    let ds = Which::Yeast.dataset(300, SEED);
    let mut out = Vec::new();
    out.push(format!(
        "construction encrypted {:?}",
        counts(&construction_encrypted(&ds, SEED))
    ));
    out.push(format!(
        "construction plain {:?}",
        counts(&construction_plain(&ds, SEED))
    ));
    for shards in [1, 4] {
        let rows = search_encrypted(&ds, &CANDS, QUERIES, K, SEED, shards);
        assert_eq!(rows.len(), CANDS.len());
        assert!(rows.iter().all(|r| r.costs.candidates > 0));
        out.push(format!(
            "search encrypted x{shards} {:?}",
            search_counts(&rows)
        ));
    }
    out.push(format!(
        "search plain {:?}",
        search_counts(&search_plain(&ds, &CANDS, QUERIES, K, SEED))
    ));
    for row in comparison_1nn(&ds, QUERIES, SEED) {
        out.push(format!(
            "1-NN {} exact={} recall={} costs={:?} build={:?}",
            row.name,
            row.exact,
            row.recall,
            counts(&row.costs),
            counts(&row.build)
        ));
    }
    for (pivots, row) in ablation_pivots(&ds, &[10, 30], 150, QUERIES, K, SEED) {
        out.push(format!(
            "pivots {pivots} {:?}",
            search_counts(std::slice::from_ref(&row))
        ));
    }
    for (label, row) in ablation_strategy(&ds, 150, QUERIES, K, SEED) {
        out.push(format!(
            "strategy {label} {:?}",
            search_counts(std::slice::from_ref(&row))
        ));
    }
    out.push(format!(
        "transform {:?}",
        ablation_transform(&ds, &[0.05, 0.1], QUERIES, SEED)
    ));
    out.push(format!(
        "k {:?}",
        ablation_k(&ds, &[1, 10], 150, QUERIES, SEED)
    ));
    let labels: Vec<_> = ablation_network(&ds, 150, QUERIES, K, SEED)
        .into_iter()
        .map(|(label, enc, plain)| {
            assert!(enc > Duration::ZERO && plain > Duration::ZERO);
            label
        })
        .collect();
    out.push(format!("network {labels:?}"));
    out
}

#[test]
fn every_experiment_repeats_its_counts_and_recall() {
    let first = run_all();
    let second = run_all();
    assert_eq!(first, second);
}
