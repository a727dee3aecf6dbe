//! `repro` — regenerates every table of the paper's evaluation.
//!
//! ```text
//! repro --all                    all tables at quick scale
//! repro --table 5                one table
//! repro --scale paper --table 6  paper-scale run
//! repro --cophir-n 1000000       override CoPhIR cardinality
//! repro --ablation pivots|strategy|transform|k|network
//! repro --shards 4 --table 5     encrypted searches against a sharded server
//! ```

use std::time::Duration;

use simcloud_bench::tables::{kb, millis, secs, Table};
use simcloud_bench::{
    ablation_k, ablation_network, ablation_pivots, ablation_strategy, ablation_transform,
    comparison_1nn, construction_encrypted, construction_plain, search_encrypted, search_plain,
    Scale, SearchRow, Which,
};
use simcloud_datasets::Dataset;
use simcloud_metric::analysis::DistanceHistogram;

const SEED: u64 = 20120830; // SDM 2012 proceedings date

struct Args {
    scale: Scale,
    cophir_n: Option<usize>,
    tables: Vec<u32>,
    ablations: Vec<String>,
    /// Shard count for the encrypted-search tables (1 = single index).
    shards: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        scale: Scale::Quick,
        cophir_n: None,
        tables: Vec::new(),
        ablations: Vec::new(),
        shards: 1,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--all" => args.tables = (1..=9).collect(),
            "--table" => {
                let n: u32 = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--table N (1..=9)");
                args.tables.push(n);
            }
            "--ablation" => {
                args.ablations
                    .push(it.next().expect("--ablation NAME").to_string());
            }
            "--scale" => {
                args.scale = match it.next().as_deref() {
                    Some("quick") => Scale::Quick,
                    Some("paper") => Scale::Paper,
                    other => panic!("unknown scale {other:?} (quick|paper)"),
                };
            }
            "--cophir-n" => {
                args.cophir_n = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .expect("--cophir-n N"),
                );
            }
            "--shards" => {
                args.shards = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .expect("--shards N (N >= 1)");
            }
            "--help" | "-h" => {
                println!(
                    "usage: repro [--all] [--table N]... [--ablation NAME]... \
                     [--scale quick|paper] [--cophir-n N] [--shards N]"
                );
                std::process::exit(0);
            }
            other => panic!("unknown argument {other}"),
        }
    }
    if args.tables.is_empty() && args.ablations.is_empty() {
        args.tables = (1..=9).collect();
    }
    args
}

fn main() {
    let args = parse_args();
    let sizes = args.scale.sizes(args.cophir_n);
    println!(
        "simcloud repro — scale {:?}: YEAST {} / HUMAN {} / CoPhIR {} records, {} queries, k = {}\n",
        args.scale, sizes.yeast_n, sizes.human_n, sizes.cophir_n, sizes.queries, sizes.k
    );

    let yeast = || Which::Yeast.dataset(sizes.yeast_n, SEED);
    let human = || Which::Human.dataset(sizes.human_n, SEED + 1);
    let cophir = || Which::Cophir.dataset(sizes.cophir_n, SEED + 2);

    for t in &args.tables {
        match t {
            1 => table1(&[yeast(), human(), cophir()]),
            2 => table2(),
            3 => table3_4(&[yeast(), human(), cophir()], true),
            4 => table3_4(&[yeast(), human(), cophir()], false),
            5 => {
                let ds = yeast();
                let rows = search_encrypted(
                    &ds,
                    &args.scale.yeast_cand_sizes(),
                    sizes.queries,
                    sizes.k,
                    SEED,
                    args.shards,
                );
                print_search_table(
                    &format!(
                        "Table 5: Approximate {}-NN, Encrypted M-Index (YEAST{})",
                        sizes.k,
                        shard_note(args.shards)
                    ),
                    &rows,
                    true,
                );
            }
            6 => {
                let ds = cophir();
                let rows = search_encrypted(
                    &ds,
                    &args.scale.cophir_cand_sizes(sizes.cophir_n),
                    sizes.queries,
                    sizes.k,
                    SEED,
                    args.shards,
                );
                print_search_table(
                    &format!(
                        "Table 6: Approximate {}-NN, Encrypted M-Index (CoPhIR{})",
                        sizes.k,
                        shard_note(args.shards)
                    ),
                    &rows,
                    true,
                );
            }
            7 => {
                let ds = yeast();
                let rows = search_plain(
                    &ds,
                    &args.scale.yeast_cand_sizes(),
                    sizes.queries,
                    sizes.k,
                    SEED,
                );
                print_search_table(
                    &format!("Table 7: Approximate {}-NN, basic M-Index (YEAST)", sizes.k),
                    &rows,
                    false,
                );
            }
            8 => {
                let ds = cophir();
                let rows = search_plain(
                    &ds,
                    &args.scale.cophir_cand_sizes(sizes.cophir_n),
                    sizes.queries,
                    sizes.k,
                    SEED,
                );
                print_search_table(
                    &format!(
                        "Table 8: Approximate {}-NN, basic M-Index (CoPhIR)",
                        sizes.k
                    ),
                    &rows,
                    false,
                );
            }
            9 => table9(&yeast(), sizes.queries),
            other => eprintln!("no table {other} in the paper"),
        }
    }

    for a in &args.ablations {
        match a.as_str() {
            "pivots" => {
                let ds = yeast();
                let rows =
                    ablation_pivots(&ds, &[10, 30, 50, 100], 600, sizes.queries, sizes.k, SEED);
                let mut t = Table::new(
                    "Ablation: pivot count (YEAST, CandSize 600)",
                    rows.iter().map(|(n, _)| n.to_string()).collect(),
                );
                t.row(
                    "Recall [%]",
                    rows.iter()
                        .map(|(_, r)| format!("{:.2}", r.recall))
                        .collect(),
                );
                t.row(
                    "Client time [s]",
                    rows.iter().map(|(_, r)| secs(r.costs.client)).collect(),
                );
                t.row(
                    "Dist. comp. / query",
                    rows.iter()
                        .map(|(_, r)| r.costs.distance_computations.to_string())
                        .collect(),
                );
                t.row(
                    "Communication cost [kB]",
                    rows.iter()
                        .map(|(_, r)| kb(r.costs.bytes_sent + r.costs.bytes_received))
                        .collect(),
                );
                println!("{}", t.render());
            }
            "strategy" => {
                let ds = yeast();
                let rows = ablation_strategy(&ds, 600, sizes.queries, sizes.k, SEED);
                let mut t = Table::new(
                    "Ablation: routing strategy (YEAST, CandSize 600) — privacy/efficiency trade of §4.2",
                    rows.iter().map(|(l, _)| l.to_string()).collect(),
                );
                t.row(
                    "Recall [%]",
                    rows.iter()
                        .map(|(_, r)| format!("{:.2}", r.recall))
                        .collect(),
                );
                t.row(
                    "Bytes sent / query",
                    rows.iter()
                        .map(|(_, r)| r.costs.bytes_sent.to_string())
                        .collect(),
                );
                t.row(
                    "Overall time [s]",
                    rows.iter().map(|(_, r)| secs(r.costs.overall())).collect(),
                );
                println!("{}", t.render());
                println!(
                    "(permutation routing leaks no distance values; distances enable pivot\n filtering and precise range queries — paper §2.3, Alg. 3)\n"
                );
            }
            "transform" => {
                let ds = yeast();
                let rows = ablation_transform(&ds, &[0.05, 0.1, 0.2], sizes.queries.min(20), SEED);
                let mut t = Table::new(
                    "Ablation: level-4 distance transformation (YEAST range queries)",
                    rows.iter().map(|(r, _, _)| format!("r={r:.1}")).collect(),
                );
                t.row(
                    "Candidates (plain routing)",
                    rows.iter().map(|(_, b, _)| b.to_string()).collect(),
                );
                t.row(
                    "Candidates (transformed)",
                    rows.iter().map(|(_, _, tr)| tr.to_string()).collect(),
                );
                t.row(
                    "Inflation",
                    rows.iter()
                        .map(|(_, b, tr)| format!("{:.2}x", *tr as f64 / (*b).max(1) as f64))
                        .collect(),
                );
                println!("{}", t.render());
                println!("(results verified identical; inflation is the price of hiding the\n distance distribution — paper §6 future work)\n");
            }
            "k" => {
                let ds = yeast();
                let rows = ablation_k(&ds, &[1, 10, 30, 50], 600, sizes.queries, SEED);
                let mut t = Table::new(
                    "Ablation: k sweep (YEAST, CandSize 600) — paper §5.3 \"results were similar\"",
                    rows.iter().map(|(k, _)| k.to_string()).collect(),
                );
                t.row(
                    "Recall [%]",
                    rows.iter().map(|(_, r)| format!("{r:.2}")).collect(),
                );
                println!("{}", t.render());
            }
            "network" => {
                let ds = yeast();
                let rows = ablation_network(&ds, 600, sizes.queries, sizes.k, SEED);
                let mut t = Table::new(
                    "Ablation: network model (YEAST, CandSize 600)",
                    rows.iter().map(|(l, _, _)| l.to_string()).collect(),
                );
                t.row(
                    "Encrypted overall [s]",
                    rows.iter().map(|(_, e, _)| secs(*e)).collect(),
                );
                t.row(
                    "Plain overall [s]",
                    rows.iter().map(|(_, _, p)| secs(*p)).collect(),
                );
                println!("{}", t.render());
                println!("(the encrypted variant's candidate transfer dominates as latency and\n bandwidth degrade — the paper's loopback setting is its best case)\n");
            }
            other => eprintln!("unknown ablation {other} (pivots|strategy|transform|k|network)"),
        }
    }
}

fn shard_note(shards: usize) -> String {
    if shards > 1 {
        format!(", {shards} shards")
    } else {
        String::new()
    }
}

fn table1(datasets: &[Dataset]) {
    let mut t = Table::new(
        "Table 1: Data sets summary",
        vec![
            "# of records".into(),
            "dim".into(),
            "distance".into(),
            "distance distribution".into(),
        ],
    );
    for ds in datasets {
        let hist = DistanceHistogram::sample(&ds.vectors, &ds.metric, 1000, 16, 1);
        t.row(
            ds.name.clone(),
            vec![
                ds.len().to_string(),
                ds.dim().to_string(),
                ds.metric.name().to_string(),
                hist.sparkline(),
            ],
        );
    }
    println!("{}", t.render());
}

fn table2() {
    let mut t = Table::new(
        "Table 2: M-Index parameters",
        vec![
            "Bucket capacity".into(),
            "Storage type".into(),
            "# of pivots".into(),
        ],
    );
    for (name, cfg, storage) in [
        (
            "YEAST",
            simcloud_mindex::MIndexConfig::yeast(),
            "Memory storage",
        ),
        (
            "HUMAN",
            simcloud_mindex::MIndexConfig::human(),
            "Memory storage",
        ),
        (
            "CoPhIR",
            simcloud_mindex::MIndexConfig::cophir(),
            "Disk storage",
        ),
    ] {
        t.row(
            name,
            vec![
                cfg.bucket_capacity.to_string(),
                storage.into(),
                cfg.num_pivots.to_string(),
            ],
        );
    }
    println!("{}", t.render());
}

fn table3_4(datasets: &[Dataset], encrypted: bool) {
    let title = if encrypted {
        "Table 3: Index construction of encrypted M-Index"
    } else {
        "Table 4: Index construction of the basic (non-encrypted) M-Index"
    };
    let mut t = Table::new(title, datasets.iter().map(|d| d.name.clone()).collect());
    let reports: Vec<_> = datasets
        .iter()
        .map(|ds| {
            if encrypted {
                construction_encrypted(ds, SEED)
            } else {
                construction_plain(ds, SEED)
            }
        })
        .collect();
    t.row(
        "Client time [s]",
        reports.iter().map(|r| secs(r.client)).collect(),
    );
    if encrypted {
        t.row(
            "Encryption time [s]",
            reports.iter().map(|r| secs(r.encryption)).collect(),
        );
    }
    t.row(
        "Dist. comp. time [s]",
        reports.iter().map(|r| secs(r.distance)).collect(),
    );
    t.row(
        "Server time [s]",
        reports.iter().map(|r| secs(r.server)).collect(),
    );
    t.row(
        "Communication time [s]",
        reports.iter().map(|r| secs(r.communication)).collect(),
    );
    t.row(
        "Overall time [s]",
        reports.iter().map(|r| secs(r.overall())).collect(),
    );
    println!("{}", t.render());
}

fn print_search_table(title: &str, rows: &[SearchRow], encrypted: bool) {
    let mut t = Table::new(
        title,
        rows.iter().map(|r| r.cand_size.to_string()).collect(),
    );
    if encrypted {
        t.row(
            "Client time [s]",
            rows.iter().map(|r| secs(r.costs.client)).collect(),
        );
        t.row(
            "Decryption time [s]",
            rows.iter().map(|r| secs(r.costs.decryption)).collect(),
        );
        t.row(
            "Dist. comp. time [s]",
            rows.iter().map(|r| secs(r.costs.distance)).collect(),
        );
        t.row(
            "Server time [s]",
            rows.iter().map(|r| secs(r.costs.server)).collect(),
        );
    } else {
        t.row(
            "Client time [s]",
            rows.iter().map(|_| "–".to_string()).collect(),
        );
        t.row(
            "Server time [s]",
            rows.iter().map(|r| secs(r.costs.server)).collect(),
        );
        t.row(
            "Dist. comp. time [s]",
            rows.iter().map(|r| secs(r.costs.distance)).collect(),
        );
    }
    t.row(
        "Communication time [s]",
        rows.iter().map(|r| secs(r.costs.communication)).collect(),
    );
    t.row(
        "Overall time [s]",
        rows.iter().map(|r| secs(r.costs.overall())).collect(),
    );
    t.row(
        "Recall [%]",
        rows.iter().map(|r| format!("{:.2}", r.recall)).collect(),
    );
    t.row(
        "Communication cost [kB]",
        rows.iter()
            .map(|r| kb(r.costs.bytes_sent + r.costs.bytes_received))
            .collect(),
    );
    println!("{}", t.render());
}

fn table9(ds: &Dataset, queries: usize) {
    let rows = comparison_1nn(ds, queries, SEED);
    let mut t = Table::new(
        "Table 9: Approximate 1-NN comparison (YEAST, held-out queries)",
        rows.iter().map(|r| r.name.to_string()).collect(),
    );
    t.row(
        "Client time [ms]",
        rows.iter().map(|r| millis(r.costs.client)).collect(),
    );
    t.row(
        "Decryption time [ms]",
        rows.iter().map(|r| millis(r.costs.decryption)).collect(),
    );
    t.row(
        "Dist. comp. time [ms]",
        rows.iter().map(|r| millis(r.costs.distance)).collect(),
    );
    t.row(
        "Server time [ms]",
        rows.iter().map(|r| millis(r.costs.server)).collect(),
    );
    t.row(
        "Communication time [ms]",
        rows.iter().map(|r| millis(r.costs.communication)).collect(),
    );
    t.row(
        "Overall time [ms]",
        rows.iter().map(|r| millis(r.costs.overall())).collect(),
    );
    t.row(
        "Recall [%]",
        rows.iter().map(|r| format!("{:.1}", r.recall)).collect(),
    );
    t.row(
        "Communication cost [kB]",
        rows.iter()
            .map(|r| kb(r.costs.bytes_sent + r.costs.bytes_received))
            .collect(),
    );
    t.row(
        "Exact?",
        rows.iter()
            .map(|r| if r.exact { "yes" } else { "approx" }.into())
            .collect(),
    );
    t.row(
        "Construction time [s]",
        rows.iter().map(|r| secs(r.build.overall())).collect(),
    );
    println!("{}", t.render());
}

// keep Duration import used in all cfg paths
#[allow(dead_code)]
fn _unused(_: Duration) {}
