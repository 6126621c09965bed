//! Regenerates the paper's **Table 1**: performance comparison among the
//! pure-electrical design (Streak-like), the optical-only design
//! (GLOW-like), OPERON with the exact ILP, and OPERON with the LR
//! speed-up, over the I1–I5 benchmark substitutes.
//!
//! ```text
//! cargo run -p operon-bench --release --bin table1 [--ilp-limit SECS | --no-ilp]
//! ```
//!
//! The default ILP budget is 300 s per benchmark; like the paper's
//! Gurobi runs (capped at 3000 s), large instances are expected to hit
//! the limit and report their best incumbent. Both CPU columns time the
//! selection stage only (`SelectionResult::elapsed` of the ILP or LR
//! selector), not clustering, candidate generation, crossing or WDM.

use operon_bench::{benchmarks, fmt_power, run_table1_row, BenchRow};
use operon_exec::Executor;
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let ilp_limit = parse_ilp_limit(&args);

    match ilp_limit {
        Some(l) => println!("ILP budget: {} s per benchmark", l.as_secs()),
        None => println!("ILP disabled (--no-ilp): ILP columns mirror LR"),
    }
    println!();

    // Benchmarks run in parallel; each row is independent, and the
    // ordered executor keeps the output rows in benchmark order.
    let configs = benchmarks();
    let exec = Executor::new(configs.len().max(1));
    let rows: Vec<BenchRow> = exec.par_map_coarse(&configs, |cfg| run_table1_row(cfg, ilp_limit));

    println!(
        "{:<6} {:>6} {:>6} {:>6} | {:>12} {:>12} | {:>12} {:>20} | {:>12} {:>20}",
        "Bench",
        "#Net",
        "#HNet",
        "#HPin",
        "Electrical",
        "Optical",
        "OPERON(ILP)",
        "ILP selection CPU(s)",
        "OPERON(LR)",
        "LR selection CPU(s)",
    );
    println!("{}", "-".to_string().repeat(127));
    let mut sums = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for row in &rows {
        let ilp_cpu = if row.ilp_optimal {
            format!("{:.1}", row.ilp_cpu.as_secs_f64())
        } else {
            format!(">{:.0}", row.ilp_cpu.as_secs_f64())
        };
        println!(
            "{:<6} {:>6} {:>6} {:>6} | {:>12} {:>12} | {:>12} {:>20} | {:>12} {:>20.1}",
            row.name,
            row.nets,
            row.hnets,
            row.hpins,
            fmt_power(row.electrical_mw),
            fmt_power(row.optical_mw),
            fmt_power(row.ilp_mw),
            ilp_cpu,
            fmt_power(row.lr_mw),
            row.lr_cpu.as_secs_f64(),
        );
        sums.0 += row.electrical_mw;
        sums.1 += row.optical_mw;
        sums.2 += row.ilp_mw;
        sums.3 += row.lr_mw;
    }
    let n = rows.len() as f64;
    println!("{}", "-".to_string().repeat(127));
    println!(
        "{:<27} | {:>12} {:>12} | {:>12} {:>20} | {:>12}",
        "average",
        fmt_power(sums.0 / n),
        fmt_power(sums.1 / n),
        fmt_power(sums.2 / n),
        "",
        fmt_power(sums.3 / n),
    );
    println!(
        "{:<27} | {:>12.3} {:>12.3} | {:>12.3} {:>20} | {:>12.3}",
        "ratio (vs Optical)",
        sums.0 / sums.1,
        1.0,
        sums.2 / sums.1,
        "",
        sums.3 / sums.1,
    );
    println!(
        "\npaper's ratios: Electrical 3.565, Optical 1.000, OPERON(ILP) 0.860, OPERON(LR) 0.889"
    );
    println!("(power unit: W at the calibration in EXPERIMENTS.md; shapes, not absolutes, are the target)");
}

fn parse_ilp_limit(args: &[String]) -> Option<Duration> {
    if args.iter().any(|a| a == "--no-ilp") {
        return None;
    }
    if let Some(pos) = args.iter().position(|a| a == "--ilp-limit") {
        let secs: u64 = args
            .get(pos + 1)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| {
                eprintln!("--ilp-limit requires a positive integer (seconds)");
                std::process::exit(2);
            });
        return Some(Duration::from_secs(secs.max(1)));
    }
    Some(Duration::from_secs(300))
}
