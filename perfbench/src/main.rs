//! The repository benchmark: end-to-end runs of the OPERON flow on the
//! paper suite and of a warm ECO session, with a traced mode that
//! attributes each run to its layers. See `perfbench/README.md`.
//!
//! ```text
//! operon_perfbench --workload <route_dense|route_wide|eco_session>
//!     [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//!     [--rustc VERSION] [--commit SHA]
//! ```
//!
//! The last stdout line is the result object; with `--out` the full
//! result (every metric, raw samples, provenance) and, when tracing, the
//! Chrome trace are written there too. Exits 1 when any output check
//! fails, 2 on bad arguments.

mod eco;
mod inputs;
mod route;
mod stages;
mod trace;

use operon_exec::json::Value;
use operon_exec::{peak_rss_kib, Executor};
use stages::Layers;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Executor workers, matching a 2-vCPU benchmark host.
const THREADS: usize = 2;

const DENSE: [&str; 2] = ["I2", "I5"];
const WIDE: [&str; 3] = ["I1", "I3", "I4"];

/// `BENCHMARK.json`'s end-to-end metrics: printed with `--trace 0`.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("route_wall_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("total_power_mw", "mW"),
    ("waveguides", "count"),
];

/// `BENCHMARK.json`'s per-layer metrics: printed with `--trace 1`. A
/// layer a workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 48] = [
    ("netlist.parse_ms", "ms"),
    ("cluster.ms", "ms"),
    ("cluster.hyper_nets", "count"),
    ("codesign.ms", "ms"),
    ("codesign.busy_ms", "ms"),
    ("codesign.candidates", "count"),
    ("crossing.ms", "ms"),
    ("crossing.pairs", "count"),
    ("crossing.rss_delta_mib", "MiB"),
    ("crossing.parallel", "count"),
    ("selection.ms", "ms"),
    ("selection.busy_ms", "ms"),
    ("lr.iterations", "count"),
    ("lr.priced_nets", "count"),
    ("lr.reused_prices", "count"),
    ("lr.load_evals", "count"),
    ("lr.reused_loads", "count"),
    ("lr.reuse_ratio", "ratio"),
    ("wdm.ms", "ms"),
    ("wdm.busy_ms", "ms"),
    ("wdm.placed", "count"),
    ("wdm.final", "count"),
    ("wdm.warm_trials", "count"),
    ("mcmf.dijkstra_passes", "count"),
    ("mcmf.repair_rounds", "count"),
    ("mcmf.warm_fallbacks", "count"),
    ("mcmf.undo_entries", "count"),
    ("exec.tasks", "count"),
    ("exec.steals", "count"),
    ("exec.utilization", "ratio"),
    ("session.crossing_delta_rebuilds", "count"),
    ("session.crossing_full_builds", "count"),
    ("session.nets_reused", "count"),
    ("session.nets_recoded", "count"),
    ("session.stages_reused", "count"),
    ("session.stages_rerun", "count"),
    ("session.eco.crossing_ms", "ms"),
    ("session.eco.selection_ms", "ms"),
    ("session.eco.wdm_ms", "ms"),
    ("serve.eco_move_pins_ms", "ms"),
    ("serve.set_config_ms", "ms"),
    ("serve.route_ms", "ms"),
    ("serve.probe_wdm_ms", "ms"),
    ("eco_p50_ms", "ms"),
    ("retune_p50_ms", "ms"),
    ("trace_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.uncovered_frac", "ratio"),
];

/// Units of the metrics only the result file and the summary carry.
const EXTRA_UNITS: [(&str, &str); 4] = [
    ("eco_p50_ms", "ms"),
    ("retune_p50_ms", "ms"),
    ("trace_wall_s", "s"),
    ("failed_frac", "ratio"),
];

/// Shared state of one benchmark process.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub exec: Executor,
    pub tracer: trace::Tracer,
}

/// Everything a workload measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// End-to-end values by name (plus the session-only latencies).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Per-layer values by name (traced runs).
    pub layers: Layers,
    /// Raw samples behind the medians, for the result file.
    pub samples: Vec<(&'static str, Vec<f64>)>,
    /// Plan fingerprint per design.
    pub fingerprints: Vec<(String, String)>,
    /// Crossing build strategy chosen per design.
    pub strategies: Vec<(String, String)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a failed operation.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        self.failures.push(msg);
    }

    /// Records the checks of one attempted operation: it fails when any
    /// check does.
    pub fn check(&mut self, what: &str, failures: Vec<String>) {
        if !failures.is_empty() {
            self.failed += 1;
            self.failures
                .extend(failures.into_iter().map(|f| format!("{what}: {f}")));
        }
    }
}

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Per-key median over units of work; a key missing from a unit reads 0.
pub fn median_layers(units: &[Layers]) -> Layers {
    let mut out = Layers::new();
    for &(name, _) in &PER_LAYER {
        let values: Vec<f64> = units
            .iter()
            .map(|u| u.get(name).copied().unwrap_or(0.0))
            .collect();
        out.insert(name, median(&values));
    }
    out
}

/// The host's CPU tick counters from `/proc/stat`: (steal, total).
/// Zero where unavailable.
fn cpu_ticks() -> (u64, u64) {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    rustc: String,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: inputs::HARNESS_SEED,
        seconds: 10.0,
        trace: false,
        out: None,
        rustc: "unknown".to_owned(),
        commit: "unknown".to_owned(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0 or 1)")),
                }
            }
            "--out" => args.out = Some(value),
            "--rustc" => args.rustc = value,
            "--commit" => args.commit = value,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn named(pairs: &[(String, String)]) -> Value {
    Value::object(
        pairs
            .iter()
            .map(|(k, v)| (k.as_str(), Value::from(v.as_str())))
            .collect(),
    )
}

fn metric_object(names: &[(&str, &str)], values: impl Fn(&str) -> Option<f64>) -> Value {
    Value::object(
        names
            .iter()
            .filter_map(|&(name, unit)| {
                values(name).map(|v| {
                    (
                        name,
                        Value::object(vec![("value", Value::from(v)), ("unit", Value::from(unit))]),
                    )
                })
            })
            .collect(),
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("operon_perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let ticks_before = cpu_ticks();
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        exec: Executor::new(THREADS),
        tracer: trace::Tracer::new(args.trace),
    };
    let mut out = match args.workload.as_str() {
        "route_dense" => route::run(&DENSE, &mut ctx),
        "route_wide" => route::run(&WIDE, &mut ctx),
        "eco_session" => eco::run(&mut ctx),
        other => {
            eprintln!("operon_perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    out.metric("peak_rss_mib", peak_rss_kib() as f64 / 1024.0);
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    out.metric("failed_frac", failed_frac);
    let correct = out.failed == 0 && out.attempted > 0;
    for f in &out.failures {
        eprintln!("CHECK FAILED: {f}");
    }

    // Steal time is the hypervisor running other guests on the
    // machine's CPUs: it inflates wall times, so the result records it
    // beside them.
    let ticks_after = cpu_ticks();
    let total = ticks_after.1.saturating_sub(ticks_before.1).max(1);
    let steal_frac = ticks_after.0.saturating_sub(ticks_before.0) as f64 / total as f64;
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let provenance = Value::object(vec![
        ("workload", Value::from(args.workload.as_str())),
        ("seed", Value::from(args.seed)),
        ("seconds", Value::from(args.seconds)),
        ("trace", Value::Bool(args.trace)),
        ("nproc", Value::from(nproc)),
        ("executor_threads", Value::from(ctx.exec.threads())),
        ("host_steal_frac", Value::from(steal_frac)),
        ("fingerprints", named(&out.fingerprints)),
        ("crossing_strategy", named(&out.strategies)),
        ("rustc", Value::from(args.rustc.as_str())),
        ("commit", Value::from(args.commit.as_str())),
    ]);

    // Human-readable summary: every metric this workload measured.
    println!("provenance {}", provenance.compact());
    let mut summary: Vec<(&str, &str)> = END_TO_END.to_vec();
    summary.extend(EXTRA_UNITS);
    for (name, unit) in summary {
        if let Some(v) = out.metrics.get(name) {
            println!("{:<16} {v:>14.4} {unit}", name);
        }
    }
    println!(
        "{:<16} {:>14} of {} operations failed",
        "failed", out.failed, out.attempted
    );
    if args.trace {
        for (name, unit) in PER_LAYER {
            let v = out.layers.get(name).copied().unwrap_or(0.0);
            println!("{:<32} {v:>14.4} {unit}", name);
        }
    }

    let reported = if args.trace {
        metric_object(&PER_LAYER, |n| {
            Some(out.layers.get(n).copied().unwrap_or(0.0))
        })
    } else {
        metric_object(&END_TO_END, |n| out.metrics.get(n).copied())
    };
    if let Some(dir) = &args.out {
        let mut all_units: Vec<(&str, &str)> = END_TO_END.to_vec();
        all_units.extend(EXTRA_UNITS);
        let samples = Value::object(
            out.samples
                .iter()
                .map(|(k, v)| {
                    (
                        *k,
                        Value::Array(v.iter().map(|&x| Value::from(x)).collect()),
                    )
                })
                .collect(),
        );
        let full = Value::object(vec![
            ("provenance", provenance),
            ("correct", Value::Bool(correct)),
            ("attempted", Value::from(out.attempted)),
            ("failed", Value::from(out.failed)),
            (
                "failures",
                Value::Array(
                    out.failures
                        .iter()
                        .map(|f| Value::from(f.as_str()))
                        .collect(),
                ),
            ),
            (
                "metrics",
                metric_object(&all_units, |n| out.metrics.get(n).copied()),
            ),
            (
                "layers",
                if args.trace {
                    metric_object(&PER_LAYER, |n| out.layers.get(n).copied())
                } else {
                    Value::object(Vec::<(&str, Value)>::new())
                },
            ),
            ("samples", samples),
        ]);
        let stem = format!(
            "{dir}/{}-seed{}-trace{}",
            args.workload,
            args.seed,
            u8::from(args.trace)
        );
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(format!("{stem}.json"), full.pretty()))
            .and_then(|()| {
                if args.trace {
                    std::fs::write(format!("{stem}.trace.json"), ctx.tracer.to_chrome_json())
                } else {
                    Ok(())
                }
            });
        if let Err(e) = written {
            eprintln!("operon_perfbench: writing {stem}: {e}");
        }
    }

    println!(
        "{}",
        Value::object(vec![
            ("correct", Value::Bool(correct)),
            ("attempted", Value::from(out.attempted)),
            ("failed", Value::from(out.failed)),
            ("metrics", reported),
        ])
        .compact()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
