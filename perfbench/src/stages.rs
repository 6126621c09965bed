//! The flow composed stage by stage from the layers' public functions,
//! the output checks every run applies, and the plan fingerprint.
//!
//! `compose` calls exactly what `OperonFlow::run` calls, in the same
//! order, so its plan fingerprint must equal the flow's; the benchmark
//! asserts that for every design it routes.

use crate::trace::Tracer;
use operon::codesign::{generate_candidates, NetCandidates};
use operon::config::{OperonConfig, Selector};
use operon::formulation::{selection_feasible, selection_power_mw, SelectionResult};
use operon::lr::{select_lr_in, LrWorkspace};
use operon::wdm::channels::{assign_channels, validate_channels};
use operon::wdm::{self, WdmPlan};
use operon::{CrossingIndex, FlowResult, OperonError};
use operon_cluster::build_hyper_nets;
use operon_exec::{peak_rss_kib, Executor};
use operon_netlist::Design;
use operon_optics::OpticalLib;
use std::collections::BTreeMap;
use std::time::Duration;

/// Per-layer values of one unit of work (a route pass or a trace
/// replay), keyed by the metric names of `BENCHMARK.json`.
pub type Layers = BTreeMap<&'static str, f64>;

pub fn add(layers: &mut Layers, key: &'static str, value: f64) {
    *layers.entry(key).or_insert(0.0) += value;
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Time the five stage spans cover, ms.
pub fn stage_ms(layers: &Layers) -> f64 {
    [
        "cluster.ms",
        "codesign.ms",
        "crossing.ms",
        "selection.ms",
        "wdm.ms",
    ]
    .iter()
    .map(|k| layers.get(k).copied().unwrap_or(0.0))
    .sum()
}

/// A plan produced by [`compose`], with the crossing index the flow
/// drops (the feasibility check needs it).
pub struct Plan {
    pub candidates: Vec<NetCandidates>,
    pub crossings: CrossingIndex,
    pub selection: SelectionResult,
    pub wdm: WdmPlan,
    /// The instance-resolved configuration the stages ran under.
    pub config: OperonConfig,
}

/// Resets this process's `VmHWM` to its current RSS, so the next
/// sample measures only what happens after the reset. Best effort:
/// returns whether the kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// `build_hyper_nets` → `resolved_for` → `generate_candidates` →
/// `CrossingIndex::build_with` → `lr::select_lr_in` → `wdm::plan_with`,
/// each under a span and an executor stage scope, with its counts added
/// to `layers`. With tracing on, `VmHWM` is reset before the crossing
/// build so `crossing.rss_delta_mib` is that build's own growth.
pub fn compose(
    design: &Design,
    config: &OperonConfig,
    exec: &Executor,
    tracer: &mut Tracer,
    id: &str,
    layers: &mut Layers,
) -> Result<Plan, OperonError> {
    assert!(
        matches!(config.selector, Selector::LagrangianRelaxation),
        "the benchmark composes the LR flow only"
    );
    config.validate()?;
    let stages_before = exec.report().stages.len();
    let route = tracer.begin("route", id);

    let span = tracer.begin("cluster", id);
    let hyper_nets = {
        let _stage = exec.stage("clustering");
        build_hyper_nets(design, &config.cluster)
    };
    tracer.count(&span, "hyper_nets", hyper_nets.len() as f64);
    add(layers, "cluster.ms", ms(tracer.end(span)));
    add(layers, "cluster.hyper_nets", hyper_nets.len() as f64);

    let span = tracer.begin("codesign", id);
    let resolved = config.resolved_for(hyper_nets.iter().map(|n| n.bit_count()));
    let candidates: Vec<NetCandidates> = {
        let _stage = exec.stage("codesign");
        exec.par_map_indexed(&hyper_nets, |i, net| generate_candidates(net, i, &resolved))
    };
    let count: usize = candidates.iter().map(|nc| nc.candidates.len()).sum();
    tracer.count(&span, "candidates", count as f64);
    add(layers, "codesign.ms", ms(tracer.end(span)));
    add(layers, "codesign.candidates", count as f64);

    let span = tracer.begin("crossing", id);
    let rss_before = if tracer.is_on() && reset_peak_rss() {
        peak_rss_kib()
    } else {
        0
    };
    let crossings = {
        let _stage = exec.stage("crossing");
        CrossingIndex::build_with(&candidates, exec)
    };
    let rss_delta_mib = if rss_before > 0 {
        peak_rss_kib().saturating_sub(rss_before) as f64 / 1024.0
    } else {
        0.0
    };
    let info = crossings.build_info();
    tracer.count(&span, "pairs", crossings.len() as f64);
    tracer.count(&span, "parallel", f64::from(u8::from(info.parallel)));
    tracer.count(&span, "rss_delta_mib", rss_delta_mib);
    add(layers, "crossing.ms", ms(tracer.end(span)));
    add(layers, "crossing.pairs", crossings.len() as f64);
    add(
        layers,
        "crossing.parallel",
        f64::from(u8::from(info.parallel)),
    );
    add(layers, "crossing.rss_delta_mib", rss_delta_mib);

    let span = tracer.begin("selection", id);
    let selection = {
        let _stage = exec.stage("selection");
        select_lr_in(
            &candidates,
            &crossings,
            &resolved,
            exec,
            &mut LrWorkspace::new(),
        )
    };
    let lr = selection.lr_stats.unwrap_or_default();
    tracer.count(&span, "iterations", lr.iterations as f64);
    tracer.count(&span, "priced_nets", lr.priced_nets as f64);
    add(layers, "selection.ms", ms(tracer.end(span)));
    add_lr(layers, &lr);

    let span = tracer.begin("wdm", id);
    let plan = {
        let _stage = exec.stage("wdm");
        wdm::plan_with(&candidates, &selection.choice, &resolved.optical, exec)
    };
    let plan = match plan {
        Ok(plan) => plan,
        Err(e) => {
            tracer.end(span);
            tracer.end(route);
            return Err(e);
        }
    };
    tracer.count(&span, "placed", plan.initial_count as f64);
    tracer.count(&span, "final", plan.final_count() as f64);
    add(layers, "wdm.ms", ms(tracer.end(span)));
    add_wdm(layers, &plan);
    tracer.end(route);

    let report = exec.report();
    for rec in &report.stages[stages_before..] {
        add_stage_record(layers, rec);
    }
    Ok(Plan {
        candidates,
        crossings,
        selection,
        wdm: plan,
        config: resolved,
    })
}

/// Adds the LR counters of one selection.
pub fn add_lr(layers: &mut Layers, lr: &operon::lr::LrStats) {
    add(layers, "lr.iterations", lr.iterations as f64);
    add(layers, "lr.priced_nets", lr.priced_nets as f64);
    add(layers, "lr.reused_prices", lr.reused_prices as f64);
    add(layers, "lr.load_evals", lr.load_evals as f64);
    add(layers, "lr.reused_loads", lr.reused_loads as f64);
}

/// Adds the WDM and MCMF counters of one plan.
fn add_wdm(layers: &mut Layers, plan: &WdmPlan) {
    add(layers, "wdm.placed", plan.initial_count as f64);
    add(layers, "wdm.final", plan.final_count() as f64);
    add(layers, "wdm.warm_trials", plan.stats.warm_trials as f64);
    add(
        layers,
        "mcmf.dijkstra_passes",
        plan.stats.mcmf.dijkstra_passes as f64,
    );
    add(
        layers,
        "mcmf.repair_rounds",
        plan.stats.mcmf.repair_rounds as f64,
    );
    add(
        layers,
        "mcmf.warm_fallbacks",
        plan.stats.mcmf.warm_fallbacks as f64,
    );
    add(
        layers,
        "mcmf.undo_entries",
        plan.stats.mcmf.undo_entries as f64,
    );
}

/// Adds an executor stage record's work counters: tasks, steals, and
/// busy versus wall time (the inputs of `exec.utilization`).
pub fn add_stage_record(layers: &mut Layers, rec: &operon_exec::StageRecord) {
    add(layers, "exec.tasks", rec.tasks as f64);
    add(layers, "exec.steals", rec.steals as f64);
    add(layers, "exec.busy_ms", ms(rec.busy));
    add(layers, "exec.wall_ms", ms(rec.wall));
    let busy_key = match rec.name.as_str() {
        "codesign" => "codesign.busy_ms",
        "selection" => "selection.busy_ms",
        "wdm" => "wdm.busy_ms",
        _ => return,
    };
    add(layers, busy_key, ms(rec.busy));
}

/// Turns the summed helpers of a unit into its reported ratios:
/// `lr.reuse_ratio` (reused over attempted pricing and load work) and
/// `exec.utilization` (busy worker time over threads × stage wall).
pub fn finish_ratios(layers: &mut Layers, threads: usize) {
    let get = |l: &Layers, k| l.get(k).copied().unwrap_or(0.0);
    let reused = get(layers, "lr.reused_prices") + get(layers, "lr.reused_loads");
    let done = get(layers, "lr.priced_nets") + get(layers, "lr.load_evals");
    let ratio = if reused + done > 0.0 {
        reused / (reused + done)
    } else {
        0.0
    };
    layers.insert("lr.reuse_ratio", ratio);
    let wall = get(layers, "exec.wall_ms");
    let util = if wall > 0.0 {
        get(layers, "exec.busy_ms") / (threads as f64 * wall)
    } else {
        0.0
    };
    layers.insert("exec.utilization", util);
    layers.remove("exec.busy_ms");
    layers.remove("exec.wall_ms");
}

/// The output checks, none of which depends on plan identity:
/// detection-budget feasibility (when the crossing index is at hand),
/// the reported power recomputed bitwise, and a conflict-free
/// within-capacity channel assignment. Returns one message per failure.
pub fn check_plan(
    candidates: &[NetCandidates],
    crossings: Option<&CrossingIndex>,
    selection: &SelectionResult,
    plan: &WdmPlan,
    optical: &OpticalLib,
) -> Vec<String> {
    let mut failures = Vec::new();
    if let Some(crossings) = crossings {
        if !selection_feasible(candidates, crossings, &selection.choice, optical) {
            failures.push("selection violates the detection budget".to_owned());
        }
    }
    let recomputed = selection_power_mw(candidates, &selection.choice);
    if recomputed.to_bits() != selection.power_mw.to_bits() {
        failures.push(format!(
            "reported power {} mW != recomputed {recomputed} mW",
            selection.power_mw
        ));
    }
    let capacity = optical.wdm_capacity;
    if let Some((i, w)) = plan
        .wdms
        .iter()
        .enumerate()
        .find(|(_, w)| w.used() > capacity)
    {
        failures.push(format!(
            "waveguide {i} carries {} channels over capacity {capacity}",
            w.used()
        ));
    } else if let Err(e) = validate_channels(plan, &assign_channels(plan, capacity), capacity) {
        failures.push(format!("channel assignment: {e}"));
    }
    failures
}

/// [`check_plan`] on a flow result, under the configuration the flow
/// resolved (the WDM capacity does not depend on the instance).
pub fn check_flow(result: &FlowResult, optical: &OpticalLib) -> Vec<String> {
    check_plan(
        &result.candidates,
        None,
        &result.selection,
        &result.wdm,
        optical,
    )
}

/// FNV-1a over the selection and the WDM plan: two runs share it iff
/// their routed results are identical.
pub fn fingerprint(selection: &SelectionResult, plan: &WdmPlan) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for &choice in &selection.choice {
        eat(choice as u64);
    }
    eat(selection.power_mw.to_bits());
    eat(plan.connections.len() as u64);
    eat(plan.initial_count as u64);
    eat(plan.final_count() as u64);
    for w in &plan.wdms {
        eat(w.track as u64);
        eat(w.assigned.len() as u64);
        for &(conn, channels) in &w.assigned {
            eat(conn as u64);
            eat(channels as u64);
        }
    }
    h
}
