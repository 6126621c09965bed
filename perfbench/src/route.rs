//! `route_dense` and `route_wide`: one-shot `OperonFlow::run` passes over
//! a set of paper-suite designs.

use crate::inputs;
use crate::stages::{self, add, check_flow, check_plan, compose, fingerprint, ms, Layers};
use crate::{median, Ctx, Outcome};
use operon::config::OperonConfig;
use operon::OperonFlow;
use operon_netlist::Design;
use std::time::{Duration, Instant};

/// Set-ups before the first pass; one more follows every pass, so the
/// `setup_s` median spans the whole run rather than its first instant.
const SETUPS_UPFRONT: usize = 3;

/// Generates, serializes and parses the designs; returns them with the
/// set-up wall time and the parse time in milliseconds.
fn set_up(names: &[&str], seed: u64) -> Result<(Vec<Design>, f64, f64), String> {
    let start = Instant::now();
    let mut parse_ms = 0.0;
    let mut designs = Vec::with_capacity(names.len());
    for name in names {
        let text = inputs::design_text(name, seed)?;
        let t = Instant::now();
        designs.push(inputs::parse(name, &text)?);
        parse_ms += ms(t.elapsed());
    }
    Ok((designs, start.elapsed().as_secs_f64(), parse_ms))
}

/// One composed pass over every design.
struct Composed {
    layers: Layers,
    /// Composition plus result drop, checks excluded.
    wall_s: f64,
    fingerprints: Vec<u64>,
}

pub fn run(names: &[&str], ctx: &mut Ctx) -> Outcome {
    let mut out = Outcome::default();
    let config = OperonConfig::default();
    let mut setups = Vec::new();
    let mut parses = Vec::new();
    let mut designs = Vec::new();
    for _ in 0..SETUPS_UPFRONT {
        out.attempted += 1;
        match set_up(names, ctx.seed) {
            Ok((d, secs, parse_ms)) => {
                designs = d;
                setups.push(secs);
                parses.push(parse_ms);
            }
            Err(e) => {
                out.fail(format!("set-up: {e}"));
                return out;
            }
        }
    }
    // Pass 0 composes the stages: it warms the allocator and page
    // cache, and yields the crossing index the feasibility check needs.
    // Every later pass must reproduce its fingerprints.
    let Some(pass0) = compose_pass(names, &designs, &config, ctx, &mut out) else {
        return out;
    };
    let expected = pass0.fingerprints.clone();
    for (name, fp) in names.iter().zip(&expected) {
        out.fingerprints
            .push((name.to_string(), format!("{fp:016x}")));
    }
    let mut traced = vec![pass0];

    let flow = OperonFlow::new(config.clone()).with_executor(ctx.exec.clone());
    let mut untraced = Vec::new();
    let window = Instant::now();
    loop {
        // A pass times each run and the drop of its result; the checks
        // between the two are left out.
        let mut pass = Duration::ZERO;
        for ((name, design), &fp) in names.iter().zip(&designs).zip(&expected) {
            out.attempted += 1;
            let t = Instant::now();
            let result = flow.run(design);
            pass += t.elapsed();
            match result {
                Ok(result) => {
                    let mut failures = check_flow(&result, &config.optical);
                    let got = fingerprint(&result.selection, &result.wdm);
                    if got != fp {
                        failures.push(format!(
                            "OperonFlow::run fingerprint {got:016x} != composed {fp:016x}"
                        ));
                    }
                    out.check(name, failures);
                    let t = Instant::now();
                    drop(result);
                    pass += t.elapsed();
                }
                Err(e) => out.fail(format!("{name}: {e}")),
            }
        }
        untraced.push(pass.as_secs_f64());
        if ctx.tracer.is_on() {
            if let Some(c) = compose_pass(names, &designs, &config, ctx, &mut out) {
                if c.fingerprints != expected {
                    out.fail("a traced pass changed a plan fingerprint".to_owned());
                }
                traced.push(c);
            }
        }
        out.attempted += 1;
        match set_up(names, ctx.seed) {
            Ok((again, secs, parse_ms)) if again == designs => {
                setups.push(secs);
                parses.push(parse_ms);
            }
            Ok(_) => out.fail("set-up is not deterministic in the seed".to_owned()),
            Err(e) => out.fail(format!("set-up: {e}")),
        }
        // Stop at the pass boundary nearest the end of the window.
        if window.elapsed().as_secs_f64() + pass.as_secs_f64() / 2.0 >= ctx.seconds {
            break;
        }
    }
    out.metric("setup_s", median(&setups));
    out.samples.push(("setup_s", setups));
    let route_wall = median(&untraced);
    out.metric("route_wall_s", route_wall);
    out.samples.push(("route_wall_s", untraced));

    // Layer values: the median over traced passes, leaving out the
    // cold pass 0 once a warm one exists.
    let warm = if traced.len() > 1 {
        &traced[1..]
    } else {
        &traced[..]
    };
    let layers: Vec<Layers> = warm.iter().map(|c| c.layers.clone()).collect();
    out.layers = crate::median_layers(&layers);
    out.layers.insert("netlist.parse_ms", median(&parses));
    if ctx.tracer.is_on() {
        let walls: Vec<f64> = warm.iter().map(|c| c.wall_s).collect();
        out.layers
            .insert("trace.overhead_s", median(&walls) - route_wall);
    }
    out
}

/// Composes, checks and drops every design once. The first call also
/// records the plans' power, waveguide count and crossing strategy.
/// Returns `None` when a stage failed.
fn compose_pass(
    names: &[&str],
    designs: &[Design],
    config: &OperonConfig,
    ctx: &mut Ctx,
    out: &mut Outcome,
) -> Option<Composed> {
    let first = out.strategies.is_empty();
    let mut layers = Layers::new();
    let mut fingerprints = Vec::with_capacity(designs.len());
    let mut wall = Duration::ZERO;
    let mut covered_ms = 0.0;
    let (mut power, mut waveguides) = (0.0, 0.0);
    for (name, design) in names.iter().zip(designs) {
        out.attempted += 1;
        let mut design_layers = Layers::new();
        let t = Instant::now();
        let plan = compose(
            design,
            config,
            &ctx.exec,
            &mut ctx.tracer,
            name,
            &mut design_layers,
        );
        wall += t.elapsed();
        let plan = match plan {
            Ok(plan) => plan,
            Err(e) => {
                out.fail(format!("{name}: {e}"));
                return None;
            }
        };
        let failures = check_plan(
            &plan.candidates,
            Some(&plan.crossings),
            &plan.selection,
            &plan.wdm,
            &plan.config.optical,
        );
        out.check(name, failures);
        fingerprints.push(fingerprint(&plan.selection, &plan.wdm));
        power += plan.selection.power_mw;
        waveguides += plan.wdm.final_count() as f64;
        if first {
            let strategy = plan.crossings.build_info().strategy.counter_name();
            out.strategies.push((name.to_string(), strategy.to_owned()));
        }
        covered_ms += stages::stage_ms(&design_layers);
        for (k, v) in design_layers {
            add(&mut layers, k, v);
        }
        let t = Instant::now();
        drop(plan);
        wall += t.elapsed();
    }
    if first {
        out.metric("total_power_mw", power);
        out.metric("waveguides", waveguides);
    }
    let wall_s = wall.as_secs_f64();
    stages::finish_ratios(&mut layers, ctx.exec.threads());
    layers.insert("trace.uncovered_frac", 1.0 - covered_ms / (wall_s * 1e3));
    Some(Composed {
        layers,
        wall_s,
        fingerprints,
    })
}
