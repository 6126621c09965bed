//! `eco_session`: I1 resident in `operon_serve::Server`, served in
//! closed loop by one client that waits for each reply.
//!
//! The trace is fixed by the seed. Two groups are each nudged away from
//! home and back (`eco_move_pins`); every ECO is followed by a
//! `probe_wdm` and a retune (`set_config` toggling `wdm_displacement`
//! 600↔580, then `route`). A replay ends on the home design at the
//! default configuration, so every replay does the same work and every
//! request stays feasible.

use crate::inputs::{self, fits, next_u64, translated};
use crate::stages::{
    self, add, add_stage_record, check_flow, check_plan, compose, fingerprint, ms, Layers,
};
use crate::{median, Ctx, Outcome};
use operon::config::OperonConfig;
use operon::OperonFlow;
use operon_exec::json::{self, Value};
use operon_exec::{peak_rss_kib, StageRecord};
use operon_netlist::Design;
use operon_serve::Server;
use std::time::Instant;

const SESSION: &str = "i1";
/// Set-ups (each routes I1 cold) before the first replay; one more
/// follows every replay, so the `setup_s` median spans the whole run.
const SETUPS_UPFRONT: usize = 2;
/// The retune knob toggles between the default and a nearby value, so
/// every retune re-plans WDM and none is answered from cache.
const DISPLACEMENTS: [i64; 2] = [600, 580];
/// Cold oracle runs after each replay.
const ORACLES_PER_REPLAY: usize = 2;

/// One request of the trace, as the client sends it.
enum Step {
    /// Move `group` by `(dx, dy)`.
    Eco {
        group: usize,
        dx: i64,
        dy: i64,
    },
    Probe,
    /// `set_config` to this displacement, then `route`.
    Retune(i64),
}

/// What a route-producing reply says; every replay must repeat it.
#[derive(Clone, Copy, PartialEq)]
struct Digest {
    power_bits: u64,
    wdms: i64,
    stages_reused: i64,
}

/// One served replay of the trace.
struct Replay {
    wall_s: f64,
    eco_ms: Vec<f64>,
    retune_ms: Vec<f64>,
    /// Per request: the route digest, `None` for probes.
    digests: Vec<Option<Digest>>,
    layers: Layers,
}

/// A route-producing request of the trace and the state it leaves the
/// session in.
struct State {
    /// Index of the request in the trace.
    request: usize,
    design: Design,
    displacement: i64,
    /// The group an ECO moved (`None` for retunes).
    moved_group: Option<usize>,
}

/// The session state after each route-producing request of `trace`.
fn route_states(home: &Design, trace: &[Step]) -> Vec<State> {
    let mut states = Vec::new();
    let mut design = home.clone();
    let mut displacement = DISPLACEMENTS[0];
    for (request, step) in trace.iter().enumerate() {
        let moved_group = match *step {
            Step::Eco { group, dx, dy } => {
                design = translated(&design, |g| if g == group { (dx, dy) } else { (0, 0) });
                Some(group)
            }
            Step::Probe => continue,
            Step::Retune(d) => {
                displacement = d;
                None
            }
        };
        states.push(State {
            request,
            design: design.clone(),
            displacement,
            moved_group,
        });
    }
    states
}

/// Verifies session states against cold runs, one state per call,
/// cycling through them.
#[derive(Default)]
struct Checker {
    visits: usize,
    oracle_walls: Vec<f64>,
    /// Wall time and layer values of each composed state.
    composed: Vec<(f64, Layers)>,
    /// Per-replay values the server does not report, from each state's
    /// first oracle: placed WDMs, and the candidates of each ECO's group.
    facts: Layers,
}

impl Checker {
    /// Runs a cold `OperonFlow::run` on the next state — the identically
    /// mutated design under the same configuration — and checks replay
    /// 0's reply against it. On a state's first visit it also records
    /// the facts and, for the final state (home design, default
    /// configuration) or when tracing, checks that the composed stages
    /// reproduce the flow.
    fn next(
        &mut self,
        states: &[State],
        digests: &[Option<Digest>],
        ctx: &mut Ctx,
        out: &mut Outcome,
    ) {
        let state = &states[self.visits % states.len()];
        let first = self.visits < states.len();
        let last = state.request == digests.len() - 1;
        self.visits += 1;
        let id = format!("state.{}", state.request);
        out.attempted += 1;
        let Some(got) = digests[state.request] else {
            out.fail(format!("{id}: replay 0 has no route reply"));
            return;
        };
        let config = config_at(state.displacement);
        let flow = OperonFlow::new(config.clone()).with_executor(ctx.exec.clone());
        let t = Instant::now();
        let result = match flow.run(&state.design) {
            Ok(r) => r,
            Err(e) => {
                out.fail(format!("{id}: oracle: {e}"));
                return;
            }
        };
        self.oracle_walls.push(t.elapsed().as_secs_f64());
        let mut failures = check_flow(&result, &config.optical);
        if got.power_bits != result.total_power_mw().to_bits()
            || got.wdms != result.wdm.final_count() as i64
        {
            failures.push(format!(
                "session power {} mW / {} waveguides != cold run {} mW / {}",
                f64::from_bits(got.power_bits),
                got.wdms,
                result.total_power_mw(),
                result.wdm.final_count()
            ));
        }
        if first {
            add(
                &mut self.facts,
                "wdm.placed",
                result.wdm.initial_count as f64,
            );
            if let Some(g) = state.moved_group {
                let count: usize = result
                    .hyper_nets
                    .iter()
                    .zip(&result.candidates)
                    .filter(|(net, _)| net.group().index() == g)
                    .map(|(_, nc)| nc.candidates.len())
                    .sum();
                add(&mut self.facts, "codesign.candidates", count as f64);
            }
        }
        if first && (ctx.tracer.is_on() || last) {
            let mut layers = Layers::new();
            let t = Instant::now();
            match compose(
                &state.design,
                &config,
                &ctx.exec,
                &mut ctx.tracer,
                &id,
                &mut layers,
            ) {
                Ok(plan) => {
                    self.composed.push((t.elapsed().as_secs_f64(), layers));
                    failures.extend(check_plan(
                        &plan.candidates,
                        Some(&plan.crossings),
                        &plan.selection,
                        &plan.wdm,
                        &plan.config.optical,
                    ));
                    let (a, b) = (
                        fingerprint(&plan.selection, &plan.wdm),
                        fingerprint(&result.selection, &result.wdm),
                    );
                    if a != b {
                        failures.push(format!("composed fingerprint {a:016x} != flow {b:016x}"));
                    }
                    if last {
                        out.fingerprints
                            .push(("I1".to_owned(), format!("{b:016x}")));
                        let strategy = plan.crossings.build_info().strategy.counter_name();
                        out.strategies.push(("I1".to_owned(), strategy.to_owned()));
                    }
                }
                Err(e) => failures.push(format!("compose: {e}")),
            }
        }
        if last {
            out.metric("total_power_mw", result.total_power_mw());
            out.metric("waveguides", result.wdm.final_count() as f64);
        }
        out.check(&id, failures);
    }
}

fn request(fields: Vec<(&str, Value)>) -> String {
    let mut all = vec![("session", Value::from(SESSION))];
    all.extend(fields);
    Value::object(all).compact()
}

/// Picks two distinct groups and a nudge of 100–300 dbu per axis for
/// each that keeps every pin on the die.
fn pick_moves(design: &Design, seed: u64) -> Vec<(usize, i64, i64)> {
    let mut state = seed ^ 0x0e_c0_5e_55;
    let groups = design.group_count() as u64;
    let mut moves: Vec<(usize, i64, i64)> = Vec::new();
    while moves.len() < 2 {
        let g = (next_u64(&mut state) % groups) as usize;
        if moves.iter().any(|&(h, _, _)| h == g) {
            continue;
        }
        let dx = 100 + (next_u64(&mut state) % 201) as i64;
        let dy = 100 + (next_u64(&mut state) % 201) as i64;
        let signed = [(dx, dy), (-dx, dy), (dx, -dy), (-dx, -dy)];
        if let Some(&(dx, dy)) = signed.iter().find(|&&(x, y)| fits(design, g, x, y)) {
            moves.push((g, dx, dy));
        }
    }
    moves
}

/// The 12-request trace: each group away, then each back, every ECO
/// followed by a probe and a retune that flips the knob.
fn build_trace(moves: &[(usize, i64, i64)]) -> Vec<Step> {
    let legs = moves
        .iter()
        .copied()
        .chain(moves.iter().map(|&(g, dx, dy)| (g, -dx, -dy)));
    let mut trace = Vec::new();
    for (k, (group, dx, dy)) in legs.enumerate() {
        trace.push(Step::Eco { group, dx, dy });
        trace.push(Step::Probe);
        trace.push(Step::Retune(DISPLACEMENTS[(k + 1) % 2]));
    }
    trace
}

fn config_at(displacement: i64) -> OperonConfig {
    let mut config = OperonConfig::default();
    config.optical.wdm_max_displacement = displacement;
    config
}

/// Parses a reply; `Err` carries the failure message.
fn reply(text: &str) -> Result<Value, String> {
    let value = json::parse(text).map_err(|e| format!("unparsable reply {text:?}: {e}"))?;
    if value.get("ok").and_then(Value::as_bool) != Some(true) {
        return Err(format!("request failed: {text}"));
    }
    Ok(value)
}

fn digest(value: &Value) -> Result<Digest, String> {
    let field = |k: &str| value.get(k).ok_or_else(|| format!("reply lacks {k}"));
    Ok(Digest {
        power_bits: field("power_mw")?
            .as_f64()
            .ok_or("power_mw is not a number")?
            .to_bits(),
        wdms: field("wdms")?.as_i64().ok_or("wdms is not an integer")?,
        stages_reused: field("stages_reused")?
            .as_i64()
            .ok_or("stages_reused is not an integer")?,
    })
}

/// Opens the session and routes it cold: one set-up. Returns the server,
/// the client's parsed copy of the design, and the parse time in ms.
fn set_up(ctx: &Ctx) -> Result<(Server, Design, f64), String> {
    let text = inputs::design_text("I1", ctx.seed)?;
    let t = Instant::now();
    let design = inputs::parse("I1", &text)?;
    let parse_ms = ms(t.elapsed());
    let mut server = Server::new(ctx.exec.clone(), 1);
    reply(&server.handle_line(&request(vec![
        ("op", Value::from("open_design")),
        ("design", Value::from(text)),
    ])))?;
    reply(&server.handle_line(&request(vec![("op", Value::from("route"))])))?;
    Ok((server, design, parse_ms))
}

fn session_report(server: &mut Server) -> Result<Value, String> {
    reply(&server.handle_line(&request(vec![("op", Value::from("report"))])))
}

pub fn run(ctx: &mut Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut parses = Vec::new();
    let mut live = None;
    for _ in 0..SETUPS_UPFRONT {
        out.attempted += 1;
        let start = Instant::now();
        match set_up(ctx) {
            Ok((server, design, parse_ms)) => {
                setups.push(start.elapsed().as_secs_f64());
                parses.push(parse_ms);
                live = Some((server, design));
            }
            Err(e) => {
                out.fail(format!("set-up: {e}"));
                return out;
            }
        }
    }
    let Some((mut server, home)) = live else {
        return out;
    };
    let trace = build_trace(&pick_moves(&home, ctx.seed));

    // Serve replays for the window; replay 0's replies become the
    // digests every later replay must repeat. After each replay, a few
    // cold oracles verify replay 0's states in turn, so the oracle
    // timings spread over the whole window; every state is verified at
    // least once.
    let states = route_states(&home, &trace);
    let mut check = Checker::default();
    let mut replays: Vec<Replay> = Vec::new();
    let window = Instant::now();
    loop {
        let cycle = Instant::now();
        out.attempted += trace.len() as u64;
        let expected = replays.first().map(|r| r.digests.as_slice());
        match replay(&mut server, &trace, expected, ctx, replays.len()) {
            Ok(r) => replays.push(r),
            Err(e) => {
                out.fail(e);
                return out;
            }
        }
        for _ in 0..ORACLES_PER_REPLAY {
            check.next(&states, &replays[0].digests, ctx, &mut out);
        }
        out.attempted += 1;
        let start = Instant::now();
        match set_up(ctx) {
            Ok((_, design, parse_ms)) if design == home => {
                setups.push(start.elapsed().as_secs_f64());
                parses.push(parse_ms);
            }
            Ok(_) => out.fail("set-up is not deterministic in the seed".to_owned()),
            Err(e) => out.fail(format!("set-up: {e}")),
        }
        let cycle = cycle.elapsed().as_secs_f64();
        if window.elapsed().as_secs_f64() + cycle / 2.0 >= ctx.seconds {
            break;
        }
    }
    while check.visits < states.len() {
        check.next(&states, &replays[0].digests, ctx, &mut out);
    }
    let Checker {
        oracle_walls,
        composed,
        facts,
        ..
    } = check;
    out.metric("setup_s", median(&setups));
    out.samples.push(("setup_s", setups));
    let route_wall = median(&oracle_walls);
    out.metric("route_wall_s", route_wall);
    out.samples.push(("route_wall_s", oracle_walls));

    let eco: Vec<f64> = replays.iter().flat_map(|r| r.eco_ms.clone()).collect();
    let retune: Vec<f64> = replays.iter().flat_map(|r| r.retune_ms.clone()).collect();
    let walls: Vec<f64> = replays.iter().map(|r| r.wall_s).collect();
    out.metric("eco_p50_ms", median(&eco));
    out.metric("retune_p50_ms", median(&retune));
    out.metric("trace_wall_s", median(&walls));
    out.samples.push(("eco_ms", eco));
    out.samples.push(("retune_ms", retune));
    out.samples.push(("trace_wall_s", walls));

    let layers: Vec<Layers> = replays
        .into_iter()
        .map(|mut r| {
            for (&k, &v) in &facts {
                add(&mut r.layers, k, v);
            }
            r.layers
        })
        .collect();
    out.layers = crate::median_layers(&layers);
    out.layers.insert("netlist.parse_ms", median(&parses));
    for key in ["eco_p50_ms", "retune_p50_ms", "trace_wall_s"] {
        out.layers.insert(key, out.metrics[key]);
    }
    if ctx.tracer.is_on() {
        let walls: Vec<f64> = composed.iter().map(|(w, _)| *w).collect();
        out.layers
            .insert("trace.overhead_s", median(&walls) - route_wall);
        let uncovered: Vec<f64> = composed
            .iter()
            .map(|(w, l)| 1.0 - stages::stage_ms(l) / (w * 1e3))
            .collect();
        out.layers
            .insert("trace.uncovered_frac", median(&uncovered));
    }
    out
}

fn send_eco(server: &mut Server, group: usize, dx: i64, dy: i64) -> Result<Value, String> {
    reply(&server.handle_line(&request(vec![
        ("op", Value::from("eco_move_pins")),
        ("group", Value::from(group)),
        ("dx", Value::from(dx)),
        ("dy", Value::from(dy)),
    ])))
}

fn send_probe(server: &mut Server) -> Result<Value, String> {
    reply(&server.handle_line(&request(vec![("op", Value::from("probe_wdm"))])))
}

/// `set_config` then `route`; returns both latencies (ms) and the route
/// reply.
fn send_retune(server: &mut Server, displacement: i64) -> Result<(f64, f64, Value), String> {
    let t = Instant::now();
    reply(&server.handle_line(&request(vec![
        ("op", Value::from("set_config")),
        ("wdm_displacement", Value::from(displacement)),
    ])))?;
    let set_ms = ms(t.elapsed());
    let t = Instant::now();
    let value = reply(&server.handle_line(&request(vec![("op", Value::from("route"))])))?;
    Ok((set_ms, ms(t.elapsed()), value))
}

/// Serves the trace once, timing each request and, when `expected` is
/// given, checking each route-producing reply against it. With tracing
/// on, also attributes the executor's stage records to layers and reads
/// the session counters around the replay.
fn replay(
    server: &mut Server,
    trace: &[Step],
    expected: Option<&[Option<Digest>]>,
    ctx: &mut Ctx,
    index: usize,
) -> Result<Replay, String> {
    let traced = ctx.tracer.is_on();
    let mut layers = Layers::new();
    let before = if traced {
        Some(session_report(server)?)
    } else {
        None
    };
    let mut eco_ms = Vec::new();
    let mut retune_ms = Vec::new();
    let mut digests = Vec::with_capacity(trace.len());
    let mut eco_stage_ms: [Vec<f64>; 3] = Default::default();
    let mut wall_s = 0.0;
    for (i, step) in trace.iter().enumerate() {
        let id = format!("replay{index}.{i}");
        let stages_before = if traced {
            ctx.exec.report().stages.len()
        } else {
            0
        };
        let is_eco = matches!(step, Step::Eco { .. });
        let rss_before = if traced && is_eco && stages::reset_peak_rss() {
            peak_rss_kib()
        } else {
            0
        };
        let name = match step {
            Step::Eco { .. } => "eco_move_pins",
            Step::Probe => "probe_wdm",
            Step::Retune(_) => "retune",
        };
        let span = ctx.tracer.begin(name, &id);
        let sent = match *step {
            Step::Eco { group, dx, dy } => send_eco(server, group, dx, dy),
            Step::Probe => send_probe(server),
            Step::Retune(d) => send_retune(server, d).map(|(set_ms, route_ms, value)| {
                add(&mut layers, "serve.set_config_ms", set_ms);
                add(&mut layers, "serve.route_ms", route_ms);
                value
            }),
        };
        let d = ms(ctx.tracer.end(span));
        wall_s += d / 1e3;
        let value = sent.map_err(|e| format!("{id}: {e}"))?;
        let got = match step {
            Step::Eco { .. } => {
                eco_ms.push(d);
                add(&mut layers, "serve.eco_move_pins_ms", d);
                Some(digest(&value))
            }
            Step::Probe => {
                add(&mut layers, "serve.probe_wdm_ms", d);
                None
            }
            Step::Retune(_) => {
                retune_ms.push(d);
                Some(digest(&value))
            }
        }
        .transpose()
        .map_err(|e| format!("{id}: {e}"))?;
        if let (Some(want), Some(got)) = (expected.and_then(|e| e[i]), got) {
            if got != want {
                return Err(format!(
                    "{id}: reply drifted from replay 0 ({} mW / {} waveguides, expected {} mW / {})",
                    f64::from_bits(got.power_bits),
                    got.wdms,
                    f64::from_bits(want.power_bits),
                    want.wdms
                ));
            }
        }
        if let Some(got) = got {
            add(&mut layers, "wdm.final", got.wdms as f64);
        }
        digests.push(got);
        if traced {
            let report = ctx.exec.report();
            let records = &report.stages[stages_before..];
            for rec in records {
                add_session_record(&mut layers, rec);
            }
            if is_eco {
                for (slot, stage) in ["crossing", "selection", "wdm"].iter().enumerate() {
                    let wall: f64 = records
                        .iter()
                        .filter(|r| r.name == *stage)
                        .map(|r| ms(r.wall))
                        .sum();
                    eco_stage_ms[slot].push(wall);
                }
                let crossing = records.iter().find(|r| r.name == "crossing");
                if let (Some(rec), true) = (crossing, rss_before > 0) {
                    let delta = rec.peak_rss_kib.saturating_sub(rss_before) as f64 / 1024.0;
                    add(&mut layers, "crossing.rss_delta_mib", delta);
                }
            }
        }
    }
    if let Some(before) = before {
        let after = session_report(server)?;
        for (key, field) in [
            ("session.crossing_delta_rebuilds", "crossing_delta_rebuilds"),
            ("session.crossing_full_builds", "crossing_full_builds"),
            ("session.nets_reused", "nets_reused"),
            ("session.nets_recoded", "nets_recoded"),
            ("session.stages_reused", "stages_reused"),
            ("session.stages_rerun", "stages_rerun"),
        ] {
            let count = |v: &Value| v.get(field).and_then(Value::as_i64).unwrap_or(0);
            layers.insert(key, (count(&after) - count(&before)) as f64);
        }
        for (slot, key) in [
            "session.eco.crossing_ms",
            "session.eco.selection_ms",
            "session.eco.wdm_ms",
        ]
        .into_iter()
        .enumerate()
        {
            layers.insert(key, median(&eco_stage_ms[slot]));
        }
        stages::finish_ratios(&mut layers, ctx.exec.threads());
    }
    Ok(Replay {
        wall_s,
        eco_ms,
        retune_ms,
        digests,
        layers,
    })
}

/// Attributes one stage record written inside the server to its layer.
fn add_session_record(layers: &mut Layers, rec: &StageRecord) {
    add_stage_record(layers, rec);
    let counter = |name: &str| {
        rec.counters
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0.0, |&(_, v)| v as f64)
    };
    match rec.name.as_str() {
        "clustering" => add(layers, "cluster.ms", ms(rec.wall)),
        "codesign" => {
            add(layers, "codesign.ms", ms(rec.wall));
            add(layers, "cluster.hyper_nets", counter("nets_recoded"));
        }
        "crossing" => {
            add(layers, "crossing.ms", ms(rec.wall));
            add(layers, "crossing.pairs", counter("crossing_pairs"));
            add(
                layers,
                "crossing.parallel",
                counter("crossing_build_parallel"),
            );
        }
        "selection" => {
            add(layers, "selection.ms", ms(rec.wall));
            stages::add_lr(
                layers,
                &operon::lr::LrStats {
                    iterations: counter("lr_iterations") as u64,
                    priced_nets: counter("lr_priced_nets") as u64,
                    reused_prices: counter("lr_reused_prices") as u64,
                    load_evals: counter("lr_load_evals") as u64,
                    reused_loads: counter("lr_reused_loads") as u64,
                },
            );
        }
        "wdm" => {
            add(layers, "wdm.ms", ms(rec.wall));
            add(layers, "wdm.warm_trials", counter("wdm_warm_trials"));
            add(
                layers,
                "mcmf.dijkstra_passes",
                counter("wdm_dijkstra_passes"),
            );
            add(layers, "mcmf.repair_rounds", counter("wdm_repair_rounds"));
            add(layers, "mcmf.warm_fallbacks", counter("wdm_warm_fallbacks"));
            add(layers, "mcmf.undo_entries", counter("wdm_undo_entries"));
        }
        _ => {}
    }
}
