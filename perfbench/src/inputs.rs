//! The benchmark's inputs: paper-suite designs perturbed by the run
//! seed, and the seeded stream the ECO trace is drawn from.
//!
//! Each design is the paper-suite instance `synth::generate(
//! paper_benchmark(name), 2018)` — the instance every other bench in the
//! repository routes — with every signal group translated by its own
//! seed-chosen offset of at most `JITTER` dbu per axis. Different seeds
//! thus give different inputs of the same size and density. Fresh
//! `generate` seeds are not used: they change a design's difficulty too
//! much (the I1 cold route ranges over 0.5–1.2 s across seeds 1–5,
//! mostly in WDM), which no run-to-run bound could absorb.

use operon_geom::Point;
use operon_netlist::io::{read_design, write_design};
use operon_netlist::synth::{generate, paper_benchmark};
use operon_netlist::{Bit, Design, SignalGroup};

/// The harness seed of the repository's other benches; the run seed
/// that leaves the paper-suite instances unperturbed.
pub const HARNESS_SEED: u64 = 2018;
/// Largest per-axis group offset, dbu (four bit pitches).
const JITTER: i64 = 40;

/// splitmix64 step.
pub fn next_u64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Whether translating `group` by `(dx, dy)` keeps every pin on the die.
pub fn fits(design: &Design, group: usize, dx: i64, dy: i64) -> bool {
    let die = design.die();
    design.groups()[group]
        .bits()
        .iter()
        .flat_map(|b| b.pins())
        .all(|p| die.contains(Point::new(p.x + dx, p.y + dy)))
}

/// `design` with each group translated by `offset(group index)`, built
/// the way `WarmSession::move_pins` builds its next design.
pub fn translated(design: &Design, offset: impl Fn(usize) -> (i64, i64)) -> Design {
    let mut next = Design::new(design.name(), design.die());
    for sig in design.groups() {
        let (dx, dy) = offset(sig.id().index());
        if (dx, dy) == (0, 0) {
            next.push_group(sig.clone());
            continue;
        }
        let shift = |p: Point| Point::new(p.x + dx, p.y + dy);
        let bits = sig
            .bits()
            .iter()
            .map(|b| {
                Bit::new(
                    b.id(),
                    shift(b.source()),
                    b.sinks().iter().map(|&s| shift(s)).collect(),
                )
            })
            .collect();
        next.push_group(SignalGroup::new(sig.id(), sig.name(), bits));
    }
    next
}

/// The paper-suite design `name` perturbed by `seed`, serialized with
/// `io::write_design` — the text the program receives.
pub fn design_text(name: &str, seed: u64) -> Result<String, String> {
    let synth = paper_benchmark(name).ok_or_else(|| format!("no paper benchmark {name}"))?;
    let base = generate(&synth, HARNESS_SEED);
    if seed == HARNESS_SEED {
        return Ok(write_design(&base));
    }
    let mut state = seed;
    let offsets: Vec<(i64, i64)> = (0..base.group_count())
        .map(|g| {
            let mut draw = || (next_u64(&mut state) % (2 * JITTER as u64 + 1)) as i64 - JITTER;
            let (dx, dy) = (draw(), draw());
            if fits(&base, g, dx, dy) {
                (dx, dy)
            } else {
                (0, 0)
            }
        })
        .collect();
    Ok(write_design(&translated(&base, |g| offsets[g])))
}

/// Parses design text the way the program does.
pub fn parse(name: &str, text: &str) -> Result<Design, String> {
    read_design(text).map_err(|e| format!("{name}: {e}"))
}
