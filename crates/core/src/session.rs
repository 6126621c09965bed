//! Cross-request warm routing sessions.
//!
//! A [`WarmSession`] is the unit of residency behind the `operon_serve`
//! daemon: it owns one design plus every expensive artifact the flow
//! derives from it — hyper nets, per-net candidate pools, the
//! [`CrossingIndex`], the latest selection, and the WDM plan together
//! with its committed flow networks ([`ResidentAssignment`]) — and
//! reuses them across requests instead of rebuilding per invocation.
//!
//! The contract mirrors [`OperonFlow::run_eco`]: after any sequence of
//! ECOs, the session's resident result is **identical** to a fresh
//! [`OperonFlow::run`] on the current design — warmth is purely a
//! speed-up, never a different answer. That is what makes the serving
//! layer's replay determinism possible: responses derived from session
//! state are pure functions of the request history, independent of
//! thread count and batch composition.
//!
//! What stays warm across a request:
//!
//! * unchanged groups keep their clustering and co-design candidates;
//! * when every reused hyper net keeps its dense index, the crossing
//!   index is patched via [`CrossingIndex::rebuild_delta`] instead of
//!   rebuilt;
//! * selection re-runs globally (a local change can shift the crossing
//!   coupling anywhere), on the session's resident LR workspace;
//! * WDM planning re-runs via [`wdm::plan_resident_with`], and the
//!   committed networks stay resident so deletion what-ifs
//!   ([`WarmSession::probe_wdm`]) are transactional
//!   checkout/reroute/rollback probes — `networks_cloned` stays 0 for
//!   the whole session lifecycle.

use crate::codesign::{generate_candidates, NetCandidates};
use crate::config::{DirtyStage, OperonConfig};
use crate::flow::{
    record_crossing_stats, record_ilp_stats, record_lr_stats, record_wdm_stats, select_in,
};
use crate::formulation::SelectionResult;
use crate::lr::{LrStats, LrWorkspace};
use crate::wdm::{self, ResidentAssignment, WdmPlan, WdmProbe, WdmStats};
use crate::{CrossingIndex, OperonError};
use operon_cluster::{build_hyper_nets, HyperNet, HyperNetId};
use operon_exec::Executor;
use operon_geom::Point;
use operon_netlist::{Bit, BitId, Design, GroupId, SignalGroup};
use std::collections::BTreeMap;

/// Deterministic work counters accumulated over a session's lifetime.
///
/// Every field is a pure function of the request history (thread-count
/// invariant), so sessions can surface these in protocol responses
/// without breaking the byte-identical replay contract.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Route-producing requests handled (`route` + ECOs).
    pub routes: u64,
    /// Routes that ran the full cold pipeline.
    pub cold_routes: u64,
    /// Routes that reused warm per-group state incrementally.
    pub warm_routes: u64,
    /// `route` requests answered from the resident result outright.
    pub cached_routes: u64,
    /// Warm routes that re-ran only the dirty pipeline suffix after a
    /// configuration change (a subset of `warm_routes`).
    pub partial_routes: u64,
    /// Whole pipeline stages (of the five: clustering, codesign,
    /// crossing, selection, WDM) answered from resident artifacts,
    /// summed over every route. Cached routes count all five; a
    /// config-partial route counts its clean prefix; ECO routes count
    /// zero (their reuse is finer-grained — see the group and net
    /// counters).
    pub stages_reused: u64,
    /// Whole pipeline stages re-run, summed over every route.
    pub stages_rerun: u64,
    /// Groups whose clustering + candidates were reused across ECOs.
    pub groups_reused: u64,
    /// Groups re-clustered because they changed.
    pub groups_reclustered: u64,
    /// Hyper nets whose candidate pools were reused.
    pub nets_reused: u64,
    /// Hyper nets whose candidates were regenerated.
    pub nets_recoded: u64,
    /// Crossing indexes patched via `rebuild_delta`.
    pub crossing_delta_rebuilds: u64,
    /// Crossing indexes built from scratch.
    pub crossing_full_builds: u64,
    /// WDM deletion what-if probes run.
    pub probes: u64,
    /// Configuration replacements.
    pub config_changes: u64,
    /// Accumulated LR pricing counters across all selections.
    pub lr: LrStats,
    /// Accumulated WDM/MCMF counters across all plans and probes.
    pub wdm: WdmStats,
}

/// A compact, deterministic digest of one routed state — everything a
/// protocol response reports about a route without touching wall-clock.
#[derive(Clone, Debug, PartialEq)]
pub struct RouteSummary {
    /// Whether warm state (cached or incremental) served the request.
    pub warm: bool,
    /// Hyper nets routed.
    pub hyper_nets: usize,
    /// Hyper nets routed at least partly optically.
    pub optical: usize,
    /// Hyper nets routed fully electrically.
    pub electrical: usize,
    /// Total power of the selection, mW.
    pub power_mw: f64,
    /// Whether the selector proved optimality (ILP only).
    pub proven_optimal: bool,
    /// WDM count after sweep placement.
    pub wdm_initial: usize,
    /// WDM count after flow re-assignment + reduction.
    pub wdm_final: usize,
    /// Whole pipeline stages this route answered from resident
    /// artifacts (5 for a cached answer, 0 for a cold run; a
    /// config-partial route reports its clean prefix length).
    pub stages_reused: u32,
    /// Whole pipeline stages this route re-ran.
    pub stages_rerun: u32,
}

/// The resident artifacts of a routed design.
struct WarmState {
    /// Config with the instance-resolved crossing-sharing factor.
    resolved: OperonConfig,
    hyper_nets: Vec<HyperNet>,
    candidates: Vec<NetCandidates>,
    crossings: CrossingIndex,
    selection: SelectionResult,
    wdm: WdmPlan,
    resident: ResidentAssignment,
}

/// One design's long-lived routing session (see the module docs).
///
/// # Examples
///
/// ```
/// use operon::config::OperonConfig;
/// use operon::session::WarmSession;
/// use operon_exec::Executor;
/// use operon_netlist::synth::{generate, SynthConfig};
///
/// let design = generate(&SynthConfig::small(), 7);
/// let mut session =
///     WarmSession::open(design, OperonConfig::default(), Executor::sequential())?;
/// let first = session.route()?;
/// let again = session.route()?; // answered from the resident result
/// assert_eq!(first.power_mw, again.power_mw);
/// assert!(again.warm);
/// # Ok::<(), operon::OperonError>(())
/// ```
pub struct WarmSession {
    config: OperonConfig,
    exec: Executor,
    design: Design,
    state: Option<WarmState>,
    /// First pipeline stage the resident state is stale for, escalated
    /// across `set_config` calls since the last route. Meaningful only
    /// while `state` is `Some`; `Clean` means the resident result
    /// answers the current configuration outright.
    dirty: DirtyStage,
    stats: SessionStats,
    /// Persistent LR multiplier arena, reused by every selection this
    /// session runs (reuse never changes results, only skips allocator
    /// traffic — see [`LrWorkspace`]).
    lr_ws: LrWorkspace,
}

impl WarmSession {
    /// Opens a session over `design`. Validates eagerly; no routing work
    /// happens until the first route-producing request.
    ///
    /// # Errors
    ///
    /// [`OperonError::InvalidConfig`] / [`OperonError::EmptyDesign`].
    pub fn open(design: Design, config: OperonConfig, exec: Executor) -> Result<Self, OperonError> {
        config.validate()?;
        if design.groups().is_empty() {
            return Err(OperonError::EmptyDesign);
        }
        Ok(Self {
            config,
            exec,
            design,
            state: None,
            dirty: DirtyStage::Clean,
            stats: SessionStats::default(),
            lr_ws: LrWorkspace::new(),
        })
    }

    /// The current design.
    pub fn design(&self) -> &Design {
        &self.design
    }

    /// The active configuration.
    pub fn config(&self) -> &OperonConfig {
        &self.config
    }

    /// The accumulated work counters.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Whether a resident routed state exists.
    pub fn is_routed(&self) -> bool {
        self.state.is_some()
    }

    /// The resident selection, when routed.
    pub fn selection(&self) -> Option<&SelectionResult> {
        self.state.as_ref().map(|s| &s.selection)
    }

    /// The resident WDM plan, when routed.
    pub fn wdm_plan(&self) -> Option<&WdmPlan> {
        self.state.as_ref().map(|s| &s.wdm)
    }

    /// The resident hyper nets, when routed.
    pub fn hyper_nets(&self) -> Option<&[HyperNet]> {
        self.state.as_ref().map(|s| s.hyper_nets.as_slice())
    }

    /// The resident per-net candidate pools, when routed.
    pub fn candidates(&self) -> Option<&[NetCandidates]> {
        self.state.as_ref().map(|s| s.candidates.as_slice())
    }

    /// Digest of the resident committed WDM networks (0 when unrouted).
    /// Stable across probes; thread-count invariant.
    pub fn fingerprint(&self) -> u64 {
        self.state.as_ref().map_or(0, |s| s.resident.fingerprint())
    }

    /// Routes the current design: answers from the resident result when
    /// it is current, re-runs only the dirty pipeline suffix after a
    /// configuration change (see [`WarmSession::set_config`]), and runs
    /// the cold pipeline otherwise.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`crate::flow::OperonFlow::run`].
    pub fn route(&mut self) -> Result<RouteSummary, OperonError> {
        self.stats.routes += 1;
        if self.state.is_some() && self.dirty != DirtyStage::Clean {
            let dirty = std::mem::replace(&mut self.dirty, DirtyStage::Clean);
            self.stats.warm_routes += 1;
            self.stats.partial_routes += 1;
            return self.partial_route(dirty);
        }
        if let Some(state) = self.state.as_ref() {
            let summary = Self::summarize(state, true, DirtyStage::Clean);
            self.stats.cached_routes += 1;
            self.accumulate_stage_reuse(DirtyStage::Clean);
            return Ok(summary);
        }
        self.stats.cold_routes += 1;
        self.cold_route()
    }

    /// ECO: translates every pin of one group by `(dx, dy)` and
    /// re-routes incrementally.
    ///
    /// # Errors
    ///
    /// [`OperonError::EcoRejected`] (nothing changed) when the group
    /// index is out of range or a pin would leave the die; otherwise the
    /// failure modes of [`crate::flow::OperonFlow::run`].
    pub fn move_pins(
        &mut self,
        group: usize,
        dx: i64,
        dy: i64,
    ) -> Result<RouteSummary, OperonError> {
        let die = self.design.die();
        let Some(target) = self.design.groups().get(group) else {
            return Err(OperonError::EcoRejected(format!(
                "no group {group} (design has {})",
                self.design.group_count()
            )));
        };
        // Checked, so a shift that overflows is rejected like one that
        // leaves the die.
        let shift = |pin: Point| {
            pin.x
                .checked_add(dx)
                .zip(pin.y.checked_add(dy))
                .map(|(x, y)| Point::new(x, y))
                .filter(|&moved| die.contains(moved))
                .ok_or_else(|| {
                    OperonError::EcoRejected(format!(
                        "moving group {group} by ({dx}, {dy}) pushes pin {pin} outside die {die}"
                    ))
                })
        };
        let mut moved = Vec::with_capacity(target.bits().len());
        for b in target.bits() {
            let source = shift(b.source())?;
            let sinks = b
                .sinks()
                .iter()
                .map(|&s| shift(s))
                .collect::<Result<_, _>>()?;
            moved.push(Bit::new(b.id(), source, sinks));
        }
        let mut next = Design::new(self.design.name(), die);
        for sig in self.design.groups() {
            if sig.id().index() == group {
                let bits = std::mem::take(&mut moved);
                next.push_group(SignalGroup::new(sig.id(), sig.name(), bits));
            } else {
                next.push_group(sig.clone());
            }
        }
        self.apply_design(next)
    }

    /// ECO: appends a new `bits`-wide bus (one sink per bit, bits laid
    /// out at `pitch` spacing along y) and re-routes incrementally.
    /// Appending keeps every existing hyper net's dense index, so this
    /// is the crossing index's `rebuild_delta` fast path.
    ///
    /// # Errors
    ///
    /// [`OperonError::EcoRejected`] (nothing changed) for an empty bus
    /// or out-of-die pins; otherwise the failure modes of
    /// [`crate::flow::OperonFlow::run`].
    pub fn add_bus(
        &mut self,
        name: &str,
        bits: usize,
        source: Point,
        sink: Point,
        pitch: i64,
    ) -> Result<RouteSummary, OperonError> {
        if bits == 0 {
            return Err(OperonError::EcoRejected(format!(
                "bus {name:?} needs at least one bit"
            )));
        }
        let die = self.design.die();
        // Bit `i - 1` lay inside the die, so `pitch * i` cannot overflow;
        // the sum can, and is rejected like a pin outside the die.
        let place = |p: Point, i: usize| {
            let q = Point::new(p.x, p.y.checked_add(pitch * i as i64)?);
            die.contains(q).then_some(q)
        };
        let mut group_bits = Vec::new();
        for i in 0..bits {
            let (Some(src), Some(dst)) = (place(source, i), place(sink, i)) else {
                return Err(OperonError::EcoRejected(format!(
                    "bus {name:?} bit {i} (pitch {pitch}) lies outside die {die}"
                )));
            };
            group_bits.push(Bit::new(BitId::new(i as u32), src, vec![dst]));
        }
        let mut next = self.design.clone();
        next.push_group(SignalGroup::new(
            GroupId::new(self.design.group_count() as u32),
            name,
            group_bits,
        ));
        self.apply_design(next)
    }

    /// Replaces the configuration. The diff against the active
    /// configuration is classified by
    /// [`OperonConfig::first_dirty_stage`] and the still-valid prefix of
    /// the resident state is kept: the next [`route`](WarmSession::route)
    /// re-runs only the dirty suffix (selection knobs keep clustering +
    /// candidates + crossings; WDM pitch knobs additionally keep the
    /// selection; co-design knobs keep clustering only). Clustering-tier
    /// changes drop everything, so the next route runs cold. Several
    /// `set_config` calls between routes escalate to the deepest dirty
    /// stage. The partial re-run is bit-identical to a cold run under
    /// the new configuration — each stage is a pure function of its
    /// config slice and the previous stage's output.
    ///
    /// # Errors
    ///
    /// [`OperonError::InvalidConfig`]; the old configuration and state
    /// stay in place on failure.
    pub fn set_config(&mut self, config: OperonConfig) -> Result<(), OperonError> {
        config.validate()?;
        let stage = self.config.first_dirty_stage(&config);
        self.config = config;
        self.stats.config_changes += 1;
        if self.state.is_some() {
            self.dirty = self.dirty.max(stage);
            if self.dirty >= DirtyStage::Clustering {
                self.state = None;
                self.dirty = DirtyStage::Clean;
            }
        }
        Ok(())
    }

    /// What-if: for every final waveguide, could it be deleted, and at
    /// what re-route cost? Routes first when unrouted. Probes run warm
    /// on the resident committed networks and roll back transactionally
    /// — [`fingerprint`](WarmSession::fingerprint) is unchanged and no
    /// network is cloned.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`route`](WarmSession::route).
    pub fn probe_wdm(&mut self) -> Result<Vec<WdmProbe>, OperonError> {
        if self.state.is_none() {
            self.route()?;
        }
        let Some(state) = self.state.as_mut() else {
            return Err(OperonError::SelectionFailed(
                "session has no routed state to probe".to_owned(),
            ));
        };
        let mut stage = self.exec.stage("probe");
        let (probes, mcmf) = state.resident.probe_deletions();
        stage.record("probes", probes.len() as u64);
        stage.record("probe_undo_entries", mcmf.undo_entries);
        stage.record("probe_rollbacks", mcmf.rollbacks);
        self.stats.probes += probes.len() as u64;
        self.stats.wdm.mcmf.accumulate(&mcmf);
        Ok(probes)
    }

    /// Closes the session, returning its lifetime counters.
    pub fn close(self) -> SessionStats {
        self.stats
    }

    /// Swaps in a new design and re-routes — incrementally when warm
    /// state exists, cold otherwise.
    fn apply_design(&mut self, next: Design) -> Result<RouteSummary, OperonError> {
        self.stats.routes += 1;
        // Candidates generated under a stale co-design config must not
        // be reused by the ECO path; selection-or-later staleness is
        // fine because the incremental route re-runs selection + WDM
        // under the current configuration anyway.
        if self.dirty >= DirtyStage::Codesign {
            self.state = None;
        }
        self.dirty = DirtyStage::Clean;
        if self.state.is_some() {
            self.stats.warm_routes += 1;
            self.incremental_route(next)
        } else {
            self.design = next;
            self.stats.cold_routes += 1;
            self.cold_route()
        }
    }

    /// The full pipeline, identical to [`crate::flow::OperonFlow::run`]
    /// but retaining the WDM stage's resident networks.
    fn cold_route(&mut self) -> Result<RouteSummary, OperonError> {
        let hyper_nets = {
            let mut stage = self.exec.stage("clustering");
            self.label_fingerprint(&mut stage);
            build_hyper_nets(&self.design, &self.config.cluster)
        };
        self.stats.groups_reclustered += self.design.group_count() as u64;
        let resolved = self
            .config
            .resolved_for(hyper_nets.iter().map(|n| n.bit_count()));
        let candidates: Vec<NetCandidates> = {
            let mut stage = self.exec.stage("codesign");
            let out = self
                .exec
                .par_map_indexed(&hyper_nets, |i, net| generate_candidates(net, i, &resolved));
            stage.record("nets_recoded", out.len() as u64);
            out
        };
        self.stats.nets_recoded += candidates.len() as u64;
        let crossings = {
            let mut stage = self.exec.stage("crossing");
            let idx = CrossingIndex::build_with(&candidates, &self.exec);
            record_crossing_stats(&mut stage, &idx);
            idx
        };
        self.stats.crossing_full_builds += 1;
        self.finish_route(
            resolved,
            hyper_nets,
            candidates,
            crossings,
            false,
            DirtyStage::Clustering,
        )
    }

    /// Re-runs only the dirty pipeline suffix after a configuration
    /// change, reusing the resident prefix. The result is identical to
    /// a cold run under the current configuration: the candidate pool
    /// is a pure function of the co-design config slice and the hyper
    /// nets, the crossing index of the candidate pool, the selection of
    /// (candidates, crossings, selection knobs), and the WDM plan of
    /// (candidates, choice, WDM knobs). The instance-resolved
    /// crossing-sharing factor is recomputed from the resident hyper
    /// nets, exactly as a cold run would derive it.
    fn partial_route(&mut self, dirty: DirtyStage) -> Result<RouteSummary, OperonError> {
        let Some(prev) = self.state.take() else {
            return self.cold_route();
        };
        let resolved = self
            .config
            .resolved_for(prev.hyper_nets.iter().map(|n| n.bit_count()));
        match dirty {
            // Unreachable by construction (`route` answers Clean from
            // the resident state; `set_config` drops state at the
            // Clustering tier) — recover by running cold.
            DirtyStage::Clean | DirtyStage::Clustering => self.cold_route(),
            DirtyStage::Wdm => {
                let (wdm, resident) = {
                    let mut stage = self.exec.stage("wdm");
                    self.label_fingerprint(&mut stage);
                    let (plan, resident) = wdm::plan_resident_with(
                        &prev.candidates,
                        &prev.selection.choice,
                        &resolved.optical,
                        &self.exec,
                    )?;
                    record_wdm_stats(&mut stage, &plan);
                    (plan, resident)
                };
                self.stats.wdm.accumulate(&wdm.stats);
                let state = WarmState {
                    resolved,
                    wdm,
                    resident,
                    ..prev
                };
                let summary = Self::summarize(&state, true, dirty);
                self.accumulate_stage_reuse(dirty);
                self.state = Some(state);
                Ok(summary)
            }
            DirtyStage::Selection => self.finish_route(
                resolved,
                prev.hyper_nets,
                prev.candidates,
                prev.crossings,
                true,
                dirty,
            ),
            DirtyStage::Codesign => {
                let hyper_nets = prev.hyper_nets;
                let candidates: Vec<NetCandidates> = {
                    let mut stage = self.exec.stage("codesign");
                    self.label_fingerprint(&mut stage);
                    let out = self.exec.par_map_indexed(&hyper_nets, |i, net| {
                        generate_candidates(net, i, &resolved)
                    });
                    stage.record("nets_recoded", out.len() as u64);
                    out
                };
                self.stats.nets_recoded += candidates.len() as u64;
                let crossings = {
                    let mut stage = self.exec.stage("crossing");
                    let idx = CrossingIndex::build_with(&candidates, &self.exec);
                    record_crossing_stats(&mut stage, &idx);
                    idx
                };
                self.stats.crossing_full_builds += 1;
                self.finish_route(resolved, hyper_nets, candidates, crossings, true, dirty)
            }
        }
    }

    /// The incremental pipeline, identical in result to a fresh run on
    /// `next`: unchanged groups reuse clustering + candidates; the
    /// crossing index is delta-patched when every reused net keeps its
    /// dense index.
    fn incremental_route(&mut self, next: Design) -> Result<RouteSummary, OperonError> {
        let Some(prev) = self.state.take() else {
            self.design = next;
            return self.cold_route();
        };
        let old_design = std::mem::replace(&mut self.design, next);

        // Index the previous hyper nets and candidates by group,
        // remembering each net's old dense index (BTreeMap for the
        // deterministic iteration rule D001). State is moved, not
        // cloned — reuse is pointer-cheap.
        let mut prev_by_group: BTreeMap<GroupId, Vec<(HyperNet, NetCandidates, usize)>> =
            BTreeMap::new();
        for (old_idx, (net, cands)) in prev.hyper_nets.into_iter().zip(prev.candidates).enumerate()
        {
            prev_by_group
                .entry(net.group())
                .or_default()
                .push((net, cands, old_idx));
        }

        let mut flat: Vec<(HyperNet, Option<(NetCandidates, usize)>)> = Vec::new();
        {
            let mut stage = self.exec.stage("clustering");
            self.label_fingerprint(&mut stage);
            let mut reused = 0u64;
            let mut reclustered = 0u64;
            for group in self.design.groups() {
                let unchanged = old_design.group(group.id()).is_some_and(|old| old == group);
                if unchanged {
                    reused += 1;
                    flat.extend(
                        prev_by_group
                            .remove(&group.id())
                            .unwrap_or_default()
                            .into_iter()
                            .map(|(net, cands, old_idx)| (net, Some((cands, old_idx)))),
                    );
                } else {
                    reclustered += 1;
                    flat.extend(
                        operon_cluster::group_clusters(group, &self.config.cluster)
                            .into_iter()
                            .map(|(bits, pins)| {
                                // Placeholder id; reassigned densely below.
                                (
                                    HyperNet::new(HyperNetId::new(0), group.id(), bits, pins),
                                    None,
                                )
                            }),
                    );
                }
            }
            stage.record("groups_reused", reused);
            stage.record("groups_reclustered", reclustered);
            self.stats.groups_reused += reused;
            self.stats.groups_reclustered += reclustered;
        }

        let resolved = self
            .config
            .resolved_for(flat.iter().map(|(n, _)| n.bit_count()));
        let renumbered: Vec<(HyperNet, Option<(NetCandidates, usize)>)> = flat
            .into_iter()
            .enumerate()
            .map(|(i, (net, reuse))| {
                (
                    HyperNet::new(
                        HyperNetId::new(i as u32),
                        net.group(),
                        net.bits().to_vec(),
                        net.pins().to_vec(),
                    ),
                    reuse,
                )
            })
            .collect();

        // The crossing delta patch is valid only when every reused net
        // keeps its dense index (records are keyed by index); `changed`
        // then lists exactly the regenerated rows.
        let mut delta_ok = true;
        let mut changed: Vec<usize> = Vec::new();
        for (i, (_, reuse)) in renumbered.iter().enumerate() {
            match reuse {
                Some((_, old_idx)) if *old_idx == i => {}
                Some(_) => delta_ok = false,
                None => changed.push(i),
            }
        }

        let candidates: Vec<NetCandidates> = {
            let mut stage = self.exec.stage("codesign");
            let out = self
                .exec
                .par_map_indexed(&renumbered, |i, (net, reuse)| match reuse {
                    Some((nc, _)) => {
                        let mut nc = nc.clone();
                        nc.net_index = i;
                        nc
                    }
                    None => generate_candidates(net, i, &resolved),
                });
            let recoded = changed.len() as u64;
            let reused = out.len() as u64 - recoded;
            stage.record("nets_reused", reused);
            stage.record("nets_recoded", recoded);
            self.stats.nets_reused += reused;
            self.stats.nets_recoded += recoded;
            out
        };
        let hyper_nets: Vec<HyperNet> = renumbered.into_iter().map(|(net, _)| net).collect();

        let crossings = {
            let mut stage = self.exec.stage("crossing");
            let idx = if delta_ok {
                stage.record("crossing_delta_rebuild", 1);
                self.stats.crossing_delta_rebuilds += 1;
                prev.crossings.rebuild_delta(&candidates, &changed)
            } else {
                self.stats.crossing_full_builds += 1;
                CrossingIndex::build_with(&candidates, &self.exec)
            };
            record_crossing_stats(&mut stage, &idx);
            idx
        };
        self.finish_route(
            resolved,
            hyper_nets,
            candidates,
            crossings,
            true,
            DirtyStage::Clustering,
        )
    }

    /// Shared tail of the routing paths: selection, WDM planning with
    /// resident networks, stats accumulation, and state installation.
    /// `dirty` is the first re-run pipeline stage, for the reuse
    /// accounting (cold and ECO routes pass `Clustering`: every stage
    /// re-ran at whole-stage granularity).
    fn finish_route(
        &mut self,
        resolved: OperonConfig,
        hyper_nets: Vec<HyperNet>,
        candidates: Vec<NetCandidates>,
        crossings: CrossingIndex,
        warm: bool,
        dirty: DirtyStage,
    ) -> Result<RouteSummary, OperonError> {
        let selection = {
            let mut stage = self.exec.stage("selection");
            if dirty == DirtyStage::Selection {
                self.label_fingerprint(&mut stage);
            }
            let sel = select_in(
                &candidates,
                &crossings,
                &resolved,
                &self.exec,
                &mut self.lr_ws,
            )?;
            record_ilp_stats(&mut stage, &sel);
            record_lr_stats(&mut stage, &sel);
            sel
        };
        if let Some(lr) = selection.lr_stats {
            self.stats.lr.accumulate(&lr);
        }
        let (wdm, resident) = {
            let mut stage = self.exec.stage("wdm");
            let (plan, resident) = wdm::plan_resident_with(
                &candidates,
                &selection.choice,
                &resolved.optical,
                &self.exec,
            )?;
            record_wdm_stats(&mut stage, &plan);
            (plan, resident)
        };
        self.stats.wdm.accumulate(&wdm.stats);
        let state = WarmState {
            resolved,
            hyper_nets,
            candidates,
            crossings,
            selection,
            wdm,
            resident,
        };
        let summary = Self::summarize(&state, warm, dirty);
        self.accumulate_stage_reuse(dirty);
        self.state = Some(state);
        Ok(summary)
    }

    /// Stamps the current configuration's fingerprint on a stage record
    /// so run reports attribute the work to an exact lattice point.
    fn label_fingerprint(&self, stage: &mut operon_exec::StageScope<'_>) {
        stage.label(
            "config_fingerprint",
            format!("{:016x}", self.config.fingerprint()),
        );
    }

    fn accumulate_stage_reuse(&mut self, dirty: DirtyStage) {
        self.stats.stages_reused += u64::from(dirty.stages_reused());
        self.stats.stages_rerun += u64::from(dirty.stages_rerun());
    }

    fn summarize(state: &WarmState, warm: bool, dirty: DirtyStage) -> RouteSummary {
        let optical = state
            .candidates
            .iter()
            .zip(&state.selection.choice)
            .filter(|(nc, &j)| !nc.candidates[j].is_pure_electrical())
            .count();
        let _ = &state.resolved; // resolved config is kept for future delta checks
        RouteSummary {
            warm,
            hyper_nets: state.hyper_nets.len(),
            optical,
            electrical: state.hyper_nets.len() - optical,
            power_mw: state.selection.power_mw,
            proven_optimal: state.selection.proven_optimal,
            wdm_initial: state.wdm.initial_count,
            wdm_final: state.wdm.final_count(),
            stages_reused: dirty.stages_reused(),
            stages_rerun: dirty.stages_rerun(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::OperonFlow;
    use operon_netlist::synth::{generate, SynthConfig};

    #[test]
    fn cached_route_is_idempotent() {
        let design = generate(&SynthConfig::small(), 3);
        let mut s =
            WarmSession::open(design, OperonConfig::default(), Executor::sequential()).unwrap();
        let a = s.route().unwrap();
        let b = s.route().unwrap();
        assert!(!a.warm && b.warm);
        assert_eq!(a.power_mw, b.power_mw);
        assert_eq!(s.stats().cold_routes, 1);
        assert_eq!(s.stats().cached_routes, 1);
    }

    #[test]
    fn rejected_ecos_leave_the_session_intact() {
        let design = generate(&SynthConfig::small(), 3);
        let mut s =
            WarmSession::open(design, OperonConfig::default(), Executor::sequential()).unwrap();
        let routed = s.route().unwrap();
        let fp = s.fingerprint();
        assert!(matches!(
            s.move_pins(999, 1, 1),
            Err(OperonError::EcoRejected(_))
        ));
        assert!(matches!(
            s.move_pins(0, i64::MAX / 2, 0),
            Err(OperonError::EcoRejected(_))
        ));
        assert!(matches!(
            s.add_bus("b", 0, Point::new(0, 0), Point::new(1, 1), 1),
            Err(OperonError::EcoRejected(_))
        ));
        assert!(s.is_routed());
        assert_eq!(s.fingerprint(), fp);
        assert_eq!(s.route().unwrap().power_mw, routed.power_mw);
    }

    #[test]
    fn set_config_revalidates_and_classifies_the_diff() {
        let design = generate(&SynthConfig::small(), 3);
        let mut s =
            WarmSession::open(design, OperonConfig::default(), Executor::sequential()).unwrap();
        s.route().unwrap();
        let mut bad = OperonConfig::default();
        bad.cluster.capacity = 7;
        assert!(s.set_config(bad).is_err());
        assert!(s.is_routed(), "failed set_config must not drop state");

        // A co-design-tier change keeps the clustering resident; the
        // next route is a warm partial re-run, not a cold one.
        let mut tighter = OperonConfig::default();
        tighter.optical.max_loss_db *= 0.8;
        s.set_config(tighter).unwrap();
        assert!(s.is_routed(), "codesign-tier change keeps the prefix");
        let again = s.route().unwrap();
        assert!(again.warm);
        assert_eq!(again.stages_reused, 1);
        assert_eq!(again.stages_rerun, 4);
        assert_eq!(
            s.config().optical.max_loss_db,
            OperonFlow::new(OperonConfig::default())
                .config()
                .optical
                .max_loss_db
                * 0.8
        );

        // A clustering-tier change (the coupled capacity knob) drops
        // everything; the next route runs cold.
        s.set_config(OperonConfig::default().with_wdm_capacity(16))
            .unwrap();
        assert!(!s.is_routed());
        let cold = s.route().unwrap();
        assert!(!cold.warm);
        assert_eq!(cold.stages_reused, 0);
    }

    /// For every dirty tier, a `set_config` + partial re-route must be
    /// bit-identical to a fresh cold session under the same config.
    #[test]
    fn partial_reroute_matches_fresh_cold_run_per_tier() {
        let design = generate(&SynthConfig::small(), 9);
        let base = OperonConfig::default();

        let mut wdm_cfg = base.clone();
        wdm_cfg.optical.wdm_min_pitch += 4;
        let mut sel_cfg = base.clone();
        sel_cfg.lr_max_iters = 4;
        sel_cfg.lr_converge_ratio = 0.05;
        let mut codesign_cfg = base.clone();
        codesign_cfg.optical.max_loss_db *= 0.85;
        codesign_cfg.max_candidates = 5;

        for (cfg, reused) in [(wdm_cfg, 4u32), (sel_cfg, 3), (codesign_cfg, 1)] {
            let mut warm =
                WarmSession::open(design.clone(), base.clone(), Executor::sequential()).unwrap();
            warm.route().unwrap();
            warm.set_config(cfg.clone()).unwrap();
            let partial = warm.route().unwrap();
            assert!(partial.warm);
            assert_eq!(partial.stages_reused, reused, "wrong prefix for {cfg:?}");

            let mut cold =
                WarmSession::open(design.clone(), cfg.clone(), Executor::sequential()).unwrap();
            let fresh = cold.route().unwrap();
            assert_eq!(
                partial.power_mw.to_bits(),
                fresh.power_mw.to_bits(),
                "partial power diverged for {cfg:?}"
            );
            assert_eq!(partial.wdm_final, fresh.wdm_final);
            assert_eq!(partial.optical, fresh.optical);
            assert_eq!(
                warm.selection().unwrap().choice,
                cold.selection().unwrap().choice,
                "partial selection diverged for {cfg:?}"
            );
            assert_eq!(warm.fingerprint(), cold.fingerprint());

            let stats = warm.stats();
            assert_eq!(stats.partial_routes, 1);
            assert_eq!(stats.stages_reused, u64::from(reused));
        }
    }

    #[test]
    fn dirty_stage_escalates_across_config_changes() {
        let design = generate(&SynthConfig::small(), 3);
        let base = OperonConfig::default();
        let mut s = WarmSession::open(design, base.clone(), Executor::sequential()).unwrap();
        s.route().unwrap();

        // Selection-tier change, then a revert to the exact original
        // config: the diff of the second call is Clean, but the state
        // is already stale at the selection tier — it must not be
        // answered as cached.
        let mut sel = base.clone();
        sel.lr_max_iters = 3;
        s.set_config(sel).unwrap();
        s.set_config(base.clone()).unwrap();
        let rerouted = s.route().unwrap();
        assert!(rerouted.warm);
        assert_eq!(
            rerouted.stages_reused, 3,
            "revert must still re-run the escalated suffix"
        );

        // Identical result to never having touched the config.
        let mut fresh = WarmSession::open(
            generate(&SynthConfig::small(), 3),
            base,
            Executor::sequential(),
        )
        .unwrap();
        let cold = fresh.route().unwrap();
        assert_eq!(rerouted.power_mw.to_bits(), cold.power_mw.to_bits());
    }

    #[test]
    fn eco_after_config_change_stays_identical_to_fresh_run() {
        let design = generate(&SynthConfig::small(), 5);
        let base = OperonConfig::default();
        for (mk, _name) in [
            (
                (|| OperonConfig {
                    lr_max_iters: 4,
                    ..OperonConfig::default()
                }) as fn() -> OperonConfig,
                "selection",
            ),
            (
                || {
                    let mut c = OperonConfig::default();
                    c.optical.max_loss_db *= 0.85;
                    c
                },
                "codesign",
            ),
        ] {
            let cfg = mk();
            let mut s =
                WarmSession::open(design.clone(), base.clone(), Executor::sequential()).unwrap();
            s.route().unwrap();
            s.set_config(cfg.clone()).unwrap();
            // ECO while config-dirty: the reused candidates must belong
            // to the *new* config, or be regenerated.
            let eco = s
                .add_bus("late", 3, Point::new(50, 50), Point::new(900, 900), 8)
                .unwrap();

            let mut fresh = WarmSession::open(design.clone(), cfg, Executor::sequential()).unwrap();
            fresh.route().unwrap();
            let fresh_eco = fresh
                .add_bus("late", 3, Point::new(50, 50), Point::new(900, 900), 8)
                .unwrap();
            assert_eq!(eco.power_mw.to_bits(), fresh_eco.power_mw.to_bits());
            assert_eq!(eco.wdm_final, fresh_eco.wdm_final);
            assert_eq!(
                s.selection().unwrap().choice,
                fresh.selection().unwrap().choice
            );
        }
    }

    #[test]
    fn partial_reuse_stats_are_thread_invariant() {
        let design = generate(&SynthConfig::medium(), 5);
        let mut baseline = None;
        for threads in [1, 2, 8] {
            let mut s = WarmSession::open(
                design.clone(),
                OperonConfig::default(),
                Executor::new(threads),
            )
            .unwrap();
            s.route().unwrap();
            let sel = OperonConfig {
                lr_max_iters: 4,
                ..OperonConfig::default()
            };
            s.set_config(sel).unwrap();
            s.route().unwrap();
            let mut loss = OperonConfig {
                lr_max_iters: 4,
                ..OperonConfig::default()
            };
            loss.optical.max_loss_db *= 0.9;
            s.set_config(loss).unwrap();
            s.route().unwrap();
            let stats = s.close();
            assert_eq!(stats.partial_routes, 2);
            assert_eq!(stats.stages_reused, 3 + 1);
            match &baseline {
                None => baseline = Some(stats),
                Some(b) => assert_eq!(*b, stats, "stats diverged at {threads} threads"),
            }
        }
    }
}
