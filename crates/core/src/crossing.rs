//! Waveguide-crossing accounting between candidate pairs.
//!
//! Crossing loss (`β · n_x` of Eq. (2)) couples hyper nets: how much loss
//! a path suffers depends on which candidates *other* nets select. The
//! [`CrossingIndex`] precomputes, for every pair of optical candidates
//! that geometrically cross, the number of proper segment crossings
//! attributed to each detector path of both candidates. The ILP turns
//! each such pair into a linearized product variable; the LR algorithm
//! reads the same index when pricing candidates against the previous
//! iterate (Eq. (5)).
//!
//! # One builder plus an oracle
//!
//! * **Sweep** — the production discovery: the Bentley–Ottmann sweep
//!   line ([`operon_geom::sweep_crossings`]), output-sensitive
//!   `O((n + k) log n)`, which reports each crossing segment pair exactly
//!   once. Candidate sets with a coordinate beyond
//!   [`SWEEP_COORD_LIMIT`] (the bound of the sweep's exact arithmetic)
//!   fall back to testing every segment pair. [`CrossingIndex::build_with`],
//!   [`CrossingIndex::rebuild_delta`] and the tile-sharded passes
//!   ([`crate::shard`]) all discover through this one function
//!   (`discover_hits`), then funnel the packed hits through the same
//!   global sort + assembly (see `Hit`), so the index is a pure function
//!   of the candidate set, independent of iteration order and thread
//!   count.
//! * **Brute force** ([`CrossingIndex::build_reference`]) — all candidate
//!   pairs behind net- and candidate-level bounding-box prefilters (the
//!   paper's "non-overlapped bounding boxes" variable reduction), with
//!   its own per-pair counting. Retained as the equivalence oracle for
//!   tests and benchmarks.
//!
//! # Arena layout
//!
//! The index stores sorted flat vectors only — no tree maps on any hot
//! path. `keys`/`records` are parallel arrays in sorted [`PairKey`]
//! order; `pair()` is a binary search. Neighbor lists live in one CSR
//! arena (`adj_keys`/`adj_off`/`adj`). Record handles are stable `u32`
//! indexes; [`CrossingIndex::rebuild_delta`] re-derives the arena from
//! retained rows plus a localized re-sweep of the dirty neighborhood, so
//! handles stay valid across ECOs exactly when the rows they name are
//! unchanged.

use crate::codesign::NetCandidates;
use operon_exec::Executor;
use operon_geom::{sweep_crossings, BoundingBox, Segment, SWEEP_COORD_LIMIT};

/// Crossing counts between one ordered pair of candidates.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PairCross {
    /// `(path index in candidate A, crossings on that path)`.
    pub per_path_a: Vec<(usize, usize)>,
    /// `(path index in candidate B, crossings on that path)`.
    pub per_path_b: Vec<(usize, usize)>,
    /// Total segment crossings between the two candidates.
    pub total: usize,
}

/// Key: `(net_a, cand_a, net_b, cand_b)` with `net_a < net_b`.
pub(crate) type PairKey = (usize, usize, usize, usize);

/// One side's `(path index, crossings)` counts of a crossing record.
pub type PathCounts = [(usize, usize)];

/// One entry of a candidate's neighbor list: a candidate of another net
/// that it crosses, plus a direct handle to the shared crossing record so
/// hot pricing loops read per-path counts without any map walk per query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Neighbor {
    /// The crossing net.
    pub net: usize,
    /// The crossing net's candidate index.
    pub cand: usize,
    /// Index into `CrossingIndex::records`.
    record: u32,
    /// Whether the list owner is side A of the record.
    owner_is_a: bool,
}

impl Neighbor {
    /// The `(net, cand)` pair of this neighbor.
    #[inline]
    pub fn key(&self) -> (usize, usize) {
        (self.net, self.cand)
    }
}

/// How an index was actually constructed — recorded for run reports.
/// Not part of the index's semantic value: equality ignores it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ChosenBuild {
    /// All-pairs reference scan.
    BruteForce,
    /// Bentley–Ottmann sweep line (all-pairs segment tests beyond
    /// [`SWEEP_COORD_LIMIT`]).
    #[default]
    Sweep,
    /// Incremental [`CrossingIndex::rebuild_delta`] patch.
    Delta,
    /// Tile-sharded build: per-tile hit discovery merged in tile order
    /// (see [`crate::shard`]).
    Sharded,
}

impl ChosenBuild {
    /// Stable counter suffix for the run report.
    pub fn counter_name(self) -> &'static str {
        match self {
            ChosenBuild::BruteForce => "brute",
            ChosenBuild::Sweep => "sweep",
            ChosenBuild::Delta => "delta",
            ChosenBuild::Sharded => "sharded",
        }
    }
}

/// Provenance of the last build: which builder ran and whether the pair
/// tests used the executor's workers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BuildInfo {
    /// The builder that ran.
    pub strategy: ChosenBuild,
    /// Whether pair tests were spread over the executor's workers: only
    /// the brute-force oracle and sharded builds with more than one pass
    /// do; full sweep builds and delta patches discover inline.
    pub parallel: bool,
}

/// One flattened candidate segment: the unit discovery works on.
struct SegRef {
    net: u32,
    cand: u32,
    seg: u32,
    s: Segment,
}

/// All pairwise crossing counts over a candidate set.
///
/// Flat sorted arenas throughout (see the module docs): parallel
/// `keys`/`records` arrays and one CSR neighbor arena. Iteration order
/// is the sorted key order, so runs are bit-reproducible without any
/// tree map.
#[derive(Clone, Debug, Default)]
pub struct CrossingIndex {
    /// Sorted pair keys; `records[i]` belongs to `keys[i]`.
    keys: Vec<PairKey>,
    /// Crossing records in sorted key order.
    records: Vec<PairCross>,
    /// Sorted distinct `(net, cand)` owners of neighbor lists.
    adj_keys: Vec<(usize, usize)>,
    /// CSR offsets into `adj`; `adj_keys.len() + 1` entries.
    adj_off: Vec<u32>,
    /// Neighbor arena: owner `adj_keys[i]`'s list is
    /// `adj[adj_off[i]..adj_off[i + 1]]`.
    adj: Vec<Neighbor>,
    /// Provenance of the last build (excluded from equality).
    info: BuildInfo,
}

impl PartialEq for CrossingIndex {
    fn eq(&self, other: &Self) -> bool {
        // The CSR arena is a pure function of `keys`, and `info` is
        // provenance, not content: two indexes are equal iff their pair
        // maps are.
        self.keys == other.keys && self.records == other.records
    }
}

impl CrossingIndex {
    /// Builds the index over every candidate pair from different hyper
    /// nets whose optical segments properly cross.
    pub fn build(nets: &[NetCandidates]) -> Self {
        Self::build_with(nets, &Executor::sequential())
    }

    /// [`build`](Self::build) as the flow stages call it: one global
    /// sweep over every candidate segment (see the module docs), then the
    /// shared assembly. The sweep is sequential, so the output is the
    /// same for every executor; the flow's parallelism lives around this
    /// stage and in the tile-sharded build.
    pub fn build_with(nets: &[NetCandidates], _exec: &Executor) -> Self {
        let mut hits = discover_hits(nets, None);
        sort_hits(&mut hits);
        Self::from_hits(
            nets,
            &hits,
            BuildInfo {
                strategy: ChosenBuild::Sweep,
                parallel: false,
            },
        )
    }

    /// Provenance of the build that produced this index.
    #[inline]
    pub fn build_info(&self) -> BuildInfo {
        self.info
    }

    /// The all-pairs build: scans every net pair with a bounding-box
    /// prefilter, then every candidate pair with overlapping optical
    /// boxes. Retained as the equivalence oracle — the sweep build, delta
    /// patches and sharded builds must produce a byte-identical index.
    pub fn build_reference(nets: &[NetCandidates]) -> Self {
        Self::build_reference_with(nets, &Executor::sequential())
    }

    /// [`build_reference`](Self::build_reference) with net `a`'s row (its
    /// pairs against all `b > a`) spread over `exec`'s workers; rows are
    /// merged in net order afterwards, so the index is identical for
    /// every thread count.
    pub fn build_reference_with(nets: &[NetCandidates], exec: &Executor) -> Self {
        // Net-level prefilter: union bbox of all optical candidates.
        let net_bbox = net_bboxes(nets);

        let rows: Vec<Vec<(PairKey, PairCross)>> = exec.par_map_indexed(&net_bbox, |a, bb_a| {
            let mut row = Vec::new();
            let Some(bb_a) = bb_a else { return row };
            for b in a + 1..nets.len() {
                let Some(bb_b) = net_bbox[b] else { continue };
                if !bb_a.overlaps(&bb_b) {
                    continue;
                }
                for (ai, ca) in nets[a].candidates.iter().enumerate() {
                    let Some(cbb_a) = ca.optical_bbox else {
                        continue;
                    };
                    for (bi, cb) in nets[b].candidates.iter().enumerate() {
                        let Some(cbb_b) = cb.optical_bbox else {
                            continue;
                        };
                        if !cbb_a.overlaps(&cbb_b) {
                            continue;
                        }
                        let cross = count_pair(ca, cb);
                        if cross.total > 0 {
                            row.push(((a, ai, b, bi), cross));
                        }
                    }
                }
            }
            row
        });

        Self::from_pair_list(
            rows.into_iter().flatten().collect(),
            BuildInfo {
                strategy: ChosenBuild::BruteForce,
                parallel: true,
            },
        )
    }

    /// Rebuilds the index after the candidates of `changed` nets were
    /// replaced, reusing every record that involves no changed net.
    /// Equivalent to a full [`build`](Self::build) of the new candidate
    /// set, at the cost of the changed rows only.
    ///
    /// Implementation: retained rows are copied across; the dirty
    /// neighborhood — changed nets plus every net whose bounding box
    /// overlaps a changed net's — is re-swept locally, which patches
    /// exactly the event ranges the change invalidated instead of
    /// replaying the whole event queue. Pairs between two unchanged
    /// nets found by the local sweep are discarded (their retained rows
    /// are already exact), so the merge is conflict-free.
    pub fn rebuild_delta(&self, nets: &[NetCandidates], changed: &[usize]) -> Self {
        let mut is_changed = vec![false; nets.len()];
        for &i in changed {
            if i < nets.len() {
                is_changed[i] = true;
            }
        }
        // Retained rows: both nets unchanged. Record contents are cloned
        // into the new arena; their new handles follow the sorted order.
        let mut list: Vec<(PairKey, PairCross)> = Vec::with_capacity(self.keys.len());
        for (key, rec) in self.keys.iter().zip(&self.records) {
            if key.0 < nets.len() && key.2 < nets.len() && !is_changed[key.0] && !is_changed[key.2]
            {
                list.push((*key, rec.clone()));
            }
        }

        // Dirty neighborhood: changed nets and bbox-overlapping others.
        // A pair crossing a changed net must overlap its bbox, so the
        // local sweep sees every pair that needs recounting.
        let net_bbox = net_bboxes(nets);
        let changed_boxes: Vec<BoundingBox> = (0..nets.len())
            .filter(|&i| is_changed[i])
            .filter_map(|i| net_bbox[i])
            .collect();
        let mut involved = vec![false; nets.len()];
        for (i, bb) in net_bbox.iter().enumerate() {
            let Some(bb) = bb else { continue };
            if is_changed[i] || changed_boxes.iter().any(|cb| cb.overlaps(bb)) {
                involved[i] = true;
            }
        }
        let mut hits = discover_hits(nets, Some(&involved));
        hits.retain(|&(key, _)| {
            let (a, b) = hit_nets(key);
            is_changed[a] || is_changed[b]
        });
        sort_hits(&mut hits);

        let mut runs = assemble_runs(nets, &hits);
        list.append(&mut runs);
        Self::from_pair_list(
            list,
            BuildInfo {
                strategy: ChosenBuild::Delta,
                parallel: false,
            },
        )
    }

    /// Assembles the arena from unique, globally sorted packed crossing
    /// hits. `pub(crate)` so the tile-sharded build
    /// ([`crate::shard`]) can funnel its ordered merge through the same
    /// canonical assembly as the monolithic build.
    pub(crate) fn from_hits(nets: &[NetCandidates], hits: &[Hit], info: BuildInfo) -> Self {
        Self::from_pair_list(assemble_runs(nets, hits), info)
    }

    /// Assembles the dense record vector and the CSR neighbor arena from
    /// a `(key, record)` list. The list
    /// need not be sorted; keys must be unique. `pub(crate)` so the
    /// tile-sharded build can drop its per-tile hit lists *before* the
    /// arena is built — the peak-memory edge over the monolithic path,
    /// which must keep its hit buffer alive through this call.
    pub(crate) fn from_pair_list(mut list: Vec<(PairKey, PairCross)>, info: BuildInfo) -> Self {
        // Keys are unique, so an unstable sort is exact; sweep and sharded builds
        // hand the list over already sorted and pay only the scan.
        list.sort_unstable_by_key(|x| x.0);
        let n = list.len();
        let mut keys = Vec::with_capacity(n);
        let mut records = Vec::with_capacity(n);
        // Both directions of every record, keyed by owner and ordered by
        // (owner, record handle). The a-side entries inherit that order
        // from the sorted key list (a record's a-owner is its key
        // prefix), so only the b-side is sorted, then a linear two-way
        // merge assembles the CSR without an intermediate 2n-entry sort.
        let mut b_side: Vec<(u128, Neighbor)> = Vec::with_capacity(n);
        for (idx, (key, pc)) in list.into_iter().enumerate() {
            let (na, ca, nb, cb) = key;
            keys.push(key);
            records.push(pc);
            b_side.push((
                pack_owner(nb, cb),
                Neighbor {
                    net: na,
                    cand: ca,
                    record: idx as u32,
                    owner_is_a: false,
                },
            ));
        }
        b_side.sort_unstable_by_key(|&(owner, nb)| (owner, nb.record));

        let mut adj_keys: Vec<(usize, usize)> = Vec::new();
        let mut adj_off: Vec<u32> = Vec::new();
        let mut adj: Vec<Neighbor> = Vec::with_capacity(2 * n);
        let (mut i, mut j) = (0usize, 0usize);
        while i < n || j < b_side.len() {
            let take_a = if i == n {
                false
            } else if j == b_side.len() {
                true
            } else {
                let (na, ca, _, _) = keys[i];
                (pack_owner(na, ca), i as u32) <= (b_side[j].0, b_side[j].1.record)
            };
            let (owner, nb) = if take_a {
                let (na, ca, onet, ocand) = keys[i];
                let nb = Neighbor {
                    net: onet,
                    cand: ocand,
                    record: i as u32,
                    owner_is_a: true,
                };
                i += 1;
                ((na, ca), nb)
            } else {
                let (packed, nb) = b_side[j];
                j += 1;
                (unpack_owner(packed), nb)
            };
            if adj_keys.last() != Some(&owner) {
                adj_keys.push(owner);
                adj_off.push(adj.len() as u32);
            }
            adj.push(nb);
        }
        adj_off.push(adj.len() as u32);

        Self {
            keys,
            records,
            adj_keys,
            adj_off,
            adj,
            info,
        }
    }

    /// The crossing record of a candidate pair, if they cross. The nets
    /// may be given in either order.
    pub fn pair(
        &self,
        net_a: usize,
        cand_a: usize,
        net_b: usize,
        cand_b: usize,
    ) -> Option<&PairCross> {
        let key = if net_a < net_b {
            (net_a, cand_a, net_b, cand_b)
        } else {
            (net_b, cand_b, net_a, cand_a)
        };
        self.keys.binary_search(&key).ok().map(|i| &self.records[i])
    }

    /// The crossing record behind a neighbor-list entry — no map walk.
    #[inline]
    pub fn record(&self, nb: &Neighbor) -> &PairCross {
        &self.records[nb.record as usize]
    }

    /// Per-path crossing counts of a neighbor-list entry, as
    /// `(owner's side, neighbor's side)` — the cached equivalent of a
    /// `pair()` lookup plus the `net < other` side selection.
    #[inline]
    pub fn per_path(&self, nb: &Neighbor) -> (&PathCounts, &PathCounts) {
        let pc = &self.records[nb.record as usize];
        if nb.owner_is_a {
            (&pc.per_path_a, &pc.per_path_b)
        } else {
            (&pc.per_path_b, &pc.per_path_a)
        }
    }

    /// Crossings landing on path `path` of `(net, cand)` caused by
    /// `(other_net, other_cand)` (0 when the pair does not cross).
    pub fn crossings_on_path(
        &self,
        net: usize,
        cand: usize,
        path: usize,
        other_net: usize,
        other_cand: usize,
    ) -> usize {
        let Some(pc) = self.pair(net, cand, other_net, other_cand) else {
            return 0;
        };
        let per_path = if net < other_net {
            &pc.per_path_a
        } else {
            &pc.per_path_b
        };
        per_path
            .iter()
            .find(|&&(p, _)| p == path)
            .map_or(0, |&(_, n)| n)
    }

    /// Iterates over all crossing pairs as
    /// `((net_a, cand_a, net_b, cand_b), record)` in sorted key order.
    pub fn iter(&self) -> impl Iterator<Item = (PairKey, &PairCross)> {
        self.keys.iter().copied().zip(self.records.iter())
    }

    /// The candidates of other nets that cross `(net, cand)`.
    pub fn neighbors(&self, net: usize, cand: usize) -> &[Neighbor] {
        match self.adj_keys.binary_search(&(net, cand)) {
            Ok(i) => &self.adj[self.adj_off[i] as usize..self.adj_off[i + 1] as usize],
            Err(_) => &[],
        }
    }

    /// Number of crossing candidate pairs.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether no candidate pair crosses.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

/// A discovered crossing in packed form: the candidate-pair
/// key folded into a `u128` whose integer order equals [`PairKey`]
/// order (all handles are `u32`), and the crossing segment indexes
/// folded into a `u64`. Sorting millions of these is a fraction of the
/// cost of the 40-byte tuple they replace.
pub(crate) type Hit = (u128, u64);

#[inline]
fn pack_hit(p: &SegRef, q: &SegRef) -> Hit {
    (
        ((p.net as u128) << 96)
            | ((p.cand as u128) << 64)
            | ((q.net as u128) << 32)
            | q.cand as u128,
        ((p.seg as u64) << 32) | q.seg as u64,
    )
}

#[inline]
fn hit_key(packed: u128) -> PairKey {
    (
        (packed >> 96) as usize,
        (packed >> 64) as u32 as usize,
        (packed >> 32) as u32 as usize,
        packed as u32 as usize,
    )
}

/// The `(net_a, net_b)` pair of a packed hit key (`net_a < net_b`) —
/// the tile-sharded build's retain filters classify hits by net id.
#[inline]
pub(crate) fn hit_nets(packed: u128) -> (usize, usize) {
    ((packed >> 96) as usize, (packed >> 32) as u32 as usize)
}

/// `(net, cand)` packed so that integer order equals tuple order.
#[inline]
fn pack_owner(net: usize, cand: usize) -> u128 {
    ((net as u128) << 64) | cand as u128
}

#[inline]
fn unpack_owner(packed: u128) -> (usize, usize) {
    ((packed >> 64) as usize, packed as u64 as usize)
}

/// Flattens every non-degenerate optical segment in (net, cand, seg)
/// order, over the nets flagged in `involved` (every net when `None`);
/// degenerate segments can never properly cross anything.
fn collect_segments(nets: &[NetCandidates], involved: Option<&[bool]>) -> Vec<SegRef> {
    let mut segs: Vec<SegRef> = Vec::new();
    for (i, nc) in nets.iter().enumerate() {
        if involved.is_some_and(|inv| !inv[i]) {
            continue;
        }
        for (j, c) in nc.candidates.iter().enumerate() {
            for (k, s) in c.optical_segments.iter().enumerate() {
                if s.is_degenerate() {
                    continue;
                }
                segs.push(SegRef {
                    net: i as u32,
                    cand: j as u32,
                    seg: k as u32,
                    s: *s,
                });
            }
        }
    }
    segs
}

fn in_sweep_range(p: operon_geom::Point) -> bool {
    p.x.abs() < SWEEP_COORD_LIMIT && p.y.abs() < SWEEP_COORD_LIMIT
}

/// The one production crossing discovery: packed hits between distinct
/// nets among those flagged in `involved` (every net when `None`). Runs
/// the Bentley–Ottmann sweep, or tests every segment pair once when a
/// coordinate lies beyond the sweep's exactness bound. Either way each
/// crossing segment pair is reported exactly once, so the output is
/// unique but unsorted; callers filter, then [`sort_hits`].
pub(crate) fn discover_hits(nets: &[NetCandidates], involved: Option<&[bool]>) -> Vec<Hit> {
    let segs = collect_segments(nets, involved);
    if segs
        .iter()
        .all(|sr| in_sweep_range(sr.s.a) && in_sweep_range(sr.s.b))
    {
        sweep_hits(&segs)
    } else {
        brute_hits(&segs)
    }
}

/// Sorts discovered hits into [`PairKey`] order. Discovery never reports
/// a segment pair twice, so no dedup pass is needed; debug builds check.
pub(crate) fn sort_hits(hits: &mut [Hit]) {
    hits.sort_unstable();
    debug_assert!(
        hits.windows(2).all(|w| w[0] != w[1]),
        "crossing discovery reported a segment pair twice"
    );
}

/// Runs the sweep over the flattened segments and maps segment-id pairs
/// back to packed hits (same-net pairs drop).
fn sweep_hits(segs: &[SegRef]) -> Vec<Hit> {
    let shapes: Vec<Segment> = segs.iter().map(|sr| sr.s).collect();
    let crossing_ids = sweep_crossings(&shapes);
    let mut hits: Vec<Hit> = Vec::with_capacity(crossing_ids.len());
    for (ia, ib) in crossing_ids {
        let a = &segs[ia as usize];
        let b = &segs[ib as usize];
        if a.net == b.net {
            continue;
        }
        let (p, q) = if a.net < b.net { (a, b) } else { (b, a) };
        hits.push(pack_hit(p, q));
    }
    hits
}

/// All-pairs packed hits over the flattened segments (the fallback for
/// coordinates beyond the sweep's exactness bound).
fn brute_hits(segs: &[SegRef]) -> Vec<Hit> {
    let mut hits: Vec<Hit> = Vec::new();
    for (x, a) in segs.iter().enumerate() {
        for b in &segs[x + 1..] {
            if a.net == b.net || !a.s.crosses(&b.s) {
                continue;
            }
            let (p, q) = if a.net < b.net { (a, b) } else { (b, a) };
            hits.push(pack_hit(p, q));
        }
    }
    hits
}

/// Groups sorted hit tuples into per-key runs and assembles one record
/// per run, reproducing `count_pair`'s attribution exactly. Attribution
/// runs over a lazily-built per-candidate inverted path index plus
/// reusable accumulator scratch, so a candidate's path structure is
/// walked once no matter how many pairs it participates in.
fn assemble_runs(nets: &[NetCandidates], hits: &[Hit]) -> Vec<(PairKey, PairCross)> {
    let mut out: Vec<(PairKey, PairCross)> = Vec::with_capacity(hits.len());
    let mut scratch = AssembleScratch::new(nets);
    let mut i = 0;
    while i < hits.len() {
        let packed = hits[i].0;
        let mut j = i + 1;
        while j < hits.len() && hits[j].0 == packed {
            j += 1;
        }
        let key = hit_key(packed);
        out.push((key, scratch.assemble_pair(nets, key, &hits[i..j])));
        i = j;
    }
    out
}

/// Assembles crossing records from several sorted, unique,
/// **key-disjoint** hit runs via a k-way merge — the tile-sharded
/// build's funnel. Equivalent to concatenating the runs, sorting, and
/// calling [`assemble_runs`], but without ever
/// materializing the merged hit buffer: the peak is one record list
/// instead of two hit copies.
///
/// Disjointness (no key occurs in two runs) is what the shard retain
/// rule guarantees; every hit of a key therefore sits contiguously in
/// exactly one run, so each group can be assembled straight from its
/// run slice.
pub(crate) fn assemble_sorted_runs(
    nets: &[NetCandidates],
    runs: &[&[Hit]],
) -> Vec<(PairKey, PairCross)> {
    let total: usize = runs.iter().map(|r| r.len()).sum();
    let mut out: Vec<(PairKey, PairCross)> = Vec::with_capacity(total);
    let mut scratch = AssembleScratch::new(nets);
    let mut pos = vec![0usize; runs.len()];
    loop {
        // The run holding the smallest unconsumed key.
        let mut best: Option<usize> = None;
        for (r, run) in runs.iter().enumerate() {
            if pos[r] < run.len() && best.is_none_or(|b: usize| run[pos[r]].0 < runs[b][pos[b]].0) {
                best = Some(r);
            }
        }
        let Some(r) = best else { break };
        let run = runs[r];
        let i = pos[r];
        let packed = run[i].0;
        let mut j = i + 1;
        while j < run.len() && run[j].0 == packed {
            j += 1;
        }
        let key = hit_key(packed);
        out.push((key, scratch.assemble_pair(nets, key, &run[i..j])));
        pos[r] = j;
    }
    debug_assert!(out.windows(2).all(|w| w[0].0 < w[1].0), "runs not disjoint");
    out
}

/// Union bbox of each net's optical candidates (the net-level prefilter;
/// also the tile-sharded build's interior/boundary classifier).
pub(crate) fn net_bboxes(nets: &[NetCandidates]) -> Vec<Option<BoundingBox>> {
    nets.iter()
        .map(|nc| {
            nc.candidates
                .iter()
                .filter_map(|c| c.optical_bbox)
                .reduce(|a, b| a.union(&b))
        })
        .collect()
}

/// Counts proper crossings between two candidates and attributes them to
/// detector paths on both sides.
fn count_pair(
    a: &crate::codesign::CandidateRoute,
    b: &crate::codesign::CandidateRoute,
) -> PairCross {
    // Crossings per segment of each candidate.
    let mut seg_a = vec![0usize; a.optical_segments.len()];
    let mut seg_b = vec![0usize; b.optical_segments.len()];
    let mut total = 0usize;
    for (i, sa) in a.optical_segments.iter().enumerate() {
        for (j, sb) in b.optical_segments.iter().enumerate() {
            if sa.crosses(sb) {
                seg_a[i] += 1;
                seg_b[j] += 1;
                total += 1;
            }
        }
    }
    if total == 0 {
        return PairCross::default();
    }
    PairCross {
        per_path_a: attribute(&a.paths, &seg_a),
        per_path_b: attribute(&b.paths, &seg_b),
        total,
    }
}

/// Per-candidate inverted path index: for each optical segment, the
/// detector paths that traverse it (CSR, with multiplicity). The
/// transpose of `PathLoss::segments`, so hit attribution touches only
/// the segments that actually cross instead of every path × segment.
struct SegPathIndex {
    off: Vec<u32>,
    paths: Vec<u32>,
    n_paths: usize,
}

fn seg_path_index(c: &crate::codesign::CandidateRoute) -> SegPathIndex {
    let nsegs = c.optical_segments.len();
    let mut off = vec![0u32; nsegs + 1];
    for p in &c.paths {
        for &s in &p.segments {
            off[s + 1] += 1;
        }
    }
    for i in 0..nsegs {
        off[i + 1] += off[i];
    }
    let mut cursor = off.clone();
    let mut paths = vec![0u32; off[nsegs] as usize];
    for (pi, p) in c.paths.iter().enumerate() {
        for &s in &p.segments {
            paths[cursor[s] as usize] = pi as u32;
            cursor[s] += 1;
        }
    }
    SegPathIndex {
        off,
        paths,
        n_paths: c.paths.len(),
    }
}

/// Reusable state for [`assemble_runs`]: lazily-built inverted indexes
/// (one slot per candidate, filled the first time the candidate appears
/// in a hit) and the path-count accumulator, zeroed between uses via the
/// touched list.
struct AssembleScratch {
    cand_off: Vec<usize>,
    inv: Vec<Option<SegPathIndex>>,
    acc: Vec<usize>,
    touched: Vec<u32>,
}

impl AssembleScratch {
    fn new(nets: &[NetCandidates]) -> Self {
        let mut cand_off = Vec::with_capacity(nets.len() + 1);
        cand_off.push(0usize);
        for nc in nets {
            let prev = *cand_off.last().unwrap_or(&0);
            cand_off.push(prev + nc.candidates.len());
        }
        let total = *cand_off.last().unwrap_or(&0);
        let mut inv: Vec<Option<SegPathIndex>> = Vec::new();
        inv.resize_with(total, || None);
        Self {
            cand_off,
            inv,
            acc: Vec::new(),
            touched: Vec::new(),
        }
    }

    /// Builds one pair record from the packed hits discovery found for
    /// `key`.
    fn assemble_pair(&mut self, nets: &[NetCandidates], key: PairKey, hits: &[Hit]) -> PairCross {
        let (na, ca, nb, cb) = key;
        PairCross {
            per_path_a: self.per_path_side(nets, na, ca, hits, true),
            per_path_b: self.per_path_side(nets, nb, cb, hits, false),
            total: hits.len(),
        }
    }

    /// Path attribution for one side of a pair: ascending
    /// `(path index, count)` over paths with at least one crossing —
    /// byte-identical to [`attribute`] over per-segment counts.
    fn per_path_side(
        &mut self,
        nets: &[NetCandidates],
        net: usize,
        cand: usize,
        hits: &[Hit],
        side_a: bool,
    ) -> Vec<(usize, usize)> {
        let slot = self.cand_off[net] + cand;
        if self.inv[slot].is_none() {
            self.inv[slot] = Some(seg_path_index(&nets[net].candidates[cand]));
        }
        let Some(idx) = self.inv[slot].as_ref() else {
            return Vec::new();
        };
        if self.acc.len() < idx.n_paths {
            self.acc.resize(idx.n_paths, 0);
        }
        self.touched.clear();
        for &(_, segs) in hits {
            let s = if side_a {
                segs >> 32
            } else {
                segs as u32 as u64
            } as usize;
            for &p in &idx.paths[idx.off[s] as usize..idx.off[s + 1] as usize] {
                if self.acc[p as usize] == 0 {
                    self.touched.push(p);
                }
                self.acc[p as usize] += 1;
            }
        }
        self.touched.sort_unstable();
        let out: Vec<(usize, usize)> = self
            .touched
            .iter()
            .map(|&p| (p as usize, self.acc[p as usize]))
            .collect();
        for &p in &self.touched {
            self.acc[p as usize] = 0;
        }
        out
    }
}

/// Sums per-segment crossing counts along each detector path, keeping
/// `(path index, count)` for paths that suffer at least one crossing.
fn attribute(paths: &[crate::codesign::PathLoss], seg: &[usize]) -> Vec<(usize, usize)> {
    paths
        .iter()
        .enumerate()
        .filter_map(|(pi, p)| {
            let n: usize = p.segments.iter().map(|&s| seg[s]).sum();
            (n > 0).then_some((pi, n))
        })
        .collect::<Vec<_>>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codesign::{analyze_assignment, EdgeMedium, NetCandidates};
    use operon_geom::Point;
    use operon_optics::{ElectricalParams, OpticalLib};
    use operon_steiner::{NodeKind, RouteTree};
    use proptest::prelude::*;

    /// A single optical edge from `a` to `b` as a one-candidate net.
    fn optical_net(net_index: usize, a: Point, b: Point) -> NetCandidates {
        let mut tree = RouteTree::new(a);
        tree.add_child(tree.root(), b, NodeKind::Terminal);
        let cand = analyze_assignment(
            &tree,
            &[EdgeMedium::Optical],
            1,
            &OpticalLib::paper_defaults(),
            &ElectricalParams::paper_defaults(),
        );
        NetCandidates {
            net_index,
            bits: 1,
            candidates: vec![cand],
            electrical_idx: 0, // not actually electrical; fine for tests
            fanout_power_mw: 0.0,
        }
    }

    /// A net whose candidates are optical chains through each point list.
    fn chain_net(net_index: usize, chains: &[Vec<Point>]) -> NetCandidates {
        let candidates = chains
            .iter()
            .map(|pts| {
                let mut tree = RouteTree::new(pts[0]);
                let mut prev = tree.root();
                for (i, &p) in pts.iter().enumerate().skip(1) {
                    let kind = if i + 1 == pts.len() {
                        NodeKind::Terminal
                    } else {
                        NodeKind::Steiner
                    };
                    prev = tree.add_child(prev, p, kind);
                }
                analyze_assignment(
                    &tree,
                    &vec![EdgeMedium::Optical; pts.len() - 1],
                    1,
                    &OpticalLib::paper_defaults(),
                    &ElectricalParams::paper_defaults(),
                )
            })
            .collect();
        NetCandidates {
            net_index,
            bits: 1,
            candidates,
            electrical_idx: 0,
            fanout_power_mw: 0.0,
        }
    }

    /// Full structural equality: semantic value (keys + records) plus the
    /// derived CSR arena, so a builder that corrupted neighbor lists
    /// cannot hide behind the `PartialEq` impl.
    fn assert_index_eq(a: &CrossingIndex, b: &CrossingIndex, label: &str) {
        assert_eq!(a.len(), b.len(), "{label}: pair count");
        assert_eq!(a.keys, b.keys, "{label}: keys");
        assert_eq!(a.records, b.records, "{label}: records");
        assert_eq!(a.adj_keys, b.adj_keys, "{label}: neighbor owners");
        assert_eq!(a.adj_off, b.adj_off, "{label}: neighbor offsets");
        assert_eq!(a.adj, b.adj, "{label}: neighbor arena");
    }

    #[test]
    fn crossing_pair_detected_and_attributed() {
        let nets = vec![
            optical_net(0, Point::new(0, 0), Point::new(100, 100)),
            optical_net(1, Point::new(0, 100), Point::new(100, 0)),
        ];
        let idx = CrossingIndex::build(&nets);
        assert_eq!(idx.len(), 1);
        let pc = idx.pair(0, 0, 1, 0).expect("pair crosses");
        assert_eq!(pc.total, 1);
        assert_eq!(pc.per_path_a, vec![(0, 1)]);
        assert_eq!(pc.per_path_b, vec![(0, 1)]);
        // Query in both net orders.
        assert_eq!(idx.crossings_on_path(0, 0, 0, 1, 0), 1);
        assert_eq!(idx.crossings_on_path(1, 0, 0, 0, 0), 1);
    }

    #[test]
    fn parallel_segments_do_not_cross() {
        let nets = vec![
            optical_net(0, Point::new(0, 0), Point::new(100, 0)),
            optical_net(1, Point::new(0, 10), Point::new(100, 10)),
        ];
        let idx = CrossingIndex::build(&nets);
        assert!(idx.is_empty());
        assert_eq!(idx.crossings_on_path(0, 0, 0, 1, 0), 0);
    }

    #[test]
    fn disjoint_bboxes_prefiltered() {
        let nets = vec![
            optical_net(0, Point::new(0, 0), Point::new(10, 10)),
            optical_net(1, Point::new(1000, 1000), Point::new(1010, 1010)),
        ];
        let idx = CrossingIndex::build(&nets);
        assert!(idx.is_empty());
    }

    #[test]
    fn shared_endpoint_is_not_a_proper_crossing() {
        let nets = vec![
            optical_net(0, Point::new(0, 0), Point::new(100, 100)),
            optical_net(1, Point::new(100, 100), Point::new(200, 0)),
        ];
        let idx = CrossingIndex::build(&nets);
        assert!(idx.is_empty());
    }

    #[test]
    fn multi_segment_crossings_accumulate() {
        // Net 1's single long segment crosses both arms of net 0's vee.
        let mut tree = RouteTree::new(Point::new(0, 0));
        let s = tree.add_child(tree.root(), Point::new(50, 100), NodeKind::Steiner);
        tree.add_child(s, Point::new(0, 200), NodeKind::Terminal);
        tree.add_child(s, Point::new(100, 200), NodeKind::Terminal);
        let vee = analyze_assignment(
            &tree,
            &[EdgeMedium::Optical; 3],
            1,
            &OpticalLib::paper_defaults(),
            &ElectricalParams::paper_defaults(),
        );
        let nets = vec![
            NetCandidates {
                net_index: 0,
                bits: 1,
                candidates: vec![vee],
                electrical_idx: 0,
                fanout_power_mw: 0.0,
            },
            optical_net(1, Point::new(-50, 150), Point::new(150, 150)),
        ];
        let idx = CrossingIndex::build(&nets);
        let pc = idx.pair(0, 0, 1, 0).expect("crossing");
        assert_eq!(pc.total, 2);
        // Both of net 0's sink paths suffer one crossing (on their own
        // arm); net 1's single path suffers both.
        assert_eq!(pc.per_path_a.len(), 2);
        assert!(pc.per_path_a.iter().all(|&(_, n)| n == 1));
        assert_eq!(pc.per_path_b, vec![(0, 2)]);
    }

    #[test]
    fn same_net_candidates_never_compared() {
        // Two candidates within one net cross each other geometrically,
        // but only one will be selected — no index entry.
        let a = optical_net(0, Point::new(0, 0), Point::new(100, 100));
        let b = optical_net(0, Point::new(0, 100), Point::new(100, 0));
        let merged = NetCandidates {
            net_index: 0,
            bits: 1,
            candidates: vec![a.candidates[0].clone(), b.candidates[0].clone()],
            electrical_idx: 0,
            fanout_power_mw: 0.0,
        };
        let idx = CrossingIndex::build(&[merged]);
        assert!(idx.is_empty());
    }

    #[test]
    fn neighbors_mirror_pairs() {
        let nets = vec![
            optical_net(0, Point::new(0, 0), Point::new(100, 100)),
            optical_net(1, Point::new(0, 100), Point::new(100, 0)),
            optical_net(2, Point::new(50, 0), Point::new(50, 100)),
        ];
        let idx = CrossingIndex::build(&nets);
        // Every pair entry appears in both endpoints' neighbor lists, and
        // every neighbor entry resolves to the same record via the cached
        // handle and the binary-search lookup.
        for ((na, ca, nb, cb), pc) in idx.iter() {
            assert!(idx.neighbors(na, ca).iter().any(|n| n.key() == (nb, cb)));
            assert!(idx.neighbors(nb, cb).iter().any(|n| n.key() == (na, ca)));
            assert_eq!(idx.pair(na, ca, nb, cb), Some(pc));
        }
        for net in 0..nets.len() {
            for nb in idx.neighbors(net, 0) {
                let via_map = idx.pair(net, 0, nb.net, nb.cand).expect("pair exists");
                assert_eq!(idx.record(nb), via_map);
                let (own, other) = idx.per_path(nb);
                if net < nb.net {
                    assert_eq!(own, via_map.per_path_a.as_slice());
                    assert_eq!(other, via_map.per_path_b.as_slice());
                } else {
                    assert_eq!(own, via_map.per_path_b.as_slice());
                    assert_eq!(other, via_map.per_path_a.as_slice());
                }
            }
        }
        // The vertical net crosses both diagonals.
        assert_eq!(idx.neighbors(2, 0).len(), 2);
    }

    #[test]
    fn sweep_build_matches_reference_on_spanning_diagonals() {
        let nets: Vec<NetCandidates> = (0..24)
            .map(|k| {
                let y0 = (k as i64) * 700;
                optical_net(k, Point::new(0, y0), Point::new(20_000, 18_000 - y0))
            })
            .collect();
        let reference = CrossingIndex::build_reference(&nets);
        assert!(!reference.is_empty());
        let sweep = CrossingIndex::build(&nets);
        assert_index_eq(&sweep, &reference, "sweep vs reference");
        assert_eq!(sweep.build_info().strategy, ChosenBuild::Sweep);
        assert!(!sweep.build_info().parallel);
    }

    #[test]
    fn parallel_build_matches_sequential() {
        let nets: Vec<NetCandidates> = (0..24)
            .map(|k| {
                let y0 = (k as i64) * 700;
                optical_net(k, Point::new(0, y0), Point::new(20_000, 18_000 - y0))
            })
            .collect();
        let seq = CrossingIndex::build(&nets);
        for threads in [2, 4, 8] {
            let par = CrossingIndex::build_with(&nets, &Executor::new(threads));
            assert_index_eq(&par, &seq, &format!("threads={threads}"));
        }
    }

    /// Three long trunks over a field of twelve short stubs (segment
    /// lengths spread over two orders of magnitude), translated so every
    /// coordinate sits near `offset`.
    fn dispersed_nets_at(offset: i64) -> Vec<NetCandidates> {
        let mut nets: Vec<NetCandidates> = (0..12)
            .map(|k| {
                let x = offset + 10 + (k as i64) * 40;
                optical_net(k, Point::new(x, offset), Point::new(x + 8, offset + 9))
            })
            .collect();
        for t in 0..3 {
            nets.push(optical_net(
                12 + t,
                Point::new(offset, offset + 2 + t as i64),
                Point::new(offset + 1000, offset + 7 - t as i64),
            ));
        }
        nets
    }

    #[test]
    fn every_build_path_matches_reference_beyond_the_sweep_coord_limit() {
        // Translated past the sweep's exact-arithmetic bound, the full
        // build, a delta patch and the tile-sharded build must all take
        // the all-pairs fallback instead of tripping the sweep's range
        // assert, and still match the brute-force reference exactly.
        let mut nets = dispersed_nets_at(SWEEP_COORD_LIMIT);
        let reference = CrossingIndex::build_reference(&nets);
        assert!(!reference.is_empty());
        for threads in [1, 2, 8] {
            let idx = CrossingIndex::build_with(&nets, &Executor::new(threads));
            assert_index_eq(&idx, &reference, &format!("full, threads={threads}"));
        }

        // Re-route one stub across all three trunks and drop another.
        let o = SWEEP_COORD_LIMIT;
        let before = CrossingIndex::build(&nets);
        nets[4] = optical_net(4, Point::new(o + 500, o - 10), Point::new(o + 520, o + 20));
        nets[9] = optical_net(9, Point::new(o + 5000, o), Point::new(o + 5010, o + 9));
        let reference = CrossingIndex::build_reference(&nets);
        let delta = before.rebuild_delta(&nets, &[4, 9]);
        assert_index_eq(&delta, &reference, "delta");
        assert!(delta.pair(4, 0, 12, 0).is_some());

        let die = BoundingBox::new(Point::new(o, o - 10), Point::new(o + 5010, o + 20));
        for (cols, rows) in [(1, 1), (2, 2), (4, 4)] {
            let grid = crate::shard::TileGrid::new(die, cols, rows);
            for threads in [1, 2, 8] {
                let sharded = crate::shard::build_sharded(&nets, &grid, &Executor::new(threads));
                assert_index_eq(
                    &sharded,
                    &reference,
                    &format!("sharded {cols}x{rows}, threads={threads}"),
                );
            }
        }
    }

    #[test]
    fn sweep_stays_selected_and_exact_just_below_the_coord_limit() {
        // Every coordinate within the bound (if only just): the build
        // stays on the sweep, whose rationals must stay exact at these
        // magnitudes.
        let nets = dispersed_nets_at(SWEEP_COORD_LIMIT - 2_000);
        let idx = CrossingIndex::build(&nets);
        assert_eq!(idx.build_info().strategy, ChosenBuild::Sweep);
        assert_index_eq(
            &idx,
            &CrossingIndex::build_reference(&nets),
            "sweep just below 2^40",
        );
    }

    #[test]
    fn rebuild_delta_equals_full_build() {
        let mut nets: Vec<NetCandidates> = (0..10)
            .map(|k| {
                let y0 = (k as i64) * 90;
                optical_net(k, Point::new(0, y0), Point::new(1000, 900 - y0))
            })
            .collect();
        let before = CrossingIndex::build(&nets);
        // Replace two nets' geometry (one reroute, one that stops
        // crossing anything) and patch the index.
        nets[3] = optical_net(3, Point::new(0, 500), Point::new(1000, 70));
        nets[7] = optical_net(7, Point::new(5000, 5000), Point::new(6000, 6000));
        let delta = before.rebuild_delta(&nets, &[3, 7]);
        let full = CrossingIndex::build(&nets);
        assert_index_eq(&delta, &full, "delta vs full");
        assert_eq!(delta.build_info().strategy, ChosenBuild::Delta);
        // No-op delta reproduces the index too.
        let noop = before.rebuild_delta(
            &(0..10)
                .map(|k| {
                    let y0 = (k as i64) * 90;
                    optical_net(k, Point::new(0, y0), Point::new(1000, 900 - y0))
                })
                .collect::<Vec<_>>(),
            &[],
        );
        assert_index_eq(&noop, &before, "noop delta");
    }

    #[test]
    fn neighbors_of_unknown_candidate_is_empty() {
        let nets = vec![optical_net(0, Point::new(0, 0), Point::new(100, 100))];
        let idx = CrossingIndex::build(&nets);
        assert!(idx.neighbors(0, 0).is_empty());
        assert!(idx.neighbors(5, 9).is_empty());
    }

    fn random_nets(raw: &[Vec<Vec<(i64, i64)>>]) -> Vec<NetCandidates> {
        raw.iter()
            .enumerate()
            .map(|(i, chains)| {
                let pts: Vec<Vec<Point>> = chains
                    .iter()
                    .map(|c| c.iter().map(|&(x, y)| Point::new(x, y)).collect())
                    .collect();
                chain_net(i, &pts)
            })
            .collect()
    }

    proptest! {
        /// Sweep-specific equivalence pin: the cramped 0..24 range packs
        /// the segments with collinear overlaps, shared endpoints, and
        /// verticals — the sweep's event-bundling edge cases — and the
        /// index must still match the reference at every thread count.
        #[test]
        fn sweep_build_equals_reference_on_random_candidate_sets(
            raw in proptest::collection::vec(
                proptest::collection::vec(
                    proptest::collection::vec((0i64..24, 0i64..24), 2..6),
                    1..3,
                ),
                2..8,
            ),
        ) {
            let nets = random_nets(&raw);
            let reference = CrossingIndex::build_reference(&nets);
            for threads in [1usize, 2, 8] {
                let sweep = CrossingIndex::build_with(&nets, &Executor::new(threads));
                assert_index_eq(&sweep, &reference, &format!("sweep, threads={threads}"));
            }
        }

        /// `rebuild_delta` (localized sweep patch) against a full rebuild
        /// after replacing a random subset of nets.
        #[test]
        fn rebuild_delta_equals_full_rebuild_on_random_changes(
            raw in proptest::collection::vec(
                proptest::collection::vec(
                    proptest::collection::vec((0i64..48, 0i64..48), 2..5),
                    1..3,
                ),
                3..8,
            ),
            replacement in proptest::collection::vec(
                proptest::collection::vec((0i64..48, 0i64..48), 2..5),
                1..3,
            ),
            which in 0usize..8,
        ) {
            let mut nets = random_nets(&raw);
            let before = CrossingIndex::build(&nets);
            let target = which % nets.len();
            let pts: Vec<Vec<Point>> = replacement
                .iter()
                .map(|c| c.iter().map(|&(x, y)| Point::new(x, y)).collect())
                .collect();
            nets[target] = chain_net(target, &pts);
            let delta = before.rebuild_delta(&nets, &[target]);
            let full = CrossingIndex::build(&nets);
            assert_index_eq(&delta, &full, "random delta vs full");
        }
    }
}
