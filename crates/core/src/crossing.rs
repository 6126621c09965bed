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
//! * **Sort-and-sweep** — the production discovery (`discover_hits`):
//!   every optical segment's bounding box, sorted once by left edge. Each
//!   segment scans forward until the next box starts past its right edge,
//!   drops same-net pairs and pairs with disjoint y-intervals, and runs
//!   the exact [`Segment::crosses`] on the rest — the classic
//!   sweep-and-prune broadphase. Its cost is `O(n log n + n·k_x)` for
//!   `n` segments with `k_x` x-overlapping successors each: die-spanning
//!   horizontal buses push it toward all segment pairs, never past them.
//!   Each segment pair is tested at most once, so each crossing is
//!   reported exactly once. [`CrossingIndex::build_with`] and
//!   [`CrossingIndex::rebuild_delta`] both discover through it, then
//!   funnel the packed hits through the same global sort + assembly (see
//!   `Hit`), so the index is a pure function of the candidate set,
//!   independent of iteration order and thread count.
//! * **Brute force** ([`CrossingIndex::build_reference`]) — all candidate
//!   pairs behind net- and candidate-level bounding-box prefilters (the
//!   paper's "non-overlapped bounding boxes" variable reduction), with
//!   its own per-pair counting. Retained as the equivalence oracle for
//!   tests and benchmarks.
//!
//! # Arena layout
//!
//! The index stores flat vectors only — no tree maps, no per-record heap
//! allocation:
//!
//! * `keys` — sorted `[net_a, cand_a, net_b, cand_b]` pair keys (`u32`
//!   ids, `net_a < net_b`); `pair()` is a binary search.
//! * `records` — one 12-byte record per key: the offset of its counts in
//!   the shared arena, the length of side A, and the total crossing
//!   count. Side B runs up to the next record's offset.
//! * `arena` — every record's `(path, count)` entries back to back, in
//!   key order, side A before side B.
//! * a neighbor CSR indexed by dense candidate slot (`slot_off[net] +
//!   cand`, the prefix sum of per-net candidate counts), so
//!   `neighbors()` is two array reads. Each 12-byte [`Neighbor`] names
//!   the other candidate and its record, with the owner's side in the
//!   record handle's top bit.
//!
//! Every constructor feeds one in-order record builder (`RecordBuilder`)
//! whose `finish` lays the CSR down with a counting pass in record
//! order, so each owner's list comes out sorted by the other candidate
//! without a sort. The full build assembles records straight off its
//! sorted hit runs and drops the hits before the CSR goes up;
//! [`CrossingIndex::rebuild_delta`] merges retained records with the
//! rediscovered runs; the brute-force oracle sorts its own pair list. Record
//! handles are stable `u32` indexes into the key order, so handles stay
//! valid across ECOs exactly when the rows they name are unchanged.
//! [`CrossingIndex::heap_bytes`] reports the arenas' exact size.

use crate::codesign::NetCandidates;
use operon_exec::Executor;
use operon_geom::{BoundingBox, Segment};
use std::ops::Range;

/// One `(path index, crossings on that path)` entry of a record side.
pub type PathCount = (u32, u32);

/// One side's `(path index, crossings)` counts of a crossing record,
/// ascending by path index.
pub type PathCounts = [PathCount];

/// Key: `(net_a, cand_a, net_b, cand_b)` with `net_a < net_b`.
pub(crate) type PairKey = (usize, usize, usize, usize);

/// Crossing counts between one ordered pair of candidates: a borrowed
/// view of the index's arena.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PairView<'a> {
    /// `(path index in candidate A, crossings on that path)`.
    pub per_path_a: &'a PathCounts,
    /// `(path index in candidate B, crossings on that path)`.
    pub per_path_b: &'a PathCounts,
    /// Total segment crossings between the two candidates.
    pub total: u32,
}

/// A record's place in the arena: side A is `arena[off..off + len_a]`,
/// side B runs from there to the next record's `off`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Record {
    off: u32,
    len_a: u32,
    total: u32,
}

/// Top bit of [`Neighbor`]'s record handle: the list owner is side A.
const OWNER_IS_A: u32 = 1 << 31;

/// One entry of a candidate's neighbor list: a candidate of another net
/// that it crosses, plus a direct handle to the shared crossing record so
/// hot pricing loops read per-path counts without any map walk per query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Neighbor {
    net: u32,
    cand: u32,
    /// Index into `CrossingIndex::records`, [`OWNER_IS_A`] set when the
    /// list owner is side A of the record.
    record: u32,
}

impl Neighbor {
    /// The crossing net.
    #[inline]
    pub fn net(&self) -> usize {
        self.net as usize
    }

    /// The crossing net's candidate index.
    #[inline]
    pub fn cand(&self) -> usize {
        self.cand as usize
    }

    /// The `(net, cand)` pair of this neighbor.
    #[inline]
    pub fn key(&self) -> (usize, usize) {
        (self.net(), self.cand())
    }

    #[inline]
    fn record(&self) -> usize {
        (self.record & !OWNER_IS_A) as usize
    }

    #[inline]
    fn owner_is_a(&self) -> bool {
        self.record & OWNER_IS_A != 0
    }
}

/// How an index was actually constructed — recorded for run reports.
/// Not part of the index's semantic value: equality ignores it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ChosenBuild {
    /// All-pairs reference scan.
    BruteForce,
    /// The production sort-and-sweep discovery (see the module docs).
    #[default]
    Sweep,
    /// Incremental [`CrossingIndex::rebuild_delta`] patch.
    Delta,
}

impl ChosenBuild {
    /// Stable counter suffix for the run report.
    pub fn counter_name(self) -> &'static str {
        match self {
            ChosenBuild::BruteForce => "brute",
            ChosenBuild::Sweep => "sweep",
            ChosenBuild::Delta => "delta",
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
    /// the brute-force oracle does; full builds and delta patches
    /// discover inline.
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
/// Flat arenas throughout (see the module docs): sorted keys, fixed-size
/// records over one shared count arena, and one CSR neighbor arena.
/// Iteration order is the sorted key order, so runs are bit-reproducible
/// without any tree map.
#[derive(Clone, Debug, Default)]
pub struct CrossingIndex {
    /// Sorted pair keys; `records[i]` belongs to `keys[i]`.
    keys: Vec<[u32; 4]>,
    /// Crossing records in sorted key order.
    records: Vec<Record>,
    /// Every record's `(path, count)` entries, in record order.
    arena: Vec<PathCount>,
    /// Dense slot of `(net, cand)` is `slot_off[net] + cand`; one entry
    /// per net plus the total candidate count.
    slot_off: Vec<u32>,
    /// CSR offsets into `adj`, one per slot plus the end.
    adj_off: Vec<u32>,
    /// Neighbor arena: slot `s`'s list is `adj[adj_off[s]..adj_off[s + 1]]`.
    adj: Vec<Neighbor>,
    /// Provenance of the last build (excluded from equality).
    info: BuildInfo,
}

impl PartialEq for CrossingIndex {
    fn eq(&self, other: &Self) -> bool {
        // The CSR arena is a pure function of `keys` and the candidate
        // counts, and `info` is provenance, not content: two indexes are
        // equal iff their pair maps are.
        self.keys == other.keys && self.records == other.records && self.arena == other.arena
    }
}

impl CrossingIndex {
    /// Builds the index over every candidate pair from different hyper
    /// nets whose optical segments properly cross.
    pub fn build(nets: &[NetCandidates]) -> Self {
        Self::build_with(nets, &Executor::sequential())
    }

    /// [`build`](Self::build) as the flow stages call it: one global
    /// sort-and-sweep over every candidate segment (see the module docs),
    /// then the shared assembly. Discovery is sequential, so the output is
    /// the same for every executor; the flow's parallelism lives around
    /// this stage.
    pub fn build_with(nets: &[NetCandidates], _exec: &Executor) -> Self {
        let mut hits = discover_hits(nets, None);
        sort_hits(&mut hits);
        let mut builder = RecordBuilder::new(nets, key_runs(&hits).count());
        for run in key_runs(&hits) {
            builder.push_run(run);
        }
        drop(hits);
        builder.finish(BuildInfo {
            strategy: ChosenBuild::Sweep,
            parallel: false,
        })
    }

    /// Provenance of the build that produced this index.
    #[inline]
    pub fn build_info(&self) -> BuildInfo {
        self.info
    }

    /// The all-pairs build: scans every net pair with a bounding-box
    /// prefilter, then every candidate pair with overlapping optical
    /// boxes. Retained as the equivalence oracle — the production build
    /// and delta patches must produce a byte-identical index.
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

        // Each row: its pairs as (key, side-A range, side-B range, total)
        // into the row's own count arena, sorted by key. Every key of row
        // `a` starts with `a`, so the rows concatenate in key order.
        type Row = Vec<([u32; 4], Range<usize>, Range<usize>, u32)>;
        let rows: Vec<(Row, Vec<PathCount>)> = exec.par_map_indexed(&net_bbox, |a, bb_a| {
            let mut row: Row = Vec::new();
            let mut arena: Vec<PathCount> = Vec::new();
            let Some(bb_a) = bb_a else {
                return (row, arena);
            };
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
                        let start = arena.len();
                        if let Some((len_a, total)) = count_pair(ca, cb, &mut arena) {
                            let mid = start + len_a;
                            let key = [a, ai, b, bi].map(|x| x as u32);
                            row.push((key, start..mid, mid..arena.len(), total));
                        }
                    }
                }
            }
            row.sort_unstable_by_key(|e| e.0);
            (row, arena)
        });

        let pairs = rows.iter().map(|(row, _)| row.len()).sum();
        let mut builder = RecordBuilder::new(nets, pairs);
        for (row, arena) in &rows {
            for (key, a, b, total) in row {
                builder.push(*key, &arena[a.clone()], &arena[b.clone()], *total);
            }
        }
        drop(rows);
        builder.finish(BuildInfo {
            strategy: ChosenBuild::BruteForce,
            parallel: true,
        })
    }

    /// Rebuilds the index after the candidates of `changed` nets were
    /// replaced, reusing every record that involves no changed net.
    /// Equivalent to a full [`build`](Self::build) of the new candidate
    /// set, at the cost of the changed rows only.
    ///
    /// Implementation: retained records are copied across; discovery
    /// runs over the dirty neighborhood only — changed nets plus every
    /// net whose bounding box overlaps a changed net's. Pairs between two
    /// unchanged nets found there are discarded (their retained records
    /// are already exact), so retained records and rediscovered runs are
    /// key-disjoint and merge in order without a re-sort.
    pub fn rebuild_delta(&self, nets: &[NetCandidates], changed: &[usize]) -> Self {
        let mut is_changed = vec![false; nets.len()];
        for &i in changed {
            if i < nets.len() {
                is_changed[i] = true;
            }
        }

        // Dirty neighborhood: changed nets and bbox-overlapping others.
        // A pair crossing a changed net must overlap its bbox, so local
        // discovery sees every pair that needs recounting.
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

        // Retained records: both nets still present and unchanged.
        let unchanged = |net: u32| (net as usize) < nets.len() && !is_changed[net as usize];
        let retained = (0..self.keys.len()).filter(|&r| {
            let key = self.keys[r];
            unchanged(key[0]) && unchanged(key[2])
        });
        let pairs = retained.clone().count() + key_runs(&hits).count();
        let mut builder = RecordBuilder::new(nets, pairs);
        let mut runs = key_runs(&hits).peekable();
        for r in retained {
            let key = self.keys[r];
            while let Some(run) = runs.next_if(|run| hit_key(run[0].0) < key) {
                builder.push_run(run);
            }
            let v = self.view(r);
            builder.push(key, v.per_path_a, v.per_path_b, v.total);
        }
        for run in runs {
            builder.push_run(run);
        }
        drop(hits);
        builder.finish(BuildInfo {
            strategy: ChosenBuild::Delta,
            parallel: false,
        })
    }

    /// Record `r`'s counts.
    #[inline]
    fn view(&self, r: usize) -> PairView<'_> {
        let rec = self.records[r];
        let end = self
            .records
            .get(r + 1)
            .map_or(self.arena.len(), |next| next.off as usize);
        let (per_path_a, per_path_b) =
            self.arena[rec.off as usize..end].split_at(rec.len_a as usize);
        PairView {
            per_path_a,
            per_path_b,
            total: rec.total,
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
    ) -> Option<PairView<'_>> {
        let key = if net_a < net_b {
            [net_a, cand_a, net_b, cand_b]
        } else {
            [net_b, cand_b, net_a, cand_a]
        };
        // Ids beyond `u32` can name no record.
        let key = key.map(|x| u32::try_from(x).ok());
        let key = [key[0]?, key[1]?, key[2]?, key[3]?];
        self.keys.binary_search(&key).ok().map(|r| self.view(r))
    }

    /// The crossing record behind a neighbor-list entry — no map walk.
    #[inline]
    pub fn record(&self, nb: &Neighbor) -> PairView<'_> {
        self.view(nb.record())
    }

    /// Per-path crossing counts of a neighbor-list entry, as
    /// `(owner's side, neighbor's side)` — the cached equivalent of a
    /// `pair()` lookup plus the `net < other` side selection.
    #[inline]
    pub fn per_path(&self, nb: &Neighbor) -> (&PathCounts, &PathCounts) {
        let v = self.view(nb.record());
        if nb.owner_is_a() {
            (v.per_path_a, v.per_path_b)
        } else {
            (v.per_path_b, v.per_path_a)
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
        let Some(v) = self.pair(net, cand, other_net, other_cand) else {
            return 0;
        };
        let per_path = if net < other_net {
            v.per_path_a
        } else {
            v.per_path_b
        };
        per_path
            .iter()
            .find(|&&(p, _)| p as usize == path)
            .map_or(0, |&(_, n)| n as usize)
    }

    /// Iterates over all crossing pairs as
    /// `((net_a, cand_a, net_b, cand_b), record)` in sorted key order.
    pub fn iter(&self) -> impl Iterator<Item = (PairKey, PairView<'_>)> {
        self.keys.iter().enumerate().map(|(r, k)| {
            let [na, ca, nb, cb] = k.map(|x| x as usize);
            ((na, ca, nb, cb), self.view(r))
        })
    }

    /// The candidates of other nets that cross `(net, cand)`, ascending
    /// by `(net, cand)`.
    pub fn neighbors(&self, net: usize, cand: usize) -> &[Neighbor] {
        let (Some(&lo), Some(&hi)) = (self.slot_off.get(net), self.slot_off.get(net + 1)) else {
            return &[];
        };
        if cand >= (hi - lo) as usize {
            return &[];
        }
        let slot = lo as usize + cand;
        &self.adj[self.adj_off[slot] as usize..self.adj_off[slot + 1] as usize]
    }

    /// Number of crossing candidate pairs.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether no candidate pair crosses.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Bytes held by the index's arenas, from their lengths rather than
    /// their capacities, so it is a pure function of the candidate set.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of_val;
        size_of_val(self.keys.as_slice())
            + size_of_val(self.records.as_slice())
            + size_of_val(self.arena.as_slice())
            + size_of_val(self.slot_off.as_slice())
            + size_of_val(self.adj_off.as_slice())
            + size_of_val(self.adj.as_slice())
    }
}

/// Narrows an arena length or id to the index's `u32` handles.
#[inline]
fn to_u32(n: usize) -> u32 {
    // operon-lint: allow(R001, reason = "past u32::MAX arena entries the index would hold over 32 GiB; discovery already packs every id into u32")
    u32::try_from(n).expect("crossing index exceeds u32 handles")
}

/// The one in-order record builder behind every constructor: records
/// arrive in strictly ascending key order, their path counts go straight
/// into the shared arena, and [`finish`](Self::finish) lays down the
/// neighbor CSR. Hit runs are attributed to paths through lazily built
/// per-candidate inverted path indexes plus reusable accumulator scratch,
/// so a candidate's path structure is walked once no matter how many
/// pairs it participates in.
struct RecordBuilder<'n> {
    nets: &'n [NetCandidates],
    keys: Vec<[u32; 4]>,
    records: Vec<Record>,
    arena: Vec<PathCount>,
    slot_off: Vec<u32>,
    /// Inverted path index per candidate slot, built on first use.
    inv: Vec<Option<SegPathIndex>>,
    /// Per-path crossing accumulator, zeroed between uses via `touched`.
    acc: Vec<u32>,
    touched: Vec<u32>,
}

impl<'n> RecordBuilder<'n> {
    /// A builder for `pairs` records over `nets`' candidates.
    fn new(nets: &'n [NetCandidates], pairs: usize) -> Self {
        let mut slot_off = Vec::with_capacity(nets.len() + 1);
        let mut slots = 0usize;
        slot_off.push(0);
        for nc in nets {
            slots += nc.candidates.len();
            slot_off.push(to_u32(slots));
        }
        let mut inv = Vec::new();
        inv.resize_with(slots, || None);
        Self {
            nets,
            keys: Vec::with_capacity(pairs),
            records: Vec::with_capacity(pairs),
            // Every crossing segment lies on at least one path per side.
            arena: Vec::with_capacity(2 * pairs),
            slot_off,
            inv,
            acc: Vec::new(),
            touched: Vec::new(),
        }
    }

    /// Appends one record from its two sides' counts.
    fn push(&mut self, key: [u32; 4], a: &PathCounts, b: &PathCounts, total: u32) {
        let off = self.arena.len();
        self.arena.extend_from_slice(a);
        self.arena.extend_from_slice(b);
        self.close(key, off, a.len(), total);
    }

    /// Appends the record of one key's run of sorted hits, reproducing
    /// `count_pair`'s attribution exactly.
    fn push_run(&mut self, run: &[Hit]) {
        let key = hit_key(run[0].0);
        let off = self.arena.len();
        self.attribute_side(key[0], key[1], run, true);
        let len_a = self.arena.len() - off;
        self.attribute_side(key[2], key[3], run, false);
        self.close(key, off, len_a, to_u32(run.len()));
    }

    /// Records `key`, whose counts were appended to the arena from `off`.
    fn close(&mut self, key: [u32; 4], off: usize, len_a: usize, total: u32) {
        debug_assert!(
            self.keys.last().is_none_or(|last| *last < key),
            "records out of order"
        );
        self.keys.push(key);
        self.records.push(Record {
            off: to_u32(off),
            len_a: to_u32(len_a),
            total,
        });
    }

    /// Path attribution for one side of a pair, appended to the arena:
    /// ascending `(path index, count)` over paths with at least one
    /// crossing — byte-identical to [`attribute`] over per-segment counts.
    fn attribute_side(&mut self, net: u32, cand: u32, run: &[Hit], side_a: bool) {
        let slot = (self.slot_off[net as usize] + cand) as usize;
        let nets = self.nets;
        let idx = self.inv[slot]
            .get_or_insert_with(|| seg_path_index(&nets[net as usize].candidates[cand as usize]));
        if self.acc.len() < idx.n_paths {
            self.acc.resize(idx.n_paths, 0);
        }
        self.touched.clear();
        for &(_, segs) in run {
            let s = if side_a {
                segs >> 32
            } else {
                segs & 0xFFFF_FFFF
            } as usize;
            for &p in &idx.paths[idx.off[s] as usize..idx.off[s + 1] as usize] {
                if self.acc[p as usize] == 0 {
                    self.touched.push(p);
                }
                self.acc[p as usize] += 1;
            }
        }
        self.touched.sort_unstable();
        for &p in &self.touched {
            self.arena.push((p, self.acc[p as usize]));
            self.acc[p as usize] = 0;
        }
    }

    /// Lays down the neighbor CSR with a counting pass in record order
    /// (each owner's list comes out ascending by the other candidate)
    /// and returns the finished index.
    fn finish(self, info: BuildInfo) -> CrossingIndex {
        let Self {
            keys,
            records,
            mut arena,
            slot_off,
            ..
        } = self;
        arena.shrink_to_fit();
        let slots = *slot_off.last().unwrap_or(&0) as usize;
        let slot = |net: u32, cand: u32| (slot_off[net as usize] + cand) as usize;
        let mut adj_off = vec![0u32; slots + 1];
        for k in &keys {
            adj_off[slot(k[0], k[1]) + 1] += 1;
            adj_off[slot(k[2], k[3]) + 1] += 1;
        }
        for s in 0..slots {
            adj_off[s + 1] += adj_off[s];
        }
        let mut cursor = adj_off.clone();
        let empty = Neighbor {
            net: 0,
            cand: 0,
            record: 0,
        };
        let mut adj = vec![empty; 2 * keys.len()];
        assert!(
            keys.len() <= OWNER_IS_A as usize,
            "crossing index exceeds u32 handles"
        );
        for (r, k) in keys.iter().enumerate() {
            let r = r as u32;
            for (owner, other, tag) in [
                ((k[0], k[1]), (k[2], k[3]), OWNER_IS_A),
                ((k[2], k[3]), (k[0], k[1]), 0),
            ] {
                let c = &mut cursor[slot(owner.0, owner.1)];
                adj[*c as usize] = Neighbor {
                    net: other.0,
                    cand: other.1,
                    record: r | tag,
                };
                *c += 1;
            }
        }
        CrossingIndex {
            keys,
            records,
            arena,
            slot_off,
            adj_off,
            adj,
            info,
        }
    }
}

/// A discovered crossing in packed form: the candidate-pair
/// key folded into a `u128` whose integer order equals [`PairKey`]
/// order (all handles are `u32`), and the crossing segment indexes
/// folded into a `u64`. Sorting millions of these is a fraction of the
/// cost of the 40-byte tuple they replace.
type Hit = (u128, u64);

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

/// The `[net_a, cand_a, net_b, cand_b]` key of a packed hit.
#[inline]
fn hit_key(packed: u128) -> [u32; 4] {
    [
        (packed >> 96) as u32,
        (packed >> 64) as u32,
        (packed >> 32) as u32,
        packed as u32,
    ]
}

/// The `(net_a, net_b)` pair of a packed hit key (`net_a < net_b`) —
/// [`CrossingIndex::rebuild_delta`]'s retain filter keeps the hits that
/// touch a changed net.
#[inline]
fn hit_nets(packed: u128) -> (usize, usize) {
    ((packed >> 96) as usize, (packed >> 32) as u32 as usize)
}

/// Sorted hits grouped into one run per pair key.
fn key_runs(hits: &[Hit]) -> std::slice::ChunkBy<'_, Hit, impl FnMut(&Hit, &Hit) -> bool> {
    hits.chunk_by(|x, y| x.0 == y.0)
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

/// The one production crossing discovery, the sort-and-sweep of the
/// module docs: packed hits between distinct nets among those flagged in
/// `involved` (every net when `None`). Each segment pair is tested at
/// most once, so the output is unique but unsorted; callers filter, then
/// [`sort_hits`].
fn discover_hits(nets: &[NetCandidates], involved: Option<&[bool]>) -> Vec<Hit> {
    let segs = collect_segments(nets, involved);
    // (x_lo, x_hi, y_lo, y_hi, net, index into `segs`), by left edge.
    let mut boxes: Vec<(i64, i64, i64, i64, u32, u32)> = segs
        .iter()
        .enumerate()
        .map(|(i, sr)| {
            let bb = sr.s.bounding_box();
            (bb.lo().x, bb.hi().x, bb.lo().y, bb.hi().y, sr.net, i as u32)
        })
        .collect();
    boxes.sort_unstable();
    let mut hits: Vec<Hit> = Vec::new();
    for (i, &(_, x_hi, y_lo, y_hi, net, ia)) in boxes.iter().enumerate() {
        let a = &segs[ia as usize];
        for &(x_lo_b, _, y_lo_b, y_hi_b, net_b, ib) in &boxes[i + 1..] {
            if x_lo_b > x_hi {
                break;
            }
            if net_b == net || y_lo_b > y_hi || y_hi_b < y_lo {
                continue;
            }
            let b = &segs[ib as usize];
            if a.s.crosses(&b.s) {
                let (p, q) = if a.net < b.net { (a, b) } else { (b, a) };
                hits.push(pack_hit(p, q));
            }
        }
    }
    hits
}

/// Sorts discovered hits into [`PairKey`] order. Discovery never reports
/// a segment pair twice, so no dedup pass is needed; debug builds check.
fn sort_hits(hits: &mut [Hit]) {
    hits.sort_unstable();
    debug_assert!(
        hits.windows(2).all(|w| w[0] != w[1]),
        "crossing discovery reported a segment pair twice"
    );
}

/// Union bbox of each net's optical candidates: the brute-force oracle's
/// net-level prefilter ([`CrossingIndex::build_reference`]) and
/// [`CrossingIndex::rebuild_delta`]'s dirty-neighborhood test.
fn net_bboxes(nets: &[NetCandidates]) -> Vec<Option<BoundingBox>> {
    nets.iter()
        .map(|nc| {
            nc.candidates
                .iter()
                .filter_map(|c| c.optical_bbox)
                .reduce(|a, b| a.union(&b))
        })
        .collect()
}

/// Counts proper crossings between two candidates and appends their
/// attribution to detector paths to `arena`, side A then side B. Returns
/// `(side-A length, total)`, or `None` (appending nothing) when the
/// candidates do not cross.
fn count_pair(
    a: &crate::codesign::CandidateRoute,
    b: &crate::codesign::CandidateRoute,
    arena: &mut Vec<PathCount>,
) -> Option<(usize, u32)> {
    // Crossings per segment of each candidate.
    let mut seg_a = vec![0u32; a.optical_segments.len()];
    let mut seg_b = vec![0u32; b.optical_segments.len()];
    let mut total = 0u32;
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
        return None;
    }
    let start = arena.len();
    attribute(&a.paths, &seg_a, arena);
    let len_a = arena.len() - start;
    attribute(&b.paths, &seg_b, arena);
    Some((len_a, total))
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

/// Sums per-segment crossing counts along each detector path, appending
/// `(path index, count)` for paths that suffer at least one crossing.
fn attribute(paths: &[crate::codesign::PathLoss], seg: &[u32], arena: &mut Vec<PathCount>) {
    for (pi, p) in paths.iter().enumerate() {
        let n: u32 = p.segments.iter().map(|&s| seg[s]).sum();
        if n > 0 {
            arena.push((pi as u32, n));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codesign::{analyze_assignment, EdgeMedium, NetCandidates};
    use operon_geom::{Point, MAX_COORD};
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

    /// Full structural equality: semantic value (keys, records, count
    /// arena) plus the derived slot table and CSR arena and the reported
    /// size, so a builder that corrupted neighbor lists cannot hide
    /// behind the `PartialEq` impl.
    fn assert_index_eq(a: &CrossingIndex, b: &CrossingIndex, label: &str) {
        assert_eq!(a.len(), b.len(), "{label}: pair count");
        assert_eq!(a.keys, b.keys, "{label}: keys");
        assert_eq!(a.records, b.records, "{label}: records");
        assert_eq!(a.arena, b.arena, "{label}: count arena");
        assert_eq!(a.slot_off, b.slot_off, "{label}: candidate slots");
        assert_eq!(a.adj_off, b.adj_off, "{label}: neighbor offsets");
        assert_eq!(a.adj, b.adj, "{label}: neighbor arena");
        assert_eq!(a.heap_bytes(), b.heap_bytes(), "{label}: heap bytes");
    }

    /// The neighbor CSR against a naive derivation from the pair list:
    /// every candidate's list holds exactly the records naming it,
    /// ascending by the other candidate, each resolving to its own record
    /// with the owner's side first.
    fn assert_csr_matches_pairs(idx: &CrossingIndex, nets: &[NetCandidates]) {
        for (net, nc) in nets.iter().enumerate() {
            for cand in 0..nc.candidates.len() {
                let mut expected: Vec<((usize, usize), PairView<'_>)> = idx
                    .iter()
                    .filter_map(|((na, ca, nb, cb), v)| {
                        if (na, ca) == (net, cand) {
                            Some(((nb, cb), v))
                        } else if (nb, cb) == (net, cand) {
                            Some(((na, ca), v))
                        } else {
                            None
                        }
                    })
                    .collect();
                expected.sort_by_key(|e| e.0);
                let got = idx.neighbors(net, cand);
                assert_eq!(got.len(), expected.len(), "({net}, {cand}): list length");
                for (nb, &(key, v)) in got.iter().zip(&expected) {
                    assert_eq!(nb.key(), key, "({net}, {cand}): neighbor order");
                    assert_eq!(idx.record(nb), v);
                    let sides = if net < nb.net() {
                        (v.per_path_a, v.per_path_b)
                    } else {
                        (v.per_path_b, v.per_path_a)
                    };
                    assert_eq!(idx.per_path(nb), sides, "({net}, {cand}): owner side");
                }
            }
        }
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
        assert_eq!(pc.per_path_a, &[(0, 1)]);
        assert_eq!(pc.per_path_b, &[(0, 1)]);
        // Query in both net orders.
        assert_eq!(idx.crossings_on_path(0, 0, 0, 1, 0), 1);
        assert_eq!(idx.crossings_on_path(1, 0, 0, 0, 0), 1);
        // Key, record, two arena entries, two slot and CSR offset tables
        // over two candidates, one neighbor entry per side.
        assert_eq!(idx.heap_bytes(), 16 + 12 + 2 * 8 + 3 * 4 + 3 * 4 + 2 * 12);
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
        assert_eq!(pc.per_path_b, &[(0, 2)]);
        // The two sides differ, so the neighbor entries' side tags show.
        assert_eq!(idx.per_path(&idx.neighbors(1, 0)[0]).0, &[(0, 2)]);
        assert_csr_matches_pairs(&idx, &nets);
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
                let via_map = idx.pair(net, 0, nb.net(), nb.cand()).expect("pair exists");
                assert_eq!(idx.record(nb), via_map);
                let (own, other) = idx.per_path(nb);
                if net < nb.net() {
                    assert_eq!(own, via_map.per_path_a);
                    assert_eq!(other, via_map.per_path_b);
                } else {
                    assert_eq!(own, via_map.per_path_b);
                    assert_eq!(other, via_map.per_path_a);
                }
            }
        }
        // The vertical net crosses both diagonals.
        assert_eq!(idx.neighbors(2, 0).len(), 2);
        assert_csr_matches_pairs(&idx, &nets);
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
    fn every_build_path_matches_reference_at_max_coord() {
        // Discovery keeps no arithmetic of its own: `Segment::crosses`
        // stays exact at the input bound, so a fixture translated there
        // must match the reference through a full build at every thread
        // count and through a delta patch.
        let o = MAX_COORD;
        let mut nets = dispersed_nets_at(o);
        let reference = CrossingIndex::build_reference(&nets);
        assert!(!reference.is_empty());
        for threads in [1, 2, 8] {
            let idx = CrossingIndex::build_with(&nets, &Executor::new(threads));
            assert_index_eq(&idx, &reference, &format!("full, threads={threads}"));
        }

        // Re-route one stub across all three trunks and drop another.
        let before = CrossingIndex::build(&nets);
        nets[4] = optical_net(4, Point::new(o + 500, o - 10), Point::new(o + 520, o + 20));
        nets[9] = optical_net(9, Point::new(o + 5000, o), Point::new(o + 5010, o + 9));
        let reference = CrossingIndex::build_reference(&nets);
        let delta = before.rebuild_delta(&nets, &[4, 9]);
        assert_index_eq(&delta, &reference, "delta");
        assert!(delta.pair(4, 0, 12, 0).is_some());
    }

    #[test]
    fn degenerate_configurations_match_reference() {
        // Each segment is its own one-candidate net, so the expected
        // count is the number of properly crossing segment pairs.
        type Seg = (i64, i64, i64, i64);
        let lattice: Vec<Seg> = (0..8).flat_map(|i| [(0, i, 7, i), (i, 0, i, 7)]).collect();
        let cases: Vec<(&str, Vec<Seg>, usize)> = vec![
            ("empty", vec![], 0),
            ("single segment", vec![(0, 0, 3, 3)], 0),
            ("x crossing", vec![(0, 0, 10, 10), (0, 10, 10, 0)], 1),
            (
                "shared endpoint and t-junction",
                vec![(0, 0, 5, 5), (5, 5, 9, 0), (2, 2, 2, -3)],
                0,
            ),
            (
                "collinear overlaps",
                vec![(0, 0, 10, 0), (5, 0, 15, 0), (-2, 0, 3, 0)],
                0,
            ),
            (
                "transversal through a collinear overlap",
                vec![(0, 0, 8, 8), (2, 2, 12, 12), (0, 8, 8, 0)],
                2,
            ),
            (
                "vertical crossings",
                vec![
                    (5, -10, 5, 10),
                    (0, 0, 10, 1),
                    (0, 5, 5, 5),
                    (5, 10, 9, 12),
                    (4, -20, 4, -15),
                ],
                1,
            ),
            ("vertical overlap", vec![(3, 0, 3, 10), (3, 5, 3, 15)], 0),
            (
                "star through one point",
                vec![
                    (-5, -5, 5, 5),
                    (-5, 5, 5, -5),
                    (-5, 0, 5, 0),
                    (-5, 1, 5, -1),
                ],
                6,
            ),
            (
                "crossing at a rational point",
                vec![(0, 0, 5, 5), (0, 5, 5, -5), (1, 0, 1, 3)],
                2,
            ),
            ("8x8 axis lattice", lattice, 36),
            (
                "degenerate segment",
                vec![(2, 2, 2, 2), (0, 0, 4, 4), (0, 4, 4, 0)],
                1,
            ),
        ];
        for (name, segs, expected) in cases {
            let nets: Vec<NetCandidates> = segs
                .iter()
                .enumerate()
                .map(|(i, &(ax, ay, bx, by))| {
                    optical_net(i, Point::new(ax, ay), Point::new(bx, by))
                })
                .collect();
            let reference = CrossingIndex::build_reference(&nets);
            assert_eq!(reference.len(), expected, "{name}: reference pairs");
            assert_index_eq(&CrossingIndex::build(&nets), &reference, name);
        }
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
        /// Production-vs-reference equivalence pin: the cramped 0..24
        /// range packs the chains with collinear overlaps, shared
        /// endpoints and verticals, and the axis-heavy segments (mostly
        /// horizontals and verticals, every fifth a diagonal, each its own
        /// net) add T-junctions and lattice crossings on equal x-edges.
        /// The index must match the reference at every thread count.
        #[test]
        fn sweep_build_equals_reference_on_random_candidate_sets(
            raw in proptest::collection::vec(
                proptest::collection::vec(
                    proptest::collection::vec((0i64..24, 0i64..24), 2..6),
                    1..3,
                ),
                2..8,
            ),
            axis in proptest::collection::vec(
                (0i64..20, 0i64..20, 0i64..20, any::<bool>()),
                0..30,
            ),
        ) {
            let mut nets = random_nets(&raw);
            for (i, &(a, b, c, horizontal)) in axis.iter().enumerate() {
                let end = if i % 5 == 0 {
                    Point::new(c, (a + c) % 20)
                } else if horizontal {
                    Point::new(c, b)
                } else {
                    Point::new(a, c)
                };
                nets.push(optical_net(nets.len(), Point::new(a, b), end));
            }
            let reference = CrossingIndex::build_reference(&nets);
            assert_csr_matches_pairs(&reference, &nets);
            for threads in [1usize, 2, 8] {
                let built = CrossingIndex::build_with(&nets, &Executor::new(threads));
                assert_index_eq(&built, &reference, &format!("build, threads={threads}"));
            }
        }

        /// `rebuild_delta` (local rediscovery) against a full rebuild
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
            assert_csr_matches_pairs(&delta, &nets);
        }
    }
}
