//! Per-artifact aggregate catalogs: answer `COUNT(*)` from per-group
//! summaries instead of scanning every row, **bit-identically** to the
//! scan paths in [`crate::answer`].
//!
//! A [`Catalog`] groups the rows of one publication — by its equivalence
//! classes for generalized artifacts, by Hilbert-ordered row blocks for
//! forms that publish QIs verbatim — and precomputes, per group:
//!
//! * the value extent of every covered attribute (for generalized QI
//!   attributes this is the *published* box, which conservatively contains
//!   the raw extent, so one extent table serves pruning for both exact
//!   counts and estimates);
//! * prefix counts of every covered attribute (per-group histograms in
//!   cumulative form), so one straddling predicate — and every surviving
//!   EC of a generalized estimate — resolves with two loads and a
//!   subtraction, `O(1)`. Runs span the group's extent, except the SA's in
//!   an EC catalog, which span the SA's whole domain so the estimate reads
//!   them without clamping or an offset table;
//!
//! plus, per covered attribute, a global **prefix-sum** table over the
//! attribute's domain (single-predicate queries answer in `O(1)`) and two
//! **interval bitsets** per domain value over the groups: `le[v]` holds the
//! groups whose extent starts at or below `v`, `ge[v]` those whose extent
//! ends at or above `v`. The groups overlapping `[a, b]` are the AND of
//! `le[b]` and `ge[a]`, so a query's surviving groups are the AND of one
//! pair per predicate, walked in ascending order with `trailing_zeros`.
//!
//! The planner ([`Catalog::plan`]) splits a query's predicates into the
//! catalog-covered part — resolved from summaries — and a *residual* part
//! that falls back to scanning only the rows of groups the covered part
//! could not decide. Answers are bit-identical to the scan path because
//! exact counts are integers, and the estimate paths replay the exact
//! float operations of [`GeneralizedView::estimate`],
//! [`estimate_perturbed`] and [`estimate_anatomy`] — skipping only terms
//! that are provably `+0.0` (adding `+0.0` to a non-negative total is a
//! bitwise no-op) or groups the scan path itself skips. The generalized
//! estimate's mask holds exactly the ECs that overlap every predicate —
//! those the scan neither skips nor adds a `+0.0` term for — and each
//! survivor's term is the scan's float sequence, in ascending EC order.
//!
//! [`GeneralizedView::estimate`]: crate::GeneralizedView::estimate
//! [`estimate_perturbed`]: crate::estimate_perturbed
//! [`estimate_anatomy`]: crate::estimate_anatomy

use crate::workload::{AggQuery, RangePred};
use betalike::perturb::PerturbedTable;
use betalike::retrieve::hilbert_keys;
use betalike_metrics::Partition;
use betalike_microdata::{Hierarchy, Table};
use betalike_obs::Counter;
use std::sync::Arc;

/// Version of the catalog derivation scheme. Persisted snapshots carrying
/// a different version are discarded and the catalog is rebuilt from the
/// publication (see `DESIGN.md` §13, rebuild-on-version-skew).
pub const CATALOG_VERSION: u32 = 1;

/// Default rows per block for block-grouped catalogs (forms without an EC
/// partition). Small enough that straddling blocks re-scan little, large
/// enough that the group count stays far below the row count.
pub const DEFAULT_BLOCK_ROWS: u32 = 256;

/// Widest predicate (in domain cells) the planner will select candidate
/// groups by through the interval bitsets; when every predicate is wider,
/// every group's extent is tested.
const NARROW_CELLS: u32 = 8;

/// Groups per unit of the parallel build. The split is fixed, and every
/// unit's output is integers concatenated in group order, so a catalog is
/// identical at any thread count.
const BUILD_CHUNK: usize = 64;

/// How a catalog groups rows — the part of a catalog that is persisted
/// (everything else is rebuilt deterministically from the publication).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GroupingSpec {
    /// One group per equivalence class of the published partition, in EC
    /// order (generalized forms).
    Ecs,
    /// Fixed-size blocks of a row permutation (forms publishing QIs
    /// verbatim; the permutation sorts rows by their Hilbert key over the
    /// non-SA attributes, falling back to row order when there are none).
    Blocks {
        /// Rows per block (the last block may be shorter).
        block_rows: u32,
        /// The row permutation blocks are cut from; `perm[i]` is the row
        /// id at position `i`.
        perm: Vec<u32>,
    },
}

/// The persistable description of a [`Catalog`]: the derivation version,
/// the grouping, and the covered attributes (a cross-check against the
/// rebuilt catalog). Everything heavy — extents, per-group prefix counts,
/// interval bitsets, prefix sums — is rebuilt deterministically on restore.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatalogSpec {
    /// The [`CATALOG_VERSION`] the catalog was derived under.
    pub version: u32,
    /// How rows are grouped.
    pub grouping: GroupingSpec,
    /// The attributes the catalog covers, in extent order.
    pub covered: Vec<usize>,
}

/// A query's predicates split by the planner: `covered` resolves from
/// catalog summaries, `residual` only by scanning rows of undecided
/// groups.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatalogPlan {
    /// Predicates over covered attributes (excluding predicates that span
    /// an attribute's whole domain, which match every row).
    pub covered: Vec<RangePred>,
    /// Predicates the catalog cannot cover.
    pub residual: Vec<RangePred>,
}

/// Shared counters classifying how the catalog resolved each candidate
/// group, one bump per group per query (plus one `full_cover` bump when
/// the `O(1)` prefix-sum path answers without visiting groups at all).
/// The default is a set of detached counters — recording is always on,
/// but nobody reads them unless the server wires in handles from its
/// metrics registry. Groups the interval bitsets prune *before* the
/// extent check of an exact count are never classified (they were never
/// candidates); the generalized estimate classifies every EC.
#[derive(Debug, Clone, Default)]
pub struct CatalogStats {
    /// Candidate groups skipped because a covered predicate was disjoint
    /// from their extent.
    pub disjoint: Arc<Counter>,
    /// Groups counted whole from their summary (every covered predicate
    /// spans the group), and prefix-sum fast-path answers.
    pub full_cover: Arc<Counter>,
    /// Groups resolved from one straddling predicate's per-group prefix
    /// counts (estimates count their per-group SA lookup here).
    pub straddle: Arc<Counter>,
    /// Groups that fell back to scanning their rows.
    pub residual_scan: Arc<Counter>,
}

/// A query-local tally, flushed to the shared [`CatalogStats`] once per
/// call so hot loops touch plain integers instead of atomics per group.
#[derive(Debug, Default)]
struct PlanTally {
    disjoint: u64,
    full_cover: u64,
    straddle: u64,
    residual_scan: u64,
}

impl CatalogStats {
    fn flush(&self, t: &PlanTally) {
        if t.disjoint > 0 {
            self.disjoint.add(t.disjoint);
        }
        if t.full_cover > 0 {
            self.full_cover.add(t.full_cover);
        }
        if t.straddle > 0 {
            self.straddle.add(t.straddle);
        }
        if t.residual_scan > 0 {
            self.residual_scan.add(t.residual_scan);
        }
    }
}

/// The perturbed-form overlay: per group, a sparse histogram of the
/// *published* (randomized) SA column, indexed by the plan's dense
/// support index. Lets fully-covered groups contribute their observed
/// counts in `O(m)` instead of `O(|group|)`.
#[derive(Debug, Clone)]
struct AltSaOverlay {
    /// The SA attribute index in the published table.
    sa: usize,
    /// Support size `m` of the perturbation plan.
    m: usize,
    /// Per group: `(dense_index, count)` pairs, ascending by index.
    hists: Vec<Vec<(u32, u32)>>,
}

/// One unit of the parallel build, for consecutive groups: extents,
/// extent-relative prefix-count runs, and the whole-domain runs of the
/// attribute [`whole_run`] names.
#[derive(Debug, Default)]
struct BuiltGroups {
    extents: Vec<(u32, u32)>,
    counts: Vec<u32>,
    whole: Vec<u32>,
}

/// One covered attribute's interval bitsets over the groups, `words =
/// ⌈groups / 64⌉` `u64`s per domain value: row `v` of `le` holds the
/// non-empty groups whose extent has `lo ≤ v`, row `v` of `ge` those whose
/// extent has `hi ≥ v`. Built from one bit per group and one prefix-OR
/// (suffix-OR) sweep, `O(groups + card · words)`.
#[derive(Debug, Clone, PartialEq, Eq)]
struct IntervalBits {
    card: usize,
    words: usize,
    le: Vec<u64>,
    ge: Vec<u64>,
}

impl IntervalBits {
    /// Builds the bitsets from every group's extent, in group order. An
    /// empty group's extent `(u32::MAX, 0)` joins no set. Extents lie in
    /// `0..card`, as every code and published box does.
    fn build(extents: impl Iterator<Item = (u32, u32)>, groups: usize, card: u32) -> Self {
        let (card, words) = (card as usize, groups.div_ceil(64));
        let mut le = vec![0u64; card * words];
        let mut ge = vec![0u64; card * words];
        for (g, (lo, hi)) in extents.enumerate() {
            if lo > hi {
                continue;
            }
            let bit = 1u64 << (g % 64);
            le[lo as usize * words + g / 64] |= bit;
            ge[(hi as usize).min(card - 1) * words + g / 64] |= bit;
        }
        for v in 1..card {
            let (below, row) = le.split_at_mut(v * words);
            for (w, &prev) in row[..words].iter_mut().zip(&below[(v - 1) * words..]) {
                *w |= prev;
            }
        }
        for v in (1..card).rev() {
            let (above, row) = ge.split_at_mut(v * words);
            for (w, &next) in above[(v - 1) * words..].iter_mut().zip(&row[..words]) {
                *w |= next;
            }
        }
        IntervalBits {
            card,
            words,
            le,
            ge,
        }
    }

    /// ANDs the groups overlapping `[lo, hi]` into `mask`: `le[min(hi,
    /// card - 1)] & ge[lo]`, and none when `lo ≥ card`.
    fn restrict(&self, mask: &mut [u64], lo: u32, hi: u32) {
        let (lo, w) = (lo as usize, self.words);
        if lo >= self.card {
            mask.fill(0);
            return;
        }
        let hi = (hi as usize).min(self.card - 1);
        let (le, ge) = (
            &self.le[hi * w..(hi + 1) * w],
            &self.ge[lo * w..(lo + 1) * w],
        );
        for ((m, &a), &b) in mask.iter_mut().zip(le).zip(ge) {
            *m &= a & b;
        }
    }
}

/// A mask holding each of `groups` groups.
fn full_mask(groups: usize) -> Vec<u64> {
    let mut mask = vec![u64::MAX; groups.div_ceil(64)];
    if groups % 64 != 0 {
        mask[groups / 64] = (1 << (groups % 64)) - 1;
    }
    mask
}

/// The set bits of `mask`, ascending.
fn ones(mask: &[u64]) -> impl Iterator<Item = usize> + '_ {
    mask.iter().enumerate().flat_map(|(w, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                w * 64 + bit
            })
        })
    })
}

/// A per-artifact aggregate catalog. See the [module docs](self) for the
/// data layout and the bit-identity argument. Build one with
/// [`Catalog::for_partition`] (generalized forms) or
/// [`Catalog::for_table`] (Anatomy / perturbation), and restore one with
/// [`Catalog::from_spec`].
#[derive(Debug, Clone)]
pub struct Catalog {
    /// Covered attributes in extent order. For EC grouping this is the
    /// partition's QI attributes followed by the SA; for block grouping,
    /// every attribute.
    covered: Vec<usize>,
    /// Domain cardinality per covered attribute.
    cards: Vec<u32>,
    /// `Some(n)` for block grouping (blocks of `n` rows cut from `rows`,
    /// which is then the permutation [`Catalog::spec`] reports); `None`
    /// for one group per EC.
    block_rows: Option<u32>,
    /// Every group's row ids, group after group; each row id is stored
    /// once.
    rows: Vec<u32>,
    /// Group `g`'s rows are `rows[starts[g]..starts[g + 1]]`.
    starts: Vec<usize>,
    /// `extents[g * covered.len() + ci]`: the value extent of covered
    /// attribute `ci` in group `g` — the published box for generalized QI
    /// attributes, the raw code extent otherwise. An empty group's extent
    /// is `(u32::MAX, 0)`.
    extents: Vec<(u32, u32)>,
    /// Per-group prefix counts. For the pair `i = g * covered.len() + ci`,
    /// `counts[offsets[i] + k]` is the number of group `g`'s rows whose
    /// code of covered attribute `ci` is `< origin + k`. A run spans the
    /// group's extent `[lo, hi]` (origin `lo`, `hi - lo + 2` entries; an
    /// empty group stores one `0`), except for the attribute
    /// [`whole_run`] names, whose runs span its whole domain
    /// (origin 0, `card + 1` entries) and come first, group after group,
    /// so group `g`'s starts at `g * (card + 1)`.
    counts: Vec<u32>,
    /// Start of each (group, covered attribute) pair's run in `counts`,
    /// indexed like `extents`.
    offsets: Vec<usize>,
    /// `bits[ci]`: covered attribute `ci`'s interval bitsets.
    bits: Vec<IntervalBits>,
    /// `prefix[ci][v]`: rows with code `< v` in covered attribute `ci`
    /// (length `card + 1`).
    prefix: Vec<Vec<u64>>,
    /// Total rows across all groups.
    num_rows: usize,
    /// For EC grouping: how many leading `covered` entries are QI
    /// attributes (the SA is last). `covered.len()` otherwise.
    qi_len: usize,
    /// Published-SA histograms for perturbed artifacts.
    alt_sa: Option<AltSaOverlay>,
    /// Plan-classification counters (detached unless the server wires in
    /// registry-backed handles via [`Catalog::set_stats`]).
    stats: CatalogStats,
}

impl Catalog {
    /// Builds the catalog for a generalized publication: one group per
    /// EC, covering the partition's QI attributes (with their *published*
    /// boxes as extents, exactly as [`crate::GeneralizedView`] derives
    /// them) plus the SA.
    pub fn for_partition(table: &Table, partition: &Partition) -> Self {
        let mut covered = partition.qi().to_vec();
        covered.push(partition.sa());
        let qi_len = covered.len() - 1;
        let mut rows = Vec::with_capacity(partition.num_rows());
        let mut starts = Vec::with_capacity(partition.num_ecs() + 1);
        starts.push(0);
        for ec in partition.ecs() {
            rows.extend(ec.iter().map(|&r| r as u32));
            starts.push(rows.len());
        }
        Self::assemble(table, covered, qi_len, None, rows, starts)
    }

    /// Builds the catalog for a form that publishes QIs verbatim (Anatomy
    /// or perturbation): rows are sorted by their Hilbert key over every
    /// non-SA attribute (row order if there are none) and cut into blocks
    /// of [`DEFAULT_BLOCK_ROWS`]; every attribute is covered with its raw
    /// extent.
    pub fn for_table(table: &Table, sa: usize) -> Self {
        let perm = block_permutation(table, sa);
        Self::from_blocks(table, DEFAULT_BLOCK_ROWS, perm)
    }

    /// Attaches the perturbed-form overlay: per group, the sparse
    /// histogram of the *published* SA column under `published`'s plan.
    /// Required before calling [`Catalog::perturbed_observed`].
    ///
    /// # Panics
    ///
    /// Panics if a published SA value is outside the plan's support
    /// (impossible for tables produced by the perturbation scheme).
    #[must_use]
    pub fn with_perturbed_overlay(mut self, published: &PerturbedTable) -> Self {
        let col = published.table.column(published.sa);
        let m = published.plan.m();
        let mut hists = Vec::with_capacity(self.num_groups());
        for g in 0..self.num_groups() {
            let mut dense = vec![0u32; m];
            for &r in self.group_rows(g) {
                let idx = published
                    .plan
                    .dense_index(col[r as usize])
                    .expect("perturbed values stay in the support");
                dense[idx] += 1;
            }
            let hist: Vec<(u32, u32)> = dense
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c > 0)
                .map(|(i, &c)| (i as u32, c))
                .collect();
            hists.push(hist);
        }
        self.alt_sa = Some(AltSaOverlay {
            sa: published.sa,
            m,
            hists,
        });
        self
    }

    /// Rebuilds a catalog from a persisted [`CatalogSpec`]. `partition`
    /// must be the artifact's partition for EC grouping.
    ///
    /// # Errors
    ///
    /// Returns a message if the spec is structurally invalid for this
    /// publication: wrong version, a grouping that does not match the
    /// form, a `perm` that is not a permutation of the table's rows, a
    /// zero block size, or a covered set differing from the one this
    /// version derives. Callers should treat version skew (`version !=
    /// CATALOG_VERSION`) as "rebuild from scratch" *before* calling this.
    pub fn from_spec(
        table: &Table,
        partition: Option<&Partition>,
        spec: &CatalogSpec,
    ) -> Result<Self, String> {
        if spec.version != CATALOG_VERSION {
            return Err(format!(
                "catalog version {} does not match this reader ({CATALOG_VERSION})",
                spec.version
            ));
        }
        let built = match (&spec.grouping, partition) {
            (GroupingSpec::Ecs, Some(p)) => Self::for_partition(table, p),
            (GroupingSpec::Ecs, None) => {
                return Err("EC-grouped catalog without a partition".into());
            }
            (GroupingSpec::Blocks { .. }, Some(_)) => {
                return Err("block-grouped catalog for a generalized publication".into());
            }
            (GroupingSpec::Blocks { block_rows, perm }, None) => {
                if *block_rows == 0 {
                    return Err("catalog block size must be positive".into());
                }
                let n = table.num_rows();
                if perm.len() != n {
                    return Err(format!(
                        "catalog permutation covers {} rows, table has {n}",
                        perm.len()
                    ));
                }
                let mut seen = vec![false; n];
                for &r in perm {
                    let r = r as usize;
                    if r >= n || seen[r] {
                        return Err("catalog permutation is not a permutation".into());
                    }
                    seen[r] = true;
                }
                Self::from_blocks(table, *block_rows, perm.clone())
            }
        };
        if built.covered != spec.covered {
            return Err(format!(
                "catalog covers attributes {:?}, expected {:?}",
                spec.covered, built.covered
            ));
        }
        Ok(built)
    }

    /// The persistable description of this catalog (see
    /// [`CatalogSpec`]); the perturbed overlay is always rebuilt and not
    /// part of it.
    pub fn spec(&self) -> CatalogSpec {
        let grouping = match self.block_rows {
            None => GroupingSpec::Ecs,
            Some(block_rows) => GroupingSpec::Blocks {
                block_rows,
                perm: self.rows.clone(),
            },
        };
        CatalogSpec {
            version: CATALOG_VERSION,
            grouping,
            covered: self.covered.clone(),
        }
    }

    /// Number of row groups.
    pub fn num_groups(&self) -> usize {
        self.starts.len() - 1
    }

    /// Group `g`'s row ids.
    fn group_rows(&self, g: usize) -> &[u32] {
        &self.rows[self.starts[g]..self.starts[g + 1]]
    }

    /// Replaces the plan-classification counters with shared handles (the
    /// server passes registry-backed ones so `metrics` can report how
    /// queries resolved: disjoint prune / whole-group summary / straddle
    /// prefix-count lookup / residual row scan).
    pub fn set_stats(&mut self, stats: CatalogStats) {
        self.stats = stats;
    }

    /// The covered attributes, in extent order.
    pub fn covered(&self) -> &[usize] {
        &self.covered
    }

    /// Splits `preds` into the catalog-covered and residual parts.
    /// Predicates spanning an attribute's whole domain match every row
    /// and appear in neither part.
    ///
    /// ```
    /// use betalike_query::{Catalog, RangePred};
    /// use betalike_microdata::synthetic::{random_table, SyntheticConfig};
    ///
    /// let t = random_table(&SyntheticConfig::default());
    /// let catalog = Catalog::for_table(&t, 2);
    /// let preds = [RangePred { attr: 0, lo: 1, hi: 3 }];
    /// let plan = catalog.plan(&preds);
    /// assert_eq!(plan.covered, preds);
    /// assert!(plan.residual.is_empty());
    /// ```
    pub fn plan(&self, preds: &[RangePred]) -> CatalogPlan {
        let mut covered = Vec::new();
        let mut residual = Vec::new();
        for p in preds {
            match self.covered_index(p.attr) {
                Some(ci) => {
                    if !self.spans_domain(ci, p) {
                        covered.push(*p);
                    }
                }
                None => residual.push(*p),
            }
        }
        CatalogPlan { covered, residual }
    }

    /// Exact number of rows of `table` matching every predicate,
    /// bit-identical (it is an integer) to a full scan.
    ///
    /// `table` must be the table the catalog was built over, or one that
    /// agrees with it on every covered column — the catalog consults its
    /// summaries for covered predicates and only reads `table` for
    /// residual scanning.
    pub fn count(&self, table: &Table, preds: &[RangePred]) -> u64 {
        self.count_excluding(table, preds, None)
    }

    /// [`Catalog::count`] with predicates on `exclude` forced onto the
    /// residual path — used by the perturbed estimator, whose table
    /// differs from the build table in exactly the SA column.
    fn count_excluding(&self, table: &Table, preds: &[RangePred], exclude: Option<usize>) -> u64 {
        let mut covered: Vec<(usize, RangePred)> = Vec::new();
        let mut residual: Vec<RangePred> = Vec::new();
        for p in preds {
            match self.covered_index(p.attr) {
                Some(ci) if Some(p.attr) != exclude => {
                    if !self.spans_domain(ci, p) {
                        covered.push((ci, *p));
                    }
                }
                _ => residual.push(*p),
            }
        }
        if covered.is_empty() && residual.is_empty() {
            return self.num_rows as u64;
        }
        let mut tally = PlanTally::default();
        // O(1): a single covered predicate answers from the prefix sums.
        if residual.is_empty() && covered.len() == 1 {
            self.stats.full_cover.inc();
            let (ci, p) = covered[0];
            let hi = p.hi.min(self.cards[ci] - 1) as usize;
            if p.lo as usize > hi {
                return 0;
            }
            return self.prefix[ci][hi + 1] - self.prefix[ci][p.lo as usize];
        }
        let res_cols: Vec<(&[u32], RangePred)> = residual
            .iter()
            .map(|p| (table.column(p.attr), *p))
            .collect();
        // A residual scan's predicates, refilled per scanned group.
        let mut cols: Vec<(&[u32], RangePred)> = Vec::new();
        let mut total = 0u64;
        'groups: for g in ones(&self.candidates(&covered)) {
            let ext = self.group_extents(g);
            let (mut straddles, mut first) = (0, None);
            for &(ci, p) in &covered {
                let (lo, hi) = ext[ci];
                if p.hi < lo || p.lo > hi {
                    tally.disjoint += 1;
                    continue 'groups;
                }
                if !spans((lo, hi), &p) {
                    straddles += 1;
                    first = first.or(Some((ci, p)));
                }
            }
            total += match (first, straddles, res_cols.is_empty()) {
                // Every covered predicate spans the group: count it whole.
                (None, _, true) => {
                    tally.full_cover += 1;
                    self.group_rows(g).len() as u64
                }
                // One straddling predicate: read its per-group prefix counts.
                (Some((ci, p)), 1, true) => {
                    tally.straddle += 1;
                    u64::from(self.range_count(g, ci, p.lo, p.hi))
                }
                // Residual scan over this group's rows only.
                _ => {
                    tally.residual_scan += 1;
                    cols.clear();
                    cols.extend(
                        covered
                            .iter()
                            .filter(|&&(ci, p)| !spans(ext[ci], &p))
                            .map(|&(_, p)| (table.column(p.attr), p)),
                    );
                    cols.extend(res_cols.iter().copied());
                    let mut c = 0u64;
                    'rows: for &r in self.group_rows(g) {
                        for (col, p) in &cols {
                            let v = col[r as usize];
                            if v < p.lo || v > p.hi {
                                continue 'rows;
                            }
                        }
                        c += 1;
                    }
                    c
                }
            };
        }
        self.stats.flush(&tally);
        total
    }

    /// Estimated `COUNT(*)` for a generalized publication, bit-identical
    /// to [`crate::GeneralizedView::estimate`] on the same partition: ECs
    /// are visited in the same order, each EC's overlap fractions are
    /// multiplied in the same (query-predicate) order, and the only
    /// skipped ECs are those the scan path `continue`s past or whose term
    /// is `+0.0` (adding `+0.0` to the non-negative running total cannot
    /// change its bits).
    ///
    /// # Panics
    ///
    /// Panics if the catalog is not EC-grouped, or if a query predicate
    /// references an attribute outside the published QI set (matching the
    /// scan path).
    pub fn estimate_generalized(&self, query: &AggQuery) -> f64 {
        assert!(
            self.block_rows.is_none(),
            "estimate_generalized requires an EC-grouped catalog"
        );
        let positions: Vec<(usize, &RangePred)> = query
            .qi_preds
            .iter()
            .map(|p| {
                let pos = self.covered[..self.qi_len]
                    .iter()
                    .position(|&a| a == p.attr)
                    .expect("query predicates an attribute outside the published QI set");
                (pos, p)
            })
            .collect();
        // The ECs overlapping every predicate: exactly those the scan
        // neither `continue`s past (a disjoint QI predicate, frac = 0.0) nor
        // adds frac × 0 = +0.0 for (a disjoint SA range).
        let sa_ci = self.qi_len;
        let sa = &query.sa_pred;
        let mut mask = full_mask(self.num_groups());
        self.bits[sa_ci].restrict(&mut mask, sa.lo, sa.hi);
        for &(pos, p) in &positions {
            self.bits[pos].restrict(&mut mask, p.lo, p.hi);
        }
        // The SA's whole-domain runs: `[lo, hi]` reads entries
        // `min(lo, card)` and `min(hi, card - 1) + 1` of a survivor's run, no
        // extent clamp needed. The mask is empty when `lo ≥ card`.
        let card = self.cards[sa_ci];
        let width = card as usize + 1;
        let (sa_lo, sa_hi) = (sa.lo.min(card) as usize, sa.hi.min(card - 1) as usize + 1);
        let mut survivors = 0u64;
        let mut total = 0.0;
        for g in ones(&mask) {
            survivors += 1;
            let ext = self.group_extents(g);
            let mut frac = 1.0;
            for &(pos, p) in &positions {
                let (lo, hi) = ext[pos];
                let cells = (hi - lo + 1) as f64;
                let olo = lo.max(p.lo);
                let ohi = hi.min(p.hi);
                frac *= (ohi - olo + 1) as f64 / cells;
            }
            let run = &self.counts[g * width..(g + 1) * width];
            let matched = run[sa_hi].saturating_sub(run[sa_lo]);
            total += frac * f64::from(matched);
        }
        // Every surviving EC resolves by its SA prefix counts — a straddle
        // in plan-classification terms; every other EC was disjoint.
        self.stats.flush(&PlanTally {
            disjoint: self.num_groups() as u64 - survivors,
            straddle: survivors,
            ..PlanTally::default()
        });
        total
    }

    /// The observed-count vector a perturbed estimator needs: the number
    /// of rows of `published.table` matching the query's QI predicates,
    /// and those rows' published-SA counts per dense support index —
    /// bit-identical to `qi_matches` + `observed_counts` (every entry is
    /// an exactly-representable integer, so accumulation order cannot
    /// matter).
    ///
    /// # Panics
    ///
    /// Panics if the catalog was built without
    /// [`Catalog::with_perturbed_overlay`].
    pub fn perturbed_observed(
        &self,
        published: &PerturbedTable,
        query: &AggQuery,
    ) -> (u64, Vec<f64>) {
        let overlay = self
            .alt_sa
            .as_ref()
            .expect("perturbed_observed requires the perturbed overlay");
        let table = &published.table;
        let pub_col = table.column(overlay.sa);
        let mut covered: Vec<(usize, RangePred)> = Vec::new();
        let mut residual: Vec<RangePred> = Vec::new();
        for p in &query.qi_preds {
            match self.covered_index(p.attr) {
                // The build table and the published table differ in the SA
                // column, so SA predicates must scan the published table.
                Some(ci) if p.attr != overlay.sa => {
                    if !self.spans_domain(ci, p) {
                        covered.push((ci, *p));
                    }
                }
                _ => residual.push(*p),
            }
        }
        let res_cols: Vec<(&[u32], RangePred)> = residual
            .iter()
            .map(|p| (table.column(p.attr), *p))
            .collect();
        let mut tally = PlanTally::default();
        let mut matched = 0u64;
        let mut counts = vec![0.0; overlay.m];
        'groups: for g in ones(&self.candidates(&covered)) {
            let ext = self.group_extents(g);
            let mut straddles = false;
            for &(ci, p) in &covered {
                let (lo, hi) = ext[ci];
                if p.hi < lo || p.lo > hi {
                    tally.disjoint += 1;
                    continue 'groups;
                }
                if !spans((lo, hi), &p) {
                    straddles = true;
                }
            }
            if !straddles && res_cols.is_empty() {
                // The whole group matches: add its published-SA histogram.
                tally.full_cover += 1;
                matched += self.group_rows(g).len() as u64;
                for &(idx, c) in &overlay.hists[g] {
                    counts[idx as usize] += c as f64;
                }
                continue;
            }
            tally.residual_scan += 1;
            let cols: Vec<(&[u32], RangePred)> = covered
                .iter()
                .map(|&(_, p)| (table.column(p.attr), p))
                .chain(res_cols.iter().copied())
                .collect();
            'rows: for &r in self.group_rows(g) {
                let r = r as usize;
                for (col, p) in &cols {
                    let v = col[r];
                    if v < p.lo || v > p.hi {
                        continue 'rows;
                    }
                }
                matched += 1;
                let idx = published
                    .plan
                    .dense_index(pub_col[r])
                    .expect("perturbed values stay in the support");
                counts[idx] += 1.0;
            }
        }
        self.stats.flush(&tally);
        (matched, counts)
    }

    /// Candidate groups for a set of covered predicates, as a mask over
    /// the groups: those overlapping the narrowest predicate no wider than
    /// [`NARROW_CELLS`] cells, or every group when no predicate is that
    /// narrow. [`ones`] walks it in ascending order, which the estimate
    /// paths rely on.
    fn candidates(&self, covered: &[(usize, RangePred)]) -> Vec<u64> {
        let mut mask = full_mask(self.num_groups());
        let narrow = covered
            .iter()
            .filter(|(_, p)| p.hi - p.lo < NARROW_CELLS)
            .min_by_key(|(_, p)| p.hi - p.lo);
        if let Some(&(ci, p)) = narrow {
            self.bits[ci].restrict(&mut mask, p.lo, p.hi);
        }
        mask
    }

    /// Group `g`'s extents, one per covered attribute.
    fn group_extents(&self, g: usize) -> &[(u32, u32)] {
        let stride = self.covered.len();
        &self.extents[g * stride..(g + 1) * stride]
    }

    /// How many of group `g`'s rows have a code of covered attribute `ci`
    /// in `[lo, hi]`. Every code of the group lies inside its extent, so
    /// the range is clamped to the extent and read off the prefix counts.
    fn range_count(&self, g: usize, ci: usize, lo: u32, hi: u32) -> u32 {
        let i = g * self.covered.len() + ci;
        let (elo, ehi) = self.extents[i];
        let (lo, hi) = (lo.max(elo), hi.min(ehi));
        if lo > hi {
            return 0;
        }
        let origin = if whole_run(self.block_rows, self.qi_len) == Some(ci) {
            0
        } else {
            elo
        };
        let run = &self.counts[self.offsets[i]..];
        run[(hi - origin) as usize + 1] - run[(lo - origin) as usize]
    }

    /// Index of `attr` within the covered set, if covered.
    fn covered_index(&self, attr: usize) -> Option<usize> {
        self.covered.iter().position(|&a| a == attr)
    }

    /// Whether a predicate spans covered attribute `ci`'s whole domain
    /// (and therefore matches every row).
    fn spans_domain(&self, ci: usize, p: &RangePred) -> bool {
        p.lo == 0 && p.hi >= self.cards[ci] - 1
    }

    /// Block-grouping constructor shared by [`Catalog::for_table`] and
    /// [`Catalog::from_spec`].
    fn from_blocks(table: &Table, block_rows: u32, perm: Vec<u32>) -> Self {
        let covered: Vec<usize> = (0..table.schema().arity()).collect();
        let qi_len = covered.len();
        let mut starts: Vec<usize> = (0..perm.len()).step_by(block_rows as usize).collect();
        starts.push(perm.len());
        Self::assemble(table, covered, qi_len, Some(block_rows), perm, starts)
    }

    /// Builds every derived structure from the grouping. Each group's
    /// codes of each covered attribute are gathered once, into a scratch
    /// buffer, and yield the group's extent (for EC grouping, a
    /// categorical QI's extent widens to the published box, exactly as
    /// [`crate::GeneralizedView`] derives it) and its prefix-count run.
    /// Groups are built in [`BUILD_CHUNK`] units across the pool and
    /// concatenated in group order; the run offsets, the interval bitsets
    /// and the global prefix sums then follow from the extents and runs
    /// alone.
    fn assemble(
        table: &Table,
        covered: Vec<usize>,
        qi_len: usize,
        block_rows: Option<u32>,
        rows: Vec<u32>,
        starts: Vec<usize>,
    ) -> Self {
        let stride = covered.len();
        let cards: Vec<u32> = covered
            .iter()
            .map(|&a| table.schema().attr(a).cardinality() as u32)
            .collect();
        let cols: Vec<&[u32]> = covered.iter().map(|&a| table.column(a)).collect();
        // The hierarchy a covered attribute's extent widens through: EC
        // grouping publishes a categorical QI as its LCA's leaf range.
        let widen: Vec<Option<&Hierarchy>> = covered
            .iter()
            .enumerate()
            .map(|(ci, &a)| match block_rows {
                None if ci < qi_len => table.schema().attr(a).hierarchy(),
                _ => None,
            })
            .collect();
        let whole = whole_run(block_rows, qi_len);
        let whole_width = whole.map_or(0, |ci| cards[ci] as usize + 1);
        let num_groups = starts.len() - 1;
        let units = mini_rayon::par_chunks_map(&starts[..num_groups], BUILD_CHUNK, |u, unit| {
            let mut out = BuiltGroups::default();
            let mut codes: Vec<u32> = Vec::new();
            for g in u * BUILD_CHUNK..u * BUILD_CHUNK + unit.len() {
                let group = &rows[starts[g]..starts[g + 1]];
                for (ci, (col, widen)) in cols.iter().zip(&widen).enumerate() {
                    codes.clear();
                    codes.extend(group.iter().map(|&r| col[r as usize]));
                    let (mut lo, mut hi) = codes
                        .iter()
                        .fold((u32::MAX, 0), |(lo, hi), &v| (lo.min(v), hi.max(v)));
                    if lo <= hi {
                        if let Some(h) = widen {
                            (lo, hi) = h.leaf_range(h.lca_of_leaves(lo, hi));
                        }
                    }
                    out.extents.push((lo, hi));
                    let (runs, origin, len) = if whole == Some(ci) {
                        (&mut out.whole, 0, whole_width)
                    } else {
                        (&mut out.counts, lo, extent_run_len(lo, hi))
                    };
                    let base = runs.len();
                    runs.resize(base + len, 0);
                    let run = &mut runs[base..];
                    for &v in &codes {
                        run[(v - origin) as usize + 1] += 1;
                    }
                    for k in 1..run.len() {
                        run[k] += run[k - 1];
                    }
                }
            }
            out
        });
        let mut extents = Vec::with_capacity(num_groups * stride);
        let mut counts =
            Vec::with_capacity(units.iter().map(|u| u.whole.len() + u.counts.len()).sum());
        for unit in &units {
            counts.extend(&unit.whole);
        }
        for unit in units {
            extents.extend(unit.extents);
            counts.extend(unit.counts);
        }
        // Runs follow each other in pair order after the whole-domain ones,
        // so every offset follows from the extents.
        let mut offsets = Vec::with_capacity(num_groups * stride);
        let mut next = num_groups * whole_width;
        for (i, &(lo, hi)) in extents.iter().enumerate() {
            if whole == Some(i % stride) {
                offsets.push(i / stride * whole_width);
            } else {
                offsets.push(next);
                next += extent_run_len(lo, hi);
            }
        }
        let mut bits = Vec::with_capacity(stride);
        let mut prefix = Vec::with_capacity(stride);
        for (ci, &card) in cards.iter().enumerate() {
            let group_extents = extents.iter().skip(ci).step_by(stride).copied();
            bits.push(IntervalBits::build(group_extents, num_groups, card));
            let mut sums = vec![0u64; card as usize + 1];
            for g in 0..num_groups {
                let i = g * stride + ci;
                let (lo, hi) = extents[i];
                if lo > hi {
                    continue; // empty group
                }
                // The run's differences are the group's histogram.
                let origin = if whole == Some(ci) { 0 } else { lo };
                let run = &counts[offsets[i]..];
                for v in lo..=hi.min(card - 1) {
                    let k = (v - origin) as usize;
                    sums[v as usize + 1] += u64::from(run[k + 1] - run[k]);
                }
            }
            for v in 0..card as usize {
                sums[v + 1] += sums[v];
            }
            prefix.push(sums);
        }
        Catalog {
            covered,
            cards,
            block_rows,
            num_rows: rows.len(),
            rows,
            starts,
            extents,
            counts,
            offsets,
            bits,
            prefix,
            qi_len,
            alt_sa: None,
            stats: CatalogStats::default(),
        }
    }
}

/// Entries in the prefix-count run over extent `[lo, hi]`: `hi - lo + 2`,
/// or one `0` for an empty group.
fn extent_run_len(lo: u32, hi: u32) -> usize {
    if lo > hi {
        1
    } else {
        (hi - lo) as usize + 2
    }
}

/// Whether predicate `p` covers the whole extent `(lo, hi)`.
fn spans((lo, hi): (u32, u32), p: &RangePred) -> bool {
    p.lo <= lo && p.hi >= hi
}

/// The covered attribute whose prefix-count runs span its whole domain:
/// the SA (last covered) of an EC-grouped catalog, which every estimate
/// reads; none for blocks.
fn whole_run(block_rows: Option<u32>, qi_len: usize) -> Option<usize> {
    block_rows.is_none().then_some(qi_len)
}

/// The row permutation block grouping cuts from: rows sorted (stably) by
/// their Hilbert key over every non-SA attribute, or row order when the
/// table has no non-SA attributes.
fn block_permutation(table: &Table, sa: usize) -> Vec<u32> {
    let dims: Vec<usize> = (0..table.schema().arity()).filter(|&a| a != sa).collect();
    let mut perm: Vec<u32> = (0..table.num_rows() as u32).collect();
    if !dims.is_empty() {
        let keys = hilbert_keys(table, &dims);
        perm.sort_by_key(|&r| keys[r as usize]);
    }
    perm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::answer::{exact_count, qi_matches};
    use crate::workload::{generate_workload, WorkloadConfig};
    use betalike::{burel, BurelConfig};
    use betalike_microdata::synthetic::{random_table, SyntheticConfig};

    fn table() -> Table {
        random_table(&SyntheticConfig {
            rows: 2_000,
            qi_attrs: 2,
            qi_cardinality: 16,
            sa_cardinality: 8,
            seed: 21,
            ..Default::default()
        })
    }

    #[test]
    fn block_count_matches_scan() {
        let t = table();
        let catalog = Catalog::for_table(&t, 2);
        let w = generate_workload(
            &t,
            &WorkloadConfig {
                qi_pool: vec![0, 1],
                sa: 2,
                lambda: 2,
                theta: 0.2,
                num_queries: 40,
                seed: 22,
            },
        );
        for q in &w {
            let preds: Vec<RangePred> = q.qi_preds.iter().chain([&q.sa_pred]).copied().collect();
            assert_eq!(catalog.count(&t, &preds), exact_count(&t, q));
            assert_eq!(
                catalog.count(&t, &q.qi_preds),
                qi_matches(&t, q).len() as u64
            );
        }
    }

    #[test]
    fn ec_count_matches_scan() {
        let t = table();
        let p = burel(&t, &[0, 1], 2, &BurelConfig::new(4.0).with_seed(1)).unwrap();
        let catalog = Catalog::for_partition(&t, &p);
        let w = generate_workload(
            &t,
            &WorkloadConfig {
                qi_pool: vec![0, 1],
                sa: 2,
                lambda: 2,
                theta: 0.15,
                num_queries: 40,
                seed: 23,
            },
        );
        for q in &w {
            let preds: Vec<RangePred> = q.qi_preds.iter().chain([&q.sa_pred]).copied().collect();
            assert_eq!(catalog.count(&t, &preds), exact_count(&t, q));
        }
    }

    /// Plan classification is part of the observable contract (`metrics`
    /// reports it), so a layout change must not move a single tally. The
    /// pinned numbers are `[disjoint, full_cover, straddle, residual_scan]`
    /// per phase over fixed workloads on one EC and one block catalog.
    #[test]
    fn plan_tallies_are_pinned() {
        let t = table();
        let w = generate_workload(
            &t,
            &WorkloadConfig {
                qi_pool: vec![0, 1],
                sa: 2,
                lambda: 2,
                theta: 0.15,
                num_queries: 40,
                seed: 24,
            },
        );
        let p = burel(&t, &[0, 1], 2, &BurelConfig::new(4.0).with_seed(1)).unwrap();
        let mut ec = Catalog::for_partition(&t, &p);
        let mut block = Catalog::for_table(&t, 2);
        let phase = |catalog: &mut Catalog, run: &dyn Fn(&Catalog, &AggQuery)| {
            let stats = CatalogStats::default();
            catalog.set_stats(stats.clone());
            for q in &w {
                run(catalog, q);
            }
            [
                stats.disjoint.get(),
                stats.full_cover.get(),
                stats.straddle.get(),
                stats.residual_scan.get(),
            ]
        };
        let all = |q: &AggQuery| -> Vec<RangePred> {
            q.qi_preds.iter().chain([&q.sa_pred]).copied().collect()
        };
        let got = [
            phase(&mut ec, &|c, q| {
                c.estimate_generalized(q);
            }),
            phase(&mut ec, &|c, q| {
                c.count(&t, &all(q));
                c.count(&t, &q.qi_preds);
                c.count(&t, &[q.sa_pred]);
            }),
            phase(&mut block, &|c, q| {
                c.count(&t, &all(q));
                c.count(&t, &q.qi_preds);
                c.count(&t, &[q.sa_pred]);
            }),
        ];
        let want = [
            [5094, 0, 5146, 0],
            [10188, 2063, 3949, 4320],
            [124, 51, 106, 399],
        ];
        assert_eq!(got, want);
    }

    /// The build runs in fixed units across the pool; nothing a catalog
    /// holds or answers may depend on the worker count. Covers EC
    /// grouping (with LCA-widened census boxes), block grouping and the
    /// perturbed overlay.
    #[test]
    fn catalog_determinism_across_thread_counts() {
        use betalike::model::BetaLikeness;
        use betalike::perturb;
        use betalike_microdata::census::{self, CensusConfig};

        let t = census::generate(&CensusConfig::new(20_000, 4));
        let sa = census::attr::SALARY;
        let p = burel(&t, &[0, 1, 3, 4], sa, &BurelConfig::new(4.0).with_seed(2)).unwrap();
        let published = perturb(&t, sa, &BetaLikeness::new(4.0).unwrap(), 3).unwrap();
        let queries = generate_workload(
            &t,
            &WorkloadConfig {
                qi_pool: vec![0, 1, 3, 4],
                sa,
                lambda: 2,
                theta: 0.2,
                num_queries: 60,
                seed: 5,
            },
        );
        let build = |threads: usize| {
            mini_rayon::set_threads(threads);
            let built = [
                Catalog::for_partition(&t, &p),
                Catalog::for_table(&t, sa),
                Catalog::for_table(&t, sa).with_perturbed_overlay(&published),
            ];
            mini_rayon::set_threads(0);
            built
        };
        let answers = |[ec, block, overlay]: &[Catalog; 3]| -> Vec<u64> {
            let mut out = Vec::new();
            for q in &queries {
                let all: Vec<RangePred> = q.qi_preds.iter().chain([&q.sa_pred]).copied().collect();
                out.push(ec.estimate_generalized(q).to_bits());
                out.push(ec.count(&t, &all));
                out.push(block.count(&t, &all));
                out.push(block.count(&t, &q.qi_preds));
                let (matched, counts) = overlay.perturbed_observed(&published, q);
                out.push(matched);
                out.extend(counts.iter().map(|c| c.to_bits()));
            }
            out
        };
        let (serial, parallel) = (build(1), build(8));
        assert!(serial[0].num_groups() > BUILD_CHUNK && serial[1].num_groups() > BUILD_CHUNK);
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.spec(), b.spec());
            assert_eq!((&a.rows, &a.starts), (&b.rows, &b.starts));
            assert_eq!(a.extents, b.extents);
            assert_eq!((&a.counts, &a.offsets), (&b.counts, &b.offsets));
            assert_eq!((&a.bits, &a.prefix), (&b.bits, &b.prefix));
            assert_eq!(
                a.alt_sa.as_ref().map(|o| &o.hists),
                b.alt_sa.as_ref().map(|o| &o.hists)
            );
        }
        assert_eq!(answers(&serial), answers(&parallel));
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(48))]

        /// Random extents, empty groups included, at group counts on both
        /// sides of the 64-bit word boundaries: the groups the bitsets
        /// report overlapping `[a, b]` are exactly those a brute-force
        /// extent test finds, for every range — ends at or past the domain,
        /// single cells and the whole domain included.
        #[test]
        fn interval_bits_match_brute_force_overlap(
            size in 0usize..5,
            card in 1u32..20,
            raw in proptest::collection::vec((0u32..6, 0u32..64, 0u32..64), 129..130),
        ) {
            let groups = [1, 63, 64, 65, 129][size];
            let extents: Vec<(u32, u32)> = raw[..groups]
                .iter()
                .map(|&(kind, a, b)| {
                    if kind == 0 {
                        return (u32::MAX, 0); // an empty group
                    }
                    let lo = a % card;
                    (lo, lo + b % (card - lo))
                })
                .collect();
            let bits = IntervalBits::build(extents.iter().copied(), groups, card);
            for a in 0..card + 3 {
                for b in a..card + 3 {
                    let want: Vec<usize> = (0..groups)
                        .filter(|&g| {
                            let (lo, hi) = extents[g];
                            lo <= hi && lo <= b && hi >= a
                        })
                        .collect();
                    let mut mask = full_mask(groups);
                    bits.restrict(&mut mask, a, b);
                    proptest::prop_assert_eq!(ones(&mask).collect::<Vec<_>>(), want);
                }
            }
        }
    }

    /// The groups a catalog walks are the brute-force overlap sets: an
    /// estimate's survivors (its `straddle` tally, the rest `disjoint`)
    /// are the ECs whose extents overlap every predicate, and an exact
    /// count's candidates are the groups overlapping its narrowest one.
    #[test]
    fn interval_bits_survivors_match_brute_force() {
        let t = table();
        let p = burel(&t, &[0, 1], 2, &BurelConfig::new(4.0).with_seed(1)).unwrap();
        let mut catalog = Catalog::for_partition(&t, &p);
        let mut queries = generate_workload(
            &t,
            &WorkloadConfig {
                qi_pool: vec![0, 1],
                sa: 2,
                lambda: 2,
                theta: 0.15,
                num_queries: 40,
                seed: 25,
            },
        );
        // Past the domain (cards 16 and 8), single cells, whole domains.
        for (qi, sa) in [
            ((16, 20), (0, 7)),
            ((3, 40), (8, 9)),
            ((5, 5), (2, 2)),
            ((0, 15), (0, 7)),
            ((0, u32::MAX), (7, u32::MAX)),
        ] {
            queries.push(AggQuery {
                qi_preds: vec![RangePred {
                    attr: 1,
                    lo: qi.0,
                    hi: qi.1,
                }],
                sa_pred: RangePred {
                    attr: 2,
                    lo: sa.0,
                    hi: sa.1,
                },
            });
        }
        let groups = catalog.num_groups();
        let overlaps = |g: usize, preds: &[RangePred]| {
            preds.iter().all(|p| {
                let (lo, hi) = catalog.group_extents(g)[catalog.covered_index(p.attr).unwrap()];
                lo <= p.hi && hi >= p.lo
            })
        };
        let mut survivors = Vec::new();
        for q in &queries {
            let all: Vec<RangePred> = q.qi_preds.iter().chain([&q.sa_pred]).copied().collect();
            survivors.push((0..groups).filter(|&g| overlaps(g, &all)).count() as u64);
            for p in &all {
                let ci = catalog.covered_index(p.attr).unwrap();
                let want: Vec<usize> = (0..groups).filter(|&g| overlaps(g, &[*p])).collect();
                let narrow = RangePred {
                    hi: p.hi.min(p.lo + 7),
                    ..*p
                };
                let want_narrow: Vec<usize> =
                    (0..groups).filter(|&g| overlaps(g, &[narrow])).collect();
                assert_eq!(
                    ones(&catalog.candidates(&[(ci, narrow)])).collect::<Vec<_>>(),
                    want_narrow
                );
                let mut mask = full_mask(groups);
                catalog.bits[ci].restrict(&mut mask, p.lo, p.hi);
                assert_eq!(ones(&mask).collect::<Vec<_>>(), want);
            }
        }
        let stats = CatalogStats::default();
        catalog.set_stats(stats.clone());
        for (q, &want) in queries.iter().zip(&survivors) {
            let before = (stats.straddle.get(), stats.disjoint.get());
            catalog.estimate_generalized(q);
            assert_eq!(stats.straddle.get() - before.0, want);
            assert_eq!(stats.disjoint.get() - before.1, groups as u64 - want);
        }
        assert!(survivors.contains(&0) && survivors.iter().any(|&s| s > 0));
    }

    #[test]
    fn prefix_fast_path_single_pred() {
        let t = table();
        let catalog = Catalog::for_table(&t, 2);
        for lo in 0..16u32 {
            for hi in lo..16u32 {
                let p = RangePred { attr: 0, lo, hi };
                let col = t.column(0);
                let want = col.iter().filter(|&&v| v >= lo && v <= hi).count() as u64;
                assert_eq!(catalog.count(&t, &[p]), want);
            }
        }
        // Out-of-domain ranges clamp / return zero.
        assert_eq!(
            catalog.count(
                &t,
                &[RangePred {
                    attr: 0,
                    lo: 99,
                    hi: 120
                }]
            ),
            0
        );
    }

    #[test]
    fn plan_splits_covered_and_residual() {
        let t = table();
        let p = burel(&t, &[0], 2, &BurelConfig::new(4.0)).unwrap();
        let catalog = Catalog::for_partition(&t, &p);
        // Attr 1 is outside the partition's QI set, so it is residual.
        let preds = [
            RangePred {
                attr: 0,
                lo: 2,
                hi: 5,
            },
            RangePred {
                attr: 1,
                lo: 0,
                hi: 3,
            },
        ];
        let plan = catalog.plan(&preds);
        assert_eq!(plan.covered, vec![preds[0]]);
        assert_eq!(plan.residual, vec![preds[1]]);
        // A whole-domain predicate lands in neither part.
        let full = RangePred {
            attr: 0,
            lo: 0,
            hi: 15,
        };
        let plan = catalog.plan(&[full]);
        assert!(plan.covered.is_empty() && plan.residual.is_empty());
        // Counting with the residual predicate still matches the scan.
        let want = t
            .column(0)
            .iter()
            .zip(t.column(1))
            .filter(|&(&a, &b)| (2..=5).contains(&a) && b <= 3)
            .count() as u64;
        assert_eq!(catalog.count(&t, &preds), want);
    }

    #[test]
    fn spec_roundtrip_rebuilds_identically() {
        let t = table();
        let catalog = Catalog::for_table(&t, 2);
        let spec = catalog.spec();
        let rebuilt = Catalog::from_spec(&t, None, &spec).unwrap();
        assert_eq!(rebuilt.spec(), spec);
        assert_eq!(rebuilt.num_groups(), catalog.num_groups());
        let p = RangePred {
            attr: 1,
            lo: 3,
            hi: 9,
        };
        assert_eq!(rebuilt.count(&t, &[p]), catalog.count(&t, &[p]));
    }

    #[test]
    fn from_spec_rejects_bad_specs() {
        let t = table();
        let good = Catalog::for_table(&t, 2).spec();
        let skew = CatalogSpec {
            version: CATALOG_VERSION + 1,
            ..good.clone()
        };
        assert!(Catalog::from_spec(&t, None, &skew)
            .unwrap_err()
            .contains("version"));
        let GroupingSpec::Blocks { block_rows, perm } = good.grouping.clone() else {
            unreachable!();
        };
        let mut dup = perm.clone();
        dup[0] = dup[1];
        let bad = CatalogSpec {
            grouping: GroupingSpec::Blocks {
                block_rows,
                perm: dup,
            },
            ..good.clone()
        };
        assert!(Catalog::from_spec(&t, None, &bad)
            .unwrap_err()
            .contains("permutation"));
        let short = CatalogSpec {
            grouping: GroupingSpec::Blocks {
                block_rows,
                perm: perm[..perm.len() - 1].to_vec(),
            },
            ..good.clone()
        };
        assert!(Catalog::from_spec(&t, None, &short).is_err());
        let zero = CatalogSpec {
            grouping: GroupingSpec::Blocks {
                block_rows: 0,
                perm,
            },
            ..good
        };
        assert!(Catalog::from_spec(&t, None, &zero)
            .unwrap_err()
            .contains("positive"));
        assert!(Catalog::from_spec(
            &t,
            None,
            &CatalogSpec {
                version: CATALOG_VERSION,
                grouping: GroupingSpec::Ecs,
                covered: vec![0, 1, 2],
            }
        )
        .unwrap_err()
        .contains("partition"));
    }
}
