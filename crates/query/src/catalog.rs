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
//! * prefix counts of every covered attribute over that extent (per-group
//!   SA histograms in cumulative form), so one straddling predicate — and
//!   every surviving EC of a generalized estimate — resolves with two
//!   loads and a subtraction, `O(1)`;
//!
//! plus, per covered attribute, a global **prefix-sum** table over the
//! attribute's domain (single-predicate queries answer in `O(1)`) and
//! value→group **posting lists** (narrow predicates enumerate candidate
//! groups without touching the rest).
//!
//! The planner ([`Catalog::plan`]) splits a query's predicates into the
//! catalog-covered part — resolved from summaries — and a *residual* part
//! that falls back to scanning only the rows of groups the covered part
//! could not decide. Answers are bit-identical to the scan path because
//! exact counts are integers, and the estimate paths replay the exact
//! float operations of [`GeneralizedView::estimate`],
//! [`estimate_perturbed`] and [`estimate_anatomy`] — skipping only terms
//! that are provably `+0.0` (adding `+0.0` to a non-negative total is a
//! bitwise no-op) or groups the scan path itself skips.
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

/// Widest predicate (in domain cells) the planner will expand through
/// posting lists when enumerating candidate groups; wider predicates fall
/// back to testing every group's extent.
const POSTING_FANOUT: u32 = 8;

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
/// posting lists, prefix sums — is rebuilt deterministically on restore.
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
/// metrics registry. Groups the posting lists prune *before* the extent
/// check are never classified (they were never candidates).
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

/// One unit of the parallel build: extents, prefix-count runs and run
/// offsets (relative to `counts`) for consecutive groups.
#[derive(Debug, Default)]
struct BuiltGroups {
    extents: Vec<(u32, u32)>,
    counts: Vec<u32>,
    offsets: Vec<usize>,
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
    /// Per-group prefix counts. For the pair `i = g * covered.len() + ci`
    /// with extent `[lo, hi]`, `counts[offsets[i] + k]` is the number of
    /// group `g`'s rows whose code of covered attribute `ci` is
    /// `< lo + k`, for `k` in `0..=hi - lo + 1` (an empty group stores one
    /// `0`). Memory: `Σ_g (w_g + 2)` entries per covered attribute, where
    /// `w_g = hi - lo` is the width of group `g`'s extent — the same order
    /// as the posting lists below, which hold `Σ_g (w_g + 1)`.
    counts: Vec<u32>,
    /// Start of each (group, covered attribute) pair's run in `counts`,
    /// indexed like `extents`.
    offsets: Vec<usize>,
    /// `postings[ci][v]`: ids of groups whose extent of covered attribute
    /// `ci` contains value `v`, ascending.
    postings: Vec<Vec<Vec<u32>>>,
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
        let mut total = 0u64;
        'groups: for g in self.candidates(&covered) {
            let ext = self.group_extents(g);
            let mut straddle: Vec<(usize, RangePred)> = Vec::new();
            for &(ci, p) in &covered {
                let (lo, hi) = ext[ci];
                if p.hi < lo || p.lo > hi {
                    tally.disjoint += 1;
                    continue 'groups;
                }
                if !(p.lo <= lo && p.hi >= hi) {
                    straddle.push((ci, p));
                }
            }
            total += match (straddle.as_slice(), res_cols.is_empty()) {
                // Every covered predicate spans the group: count it whole.
                ([], true) => {
                    tally.full_cover += 1;
                    self.group_rows(g).len() as u64
                }
                // One straddling predicate: read its per-group prefix counts.
                ([(ci, p)], true) => {
                    tally.straddle += 1;
                    u64::from(self.range_count(g, *ci, p.lo, p.hi))
                }
                // Residual scan over this group's rows only.
                _ => {
                    tally.residual_scan += 1;
                    let cols: Vec<(&[u32], RangePred)> = straddle
                        .iter()
                        .map(|&(_, p)| (table.column(p.attr), p))
                        .chain(res_cols.iter().copied())
                        .collect();
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
        let sa_ci = self.qi_len;
        let mut tally = PlanTally::default();
        let mut total = 0.0;
        'groups: for g in 0..self.num_groups() {
            let ext = self.group_extents(g);
            for &(pos, p) in &positions {
                let (lo, hi) = ext[pos];
                if p.hi < lo || p.lo > hi {
                    // The scan path computes frac = 0.0 and `continue`s.
                    tally.disjoint += 1;
                    continue 'groups;
                }
            }
            let (slo, shi) = ext[sa_ci];
            if query.sa_pred.hi < slo || query.sa_pred.lo > shi {
                // The scan path adds frac × 0 = +0.0: skipping is bitwise
                // equivalent.
                tally.disjoint += 1;
                continue;
            }
            // Every surviving group resolves by the per-group SA prefix
            // counts below — a straddle in plan-classification terms.
            tally.straddle += 1;
            let mut frac = 1.0;
            for &(pos, p) in &positions {
                let (lo, hi) = ext[pos];
                let cells = (hi - lo + 1) as f64;
                let olo = lo.max(p.lo);
                let ohi = hi.min(p.hi);
                frac *= (ohi - olo + 1) as f64 / cells;
            }
            let matched = self.range_count(g, sa_ci, query.sa_pred.lo, query.sa_pred.hi);
            total += frac * f64::from(matched);
        }
        self.stats.flush(&tally);
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
        'groups: for g in self.candidates(&covered) {
            let ext = self.group_extents(g);
            let mut straddles = false;
            for &(ci, p) in &covered {
                let (lo, hi) = ext[ci];
                if p.hi < lo || p.lo > hi {
                    tally.disjoint += 1;
                    continue 'groups;
                }
                if !(p.lo <= lo && p.hi >= hi) {
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

    /// Candidate groups for a set of covered predicates: the posting
    /// lists of the narrowest predicate no wider than [`POSTING_FANOUT`]
    /// cells, merged ascending; every group when no predicate is that
    /// narrow. Ascending order is load-bearing for the estimate paths.
    fn candidates(&self, covered: &[(usize, RangePred)]) -> Vec<usize> {
        let narrow = covered
            .iter()
            .filter(|(_, p)| p.hi - p.lo < POSTING_FANOUT)
            .min_by_key(|(_, p)| p.hi - p.lo);
        match narrow {
            Some(&(ci, p)) => {
                let card = self.cards[ci];
                if p.lo >= card {
                    return Vec::new();
                }
                let mut ids: Vec<usize> = (p.lo..=p.hi.min(card - 1))
                    .flat_map(|v| self.postings[ci][v as usize].iter().map(|&g| g as usize))
                    .collect();
                ids.sort_unstable();
                ids.dedup();
                ids
            }
            None => (0..self.num_groups()).collect(),
        }
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
        let base = self.offsets[i];
        self.counts[base + (hi - elo) as usize + 1] - self.counts[base + (lo - elo) as usize]
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
    /// concatenated in group order; the posting lists and the global
    /// prefix sums then follow from the extents and runs alone.
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
        let num_groups = starts.len() - 1;
        let units = mini_rayon::par_chunks_map(&starts[..num_groups], BUILD_CHUNK, |u, unit| {
            let mut out = BuiltGroups::default();
            let mut codes: Vec<u32> = Vec::new();
            for g in u * BUILD_CHUNK..u * BUILD_CHUNK + unit.len() {
                let group = &rows[starts[g]..starts[g + 1]];
                for (col, widen) in cols.iter().zip(&widen) {
                    codes.clear();
                    codes.extend(group.iter().map(|&r| col[r as usize]));
                    let (mut lo, mut hi) = codes
                        .iter()
                        .fold((u32::MAX, 0), |(lo, hi), &v| (lo.min(v), hi.max(v)));
                    let base = out.counts.len();
                    out.offsets.push(base);
                    if lo > hi {
                        out.extents.push((lo, hi));
                        out.counts.push(0); // empty group
                        continue;
                    }
                    if let Some(h) = widen {
                        (lo, hi) = h.leaf_range(h.lca_of_leaves(lo, hi));
                    }
                    out.extents.push((lo, hi));
                    out.counts.resize(base + (hi - lo) as usize + 2, 0);
                    let run = &mut out.counts[base..];
                    for &v in &codes {
                        run[(v - lo) as usize + 1] += 1;
                    }
                    for k in 1..run.len() {
                        run[k] += run[k - 1];
                    }
                }
            }
            out
        });
        let mut extents = Vec::with_capacity(num_groups * stride);
        let mut counts = Vec::with_capacity(units.iter().map(|u| u.counts.len()).sum());
        let mut offsets = Vec::with_capacity(num_groups * stride);
        for unit in units {
            let base = counts.len();
            extents.extend(unit.extents);
            offsets.extend(unit.offsets.iter().map(|&o| base + o));
            counts.extend(unit.counts);
        }
        let mut postings = Vec::with_capacity(stride);
        let mut prefix = Vec::with_capacity(stride);
        for (ci, &card) in cards.iter().enumerate() {
            let mut lists: Vec<Vec<u32>> = vec![Vec::new(); card as usize];
            let mut sums = vec![0u64; card as usize + 1];
            for g in 0..num_groups {
                let i = g * stride + ci;
                let (lo, hi) = extents[i];
                if lo > hi {
                    continue; // empty group
                }
                // The run's differences are the group's histogram.
                let run = &counts[offsets[i]..];
                for v in lo..=hi.min(card - 1) {
                    lists[v as usize].push(g as u32);
                    let k = (v - lo) as usize;
                    sums[v as usize + 1] += u64::from(run[k + 1] - run[k]);
                }
            }
            for v in 0..card as usize {
                sums[v + 1] += sums[v];
            }
            postings.push(lists);
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
            postings,
            prefix,
            qi_len,
            alt_sa: None,
            stats: CatalogStats::default(),
        }
    }
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
            assert_eq!((&a.postings, &a.prefix), (&b.postings, &b.prefix));
            assert_eq!(
                a.alt_sa.as_ref().map(|o| &o.hists),
                b.alt_sa.as_ref().map(|o| &o.hists)
            );
        }
        assert_eq!(answers(&serial), answers(&parallel));
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
