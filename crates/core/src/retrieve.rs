//! EC materialization — BUREL's `Retrieve` (Section 4.5).
//!
//! Once `biSplit` has fixed how many tuples each EC draws from each bucket,
//! actual tuples are chosen purely by QI proximity (the selection is
//! *SA-indifferent* within a bucket, which is what makes BUREL immune to
//! minimality attacks, Section 7). The paper's heuristic, reproduced here:
//!
//! 1. map every tuple to a 1-D Hilbert value over the QI grid;
//! 2. sort each bucket's tuples by Hilbert value;
//! 3. per EC: pick a seed tuple from the bucket with the largest demand,
//!    then take each bucket's `a_j` tuples *nearest to the seed's Hilbert
//!    value* (binary search + two-sided expansion).
//!
//! Removal from the sorted order uses union-find-style "jump pointers" with
//! path compression, so finding the nearest *alive* tuple after arbitrary
//! deletions stays effectively O(1) amortized — the overall materialization
//! is `O(|SG|·|ϕ|·log |B| + |DB| α(|DB|))`, matching the complexity the
//! paper reports for the same step.

use betalike_hilbert::{HilbertCurve, KeyKernel};
use betalike_microdata::{RowId, Table};
use rand::Rng;

/// How tuples are assigned to ECs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FillStrategy {
    /// The paper's Hilbert-locality heuristic.
    #[default]
    HilbertNearest,
    /// Draw tuples in original row order, ignoring QI proximity entirely —
    /// the ablation baseline quantifying what Hilbert locality buys.
    Arbitrary,
}

/// How the seed tuple of each EC is chosen under
/// [`FillStrategy::HilbertNearest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SeedChoice {
    /// The first not-yet-assigned tuple (in Hilbert order) of the
    /// largest-demand bucket, turning the per-EC nearest-neighbor search
    /// into a sweep along the curve. Attractive in theory (disjoint curve
    /// segments), but when bucket composition varies across QI space the
    /// sweep accumulates "debt" — regions whose rare-bucket tuples were
    /// consumed early — and dumps it on the final ECs, inflating the AIL
    /// tail. Kept for the ablation bench.
    FirstAlive,
    /// A uniformly random not-yet-assigned tuple of the largest-demand
    /// bucket — the paper's literal description ("randomly picks a tuple x
    /// from a bucket"). Spreads the unavoidable far-fetch damage evenly and
    /// measures ~35% lower AIL than the sweep on CENSUS; the default.
    #[default]
    Random,
}

/// Row-chunk granularity for the parallel Hilbert key computation: large
/// enough that per-chunk scratch setup and result concatenation are noise,
/// small enough that the self-scheduling pool balances uneven chunks.
const KEY_CHUNK: usize = 4_096;

/// Computes the Hilbert key of every row over the QI grid.
///
/// All QI attributes share the same per-dimension bit width (the Hilbert
/// transform requires a uniform grid), sized for the largest QI domain.
/// Codes of smaller domains are *scaled across the full grid side* so every
/// attribute occupies the curve's high-order bits equally — without this, a
/// cardinality-2 attribute such as *gender* would live in the lowest bit
/// and the curve would freely mix its values inside every EC, inflating the
/// published bounding boxes.
///
/// The scaling is tabulated once per attribute (one `u32` per domain
/// code), and rows go through the bulk [`KeyKernel`] in fixed chunks
/// across the [`mini_rayon`] pool. The result is bit-identical at any
/// thread count (each key depends only on its row).
pub fn hilbert_keys(table: &Table, qi: &[usize]) -> Vec<u128> {
    assert!(!qi.is_empty(), "need at least one QI attribute");
    let bits = qi
        .iter()
        .map(|&a| HilbertCurve::bits_for_cardinality(table.schema().attr(a).cardinality()))
        .max()
        .expect("non-empty QI");
    let curve = HilbertCurve::new(qi.len(), bits).expect("QI grid fits the curve");
    let side = curve.max_coord() as u64;
    // Per-dimension scale: code v of cardinality c maps to
    // round(v · side / (c − 1)); the one code of a constant attribute
    // maps to 0.
    let coords: Vec<Vec<u32>> = qi
        .iter()
        .map(|&a| {
            let c = table.schema().attr(a).cardinality() as u64;
            let denom = c.saturating_sub(1).max(1);
            (0..c)
                .map(|v| ((v * side + denom / 2) / denom) as u32)
                .collect()
        })
        .collect();
    let kernel = KeyKernel::new(curve, coords);
    let cols: Vec<&[u32]> = qi.iter().map(|&a| table.column(a)).collect();
    // Chunk over any one column purely to derive row ranges: chunk `c`
    // covers rows `c * KEY_CHUNK ..` (the boundary contract of
    // `par_chunks_map`).
    let chunks = mini_rayon::par_chunks_map(cols[0], KEY_CHUNK, |c, chunk| {
        let base = c * KEY_CHUNK;
        let mut keys = Vec::with_capacity(chunk.len());
        kernel.extend_keys(&cols, base..base + chunk.len(), &mut keys);
        keys
    });
    let mut out = Vec::with_capacity(table.num_rows());
    for chunk in chunks {
        out.extend(chunk);
    }
    out
}

/// One bucket's tuples in Hilbert order with O(1)-amortized alive-neighbor
/// queries after deletions.
#[derive(Debug)]
struct BucketStore {
    /// Hilbert keys, ascending.
    keys: Vec<u128>,
    /// Row ids aligned with `keys`.
    rows: Vec<RowId>,
    alive: Vec<bool>,
    /// `next_jump[i]`: candidate alive index ≥ i (find-with-compression).
    /// Length `len + 1`; index `len` is the "none" sentinel.
    next_jump: Vec<u32>,
    /// `prev_jump[i+1]`: candidate alive index ≤ i, with slot 0 = "none".
    prev_jump: Vec<u32>,
    remaining: usize,
}

impl BucketStore {
    /// Builds a store from the bucket's rows and a key function, sorting by
    /// `(key, row)` without materializing a temporary `(key, row)` pair
    /// vector (the keyed-entry form [`BucketStore::new`] takes exists for
    /// the differential tests).
    fn from_rows(bucket: &[RowId], key_of: impl Fn(RowId) -> u128) -> Self {
        let mut rows: Vec<RowId> = bucket.to_vec();
        rows.sort_unstable_by(|&a, &b| key_of(a).cmp(&key_of(b)).then(a.cmp(&b)));
        let n = rows.len();
        let keys = rows.iter().map(|&r| key_of(r)).collect();
        BucketStore {
            keys,
            rows,
            alive: vec![true; n],
            next_jump: (0..=n as u32).collect(),
            prev_jump: (0..=n as u32).collect(),
            remaining: n,
        }
    }

    #[cfg(test)]
    fn new(mut entries: Vec<(u128, RowId)>) -> Self {
        entries.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
        let n = entries.len();
        let keys = entries.iter().map(|e| e.0).collect();
        let rows = entries.iter().map(|e| e.1).collect();
        BucketStore {
            keys,
            rows,
            alive: vec![true; n],
            next_jump: (0..=n as u32).collect(),
            prev_jump: (0..=n as u32).collect(),
            remaining: n,
        }
    }

    fn len(&self) -> usize {
        self.keys.len()
    }

    /// Smallest alive index ≥ `i`, or `len()` if none.
    fn find_next(&mut self, i: usize) -> usize {
        let n = self.len();
        let mut cur = i.min(n);
        // Chase jump pointers to an alive slot (or the sentinel).
        while cur < n && !self.alive[cur] {
            cur = self.next_jump[cur] as usize;
        }
        // Path-compress the chain just walked.
        let root = cur as u32;
        let mut walk = i.min(n);
        while walk < n && !self.alive[walk] {
            let nxt = self.next_jump[walk] as usize;
            self.next_jump[walk] = root;
            walk = nxt;
        }
        cur
    }

    /// Largest alive index ≤ `i`, or `len()` (sentinel) if none.
    ///
    /// Internally `prev_jump` is offset by one so slot 0 encodes "none".
    fn find_prev(&mut self, i: usize) -> usize {
        let n = self.len();
        let mut cur = (i.min(n.wrapping_sub(1)).wrapping_add(1)).min(n);
        if n == 0 {
            return n;
        }
        while cur > 0 && !self.alive[cur - 1] {
            cur = self.prev_jump[cur - 1] as usize;
        }
        let root = cur as u32;
        let mut walk = (i + 1).min(n);
        while walk > 0 && !self.alive[walk - 1] {
            let nxt = self.prev_jump[walk - 1] as usize;
            self.prev_jump[walk - 1] = root;
            walk = nxt;
        }
        if cur == 0 {
            n
        } else {
            cur - 1
        }
    }

    fn kill(&mut self, i: usize) {
        debug_assert!(self.alive[i]);
        self.alive[i] = false;
        self.next_jump[i] = i as u32 + 1;
        self.prev_jump[i] = i as u32; // slot i encodes index i-1 … offset form
        self.remaining -= 1;
    }

    /// Removes and returns the `k` alive tuples whose keys are nearest to
    /// `seed`, by two-sided expansion from the binary-search position.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `k` tuples remain — templates are sized to the
    /// bucket totals, so this indicates an internal accounting bug.
    fn take_nearest(&mut self, seed: u128, k: usize, out: &mut Vec<RowId>) {
        assert!(
            k <= self.remaining,
            "template draws {k} tuples but only {} remain",
            self.remaining
        );
        let start = self.keys.partition_point(|&key| key < seed);
        let mut right = self.find_next(start);
        let mut left = if start == 0 {
            self.len()
        } else {
            self.find_prev(start - 1)
        };
        let n = self.len();
        for _ in 0..k {
            let pick_right = match (left == n, right == n) {
                (true, true) => unreachable!("remaining invariant guarantees a candidate"),
                (true, false) => true,
                (false, true) => false,
                (false, false) => {
                    let dr = self.keys[right] - seed;
                    let dl = seed - self.keys[left];
                    dr <= dl
                }
            };
            if pick_right {
                out.push(self.rows[right]);
                self.kill(right);
                right = self.find_next(right + 1);
            } else {
                out.push(self.rows[left]);
                self.kill(left);
                left = if left == 0 {
                    n
                } else {
                    self.find_prev(left - 1)
                };
            }
        }
    }

    /// Removes and returns the first `k` alive tuples in storage order.
    fn take_in_order(&mut self, k: usize, out: &mut Vec<RowId>) {
        assert!(k <= self.remaining);
        let mut cur = self.find_next(0);
        for _ in 0..k {
            debug_assert!(cur < self.len());
            out.push(self.rows[cur]);
            self.kill(cur);
            cur = self.find_next(cur + 1);
        }
    }

    /// A uniformly random alive index, if any.
    fn random_alive(&mut self, rng: &mut impl Rng) -> Option<usize> {
        if self.remaining == 0 {
            return None;
        }
        let n = self.len();
        let probe = rng.gen_range(0..n);
        let next = self.find_next(probe);
        if next < n {
            Some(next)
        } else {
            let prev = self.find_prev(probe);
            (prev < n).then_some(prev)
        }
    }
}

/// Materializes ECs from templates by drawing QI-near tuples per bucket.
#[derive(Debug)]
pub struct Materializer {
    buckets: Vec<BucketStore>,
    strategy: FillStrategy,
    seed_choice: SeedChoice,
}

impl Materializer {
    /// Builds the per-bucket stores.
    ///
    /// `bucket_rows[j]` lists the rows of bucket `j`; `keys` are the
    /// precomputed Hilbert keys (from [`hilbert_keys`]). Under
    /// [`FillStrategy::Arbitrary`] the Hilbert keys are ignored and tuples
    /// are stored (and later consumed) in original row order.
    pub fn new(keys: &[u128], bucket_rows: &[Vec<RowId>], strategy: FillStrategy) -> Self {
        Self::with_seed_choice(keys, bucket_rows, strategy, SeedChoice::default())
    }

    /// Like [`Materializer::new`] with an explicit EC-seed policy.
    ///
    /// Buckets are independent, so their stores are built (and their
    /// Hilbert orders sorted) across the [`mini_rayon`] pool; the bucket
    /// order — and therefore every downstream draw — is identical at any
    /// thread count.
    pub fn with_seed_choice(
        keys: &[u128],
        bucket_rows: &[Vec<RowId>],
        strategy: FillStrategy,
        seed_choice: SeedChoice,
    ) -> Self {
        let buckets = mini_rayon::par_map(bucket_rows, |rows| {
            BucketStore::from_rows(rows, |r| match strategy {
                FillStrategy::HilbertNearest => keys[r],
                FillStrategy::Arbitrary => r as u128,
            })
        });
        Materializer {
            buckets,
            strategy,
            seed_choice,
        }
    }

    /// Number of tuples not yet assigned to an EC.
    pub fn remaining(&self) -> usize {
        self.buckets.iter().map(|b| b.remaining).sum()
    }

    /// Materializes one EC according to `template` (per-bucket counts).
    ///
    /// # Panics
    ///
    /// Panics if the template is empty or over-draws a bucket (both are
    /// internal errors: `biSplit` conserves bucket totals).
    pub fn fill(&mut self, template: &[u64], rng: &mut impl Rng) -> Vec<RowId> {
        assert_eq!(
            template.len(),
            self.buckets.len(),
            "template arity mismatch"
        );
        let size: u64 = template.iter().sum();
        assert!(size > 0, "template materializes an empty EC");
        let mut out = Vec::with_capacity(size as usize);
        match self.strategy {
            FillStrategy::Arbitrary => {
                for (j, &k) in template.iter().enumerate() {
                    self.buckets[j].take_in_order(k as usize, &mut out);
                }
            }
            FillStrategy::HilbertNearest => {
                // Seed: a tuple from the bucket with the largest demand
                // (ties to the lowest index).
                let seed_bucket = template
                    .iter()
                    .enumerate()
                    .max_by_key(|&(j, &k)| (k, std::cmp::Reverse(j)))
                    .map(|(j, _)| j)
                    .expect("non-empty template");
                let seed_idx = match self.seed_choice {
                    SeedChoice::FirstAlive => {
                        let idx = self.buckets[seed_bucket].find_next(0);
                        debug_assert!(idx < self.buckets[seed_bucket].len());
                        idx
                    }
                    SeedChoice::Random => self.buckets[seed_bucket]
                        .random_alive(rng)
                        .expect("seed bucket has remaining tuples"),
                };
                let seed_key = self.buckets[seed_bucket].keys[seed_idx];
                for (j, &k) in template.iter().enumerate() {
                    self.buckets[j].take_nearest(seed_key, k as usize, &mut out);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn store(keys: &[u128]) -> BucketStore {
        BucketStore::new(keys.iter().enumerate().map(|(i, &k)| (k, i)).collect())
    }

    #[test]
    fn find_next_prev_after_kills() {
        let mut s = store(&[10, 20, 30, 40, 50]);
        assert_eq!(s.find_next(0), 0);
        s.kill(0);
        s.kill(1);
        assert_eq!(s.find_next(0), 2);
        assert_eq!(s.find_prev(1), 5, "nothing alive at or before 1");
        assert_eq!(s.find_prev(4), 4);
        s.kill(4);
        assert_eq!(s.find_prev(4), 3);
        s.kill(2);
        s.kill(3);
        assert_eq!(s.find_next(0), 5, "all dead -> sentinel");
        assert_eq!(s.find_prev(4), 5);
        assert_eq!(s.remaining, 0);
    }

    #[test]
    fn take_nearest_prefers_close_keys() {
        // Keys 0,10,20,30,40; seed 22 -> nearest 20, then 30, then 10.
        let mut s = store(&[0, 10, 20, 30, 40]);
        let mut out = Vec::new();
        s.take_nearest(22, 3, &mut out);
        // rows are the original positions of the keys.
        assert_eq!(out, vec![2, 3, 1]);
        assert_eq!(s.remaining, 2);
        // Remaining draws take the rest.
        let mut rest = Vec::new();
        s.take_nearest(22, 2, &mut rest);
        let mut all = rest.clone();
        all.sort_unstable();
        assert_eq!(all, vec![0, 4]);
    }

    #[test]
    fn take_nearest_tie_prefers_right() {
        let mut s = store(&[10, 30]);
        let mut out = Vec::new();
        s.take_nearest(20, 1, &mut out);
        // Equal distance: right side wins by the `dr <= dl` rule.
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn take_nearest_exact_hit() {
        let mut s = store(&[5, 7, 9]);
        let mut out = Vec::new();
        s.take_nearest(7, 2, &mut out);
        assert_eq!(out[0], 1, "exact key match drawn first");
    }

    #[test]
    #[should_panic(expected = "only 2 remain")]
    fn take_nearest_overdraw_panics() {
        let mut s = store(&[1, 2]);
        let mut out = Vec::new();
        s.take_nearest(0, 3, &mut out);
    }

    #[test]
    fn take_in_order_sweeps() {
        let mut s = store(&[30, 10, 20]);
        // Sorted order is 10(row1), 20(row2), 30(row0).
        let mut out = Vec::new();
        s.take_in_order(2, &mut out);
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn random_alive_finds_survivors() {
        let mut s = store(&[1, 2, 3]);
        s.kill(1);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for _ in 0..20 {
            let idx = s.random_alive(&mut rng).unwrap();
            assert!(idx == 0 || idx == 2);
        }
        s.kill(0);
        s.kill(2);
        assert!(s.random_alive(&mut rng).is_none());
    }

    #[test]
    fn materializer_consumes_everything() {
        // Two buckets of 3 and 2 tuples; templates [2,1] and [1,1].
        let keys: Vec<u128> = vec![5, 1, 9, 4, 7];
        let buckets = vec![vec![0, 1, 2], vec![3, 4]];
        let mut m = Materializer::new(&keys, &buckets, FillStrategy::HilbertNearest);
        assert_eq!(m.remaining(), 5);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let ec1 = m.fill(&[2, 1], &mut rng);
        assert_eq!(ec1.len(), 3);
        let ec2 = m.fill(&[1, 1], &mut rng);
        assert_eq!(ec2.len(), 2);
        assert_eq!(m.remaining(), 0);
        // Every row assigned exactly once.
        let mut all: Vec<RowId> = ec1.into_iter().chain(ec2).collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn arbitrary_strategy_also_covers() {
        let keys: Vec<u128> = (0..10).map(|i| (i * 37 % 11) as u128).collect();
        let buckets = vec![vec![0, 2, 4, 6, 8], vec![1, 3, 5, 7, 9]];
        let mut m = Materializer::new(&keys, &buckets, FillStrategy::Arbitrary);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut all = Vec::new();
        all.extend(m.fill(&[3, 2], &mut rng));
        all.extend(m.fill(&[2, 3], &mut rng));
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
    }

    /// Differential reference for [`BucketStore`]: a naive Vec-scan
    /// implementation of the same operations.
    struct NaiveStore {
        entries: Vec<(u128, RowId, bool)>, // key, row, alive — sorted by key
    }

    impl NaiveStore {
        fn new(keys: &[u128]) -> Self {
            let mut entries: Vec<(u128, RowId, bool)> = keys
                .iter()
                .enumerate()
                .map(|(i, &k)| (k, i, true))
                .collect();
            entries.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
            NaiveStore { entries }
        }

        fn take_nearest(&mut self, seed: u128, k: usize) -> Vec<RowId> {
            let mut out = Vec::new();
            for _ in 0..k {
                // Nearest alive by |key − seed|, ties to the right (the
                // production rule `dr <= dl`), then by position.
                let mut best: Option<(u128, bool, usize)> = None; // (dist, is_left, idx)
                for (idx, &(key, _, alive)) in self.entries.iter().enumerate() {
                    if !alive {
                        continue;
                    }
                    let (dist, is_left) = if key >= seed {
                        (key - seed, false)
                    } else {
                        (seed - key, true)
                    };
                    // Right wins ties between sides; among same side the
                    // two-pointer reaches the *nearest in sorted order*
                    // first: the largest index on the left, the smallest on
                    // the right.
                    let better = match best {
                        None => true,
                        Some((bd, bleft, bidx)) => {
                            dist < bd
                                || (dist == bd
                                    && match (bleft, is_left) {
                                        (true, false) => true,
                                        (false, true) => false,
                                        (true, true) => idx > bidx,
                                        (false, false) => idx < bidx,
                                    })
                        }
                    };
                    if better {
                        best = Some((dist, is_left, idx));
                    }
                }
                let (_, _, idx) = best.expect("k <= alive");
                self.entries[idx].2 = false;
                out.push(self.entries[idx].1);
            }
            out
        }
    }

    use proptest::prelude::*;

    proptest! {
        /// The jump-pointer store and the naive reference pick identical
        /// tuples for arbitrary interleavings of draws.
        #[test]
        fn bucket_store_matches_naive(
            keys in proptest::collection::vec(0u128..64, 1..24),
            ops in proptest::collection::vec((0u128..64, 1usize..4), 1..8),
        ) {
            let mut fast = store(&keys);
            let mut naive = NaiveStore::new(&keys);
            let mut remaining = keys.len();
            for (seed, k) in ops {
                let k = k.min(remaining);
                if k == 0 {
                    break;
                }
                let mut out = Vec::new();
                fast.take_nearest(seed, k, &mut out);
                let expected = naive.take_nearest(seed, k);
                // Same *set* per draw (order within a draw can differ when
                // equal keys flank the seed).
                let mut a = out.clone();
                let mut b = expected.clone();
                a.sort_unstable();
                b.sort_unstable();
                prop_assert_eq!(a, b, "seed {} k {}", seed, k);
                remaining -= k;
            }
        }
    }

    #[test]
    fn hilbert_keys_thread_invariant() {
        use betalike_microdata::synthetic::{random_table, SyntheticConfig};
        let _lock = crate::threads_test_lock();
        let t = random_table(&SyntheticConfig {
            rows: 10_000,
            qi_attrs: 3,
            qi_cardinality: 32,
            seed: 11,
            ..Default::default()
        });
        mini_rayon::set_threads(1);
        let serial = hilbert_keys(&t, &[0, 1, 2]);
        mini_rayon::set_threads(8);
        let parallel = hilbert_keys(&t, &[0, 1, 2]);
        mini_rayon::set_threads(0);
        assert_eq!(serial, parallel);
    }

    /// The tabulated scaling and the bulk kernel reproduce, row by row,
    /// the per-value division and the reference transform.
    #[test]
    fn hilbert_keys_match_the_reference_transform() {
        use betalike_microdata::census::{census_schema, generate, CensusConfig};
        let t = generate(&CensusConfig::new(3_000, 9));
        let schema = census_schema();
        for qi in [vec![0], vec![1, 3], vec![0, 1, 2], vec![0, 1, 2, 3, 4]] {
            let cards: Vec<u64> = qi
                .iter()
                .map(|&a| schema.attr(a).cardinality() as u64)
                .collect();
            let bits = cards
                .iter()
                .map(|&c| HilbertCurve::bits_for_cardinality(c as usize))
                .max()
                .unwrap();
            let curve = HilbertCurve::new(qi.len(), bits).unwrap();
            let side = curve.max_coord() as u64;
            let keys = hilbert_keys(&t, &qi);
            for (r, &key) in keys.iter().enumerate() {
                let point: Vec<u32> = qi
                    .iter()
                    .zip(&cards)
                    .map(|(&a, &c)| {
                        let v = t.value(r, a) as u64;
                        ((v * side + (c - 1) / 2) / (c - 1)) as u32
                    })
                    .collect();
                assert_eq!(key, curve.index(&point), "qi {qi:?} row {r}");
            }
        }
    }

    #[test]
    fn hilbert_keys_reflect_locality() {
        use betalike_microdata::synthetic::{random_table, SyntheticConfig};
        let t = random_table(&SyntheticConfig {
            rows: 100,
            qi_attrs: 2,
            qi_cardinality: 16,
            seed: 4,
            ..Default::default()
        });
        let keys = hilbert_keys(&t, &[0, 1]);
        assert_eq!(keys.len(), 100);
        // Identical QI points get identical keys.
        for a in 0..100 {
            for b in 0..100 {
                if t.value(a, 0) == t.value(b, 0) && t.value(a, 1) == t.value(b, 1) {
                    assert_eq!(keys[a], keys[b]);
                }
            }
        }
    }
}
