//! Publishing a table as a set of equivalence classes.
//!
//! A [`Partition`] records which rows of an original table form each EC,
//! plus the QI attribute set and the SA index the publication refers to.
//! The generalized form of an EC (one code range per QI attribute — a value
//! interval for numeric attributes, a hierarchy subtree for categorical
//! ones) is derived on demand from the original table; storing row ids keeps
//! the type cheap and lets auditors access exact values.

use betalike_microdata::{RowId, SaDistribution, Table, Value};

/// A full-cover, disjoint grouping of a table's rows into equivalence
/// classes, as produced by generalization-based anonymizers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    qi: Vec<usize>,
    sa: usize,
    ecs: Vec<Vec<RowId>>,
}

impl Partition {
    /// Creates a partition from EC row lists.
    ///
    /// # Panics
    ///
    /// Panics if any EC is empty or `qi` contains `sa` — both are
    /// construction bugs in an anonymizer, not runtime conditions.
    pub fn new(qi: Vec<usize>, sa: usize, ecs: Vec<Vec<RowId>>) -> Self {
        assert!(
            ecs.iter().all(|ec| !ec.is_empty()),
            "partitions must not contain empty ECs"
        );
        assert!(!qi.contains(&sa), "the SA cannot be part of the QI set");
        Partition { qi, sa, ecs }
    }

    /// QI attribute indices this publication generalizes.
    #[inline]
    pub fn qi(&self) -> &[usize] {
        &self.qi
    }

    /// Sensitive-attribute index.
    #[inline]
    pub fn sa(&self) -> usize {
        self.sa
    }

    /// The equivalence classes (row-id lists).
    #[inline]
    pub fn ecs(&self) -> &[Vec<RowId>] {
        &self.ecs
    }

    /// Number of equivalence classes.
    #[inline]
    pub fn num_ecs(&self) -> usize {
        self.ecs.len()
    }

    /// Total number of rows across all ECs.
    pub fn num_rows(&self) -> usize {
        self.ecs.iter().map(Vec::len).sum()
    }

    /// Size of the smallest EC (the k of k-anonymity the publication
    /// incidentally provides). `None` for an empty partition.
    pub fn min_ec_size(&self) -> Option<usize> {
        self.ecs.iter().map(Vec::len).min()
    }

    /// Checks that every row in `0..n_rows` occurs in exactly one EC.
    ///
    /// # Errors
    ///
    /// Describes the first violation found (duplicate, out-of-range, or
    /// missing row).
    pub fn validate_cover(&self, n_rows: usize) -> Result<(), String> {
        let mut seen = vec![false; n_rows];
        for (i, ec) in self.ecs.iter().enumerate() {
            for &r in ec {
                if r >= n_rows {
                    return Err(format!("EC {i} references row {r} >= {n_rows}"));
                }
                if seen[r] {
                    return Err(format!("row {r} occurs in more than one EC"));
                }
                seen[r] = true;
            }
        }
        if let Some(missing) = seen.iter().position(|&s| !s) {
            return Err(format!("row {missing} is not covered by any EC"));
        }
        Ok(())
    }

    /// The generalized QI extent of one EC: `(lo, hi)` code per QI
    /// attribute, in `self.qi()` order.
    ///
    /// # Panics
    ///
    /// Panics if `ec` is out of bounds (ECs are never empty by
    /// construction).
    pub fn ec_extent(&self, table: &Table, ec: usize) -> Vec<(Value, Value)> {
        self.qi
            .iter()
            .map(|&a| {
                table
                    .code_extent(a, &self.ecs[ec])
                    .expect("ECs are non-empty by construction")
            })
            .collect()
    }

    /// SA histogram of one EC.
    pub fn ec_distribution(&self, table: &Table, ec: usize) -> SaDistribution {
        table.sa_distribution_of(self.sa, &self.ecs[ec])
    }

    /// SA histograms of every EC.
    pub fn ec_distributions(&self, table: &Table) -> Vec<SaDistribution> {
        (0..self.ecs.len())
            .map(|i| self.ec_distribution(table, i))
            .collect()
    }

    /// Merges EC `src` into EC `dst` and removes `src`.
    ///
    /// Used by enforcement passes (e.g. the SABRE baseline's final merge
    /// step); by the monotonicity property (Lemma 1 of the paper) merging
    /// can only shrink the β achieved by the merged class.
    ///
    /// # Panics
    ///
    /// Panics if `src == dst` or either index is out of bounds.
    pub fn merge_ecs(&mut self, dst: usize, src: usize) {
        assert_ne!(dst, src, "cannot merge an EC into itself");
        let moved = std::mem::take(&mut self.ecs[src]);
        self.ecs[dst].extend(moved);
        self.ecs.swap_remove(src);
    }
}

/// Shares a copy of a borrowed partition, so APIs that keep a partition
/// (`Arc<Partition>`) also accept a `&Partition`.
impl From<&Partition> for std::sync::Arc<Partition> {
    fn from(p: &Partition) -> Self {
        std::sync::Arc::new(p.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use betalike_microdata::patients::{self, patients_table};

    fn two_ec_partition() -> Partition {
        // The 3-diverse example of Section 2: G1 = first three tuples,
        // G2 = the rest.
        Partition::new(
            vec![patients::attr::WEIGHT, patients::attr::AGE],
            patients::attr::DISEASE,
            vec![vec![0, 1, 2], vec![3, 4, 5]],
        )
    }

    #[test]
    fn cover_validation() {
        let p = two_ec_partition();
        assert!(p.validate_cover(6).is_ok());
        assert!(p.validate_cover(7).unwrap_err().contains("not covered"));
        let dup = Partition::new(vec![0], 2, vec![vec![0, 1], vec![1]]);
        assert!(dup.validate_cover(2).unwrap_err().contains("more than one"));
        let oob = Partition::new(vec![0], 2, vec![vec![5]]);
        assert!(oob.validate_cover(2).unwrap_err().contains(">="));
    }

    #[test]
    #[should_panic(expected = "empty ECs")]
    fn empty_ec_rejected() {
        Partition::new(vec![0], 2, vec![vec![0], vec![]]);
    }

    #[test]
    #[should_panic(expected = "SA cannot be part")]
    fn sa_in_qi_rejected() {
        Partition::new(vec![0, 2], 2, vec![vec![0]]);
    }

    #[test]
    fn extents_and_distributions() {
        let t = patients_table();
        let p = two_ec_partition();
        // G1 = rows {0,1,2}: weights {70,60,50} -> codes (0,20); ages
        // {40,60,50} -> codes (0,20).
        let ext = p.ec_extent(&t, 0);
        assert_eq!(ext.len(), 2);
        let w = t.schema().attr(0);
        assert_eq!(w.numeric_value(ext[0].0), Some(50.0));
        assert_eq!(w.numeric_value(ext[0].1), Some(70.0));
        let d = p.ec_distribution(&t, 0);
        // G1 holds headache, epilepsy, brain tumors: codes 0..=2.
        assert_eq!(d.counts(), &[1, 1, 1, 0, 0, 0]);
        assert_eq!(p.ec_distributions(&t).len(), 2);
    }

    #[test]
    fn sizes() {
        let p = two_ec_partition();
        assert_eq!(p.num_ecs(), 2);
        assert_eq!(p.num_rows(), 6);
        assert_eq!(p.min_ec_size(), Some(3));
    }

    #[test]
    fn merge_ecs_moves_rows() {
        let mut p = Partition::new(vec![0], 2, vec![vec![0], vec![1, 2], vec![3]]);
        p.merge_ecs(0, 1);
        assert_eq!(p.num_ecs(), 2);
        assert_eq!(p.num_rows(), 4);
        assert!(p.ecs()[0].contains(&2));
        assert!(p.validate_cover(4).is_ok());
    }
}
