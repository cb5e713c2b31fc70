//! BTBL — the versioned binary columnar snapshot of a [`Table`].
//!
//! Layout (all integers little-endian, framing per [`crate::codec`]):
//!
//! ```text
//! "BTBL" version(u32)
//! "schema"  rows(u64) arity(u32) default_sa(u32)
//!           per attribute: name, tag(u8: 0 numeric | 1 categorical),
//!             numeric:     count(u32) + count × f64 domain values
//!             categorical: nodes(u32) + per node (pre-order):
//!                          parent(u32, MAX = root) + label
//! "col.i"   width(u8 ∈ {1,2,4}) + rows × width packed codes
//! "end"     (empty payload — truncation guard)
//! ```
//!
//! The categorical node list *is* the string dictionary: leaf labels are the
//! values the column's codes index, written once per attribute instead of
//! once per row. Column codes are packed at the narrowest width the
//! attribute's cardinality allows (1 byte for ≤ 256 values — every CENSUS
//! attribute — so a snapshot is ~4× smaller than the in-memory `Vec<u32>`
//! columns).
//!
//! Every section carries an FNV-1a checksum of its payload; the reader
//! verifies each before decoding, re-validates the schema and every code
//! against its domain (via [`Schema::new`] / [`Table::from_columns`]), and
//! reports truncation, corruption and version skew as structured
//! [`StoreError`]s naming the failing section.

use crate::codec::{read_prologue, write_prologue, Section, SectionWriter};
use crate::error::{Result, StoreError};
use betalike_microdata::hierarchy::NodeSpec;
use betalike_microdata::schema::AttrKind;
use betalike_microdata::{Attribute, Hierarchy, Schema, Table, Value};
use std::io::Write;
use std::sync::Arc;

/// The BTBL magic bytes.
pub const BTBL_MAGIC: &str = "BTBL";
/// Newest BTBL version this build writes and reads.
pub const BTBL_VERSION: u32 = 1;

/// Bytes per packed code for a domain of `cardinality` values.
fn code_width(cardinality: usize) -> u8 {
    if cardinality <= 1 << 8 {
        1
    } else if cardinality <= 1 << 16 {
        2
    } else {
        4
    }
}

/// Writes a table as a complete BTBL document.
///
/// # Errors
///
/// Propagates I/O failures; `Malformed` if the table exceeds format limits
/// (more than `u32::MAX` rows).
pub fn write_table<W: Write>(table: &Table, w: &mut W) -> Result<()> {
    if table.num_rows() > u32::MAX as usize {
        return Err(StoreError::malformed(
            "schema",
            "BTBL v1 holds at most 2^32 - 1 rows",
        ));
    }
    write_prologue(w, b"BTBL", BTBL_VERSION)?;

    let schema = table.schema();
    let mut s = SectionWriter::new("schema");
    s.u64(table.num_rows() as u64);
    s.u32(schema.arity() as u32);
    s.u32(schema.default_sa() as u32);
    for attr in schema.attributes() {
        s.str(attr.name());
        match attr.kind() {
            AttrKind::Numeric { values } => {
                s.u8(0);
                s.u32(values.len() as u32);
                for &v in values {
                    s.f64(v);
                }
            }
            AttrKind::Categorical { hierarchy } => {
                s.u8(1);
                s.u32(hierarchy.num_nodes() as u32);
                for node in 0..hierarchy.num_nodes() {
                    let parent = hierarchy.parent(node).map_or(u32::MAX, |p| p as u32);
                    s.u32(parent);
                    s.str(hierarchy.label(node));
                }
            }
        }
    }
    s.finish(w)?;

    for i in 0..schema.arity() {
        let width = code_width(schema.attr(i).cardinality());
        let mut c = SectionWriter::new(format!("col.{i}"));
        c.u8(width);
        for &v in table.column(i) {
            match width {
                1 => c.u8(v as u8),
                2 => c.bytes(&(v as u16).to_le_bytes()),
                _ => c.u32(v),
            }
        }
        c.finish(w)?;
    }

    SectionWriter::new("end").finish(w)?;
    Ok(())
}

/// Reads a complete BTBL document from an in-memory buffer back into a
/// validated [`Table`], decoding each section in place.
///
/// # Errors
///
/// Structured [`StoreError`]s: `BadMagic` / `VersionSkew` on a foreign or
/// newer file, `Truncated` / `Corrupt` naming the failing section,
/// `Malformed` when a section decodes but fails schema or domain
/// validation, and `Malformed` on trailing bytes after the document.
pub fn table_from_slice(mut bytes: &[u8]) -> Result<Table> {
    let r = &mut bytes;
    read_prologue(r, BTBL_MAGIC, BTBL_VERSION)?;
    let mut s = Section::expect(r, "schema")?;
    let rows = s.len64()?;
    let arity = s.u32()? as usize;
    let default_sa = s.u32()? as usize;
    let mut attrs = Vec::with_capacity(arity.min(1 << 16));
    for _ in 0..arity {
        let name = s.str()?;
        match s.u8()? {
            0 => {
                let count = s.u32()? as usize;
                let mut values = Vec::with_capacity(count.min(1 << 20));
                for _ in 0..count {
                    values.push(s.f64()?);
                }
                attrs.push(
                    Attribute::numeric(&name, values)
                        .map_err(|e| StoreError::malformed("schema", e))?,
                );
            }
            1 => {
                let hierarchy = read_hierarchy(&mut s)?;
                attrs.push(Attribute::categorical(&name, hierarchy));
            }
            tag => {
                return Err(StoreError::malformed(
                    "schema",
                    format!("unknown attribute tag {tag}"),
                ))
            }
        }
    }
    s.finish()?;
    let schema =
        Arc::new(Schema::new(attrs, default_sa).map_err(|e| StoreError::malformed("schema", e))?);

    let mut columns: Vec<Vec<Value>> = Vec::with_capacity(schema.arity());
    for i in 0..schema.arity() {
        let mut c = Section::expect(r, &format!("col.{i}"))?;
        let width = c.u8()?;
        // A crafted `rows` field fails as `Truncated` against the
        // (size-capped) payload before anything is allocated.
        let col = c.codes(rows, width)?;
        c.finish()?;
        columns.push(col);
    }
    Section::expect(r, "end")?.finish()?;
    if !r.is_empty() {
        return Err(StoreError::malformed(
            "end",
            format!("{} trailing bytes after the document", r.len()),
        ));
    }
    Table::from_columns(schema, columns).map_err(|e| StoreError::malformed("col", e))
}

/// Serializes the categorical dictionary: the hierarchy's pre-order
/// `(parent, label)` pairs uniquely determine the tree.
fn read_hierarchy(s: &mut Section) -> Result<Hierarchy> {
    let nodes = s.u32()? as usize;
    if nodes == 0 {
        return Err(StoreError::malformed("schema", "hierarchy has no nodes"));
    }
    let mut parents = Vec::with_capacity(nodes.min(1 << 20));
    let mut labels = Vec::with_capacity(nodes.min(1 << 20));
    for i in 0..nodes {
        let parent = s.u32()?;
        // Pre-order invariant: the root comes first, every other node's
        // parent precedes it.
        let ok = if i == 0 {
            parent == u32::MAX
        } else {
            (parent as usize) < i
        };
        if !ok {
            return Err(StoreError::malformed(
                "schema",
                format!("hierarchy node {i} has invalid parent {parent}"),
            ));
        }
        parents.push(parent);
        labels.push(s.str()?);
    }
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); nodes];
    let mut depth = vec![0u32; nodes];
    for i in 1..nodes {
        let p = parents[i] as usize;
        children[p].push(i);
        depth[i] = depth[p] + 1;
        if depth[i] > 64 {
            return Err(StoreError::malformed("schema", "hierarchy deeper than 64"));
        }
    }
    fn to_spec(node: usize, labels: &[String], children: &[Vec<usize>]) -> NodeSpec {
        if children[node].is_empty() {
            NodeSpec::leaf(labels[node].clone())
        } else {
            NodeSpec::internal(
                labels[node].clone(),
                children[node]
                    .iter()
                    .map(|&c| to_spec(c, labels, children))
                    .collect(),
            )
        }
    }
    Hierarchy::from_spec(&to_spec(0, &labels, &children))
        .map_err(|e| StoreError::malformed("schema", e))
}

/// [`write_table`] into a fresh buffer.
///
/// # Errors
///
/// As [`write_table`].
pub fn table_to_vec(table: &Table) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    write_table(table, &mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use betalike_microdata::census::{self, CensusConfig};
    use betalike_microdata::patients;
    use betalike_microdata::synthetic::{random_table, SyntheticConfig};

    /// Structural equality: schemas compare via `PartialEq`, columns by
    /// code.
    fn assert_tables_equal(a: &Table, b: &Table) {
        assert_eq!(a.schema(), b.schema());
        assert_eq!(a.num_rows(), b.num_rows());
        for i in 0..a.schema().arity() {
            assert_eq!(a.column(i), b.column(i), "column {i}");
        }
    }

    #[test]
    fn census_roundtrips_with_hierarchies() {
        let t = census::generate(&CensusConfig::new(700, 11));
        let bytes = table_to_vec(&t).unwrap();
        let back = table_from_slice(&bytes).unwrap();
        assert_tables_equal(&t, &back);
        // Hierarchy structure survives (work class is 3 levels deep).
        assert_eq!(back.schema().attr(4).hierarchy().unwrap().height(), 3);
        assert_eq!(back.decode_row(123), t.decode_row(123));
    }

    #[test]
    fn patients_and_synthetic_roundtrip() {
        for t in [
            patients::patients_table(),
            random_table(&SyntheticConfig {
                rows: 257,
                qi_cardinality: 300, // forces 2-byte packed codes
                seed: 3,
                ..Default::default()
            }),
        ] {
            let back = table_from_slice(&table_to_vec(&t).unwrap()).unwrap();
            assert_tables_equal(&t, &back);
        }
    }

    #[test]
    fn empty_table_roundtrips() {
        let t = census::generate(&CensusConfig::new(1, 0)).prefix(0);
        let back = table_from_slice(&table_to_vec(&t).unwrap()).unwrap();
        assert_eq!(back.num_rows(), 0);
        assert_eq!(back.schema(), t.schema());
    }

    #[test]
    fn code_width_matches_cardinality() {
        assert_eq!(code_width(2), 1);
        assert_eq!(code_width(256), 1);
        assert_eq!(code_width(257), 2);
        assert_eq!(code_width(1 << 16), 2);
        assert_eq!(code_width((1 << 16) + 1), 4);
    }

    #[test]
    fn snapshot_is_compact() {
        // CENSUS: 6 attributes, all cardinalities <= 256 -> ~6 bytes/row
        // plus a fixed schema block.
        let t = census::generate(&CensusConfig::new(10_000, 1));
        let bytes = table_to_vec(&t).unwrap();
        assert!(
            bytes.len() < 10_000 * 7 + 4_096,
            "snapshot unexpectedly large: {} bytes",
            bytes.len()
        );
    }

    #[test]
    fn foreign_and_newer_files_are_rejected() {
        let t = patients::patients_table();
        let mut bytes = table_to_vec(&t).unwrap();
        assert!(matches!(
            table_from_slice(b"JUNKJUNKJUNK"),
            Err(StoreError::BadMagic { .. })
        ));
        bytes[4] = 9; // version byte
        assert!(matches!(
            table_from_slice(&bytes),
            Err(StoreError::VersionSkew { found: 9, .. })
        ));
    }

    #[test]
    fn truncation_is_structured() {
        let t = patients::patients_table();
        let bytes = table_to_vec(&t).unwrap();
        for cut in [6, 20, bytes.len() / 2, bytes.len() - 3] {
            let err = table_from_slice(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, StoreError::Truncated { .. }),
                "cut {cut}: {err:?}"
            );
        }
    }
}
