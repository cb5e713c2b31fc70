//! BPUB — the durable envelope of one published artifact.
//!
//! A `.bpub` file is everything `betalike-serve` needs to answer `count`
//! and `audit` for a handle *bit-identically* after a restart, with zero
//! pipeline recomputation:
//!
//! ```text
//! "BPUB" version(u32)
//! "params"  handle, canonical parameter string, dataset descriptor
//!           (generator name / rows / seed / registry key), algo, the
//!           normalized publish parameters (qi, β, t, seed as raw f64
//!           bits), the generalized QI indices, the dataset QI pool and SA
//! "table"   the source table as a nested BTBL document (see
//!           [`crate::btbl`])
//! "form"    tag(u8) + the publication form's state:
//!             0 generalized: the partition's EC row-id lists
//!             1 perturbed:   the randomized SA column + the plan's
//!                            support/priors/caps/gammas/alphas
//!             2 anatomy:     (nothing — the histogram is derived)
//! "audit"   presence flag + the ten `PartitionAudit` fields, raw bits
//! "catalog" (optional) aggregate-catalog descriptor: catalog version,
//!           grouping tag (0 ECs / 1 blocks), block size, the block row
//!           permutation, and the covered attribute list
//! "end"     (empty payload — truncation guard)
//! ```
//!
//! The split follows what is *expensive or random* versus *cheap and
//! deterministic*: EC row lists and the perturbed column are stored because
//! recomputing them means a full BUREL run or an RNG replay, while the
//! aggregate catalog and the Anatomy histogram are rebuilt from
//! the stored state by the same deterministic code that built them at
//! publish time — which is exactly why a restored artifact answers
//! bit-identically.
//!
//! The `catalog` section follows the same philosophy: only the grouping
//! *descriptor* is stored; extents, per-group prefix counts, interval
//! bitsets and prefix sums are rebuilt deterministically. Files written
//! before the section existed simply lack it, and readers rebuild the
//! default catalog; readers seeing a catalog *version* they do not derive
//! also rebuild (rebuild-on-version-skew, `DESIGN.md` §13), whereas a
//! structurally invalid descriptor in a checksum-clean file is a writer
//! bug and fails the load.

use crate::codec::{read_prologue, write_prologue, Section, SectionWriter};
use crate::error::{Result, StoreError};
use betalike_metrics::audit::PartitionAudit;
use betalike_microdata::hash::Fnv1a64;
use betalike_microdata::{Table, Value};
use std::io::Write;

/// The BPUB magic bytes.
pub const BPUB_MAGIC: &str = "BPUB";
/// Newest BPUB version this build writes and reads.
pub const BPUB_VERSION: u32 = 1;

/// The normalized parameters a publication was produced from — the
/// storage-side mirror of `betalike-server`'s `PublishRequest` plus the
/// resolved dataset roles, kept free of server types so the store crate
/// has no dependency cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct PubParams {
    /// Content-addressed handle (`pub-…`).
    pub handle: String,
    /// The canonical parameter string the handle hashes.
    pub canonical: String,
    /// Generator family (`census` / `patients` / `synthetic`).
    pub dataset_name: String,
    /// Generator row count (0 for fixed datasets such as `patients`).
    pub dataset_rows: u64,
    /// Generator seed (0 for fixed datasets).
    pub dataset_seed: u64,
    /// The registry's canonical dataset key (e.g. `census:rows=2000:seed=7`).
    pub dataset_key: String,
    /// Scheme wire name (`burel` / `sabre` / `mondrian` / `anatomy` /
    /// `perturb`).
    pub algo: String,
    /// The requested QI prefix length (normalized).
    pub qi_prefix: u32,
    /// β threshold (normalized).
    pub beta: f64,
    /// t threshold (normalized).
    pub t: f64,
    /// Algorithm seed (normalized).
    pub seed: u64,
    /// The generalized QI attribute indices (empty for perturbation /
    /// Anatomy).
    pub qi: Vec<u32>,
    /// The dataset's full candidate QI pool.
    pub qi_pool: Vec<u32>,
    /// The sensitive attribute index.
    pub sa: u32,
}

/// The stored state of one publication form (see the module docs for what
/// is stored versus rebuilt).
#[derive(Debug, Clone, PartialEq)]
pub enum FormSnapshot {
    /// A generalization-based publication: the partition's equivalence
    /// classes as row-id lists, in published order.
    Generalized {
        /// Per EC: source-table row ids.
        ecs: Vec<Vec<u32>>,
    },
    /// A perturbation publication: the randomized SA column plus the
    /// published plan's parts (the matrix is rebuilt from `alphas` by the
    /// same pure-float code that built it, so it round-trips bitwise).
    Perturbed {
        /// The randomized SA column, row-aligned with the source table.
        sa_column: Vec<Value>,
        /// SA codes with support, ascending.
        support: Vec<Value>,
        /// Published priors `p_i`.
        priors: Vec<f64>,
        /// Posterior caps `f(p_i)`.
        caps: Vec<f64>,
        /// Amplification factors `γ_i`.
        gammas: Vec<f64>,
        /// Retention probabilities `α_i`.
        alphas: Vec<f64>,
    },
    /// An Anatomy-style publication (global SA histogram — fully derived
    /// from the stored table).
    Anatomy,
}

impl FormSnapshot {
    /// The publication-form label this snapshot restores to.
    pub fn kind(&self) -> &'static str {
        match self {
            FormSnapshot::Generalized { .. } => "generalized",
            FormSnapshot::Perturbed { .. } => "perturbed",
            FormSnapshot::Anatomy => "anatomy",
        }
    }
}

/// The stored descriptor of a publication's aggregate catalog (the
/// storage-side mirror of `betalike-query`'s `CatalogSpec`, kept free of
/// query types). Everything heavy is rebuilt deterministically from it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatalogSnapshot {
    /// The catalog derivation version the writer used. Readers deriving a
    /// different version discard the snapshot and rebuild from scratch.
    pub version: u32,
    /// Grouping tag: `0` = one group per equivalence class, `1` = blocks
    /// of a row permutation.
    pub grouping: u8,
    /// Rows per block (tag `1`; `0` otherwise).
    pub block_rows: u32,
    /// The block row permutation (tag `1`; empty otherwise).
    pub perm: Vec<u32>,
    /// The covered attribute indices, in extent order.
    pub covered: Vec<u32>,
}

/// One publication, fully decoded: parameters, source table, form state
/// and the publish-time audit.
#[derive(Debug, Clone)]
pub struct PublicationSnapshot {
    /// The normalized publish parameters and dataset roles.
    pub params: PubParams,
    /// The source table.
    pub table: Table,
    /// The stored form state.
    pub form: FormSnapshot,
    /// The privacy audit computed at publish time (`None` for forms
    /// without equivalence classes).
    pub audit: Option<PartitionAudit>,
    /// The aggregate-catalog descriptor (`None` in files written before
    /// the section existed, or when the writer served without a catalog).
    pub catalog: Option<CatalogSnapshot>,
}

fn write_params(p: &PubParams, w: &mut impl Write) -> Result<()> {
    let mut s = SectionWriter::new("params");
    s.str(&p.handle);
    s.str(&p.canonical);
    s.str(&p.dataset_name);
    s.u64(p.dataset_rows);
    s.u64(p.dataset_seed);
    s.str(&p.dataset_key);
    s.str(&p.algo);
    s.u32(p.qi_prefix);
    s.f64(p.beta);
    s.f64(p.t);
    s.u64(p.seed);
    s.u32(p.qi.len() as u32);
    for &a in &p.qi {
        s.u32(a);
    }
    s.u32(p.qi_pool.len() as u32);
    for &a in &p.qi_pool {
        s.u32(a);
    }
    s.u32(p.sa);
    s.finish(w)
}

fn decode_params(mut s: Section) -> Result<PubParams> {
    let handle = s.str()?;
    let canonical = s.str()?;
    let dataset_name = s.str()?;
    let dataset_rows = s.u64()?;
    let dataset_seed = s.u64()?;
    let dataset_key = s.str()?;
    let algo = s.str()?;
    let qi_prefix = s.u32()?;
    let beta = s.f64()?;
    let t = s.f64()?;
    let seed = s.u64()?;
    let n = s.u32()? as usize;
    let qi = s.codes(n, 4)?;
    let n = s.u32()? as usize;
    let qi_pool = s.codes(n, 4)?;
    let sa = s.u32()?;
    s.finish()?;
    Ok(PubParams {
        handle,
        canonical,
        dataset_name,
        dataset_rows,
        dataset_seed,
        dataset_key,
        algo,
        qi_prefix,
        beta,
        t,
        seed,
        qi,
        qi_pool,
        sa,
    })
}

fn write_form(form: &FormSnapshot, rows: usize, w: &mut impl Write) -> Result<()> {
    let mut s = SectionWriter::new("form");
    match form {
        FormSnapshot::Generalized { ecs } => {
            s.u8(0);
            s.u32(ecs.len() as u32);
            for ec in ecs {
                s.u32(ec.len() as u32);
                for &r in ec {
                    s.u32(r);
                }
            }
        }
        FormSnapshot::Perturbed {
            sa_column,
            support,
            priors,
            caps,
            gammas,
            alphas,
        } => {
            if sa_column.len() != rows {
                return Err(StoreError::malformed(
                    "form",
                    "perturbed SA column is not row-aligned with the table",
                ));
            }
            s.u8(1);
            s.u32(sa_column.len() as u32);
            for &v in sa_column {
                s.u32(v);
            }
            s.u32(support.len() as u32);
            for &v in support {
                s.u32(v);
            }
            for series in [priors, caps, gammas, alphas] {
                if series.len() != support.len() {
                    return Err(StoreError::malformed(
                        "form",
                        "plan series length differs from the support",
                    ));
                }
                for &x in series {
                    s.f64(x);
                }
            }
        }
        FormSnapshot::Anatomy => s.u8(2),
    }
    s.finish(w)
}

fn decode_form(mut s: Section) -> Result<FormSnapshot> {
    let form = match s.u8()? {
        0 => {
            let num_ecs = s.u32()? as usize;
            let mut ecs = Vec::with_capacity(num_ecs.min(1 << 20));
            for _ in 0..num_ecs {
                let len = s.u32()? as usize;
                ecs.push(s.codes(len, 4)?);
            }
            FormSnapshot::Generalized { ecs }
        }
        1 => {
            let rows = s.u32()? as usize;
            let sa_column = s.codes(rows, 4)?;
            let m = s.u32()? as usize;
            let support = s.codes(m, 4)?;
            let series = |s: &mut Section| -> Result<Vec<f64>> {
                let mut v = Vec::with_capacity(m.min(1 << 16));
                for _ in 0..m {
                    v.push(s.f64()?);
                }
                Ok(v)
            };
            let priors = series(&mut s)?;
            let caps = series(&mut s)?;
            let gammas = series(&mut s)?;
            let alphas = series(&mut s)?;
            FormSnapshot::Perturbed {
                sa_column,
                support,
                priors,
                caps,
                gammas,
                alphas,
            }
        }
        2 => FormSnapshot::Anatomy,
        tag => {
            return Err(StoreError::malformed(
                "form",
                format!("unknown form tag {tag}"),
            ))
        }
    };
    s.finish()?;
    Ok(form)
}

fn write_audit(audit: &Option<PartitionAudit>, w: &mut impl Write) -> Result<()> {
    let mut s = SectionWriter::new("audit");
    match audit {
        None => s.u8(0),
        Some(a) => {
            s.u8(1);
            s.f64(a.max_beta);
            s.f64(a.avg_beta);
            s.f64(a.max_closeness);
            s.f64(a.avg_closeness);
            s.u64(a.min_distinct_l as u64);
            s.f64(a.avg_distinct_l);
            s.f64(a.min_inv_max_freq_l);
            s.f64(a.max_delta);
            s.u64(a.min_ec_size as u64);
            s.u64(a.num_ecs as u64);
        }
    }
    s.finish(w)
}

fn decode_audit(mut s: Section) -> Result<Option<PartitionAudit>> {
    let audit = match s.u8()? {
        0 => None,
        1 => Some(PartitionAudit {
            max_beta: s.f64()?,
            avg_beta: s.f64()?,
            max_closeness: s.f64()?,
            avg_closeness: s.f64()?,
            min_distinct_l: s.len64()?,
            avg_distinct_l: s.f64()?,
            min_inv_max_freq_l: s.f64()?,
            max_delta: s.f64()?,
            min_ec_size: s.len64()?,
            num_ecs: s.len64()?,
        }),
        tag => {
            return Err(StoreError::malformed(
                "audit",
                format!("unknown audit flag {tag}"),
            ))
        }
    };
    s.finish()?;
    Ok(audit)
}

fn write_catalog(c: &CatalogSnapshot, rows: usize, w: &mut impl Write) -> Result<()> {
    match c.grouping {
        0 => {
            if c.block_rows != 0 || !c.perm.is_empty() {
                return Err(StoreError::malformed(
                    "catalog",
                    "EC-grouped catalog carries block state",
                ));
            }
        }
        1 => {
            if c.block_rows == 0 {
                return Err(StoreError::malformed(
                    "catalog",
                    "block-grouped catalog with zero block size",
                ));
            }
            if c.perm.len() != rows {
                return Err(StoreError::malformed(
                    "catalog",
                    "catalog permutation is not row-aligned with the table",
                ));
            }
        }
        tag => {
            return Err(StoreError::malformed(
                "catalog",
                format!("unknown catalog grouping tag {tag}"),
            ))
        }
    }
    let mut s = SectionWriter::new("catalog");
    s.u32(c.version);
    s.u8(c.grouping);
    s.u32(c.block_rows);
    s.u32(c.perm.len() as u32);
    for &r in &c.perm {
        s.u32(r);
    }
    s.u32(c.covered.len() as u32);
    for &a in &c.covered {
        s.u32(a);
    }
    s.finish(w)
}

fn decode_catalog(s: &mut Section) -> Result<CatalogSnapshot> {
    let version = s.u32()?;
    let grouping = s.u8()?;
    let block_rows = s.u32()?;
    let n = s.u32()? as usize;
    let perm = s.codes(n, 4)?;
    let k = s.u32()? as usize;
    let covered = s.codes(k, 4)?;
    Ok(CatalogSnapshot {
        version,
        grouping,
        block_rows,
        perm,
        covered,
    })
}

/// Writes a publication as a complete BPUB document.
///
/// # Errors
///
/// Propagates I/O failures; `Malformed` on internally inconsistent
/// snapshots (a writer bug, caught before a broken file reaches disk).
pub fn write_publication<W: Write>(snap: &PublicationSnapshot, w: &mut W) -> Result<()> {
    write_prologue(w, b"BPUB", BPUB_VERSION)?;
    write_params(&snap.params, w)?;
    let mut table = SectionWriter::new("table");
    table.bytes(&crate::btbl::table_to_vec(&snap.table)?);
    table.finish(w)?;
    write_form(&snap.form, snap.table.num_rows(), w)?;
    write_audit(&snap.audit, w)?;
    if let Some(c) = &snap.catalog {
        write_catalog(c, snap.table.num_rows(), w)?;
    }
    SectionWriter::new("end").finish(w)?;
    Ok(())
}

/// [`write_publication`] into a fresh buffer.
///
/// # Errors
///
/// As [`write_publication`].
pub fn publication_to_vec(snap: &PublicationSnapshot) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    write_publication(snap, &mut out)?;
    Ok(out)
}

/// Reads a complete BPUB document from an in-memory buffer, decoding
/// each section in place.
///
/// # Errors
///
/// Structured [`StoreError`]s naming the failing section, as
/// [`crate::btbl::table_from_slice`], plus `Malformed` on trailing bytes.
pub fn publication_from_slice(bytes: &[u8]) -> Result<PublicationSnapshot> {
    decode_publication(bytes).map(|(snap, _)| snap)
}

/// [`publication_from_slice`], also returning the FNV-1a of the whole
/// document, computed in the same pass as the section checksums — which
/// is what lets [`crate::disk::ArtifactStore::load`] check a file against
/// its index entry without hashing it twice.
///
/// # Errors
///
/// As [`publication_from_slice`].
pub(crate) fn decode_publication(mut bytes: &[u8]) -> Result<(PublicationSnapshot, u64)> {
    let r = &mut bytes;
    let version = read_prologue(r, BPUB_MAGIC, BPUB_VERSION)?;
    let mut whole = Fnv1a64::new();
    whole.update(BPUB_MAGIC.as_bytes());
    whole.update(&version.to_le_bytes());
    let mut next = || Section::read_feeding(r, &mut whole);
    let params = decode_params(next()?.named("params")?)?;
    let table = crate::btbl::table_from_slice(next()?.named("table")?.rest())?;
    let form = decode_form(next()?.named("form")?)?;
    let audit = decode_audit(next()?.named("audit")?)?;
    // The catalog section is optional: files written before it existed go
    // straight to "end".
    let mut last = next()?;
    let catalog = match last.name() {
        "catalog" => {
            let c = decode_catalog(&mut last)?;
            last.finish()?;
            last = next()?;
            Some(c)
        }
        _ => None,
    };
    last.named("end")?.finish()?;
    no_trailing_bytes(bytes)?;
    let snap = PublicationSnapshot {
        params,
        table,
        form,
        audit,
        catalog,
    };
    Ok((snap, whole.finish()))
}

/// Checks a whole BPUB document's framing and decodes only its `params`:
/// the prologue, the section order, every section's checksum, the `end`
/// guard and the absence of trailing bytes. The table, form, audit and
/// catalog payloads are checksummed but never parsed, which is what lets
/// [`crate::disk::ArtifactStore::open`] index a directory of large files
/// at the cost of one read each. Returns the params and the FNV-1a of the
/// whole document, computed in the same pass as the section checksums.
///
/// # Errors
///
/// As [`publication_from_slice`], for everything but the undecoded
/// payloads.
pub(crate) fn scan_publication(bytes: &[u8]) -> Result<(PubParams, u64)> {
    let mut r = bytes;
    let version = read_prologue(&mut r, BPUB_MAGIC, BPUB_VERSION)?;
    let mut whole = Fnv1a64::new();
    whole.update(BPUB_MAGIC.as_bytes());
    whole.update(&version.to_le_bytes());
    let mut next = || Section::read_feeding(&mut r, &mut whole);
    let params = decode_params(next()?.named("params")?)?;
    for name in ["table", "form", "audit"] {
        next()?.named(name)?;
    }
    let mut last = next()?;
    if last.name() == "catalog" {
        last = next()?;
    }
    last.named("end")?.finish()?;
    no_trailing_bytes(r)?;
    Ok((params, whole.finish()))
}

fn no_trailing_bytes(bytes: &[u8]) -> Result<()> {
    if !bytes.is_empty() {
        return Err(StoreError::malformed(
            "end",
            format!("{} trailing bytes after the document", bytes.len()),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use betalike_microdata::hash::fnv1a64;
    use betalike_microdata::synthetic::{random_table, SyntheticConfig};

    pub(crate) fn sample_params() -> PubParams {
        PubParams {
            handle: "pub-0123456789abcdef".into(),
            canonical: "synthetic:rows=40:seed=5|algo=burel|qi=2|beta=4|t=0|seed=42".into(),
            dataset_name: "synthetic".into(),
            dataset_rows: 40,
            dataset_seed: 5,
            dataset_key: "synthetic:rows=40:seed=5".into(),
            algo: "burel".into(),
            qi_prefix: 2,
            beta: 4.0,
            t: 0.0,
            seed: 42,
            qi: vec![0, 1],
            qi_pool: vec![0, 1],
            sa: 2,
        }
    }

    fn sample_snapshot(form: FormSnapshot) -> PublicationSnapshot {
        let table = random_table(&SyntheticConfig {
            rows: 40,
            seed: 5,
            ..Default::default()
        });
        PublicationSnapshot {
            params: sample_params(),
            table,
            form,
            catalog: None,
            audit: Some(PartitionAudit {
                max_beta: 0.1 + 0.2, // deliberately non-representable exactly
                avg_beta: 1.5,
                max_closeness: 0.25,
                avg_closeness: 0.125,
                min_distinct_l: 3,
                avg_distinct_l: 4.5,
                min_inv_max_freq_l: 2.0,
                max_delta: 0.75,
                min_ec_size: 5,
                num_ecs: 8,
            }),
        }
    }

    #[test]
    fn generalized_roundtrips_bitwise() {
        let snap = sample_snapshot(FormSnapshot::Generalized {
            ecs: (0..8u32).map(|i| (i * 5..(i + 1) * 5).collect()).collect(),
        });
        let back = publication_from_slice(&publication_to_vec(&snap).unwrap()).unwrap();
        assert_eq!(back.params, snap.params);
        assert_eq!(back.form, snap.form);
        assert_eq!(back.audit, snap.audit);
        assert_eq!(
            back.audit.as_ref().unwrap().max_beta.to_bits(),
            snap.audit.as_ref().unwrap().max_beta.to_bits()
        );
        assert_eq!(back.table.column(2), snap.table.column(2));
    }

    #[test]
    fn perturbed_and_anatomy_roundtrip() {
        let perturbed = FormSnapshot::Perturbed {
            sa_column: vec![1; 40],
            support: vec![0, 1, 3],
            priors: vec![0.25, 0.5, 0.25],
            caps: vec![0.9, 0.95, 0.9],
            gammas: vec![3.0, 2.0, 3.0],
            alphas: vec![0.4, 0.6, 0.4],
        };
        for form in [perturbed, FormSnapshot::Anatomy] {
            let mut snap = sample_snapshot(form);
            snap.audit = None;
            let back = publication_from_slice(&publication_to_vec(&snap).unwrap()).unwrap();
            assert_eq!(back.form, snap.form);
            assert_eq!(back.audit, None);
        }
    }

    #[test]
    fn inconsistent_snapshots_fail_on_write() {
        let snap = sample_snapshot(FormSnapshot::Perturbed {
            sa_column: vec![1; 3], // not row-aligned with the 40-row table
            support: vec![0, 1],
            priors: vec![0.5, 0.5],
            caps: vec![0.9, 0.9],
            gammas: vec![2.0, 2.0],
            alphas: vec![0.5, 0.5],
        });
        assert!(matches!(
            publication_to_vec(&snap),
            Err(StoreError::Malformed { .. })
        ));
    }

    #[test]
    fn catalog_section_roundtrips_and_is_optional() {
        // EC-grouped descriptor.
        let mut snap = sample_snapshot(FormSnapshot::Generalized {
            ecs: (0..8u32).map(|i| (i * 5..(i + 1) * 5).collect()).collect(),
        });
        snap.catalog = Some(CatalogSnapshot {
            version: 1,
            grouping: 0,
            block_rows: 0,
            perm: vec![],
            covered: vec![0, 1, 2],
        });
        let back = publication_from_slice(&publication_to_vec(&snap).unwrap()).unwrap();
        assert_eq!(back.catalog, snap.catalog);
        // Block-grouped descriptor with a full permutation.
        let mut blocks = sample_snapshot(FormSnapshot::Anatomy);
        blocks.audit = None;
        blocks.catalog = Some(CatalogSnapshot {
            version: 1,
            grouping: 1,
            block_rows: 16,
            perm: (0..40u32).rev().collect(),
            covered: vec![0, 1, 2],
        });
        let back = publication_from_slice(&publication_to_vec(&blocks).unwrap()).unwrap();
        assert_eq!(back.catalog, blocks.catalog);
        // Absent catalog (the pre-section layout) still round-trips.
        blocks.catalog = None;
        let back = publication_from_slice(&publication_to_vec(&blocks).unwrap()).unwrap();
        assert_eq!(back.catalog, None);
    }

    #[test]
    fn inconsistent_catalogs_fail_on_write() {
        let base = || sample_snapshot(FormSnapshot::Anatomy);
        // Row-misaligned permutation.
        let mut snap = base();
        snap.catalog = Some(CatalogSnapshot {
            version: 1,
            grouping: 1,
            block_rows: 16,
            perm: vec![0, 1, 2],
            covered: vec![0, 1, 2],
        });
        assert!(matches!(
            publication_to_vec(&snap),
            Err(StoreError::Malformed { .. })
        ));
        // Zero block size.
        let mut snap = base();
        snap.catalog = Some(CatalogSnapshot {
            version: 1,
            grouping: 1,
            block_rows: 0,
            perm: (0..40).collect(),
            covered: vec![0],
        });
        assert!(publication_to_vec(&snap).is_err());
        // EC grouping carrying block state.
        let mut snap = base();
        snap.catalog = Some(CatalogSnapshot {
            version: 1,
            grouping: 0,
            block_rows: 8,
            perm: vec![],
            covered: vec![0],
        });
        assert!(publication_to_vec(&snap).is_err());
        // Unknown grouping tag.
        let mut snap = base();
        snap.catalog = Some(CatalogSnapshot {
            version: 1,
            grouping: 9,
            block_rows: 0,
            perm: vec![],
            covered: vec![0],
        });
        assert!(publication_to_vec(&snap).is_err());
    }

    #[test]
    fn scan_checks_the_framing_and_returns_the_params() {
        let mut snap = sample_snapshot(FormSnapshot::Anatomy);
        let plain = publication_to_vec(&snap).unwrap();
        let want = (snap.params.clone(), fnv1a64(&plain));
        assert_eq!(scan_publication(&plain).unwrap(), want);
        snap.catalog = Some(CatalogSnapshot {
            version: 1,
            grouping: 1,
            block_rows: 16,
            perm: (0..40u32).collect(),
            covered: vec![0],
        });
        let bytes = publication_to_vec(&snap).unwrap();
        let want = (snap.params.clone(), fnv1a64(&bytes));
        assert_eq!(scan_publication(&bytes).unwrap(), want);

        // A flipped payload byte fails that section's checksum.
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0xff;
        assert!(matches!(
            scan_publication(&flipped),
            Err(StoreError::Corrupt { .. })
        ));
        // Names are not checksummed, so the scan checks the layout.
        let at = bytes.windows(4).position(|w| w == b"form").unwrap();
        let mut renamed = bytes.clone();
        renamed[at] = b'x';
        assert!(matches!(
            scan_publication(&renamed),
            Err(StoreError::Malformed { .. })
        ));
        // Truncation and trailing bytes.
        assert!(scan_publication(&bytes[..bytes.len() - 1]).is_err());
        let mut long = bytes.clone();
        long.push(0);
        assert!(matches!(
            scan_publication(&long),
            Err(StoreError::Malformed { .. })
        ));
    }

    #[test]
    fn kind_labels() {
        assert_eq!(FormSnapshot::Anatomy.kind(), "anatomy");
        assert_eq!(
            FormSnapshot::Generalized { ecs: vec![] }.kind(),
            "generalized"
        );
    }
}
