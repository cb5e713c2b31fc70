//! Decoder and restore fuzz: checksum-valid structured mutations of every
//! section of each `tests/golden/*.bpub`.
//!
//! Flipping bytes (`crates/store/tests/corruption.rs`) only exercises the
//! checksums, which reject a damaged file before any field is decoded.
//! Here every mutation is re-stamped: the mutated section (and, inside the
//! nested BTBL document, the enclosing `table` section) gets a fresh FNV-1a,
//! so the file reaches the decoders. Fields are mutated by what they hold:
//! row counts and list lengths (including lengths past the payload), code
//! widths, form and grouping tags, EC lengths, row ids and codes (out of
//! range, shifted onto a neighbour), and floats.
//!
//! Each mutated file goes through `publication_from_slice`, the
//! conformance oracle, `persist::restore` and 40 counts (catalog against
//! scan, bit for bit). Nothing may panic, and every refusal must be a
//! typed error or a non-empty restore message.

use betalike_conformance::verify_snapshot;
use betalike_microdata::hash::fnv1a64;
use betalike_query::{AggQuery, RangePred};
use betalike_server::persist;
use betalike_store::publication_from_slice;
use std::ops::Range;
use std::path::PathBuf;

/// Per section: how many non-code fields and how many codes are mutated
/// (spread evenly over the section).
const FIELDS_PER_SECTION: usize = 6;
const CODES_PER_SECTION: usize = 3;
const COUNTS_PER_FILE: u32 = 40;

/// What a field holds, which decides its mutations.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    /// A row count or list length.
    Count,
    /// A row id, code or attribute index.
    Code,
    /// A BTBL code width byte.
    Width,
    /// A form, grouping, attribute or presence tag.
    Tag,
    /// A raw-bits `f64`.
    Float,
}

/// One field of a section payload: `len` little-endian bytes at `at`.
#[derive(Debug, Clone, Copy)]
struct Field {
    at: usize,
    len: usize,
    kind: Kind,
}

/// A cursor over one payload that records the position of every field it
/// reads. Returns `None` past the end (the goldens never get there).
struct Walk<'a> {
    payload: &'a [u8],
    pos: usize,
    fields: Vec<Field>,
}

impl<'a> Walk<'a> {
    fn new(payload: &'a [u8]) -> Self {
        Walk {
            payload,
            pos: 0,
            fields: Vec::new(),
        }
    }

    fn field(&mut self, len: usize, kind: Kind) -> Option<u64> {
        let bytes = self.payload.get(self.pos..self.pos + len)?;
        let v = bytes.iter().rev().fold(0u64, |v, &b| v << 8 | u64::from(b));
        self.fields.push(Field {
            at: self.pos,
            len,
            kind,
        });
        self.pos += len;
        Some(v)
    }

    fn str(&mut self) -> Option<()> {
        let n = self.field(4, Kind::Count)? as usize;
        self.pos += n;
        Some(())
    }

    /// A `u32` length followed by that many `u32` codes.
    fn codes(&mut self) -> Option<()> {
        let n = self.field(4, Kind::Count)?;
        for _ in 0..n {
            self.field(4, Kind::Code)?;
        }
        Some(())
    }

    fn floats(&mut self, n: u64) -> Option<()> {
        for _ in 0..n {
            self.field(8, Kind::Float)?;
        }
        Some(())
    }

    /// Walks a section of the given name, recording its fields.
    fn section(mut self, name: &str) -> Option<Vec<Field>> {
        match name {
            "params" => {
                for _ in 0..3 {
                    self.str()?;
                }
                self.field(8, Kind::Count)?;
                self.field(8, Kind::Code)?;
                self.str()?;
                self.str()?;
                self.field(4, Kind::Count)?;
                self.floats(2)?;
                self.field(8, Kind::Code)?;
                self.codes()?;
                self.codes()?;
                self.field(4, Kind::Code)?;
            }
            "form" => match self.field(1, Kind::Tag)? {
                0 => {
                    for _ in 0..self.field(4, Kind::Count)? {
                        self.codes()?;
                    }
                }
                1 => {
                    self.codes()?;
                    let m = self.field(4, Kind::Count)?;
                    for _ in 0..m {
                        self.field(4, Kind::Code)?;
                    }
                    self.floats(4 * m)?;
                }
                _ => {}
            },
            "audit" => {
                let present = self.field(1, Kind::Tag)?;
                if present == 1 {
                    self.floats(4)?;
                    self.field(8, Kind::Count)?;
                    self.floats(3)?;
                    self.field(8, Kind::Count)?;
                    self.field(8, Kind::Count)?;
                }
            }
            "catalog" => {
                self.field(4, Kind::Tag)?;
                self.field(1, Kind::Tag)?;
                self.field(4, Kind::Count)?;
                self.codes()?;
                self.codes()?;
            }
            "schema" => {
                self.field(8, Kind::Count)?;
                let arity = self.field(4, Kind::Count)?;
                self.field(4, Kind::Code)?;
                for _ in 0..arity {
                    self.str()?;
                    if self.field(1, Kind::Tag)? == 0 {
                        let n = self.field(4, Kind::Count)?;
                        self.floats(n)?;
                    } else {
                        for _ in 0..self.field(4, Kind::Count)? {
                            self.field(4, Kind::Code)?;
                            self.str()?;
                        }
                    }
                }
            }
            col if col.starts_with("col.") => {
                let width = self.field(1, Kind::Width)? as usize;
                while self.pos < self.payload.len() {
                    self.field(width, Kind::Code)?;
                }
            }
            _ => {}
        }
        Some(self.fields)
    }
}

/// One section frame: its name, payload range and checksum offset, all
/// relative to the document holding it.
#[derive(Debug, Clone)]
struct Frame {
    name: String,
    payload: Range<usize>,
    sum_at: usize,
}

/// The section frames of a BTBL or BPUB document.
fn frames(doc: &[u8]) -> Vec<Frame> {
    let mut out = Vec::new();
    let mut at = 8; // magic + version
    while at < doc.len() {
        let name_len = u16::from_le_bytes([doc[at], doc[at + 1]]) as usize;
        let name = String::from_utf8(doc[at + 2..at + 2 + name_len].to_vec()).unwrap();
        let len_at = at + 2 + name_len;
        let len = u64::from_le_bytes(doc[len_at..len_at + 8].try_into().unwrap()) as usize;
        let payload = len_at + 8..len_at + 8 + len;
        let sum_at = payload.end;
        out.push(Frame {
            name,
            payload,
            sum_at,
        });
        at = sum_at + 8;
    }
    out
}

/// Rewrites `frame`'s checksum inside `doc` (offset by `base`).
fn stamp(doc: &mut [u8], base: usize, frame: &Frame) {
    let payload = &doc[base + frame.payload.start..base + frame.payload.end];
    let sum = fnv1a64(payload).to_le_bytes();
    doc[base + frame.sum_at..base + frame.sum_at + 8].copy_from_slice(&sum);
}

/// The values a field is mutated to.
fn mutations(kind: Kind, len: usize, v: u64) -> Vec<u64> {
    let max = if len == 8 {
        u64::MAX
    } else {
        (1u64 << (8 * len)) - 1
    };
    match kind {
        Kind::Count => vec![
            0,
            v.wrapping_add(1),
            v.wrapping_sub(1),
            max,
            v.saturating_mul(2).saturating_add(7),
        ],
        Kind::Code => vec![v.wrapping_add(1), max, v ^ 0x55],
        Kind::Width => vec![0, 2, 3, 4, 8],
        Kind::Tag => vec![0, 1, 2, 9],
        Kind::Float => vec![
            f64::NAN.to_bits(),
            (-1.0f64).to_bits(),
            f64::INFINITY.to_bits(),
        ],
    }
    .into_iter()
    .map(|m| m & max)
    .filter(|&m| m != v)
    .collect()
}

/// Up to `k` evenly spread items of `items`.
fn spread<T: Copy>(items: &[T], k: usize) -> Vec<T> {
    let step = items.len().div_ceil(k.max(1)).max(1);
    items.iter().step_by(step).copied().collect()
}

/// Every mutated document of one section: `section` lives at `base` in
/// `doc`; `outer`, when set, is the enclosing `table` frame to re-stamp.
fn mutate_section(doc: &[u8], base: usize, section: &Frame, outer: Option<&Frame>) -> Vec<Vec<u8>> {
    let payload = &doc[base + section.payload.start..base + section.payload.end];
    let fields = Walk::new(payload)
        .section(&section.name)
        .unwrap_or_else(|| panic!("golden section `{}` walks", section.name));
    let (codes, rest): (Vec<Field>, Vec<Field>) =
        fields.into_iter().partition(|f| f.kind == Kind::Code);
    let chosen = spread(&rest, FIELDS_PER_SECTION)
        .into_iter()
        .chain(spread(&codes, CODES_PER_SECTION));
    let mut out = Vec::new();
    for f in chosen {
        let at = base + section.payload.start + f.at;
        let v = doc[at..at + f.len]
            .iter()
            .rev()
            .fold(0u64, |v, &b| v << 8 | u64::from(b));
        for m in mutations(f.kind, f.len, v) {
            let mut bytes = doc.to_vec();
            bytes[at..at + f.len].copy_from_slice(&m.to_le_bytes()[..f.len]);
            stamp(&mut bytes, base, section);
            if let Some(outer) = outer {
                stamp(&mut bytes, 0, outer);
            }
            out.push(bytes);
        }
    }
    out
}

/// Every mutated document of one golden file.
fn mutants(doc: &[u8]) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for frame in frames(doc) {
        if frame.name == "table" {
            let base = frame.payload.start;
            for nested in frames(&doc[frame.payload.clone()]) {
                out.extend(mutate_section(doc, base, &nested, Some(&frame)));
            }
        } else {
            out.extend(mutate_section(doc, 0, &frame, None));
        }
    }
    out
}

#[derive(Debug, Default)]
struct Outcomes {
    refused_by_decoder: usize,
    refused_by_restore: usize,
    served: usize,
    oracle_failures: usize,
}

/// Runs one file through decode, the oracle, restore and 40 counts.
fn exercise(bytes: &[u8], out: &mut Outcomes) {
    let snap = match publication_from_slice(bytes) {
        Ok(snap) => snap,
        Err(e) => {
            assert!(!e.to_string().is_empty());
            out.refused_by_decoder += 1;
            return;
        }
    };
    if !verify_snapshot(&snap).pass() {
        out.oracle_failures += 1;
    }
    let artifact = match persist::restore(snap) {
        Ok(artifact) => artifact,
        Err(e) => {
            assert!(!e.is_empty(), "restore refusals carry a message");
            out.refused_by_restore += 1;
            return;
        }
    };
    out.served += 1;
    let table = artifact.answerer.source();
    let sa = artifact.dataset.sa;
    let card = |a: usize| table.schema().attr(a).cardinality() as u32;
    let attrs: Vec<usize> = if artifact.qi.is_empty() {
        artifact.dataset.qi_pool.clone()
    } else {
        artifact.qi.clone()
    };
    let attrs: Vec<usize> = attrs.into_iter().filter(|&a| a != sa).collect();
    let mut x = 0x9e37_79b9u32;
    let mut draw = |n: u32| {
        x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        (x >> 8) % n.max(1)
    };
    for i in 0..COUNTS_PER_FILE {
        let mut qi_preds = Vec::new();
        if !attrs.is_empty() && i % 4 != 0 {
            let attr = attrs[i as usize % attrs.len()];
            let (a, b) = (draw(card(attr)), draw(card(attr)));
            qi_preds.push(RangePred {
                attr,
                lo: a.min(b),
                hi: a.max(b),
            });
        }
        let (a, b) = (draw(card(sa)), draw(card(sa)));
        let query = AggQuery {
            qi_preds,
            sa_pred: RangePred {
                attr: sa,
                lo: a.min(b),
                hi: a.max(b),
            },
        };
        let answerer = &artifact.answerer;
        match (answerer.estimate(&query), answerer.estimate_scan(&query)) {
            (Ok(c), Ok(s)) => assert_eq!(c.to_bits(), s.to_bits(), "{query:?}"),
            (c, s) => assert_eq!(c.is_err(), s.is_err(), "{query:?}"),
        }
        assert_eq!(answerer.exact(&query), answerer.exact_scan(&query));
    }
}

#[test]
fn mutated_goldens_never_panic_decode_restore_or_count() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden");
    let mut goldens: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "bpub"))
        .collect();
    goldens.sort();
    assert_eq!(goldens.len(), 5, "one golden per scheme");
    let mut out = Outcomes::default();
    let mut total = 0;
    for path in &goldens {
        let doc = std::fs::read(path).unwrap();
        let mutants = mutants(&doc);
        total += mutants.len();
        for bytes in &mutants {
            exercise(bytes, &mut out);
        }
    }
    // The suite must reach every layer: most mutants are refused by the
    // decoder, some only by restore, and some decode, restore and serve.
    assert!(total > 500, "{total} mutants");
    assert!(out.refused_by_decoder > 0 && out.refused_by_restore > 0 && out.served > 0);
    assert!(out.oracle_failures > 0, "{out:?}");
    eprintln!("{total} mutants: {out:?}");
}
