//! Section framing shared by the BTBL and BPUB formats.
//!
//! Both formats are a magic + version prologue followed by named, length
//! prefixed, checksummed *sections*:
//!
//! ```text
//! file    := magic(4) version(u32 LE) section*
//! section := name_len(u16 LE) name(UTF-8) payload_len(u64 LE) payload
//!            checksum(u64 LE = FNV-1a of payload)
//! ```
//!
//! All integers are little-endian; `f64`s are stored as their raw IEEE-754
//! bits so snapshots round-trip *bit-identically*. A [`SectionWriter`]
//! buffers one section's payload and emits the frame on
//! [`SectionWriter::finish`]; a [`Section`] reads one frame, verifies its
//! checksum eagerly, and then hands out typed fields with
//! truncation-aware errors that name the section. Documents are decoded
//! from memory: a section borrows its payload from the document.

use crate::error::{Result, StoreError};
use betalike_microdata::hash::{fnv1a64, Fnv1a64};
use std::io::{BufRead, Read, Write};

/// Upper bound on a single section payload (1 GiB): a corrupted length
/// field must not drive a multi-terabyte allocation.
pub const MAX_SECTION_BYTES: u64 = 1 << 30;

/// Upper bound on a section name.
const MAX_NAME_BYTES: u16 = 256;

/// Writes `magic` and `version`.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_prologue<W: Write>(w: &mut W, magic: &[u8; 4], version: u32) -> Result<()> {
    w.write_all(magic)?;
    w.write_all(&version.to_le_bytes())?;
    Ok(())
}

/// Reads and validates the prologue, returning the file's version.
///
/// # Errors
///
/// [`StoreError::BadMagic`] on foreign bytes, [`StoreError::VersionSkew`]
/// when the file is newer than `supported`, [`StoreError::Truncated`] when
/// the input ends inside the prologue.
pub fn read_prologue<R: BufRead>(r: &mut R, magic: &'static str, supported: u32) -> Result<u32> {
    let mut found = [0u8; 4];
    read_exact(r, &mut found, "magic")?;
    if found != magic.as_bytes() {
        return Err(StoreError::BadMagic {
            expected: magic,
            found,
        });
    }
    let mut v = [0u8; 4];
    read_exact(r, &mut v, "version")?;
    let version = u32::from_le_bytes(v);
    if version > supported {
        return Err(StoreError::VersionSkew {
            found: version,
            supported,
        });
    }
    Ok(version)
}

fn read_exact<R: Read>(r: &mut R, buf: &mut [u8], section: &str) -> Result<()> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            StoreError::Truncated {
                section: section.to_string(),
            }
        } else {
            StoreError::Io(e)
        }
    })
}

/// Accumulates one section's payload, then emits the framed, checksummed
/// section.
#[derive(Debug)]
pub struct SectionWriter {
    name: String,
    buf: Vec<u8>,
}

impl SectionWriter {
    /// Starts a section named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        SectionWriter {
            name: name.into(),
            buf: Vec::new(),
        }
    }

    /// Appends a `u8`.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its raw IEEE-754 bits (exact round trip).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends raw bytes (length is *not* prefixed; pair with a count the
    /// reader already knows, or prefix one yourself).
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Payload size so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the payload is still empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Frames and writes the section.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; `Malformed` if the name or payload exceeds
    /// the format limits (a writer bug, surfaced rather than silently
    /// producing an unreadable file).
    pub fn finish<W: Write>(self, w: &mut W) -> Result<()> {
        if self.name.len() > MAX_NAME_BYTES as usize {
            return Err(StoreError::malformed(&self.name, "section name too long"));
        }
        if self.buf.len() as u64 > MAX_SECTION_BYTES {
            return Err(StoreError::malformed(&self.name, "section payload too big"));
        }
        w.write_all(&(self.name.len() as u16).to_le_bytes())?;
        w.write_all(self.name.as_bytes())?;
        w.write_all(&(self.buf.len() as u64).to_le_bytes())?;
        w.write_all(&self.buf)?;
        w.write_all(&fnv1a64(&self.buf).to_le_bytes())?;
        Ok(())
    }
}

/// One section read from an in-memory document, checksum already
/// verified. The payload is borrowed, never copied; typed accessors
/// consume it left to right.
#[derive(Debug)]
pub struct Section<'a> {
    name: String,
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Section<'a> {
    /// Reads the next section frame from the front of `r` and verifies
    /// its checksum.
    ///
    /// # Errors
    ///
    /// [`StoreError::Truncated`] when the input ends mid-frame,
    /// [`StoreError::Corrupt`] on a checksum mismatch.
    pub fn read(r: &mut &'a [u8]) -> Result<Section<'a>> {
        Self::read_feeding(r, &mut Fnv1a64::new())
    }

    /// [`Section::read`], also feeding every byte of the frame to
    /// `whole`. The payload goes through both hashes in one pass, so a
    /// caller that checksums the whole file as well as each section
    /// hashes the payload at the cost of one hash.
    ///
    /// # Errors
    ///
    /// As [`Section::read`].
    pub(crate) fn read_feeding(r: &mut &'a [u8], whole: &mut Fnv1a64) -> Result<Section<'a>> {
        let mut len2 = [0u8; 2];
        read_exact(r, &mut len2, "section header")?;
        whole.update(&len2);
        let name_len = u16::from_le_bytes(len2);
        if name_len > MAX_NAME_BYTES {
            return Err(StoreError::malformed(
                "section header",
                format!("section name length {name_len} exceeds the format limit"),
            ));
        }
        let mut name_bytes = vec![0u8; name_len as usize];
        read_exact(r, &mut name_bytes, "section header")?;
        whole.update(&name_bytes);
        let name = String::from_utf8(name_bytes)
            .map_err(|_| StoreError::malformed("section header", "section name is not UTF-8"))?;
        let mut len8 = [0u8; 8];
        read_exact(r, &mut len8, &name)?;
        whole.update(&len8);
        let payload_len = u64::from_le_bytes(len8);
        if payload_len > MAX_SECTION_BYTES {
            return Err(StoreError::malformed(
                &name,
                format!("payload length {payload_len} exceeds the format limit"),
            ));
        }
        let all: &'a [u8] = r;
        let len = payload_len as usize;
        let Some(buf) = all.get(..len) else {
            return Err(StoreError::Truncated { section: name });
        };
        *r = all.get(len..).unwrap_or_default();
        let got = whole.update_and_digest(buf);
        let mut sum = [0u8; 8];
        read_exact(r, &mut sum, &name)?;
        whole.update(&sum);
        let expected = u64::from_le_bytes(sum);
        if got != expected {
            return Err(StoreError::Corrupt {
                section: name,
                expected,
                got,
            });
        }
        Ok(Section { name, buf, pos: 0 })
    }

    /// [`Section::read`], additionally requiring the section be named
    /// `want`.
    ///
    /// # Errors
    ///
    /// As [`Section::read`], plus `Malformed` when a different section
    /// arrives (format layout violation).
    pub fn expect(r: &mut &'a [u8], want: &str) -> Result<Section<'a>> {
        Self::read(r)?.named(want)
    }

    /// This section, required to be named `want`.
    ///
    /// # Errors
    ///
    /// `Malformed` when it has another name (format layout violation).
    pub(crate) fn named(self, want: &str) -> Result<Section<'a>> {
        if self.name != want {
            return Err(StoreError::malformed(
                want,
                format!("expected section `{want}`, found `{}`", self.name),
            ));
        }
        Ok(self)
    }

    /// The section's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Unconsumed payload bytes.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let truncated = || StoreError::Truncated {
            section: self.name.clone(),
        };
        let end = self.pos.checked_add(n).ok_or_else(truncated)?;
        let out = self.buf.get(self.pos..end).ok_or_else(truncated)?;
        self.pos = end;
        Ok(out)
    }

    /// Takes exactly `N` bytes as an array. `take` already guarantees the
    /// length, so the conversion error arm is dead — it still returns
    /// `Truncated` rather than panicking (the decode path is panic-free
    /// by contract, and betalike-lint enforces it).
    fn take_array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let bytes = self.take(N)?;
        <[u8; N]>::try_from(bytes).map_err(|_| StoreError::Truncated {
            section: self.name.clone(),
        })
    }

    /// Reads a `u8`.
    ///
    /// # Errors
    ///
    /// `Truncated` when the payload is exhausted.
    pub fn u8(&mut self) -> Result<u8> {
        let [b] = self.take_array::<1>()?;
        Ok(b)
    }

    /// Reads a `u32`.
    ///
    /// # Errors
    ///
    /// `Truncated` when the payload is exhausted.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take_array()?))
    }

    /// Reads a `u64`.
    ///
    /// # Errors
    ///
    /// `Truncated` when the payload is exhausted.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take_array()?))
    }

    /// Reads an `f64` from its raw bits.
    ///
    /// # Errors
    ///
    /// `Truncated` when the payload is exhausted.
    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `u64` and narrows it to `usize`.
    ///
    /// # Errors
    ///
    /// `Truncated` on exhaustion; `Malformed` if the value does not fit a
    /// `usize`.
    pub fn len64(&mut self) -> Result<usize> {
        let v = self.u64()?;
        usize::try_from(v)
            .map_err(|_| StoreError::malformed(&self.name, format!("length {v} overflows usize")))
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// `Truncated` on exhaustion; `Malformed` on invalid UTF-8 or an
    /// implausible length.
    pub fn str(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        if len > self.remaining() {
            return Err(StoreError::Truncated {
                section: self.name.clone(),
            });
        }
        let name = self.name.clone();
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| StoreError::malformed(&name, "string is not UTF-8"))
    }

    /// Reads exactly `n` raw bytes.
    ///
    /// # Errors
    ///
    /// `Truncated` when fewer remain.
    pub fn bytes(&mut self, n: usize) -> Result<Vec<u8>> {
        Ok(self.take(n)?.to_vec())
    }

    /// Every unconsumed payload byte (a nested document).
    pub(crate) fn rest(&mut self) -> &'a [u8] {
        let start = self.pos;
        self.pos = self.buf.len();
        self.buf.get(start..).unwrap_or_default()
    }

    /// Reads `n` little-endian codes packed `width` bytes apiece (1, 2 or
    /// 4) in one bulk pass — the reader for every code column and row-id
    /// list. The payload length is checked before anything is allocated,
    /// so a crafted count fails as `Truncated` instead of sizing a buffer.
    ///
    /// # Errors
    ///
    /// `Malformed` on any other width (only when `n > 0`: an empty list
    /// reads no code), `Truncated` when fewer than `n` codes remain.
    pub fn codes(&mut self, n: usize, width: u8) -> Result<Vec<u32>> {
        if n == 0 {
            return Ok(Vec::new());
        }
        if !matches!(width, 1 | 2 | 4) {
            return Err(StoreError::malformed(
                &self.name,
                format!("unknown code width {width}"),
            ));
        }
        let len = n
            .checked_mul(usize::from(width))
            .ok_or_else(|| StoreError::Truncated {
                section: self.name.clone(),
            })?;
        let bytes = self.take(len)?;
        Ok(match width {
            1 => bytes.iter().map(|&b| u32::from(b)).collect(),
            _ => bytes
                .chunks_exact(usize::from(width))
                .map(|le| le.iter().rev().fold(0, |v, &b| v << 8 | u32::from(b)))
                .collect(),
        })
    }

    /// Asserts the payload was fully consumed — trailing bytes mean the
    /// writer and reader disagree about the layout.
    ///
    /// # Errors
    ///
    /// `Malformed` naming the section when bytes remain.
    pub fn finish(self) -> Result<()> {
        if self.pos != self.buf.len() {
            return Err(StoreError::malformed(
                &self.name,
                format!("{} unread trailing bytes", self.buf.len() - self.pos),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(name: &str, fill: impl FnOnce(&mut SectionWriter)) -> Vec<u8> {
        let mut w = SectionWriter::new(name);
        fill(&mut w);
        let mut out = Vec::new();
        w.finish(&mut out).unwrap();
        out
    }

    #[test]
    fn roundtrip_all_field_types() {
        let bytes = frame("t", |w| {
            w.u8(7);
            w.u32(40_000);
            w.u64(u64::MAX - 1);
            w.f64(0.1 + 0.2);
            w.str("héllo");
            w.bytes(&[1, 2, 3]);
        });
        let mut r = &bytes[..];
        let mut s = Section::expect(&mut r, "t").unwrap();
        assert_eq!(s.u8().unwrap(), 7);
        assert_eq!(s.u32().unwrap(), 40_000);
        assert_eq!(s.u64().unwrap(), u64::MAX - 1);
        assert_eq!(s.f64().unwrap().to_bits(), (0.1f64 + 0.2).to_bits());
        assert_eq!(s.str().unwrap(), "héllo");
        assert_eq!(s.bytes(3).unwrap(), vec![1, 2, 3]);
        s.finish().unwrap();
        assert!(r.is_empty());
    }

    #[test]
    fn codes_read_every_width_in_bulk() {
        let vals = [0u32, 1, 255, 256, 65_535, 65_536, u32::MAX];
        for (width, keep) in [(1u8, 3), (2, 5), (4, 7)] {
            let bytes = frame("c", |w| {
                for &v in &vals[..keep] {
                    w.bytes(&v.to_le_bytes()[..usize::from(width)]);
                }
            });
            let mut s = Section::read(&mut &bytes[..]).unwrap();
            assert_eq!(s.codes(keep, width).unwrap(), vals[..keep]);
            s.finish().unwrap();
            // One code more than the payload holds, and a count whose
            // byte length overflows, are truncations naming the section.
            for n in [keep + 1, usize::MAX] {
                let mut s = Section::read(&mut &bytes[..]).unwrap();
                match s.codes(n, width) {
                    Err(StoreError::Truncated { section }) => assert_eq!(section, "c"),
                    other => panic!("width {width}, n {n}: {other:?}"),
                }
            }
        }
        let bytes = frame("c", |w| w.u32(7));
        let mut s = Section::read(&mut &bytes[..]).unwrap();
        assert!(matches!(s.codes(1, 3), Err(StoreError::Malformed { .. })));
        // An empty list reads nothing, whatever its width byte says.
        assert_eq!(s.codes(0, 3).unwrap(), Vec::<u32>::new());
        assert_eq!(s.remaining(), 4);
    }

    #[test]
    fn checksum_mismatch_names_section() {
        let mut bytes = frame("payload", |w| w.u64(42));
        // Flip a payload byte (name_len 2 + name 7 + len 8 = 17 bytes in).
        bytes[17] ^= 0xff;
        let err = Section::read(&mut &bytes[..]).unwrap_err();
        match err {
            StoreError::Corrupt { section, .. } => assert_eq!(section, "payload"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn truncation_names_section() {
        let bytes = frame("data", |w| w.bytes(&[9; 100]));
        for cut in [1, 5, 30, bytes.len() - 1] {
            let err = Section::read(&mut &bytes[..cut]).unwrap_err();
            match err {
                StoreError::Truncated { section } => {
                    assert!(
                        section == "data" || section == "section header",
                        "{section}"
                    );
                }
                other => panic!("expected Truncated at cut {cut}, got {other:?}"),
            }
        }
    }

    #[test]
    fn over_read_and_trailing_bytes_are_errors() {
        let bytes = frame("s", |w| w.u32(1));
        let mut s = Section::read(&mut &bytes[..]).unwrap();
        assert!(matches!(s.u64(), Err(StoreError::Truncated { .. })));
        let mut s = Section::read(&mut &bytes[..]).unwrap();
        assert_eq!(s.u8().unwrap(), 1);
        assert!(matches!(s.finish(), Err(StoreError::Malformed { .. })));
    }

    #[test]
    fn wrong_section_name_is_malformed() {
        let bytes = frame("a", |w| w.u8(0));
        assert!(matches!(
            Section::expect(&mut &bytes[..], "b"),
            Err(StoreError::Malformed { .. })
        ));
    }

    #[test]
    fn prologue_validates_magic_and_version() {
        let mut buf = Vec::new();
        write_prologue(&mut buf, b"BTBL", 1).unwrap();
        assert_eq!(read_prologue(&mut &buf[..], "BTBL", 1).unwrap(), 1);
        assert!(matches!(
            read_prologue(&mut &buf[..], "BPUB", 1),
            Err(StoreError::BadMagic { .. })
        ));
        assert!(matches!(
            read_prologue(&mut &buf[..], "BTBL", 0),
            Err(StoreError::VersionSkew {
                found: 1,
                supported: 0
            })
        ));
        assert!(matches!(
            read_prologue(&mut &buf[..3], "BTBL", 1),
            Err(StoreError::Truncated { .. })
        ));
    }

    #[test]
    fn implausible_lengths_are_rejected() {
        // A frame whose payload length field claims 2^40 bytes.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&1u16.to_le_bytes());
        bytes.push(b'x');
        bytes.extend_from_slice(&(1u64 << 40).to_le_bytes());
        assert!(matches!(
            Section::read(&mut &bytes[..]),
            Err(StoreError::Malformed { .. })
        ));
    }
}
