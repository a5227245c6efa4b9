//! Hand-rolled snapshot wire format: state dumps and result-store entries.
//!
//! A paused simulation dumps every stateful component into a versioned,
//! length-prefixed little-endian binary stream (DESIGN §10). The dump is
//! write-only; only result-store entries are read back.
//! The build has no serialization dependency, so this module is a
//! deliberately small pair of types:
//!
//! * [`Saver`] — appends labeled primitives to a byte buffer. Labels are
//!   normally free (a `&str` that is never read); constructing the saver
//!   with [`Saver::with_labels`] records a `(path, value)` dump alongside
//!   the bytes, which is how `dbg_diverge` turns two snapshots into a
//!   component-level field diff without a second serialization code path.
//! * [`Loader`] — the reader for store entries (and for a dump's header
//!   and frame boundaries). Every read returns a [`SnapError`] on malformed
//!   input (truncation, tag mismatch, version skew) instead of panicking,
//!   so a caller reading a store entry from disk can reject a corrupt one
//!   loudly.
//!
//! Component state is framed: a frame is `tag (4 bytes) · index (u32) ·
//! payload length (u64) · payload`. Frames nest; the top-level frames of a
//! machine snapshot are the unit of digesting (see [`digest`]), which lets a
//! divergence search compare architectural components while ignoring frames
//! that legitimately differ between configurations (e.g. policy-unit state).

use std::fmt::Write as _;

/// Magic bytes opening every snapshot produced by this crate family.
pub const SNAP_MAGIC: [u8; 4] = *b"LZSN";

/// Current snapshot wire-format version. State dumps carry it in their
/// header; nothing reads a dump back, so it only labels what a dump's bytes
/// mean: bump it on a change to the dump layout. Version 2 is the
/// per-bank pending-queue layout. Result-store entries carry their own
/// header version.
pub const SNAP_VERSION: u16 = 2;

/// Error produced when decoding a snapshot fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The buffer ended before the value could be read.
    Truncated {
        /// Label of the value being read.
        label: String,
        /// Byte offset at which the read started.
        at: usize,
    },
    /// The snapshot does not start with [`SNAP_MAGIC`].
    BadMagic,
    /// The snapshot was written by an incompatible format version.
    Version {
        /// Version found in the snapshot header.
        found: u16,
    },
    /// A frame's tag did not match what the loader expected.
    Tag {
        /// Expected frame tag.
        expected: String,
        /// Tag found in the stream.
        found: String,
        /// Byte offset of the frame header.
        at: usize,
    },
    /// A frame's index did not match what the loader expected.
    Index {
        /// Frame tag.
        tag: String,
        /// Expected index.
        expected: u32,
        /// Index found in the stream.
        found: u32,
    },
    /// A frame's payload was not fully consumed (or was over-read).
    FrameSize {
        /// Frame tag.
        tag: String,
        /// Declared payload length.
        declared: u64,
        /// Bytes actually consumed by the frame decoder.
        consumed: u64,
    },
    /// A decoded value was structurally invalid (bad enum discriminant,
    /// impossible length, …).
    Malformed {
        /// Label of the offending value.
        label: String,
        /// Description of the problem.
        why: String,
    },
}

impl std::fmt::Display for SnapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapError::Truncated { label, at } => {
                write!(f, "snapshot truncated reading `{label}` at byte {at}")
            }
            SnapError::BadMagic => f.write_str("not a snapshot (bad magic)"),
            SnapError::Version { found } => {
                write!(
                    f,
                    "snapshot version {found} is not the one this build reads"
                )
            }
            SnapError::Tag {
                expected,
                found,
                at,
            } => {
                write!(
                    f,
                    "expected frame `{expected}` at byte {at}, found `{found}`"
                )
            }
            SnapError::Index {
                tag,
                expected,
                found,
            } => {
                write!(f, "frame `{tag}`: expected index {expected}, found {found}")
            }
            SnapError::FrameSize {
                tag,
                declared,
                consumed,
            } => write!(
                f,
                "frame `{tag}`: declared {declared} payload bytes, decoder consumed {consumed}"
            ),
            SnapError::Malformed { label, why } => {
                write!(f, "malformed value `{label}`: {why}")
            }
        }
    }
}

impl std::error::Error for SnapError {}

/// Decoding result shorthand.
pub type SnapResult<T> = Result<T, SnapError>;

#[inline]
fn mix(mut z: u64) -> u64 {
    // SplitMix64 finalizer (same constants as `rng::SplitMix64`).
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Folds one 64-bit word into a running SplitMix64-style digest.
#[inline]
pub fn fold(h: u64, x: u64) -> u64 {
    mix(h ^ x.wrapping_add(0x9E37_79B9_7F4A_7C15))
}

/// Canonical digest of a byte string: SplitMix64-folded over 8-byte
/// little-endian chunks (final partial chunk zero-padded), with the length
/// folded in last so `"a"` and `"a\0"` differ.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h = 0x5851_F42D_4C95_7F2Du64;
    let mut chunks = bytes.chunks_exact(8);
    for c in chunks.by_ref() {
        h = fold(h, u64::from_le_bytes(c.try_into().unwrap()));
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut last = [0u8; 8];
        last[..rem.len()].copy_from_slice(rem);
        h = fold(h, u64::from_le_bytes(last));
    }
    fold(h, bytes.len() as u64)
}

fn tag4(tag: &str) -> [u8; 4] {
    let b = tag.as_bytes();
    assert!(b.len() <= 4, "frame tag `{tag}` longer than 4 bytes");
    let mut out = *b"    ";
    out[..b.len()].copy_from_slice(b);
    out
}

fn tag_str(raw: [u8; 4]) -> String {
    String::from_utf8_lossy(&raw).trim_end().to_string()
}

/// One top-level frame located inside a snapshot payload (see
/// [`list_frames`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameInfo {
    /// Frame tag (trailing padding stripped).
    pub tag: String,
    /// Frame index (disambiguates repeated components, e.g. `sm[3]`).
    pub index: u32,
    /// Offset of the frame payload inside the scanned byte region.
    pub payload_start: usize,
    /// Payload length in bytes.
    pub payload_len: usize,
}

impl FrameInfo {
    /// The payload bytes of this frame within `region` (the same slice that
    /// was passed to [`list_frames`]).
    pub fn payload<'a>(&self, region: &'a [u8]) -> &'a [u8] {
        &region[self.payload_start..self.payload_start + self.payload_len]
    }
}

/// Walks a byte region that consists solely of consecutive frames and
/// returns their locations. Nested frames are *not* descended into — only
/// the outermost sequence is listed.
pub fn list_frames(region: &[u8]) -> SnapResult<Vec<FrameInfo>> {
    let mut out = Vec::new();
    let mut pos = 0usize;
    while pos < region.len() {
        if region.len() - pos < 16 {
            return Err(SnapError::Truncated {
                label: "frame header".into(),
                at: pos,
            });
        }
        let tag = tag_str(region[pos..pos + 4].try_into().unwrap());
        let index = u32::from_le_bytes(region[pos + 4..pos + 8].try_into().unwrap());
        let len = u64::from_le_bytes(region[pos + 8..pos + 16].try_into().unwrap()) as usize;
        let payload_start = pos + 16;
        if region.len() - payload_start < len {
            return Err(SnapError::Truncated {
                label: format!("frame `{tag}` payload"),
                at: pos,
            });
        }
        out.push(FrameInfo {
            tag,
            index,
            payload_start,
            payload_len: len,
        });
        pos = payload_start + len;
    }
    Ok(out)
}

/// Serializer: appends labeled little-endian primitives to a growing byte
/// buffer. Labels cost nothing unless the saver was built with
/// [`Saver::with_labels`].
#[derive(Debug)]
pub struct Saver {
    buf: Vec<u8>,
    labels: Option<LabelSink>,
}

#[derive(Debug, Default)]
struct LabelSink {
    /// The enclosing frames as one running prefix, `tag[index]/` each.
    path: String,
    fields: Vec<(String, String)>,
}

impl LabelSink {
    fn record(&mut self, label: &str, value: String) {
        let mut path = String::with_capacity(self.path.len() + label.len());
        path.push_str(&self.path);
        path.push_str(label);
        self.fields.push((path, value));
    }
}

macro_rules! saver_prim {
    ($(#[$doc:meta])* $name:ident, $ty:ty) => {
        $(#[$doc])*
        pub fn $name(&mut self, label: &str, v: $ty) {
            if let Some(sink) = &mut self.labels {
                sink.record(label, format!("{v:?}"));
            }
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    };
}

impl Default for Saver {
    fn default() -> Self {
        Self::new()
    }
}

impl Saver {
    /// Creates a saver with label recording off (the normal, zero-cost mode).
    pub fn new() -> Self {
        Self {
            buf: Vec::new(),
            labels: None,
        }
    }

    /// Creates a saver that records a `(path, value)` pair for every
    /// primitive written — the input to `dbg_diverge`'s field diff.
    pub fn with_labels() -> Self {
        Self {
            buf: Vec::new(),
            labels: Some(LabelSink::default()),
        }
    }

    /// Consumes the saver and returns the serialized bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Consumes the saver and returns the bytes together with the recorded
    /// label dump (empty unless built via [`Saver::with_labels`]).
    pub fn finish_with_labels(self) -> (Vec<u8>, Vec<(String, String)>) {
        let labels = self.labels.map(|s| s.fields).unwrap_or_default();
        (self.buf, labels)
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes the snapshot header ([`SNAP_MAGIC`] + [`SNAP_VERSION`]).
    pub fn header(&mut self) {
        self.header_version(SNAP_VERSION);
    }

    /// Writes a snapshot header carrying `version`: for a format that is
    /// versioned apart from state dumps, such as result-store entries.
    pub fn header_version(&mut self, version: u16) {
        self.buf.extend_from_slice(&SNAP_MAGIC);
        self.buf.extend_from_slice(&version.to_le_bytes());
    }

    saver_prim!(
        /// Writes a labeled `u8`.
        u8, u8
    );
    saver_prim!(
        /// Writes a labeled `u16`.
        u16, u16
    );
    saver_prim!(
        /// Writes a labeled `u32`.
        u32, u32
    );
    saver_prim!(
        /// Writes a labeled `u64`.
        u64, u64
    );
    saver_prim!(
        /// Writes a labeled `i64`.
        i64, i64
    );

    /// Writes a labeled `usize` (as a `u64` on the wire).
    pub fn usize(&mut self, label: &str, v: usize) {
        self.u64(label, v as u64);
    }

    /// Writes a labeled `bool` (one byte, `0` or `1`).
    pub fn bool(&mut self, label: &str, v: bool) {
        self.u8(label, u8::from(v));
    }

    /// Writes a labeled `f32` as its raw IEEE-754 bits (bit-exact, NaN-safe).
    pub fn f32(&mut self, label: &str, v: f32) {
        if let Some(sink) = &mut self.labels {
            sink.record(label, format!("{v:?} (0x{:08x})", v.to_bits()));
        }
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Writes a labeled `f64` as its raw IEEE-754 bits (bit-exact, NaN-safe).
    pub fn f64(&mut self, label: &str, v: f64) {
        if let Some(sink) = &mut self.labels {
            sink.record(label, format!("{v:?} (0x{:016x})", v.to_bits()));
        }
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Writes a labeled `f32` slice: `u64` length + raw bits. Recorded in
    /// the label dump as a length + digest summary, not per element.
    pub fn f32s(&mut self, label: &str, vs: &[f32]) {
        let start = self.buf.len();
        self.buf.extend_from_slice(&(vs.len() as u64).to_le_bytes());
        for v in vs {
            self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        if let Some(sink) = &mut self.labels {
            let d = digest(&self.buf[start..]);
            sink.record(label, format!("[f32; {}] digest=0x{d:016x}", vs.len()));
        }
    }

    /// Writes a labeled `u64` slice: `u64` length + raw values. Recorded in
    /// the label dump as a length + digest summary, not per element.
    pub fn u64s(&mut self, label: &str, vs: &[u64]) {
        let start = self.buf.len();
        self.buf.extend_from_slice(&(vs.len() as u64).to_le_bytes());
        for v in vs {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
        if let Some(sink) = &mut self.labels {
            let d = digest(&self.buf[start..]);
            sink.record(label, format!("[u64; {}] digest=0x{d:016x}", vs.len()));
        }
    }

    /// Writes a labeled length prefix for a sequence serialized element by
    /// element right after this call.
    pub fn seq(&mut self, label: &str, len: usize) {
        self.u64(label, len as u64);
    }

    /// Writes a labeled UTF-8 string: `u64` length + raw bytes.
    pub fn str(&mut self, label: &str, v: &str) {
        if let Some(sink) = &mut self.labels {
            sink.record(label, format!("{v:?}"));
        }
        self.buf.extend_from_slice(&(v.len() as u64).to_le_bytes());
        self.buf.extend_from_slice(v.as_bytes());
    }

    /// Writes a frame: `tag` (≤ 4 bytes, space-padded), `index`, payload
    /// length, then the payload produced by `body`. Frames nest freely.
    ///
    /// # Panics
    ///
    /// Panics if `tag` exceeds 4 bytes.
    pub fn frame<R>(&mut self, tag: &str, index: u32, body: impl FnOnce(&mut Self) -> R) -> R {
        self.buf.extend_from_slice(&tag4(tag));
        self.buf.extend_from_slice(&index.to_le_bytes());
        let len_at = self.buf.len();
        self.buf.extend_from_slice(&0u64.to_le_bytes());
        let prefix_len = self.labels.as_mut().map(|sink| {
            let len = sink.path.len();
            let _ = write!(sink.path, "{tag}[{index}]/");
            len
        });
        let out = body(self);
        if let (Some(sink), Some(len)) = (&mut self.labels, prefix_len) {
            sink.path.truncate(len);
        }
        let payload_len = (self.buf.len() - len_at - 8) as u64;
        self.buf[len_at..len_at + 8].copy_from_slice(&payload_len.to_le_bytes());
        out
    }
}

macro_rules! loader_prim {
    ($(#[$doc:meta])* $name:ident, $ty:ty, $width:expr) => {
        $(#[$doc])*
        pub fn $name(&mut self, label: &str) -> SnapResult<$ty> {
            let bytes = self.take(label, $width)?;
            Ok(<$ty>::from_le_bytes(bytes.try_into().unwrap()))
        }
    };
}

/// Deserializer over a snapshot byte slice, for the primitives store
/// entries hold; every read validates bounds and returns
/// [`SnapError`] on malformed input.
#[derive(Debug)]
pub struct Loader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Loader<'a> {
    /// Creates a loader over `buf`, positioned at its start.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Current byte offset.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// `true` when the whole buffer has been consumed.
    pub fn is_done(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, label: &str, n: usize) -> SnapResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(SnapError::Truncated {
                label: label.into(),
                at: self.pos,
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads and validates the snapshot header; returns the format version.
    pub fn expect_header(&mut self) -> SnapResult<u16> {
        self.expect_header_version(SNAP_VERSION)
    }

    /// Reads a header written by [`Saver::header_version`], requiring
    /// `want` as its version.
    pub fn expect_header_version(&mut self, want: u16) -> SnapResult<u16> {
        let magic = self.take("magic", 4)?;
        if magic != SNAP_MAGIC {
            return Err(SnapError::BadMagic);
        }
        let version = self.u16("version")?;
        if version != want {
            return Err(SnapError::Version { found: version });
        }
        Ok(version)
    }

    loader_prim!(
        /// Reads a `u8`.
        u8, u8, 1
    );
    loader_prim!(
        /// Reads a `u16`.
        u16, u16, 2
    );
    loader_prim!(
        /// Reads a `u32`.
        u32, u32, 4
    );
    loader_prim!(
        /// Reads a `u64`.
        u64, u64, 8
    );

    /// Reads a `bool`; rejects bytes other than `0`/`1`.
    pub fn bool(&mut self, label: &str) -> SnapResult<bool> {
        match self.u8(label)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapError::Malformed {
                label: label.into(),
                why: format!("bool byte 0x{b:02x}"),
            }),
        }
    }

    /// Reads an `f64` from its raw bits.
    pub fn f64(&mut self, label: &str) -> SnapResult<f64> {
        Ok(f64::from_bits(self.u64(label)?))
    }

    /// Reads a sequence length written by [`Saver::seq`], rejecting lengths
    /// that could not possibly fit in the remaining buffer assuming at least
    /// `min_elem_bytes` bytes per element (pass 1 when unsure) — this keeps
    /// a corrupt length from triggering a huge allocation.
    pub fn seq(&mut self, label: &str, min_elem_bytes: usize) -> SnapResult<usize> {
        let len = self.u64(label)? as usize;
        let need = len.saturating_mul(min_elem_bytes.max(1));
        if need > self.remaining() {
            return Err(SnapError::Malformed {
                label: label.into(),
                why: format!("length {len} exceeds remaining {} bytes", self.remaining()),
            });
        }
        Ok(len)
    }

    /// Reads a `u64` slice written by [`Saver::u64s`] into `out`
    /// (cleared first; capacity retained).
    pub fn u64s(&mut self, label: &str, out: &mut Vec<u64>) -> SnapResult<()> {
        let len = self.seq(label, 8)?;
        out.clear();
        out.reserve(len);
        for _ in 0..len {
            out.push(self.u64(label)?);
        }
        Ok(())
    }

    /// Reads a UTF-8 string written by [`Saver::str`]; rejects invalid UTF-8.
    pub fn str(&mut self, label: &str) -> SnapResult<String> {
        let len = self.seq(label, 1)?;
        let bytes = self.take(label, len)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| SnapError::Malformed {
            label: label.into(),
            why: format!("invalid UTF-8: {e}"),
        })
    }

    /// Reads a frame written by [`Saver::frame`], validating tag and index,
    /// and requiring `body` to consume the payload exactly.
    pub fn frame<R>(
        &mut self,
        tag: &str,
        index: u32,
        body: impl FnOnce(&mut Self) -> SnapResult<R>,
    ) -> SnapResult<R> {
        let at = self.pos;
        let raw = self.take("frame tag", 4)?;
        let found = tag_str(raw.try_into().unwrap());
        let expected = tag_str(tag4(tag));
        if found != expected {
            return Err(SnapError::Tag {
                expected,
                found,
                at,
            });
        }
        let found_index = self.u32("frame index")?;
        if found_index != index {
            return Err(SnapError::Index {
                tag: expected,
                expected: index,
                found: found_index,
            });
        }
        let len = self.u64("frame len")?;
        if (len as usize) > self.remaining() {
            return Err(SnapError::Truncated {
                label: format!("frame `{expected}` payload"),
                at,
            });
        }
        let start = self.pos;
        let out = body(self)?;
        let consumed = (self.pos - start) as u64;
        if consumed != len {
            return Err(SnapError::FrameSize {
                tag: expected,
                declared: len,
                consumed,
            });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut s = Saver::new();
        s.header();
        s.u8("a", 0xAB);
        s.u16("b", 0xCDEF);
        s.u32("c", 0xDEAD_BEEF);
        s.u64("d", 0x0123_4567_89AB_CDEF);
        s.i64("e", -42);
        s.usize("f", 7);
        s.bool("g", true);
        s.f32("h", -1.5);
        s.f64("i", std::f64::consts::PI);
        s.f32s("j", &[1.0, f32::NAN, 3.0]);
        s.u64s("k", &[9, 8]);
        let bytes = s.finish();

        let mut l = Loader::new(&bytes);
        assert_eq!(l.expect_header().unwrap(), SNAP_VERSION);
        assert_eq!(l.u8("a").unwrap(), 0xAB);
        assert_eq!(l.u16("b").unwrap(), 0xCDEF);
        assert_eq!(l.u32("c").unwrap(), 0xDEAD_BEEF);
        assert_eq!(l.u64("d").unwrap(), 0x0123_4567_89AB_CDEF);
        // Write-only primitives read back through their wire types.
        assert_eq!(l.u64("e").unwrap() as i64, -42);
        assert_eq!(l.u64("f").unwrap(), 7);
        assert!(l.bool("g").unwrap());
        assert_eq!(f32::from_bits(l.u32("h").unwrap()), -1.5);
        assert_eq!(l.f64("i").unwrap(), std::f64::consts::PI);
        assert_eq!(l.seq("j", 4).unwrap(), 3);
        assert_eq!(f32::from_bits(l.u32("j").unwrap()), 1.0);
        assert!(f32::from_bits(l.u32("j").unwrap()).is_nan());
        assert_eq!(f32::from_bits(l.u32("j").unwrap()), 3.0);
        let mut us = Vec::new();
        l.u64s("k", &mut us).unwrap();
        assert_eq!(us, vec![9, 8]);
        assert!(l.is_done());
    }

    #[test]
    fn strings_round_trip_and_reject_bad_utf8() {
        let mut s = Saver::new();
        s.str("app", "SCP");
        s.str("scheme", "Dyn-DMS+Dyn-AMS");
        s.str("empty", "");
        let bytes = s.finish();
        let mut l = Loader::new(&bytes);
        assert_eq!(l.str("app").unwrap(), "SCP");
        assert_eq!(l.str("scheme").unwrap(), "Dyn-DMS+Dyn-AMS");
        assert_eq!(l.str("empty").unwrap(), "");
        assert!(l.is_done());

        let mut s = Saver::new();
        s.str("x", "ab");
        let mut bytes = s.finish();
        bytes[8] = 0xFF; // not valid UTF-8
        let mut l = Loader::new(&bytes);
        assert!(matches!(l.str("x"), Err(SnapError::Malformed { .. })));

        // Truncated string payloads are an error, not a panic.
        let mut s = Saver::new();
        s.str("x", "hello");
        let bytes = s.finish();
        let mut l = Loader::new(&bytes[..10]);
        assert!(l.str("x").is_err());
    }

    #[test]
    fn nan_bits_survive_exactly() {
        let weird = f32::from_bits(0x7FC0_1234);
        let mut s = Saver::new();
        s.f32("x", weird);
        let bytes = s.finish();
        let mut l = Loader::new(&bytes);
        assert_eq!(l.u32("x").unwrap(), 0x7FC0_1234);
    }

    #[test]
    fn frames_nest_and_validate() {
        let mut s = Saver::new();
        s.frame("mach", 0, |s| {
            s.frame("sm", 0, |s| s.u64("cycles", 10));
            s.frame("sm", 1, |s| s.u64("cycles", 20));
        });
        let bytes = s.finish();

        let mut l = Loader::new(&bytes);
        l.frame("mach", 0, |l| {
            l.frame("sm", 0, |l| {
                assert_eq!(l.u64("cycles")?, 10);
                Ok(())
            })?;
            l.frame("sm", 1, |l| {
                assert_eq!(l.u64("cycles")?, 20);
                Ok(())
            })
        })
        .unwrap();
        assert!(l.is_done());
    }

    #[test]
    fn frame_tag_and_index_mismatch_detected() {
        let mut s = Saver::new();
        s.frame("sm", 3, |s| s.u64("x", 1));
        let bytes = s.finish();

        let mut l = Loader::new(&bytes);
        let err = l.frame("mc", 3, |_| Ok(())).unwrap_err();
        assert!(matches!(err, SnapError::Tag { .. }), "{err}");

        let mut l = Loader::new(&bytes);
        let err = l.frame("sm", 4, |_| Ok(())).unwrap_err();
        assert!(matches!(err, SnapError::Index { .. }), "{err}");
    }

    #[test]
    fn frame_underconsumption_detected() {
        let mut s = Saver::new();
        s.frame("sm", 0, |s| {
            s.u64("a", 1);
            s.u64("b", 2);
        });
        let bytes = s.finish();
        let mut l = Loader::new(&bytes);
        let err = l
            .frame("sm", 0, |l| {
                l.u64("a")?;
                Ok(())
            })
            .unwrap_err();
        assert!(
            matches!(
                err,
                SnapError::FrameSize {
                    declared: 16,
                    consumed: 8,
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut s = Saver::new();
        s.u64("x", 5);
        let bytes = s.finish();
        let mut l = Loader::new(&bytes[..4]);
        assert!(matches!(l.u64("x"), Err(SnapError::Truncated { .. })));
    }

    #[test]
    fn header_rejects_bad_magic_and_version() {
        let mut l = Loader::new(b"NOPE\x01\x00");
        assert_eq!(l.expect_header(), Err(SnapError::BadMagic));

        let mut s = Saver::new();
        s.header();
        let mut bytes = s.finish();
        bytes[4] = 99; // corrupt version
        let mut l = Loader::new(&bytes);
        assert_eq!(l.expect_header(), Err(SnapError::Version { found: 99 }));
    }

    #[test]
    fn corrupt_length_rejected_without_allocation() {
        let mut s = Saver::new();
        s.seq("xs", 3);
        let mut bytes = s.finish();
        bytes[0] = 0xFF; // absurd length
        bytes[7] = 0xFF;
        let mut l = Loader::new(&bytes);
        assert!(matches!(l.seq("xs", 8), Err(SnapError::Malformed { .. })));
    }

    #[test]
    fn digest_changes_with_content_and_length() {
        assert_ne!(digest(b"a"), digest(b"b"));
        assert_ne!(digest(b"a"), digest(b"a\0"));
        assert_ne!(digest(b""), digest(b"\0"));
        assert_eq!(digest(b"hello"), digest(b"hello"));
    }

    #[test]
    fn labels_record_paths() {
        let mut s = Saver::with_labels();
        s.frame("mach", 0, |s| {
            s.frame("sm", 2, |s| {
                s.u64("rr", 7);
                s.f32("acc", 1.25);
            });
            s.bool("after", true);
        });
        s.frame("mc", 11, |s| s.u8("x", 3));
        s.u16("top", 4);
        let (_, labels) = s.finish_with_labels();
        let paths: Vec<&str> = labels.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(
            paths,
            [
                "mach[0]/sm[2]/rr",
                "mach[0]/sm[2]/acc",
                "mach[0]/after",
                "mc[11]/x",
                "top"
            ]
        );
        assert_eq!(labels[0].1, "7");
        assert!(labels[1].1.starts_with("1.25"));
    }

    #[test]
    fn labeled_and_unlabeled_bytes_identical() {
        let write = |s: &mut Saver| {
            s.header();
            s.frame("x", 0, |s| {
                s.u64("a", 1);
                s.f32s("b", &[2.0, 3.0]);
            });
        };
        let mut plain = Saver::new();
        write(&mut plain);
        let mut labeled = Saver::with_labels();
        write(&mut labeled);
        assert_eq!(plain.finish(), labeled.finish_with_labels().0);
    }

    #[test]
    fn list_frames_walks_top_level_only() {
        let mut s = Saver::new();
        s.frame("aa", 0, |s| {
            s.frame("in", 0, |s| s.u64("x", 1));
        });
        s.frame("bb", 1, |s| s.u8("y", 2));
        let bytes = s.finish();
        let frames = list_frames(&bytes).unwrap();
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].tag, "aa");
        assert_eq!(frames[1].tag, "bb");
        assert_eq!(frames[1].index, 1);
        assert_eq!(frames[1].payload(&bytes), &[2u8]);
        // Distinct payloads digest differently.
        assert_ne!(
            digest(frames[0].payload(&bytes)),
            digest(frames[1].payload(&bytes))
        );
    }
}
