//! Binary ahead-of-time program bundles: the one warm-restart format.
//!
//! A bundle is a length-prefixed, checksummed record layout:
//!
//! ```text
//! magic    b"MPAC"                         4 bytes
//! version  u32 LE                          (3)
//! count    u64 LE                          number of program records
//! index    count x u64 LE                  byte length of each record
//! records  count x (record ++ crc32 LE)    each record followed by the
//!                                           CRC32 of its own bytes
//! footer   count u64 LE                    must equal the header count
//!          crc32  u32 LE                   CRC32 of every preceding byte
//!          magic  b"CAPM"                  4 bytes
//! ```
//!
//! The index header makes the bundle seekable — a loader knows every
//! record boundary after reading `16 + 8·count` bytes. All scalars are
//! little-endian; record fields are fixed-width, so decoding is a
//! bounds-checked copy with no text parsing and no allocation beyond the
//! program's own region vector.
//!
//! [`FORMAT_VERSION`] is the only version read or written: any other
//! magic or version is rejected as [`std::io::ErrorKind::InvalidData`],
//! never misparsed. Warm state is a cache — a rejected file costs one
//! recompile per shape — so older layouts are not decoded; the restore
//! ladder quarantines them and the compiler starts cold.
//!
//! The per-record checksum makes *prefix salvage* possible: a torn or
//! bit-flipped bundle yields exactly the records whose bytes and checksum
//! survived, via [`salvage_bundle`] — which never errors and never
//! panics. The footer detects silent truncation of whole trailing
//! records (the strict loader treats a missing footer as damage). Writers
//! should pair [`encode_bundle`] with [`write_bytes_atomic`] so a crash
//! mid-write can never leave a half-written file under the final name.

#![warn(clippy::unwrap_used, clippy::expect_used)]

use std::io;
use std::path::{Path, PathBuf};

use tensor_ir::{Conv2dShape, DType, GemmShape, GemmView, Operator};

use crate::kernel::{MicroKernel, MicroKernelId};
use crate::pattern::PatternId;
use crate::plan::{CompiledProgram, Region, SearchStats};

/// The bundle magic: first four bytes of every binary bundle.
pub const BUNDLE_MAGIC: [u8; 4] = *b"MPAC";

/// The footer magic: last four bytes of every bundle.
pub const FOOTER_MAGIC: [u8; 4] = *b"CAPM";

/// The bundle format version: the checksummed layout. The only version
/// this build reads or writes.
pub const FORMAT_VERSION: u32 = 3;

/// Byte size of the footer (count + file CRC + magic).
pub const FOOTER_LEN: usize = 16;

/// Encodes `programs` as a version-[`FORMAT_VERSION`] checksummed bundle.
pub fn encode_bundle<'a>(programs: impl IntoIterator<Item = &'a CompiledProgram>) -> Vec<u8> {
    let records: Vec<Vec<u8>> = programs.into_iter().map(encode_program).collect();
    let body: usize = records.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(16 + 12 * records.len() + body + FOOTER_LEN);
    out.extend_from_slice(&BUNDLE_MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(records.len() as u64).to_le_bytes());
    for r in &records {
        out.extend_from_slice(&(r.len() as u64).to_le_bytes());
    }
    for r in &records {
        out.extend_from_slice(r);
        out.extend_from_slice(&crc32(r).to_le_bytes());
    }
    out.extend_from_slice(&(records.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32(&out).to_le_bytes());
    out.extend_from_slice(&FOOTER_MAGIC);
    out
}

/// Decodes a bundle produced by [`encode_bundle`].
///
/// # Errors
///
/// Returns [`std::io::ErrorKind::InvalidData`] on a bad magic, any
/// version but [`FORMAT_VERSION`], any truncated/malformed record, a
/// checksum mismatch, or a missing or inconsistent footer. For
/// best-effort recovery of a damaged bundle use [`salvage_bundle`]
/// instead.
pub fn decode_bundle(bytes: &[u8]) -> io::Result<Vec<CompiledProgram>> {
    let mut r = Reader::new(bytes);
    if r.take(4)? != BUNDLE_MAGIC {
        return Err(invalid("not a program bundle: bad magic"));
    }
    let version = r.u32()?;
    if version != FORMAT_VERSION {
        return Err(invalid(&format!(
            "unsupported bundle version {version} (this build reads {FORMAT_VERSION})"
        )));
    }
    let count64 = r.u64()?;
    let count = usize_from(count64)?;
    // Guard the index allocation against a hostile count before trusting
    // it: the index alone needs 8 bytes per record.
    if count > r.remaining() / 8 {
        return Err(invalid("bundle index longer than the file"));
    }
    let mut lengths = Vec::with_capacity(count);
    for _ in 0..count {
        lengths.push(usize_from(r.u64()?)?);
    }
    let mut programs = Vec::with_capacity(count);
    for (i, len) in lengths.into_iter().enumerate() {
        let record = r
            .take(len)
            .map_err(|_| invalid(&format!("record {i} truncated: wanted {len} more bytes")))?;
        let stored = r
            .u32()
            .map_err(|_| invalid(&format!("record {i} checksum truncated")))?;
        if crc32(record) != stored {
            return Err(invalid(&format!("record {i} failed its checksum")));
        }
        programs.push(decode_record(record, i)?);
    }
    let footer_count = r
        .u64()
        .map_err(|_| invalid("bundle footer truncated: record count"))?;
    if footer_count != count64 {
        return Err(invalid(&format!(
            "footer claims {footer_count} records, header claims {count64}"
        )));
    }
    // The whole-file checksum covers every byte before itself, footer
    // count included.
    let covered = bytes.len() - r.remaining();
    let stored = r
        .u32()
        .map_err(|_| invalid("bundle footer truncated: file checksum"))?;
    if crc32(&bytes[..covered]) != stored {
        return Err(invalid("bundle failed its whole-file checksum"));
    }
    if r.take(4)
        .map_err(|_| invalid("bundle footer truncated: magic"))?
        != FOOTER_MAGIC
    {
        return Err(invalid("bad footer magic"));
    }
    if r.remaining() != 0 {
        return Err(invalid(&format!(
            "bundle has {} trailing bytes after the footer",
            r.remaining()
        )));
    }
    Ok(programs)
}

/// Decodes one record slice, rejecting trailing bytes inside it.
fn decode_record(record: &[u8], i: usize) -> io::Result<CompiledProgram> {
    let mut rr = Reader::new(record);
    let program =
        decode_program(&mut rr).map_err(|e| invalid(&format!("record {i} malformed: {e}")))?;
    if rr.remaining() != 0 {
        return Err(invalid(&format!(
            "record {i} has {} trailing bytes",
            rr.remaining()
        )));
    }
    Ok(program)
}

/// Best-effort decoding of a possibly-damaged binary bundle.
#[derive(Debug, Clone, PartialEq)]
pub struct SalvagedBundle {
    /// The longest prefix of records that decoded and checksummed clean.
    pub programs: Vec<CompiledProgram>,
    /// The record count the header claims, when the header was readable.
    pub claimed: Option<u64>,
    /// Whether the strict decoder accepted the whole bundle (checksums
    /// and footer included). When `true`, `programs` is the full bundle.
    pub clean: bool,
    /// The strict decoder's rejection, when `clean` is false.
    pub detail: Option<String>,
}

/// Decodes as much of `bytes` as survived: the longest valid record
/// prefix of a torn, bit-flipped, or otherwise damaged bundle.
///
/// Never errors and never panics, whatever the input — arbitrary bytes
/// yield an empty salvage with the strict decoder's rejection attached.
/// A record is kept only if its bytes are fully present, its stored
/// CRC32 matches, and it decodes with no trailing bytes;
/// the scan stops at the first record failing any of those, because
/// record boundaries downstream of damage cannot be trusted.
pub fn salvage_bundle(bytes: &[u8]) -> SalvagedBundle {
    match decode_bundle(bytes) {
        Ok(programs) => SalvagedBundle {
            claimed: Some(programs.len() as u64),
            clean: true,
            detail: None,
            programs,
        },
        Err(strict) => {
            let (programs, claimed) = salvage_prefix(bytes);
            SalvagedBundle {
                programs,
                claimed,
                clean: false,
                detail: Some(strict.to_string()),
            }
        }
    }
}

/// The record-prefix scan behind [`salvage_bundle`]: header best-effort,
/// then records in index order until the first damaged one.
fn salvage_prefix(bytes: &[u8]) -> (Vec<CompiledProgram>, Option<u64>) {
    let mut r = Reader::new(bytes);
    match (r.take(4), r.u32()) {
        (Ok(magic), Ok(FORMAT_VERSION)) if magic == BUNDLE_MAGIC => {}
        _ => return (Vec::new(), None),
    }
    let Ok(count64) = r.u64() else {
        return (Vec::new(), None);
    };
    let claimed = Some(count64);
    let Ok(count) = usize_from(count64) else {
        return (Vec::new(), claimed);
    };
    // A count beyond what the file could index means the count itself is
    // damaged — record boundaries are unknowable, salvage nothing.
    if count > r.remaining() / 8 {
        return (Vec::new(), claimed);
    }
    let mut lengths = Vec::with_capacity(count);
    for _ in 0..count {
        match r.u64().map(usize_from) {
            Ok(Ok(len)) => lengths.push(len),
            _ => return (Vec::new(), claimed),
        }
    }
    let mut programs = Vec::new();
    for len in lengths {
        let Ok(record) = r.take(len) else { break };
        let Ok(stored) = r.u32() else { break };
        if crc32(record) != stored {
            break;
        }
        let mut rr = Reader::new(record);
        let Ok(program) = decode_program(&mut rr) else {
            break;
        };
        if rr.remaining() != 0 {
            break;
        }
        programs.push(program);
    }
    (programs, claimed)
}

/// Absolute end offset (exclusive, checksum included) of each record in
/// an intact bundle.
///
/// The crash harness uses this as the salvage oracle: truncating the
/// bundle at byte offset `t` must salvage exactly the records with
/// `end <= t`.
///
/// # Errors
///
/// Returns [`std::io::ErrorKind::InvalidData`] unless `bytes` carries a
/// well-formed header and index.
pub fn record_end_offsets(bytes: &[u8]) -> io::Result<Vec<usize>> {
    let mut r = Reader::new(bytes);
    if r.take(4)? != BUNDLE_MAGIC {
        return Err(invalid("not a program bundle: bad magic"));
    }
    if r.u32()? != FORMAT_VERSION {
        return Err(invalid("unsupported bundle version"));
    }
    let count = usize_from(r.u64()?)?;
    if count > r.remaining() / 8 {
        return Err(invalid("bundle index longer than the file"));
    }
    let mut pos = 16 + 8 * count;
    let mut ends = Vec::with_capacity(count);
    for _ in 0..count {
        pos += usize_from(r.u64()?)? + 4;
        ends.push(pos);
    }
    Ok(ends)
}

/// CRC32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) — the checksum
/// stamped on every record and bundle. Implemented here so the
/// format needs no external dependency.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

const CRC32_TABLE: [u32; 256] = build_crc32_table();

const fn build_crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0usize;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// Writes `bytes` to `path` through the crash-safe protocol: a hidden
/// temp file in the same directory, `fsync`, atomic rename over the
/// final name, then a best-effort directory `fsync` so the rename itself
/// is durable. A crash at any point leaves either the old file intact or
/// the new file complete — never a torn file under the final name.
///
/// # Errors
///
/// Any I/O error from create/write/sync/rename; the temp file is removed
/// on a failed rename.
pub fn write_bytes_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    use std::io::Write as _;
    let name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let dir: PathBuf = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    };
    let tmp = dir.join(format!(
        ".{}.tmp.{}",
        name.to_string_lossy(),
        std::process::id()
    ));
    let result = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
        return result;
    }
    // Directory fsync makes the rename durable. Not all platforms allow
    // opening a directory for sync; treat failure as best-effort.
    if let Ok(d) = std::fs::File::open(&dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

fn usize_from(v: u64) -> io::Result<usize> {
    usize::try_from(v).map_err(|_| invalid("length overflows usize"))
}

/// A bounds-checked little-endian cursor.
struct Reader<'a> {
    bytes: &'a [u8],
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes }
    }

    fn remaining(&self) -> usize {
        self.bytes.len()
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if n > self.bytes.len() {
            return Err(invalid("unexpected end of bundle"));
        }
        let (head, tail) = self.bytes.split_at(n);
        self.bytes = tail;
        Ok(head)
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> io::Result<u32> {
        let mut b = [0u8; 4];
        b.copy_from_slice(self.take(4)?);
        Ok(u32::from_le_bytes(b))
    }

    fn u64(&mut self) -> io::Result<u64> {
        let mut b = [0u8; 8];
        b.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(b))
    }

    fn u128(&mut self) -> io::Result<u128> {
        let mut b = [0u8; 16];
        b.copy_from_slice(self.take(16)?);
        Ok(u128::from_le_bytes(b))
    }

    fn usize(&mut self) -> io::Result<usize> {
        usize_from(self.u64()?)
    }

    fn f64(&mut self) -> io::Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn bool(&mut self) -> io::Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(invalid(&format!("bad bool byte {other}"))),
        }
    }
}

fn put_usize(out: &mut Vec<u8>, v: usize) {
    out.extend_from_slice(&(v as u64).to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn encode_dtype(out: &mut Vec<u8>, dtype: DType) {
    out.push(match dtype {
        DType::F16 => 0,
        DType::Bf16 => 1,
        DType::F32 => 2,
        DType::I8 => 3,
    });
}

fn decode_dtype(r: &mut Reader<'_>) -> io::Result<DType> {
    match r.u8()? {
        0 => Ok(DType::F16),
        1 => Ok(DType::Bf16),
        2 => Ok(DType::F32),
        3 => Ok(DType::I8),
        other => Err(invalid(&format!("bad dtype tag {other}"))),
    }
}

fn encode_gemm_shape(out: &mut Vec<u8>, s: GemmShape) {
    put_usize(out, s.m);
    put_usize(out, s.n);
    put_usize(out, s.k);
}

fn decode_gemm_shape(r: &mut Reader<'_>) -> io::Result<GemmShape> {
    Ok(GemmShape {
        m: r.usize()?,
        n: r.usize()?,
        k: r.usize()?,
    })
}

fn encode_conv_shape(out: &mut Vec<u8>, s: Conv2dShape) {
    for v in [
        s.batch,
        s.in_channels,
        s.height,
        s.width,
        s.out_channels,
        s.kernel_h,
        s.kernel_w,
        s.stride,
        s.padding,
    ] {
        put_usize(out, v);
    }
}

fn decode_conv_shape(r: &mut Reader<'_>) -> io::Result<Conv2dShape> {
    Ok(Conv2dShape {
        batch: r.usize()?,
        in_channels: r.usize()?,
        height: r.usize()?,
        width: r.usize()?,
        out_channels: r.usize()?,
        kernel_h: r.usize()?,
        kernel_w: r.usize()?,
        stride: r.usize()?,
        padding: r.usize()?,
    })
}

fn encode_operator(out: &mut Vec<u8>, op: &Operator) {
    match op {
        Operator::Gemm { shape, dtype } => {
            out.push(0);
            encode_gemm_shape(out, *shape);
            encode_dtype(out, *dtype);
        }
        Operator::BatchedGemm {
            batch,
            shape,
            dtype,
        } => {
            out.push(1);
            put_usize(out, *batch);
            encode_gemm_shape(out, *shape);
            encode_dtype(out, *dtype);
        }
        Operator::Conv2d { shape, dtype } => {
            out.push(2);
            encode_conv_shape(out, *shape);
            encode_dtype(out, *dtype);
        }
        Operator::Conv2dWinograd { shape, dtype } => {
            out.push(3);
            encode_conv_shape(out, *shape);
            encode_dtype(out, *dtype);
        }
    }
}

/// Decodes an operator, rejecting any the `tensor_ir` constructors
/// would refuse. The decoder builds shapes from struct literals, so
/// without this check a record whose checksums pass could carry a zero
/// stride or extent that panics `gemm_view()` during validation.
fn decode_operator(r: &mut Reader<'_>) -> io::Result<Operator> {
    let operator = match r.u8()? {
        0 => Operator::Gemm {
            shape: decode_gemm_shape(r)?,
            dtype: decode_dtype(r)?,
        },
        1 => Operator::BatchedGemm {
            batch: r.usize()?,
            shape: decode_gemm_shape(r)?,
            dtype: decode_dtype(r)?,
        },
        2 => Operator::Conv2d {
            shape: decode_conv_shape(r)?,
            dtype: decode_dtype(r)?,
        },
        3 => Operator::Conv2dWinograd {
            shape: decode_conv_shape(r)?,
            dtype: decode_dtype(r)?,
        },
        other => return Err(invalid(&format!("bad operator tag {other}"))),
    };
    match checked_view_extents(&operator) {
        Some(extents) if !extents.contains(&0) => Ok(operator),
        _ => Err(invalid(&format!(
            "operator {operator:?} is malformed or its GEMM view overflows"
        ))),
    }
}

/// The `(m, n, k)` of `operator.gemm_view()`, computed without overflow,
/// or `None` where the operator's constructor would panic or the view's
/// arithmetic would overflow `usize`.
fn checked_view_extents(operator: &Operator) -> Option<[usize; 3]> {
    match *operator {
        Operator::Gemm { shape, .. } => Some([shape.m, shape.n, shape.k]),
        Operator::BatchedGemm { batch, shape, .. } => {
            Some([batch.checked_mul(shape.m)?, shape.n, shape.k])
        }
        Operator::Conv2d { shape, .. } => {
            let (out_h, out_w) = checked_conv_output(&shape)?;
            let k = shape.in_channels.checked_mul(shape.kernel_h)?;
            Some([
                shape.batch.checked_mul(out_h)?.checked_mul(out_w)?,
                shape.out_channels,
                k.checked_mul(shape.kernel_w)?,
            ])
        }
        Operator::Conv2dWinograd { shape, .. } => {
            if !tensor_ir::winograd_applicable(&shape) {
                return None;
            }
            let (out_h, out_w) = checked_conv_output(&shape)?;
            let tiles = out_h.div_ceil(2).checked_mul(out_w.div_ceil(2))?;
            Some([
                shape.batch.checked_mul(tiles)?.checked_mul(16)?,
                shape.out_channels,
                shape.in_channels,
            ])
        }
    }
}

/// The output extents of a convolution that `Conv2dShape::new` would
/// accept (positive extents and stride, a padded input no smaller than
/// the filter), computed without overflow.
fn checked_conv_output(s: &Conv2dShape) -> Option<(usize, usize)> {
    let positive = [
        s.batch,
        s.in_channels,
        s.height,
        s.width,
        s.out_channels,
        s.kernel_h,
        s.kernel_w,
        s.stride,
    ];
    // `gather_load_scale` squares the stride.
    if positive.contains(&0) || s.stride.checked_mul(s.stride).is_none() {
        return None;
    }
    let padding = s.padding.checked_mul(2)?;
    let out = |len: usize, kernel: usize| {
        Some(len.checked_add(padding)?.checked_sub(kernel)? / s.stride + 1)
    };
    Some((out(s.height, s.kernel_h)?, out(s.width, s.kernel_w)?))
}

fn encode_program(p: &CompiledProgram) -> Vec<u8> {
    let mut out = Vec::with_capacity(128 + 72 * p.regions.len());
    encode_operator(&mut out, &p.operator);
    encode_gemm_shape(&mut out, p.view.shape);
    encode_dtype(&mut out, p.view.dtype);
    put_f64(&mut out, p.view.load_scale);
    out.push(p.pattern.0);
    put_usize(&mut out, p.split_k);
    put_f64(&mut out, p.predicted_ns);
    put_usize(&mut out, p.stats.strategies_evaluated);
    put_usize(&mut out, p.stats.strategies_pruned);
    put_usize(&mut out, p.stats.patterns_tried);
    out.extend_from_slice(&p.stats.search_ns.to_le_bytes());
    put_usize(&mut out, p.stats.shortlist_truncated);
    put_usize(&mut out, p.stats.budget_exhausted);
    put_usize(&mut out, p.stats.escalations);
    out.push(u8::from(p.stats.refined));
    out.push(u8::from(p.stats.degraded));
    put_usize(&mut out, p.regions.len());
    for region in &p.regions {
        for v in [region.row0, region.row1, region.col0, region.col1] {
            put_usize(&mut out, v);
        }
        let k = region.kernel;
        put_usize(&mut out, k.id.0);
        for v in [k.um, k.un, k.uk, k.warps] {
            put_usize(&mut out, v);
        }
    }
    out
}

fn decode_program(r: &mut Reader<'_>) -> io::Result<CompiledProgram> {
    let operator = decode_operator(r)?;
    let view = GemmView {
        shape: decode_gemm_shape(r)?,
        dtype: decode_dtype(r)?,
        load_scale: r.f64()?,
    };
    let pattern = PatternId(r.u8()?);
    let split_k = r.usize()?;
    let predicted_ns = r.f64()?;
    let stats = SearchStats {
        strategies_evaluated: r.usize()?,
        strategies_pruned: r.usize()?,
        patterns_tried: r.usize()?,
        search_ns: r.u128()?,
        shortlist_truncated: r.usize()?,
        budget_exhausted: r.usize()?,
        escalations: r.usize()?,
        refined: r.bool()?,
        degraded: r.bool()?,
    };
    let n_regions = r.usize()?;
    // Each region record is 9 u64 fields; reject a hostile count before
    // the Vec allocation.
    if n_regions > r.remaining() / 72 {
        return Err(invalid("region list longer than the record"));
    }
    let mut regions = Vec::with_capacity(n_regions);
    for _ in 0..n_regions {
        let (row0, row1, col0, col1) = (r.usize()?, r.usize()?, r.usize()?, r.usize()?);
        let id = MicroKernelId(r.usize()?);
        let (um, un, uk, warps) = (r.usize()?, r.usize()?, r.usize()?, r.usize()?);
        if row0 >= row1 || col0 >= col1 {
            return Err(invalid("empty or inverted region rectangle"));
        }
        if um == 0 || un == 0 || uk == 0 || warps == 0 {
            return Err(invalid("zero-sized micro-kernel"));
        }
        regions.push(Region::new(
            row0,
            row1,
            col0,
            col1,
            MicroKernel::new(id, um, un, uk, warps),
        ));
    }
    Ok(CompiledProgram {
        operator,
        view,
        pattern,
        regions,
        split_k,
        predicted_ns,
        stats,
    })
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    fn sample_program(seed: usize) -> CompiledProgram {
        let shape = GemmShape::new(64 + seed, 128 + seed, 32 + seed);
        let kernel = MicroKernel::new(MicroKernelId(seed % 7), 16, 8, 4, 2);
        CompiledProgram {
            operator: Operator::gemm(shape),
            view: GemmView {
                shape,
                dtype: DType::F16,
                load_scale: 1.0 + seed as f64 * 0.25,
            },
            pattern: PatternId((seed % 4) as u8 + 1),
            regions: vec![
                Region::new(0, shape.m, 0, 64, kernel),
                Region::new(0, shape.m, 64, shape.n, kernel),
            ],
            split_k: 1 + seed % 3,
            predicted_ns: 123.456 + seed as f64,
            stats: SearchStats {
                strategies_evaluated: seed * 10,
                strategies_pruned: seed * 3,
                patterns_tried: 4,
                search_ns: 1_000_000 + seed as u128,
                shortlist_truncated: seed % 2,
                budget_exhausted: 0,
                escalations: seed % 5,
                refined: seed.is_multiple_of(2),
                degraded: seed.is_multiple_of(3),
            },
        }
    }

    #[test]
    fn round_trips_every_operator_kind() {
        let conv = Conv2dShape::new(2, 16, 28, 28, 32, 3, 3, 1, 1);
        let mut programs: Vec<CompiledProgram> = (0..8).map(sample_program).collect();
        programs[1].operator = Operator::batched_gemm(12, GemmShape::new(64, 64, 64));
        programs[2].operator = Operator::conv2d(conv);
        programs[3].operator = Operator::conv2d_winograd(conv);
        programs[4].view.dtype = DType::Bf16;
        programs[5].view.dtype = DType::F32;
        programs[6].view.dtype = DType::I8;
        let bytes = encode_bundle(programs.iter());
        let decoded = decode_bundle(&bytes).expect("round trip");
        assert_eq!(decoded, programs);
    }

    #[test]
    fn empty_bundle_round_trips() {
        let bytes = encode_bundle(std::iter::empty());
        assert_eq!(decode_bundle(&bytes).expect("empty bundle"), vec![]);
    }

    #[test]
    fn rejects_bad_magic_version_and_truncation() {
        let programs = [sample_program(1)];
        let good = encode_bundle(programs.iter());

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(decode_bundle(&bad_magic).is_err(), "bad magic must fail");

        for version in [2u8, 99] {
            let mut bad_version = good.clone();
            bad_version[4] = version;
            let err = decode_bundle(&bad_version).expect_err("other versions must fail");
            assert!(
                err.to_string()
                    .contains(&format!("unsupported bundle version {version}")),
                "{err}"
            );
            assert!(salvage_bundle(&bad_version).programs.is_empty());
        }

        for cut in [3, 10, 17, good.len() / 2, good.len() - 1] {
            assert!(
                decode_bundle(&good[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }

        let mut trailing = good.clone();
        trailing.push(0);
        assert!(
            decode_bundle(&trailing).is_err(),
            "trailing bytes must fail"
        );
    }

    #[test]
    fn rejects_hostile_counts_without_allocating() {
        // A bundle claiming u64::MAX records must fail fast on the index
        // bound, not attempt the allocation.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&BUNDLE_MAGIC);
        bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode_bundle(&bytes).is_err());
    }

    #[test]
    fn crc32_matches_the_reference_vector() {
        // The canonical IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// Records whose checksums pass but whose operator no `tensor_ir`
    /// constructor would build: each must be `InvalidData`, never a
    /// panic in a later `gemm_view()`.
    #[test]
    fn rejects_operators_the_constructors_would_refuse() {
        let conv = Conv2dShape::new(2, 16, 28, 28, 32, 3, 3, 1, 1);
        let gemm = GemmShape::new(64, 64, 64);
        let hostile = [
            Operator::Gemm {
                shape: GemmShape { m: 0, ..gemm },
                dtype: DType::F16,
            },
            Operator::BatchedGemm {
                batch: 0,
                shape: gemm,
                dtype: DType::F16,
            },
            Operator::BatchedGemm {
                batch: usize::MAX / 2,
                shape: gemm,
                dtype: DType::F16,
            },
            Operator::Conv2d {
                shape: Conv2dShape { stride: 0, ..conv },
                dtype: DType::F16,
            },
            Operator::Conv2d {
                shape: Conv2dShape {
                    in_channels: 0,
                    ..conv
                },
                dtype: DType::F16,
            },
            Operator::Conv2d {
                shape: Conv2dShape {
                    kernel_h: 31,
                    ..conv
                },
                dtype: DType::F16,
            },
            Operator::Conv2d {
                shape: Conv2dShape {
                    padding: usize::MAX,
                    ..conv
                },
                dtype: DType::F16,
            },
            Operator::Conv2d {
                shape: Conv2dShape {
                    batch: usize::MAX,
                    ..conv
                },
                dtype: DType::F16,
            },
            Operator::Conv2d {
                shape: Conv2dShape {
                    stride: 1 << 40,
                    ..conv
                },
                dtype: DType::F16,
            },
            Operator::Conv2dWinograd {
                shape: Conv2dShape {
                    kernel_h: 5,
                    kernel_w: 5,
                    ..conv
                },
                dtype: DType::F16,
            },
            Operator::Conv2dWinograd {
                shape: Conv2dShape { stride: 2, ..conv },
                dtype: DType::F16,
            },
        ];
        for operator in hostile {
            let mut program = sample_program(1);
            program.operator = operator;
            let bytes = encode_bundle([&program]);
            let err = decode_bundle(&bytes).expect_err("hostile operator must be rejected");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{operator:?}");
            assert!(salvage_bundle(&bytes).programs.is_empty(), "{operator:?}");
        }
    }

    #[test]
    fn strict_decoder_rejects_checksum_damage() {
        let programs: Vec<CompiledProgram> = (0..3).map(sample_program).collect();
        let good = encode_bundle(programs.iter());
        let ends = record_end_offsets(&good).expect("offsets");
        // Flip one bit inside record 1's bytes.
        let mut flipped = good.clone();
        flipped[ends[0] + 2] ^= 0x40;
        assert!(decode_bundle(&flipped).is_err(), "bit flip must be caught");
        // Flip one bit inside the footer's file checksum.
        let mut footer = good.clone();
        let n = footer.len();
        footer[n - 6] ^= 0x01;
        assert!(
            decode_bundle(&footer).is_err(),
            "footer flip must be caught"
        );
    }

    #[test]
    fn salvage_recovers_the_exact_prefix_under_truncation() {
        let programs: Vec<CompiledProgram> = (0..4).map(sample_program).collect();
        let good = encode_bundle(programs.iter());
        let ends = record_end_offsets(&good).expect("offsets");
        for cut in 0..good.len() {
            let salvage = salvage_bundle(&good[..cut]);
            let expected = ends.iter().take_while(|&&e| e <= cut).count();
            assert!(!salvage.clean, "a truncated bundle is never clean");
            assert_eq!(
                salvage.programs.len(),
                expected,
                "truncation at {cut} must salvage exactly the valid prefix"
            );
            assert_eq!(salvage.programs[..], programs[..expected]);
        }
        assert!(salvage_bundle(&good).clean, "intact bundle is clean");
    }

    #[test]
    fn salvage_stops_at_the_first_flipped_record() {
        let programs: Vec<CompiledProgram> = (0..4).map(sample_program).collect();
        let good = encode_bundle(programs.iter());
        let ends = record_end_offsets(&good).expect("offsets");
        // Damage record 2: everything before it salvages, nothing after.
        let mut bytes = good.clone();
        bytes[ends[1] + 5] ^= 0x80;
        let salvage = salvage_bundle(&bytes);
        assert!(!salvage.clean);
        assert_eq!(salvage.programs, programs[..2].to_vec());
        assert_eq!(salvage.claimed, Some(4));
    }

    #[test]
    fn salvage_never_panics_on_arbitrary_bytes() {
        for bytes in [
            &b""[..],
            b"MPAC",
            b"MPAC\x03\x00\x00\x00",
            b"not a bundle at all",
            b"[{\"json\": true}]",
            &[0xFFu8; 64][..],
        ] {
            let salvage = salvage_bundle(bytes);
            assert!(!salvage.clean);
            assert!(salvage.programs.is_empty());
            assert!(salvage.detail.is_some());
        }
    }

    #[test]
    fn atomic_write_round_trips_and_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join(format!("mpac-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("bundle.mpac");
        let programs: Vec<CompiledProgram> = (0..2).map(sample_program).collect();
        let bytes = encode_bundle(programs.iter());
        write_bytes_atomic(&path, &bytes).expect("atomic write");
        assert_eq!(std::fs::read(&path).expect("read back"), bytes);
        // Overwrite in place: the old file must be replaced atomically.
        let rewritten = encode_bundle(programs[..1].iter());
        write_bytes_atomic(&path, &rewritten).expect("atomic rewrite");
        assert_eq!(std::fs::read(&path).expect("read back"), rewritten);
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .expect("list dir")
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "temp files must not survive success");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
