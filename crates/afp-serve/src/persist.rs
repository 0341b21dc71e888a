//! Versioned binary snapshots of the result cache.
//!
//! The vendored `serde` is a compile-time marker-trait stub (see
//! `vendor/README.md`), so the snapshot format is hand-rolled: a fixed
//! header, length-prefixed entry records, and a trailing checksum. Every
//! multi-byte integer is little-endian; every `f64` travels as its exact IEEE
//! bit pattern (`to_bits`/`from_bits`), because the whole point of restoring
//! a cache is serving hits *bit-identical* to the original solves — a
//! decimal round-trip would quietly break that contract.
//!
//! ## Layout
//!
//! ```text
//! header   magic            4 bytes  b"AFPC"
//!          format_version   u32      layout of this file (FORMAT_VERSION)
//!          tag_layout       u32      fingerprint::TAG_LAYOUT_VERSION at save
//!          capacity         u64      cache capacity at save (informational)
//!          warm_depth       u64      warm index depth at save (informational)
//!          entry_count      u64
//! entries  entry_count records, oldest-first by recency, each:
//!          record_len       u32      bytes in the record body that follows
//!          body             exact fingerprint (2×u64), topology (2×u64),
//!                           algorithm string, result scalars, stop code,
//!                           metrics, floorplan (canvas + grid side + placed
//!                           blocks), optional winning candidate
//! trailer  checksum         u64      FNV-1a 64 over all preceding bytes
//! ```
//!
//! ## Version-reject rules
//!
//! The header is validated **before** the checksum, so a version bump is
//! reported as the typed mismatch it is ([`PersistError::UnsupportedFormatVersion`],
//! [`PersistError::TagLayoutMismatch`]) rather than a generic checksum
//! failure. `format_version` guards this file layout; `tag_layout` guards
//! the *meaning of the keys*: if the fingerprint's section-tag layout
//! changed since the snapshot was written, equal-looking fingerprints may
//! denote different jobs, so the loader refuses the whole file. Either way
//! the caller falls back to a cold cache — decoding is all-or-nothing and
//! never panics on foreign bytes ([`PersistError::Truncated`] /
//! [`PersistError::Corrupt`] carry the offending byte offset).

use std::fmt;
use std::path::Path;

use afp_circuit::{BlockId, Shape};
use afp_layout::{Canvas, Cell, Floorplan, FloorplanMetrics};
use afp_metaheuristics::{BaselineResult, Candidate, StopReason};

use crate::cache::{CachedSolve, ResultCache};
use crate::fingerprint::{Fingerprint, TAG_LAYOUT_VERSION};

/// Version of the snapshot byte layout documented in the module docs. Bump
/// on any change to the header or record encoding.
pub const FORMAT_VERSION: u32 = 1;

/// Leading magic of every snapshot.
pub const MAGIC: [u8; 4] = *b"AFPC";

// Decode-time sanity caps: a corrupt length field must fail fast as
// `Corrupt`, not drive a multi-gigabyte allocation.
const MAX_ENTRIES: u64 = 1 << 20;
const MAX_STRING: u32 = 1 << 12;
const MAX_PLACED: u64 = 1 << 16;
const MAX_SEQ: u64 = 1 << 20;
const MAX_RECORD: u32 = 1 << 26;

/// Why a snapshot failed to save or load. Every load failure is recoverable
/// by falling back to a cold cache ([`crate::cache::CacheHandle::restore_or_cold`]).
#[derive(Debug)]
pub enum PersistError {
    /// Reading or writing the snapshot file failed.
    Io(std::io::Error),
    /// The file does not start with the snapshot magic — not a snapshot.
    BadMagic,
    /// The file uses a snapshot layout this build cannot read.
    UnsupportedFormatVersion {
        /// Version found in the header.
        found: u32,
        /// Version this build reads and writes.
        supported: u32,
    },
    /// The snapshot's fingerprints were produced by a different section-tag
    /// layout, so its keys are incomparable to this build's.
    TagLayoutMismatch {
        /// Tag-layout version found in the header.
        found: u32,
        /// This build's [`TAG_LAYOUT_VERSION`].
        current: u32,
    },
    /// The file ends before the structure it declares (byte offset of the
    /// first missing byte).
    Truncated {
        /// Offset at which more bytes were expected.
        offset: usize,
    },
    /// A decoded field is structurally impossible.
    Corrupt {
        /// Offset of the offending field.
        offset: usize,
        /// What was wrong with it.
        what: &'static str,
    },
    /// The trailing FNV-1a checksum does not match the bytes.
    ChecksumMismatch,
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "snapshot io error: {e}"),
            PersistError::BadMagic => write!(f, "not a cache snapshot (bad magic)"),
            PersistError::UnsupportedFormatVersion { found, supported } => write!(
                f,
                "snapshot format version {found} unsupported (this build reads {supported})"
            ),
            PersistError::TagLayoutMismatch { found, current } => write!(
                f,
                "snapshot fingerprint tag layout {found} incomparable to current {current}"
            ),
            PersistError::Truncated { offset } => {
                write!(f, "snapshot truncated at byte {offset}")
            }
            PersistError::Corrupt { offset, what } => {
                write!(f, "snapshot corrupt at byte {offset}: {what}")
            }
            PersistError::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// A decoded snapshot: the saved cache shape plus its entries oldest-first
/// (insertion in that order reproduces recency and the warm-start index).
#[derive(Debug)]
pub struct Snapshot {
    /// Cache capacity at save time. Informational — a restore targets the
    /// receiving cache's own capacity.
    pub capacity: usize,
    /// Warm-index depth at save time. Informational, like `capacity`.
    pub warm_depth: usize,
    /// `(exact fingerprint, topology fingerprint, solve)` rows, oldest first.
    pub entries: Vec<(Fingerprint, Fingerprint, CachedSolve)>,
}

/// FNV-1a 64 over `bytes` — cheap, dependency-free corruption detection
/// (the threat model is torn writes and bit rot, not adversaries).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64_bits(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn fingerprint(&mut self, fp: Fingerprint) {
        self.u64(fp.0[0]);
        self.u64(fp.0[1]);
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
    fn usize_seq(&mut self, seq: &[usize]) {
        self.u64(seq.len() as u64);
        for &v in seq {
            self.u64(v as u64);
        }
    }
}

// Code 4 is retired: it named a first-feasible race stop that no served job
// could ever record. It stays unassigned, so a snapshot carrying it decodes
// to `Corrupt` and the code is never reused for a different reason.
fn stop_code(stop: StopReason) -> u8 {
    match stop {
        StopReason::Completed => 0,
        StopReason::Deadline => 1,
        StopReason::Cancelled => 2,
        StopReason::Budget => 3,
    }
}

fn decode_stop(code: u8) -> Option<StopReason> {
    Some(match code {
        0 => StopReason::Completed,
        1 => StopReason::Deadline,
        2 => StopReason::Cancelled,
        3 => StopReason::Budget,
        _ => return None,
    })
}

fn encode_entry(w: &mut Writer, fp: Fingerprint, topology: Fingerprint, solve: &CachedSolve) {
    w.fingerprint(fp);
    w.fingerprint(topology);
    let result = &solve.result;
    w.str(&result.algorithm);
    w.f64_bits(result.reward);
    w.f64_bits(result.runtime_s);
    w.u64(result.evaluations as u64);
    w.u8(stop_code(result.stop));
    w.f64_bits(result.metrics.hpwl_um);
    w.f64_bits(result.metrics.dead_space);
    w.f64_bits(result.metrics.area_um2);
    w.f64_bits(result.metrics.aspect_ratio);
    let plan = &result.floorplan;
    w.f64_bits(plan.canvas().width_um);
    w.f64_bits(plan.canvas().height_um);
    w.u64(plan.grid_side() as u64);
    w.u64(plan.placed().len() as u64);
    for placed in plan.placed() {
        w.u64(placed.block.index() as u64);
        w.u64(placed.shape_index as u64);
        w.f64_bits(placed.shape.width_um);
        w.f64_bits(placed.shape.height_um);
        w.u64(placed.cell.x as u64);
        w.u64(placed.cell.y as u64);
    }
    match &solve.best {
        None => w.u8(0),
        Some(best) => {
            w.u8(1);
            w.usize_seq(&best.positive);
            w.usize_seq(&best.negative);
            w.usize_seq(&best.shape_choice);
        }
    }
}

/// Serializes a cache into the snapshot byte format.
pub(crate) fn snapshot_bytes(cache: &ResultCache) -> Vec<u8> {
    let entries = cache.entries_by_recency();
    let mut w = Writer { buf: Vec::new() };
    w.buf.extend_from_slice(&MAGIC);
    w.u32(FORMAT_VERSION);
    w.u32(TAG_LAYOUT_VERSION);
    w.u64(cache.capacity() as u64);
    w.u64(cache.warm_depth() as u64);
    w.u64(entries.len() as u64);
    for (fp, topology, solve) in entries {
        let mut body = Writer { buf: Vec::new() };
        encode_entry(&mut body, fp, topology, solve);
        w.u32(body.buf.len() as u32);
        w.buf.extend_from_slice(&body.buf);
    }
    let checksum = fnv1a(&w.buf);
    w.u64(checksum);
    w.buf
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

struct Reader<'a> {
    bytes: &'a [u8],
    offset: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        let end = self
            .offset
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or(PersistError::Truncated {
                offset: self.bytes.len(),
            })?;
        let slice = &self.bytes[self.offset..end];
        self.offset = end;
        Ok(slice)
    }
    fn u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn f64_bits(&mut self) -> Result<f64, PersistError> {
        Ok(f64::from_bits(self.u64()?))
    }
    fn fingerprint(&mut self) -> Result<Fingerprint, PersistError> {
        Ok(Fingerprint([self.u64()?, self.u64()?]))
    }
    fn corrupt(&self, what: &'static str) -> PersistError {
        PersistError::Corrupt {
            offset: self.offset,
            what,
        }
    }
    fn str(&mut self) -> Result<String, PersistError> {
        let len = self.u32()?;
        if len > MAX_STRING {
            return Err(self.corrupt("string length over cap"));
        }
        let bytes = self.take(len as usize)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| PersistError::Corrupt {
            offset: self.offset,
            what: "string not utf-8",
        })
    }
    fn usize_seq(&mut self) -> Result<Vec<usize>, PersistError> {
        let len = self.u64()?;
        if len > MAX_SEQ {
            return Err(self.corrupt("sequence length over cap"));
        }
        (0..len).map(|_| Ok(self.u64()? as usize)).collect()
    }
}

fn decode_entry(r: &mut Reader<'_>) -> Result<(Fingerprint, Fingerprint, CachedSolve), PersistError> {
    let fp = r.fingerprint()?;
    let topology = r.fingerprint()?;
    let algorithm = r.str()?;
    let reward = r.f64_bits()?;
    let runtime_s = r.f64_bits()?;
    let evaluations = r.u64()? as usize;
    let stop_byte = r.u8()?;
    let stop = decode_stop(stop_byte).ok_or_else(|| r.corrupt("unknown stop reason code"))?;
    let metrics = FloorplanMetrics {
        hpwl_um: r.f64_bits()?,
        dead_space: r.f64_bits()?,
        area_um2: r.f64_bits()?,
        aspect_ratio: r.f64_bits()?,
    };
    let width_um = r.f64_bits()?;
    let height_um = r.f64_bits()?;
    if !(width_um.is_finite() && height_um.is_finite() && width_um > 0.0 && height_um > 0.0) {
        return Err(r.corrupt("non-positive canvas"));
    }
    let grid_side = r.u64()?;
    if grid_side == 0 || grid_side > 1 << 16 {
        return Err(r.corrupt("grid side out of range"));
    }
    let placed_count = r.u64()?;
    if placed_count > MAX_PLACED {
        return Err(r.corrupt("placed count over cap"));
    }
    // Replaying `place` on an empty floorplan recomputes grid footprints and
    // µm rects through the same deterministic arithmetic that produced the
    // originals, so the rebuilt floorplan is bit-identical to the saved one.
    let mut plan = Floorplan::with_grid_side(
        Canvas {
            width_um,
            height_um,
        },
        grid_side as usize,
    );
    for _ in 0..placed_count {
        // A block id sizes the floorplan's slot table, so an unchecked one
        // would drive an allocation as large as the id itself.
        let block = r.u64()?;
        if block >= MAX_PLACED {
            return Err(r.corrupt("block id over cap"));
        }
        let block = BlockId(block as usize);
        let shape_index = r.u64()? as usize;
        let shape = Shape::new(r.f64_bits()?, r.f64_bits()?);
        if !(shape.width_um.is_finite() && shape.height_um.is_finite()) {
            return Err(r.corrupt("non-finite shape"));
        }
        let cell = Cell::new(r.u64()? as usize, r.u64()? as usize);
        plan.place(block, shape_index, shape, cell)
            .map_err(|_| r.corrupt("unplaceable block record"))?;
    }
    let best = match r.u8()? {
        0 => None,
        1 => Some(Candidate {
            positive: r.usize_seq()?,
            negative: r.usize_seq()?,
            shape_choice: r.usize_seq()?,
        }),
        _ => return Err(r.corrupt("bad candidate flag")),
    };
    Ok((
        fp,
        topology,
        CachedSolve {
            result: BaselineResult {
                algorithm,
                floorplan: plan,
                metrics,
                reward,
                runtime_s,
                evaluations,
                stop,
            },
            best,
        },
    ))
}

/// Decodes snapshot bytes, enforcing the version-reject rules in the module
/// docs. All-or-nothing: any error means no partially decoded state escapes.
pub fn decode_snapshot(bytes: &[u8]) -> Result<Snapshot, PersistError> {
    let mut r = Reader { bytes, offset: 0 };
    // Header before checksum: a version bump must surface as the typed
    // version error, not as a checksum mismatch.
    if r.take(4)? != MAGIC {
        return Err(PersistError::BadMagic);
    }
    let format = r.u32()?;
    if format != FORMAT_VERSION {
        return Err(PersistError::UnsupportedFormatVersion {
            found: format,
            supported: FORMAT_VERSION,
        });
    }
    let tag_layout = r.u32()?;
    if tag_layout != TAG_LAYOUT_VERSION {
        return Err(PersistError::TagLayoutMismatch {
            found: tag_layout,
            current: TAG_LAYOUT_VERSION,
        });
    }
    if bytes.len() < r.offset + 8 {
        return Err(PersistError::Truncated {
            offset: bytes.len(),
        });
    }
    let body_end = bytes.len() - 8;
    let declared = u64::from_le_bytes(bytes[body_end..].try_into().unwrap());
    if fnv1a(&bytes[..body_end]) != declared {
        return Err(PersistError::ChecksumMismatch);
    }
    let capacity = r.u64()? as usize;
    let warm_depth = r.u64()? as usize;
    let entry_count = r.u64()?;
    if entry_count > MAX_ENTRIES {
        return Err(r.corrupt("entry count over cap"));
    }
    let mut entries = Vec::with_capacity(entry_count.min(1024) as usize);
    for _ in 0..entry_count {
        let record_len = r.u32()?;
        if record_len > MAX_RECORD {
            return Err(r.corrupt("record length over cap"));
        }
        let record_start = r.offset;
        let entry = decode_entry(&mut r)?;
        if r.offset - record_start != record_len as usize {
            return Err(PersistError::Corrupt {
                offset: record_start,
                what: "record length does not match its body",
            });
        }
        entries.push(entry);
    }
    if r.offset != body_end {
        return Err(PersistError::Corrupt {
            offset: r.offset,
            what: "trailing bytes after last record",
        });
    }
    Ok(Snapshot {
        capacity,
        warm_depth,
        entries,
    })
}

/// Writes snapshot bytes to `path` atomically: a sibling temp file is
/// written and fsynced, then renamed over the target, so a crash mid-write
/// leaves either the old snapshot or none — never a truncated one. The temp
/// name is unique per write (pid + process-wide counter): concurrent
/// persists — an autosave racing an explicit `persist()`, or two engine
/// clones autosaving from concurrent `run_pending` calls — must not share a
/// temp inode, or interleaved writes could publish a corrupt snapshot.
pub(crate) fn write_snapshot_file(path: &Path, bytes: &[u8]) -> Result<(), PersistError> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static WRITE_SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = WRITE_SEQ.fetch_add(1, Ordering::Relaxed);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".{}.{}.tmp", std::process::id(), seq));
    let tmp = std::path::PathBuf::from(tmp);
    let write = || -> std::io::Result<()> {
        use std::io::Write as _;
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        drop(file);
        std::fs::rename(&tmp, path)
    };
    write().map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        PersistError::Io(e)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use afp_circuit::generators;
    use afp_metaheuristics::{Baseline, RunControl, SaConfig};

    use crate::cache::CacheHandle;
    use crate::fingerprint::JobSpec;

    fn populated_handle() -> (CacheHandle, Vec<Fingerprint>) {
        let handle = CacheHandle::with_warm_depth(8, 2);
        let mut keys = Vec::new();
        for seed in [3u64, 5, 9] {
            let spec = JobSpec::new(generators::ota3(), Baseline::Sa(SaConfig::small()), seed);
            let (result, best) = Baseline::Sa(SaConfig::small()).run_controlled(
                &spec.circuit,
                seed,
                &RunControl::unbounded(),
                None,
            );
            let key = spec.fingerprint();
            handle.insert(
                key,
                spec.topology_fingerprint(),
                CachedSolve { result, best },
            );
            keys.push(key);
        }
        (handle, keys)
    }

    #[test]
    fn snapshot_round_trips_bit_identically() {
        let (handle, keys) = populated_handle();
        let bytes = handle.snapshot_bytes();
        let fresh = CacheHandle::with_warm_depth(8, 2);
        assert_eq!(fresh.restore_bytes(&bytes).expect("restore"), keys.len());
        for key in &keys {
            let orig = handle.peek(*key).expect("original");
            let restored = fresh.peek(*key).expect("restored");
            assert_eq!(
                restored.result.reward.to_bits(),
                orig.result.reward.to_bits()
            );
            assert_eq!(restored.result.floorplan, orig.result.floorplan);
            assert_eq!(restored.result.evaluations, orig.result.evaluations);
            assert_eq!(restored.result.stop, orig.result.stop);
            assert_eq!(restored.result.algorithm, orig.result.algorithm);
            assert_eq!(
                restored.best.as_ref().map(|b| &b.positive),
                orig.best.as_ref().map(|b| &b.positive)
            );
        }
        // Warm index rebuilt: the same topology serves a hint after restore.
        let spec = JobSpec::new(generators::ota3(), Baseline::Sa(SaConfig::small()), 3);
        assert!(fresh.warm_hint(spec.topology_fingerprint()).is_some());
    }

    #[test]
    fn version_bumps_are_typed_rejections() {
        let (handle, _) = populated_handle();
        let bytes = handle.snapshot_bytes();

        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xFF;
        assert!(matches!(
            decode_snapshot(&bad_magic),
            Err(PersistError::BadMagic)
        ));

        let mut bad_format = bytes.clone();
        bad_format[4..8].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        assert!(matches!(
            decode_snapshot(&bad_format),
            Err(PersistError::UnsupportedFormatVersion { found, supported })
                if found == FORMAT_VERSION + 1 && supported == FORMAT_VERSION
        ));

        let mut bad_tags = bytes;
        bad_tags[8..12].copy_from_slice(&(TAG_LAYOUT_VERSION + 7).to_le_bytes());
        assert!(matches!(
            decode_snapshot(&bad_tags),
            Err(PersistError::TagLayoutMismatch { found, current })
                if found == TAG_LAYOUT_VERSION + 7 && current == TAG_LAYOUT_VERSION
        ));
    }

    #[test]
    fn truncation_and_corruption_are_typed_not_panics() {
        let (handle, _) = populated_handle();
        let bytes = handle.snapshot_bytes();
        // Every prefix decodes to a typed error, never a panic. (Short
        // prefixes fail the header; longer ones fail the checksum because
        // the trailing 8 bytes are then record bytes misread as a checksum.)
        for len in 0..bytes.len() {
            let fresh = CacheHandle::new(8);
            assert!(fresh.restore_bytes(&bytes[..len]).is_err(), "len {len}");
            assert!(fresh.is_empty(), "no partial state at len {len}");
        }
        // A flipped body byte is caught by the checksum.
        let mut flipped = bytes.clone();
        let mid = bytes.len() / 2;
        flipped[mid] ^= 0x10;
        assert!(matches!(
            decode_snapshot(&flipped),
            Err(PersistError::ChecksumMismatch)
        ));
        // Errors render through Display without panicking.
        let msg = format!("{}", decode_snapshot(&flipped).unwrap_err());
        assert!(msg.contains("checksum"));
    }

    /// A checksum-valid snapshot holding one record with stop byte `stop`
    /// whose floorplan places a 1×1 µm block `block` at `cell` on a 32×32
    /// grid.
    fn one_record_snapshot(block: u64, cell: (u64, u64), stop: u8) -> Vec<u8> {
        let mut body = Writer { buf: Vec::new() };
        body.fingerprint(Fingerprint([1, 2]));
        body.fingerprint(Fingerprint([3, 4]));
        body.str("SA");
        body.f64_bits(-1.0); // reward
        body.f64_bits(0.0); // runtime_s
        body.u64(1); // evaluations
        body.u8(stop);
        for metric in [1.0, 0.0, 1.0, 1.0] {
            body.f64_bits(metric);
        }
        body.f64_bits(32.0); // canvas width
        body.f64_bits(32.0); // canvas height
        body.u64(32); // grid side
        body.u64(1); // placed count
        body.u64(block);
        body.u64(0); // shape index
        body.f64_bits(1.0);
        body.f64_bits(1.0);
        body.u64(cell.0);
        body.u64(cell.1);
        body.u8(0); // no candidate
        let mut w = Writer { buf: Vec::new() };
        w.buf.extend_from_slice(&MAGIC);
        w.u32(FORMAT_VERSION);
        w.u32(TAG_LAYOUT_VERSION);
        w.u64(8); // capacity
        w.u64(2); // warm depth
        w.u64(1); // entry count
        w.u32(body.buf.len() as u32);
        w.buf.extend_from_slice(&body.buf);
        let checksum = fnv1a(&w.buf);
        w.u64(checksum);
        w.buf
    }

    #[test]
    fn hostile_block_ids_and_cells_are_corrupt_not_panics() {
        // The well-formed control decodes, so the two rejections below are
        // down to the one hostile field each.
        let completed = stop_code(StopReason::Completed);
        assert!(decode_snapshot(&one_record_snapshot(0, (0, 0), completed)).is_ok());
        for (what, bytes) in [
            (
                "huge block id",
                one_record_snapshot(1 << 62, (0, 0), completed),
            ),
            (
                "cell at u64::MAX",
                one_record_snapshot(0, (u64::MAX, 0), completed),
            ),
        ] {
            assert!(
                matches!(decode_snapshot(&bytes), Err(PersistError::Corrupt { .. })),
                "{what} must decode to Corrupt"
            );
        }
    }

    #[test]
    fn retired_and_unknown_stop_codes_are_corrupt_not_panics() {
        // Every assigned code decodes to its reason; the retired code 4 and
        // an out-of-range byte are typed rejections of an otherwise
        // well-formed, checksum-valid snapshot.
        for stop in [
            StopReason::Completed,
            StopReason::Deadline,
            StopReason::Cancelled,
            StopReason::Budget,
        ] {
            let snapshot = decode_snapshot(&one_record_snapshot(0, (0, 0), stop_code(stop)))
                .expect("assigned stop code decodes");
            assert_eq!(snapshot.entries[0].2.result.stop, stop);
        }
        for code in [4u8, 255] {
            assert!(
                matches!(
                    decode_snapshot(&one_record_snapshot(0, (0, 0), code)),
                    Err(PersistError::Corrupt { .. })
                ),
                "stop byte {code} must decode to Corrupt"
            );
        }
    }

    #[test]
    fn file_round_trip_and_cold_fallbacks() {
        let (handle, keys) = populated_handle();
        let dir = std::env::temp_dir().join(format!("afp-persist-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("cache.afpc");
        handle.persist(&path).expect("persist");

        let fresh = CacheHandle::new(8);
        assert_eq!(fresh.restore_or_cold(&path), keys.len());
        assert!(fresh.peek(keys[0]).is_some());

        // A missing file is a cold start, not an error.
        let cold = CacheHandle::new(8);
        assert_eq!(cold.restore_or_cold(&dir.join("nope.afpc")), 0);
        assert!(cold.is_empty());
        // The typed path reports the io error.
        assert!(matches!(
            cold.restore(&dir.join("nope.afpc")),
            Err(PersistError::Io(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_writes_publish_one_complete_snapshot() {
        // Two engine clones autosaving, or an autosave racing an explicit
        // persist(), write the same target concurrently. Unique temp names
        // keep each write's bytes intact: the published file is always one
        // writer's complete payload, never an interleaving.
        let dir = std::env::temp_dir().join(format!("afp-persist-race-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("race.afpc");
        let payloads: Vec<Vec<u8>> = (0u8..8).map(|i| vec![i; 4096]).collect();
        std::thread::scope(|scope| {
            for payload in &payloads {
                scope.spawn(|| write_snapshot_file(&path, payload).expect("write"));
            }
        });
        let published = std::fs::read(&path).expect("read");
        assert!(
            payloads.contains(&published),
            "published snapshot must be one writer's bytes"
        );
        let leftover_tmp = std::fs::read_dir(&dir)
            .expect("readdir")
            .filter_map(|e| e.ok())
            .any(|e| e.file_name().to_string_lossy().ends_with(".tmp"));
        assert!(!leftover_tmp, "temp files must not outlive their write");
        std::fs::remove_dir_all(&dir).ok();
    }
}
