//! The segmented write-ahead log: frame format, group append, rotation,
//! truncation, torn-tail rollback, and the torn-tail-tolerant recovery
//! reader.
//!
//! # On-disk layout
//!
//! A log is a directory of segment files named `wal-<first_seq:020>.log`,
//! where `first_seq` is the sequence number of the first record the segment
//! may hold (zero-padded so lexicographic order equals numeric order). Each
//! segment is a run of frames:
//!
//! ```text
//! [len: u32 LE] [crc: u32 LE] [payload: len bytes]
//! ```
//!
//! `crc` is CRC-32 (IEEE) of the payload. A batch payload is
//!
//! ```text
//! [kind: u8 = 1] [seq: u64 LE] [op_count: u32 LE] [op]...
//! ```
//!
//! with each op encoded by [`crate::codec::encode_op`]. Sequence numbers
//! are assigned contiguously across segments in append order, so the log
//! as a whole is one totally ordered record stream.
//!
//! Every byte goes through the [`crate::storage::Storage`] seam, so the
//! fault-injection harness exercises this exact code, not a test double.
//!
//! # Recovery rules
//!
//! The reader walks segments in `first_seq` order and frames in file order,
//! and applies three rules that together tolerate any torn tail without
//! ever resurrecting a gap:
//!
//! 1. **Bad frame ends the segment.** A short header, short payload, CRC
//!    mismatch, or undecodable payload marks the rest of that segment
//!    unreadable (a torn write corrupts a suffix, never a prefix — frames
//!    are appended in order and fsynced as a group).
//! 2. **Sequence numbers must stay contiguous across everything read.** If
//!    the first record of a later segment does not continue exactly where
//!    the previous readable record stopped, reading stops entirely: the
//!    records after a gap were committed *after* the lost ones, and
//!    replaying them would reorder history.
//! 3. **Recovery never appends to an old segment.** The writer always
//!    rotates to a fresh segment on open, so bytes after a torn tail are
//!    never overwritten in place and re-running recovery is idempotent.
//!
//! # Retry safety: the durable watermark and `rollback_tail`
//!
//! The writer tracks, per segment, the byte length and next-sequence value
//! covered by the **last successful sync**. When an append or fsync fails,
//! bytes past that watermark are in an unknown state (a torn prefix of the
//! group may be readable). [`WalWriter::rollback_tail`] truncates the
//! segment back to the durable watermark, after which re-appending the
//! same group — with the *same* sequence numbers — is safe: no readable
//! frame with a reused sequence number can survive to confuse recovery.
//! This is the primitive the journal's retry loop and the degraded-mode
//! resume protocol are built on.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use wft_api::StoreOp;
use wft_seq::{Key, Value};

use crate::codec::{crc32, decode_op, encode_op, WalCodec};
use crate::storage::Storage;
use crate::storage::StorageFile;

/// Payload kind for a batch record (the only record kind so far; checkpoint
/// metadata lives in its own files).
const KIND_BATCH: u8 = 1;

/// Frame header size: `len` + `crc`.
const FRAME_HEADER: usize = 8;

/// Builds a segment file name for the segment starting at `first_seq`.
fn segment_name(first_seq: u64) -> String {
    format!("wal-{first_seq:020}.log")
}

/// Parses `first_seq` back out of a segment file name.
fn parse_segment_name(name: &str) -> Option<u64> {
    name.strip_prefix("wal-")?
        .strip_suffix(".log")?
        .parse()
        .ok()
}

/// Segment files in the directory, sorted by `first_seq`.
pub(crate) fn list_segments(storage: &dyn Storage, dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut segments = Vec::new();
    for name in storage.list_dir(dir)? {
        if let Some(first) = parse_segment_name(&name) {
            segments.push((first, dir.join(name)));
        }
    }
    segments.sort_unstable_by_key(|(first, _)| *first);
    Ok(segments)
}

/// Encodes one batch record and appends its frame (header + payload) to
/// `out`. Exposed to the journal so a whole commit group becomes one
/// contiguous buffer and one `write` call.
pub(crate) fn encode_frame<K, V>(seq: u64, ops: &[StoreOp<K, V>], out: &mut Vec<u8>)
where
    K: Key + WalCodec,
    V: Value + WalCodec,
{
    let mut payload = Vec::with_capacity(16 + ops.len() * 16);
    payload.push(KIND_BATCH);
    seq.encode_wal(&mut payload);
    (ops.len() as u32).encode_wal(&mut payload);
    for op in ops {
        encode_op(op, &mut payload);
    }
    (payload.len() as u32).encode_wal(out);
    crc32(&payload).encode_wal(out);
    out.extend_from_slice(&payload);
}

/// The append side of the log. One exists per [`crate::DurableStore`],
/// shared behind a mutex between the journal thread (group appends) and
/// checkpointing (rotation + truncation) — appends never interleave with
/// segment surgery.
pub(crate) struct WalWriter {
    storage: Arc<dyn Storage>,
    dir: PathBuf,
    file: Box<dyn StorageFile>,
    /// Sequence number the next appended record will carry.
    next_seq: u64,
    /// Bytes appended to the current segment so far (including bytes not
    /// yet fsynced).
    segment_len: u64,
    /// `segment_len` as of the last successful sync: everything at or
    /// below this offset is on stable storage and may have been
    /// acknowledged. A rollback truncates to exactly here.
    durable_len: u64,
    /// `next_seq` as of the last successful sync; restored by a rollback
    /// so retried groups reuse the rolled-back sequence numbers.
    durable_next_seq: u64,
    /// `true` when an append failed partway and the file may hold bytes
    /// that `segment_len` does not account for.
    dirty: bool,
    /// Rotate to a fresh segment once the current one exceeds this.
    segment_limit: u64,
    /// A segment file a failed rotation may have created without the writer
    /// ever moving to it. Its name claims an upper bound on the records
    /// before it that the current segment keeps outgrowing, so it is
    /// removed before the next rotation or truncation looks at names.
    orphan: Option<PathBuf>,
}

impl WalWriter {
    /// Opens a **fresh** segment starting at `next_seq`. Called once per
    /// store open (recovery never appends to an old segment) and again on
    /// every rotation.
    pub(crate) fn open(
        storage: Arc<dyn Storage>,
        dir: &Path,
        next_seq: u64,
        segment_limit: u64,
    ) -> io::Result<Self> {
        let file = new_segment(storage.as_ref(), dir, next_seq)?;
        Ok(WalWriter {
            storage,
            dir: dir.to_path_buf(),
            file,
            next_seq,
            segment_len: 0,
            durable_len: 0,
            durable_next_seq: next_seq,
            dirty: false,
            segment_limit,
            orphan: None,
        })
    }

    /// Appends `batches` as one contiguous frame group, assigning
    /// contiguous sequence numbers. Returns `(first_seq, bytes_written)`;
    /// the records cover `first_seq .. first_seq + batches.len()`. Does
    /// **not** sync — the journal decides when the group hits the platter.
    ///
    /// On failure the segment may hold a torn prefix of the group;
    /// [`rollback_tail`](Self::rollback_tail) before retrying.
    pub(crate) fn append_group<K, V, B>(&mut self, batches: &[B]) -> io::Result<(u64, u64)>
    where
        K: Key + WalCodec,
        V: Value + WalCodec,
        B: AsRef<[StoreOp<K, V>]>,
    {
        let first = self.next_seq;
        let mut buf = Vec::new();
        for (i, ops) in batches.iter().enumerate() {
            encode_frame(first + i as u64, ops.as_ref(), &mut buf);
        }
        self.dirty = true;
        self.file.append(&buf)?;
        self.dirty = false;
        self.next_seq = first + batches.len() as u64;
        self.segment_len += buf.len() as u64;
        Ok((first, buf.len() as u64))
    }

    /// Forces the current segment's appended frames to stable storage and
    /// advances the durable watermark.
    pub(crate) fn sync(&mut self) -> io::Result<()> {
        self.file.sync()?;
        self.durable_len = self.segment_len;
        self.durable_next_seq = self.next_seq;
        Ok(())
    }

    /// Advances the durable watermark without an fsync. Used when the
    /// store runs with fsync disabled (tests, benches): the rollback
    /// baseline then tracks "fully appended" instead of "fsynced", so a
    /// retry rollback only ever erases the failed group itself, never
    /// previously acknowledged unsynced groups.
    pub(crate) fn commit_volatile(&mut self) {
        self.durable_len = self.segment_len;
        self.durable_next_seq = self.next_seq;
    }

    /// `true` when bytes past the durable watermark may exist — a failed
    /// append or fsync left the segment's tail in an unknown state.
    pub(crate) fn has_torn_tail(&self) -> bool {
        self.dirty || self.segment_len != self.durable_len
    }

    /// Truncates the segment back to the last durable watermark, undoing
    /// any torn or unsynced tail so the failed group can be re-appended
    /// with its original sequence numbers. No-op on a clean segment.
    pub(crate) fn rollback_tail(&mut self) -> io::Result<()> {
        if !self.has_torn_tail() {
            return Ok(());
        }
        self.file.truncate(self.durable_len)?;
        self.segment_len = self.durable_len;
        self.next_seq = self.durable_next_seq;
        self.dirty = false;
        Ok(())
    }

    /// `true` once the current segment has outgrown its size limit — the
    /// journal rotates at the next group boundary so no frame straddles
    /// segments.
    pub(crate) fn wants_rotation(&self) -> bool {
        self.segment_len >= self.segment_limit
    }

    /// Closes the current segment (durably) and starts a fresh one at the
    /// current `next_seq`.
    pub(crate) fn rotate(&mut self) -> io::Result<()> {
        self.sync()?;
        self.remove_orphan()?;
        match new_segment(self.storage.as_ref(), &self.dir, self.next_seq) {
            Ok(file) => self.file = file,
            Err(err) => {
                // An empty current segment already carries that name, so
                // nothing new can have been created.
                if self.segment_len > 0 {
                    self.orphan = Some(self.dir.join(segment_name(self.next_seq)));
                }
                return Err(err);
            }
        }
        self.segment_len = 0;
        self.durable_len = 0;
        self.durable_next_seq = self.next_seq;
        self.dirty = false;
        Ok(())
    }

    /// Deletes what a failed rotation left behind (it may have failed
    /// before creating anything, hence `NotFound` is success).
    fn remove_orphan(&mut self) -> io::Result<()> {
        if let Some(path) = &self.orphan {
            match self.storage.remove_file(path) {
                Err(err) if err.kind() != io::ErrorKind::NotFound => return Err(err),
                _ => self.orphan = None,
            }
        }
        Ok(())
    }

    /// Deletes every segment whose records are all covered by a checkpoint
    /// at `cut` (every record seq `<= cut`). A segment qualifies exactly
    /// when its *successor* segment starts at `cut + 1` or earlier — the
    /// successor's `first_seq` is a strict upper bound on the seqs before
    /// it. The active (last) segment is never deleted. Returns the number
    /// of segments removed.
    pub(crate) fn truncate_through(&mut self, cut: u64) -> io::Result<u64> {
        self.remove_orphan()?;
        let segments = list_segments(self.storage.as_ref(), &self.dir)?;
        let mut removed = 0;
        for pair in segments.windows(2) {
            let (_, ref path) = pair[0];
            let (successor_first, _) = pair[1];
            if successor_first <= cut + 1 {
                self.storage.remove_file(path)?;
                removed += 1;
            }
        }
        if removed > 0 {
            self.storage.sync_dir(&self.dir)?;
        }
        Ok(removed)
    }
}

fn new_segment(
    storage: &dyn Storage,
    dir: &Path,
    first_seq: u64,
) -> io::Result<Box<dyn StorageFile>> {
    let path = dir.join(segment_name(first_seq));
    let file = storage.open_append(&path)?;
    // Make the segment's directory entry durable before any record relies
    // on it existing.
    storage.sync_dir(dir)?;
    Ok(file)
}

/// What the recovery reader salvaged from the log directory.
#[derive(Debug)]
pub(crate) struct WalReplay<K: Key, V: Value> {
    /// Readable records in sequence order: `(seq, batch)`.
    pub(crate) records: Vec<(u64, Vec<StoreOp<K, V>>)>,
    /// `true` when any segment ended at a corrupt/short frame or a
    /// cross-segment sequence gap stopped the read — i.e. the log's tail
    /// was torn and some unacknowledged suffix was discarded.
    pub(crate) torn_tail: bool,
    /// Segment files visited.
    pub(crate) segments: u64,
    /// Payload + header bytes of the readable records.
    pub(crate) bytes_read: u64,
}

/// Reads every committed record out of the log directory under the
/// recovery rules in the [module docs](self).
pub(crate) fn read_wal<K, V>(storage: &dyn Storage, dir: &Path) -> io::Result<WalReplay<K, V>>
where
    K: Key + WalCodec,
    V: Value + WalCodec,
{
    let mut replay = WalReplay {
        records: Vec::new(),
        torn_tail: false,
        segments: 0,
        bytes_read: 0,
    };
    let mut expected: Option<u64> = None;
    'segments: for (_, path) in list_segments(storage, dir)? {
        replay.segments += 1;
        let bytes = storage.read(&path)?;
        let mut pos = 0;
        while pos < bytes.len() {
            let Some((seq, ops, frame_len)) = decode_frame::<K, V>(&bytes[pos..]) else {
                // Rule 1: a bad frame ends the segment — everything after
                // it in this file is a torn suffix.
                replay.torn_tail = true;
                continue 'segments;
            };
            if let Some(e) = expected {
                if seq != e {
                    // Rule 2: a sequence gap (torn tail in an *earlier*
                    // segment) invalidates everything after it.
                    replay.torn_tail = true;
                    break 'segments;
                }
            }
            expected = Some(seq + 1);
            replay.records.push((seq, ops));
            replay.bytes_read += frame_len as u64;
            pos += frame_len;
        }
    }
    Ok(replay)
}

/// A decoded frame: its sequence number, ops, and on-disk length in bytes.
type DecodedFrame<K, V> = (u64, Vec<StoreOp<K, V>>, usize);

/// Decodes the frame at the head of `buf`: `Some((seq, ops, frame_len))`
/// when the header, CRC, and payload all check out.
fn decode_frame<K, V>(buf: &[u8]) -> Option<DecodedFrame<K, V>>
where
    K: Key + WalCodec,
    V: Value + WalCodec,
{
    let mut pos = 0;
    let len = u32::decode_wal(buf, &mut pos)? as usize;
    let crc = u32::decode_wal(buf, &mut pos)?;
    let payload = buf.get(FRAME_HEADER..FRAME_HEADER + len)?;
    if crc32(payload) != crc {
        return None;
    }
    let mut p = 0;
    if u8::decode_wal(payload, &mut p)? != KIND_BATCH {
        return None;
    }
    let seq = u64::decode_wal(payload, &mut p)?;
    let count = u32::decode_wal(payload, &mut p)? as usize;
    let mut ops = Vec::with_capacity(count);
    for _ in 0..count {
        ops.push(decode_op(payload, &mut p)?);
    }
    // Trailing garbage inside a CRC-valid payload would mean the writer and
    // reader disagree on the format; refuse rather than guess.
    if p != payload.len() {
        return None;
    }
    Some((seq, ops, FRAME_HEADER + len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::ScratchDir;
    use crate::storage::{Fault, FaultKind, FaultOp, FaultyStorage, FsStorage};
    use std::fs;

    fn fs_storage() -> Arc<dyn Storage> {
        Arc::new(FsStorage)
    }

    fn batch(k: i64) -> Vec<StoreOp<i64, i64>> {
        vec![StoreOp::Insert { key: k, value: k }]
    }

    #[test]
    fn append_sync_and_read_back() {
        let dir = ScratchDir::new("wal-roundtrip");
        let mut w = WalWriter::open(fs_storage(), dir.path(), 1, u64::MAX).unwrap();
        let (first, bytes) = w.append_group(&[batch(1), batch(2), batch(3)]).unwrap();
        assert_eq!(first, 1);
        assert!(bytes > 0);
        w.sync().unwrap();
        let replay = read_wal::<i64, i64>(&FsStorage, dir.path()).unwrap();
        assert!(!replay.torn_tail);
        assert_eq!(
            replay.records.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert_eq!(replay.records[2].1, batch(3));
        assert_eq!(replay.bytes_read, bytes);
    }

    #[test]
    fn torn_tail_stops_at_first_bad_frame() {
        let dir = ScratchDir::new("wal-torn");
        let mut w = WalWriter::open(fs_storage(), dir.path(), 0, u64::MAX).unwrap();
        w.append_group(&[batch(1), batch(2)]).unwrap();
        w.sync().unwrap();
        let (_, path) = list_segments(&FsStorage, dir.path())
            .unwrap()
            .pop()
            .unwrap();
        let bytes = fs::read(&path).unwrap();
        // Chop the last record mid-payload.
        fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let replay = read_wal::<i64, i64>(&FsStorage, dir.path()).unwrap();
        assert!(replay.torn_tail);
        assert_eq!(replay.records.len(), 1);
        assert_eq!(replay.records[0].0, 0);
    }

    #[test]
    fn corrupted_crc_drops_the_record() {
        let dir = ScratchDir::new("wal-crc");
        let mut w = WalWriter::open(fs_storage(), dir.path(), 0, u64::MAX).unwrap();
        w.append_group(&[batch(7)]).unwrap();
        w.sync().unwrap();
        let (_, path) = list_segments(&FsStorage, dir.path())
            .unwrap()
            .pop()
            .unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        let replay = read_wal::<i64, i64>(&FsStorage, dir.path()).unwrap();
        assert!(replay.torn_tail);
        assert!(replay.records.is_empty());
    }

    #[test]
    fn sequence_gap_across_segments_stops_everything() {
        let dir = ScratchDir::new("wal-gap");
        // Segment A holds seq 0; segment B starts at seq 2 — seq 1 was
        // torn away with its whole segment. Nothing after the gap may
        // replay.
        let mut a = WalWriter::open(fs_storage(), dir.path(), 0, u64::MAX).unwrap();
        a.append_group(&[batch(10)]).unwrap();
        a.sync().unwrap();
        drop(a);
        let mut b = WalWriter::open(fs_storage(), dir.path(), 2, u64::MAX).unwrap();
        b.append_group(&[batch(30), batch(40)]).unwrap();
        b.sync().unwrap();
        let replay = read_wal::<i64, i64>(&FsStorage, dir.path()).unwrap();
        assert!(replay.torn_tail);
        assert_eq!(replay.records.len(), 1);
        assert_eq!(replay.records[0].0, 0);
    }

    #[test]
    fn rotation_and_truncation_keep_the_suffix() {
        let dir = ScratchDir::new("wal-truncate");
        let mut w = WalWriter::open(fs_storage(), dir.path(), 0, u64::MAX).unwrap();
        w.append_group(&[batch(1), batch(2)]).unwrap(); // seqs 0, 1
        w.rotate().unwrap();
        w.append_group(&[batch(3)]).unwrap(); // seq 2
        w.rotate().unwrap();
        w.append_group(&[batch(4)]).unwrap(); // seq 3
        w.sync().unwrap();
        assert_eq!(list_segments(&FsStorage, dir.path()).unwrap().len(), 3);

        // Checkpoint at cut = 1 covers exactly the first segment.
        assert_eq!(w.truncate_through(1).unwrap(), 1);
        let replay = read_wal::<i64, i64>(&FsStorage, dir.path()).unwrap();
        assert!(!replay.torn_tail, "suffix stays contiguous");
        assert_eq!(
            replay.records.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            vec![2, 3]
        );

        // A cut past everything still never deletes the active segment.
        assert_eq!(w.truncate_through(100).unwrap(), 1);
        assert_eq!(list_segments(&FsStorage, dir.path()).unwrap().len(), 1);
    }

    #[test]
    fn a_failed_rotation_leaves_no_segment_that_fools_truncation() {
        let dir = ScratchDir::new("wal-orphan");
        let faulty = FaultyStorage::over_fs();
        let mut w = WalWriter::open(
            Arc::new(faulty.clone()) as Arc<dyn Storage>,
            dir.path(),
            1,
            u64::MAX,
        )
        .unwrap();
        // Rotating an empty segment re-opens its own name; when that fails,
        // nothing was left behind and the live file must not be swept.
        faulty.schedule(Fault::nth_of(
            FaultOp::OpenAppend,
            1,
            FaultKind::Error(io::ErrorKind::Other),
        ));
        assert!(w.rotate().is_err());
        w.append_group(&[batch(1), batch(2)]).unwrap(); // seqs 1, 2

        // The new segment's file is created, then its directory sync (the
        // second overall: `open` paid the first) fails: `wal-3` exists but
        // the writer stays on `wal-1`, which goes on to hold seqs 3 and 4.
        faulty.schedule(Fault::nth_of(
            FaultOp::DirSync,
            1,
            FaultKind::Error(io::ErrorKind::Other),
        ));
        assert!(w.rotate().is_err());
        w.append_group(&[batch(3), batch(4)]).unwrap();
        w.rotate().unwrap();

        // A checkpoint at cut = 2 must keep seqs 3 and 4, although a
        // segment named `wal-3` once sat right after the one holding them.
        w.truncate_through(2).unwrap();
        let replay = read_wal::<i64, i64>(&FsStorage, dir.path()).unwrap();
        let seqs: Vec<u64> = replay.records.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![1, 2, 3, 4], "records past the cut survive");
    }

    #[test]
    fn empty_batches_are_representable() {
        let dir = ScratchDir::new("wal-empty");
        let mut w = WalWriter::open(fs_storage(), dir.path(), 5, u64::MAX).unwrap();
        let empty: Vec<StoreOp<i64, i64>> = Vec::new();
        w.append_group(&[empty]).unwrap();
        w.sync().unwrap();
        let replay = read_wal::<i64, i64>(&FsStorage, dir.path()).unwrap();
        assert_eq!(replay.records, vec![(5, vec![])]);
    }

    #[test]
    fn rollback_after_short_write_restores_the_durable_prefix() {
        let dir = ScratchDir::new("wal-rollback");
        let faulty = FaultyStorage::over_fs();
        let mut w = WalWriter::open(
            Arc::new(faulty.clone()) as Arc<dyn Storage>,
            dir.path(),
            0,
            u64::MAX,
        )
        .unwrap();
        w.append_group(&[batch(1)]).unwrap(); // seq 0
        w.sync().unwrap();

        // The next append tears: half its bytes land, then it fails. The
        // second frame is longer than the first so the cut point falls
        // mid-frame and the tear is visible to the reader.
        let fat = vec![
            StoreOp::Insert { key: 3, value: 3 },
            StoreOp::Insert { key: 4, value: 4 },
            StoreOp::Insert { key: 5, value: 5 },
        ];
        faulty.schedule(Fault::nth_of(FaultOp::Append, 1, FaultKind::ShortWrite));
        assert!(w.append_group(&[batch(2), fat.clone()]).is_err());
        assert!(w.has_torn_tail());

        // Before rollback the torn bytes are really on disk.
        let replay = read_wal::<i64, i64>(&FsStorage, dir.path()).unwrap();
        assert!(replay.torn_tail);

        // Rollback, re-append the same group: the sequence numbers are
        // reused and the log reads back clean.
        w.rollback_tail().unwrap();
        assert!(!w.has_torn_tail());
        let (first, _) = w.append_group(&[batch(2), fat]).unwrap();
        assert_eq!(first, 1, "rolled-back seqs are reused");
        w.sync().unwrap();
        let replay = read_wal::<i64, i64>(&FsStorage, dir.path()).unwrap();
        assert!(!replay.torn_tail);
        assert_eq!(
            replay.records.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn short_write_on_a_frame_boundary_leaves_an_unacked_record() {
        // When the cut point of a torn group write lands exactly on a
        // frame boundary, the reader sees an *intact* record that was
        // never acknowledged — invisible as corruption, which is exactly
        // why every retry starts with `rollback_tail`.
        let dir = ScratchDir::new("wal-boundary");
        let faulty = FaultyStorage::over_fs();
        let mut w = WalWriter::open(
            Arc::new(faulty.clone()) as Arc<dyn Storage>,
            dir.path(),
            0,
            u64::MAX,
        )
        .unwrap();
        w.append_group(&[batch(1)]).unwrap(); // seq 0, durable
        w.sync().unwrap();

        // Two equal-length frames: half the bytes = exactly the first.
        faulty.schedule(Fault::nth_of(FaultOp::Append, 1, FaultKind::ShortWrite));
        assert!(w.append_group(&[batch(2), batch(3)]).is_err());
        assert!(w.has_torn_tail(), "the writer still knows");

        let replay = read_wal::<i64, i64>(&FsStorage, dir.path()).unwrap();
        assert!(!replay.torn_tail, "the reader cannot tell");
        assert_eq!(
            replay.records.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            vec![0, 1],
            "seq 1 is readable but was never acknowledged"
        );

        // Rollback erases it; the retry reuses seq 1 with different
        // content and recovery stays unambiguous.
        w.rollback_tail().unwrap();
        let (first, _) = w.append_group(&[batch(9)]).unwrap();
        assert_eq!(first, 1);
        w.sync().unwrap();
        let replay = read_wal::<i64, i64>(&FsStorage, dir.path()).unwrap();
        assert_eq!(replay.records.len(), 2);
        assert_eq!(
            replay.records[1].1,
            vec![StoreOp::Insert { key: 9, value: 9 }],
            "the unacked record is gone, not resurrected"
        );
    }

    #[test]
    fn rollback_after_failed_fsync_discards_the_unsynced_group() {
        let dir = ScratchDir::new("wal-fsync-fail");
        let faulty = FaultyStorage::over_fs();
        let mut w = WalWriter::open(
            Arc::new(faulty.clone()) as Arc<dyn Storage>,
            dir.path(),
            0,
            u64::MAX,
        )
        .unwrap();
        w.append_group(&[batch(1)]).unwrap();
        w.sync().unwrap();

        // Append lands fully, but the fsync fails: the group is readable
        // yet NOT durable — rollback must erase it so a retried group can
        // reuse seq 1 without leaving a duplicate behind.
        faulty.schedule(Fault::nth_of(
            FaultOp::Sync,
            1,
            FaultKind::Error(io::ErrorKind::Other),
        ));
        w.append_group(&[batch(2)]).unwrap();
        assert!(w.sync().is_err());
        assert!(w.has_torn_tail());
        w.rollback_tail().unwrap();

        let replay = read_wal::<i64, i64>(&FsStorage, dir.path()).unwrap();
        assert!(!replay.torn_tail);
        assert_eq!(replay.records.len(), 1, "only the durable record stays");

        // Retry with a different payload lands on the freed seq.
        let (first, _) = w.append_group(&[batch(9)]).unwrap();
        assert_eq!(first, 1);
        w.sync().unwrap();
        let replay = read_wal::<i64, i64>(&FsStorage, dir.path()).unwrap();
        assert_eq!(replay.records.len(), 2);
        assert_eq!(replay.records[1].1, batch(9));
    }
}
