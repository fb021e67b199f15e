//! Watermark snapshot checkpoints: the durable base image the redo log
//! replays on top of.
//!
//! A [`Checkpoint`] captures the committed state visible at one version
//! — schema in table-id order, rows sorted by key — so restoring it and
//! replaying the [`crate::wal`] records past its sequence reconstructs
//! the database exactly. The byte form is a single crc-guarded frame
//! behind a magic header; like the log, it is a pure function of the
//! captured state, so equal databases produce equal checkpoint bytes.
//!
//! Capture ([`crate::Database::checkpoint`]) collapses history: the
//! restored database holds one version per row, at the checkpoint
//! sequence. Snapshots older than that sequence are unreadable by
//! construction, which is why [`crate::Database::restore`] pins the
//! vacuum watermark (`min_snapshot`) to it.
//!
//! Capture costs O(database). An image that already exists advances more
//! cheaply by *folding* the redo log written since into it
//! ([`Checkpoint::fold_log`]), at O(rows written). The fold follows
//! [`crate::Database::recover`]'s record rules, so the folded image is
//! the state a recovery from (image, log) would rebuild. When the log
//! changes the schema the fold refuses, and the caller captures instead.

use std::collections::BTreeMap;
use std::fmt;

use crate::value::Row;
use crate::wal::{self, crc32, put_row, put_str, Reader, WalRecord};

/// Magic prefix of a checkpoint image.
pub const CHECKPOINT_MAGIC: &[u8; 8] = b"SIDBCKP1";

/// One table's captured schema and visible rows.
#[derive(Debug, Clone, PartialEq)]
pub struct TableCheckpoint {
    /// Table name.
    pub name: String,
    /// Column names, in order.
    pub columns: Vec<String>,
    /// `(row key, data)` pairs visible at the checkpoint sequence,
    /// sorted by key.
    pub rows: Vec<(u64, Row)>,
}

/// The committed state visible at `seq`, for every table in id order.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// The database version the image was captured at.
    pub seq: u64,
    /// Tables in id (creation) order.
    pub tables: Vec<TableCheckpoint>,
}

/// Why a checkpoint image failed to load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Shorter than magic + frame header.
    TooShort,
    /// Magic prefix mismatch (not a checkpoint image).
    BadMagic,
    /// Payload crc mismatch (torn or corrupted image).
    BadCrc,
    /// Crc passed but the payload did not decode (version skew or a
    /// codec bug).
    Malformed,
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::TooShort => write!(f, "checkpoint image is too short"),
            CheckpointError::BadMagic => write!(f, "checkpoint magic mismatch"),
            CheckpointError::BadCrc => write!(f, "checkpoint crc mismatch"),
            CheckpointError::Malformed => write!(f, "checkpoint payload is malformed"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Why [`Checkpoint::fold_log`] refused a log. The image is left
/// untouched; capture a fresh one instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FoldError {
    /// The log creates a table, which would change the image's schema.
    Schema,
    /// A commit writes a table the image does not hold.
    UnknownTable,
}

impl fmt::Display for FoldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FoldError::Schema => write!(f, "the log creates a table"),
            FoldError::UnknownTable => write!(f, "the log writes a table the image lacks"),
        }
    }
}

impl std::error::Error for FoldError {}

/// What a recovery pass did; see [`crate::Database::recover`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Commit records replayed on top of the checkpoint.
    pub replayed: u64,
    /// Sequence of the last replayed commit (the recovery floor when no
    /// record replayed).
    pub last_seq: u64,
    /// Byte length of the log's valid prefix.
    pub wal_valid_len: usize,
    /// True when the log had a torn or corrupt tail past the prefix.
    pub wal_truncated: bool,
}

impl Checkpoint {
    /// Total captured rows across all tables.
    pub fn row_count(&self) -> usize {
        self.tables.iter().map(|t| t.rows.len()).sum()
    }

    /// Advances the image over the valid prefix of `wal_bytes`, as
    /// [`crate::Database::recover`] would replay it: commits at or below
    /// `self.seq` are skipped and the fold stops at the first
    /// non-increasing sequence. Writesets apply last-writer-wins. Updates
    /// of captured rows overwrite in place; inserted and deleted keys are
    /// merged in with one sorted pass per table. Rows move out of the
    /// decoded records, so nothing is cloned. Returns the number of
    /// commits folded.
    ///
    /// # Errors
    ///
    /// Returns a [`FoldError`] — with the image unchanged — when the log
    /// creates a table or writes one the image does not hold.
    pub fn fold_log(&mut self, wal_bytes: &[u8]) -> Result<u64, FoldError> {
        let records = wal::scan(wal_bytes).records;
        // Pass 1: find the replayable prefix and check it before anything
        // moves, so a refusal leaves the image as it was.
        let mut last_seq = self.seq;
        let mut end = 0;
        for rec in &records {
            match rec {
                WalRecord::CreateTable { .. } => return Err(FoldError::Schema),
                WalRecord::Commit { seq, writeset } => {
                    if *seq > self.seq {
                        if *seq <= last_seq {
                            break; // out-of-order sequence: recovery stops here
                        }
                        if writeset
                            .items
                            .iter()
                            .any(|item| item.table.index() >= self.tables.len())
                        {
                            return Err(FoldError::UnknownTable);
                        }
                        last_seq = *seq;
                    }
                }
            }
            end += 1;
        }
        // Pass 2: apply. Keys that join or leave a table collect in a
        // per-table overlay; later writes of such a key update the overlay.
        let mut joins_and_leaves: Vec<BTreeMap<u64, Option<Row>>> =
            self.tables.iter().map(|_| BTreeMap::new()).collect();
        let mut folded = 0;
        for rec in records.into_iter().take(end) {
            let WalRecord::Commit { seq, writeset } = rec else {
                continue; // pass 1 returned on any schema record
            };
            if seq <= self.seq {
                continue;
            }
            folded += 1;
            for item in writeset.items {
                let (key, data) = (item.row.0, item.data);
                let overlay = &mut joins_and_leaves[item.table.index()];
                if let Some(slot) = overlay.get_mut(&key) {
                    *slot = data;
                    continue;
                }
                let rows = &mut self.tables[item.table.index()].rows;
                match (rows.binary_search_by_key(&key, |(k, _)| *k), data) {
                    (Ok(i), Some(row)) => rows[i].1 = row,
                    (_, data) => {
                        overlay.insert(key, data);
                    }
                }
            }
        }
        for (table, overlay) in self.tables.iter_mut().zip(joins_and_leaves) {
            if !overlay.is_empty() {
                table.rows = merge_rows(std::mem::take(&mut table.rows), overlay);
            }
        }
        self.seq = last_seq;
        Ok(folded)
    }

    /// Serializes to the on-disk image: magic, payload length, crc,
    /// payload.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        payload.extend_from_slice(&self.seq.to_le_bytes());
        payload.extend_from_slice(&(self.tables.len() as u32).to_le_bytes());
        for t in &self.tables {
            put_str(&mut payload, &t.name);
            payload.extend_from_slice(&(t.columns.len() as u32).to_le_bytes());
            for c in &t.columns {
                put_str(&mut payload, c);
            }
            payload.extend_from_slice(&(t.rows.len() as u32).to_le_bytes());
            for (key, row) in &t.rows {
                payload.extend_from_slice(&key.to_le_bytes());
                put_row(&mut payload, row);
            }
        }
        let mut out = Vec::with_capacity(CHECKPOINT_MAGIC.len() + 8 + payload.len());
        out.extend_from_slice(CHECKPOINT_MAGIC);
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Loads an image, verifying magic and crc.
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`] describing the first defect found;
    /// never panics on arbitrary bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Checkpoint, CheckpointError> {
        let header = CHECKPOINT_MAGIC.len() + 8;
        if bytes.len() < header {
            return Err(CheckpointError::TooShort);
        }
        if &bytes[..CHECKPOINT_MAGIC.len()] != CHECKPOINT_MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let m = CHECKPOINT_MAGIC.len();
        let len = u32::from_le_bytes(bytes[m..m + 4].try_into().expect("4-byte slice")) as usize;
        let crc = u32::from_le_bytes(bytes[m + 4..m + 8].try_into().expect("4-byte slice"));
        if bytes.len() < header + len {
            return Err(CheckpointError::TooShort);
        }
        let payload = &bytes[header..header + len];
        if crc32(payload) != crc {
            return Err(CheckpointError::BadCrc);
        }
        decode_payload(payload).ok_or(CheckpointError::Malformed)
    }
}

/// Merges a key-sorted overlay into key-sorted rows: `Some` inserts or
/// replaces the row, `None` removes it.
fn merge_rows(rows: Vec<(u64, Row)>, overlay: BTreeMap<u64, Option<Row>>) -> Vec<(u64, Row)> {
    let mut merged = Vec::with_capacity(rows.len() + overlay.len());
    let mut rows = rows.into_iter().peekable();
    for (key, data) in overlay {
        while let Some(row) = rows.next_if(|(k, _)| *k < key) {
            merged.push(row);
        }
        rows.next_if(|(k, _)| *k == key);
        if let Some(data) = data {
            merged.push((key, data));
        }
    }
    merged.extend(rows);
    merged
}

fn decode_payload(payload: &[u8]) -> Option<Checkpoint> {
    let mut r = Reader::new(payload);
    let seq = r.u64()?;
    let ntables = r.u32()? as usize;
    let mut tables = Vec::with_capacity(ntables.min(1024));
    for _ in 0..ntables {
        let name = r.str()?;
        let ncols = r.u32()? as usize;
        let mut columns = Vec::with_capacity(ncols.min(1024));
        for _ in 0..ncols {
            columns.push(r.str()?);
        }
        let nrows = r.u32()? as usize;
        let mut rows = Vec::with_capacity(nrows.min(65_536));
        for _ in 0..nrows {
            let key = r.u64()?;
            rows.push((key, r.row()?));
        }
        tables.push(TableCheckpoint {
            name,
            columns,
            rows,
        });
    }
    if !r.is_empty() {
        return None; // trailing bytes: not an image we wrote
    }
    Some(Checkpoint { seq, tables })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;
    use crate::{Database, RowId, TableId, WalWriter, WriteItem, WriteOp, WriteSet};

    /// A two-table database with rows 0..8 in each.
    fn seeded_db() -> Database {
        let mut db = Database::new();
        let a = db.create_table("a", &["v"]).unwrap();
        let b = db.create_table("b", &["name", "v"]).unwrap();
        let t = db.begin();
        for k in 0..8u64 {
            db.insert(t, a, RowId(k * 2), vec![Value::Int(k as i64)])
                .unwrap();
            db.insert(
                t,
                b,
                RowId(k),
                vec![Value::text(format!("r{k}")), Value::Int(0)],
            )
            .unwrap();
        }
        db.commit(t).unwrap();
        db
    }

    /// Commits `ops` (table, key, data; `None` deletes) as one
    /// transaction and logs it.
    fn commit(db: &mut Database, wal: &mut WalWriter, ops: &[(u32, u64, Option<i64>)]) {
        let t = db.begin();
        for &(table, key, data) in ops {
            let (table, row) = (TableId(table), RowId(key));
            let exists = db.read(t, table, row).unwrap().is_some();
            let data = data.map(|v| match table.0 {
                0 => vec![Value::Int(v)],
                _ => vec![Value::text(format!("n{v}")), Value::Int(v)],
            });
            match (exists, data) {
                (true, Some(d)) => db.update(t, table, row, d).unwrap(),
                (false, Some(d)) => db.insert(t, table, row, d).unwrap(),
                (true, None) => db.delete(t, table, row).unwrap(),
                (false, None) => {}
            }
        }
        let info = db.commit(t).unwrap();
        wal.append_commit(info.commit_seq, &info.writeset);
    }

    #[test]
    fn fold_matches_a_fresh_capture() {
        let mut db = seeded_db();
        let mut cp = db.checkpoint();
        let mut wal = WalWriter::new(3);
        commit(&mut db, &mut wal, &[(0, 2, Some(20)), (1, 3, Some(30))]);
        commit(&mut db, &mut wal, &[(0, 1, Some(11)), (0, 4, None)]);
        commit(
            &mut db,
            &mut wal,
            &[(0, 4, Some(44)), (1, 0, None), (1, 99, Some(9))],
        );
        commit(
            &mut db,
            &mut wal,
            &[(0, 1, Some(12)), (1, 99, None), (0, 100, Some(1))],
        );
        commit(&mut db, &mut wal, &[(0, 6, None), (1, 7, Some(70))]);
        wal.flush();
        assert_eq!(cp.fold_log(wal.bytes()), Ok(5));
        assert_eq!(cp, db.checkpoint());
        assert_eq!(cp.to_bytes(), db.checkpoint().to_bytes());
        // Folding the same log again skips every commit it covers.
        assert_eq!(cp.fold_log(wal.bytes()), Ok(0));
        assert_eq!(cp, db.checkpoint());
    }

    #[test]
    fn empty_log_folds_to_the_same_image() {
        let db = seeded_db();
        let mut cp = db.checkpoint();
        assert_eq!(cp.fold_log(&[]), Ok(0));
        assert_eq!(cp, db.checkpoint());
    }

    #[test]
    fn fold_stops_at_a_non_increasing_sequence_like_recovery() {
        let mut db = seeded_db();
        let mut cp = db.checkpoint();
        let base = cp.clone();
        let mut wal = WalWriter::new(1);
        commit(&mut db, &mut wal, &[(0, 0, Some(5))]);
        let at_first = db.checkpoint();
        let replay = WriteSet {
            base_version: 0,
            items: vec![WriteItem {
                table: TableId(0),
                row: RowId(2),
                op: WriteOp::Update,
                data: Some(vec![Value::Int(-1)]),
            }],
        };
        wal.append_commit(at_first.seq, &replay);
        wal.append_commit(at_first.seq + 1, &replay);
        assert_eq!(cp.fold_log(wal.bytes()), Ok(1));
        assert_eq!(cp, at_first);
        let (recovered, report) = Database::recover(&base, wal.bytes(), base.seq);
        assert_eq!(report.replayed, 1);
        assert_eq!(recovered.checkpoint(), cp);
    }

    #[test]
    fn schema_changes_and_unknown_tables_refuse_and_keep_the_image() {
        let db = seeded_db();
        let mut cp = db.checkpoint();
        let mut wal = WalWriter::new(1);
        wal.append(&WalRecord::CreateTable {
            name: "c".into(),
            columns: vec!["x".into()],
        });
        assert_eq!(cp.fold_log(wal.bytes()), Err(FoldError::Schema));
        assert_eq!(cp, db.checkpoint());
        let mut wal = WalWriter::new(1);
        let stray = WriteSet {
            base_version: cp.seq,
            items: vec![WriteItem {
                table: TableId(7),
                row: RowId(0),
                op: WriteOp::Insert,
                data: Some(vec![Value::Int(1)]),
            }],
        };
        wal.append_commit(cp.seq + 1, &stray);
        assert_eq!(cp.fold_log(wal.bytes()), Err(FoldError::UnknownTable));
        assert_eq!(cp, db.checkpoint());
    }

    fn sample() -> Checkpoint {
        Checkpoint {
            seq: 42,
            tables: vec![
                TableCheckpoint {
                    name: "items".into(),
                    columns: vec!["name".into(), "stock".into()],
                    rows: vec![
                        (1, vec![Value::text("a"), Value::Int(10)]),
                        (2, vec![Value::text("b"), Value::Int(20)]),
                    ],
                },
                TableCheckpoint {
                    name: "empty".into(),
                    columns: vec!["x".into()],
                    rows: vec![],
                },
            ],
        }
    }

    #[test]
    fn round_trip() {
        let cp = sample();
        let bytes = cp.to_bytes();
        assert_eq!(Checkpoint::from_bytes(&bytes).unwrap(), cp);
        assert_eq!(cp.row_count(), 2);
    }

    #[test]
    fn deterministic_bytes() {
        assert_eq!(sample().to_bytes(), sample().to_bytes());
    }

    #[test]
    fn corrupt_image_is_rejected_not_panicked() {
        let bytes = sample().to_bytes();
        assert_eq!(
            Checkpoint::from_bytes(&bytes[..4]),
            Err(CheckpointError::TooShort)
        );
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert_eq!(
            Checkpoint::from_bytes(&wrong_magic),
            Err(CheckpointError::BadMagic)
        );
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        assert_eq!(
            Checkpoint::from_bytes(&flipped),
            Err(CheckpointError::BadCrc)
        );
        let truncated = &bytes[..bytes.len() - 3];
        assert_eq!(
            Checkpoint::from_bytes(truncated),
            Err(CheckpointError::TooShort)
        );
    }
}
