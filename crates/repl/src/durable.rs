//! Per-replica durability harness: checkpoint + redo log + recovery.
//!
//! Each simulated node, when durability is enabled, mirrors every commit
//! it applies into a [`WalWriter`] and advances its [`Checkpoint`] at
//! vacuum cadence. The checkpoint advances by *folding* the redo log
//! into the image it already holds ([`Checkpoint::fold_log`]), which
//! costs O(rows written since the last tick) instead of the O(database)
//! of a fresh capture. A capture remains the fallback when the fold
//! refuses or does not reach the database's version; debug builds check
//! every folded image against a capture. A crash freezes this state and
//! loses the unsealed group commit; a rejoin *actually rebuilds* the
//! node's database from it — checkpoint load + log replay — instead of
//! trusting the in-memory image to have survived, and then replays only
//! the writesets past the durable point from the cluster relay log.
//! Catch-up lag thereby becomes replay cost.
//!
//! Two sequence spaces meet here: WAL records carry the node's *local*
//! database version (what [`Database::recover`] replays by), while the
//! cluster addresses writesets by *relay* sequence. The harness tracks
//! the relay sequence each sealed frame covers so rejoin knows where the
//! relay-log replay must resume.

use replipred_sidb::{Checkpoint, Database, WalWriter, WriteSet};

/// Durable state of one node: the last checkpoint plus the redo log of
/// commits applied since.
#[derive(Debug, Clone)]
pub struct NodeDurability {
    checkpoint: Checkpoint,
    wal: WalWriter,
    group: usize,
    /// Relay sequence the checkpoint covers.
    cp_relay_seq: u64,
    /// Relay sequence covered by sealed (durable) frames.
    durable_relay_seq: u64,
}

impl NodeDurability {
    /// Captures the node's current state as the initial checkpoint.
    /// `relay_seq` is the cluster writeset sequence that state reflects
    /// (0 for a freshly seeded node).
    pub fn new(db: &Database, relay_seq: u64, group_commit: usize) -> Self {
        NodeDurability {
            checkpoint: db.checkpoint(),
            wal: WalWriter::new(group_commit),
            group: group_commit,
            cp_relay_seq: relay_seq,
            durable_relay_seq: relay_seq,
        }
    }

    /// Logs one applied commit: `relay_seq` in cluster space,
    /// `local_version` the database version the commit produced, and the
    /// writeset itself. Sealing a frame (every `group_commit` appends)
    /// advances the durable horizon — the simulated fsync.
    pub fn log(&mut self, relay_seq: u64, local_version: u64, ws: &WriteSet) {
        self.wal.append_commit(local_version, ws);
        if self.wal.pending_records() == 0 {
            self.durable_relay_seq = relay_seq;
        }
    }

    /// Advances the checkpoint to everything applied so far (vacuum
    /// cadence) and resets the log. The pending group is sealed first and
    /// the whole log folded into the image; a fresh capture of `db`
    /// replaces the fold when the fold refuses or stops short of
    /// `db.version()`.
    pub fn checkpoint(&mut self, db: &Database, relay_seq: u64) {
        self.wal.flush();
        let folded = self.checkpoint.fold_log(self.wal.bytes());
        if folded.is_err() || self.checkpoint.seq != db.version() {
            self.checkpoint = db.checkpoint();
        }
        debug_assert_eq!(
            self.checkpoint,
            db.checkpoint(),
            "a folded checkpoint must equal a full capture"
        );
        self.restart_log(relay_seq);
    }

    /// Makes `cp` — the image the node's database was just restored from
    /// by a state transfer — the new durable base, with an empty log at
    /// `relay_seq`. The old log described the replaced database, so it
    /// must not be folded into anything.
    pub fn rebase(&mut self, cp: Checkpoint, relay_seq: u64) {
        self.checkpoint = cp;
        self.restart_log(relay_seq);
    }

    /// A crash loses the unsealed group commit: only sealed frames
    /// survive, so a rejoin re-applies (and re-logs) from the durable
    /// horizon on.
    pub fn crash(&mut self) {
        self.wal.discard_pending();
    }

    fn restart_log(&mut self, relay_seq: u64) {
        self.wal = WalWriter::new(self.group);
        self.cp_relay_seq = relay_seq;
        self.durable_relay_seq = relay_seq;
    }

    /// The relay sequence recoverable from durable state alone. The
    /// relay log must retain sequences above this for the node to rejoin
    /// without a state transfer.
    pub fn durable_seq(&self) -> u64 {
        self.durable_relay_seq
    }

    /// Rebuilds the database from the checkpoint plus the sealed log
    /// frames. Returns the database, the relay sequence it reflects, and
    /// the number of log records replayed (the replay cost driver).
    pub fn recover(&self) -> (Database, u64, u64) {
        let (db, report) =
            Database::recover(&self.checkpoint, self.wal.bytes(), self.checkpoint.seq);
        debug_assert_eq!(
            report.replayed,
            self.durable_relay_seq - self.cp_relay_seq,
            "sealed frames must cover exactly the durable relay window"
        );
        (db, self.durable_relay_seq, report.replayed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use replipred_sidb::{RowId, TableId, Value};

    fn seeded() -> Database {
        let mut db = Database::new();
        let t = db.create_table("t", &["v"]).unwrap();
        let seed = db.begin();
        for i in 0..4u64 {
            db.insert(seed, t, RowId(i), vec![Value::Int(0)]).unwrap();
        }
        db.commit(seed).unwrap();
        db
    }

    fn commit_update(db: &mut Database, row: u64, v: i64) -> (u64, WriteSet) {
        let t = db.table_id("t").unwrap();
        let txn = db.begin();
        db.update(txn, t, RowId(row), vec![Value::Int(v)]).unwrap();
        let info = db.commit(txn).unwrap();
        (info.commit_seq, info.writeset)
    }

    #[test]
    fn recovery_loses_only_the_unsealed_group() {
        let mut db = seeded();
        let mut d = NodeDurability::new(&db, 0, 3);
        let mut states = vec![db.durable_state()];
        for i in 0..7u64 {
            let (version, ws) = commit_update(&mut db, i % 4, i as i64 + 1);
            d.log(i + 1, version, &ws);
            states.push(db.durable_state());
        }
        // 7 commits, group 3: two sealed frames → durable through 6.
        assert_eq!(d.durable_seq(), 6);
        let (recovered, relay, replayed) = d.recover();
        assert_eq!(relay, 6);
        assert_eq!(replayed, 6);
        assert_eq!(recovered.durable_state(), states[6]);
    }

    #[test]
    fn checkpoint_resets_the_log_and_advances_the_floor() {
        let mut db = seeded();
        let mut d = NodeDurability::new(&db, 0, 4);
        for i in 0..5u64 {
            let (version, ws) = commit_update(&mut db, i % 4, i as i64);
            d.log(i + 1, version, &ws);
        }
        d.checkpoint(&db, 5);
        assert_eq!(d.durable_seq(), 5);
        assert_eq!(d.checkpoint, db.checkpoint());
        let (recovered, relay, replayed) = d.recover();
        assert_eq!((relay, replayed), (5, 0));
        assert_eq!(recovered.durable_state(), db.durable_state());
    }

    #[test]
    fn a_second_crash_recovers_what_the_rejoin_logged() {
        let mut db = seeded();
        let mut d = NodeDurability::new(&db, 0, 3);
        let mut states = vec![db.durable_state()];
        for relay in 1..=5u64 {
            let (version, ws) = commit_update(&mut db, relay % 4, relay as i64);
            d.log(relay, version, &ws);
            states.push(db.durable_state());
        }
        // Group 3: relay 1–3 are sealed, 4–5 die with the crash.
        d.crash();
        let (mut db, relay, replayed) = d.recover();
        assert_eq!((relay, replayed), (3, 3));
        assert_eq!(db.durable_state(), states[3]);
        states.truncate(4);
        // The rejoined node applies relay 4 onward again, then crashes
        // once more before its next checkpoint.
        for relay in 4..=9u64 {
            let (version, ws) = commit_update(&mut db, relay % 4, 100 + relay as i64);
            d.log(relay, version, &ws);
            states.push(db.durable_state());
        }
        d.crash();
        let (recovered, relay, replayed) = d.recover();
        assert_eq!((relay, replayed), (9, 9));
        assert_eq!(recovered.durable_state(), states[9]);
    }

    #[test]
    fn empty_log_checkpoint_keeps_the_image() {
        let db = seeded();
        let mut d = NodeDurability::new(&db, 7, 2);
        let before = d.checkpoint.clone();
        d.checkpoint(&db, 7);
        assert_eq!(d.checkpoint, before);
        assert_eq!(d.durable_seq(), 7);
    }

    #[test]
    fn schema_change_falls_back_to_a_capture() {
        let mut db = seeded();
        let mut d = NodeDurability::new(&db, 0, 1);
        let (version, ws) = commit_update(&mut db, 1, 5);
        d.log(1, version, &ws);
        // A table the image does not hold: the fold refuses it.
        let extra = db.create_table("extra", &["x"]).unwrap();
        let txn = db.begin();
        db.insert(txn, extra, RowId(0), vec![Value::Int(1)])
            .unwrap();
        let info = db.commit(txn).unwrap();
        d.log(2, info.commit_seq, &info.writeset);
        d.checkpoint(&db, 2);
        assert_eq!(d.checkpoint, db.checkpoint());
        assert_eq!(d.checkpoint.tables.len(), 2);
        let (recovered, relay, _) = d.recover();
        assert_eq!(relay, 2);
        assert_eq!(recovered.durable_state(), db.durable_state());
    }

    #[test]
    fn state_transfer_rebases_on_the_transferred_image() {
        let mut source = seeded();
        for v in 1..=6 {
            commit_update(&mut source, v as u64 % 4, v);
        }
        let mut db = seeded();
        let mut d = NodeDurability::new(&db, 0, 2);
        for relay in 1..=3u64 {
            let (version, ws) = commit_update(&mut db, relay % 4, -(relay as i64));
            d.log(relay, version, &ws);
        }
        let cp = source.checkpoint();
        let mut db = Database::restore(&cp);
        d.rebase(cp, 6);
        assert_eq!(d.durable_seq(), 6);
        for relay in 7..=9u64 {
            let (version, ws) = commit_update(&mut db, relay % 4, relay as i64);
            d.log(relay, version, &ws);
        }
        d.checkpoint(&db, 9);
        assert_eq!(d.checkpoint, db.checkpoint());
        let (recovered, relay, replayed) = d.recover();
        assert_eq!((relay, replayed), (9, 0));
        assert_eq!(recovered.durable_state(), db.durable_state());
    }

    /// Commits one transaction setting (`Some`) or deleting (`None`) each
    /// `(table, key)` — an update or insert, a delete or nothing,
    /// depending on whether the row exists — and logs it at the next
    /// relay sequence. A transaction that wrote nothing commits read-only
    /// and takes no relay sequence, as in the simulators.
    fn commit_ops(
        db: &mut Database,
        d: &mut NodeDurability,
        states: &mut Vec<String>,
        ops: &[(u32, u64, Option<i64>)],
    ) {
        let txn = db.begin();
        for &(table, key, v) in ops {
            let (table, row) = (TableId(table), RowId(key));
            let exists = db.read(txn, table, row).unwrap().is_some();
            let data = v.map(|v| vec![Value::text(format!("p{v}")), Value::Int(v)]);
            match (exists, data) {
                (true, Some(data)) => db.update(txn, table, row, data).unwrap(),
                (false, Some(data)) => db.insert(txn, table, row, data).unwrap(),
                (true, None) => db.delete(txn, table, row).unwrap(),
                (false, None) => {}
            }
        }
        let info = db.commit(txn).unwrap();
        if !info.writeset.items.is_empty() {
            d.log(states.len() as u64, info.commit_seq, &info.writeset);
            states.push(db.durable_state());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random updates, inserts and deletes over three tables, with
        /// checkpoint ticks and crash/rejoin points: every folded image
        /// is byte-identical to a capture of the live database, and
        /// recovery always lands on the live state at `durable_seq`.
        #[test]
        fn folded_checkpoints_match_captures_and_recovery(
            group in 1usize..9,
            script in collection::vec((0u8..12, 0u32..3, 0u64..10, -40i64..40), 1..90),
        ) {
            let mut db = Database::new();
            for name in ["a", "b", "c"] {
                db.create_table(name, &["name", "v"]).unwrap();
            }
            let txn = db.begin();
            for (t, k) in (0..3).flat_map(|t| (0..6).map(move |k| (t, k))) {
                let row = vec![Value::text("seed"), Value::Int(0)];
                db.insert(txn, TableId(t), RowId(k), row).unwrap();
            }
            db.commit(txn).unwrap();
            let mut d = NodeDurability::new(&db, 0, group);
            // The live state after each relay sequence, for the recovery oracle.
            let mut states = vec![db.durable_state()];
            for (kind, table, key, v) in script {
                match kind {
                    0..=5 => commit_ops(&mut db, &mut d, &mut states, &[(table, key, Some(v))]),
                    6 | 7 => commit_ops(&mut db, &mut d, &mut states, &[(table, key, None)]),
                    8 => {
                        let ops = [
                            (table, key, Some(v)),
                            ((table + 1) % 3, key / 2, Some(-v)),
                            (table, (key + 3) % 10, None),
                        ];
                        commit_ops(&mut db, &mut d, &mut states, &ops);
                    }
                    9 | 10 => {
                        d.checkpoint(&db, states.len() as u64 - 1);
                        prop_assert_eq!(d.checkpoint.to_bytes(), db.checkpoint().to_bytes());
                    }
                    _ => {
                        // Crash and rejoin from durable state alone.
                        d.crash();
                        let (recovered, relay, _) = d.recover();
                        prop_assert_eq!(&recovered.durable_state(), &states[relay as usize]);
                        states.truncate(relay as usize + 1);
                        db = recovered;
                    }
                }
                let (recovered, relay, _) = d.recover();
                prop_assert_eq!(relay, d.durable_seq());
                prop_assert_eq!(&recovered.durable_state(), &states[relay as usize]);
            }
        }
    }
}
