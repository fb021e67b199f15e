//! Criterion benchmarks for the sidb durability path: group-commit WAL
//! encoding, torn-tail-safe scanning, full recovery (checkpoint restore
//! and redo replay) and the checkpoint tick (full capture against
//! folding the redo log into the last image). These are the costs
//! behind the simulators' fsync surcharge, their vacuum-cadence
//! checkpoints and the `recover` CLI's cold-start time, so they are
//! worth tracking alongside the storage hot path.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use replipred_bench::named_workload;
use replipred_repl::SimConfig;
use replipred_sidb::{scan, Checkpoint, Database, RowId, TableId, Value, WalRecord, WalWriter};
use replipred_workload::{client::ClientId, ClientPool};
use std::hint::black_box;

const ROWS: u64 = 4_096;
const COMMITS: u64 = 1_024;

fn seeded() -> (Database, TableId) {
    let mut db = Database::new();
    let items = db
        .create_table("items", &["payload", "counter", "version"])
        .unwrap();
    let t = db.begin();
    for row in 0..ROWS {
        db.insert(
            t,
            items,
            RowId(row),
            vec![
                Value::Text(format!("row-{row:08}-{}", "x".repeat(48))),
                Value::Int(0),
                Value::Int(row as i64),
            ],
        )
        .unwrap();
    }
    db.commit(t).unwrap();
    (db, items)
}

/// Runs `COMMITS` three-row update transactions against a seeded
/// database, returning the commit records in order.
fn committed_records(db: &mut Database, items: TableId) -> Vec<WalRecord> {
    let mut records = Vec::with_capacity(COMMITS as usize);
    for k in 0..COMMITS {
        let t = db.begin();
        for i in 0..3u64 {
            let row = RowId((k * 3 + i * 97) % ROWS);
            let mut next = db.read(t, items, row).unwrap().unwrap().clone();
            if let Value::Int(n) = next[1] {
                next[1] = Value::Int(n + 1);
            }
            db.update(t, items, row, next).unwrap();
        }
        let info = db.commit(t).unwrap();
        records.push(WalRecord::Commit {
            seq: info.commit_seq,
            writeset: info.writeset,
        });
    }
    records
}

/// Group-commit encoding: append `COMMITS` records in batches of 8 and
/// seal the tail, measuring the full frame+crc32 cost per log build.
fn bench_wal_append(c: &mut Criterion) {
    let (mut db, items) = seeded();
    let records = committed_records(&mut db, items);
    c.bench_function("wal_append_group_commit", |b| {
        b.iter(|| {
            let mut wal = WalWriter::new(8);
            for rec in &records {
                wal.append(rec);
            }
            black_box(wal.into_bytes().len())
        });
    });
}

/// Scanning a well-formed log: frame walk, crc verification, and record
/// decode for every commit — the redo half of every recovery.
fn bench_wal_scan(c: &mut Criterion) {
    let (mut db, items) = seeded();
    let records = committed_records(&mut db, items);
    let mut wal = WalWriter::new(8);
    for rec in &records {
        wal.append(rec);
    }
    let bytes = wal.into_bytes();
    c.bench_function("wal_scan", |b| {
        b.iter(|| {
            let s = scan(black_box(&bytes));
            black_box((s.records.len(), s.valid_len, s.truncated))
        });
    });
}

/// Cold-start recovery: restore the checkpoint image and replay the
/// whole redo log, reconstructing the database a crashed node lost.
fn bench_recovery(c: &mut Criterion) {
    let (mut db, items) = seeded();
    let cp = db.checkpoint();
    let records = committed_records(&mut db, items);
    let mut wal = WalWriter::new(8);
    for rec in &records {
        wal.append(rec);
    }
    let bytes = wal.into_bytes();
    c.bench_function("wal_recovery", |b| {
        b.iter(|| {
            let (recovered, report) = Database::recover(&cp, &bytes, cp.seq);
            black_box((recovered.version(), report.replayed))
        });
    });
}

/// Update commits between two checkpoint ticks: about what one
/// `synth:write-heavy` replica logs per 10 s vacuum interval.
const TICK_COMMITS: usize = 400;

/// A seeded `synth:write-heavy` replica at the simulators' default seed
/// scale, its checkpoint image, and the redo log (group commit 4) of
/// `TICK_COMMITS` update commits run on it since that image.
fn write_heavy_tick() -> (Database, Checkpoint, Vec<u8>) {
    let spec = named_workload("synth:write-heavy");
    let mut db = Database::new();
    spec.create_schema(&mut db).unwrap();
    let plan = spec.compile(&db).unwrap();
    plan.seed(&mut db, SimConfig::paper(1, 0).seed_scale)
        .unwrap();
    let image = db.checkpoint();
    let mut pool = ClientPool::new(plan, spec.clients_per_replica, 2009);
    let mut wal = WalWriter::new(4);
    let mut logged = 0;
    for client in (0..pool.len()).cycle() {
        if logged == TICK_COMMITS {
            break;
        }
        let template = pool.next_transaction(ClientId(client));
        if !template.is_update {
            continue;
        }
        let txn = db.begin();
        pool.plan().execute(&mut db, txn, &template).unwrap();
        let info = db.commit(txn).unwrap();
        wal.append_commit(info.commit_seq, &info.writeset);
        logged += 1;
    }
    (db, image, wal.into_bytes())
}

/// One checkpoint tick, both ways: re-capture the whole database, or
/// fold the tick's redo log into the previous image (the image clone
/// that gives each fold a fresh input is not timed).
fn bench_durable_checkpoint(c: &mut Criterion) {
    let (db, image, wal) = write_heavy_tick();
    let mut folded = image.clone();
    folded.fold_log(&wal).unwrap();
    assert_eq!(folded, db.checkpoint(), "the fold must reach the capture");
    c.bench_function("durable_checkpoint_capture", |b| {
        b.iter(|| black_box(db.checkpoint().row_count()));
    });
    c.bench_function("durable_checkpoint_fold", |b| {
        b.iter_batched(
            || image.clone(),
            |mut cp| {
                cp.fold_log(black_box(&wal)).unwrap();
                cp
            },
            BatchSize::LargeInput,
        );
    });
}

criterion_group!(
    benches,
    bench_wal_append,
    bench_wal_scan,
    bench_recovery,
    bench_durable_checkpoint
);
criterion_main!(benches);
