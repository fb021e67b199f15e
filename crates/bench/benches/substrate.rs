//! Criterion micro-benchmarks for the substrates: the SI storage engine
//! and the certifier (the DES kernel's event loop is `engine_schedule_fire`
//! in `hotpath.rs`).
use criterion::{criterion_group, criterion_main, Criterion};
use replipred_repl::certifier::Certifier;
use replipred_sidb::{Database, RowId, Value};
use std::hint::black_box;

fn bench_sidb_commit(c: &mut Criterion) {
    c.bench_function("sidb_update_txn_commit", |b| {
        let mut db = Database::new();
        let table = db.create_table("t", &["payload", "counter"]).unwrap();
        let seed = db.begin();
        for i in 0..10_000u64 {
            db.insert(seed, table, RowId(i), vec![Value::text("x"), Value::Int(0)])
                .unwrap();
        }
        db.commit(seed).unwrap();
        let mut row = 0u64;
        b.iter(|| {
            let t = db.begin();
            row = (row + 7) % 10_000;
            let data = vec![Value::text("y"), Value::Int(row as i64)];
            db.update(t, table, RowId(black_box(row)), data).unwrap();
            db.commit(t).unwrap()
        });
    });
}

fn bench_certifier(c: &mut Criterion) {
    c.bench_function("certifier_certify_disjoint", |b| {
        let mut cert = Certifier::new();
        let mut db = Database::new();
        let table = db.create_table("t", &["v"]).unwrap();
        let seed = db.begin();
        for i in 0..100_000u64 {
            db.insert(seed, table, RowId(i), vec![Value::Int(0)])
                .unwrap();
        }
        db.commit(seed).unwrap();
        let mut row = 0u64;
        b.iter(|| {
            let t = db.begin();
            row += 1;
            db.update(t, table, RowId(row % 100_000), vec![Value::Int(1)])
                .unwrap();
            let ws = db.writeset_of(t).unwrap();
            db.abort(t).unwrap();
            black_box(cert.certify(&ws))
        });
    });
}

criterion_group!(benches, bench_sidb_commit, bench_certifier);
criterion_main!(benches);
