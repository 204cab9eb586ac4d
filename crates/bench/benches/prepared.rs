//! E8: the compile-once/run-many split. Cold evaluation (parse + infer +
//! eval on every call) vs a prepared statement (`Engine::prepare` once,
//! `Engine::run` per call) vs the engine's LRU statement cache
//! (`eval_to_string` with a warm cache).
//!
//! Expected shape: cold cost is dominated by the compilation phases, so
//! prepared/cached execution should win by well over 2x on any statement
//! whose compiled form is non-trivial — the acceptance bar for the
//! prepared-statement pipeline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use polyview::{Database, Engine};
use std::hint::black_box;

/// A query with enough type structure that inference is a visible cost:
/// map a field projection over a class extent via the paper's `query`.
const SET_FN: &str = "fn s => map(fn o => query(fn x => x.Name, o), s)";

fn staff_engine(n: usize) -> Engine {
    let mut e = Engine::new();
    e.exec("class Staff = class {} end;").expect("class");
    for i in 0..n {
        e.exec(&format!(
            "insert(Staff, IDView([Name = \"emp{i}\", Age = {}]));",
            20 + (i % 50)
        ))
        .expect("insert");
    }
    e
}

fn bench_cold_vs_prepared(c: &mut Criterion) {
    let mut group = c.benchmark_group("E8_cold_vs_prepared");
    for n in [8usize, 64] {
        let src = format!("cquery({SET_FN}, Staff)");

        // Cold: parse + infer + eval every iteration (cache disabled).
        let mut cold = staff_engine(n);
        cold.set_stmt_cache_capacity(0);
        group.bench_with_input(BenchmarkId::new("cold", n), &src, |bch, s| {
            bch.iter(|| black_box(cold.eval_to_string(black_box(s)).expect("runs")))
        });

        // Prepared: compile once outside the loop, run many.
        let mut warm = staff_engine(n);
        let p = warm.prepare(&src).expect("compiles");
        group.bench_with_input(BenchmarkId::new("prepared", n), &p, |bch, p| {
            bch.iter(|| black_box(warm.run(black_box(p)).expect("runs")))
        });

        // Statement cache: same API as cold, but the compiled form is
        // served from the engine's LRU cache after the first call.
        let mut cached = staff_engine(n);
        cached.eval_to_string(&src).expect("warm-up");
        group.bench_with_input(BenchmarkId::new("stmt_cache", n), &src, |bch, s| {
            bch.iter(|| black_box(cached.eval_to_string(black_box(s)).expect("runs")))
        });
    }
    group.finish();
}

fn bench_database_facade(c: &mut Criterion) {
    // The Database facade builds its statements as ASTs and keys them in
    // the statement cache, so repeated calls with the same (class, set_fn)
    // pair never reparse or re-infer.
    let mut group = c.benchmark_group("E8_database_query");
    let mut db = Database::new();
    db.exec("class Staff = class {} end;").expect("class");
    for i in 0..32 {
        db.exec(&format!(
            "insert(Staff, IDView([Name = \"emp{i}\", Age = {}]));",
            20 + (i % 50)
        ))
        .expect("insert");
    }
    db.query("Staff", SET_FN).expect("warm-up");
    group.bench_function("warm", |bch| {
        bch.iter(|| black_box(db.query("Staff", SET_FN).expect("runs")))
    });
    group.bench_function("cold", |bch| {
        bch.iter(|| {
            db.engine().clear_stmt_cache();
            black_box(db.query("Staff", SET_FN).expect("runs"))
        })
    });
    group.finish();
}

fn bench_observability_overhead(c: &mut Criterion) {
    // The acceptance bar for the observability layer (DESIGN.md §9): with
    // spans enabled against a NullSink, the prepared-run hot path must stay
    // within 5% of the untraced baseline. Counters are always on — the
    // baseline already pays for them — so this isolates the span machinery
    // (clock reads + attr bookkeeping) alone.
    let mut group = c.benchmark_group("E8_obs_overhead");
    let src = format!("cquery({SET_FN}, Staff)");
    for n in [8usize, 64] {
        let mut base = staff_engine(n);
        let p = base.prepare(&src).expect("compiles");
        group.bench_with_input(BenchmarkId::new("untraced", n), &p, |bch, p| {
            bch.iter(|| black_box(base.run(black_box(p)).expect("runs")))
        });

        let mut traced = staff_engine(n);
        let p = traced.prepare(&src).expect("compiles");
        traced.set_trace_sink(std::sync::Arc::new(polyview::obs::NullSink));
        group.bench_with_input(BenchmarkId::new("null_sink", n), &p, |bch, p| {
            bch.iter(|| black_box(traced.run(black_box(p)).expect("runs")))
        });
    }
    group.finish();
}

fn bench_rebind_invalidation(c: &mut Criterion) {
    // The payoff of per-name dependency invalidation: interleave the
    // cached query with a `val` rebind each iteration. An *unrelated*
    // rebind leaves the cached compilation valid (the rebind itself plus a
    // cache hit), while rebinding a name the query *depends on* forces a
    // drop + full recompile. The gap between the two variants is exactly
    // the compilation work the old global-epoch scheme paid on every
    // declaration.
    let mut group = c.benchmark_group("E8_rebind_invalidation");
    let query = format!("cquery({SET_FN}, Staff)");

    let mut unrelated = staff_engine(32);
    unrelated.exec("val tick = 0;").expect("seed");
    unrelated.eval_to_string(&query).expect("warm-up");
    group.bench_function("unrelated_rebind", |bch| {
        bch.iter(|| {
            unrelated.exec("val tick = 1;").expect("rebind");
            black_box(unrelated.eval_to_string(black_box(&query)).expect("runs"))
        })
    });

    let mut related = staff_engine(32);
    related
        .exec("val sel = fn o => query(fn x => x.Name, o);")
        .expect("seed");
    let dep_query = "cquery(fn s => map(sel, s), Staff)";
    related.eval_to_string(dep_query).expect("warm-up");
    group.bench_function("related_rebind", |bch| {
        bch.iter(|| {
            related
                .exec("val sel = fn o => query(fn x => x.Name, o);")
                .expect("rebind");
            black_box(related.eval_to_string(black_box(dep_query)).expect("runs"))
        })
    });
    group.finish();
}

fn bench_compile_phase_alone(c: &mut Criterion) {
    // What `prepare` actually saves per call: the parse + inference cost
    // of the statement, isolated from evaluation.
    let mut e = staff_engine(8);
    let src = format!("cquery({SET_FN}, Staff)");
    c.bench_function("E8_prepare_only", |bch| {
        bch.iter(|| black_box(e.prepare(black_box(&src)).expect("compiles")))
    });
}

criterion_group! {
    name = benches;
    config = polyview_bench::quick();
    targets = bench_cold_vs_prepared, bench_database_facade,
        bench_observability_overhead, bench_rebind_invalidation,
        bench_compile_phase_alone
}
criterion_main!(benches);
