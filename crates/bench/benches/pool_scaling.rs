//! E9: pool scaling (DESIGN.md §10). Read throughput of the replicated
//! serving layer at 1/2/4/8 workers against the single-engine baseline,
//! plus two 90/10 read/write mixes that bracket the statement cache's
//! behavior under per-name dependency invalidation (DESIGN.md §12): the
//! default mix rebinds a `val` the query never mentions (replicas replay
//! the write but keep their cached compilation), and the `related_write`
//! variant rebinds a name the query depends on (every replica drops and
//! recompiles — the worst realistic case for the log/replay protocol,
//! and what *every* write cost before per-name invalidation).
//!
//! Expected shape: a read-only batch scales near-linearly with workers
//! until the single-threaded router saturates (classification + channel
//! hops are the per-request overhead vs a bare `eval_to_string`); the
//! related-write mix scales sub-linearly because each write is applied on
//! every replica and re-compiles the next read on each of them, while the
//! unrelated mix should track the read-only shape much more closely.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use polyview_pool::{CollectingSink, NullSink, Pool, PoolConfig, Submit};
use std::hint::black_box;
use std::sync::Arc;

const BATCH: u64 = 256;
const QUERY: &str = "cquery(fn s => map(fn o => query(fn x => x.Name, o), s), Staff)";

fn seeded_pool(workers: usize) -> Pool {
    seeded_pool_with(PoolConfig::default().workers(workers).queue_capacity(64))
}

fn seeded_pool_with(cfg: PoolConfig) -> Pool {
    let mut pool = Pool::new(cfg);
    pool.run(0, "class Staff = class {} end;").expect("class");
    for i in 0..64 {
        pool.run(
            0,
            &format!(
                "insert(Staff, IDView([Name = \"emp{i}\", Age = {}]))",
                20 + i % 50
            ),
        )
        .expect("insert");
    }
    pool.barrier().expect("seeded");
    pool
}

/// Submit one read per session round-robin (spreading affinity over every
/// worker), retrying on backpressure, then wait for all replies — the
/// pool's natural pipelined usage: queues fill, replicas drain in
/// parallel, the router never blocks on evaluation.
fn read_batch(pool: &mut Pool, sessions: u64) {
    let mut tickets = Vec::with_capacity(BATCH as usize);
    for i in 0..BATCH {
        loop {
            match pool.submit_read(i % sessions, QUERY).expect("classified") {
                Submit::Queued(t) => break tickets.push(t),
                Submit::Full => std::thread::yield_now(),
            }
        }
    }
    for t in tickets {
        black_box(t.wait().expect("read"));
    }
}

fn bench_read_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("E9_pool_read_scaling");
    group.throughput(Throughput::Elements(BATCH));

    // Baseline: one engine, same statements, no channels — what a worker
    // does once the request reaches it (warm statement cache).
    let mut single = polyview::Engine::new();
    single.exec("class Staff = class {} end;").expect("class");
    for i in 0..64 {
        single
            .exec(&format!(
                "insert(Staff, IDView([Name = \"emp{i}\", Age = {}]))",
                20 + i % 50
            ))
            .expect("insert");
    }
    single.eval_to_string(QUERY).expect("warm-up");
    group.bench_function("single_engine", |bch| {
        bch.iter(|| {
            for _ in 0..BATCH {
                black_box(single.eval_to_string(QUERY).expect("read"));
            }
        })
    });

    for workers in [1usize, 2, 4, 8] {
        let mut pool = seeded_pool(workers);
        // Warm every replica's statement cache before measuring.
        read_batch(&mut pool, workers as u64 * 4);
        group.bench_with_input(BenchmarkId::new("pool", workers), &workers, |bch, &w| {
            bch.iter(|| read_batch(&mut pool, w as u64 * 4))
        });
        pool.shutdown();
    }
    group.finish();
}

/// One 90/10 batch with a caller-chosen read statement and write source:
/// the knob that separates the unrelated-rebind mix (cached compilations
/// survive every write) from the related-rebind one (every write
/// invalidates every replica's cached read).
fn mixed_batch_of(pool: &mut Pool, sessions: u64, read: &str, write: &dyn Fn(u64) -> String) {
    let mut tickets = Vec::with_capacity(BATCH as usize);
    for i in 0..BATCH {
        let (session, src) = if i % 10 == 9 {
            (i % sessions, write(i))
        } else {
            (i % sessions, read.to_string())
        };
        loop {
            match pool.submit(session, &src).expect("classified") {
                Submit::Queued(t) => break tickets.push(t),
                Submit::Full => std::thread::yield_now(),
            }
        }
    }
    for t in tickets {
        black_box(t.wait().expect("statement"));
    }
}

fn bench_mixed_workload(c: &mut Criterion) {
    // 90% reads / 10% writes, two flavors per worker count:
    //   - `pool` (unrelated): the write rebinds `val tick`, a name the
    //     read never mentions — replicas replay it, but per-name
    //     invalidation keeps every replica's cached compilation warm.
    //   - `related_write`: the write rebinds `sel`, which the read
    //     depends on — every replica drops its cached read and
    //     recompiles, so writes cost O(workers) compilations. This is
    //     what *every* write in the mix cost under global-epoch
    //     invalidation.
    let mut group = c.benchmark_group("E9_pool_mixed_90_10");
    group.throughput(Throughput::Elements(BATCH));
    const SEL_DECL: &str = "val sel = fn o => query(fn x => x.Name, o);";
    const SEL_QUERY: &str = "cquery(fn s => map(sel, s), Staff)";
    for workers in [1usize, 2, 4, 8] {
        let sessions = workers as u64 * 4;

        let mut pool = seeded_pool(workers);
        group.bench_with_input(BenchmarkId::new("pool", workers), &workers, |bch, _| {
            bch.iter(|| mixed_batch_of(&mut pool, sessions, QUERY, &|i| format!("val tick = {i};")))
        });
        pool.shutdown();

        let mut pool = seeded_pool(workers);
        pool.run(0, SEL_DECL).expect("sel");
        pool.barrier().expect("seeded");
        group.bench_with_input(
            BenchmarkId::new("related_write", workers),
            &workers,
            |bch, _| {
                bch.iter(|| {
                    mixed_batch_of(&mut pool, sessions, SEL_QUERY, &|_| SEL_DECL.to_string())
                })
            },
        );
        pool.shutdown();
    }
    group.finish();
}

/// One 90/10 unrelated-rebind batch (same shape as
/// `E9_pool_mixed_90_10/pool`), reusable across the telemetry-overhead
/// variants.
fn mixed_batch(pool: &mut Pool, sessions: u64) {
    mixed_batch_of(pool, sessions, QUERY, &|i| format!("val tick = {i};"))
}

fn bench_trace_overhead(c: &mut Criterion) {
    // What does request telemetry (DESIGN.md §11) cost on the hot path?
    // Three variants of the 4-worker 90/10 mix:
    //   - `off`: telemetry disabled — the production default; the flag
    //     check is the only per-request cost, so this must match
    //     E9_pool_mixed_90_10/pool/4.
    //   - `null_sink`: full instrumentation (clock reads, histogram
    //     observations, event construction) with events discarded — the
    //     intrinsic tracing overhead.
    //   - `collecting_sink`: events retained in memory — adds one mutex
    //     push per event, the worst in-process sink. The sink is drained
    //     between iterations so the Vec never grows unboundedly.
    let mut group = c.benchmark_group("E9_trace_overhead");
    group.throughput(Throughput::Elements(BATCH));
    const WORKERS: usize = 4;
    let sessions = WORKERS as u64 * 4;
    let base = || PoolConfig::default().workers(WORKERS).queue_capacity(64);

    let mut pool = seeded_pool_with(base());
    group.bench_function("off", |bch| bch.iter(|| mixed_batch(&mut pool, sessions)));
    pool.shutdown();

    let mut pool = seeded_pool_with(base().event_sink(Arc::new(NullSink)));
    group.bench_function("null_sink", |bch| {
        bch.iter(|| mixed_batch(&mut pool, sessions))
    });
    pool.shutdown();

    let sink = Arc::new(CollectingSink::new());
    let mut pool = seeded_pool_with(base().event_sink(sink.clone()));
    group.bench_function("collecting_sink", |bch| {
        bch.iter(|| {
            mixed_batch(&mut pool, sessions);
            black_box(sink.take().len());
        })
    });
    pool.shutdown();
    group.finish();
}

criterion_group! {
    name = benches;
    config = polyview_bench::quick();
    targets = bench_read_scaling, bench_mixed_workload, bench_trace_overhead
}
criterion_main!(benches);
