//! `perfbench` — the offline serving benchmark (see `perfbench/README.md`).
//!
//! ```text
//! perfbench --workload view_scan|decl_churn|point_ops --seed N --seconds S --trace 0|1
//! ```
//!
//! Hosts a `polyview_net::NetServer` on loopback port 0 over a 2-worker
//! pool, in this process, and drives it from closed-loop clients. With
//! `--trace 0` it prints the end-to-end metrics; with `--trace 1` the
//! per-layer split. The last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`.
//! A wrong answer prints `correct: false` and exits 1; a run that cannot
//! set up prints no result and exits 2.

#[allow(dead_code)]
#[path = "../../crates/bench/src/lib.rs"]
mod builders;
mod gen;
mod layers;
mod serve;
mod stats;

use gen::{Size, Workload};
use stats::{ms, p50, us};
use std::time::{Duration, Instant};

/// Why a run did not produce numbers.
#[derive(Debug)]
pub enum Fail {
    /// The system answered wrongly: the run is reported as incorrect.
    Wrong(String),
    /// The benchmark could not run (bind, setup, lost connection).
    Broken(String),
}

/// Servers set up and measured per end-to-end run.
const SEGMENTS: usize = 3;

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Printed beside the value, not part of the JSON.
    pub note: String,
}

pub struct Report {
    pub workload: Workload,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        unit,
        note: String::new(),
    }
}

impl Metric {
    fn note(mut self, note: String) -> Metric {
        self.note = note;
        self
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The end-to-end run: `SEGMENTS` times, set up a fresh server and
/// measure it for `dur / SEGMENTS` with tracing off, then check every
/// replica. Each metric is the median over the segments, so a noisy
/// stretch of a few seconds does not decide the run.
pub fn run_end_to_end(w: Workload, size: Size, seed: u64, dur: Duration) -> Result<Report, Fail> {
    let clients = serve::client_count();
    let mut setup_ns = Vec::with_capacity(SEGMENTS);
    let mut segments = Vec::with_capacity(SEGMENTS);
    for _ in 0..SEGMENTS {
        let t = Instant::now();
        let mut served = serve::setup(w, size, seed, clients, false)?;
        setup_ns.push(t.elapsed().as_nanos() as u64);
        segments.push(serve::closed_loop(
            &mut served,
            dur / SEGMENTS as u32,
            false,
        )?);
        serve::check_replicas(&served)?;
        served.shutdown();
    }

    let sorted = |v: &[u64]| {
        let mut v = v.to_vec();
        v.sort_unstable();
        v
    };
    let reads: Vec<Vec<u64>> = segments.iter().map(|s| sorted(&s.reads)).collect();
    let writes: Vec<Vec<u64>> = segments.iter().map(|s| sorted(&s.writes)).collect();
    let (read_pct, read_tail) = segment_tail(&reads);
    let (write_pct, write_tail) = segment_tail(&writes);
    let p50_of = |v: &[Vec<u64>]| median(v.iter().map(|l| ms(stats::percentile(l, 0.5))));
    let attempted: u64 = segments.iter().map(|s| s.attempted).sum();
    let failed: u64 = segments.iter().map(|s| s.failed).sum();
    let busy: u64 = segments.iter().map(|s| s.busy).sum();
    let counts = |v: &[Vec<u64>]| v.iter().map(Vec::len).collect::<Vec<_>>();
    let metrics = vec![
        metric("read_p50_ms", p50_of(&reads), "ms"),
        metric("read_tail_ms", read_tail, "ms")
            .note(format!("p{read_pct}, segments of n={:?}", counts(&reads))),
        metric("write_p50_ms", p50_of(&writes), "ms"),
        metric("write_tail_ms", write_tail, "ms")
            .note(format!("p{write_pct}, segments of n={:?}", counts(&writes))),
        metric(
            "throughput_ops_s",
            median(segments.iter().map(serve::LoopStats::throughput)),
            "ops/s",
        )
        .note(format!(
            "failed_frac={} ({failed} of {attempted} ops), busy refusals retried: {busy}",
            ratio(failed as f64, attempted as f64)
        )),
        metric("setup_s", p50(&setup_ns) as f64 / 1e9, "s")
            .note(format!("median of {SEGMENTS} setups")),
        metric("peak_rss_mb", stats::peak_rss_mb(), "MiB"),
    ];
    Ok(Report {
        workload: w,
        attempted,
        failed,
        metrics,
    })
}

fn median(values: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.collect();
    v.sort_by(f64::total_cmp);
    v.get(v.len().saturating_sub(1) / 2).copied().unwrap_or(0.0)
}

/// The tail over segments: one percentile for all of them, the highest
/// that leaves ten samples beyond it in the smallest segment, and the
/// median of the segments' values at it.
fn segment_tail(segments: &[Vec<u64>]) -> (f64, f64) {
    let smallest = segments.iter().map(Vec::len).min().unwrap_or(0);
    let pct = stats::tail_percentile(smallest);
    (
        pct,
        median(
            segments
                .iter()
                .map(|l| ms(stats::percentile(l, pct / 100.0))),
        ),
    )
}

/// The traced run: an untraced closed loop (the overhead reference), a
/// traced closed loop on a telemetry-on pool, then the single-engine
/// replay of the same streams. Each loop gets a third of `dur`.
pub fn run_traced(w: Workload, size: Size, seed: u64, dur: Duration) -> Result<Report, Fail> {
    let clients = serve::client_count();
    let phase = dur / 3;

    let mut served = serve::setup(w, size, seed, clients, false)?;
    let plain = serve::closed_loop(&mut served, phase, false)?;
    serve::check_replicas(&served)?;
    served.shutdown();

    let mut served = serve::setup(w, size, seed, clients, true)?;
    let server = &served.server;
    let (pool0, net0) = (server.with_pool(|p| p.stats()), server.stats());
    let traced = serve::closed_loop(&mut served, phase, true)?;
    let server = &served.server;
    let (pool1, net1) = (server.with_pool(|p| p.stats()), server.stats());
    let (log_len, checkpoints) =
        server.with_pool(|p| (p.log_len(), counter(&p.metrics_json(), "pool.checkpoints")));
    serve::check_replicas(&served)?;
    served.shutdown();

    let eng = layers::replay(w, size, seed, clients)?;

    let wire_ops = traced.wire_ns.len() as f64;
    let hits = (pool1.engine.stmt_cache_hits - pool0.engine.stmt_cache_hits) as f64;
    let misses = (pool1.engine.stmt_cache_misses - pool0.engine.stmt_cache_misses) as f64;
    let ops = eng.ops as f64;
    let field_ops = (eng.work.offsets + eng.work.fallbacks) as f64;
    let hist_p50 = |a: &polyview::obs::HistogramSnapshot, b: &polyview::obs::HistogramSnapshot| {
        us(a.delta(b).quantile(0.5))
    };
    let metrics = vec![
        metric(
            "net.self_us.p50",
            us(p50(&traced.wire_ns)) - us(p50(&traced.inproc_ns)),
            "us",
        ),
        metric(
            "net.read_to_decode_us.p50",
            hist_p50(&net1.read_to_decode, &net0.read_to_decode),
            "us",
        ),
        metric(
            "net.frames_per_op",
            ratio((net1.frames_decoded - net0.frames_decoded) as f64, wire_ops),
            "count",
        ),
        metric("pool.submit_us.p50", us(p50(&traced.submit_ns)), "us"),
        metric("pool.wait_us.p50", us(p50(&traced.wait_ns)), "us"),
        metric(
            "pool.self_us.p50",
            us(p50(&traced.inproc_ns)) - us(p50(&eng.serve_ns)),
            "us",
        ),
        metric(
            "pool.queue_wait_us.p50",
            hist_p50(&pool1.queue_wait, &pool0.queue_wait),
            "us",
        ),
        metric(
            "pool.catchup_us.p50",
            hist_p50(&pool1.catchup, &pool0.catchup),
            "us",
        ),
        metric(
            "pool.busy_refusals_per_op",
            ratio(traced.busy as f64, traced.attempted as f64),
            "count",
        ),
        metric("pool.checkpoints", checkpoints as f64, "count"),
        metric("pool.log_len", log_len as f64, "count"),
        metric("core.classify_us.p50", us(p50(&traced.classify_ns)), "us"),
        metric("core.prepare_us.p50", us(p50(&eng.prepare_ns)), "us"),
        metric("core.run_us.p50", us(p50(&eng.run_ns)), "us"),
        metric("core.exec_decl_us.p50", us(p50(&eng.exec_ns)), "us"),
        metric(
            "core.stmt_cache_hit_ratio",
            ratio(hits, hits + misses),
            "ratio",
        ),
        metric("core.snapshot_us.p50", us(p50(&eng.snapshot_ns)), "us"),
        metric("core.snapshot_bytes", eng.snapshot_bytes as f64, "bytes"),
        metric("parser.parse_us.p50", us(p50(&eng.parse_ns)), "us"),
        metric(
            "parser.nodes_per_stmt",
            ratio(eng.nodes as f64, ops),
            "count",
        ),
        metric("types.infer_us.p50", us(p50(&eng.infer_ns)), "us"),
        metric(
            "types.unify_steps_per_stmt",
            ratio(eng.work.unify_steps as f64, ops),
            "count",
        ),
        metric("trans.lower_us.p50", us(p50(&eng.lower_ns)), "us"),
        metric(
            "trans.dynamic_residue_per_stmt",
            ratio(eng.residue as f64, eng.explained as f64),
            "count",
        ),
        metric("eval.eval_us.p50", us(p50(&eng.eval_ns)), "us"),
        metric("eval.show_us.p50", us(p50(&eng.show_ns)), "us"),
        metric(
            "eval.fuel_per_op",
            ratio(eng.work.fuel as f64, ops),
            "count",
        ),
        metric(
            "eval.sets_allocated_per_op",
            ratio(eng.work.sets as f64, ops),
            "count",
        ),
        metric(
            "eval.records_allocated_per_op",
            ratio(eng.work.records as f64, ops),
            "count",
        ),
        metric(
            "eval.dyn_field_fallbacks_per_op",
            ratio(eng.work.fallbacks as f64, ops),
            "count",
        ),
        metric(
            "eval.offset_hit_ratio",
            ratio(eng.work.offsets as f64, field_ops),
            "ratio",
        ),
        metric(
            "obs.trace_overhead_frac",
            1.0 - ratio(traced.throughput(), plain.throughput()),
            "frac",
        ),
    ];
    Ok(Report {
        workload: w,
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed,
        metrics,
    })
}

/// A counter's value from JSON-lines metrics (0 when absent).
fn counter(lines: &str, name: &str) -> u64 {
    use polyview::obs::jsonl::{parse_object_line, JsonValue};
    lines
        .lines()
        .filter_map(|l| parse_object_line(l).ok())
        .find(|m| JsonValue::get(m, "name").and_then(JsonValue::as_str) == Some(name))
        .and_then(|m| JsonValue::get(&m, "value").and_then(JsonValue::as_u64))
        .unwrap_or(0)
}

/// The result line: `correct`, `attempted`, `failed`, `metrics`. Metric
/// names and units are plain identifiers, so they need no escaping.
fn result_json(correct: bool, report: Option<&Report>) -> String {
    let (attempted, failed) = report.map_or((1, 0), |r| (r.attempted.max(1), r.failed));
    let metrics: Vec<String> = report
        .map(|r| r.metrics.as_slice())
        .unwrap_or_default()
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        metrics.join(",")
    )
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let name = value("--workload")?;
    Ok(Args {
        workload: Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?,
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: value("--seconds")?
            .parse::<f64>()
            .ok()
            .filter(|s| *s > 0.0 && *s <= 120.0)
            .ok_or("--seconds: a number of seconds in (0, 120]")?,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace: 0 or 1, not {other}")),
        },
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload view_scan|decl_churn|point_ops --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let dur = Duration::from_secs_f64(args.seconds);
    let run = if args.trace {
        run_traced
    } else {
        run_end_to_end
    };
    match run(args.workload, Size::FULL, args.seed, dur) {
        Ok(report) => {
            for m in &report.metrics {
                println!(
                    "{:<11} {:<32} {:>14.4} {:<6} {}",
                    report.workload.name(),
                    m.name,
                    m.value,
                    m.unit,
                    m.note
                );
            }
            println!("{}", result_json(true, Some(&report)));
        }
        Err(Fail::Wrong(why)) => {
            eprintln!("perfbench: WRONG ANSWER: {why}");
            println!("{}", result_json(false, None));
            std::process::exit(1);
        }
        Err(Fail::Broken(why)) => {
            eprintln!("perfbench: {why}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod selftest;
