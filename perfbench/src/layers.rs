//! The engine layers, timed from outside: one `Engine` in this thread,
//! built with the workload's setup statements, replays a fixed number of
//! ops from the same seeded streams the clients send. Spans sit around the
//! public calls each layer exposes (`parse_program_counted`,
//! `Engine::prepare`/`run`/`exec`/`show`/`snapshot`), work counts come from
//! `EngineStats`, and per-phase times from `Engine::explain` on a sample.

use crate::gen::{self, Kind, Size, Workload};
use crate::Fail;
use polyview::{Engine, EngineStats, Outcome, Prepared};
use std::collections::HashMap;
use std::time::Instant;

/// Ops replayed per workload: fixed, so the work counts repeat exactly.
pub fn replay_ops(w: Workload, size: Size) -> usize {
    let full = size.staff == Size::FULL.staff;
    match (w, full) {
        (Workload::ViewScan, true) => 200,
        (Workload::ViewScan, false) => 40,
        (Workload::DeclChurn, true) => 4000,
        (Workload::DeclChurn, false) => 400,
        (Workload::PointOps, true) => 40000,
        (Workload::PointOps, false) => 2000,
    }
}

const SNAPSHOTS: usize = 5;
const EXPLAINS: usize = 16;
/// Bound on this replay's own prepared-statement map (the engine's
/// statement cache holds 256 entries).
const PREPARED_CAP: usize = 256;

#[derive(Default)]
pub struct EngineLayers {
    pub ops: u64,
    pub parse_ns: Vec<u64>,
    pub nodes: u64,
    pub prepare_ns: Vec<u64>,
    pub run_ns: Vec<u64>,
    pub show_ns: Vec<u64>,
    pub exec_ns: Vec<u64>,
    /// What a pool worker does per op: (prepare +) run + show for reads,
    /// exec for writes.
    pub serve_ns: Vec<u64>,
    pub snapshot_ns: Vec<u64>,
    pub snapshot_bytes: u64,
    pub work: Work,
    pub infer_ns: Vec<u64>,
    pub lower_ns: Vec<u64>,
    pub eval_ns: Vec<u64>,
    pub residue: u64,
    pub explained: u64,
}

pub fn replay(w: Workload, size: Size, seed: u64, clients: usize) -> Result<EngineLayers, Fail> {
    let mut e = Engine::new();
    for s in gen::setup_statements(w, size, clients) {
        e.exec(&s)
            .map_err(|err| Fail::Broken(format!("engine setup: {err}")))?;
    }
    let mut out = EngineLayers::default();
    for _ in 0..SNAPSHOTS {
        let t = Instant::now();
        let bytes = std::hint::black_box(e.snapshot());
        out.snapshot_ns.push(t.elapsed().as_nanos() as u64);
        out.snapshot_bytes = bytes.len() as u64;
    }

    let mut gens = gen::client_gens(w, size, seed, clients);
    let mut prepared: HashMap<String, Prepared> = HashMap::new();
    let mut reads: Vec<String> = Vec::new();
    let before = e.stats();
    let ops = replay_ops(w, size);
    for i in 0..ops {
        let g = &mut gens[i % clients];
        let op = g.next_op();
        let t = Instant::now();
        let (_, parsed) = polyview::parser::parse_program_counted(&op.src)
            .map_err(|err| Fail::Broken(format!("parse `{}`: {err}", op.src)))?;
        out.parse_ns.push(t.elapsed().as_nanos() as u64);
        out.nodes += parsed.nodes;

        let served = Instant::now();
        let got = match op.kind {
            Kind::Read => {
                reads.push(op.src.clone());
                read(&mut e, &op.src, &mut prepared, &mut out)
            }
            Kind::Write => {
                let t = Instant::now();
                let res = e.exec(&op.src).map(|o| render(&o));
                out.exec_ns.push(t.elapsed().as_nanos() as u64);
                res
            }
        }
        .map_err(|err| Fail::Broken(format!("engine `{}`: {err}", op.src)))?;
        out.serve_ns.push(served.elapsed().as_nanos() as u64);
        op.check(&got, g.issued()).map_err(Fail::Wrong)?;
    }
    out.ops = ops as u64;
    out.work = work(e.stats(), before);
    let refs: Vec<&gen::ClientGen> = gens.iter().collect();
    for (src, want) in gen::final_probes(&refs) {
        let got = e
            .eval_to_string(&src)
            .map_err(|err| Fail::Broken(format!("engine probe: {err}")))?;
        if got != want {
            return Err(Fail::Wrong(format!(
                "engine answers a final probe with `{got}`, want `{want}`"
            )));
        }
    }

    let step = (reads.len() / EXPLAINS).max(1);
    for src in reads.iter().step_by(step).take(EXPLAINS) {
        let x = e
            .explain(src)
            .map_err(|err| Fail::Broken(format!("explain `{src}`: {err}")))?;
        out.infer_ns.push(x.infer_ns);
        out.lower_ns.push(x.lower_ns);
        out.eval_ns.push(x.eval_ns);
        out.residue += x.dynamic_residue;
        out.explained += 1;
    }
    Ok(out)
}

/// A read the way the statement cache serves it: prepare on a miss (or
/// after a dependency was rebound), then run and render.
fn read(
    e: &mut Engine,
    src: &str,
    prepared: &mut HashMap<String, Prepared>,
    out: &mut EngineLayers,
) -> Result<String, polyview::Error> {
    let value = loop {
        if !prepared.contains_key(src) {
            if prepared.len() >= PREPARED_CAP {
                prepared.clear();
            }
            let t = Instant::now();
            let p = e.prepare(src)?;
            out.prepare_ns.push(t.elapsed().as_nanos() as u64);
            prepared.insert(src.to_string(), p);
        }
        let p = &prepared[src];
        let t = Instant::now();
        match e.run(p) {
            Ok(v) => {
                out.run_ns.push(t.elapsed().as_nanos() as u64);
                break v;
            }
            Err(err) if err.is_stale_prepared() => {
                prepared.remove(src);
            }
            Err(err) => return Err(err),
        }
    };
    let t = Instant::now();
    let shown = e.show(&value);
    out.show_ns.push(t.elapsed().as_nanos() as u64);
    Ok(shown)
}

/// Render outcomes the way a pool worker answers a write.
fn render(out: &[Outcome]) -> String {
    out.iter()
        .map(|o| match o {
            Outcome::Defined(binds) => binds
                .iter()
                .map(|(n, s)| format!("{n} : {s}"))
                .collect::<Vec<_>>()
                .join(", "),
            Outcome::Value { rendered, .. } => rendered.clone(),
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Per-replay work counters (`EngineStats` deltas).
#[derive(Default)]
pub struct Work {
    pub fuel: u64,
    pub sets: u64,
    pub records: u64,
    pub fallbacks: u64,
    pub offsets: u64,
    pub unify_steps: u64,
}

fn work(a: EngineStats, b: EngineStats) -> Work {
    Work {
        fuel: a.fuel_consumed - b.fuel_consumed,
        sets: a.sets_allocated - b.sets_allocated,
        records: a.records_allocated - b.records_allocated,
        fallbacks: a.dyn_field_fallbacks - b.dyn_field_fallbacks,
        offsets: a.field_offsets_resolved - b.field_offsets_resolved,
        unify_steps: a.unify_steps - b.unify_steps,
    }
}
