//! The benchmark's self-test: every workload at tiny size, in both modes.
//! It checks that every metric `BENCHMARK.json` names is reported with its
//! unit, that the oracle passes with no failed op, and that the counts
//! which repeat exactly match their recorded values. It checks no
//! wall-clock bound. Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use super::*;
use polyview::obs::jsonl::{parse_object_line, JsonValue};

/// `eval.dyn_field_fallbacks_per_op` on tiny `view_scan` (40 `Staff`):
/// each read falls back on 40 `Sex` and 20 `Name` lookups, 9 ops in 10
/// are reads, and the writes fall back on none.
const TINY_VIEW_SCAN_FALLBACKS_PER_OP: f64 = 54.0;

/// `(name, unit)` of each metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    let doc = parse_object_line(&text).expect("BENCHMARK.json is one JSON object");
    let field = |m: &[(String, JsonValue)], k: &str| {
        JsonValue::get(m, k)
            .and_then(JsonValue::as_str)
            .expect("metric has name and unit")
            .to_string()
    };
    JsonValue::get(&doc, section)
        .and_then(JsonValue::as_array)
        .expect("section present")
        .iter()
        .map(|m| {
            let m = m.as_object().expect("metric object");
            (field(m, "name"), field(m, "unit"))
        })
        .collect()
}

fn reported(r: &Report) -> Vec<(String, String)> {
    r.metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

fn value(r: &Report, name: &str) -> f64 {
    r.metrics
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.value)
        .expect("metric reported")
}

#[test]
fn every_workload_reports_its_metrics_and_passes_the_oracle() {
    let (end_to_end, per_layer) = (declared("end_to_end"), declared("per_layer"));
    for w in Workload::ALL {
        let e2e = run_end_to_end(w, Size::TINY, 1, Duration::from_millis(300))
            .unwrap_or_else(|f| panic!("{}: {f:?}", w.name()));
        assert_eq!(reported(&e2e), end_to_end, "{}", w.name());
        assert!(e2e.attempted > 0 && e2e.failed == 0, "{}", w.name());

        let traced = run_traced(w, Size::TINY, 1, Duration::from_millis(600))
            .unwrap_or_else(|f| panic!("{}: {f:?}", w.name()));
        assert_eq!(reported(&traced), per_layer, "{}", w.name());
        assert!(traced.failed == 0, "{}", w.name());
        match w {
            Workload::ViewScan => assert_eq!(
                value(&traced, "eval.dyn_field_fallbacks_per_op"),
                TINY_VIEW_SCAN_FALLBACKS_PER_OP
            ),
            Workload::PointOps => {
                assert_eq!(value(&traced, "core.stmt_cache_hit_ratio"), 1.0)
            }
            Workload::DeclChurn => {}
        }
    }
}
