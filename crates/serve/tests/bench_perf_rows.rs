//! `BENCH_perf.json` (the committed performance trajectory at the
//! repository root) stays well formed: parsed with the workspace's
//! JSON parser, every row carries, for both workloads `BENCHMARK.json`
//! declares, each declared end-to-end metric with its parent and
//! change medians, their ratio, the pairs the change won and the
//! parent's interquartile range, and those fields agree.

use spp_serve::{parse, Json};

fn load(name: &str) -> Json {
    let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// A JSON number as `f64`, whichever form the parser gave it.
fn num(v: &Json) -> Option<f64> {
    match v {
        Json::Int(i) => Some(*i as f64),
        Json::Num(x) => Some(*x),
        _ => None,
    }
}

/// The `name` field of every entry of the array `key` of `doc`.
fn names(doc: &Json, key: &str) -> Vec<String> {
    match doc.get(key) {
        Some(Json::Arr(items)) => items
            .iter()
            .map(|m| m.str_field("name").expect("named entry").to_string())
            .collect(),
        _ => panic!("BENCHMARK.json has no {key} list"),
    }
}

#[test]
fn every_bench_perf_row_has_complete_consistent_end_to_end_metrics() {
    let decl = load("BENCHMARK.json");
    let workloads = names(&decl, "workloads");
    let metrics = names(&decl, "end_to_end");
    assert_eq!(workloads.len(), 2);
    assert_eq!(metrics.len(), 7);

    let bench = load("BENCH_perf.json");
    let Some(Json::Arr(rows)) = bench.get("rows") else {
        panic!("BENCH_perf.json has no rows array");
    };
    assert!(!rows.is_empty());
    for (r, row) in rows.iter().enumerate() {
        let e2e = row
            .get("end_to_end")
            .unwrap_or_else(|| panic!("row {r}: no end_to_end"));
        for w in &workloads {
            let at = format!("row {r} {w}");
            let wl = e2e
                .get(w)
                .unwrap_or_else(|| panic!("{at}: workload missing"));
            let pairs = wl
                .int_field("pairs")
                .unwrap_or_else(|| panic!("{at}: pairs"));
            let Some(Json::Arr(seeds)) = wl.get("seeds") else {
                panic!("{at}: seeds");
            };
            assert_eq!(pairs, seeds.len() as i64, "{at}: pairs = len(seeds)");
            for m in &metrics {
                let at = format!("{at} {m}");
                let entry = wl
                    .get("metrics")
                    .and_then(|ms| ms.get(m))
                    .unwrap_or_else(|| panic!("{at}: metric missing"));
                let field = |f: &str| {
                    entry
                        .get(f)
                        .and_then(num)
                        .unwrap_or_else(|| panic!("{at}: {f} missing or not a number"))
                };
                let (parent, change) = (field("parent"), field("change"));
                let ratio = field("change_over_parent");
                assert!(
                    (ratio - change / parent).abs() <= 1e-3,
                    "{at}: change_over_parent {ratio} != {change} / {parent}"
                );
                let wins = field("change_better_pairs");
                assert!(
                    wins >= 0.0 && wins <= pairs as f64,
                    "{at}: {wins} better pairs of {pairs}"
                );
                assert!(field("parent_iqr") >= 0.0, "{at}: parent_iqr");
            }
        }
    }
}
