//! `BENCHMARK.json` at the repository root names exactly the per-layer
//! metrics the command reports.

use gpf_perfbench::layers::PER_LAYER;

#[test]
fn manifest_lists_every_per_layer_metric() {
    let manifest = std::fs::read_to_string("../BENCHMARK.json").expect("BENCHMARK.json");
    let per_layer = &manifest[manifest.find("\"per_layer\"").expect("per_layer section")..];
    let listed: Vec<&str> = per_layer
        .split("\"name\": \"")
        .skip(1)
        .filter_map(|s| s.split('"').next())
        .collect();
    let reported: Vec<&str> = PER_LAYER.iter().map(|(name, _)| *name).collect();
    assert_eq!(listed, reported);
}
