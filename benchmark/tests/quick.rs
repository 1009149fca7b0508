//! Runs both binaries on quick-size inputs, so benchmark rot is caught
//! without a full run, and keeps `BENCHMARK.json` equal to the
//! catalogue the binaries print.

use std::process::{Command, Output};
use std::sync::Mutex;

use jade_benchmark::json::Json;
use jade_benchmark::metrics::{END_TO_END, PER_LAYER};
use jade_benchmark::workloads::{Workload, ALL};

/// `layers` writes `out/trace-<workload>.json`; tests that run it take
/// turns so none reads a file another is rewriting.
static LAYERS: Mutex<()> = Mutex::new(());

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("benchmark binary starts")
}

/// The last line of standard output, parsed; the process must have
/// exited 0.
fn result(bin: &str, args: &[&str]) -> Json {
    let out = run(bin, args);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{bin} {args:?} exited with {}:\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    Json::parse(stdout.lines().last().expect("a result line")).expect("result line is JSON")
}

fn metric(result: &Json, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

fn assert_clean(result: &Json, what: &str) {
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true), "{what}");
    assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0), "{what}");
    assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0, "{what}");
}

#[test]
fn e2e_quick_set_is_correct_and_complete() {
    let bin = env!("CARGO_BIN_EXE_e2e");
    for w in ALL {
        let r =
            result(bin, &["--workload", w.name(), "--quick", "--seconds", "0.2", "--trace", "0"]);
        assert_clean(&r, w.name());
        let metrics = r.get("metrics").and_then(Json::as_object).unwrap();
        assert_eq!(metrics.len(), END_TO_END.len(), "{}: exactly the end-to-end metrics", w.name());
        for m in END_TO_END {
            assert!(metric(&r, m.name) > 0.0, "{} {} must never be 0", w.name(), m.name);
            let unit = r.get("metrics").unwrap().get(m.name).unwrap().get("unit");
            assert_eq!(unit.and_then(Json::as_str), Some(m.unit));
        }
    }
}

#[test]
fn layers_quick_set_prints_every_metric_and_a_loadable_trace() {
    let _turn = LAYERS.lock().unwrap_or_else(|p| p.into_inner());
    let bin = env!("CARGO_BIN_EXE_layers");
    for w in ALL {
        let r =
            result(bin, &["--workload", w.name(), "--quick", "--seconds", "0.2", "--trace", "1"]);
        assert_clean(&r, w.name());
        let metrics = r.get("metrics").and_then(Json::as_object).unwrap();
        assert_eq!(metrics.len(), PER_LAYER.len(), "{}: exactly the per-layer metrics", w.name());
        for m in PER_LAYER {
            assert!(metric(&r, m.name).is_finite(), "{} {}", w.name(), m.name);
        }
        assert!(metric(&r, "bench.span_coverage") > 0.5, "{}", w.name());
        assert!(metric(&r, "bench.trace_overhead_x") > 0.0, "{}", w.name());

        let path = format!("out/trace-{}.json", w.name());
        let trace = Json::parse(&std::fs::read_to_string(&path).expect("trace file written"))
            .expect("trace file is JSON");
        let events = trace.get("traceEvents").and_then(Json::as_array).expect("traceEvents");
        assert!(!events.is_empty(), "{path} holds spans");
        let first = &events[0];
        for key in ["name", "ph", "ts", "dur", "pid", "tid"] {
            assert!(first.get(key).is_some(), "{path}: event without {key}");
        }
        assert_eq!(first.get("ph").and_then(Json::as_str), Some("X"));
    }
}

#[test]
fn counts_on_deterministic_paths_repeat_exactly() {
    let _turn = LAYERS.lock().unwrap_or_else(|p| p.into_inner());
    let bin = env!("CARGO_BIN_EXE_layers");
    let args = ["--workload", "cholesky-sim", "--quick", "--seconds", "0.2", "--trace", "1"];
    let (a, b) = (result(bin, &args), result(bin, &args));
    for name in [
        "sim.time_s",
        "sim.messages",
        "sim.bytes",
        "sim.objmgr.moves",
        "sim.objmgr.copies",
        "sim.objmgr.invalidations",
        "core.engine.declarations",
        "core.engine.conflicts",
        "bench.tasks",
    ] {
        assert_eq!(metric(&a, name), metric(&b, name), "{name} must repeat exactly");
        assert!(metric(&a, name) > 0.0, "{name}");
    }
    let other =
        result(bin, &["--workload", "cholesky-sim", "--quick", "--seed", "18", "--trace", "1"]);
    assert_ne!(
        metric(&a, "sim.time_s"),
        metric(&other, "sim.time_s"),
        "the seed changes the input"
    );
}

#[test]
fn watchdog_fails_a_stuck_workload_by_name_in_bounded_time() {
    // A full-size simulator repetition takes seconds; a half-second
    // limit stands in for a hang.
    let out = Command::new(env!("CARGO_BIN_EXE_e2e"))
        .args(["--workload", "cholesky-sim", "--seconds", "1"])
        .env("BENCH_WATCHDOG_S", "0.5")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("watchdog: workload cholesky-sim"), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let r = Json::parse(stdout.lines().last().unwrap()).unwrap();
    assert_eq!(r.get("correct").and_then(Json::as_bool), Some(false));
    assert_eq!(r.get("failed"), r.get("attempted"), "every operation counts as failed");
}

#[test]
fn bad_arguments_exit_without_a_result() {
    let out = run(env!("CARGO_BIN_EXE_e2e"), &["--workload", "no-such-workload"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}

#[test]
fn benchmark_json_lists_what_the_binaries_print() {
    let text = std::fs::read_to_string("../BENCHMARK.json").expect("BENCHMARK.json at the root");
    assert!(text.len() <= 64 * 1024);
    let doc = Json::parse(&text).unwrap();
    let keys: Vec<&str> = doc.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]);

    let strings = |key: &str| -> Vec<String> {
        doc.get(key)
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|s| s.as_str().unwrap().to_string())
            .collect()
    };
    assert_eq!(strings("command"), ["bash", "benchmark/run.sh"]);
    assert_eq!(strings("paths"), ["benchmark"]);
    let seconds = doc.get("run_seconds").and_then(Json::as_f64).unwrap();
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
    // 4 + 22 runs per workload, each `seconds` plus set-up, warm-up and
    // process start, and two builds, must fit the driver's 3420 s.
    assert!((4.0 + 22.0 * ALL.len() as f64) * (seconds + 6.0) + 120.0 < 3420.0);

    let field = |item: &Json, key: &str| item.get(key).and_then(Json::as_str).unwrap().to_string();
    let workloads = doc.get("workloads").and_then(Json::as_array).unwrap();
    assert_eq!(workloads.len(), ALL.len());
    for (item, w) in workloads.iter().zip(ALL) {
        assert_eq!(item.as_object().unwrap().len(), 2);
        assert_eq!(field(item, "name"), w.name());
        assert_eq!(field(item, "why"), w.why());
        assert!(w.why().len() <= 200 && !w.why().contains('\n'));
        assert_eq!(Workload::from_name(w.name()), Some(w));
    }

    let e2e = doc.get("end_to_end").and_then(Json::as_array).unwrap();
    assert_eq!(e2e.len(), END_TO_END.len());
    for (item, m) in e2e.iter().zip(END_TO_END) {
        assert_eq!(item.as_object().unwrap().len(), 4);
        assert_eq!(field(item, "name"), m.name);
        assert_eq!(field(item, "unit"), m.unit);
        assert_eq!(field(item, "better"), m.better.as_str());
        assert_eq!(item.get("bound").and_then(Json::as_f64), Some(m.bound));
    }
    let layers = doc.get("per_layer").and_then(Json::as_array).unwrap();
    assert_eq!(layers.len(), PER_LAYER.len());
    for (item, m) in layers.iter().zip(PER_LAYER) {
        assert_eq!(item.as_object().unwrap().len(), 3);
        assert_eq!(field(item, "name"), m.name);
        assert_eq!(field(item, "unit"), m.unit);
        assert_eq!(field(item, "better"), m.better.as_str());
    }
}
