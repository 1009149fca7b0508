//! What both binaries share: arguments, process hygiene, the watchdog,
//! the result line, and running the whole set as one process per
//! workload.

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::inputs::Size;
use crate::json::Json;
use crate::metrics::END_TO_END;
use crate::stats;
use crate::workloads::{self, Workload};

pub const DEFAULT_SEED: u64 = 17;
pub const DEFAULT_SECONDS: f64 = 10.0;

#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// `None` means every workload, one process each.
    pub workload: Option<Workload>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub aa: bool,
}

impl Args {
    pub fn size(&self) -> Size {
        if self.quick {
            Size::Quick
        } else {
            Size::Full
        }
    }
}

pub const USAGE: &str = "usage: [--workload NAME|all] [--seed N] [--seconds S] \
    [--trace 0|1 | --layers] [--quick] [--aa]";

pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        aa: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value =
            || it.next().map(String::as_str).ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                out.workload = match name {
                    "all" => None,
                    name => Some(
                        Workload::from_name(name)
                            .ok_or_else(|| format!("unknown workload '{name}'"))?,
                    ),
                };
            }
            "--seed" => out.seed = value()?.parse().map_err(|_| "--seed needs a whole number")?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !(out.seconds > 0.0 && out.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                out.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--layers" => out.trace = true,
            "--quick" => out.quick = true,
            "--aa" => out.aa = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(out)
}

pub fn args_or_exit() -> Args {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    parse_args(&raw).unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    })
}

/// Where traces, ledgers and scratch sockets go: `benchmark/out` from
/// the repository root, `out` from inside the package.
pub fn out_dir() -> PathBuf {
    let dir = if std::path::Path::new("benchmark/Cargo.toml").exists() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    };
    std::fs::create_dir_all(dir.join("tmp")).expect("create the benchmark's out directory");
    dir
}

/// Make the process measure defaults and stay inside its checkout:
/// drop every `JADE_*` variable (they tune the runtime under test) and
/// point `TMPDIR` — where jade-net binds its Unix sockets — into the
/// out directory. The path is kept relative so it fits a socket
/// address however deep the checkout sits.
pub fn prepare_process() {
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("JADE_") {
            std::env::remove_var(key);
        }
    }
    std::env::set_var("TMPDIR", out_dir().join("tmp"));
}

/// Peak resident set size of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host and build facts every ledger carries. The commit hash and the
/// compiler version come from `run.sh` through the environment: the
/// checkout being measured need not be a git repository.
pub fn meta(args: &Args) -> Vec<(&'static str, Json)> {
    let env = |k: &str| Json::str(std::env::var(k).unwrap_or_else(|_| "unknown".into()));
    vec![
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("size", Json::str(if args.quick { "quick" } else { "full" })),
        ("nproc", Json::Num(workloads::nproc() as f64)),
        ("workers", Json::Num(workloads::workers() as f64)),
        ("commit", env("BENCH_COMMIT")),
        ("rustc", env("BENCH_RUSTC")),
    ]
}

// ----------------------------------------------------------------------
// Watchdog
// ----------------------------------------------------------------------

/// Fails the workload in bounded time. If the run has not been
/// [`disarm`](Watchdog::disarm)ed by the deadline — a hang in the
/// socket backend, the session or the simulator — every operation is
/// counted failed, the workload is named, and the process exits 3.
pub struct Watchdog {
    done: Arc<AtomicBool>,
    ops: Arc<AtomicU64>,
}

impl Watchdog {
    pub fn arm(workload: Workload, limit: Duration) -> Watchdog {
        let done = Arc::new(AtomicBool::new(false));
        let ops = Arc::new(AtomicU64::new(1));
        let (done2, ops2) = (Arc::clone(&done), Arc::clone(&ops));
        std::thread::spawn(move || {
            let deadline = Instant::now() + limit;
            while Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(100));
                if done2.load(Ordering::SeqCst) {
                    return;
                }
            }
            let ops = ops2.load(Ordering::SeqCst);
            eprintln!(
                "watchdog: workload {} did not finish within {:.0} s; all {ops} operations \
                 of the repetition counted failed",
                workload.name(),
                limit.as_secs_f64()
            );
            println!("{}", result_line(ops, ops, &[]));
            std::process::exit(3);
        });
        Watchdog { done, ops }
    }

    /// Ten times the time a healthy run needs, kept under the 180 s a
    /// run is allowed. `BENCH_WATCHDOG_S` overrides it, so the test of
    /// the watchdog need not wait that long.
    pub fn limit_for(args: &Args) -> Duration {
        let limit = std::env::var("BENCH_WATCHDOG_S")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or((10.0 * (args.seconds + 7.0)).min(170.0));
        Duration::from_secs_f64(limit)
    }

    /// Operations to count failed on expiry.
    pub fn set_ops(&self, ops: u64) {
        self.ops.store(ops.max(1), Ordering::SeqCst);
    }

    pub fn disarm(self) {
        self.done.store(true, Ordering::SeqCst);
    }
}

// ----------------------------------------------------------------------
// Output
// ----------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The one-line result the contract asks for as the last line of
/// standard output.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Measured]) -> String {
    let metrics = metrics
        .iter()
        .map(|m| {
            (m.name, Json::obj(vec![("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]))
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(attempted.max(1) as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
    .to_line()
}

/// Print every metric by name with its unit, then the result line.
/// Returns the process's exit code: non-zero when an operation failed.
pub fn report(
    workload: Workload,
    args: &Args,
    attempted: u64,
    failed: u64,
    metrics: &[Measured],
) -> ExitCode {
    println!("workload {}", workload.name());
    for (k, v) in meta(args) {
        println!("  {k:<44} {}", v.to_line());
    }
    for m in metrics {
        println!("  {:<44} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("  {:<44} {attempted:>16}", "ops_attempted");
    println!("  {:<44} {failed:>16}", "ops_failed");
    println!("  {:<44} {:>16.6}", "failed_frac", failed as f64 / attempted.max(1) as f64);
    println!("{}", result_line(attempted, failed, metrics));
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("{}: {failed} of {attempted} operations failed", workload.name());
        ExitCode::FAILURE
    }
}

// ----------------------------------------------------------------------
// The whole set: one process per workload
// ----------------------------------------------------------------------

/// One workload's parsed result line (`None`: the process printed none).
pub type SetResults = Vec<(Workload, Option<Json>)>;

/// Run this same binary once per workload and collect the result
/// lines. Each child's own report passes through to standard output.
pub fn run_set(args: &Args) -> SetResults {
    let exe = std::env::current_exe().expect("path of the running benchmark binary");
    workloads::ALL
        .into_iter()
        .map(|w| {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name()])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .stdin(Stdio::null())
                .stderr(Stdio::inherit());
            if args.quick {
                cmd.arg("--quick");
            }
            // `output` waits for the child, so none outlives the set.
            let out = cmd.output().expect("start the workload's process");
            let text = String::from_utf8_lossy(&out.stdout);
            print!("{text}");
            let result = text.lines().last().and_then(|l| Json::parse(l).ok());
            if !out.status.success() {
                eprintln!("{}: exited with {}", w.name(), out.status);
            }
            (w, result)
        })
        .collect()
}

fn metric_value(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Did every workload print a result with no failed operation?
pub fn set_is_correct(set: &SetResults) -> bool {
    set.iter().all(|(_, r)| {
        r.as_ref().and_then(|r| r.get("correct")).and_then(Json::as_bool) == Some(true)
    })
}

/// The set as one ledger document.
pub fn set_ledger(args: &Args, kind: &str, set: &SetResults) -> Json {
    let workloads = set.iter().map(|(w, r)| (w.name(), r.clone().unwrap_or(Json::Null))).collect();
    let mut doc = vec![("kind", Json::str(kind))];
    doc.extend(meta(args));
    doc.push(("workloads", Json::obj(workloads)));
    Json::obj(doc)
}

/// A/A: two runs of the same code must agree, per workload and
/// end-to-end metric, within the metric's bound. Prints both values,
/// their relative difference and the bound; returns whether all agree.
pub fn compare_sets(first: &SetResults, second: &SetResults) -> bool {
    let mut ok = true;
    println!(
        "\n{:<18} {:<12} {:>14} {:>14} {:>8} {:>7}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for ((w, a), (_, b)) in first.iter().zip(second) {
        for m in END_TO_END {
            let pair = a
                .as_ref()
                .and_then(|a| metric_value(a, m.name))
                .zip(b.as_ref().and_then(|b| metric_value(b, m.name)));
            let Some((a, b)) = pair else {
                println!("{:<18} {:<12} missing  FAIL", w.name(), m.name);
                ok = false;
                continue;
            };
            // Neither run is the reference, so take the difference in
            // its unfavourable direction.
            let diff = stats::worsening(a, b, m.better).max(stats::worsening(b, a, m.better));
            let verdict = if diff <= m.bound { "ok" } else { "FAIL" };
            ok &= diff <= m.bound;
            println!(
                "{:<18} {:<12} {a:>14.6} {b:>14.6} {:>7.2}% {:>6.1}%  {verdict}",
                w.name(),
                m.name,
                diff * 100.0,
                m.bound * 100.0
            );
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse("--workload fine-chain --seed 5 --seconds 3 --trace 1").unwrap();
        assert_eq!(a.workload, Some(Workload::FineChain));
        assert_eq!((a.seed, a.seconds, a.trace, a.quick, a.aa), (5, 3.0, true, false, false));
        let d = parse("").unwrap();
        assert_eq!((d.workload, d.seed, d.seconds, d.trace), (None, 17, 10.0, false));
        assert_eq!(parse("--workload all --layers --quick --aa").unwrap().workload, None);
        for bad in ["--workload nope", "--seed x", "--trace 2", "--seconds 0", "--bogus", "--seed"]
        {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let m = [Measured { name: "wall_s", value: 0.512_345_678_9, unit: "s" }];
        let v = Json::parse(&result_line(1000, 0, &m)).unwrap();
        let keys: Vec<&str> = v.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(metric_value(&v, "wall_s"), Some(0.512_345_678_9));
        let failed = Json::parse(&result_line(0, 3, &[])).unwrap();
        assert_eq!(failed.get("correct").and_then(Json::as_bool), Some(false));
        assert_eq!(failed.get("attempted").and_then(Json::as_f64), Some(1.0), "at least 1");
    }

    #[test]
    fn aa_comparison_applies_each_bound_both_ways() {
        let set = |wall: f64| -> SetResults {
            let metrics: Vec<Measured> = END_TO_END
                .iter()
                .map(|m| Measured {
                    name: m.name,
                    value: if m.name == "wall_s" { wall } else { 1.0 },
                    unit: m.unit,
                })
                .collect();
            vec![(Workload::FineChain, Json::parse(&result_line(1, 0, &metrics)).ok())]
        };
        assert!(compare_sets(&set(1.0), &set(1.05)));
        assert!(!compare_sets(&set(1.0), &set(1.5)));
        assert!(!compare_sets(&set(1.5), &set(1.0)), "order must not matter");
        assert!(!compare_sets(&set(1.0), &vec![(Workload::FineChain, None)]));
        assert!(set_is_correct(&set(1.0)));
    }
}
