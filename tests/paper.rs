//! The paper's evaluation on the simulator, as tests: Figure 9 (LWS
//! running times on DASH, the iPSC/860 and Mica), Figure 10 (the same
//! runs as speedups) and §6.1 (object coherence against a page-DSM
//! baseline). Each asserts its figure's shape, so a change to an
//! interconnect or coherence model that breaks a figure fails here.
//!
//! Absolute 1992 seconds are not reproducible; the *shape* is the
//! target: all three platforms descend with added processors, DASH
//! scales furthest, the iPSC/860 tracks it closely, and Mica's shared
//! 10 Mbit Ethernet flattens early.
//!
//! Print the tables: `cargo test --release --test paper -- --nocapture
//! --test-threads=1`.

#![deny(deprecated)]

use std::fmt::Write as _;
use std::sync::OnceLock;

use jade_apps::lws::{self, WaterSystem};
use jade_core::prelude::*;
use jade_sim::{Granularity, Platform, SimExecutor};

/// Figures 9 and 10: 2197 molecules, as in the paper, one interaction
/// step.
const MOLECULES: usize = 2197;
const STEPS: usize = 1;
const PLATFORMS: [(&str, Preset); 3] =
    [("dash", Platform::dash), ("ipsc860", Platform::ipsc860), ("mica", Platform::mica)];
const PROCS: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// Figure 10's speedups at 8, 16 and 32 processors per platform, as
/// recorded in EXPERIMENTS § F10 (Mica is not swept past 16).
const F10: [(usize, [Option<f64>; 3]); 3] = [
    (8, [Some(7.98), Some(7.83), Some(7.57)]),
    (16, [Some(15.90), Some(14.60), Some(12.91)]),
    (32, [Some(31.58), Some(23.19), None]),
];

/// A platform preset: its machine count to the platform.
type Preset = fn(usize) -> Platform;

/// Simulated LWS seconds per processor count (row) and platform
/// (column); `None` where the platform is not swept. The shared
/// Ethernet stops being interesting past 16 nodes. Both figures read
/// this one sweep.
fn lws_sweep() -> &'static [Vec<Option<f64>>] {
    static SWEEP: OnceLock<Vec<Vec<Option<f64>>>> = OnceLock::new();
    SWEEP.get_or_init(|| {
        PROCS
            .iter()
            .map(|&p| {
                PLATFORMS
                    .iter()
                    .map(|&(name, platform)| {
                        (name != "mica" || p <= 16).then(|| lws_seconds(platform(p)))
                    })
                    .collect()
            })
            .collect()
    })
}

/// One LWS run in simulated seconds, four molecule blocks per machine.
fn lws_seconds(platform: Platform) -> f64 {
    let sys = WaterSystem::new(MOLECULES, 2197);
    let blocks = (4 * platform.len()).max(4);
    let (_, report) =
        SimExecutor::new(platform).run(move |ctx| lws::run_jade(ctx, &sys, blocks, STEPS, 0.002));
    report.time.as_secs_f64()
}

/// Right-align each cell in `width` columns.
fn row(cells: &[String], width: usize) -> String {
    cells.iter().map(|c| format!("{c:>width$}")).collect::<Vec<_>>().join(" ")
}

/// The figure's header row and one row per processor count.
fn lws_table(title: &str, cells: impl Fn(f64, usize) -> String) -> (String, Vec<Vec<String>>) {
    let header: Vec<String> = std::iter::once("procs".to_string())
        .chain(PLATFORMS.iter().map(|(name, _)| name.to_string()))
        .collect();
    let mut out = format!("{title}\n\n{}\n", row(&header, 10));
    let mut rows = Vec::new();
    for (&p, times) in PROCS.iter().zip(lws_sweep()) {
        let mut r = vec![p.to_string()];
        r.extend(times.iter().enumerate().map(|(c, t)| match t {
            Some(t) => cells(*t, c),
            None => "-".to_string(),
        }));
        let _ = writeln!(out, "{}", row(&r, 10));
        rows.push(r);
    }
    (out, rows)
}

#[test]
fn figure_9_lws_running_times() {
    let title = format!(
        "LWS running times, {MOLECULES} molecules, {STEPS} interaction step (simulated seconds)"
    );
    let (out, table) = lws_table(&title, |t, _| format!("{t:.3}"));
    print!("{out}");

    let t = |r: usize, c: usize| table[r][c].parse::<f64>().unwrap();
    // Times fall from 1 to 8 processors on every platform.
    for c in 1..=3 {
        assert!(t(3, c) < t(0, c), "platform {} does not speed up", PLATFORMS[c - 1].0);
    }
    // At 16 processors DASH beats Mica (Ethernet saturation).
    assert!(t(4, 1) < t(4, 3), "DASH should beat Mica at 16 procs");
    println!(
        "\nshape: every platform speeds up; DASH < iPSC/860 << Mica at scale, as in Figure 9."
    );
}

#[test]
fn figure_10_lws_speedups() {
    // Each platform's time at P processors relative to its own
    // 1-processor time.
    let base = &lws_sweep()[0];
    let speedup = |t: f64, c: usize| base[c].expect("every platform runs on 1 processor") / t;
    let title = format!("LWS speedups, {MOLECULES} molecules, {STEPS} interaction step");
    let (out, _) = lws_table(&title, |t, c| format!("{:.2}", speedup(t, c)));
    print!("{out}");

    // Good scaling on DASH/iPSC at 8 procs, Mica clearly behind at 8+;
    // DASH ahead of Mica at 16.
    let s = |r: usize, c: usize| speedup(lws_sweep()[r][c].unwrap(), c);
    assert!(s(3, 0) > 5.0, "DASH speedup at 8 procs too low: {}", s(3, 0));
    assert!(s(3, 1) > 4.0, "iPSC speedup at 8 procs too low: {}", s(3, 1));
    assert!(s(4, 0) > s(4, 2), "DASH must out-scale Mica at 16 procs");
    assert!(s(3, 2) < s(3, 0), "Mica must trail DASH at 8 procs");
    // The sweep is virtual time and repeats exactly, so each speedup
    // must also be the one EXPERIMENTS § F10 records: a change to an
    // interconnect or a cost model moves one of them past the table's
    // rounding (a contention-free Ethernet lifts Mica at 16 from 12.91
    // to 14.01; a zero iPSC/860 latency lifts the iPSC/860 at 32 from
    // 23.19 to 23.27).
    for (p, row) in F10 {
        let r = PROCS.iter().position(|&q| q == p).expect("swept processor count");
        for (c, want) in row.into_iter().enumerate() {
            let Some(want) = want else { continue };
            let got = s(r, c);
            assert!(
                (got - want).abs() <= 0.02,
                "{} speedup at {p} procs is {got:.3}; the Figure 10 table has {want:.2}",
                PLATFORMS[c].0
            );
        }
    }
    println!("\nshape: near-linear DASH, close iPSC/860, early-saturating Mica — Figure 10.");
}

/// §6.1: "If the program accesses an object that is smaller than a
/// page, the page coherence system will fetch the entire page. The
/// comparatively large size of pages also increases the probability of
/// an application suffering from excessive communication caused by
/// false sharing. ... This problem does not occur in Jade because all
/// data sharing takes place at the level of individual objects."
///
/// 64 small (few-hundred-byte) objects, each updated 4 times from
/// whichever machine the task lands on. Small objects co-reside on
/// 4 KiB pages, so page-grain coherence false-shares heavily.
fn small_object_workload<C: JadeCtx>(ctx: &mut C) -> f64 {
    let objs: Vec<Shared<Vec<f64>>> =
        (0..64).map(|i| ctx.create_named(&format!("cell{i}"), vec![i as f64; 24])).collect();
    for _round in 0..4 {
        for &o in &objs {
            ctx.withonly(
                "update",
                |s| {
                    s.rd_wr(o);
                },
                move |c| {
                    c.charge(3e5);
                    for v in c.wr(&o).iter_mut() {
                        *v += 1.0;
                    }
                },
            );
        }
    }
    objs.iter().map(|o| ctx.rd(o).iter().sum::<f64>()).sum()
}

#[test]
fn section_6_1_objects_move_less_than_pages() {
    let mut out =
        String::from("small-object workload on 4 Mica workstations: Jade objects vs page DSM\n\n");
    let header = ["granularity", "sim time", "msgs", "KB moved", "invalidations"];
    let _ = writeln!(out, "{}", row(&header.map(String::from), 14));
    let mut rows = Vec::new();
    for (name, gran) in [
        ("object", Granularity::Object),
        ("page-4K", Granularity::Page(4096)),
        ("page-8K", Granularity::Page(8192)),
    ] {
        let (v, report) =
            SimExecutor::new(Platform::mica(4)).granularity(gran).run(small_object_workload);
        let cells = [
            name.to_string(),
            format!("{:.3}s", report.time.as_secs_f64()),
            report.net.messages.to_string(),
            format!("{}", report.net.bytes / 1024),
            report.traffic.invalidations.to_string(),
        ];
        let _ = writeln!(out, "{}", row(&cells, 14));
        rows.push((v, report));
    }
    print!("{out}");

    // Same results everywhere; far more traffic under page coherence.
    assert_eq!(rows[0].0, rows[1].0);
    assert_eq!(rows[0].0, rows[2].0);
    assert!(
        rows[1].1.net.bytes > rows[0].1.net.bytes * 3,
        "4K pages must move several times the bytes objects do"
    );
    assert!(rows[2].1.net.bytes >= rows[1].1.net.bytes, "bigger pages, more false sharing");
    assert!(rows[1].1.time >= rows[0].1.time, "the extra traffic must cost time");
    println!("\nJade's object-granularity coherence moves only what tasks declare;");
    println!("page granularity drags page-mates along and invalidates bystanders (§6.1).");
}
