//! Ablations of the §5 runtime optimizations and the §4.2 pipelining
//! construct — each knob toggled with everything else fixed.
//!
//! * A1 locality heuristic on/off (traffic on Mica);
//! * A2 latency-hiding lookahead 0 vs 2 (iPSC/860 fetch stalls);
//! * A3 task-creation throttling (peak live tasks under a task flood);
//! * A4 `df_rd` pipelining vs task-boundary sync for factor+solve.
//!
//! Run: `cargo run --release -p jade-bench --bin exp_ablations`

use jade_apps::cholesky::{self, SparsePattern, SparseSym, SubstMode};
use jade_core::prelude::*;
use jade_sim::{Platform, SimExecutor, SimReport};

fn tridiagonal(n: usize) -> SparseSym {
    let rows = (0..n).map(|i| if i + 1 < n { vec![i + 1] } else { vec![] }).collect();
    let pattern = SparsePattern::new(n, rows).with_fill();
    let mut m = SparseSym::zero(pattern);
    for i in 0..n {
        m.cols[i][0] = 4.0 + (i % 3) as f64;
        for v in m.cols[i].iter_mut().skip(1) {
            *v = -1.0;
        }
    }
    m
}

fn main() {
    // ---- A1: locality heuristic --------------------------------------
    let a = SparseSym::random_spd(120, 5, 42);
    let run_locality = |on: bool| {
        let a = a.clone();
        SimExecutor::new(Platform::mica(4))
            .locality(on)
            .run(move |ctx| cholesky::factor_program(ctx, &a))
            .1
    };
    let with_loc = run_locality(true);
    let without_loc = run_locality(false);
    println!("A1 locality heuristic (sparse Cholesky, 4 Mica workstations):");
    println!(
        "  on : {:.3}s, {} KB moved   off: {:.3}s, {} KB moved",
        with_loc.time.as_secs_f64(),
        with_loc.net.bytes / 1024,
        without_loc.time.as_secs_f64(),
        without_loc.net.bytes / 1024
    );
    assert!(with_loc.net.bytes <= without_loc.net.bytes, "locality must not increase traffic");

    // ---- A2: latency hiding (assignment lookahead) --------------------
    let a2 = SparseSym::random_spd(120, 5, 43);
    let run_lookahead = |depth: usize| {
        let a = a2.clone();
        SimExecutor::new(Platform::ipsc860(4))
            .lookahead(depth)
            .run(move |ctx| cholesky::factor_program(ctx, &a))
            .1
    };
    let no_prefetch = run_lookahead(0);
    let prefetch = run_lookahead(2);
    println!("\nA2 latency hiding (sparse Cholesky, 4 iPSC/860 nodes):");
    println!(
        "  lookahead 0: {:.3}s    lookahead 2: {:.3}s   ({:.1}% better)",
        no_prefetch.time.as_secs_f64(),
        prefetch.time.as_secs_f64(),
        (1.0 - prefetch.time.as_secs_f64() / no_prefetch.time.as_secs_f64()) * 100.0
    );
    assert!(
        prefetch.time.as_secs_f64() <= no_prefetch.time.as_secs_f64() * 1.02,
        "prefetching fetches while computing; it must not hurt"
    );

    // ---- A3: task-creation throttling ---------------------------------
    fn flood<C: JadeCtx>(ctx: &mut C) -> f64 {
        let acc = ctx.create(0.0f64);
        for _ in 0..256 {
            ctx.withonly(
                "t",
                |s| {
                    s.rd_wr(acc);
                },
                move |c| {
                    c.charge(5e4);
                    *c.wr(&acc) += 1.0;
                },
            );
        }
        *ctx.rd(&acc)
    }
    let (_, unthrottled) = SimExecutor::new(Platform::dash(4)).run(flood);
    let throttled = SimExecutor::new(Platform::dash(4))
        .execute(RunConfig::new().with_throttle(Throttle::SuspendCreator { hi: 16, lo: 8 }), flood)
        .unwrap_or_else(|fault| panic!("{fault}"));
    let throttled = throttled.extra::<SimReport>().expect("sim runs report a SimReport");
    println!("\nA3 task-creation throttling (256-task flood, 4 DASH nodes):");
    println!(
        "  off: peak {} live tasks, {:.3}s    on(16/8): peak {} live tasks, {:.3}s",
        unthrottled.stats.peak_live_tasks,
        unthrottled.time.as_secs_f64(),
        throttled.stats.peak_live_tasks,
        throttled.time.as_secs_f64()
    );
    assert!(throttled.stats.peak_live_tasks <= 17);
    assert!(unthrottled.stats.peak_live_tasks > 64, "the flood must actually flood");

    // ---- A4: §4.2 pipelining ------------------------------------------
    // First, the exact composition the paper discusses — factor then
    // back-substitute a chain-structured (tridiagonal) matrix. At this
    // matrix's grain the per-column flop counts are dwarfed by task
    // overheads, so both modes cost about the same: the grain-size
    // caveat of §8 in action. We report it, then demonstrate the
    // mechanism at a coarse grain where it matters.
    let chain = tridiagonal(160);
    let b: Vec<f64> = (0..160).map(|i| 1.0 + (i % 7) as f64).collect();
    let run_subst = |mode: SubstMode| {
        let (a, b) = (chain.clone(), b.clone());
        SimExecutor::new(Platform::dash(2))
            .run(move |ctx| cholesky::factor_then_subst(ctx, &a, &b, mode))
            .1
    };
    let boundary = run_subst(SubstMode::TaskBoundary);
    let pipelined = run_subst(SubstMode::Pipelined);
    println!("\nA4a factor+subst, fine-grain tridiagonal (2 DASH nodes):");
    println!(
        "  task-boundary: {:.1}ms    pipelined(df_rd): {:.1}ms   (overhead-dominated: ~no difference, the §8 grain-size limit)",
        boundary.time.as_millis_f64(),
        pipelined.time.as_millis_f64(),
    );
    assert!(pipelined.stats.with_conts > 0, "the pipeline must issue with-conts");

    // Coarse-grain producer/consumer over the same column structure:
    // each "factor" task charges real work per column; the consumer
    // either declares rd on every column (task-boundary) or df_rd +
    // per-column with-cont (pipelined).
    fn pipeline_workload<C: JadeCtx>(ctx: &mut C, pipelined: bool) -> f64 {
        let n = 24usize;
        let cols: Vec<Shared<Vec<f64>>> =
            (0..n).map(|i| ctx.create_named(&format!("col{i}"), vec![0.0; 256])).collect();
        let out = ctx.create_named("out", 0.0f64);
        for (i, &col) in cols.iter().enumerate() {
            // The chain: each column depends on the previous one.
            let prev = if i > 0 { Some(cols[i - 1]) } else { None };
            ctx.withonly(
                "factor",
                |s| {
                    s.rd_wr(col);
                    if let Some(p) = prev {
                        s.rd(p);
                    }
                },
                move |c| {
                    c.charge(4e6);
                    let seed = prev.map(|p| c.rd(&p)[0]).unwrap_or(1.0);
                    for (k, v) in c.wr(&col).iter_mut().enumerate() {
                        *v = seed + k as f64;
                    }
                },
            );
        }
        let spec_cols = cols.clone();
        let body_cols = cols.clone();
        ctx.withonly(
            "backsubst",
            |s| {
                s.rd_wr(out);
                for &c in &spec_cols {
                    if pipelined {
                        s.df_rd(c);
                    } else {
                        s.rd(c);
                    }
                }
            },
            move |cc| {
                let mut acc = 0.0;
                for &col in &body_cols {
                    if pipelined {
                        cc.with_cont(|b| {
                            b.to_rd(col);
                        });
                    }
                    cc.charge(4e6);
                    acc += cc.rd(&col)[0];
                    if pipelined {
                        cc.with_cont(|b| {
                            b.no_rd(col);
                        });
                    }
                }
                *cc.wr(&out) = acc;
            },
        );
        *ctx.rd(&out)
    }
    let (v_b, coarse_boundary) =
        SimExecutor::new(Platform::dash(2)).run(|ctx| pipeline_workload(ctx, false));
    let (v_p, coarse_pipelined) =
        SimExecutor::new(Platform::dash(2)).run(|ctx| pipeline_workload(ctx, true));
    assert_eq!(v_b, v_p, "both modes compute the same value");
    println!("\nA4b factor+subst, coarse-grain chain (2 DASH nodes):");
    println!(
        "  task-boundary: {:.1}ms    pipelined(df_rd): {:.1}ms   ({:.1}% better)",
        coarse_boundary.time.as_millis_f64(),
        coarse_pipelined.time.as_millis_f64(),
        (1.0 - coarse_pipelined.time.as_secs_f64() / coarse_boundary.time.as_secs_f64()) * 100.0
    );
    assert!(
        coarse_pipelined.time.as_secs_f64() < coarse_boundary.time.as_secs_f64() * 0.8,
        "at coarse grain, the §4.2 pipeline must overlap substantially"
    );
    assert!(
        coarse_pipelined.stats.with_cont_blocks > 0,
        "the coarse pipeline must actually synchronize mid-task"
    );

    println!("\nall four runtime mechanisms pull their weight.");
}
