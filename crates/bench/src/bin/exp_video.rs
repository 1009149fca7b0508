//! §7.2 — the HRV video pipeline: frames flow from the SPARC host's
//! digitizer through i860 accelerators to the display. Throughput
//! versus accelerator count, with the capture stage as the eventual
//! bottleneck.
//!
//! Run: `cargo run --release -p jade-bench --bin exp_video`

use jade_apps::video;
use jade_bench::row;
use jade_sim::{Platform, SimExecutor};

fn main() {
    let frames = 32;
    let (w, h) = (320, 240);
    let reference = video::video_serial(frames, w, h);

    println!("HRV pipeline: {frames} frames of {w}x{h} video\n");
    println!(
        "{}",
        row(
            &[
                "accels".into(),
                "sim time".into(),
                "frames/s".into(),
                "moves".into(),
                "conversions".into()
            ],
            12
        )
    );

    let mut fps = Vec::new();
    for accels in [1usize, 2, 3, 4, 6] {
        let (result, report) = SimExecutor::new(Platform::hrv(accels))
            .run(move |ctx| video::video_pipeline(ctx, frames, w, h));
        assert_eq!(result, reference, "pipeline corrupted a frame");
        let f = frames as f64 / report.time.as_secs_f64();
        fps.push(f);
        println!(
            "{}",
            row(
                &[
                    accels.to_string(),
                    format!("{:.1}ms", report.time.as_millis_f64()),
                    format!("{f:.1}"),
                    report.traffic.moves.to_string(),
                    report.traffic.conversions.to_string(),
                ],
                12
            )
        );
    }

    assert!(fps[1] > fps[0] * 1.4, "second accelerator must raise throughput");
    let last = *fps.last().unwrap();
    assert!(last / fps[2] < 1.15, "throughput must saturate once capture is the bottleneck");
    println!("\nshape: throughput scales with accelerators, then saturates at the");
    println!("SPARC capture stage — and every frame's SPARC->i860 hop is format-converted.");
}
