//! The two-`withonly` video pipeline of §7.2.
//!
//! The capture task is placed on the machine with the frame digitizer
//! (the SPARC host); the transform/display task on any machine with an
//! accelerator — the §4.5 placement construct in action. Each frame
//! is its own shared object, so consecutive frames flow through
//! different accelerators concurrently while the runtime manages all
//! frame movement: "the programmer does not have to write complex
//! message-passing code to initiate the communication between the
//! workstation and the graphics accelerators and to manage the
//! movement of frames through the machine."

use jade_core::prelude::*;

use super::frames::{checksum, make_frame, rle_compress, rle_decompress, transform};

/// Result of a pipeline run: a checksum per displayed frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VideoResult {
    /// Per-frame checksums of the displayed pixels.
    pub displayed: Vec<u64>,
}

/// Work units charged for capturing/compressing a frame in "hardware".
fn capture_cost(w: usize, h: usize) -> f64 {
    (w * h) as f64 * 0.6
}

/// Work units charged for decompress + transform + display.
fn transform_cost(w: usize, h: usize) -> f64 {
    (w * h) as f64 * 3.0
}

/// The Jade video program: a loop with two `withonly-do` constructs
/// per frame.
pub fn video_pipeline<C: JadeCtx>(ctx: &mut C, n_frames: usize, w: usize, h: usize) -> VideoResult {
    let mut results: Vec<Shared<u64>> = Vec::with_capacity(n_frames);
    for f in 0..n_frames {
        let frame: Shared<Vec<u8>> = ctx.create_named(&format!("frame{f}"), Vec::new());
        let shown: Shared<u64> = ctx.create_named(&format!("shown{f}"), 0u64);
        results.push(shown);
        // First construct: acquire a camera frame (compressed in
        // hardware) — must run on the frame source.
        ctx.withonly(
            &format!("Capture({f})"),
            |s| {
                s.rd_wr(frame);
                s.place(Placement::Device(DeviceClass::FrameSource));
            },
            move |c| {
                c.charge(capture_cost(w, h));
                let raw = make_frame(f, w, h);
                *c.wr(&frame) = rle_compress(&raw);
            },
        );
        // Second construct: decompress in software, transform, display
        // on the HDTV — runs on an i860 accelerator.
        ctx.withonly(
            &format!("Transform({f})"),
            |s| {
                s.rd(frame);
                s.rd_wr(shown);
                s.place(Placement::Device(DeviceClass::Accelerator));
            },
            move |c| {
                c.charge(transform_cost(w, h));
                let mut pixels = rle_decompress(&c.rd(&frame));
                transform(&mut pixels);
                *c.wr(&shown) = checksum(&pixels);
            },
        );
    }
    VideoResult { displayed: results.iter().map(|r| *ctx.rd(r)).collect() }
}

/// Serial reference: what the pipeline must display.
pub fn video_serial(n_frames: usize, w: usize, h: usize) -> VideoResult {
    let displayed = (0..n_frames)
        .map(|f| {
            let compressed = rle_compress(&make_frame(f, w, h));
            let mut pixels = rle_decompress(&compressed);
            transform(&mut pixels);
            checksum(&pixels)
        })
        .collect();
    VideoResult { displayed }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_matches_serial_reference() {
        let want = video_serial(6, 64, 48);
        let (got, stats) = jade_core::serial::run(|ctx| video_pipeline(ctx, 6, 64, 48));
        assert_eq!(got, want);
        assert_eq!(stats.tasks_created, 12, "two constructs per frame");
    }

    #[test]
    fn frames_are_independent_in_the_task_graph() {
        let (_, trace) = jade_core::serial::run_traced(|ctx| video_pipeline(ctx, 4, 32, 32));
        // Transform(f) depends only on Capture(f).
        for &t in trace.tasks() {
            let label = trace.label(t).to_string();
            if let Some(f) = label.strip_prefix("Transform(").and_then(|s| s.strip_suffix(")")) {
                let preds: Vec<String> = trace
                    .predecessors(t)
                    .into_iter()
                    .filter(|p| !p.is_root())
                    .map(|p| trace.label(p).to_string())
                    .collect();
                assert_eq!(preds, vec![format!("Capture({f})")]);
            }
        }
    }
}
