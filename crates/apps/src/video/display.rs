//! The ordered display tail of the HRV pipeline.
//!
//! Video frames may be *transformed* in any order across accelerators,
//! but they must reach the HDTV monitor in frame order. Expressing
//! that in Jade needs no extra machinery: each `Display(f)` task
//! declares `rd_wr` on the shared monitor object, so the runtime
//! serializes the displays in task-creation (= frame) order while the
//! transforms still overlap freely — a three-construct pipeline.

use jade_core::prelude::*;

use super::frames::{checksum, make_frame, rle_compress, rle_decompress, transform};

/// The simulated HDTV monitor: the display sequence it has shown.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Monitor {
    /// Frame indices in the order they were displayed.
    pub order: Vec<u64>,
    /// Rolling checksum of everything shown.
    pub screen_hash: u64,
}

impl jade_transport::Portable for Monitor {
    fn encode(&self, enc: &mut jade_transport::PortEncoder) {
        self.order.encode(enc);
        enc.put_u64(self.screen_hash);
    }
    fn decode(dec: &mut jade_transport::PortDecoder<'_>) -> jade_transport::DecodeResult<Self> {
        Ok(Monitor { order: Vec::<u64>::decode(dec)?, screen_hash: dec.get_u64()? })
    }
    fn size_hint(&self) -> usize {
        16 + self.order.len() * 8
    }
}

/// The three-construct pipeline: capture (frame source) → transform
/// (any accelerator, unordered) → display (in frame order on the
/// monitor). Returns the monitor state.
pub fn video_pipeline_ordered<C: JadeCtx>(
    ctx: &mut C,
    n_frames: usize,
    w: usize,
    h: usize,
) -> Monitor {
    let monitor: Shared<Monitor> = ctx.create_named("hdtv", Monitor::default());
    for f in 0..n_frames {
        let compressed: Shared<Vec<u8>> = ctx.create_named(&format!("frame{f}"), Vec::new());
        let transformed: Shared<Vec<u8>> = ctx.create_named(&format!("xform{f}"), Vec::new());
        ctx.withonly(
            &format!("Capture({f})"),
            |s| {
                s.rd_wr(compressed);
                s.place(Placement::Device(DeviceClass::FrameSource));
            },
            move |c| {
                c.charge((w * h) as f64 * 0.6);
                *c.wr(&compressed) = rle_compress(&make_frame(f, w, h));
            },
        );
        ctx.withonly(
            &format!("Transform({f})"),
            |s| {
                s.rd(compressed);
                s.rd_wr(transformed);
                s.place(Placement::Device(DeviceClass::Accelerator));
            },
            move |c| {
                c.charge((w * h) as f64 * 3.0);
                let mut pixels = rle_decompress(&c.rd(&compressed));
                transform(&mut pixels);
                *c.wr(&transformed) = pixels;
            },
        );
        // The display conflicts with every other display through the
        // monitor object: strict frame order, no tearing.
        ctx.withonly(
            &format!("Display({f})"),
            |s| {
                s.rd(transformed);
                s.rd_wr(monitor);
                s.place(Placement::Device(DeviceClass::Display));
            },
            move |c| {
                c.charge((w * h) as f64 * 0.2);
                let pixels = c.rd(&transformed);
                let frame_hash = checksum(&pixels);
                let mut m = c.wr(&monitor);
                m.order.push(f as u64);
                m.screen_hash = m.screen_hash.rotate_left(7) ^ frame_hash;
            },
        );
    }
    ctx.rd(&monitor).clone()
}

/// Serial reference for the ordered pipeline.
pub fn video_ordered_serial(n_frames: usize, w: usize, h: usize) -> Monitor {
    let mut m = Monitor::default();
    for f in 0..n_frames {
        let mut pixels = rle_decompress(&rle_compress(&make_frame(f, w, h)));
        transform(&mut pixels);
        m.order.push(f as u64);
        m.screen_hash = m.screen_hash.rotate_left(7) ^ checksum(&pixels);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_pipeline_matches_serial() {
        let want = video_ordered_serial(5, 32, 24);
        let (got, stats) = jade_core::serial::run(|ctx| video_pipeline_ordered(ctx, 5, 32, 24));
        assert_eq!(got, want);
        assert_eq!(got.order, vec![0, 1, 2, 3, 4]);
        assert_eq!(stats.tasks_created, 15, "three constructs per frame");
    }

    #[test]
    fn displays_serialize_but_transforms_do_not() {
        let (_, trace) =
            jade_core::serial::run_traced(|ctx| video_pipeline_ordered(ctx, 3, 16, 16));
        // Display(1) depends on Display(0) (monitor) and Transform(1).
        let find =
            |l: &str| *trace.tasks().iter().find(|t| trace.label(**t) == l).expect("task exists");
        let d1 = find("Display(1)");
        let preds: Vec<String> =
            trace.predecessors(d1).iter().map(|p| trace.label(*p).to_string()).collect();
        assert!(preds.contains(&"Display(0)".to_string()), "preds: {preds:?}");
        assert!(preds.contains(&"Transform(1)".to_string()));
        // Transforms of different frames are independent.
        let t0 = find("Transform(0)");
        let t1 = find("Transform(1)");
        assert!(!trace.successors(t0).contains(&t1));
    }
}
