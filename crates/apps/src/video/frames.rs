//! Frame synthesis, run-length compression, and the digital
//! transformation the accelerators apply.

/// Synthesize frame `idx` of a `w`×`h` 8-bit video: a moving gradient
/// with flat regions (so RLE actually compresses). Deterministic.
pub fn make_frame(idx: usize, w: usize, h: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(w * h);
    for y in 0..h {
        for x in 0..w {
            let band = (y / 8) * 8; // flat horizontal bands
            let v = ((x / 16) * 16 + band + idx * 3) % 256;
            out.push(v as u8);
        }
    }
    out
}

/// Byte-wise run-length encoding: pairs of (count, value).
pub fn rle_compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < data.len() {
        let v = data[i];
        let mut run = 1usize;
        while i + run < data.len() && data[i + run] == v && run < 255 {
            run += 1;
        }
        out.push(run as u8);
        out.push(v);
        i += run;
    }
    out
}

/// Inverse of [`rle_compress`].
pub fn rle_decompress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    for chunk in data.chunks_exact(2) {
        out.extend(std::iter::repeat_n(chunk[1], chunk[0] as usize));
    }
    out
}

/// The "simple digital transformation": invert and gamma-ish shift.
pub fn transform(pixels: &mut [u8]) {
    for p in pixels.iter_mut() {
        *p = 255 - (*p >> 1);
    }
}

/// Checksum used to verify a displayed frame across executors.
pub fn checksum(pixels: &[u8]) -> u64 {
    pixels
        .iter()
        .fold(1469598103934665603u64, |acc, &b| (acc ^ b as u64).wrapping_mul(1099511628211))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rle_roundtrips_every_frame() {
        for idx in 0..5 {
            let f = make_frame(idx, 64, 48);
            let c = rle_compress(&f);
            assert_eq!(rle_decompress(&c), f);
            assert!(c.len() < f.len(), "frame should compress: {} vs {}", c.len(), f.len());
        }
    }

    #[test]
    fn rle_handles_degenerate_inputs() {
        assert!(rle_compress(&[]).is_empty());
        let single = rle_compress(&[7]);
        assert_eq!(rle_decompress(&single), vec![7]);
        // A long run splits at 255.
        let long = vec![9u8; 600];
        assert_eq!(rle_decompress(&rle_compress(&long)), long);
    }

    #[test]
    fn transform_is_deterministic_and_changes_pixels() {
        let mut a = make_frame(0, 32, 32);
        let b = a.clone();
        transform(&mut a);
        assert_ne!(a, b);
        let mut c = b.clone();
        transform(&mut c);
        assert_eq!(a, c);
    }

    #[test]
    fn checksums_distinguish_frames() {
        let a = checksum(&make_frame(0, 64, 48));
        let b = checksum(&make_frame(1, 64, 48));
        assert_ne!(a, b);
    }
}
