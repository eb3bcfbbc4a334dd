//! Seeded input generation owned by the benchmark: a small PRNG, a
//! zipfian rank sampler, key scrambling and self-verifying values.
//!
//! Nothing here depends on the repository's workload crates, so a change
//! to them cannot change what the benchmark measures.

/// SplitMix64: tiny, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    /// An independent stream derived from this seed and a label.
    pub fn derive(seed: u64, label: u64) -> Self {
        let mut r = Rng::new(seed.wrapping_mul(0xbf58_476d_1ce4_e5b9) ^ label);
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// Zipfian sampler over ranks `0..n` with `P(r) ∝ 1/(r+1)^theta`, by
/// binary search in the exact cumulative distribution.
#[derive(Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, theta: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for r in 0..n {
            total += 1.0 / ((r + 1) as f64).powf(theta);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// A seeded permutation: maps a popularity rank to a key id, so which
/// keys are hot changes with the seed while the popularity curve does not.
pub fn permutation(n: usize, rng: &mut Rng) -> Vec<u32> {
    let mut p: Vec<u32> = (0..n as u32).collect();
    rng.shuffle(&mut p);
    p
}

fn fnv1a(parts: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for &b in *part {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        h ^= 0xff;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// A self-verifying value of `len` bytes (at least the header):
/// `key|version|checksum|padding`, where the checksum covers key, version
/// and padding, and the padding is derived from key and version.
pub fn make_value(key: &str, version: u64, len: usize) -> Vec<u8> {
    let ver = version.to_string();
    let header = key.len() + ver.len() + 16 + 3;
    let pad_len = len.saturating_sub(header);
    let mut state = fnv1a(&[key.as_bytes(), ver.as_bytes()]);
    let mut pad = Vec::with_capacity(pad_len);
    for _ in 0..pad_len {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        pad.push(b'a' + (state % 26) as u8);
    }
    let sum = fnv1a(&[key.as_bytes(), ver.as_bytes(), &pad]);
    let mut out = Vec::with_capacity(header + pad_len);
    out.extend_from_slice(key.as_bytes());
    out.push(b'|');
    out.extend_from_slice(ver.as_bytes());
    out.push(b'|');
    out.extend_from_slice(format!("{sum:016x}").as_bytes());
    out.push(b'|');
    out.extend_from_slice(&pad);
    out
}

/// Parse and verify a value made by [`make_value`]: `(key, version)` when
/// the checksum holds.
pub fn parse_value(bytes: &[u8]) -> Option<(&str, u64)> {
    let text = std::str::from_utf8(bytes).ok()?;
    let mut parts = text.splitn(4, '|');
    let key = parts.next()?;
    let ver = parts.next()?;
    let sum = u64::from_str_radix(parts.next()?, 16).ok()?;
    let pad = parts.next()?;
    let version = ver.parse().ok()?;
    (fnv1a(&[key.as_bytes(), ver.as_bytes(), pad.as_bytes()]) == sum).then_some((key, version))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_verify_and_detect_damage() {
        let v = make_value("k1", 7, 200);
        assert_eq!(v.len(), 200);
        assert_eq!(parse_value(&v), Some(("k1", 7)));
        let mut bad = v.clone();
        bad[150] ^= 1;
        assert_eq!(parse_value(&bad), None);
    }

    #[test]
    fn same_seed_same_stream() {
        let z = Zipf::new(1000, 0.99);
        let mut a = Rng::derive(5, 1);
        let mut b = Rng::derive(5, 1);
        let xs: Vec<usize> = (0..100).map(|_| z.sample(&mut a)).collect();
        let ys: Vec<usize> = (0..100).map(|_| z.sample(&mut b)).collect();
        assert_eq!(xs, ys);
        assert!(
            xs.iter().filter(|&&r| r < 10).count() > 20,
            "zipf is skewed"
        );
    }
}
