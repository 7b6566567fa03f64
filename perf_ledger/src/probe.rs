//! Host probe for the traced run: what this machine can stream and
//! multiply-add, measured in the same process as the layer numbers so
//! the `*_stream_frac` / `*_peak_frac` ratios share their denominator's
//! conditions. Both probes run on every core the library may use
//! (`host.nproc` scoped threads) over `vbatch_rt::simd` lanes at the
//! width the `CpuSimd` kernels select.

use crate::layers::{lane_width, nproc, Chunk};
use std::hint::black_box;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct HostProbe {
    pub nproc: usize,
    pub lane_width: usize,
    /// Triad bandwidth, computed bytes (2 reads + 1 write per element;
    /// write-allocate traffic is not counted).
    pub stream_gbps: f64,
    /// Size of each of the three triad arrays.
    pub stream_array_mb: f64,
    /// Last-level cache the process reports (largest cache of cpu0).
    pub llc_mb: f64,
    /// The arrays wanted 4× the LLC but were cut to fit ⅛ of RAM.
    pub capped: bool,
    pub fma_gflops: f64,
}

const MIB: f64 = 1024.0 * 1024.0;

fn parse_size(s: &str) -> Option<u64> {
    let s = s.trim();
    let (num, mult) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1u64 << 10),
        b'M' => (&s[..s.len() - 1], 1 << 20),
        b'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    num.parse::<u64>().ok().map(|n| n * mult)
}

/// Largest cache cpu0 reports, or 32 MiB when sysfs is unreadable.
fn llc_bytes() -> u64 {
    (0..8)
        .filter_map(|i| {
            let path = format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size");
            parse_size(&std::fs::read_to_string(path).ok()?)
        })
        .max()
        .unwrap_or(32 << 20)
}

/// `MemTotal` of /proc/meminfo, or 4 GiB when unreadable.
fn ram_bytes() -> u64 {
    std::fs::read_to_string("/proc/meminfo")
        .ok()
        .and_then(|t| {
            let line = t.lines().find(|l| l.starts_with("MemTotal:"))?;
            let kb = line.split_whitespace().nth(1)?.parse::<u64>().ok()?;
            Some(kb << 10)
        })
        .unwrap_or(4 << 30)
}

fn triad_pass<const W: usize>(a: &mut [f64], b: &[f64], c: &[f64], s: f64) {
    let sv = Chunk::<f64, W>::splat(s);
    for ((ac, bc), cc) in a
        .chunks_exact_mut(W)
        .zip(b.chunks_exact(W))
        .zip(c.chunks_exact(W))
    {
        Chunk::<f64, W>::load(cc)
            .mul_add(sv, Chunk::load(bc))
            .store(ac);
    }
}

fn fma_burst<const W: usize>(iters: usize) -> f64 {
    // eight independent accumulator chains hide the FMA latency
    let x = Chunk::<f64, W>::splat(black_box(1.000_000_1));
    let y = Chunk::<f64, W>::splat(black_box(1e-9));
    let mut acc = [Chunk::<f64, W>::splat(black_box(0.5)); 8];
    for _ in 0..iters {
        for a in &mut acc {
            *a = a.mul_add(x, y);
        }
    }
    black_box(acc);
    (2 * W * acc.len() * iters) as f64
}

macro_rules! at_width {
    ($w:expr, $f:ident ( $($arg:expr),* )) => {
        match $w {
            8 => $f::<8>($($arg),*),
            4 => $f::<4>($($arg),*),
            2 => $f::<2>($($arg),*),
            _ => $f::<1>($($arg),*),
        }
    };
}

fn stream(nproc: usize, width: usize, elems: usize) -> f64 {
    // one triple of arrays per thread; the first pass also pays the page
    // faults, which is why the best of three passes is reported
    let per = (elems / nproc / 8 * 8).max(8);
    let mut best = 0.0f64;
    let mut arrays: Vec<(Vec<f64>, Vec<f64>, Vec<f64>)> = (0..nproc)
        .map(|_| (vec![0.0; per], vec![1.0; per], vec![2.0; per]))
        .collect();
    for _pass in 0..3 {
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for (a, b, c) in arrays.iter_mut() {
                s.spawn(move || at_width!(width, triad_pass(a, b, c, black_box(3.0))));
            }
        });
        let secs = t0.elapsed().as_secs_f64();
        best = best.max((3 * 8 * per * nproc) as f64 / secs / 1e9);
    }
    assert_eq!(
        black_box(&arrays)[0].0[per - 1],
        7.0,
        "triad computed b + 3c"
    );
    best
}

fn fma(nproc: usize, width: usize) -> f64 {
    let iters = 4_000_000;
    let t0 = Instant::now();
    let flops: f64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..nproc)
            .map(|_| s.spawn(move || at_width!(width, fma_burst(iters))))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("fma probe thread panicked"))
            .sum()
    });
    flops / t0.elapsed().as_secs_f64() / 1e9
}

pub fn probe() -> HostProbe {
    let nproc = nproc();
    let width = lane_width();
    let llc = llc_bytes();
    let want = 4 * llc;
    let cap = ram_bytes() / 8 / 3;
    let array_bytes = want.min(cap);
    let stream_gbps = stream(nproc, width, (array_bytes / 8) as usize);
    HostProbe {
        nproc,
        lane_width: width,
        stream_gbps,
        stream_array_mb: array_bytes as f64 / MIB,
        llc_mb: llc as f64 / MIB,
        capped: cap < want,
        fma_gflops: fma(nproc, width),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_sizes_parse() {
        assert_eq!(parse_size("4096K\n"), Some(4 << 20));
        assert_eq!(parse_size("260M"), Some(260 << 20));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size("x"), None);
    }

    #[test]
    fn triad_and_fma_kernels_compute() {
        let (b, c) = (vec![1.0; 64], vec![2.0; 64]);
        let mut a = vec![0.0; 64];
        triad_pass::<4>(&mut a, &b, &c, 3.0);
        assert!(a.iter().all(|&v| v == 7.0));
        assert_eq!(fma_burst::<2>(10), 320.0);
        assert!(stream(1, 2, 1 << 12) > 0.0);
    }
}
