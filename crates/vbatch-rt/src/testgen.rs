//! Shared test-input generators for the property suites.
//!
//! Every crate's `tests/proptests.rs` used to carry its own copy of
//! the same few builders (diagonally dominant dense blocks, ragged
//! batch shapes, sparse triplet systems). They live here now, in the
//! substrate crate, expressed as **raw data** — column-major `Vec<f64>`
//! blocks, size lists, and `(row, col, value)` triplet lists — because
//! `vbatch-rt` sits below the crates that define `DenseMat`,
//! `MatrixBatch` and `CsrMatrix`. Each consumer wraps the raw data
//! into its own container with a one-line adapter.
//!
//! Builder families:
//!
//! * dense blocks — [`dd_dense`], [`well_conditioned_dense`],
//!   [`hashed_dense`], [`singular_dense`];
//! * batches — [`ragged_sizes`], [`dd_batch`], [`uniform_dd_batch`];
//! * sparse systems — [`coo_entries`], [`extra_couplings`],
//!   [`dd_system_triplets`], [`spd_system_triplets`],
//!   [`block_system_triplets`];
//! * banded systems (SPIKE substrate) — [`banded_system_triplets`],
//!   [`block_tridiag_triplets`].

use crate::rng::SmallRng;

/// A variable-size batch as raw data: per-block orders and per-block
/// column-major `n × n` element vectors.
#[derive(Clone, Debug)]
pub struct RawBatch {
    /// Block orders.
    pub sizes: Vec<usize>,
    /// One column-major `n*n` vector per block.
    pub blocks: Vec<Vec<f64>>,
}

impl RawBatch {
    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.sizes.len()
    }

    /// Whether the batch has no blocks.
    pub fn is_empty(&self) -> bool {
        self.sizes.is_empty()
    }
}

/// Diagonally dominant random block (column-major): off-diagonal
/// entries uniform in `[-1, 1)`, diagonal shifted by `2 + n` — the
/// standard "always factorizes, any pivoting" test block.
pub fn dd_dense(rng: &mut SmallRng, n: usize) -> Vec<f64> {
    let mut m = vec![0.0f64; n * n];
    for c in 0..n {
        for r in 0..n {
            let v = rng.gen_range(-1.0..1.0);
            m[c * n + r] = if r == c { v + 2.0 + n as f64 } else { v };
        }
    }
    m
}

/// Well-conditioned random block (column-major): entries uniform in
/// `[-1, 1)` with the diagonal pushed away from zero by `±n` (sign
/// preserved). Unlike [`dd_dense`] the diagonal keeps its sign, so
/// pivoting still has real choices to make.
pub fn well_conditioned_dense(rng: &mut SmallRng, n: usize) -> Vec<f64> {
    let mut m: Vec<f64> = (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    for i in 0..n {
        let d = m[i * n + i];
        m[i * n + i] = d + if d >= 0.0 { n as f64 } else { -(n as f64) };
    }
    m
}

/// Deterministic hash-based block (column-major): entries derived from
/// `(i, j, seed)` through a multiplicative hash, diagonal shifted by
/// `+3.5`. Reproducible without an RNG — the form the differential
/// suites use when two implementations must see bit-identical inputs.
pub fn hashed_dense(n: usize, seed: u64) -> Vec<f64> {
    let mut m = vec![0.0f64; n * n];
    for j in 0..n {
        for i in 0..n {
            let h =
                (i.wrapping_mul(2654435761) ^ j.wrapping_mul(0x9e3779b9) ^ seed as usize) % 4096;
            let v = h as f64 / 2048.0 - 1.0 + if i == j { 3.5 } else { 0.0 };
            m[j * n + i] = v;
        }
    }
    m
}

/// Exactly singular block: a [`dd_dense`] base with its last row
/// zeroed.
pub fn singular_dense(rng: &mut SmallRng, n: usize) -> Vec<f64> {
    let mut m = dd_dense(rng, n);
    let r = n - 1;
    for c in 0..n {
        m[c * n + r] = 0.0;
    }
    m
}

/// A ragged batch shape: `1..=max_count` blocks of order `1..=max_n`.
pub fn ragged_sizes(rng: &mut SmallRng, max_n: usize, max_count: usize) -> Vec<usize> {
    let count = rng.gen_range(1usize..max_count + 1);
    (0..count)
        .map(|_| rng.gen_range(1usize..max_n + 1))
        .collect()
}

/// Boundaries of a random ragged partition of `0..n`
/// (`ptr[0] = 0 < … < ptr[last] = n`): blocks of `1..=5` rows, about
/// four in ten forced to a single row.
pub fn ragged_partition_ptr(rng: &mut SmallRng, n: usize) -> Vec<usize> {
    let mut ptr = vec![0usize];
    let mut at = 0;
    while at < n {
        let size = if rng.gen_bool(0.4) {
            1
        } else {
            rng.gen_range(1usize..6)
        };
        at = (at + size).min(n);
        ptr.push(at);
    }
    ptr
}

/// A ragged batch of [`dd_dense`] blocks.
pub fn dd_batch(rng: &mut SmallRng, max_n: usize, max_count: usize) -> RawBatch {
    let sizes = ragged_sizes(rng, max_n, max_count);
    dd_batch_of(rng, &sizes)
}

/// [`dd_dense`] blocks for the exact shape `sizes`.
pub fn dd_batch_of(rng: &mut SmallRng, sizes: &[usize]) -> RawBatch {
    let blocks = sizes.iter().map(|&n| dd_dense(rng, n)).collect();
    RawBatch {
        sizes: sizes.to_vec(),
        blocks,
    }
}

/// A uniform batch (`count` blocks, all order `n`) of [`dd_dense`]
/// blocks.
pub fn uniform_dd_batch(rng: &mut SmallRng, n: usize, count: usize) -> RawBatch {
    dd_batch_of(rng, &vec![n; count])
}

/// Random sparse square matrix as raw triplets, duplicates allowed
/// (conversion to CSR must sum them): `2..=20` rows, up to 79 entries
/// uniform in `[-2, 2)`. Pair with a per-suite diagonal fix-up.
pub fn coo_entries(rng: &mut SmallRng) -> (usize, Vec<(usize, usize, f64)>) {
    let n = rng.gen_range(2usize..21);
    let count = rng.gen_range(0usize..80);
    let entries = (0..count)
        .map(|_| {
            (
                rng.gen_range(0..n),
                rng.gen_range(0..n),
                rng.gen_range(-2.0f64..2.0),
            )
        })
        .collect();
    (n, entries)
}

/// Up to `max_count` random off-structure couplings with indices in
/// `0..idx_bound` and values in `[-val, val)` — the "extra" input of
/// the system builders below.
pub fn extra_couplings(
    rng: &mut SmallRng,
    max_count: usize,
    idx_bound: usize,
    val: f64,
) -> Vec<(usize, usize, f64)> {
    let count = rng.gen_range(0usize..max_count.max(1));
    (0..count)
        .map(|_| {
            (
                rng.gen_range(0usize..idx_bound),
                rng.gen_range(0usize..idx_bound),
                rng.gen_range(-val..val),
            )
        })
        .collect()
}

/// Random sparse diagonally-dominant nonsymmetric `n × n` system as
/// triplets: the `extra` couplings (indices folded modulo `n`,
/// diagonal hits dropped), a `-0.5 / -0.4` chain coupling guaranteeing
/// irreducibility, and a dominant diagonal.
pub fn dd_system_triplets(n: usize, extra: &[(usize, usize, f64)]) -> Vec<(usize, usize, f64)> {
    let mut out = Vec::new();
    let mut rowsum = vec![0.0f64; n];
    for &(i, j, v) in extra {
        let (i, j) = (i % n, j % n);
        if i != j {
            out.push((i, j, v));
            rowsum[i] += v.abs();
        }
    }
    for i in 0..n.saturating_sub(1) {
        out.push((i, i + 1, -0.5));
        out.push((i + 1, i, -0.4));
        rowsum[i] += 0.5;
        rowsum[i + 1] += 0.4;
    }
    for (i, s) in rowsum.iter().enumerate() {
        out.push((i, i, s.max(0.3) * 1.05));
    }
    out
}

/// Symmetric positive-definite variant of [`dd_system_triplets`]:
/// couplings mirrored across the diagonal, symmetric chain, strictly
/// dominant diagonal — SPD by Gershgorin.
pub fn spd_system_triplets(n: usize, extra: &[(usize, usize, f64)]) -> Vec<(usize, usize, f64)> {
    let mut out = Vec::new();
    let mut rowsum = vec![0.0f64; n];
    for &(i, j, v) in extra {
        let (i, j) = (i % n, j % n);
        if i != j {
            out.push((i, j, v));
            out.push((j, i, v));
            rowsum[i] += v.abs();
            rowsum[j] += v.abs();
        }
    }
    for i in 0..n.saturating_sub(1) {
        out.push((i, i + 1, -0.5));
        out.push((i + 1, i, -0.5));
        rowsum[i] += 0.5;
        rowsum[i + 1] += 0.5;
    }
    for (i, s) in rowsum.iter().enumerate() {
        out.push((i, i, s.max(0.3) * 1.05));
    }
    out
}

/// Block-structured sparse system as triplets: `nodes` dense `dof ×
/// dof` node blocks on the diagonal, the `extra` couplings kept only
/// when they cross node boundaries, and a dominant diagonal — the
/// shape block-Jacobi partitioning is designed for.
pub fn block_system_triplets(
    nodes: usize,
    dof: usize,
    extra: &[(usize, usize, f64)],
) -> Vec<(usize, usize, f64)> {
    let n = nodes * dof;
    let mut out = Vec::new();
    let mut rowsum = vec![0.0f64; n];
    for node in 0..nodes {
        for i in 0..dof {
            for j in 0..dof {
                if i != j {
                    let v = ((node * 31 + i * 7 + j * 3) % 13) as f64 / 13.0 - 0.5;
                    out.push((node * dof + i, node * dof + j, v));
                    rowsum[node * dof + i] += v.abs();
                }
            }
        }
    }
    for &(i, j, v) in extra {
        let (i, j) = (i % n, j % n);
        if i / dof != j / dof {
            out.push((i, j, v));
            rowsum[i] += v.abs();
        }
    }
    for (i, s) in rowsum.iter().enumerate() {
        out.push((i, i, s.max(0.4) * 1.1));
    }
    out
}

/// Deterministic banded `n × n` system as triplets: a dense band of
/// half-bandwidth `bw` (every in-band position holds a hashed nonzero),
/// unit diagonal, and each row's off-diagonal entries rescaled so their
/// absolute sum is exactly `1 / dominance`. `dominance > 1` therefore
/// gives a strictly diagonally dominant row (Gershgorin margin
/// `1 - 1/dominance`), while `dominance < 1` deliberately breaks
/// dominance — the conditioning knob of the SPIKE property suites.
/// Reproducible from `(n, bw, dominance, seed)` alone.
pub fn banded_system_triplets(
    n: usize,
    bw: usize,
    dominance: f64,
    seed: u64,
) -> Vec<(usize, usize, f64)> {
    assert!(dominance > 0.0, "dominance must be positive");
    let mut out = Vec::new();
    for i in 0..n {
        let lo = i.saturating_sub(bw);
        let hi = (i + bw).min(n.saturating_sub(1));
        let mut row = Vec::new();
        let mut rowsum = 0.0f64;
        for j in lo..=hi {
            if j == i {
                continue;
            }
            let h = (i
                .wrapping_mul(2654435761)
                .wrapping_add(j.wrapping_mul(0x9e3779b9))
                ^ (seed as usize).wrapping_mul(0x85ebca6b))
                % 1024;
            // (h - 511.5)/512 is never exactly zero, so the band stays
            // structurally dense and `bandwidth()` reports `bw`.
            let v = (h as f64 - 511.5) / 512.0;
            row.push((i, j, v));
            rowsum += v.abs();
        }
        if rowsum > 0.0 {
            let scale = 1.0 / (dominance * rowsum);
            for (i, j, v) in row {
                out.push((i, j, v * scale));
            }
        }
        out.push((i, i, 1.0));
    }
    out
}

/// Deterministic diagonally-dominant block-tridiagonal system as
/// triplets: `count` dense diagonal blocks of order `n` (hashed
/// entries, diagonal shifted by `n + 2`) coupled to their neighbours
/// through diagonal coupling blocks of value `coupling`. With
/// `coupling = -0.25` this reproduces, entry for entry, the matrix the
/// benchmark suite has always used for block-ILU(0) and SPIKE
/// throughput columns; property suites reuse it so benches and tests
/// share one source of cases. The natural partition is `count` blocks
/// of order `n`, and the structural half-bandwidth is exactly `n`.
pub fn block_tridiag_triplets(count: usize, n: usize, coupling: f64) -> Vec<(usize, usize, f64)> {
    let mut out = Vec::new();
    for blk in 0..count {
        let base = blk * n;
        for i in 0..n {
            for j in 0..n {
                let h = (i * 131 + j * 37 + blk * 17 + 3) % 1024;
                let v = h as f64 / 512.0 - 1.0 + if i == j { (n + 2) as f64 } else { 0.0 };
                out.push((base + i, base + j, v));
            }
            if blk + 1 < count {
                out.push((base + i, base + n + i, coupling));
                out.push((base + n + i, base + i, coupling));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(0xbadc0ffee)
    }

    fn is_dd(n: usize, m: &[f64]) -> bool {
        (0..n).all(|r| {
            let off: f64 = (0..n).filter(|&c| c != r).map(|c| m[c * n + r].abs()).sum();
            m[r * n + r].abs() > off
        })
    }

    #[test]
    fn dd_blocks_are_diagonally_dominant() {
        let mut rng = rng();
        for n in 1..12 {
            assert!(is_dd(n, &dd_dense(&mut rng, n)), "n={n}");
        }
    }

    #[test]
    fn hashed_blocks_are_deterministic() {
        assert_eq!(hashed_dense(7, 42), hashed_dense(7, 42));
        assert_ne!(hashed_dense(7, 42), hashed_dense(7, 43));
    }

    #[test]
    fn singular_blocks_have_a_zero_row() {
        let mut rng = rng();
        let n = 6;
        let m = singular_dense(&mut rng, n);
        assert!((0..n).all(|c| m[c * n + n - 1] == 0.0));
    }

    #[test]
    fn system_triplets_are_row_dominant() {
        let n = 9;
        let extra = [(1, 5, 0.7), (8, 0, -0.9), (3, 3, 4.0)];
        for trips in [
            dd_system_triplets(n, &extra),
            spd_system_triplets(n, &extra),
            block_system_triplets(3, 3, &extra),
        ] {
            let mut diag = vec![0.0f64; n];
            let mut off = vec![0.0f64; n];
            for &(i, j, v) in &trips {
                if i == j {
                    diag[i] += v;
                } else {
                    off[i] += v.abs();
                }
            }
            for i in 0..n {
                assert!(diag[i] > off[i], "row {i}: {} vs {}", diag[i], off[i]);
            }
        }
    }

    #[test]
    fn banded_triplets_are_banded_and_dominance_controlled() {
        let (n, bw) = (23, 3);
        let trips = banded_system_triplets(n, bw, 2.0, 7);
        assert_eq!(trips, banded_system_triplets(n, bw, 2.0, 7));
        assert_ne!(trips, banded_system_triplets(n, bw, 2.0, 8));
        let mut max_off = 0usize;
        let mut offsum = vec![0.0f64; n];
        let mut diag = vec![0.0f64; n];
        for &(i, j, v) in &trips {
            if i == j {
                diag[i] = v;
            } else {
                assert!(v != 0.0);
                max_off = max_off.max(i.abs_diff(j));
                offsum[i] += v.abs();
            }
        }
        // dense band: every interior row reaches the full half-bandwidth
        assert_eq!(max_off, bw);
        for i in 0..n {
            assert_eq!(diag[i], 1.0);
            assert!((offsum[i] - 0.5).abs() < 1e-12, "row {i}: {}", offsum[i]);
        }
        // dominance < 1 breaks row dominance
        let weak = banded_system_triplets(n, bw, 0.5, 7);
        let mut offsum = vec![0.0f64; n];
        for &(i, j, v) in &weak {
            if i != j {
                offsum[i] += v.abs();
            }
        }
        assert!(offsum.iter().any(|&s| s > 1.0));
    }

    #[test]
    fn block_tridiag_triplets_match_the_published_hash() {
        let (count, n) = (3, 4);
        let trips = block_tridiag_triplets(count, n, -0.25);
        let total = count * n;
        let mut dense = vec![0.0f64; total * total];
        for &(i, j, v) in &trips {
            dense[i * total + j] += v;
        }
        // spot-check the hash formula and the coupling pattern
        let h = 2 * 131 + 37 + 17 + 3; // = 319, already under the 1024 modulus
        assert_eq!(dense[(n + 2) * total + (n + 1)], h as f64 / 512.0 - 1.0);
        assert_eq!(dense[total + n + 1], -0.25);
        assert_eq!(dense[(n + 1) * total + 1], -0.25);
        assert_eq!(dense[2 * n], 0.0); // beyond the coupling diagonal
                                       // diagonally dominant throughout
        for i in 0..total {
            let off: f64 = (0..total)
                .filter(|&j| j != i)
                .map(|j| dense[i * total + j].abs())
                .sum();
            assert!(dense[i * total + i] > off, "row {i}");
        }
    }

    #[test]
    fn ragged_batches_respect_bounds() {
        let mut rng = rng();
        for _ in 0..50 {
            let b = dd_batch(&mut rng, 9, 14);
            assert!(!b.is_empty() && b.len() <= 14);
            for (i, &n) in b.sizes.iter().enumerate() {
                assert!((1..=9).contains(&n));
                assert_eq!(b.blocks[i].len(), n * n);
            }
        }
    }
}
