//! SPIKE partitioning substrate (Li/Serban/Negrut splitting): banded
//! detection plus partition extraction for the split solver in
//! `vbatch-solver::spike`.
//!
//! A banded matrix with half-bandwidth `k`, cut into `p` contiguous
//! partitions each of order at least `2k`, decomposes as
//!
//! ```text
//! A = D + couplings,   D = diag(A_1, ..., A_p)
//! ```
//!
//! where every off-partition nonzero lives in one of the `p - 1`
//! coupling corners: the **upper tip** `B_j` (bottom-right `k × k`
//! corner of partition `j` against the first `k` columns of partition
//! `j + 1`) or the **lower tip** `C_j` (top-left corner of partition
//! `j + 1` against the last `k` columns of partition `j`). This module
//! validates that structure ([`SpikePartition`]) and gathers the
//! partitions and tips into variable-size [`MatrixBatch`]es
//! ([`extract_spike_blocks`]) so the batched LU pipeline can factorize
//! all partitions at once.

use std::fmt;

use crate::blocking::BlockPartition;
use crate::csr::CsrMatrix;
use vbatch_core::{MatrixBatch, Scalar};

/// Failures of SPIKE partition validation and extraction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpikeError {
    /// The matrix is not square.
    NotSquare {
        /// Row count.
        rows: usize,
        /// Column count.
        cols: usize,
    },
    /// The partition does not tile the matrix rows.
    PartitionMismatch {
        /// Rows covered by the partition.
        covered: usize,
        /// Matrix order.
        n: usize,
    },
    /// Some partition is smaller than `2 * bandwidth`, so its top and
    /// bottom coupling windows would overlap (or a tip would span more
    /// than one neighbour).
    PartitionTooSmall {
        /// Index of the offending partition.
        block: usize,
        /// Its size.
        size: usize,
        /// The half-bandwidth the partition must accommodate.
        bandwidth: usize,
    },
    /// A nonzero falls outside the diagonal partitions and their
    /// coupling tips — the matrix is not banded with the claimed
    /// half-bandwidth relative to this partition.
    OutOfBand {
        /// Row of the offending entry.
        row: usize,
        /// Column of the offending entry.
        col: usize,
        /// The half-bandwidth the structure was validated against.
        bandwidth: usize,
    },
}

impl fmt::Display for SpikeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpikeError::NotSquare { rows, cols } => {
                write!(f, "matrix is {rows}x{cols}, expected square")
            }
            SpikeError::PartitionMismatch { covered, n } => {
                write!(f, "partition covers {covered} rows of a {n}-row matrix")
            }
            SpikeError::PartitionTooSmall {
                block,
                size,
                bandwidth,
            } => write!(
                f,
                "partition {block} has {size} rows, need >= 2*bandwidth = {}",
                2 * bandwidth
            ),
            SpikeError::OutOfBand {
                row,
                col,
                bandwidth,
            } => write!(
                f,
                "entry ({row}, {col}) outside the diagonal partitions and \
                 their {bandwidth}-wide coupling tips"
            ),
        }
    }
}

impl std::error::Error for SpikeError {}

/// A contiguous row partition paired with the structural half-bandwidth
/// it must accommodate — the geometry of one SPIKE split.
///
/// Invariant (checked on construction): when there is more than one
/// partition and `bandwidth > 0`, every partition has at least
/// `2 * bandwidth` rows, so the coupling tips of adjacent partitions
/// occupy disjoint row windows and each tip couples exactly one
/// neighbour.
#[derive(Clone, Debug)]
pub struct SpikePartition {
    part: BlockPartition,
    bandwidth: usize,
}

impl SpikePartition {
    /// Wrap an explicit partition, validating the `2 * bandwidth`
    /// minimum partition size.
    pub fn new(part: BlockPartition, bandwidth: usize) -> Result<Self, SpikeError> {
        if part.len() > 1 && bandwidth > 0 {
            for b in 0..part.len() {
                if part.size(b) < 2 * bandwidth {
                    return Err(SpikeError::PartitionTooSmall {
                        block: b,
                        size: part.size(b),
                        bandwidth,
                    });
                }
            }
        }
        Ok(SpikePartition { part, bandwidth })
    }

    /// A near-uniform split of `n` rows into `partitions` pieces
    /// (sizes differ by at most one), validated against `bandwidth`.
    pub fn uniform(n: usize, partitions: usize, bandwidth: usize) -> Result<Self, SpikeError> {
        assert!(partitions >= 1, "need at least one partition");
        assert!(n >= partitions, "more partitions than rows");
        let base = n / partitions;
        let extra = n % partitions;
        let mut ptr = Vec::with_capacity(partitions + 1);
        ptr.push(0usize);
        for b in 0..partitions {
            let sz = base + usize::from(b < extra);
            ptr.push(ptr[b] + sz);
        }
        SpikePartition::new(BlockPartition::from_ptr(ptr), bandwidth)
    }

    /// Banded detection: measure the structural half-bandwidth of `a`
    /// and build the near-uniform `partitions`-way split for it.
    pub fn detect<T: Scalar>(a: &CsrMatrix<T>, partitions: usize) -> Result<Self, SpikeError> {
        if a.nrows() != a.ncols() {
            return Err(SpikeError::NotSquare {
                rows: a.nrows(),
                cols: a.ncols(),
            });
        }
        SpikePartition::uniform(a.nrows(), partitions, a.bandwidth())
    }

    /// Largest partition count a near-uniform split of `n` rows can
    /// sustain for this half-bandwidth (every piece keeps `>= 2 *
    /// bandwidth` rows). At least 1.
    pub fn max_partitions(n: usize, bandwidth: usize) -> usize {
        if bandwidth == 0 {
            return n.max(1);
        }
        (n / (2 * bandwidth)).max(1)
    }

    /// The row partition.
    pub fn part(&self) -> &BlockPartition {
        &self.part
    }

    /// The half-bandwidth the split was validated against.
    pub fn bandwidth(&self) -> usize {
        self.bandwidth
    }

    /// Number of partitions `p`.
    pub fn len(&self) -> usize {
        self.part.len()
    }

    /// Whether the split has no partitions.
    pub fn is_empty(&self) -> bool {
        self.part.len() == 0
    }

    /// Number of coupled interfaces: `p - 1` when the bandwidth is
    /// nonzero, else 0 (a block-diagonal matrix has no coupling).
    pub fn interfaces(&self) -> usize {
        if self.bandwidth == 0 {
            0
        } else {
            self.part.len().saturating_sub(1)
        }
    }
}

/// The dense blocks of one SPIKE split: the `p` diagonal partitions
/// plus the `p - 1` coupling tips on each side, all column-major and
/// vbatch-sized so they feed straight into the batched pipeline.
#[derive(Clone, Debug, PartialEq)]
pub struct SpikeBlocks<T: Scalar> {
    /// The `p` diagonal partition blocks `A_j`.
    pub diag: MatrixBatch<T>,
    /// The `p - 1` upper tips `B_j` (`k × k`): bottom-right corner of
    /// partition `j` coupling into the top of partition `j + 1`.
    pub upper_tips: MatrixBatch<T>,
    /// The `p - 1` lower tips `C_j` (`k × k`): top-left corner of
    /// partition `j + 1` coupling back into the bottom of partition
    /// `j`.
    pub lower_tips: MatrixBatch<T>,
}

/// Extract the SPIKE blocks of `a` under `sp`, validating along the
/// way that every nonzero is covered (diagonal partition or coupling
/// tip) — the extraction *is* the banded-structure proof.
pub fn extract_spike_blocks<T: Scalar>(
    a: &CsrMatrix<T>,
    sp: &SpikePartition,
) -> Result<SpikeBlocks<T>, SpikeError> {
    let n = a.nrows();
    if n != a.ncols() {
        return Err(SpikeError::NotSquare {
            rows: n,
            cols: a.ncols(),
        });
    }
    let part = sp.part();
    if part.total() != n {
        return Err(SpikeError::PartitionMismatch {
            covered: part.total(),
            n,
        });
    }
    let _span = vbatch_rt::span!("sparse.spike_extract", part.len());
    let k = sp.bandwidth();
    let p = part.len();
    let tip_sizes = vec![k; sp.interfaces()];
    let mut out = SpikeBlocks {
        diag: MatrixBatch::zeros(&part.sizes()),
        upper_tips: MatrixBatch::zeros(&tip_sizes),
        lower_tips: MatrixBatch::zeros(&tip_sizes),
    };
    for r in 0..n {
        let b = part.block_of(r);
        let range = part.range(b);
        let bs = range.end - range.start;
        for (&c, &v) in a.row_cols(r).iter().zip(a.row_vals(r)) {
            if c >= range.start && c < range.end {
                out.diag.block_mut(b)[(c - range.start) * bs + (r - range.start)] = v;
            } else if k > 0
                && b + 1 < p
                && r >= range.end - k
                && c >= range.end
                && c < range.end + k
            {
                // upper tip B_b: local row counts from `end - k`
                out.upper_tips.block_mut(b)[(c - range.end) * k + (r - (range.end - k))] = v;
            } else if k > 0
                && b > 0
                && r < range.start + k
                && c < range.start
                && c >= range.start - k
            {
                // lower tip C_{b-1}: local col counts from `start - k`
                out.lower_tips.block_mut(b - 1)[(c - (range.start - k)) * k + (r - range.start)] =
                    v;
            } else {
                return Err(SpikeError::OutOfBand {
                    row: r,
                    col: c,
                    bandwidth: k,
                });
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;
    use vbatch_rt::testgen;

    fn banded(n: usize, bw: usize, dominance: f64, seed: u64) -> CsrMatrix<f64> {
        let mut coo = CooMatrix::new(n, n);
        for (i, j, v) in testgen::banded_system_triplets(n, bw, dominance, seed) {
            coo.push(i, j, v);
        }
        coo.to_csr()
    }

    #[test]
    fn detect_measures_bandwidth_and_validates_sizes() {
        let a = banded(24, 2, 2.0, 3);
        let sp = SpikePartition::detect(&a, 4).unwrap();
        assert_eq!(sp.bandwidth(), 2);
        assert_eq!(sp.len(), 4);
        assert_eq!(sp.interfaces(), 3);
        assert_eq!(sp.part().sizes(), vec![6, 6, 6, 6]);
        // 24 rows of bandwidth 2 support at most 6 partitions
        assert_eq!(SpikePartition::max_partitions(24, 2), 6);
        assert!(SpikePartition::detect(&a, 7).is_err());
        assert!(matches!(
            SpikePartition::uniform(24, 8, 2),
            Err(SpikeError::PartitionTooSmall { .. })
        ));
    }

    #[test]
    fn extraction_reassembles_the_matrix() {
        let a = banded(30, 3, 1.5, 11);
        let sp = SpikePartition::detect(&a, 3).unwrap();
        let blocks = extract_spike_blocks(&a, &sp).unwrap();
        let d = a.to_dense();
        let part = sp.part();
        let k = sp.bandwidth();
        let mut rebuilt = vec![0.0f64; 30 * 30];
        for b in 0..part.len() {
            let r = part.range(b);
            let bs = r.end - r.start;
            let blk = blocks.diag.block(b);
            for c in 0..bs {
                for i in 0..bs {
                    rebuilt[(r.start + i) * 30 + (r.start + c)] = blk[c * bs + i];
                }
            }
            if b + 1 < part.len() {
                let up = blocks.upper_tips.block(b);
                let lo = blocks.lower_tips.block(b);
                for c in 0..k {
                    for i in 0..k {
                        rebuilt[(r.end - k + i) * 30 + (r.end + c)] += up[c * k + i];
                        rebuilt[(r.end + i) * 30 + (r.end - k + c)] += lo[c * k + i];
                    }
                }
            }
        }
        for i in 0..30 {
            for j in 0..30 {
                assert_eq!(rebuilt[i * 30 + j], d[(i, j)], "({i},{j})");
            }
        }
    }

    #[test]
    fn out_of_band_entries_are_rejected() {
        let mut coo = CooMatrix::new(8, 8);
        for i in 0..8 {
            coo.push(i, i, 2.0);
        }
        coo.push(0, 7, 1.0); // far off-band
        let a = coo.to_csr();
        // claim bandwidth 1 even though the matrix violates it
        let sp = SpikePartition::uniform(8, 2, 1).unwrap();
        assert_eq!(
            extract_spike_blocks(&a, &sp),
            Err(SpikeError::OutOfBand {
                row: 0,
                col: 7,
                bandwidth: 1
            })
        );
    }

    #[test]
    fn zero_bandwidth_has_no_interfaces() {
        let mut coo = CooMatrix::new(6, 6);
        for i in 0..6 {
            coo.push(i, i, 1.0 + i as f64);
        }
        let a = coo.to_csr();
        let sp = SpikePartition::detect(&a, 3).unwrap();
        assert_eq!(sp.bandwidth(), 0);
        assert_eq!(sp.interfaces(), 0);
        let blocks = extract_spike_blocks(&a, &sp).unwrap();
        assert_eq!(blocks.upper_tips.len(), 0);
        assert_eq!(blocks.diag.len(), 3);
    }
}
