//! Property-based tests for the sparse substrate: CSR/COO conversion
//! invariants, transpose algebra, SpMV against the dense reference,
//! Matrix Market round-trips, blocking partitions and RCM permutations.

use vbatch_rt::{run_cases, testgen, SmallRng};
use vbatch_sparse::{
    block_coverage, extract_diag_blocks, find_supervariables, is_permutation,
    read_matrix_market_str, reverse_cuthill_mckee, spmv_alloc, spmv_par, supervariable_blocking,
    write_matrix_market_str, BlockPartition, CooMatrix, CsrMatrix,
};

/// A random sparse square matrix as triplets (duplicates allowed — the
/// conversion must sum them); see [`testgen::coo_entries`].
fn coo_matrix(rng: &mut SmallRng) -> (usize, Vec<(usize, usize, f64)>) {
    testgen::coo_entries(rng)
}

fn build(n: usize, entries: &[(usize, usize, f64)]) -> CsrMatrix<f64> {
    let mut c = CooMatrix::new(n, n);
    for &(i, j, v) in entries {
        c.push(i, j, v);
    }
    // ensure nonzero diagonal so downstream consumers stay happy
    for i in 0..n {
        c.push(i, i, 1.0 + i as f64 * 0.01);
    }
    c.to_csr()
}

#[test]
fn coo_to_csr_preserves_sums() {
    run_cases("coo_to_csr_preserves_sums", 64, |rng, _case| {
        let (n, entries) = coo_matrix(rng);
        let a = build(n, &entries);
        // reference accumulation in a dense map
        let mut dense = vec![0.0f64; n * n];
        for &(i, j, v) in &entries {
            dense[i * n + j] += v;
        }
        for i in 0..n {
            dense[i * n + i] += 1.0 + i as f64 * 0.01;
        }
        for i in 0..n {
            for j in 0..n {
                let want = dense[i * n + j];
                assert!((a.get(i, j) - want).abs() < 1e-12);
            }
        }
        // structural invariants
        assert_eq!(*a.row_ptr().last().unwrap(), a.nnz());
        for r in 0..n {
            let cols = a.row_cols(r);
            for w in cols.windows(2) {
                assert!(w[0] < w[1]);
            }
        }
    });
}

#[test]
fn transpose_is_involution() {
    run_cases("transpose_is_involution", 64, |rng, _case| {
        let (n, entries) = coo_matrix(rng);
        let a = build(n, &entries);
        assert_eq!(a.transpose().transpose(), a);
    });
}

#[test]
fn spmv_matches_dense() {
    run_cases("spmv_matches_dense", 64, |rng, _case| {
        let (n, entries) = coo_matrix(rng);
        let x_seed = rng.next_u64();
        let a = build(n, &entries);
        let x: Vec<f64> = (0..n)
            .map(|i| ((i as u64 ^ x_seed) % 17) as f64 / 8.0 - 1.0)
            .collect();
        let y = spmv_alloc(&a, &x);
        let yd = a.to_dense().matvec(&x);
        for (p, q) in y.iter().zip(&yd) {
            assert!((p - q).abs() < 1e-10);
        }
        // parallel SpMV is bit-identical
        let mut yp = vec![0.0; n];
        spmv_par(&a, &x, &mut yp);
        assert_eq!(y, yp);
    });
}

#[test]
fn matrix_market_roundtrip() {
    run_cases("matrix_market_roundtrip", 64, |rng, _case| {
        let (n, entries) = coo_matrix(rng);
        let a = build(n, &entries);
        let text = write_matrix_market_str(&a);
        let b: CsrMatrix<f64> = read_matrix_market_str(&text).unwrap();
        assert_eq!(a.nrows(), b.nrows());
        assert_eq!(a.nnz(), b.nnz());
        for i in 0..n {
            for j in 0..n {
                assert!((a.get(i, j) - b.get(i, j)).abs() < 1e-12);
            }
        }
    });
}

#[test]
fn symmetric_permutation_is_similarity() {
    run_cases("symmetric_permutation_is_similarity", 64, |rng, _case| {
        let (n, entries) = coo_matrix(rng);
        let shift = rng.next_u64() as usize;
        let a = build(n, &entries);
        // a rotation permutation
        let perm: Vec<usize> = (0..n).map(|i| (i + shift) % n).collect();
        let p = a.permute_symmetric(&perm);
        assert_eq!(p.nnz(), a.nnz());
        // entries move consistently: P(i,j) = A(perm[i], perm[j])... via inverse
        let mut inv = vec![0usize; n];
        for (k, &v) in perm.iter().enumerate() {
            inv[v] = k;
        }
        for i in 0..n {
            for j in 0..n {
                assert!((p.get(inv[i], inv[j]) - a.get(i, j)).abs() < 1e-12);
            }
        }
    });
}

#[test]
fn rcm_always_yields_permutation() {
    run_cases("rcm_always_yields_permutation", 64, |rng, _case| {
        let (n, entries) = coo_matrix(rng);
        let a = build(n, &entries);
        let p = reverse_cuthill_mckee(&a);
        assert_eq!(p.len(), n);
        assert!(is_permutation(&p));
    });
}

#[test]
fn blocking_partitions_are_valid() {
    run_cases("blocking_partitions_are_valid", 64, |rng, _case| {
        let (n, entries) = coo_matrix(rng);
        let bound = rng.gen_range(1usize..9);
        let a = build(n, &entries);
        let part = supervariable_blocking(&a, bound);
        assert_eq!(part.total(), n);
        assert!(part.max_size() <= bound);
        // block_of is consistent with ranges
        for b in 0..part.len() {
            for r in part.range(b) {
                assert_eq!(part.block_of(r), b);
            }
        }
        // coverage is a fraction
        let cov = block_coverage(&a, &part);
        assert!((0.0..=1.0).contains(&cov));
    });
}

#[test]
fn supervariables_never_split_identical_runs() {
    run_cases(
        "supervariables_never_split_identical_runs",
        64,
        |rng, _case| {
            let (n, entries) = coo_matrix(rng);
            let a = build(n, &entries);
            let sv = find_supervariables(&a);
            assert_eq!(sv.total(), n);
            // rows inside one supervariable share the pattern; rows across a
            // boundary differ
            for b in 0..sv.len() {
                let r0 = sv.range(b).start;
                for r in sv.range(b) {
                    assert_eq!(a.row_cols(r), a.row_cols(r0));
                }
                if b + 1 < sv.len() {
                    let next = sv.range(b + 1).start;
                    assert_ne!(a.row_cols(next - 1), a.row_cols(next));
                }
            }
        },
    );
}

#[test]
fn extraction_matches_dense_slices() {
    run_cases("extraction_matches_dense_slices", 64, |rng, _case| {
        let (n, entries) = coo_matrix(rng);
        let bound = rng.gen_range(1usize..7);
        let a = build(n, &entries);
        let part = BlockPartition::uniform(n, bound);
        let batch = extract_diag_blocks(&a, &part);
        let d = a.to_dense();
        for b in 0..part.len() {
            let r = part.range(b);
            let m = batch.block_as_mat(b);
            for (bi, i) in r.clone().enumerate() {
                for (bj, j) in r.clone().enumerate() {
                    assert_eq!(m[(bi, bj)], d[(i, j)]);
                }
            }
        }
    });
}

/// The level schedules built for the block triangular sweeps must form
/// a valid topological partition of the block dependency DAG: every
/// block row appears in exactly one level, every dependency sits in a
/// strictly earlier level, and each row's level is *minimal* (one more
/// than its deepest dependency, so no artificial serialization).
#[test]
fn level_schedules_topologically_partition_the_block_dag() {
    use vbatch_sparse::{BlockPattern, LevelSchedule, TriKind};
    run_cases(
        "level_schedules_topologically_partition_the_block_dag",
        64,
        |rng, _case| {
            let (n, entries) = coo_matrix(rng);
            let bound = rng.gen_range(1usize..7);
            let a = build(n, &entries);
            let part = BlockPartition::uniform(n, bound);
            let pattern = BlockPattern::build(&a, &part);
            for kind in [TriKind::Lower, TriKind::Upper] {
                let sched = match kind {
                    TriKind::Lower => LevelSchedule::lower(&pattern),
                    TriKind::Upper => LevelSchedule::upper(&pattern),
                };
                assert_eq!(sched.num_rows(), part.len());
                // partition: every block row in exactly one level
                let mut seen = vec![false; part.len()];
                for l in 0..sched.num_levels() {
                    assert!(!sched.level(l).is_empty(), "level {l} is empty");
                    for &i in sched.level(l) {
                        assert!(!seen[i], "row {i} scheduled twice");
                        seen[i] = true;
                        assert_eq!(sched.level_of(i), l);
                    }
                }
                assert!(seen.iter().all(|&s| s), "some row was never scheduled");
                // topological order + minimality against the dependency
                // set of the sweep direction
                for i in 0..part.len() {
                    let deps: &[usize] = match kind {
                        TriKind::Lower => pattern.lower_cols(i),
                        TriKind::Upper => pattern.upper_cols(i),
                    };
                    let mut deepest = None::<usize>;
                    for &j in deps {
                        assert!(
                            sched.level_of(j) < sched.level_of(i),
                            "dependency {j} of row {i} not in an earlier level"
                        );
                        deepest = Some(
                            deepest.map_or(sched.level_of(j), |d: usize| d.max(sched.level_of(j))),
                        );
                    }
                    let expect = deepest.map_or(0, |d| d + 1);
                    assert_eq!(
                        sched.level_of(i),
                        expect,
                        "row {i} not at its minimal level"
                    );
                }
            }
        },
    );
}

/// `BlockPattern::build` classifies nonzeros through the row→block
/// table; the oracle asks `BlockPartition::block_of` (binary search)
/// for every entry of a dense boolean block map. Ragged partitions with
/// size-1 blocks; the matrix keeps no forced diagonal, so some block
/// rows have no off-diagonal (or no) entries at all.
#[test]
fn block_pattern_matches_block_of_per_entry_oracle() {
    use vbatch_sparse::BlockPattern;
    run_cases(
        "block_pattern_matches_block_of_per_entry_oracle",
        96,
        |rng, _case| {
            let (n, entries) = coo_matrix(rng);
            let mut coo = CooMatrix::new(n, n);
            for &(i, j, v) in &entries {
                coo.push(i, j, v);
            }
            let a = coo.to_csr();
            let part = BlockPartition::from_ptr(testgen::ragged_partition_ptr(rng, n));
            let nb = part.len();
            assert_eq!(part.row_to_block().len(), n);
            let mut present = vec![false; nb * nb];
            for r in 0..n {
                for &c in a.row_cols(r) {
                    present[part.block_of(r) * nb + part.block_of(c)] = true;
                }
            }
            let pattern = BlockPattern::build(&a, &part);
            assert_eq!(pattern.len(), nb);
            for r in 0..n {
                assert_eq!(pattern.block_of(r), part.block_of(r));
            }
            for i in 0..nb {
                let want: Vec<usize> = (0..nb).filter(|&j| present[i * nb + j]).collect();
                // sorted and duplicate-free by construction of `want`
                assert_eq!(pattern.row_cols(i), &want[..], "block row {i}");
                let lower: Vec<usize> = want.iter().copied().filter(|&j| j < i).collect();
                let upper: Vec<usize> = want.iter().copied().filter(|&j| j > i).collect();
                assert_eq!(pattern.lower_cols(i), &lower[..]);
                assert_eq!(pattern.upper_cols(i), &upper[..]);
            }
            assert_eq!(pattern.nnz_blocks(), present.iter().filter(|&&p| p).count());
        },
    );
}
