//! Property-based tests for the sparse substrate: CSR/COO conversion
//! invariants, transpose algebra, SpMV against the dense reference,
//! Matrix Market round-trips and malformed documents, blocking
//! partitions and RCM permutations.

use vbatch_rt::{run_cases, testgen, SmallRng};
use vbatch_sparse::{
    block_coverage, extract_diag_blocks, find_supervariables, is_permutation,
    read_matrix_market_str, reverse_cuthill_mckee, spmv_alloc, supervariable_blocking,
    write_matrix_market_str, BlockPartition, CooMatrix, CsrMatrix, MmError,
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

/// The documents that used to panic: a symmetric banner over a
/// non-square shape (the mirrored push ran out of bounds), dimensions
/// the CSR row pointer cannot be sized from, and value tokens that parse
/// as floats but are not finite (in `f64`, or only in the `f32` read).
#[test]
fn matrix_market_panicking_documents_are_bad_lines() {
    let general = "%%MatrixMarket matrix coordinate real general";
    let symmetric = "%%MatrixMarket matrix coordinate real symmetric";
    for (doc, line) in [
        (format!("{symmetric}\n2 3 1\n1 3 1.0\n"), 2),
        (format!("{general}\n18446744073709551615 1 0\n"), 2),
        (format!("{general}\n1 18446744073709551614 0\n"), 2),
        (format!("{general}\n2147483648 1 0\n"), 2),
        (format!("{general}\n1 1 1\n1 1 nan\n"), 3),
        (format!("{general}\n1 1 1\n1 1 -inf\n"), 3),
        (format!("{general}\n1 1 1\n1 1 1e999\n"), 3),
    ] {
        let err = read_matrix_market_str::<f64>(&doc).unwrap_err();
        assert!(
            matches!(err, MmError::BadLine { line_no, .. } if line_no == line),
            "{err} for\n{doc}"
        );
    }
    let doc = format!("{general}\n1 1 1\n1 1 1e300\n");
    assert!(read_matrix_market_str::<f64>(&doc).is_ok());
    assert!(read_matrix_market_str::<f32>(&doc).is_err());
}

/// A valid Matrix Market document, one line per element: banner, size
/// line, then `entries` entry lines (lower triangle under a symmetric
/// banner, no value field under a pattern one).
struct MmDoc {
    shape: (usize, usize),
    pattern: bool,
    lines: Vec<String>,
}

fn mm_doc(rng: &mut SmallRng) -> MmDoc {
    let (symmetric, pattern) = (rng.gen_bool(0.5), rng.gen_bool(0.3));
    let nrows = rng.gen_range(1usize..9);
    let ncols = if symmetric {
        nrows
    } else {
        rng.gen_range(1usize..9)
    };
    let entries = rng.gen_range(1usize..12);
    let field = if pattern { "pattern" } else { "real" };
    let symmetry = if symmetric { "symmetric" } else { "general" };
    let mut lines = vec![
        format!("%%MatrixMarket matrix coordinate {field} {symmetry}"),
        format!("{nrows} {ncols} {entries}"),
    ];
    for _ in 0..entries {
        let i = rng.gen_range(1usize..nrows + 1);
        let j = rng.gen_range(1usize..if symmetric { i } else { ncols } + 1);
        lines.push(if pattern {
            format!("{i} {j}")
        } else {
            format!("{i} {j} {:e}", rng.gen_range(-9.0..9.0))
        });
    }
    MmDoc {
        shape: (nrows, ncols),
        pattern,
        lines,
    }
}

/// What the reader may answer to a mutated document.
#[derive(Clone, Copy, Debug)]
enum Expect {
    /// A matrix of the declared shape, or any typed error.
    ShapeOrError,
    /// Either typed error.
    Error,
    BadHeader,
    BadLine,
}

/// Cut `line` short of its last byte, anywhere from empty on.
fn truncate(rng: &mut SmallRng, line: &mut String) {
    line.truncate(rng.gen_range(0usize..line.len()));
}

#[test]
fn malformed_matrix_market_is_a_typed_error_never_a_panic() {
    run_cases("malformed_matrix_market", 400, |rng, case| {
        let mut doc = mm_doc(rng);
        let (nrows, ncols) = doc.shape;
        let entry = rng.gen_range(2usize..doc.lines.len());
        let fields: Vec<String> = doc.lines[entry].split(' ').map(String::from).collect();
        let expect = match case % 10 {
            0 => Expect::ShapeOrError, // the valid document itself
            1 => {
                truncate(rng, &mut doc.lines[0]);
                Expect::BadHeader
            }
            2 => {
                // a cut size line has fewer fields or a smaller count
                truncate(rng, &mut doc.lines[1]);
                Expect::Error
            }
            3 => {
                // `1.5e0` cut to `1.` still reads, a cut index may too
                truncate(rng, &mut doc.lines[entry]);
                Expect::ShapeOrError
            }
            4 => {
                let keep = if doc.pattern { 1 } else { 2 };
                doc.lines[entry] = fields[..keep].join(" ");
                Expect::BadLine
            }
            5 => {
                let (zero_row, zero_col) = (format!("0 {}", fields[1]), format!("{} 0", fields[0]));
                let (past_row, past_col) = (
                    format!("{} {}", nrows + 1, fields[1]),
                    format!("{} {}", fields[0], ncols + 1),
                );
                let bad = [zero_row, zero_col, past_row, past_col];
                let value = fields.get(2).map_or(String::new(), |v| format!(" {v}"));
                doc.lines[entry] = format!("{}{value}", bad[rng.gen_range(0usize..4)]);
                Expect::BadLine
            }
            6 => {
                doc.lines.push(doc.lines[entry].clone());
                Expect::BadHeader
            }
            7 => {
                doc.lines.remove(entry);
                Expect::BadHeader
            }
            8 => {
                let huge = ["18446744073709551615", "9223372036854775808", "2147483648"];
                let huge = huge[rng.gen_range(0usize..3)];
                doc.lines[1] = if rng.gen_bool(0.5) {
                    format!("{huge} {ncols} {}", doc.lines.len() - 2)
                } else {
                    format!("{nrows} {huge} {}", doc.lines.len() - 2)
                };
                Expect::BadLine
            }
            _ if doc.pattern => Expect::ShapeOrError, // no value field to poison
            _ => {
                let token = ["nan", "NaN", "inf", "-inf", "infinity", "1e999"];
                let token = token[rng.gen_range(0usize..6)];
                doc.lines[entry] = format!("{} {} {token}", fields[0], fields[1]);
                Expect::BadLine
            }
        };
        let text = doc.lines.join("\n");
        use Expect::*;
        match (read_matrix_market_str::<f64>(&text), expect) {
            (Ok(a), ShapeOrError) => assert_eq!((a.nrows(), a.ncols()), doc.shape, "{text}"),
            (Err(MmError::BadHeader(_)), ShapeOrError | Error | BadHeader) => {}
            (Err(MmError::BadLine { .. }), ShapeOrError | Error | BadLine) => {}
            (got, _) => panic!("case {case}: expected {expect:?}, got {got:?} for\n{text}"),
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
