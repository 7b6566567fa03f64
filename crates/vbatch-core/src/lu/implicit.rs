//! LU with the paper's *implicit* partial pivoting (Fig. 1, bottom).
//!
//! Key observations from §III-A that make this swap-free scheme work:
//!
//! * the Gauss transformation applied to a row at step `k` depends only
//!   on that row and on the pivot row — not on the row's position;
//! * whether a row must be updated at all is knowable locally: rows that
//!   have already served as a pivot are done, every other row gets a
//!   SCAL of its `k`-th element and an AXPY of its trailing part.
//!
//! So instead of swapping, each row carries a flag `p[r]` — the
//! elimination step at which the row was chosen — and the accumulated
//! permutation is applied in a single pass after the main loop (on the
//! GPU this pass is free: it is folded into the off-load of `L`/`U` from
//! registers to memory). This removes *all* inter-thread communication
//! caused by row swaps, and unlike the Gauss-Huard analogue the per-row
//! work does not depend on the history of pivot choices, so no pivot
//! list must be replicated per thread.
//!
//! On the host the flags are only needed once a step elects a row other
//! than the diagonal: until then [`getrf_implicit_inplace_scratch`]
//! sweeps in order over contiguous tails, and from that step the masked
//! formulation above ([`getrf_implicit_resume_scratch`]) finishes the
//! block, with the same bits either way.

use crate::error::{check_finite, FactorError, FactorResult};
use crate::perm::Permutation;
use crate::scalar::Scalar;

/// Sentinel marking a row that has not yet been selected as a pivot.
const UNPIVOTED: usize = usize::MAX;

/// Factorize the column-major `n x n` matrix `a` in place with implicit
/// partial pivoting. On return `a` holds the combined `L\U` factors *in
/// pivot order* (the final combined row swap has been applied, mirroring
/// the GPU kernel's permuted off-load) and the returned permutation maps
/// elimination steps to original rows.
pub fn getrf_implicit_inplace<T: Scalar>(n: usize, a: &mut [T]) -> FactorResult<Permutation> {
    let mut step_of_row = vec![UNPIVOTED; n];
    let mut col = vec![T::ZERO; n];
    getrf_implicit_inplace_scratch(n, a, &mut step_of_row, &mut col)?;
    Ok(Permutation::from_step_of_row(&step_of_row))
}

/// [`getrf_implicit_inplace`] on caller-provided scratch, for callers
/// that factorize many blocks in a row: `step_of_row` (`len == n`)
/// receives the paper's `p` vector — `step_of_row[r]` is the
/// elimination step at which original row `r` became the pivot, the
/// inverse of the row-of-step sequence the solves take — and `col`
/// (`len >= n`) holds one column during the final row swap. No heap
/// allocation; factors and pivots are those of the allocating form.
///
/// While every step elects the diagonal row — what the diagonally
/// dominant blocks of block-Jacobi and the service always do — nothing
/// has to move and the unpivoted rows are the contiguous tail
/// `k+1..n`, so the step is a plain in-order SCAL and GER over
/// subslices, the lane kernel's wide sweep at one lane. The first step
/// that is anything else (a row below wins, the pivot is zero or not
/// finite) hands the block to the masked formulation,
/// [`getrf_implicit_resume_scratch`], from that step. Per element the
/// sweep performs the masked kernel's operations on its operands, so
/// factors, pivots and [`FactorError`] are bitwise that kernel's.
pub fn getrf_implicit_inplace_scratch<T: Scalar>(
    n: usize,
    a: &mut [T],
    step_of_row: &mut [usize],
    col: &mut [T],
) -> FactorResult<()> {
    debug_assert_eq!(a.len(), n * n);
    debug_assert_eq!(step_of_row.len(), n);
    check_finite(n, a)?;
    for k in 0..n {
        let (done, rest) = a.split_at_mut((k + 1) * n);
        let col_k = &mut done[k * n..];
        // The masked rule adopts the first unpivoted row (the diagonal)
        // and lets a row below win only on a strict `>`, false on NaN
        let d = col_k[k];
        let best = d.abs();
        if best == T::ZERO || !best.is_finite() || col_k[k + 1..].iter().any(|v| v.abs() > best) {
            return getrf_implicit_resume_scratch(n, a, k, step_of_row, col);
        }
        // SCAL over the unpivoted rows k+1..n
        let mults = &mut col_k[k + 1..];
        for m in mults.iter_mut() {
            *m /= d;
        }
        // GER: columns whose pivot-row entry is exactly zero keep their
        // bits (0 * mult + old is not old for -0.0 or an infinite mult)
        for col_j in rest.chunks_exact_mut(n) {
            let pivot_val = col_j[k];
            if pivot_val == T::ZERO {
                continue;
            }
            for (u, &m) in col_j[k + 1..].iter_mut().zip(mults.iter()) {
                *u = (-m).mul_add(pivot_val, *u);
            }
        }
    }
    // every pivot on the diagonal: the combined row swap is the identity
    for (r, p) in step_of_row.iter_mut().enumerate() {
        *p = r;
    }
    Ok(())
}

/// Steps `start..n` of [`getrf_implicit_inplace_scratch`] and its final
/// row swap, on a block whose steps `0..start` have already been
/// eliminated *with the diagonal row as every pivot* (so `a` holds the
/// kernel's own intermediate state: nothing has moved yet) — the one
/// masked formulation of the paper's Fig. 1 (bottom): every step scans
/// all `n` rows and updates those not yet pivoted. The in-order sweeps
/// of [`getrf_implicit_inplace_scratch`] and of the lane kernel hand a
/// block over here at the first step that does not elect the diagonal.
/// `start == 0` is the whole factorization minus the finite pre-scan;
/// after [`crate::error::check_finite`] it is the independent oracle
/// the suites hold both sweeps against.
pub fn getrf_implicit_resume_scratch<T: Scalar>(
    n: usize,
    a: &mut [T],
    start: usize,
    step_of_row: &mut [usize],
    col: &mut [T],
) -> FactorResult<()> {
    debug_assert_eq!(a.len(), n * n);
    debug_assert_eq!(step_of_row.len(), n);
    debug_assert!(col.len() >= n);
    debug_assert!(start <= n);
    // p[r] = elimination step at which original row r became the pivot
    for (r, p) in step_of_row.iter_mut().enumerate() {
        *p = if r < start { r } else { UNPIVOTED };
    }

    for k in start..n {
        // --- implicit pivot selection over the not-yet-pivoted rows ------
        let col_k = &a[k * n..k * n + n];
        let mut ipiv = UNPIVOTED;
        let mut best = T::ZERO;
        for r in 0..n {
            if step_of_row[r] != UNPIVOTED {
                continue; // "abs_vals(p>0) = -1" — exclude pivoted rows
            }
            let av = col_k[r].abs();
            if ipiv == UNPIVOTED || av > best {
                best = av;
                ipiv = r;
            }
        }
        if ipiv == UNPIVOTED || best == T::ZERO || !best.is_finite() {
            return Err(FactorError::SingularPivot { step: k });
        }
        step_of_row[ipiv] = k;

        // --- Gauss transformation on the rows still unpivoted -------------
        let d = a[k * n + ipiv];
        // SCAL: Di(p==0, k) /= d
        for r in 0..n {
            if step_of_row[r] == UNPIVOTED {
                a[k * n + r] /= d;
            }
        }
        // GER: Di(p==0, k+1:n) -= Di(p==0, k) * Di(ipiv, k+1:n)
        for j in k + 1..n {
            let pivot_val = a[j * n + ipiv];
            if pivot_val == T::ZERO {
                continue;
            }
            for r in 0..n {
                if step_of_row[r] == UNPIVOTED {
                    let mult = a[k * n + r];
                    a[j * n + r] = (-mult).mul_add(pivot_val, a[j * n + r]);
                }
            }
        }
    }

    // --- combined row swap: row r moves to position step_of_row[r] -------
    // (the "p(p) = 1:m; Di = Di(p,:)" tail of Fig. 1 bottom)
    let saved = &mut col[..n];
    for j in 0..n {
        let col_j = &mut a[j * n..j * n + n];
        saved.copy_from_slice(col_j);
        for r in 0..n {
            col_j[step_of_row[r]] = saved[r];
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::{lu_residual, DenseMat};
    use crate::lu::explicit::getrf_explicit_inplace;

    fn pseudo_random(n: usize, seed: usize) -> DenseMat<f64> {
        DenseMat::from_fn(n, n, |i, j| {
            let h = (i * 131 + j * 37 + seed * 7919 + 17) % 4096;
            let v = h as f64 / 2048.0 - 1.0;
            if i == j {
                v + 0.05
            } else {
                v
            }
        })
    }

    #[test]
    fn matches_explicit_pivoting_exactly() {
        // With distinct pivot magnitudes both strategies must choose the
        // same pivot sequence, hence identical factors and permutation.
        for n in [1usize, 2, 3, 5, 8, 16, 32] {
            for seed in 0..4 {
                let a = pseudo_random(n, seed);
                let mut lu_e = a.clone();
                let p_e = getrf_explicit_inplace(n, lu_e.as_mut_slice()).unwrap();
                let mut lu_i = a.clone();
                let p_i = getrf_implicit_inplace(n, lu_i.as_mut_slice()).unwrap();
                assert_eq!(p_e.as_slice(), p_i.as_slice(), "n={n} seed={seed}");
                for (x, y) in lu_e.as_slice().iter().zip(lu_i.as_slice()) {
                    assert!(
                        (x - y).abs() < 1e-12,
                        "factor mismatch n={n} seed={seed}: {x} vs {y}"
                    );
                }
            }
        }
    }

    #[test]
    fn residual_small() {
        for n in [2usize, 4, 7, 13, 24, 32] {
            let a = pseudo_random(n, n);
            let mut lu = a.clone();
            let p = getrf_implicit_inplace(n, lu.as_mut_slice()).unwrap();
            let r = lu_residual(&a, &lu, p.as_slice()).to_f64();
            assert!(r < 1e-12, "n={n}: residual {r}");
        }
    }

    #[test]
    fn needs_pivoting_case() {
        let a = DenseMat::from_row_major(3, 3, &[0.0, 1.0, 2.0, 1.0, 0.0, 3.0, 4.0, 5.0, 6.0]);
        let mut lu = a.clone();
        let p = getrf_implicit_inplace(3, lu.as_mut_slice()).unwrap();
        assert!(lu_residual(&a, &lu, p.as_slice()).to_f64() < 1e-14);
        // the first pivot must be row 2 (value 4.0, the column max)
        assert_eq!(p.row_of_step(0), 2);
    }

    #[test]
    fn singular_detected_midway() {
        // rows 0 and 1 are proportional: rank 2, so the last Schur
        // complement entry collapses to zero
        let a = DenseMat::from_row_major(3, 3, &[1.0, 2.0, 3.0, 2.0, 4.0, 6.0, 1.0, 1.0, 1.0]);
        let mut lu = a.clone();
        let e = getrf_implicit_inplace(3, lu.as_mut_slice());
        assert_eq!(e, Err(FactorError::SingularPivot { step: 2 }));
    }

    #[test]
    fn non_finite_input_diagnosed_as_such() {
        let mut a = pseudo_random(4, 1);
        a[(2, 1)] = f64::NAN;
        let mut lu = a.clone();
        assert_eq!(
            getrf_implicit_inplace(4, lu.as_mut_slice()),
            Err(FactorError::NonFinite { row: 2, col: 1 })
        );
        a[(2, 1)] = f64::INFINITY;
        let mut lu = a.clone();
        assert_eq!(
            getrf_implicit_inplace(4, lu.as_mut_slice()),
            Err(FactorError::NonFinite { row: 2, col: 1 })
        );
    }

    /// A block whose first `lead` columns are diagonally dominant (the
    /// full kernel elects the diagonal there) and plain after; with
    /// `dead`, that column is zero, so the factorization dies there.
    fn leading_dominant<T: Scalar>(n: usize, lead: usize, dead: Option<usize>) -> Vec<T> {
        let mut rng = vbatch_rt::SmallRng::seed_from_u64((n * 64 + lead) as u64);
        let mut a = vec![T::ZERO; n * n];
        for j in 0..n {
            for i in 0..n {
                let shift = if i == j && j < lead {
                    n as f64 + 2.0
                } else {
                    0.0
                };
                let v = rng.gen_range(-1.0..1.0) + shift;
                a[j * n + i] = T::from_f64(if dead == Some(j) { 0.0 } else { v });
            }
        }
        a
    }

    /// `lead` in-order steps, spelled out: what the lane kernel's wide
    /// sweep has done to a slot by the time it hands it over.
    fn eliminate_in_order<T: Scalar>(n: usize, a: &mut [T], lead: usize) {
        for k in 0..lead {
            let d = a[k * n + k];
            for r in k + 1..n {
                a[k * n + r] /= d;
            }
            for j in k + 1..n {
                let pivot_val = a[j * n + k];
                if pivot_val == T::ZERO {
                    continue;
                }
                for r in k + 1..n {
                    a[j * n + r] = (-a[k * n + r]).mul_add(pivot_val, a[j * n + r]);
                }
            }
        }
    }

    fn resume_equals_the_full_kernel<T: Scalar>() {
        for n in 1..=33usize {
            for lead in 0..=n {
                // healthy, dying at the hand-over step, dying later
                for dead in [None, Some(lead), Some((lead + n) / 2)] {
                    if dead.is_some_and(|c| c >= n) {
                        continue;
                    }
                    let ctx = format!("n={n} lead={lead} dead={dead:?}");
                    let a = leading_dominant::<T>(n, lead, dead);
                    let mut col = vec![T::ZERO; n];
                    let (mut full, mut full_steps) = (a.clone(), vec![0usize; n]);
                    let want =
                        getrf_implicit_inplace_scratch(n, &mut full, &mut full_steps, &mut col);
                    let (mut part, mut part_steps) = (a, vec![0usize; n]);
                    eliminate_in_order(n, &mut part, lead);
                    let got = getrf_implicit_resume_scratch(
                        n,
                        &mut part,
                        lead,
                        &mut part_steps,
                        &mut col,
                    );
                    assert_eq!(got, want, "{ctx}");
                    if want.is_err() {
                        assert!(dead.is_some(), "{ctx}");
                        continue;
                    }
                    assert!((0..lead).all(|r| full_steps[r] == r), "{ctx}");
                    assert_eq!(part_steps, full_steps, "{ctx}");
                    for (e, (x, y)) in part.iter().zip(&full).enumerate() {
                        assert_eq!(x.to_f64().to_bits(), y.to_f64().to_bits(), "elem {e} {ctx}");
                    }
                }
            }
        }
    }

    #[test]
    fn resume_after_diagonal_steps_equals_the_full_kernel_bitwise() {
        resume_equals_the_full_kernel::<f64>();
        resume_equals_the_full_kernel::<f32>();
    }

    /// Hold the in-order sweep against the masked formulation from step
    /// 0 behind the same finite pre-scan: the `Result`, `step_of_row`
    /// and every element of the block, failures included (a failed
    /// block is left half-eliminated, and the two must agree on how).
    /// Returns the step at which the block left the sweep (`n` when it
    /// never did).
    fn sweep_equals_masked<T: Scalar>(ctx: &str, n: usize, a: &[T]) -> usize {
        let mut col = vec![T::ZERO; n];
        let (mut want, mut want_steps) = (a.to_vec(), vec![7usize; n]);
        let masked = check_finite(n, &want).and_then(|()| {
            getrf_implicit_resume_scratch(n, &mut want, 0, &mut want_steps, &mut col)
        });
        let (mut got, mut got_steps) = (a.to_vec(), vec![7usize; n]);
        let swept = getrf_implicit_inplace_scratch(n, &mut got, &mut got_steps, &mut col);
        assert_eq!(swept, masked, "{ctx}");
        assert_eq!(got_steps, want_steps, "{ctx}");
        for (e, (x, y)) in got.iter().zip(&want).enumerate() {
            assert_eq!(x.to_f64().to_bits(), y.to_f64().to_bits(), "elem {e} {ctx}");
        }
        match masked {
            Ok(()) => (0..n).find(|&k| want_steps[k] != k).unwrap_or(n),
            Err(FactorError::SingularPivot { step }) => step,
            Err(_) => 0,
        }
    }

    /// Orders of the oracle test: every small one, and both sides of
    /// the 16- and 32-element rows.
    const ORACLE_ORDERS: [usize; 13] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17, 32, 33];

    /// Dominant through column `lead` and plain after; column `lead`
    /// itself (when there is a row below) has a zero diagonal and a
    /// large entry under it, so the block leaves the sweep at step
    /// `lead` exactly.
    fn staggered<T: Scalar>(rng: &mut vbatch_rt::SmallRng, n: usize, lead: usize) -> Vec<T> {
        let mut a = vec![0.0f64; n * n];
        for j in 0..n {
            for i in 0..n {
                let shift = if i == j && j < lead {
                    n as f64 + 2.0
                } else {
                    0.0
                };
                a[j * n + i] = rng.gen_range(-1.0..1.0) + shift;
            }
        }
        if lead + 1 < n {
            a[lead * n + lead] = 0.0;
            a[lead * n + lead + 1] = n as f64 + 2.0;
        }
        a.into_iter().map(T::from_f64).collect()
    }

    /// Lower triangular with exact magnitude ties under every diagonal:
    /// no step updates anything (every pivot-row entry right of the
    /// diagonal is zero), so each step meets the tie exactly and the
    /// strict `>` keeps the diagonal.
    fn tied<T: Scalar>(n: usize) -> Vec<T> {
        let mut a = vec![T::ZERO; n * n];
        for k in 0..n {
            let d = T::from_f64(1.0 + k as f64 * 0.25);
            a[k * n + k] = if k % 2 == 0 { d } else { -d };
            for r in k + 1..n {
                a[k * n + r] = if (r + k) % 2 == 0 { d } else { -d };
            }
        }
        a
    }

    /// Dominant, with the zero pattern the sweep's skip exists for:
    /// column `z` is exactly zero in rows `0..=z/2` and its pivot-row
    /// entry of step 0 is huge, so step 0 overflows the rows below
    /// `z/2` that hold `±MAX` to `±Inf` and keeps the rows that hold
    /// `-0.0` (their multiplier is zero); steps `1..=z/2` then meet a
    /// zero pivot-row entry with `±Inf` and `-0.0` below it and
    /// multipliers of both signs. Without the skip, `(-m)·0 + (-0.0)`
    /// is `+0.0` for a negative `m`.
    fn zeros_over_inf<T: Scalar>(rng: &mut vbatch_rt::SmallRng, n: usize) -> Vec<T> {
        let mut a: Vec<T> = vbatch_rt::testgen::dd_dense(rng, n)
            .into_iter()
            .map(T::from_f64)
            .collect();
        let z = n - 1;
        let half = z / 2;
        let max = T::max_value();
        a[z * n] = max * T::from_f64(1.0 / 64.0);
        for r in 1..n {
            a[z * n + r] = if r <= half {
                T::ZERO
            } else {
                match (r - half) % 3 {
                    1 => -T::ZERO,
                    2 => max,
                    _ => -max,
                }
            };
            // multiplier of step 0: zero for the rows that must keep
            // their zeros, and of the sign that overflows the `±MAX` rows
            a[r] = match a[z * n + r] {
                v if v == T::ZERO => T::ZERO,
                v if v > T::ZERO => -T::ONE,
                _ => T::ONE,
            };
        }
        a
    }

    fn sweep_equals_masked_on_every_case<T: Scalar>(tag: &str) {
        let mut rng = vbatch_rt::SmallRng::seed_from_u64(0x5eed);
        for n in ORACLE_ORDERS {
            // dominant blocks never leave the sweep
            for seed in 0..3 {
                let a: Vec<T> = vbatch_rt::testgen::dd_dense(&mut rng, n)
                    .into_iter()
                    .map(T::from_f64)
                    .collect();
                let left = sweep_equals_masked(&format!("{tag} dominant n={n} #{seed}"), n, &a);
                assert_eq!(left, n, "{tag} dominant n={n}");
            }
            // staggered dominance leaves the sweep at every step k < n-1
            // and a zero column at every step
            for k in 0..n {
                let a = staggered::<T>(&mut rng, n, k);
                let left = sweep_equals_masked(&format!("{tag} staggered n={n} k={k}"), n, &a);
                if k + 1 < n {
                    assert_eq!(left, k, "{tag} staggered n={n}");
                }
                let mut a: Vec<T> = vbatch_rt::testgen::dd_dense(&mut rng, n)
                    .into_iter()
                    .map(T::from_f64)
                    .collect();
                a[k * n..(k + 1) * n].fill(T::ZERO);
                let left = sweep_equals_masked(&format!("{tag} zero column n={n} k={k}"), n, &a);
                assert_eq!(left, k, "{tag} zero column n={n}");
            }
            let left = sweep_equals_masked(&format!("{tag} ties n={n}"), n, &tied::<T>(n));
            assert_eq!(left, n, "{tag} ties n={n}");
            if n >= 3 {
                let a = zeros_over_inf::<T>(&mut rng, n);
                assert!(a
                    .iter()
                    .any(|v| v.to_f64().to_bits() == (-0.0f64).to_bits()));
                sweep_equals_masked(&format!("{tag} zeros over inf n={n}"), n, &a);
            }
            // non-finite input: both report the pre-scan's entry
            for bad in [T::from_f64(f64::NAN), T::from_f64(f64::INFINITY)] {
                let mut a: Vec<T> = vbatch_rt::testgen::dd_dense(&mut rng, n)
                    .into_iter()
                    .map(T::from_f64)
                    .collect();
                let at = rng.gen_range(0..n * n);
                a[at] = bad;
                sweep_equals_masked(&format!("{tag} non-finite n={n} at={at}"), n, &a);
            }
        }
    }

    #[test]
    fn in_order_sweep_equals_the_masked_kernel_bitwise() {
        sweep_equals_masked_on_every_case::<f64>("f64");
        sweep_equals_masked_on_every_case::<f32>("f32");
    }

    #[test]
    fn multipliers_bounded_by_one() {
        for seed in 0..6 {
            let n = 16;
            let a = pseudo_random(n, seed + 100);
            let mut lu = a.clone();
            let _ = getrf_implicit_inplace(n, lu.as_mut_slice()).unwrap();
            for j in 0..n {
                for i in j + 1..n {
                    assert!(lu[(i, j)].abs() <= 1.0 + 1e-14);
                }
            }
        }
    }

    #[test]
    fn f32_path_works() {
        let a = DenseMat::<f32>::from_fn(8, 8, |i, j| {
            ((i * 31 + j * 17 + 3) % 64) as f32 / 32.0 - 1.0 + if i == j { 2.0 } else { 0.0 }
        });
        let mut lu = a.clone();
        let p = getrf_implicit_inplace(8, lu.as_mut_slice()).unwrap();
        assert!(lu_residual(&a, &lu, p.as_slice()) < 1e-5);
    }
}
