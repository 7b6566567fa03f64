//! Gauss-Huard factorization with column pivoting (paper §II-C, baseline
//! from the authors' companion ICCS'17 work, refs \[7\]/\[8\]).
//!
//! Huard's method ("la méthode simplex sans inverse explicite") reduces
//! `A` to the identity with the same `2/3 n^3` flop count as LU, but
//! organizes the elimination so that step `k` touches only rows `0..=k`:
//!
//! 1. *row update* (lazy): `M(k, k..n) -= M(k, 0..k) · M(0..k, k..n)` —
//!    the left part `M(k, 0..k)` is left in place; because rows `0..k`
//!    already carry an implicit identity in their leading columns, those
//!    entries are exactly the multipliers the solve phase must replay;
//! 2. *column pivoting*: the largest entry of `M(k, k..n)` is brought to
//!    the diagonal by a column swap (exchanging unknowns, recorded in a
//!    permutation — numerically as stable as partial row pivoting, see
//!    Dekker/Hoffmann/Potma 1997);
//! 3. *scale*: `M(k, k+1..n) /= M(k,k)` (the pivot stays stored);
//! 4. *eliminate above*: `M(0..k, k+1..n) -= M(0..k, k) · M(k, k+1..n)`,
//!    with the column of multipliers `M(0..k, k)` again left in place for
//!    the solve.
//!
//! The solve replays steps 1/3/4 on the right-hand side and un-permutes
//! the unknowns at the end.
//!
//! **Gauss-Huard-T** stores the working matrix transposed so that the
//! factor accesses of the *solve* become contiguous (on the GPU:
//! coalesced); the price is paid once, at factorization time, through
//! strided writes. Numerically both layouts are identical; the layout
//! only changes which loops stride — which is exactly what the SIMT cost
//! model measures.

use crate::dense::DenseMat;
use crate::error::{check_finite, FactorError, FactorResult};
use crate::perm::Permutation;
use crate::scalar::Scalar;
use crate::widen::Stored;

/// Storage layout of the Gauss-Huard working matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GhLayout {
    /// Column-major working matrix (plain Gauss-Huard).
    Normal,
    /// Transposed working matrix ("Gauss-Huard-T"): solve-friendly.
    Transposed,
}

/// The Gauss-Huard decomposition of one small block.
#[derive(Clone, Debug)]
pub struct GhFactors<T: Scalar> {
    /// Working matrix after the reduction, holding pivots, scaled rows
    /// and all multipliers. Stored in the layout given by `layout` (for
    /// `Transposed` this is `M^T`).
    pub m: DenseMat<T>,
    /// Column permutation in `col_of_step` form: the unknown eliminated
    /// at step `k` is the original variable `q.row_of_step(k)`.
    pub q: Permutation,
    /// Storage layout of `m`.
    pub layout: GhLayout,
}

#[inline]
fn get<T: Scalar>(m: &DenseMat<T>, layout: GhLayout, i: usize, j: usize) -> T {
    match layout {
        GhLayout::Normal => m[(i, j)],
        GhLayout::Transposed => m[(j, i)],
    }
}

#[inline]
fn set<T: Scalar>(m: &mut DenseMat<T>, layout: GhLayout, i: usize, j: usize, v: T) {
    match layout {
        GhLayout::Normal => m[(i, j)] = v,
        GhLayout::Transposed => m[(j, i)] = v,
    }
}

/// Factorize `a` with the Gauss-Huard method and column pivoting.
pub fn gh_factorize<T: Scalar>(a: &DenseMat<T>, layout: GhLayout) -> FactorResult<GhFactors<T>> {
    if !a.is_square() {
        return Err(FactorError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    let n = a.rows();
    check_finite(n, a.as_slice())?;
    let mut m = match layout {
        GhLayout::Normal => a.clone(),
        GhLayout::Transposed => a.transpose(),
    };
    let mut q = Permutation::identity(n);

    for k in 0..n {
        // (1) lazy row update of row k, columns k..n
        for j in 0..k {
            let mkj = get(&m, layout, k, j);
            if mkj == T::ZERO {
                continue;
            }
            for c in k..n {
                let v = get(&m, layout, k, c) - mkj * get(&m, layout, j, c);
                set(&mut m, layout, k, c, v);
            }
        }
        // (2) column pivot: argmax |M(k, k..n)|
        let mut cpiv = k;
        let mut best = get(&m, layout, k, k).abs();
        for c in k + 1..n {
            let av = get(&m, layout, k, c).abs();
            if av > best {
                best = av;
                cpiv = c;
            }
        }
        if best == T::ZERO || !best.is_finite() {
            return Err(FactorError::SingularPivot { step: k });
        }
        if cpiv != k {
            match layout {
                GhLayout::Normal => m.swap_cols(k, cpiv),
                GhLayout::Transposed => m.swap_rows(k, cpiv),
            }
            q.swap(k, cpiv);
        }
        // (3) scale the trailing part of row k
        let d = get(&m, layout, k, k);
        for c in k + 1..n {
            let v = get(&m, layout, k, c) / d;
            set(&mut m, layout, k, c, v);
        }
        // (4) eliminate above the diagonal in columns k+1..n
        for i in 0..k {
            let mik = get(&m, layout, i, k);
            if mik == T::ZERO {
                continue;
            }
            for c in k + 1..n {
                let v = get(&m, layout, i, c) - mik * get(&m, layout, k, c);
                set(&mut m, layout, i, c, v);
            }
        }
    }
    Ok(GhFactors { m, q, layout })
}

impl<T: Scalar> GhFactors<T> {
    /// Matrix order.
    pub fn order(&self) -> usize {
        self.m.rows()
    }

    /// Solve `A x = b` in place by replaying the recorded transformations
    /// on `b` and un-permuting the unknowns.
    pub fn solve_inplace(&self, b: &mut [T]) {
        let mut scratch = vec![T::ZERO; self.order()];
        self.solve_inplace_scratch(b, &mut scratch);
    }

    /// [`GhFactors::solve_inplace`] with caller-provided scratch
    /// (`scratch.len() >= n`) for the un-permute copy, so the
    /// steady-state apply performs no heap allocation. Bitwise
    /// identical to the allocating form. The right-hand side may be in
    /// a wider working scalar `W` than the factors are stored in
    /// (see [`crate::widen`]); arithmetic is always in `W`.
    #[inline]
    pub fn solve_inplace_scratch<W: Scalar>(&self, b: &mut [W], scratch: &mut [W])
    where
        T: Stored<W>,
    {
        let n = self.order();
        debug_assert_eq!(b.len(), n);
        debug_assert!(scratch.len() >= n);
        let at = |i: usize, j: usize| get(&self.m, self.layout, i, j).widen();
        for k in 0..n {
            // replay (1): subtract the multipliers of the lazy row update
            let mut acc = b[k];
            for j in 0..k {
                acc = (-at(k, j)).mul_add(b[j], acc);
            }
            // replay (3): the pivot division
            acc /= at(k, k);
            b[k] = acc;
            // replay (4): eliminate above
            for i in 0..k {
                b[i] = (-at(i, k)).mul_add(acc, b[i]);
            }
        }
        // un-permute: the value computed at position k belongs to the
        // original unknown q(k)
        let y = &mut scratch[..n];
        y.copy_from_slice(b);
        for k in 0..n {
            b[self.q.row_of_step(k)] = y[k];
        }
    }

    /// Solve into a fresh vector.
    pub fn solve(&self, b: &[T]) -> Vec<T> {
        let mut x = b.to_vec();
        self.solve_inplace(&mut x);
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lu::{getrf, PivotStrategy};

    fn pseudo_random(n: usize, seed: usize) -> DenseMat<f64> {
        DenseMat::from_fn(n, n, |i, j| {
            let h = (i * 449 + j * 61 + seed * 7907 + 5) % 4096;
            let v = h as f64 / 2048.0 - 1.0;
            if i == j {
                v + 0.07
            } else {
                v
            }
        })
    }

    #[test]
    fn gh_solves_known_system() {
        let a = DenseMat::from_row_major(3, 3, &[2.0, 1.0, 1.0, 1.0, 3.0, 2.0, 1.0, 0.0, 0.5]);
        let x_true = vec![1.0, 2.0, -1.0];
        let b = a.matvec(&x_true);
        let f = gh_factorize(&a, GhLayout::Normal).unwrap();
        let x = f.solve(&b);
        for i in 0..3 {
            assert!((x[i] - x_true[i]).abs() < 1e-12, "x[{i}] = {}", x[i]);
        }
    }

    #[test]
    fn gh_matches_lu_solution() {
        for n in [1usize, 2, 3, 4, 8, 16, 24, 32] {
            let a = pseudo_random(n, n + 1);
            let x_true: Vec<f64> = (0..n).map(|i| (i as f64 - 1.5) / 3.0).collect();
            let b = a.matvec(&x_true);
            let lu = getrf(&a, PivotStrategy::Implicit).unwrap();
            let gh = gh_factorize(&a, GhLayout::Normal).unwrap();
            let x_lu = lu.solve(&b);
            let x_gh = gh.solve(&b);
            for i in 0..n {
                assert!(
                    (x_lu[i] - x_gh[i]).abs() < 1e-8,
                    "n={n} i={i}: LU {} vs GH {}",
                    x_lu[i],
                    x_gh[i]
                );
            }
        }
    }

    #[test]
    fn transposed_layout_identical_numerics() {
        for n in [2usize, 5, 9, 17, 32] {
            let a = pseudo_random(n, 3 * n);
            let b: Vec<f64> = (0..n).map(|i| (i as f64) * 0.25 - 1.0).collect();
            let f_n = gh_factorize(&a, GhLayout::Normal).unwrap();
            let f_t = gh_factorize(&a, GhLayout::Transposed).unwrap();
            assert_eq!(f_n.q.as_slice(), f_t.q.as_slice(), "n={n}");
            // stored matrices must be exact transposes of one another
            for i in 0..n {
                for j in 0..n {
                    assert_eq!(f_n.m[(i, j)], f_t.m[(j, i)], "n={n} ({i},{j})");
                }
            }
            let x_n = f_n.solve(&b);
            let x_t = f_t.solve(&b);
            assert_eq!(x_n, x_t);
        }
    }

    #[test]
    fn column_pivot_selected() {
        // row 0 is [1e-14, 1]: GH must pivot on column 1
        let a = DenseMat::from_row_major(2, 2, &[1e-14, 1.0, 1.0, 1.0]);
        let f = gh_factorize(&a, GhLayout::Normal).unwrap();
        assert_eq!(f.q.row_of_step(0), 1);
        let b = a.matvec(&[3.0, 4.0]);
        let x = f.solve(&b);
        assert!((x[0] - 3.0).abs() < 1e-6);
        assert!((x[1] - 4.0).abs() < 1e-6);
    }

    #[test]
    fn singular_rejected() {
        let a = DenseMat::from_row_major(2, 2, &[1.0, 2.0, 0.5, 1.0]);
        for layout in [GhLayout::Normal, GhLayout::Transposed] {
            assert!(matches!(
                gh_factorize(&a, layout),
                Err(FactorError::SingularPivot { .. })
            ));
        }
    }

    #[test]
    fn not_square_rejected() {
        let a = DenseMat::<f64>::zeros(3, 2);
        assert!(matches!(
            gh_factorize(&a, GhLayout::Normal),
            Err(FactorError::NotSquare { .. })
        ));
    }

    #[test]
    fn f32_solve() {
        let a = DenseMat::<f32>::from_fn(12, 12, |i, j| {
            ((i * 13 + j * 29 + 1) % 32) as f32 / 16.0 - 1.0 + if i == j { 3.0 } else { 0.0 }
        });
        let x_true: Vec<f32> = (0..12).map(|i| i as f32 / 6.0 - 1.0).collect();
        let b = a.matvec(&x_true);
        let f = gh_factorize(&a, GhLayout::Transposed).unwrap();
        let x = f.solve(&b);
        for i in 0..12 {
            assert!((x[i] - x_true[i]).abs() < 1e-3);
        }
    }
}
