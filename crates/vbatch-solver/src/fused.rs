//! IDR's multi-vector passes, fused.
//!
//! `dot` and `nrm2` are one fma chain each: four cycles per element
//! however wide the machine is (10.5 µs at n = 8 664, where an `axpy`
//! takes 2.0). Several reductions over the same vector therefore cost
//! nothing extra when they advance side by side, and a linear
//! combination written as copy + scale + one `axpy` per term re-reads
//! its output once per term for no reason. The kernels here make one
//! pass each, and every accumulator and every output element sees
//! exactly the fma sequence the unfused `vbatch_sparse` calls gave it,
//! in the same order — so the bits, and with them IDR's iteration
//! counts, do not move. Reductions are *not* split across threads or
//! re-associated: that changes the digests `tests/krylov_contract.rs`
//! pins and is a decision of its own.
#![deny(clippy::disallowed_methods, clippy::disallowed_macros)]

use std::array::from_fn;
use vbatch_core::Scalar;

/// Chains or terms advanced together by one pass: IDR(4)'s `s`, and
/// what fits the register file beside the loads.
const GROUP: usize = 4;

/// `store(i, vs[i] · x)` for every `i`, up to [`GROUP`] dots per pass
/// over `x`; each is `vbatch_sparse::dot(&vs[i], x)` to the bit.
pub(crate) fn dots<T: Scalar>(vs: &[Vec<T>], x: &[T], mut store: impl FnMut(usize, T)) {
    for (g, group) in vs.chunks(GROUP).enumerate() {
        let mut put = |acc: &[T]| {
            for (i, &d) in acc.iter().enumerate() {
                store(g * GROUP + i, d);
            }
        };
        match group.len() {
            1 => put(&dots_n::<T, 1>(group, x)),
            2 => put(&dots_n::<T, 2>(group, x)),
            3 => put(&dots_n::<T, 3>(group, x)),
            _ => put(&dots_n::<T, GROUP>(group, x)),
        }
    }
}

fn dots_n<T: Scalar, const N: usize>(vs: &[Vec<T>], x: &[T]) -> [T; N] {
    let v: [&[T]; N] = from_fn(|i| &vs[i][..x.len()]);
    let mut acc = [T::ZERO; N];
    for (j, &xj) in x.iter().enumerate() {
        for i in 0..N {
            acc[i] = v[i][j].mul_add(xj, acc[i]);
        }
    }
    acc
}

/// `out = alpha·x + Σ coef(i)·vs[i]` in one pass per [`GROUP`] terms
/// (`alpha` absent: `out = x + ..`). Per element this is the copy,
/// `scal` and one `axpy` per term of the unfused form, in term order.
pub(crate) fn lincomb<T: Scalar>(
    out: &mut [T],
    x: &[T],
    alpha: Option<T>,
    coef: impl Fn(usize) -> T,
    vs: &[Vec<T>],
) {
    assert_eq!(out.len(), x.len());
    let first = vs.len().min(GROUP);
    match alpha {
        Some(alpha) => terms(out, |j, _| x[j] * alpha, 0, first, &coef, vs),
        None => terms(out, |j, _| x[j], 0, first, &coef, vs),
    }
    for base in (GROUP..vs.len()).step_by(GROUP) {
        terms(out, |_, o| o, base, (vs.len() - base).min(GROUP), &coef, vs);
    }
}

/// `out[j] = seed(j, out[j]) + Σ coef(base + i)·vs[base + i][j]` over
/// `count ≤ GROUP` terms.
fn terms<T: Scalar>(
    out: &mut [T],
    seed: impl Fn(usize, T) -> T,
    base: usize,
    count: usize,
    coef: &impl Fn(usize) -> T,
    vs: &[Vec<T>],
) {
    match count {
        0 => terms_n::<T, 0>(out, seed, base, coef, vs),
        1 => terms_n::<T, 1>(out, seed, base, coef, vs),
        2 => terms_n::<T, 2>(out, seed, base, coef, vs),
        3 => terms_n::<T, 3>(out, seed, base, coef, vs),
        _ => terms_n::<T, GROUP>(out, seed, base, coef, vs),
    }
}

fn terms_n<T: Scalar, const N: usize>(
    out: &mut [T],
    seed: impl Fn(usize, T) -> T,
    base: usize,
    coef: &impl Fn(usize) -> T,
    vs: &[Vec<T>],
) {
    let c: [T; N] = from_fn(|i| coef(base + i));
    let v: [&[T]; N] = from_fn(|i| &vs[base + i][..out.len()]);
    for (j, o) in out.iter_mut().enumerate() {
        let mut acc = seed(j, *o);
        for i in 0..N {
            acc = c[i].mul_add(v[i][j], acc);
        }
        *o = acc;
    }
}

/// `(‖t‖, ‖r‖, tᵀr)` in one pass: three chains, each the one
/// `vbatch_sparse::{nrm2, dot}` runs.
pub(crate) fn norms_and_dot<T: Scalar>(t: &[T], r: &[T]) -> (T, T, T) {
    assert_eq!(t.len(), r.len());
    let (mut tt, mut rr, mut tr) = (T::ZERO, T::ZERO, T::ZERO);
    for (&ti, &ri) in t.iter().zip(r) {
        tt = ti.mul_add(ti, tt);
        rr = ri.mul_add(ri, rr);
        tr = ti.mul_add(ri, tr);
    }
    (tt.sqrt(), rr.sqrt(), tr)
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod tests {
    use super::*;
    use vbatch_sparse::{axpy, dot, nrm2, scal};

    fn vectors(count: usize, n: usize) -> Vec<Vec<f64>> {
        (0..count)
            .map(|i| {
                (0..n)
                    .map(|j| ((i * 31 + j * 17) % 23) as f64 / 7.0 - 1.6)
                    .collect()
            })
            .collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn fused_passes_equal_the_unfused_calls_bitwise() {
        let n = 1003;
        // 1..=9 vectors: every group size, and more than one group
        for count in 1..=9 {
            let vs = vectors(count + 1, n);
            let (x, vs) = vs.split_first().unwrap();
            let c: Vec<f64> = (0..count).map(|i| 0.3 - i as f64 / 5.0).collect();

            let mut fused = vec![0.0; count];
            dots(vs, x, |i, d| fused[i] = d);
            let plain: Vec<f64> = vs.iter().map(|v| dot(v, x)).collect();
            assert_eq!(bits(&fused), bits(&plain), "{count} dots");

            // v = x − Σ cᵢ vᵢ
            let mut plain = x.clone();
            for (ci, v) in c.iter().zip(vs) {
                axpy(-ci, v, &mut plain);
            }
            let mut fused = vec![f64::NAN; n];
            lincomb(&mut fused, x, None, |i| -c[i], vs);
            assert_eq!(bits(&fused), bits(&plain), "{count} terms");

            // u = ω x + Σ cᵢ vᵢ
            let mut plain = x.clone();
            scal(0.7, &mut plain);
            for (ci, v) in c.iter().zip(vs) {
                axpy(*ci, v, &mut plain);
            }
            lincomb(&mut fused, x, Some(0.7), |i| c[i], vs);
            assert_eq!(bits(&fused), bits(&plain), "{count} scaled terms");
        }
        let vs = vectors(2, n);
        let (nt, nr, ts) = norms_and_dot(&vs[0], &vs[1]);
        assert_eq!(nt.to_bits(), nrm2(&vs[0]).to_bits());
        assert_eq!(nr.to_bits(), nrm2(&vs[1]).to_bits());
        assert_eq!(ts.to_bits(), dot(&vs[0], &vs[1]).to_bits());
        // no terms at all: a scaled copy
        let mut out = vec![0.0; n];
        lincomb(&mut out, &vs[0], Some(2.0), |_| unreachable!(), &[]);
        assert!(out.iter().zip(&vs[0]).all(|(o, x)| *o == 2.0 * x));
    }
}
