//! Post-factorization health triage (the fault-tolerance layer's
//! middle stage).
//!
//! With [`HealthPolicy::Guarded`], every block that factorized exactly
//! gets a Hager/Higham 1-norm condition estimate. Blocks whose estimate
//! exceeds the policy threshold are *recovered in place*: the original
//! block is equilibrated (LAPACK `geequ`-style row/column scalings),
//! refactorized, and replaced by a [`BlockFactor::Equilibrated`] record
//! whose apply adds one step of iterative refinement. Blocks that cannot
//! be recovered escalate through the rank-revealing QR and the
//! scalar-Jacobi fallback down to identity rows, and every step taken
//! is recorded in the block's [`crate::BlockStatus::recovery`] chain — so the
//! caller can always tell the difference between "factorized cleanly",
//! "recovered exactly" and "degraded". A clean slot keeps no record
//! through either pass, only its condition estimate; a promoted or
//! recovered block gets a record of its own.
//!
//! The triage pass never touches blocks that already fell back during
//! factorization (their health was classified from the factor error),
//! and [`HealthPolicy::Off`] skips it entirely, preserving the bitwise
//! layout-equivalence contract of the unguarded path.

use crate::factors::{
    block_diag, on_storage, scalar_jacobi_from_diag, BlockFactor, BlockHealth, FactorizedBatch,
    RecoveryStep,
};
use crate::plan::HealthPolicy;
use vbatch_core::lu::LuFactors;
use vbatch_core::{
    apply_equilibration, condest1, equilibrate, geqp3, getrf, narrow_slice, norm1, DenseMat,
    MatrixBatch, PivotStrategy, Scalar, Storage, StoragePrecision, Stored,
};

/// Hager/Higham estimate evaluated entirely in the factor's storage
/// scalar `S`: the block narrowed to `S` against its `S` factors — or,
/// for the families that expose no LU solve shape (Gauss-Huard,
/// Cholesky), against a host refactorization of the narrowed block. For
/// lowered factors this is the right scale for promotion decisions — it
/// measures how the factors the apply actually widens behave, and it
/// costs a handful of SP triangular solves rather than a DP
/// refactorization.
fn condest_in<T: Scalar, S: Stored<T>>(n: usize, a: &[T], factors: Option<LuFactors<S>>) -> f64 {
    let a = DenseMat::from_col_major(n, n, &narrow_slice::<T, S>(a));
    let factors = match factors {
        Some(f) => f,
        None => match getrf(&a, PivotStrategy::Implicit) {
            Ok(f) => f,
            Err(_) => return f64::INFINITY,
        },
    };
    condest1(&a, &factors).to_f64()
}

/// Condition estimate of block `block` (column-major original `a`),
/// reusing the factors where they are an LU form. Returns `None` for
/// factors that are not an exact inverse of the block as given (the
/// scalar-Jacobi fallback) or were already triaged.
fn condest_block<T: Scalar>(a: &[T], block: usize, batch: &FactorizedBatch<T>) -> Option<f64> {
    let n = batch.sizes()[block];
    match batch.factor(block) {
        None | Some(BlockFactor::Lu { .. }) => {
            let view = batch.lu_view(block).expect("LU forms have a view");
            Some(on_storage!(view, v => condest_in(n, a, Some(v.to_factors()))))
        }
        Some(BlockFactor::Gh(Storage::Native(_)) | BlockFactor::Chol(_)) => {
            Some(condest_in::<T, T>(n, a, None))
        }
        Some(BlockFactor::Gh(Storage::Lower(_))) => Some(condest_in::<T, T::Lower>(n, a, None)),
        Some(BlockFactor::Inv { inv, .. }) => {
            // exact: the explicit inverse is already materialized
            let a = DenseMat::from_col_major(n, n, a);
            let inv = DenseMat::from_col_major(n, n, inv);
            Some((norm1(&a) * norm1(&inv)).to_f64())
        }
        _ => None,
    }
}

/// Conservatism of the pivot-growth screen: a block is certified safe
/// without a full condition estimate only when its pivot spread sits
/// this far below the promotion threshold. The spread reads the
/// conditioning off recorded factor entries alone, so it can
/// under-estimate; anything within one order of magnitude of the gate
/// still pays for the Hager/Higham sweep.
const SCREEN_SAFETY: f64 = 16.0;

/// Free pivot-growth screen over a factor: the spread `max / min` of
/// the magnitudes the factorization already recorded — entry
/// `(row_of_step(k), k)` of each LU step, or the Gauss-Huard step pivots
/// retained on `m`'s diagonal (invariant under the transposed layout).
/// Costs `O(n)` per block against the estimator's several `O(n²)`
/// solves. Returns `None` for families that expose no such entries
/// (those always take the full estimate).
fn pivot_spread<T: Scalar>(block: usize, batch: &FactorizedBatch<T>) -> Option<f64> {
    let mut lo = f64::INFINITY;
    let mut hi = 0.0f64;
    let mut feed = |v: f64| {
        let v = v.abs();
        lo = lo.min(v);
        hi = hi.max(v);
    };
    let n = batch.sizes()[block];
    match batch.factor(block) {
        None | Some(BlockFactor::Lu { .. }) => {
            let view = batch.lu_view(block).expect("LU forms have a view");
            on_storage!(view, v => (0..n).for_each(|k| feed(v.at(v.row_of_step(k), k).to_f64())));
        }
        Some(BlockFactor::Gh(gh)) => {
            on_storage!(gh, gh => (0..n).for_each(|k| feed(gh.m[(k, k)].to_f64())));
        }
        _ => return None,
    }
    Some(if lo > 0.0 { hi / lo } else { f64::INFINITY })
}

/// Promotion threshold of [`PrecisionPolicy::MixedPromote`]:
/// `0.25/sqrt(eps)` of the storage precision `T::Lower` (≈ 724.08 for
/// f32 storage, so the same for f32 and f64 batches) — SP factors past
/// it have lost half their mantissa and one refinement step can no
/// longer recover DP accuracy.
///
/// [`PrecisionPolicy::MixedPromote`]: crate::plan::PrecisionPolicy::MixedPromote
pub(crate) fn promote_threshold<T: Scalar>() -> f64 {
    0.25 / <T::Lower as Scalar>::epsilon().to_f64().sqrt()
}

/// Mixed-precision promotion pass: estimate every *suspicious* lowered
/// block's condition in storage precision, cache the estimate on its
/// status (health triage reuses it instead of recomputing), and
/// refactorize in working precision any block whose estimate exceeds
/// [`promote_threshold`].
///
/// Suspicion is decided by the free [`pivot_spread`] screen: blocks
/// whose recorded pivot spread sits a [`SCREEN_SAFETY`] margin below
/// the threshold are certified without the Hager/Higham sweep (their
/// `condest` stays unset until health triage wants one). This keeps the
/// promotion pass `O(n)` per healthy block, so the mixed policy retains
/// the SP flop-rate advantage it exists to exploit.
///
/// `blocks` are the originals: the estimate and the working-precision
/// refactorization both read them after the factorization sweep, so a
/// lowered plan never factorizes in the batch's own storage
/// (`cpu::factorize_cpu`).
pub(crate) fn promote_unsafe_blocks<T: Scalar>(
    blocks: &MatrixBatch<T>,
    batch: &mut FactorizedBatch<T>,
) {
    let _span = vbatch_rt::span!("exec.promote", batch.len());
    let threshold = promote_threshold::<T>();
    for i in 0..batch.len() {
        if batch.storage(i) != StoragePrecision::Lower {
            continue;
        }
        if let Some(spread) = pivot_spread(i, batch) {
            if spread * SCREEN_SAFETY <= threshold {
                continue;
            }
        }
        let n = batch.sizes()[i];
        let Some(k) = condest_block(blocks.block(i), i, batch) else {
            continue;
        };
        batch.set_condest(i, k);
        // NaN-safe: only a definite exceedance promotes
        if !(k > threshold) {
            continue;
        }
        let kernel = batch.status(i).kernel;
        let (factor, mut status) = crate::cpu::factor_block::<T, T>(n, blocks.block(i), kernel);
        status.condest = Some(k);
        status.promoted = true;
        batch.replace(i, factor, status);
    }
}

/// Run health triage over a freshly factorized batch. `blocks` must be
/// the original block data the batch was factorized from, untouched by
/// the factorization: the condition estimate, the equilibrated
/// refactorization and the QR tier all read it. That is why a guarded
/// plan never factorizes in the batch's own storage
/// (`cpu::factorize_cpu` overwrites the input only under
/// [`HealthPolicy::Off`], where this pass returns at once).
pub(crate) fn triage_batch<T: Scalar>(
    blocks: &MatrixBatch<T>,
    batch: &mut FactorizedBatch<T>,
    policy: HealthPolicy,
) {
    let HealthPolicy::Guarded { ill_threshold } = policy else {
        return;
    };
    let _span = vbatch_rt::span!("exec.triage", batch.len());
    for i in 0..batch.len() {
        let mut status = batch.status(i);
        if status.is_fallback() {
            continue;
        }
        let n = batch.sizes()[i];
        // reuse the condest a mixed-precision promotion pass already
        // computed and cached; estimate only where nothing is cached
        let k = match status.condest {
            Some(k) => k,
            None => {
                let Some(k) = condest_block(blocks.block(i), i, batch) else {
                    continue;
                };
                k
            }
        };
        // a block that kept its factors stays healthy below the threshold
        if !(k > ill_threshold) {
            batch.set_condest(i, k);
            continue;
        }
        status.condest = Some(k);
        status.health = BlockHealth::IllConditioned;
        // a recovered block stores working-precision factors again,
        // whatever policy factorized it
        status.precision = StoragePrecision::Native;
        let a = DenseMat::from_col_major(n, n, blocks.block(i));
        // recover: equilibrate + refactorize, then rank-revealing QR,
        // then surrender to scalar Jacobi
        let recovered = equilibrate(&a).and_then(|(r, c)| {
            let e = apply_equilibration(&a, &r, &c);
            getrf(&e, PivotStrategy::Implicit).ok().map(|f| (f, r, c))
        });
        let factor = match recovered {
            Some((f, r, c)) => {
                status.recovery.push(RecoveryStep::Equilibrated);
                BlockFactor::Equilibrated {
                    lu: f.lu.as_slice().to_vec(),
                    perm: f.perm,
                    r,
                    c,
                    a: blocks.block(i).to_vec(),
                }
            }
            None => match geqp3(n, blocks.block(i)) {
                Ok(f) => {
                    status.recovery.push(RecoveryStep::HouseholderQr);
                    BlockFactor::Qr(f)
                }
                Err(_) => {
                    let diag = block_diag(n, blocks.block(i));
                    let (factor, sanitized) = scalar_jacobi_from_diag(&diag);
                    status.recovery.extend(RecoveryStep::jacobi(sanitized, n));
                    factor
                }
            },
        };
        batch.replace(i, factor, status);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Backend;
    use crate::cpu::CpuSequential;
    use crate::plan::{BatchPlan, KernelChoice, PlanMethod};
    use crate::stats::ExecStats;
    use vbatch_core::{BatchLayout, VectorBatch};

    fn batch_with_scaled_block() -> (Vec<usize>, MatrixBatch<f64>) {
        let sizes = vec![3usize, 3, 3];
        let mut batch = MatrixBatch::zeros(&sizes);
        for i in 0..3 {
            let b = batch.block_mut(i);
            for c in 0..3 {
                for r in 0..3 {
                    b[c * 3 + r] = if r == c { 4.0 } else { 0.5 };
                }
            }
        }
        // block 1: wildly scaled rows — huge condition number, but
        // exactly recoverable by equilibration
        {
            let b = batch.block_mut(1);
            for c in 0..3 {
                b[c * 3] *= 1e12;
                b[c * 3 + 2] *= 1e-12;
            }
        }
        (sizes, batch)
    }

    #[test]
    fn guarded_plan_equilibrates_ill_conditioned_blocks() {
        let (sizes, batch) = batch_with_scaled_block();
        let plan =
            BatchPlan::for_method_with_layout::<f64>(&sizes, PlanMethod::Lu, BatchLayout::Blocked)
                .with_health(HealthPolicy::guarded::<f64>());
        let mut stats = ExecStats::new();
        let fact = CpuSequential.factorize(batch.clone(), &plan, &mut stats);
        assert_eq!(fact.status(1).health, BlockHealth::IllConditioned);
        assert_eq!(fact.status(1).recovery, vec![RecoveryStep::Equilibrated]);
        assert!(!fact.status(1).is_fallback(), "equilibration is exact");
        assert_eq!(fact.fallback_count(), 0);
        assert!(fact.status(1).condest.unwrap() > 1e12);
        for i in [0usize, 2] {
            assert_eq!(fact.status(i).health, BlockHealth::Healthy);
            assert!(fact.status(i).condest.unwrap() < 10.0);
            assert!(fact.status(i).recovery.is_empty());
        }

        // the recovered block still applies the exact block inverse
        let x_true: Vec<f64> = (0..9).map(|i| 1.0 + 0.25 * i as f64).collect();
        let xb = VectorBatch::from_flat(&sizes, &x_true);
        let mut rhs = VectorBatch::zeros(&sizes);
        CpuSequential.apply_gemv(&batch, &xb, &mut rhs, &mut stats);
        CpuSequential.solve(&fact, &mut rhs, &mut stats);
        for (got, want) in rhs.as_slice().iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-6 * want.abs(), "{got} vs {want}");
        }
    }

    #[test]
    fn triage_covers_interleaved_and_inverse_factors() {
        let (sizes, batch) = batch_with_scaled_block();
        // interleaved layout: all three order-3 blocks form one class
        let il = BatchPlan::for_method_with_layout::<f64>(
            &sizes,
            PlanMethod::Lu,
            BatchLayout::Interleaved { class_capacity: 2 },
        )
        .with_health(HealthPolicy::guarded::<f64>());
        let mut stats = ExecStats::new();
        let fact = CpuSequential.factorize(batch.clone(), &il, &mut stats);
        assert_eq!(fact.status(1).health, BlockHealth::IllConditioned);
        assert!(matches!(
            fact.factor(1),
            Some(BlockFactor::Equilibrated { .. })
        ));
        // healthy slots stay in the interleaved class, with no record
        assert!(fact.factor(0).is_none());
        assert!(fact.status(0).condest.is_some());

        // explicit-inverse method: condest is exact
        let gje = BatchPlan::for_method::<f64>(&sizes, PlanMethod::GjeInvert)
            .with_health(HealthPolicy::guarded::<f64>());
        let fact = CpuSequential.factorize(batch.clone(), &gje, &mut stats);
        assert_eq!(fact.status(1).health, BlockHealth::IllConditioned);
        assert_eq!(fact.status(0).health, BlockHealth::Healthy);

        // GH method: triage refactorizes on the host
        let gh = BatchPlan::for_method::<f64>(&sizes, PlanMethod::GaussHuard)
            .with_health(HealthPolicy::guarded::<f64>());
        let fact = CpuSequential.factorize(batch, &gh, &mut stats);
        assert_eq!(fact.status(1).health, BlockHealth::IllConditioned);
        assert_eq!(fact.status(1).kernel, KernelChoice::GaussHuard);
    }

    #[test]
    fn cached_condest_drives_qr_escalation_when_equilibration_cannot_refactorize() {
        // an exactly singular block behind a factor slot that claims
        // health: triage trusts the cached estimate verbatim (no
        // recomputation), equilibrated refactorization hits the zero
        // pivot, and the rank-revealing QR tier takes over
        let n = 2;
        let sizes = vec![n];
        let mut blocks = MatrixBatch::<f64>::zeros(&sizes);
        blocks.block_mut(0).copy_from_slice(&[1.0, 1.0, 1.0, 1.0]);
        let (factor, mut status) = crate::cpu::factor_block::<f64, f64>(
            n,
            &[2.0, 0.0, 0.0, 2.0],
            crate::plan::KernelChoice::Lu,
        );
        status.condest = Some(1e30);
        let mut batch = FactorizedBatch::blocked(sizes, vec![factor], vec![status]);
        triage_batch(&blocks, &mut batch, HealthPolicy::guarded::<f64>());
        let status = batch.status(0);
        assert_eq!(status.health, BlockHealth::IllConditioned);
        assert!(matches!(batch.factor(0), Some(BlockFactor::Qr(_))));
        assert_eq!(status.recovery, vec![RecoveryStep::HouseholderQr]);
        assert_eq!(status.precision, StoragePrecision::Native);
        // the cached estimate was consumed, not replaced
        assert_eq!(status.condest, Some(1e30));
    }

    #[test]
    fn mixed_plan_promotes_exactly_the_blocks_past_the_storage_threshold() {
        // evaluated at the storage precision: the same for f32 and f64
        let want = 0.25 / (f32::EPSILON as f64).sqrt();
        assert!((promote_threshold::<f64>() - want).abs() < 1e-9);
        assert_eq!(promote_threshold::<f32>(), promote_threshold::<f64>());
        assert!((724.07..724.08).contains(&want), "{want}");

        // diag(1, 1/k) has condition k: one block on each side of 724.08
        let sizes = vec![2usize, 2];
        let mut batch = MatrixBatch::<f64>::zeros(&sizes);
        for (i, k) in [724.0, 724.2].into_iter().enumerate() {
            batch
                .block_mut(i)
                .copy_from_slice(&[1.0, 0.0, 0.0, 1.0 / k]);
        }
        let plan =
            BatchPlan::for_method_with_layout::<f64>(&sizes, PlanMethod::Lu, BatchLayout::Blocked)
                .with_precision(crate::plan::PrecisionPolicy::MixedPromote);
        let fact = CpuSequential.factorize(batch, &plan, &mut ExecStats::new());
        let promoted: Vec<bool> = fact.statuses().map(|s| s.promoted).collect();
        assert_eq!(promoted, [false, true]);
        assert_eq!(fact.status(0).precision, StoragePrecision::Lower);
        assert_eq!(fact.status(1).precision, StoragePrecision::Native);
    }

    #[test]
    fn health_off_leaves_factors_untouched() {
        let (sizes, batch) = batch_with_scaled_block();
        let plan = BatchPlan::for_method::<f64>(&sizes, PlanMethod::Lu);
        let mut stats = ExecStats::new();
        let fact = CpuSequential.factorize(batch, &plan, &mut stats);
        for s in fact.statuses() {
            assert_eq!(s.health, BlockHealth::Healthy);
            assert!(s.condest.is_none());
            assert!(s.recovery.is_empty());
        }
    }
}
