//! Host-side factorized batch: the interchange format between a
//! backend's `factorize` and `solve` calls, with per-block status.
//!
//! The solve arms in this module are apply-phase hot paths (they run on
//! every preconditioned Krylov iteration): the `disallowed_methods` /
//! `disallowed_macros` deny below forbids `Vec::new` / `vec!` /
//! `to_vec` here so per-apply allocations cannot creep back in.
//! Setup-time code that legitimately allocates carries a targeted
//! `allow` with a comment.
#![deny(clippy::disallowed_methods, clippy::disallowed_macros)]

use crate::plan::KernelChoice;
use vbatch_core::{
    gh_solve_widened_scratch, lu_solve_inplace_scratch, lu_solve_interleaved_slot_scratch,
    lu_solve_interleaved_slot_widened_scratch, lu_solve_multi_inplace_scratch,
    lu_solve_widened_scratch, residual_into, CholeskyFactors, FactorError, GhFactors, MatrixBatch,
    Permutation, QrFactors, Scalar, StoragePrecision, TrsvVariant, VectorBatch,
};

/// Numerical health classification of one factorized block, assigned by
/// the post-factorization triage pass (see `crate::health`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BlockHealth {
    /// Factorized cleanly, condition estimate below the ill threshold.
    Healthy,
    /// Factorized, but the condition estimate exceeds the policy
    /// threshold: the apply may lose most of its accuracy.
    IllConditioned,
    /// Factorization hit an (exactly or numerically) zero pivot.
    Singular,
    /// The block contained NaN/Inf entries.
    NonFinite,
}

impl BlockHealth {
    /// Stable label used in stats histograms and CSV output.
    pub fn label(self) -> &'static str {
        match self {
            BlockHealth::Healthy => "healthy",
            BlockHealth::IllConditioned => "ill_conditioned",
            BlockHealth::Singular => "singular",
            BlockHealth::NonFinite => "non_finite",
        }
    }
}

impl core::fmt::Display for BlockHealth {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// One step in a block's recovery escalation chain, in the order it was
/// applied.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RecoveryStep {
    /// Row/column equilibration + refactorization (the block keeps an
    /// exact — now better-conditioned — LU; the apply adds one step of
    /// iterative refinement).
    Equilibrated,
    /// Refactorized with column-pivoted Householder QR — the
    /// rank-revealing tier between equilibration and the scalar-Jacobi
    /// surrender: the block keeps an exact orthogonal factorization
    /// whose solve truncates negligible pivots instead of amplifying
    /// them.
    HouseholderQr,
    /// Degraded to the scalar-Jacobi (reciprocal diagonal) fallback.
    ScalarJacobi,
    /// Diagonal entries that were zero or non-finite were replaced by
    /// ones: those rows act as the identity.
    Identity,
}

impl RecoveryStep {
    /// Stable label used in stats histograms and test diagnostics.
    pub fn label(self) -> &'static str {
        match self {
            RecoveryStep::Equilibrated => "equilibrated",
            RecoveryStep::HouseholderQr => "householder_qr",
            RecoveryStep::ScalarJacobi => "scalar_jacobi",
            RecoveryStep::Identity => "identity",
        }
    }
}

/// Outcome of factorizing one block: the kernel that ran, the triaged
/// health of the block, and any recovery escalation that was applied.
#[derive(Clone, Debug, PartialEq)]
pub struct BlockStatus {
    /// The kernel that was planned (and attempted) for the block.
    pub kernel: KernelChoice,
    /// Triaged numerical health. Without a health policy this is
    /// [`BlockHealth::Healthy`] for factorized blocks and
    /// [`BlockHealth::Singular`]/[`BlockHealth::NonFinite`] for blocks
    /// that failed to factorize.
    pub health: BlockHealth,
    /// 1-norm condition estimate, when the triage pass computed one.
    pub condest: Option<f64>,
    /// The factorization error that triggered recovery, if any.
    pub error: Option<FactorError>,
    /// Recovery escalation chain, in application order. Empty for
    /// blocks that factorized cleanly.
    pub recovery: Vec<RecoveryStep>,
    /// Precision the block's factors are *stored* in. The working
    /// precision of the apply is always the batch scalar `T`;
    /// [`StoragePrecision::Lower`] means the solve widens SP factors
    /// element-by-element and refines against the retained DP block.
    pub precision: StoragePrecision,
    /// `true` when a mixed-precision policy promoted this block back to
    /// native-precision factors because its condition estimate exceeded
    /// the promotion threshold.
    pub promoted: bool,
}

impl BlockStatus {
    /// A block factorized cleanly by `kernel` (native storage).
    // status construction is setup-time, not an apply path
    #[allow(clippy::disallowed_methods)]
    pub fn factorized(kernel: KernelChoice) -> Self {
        BlockStatus {
            kernel,
            health: BlockHealth::Healthy,
            condest: None,
            error: None,
            recovery: Vec::new(),
            precision: StoragePrecision::Native,
            promoted: false,
        }
    }

    /// A block whose factorization failed with `error` and degraded to
    /// the scalar-Jacobi fallback; `sanitized` counts diagonal entries
    /// that had to be replaced by identity rows.
    // status construction is setup-time, not an apply path
    #[allow(clippy::disallowed_methods)]
    pub fn fallback(kernel: KernelChoice, error: FactorError, sanitized: usize, n: usize) -> Self {
        let health = match error {
            FactorError::NonFinite { .. } => BlockHealth::NonFinite,
            _ => BlockHealth::Singular,
        };
        let mut recovery = Vec::new();
        if sanitized < n {
            recovery.push(RecoveryStep::ScalarJacobi);
        }
        if sanitized > 0 {
            recovery.push(RecoveryStep::Identity);
        }
        BlockStatus {
            kernel,
            health,
            condest: None,
            error: Some(error),
            recovery,
            precision: StoragePrecision::Native,
            promoted: false,
        }
    }

    /// `true` when the block lost its exact factorization — degraded to
    /// scalar Jacobi or identity rows. Equilibration alone does *not*
    /// count: the block still applies an exact block inverse.
    pub fn is_fallback(&self) -> bool {
        self.recovery
            .iter()
            .any(|&s| matches!(s, RecoveryStep::ScalarJacobi | RecoveryStep::Identity))
    }
}

/// One block's factors, in whatever form the planned kernel produces.
#[derive(Clone, Debug)]
pub enum BlockFactor<T: Scalar> {
    /// Combined `L\U` (column-major, pivot order) plus the pivot
    /// sequence, from any of the LU kernels.
    Lu {
        /// Block order.
        n: usize,
        /// Combined factors, column-major.
        lu: Vec<T>,
        /// Row-of-step pivot sequence.
        perm: Permutation,
    },
    /// Gauss-Huard factors (either storage layout).
    Gh(GhFactors<T>),
    /// Explicit inverse (column-major), from GJE inversion.
    Inv {
        /// Block order.
        n: usize,
        /// Inverse matrix, column-major.
        inv: Vec<T>,
    },
    /// Cholesky factor for SPD blocks.
    Chol(CholeskyFactors<T>),
    /// Scalar-Jacobi fallback: the reciprocal diagonal of the original
    /// block (identity where the diagonal was zero or non-finite).
    ScalarJacobi {
        /// Reciprocal diagonal entries.
        inv_diag: Vec<T>,
    },
    /// LU of the equilibrated block `diag(r) * A * diag(c)`, produced by
    /// the health triage pass for ill-conditioned blocks. The apply
    /// solves through the scalings and adds one step of iterative
    /// refinement against the retained original block.
    EquilibratedLu {
        /// Block order.
        n: usize,
        /// Combined factors of the equilibrated block, column-major.
        lu: Vec<T>,
        /// Row-of-step pivot sequence.
        perm: Permutation,
        /// Row scalings.
        r: Vec<T>,
        /// Column scalings.
        c: Vec<T>,
        /// The original (unequilibrated) block, column-major, kept for
        /// the refinement residual.
        a: Vec<T>,
    },
    /// The block's LU factors live in an interleaved size class
    /// ([`FactorizedBatch::interleaved`]) rather than a per-block
    /// allocation.
    InterleavedLu {
        /// Index into [`FactorizedBatch::interleaved`].
        class: usize,
        /// Slot of this block within the class.
        slot: usize,
    },
    /// Combined `L\U` stored in *lowered* precision (`T::Lower`),
    /// produced by the mixed/SP precision policies. The apply widens
    /// each factor element on read, accumulates in `T`, and adds one
    /// step of iterative refinement whose residual reads the block out
    /// of the batch-wide retained copy ([`FactorizedBatch::retained`])
    /// — lowered factors never carry their own working-precision
    /// duplicate.
    LuLower {
        /// Block order.
        n: usize,
        /// Combined factors in storage precision, column-major.
        lu: Vec<T::Lower>,
        /// Row-of-step pivot sequence.
        perm: Permutation,
    },
    /// Gauss-Huard factors stored in lowered precision, applied through
    /// the widening replay with one refinement step against the
    /// retained native block ([`FactorizedBatch::retained`]).
    GhLower {
        /// Factors in storage precision.
        gh: GhFactors<T::Lower>,
    },
    /// Column-pivoted Householder QR in working precision — the
    /// rank-revealing escalation tier above [`BlockFactor::EquilibratedLu`].
    Qr(QrFactors<T>),
    /// The block's lowered-precision LU factors live in an interleaved
    /// size class ([`FactorizedBatch::interleaved_lower`]).
    InterleavedLuLower {
        /// Index into [`FactorizedBatch::interleaved_lower`].
        class: usize,
        /// Slot of this block within the class.
        slot: usize,
    },
}

/// LU factors of one interleaved size class: `blocks.len()` systems of
/// order `n`, with combined `L\U` values stored element-interleaved
/// (`data[(j*n + i) * count + slot]`) and row-of-step pivot lanes
/// (`piv[k * count + slot]`).
#[derive(Clone, Debug)]
pub struct InterleavedLuClass<T> {
    /// Block order of the class.
    pub n: usize,
    /// Slot → original block index.
    pub blocks: Vec<usize>,
    /// Interleaved combined `L\U` factors.
    pub data: Vec<T>,
    /// Interleaved row-of-step pivot lanes.
    pub piv: Vec<usize>,
}

impl<T: Scalar> InterleavedLuClass<T> {
    /// Number of slots in the class.
    pub fn count(&self) -> usize {
        self.blocks.len()
    }

    /// Solve one slot's system in place (strided host path; bitwise
    /// identical to the class-wide sweep).
    pub fn solve_slot_inplace(&self, slot: usize, seg: &mut [T]) {
        // setup/compat path: the prepared apply uses the scratch form
        #[allow(clippy::disallowed_macros)]
        let mut scratch = vec![T::ZERO; self.n];
        self.solve_slot_inplace_scratch(slot, seg, &mut scratch);
    }

    /// [`InterleavedLuClass::solve_slot_inplace`] with caller scratch
    /// (`scratch.len() >= n`); performs no heap allocation.
    pub fn solve_slot_inplace_scratch(&self, slot: usize, seg: &mut [T], scratch: &mut [T]) {
        lu_solve_interleaved_slot_scratch(
            self.n,
            self.count(),
            slot,
            &self.data,
            &self.piv,
            seg,
            scratch,
        );
    }

    /// Row-of-step pivot sequence of one slot.
    pub fn slot_row_of_step(&self, slot: usize) -> Vec<usize> {
        // test/diagnostic API, not an apply path
        #[allow(clippy::disallowed_macros)]
        let mut out = vec![0usize; self.n];
        self.slot_row_of_step_into(slot, &mut out);
        out
    }

    /// Non-allocating [`InterleavedLuClass::slot_row_of_step`]: write
    /// slot `slot`'s pivot sequence into `out` (`out.len() == n`).
    pub fn slot_row_of_step_into(&self, slot: usize, out: &mut [usize]) {
        debug_assert_eq!(out.len(), self.n);
        let count = self.count();
        for (k, o) in out.iter_mut().enumerate() {
            *o = self.piv[k * count + slot];
        }
    }
}

/// Lowered-precision LU factors of one interleaved size class. The
/// widening apply's refinement residual reads each slot's original
/// block out of the batch-wide retained copy
/// ([`FactorizedBatch::retained`]) — the class keeps no
/// working-precision duplicate, which is what lets the lowered
/// factorization pack *less* data than the native one.
#[derive(Clone, Debug)]
pub struct InterleavedLuLowerClass<T: Scalar> {
    /// Block order of the class.
    pub n: usize,
    /// Slot → original block index.
    pub blocks: Vec<usize>,
    /// Interleaved combined `L\U` factors in storage precision.
    pub data: Vec<T::Lower>,
    /// Interleaved row-of-step pivot lanes.
    pub piv: Vec<usize>,
}

impl<T: Scalar> InterleavedLuLowerClass<T> {
    /// Number of slots in the class.
    pub fn count(&self) -> usize {
        self.blocks.len()
    }

    /// Widening solve of one slot's system with one refinement step
    /// against the slot's original block `orig` (column-major, order
    /// `n` — the caller reads it out of the retained batch).
    /// `scratch.len() >= 4 n` (saved RHS, residual, correction, inner
    /// permutation gather); no heap allocation.
    pub fn solve_slot_inplace_scratch(
        &self,
        slot: usize,
        orig: &[T],
        seg: &mut [T],
        scratch: &mut [T],
    ) {
        let n = self.n;
        let count = self.count();
        debug_assert_eq!(seg.len(), n);
        debug_assert_eq!(orig.len(), n * n);
        debug_assert!(scratch.len() >= 4 * n);
        let (saved, rest) = scratch[..4 * n].split_at_mut(n);
        let (resid, rest) = rest.split_at_mut(n);
        let (e, inner) = rest.split_at_mut(n);
        saved.copy_from_slice(seg);
        lu_solve_interleaved_slot_widened_scratch(
            n, count, slot, &self.data, &self.piv, seg, inner,
        );
        // residual against the retained original block (column-major
        // traversal — the same element order the interleaved copy used,
        // so the refinement bits are unchanged)
        resid.copy_from_slice(saved);
        for (j, &xj) in seg.iter().enumerate() {
            for (i, ri) in resid.iter_mut().enumerate() {
                *ri = (-orig[j * n + i]).mul_add(xj, *ri);
            }
        }
        e.copy_from_slice(resid);
        lu_solve_interleaved_slot_widened_scratch(n, count, slot, &self.data, &self.piv, e, inner);
        for (x, &ei) in seg.iter_mut().zip(e.iter()) {
            if ei.is_finite() {
                *x += ei;
            }
        }
    }

    /// Non-allocating pivot-sequence read of one slot
    /// (`out.len() == n`).
    pub fn slot_row_of_step_into(&self, slot: usize, out: &mut [usize]) {
        debug_assert_eq!(out.len(), self.n);
        let count = self.count();
        for (k, o) in out.iter_mut().enumerate() {
            *o = self.piv[k * count + slot];
        }
    }
}

/// Build the scalar-Jacobi fallback factor from a block's original
/// diagonal; also reports how many entries had to be sanitized to the
/// identity (zero or non-finite diagonal).
pub(crate) fn scalar_jacobi_from_diag<T: Scalar>(diag: &[T]) -> (BlockFactor<T>, usize) {
    let mut sanitized = 0usize;
    let inv_diag = diag
        .iter()
        .map(|&d| {
            if d != T::ZERO && d.is_finite() {
                T::ONE / d
            } else {
                sanitized += 1;
                T::ONE
            }
        })
        .collect();
    (BlockFactor::ScalarJacobi { inv_diag }, sanitized)
}

/// Extract the diagonal of a column-major `n × n` block.
pub(crate) fn block_diag<T: Scalar>(n: usize, data: &[T]) -> Vec<T> {
    (0..n).map(|i| data[i * n + i]).collect()
}

/// A factorized variable-size batch with per-block status, produced by
/// [`crate::Backend::factorize`] and consumed by
/// [`crate::Backend::solve`].
#[derive(Clone, Debug)]
pub struct FactorizedBatch<T: Scalar> {
    /// Block orders.
    pub sizes: Vec<usize>,
    /// Per-block factors.
    pub factors: Vec<BlockFactor<T>>,
    /// Per-block factorization status.
    pub status: Vec<BlockStatus>,
    /// Interleaved size classes referenced by
    /// [`BlockFactor::InterleavedLu`] entries (empty for a fully
    /// blocked factorization).
    pub interleaved: Vec<InterleavedLuClass<T>>,
    /// Lowered-precision interleaved size classes referenced by
    /// [`BlockFactor::InterleavedLuLower`] entries (empty under the
    /// full-precision policy).
    pub interleaved_lower: Vec<InterleavedLuLowerClass<T>>,
    /// The original batch in working precision, retained only under a
    /// storage-lowering precision policy: the widening applies read
    /// their refinement residuals out of it, so the lowered factors
    /// never duplicate working-precision data per block. `None` under
    /// `FullDp` (and at the `f32` floor), where factorization consumes
    /// the batch as before.
    pub retained: Option<MatrixBatch<T>>,
}

impl<T: Scalar> FactorizedBatch<T> {
    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.sizes.len()
    }

    /// `true` when the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.sizes.is_empty()
    }

    /// Number of blocks that degraded to the scalar-Jacobi fallback.
    pub fn fallback_count(&self) -> usize {
        self.status.iter().filter(|s| s.is_fallback()).count()
    }

    /// Column-major working-precision data of block `block`, read out
    /// of the retained batch. Only lowered factors call this; a batch
    /// that holds lowered factors always carries its retained copy.
    fn retained_block(&self, block: usize) -> &[T] {
        self.retained
            .as_ref()
            .expect("lowered factors require the retained working-precision batch")
            .block(block)
    }

    /// Scratch elements [`FactorizedBatch::solve_block_inplace_with`]
    /// needs for block `block`: `n` for the single-copy forms, `4 n`
    /// for the refining forms — equilibrated LU and every
    /// lowered-precision factor (RHS copy, residual, correction, and
    /// the permutation gather of the two inner solves) — `0` for the
    /// copy-free forms.
    pub fn solve_scratch_elems(&self, block: usize) -> usize {
        let n = self.sizes[block];
        match &self.factors[block] {
            BlockFactor::Lu { .. }
            | BlockFactor::Gh(_)
            | BlockFactor::Inv { .. }
            | BlockFactor::InterleavedLu { .. }
            | BlockFactor::Qr(_) => n,
            BlockFactor::Chol(_) | BlockFactor::ScalarJacobi { .. } => 0,
            BlockFactor::EquilibratedLu { .. }
            | BlockFactor::LuLower { .. }
            | BlockFactor::GhLower { .. }
            | BlockFactor::InterleavedLuLower { .. } => 4 * n,
        }
    }

    /// Host reference solve of block `block` against segment `seg`
    /// (used by the CPU backends and as the simulator's host path).
    pub fn solve_block_inplace(&self, block: usize, seg: &mut [T]) {
        // setup/compat path: the prepared apply uses the scratch form
        #[allow(clippy::disallowed_macros)]
        let mut scratch = vec![T::ZERO; self.solve_scratch_elems(block)];
        self.solve_block_inplace_with(block, seg, &mut scratch);
    }

    /// [`FactorizedBatch::solve_block_inplace`] with caller-provided
    /// scratch (`scratch.len() >= solve_scratch_elems(block)`): every
    /// RHS copy — the permutation gather of the LU forms, the GH
    /// un-permute, the GEMV input of the explicit inverse, the
    /// refinement temporaries of the equilibrated path — lands in
    /// `scratch`, so the apply performs zero heap allocations. Copies
    /// are element-exact; results are bitwise identical to the
    /// allocating form.
    pub fn solve_block_inplace_with(&self, block: usize, seg: &mut [T], scratch: &mut [T]) {
        let n = self.sizes[block];
        debug_assert_eq!(seg.len(), n);
        debug_assert!(scratch.len() >= self.solve_scratch_elems(block));
        match &self.factors[block] {
            BlockFactor::Lu { n, lu, perm } => {
                lu_solve_inplace_scratch(TrsvVariant::Eager, *n, lu, perm.as_slice(), seg, scratch);
            }
            BlockFactor::Gh(f) => f.solve_inplace_scratch(seg, scratch),
            BlockFactor::Inv { n, inv } => {
                let x = &mut scratch[..*n];
                x.copy_from_slice(seg);
                for (i, out) in seg.iter_mut().enumerate() {
                    let mut acc = T::ZERO;
                    for (j, &xj) in x.iter().enumerate() {
                        acc = inv[j * n + i].mul_add(xj, acc);
                    }
                    *out = acc;
                }
            }
            BlockFactor::Chol(f) => f.solve_inplace(TrsvVariant::Eager, seg),
            BlockFactor::ScalarJacobi { inv_diag } => {
                for (s, &d) in seg.iter_mut().zip(inv_diag) {
                    *s *= d;
                }
            }
            BlockFactor::EquilibratedLu {
                n,
                lu,
                perm,
                r,
                c,
                a,
            } => {
                let n = *n;
                let (b, rest) = scratch[..4 * n].split_at_mut(n);
                let (resid, rest) = rest.split_at_mut(n);
                let (e, perm_scratch) = rest.split_at_mut(n);
                b.copy_from_slice(seg);
                // x = diag(c) * (LU)^{-1} * diag(r) * b
                let mut solve_scaled = |rhs: &[T], out: &mut [T]| {
                    for (o, (&ri, &bi)) in out.iter_mut().zip(r.iter().zip(rhs)) {
                        *o = ri * bi;
                    }
                    lu_solve_inplace_scratch(
                        TrsvVariant::Eager,
                        n,
                        lu,
                        perm.as_slice(),
                        out,
                        perm_scratch,
                    );
                    for (o, &ci) in out.iter_mut().zip(c) {
                        *o *= ci;
                    }
                };
                solve_scaled(b, seg);
                // one step of iterative refinement against the original
                // block: e = solve(b - A x), x += e
                resid.copy_from_slice(b);
                for (j, &xj) in seg.iter().enumerate() {
                    for (i, ri) in resid.iter_mut().enumerate() {
                        *ri = (-a[j * n + i]).mul_add(xj, *ri);
                    }
                }
                e.fill(T::ZERO);
                solve_scaled(resid, e);
                for (x, &ei) in seg.iter_mut().zip(e.iter()) {
                    if ei.is_finite() {
                        *x += ei;
                    }
                }
            }
            BlockFactor::InterleavedLu { class, slot } => {
                self.interleaved[*class].solve_slot_inplace_scratch(*slot, seg, scratch);
            }
            BlockFactor::LuLower { n, lu, perm } => {
                let n = *n;
                let a = self.retained_block(block);
                let (saved, rest) = scratch[..4 * n].split_at_mut(n);
                let (resid, rest) = rest.split_at_mut(n);
                let (e, inner) = rest.split_at_mut(n);
                saved.copy_from_slice(seg);
                lu_solve_widened_scratch(TrsvVariant::Eager, n, lu, perm.as_slice(), seg, inner);
                // one refinement step against the retained DP block
                residual_into(n, a, seg, saved, resid);
                e.copy_from_slice(resid);
                lu_solve_widened_scratch(TrsvVariant::Eager, n, lu, perm.as_slice(), e, inner);
                for (x, &ei) in seg.iter_mut().zip(e.iter()) {
                    if ei.is_finite() {
                        *x += ei;
                    }
                }
            }
            BlockFactor::GhLower { gh } => {
                let a = self.retained_block(block);
                let (saved, rest) = scratch[..4 * n].split_at_mut(n);
                let (resid, rest) = rest.split_at_mut(n);
                let (e, inner) = rest.split_at_mut(n);
                saved.copy_from_slice(seg);
                gh_solve_widened_scratch(gh, seg, inner);
                residual_into(n, a, seg, saved, resid);
                e.copy_from_slice(resid);
                gh_solve_widened_scratch(gh, e, inner);
                for (x, &ei) in seg.iter_mut().zip(e.iter()) {
                    if ei.is_finite() {
                        *x += ei;
                    }
                }
            }
            BlockFactor::Qr(f) => f.solve_inplace_scratch(seg, scratch),
            BlockFactor::InterleavedLuLower { class, slot } => {
                self.interleaved_lower[*class].solve_slot_inplace_scratch(
                    *slot,
                    self.retained_block(block),
                    seg,
                    scratch,
                );
            }
        }
    }

    /// Scratch elements [`FactorizedBatch::solve_block_multi_inplace_with`]
    /// needs for `nrhs` right-hand sides against block `block`: the
    /// transposed right-hand sides for the native LU forms (plus the
    /// unpacked factor for an interleaved slot), the single-column
    /// requirement for the forms solved column by column.
    pub fn solve_multi_scratch_elems(&self, block: usize, nrhs: usize) -> usize {
        let n = self.sizes[block];
        match &self.factors[block] {
            BlockFactor::Lu { .. } => n * nrhs,
            BlockFactor::InterleavedLu { .. } => n * n + n * nrhs,
            _ => self.solve_scratch_elems(block),
        }
    }

    /// Solve block `block` against every column of the column-major
    /// `n × nrhs` matrix `rhs` in place — the setup-time normalisation
    /// `Ũ_i* = D_i^{-1} Ū_i*` of a whole block row in one call.
    ///
    /// The native LU forms read their factor once for all columns: an
    /// interleaved slot is gathered out of its class (stride `count`)
    /// into contiguous scratch a single time, and the eager sweeps run
    /// with the right-hand sides as the unit-stride inner dimension
    /// ([`lu_solve_multi_inplace_scratch`]). Every other form is solved
    /// column by column through
    /// [`FactorizedBatch::solve_block_inplace_with`]. Either way each
    /// column's result is bitwise what `solve_block_inplace_with`
    /// returns for it, so a normalised factor composes with the
    /// prepared apply exactly as before.
    /// `scratch.len() >= solve_multi_scratch_elems(block, nrhs)`; no
    /// heap allocation.
    pub fn solve_block_multi_inplace_with(&self, block: usize, rhs: &mut [T], scratch: &mut [T]) {
        let n = self.sizes[block];
        if n == 0 {
            return;
        }
        debug_assert_eq!(rhs.len() % n, 0);
        let nrhs = rhs.len() / n;
        debug_assert!(scratch.len() >= self.solve_multi_scratch_elems(block, nrhs));
        match &self.factors[block] {
            BlockFactor::Lu { n, lu, perm } => {
                let perm = perm.as_slice();
                lu_solve_multi_inplace_scratch(*n, nrhs, lu, |k| perm[k], rhs, scratch);
            }
            BlockFactor::InterleavedLu { class, slot } => {
                let cl = &self.interleaved[*class];
                let (count, slot) = (cl.count(), *slot);
                let (lu, w) = scratch.split_at_mut(n * n);
                for (e, x) in lu.iter_mut().enumerate() {
                    *x = cl.data[e * count + slot];
                }
                let piv = &cl.piv;
                lu_solve_multi_inplace_scratch(n, nrhs, lu, |k| piv[k * count + slot], rhs, w);
            }
            _ => {
                for col in rhs.chunks_exact_mut(n) {
                    self.solve_block_inplace_with(block, col, scratch);
                }
            }
        }
    }

    /// Row-of-step pivot sequence of block `block`, when its factors
    /// are an LU form (blocked or interleaved). Used by the golden
    /// differential suite to assert bitwise pivot agreement.
    // test/diagnostic API, not an apply path
    #[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
    pub fn row_of_step(&self, block: usize) -> Option<Vec<usize>> {
        match &self.factors[block] {
            BlockFactor::Lu { perm, .. } | BlockFactor::LuLower { perm, .. } => {
                Some(perm.as_slice().to_vec())
            }
            BlockFactor::InterleavedLu { class, slot } => {
                Some(self.interleaved[*class].slot_row_of_step(*slot))
            }
            BlockFactor::InterleavedLuLower { class, slot } => {
                let cl = &self.interleaved_lower[*class];
                let mut out = vec![0usize; cl.n];
                cl.slot_row_of_step_into(*slot, &mut out);
                Some(out)
            }
            _ => None,
        }
    }

    /// Host reference solve over a whole vector batch, sequentially.
    pub fn solve_all_inplace(&self, rhs: &mut VectorBatch<T>) {
        for (i, seg) in rhs.segs_mut().into_iter().enumerate() {
            self.solve_block_inplace(i, seg);
        }
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod tests {
    use super::*;
    use vbatch_core::{getrf, DenseMat, PivotStrategy};

    #[test]
    fn scalar_jacobi_guards_bad_diagonal() {
        let (f, sanitized) = scalar_jacobi_from_diag(&[2.0f64, 0.0, f64::NAN, -4.0]);
        assert_eq!(sanitized, 2);
        match f {
            BlockFactor::ScalarJacobi { inv_diag } => {
                assert_eq!(inv_diag, vec![0.5, 1.0, 1.0, -0.25]);
            }
            _ => panic!("wrong factor kind"),
        }
    }

    #[test]
    fn inv_factor_applies_inverse() {
        // A = [[2, 0], [0, 4]], inv = [[0.5, 0], [0, 0.25]] col-major
        let fb = FactorizedBatch {
            sizes: vec![2],
            factors: vec![BlockFactor::Inv {
                n: 2,
                inv: vec![0.5, 0.0, 0.0, 0.25],
            }],
            status: vec![BlockStatus::factorized(KernelChoice::GjeInvert)],
            interleaved: Vec::new(),
            interleaved_lower: Vec::new(),
            retained: None,
        };
        let mut seg = [8.0f64, 8.0];
        fb.solve_block_inplace(0, &mut seg);
        assert_eq!(seg, [4.0, 2.0]);
        assert_eq!(fb.fallback_count(), 0);
    }

    #[test]
    fn fallback_status_classifies_health_and_chain() {
        let s = BlockStatus::fallback(
            KernelChoice::SmallLu,
            FactorError::SingularPivot { step: 1 },
            0,
            4,
        );
        assert_eq!(s.health, BlockHealth::Singular);
        assert_eq!(s.recovery, vec![RecoveryStep::ScalarJacobi]);
        assert!(s.is_fallback());

        let s = BlockStatus::fallback(
            KernelChoice::SmallLu,
            FactorError::NonFinite { row: 0, col: 1 },
            2,
            4,
        );
        assert_eq!(s.health, BlockHealth::NonFinite);
        assert_eq!(
            s.recovery,
            vec![RecoveryStep::ScalarJacobi, RecoveryStep::Identity]
        );

        // fully sanitized diagonal: pure identity fallback
        let s = BlockStatus::fallback(
            KernelChoice::SmallLu,
            FactorError::NonFinite { row: 0, col: 0 },
            3,
            3,
        );
        assert_eq!(s.recovery, vec![RecoveryStep::Identity]);
        assert!(s.is_fallback());

        // clean factorization is not a fallback
        assert!(!BlockStatus::factorized(KernelChoice::SmallLu).is_fallback());
    }

    #[test]
    fn equilibrated_lu_solves_badly_scaled_block() {
        // severely scaled block; the equilibrated path must recover the
        // true solution to near machine precision
        let a = DenseMat::from_row_major(2, 2, &[1e9, 2e9, 3e-9, 1e-9]);
        let (r, c) = vbatch_core::equilibrate(&a).unwrap();
        let e = vbatch_core::apply_equilibration(&a, &r, &c);
        let f = getrf(&e, PivotStrategy::Implicit).unwrap();
        let fb = FactorizedBatch {
            sizes: vec![2],
            factors: vec![BlockFactor::EquilibratedLu {
                n: 2,
                lu: f.lu.as_slice().to_vec(),
                perm: f.perm,
                r,
                c,
                a: a.as_slice().to_vec(),
            }],
            status: vec![BlockStatus::factorized(KernelChoice::SmallLu)],
            interleaved: Vec::new(),
            interleaved_lower: Vec::new(),
            retained: None,
        };
        let x_true = [1.5f64, -0.25];
        let mut seg = [
            a[(0, 0)] * x_true[0] + a[(0, 1)] * x_true[1],
            a[(1, 0)] * x_true[0] + a[(1, 1)] * x_true[1],
        ];
        fb.solve_block_inplace(0, &mut seg);
        assert!((seg[0] - x_true[0]).abs() < 1e-10, "{seg:?}");
        assert!((seg[1] - x_true[1]).abs() < 1e-10, "{seg:?}");
    }
}
