//! The factor store: what [`crate::Backend::factorize`] produces and
//! every solve path consumes, with per-block status.
//!
//! A block's entry is three orthogonal pieces of data:
//!
//! * [`BlockFactor`] — the *kernel family* whose solve applies it (LU in
//!   the block's own storage, LU in a slot of an interleaved class,
//!   Gauss-Huard, explicit inverse, Cholesky, QR, scalar Jacobi);
//! * the *storage precision* of its values, carried by the
//!   [`Storage`] arm the values sit in — the solve kernels are generic
//!   over it ([`vbatch_core::Stored`]), so a lowered factor runs the
//!   same code as a native one;
//! * an optional [`Wrapper`] around the family's bare solve: one
//!   refinement step against the working-precision original, with or
//!   without row/column scalings ([`refine_once`]).
//!
//! The LU families are read through one [`LuView`] (element accessor +
//! pivot row per step), whatever their storage and layout.
//!
//! The solves in this module are apply-phase hot paths (they run on
//! every preconditioned Krylov iteration): the `disallowed_methods` /
//! `disallowed_macros` deny below forbids `Vec::new` / `vec!` /
//! `to_vec` here so per-apply allocations cannot creep back in.
//! Setup-time code that legitimately allocates carries a targeted
//! `allow` with a comment.
#![deny(clippy::disallowed_methods, clippy::disallowed_macros)]

use crate::plan::KernelChoice;
use std::ops::Range;
use vbatch_core::{
    lu_solve_inplace_scratch, lu_solve_interleaved_slot_scratch, lu_solve_multi_inplace_scratch,
    residual_into, CholeskyFactors, DenseMat, FactorError, LuFactors, MatrixBatch, Permutation,
    QrFactors, Scalar, Storage, StoragePrecision, Stored, StoredGh, StoredVec, TrsvVariant,
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
    /// element-by-element and refines against the retained DP block
    /// ([`Wrapper::RefineRetained`]).
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

/// Run `$body` with `$v` bound to the payload of either [`Storage`]
/// arm — the one place a runtime storage precision turns into the type
/// parameter of a storage-generic kernel.
macro_rules! on_storage {
    ($storage:expr, $v:ident => $body:expr) => {
        match $storage {
            Storage::Native($v) => $body,
            Storage::Lower($v) => $body,
        }
    };
}
pub(crate) use on_storage;

/// One block's factors: the kernel family that applies them and where
/// their values live.
#[derive(Clone, Debug)]
pub enum BlockFactor<T: Scalar> {
    /// Combined `L\U` (column-major, pivot order) in the block's own
    /// storage, plus the pivot sequence, from any of the LU kernels.
    Lu {
        /// Combined factors, column-major, in either storage precision.
        lu: StoredVec<T>,
        /// Row-of-step pivot sequence.
        perm: Permutation,
    },
    /// Combined `L\U` in slot `slot` of an interleaved size class:
    /// class `class` of [`FactorizedBatch::interleaved`] for native
    /// storage, of [`FactorizedBatch::interleaved_lower`] for lowered.
    InterleavedLu {
        /// Index into the class slab `storage` selects.
        class: usize,
        /// Slot of this block within the class.
        slot: usize,
        /// Which class slab holds the values.
        storage: StoragePrecision,
    },
    /// Gauss-Huard factors (either layout, either storage precision).
    Gh(StoredGh<T>),
    /// Explicit inverse (column-major), from GJE inversion.
    Inv {
        /// Block order.
        n: usize,
        /// Inverse matrix, column-major.
        inv: Vec<T>,
    },
    /// Cholesky factor for SPD blocks.
    Chol(CholeskyFactors<T>),
    /// Column-pivoted Householder QR — the rank-revealing recovery tier
    /// above equilibration.
    Qr(QrFactors<T>),
    /// Scalar-Jacobi fallback: the reciprocal diagonal of the original
    /// block (identity where the diagonal was zero or non-finite).
    ScalarJacobi {
        /// Reciprocal diagonal entries.
        inv_diag: Vec<T>,
    },
}

/// What the apply wraps around a block's bare kernel solve: one step of
/// iterative refinement ([`refine_once`]) against the block's
/// working-precision original.
#[derive(Clone, Debug)]
pub enum Wrapper<T> {
    /// Refine against the block's original in
    /// [`FactorizedBatch::retained`] — every lowered-precision factor;
    /// lowered factors never carry a working-precision duplicate.
    RefineRetained,
    /// The factors are of the equilibrated block
    /// `diag(r) * A * diag(c)` (health triage recovery): solve through
    /// the scalings and refine against the block's own copy of `A`.
    Equilibrated {
        /// Row scalings.
        r: Vec<T>,
        /// Column scalings.
        c: Vec<T>,
        /// The original (unequilibrated) block, column-major.
        a: Vec<T>,
    },
}

/// `x := solve(b)`, then one step of iterative refinement against the
/// column-major `n × n` block `a`: `x += solve(b − A x)`, keeping only
/// finite corrections. `seg` holds `b` on entry and `x` on return;
/// `solve(v, inner)` applies the approximate inverse in place with `n`
/// elements of scratch. `scratch.len() >= 4 n` (saved right-hand side,
/// residual, correction, the inner solves' scratch); no heap allocation.
pub fn refine_once<T: Scalar>(
    n: usize,
    a: &[T],
    seg: &mut [T],
    scratch: &mut [T],
    mut solve: impl FnMut(&mut [T], &mut [T]),
) {
    debug_assert_eq!(seg.len(), n);
    let (saved, rest) = scratch[..4 * n].split_at_mut(n);
    let (resid, rest) = rest.split_at_mut(n);
    let (e, inner) = rest.split_at_mut(n);
    saved.copy_from_slice(seg);
    solve(seg, inner);
    residual_into(n, a, seg, saved, resid);
    e.copy_from_slice(resid);
    solve(e, inner);
    for (x, &ei) in seg.iter_mut().zip(e.iter()) {
        if ei.is_finite() {
            *x += ei;
        }
    }
}

/// One block's combined `L\U` factor wherever it lives, read through
/// one accessor: column-major element `e` sits at
/// `data[e * stride + offset]` and the pivot row of step `k` at
/// `piv[k * stride + offset]` — `stride = 1` for a block's own storage,
/// the class population (with `offset` the slot) for an interleaved
/// class.
#[derive(Clone, Copy, Debug)]
pub struct LuView<'a, S> {
    n: usize,
    data: &'a [S],
    piv: &'a [usize],
    stride: usize,
    offset: usize,
}

impl<'a, S: Scalar> LuView<'a, S> {
    fn own(lu: &'a [S], perm: &'a Permutation) -> Self {
        LuView {
            n: perm.len(),
            data: lu,
            piv: perm.as_slice(),
            stride: 1,
            offset: 0,
        }
    }

    /// Block order.
    pub fn order(&self) -> usize {
        self.n
    }

    /// Element `(i, j)` of the combined factor.
    #[inline]
    pub fn at(&self, i: usize, j: usize) -> S {
        self.data[(j * self.n + i) * self.stride + self.offset]
    }

    /// Original row chosen as pivot of step `k`.
    #[inline]
    pub fn row_of_step(&self, k: usize) -> usize {
        self.piv[k * self.stride + self.offset]
    }

    /// The permuted eager `getrs` solve against this factor, in place on
    /// `b` (working scalar `T`); `scratch.len() >= n`, no heap
    /// allocation. A strided view runs the same operation sequence as a
    /// contiguous one, so the layouts agree bitwise.
    #[inline]
    pub fn solve_inplace<T: Scalar>(&self, b: &mut [T], scratch: &mut [T])
    where
        S: Stored<T>,
    {
        if self.stride == 1 {
            lu_solve_inplace_scratch(TrsvVariant::Eager, self.n, self.data, self.piv, b, scratch);
        } else {
            lu_solve_interleaved_slot_scratch(
                self.n,
                self.stride,
                self.offset,
                self.data,
                self.piv,
                b,
                scratch,
            );
        }
    }

    /// Scratch elements [`LuView::solve_multi_inplace`] needs for `nrhs`
    /// right-hand sides: the transposed right-hand sides, plus the
    /// unpacked factor for a strided view.
    pub fn multi_scratch_elems(&self, nrhs: usize) -> usize {
        let gather = if self.stride == 1 { 0 } else { self.n * self.n };
        gather + self.n * nrhs
    }

    /// Solve against every column of the column-major `n × nrhs` matrix
    /// `rhs` in place, reading the factor once for all columns
    /// ([`lu_solve_multi_inplace_scratch`]): a strided view is gathered
    /// into contiguous scratch a single time. Each column's result is
    /// bitwise [`LuView::solve_inplace`]'s. No heap allocation.
    pub fn solve_multi_inplace(&self, nrhs: usize, rhs: &mut [S], scratch: &mut [S]) {
        let (n, stride, offset) = (self.n, self.stride, self.offset);
        let piv = self.piv;
        let row_of_step = |k: usize| piv[k * stride + offset];
        if stride == 1 {
            lu_solve_multi_inplace_scratch(n, nrhs, self.data, row_of_step, rhs, scratch);
        } else {
            let (lu, w) = scratch.split_at_mut(n * n);
            for (e, x) in lu.iter_mut().enumerate() {
                *x = self.data[e * stride + offset];
            }
            lu_solve_multi_inplace_scratch(n, nrhs, lu, row_of_step, rhs, w);
        }
    }

    /// Contiguous copy of the factor and its pivots, for the host
    /// condition estimator.
    // setup-time triage, not an apply path
    #[allow(clippy::disallowed_methods)]
    pub fn to_factors(&self) -> LuFactors<S> {
        LuFactors {
            lu: DenseMat::from_fn(self.n, self.n, |i, j| self.at(i, j)),
            perm: Permutation::from_row_of_step(self.pivots()),
        }
    }

    /// The whole row-of-step pivot sequence.
    // test/diagnostic and setup-time API, not an apply path
    #[allow(clippy::disallowed_methods)]
    pub fn pivots(&self) -> Vec<usize> {
        (0..self.n).map(|k| self.row_of_step(k)).collect()
    }
}

/// One interleaved size class (in practice one cache-sized chunk of
/// one): `blocks.len()` systems of order `n` whose combined `L\U`
/// values and row-of-step pivot lanes are ranges of the [`ClassSlab`]
/// that lists it — element-interleaved,
/// `values[data][(j*n + i) * count + slot]` and
/// `pivots[piv][k * count + slot]`.
#[derive(Clone, Debug)]
pub struct InterleavedLuClass {
    /// Block order of the class.
    pub n: usize,
    /// Slot → original block index.
    pub blocks: Vec<usize>,
    /// The class's `n² · count` elements of the slab's value array.
    pub data: Range<usize>,
    /// The class's `n · count` elements of the slab's pivot array.
    pub piv: Range<usize>,
}

impl InterleavedLuClass {
    /// Number of slots in the class.
    pub fn count(&self) -> usize {
        self.blocks.len()
    }
}

/// Every interleaved class of one storage precision: one value array
/// and one pivot array, each class a range of both. Under the native
/// precision the value array may be the factorized batch's own (see
/// [`crate::Backend::factorize`] on the host backends): the classes
/// then tile it exactly and no second copy of the batch was made.
#[derive(Clone, Debug)]
pub struct ClassSlab<S> {
    values: Vec<S>,
    pivots: Vec<usize>,
    classes: Vec<InterleavedLuClass>,
}

impl<S: Scalar> ClassSlab<S> {
    /// No classes, no storage.
    // setup-time construction, not an apply path
    #[allow(clippy::disallowed_methods)]
    pub fn empty() -> Self {
        ClassSlab {
            values: Vec::new(),
            pivots: Vec::new(),
            classes: Vec::new(),
        }
    }

    /// `classes` over `values` and `pivots`; every class's ranges must
    /// lie inside them.
    pub(crate) fn new(
        values: Vec<S>,
        pivots: Vec<usize>,
        classes: Vec<InterleavedLuClass>,
    ) -> Self {
        for c in &classes {
            assert_eq!(c.data.len(), c.n * c.n * c.count());
            assert_eq!(c.piv.len(), c.n * c.count());
            assert!(c.data.end <= values.len() && c.piv.end <= pivots.len());
        }
        ClassSlab {
            values,
            pivots,
            classes,
        }
    }

    /// The classes, in the order [`BlockFactor::InterleavedLu`] indexes
    /// them.
    pub fn classes(&self) -> &[InterleavedLuClass] {
        &self.classes
    }

    /// The whole value array every class is a range of.
    pub fn values(&self) -> &[S] {
        &self.values
    }

    /// Interleaved combined `L\U` factors of class `class`.
    pub fn data(&self, class: usize) -> &[S] {
        &self.values[self.classes[class].data.clone()]
    }

    /// Interleaved row-of-step pivot lanes of class `class`.
    pub fn piv(&self, class: usize) -> &[usize] {
        &self.pivots[self.classes[class].piv.clone()]
    }

    /// The factor of slot `slot` of class `class`, read in place with
    /// stride `count`.
    pub fn slot_view(&self, class: usize, slot: usize) -> LuView<'_, S> {
        let cls = &self.classes[class];
        LuView {
            n: cls.n,
            data: self.data(class),
            piv: self.piv(class),
            stride: cls.count(),
            offset: slot,
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
/// [`crate::Backend::solve`] / [`crate::Backend::solve_prepared`].
#[derive(Clone, Debug)]
pub struct FactorizedBatch<T: Scalar> {
    /// Block orders.
    pub sizes: Vec<usize>,
    /// Per-block factors.
    pub factors: Vec<BlockFactor<T>>,
    /// Per-block wrapper around the factor's bare solve (`None`: the
    /// bare solve is the apply).
    pub wrappers: Vec<Option<Wrapper<T>>>,
    /// Per-block factorization status.
    pub status: Vec<BlockStatus>,
    /// Native-precision interleaved size classes (empty for a fully
    /// blocked factorization).
    pub interleaved: ClassSlab<T>,
    /// Lowered-precision interleaved size classes (empty under the
    /// full-precision policy).
    pub interleaved_lower: ClassSlab<T::Lower>,
    /// The original batch in working precision, retained only under a
    /// storage-lowering precision policy: [`Wrapper::RefineRetained`]
    /// reads its residuals out of it — which is why a lowered plan
    /// never factorizes in the batch's own storage. `None` under
    /// `FullDp` (and at the `f32` floor), where factorization consumes
    /// the batch: it is dropped, or its value array lives on as
    /// [`FactorizedBatch::interleaved`]'s.
    pub retained: Option<MatrixBatch<T>>,
}

impl<T: Scalar> FactorizedBatch<T> {
    /// A batch whose factors all live in per-block storage: no
    /// interleaved classes, no wrappers, nothing retained.
    // setup-time construction, not an apply path
    #[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
    pub fn blocked(
        sizes: Vec<usize>,
        factors: Vec<BlockFactor<T>>,
        status: Vec<BlockStatus>,
    ) -> Self {
        FactorizedBatch {
            wrappers: vec![None; sizes.len()],
            sizes,
            factors,
            status,
            interleaved: ClassSlab::empty(),
            interleaved_lower: ClassSlab::empty(),
            retained: None,
        }
    }

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

    /// The block's combined `L\U` factor, when its kernel family is one
    /// of the two LU forms.
    pub fn lu_view(&self, block: usize) -> Option<Storage<LuView<'_, T>, LuView<'_, T::Lower>>> {
        match &self.factors[block] {
            BlockFactor::Lu { lu, perm } => Some(match lu {
                Storage::Native(lu) => Storage::Native(LuView::own(lu, perm)),
                Storage::Lower(lu) => Storage::Lower(LuView::own(lu, perm)),
            }),
            &BlockFactor::InterleavedLu {
                class,
                slot,
                storage,
            } => Some(match storage {
                StoragePrecision::Native => {
                    Storage::Native(self.interleaved.slot_view(class, slot))
                }
                StoragePrecision::Lower => {
                    Storage::Lower(self.interleaved_lower.slot_view(class, slot))
                }
            }),
            _ => None,
        }
    }

    /// The block's LU factor when its apply is exactly the bare native
    /// LU solve (native storage, no wrapper) — the form the read-once
    /// multi-RHS solve takes over.
    pub fn bare_native_lu(&self, block: usize) -> Option<LuView<'_, T>> {
        match (&self.wrappers[block], self.lu_view(block)) {
            (None, Some(Storage::Native(view))) => Some(view),
            _ => None,
        }
    }

    /// Scratch elements the bare kernel solve of block `block` needs:
    /// `n` for the single-copy forms (permutation gather, GH un-permute,
    /// GEMV input, QR reflector workspace), `0` for the copy-free ones.
    fn bare_scratch_elems(&self, block: usize) -> usize {
        match &self.factors[block] {
            BlockFactor::Chol(_) | BlockFactor::ScalarJacobi { .. } => 0,
            _ => self.sizes[block],
        }
    }

    /// Scratch elements [`FactorizedBatch::solve_block_inplace_with`]
    /// needs for block `block`: the bare solve's, or `4 n` under a
    /// refining [`Wrapper`].
    pub fn solve_scratch_elems(&self, block: usize) -> usize {
        match self.wrappers[block] {
            None => self.bare_scratch_elems(block),
            Some(_) => 4 * self.sizes[block],
        }
    }

    /// The kernel family's own solve, without the wrapper.
    fn solve_bare(&self, block: usize, seg: &mut [T], scratch: &mut [T]) {
        match &self.factors[block] {
            BlockFactor::Lu { .. } | BlockFactor::InterleavedLu { .. } => {
                let view = self.lu_view(block).expect("LU families have a view");
                on_storage!(view, v => v.solve_inplace(seg, scratch));
            }
            BlockFactor::Gh(f) => on_storage!(f, f => f.solve_inplace_scratch(seg, scratch)),
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
            BlockFactor::Qr(f) => f.solve_inplace_scratch(seg, scratch),
            BlockFactor::ScalarJacobi { inv_diag } => {
                for (s, &d) in seg.iter_mut().zip(inv_diag) {
                    *s *= d;
                }
            }
        }
    }

    /// Solve block `block` against segment `seg` in place with
    /// caller-provided scratch
    /// (`scratch.len() >= solve_scratch_elems(block)`): every temporary
    /// of the bare solve and of the refinement wrapper lands in
    /// `scratch`, so the apply performs zero heap allocations.
    pub fn solve_block_inplace_with(&self, block: usize, seg: &mut [T], scratch: &mut [T]) {
        let n = self.sizes[block];
        debug_assert_eq!(seg.len(), n);
        debug_assert!(scratch.len() >= self.solve_scratch_elems(block));
        let (a, scaling) = match &self.wrappers[block] {
            None => return self.solve_bare(block, seg, scratch),
            Some(Wrapper::RefineRetained) => {
                let retained = self
                    .retained
                    .as_ref()
                    .expect("lowered factors require the retained working-precision batch");
                (retained.block(block), None)
            }
            Some(Wrapper::Equilibrated { r, c, a }) => (a.as_slice(), Some((r, c))),
        };
        refine_once(n, a, seg, scratch, |x, inner| {
            // x := diag(c) * solve(diag(r) * x)
            if let Some((r, _)) = scaling {
                for (xi, &ri) in x.iter_mut().zip(r) {
                    *xi *= ri;
                }
            }
            self.solve_bare(block, x, inner);
            if let Some((_, c)) = scaling {
                for (xi, &ci) in x.iter_mut().zip(c) {
                    *xi *= ci;
                }
            }
        });
    }

    /// Scratch elements [`FactorizedBatch::solve_block_multi_inplace_with`]
    /// needs for `nrhs` right-hand sides against block `block`.
    pub fn solve_multi_scratch_elems(&self, block: usize, nrhs: usize) -> usize {
        match self.bare_native_lu(block) {
            Some(view) => view.multi_scratch_elems(nrhs),
            None => self.solve_scratch_elems(block),
        }
    }

    /// Solve block `block` against every column of the column-major
    /// `n × nrhs` matrix `rhs` in place — the setup-time normalisation
    /// `Ũ_i* = D_i^{-1} Ū_i*` of a whole block row in one call.
    ///
    /// A bare native LU factor is read once for all columns
    /// ([`LuView::solve_multi_inplace`]); every other form is solved
    /// column by column through
    /// [`FactorizedBatch::solve_block_inplace_with`]. Either way each
    /// column's result is bitwise what `solve_block_inplace_with`
    /// returns for it, so a normalised factor composes with the
    /// prepared apply exactly.
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
        match self.bare_native_lu(block) {
            Some(view) => view.solve_multi_inplace(nrhs, rhs, scratch),
            None => {
                for col in rhs.chunks_exact_mut(n) {
                    self.solve_block_inplace_with(block, col, scratch);
                }
            }
        }
    }

    /// Row-of-step pivot sequence of block `block`, when its factors
    /// are an LU of the block as given (an equilibrated factor's pivots
    /// are those of the scaled block, so it reports `None`). Used by
    /// the golden differential suite to assert bitwise pivot agreement.
    pub fn row_of_step(&self, block: usize) -> Option<Vec<usize>> {
        if matches!(self.wrappers[block], Some(Wrapper::Equilibrated { .. })) {
            return None;
        }
        self.lu_view(block)
            .map(|view| on_storage!(view, v => v.pivots()))
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod tests {
    use super::*;
    use vbatch_core::{getrf, PivotStrategy};

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
        let fb = FactorizedBatch::blocked(
            vec![2],
            vec![BlockFactor::Inv {
                n: 2,
                inv: vec![0.5, 0.0, 0.0, 0.25],
            }],
            vec![BlockStatus::factorized(KernelChoice::GjeInvert)],
        );
        let mut seg = [8.0f64, 8.0];
        fb.solve_block_inplace_with(0, &mut seg, &mut [0.0; 2]);
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
        let mut fb = FactorizedBatch::blocked(
            vec![2],
            vec![BlockFactor::Lu {
                lu: Storage::Native(f.lu.as_slice().to_vec()),
                perm: f.perm,
            }],
            vec![BlockStatus::factorized(KernelChoice::SmallLu)],
        );
        fb.wrappers[0] = Some(Wrapper::Equilibrated {
            r,
            c,
            a: a.as_slice().to_vec(),
        });
        assert_eq!(fb.solve_scratch_elems(0), 8);
        assert!(fb.row_of_step(0).is_none(), "pivots of the scaled block");
        let x_true = [1.5f64, -0.25];
        let mut seg = [
            a[(0, 0)] * x_true[0] + a[(0, 1)] * x_true[1],
            a[(1, 0)] * x_true[0] + a[(1, 1)] * x_true[1],
        ];
        fb.solve_block_inplace_with(0, &mut seg, &mut [0.0; 8]);
        assert!((seg[0] - x_true[0]).abs() < 1e-10, "{seg:?}");
        assert!((seg[1] - x_true[1]).abs() < 1e-10, "{seg:?}");
    }
}
