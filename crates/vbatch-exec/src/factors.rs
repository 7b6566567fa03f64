//! The factor store: what [`crate::Backend::factorize`] produces and
//! every solve path consumes, with per-block status.
//!
//! A block has a record only when it has something of its own. A
//! *clean slot* — a member of an interleaved class that factorized
//! cleanly — is its `(class, slot)` in the batch's [`ClassSlab`], and
//! its status is implied: kernel LU, healthy, no error, no recovery, the
//! slab's storage precision, not promoted (plus a condition estimate, if
//! a triage or promotion pass made one). Every other block — a member
//! of a blocked class, a fallback, a triage recovery, a promotion — has
//! a [`BlockFactor`] of its own and its [`BlockStatus`].
//!
//! A factor's storage precision is the [`Storage`] arm its values sit
//! in (the slab's, for a slot); the solve kernels are generic over it
//! ([`vbatch_core::Stored`]), and a lowered factor's apply refines once
//! against the retained working-precision original ([`refine_once`]),
//! as an equilibrated one does against its own copy of the block. The
//! LU forms are read through one [`LuView`], whatever their storage and
//! layout.
//!
//! The solves in this module are apply-phase hot paths (they run on
//! every preconditioned Krylov iteration): the `disallowed_methods` /
//! `disallowed_macros` deny below forbids `Vec::new` / `vec!` /
//! `to_vec` here so per-apply allocations cannot creep back in.
//! Setup-time code that legitimately allocates carries a targeted
//! `allow` with a comment.
#![deny(clippy::disallowed_methods, clippy::disallowed_macros)]

use crate::plan::KernelChoice;
use crate::stats::ExecStats;
use std::ops::Range;
use vbatch_core::{
    residual_into, CholeskyFactors, FactorError, LuView, MatrixBatch, Permutation, QrFactors,
    Scalar, Storage, StoragePrecision, StoredGh, StoredVec,
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

    /// The steps of a scalar-Jacobi fallback that replaced `sanitized`
    /// of its `n` diagonal entries by ones.
    pub(crate) fn jacobi(sanitized: usize, n: usize) -> impl Iterator<Item = RecoveryStep> {
        let steps = [
            (sanitized < n, RecoveryStep::ScalarJacobi),
            (sanitized > 0, RecoveryStep::Identity),
        ];
        steps
            .into_iter()
            .filter_map(|(taken, step)| taken.then_some(step))
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
    /// element-by-element and refines once against the retained DP
    /// block.
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
    pub fn fallback(kernel: KernelChoice, error: FactorError, sanitized: usize, n: usize) -> Self {
        let health = match error {
            FactorError::NonFinite { .. } => BlockHealth::NonFinite,
            _ => BlockHealth::Singular,
        };
        BlockStatus {
            health,
            error: Some(error),
            recovery: RecoveryStep::jacobi(sanitized, n).collect(),
            ..BlockStatus::factorized(kernel)
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

/// One block's own factors: the kernel family that applies them and
/// where their values live. A clean slot of an interleaved class has
/// none (see the module docs).
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
    /// LU of the equilibrated block `diag(r) · A · diag(c)` — health
    /// triage's first recovery: the solve runs through the scalings and
    /// refines once against `a`, the block as given.
    Equilibrated {
        /// Combined factors of the scaled block, column-major.
        lu: Vec<T>,
        /// Row-of-step pivot sequence of the scaled block.
        perm: Permutation,
        /// Row scalings.
        r: Vec<T>,
        /// Column scalings.
        c: Vec<T>,
        /// The original (unequilibrated) block, column-major.
        a: Vec<T>,
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

impl<T: Scalar> BlockFactor<T> {
    /// Precision the factor's values are stored in.
    pub fn storage(&self) -> StoragePrecision {
        match self {
            BlockFactor::Lu { lu, .. } => lu.precision(),
            BlockFactor::Gh(gh) => gh.precision(),
            _ => StoragePrecision::Native,
        }
    }
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

/// One interleaved size class (in practice one cache-sized chunk of
/// one): `count` systems of order `n` whose members, combined `L\U`
/// values and row-of-step pivot lanes are ranges of the [`ClassSlab`]
/// that lists it — element-interleaved,
/// `values[data][(j*n + i) * count + slot]` and
/// `pivots[piv][k * count + slot]`.
#[derive(Clone, Debug)]
pub struct InterleavedLuClass {
    /// Block order of the class.
    pub n: usize,
    /// The class's slots of the slab's member array (slot → block).
    pub members: Range<usize>,
    /// The class's `n² · count` elements of the slab's value array.
    pub data: Range<usize>,
    /// The class's `n · count` elements of the slab's pivot array.
    pub piv: Range<usize>,
}

impl InterleavedLuClass {
    /// Number of slots in the class.
    pub fn count(&self) -> usize {
        self.members.len()
    }
}

/// Every interleaved class of one storage precision: one member array,
/// one value array and one pivot array, each class a range of all
/// three. Under the native precision the value array may be the
/// factorized batch's own (see [`crate::Backend::factorize`] on the host
/// backends): the classes then tile it exactly and no second copy of
/// the batch was made.
#[derive(Clone, Debug)]
pub struct ClassSlab<S> {
    values: Vec<S>,
    pivots: Vec<usize>,
    members: Vec<usize>,
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
            members: Vec::new(),
            classes: Vec::new(),
        }
    }

    /// `classes` over `values`, `pivots` and `members`; every class's
    /// ranges must lie inside them.
    pub(crate) fn new(
        values: Vec<S>,
        pivots: Vec<usize>,
        members: Vec<usize>,
        classes: Vec<InterleavedLuClass>,
    ) -> Self {
        for c in &classes {
            assert_eq!(c.data.len(), c.n * c.n * c.count());
            assert_eq!(c.piv.len(), c.n * c.count());
            assert!(c.data.end <= values.len() && c.piv.end <= pivots.len());
            assert!(c.members.end <= members.len());
        }
        ClassSlab {
            values,
            pivots,
            members,
            classes,
        }
    }

    /// The classes, in the order a clean slot's `(class, slot)` indexes
    /// them.
    pub fn classes(&self) -> &[InterleavedLuClass] {
        &self.classes
    }

    /// The whole value array every class is a range of.
    pub fn values(&self) -> &[S] {
        &self.values
    }

    /// Slot → block index of class `class`.
    pub fn members(&self, class: usize) -> &[usize] {
        &self.members[self.classes[class].members.clone()]
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
    fn slot_view(&self, class: usize, slot: usize) -> LuView<'_, S> {
        let cls = &self.classes[class];
        LuView::slot(cls.n, cls.count(), slot, self.data(class), self.piv(class))
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

/// Where a block's factor and status live: a clean slot of the slab,
/// or an index into the records.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Home {
    Slot { class: u32, slot: u32 },
    Record(u32),
}

/// A block with something of its own: its factor and its status.
#[derive(Clone, Debug)]
pub(crate) struct Record<T: Scalar> {
    pub(crate) factor: BlockFactor<T>,
    pub(crate) status: BlockStatus,
}

/// A factorized variable-size batch with per-block status, produced by
/// [`crate::Backend::factorize`] and consumed by
/// [`crate::Backend::solve`] / [`crate::Backend::solve_prepared`]; see
/// the module docs for what a block costs.
#[derive(Clone, Debug)]
pub struct FactorizedBatch<T: Scalar> {
    sizes: Vec<usize>,
    homes: Vec<Home>,
    records: Vec<Record<T>>,
    /// The interleaved classes, in the storage precision of every clean
    /// slot (an empty native slab for a fully blocked factorization).
    slab: Storage<ClassSlab<T>, ClassSlab<T::Lower>>,
    /// Condition estimates of clean slots by block, once a pass made one.
    slot_condest: Vec<Option<f64>>,
    /// The original batch in working precision, retained only under a
    /// storage-lowering precision policy: a lowered factor's apply reads
    /// its residuals out of it — which is why a lowered plan never
    /// factorizes in the batch's own storage. `None` under `FullDp` (and
    /// at the `f32` floor), where factorization consumes the batch: it
    /// is dropped, or its value array lives on as the slab's.
    retained: Option<MatrixBatch<T>>,
}

impl<T: Scalar> FactorizedBatch<T> {
    /// A batch over `slab` whose block `i` lives at `homes[i]`.
    // setup-time construction, not an apply path
    #[allow(clippy::disallowed_methods)]
    pub(crate) fn new(
        sizes: Vec<usize>,
        homes: Vec<Home>,
        records: Vec<Record<T>>,
        slab: Storage<ClassSlab<T>, ClassSlab<T::Lower>>,
    ) -> Self {
        assert_eq!(sizes.len(), homes.len());
        FactorizedBatch {
            sizes,
            homes,
            records,
            slab,
            slot_condest: Vec::new(),
            retained: None,
        }
    }

    /// A batch of records only: no slab, nothing retained.
    #[cfg(test)]
    pub(crate) fn blocked(
        sizes: Vec<usize>,
        factors: Vec<BlockFactor<T>>,
        status: Vec<BlockStatus>,
    ) -> Self {
        let homes = (0..sizes.len() as u32).map(Home::Record).collect();
        let records = factors.into_iter().zip(status);
        let records = records.map(|(factor, status)| Record { factor, status });
        FactorizedBatch::new(
            sizes,
            homes,
            records.collect(),
            Storage::Native(ClassSlab::empty()),
        )
    }

    /// Keep the originals the lowered factors refine against.
    pub(crate) fn retain(&mut self, originals: MatrixBatch<T>) {
        self.retained = Some(originals);
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.sizes.len()
    }

    /// `true` when the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.sizes.is_empty()
    }

    /// Block orders.
    pub fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// Number of blocks that degraded to the scalar-Jacobi fallback.
    pub fn fallback_count(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.status.is_fallback())
            .count()
    }

    /// The status of every clean slot, its condition estimate aside.
    fn slot_status(&self) -> BlockStatus {
        let mut status = BlockStatus::factorized(KernelChoice::Lu);
        status.precision = self.slab.precision();
        status
    }

    /// Book every block's outcome in `stats`, the clean slots as one
    /// count.
    pub(crate) fn book(&self, stats: &mut ExecStats) {
        let slots = self.homes.iter().filter(|h| matches!(h, Home::Slot { .. }));
        stats.record_status(&self.slot_status(), slots.count() as u64);
        self.records
            .iter()
            .for_each(|r| stats.record_status(&r.status, 1));
    }

    /// Block `block`'s factorization status.
    pub fn status(&self, block: usize) -> BlockStatus {
        match self.homes[block] {
            Home::Slot { .. } => BlockStatus {
                condest: self.slot_condest.get(block).copied().flatten(),
                ..self.slot_status()
            },
            Home::Record(r) => self.records[r as usize].status.clone(),
        }
    }

    /// Every block's status, in block order.
    pub fn statuses(&self) -> impl ExactSizeIterator<Item = BlockStatus> + '_ {
        (0..self.len()).map(|block| self.status(block))
    }

    /// Cache a condition estimate on block `block`'s status.
    pub(crate) fn set_condest(&mut self, block: usize, k: f64) {
        match self.homes[block] {
            Home::Slot { .. } => {
                self.slot_condest.resize(self.sizes.len(), None);
                self.slot_condest[block] = Some(k);
            }
            Home::Record(r) => self.records[r as usize].status.condest = Some(k),
        }
    }

    /// Give block `block` a factor of its own (a promotion, a recovery).
    pub(crate) fn replace(&mut self, block: usize, factor: BlockFactor<T>, status: BlockStatus) {
        let record = Record { factor, status };
        match self.homes[block] {
            Home::Record(r) => self.records[r as usize] = record,
            Home::Slot { .. } => {
                self.homes[block] = Home::Record(self.records.len() as u32);
                self.records.push(record);
            }
        }
    }

    /// Block `block`'s own factor; `None` for a clean slot, whose factor
    /// is its slot of the slab ([`FactorizedBatch::lu_view`]).
    pub fn factor(&self, block: usize) -> Option<&BlockFactor<T>> {
        match self.homes[block] {
            Home::Slot { .. } => None,
            Home::Record(r) => Some(&self.records[r as usize].factor),
        }
    }

    /// Precision block `block`'s factor values are stored in.
    pub fn storage(&self, block: usize) -> StoragePrecision {
        self.factor(block)
            .map_or(self.slab.precision(), BlockFactor::storage)
    }

    /// The class slab, when its slots are stored natively.
    pub fn interleaved(&self) -> Option<&ClassSlab<T>> {
        match &self.slab {
            Storage::Native(slab) => Some(slab),
            Storage::Lower(_) => None,
        }
    }

    /// The block's combined `L\U` factor, when it is a clean slot or an
    /// LU of its own.
    pub fn lu_view(&self, block: usize) -> Option<Storage<LuView<'_, T>, LuView<'_, T::Lower>>> {
        match (self.homes[block], self.factor(block)) {
            (Home::Slot { class, slot }, _) => {
                let (class, slot) = (class as usize, slot as usize);
                Some(match &self.slab {
                    Storage::Native(s) => Storage::Native(s.slot_view(class, slot)),
                    Storage::Lower(s) => Storage::Lower(s.slot_view(class, slot)),
                })
            }
            (_, Some(BlockFactor::Lu { lu, perm })) => Some(match lu {
                Storage::Native(lu) => Storage::Native(LuView::new(lu, perm.as_slice())),
                Storage::Lower(lu) => Storage::Lower(LuView::new(lu, perm.as_slice())),
            }),
            _ => None,
        }
    }

    /// The block's LU factor when its apply is exactly the bare native
    /// LU solve — the form the read-once multi-RHS solve takes over.
    fn bare_native_lu(&self, block: usize) -> Option<LuView<'_, T>> {
        match self.lu_view(block)? {
            Storage::Native(view) => Some(view),
            Storage::Lower(_) => None,
        }
    }

    /// What the apply of block `block` refines once against, and the
    /// row and column scalings it solves through (empty but for an
    /// equilibrated factor); `None` when the bare solve is the apply.
    fn refinement(&self, block: usize) -> Option<(&[T], &[T], &[T])> {
        match self.factor(block) {
            Some(BlockFactor::Equilibrated { r, c, a, .. }) => Some((a, r, c)),
            _ if self.storage(block) == StoragePrecision::Lower => {
                let retained = self.retained.as_ref();
                let retained = retained.expect("lowered factors refine against the originals");
                Some((retained.block(block), &[], &[]))
            }
            _ => None,
        }
    }

    /// Scratch elements [`FactorizedBatch::solve_block_inplace_with`]
    /// needs for block `block`: `4 n` when the apply refines; else `n`
    /// for the single-copy forms (permutation gather, GH un-permute,
    /// GEMV input, QR reflector workspace), `0` for the copy-free ones.
    pub fn solve_scratch_elems(&self, block: usize) -> usize {
        match self.factor(block) {
            _ if self.refinement(block).is_some() => 4 * self.sizes[block],
            Some(BlockFactor::Chol(_) | BlockFactor::ScalarJacobi { .. }) => 0,
            _ => self.sizes[block],
        }
    }

    /// The kernel family's own solve, without the refinement step.
    fn solve_bare(&self, block: usize, seg: &mut [T], scratch: &mut [T]) {
        match self.factor(block) {
            None | Some(BlockFactor::Lu { .. }) => {
                let view = self.lu_view(block).expect("LU forms have a view");
                on_storage!(view, v => v.solve_inplace(seg, scratch));
            }
            Some(BlockFactor::Equilibrated { lu, perm, .. }) => {
                LuView::new(lu, perm.as_slice()).solve_inplace(seg, scratch)
            }
            Some(BlockFactor::Gh(f)) => on_storage!(f, f => f.solve_inplace_scratch(seg, scratch)),
            Some(BlockFactor::Inv { n, inv }) => {
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
            Some(BlockFactor::Chol(f)) => f.solve_inplace(seg),
            Some(BlockFactor::Qr(f)) => f.solve_inplace_scratch(seg, scratch),
            Some(BlockFactor::ScalarJacobi { inv_diag }) => {
                for (s, &d) in seg.iter_mut().zip(inv_diag) {
                    *s *= d;
                }
            }
        }
    }

    /// Solve block `block` against segment `seg` in place with
    /// caller-provided scratch
    /// (`scratch.len() >= solve_scratch_elems(block)`): every temporary
    /// of the bare solve and of the refinement step lands in `scratch`,
    /// so the apply performs zero heap allocations.
    pub fn solve_block_inplace_with(&self, block: usize, seg: &mut [T], scratch: &mut [T]) {
        let n = self.sizes[block];
        debug_assert_eq!(seg.len(), n);
        debug_assert!(scratch.len() >= self.solve_scratch_elems(block));
        let Some((a, r, c)) = self.refinement(block) else {
            return self.solve_bare(block, seg, scratch);
        };
        refine_once(n, a, seg, scratch, |x, inner| {
            // x := diag(c) * solve(diag(r) * x)
            x.iter_mut().zip(r).for_each(|(xi, &ri)| *xi *= ri);
            self.solve_bare(block, x, inner);
            x.iter_mut().zip(c).for_each(|(xi, &ci)| *xi *= ci);
        });
    }

    /// Scratch elements [`FactorizedBatch::solve_block_multi_inplace_with`]
    /// needs for `nrhs` right-hand sides against block `block`.
    pub fn solve_multi_scratch_elems(&self, block: usize, nrhs: usize) -> usize {
        match self.bare_native_lu(block) {
            Some(_) => self.sizes[block] * nrhs,
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
        self.lu_view(block)
            .map(|view| on_storage!(view, v => v.pivots()))
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
            KernelChoice::Lu,
            FactorError::SingularPivot { step: 1 },
            0,
            4,
        );
        assert_eq!(s.health, BlockHealth::Singular);
        assert_eq!(s.recovery, vec![RecoveryStep::ScalarJacobi]);
        assert!(s.is_fallback());

        let s = BlockStatus::fallback(
            KernelChoice::Lu,
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
            KernelChoice::Lu,
            FactorError::NonFinite { row: 0, col: 0 },
            3,
            3,
        );
        assert_eq!(s.recovery, vec![RecoveryStep::Identity]);
        assert!(s.is_fallback());

        // clean factorization is not a fallback
        assert!(!BlockStatus::factorized(KernelChoice::Lu).is_fallback());
    }

    #[test]
    fn equilibrated_lu_solves_badly_scaled_block() {
        // severely scaled block; the equilibrated path must recover the
        // true solution to near machine precision
        let a = DenseMat::from_row_major(2, 2, &[1e9, 2e9, 3e-9, 1e-9]);
        let (r, c) = vbatch_core::equilibrate(&a).unwrap();
        let e = vbatch_core::apply_equilibration(&a, &r, &c);
        let f = getrf(&e, PivotStrategy::Implicit).unwrap();
        let fb = FactorizedBatch::blocked(
            vec![2],
            vec![BlockFactor::Equilibrated {
                lu: f.lu.as_slice().to_vec(),
                perm: f.perm,
                r,
                c,
                a: a.as_slice().to_vec(),
            }],
            vec![BlockStatus::factorized(KernelChoice::Lu)],
        );
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
