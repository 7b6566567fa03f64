//! Kernel planning: a [`BatchPlan`] is the table of a batch's size
//! classes, one `(kernel, layout)` per class. The host reads two things
//! off a class: its kernel *family* (LU, Gauss-Huard, inversion,
//! Cholesky) and its layout — any LU class whose population reaches the
//! requested `class_capacity` is interleaved, at every order; ragged
//! tails stay blocked. Which of the three LU names a class carries is
//! the paper's launch shape (packed ≤ 16, one row per lane ≤ 32, two
//! rows per lane above): the label the crossovers give the class, and
//! what the benchmark's launch estimator
//! (`vbatch_bench::estimate_planned_factor`) charges the device model.

use vbatch_core::{BatchLayout, Scalar};

/// A concrete kernel selected for a size class of a batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum KernelChoice {
    /// Multi-problem-per-warp packed LU (`⌊32/n⌋` problems per warp,
    /// n ≤ 16).
    PackedLu,
    /// Register-resident small-size LU with implicit pivoting (n ≤ 32).
    SmallLu,
    /// Two-rows-per-lane blocked LU (n > 32; the device model covers up
    /// to 64).
    BlockedLu,
    /// Gauss-Huard with row-major factor storage.
    GaussHuard,
    /// Gauss-Huard-T: dual storage with a coalesced column copy.
    GaussHuardT,
    /// Gauss-Jordan explicit inversion (apply becomes a GEMV).
    GjeInvert,
    /// Cholesky for SPD blocks.
    Cholesky,
}

impl KernelChoice {
    /// Every choice, in display order.
    pub const ALL: [KernelChoice; 7] = [
        KernelChoice::PackedLu,
        KernelChoice::SmallLu,
        KernelChoice::BlockedLu,
        KernelChoice::GaussHuard,
        KernelChoice::GaussHuardT,
        KernelChoice::GjeInvert,
        KernelChoice::Cholesky,
    ];

    /// Stable label used in stats histograms and CSV columns.
    pub fn label(self) -> &'static str {
        match self {
            KernelChoice::PackedLu => "packed-lu",
            KernelChoice::SmallLu => "small-lu",
            KernelChoice::BlockedLu => "blocked-lu",
            KernelChoice::GaussHuard => "gauss-huard",
            KernelChoice::GaussHuardT => "gauss-huard-t",
            KernelChoice::GjeInvert => "gje-invert",
            KernelChoice::Cholesky => "cholesky",
        }
    }

    /// `true` for the three launch shapes of the LU family, which the
    /// host runs as one kernel (per block or as lane sweeps).
    pub fn is_lu(self) -> bool {
        matches!(
            self,
            KernelChoice::PackedLu | KernelChoice::SmallLu | KernelChoice::BlockedLu
        )
    }
}

/// What the caller asks the planner for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanMethod {
    /// Let the planner pick per size class (paper crossovers): warp
    /// packing below the packing bound, Gauss-Huard below the crossover
    /// order, small-size LU up to 32, blocked LU above.
    Auto,
    /// Force the LU family: small-size LU with implicit partial
    /// pivoting (this paper) up to 32, blocked LU above.
    SmallLu,
    /// Force Gauss-Huard with column pivoting (falls back to blocked LU
    /// above 32).
    GaussHuard,
    /// Force Gauss-Huard with transposed (solve-friendly) factor
    /// storage (falls back to blocked LU above 32).
    GaussHuardT,
    /// Force explicit inversion via Gauss-Jordan; applied as batched
    /// GEMV.
    GjeInvert,
    /// Force Cholesky (`L L^T`), for SPD blocks.
    Cholesky,
}

impl PlanMethod {
    /// All fixed-kernel methods, in the paper's comparison order (the
    /// planner-driven [`PlanMethod::Auto`] is intentionally excluded:
    /// it mixes the others).
    pub const ALL: [PlanMethod; 5] = [
        PlanMethod::SmallLu,
        PlanMethod::GaussHuard,
        PlanMethod::GaussHuardT,
        PlanMethod::GjeInvert,
        PlanMethod::Cholesky,
    ];

    /// Short label used in experiment output.
    pub fn label(self) -> &'static str {
        match self {
            PlanMethod::SmallLu => "LU",
            PlanMethod::GaussHuard => "GH",
            PlanMethod::GaussHuardT => "GH-T",
            PlanMethod::GjeInvert => "GJE-inv",
            PlanMethod::Cholesky => "Cholesky",
            PlanMethod::Auto => "auto",
        }
    }
}

/// Crossover order below which Gauss-Huard beats the small-size LU
/// (Fig. 6: ≈16 in single precision, ≈23 in double).
pub fn gh_crossover_order(element_bytes: usize) -> usize {
    if element_bytes <= 4 {
        16
    } else {
        23
    }
}

/// Largest order eligible for multi-problem-per-warp packing.
const PACK_MAX: usize = 16;

/// Largest order the one-row-per-lane kernels handle (warp width).
const SMALL_MAX: usize = 32;

/// The memory layout the planner settled on for one size class.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ClassLayout {
    /// One contiguous column-major slice per block.
    Blocked,
    /// The class is packed element-interleaved and processed by the
    /// class-wide lane kernels.
    Interleaved,
}

impl ClassLayout {
    /// Stable label used in stats histograms and CSV columns.
    pub fn label(self) -> &'static str {
        match self {
            ClassLayout::Blocked => "blocked",
            ClassLayout::Interleaved => "interleaved",
        }
    }
}

/// Post-factorization health triage policy.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum HealthPolicy {
    /// No triage: factorized blocks are reported healthy, failed blocks
    /// fall straight back to scalar Jacobi. This is the default — it
    /// preserves the bitwise layout-equivalence contract and adds zero
    /// overhead.
    #[default]
    Off,
    /// Estimate every block's 1-norm condition number after
    /// factorization; blocks whose estimate exceeds `ill_threshold` are
    /// equilibrated and refactorized (with one step of iterative
    /// refinement in the apply), and blocks that cannot be recovered
    /// escalate through scalar Jacobi down to identity.
    Guarded {
        /// Condition-estimate threshold above which a block counts as
        /// ill-conditioned. [`HealthPolicy::guarded`] picks
        /// `0.25 / sqrt(eps)` for the scalar type.
        ill_threshold: f64,
    },
}

impl HealthPolicy {
    /// Guarded triage with the default threshold for scalar type `T`:
    /// `0.25 / sqrt(eps)` (≈ 1.7e7 in double, ≈ 724 in single) — the
    /// point where a block solve loses about half the mantissa.
    pub fn guarded<T: Scalar>() -> Self {
        HealthPolicy::Guarded {
            ill_threshold: 0.25 / T::epsilon().to_f64().sqrt(),
        }
    }

    /// `true` when triage is enabled.
    pub fn is_guarded(&self) -> bool {
        matches!(self, HealthPolicy::Guarded { .. })
    }
}

/// Storage-precision policy for factorization — the generalization of
/// [`HealthPolicy`] to the precision axis. The working precision is
/// always the batch's scalar type `T`; the policy only decides what
/// precision the *factors* are stored (and computed) in.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PrecisionPolicy {
    /// Factorize and store every block in the working precision. This
    /// is the default and is bitwise identical to the pre-policy
    /// pipeline.
    #[default]
    FullDp,
    /// Factorize every block in `T::Lower` (single precision for `f64`
    /// batches) and apply through the widening solves with one step of
    /// iterative refinement, but *promote* any block whose 1-norm
    /// condition estimate exceeds `0.25 / sqrt(eps)` of the storage
    /// precision `T::Lower` (≈ 724 for f32 storage) back to a
    /// full-working-precision factorization — the same half-the-mantissa
    /// rule [`HealthPolicy::guarded`] uses, evaluated at the *storage*
    /// precision: past it, SP factors lose half their mantissa and
    /// refinement stalls. The condest computed here is cached on the
    /// block status and reused by health triage.
    MixedPromote,
    /// Factorize every block in `T::Lower` unconditionally: no condition
    /// estimates, no promotions. On a well-conditioned batch this is
    /// bitwise identical to [`PrecisionPolicy::MixedPromote`] (which
    /// promotes nothing there); on an ill-conditioned batch it trades
    /// accuracy for the SP flop rate.
    ForceSp,
}

impl PrecisionPolicy {
    /// Stable label used in stats, CSV columns, and CLI flags:
    /// `dp` / `mixed` / `sp`.
    pub fn label(self) -> &'static str {
        match self {
            PrecisionPolicy::FullDp => "dp",
            PrecisionPolicy::MixedPromote => "mixed",
            PrecisionPolicy::ForceSp => "sp",
        }
    }

    /// `true` when the policy stores factors in lowered precision (for
    /// at least the well-conditioned blocks).
    pub fn lowers_storage(&self) -> bool {
        !matches!(self, PrecisionPolicy::FullDp)
    }
}

/// One size class of a plan: `count` blocks of order `n`, all executed
/// with the same kernel on the same layout.
#[derive(Clone, Copy, Debug)]
pub struct SizeClass {
    /// Block order.
    pub n: usize,
    /// Number of blocks of this order.
    pub count: usize,
    /// Kernel the planner selected for the class.
    pub kernel: KernelChoice,
    /// Memory layout the planner selected for the class.
    pub layout: ClassLayout,
}

/// The kernel and layout of every size class of a batch, plus the
/// health and storage-precision policies the backends run under.
#[derive(Clone, Debug)]
pub struct BatchPlan {
    /// Distinct size classes, ascending by order.
    pub classes: Vec<SizeClass>,
    health: HealthPolicy,
    precision: PrecisionPolicy,
}

/// The lane sweeps exist for the LU family only and need enough slots
/// per class to amortize the pack/unpack copies; other families and
/// ragged tails stay blocked.
fn pick_layout(kernel: KernelChoice, count: usize, layout: BatchLayout) -> ClassLayout {
    match layout {
        BatchLayout::Interleaved { class_capacity }
            if kernel.is_lu() && count >= class_capacity =>
        {
            ClassLayout::Interleaved
        }
        _ => ClassLayout::Blocked,
    }
}

fn pick<T: Scalar>(n: usize, count: usize, method: PlanMethod) -> KernelChoice {
    match method {
        PlanMethod::GjeInvert => KernelChoice::GjeInvert,
        PlanMethod::Cholesky => KernelChoice::Cholesky,
        _ if n > SMALL_MAX => KernelChoice::BlockedLu,
        PlanMethod::SmallLu => KernelChoice::SmallLu,
        PlanMethod::GaussHuard => KernelChoice::GaussHuard,
        PlanMethod::GaussHuardT => KernelChoice::GaussHuardT,
        PlanMethod::Auto => {
            if n <= PACK_MAX && count >= 2 {
                KernelChoice::PackedLu
            } else if n < gh_crossover_order(T::BYTES) {
                KernelChoice::GaussHuard
            } else {
                KernelChoice::SmallLu
            }
        }
    }
}

impl BatchPlan {
    /// Forced-method plan with an explicit layout policy: with
    /// [`BatchLayout::Interleaved`], LU-family size classes whose
    /// population reaches `class_capacity` are stored interleaved;
    /// everything else stays blocked. Triage off, full-precision
    /// storage (see [`BatchPlan::with_health`] /
    /// [`BatchPlan::with_precision`]).
    pub fn for_method_with_layout<T: Scalar>(
        sizes: &[usize],
        method: PlanMethod,
        layout: BatchLayout,
    ) -> Self {
        let mut counts = std::collections::BTreeMap::new();
        for &n in sizes {
            *counts.entry(n).or_insert(0usize) += 1;
        }
        let classes = counts
            .iter()
            .map(|(&n, &count)| {
                let kernel = pick::<T>(n, count, method);
                SizeClass {
                    n,
                    count,
                    kernel,
                    layout: pick_layout(kernel, count, layout),
                }
            })
            .collect();
        BatchPlan {
            classes,
            health: HealthPolicy::Off,
            precision: PrecisionPolicy::FullDp,
        }
    }

    /// Same plan with a different health triage policy.
    pub fn with_health(mut self, health: HealthPolicy) -> Self {
        self.health = health;
        self
    }

    /// The health triage policy the backends run after factorization.
    pub fn health(&self) -> HealthPolicy {
        self.health
    }

    /// Same plan with a different storage-precision policy.
    pub fn with_precision(mut self, precision: PrecisionPolicy) -> Self {
        self.precision = precision;
        self
    }

    /// The storage-precision policy the backends factorize under.
    pub fn precision(&self) -> PrecisionPolicy {
        self.precision
    }

    /// Paper-crossover automatic plan for scalar type `T`.
    pub fn auto<T: Scalar>(sizes: &[usize]) -> Self {
        Self::for_method::<T>(sizes, PlanMethod::Auto)
    }

    /// Plan honouring a forced method where the sizes allow it.
    pub fn for_method<T: Scalar>(sizes: &[usize], method: PlanMethod) -> Self {
        Self::for_method_with_layout::<T>(sizes, method, BatchLayout::interleaved())
    }

    /// Automatic plan with an explicit layout policy.
    pub fn auto_with_layout<T: Scalar>(sizes: &[usize], layout: BatchLayout) -> Self {
        Self::for_method_with_layout::<T>(sizes, PlanMethod::Auto, layout)
    }

    /// Service-runtime plan for one uniform size class: kernel and
    /// layout are chosen as if the class were at its full `capacity`
    /// population, regardless of how many members this flush actually
    /// carries. The automatic crossovers consult the class count (the
    /// packed kernel needs ≥ 2 members to pay off; interleaving needs a
    /// full class), so a solo flush and a full flush of the same class
    /// would otherwise run *different* kernels and diverge by an ULP —
    /// breaking the isolation contract of `vbatch-serve`, which
    /// promises a member's bits never depend on who it was co-batched
    /// with.
    pub fn uniform_at_capacity<T: Scalar>(
        n: usize,
        count: usize,
        capacity: usize,
        layout: BatchLayout,
    ) -> Self {
        assert!(count >= 1, "empty class");
        assert!(
            count <= capacity,
            "class population {count} exceeds capacity {capacity}"
        );
        let kernel = pick::<T>(n, capacity, PlanMethod::Auto);
        BatchPlan {
            classes: vec![SizeClass {
                n,
                count,
                kernel,
                layout: pick_layout(kernel, capacity, layout),
            }],
            health: HealthPolicy::Off,
            precision: PrecisionPolicy::FullDp,
        }
    }

    /// The size class of order `n`. Panics on an order the plan was not
    /// built for.
    pub fn class(&self, n: usize) -> &SizeClass {
        match self.classes.binary_search_by_key(&n, |c| c.n) {
            Ok(i) => &self.classes[i],
            Err(_) => panic!("plan has no size class of order {n}"),
        }
    }

    /// Number of blocks planned.
    pub fn len(&self) -> usize {
        self.classes.iter().map(|c| c.count).sum()
    }

    /// `true` when the plan covers no blocks.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// Blocks per value of `key`, in `keys` order, zero counts omitted.
    fn tally<K: Copy + PartialEq>(
        &self,
        keys: &[K],
        key: impl Fn(&SizeClass) -> K,
    ) -> Vec<(K, usize)> {
        keys.iter()
            .map(|&k| {
                let of_k = self.classes.iter().filter(|c| key(c) == k);
                (k, of_k.map(|c| c.count).sum())
            })
            .filter(|&(_, blocks)| blocks > 0)
            .collect()
    }

    /// Kernel-choice histogram over blocks, in [`KernelChoice::ALL`]
    /// order, zero-count entries omitted.
    pub fn histogram(&self) -> Vec<(KernelChoice, usize)> {
        self.tally(&KernelChoice::ALL, |c| c.kernel)
    }

    /// Histogram as a compact `label=count;label=count` string for CSV
    /// columns.
    pub fn histogram_compact(&self) -> String {
        compact(&self.histogram(), KernelChoice::label)
    }

    /// Layout histogram over blocks, zero-count entries omitted.
    pub fn layout_histogram(&self) -> Vec<(ClassLayout, usize)> {
        let layouts = [ClassLayout::Blocked, ClassLayout::Interleaved];
        self.tally(&layouts, |c| c.layout)
    }

    /// Layout histogram as a compact `label=count;...` string for CSV.
    pub fn layout_compact(&self) -> String {
        compact(&self.layout_histogram(), ClassLayout::label)
    }
}

fn compact<K: Copy>(histogram: &[(K, usize)], label: fn(K) -> &'static str) -> String {
    let entries: Vec<String> = histogram
        .iter()
        .map(|&(k, c)| format!("{}={c}", label(k)))
        .collect();
    entries.join(";")
}

#[cfg(test)]
mod tests {
    use super::*;
    use KernelChoice::*;

    fn kernels(plan: &BatchPlan) -> Vec<(usize, KernelChoice)> {
        plan.classes.iter().map(|c| (c.n, c.kernel)).collect()
    }

    #[test]
    fn auto_follows_paper_crossovers() {
        // singleton classes so packing (count >= 2) does not kick in
        let plan = BatchPlan::auto::<f64>(&[100, 4, 22, 23, 32, 33, 64]);
        let want = [
            (4, GaussHuard),
            (22, GaussHuard), // 22 < 23
            (23, SmallLu),
            (32, SmallLu),
            (33, BlockedLu),
            (64, BlockedLu),
            (100, BlockedLu),
        ];
        assert_eq!(kernels(&plan), want);
        assert_eq!(plan.len(), 7);
        assert_eq!(plan.precision(), PrecisionPolicy::FullDp);
        // the crossover is lower in single precision
        let sp = BatchPlan::auto::<f32>(&[16, 22]);
        assert_eq!(kernels(&sp), [(16, SmallLu), (22, SmallLu)]);
        let dp = BatchPlan::auto::<f64>(&[16, 22]);
        assert_eq!(kernels(&dp), [(16, GaussHuard), (22, GaussHuard)]);
    }

    #[test]
    fn packing_requires_multiplicity() {
        let plan = BatchPlan::auto::<f64>(&[8, 17, 8, 16, 8, 16, 17]);
        // 17 > PACK_MAX: two of them still are not packed
        let want = [(8, PackedLu), (16, PackedLu), (17, GaussHuard)];
        assert_eq!(kernels(&plan), want);
        assert_eq!((plan.class(8).count, plan.class(17).count), (3, 2));
        assert_eq!(plan.histogram_compact(), "packed-lu=5;gauss-huard=2");
    }

    #[test]
    fn forced_methods_respect_size_limits() {
        let plan = BatchPlan::for_method::<f64>(&[8, 40], PlanMethod::GaussHuardT);
        assert_eq!(kernels(&plan), [(8, GaussHuardT), (40, BlockedLu)]);
        let plan = BatchPlan::for_method::<f64>(&[8, 40], PlanMethod::GjeInvert);
        assert_eq!(kernels(&plan), [(8, GjeInvert), (40, GjeInvert)]);
    }

    #[test]
    #[should_panic(expected = "no size class of order 9")]
    fn class_of_an_unplanned_order_panics() {
        BatchPlan::auto::<f64>(&[8, 10]).class(9);
    }

    #[test]
    fn layout_interleaves_populous_lu_classes_at_every_order() {
        // 40 blocks of order 8 and 32 of order 40 (both LU, >= capacity),
        // 33 of order 20 (populous, but Gauss-Huard in f64), 2 of order 48
        // (LU, ragged)
        let mut sizes = vec![8usize; 40];
        sizes.extend([40; 32]);
        sizes.extend([20; 33]);
        sizes.extend([48, 48]);
        let plan = BatchPlan::auto::<f64>(&sizes);
        for (n, layout) in [
            (8, "interleaved"),
            (40, "interleaved"),
            (20, "blocked"),
            (48, "blocked"),
        ] {
            assert_eq!(plan.class(n).layout.label(), layout, "order {n}");
        }
        assert_eq!(plan.layout_compact(), "blocked=35;interleaved=72");
        // the inversion and Cholesky families have no lane sweep, and a
        // blocked request or an unreached capacity interleaves nothing
        let gje = BatchPlan::for_method::<f64>(&sizes, PlanMethod::GjeInvert);
        let chol = BatchPlan::for_method::<f64>(&sizes, PlanMethod::Cholesky);
        let blocked = BatchPlan::auto_with_layout::<f64>(&sizes, BatchLayout::Blocked);
        let cap = BatchLayout::Interleaved { class_capacity: 41 };
        let small_cap = BatchPlan::auto_with_layout::<f64>(&sizes, cap);
        for plan in [gje, chol, blocked, small_cap] {
            assert_eq!(plan.layout_compact(), "blocked=107");
        }
    }

    #[test]
    fn uniform_plan_is_taken_at_capacity() {
        // a solo flush is planned as the full class: packed (needs 2
        // members) and interleaved (needs `class_capacity`)
        for (n, kernel) in [(8usize, PackedLu), (40, BlockedLu)] {
            let solo = BatchPlan::uniform_at_capacity::<f64>(n, 1, 64, BatchLayout::interleaved());
            assert_eq!(solo.len(), 1);
            assert_eq!(solo.class(n).kernel, kernel);
            assert_eq!(solo.class(n).layout, ClassLayout::Interleaved);
            assert_eq!(solo.precision(), PrecisionPolicy::FullDp);
            let sp = solo.with_precision(PrecisionPolicy::ForceSp);
            assert_eq!(sp.precision(), PrecisionPolicy::ForceSp);
        }
    }

    #[test]
    fn precision_policy_defaults_and_labels() {
        assert_eq!(PrecisionPolicy::default(), PrecisionPolicy::FullDp);
        assert_eq!(PrecisionPolicy::FullDp.label(), "dp");
        assert_eq!(PrecisionPolicy::ForceSp.label(), "sp");
        assert!(!PrecisionPolicy::FullDp.lowers_storage());
        assert!(PrecisionPolicy::ForceSp.lowers_storage());
        assert_eq!(PrecisionPolicy::MixedPromote.label(), "mixed");
        assert!(PrecisionPolicy::MixedPromote.lowers_storage());
    }
}
