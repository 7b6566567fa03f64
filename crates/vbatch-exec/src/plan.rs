//! Kernel planning: map a batch's size distribution to concrete kernel
//! choices using the paper's crossover points, and to a memory layout
//! per size class (interleave populous uniform classes, keep ragged
//! tails blocked).

use vbatch_core::{BatchLayout, Scalar};

/// A concrete kernel selected for a size class of a batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum KernelChoice {
    /// Multi-problem-per-warp packed LU (`⌊32/n⌋` problems per warp,
    /// n ≤ 16).
    PackedLu,
    /// Register-resident small-size LU with implicit pivoting (n ≤ 32).
    SmallLu,
    /// Two-rows-per-lane blocked LU (n > 32; the simulator kernel
    /// covers up to 64, larger orders run on the host).
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
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum PrecisionPolicy {
    /// Factorize and store every block in the working precision. This
    /// is the default and is bitwise identical to the pre-policy
    /// pipeline.
    #[default]
    FullDp,
    /// Factorize every block in `T::Lower` (single precision for `f64`
    /// batches) and apply through the widening solves with one step of
    /// iterative refinement, but *promote* any block whose 1-norm
    /// condition estimate exceeds `condest_threshold` back to a
    /// full-working-precision factorization. The condest computed here
    /// is cached on the block status and reused by health triage.
    MixedPromote {
        /// Condition-estimate threshold above which the lower-precision
        /// factors are considered unsafe and the block is refactorized
        /// in working precision. [`PrecisionPolicy::mixed`] picks
        /// `0.25 / sqrt(eps_lower)` — the same half-the-mantissa rule
        /// [`HealthPolicy::guarded`] uses, evaluated at the *storage*
        /// precision.
        condest_threshold: f64,
    },
    /// Factorize every block in `T::Lower` unconditionally: no condition
    /// estimates, no promotions. On a well-conditioned batch this is
    /// bitwise identical to [`PrecisionPolicy::MixedPromote`] (which
    /// promotes nothing there); on an ill-conditioned batch it trades
    /// accuracy for the SP flop rate.
    ForceSp,
}

impl PrecisionPolicy {
    /// Mixed policy with the default promotion threshold for scalar
    /// type `T`: `0.25 / sqrt(eps)` of the *storage* precision
    /// `T::Lower` (≈ 724 for f32 storage) — past that, SP factors lose
    /// half their mantissa and refinement stalls.
    pub fn mixed<T: Scalar>() -> Self {
        PrecisionPolicy::MixedPromote {
            condest_threshold: 0.25 / <T::Lower as Scalar>::epsilon().to_f64().sqrt(),
        }
    }

    /// Stable label used in stats, CSV columns, and CLI flags:
    /// `dp` / `mixed` / `sp`.
    pub fn label(self) -> &'static str {
        match self {
            PrecisionPolicy::FullDp => "dp",
            PrecisionPolicy::MixedPromote { .. } => "mixed",
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

/// A kernel and layout assignment for every block of a batch.
#[derive(Clone, Debug)]
pub struct BatchPlan {
    /// Distinct size classes, ascending by order.
    pub classes: Vec<SizeClass>,
    choice: Vec<KernelChoice>,
    layouts: Vec<ClassLayout>,
    health: HealthPolicy,
    precision: PrecisionPolicy,
}

/// Interleaving pays only for the LU-family sweep kernels on small
/// orders and needs enough slots per class to amortize the pack/unpack
/// copies; ragged tails and the >32 blocked-LU path stay blocked.
fn pick_layout(kernel: KernelChoice, count: usize, layout: BatchLayout) -> ClassLayout {
    let interleavable = matches!(kernel, KernelChoice::PackedLu | KernelChoice::SmallLu);
    match layout {
        BatchLayout::Interleaved { class_capacity } if interleavable && count >= class_capacity => {
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
        let classes: Vec<SizeClass> = counts
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
        let by_n = |n: usize| &classes[classes.binary_search_by_key(&n, |c| c.n).unwrap()];
        let choice = sizes.iter().map(|&n| by_n(n).kernel).collect();
        let layouts = sizes.iter().map(|&n| by_n(n).layout).collect();
        BatchPlan {
            classes,
            choice,
            layouts,
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
        let class_layout = pick_layout(kernel, capacity, layout);
        BatchPlan {
            classes: vec![SizeClass {
                n,
                count,
                kernel,
                layout: class_layout,
            }],
            choice: vec![kernel; count],
            layouts: vec![class_layout; count],
            health: HealthPolicy::Off,
            precision: PrecisionPolicy::FullDp,
        }
    }

    /// Kernel selected for block `block`.
    pub fn kernel_for(&self, block: usize) -> KernelChoice {
        self.choice[block]
    }

    /// Layout selected for block `block`'s size class.
    pub fn layout_for(&self, block: usize) -> ClassLayout {
        self.layouts[block]
    }

    /// Number of blocks planned.
    pub fn len(&self) -> usize {
        self.choice.len()
    }

    /// `true` when the plan covers no blocks.
    pub fn is_empty(&self) -> bool {
        self.choice.is_empty()
    }

    /// Kernel-choice histogram over blocks, in [`KernelChoice::ALL`]
    /// order, zero-count entries omitted.
    pub fn histogram(&self) -> Vec<(KernelChoice, usize)> {
        KernelChoice::ALL
            .iter()
            .filter_map(|&k| {
                let c: usize = self
                    .classes
                    .iter()
                    .filter(|cl| cl.kernel == k)
                    .map(|cl| cl.count)
                    .sum();
                (c > 0).then_some((k, c))
            })
            .collect()
    }

    /// Histogram as a compact `label=count;label=count` string for CSV
    /// columns.
    pub fn histogram_compact(&self) -> String {
        self.histogram()
            .iter()
            .map(|(k, c)| format!("{}={c}", k.label()))
            .collect::<Vec<_>>()
            .join(";")
    }

    /// Layout histogram over blocks, zero-count entries omitted.
    pub fn layout_histogram(&self) -> Vec<(ClassLayout, usize)> {
        [ClassLayout::Blocked, ClassLayout::Interleaved]
            .iter()
            .filter_map(|&l| {
                let c: usize = self
                    .classes
                    .iter()
                    .filter(|cl| cl.layout == l)
                    .map(|cl| cl.count)
                    .sum();
                (c > 0).then_some((l, c))
            })
            .collect()
    }

    /// Layout histogram as a compact `label=count;...` string for CSV.
    pub fn layout_compact(&self) -> String {
        self.layout_histogram()
            .iter()
            .map(|(l, c)| format!("{}={c}", l.label()))
            .collect::<Vec<_>>()
            .join(";")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_follows_paper_crossovers_f64() {
        // singleton sizes so packing does not kick in
        let plan = BatchPlan::auto::<f64>(&[4, 22, 23, 32, 33, 64, 100]);
        // pack needs count >= 2, so these fall through to GH / small LU
        assert_eq!(plan.kernel_for(0), KernelChoice::GaussHuard);
        assert_eq!(plan.kernel_for(1), KernelChoice::GaussHuard); // 22 < 23
        assert_eq!(plan.kernel_for(2), KernelChoice::SmallLu); // 23
        assert_eq!(plan.kernel_for(3), KernelChoice::SmallLu);
        assert_eq!(plan.kernel_for(4), KernelChoice::BlockedLu);
        assert_eq!(plan.kernel_for(5), KernelChoice::BlockedLu);
        assert_eq!(plan.kernel_for(6), KernelChoice::BlockedLu);
    }

    #[test]
    fn auto_crossover_is_lower_in_single_precision() {
        let plan32 = BatchPlan::auto::<f32>(&[16, 22]);
        assert_eq!(plan32.kernel_for(0), KernelChoice::SmallLu);
        assert_eq!(plan32.kernel_for(1), KernelChoice::SmallLu);
        let plan64 = BatchPlan::auto::<f64>(&[16, 22]);
        assert_eq!(plan64.kernel_for(0), KernelChoice::GaussHuard);
        assert_eq!(plan64.kernel_for(1), KernelChoice::GaussHuard);
    }

    #[test]
    fn packing_requires_multiplicity() {
        let plan = BatchPlan::auto::<f64>(&[8, 8, 8, 16, 16, 17, 17]);
        for b in 0..5 {
            assert_eq!(plan.kernel_for(b), KernelChoice::PackedLu, "block {b}");
        }
        // 17 > PACK_MAX: two of them still are not packed
        assert_eq!(plan.kernel_for(5), KernelChoice::GaussHuard);
    }

    #[test]
    fn forced_methods_respect_size_limits() {
        let plan = BatchPlan::for_method::<f64>(&[8, 40], PlanMethod::GaussHuardT);
        assert_eq!(plan.kernel_for(0), KernelChoice::GaussHuardT);
        assert_eq!(plan.kernel_for(1), KernelChoice::BlockedLu);
        let plan = BatchPlan::for_method::<f64>(&[8, 40], PlanMethod::GjeInvert);
        assert_eq!(plan.kernel_for(0), KernelChoice::GjeInvert);
        assert_eq!(plan.kernel_for(1), KernelChoice::GjeInvert);
    }

    #[test]
    fn layout_interleaves_populous_lu_classes_only() {
        // 40 blocks of order 8 (PackedLu, >= capacity) + 3 of order 20
        // (GaussHuard in f64) + 2 of order 40 (BlockedLu)
        let mut sizes = vec![8usize; 40];
        sizes.extend([20, 20, 20, 40, 40]);
        let plan = BatchPlan::auto::<f64>(&sizes);
        for b in 0..40 {
            assert_eq!(plan.layout_for(b), ClassLayout::Interleaved, "block {b}");
        }
        for b in 40..45 {
            assert_eq!(plan.layout_for(b), ClassLayout::Blocked, "block {b}");
        }
        assert_eq!(plan.layout_compact(), "blocked=5;interleaved=40");
    }

    #[test]
    fn layout_respects_class_capacity_and_blocked_policy() {
        let sizes = vec![8usize; 40];
        let small_cap = BatchPlan::auto_with_layout::<f64>(
            &sizes,
            BatchLayout::Interleaved { class_capacity: 41 },
        );
        assert_eq!(small_cap.layout_for(0), ClassLayout::Blocked);
        let forced_blocked = BatchPlan::auto_with_layout::<f64>(&sizes, BatchLayout::Blocked);
        assert_eq!(forced_blocked.layout_for(0), ClassLayout::Blocked);
        assert_eq!(forced_blocked.layout_compact(), "blocked=40");
    }

    #[test]
    fn precision_policy_defaults_and_labels() {
        assert_eq!(PrecisionPolicy::default(), PrecisionPolicy::FullDp);
        assert_eq!(PrecisionPolicy::FullDp.label(), "dp");
        assert_eq!(PrecisionPolicy::ForceSp.label(), "sp");
        assert!(!PrecisionPolicy::FullDp.lowers_storage());
        assert!(PrecisionPolicy::ForceSp.lowers_storage());
        // the mixed threshold is evaluated at the *storage* precision:
        // identical for f32 and f64 batches since both store f32
        let m64 = PrecisionPolicy::mixed::<f64>();
        let m32 = PrecisionPolicy::mixed::<f32>();
        assert_eq!(m64, m32);
        assert_eq!(m64.label(), "mixed");
        match m64 {
            PrecisionPolicy::MixedPromote { condest_threshold } => {
                let want = 0.25 / (f32::EPSILON as f64).sqrt();
                assert!((condest_threshold - want).abs() < 1e-9);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn plan_carries_precision_policy() {
        let plan = BatchPlan::auto::<f64>(&[8, 8, 30]);
        assert_eq!(plan.precision(), PrecisionPolicy::FullDp);
        let plan = plan.with_precision(PrecisionPolicy::ForceSp);
        assert_eq!(plan.precision(), PrecisionPolicy::ForceSp);
        let uni = BatchPlan::uniform_at_capacity::<f64>(8, 3, 16, BatchLayout::interleaved())
            .with_precision(PrecisionPolicy::mixed::<f64>());
        assert_eq!(uni.precision().label(), "mixed");
    }

    #[test]
    fn histogram_counts_blocks() {
        let plan = BatchPlan::auto::<f64>(&[8, 8, 30, 40]);
        let h = plan.histogram();
        assert_eq!(
            h,
            vec![
                (KernelChoice::PackedLu, 2),
                (KernelChoice::SmallLu, 1),
                (KernelChoice::BlockedLu, 1),
            ]
        );
        assert_eq!(
            plan.histogram_compact(),
            "packed-lu=2;small-lu=1;blocked-lu=1"
        );
    }
}
