//! Kernel planning: a [`BatchPlan`] is the table of a batch's size
//! classes, one `(kernel, layout)` per class. The host reads two things
//! off a class: its kernel family (LU, Gauss-Huard, inversion,
//! Cholesky) and its layout — any LU class whose population reaches the
//! requested `class_capacity` is interleaved, at every order; ragged
//! tails stay blocked. [`PlanMethod::Auto`] plans LU at every order,
//! count and precision: the host's per-block LU factorizes faster than
//! its Gauss-Huard at every order the paper's P100 gives to Gauss-Huard.
//! The paper's P100 planner (Gauss-Huard below its crossovers) and its
//! three LU launch shapes (packed, small-size, blocked) are not planned
//! here: the benchmark's launch estimator
//! (`vbatch_bench::estimate_planned_factor`) derives them from a
//! class's order and count.

use vbatch_core::{BatchLayout, Scalar};

/// A concrete kernel selected for a size class of a batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum KernelChoice {
    /// LU with implicit partial pivoting, per block or as lane sweeps.
    Lu,
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
    /// Stable label used in stats histograms and CSV columns.
    pub fn label(self) -> &'static str {
        match self {
            KernelChoice::Lu => "lu",
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
    /// Let the planner pick the family: on the host, LU with implicit
    /// partial pivoting at every order, count and precision.
    Auto,
    /// Force LU with implicit partial pivoting (this paper).
    Lu,
    /// Force Gauss-Huard with column pivoting (LU above order 32).
    GaussHuard,
    /// Force Gauss-Huard with transposed (solve-friendly) factor
    /// storage (LU above order 32).
    GaussHuardT,
    /// Force explicit inversion via Gauss-Jordan; applied as batched
    /// GEMV.
    GjeInvert,
    /// Force Cholesky (`L L^T`), for SPD blocks.
    Cholesky,
}

impl PlanMethod {
    /// Short label used in experiment output.
    pub fn label(self) -> &'static str {
        match self {
            PlanMethod::Lu => "LU",
            PlanMethod::GaussHuard => "GH",
            PlanMethod::GaussHuardT => "GH-T",
            PlanMethod::GjeInvert => "GJE-inv",
            PlanMethod::Cholesky => "Cholesky",
            PlanMethod::Auto => "auto",
        }
    }
}

/// Largest order of the one-row-per-lane Gauss-Huard kernels (warp
/// width); a forced Gauss-Huard above it runs LU.
const GH_MAX: usize = 32;

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
            if kernel == KernelChoice::Lu && count >= class_capacity =>
        {
            ClassLayout::Interleaved
        }
        _ => ClassLayout::Blocked,
    }
}

/// The family of a class of order `n`: a forced family where the order
/// allows it, LU everywhere else — `Auto` included.
fn pick(n: usize, method: PlanMethod) -> KernelChoice {
    match method {
        PlanMethod::GjeInvert => KernelChoice::GjeInvert,
        PlanMethod::Cholesky => KernelChoice::Cholesky,
        PlanMethod::GaussHuard if n <= GH_MAX => KernelChoice::GaussHuard,
        PlanMethod::GaussHuardT if n <= GH_MAX => KernelChoice::GaussHuardT,
        _ => KernelChoice::Lu,
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
                let kernel = pick(n, method);
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

    /// Automatic plan for scalar type `T`: LU for every size class,
    /// populous classes interleaved at the default `class_capacity`.
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

    /// Service-runtime plan for one uniform size class: the automatic
    /// family (LU) with the layout chosen as if the class were at its
    /// full `capacity` population, regardless of how many members this
    /// flush actually carries. Interleaving needs a full class, so a solo
    /// flush and a full flush of the same class would otherwise run
    /// *different* layouts and could diverge by an ULP — breaking the
    /// isolation contract of `vbatch-serve`, which promises a member's
    /// bits never depend on who it was co-batched with.
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
        let kernel = pick(n, PlanMethod::Auto);
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

    /// Layout histogram over blocks, zero-count entries omitted.
    pub fn layout_histogram(&self) -> Vec<(ClassLayout, usize)> {
        [ClassLayout::Blocked, ClassLayout::Interleaved]
            .into_iter()
            .map(|layout| {
                let of_layout = self.classes.iter().filter(|c| c.layout == layout);
                (layout, of_layout.map(|c| c.count).sum())
            })
            .filter(|&(_, blocks)| blocks > 0)
            .collect()
    }

    /// Layout histogram as a compact `label=count;...` string for CSV.
    pub fn layout_compact(&self) -> String {
        let entries: Vec<String> = self
            .layout_histogram()
            .into_iter()
            .map(|(layout, count)| format!("{}={count}", layout.label()))
            .collect();
        entries.join(";")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use KernelChoice::*;

    fn kernels(plan: &BatchPlan) -> Vec<(usize, KernelChoice)> {
        plan.classes.iter().map(|c| (c.n, c.kernel)).collect()
    }

    #[test]
    fn forced_methods_respect_size_limits() {
        let plan = BatchPlan::for_method::<f64>(&[8, 40], PlanMethod::GaussHuardT);
        assert_eq!(kernels(&plan), [(8, GaussHuardT), (40, Lu)]);
        let plan = BatchPlan::for_method::<f64>(&[8, 40], PlanMethod::GjeInvert);
        assert_eq!(kernels(&plan), [(8, GjeInvert), (40, GjeInvert)]);
    }

    #[test]
    #[should_panic(expected = "no size class of order 9")]
    fn class_of_an_unplanned_order_panics() {
        BatchPlan::auto::<f64>(&[8, 10]).class(9);
    }

    #[test]
    fn uniform_plan_is_taken_at_capacity() {
        // a solo flush is planned as the full class: interleaved (needs
        // `class_capacity`)
        for (n, kernel) in [(8usize, Lu), (40, Lu)] {
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
