//! Setup options for every block preconditioner.
//!
//! [`BlockPreconditioner::setup_opts`](crate::BlockPreconditioner::setup_opts)
//! is the one constructor shape; [`PrecondOptions`] folds everything a
//! block preconditioner can be configured with — batched factorization
//! method, batch layout, precision policy, health triage policy, fault
//! injection — into one builder.

use vbatch_core::{BatchLayout, MatrixBatch, Scalar};
use vbatch_exec::{inject_batch, BatchPlan, FaultPlan, HealthPolicy, PrecisionPolicy};

/// The batched factorization driving the diagonal-block solves (the
/// four methods of §IV plus the Cholesky extension and the planner):
/// the planner's own request type under its historical name here.
pub use vbatch_exec::PlanMethod as BjMethod;

/// Every knob of a block-preconditioner setup: batched factorization
/// method, batch layout, health triage policy, and an optional
/// fault-injection plan applied to the extracted diagonal blocks before
/// factorization (for the differential fault suite — never use in
/// production setups).
#[derive(Clone, Debug)]
pub struct PrecondOptions {
    /// Batched factorization method for the diagonal blocks.
    pub method: BjMethod,
    /// Storage layout policy passed through to the backend.
    pub layout: BatchLayout,
    /// Post-factorization health triage ([`HealthPolicy::Off`] keeps
    /// the historical bitwise behaviour).
    pub health: HealthPolicy,
    /// Storage-precision policy for the diagonal-block factorization
    /// ([`PrecisionPolicy::FullDp`] keeps the historical bitwise
    /// behaviour; the mixed/SP policies factorize in `T::Lower` and
    /// apply through the widening refinement solves).
    pub precision: PrecisionPolicy,
    /// Corrupt the extracted blocks with this plan before factorizing.
    pub fault: Option<FaultPlan>,
}

impl Default for PrecondOptions {
    /// Planner-chosen kernels, interleave populous uniform classes, no
    /// triage, full-precision storage, no faults.
    fn default() -> Self {
        PrecondOptions {
            method: BjMethod::Auto,
            layout: BatchLayout::interleaved(),
            health: HealthPolicy::Off,
            precision: PrecisionPolicy::FullDp,
            fault: None,
        }
    }
}

impl PrecondOptions {
    /// Default layout, guarded health triage with the scalar type's
    /// recommended ill-conditioning threshold.
    pub fn guarded<T: Scalar>() -> Self {
        PrecondOptions {
            health: HealthPolicy::guarded::<T>(),
            ..Self::default()
        }
    }

    /// Set the batched factorization method.
    pub fn with_method(mut self, method: BjMethod) -> Self {
        self.method = method;
        self
    }

    /// Set the batch layout policy.
    pub fn with_layout(mut self, layout: BatchLayout) -> Self {
        self.layout = layout;
        self
    }

    /// Set the health triage policy.
    pub fn with_health(mut self, health: HealthPolicy) -> Self {
        self.health = health;
        self
    }

    /// Set the storage-precision policy.
    pub fn with_precision(mut self, precision: PrecisionPolicy) -> Self {
        self.precision = precision;
        self
    }

    /// Set the fault-injection plan.
    pub fn with_fault(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// The batch plan these options select for blocks of orders
    /// `sizes`: method and layout pick kernel and storage per size
    /// class, health and precision ride along. Every holder of a
    /// [`vbatch_exec::BlockSolve`] plans through here.
    pub fn plan<T: Scalar>(&self, sizes: &[usize]) -> BatchPlan {
        BatchPlan::for_method_with_layout::<T>(sizes, self.method, self.layout)
            .with_health(self.health)
            .with_precision(self.precision)
    }

    /// Corrupt `blocks` with the configured fault plan, if any. The
    /// assignment applied is `plan.assign(blocks.len())`: a caller that
    /// needs it recomputes it from the plan.
    pub fn inject<T: Scalar>(&self, blocks: &mut MatrixBatch<T>) {
        if let Some(plan) = &self.fault {
            inject_batch(blocks, plan);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_covers_every_knob() {
        let o = PrecondOptions::default()
            .with_method(BjMethod::SmallLu)
            .with_layout(BatchLayout::Blocked)
            .with_health(HealthPolicy::guarded::<f64>())
            .with_precision(PrecisionPolicy::MixedPromote);
        assert_eq!(o.method, BjMethod::SmallLu);
        assert_eq!(o.layout, BatchLayout::Blocked);
        assert!(o.fault.is_none());
        assert!(!matches!(o.health, HealthPolicy::Off));
        assert!(o.precision.lowers_storage());
        assert_eq!(PrecondOptions::default().method, BjMethod::Auto);
        assert_eq!(PrecondOptions::default().precision, PrecisionPolicy::FullDp);
        // the plan carries the planner knobs; no fault plan, no faults
        let plan = o.plan::<f64>(&[4, 4, 9]);
        assert_eq!((plan.health(), plan.precision()), (o.health, o.precision));
        let mut blocks = MatrixBatch::<f64>::zeros(&[2, 2]);
        o.inject(&mut blocks);
        assert!(blocks.as_slice().iter().all(|&v| v == 0.0));
    }
}
