//! The preconditioner interface the Krylov solvers consume.
//!
//! [`Preconditioner`] is the apply-side contract (what a Krylov
//! iteration needs); [`BlockPreconditioner`] extends it with the
//! setup-side contract every batched block preconditioner shares — one
//! options-driven constructor from a CSR matrix and a block partition,
//! plus health/stats reporting. The solvers' generic drivers are
//! written against these traits, so block-Jacobi
//! ([`crate::BlockJacobi`]) and block-ILU(0) ([`crate::BlockIlu0`])
//! are interchangeable end to end.

use crate::options::PrecondOptions;
use std::sync::Arc;
use std::time::Duration;
use vbatch_core::{FactorError, Scalar};
use vbatch_exec::{Backend, BlockStatus, ExecStats};
use vbatch_sparse::{BlockPartition, CsrMatrix};

/// A (left-applied) preconditioner: `apply` overwrites `v` with
/// `M^{-1} v`. Implementations must be thread-safe — the batched
/// appliers fan out over blocks internally.
pub trait Preconditioner<T: Scalar>: Send + Sync {
    /// Apply `M^{-1}` in place.
    fn apply_inplace(&self, v: &mut [T]);

    /// Problem dimension this preconditioner was set up for.
    fn dim(&self) -> usize;

    /// Short label for reports ("none", "jacobi", "block-jacobi(LU,32)").
    fn label(&self) -> String;

    /// Apply into a fresh vector.
    fn apply(&self, v: &[T]) -> Vec<T> {
        let mut out = v.to_vec();
        self.apply_inplace(&mut out);
        out
    }
}

/// Everything a setup reports about itself, in one backend-independent
/// bundle (the solver driver's handle exposes it through its
/// preconditioner).
#[derive(Clone, Debug)]
pub struct SetupReport {
    /// Wall-clock time of the whole setup phase.
    pub setup_time: Duration,
    /// Blocks degraded to a fallback during factorization.
    pub fallback_blocks: usize,
    /// Execution statistics of the setup phase.
    pub stats: ExecStats,
    /// Name of the backend the preconditioner was built on.
    pub backend_name: &'static str,
}

/// A batched block preconditioner: a [`Preconditioner`] that can be
/// *set up* from a CSR matrix and a block partition through one
/// canonical options-driven constructor, and that reports its setup and
/// steady-state apply statistics.
pub trait BlockPreconditioner<T: Scalar>: Preconditioner<T> + Sized {
    /// Canonical constructor: build the preconditioner for `a` under
    /// `part` on `backend`, configured by `opts`.
    fn setup_opts(
        a: &CsrMatrix<T>,
        part: &BlockPartition,
        backend: Arc<dyn Backend<T>>,
        opts: PrecondOptions,
    ) -> Result<Self, FactorError>;

    /// The partition this preconditioner was built for.
    fn partition(&self) -> &BlockPartition;

    /// Per-block factorization status of the diagonal blocks, in block
    /// order.
    fn statuses(&self) -> impl ExactSizeIterator<Item = BlockStatus> + '_;

    /// The setup-phase report (time, fallbacks, stats, backend).
    fn setup_report(&self) -> SetupReport;

    /// Snapshot of the accumulated steady-state apply statistics.
    fn apply_stats(&self) -> ExecStats;
}

/// The do-nothing preconditioner (unpreconditioned baseline).
#[derive(Clone, Debug)]
pub struct Identity {
    n: usize,
}

impl Identity {
    /// Identity preconditioner for dimension `n`.
    pub fn new(n: usize) -> Self {
        Identity { n }
    }
}

impl<T: Scalar> Preconditioner<T> for Identity {
    fn apply_inplace(&self, _v: &mut [T]) {}

    fn dim(&self) -> usize {
        self.n
    }

    fn label(&self) -> String {
        "none".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_noop() {
        let m = Identity::new(3);
        let v = vec![1.0f64, -2.0, 3.0];
        assert_eq!(m.apply(&v), v);
        assert_eq!(Preconditioner::<f64>::dim(&m), 3);
        assert_eq!(Preconditioner::<f64>::label(&m), "none");
    }
}
