//! SPIKE-style split solver for banded systems over the batch layer.
//!
//! The splitting of Li/Serban/Negrut (*Analysis of a Splitting
//! Approach for the Parallel Solution of Linear Systems on GPU
//! Cards*): a banded matrix cut into `p` partitions factors as
//! `A = D S`, where `D = diag(A_1, ..., A_p)` collects the partition
//! diagonal blocks and `S` is the identity plus the **spikes**
//! `V_j = A_j^{-1} [0; B_j]` (right) and `W_j = A_j^{-1} [C_{j-1}; 0]`
//! (left) induced by the coupling tips. The split is the
//! preconditioner's two verbs used twice — the solver holds two
//! [`BlockSolve`]s (partitions, reduced system), both planned by
//! [`PrecondOptions::plan`], plus the spikes between them:
//!
//! 1. all `p` partitions are factorized as **one** variable-size batch
//!    (any backend × layout × precision policy);
//! 2. the spikes come out of `2k` batched solves against those
//!    factors, through the same prepared apply the warm passes use;
//! 3. the interface unknowns satisfy a block-tridiagonal *reduced
//!    system*; its **truncated** variant (justified for diagonally
//!    dominant inputs, where spike magnitudes decay away from the
//!    interfaces) drops the interface-to-interface couplings, leaving
//!    `p - 1` independent `2k × 2k` blocks — a second batch through
//!    the same plan machinery;
//! 4. recovery `x_j = g_j - V_j x_{j+1}^{(t)} - W_j x_{j-1}^{(b)}` is
//!    exact given exact interface values, so the only truncation error
//!    lives in step 3. The direct-solver entry point wraps the pass in
//!    an **iterative-refinement outer loop** against the monolithic
//!    residual `b - A x` — the exactness escape hatch that takes the
//!    truncated pass to machine-level relative residuals.
//!
//! One SPIKE pass (`apply_inplace`) is also a preconditioner, exposed
//! through [`BlockPreconditioner`] (the benchmark bins' `--precond
//! spike` selects its apply). Warm applies
//! are allocation-free: both prepared batched solves and the spike
//! GEMV recovery run on buffers sized at setup (the module is opted
//! into the workspace allocation tripwires).

#![deny(clippy::disallowed_methods, clippy::disallowed_macros)]

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use vbatch_core::{FactorError, Scalar};
use vbatch_exec::{Backend, BlockSolve, BlockStatus, ExecStats, Phase};
use vbatch_precond::{BlockPreconditioner, PrecondOptions, Preconditioner, SetupReport};
use vbatch_sparse::{
    extract_spike_blocks, nrm2, spmv, BlockPartition, CsrMatrix, SpikeError, SpikePartition,
};

/// Result of one direct SPIKE solve ([`SpikeSolver::solve`]).
#[derive(Clone, Debug)]
pub struct SpikeSolve<T: Scalar> {
    /// The computed solution.
    pub x: Vec<T>,
    /// Refinement corrections applied after the initial SPIKE pass.
    pub refinements: usize,
    /// Final true relative residual `||b - A x|| / ||b||`.
    pub relres: f64,
    /// Whether the target tolerance was reached.
    pub converged: bool,
    /// Wall-clock time of the whole solve (passes + residuals).
    pub solve_time: Duration,
}

/// The assembled SPIKE split solver / preconditioner.
///
/// Setup factorizes the partition batch and the truncated reduced
/// system; afterwards [`SpikeSolver::apply_inplace`] performs one
/// truncated SPIKE pass with zero heap allocation, and
/// [`SpikeSolver::solve`] wraps that pass in iterative refinement
/// against the retained monolithic matrix.
pub struct SpikeSolver<T: Scalar> {
    /// The monolithic matrix, retained for refinement residuals.
    a: CsrMatrix<T>,
    spart: SpikePartition,
    /// The `p` factorized partitions `D` and their prepared apply.
    partitions: BlockSolve<T>,
    /// Right spikes `V_j` (`n_j × k`, column-major); empty for the
    /// last partition and when the bandwidth is zero.
    v_spikes: Vec<Vec<T>>,
    /// Left spikes `W_j` (`n_j × k`, column-major); empty for the
    /// first partition and when the bandwidth is zero.
    w_spikes: Vec<Vec<T>>,
    /// Truncated reduced (interface) system: `p - 1` independent
    /// `2k × 2k` blocks; `None` when there are no interfaces (single
    /// partition or zero bandwidth), where the SPIKE pass degenerates
    /// bitwise to the plain batched solve.
    reduced: Option<BlockSolve<T>>,
    /// Interface workspace (`2k (p - 1)` elements), preallocated so
    /// `&self` applies stay allocation-free.
    ws: Mutex<Vec<T>>,
    apply_stats: Mutex<ExecStats>,
    /// Wall-clock time of the whole setup (extraction, partition
    /// factorization, spike formation, reduced assembly).
    pub setup_time: Duration,
    /// Partition blocks degraded to a fallback during factorization.
    pub fallback_blocks: usize,
    /// Execution statistics of the setup phase.
    pub stats: ExecStats,
}

impl<T: Scalar> SpikeSolver<T> {
    /// Set up the split solver for `a` under the validated SPIKE
    /// geometry `sp`, on `backend`, configured by `opts` (factorization
    /// method, batch layout, health triage, precision policy, optional
    /// fault injection — the same options bag as every other batched
    /// preconditioner).
    #[allow(clippy::disallowed_methods, clippy::disallowed_macros)] // setup-time allocation
    pub fn setup(
        a: &CsrMatrix<T>,
        sp: &SpikePartition,
        backend: Arc<dyn Backend<T>>,
        opts: PrecondOptions,
    ) -> Result<Self, FactorError> {
        let _span = vbatch_rt::span!("spike.setup", sp.len());
        let start = Instant::now();
        let mut stats = ExecStats::new();

        // Extraction doubles as the banded-structure proof: any
        // nonzero outside the partitions and their tips is an error.
        let t_ex = Instant::now();
        let mut blocks = extract_spike_blocks(a, sp).map_err(spike_to_factor_error)?;
        stats.add_phase(Phase::Extract, t_ex.elapsed());

        opts.inject(&mut blocks.diag);

        let part = sp.part();
        let sizes = part.sizes();
        let plan = opts.plan::<T>(blocks.diag.sizes());
        let partitions = BlockSolve::new(backend.clone(), blocks.diag, &plan, &mut stats);

        // Spike formation + reduced assembly, reported as the Reduce
        // phase: what the interval holds beyond the batched solves and
        // the reduced factorization, which book their own Apply and
        // Factorize time below.
        let t_red = Instant::now();
        let booked = stats.phase_total();
        let k = sp.bandwidth();
        let p = part.len();
        let ifaces = sp.interfaces();
        let mut v_spikes = vec![Vec::new(); p];
        let mut w_spikes = vec![Vec::new(); p];
        if ifaces > 0 {
            for j in 0..p {
                if j + 1 < p {
                    v_spikes[j] = vec![T::ZERO; sizes[j] * k];
                }
                if j > 0 {
                    w_spikes[j] = vec![T::ZERO; sizes[j] * k];
                }
            }
            // One prepared batched solve per spike column, on one
            // reused flat right-hand side (the flat vector tiles the
            // partitions exactly): partitions that lack the spike keep
            // a zero right-hand side (and solve to zero), so each sweep
            // stays a single batch call.
            let mut rhs = vec![T::ZERO; part.total()];
            for col in 0..k {
                rhs.fill(T::ZERO);
                for j in 0..p - 1 {
                    let end = part.range(j).end;
                    let tip = blocks.upper_tips.block(j);
                    rhs[end - k..end].copy_from_slice(&tip[col * k..(col + 1) * k]);
                }
                partitions.apply(&mut rhs, &mut stats);
                for j in 0..p - 1 {
                    let nj = sizes[j];
                    v_spikes[j][col * nj..(col + 1) * nj].copy_from_slice(&rhs[part.range(j)]);
                }
                rhs.fill(T::ZERO);
                for j in 1..p {
                    let start = part.range(j).start;
                    let tip = blocks.lower_tips.block(j - 1);
                    rhs[start..start + k].copy_from_slice(&tip[col * k..(col + 1) * k]);
                }
                partitions.apply(&mut rhs, &mut stats);
                for j in 1..p {
                    let nj = sizes[j];
                    w_spikes[j][col * nj..(col + 1) * nj].copy_from_slice(&rhs[part.range(j)]);
                }
            }
        }

        // Truncated reduced system: per interface i the 2k x 2k block
        //   [ I            V_i^(b) ]
        //   [ W_{i+1}^(t)  I       ]
        // in the unknowns [x_i^(b); x_{i+1}^(t)] — couplings to the
        // neighbouring interfaces are dropped (the truncation), so the
        // blocks are independent and factorize as a second batch
        // through the same plan machinery.
        let reduced = if ifaces > 0 {
            let m = 2 * k;
            let mut red = vbatch_core::MatrixBatch::zeros(&vec![m; ifaces]);
            for i in 0..ifaces {
                let blk = red.block_mut(i);
                for d in 0..m {
                    blk[d * m + d] = T::ONE;
                }
                let ni = sizes[i];
                let n1 = sizes[i + 1];
                for c in 0..k {
                    for r in 0..k {
                        blk[(k + c) * m + r] = v_spikes[i][c * ni + (ni - k + r)];
                        blk[c * m + (k + r)] = w_spikes[i + 1][c * n1 + r];
                    }
                }
            }
            let rplan = opts.plan::<T>(red.sizes());
            Some(BlockSolve::new(backend, red, &rplan, &mut stats))
        } else {
            None
        };
        let nested = stats.phase_total() - booked;
        stats.add_phase(Phase::Reduce, t_red.elapsed().saturating_sub(nested));

        Ok(SpikeSolver {
            a: a.clone(),
            spart: sp.clone(),
            fallback_blocks: partitions.fallback_count(),
            partitions,
            v_spikes,
            w_spikes,
            reduced,
            ws: Mutex::new(vec![T::ZERO; 2 * k * ifaces]),
            apply_stats: Mutex::new(ExecStats::new()),
            setup_time: start.elapsed(),
            stats,
        })
    }

    /// One truncated SPIKE pass, in place: `v` enters as a right-hand
    /// side and leaves as the (truncated) solution. `red` must have
    /// `2 k (p - 1)` elements. Allocation-free on the CPU backends.
    fn apply_pass(&self, v: &mut [T], red: &mut [T], stats: &mut ExecStats) {
        // g = D^{-1} v: the prepared batched partition solve (the flat
        // vector tiles the partitions exactly).
        self.partitions.apply(v, stats);
        let Some(reduced) = &self.reduced else {
            return;
        };
        let k = self.spart.bandwidth();
        let part = self.spart.part();
        let p = part.len();
        // Gather the interface right-hand sides [g_i^(b); g_{i+1}^(t)].
        for i in 0..p - 1 {
            let ri = part.range(i);
            let r1 = part.range(i + 1);
            for t in 0..k {
                red[2 * k * i + t] = v[ri.end - k + t];
                red[2 * k * i + k + t] = v[r1.start + t];
            }
        }
        reduced.apply(red, stats);
        // Recovery x_j = g_j - V_j x_{j+1}^(t) - W_j x_{j-1}^(b),
        // applied to every row (exact given exact interface values):
        // column-wise axpy sweeps over the stored dense spikes.
        for j in 0..p {
            let range = part.range(j);
            let nj = range.end - range.start;
            let seg = &mut v[range.start..range.end];
            if j + 1 < p {
                let xi = &red[2 * k * j + k..2 * k * j + 2 * k];
                let vj = &self.v_spikes[j];
                for (c, &alpha) in xi.iter().enumerate() {
                    let col = &vj[c * nj..(c + 1) * nj];
                    for (d, s) in seg.iter_mut().zip(col) {
                        *d -= *s * alpha;
                    }
                }
            }
            if j > 0 {
                let eta = &red[2 * k * (j - 1)..2 * k * (j - 1) + k];
                let wj = &self.w_spikes[j];
                for (c, &alpha) in eta.iter().enumerate() {
                    let col = &wj[c * nj..(c + 1) * nj];
                    for (d, s) in seg.iter_mut().zip(col) {
                        *d -= *s * alpha;
                    }
                }
            }
        }
    }

    /// Direct solve with the default refinement budget: tolerance
    /// `max(10 n eps, 1e-14)` on the true relative residual, at most
    /// 60 corrections.
    pub fn solve(&self, b: &[T]) -> SpikeSolve<T> {
        let tol = (10.0 * b.len() as f64 * T::epsilon().to_f64()).max(1e-14);
        self.solve_with(b, tol, 60)
    }

    /// Direct solve: one truncated SPIKE pass followed by iterative
    /// refinement `x <- x + M(b - A x)` against the **monolithic**
    /// residual until `||b - A x|| / ||b|| <= tol` or `max_refine`
    /// corrections — the exactness escape hatch over the truncated
    /// reduced system (and, under narrowed-precision factor storage,
    /// the classic mixed-precision refinement loop).
    #[allow(clippy::disallowed_methods, clippy::disallowed_macros)] // per-solve buffers, not warm-apply path
    pub fn solve_with(&self, b: &[T], tol: f64, max_refine: usize) -> SpikeSolve<T> {
        let _span = vbatch_rt::span!("spike.solve", b.len());
        let start = Instant::now();
        let n = b.len();
        debug_assert_eq!(n, self.spart.part().total());
        let mut stats = ExecStats::new();
        let mut red = vec![T::ZERO; self.red_len()];
        let mut x = b.to_vec();
        self.apply_pass(&mut x, &mut red, &mut stats);
        let bnorm = nrm2(b).to_f64();
        let mut r = vec![T::ZERO; n];
        let mut refinements = 0usize;
        let (converged, relres) = loop {
            let _rspan = vbatch_rt::span!("spike.refine", refinements);
            spmv(&self.a, &x, &mut r);
            for (ri, &bi) in r.iter_mut().zip(b) {
                *ri = bi - *ri;
            }
            let rn = nrm2(&r).to_f64();
            let rr = if bnorm > 0.0 { rn / bnorm } else { rn };
            if !rr.is_finite() || rr <= tol || refinements >= max_refine {
                break (rr.is_finite() && rr <= tol, rr);
            }
            self.apply_pass(&mut r, &mut red, &mut stats);
            for (xi, &zi) in x.iter_mut().zip(r.iter()) {
                *xi += zi;
            }
            refinements += 1;
        };
        self.apply_stats
            .lock()
            .expect("apply stats poisoned")
            .merge(&stats);
        SpikeSolve {
            x,
            refinements,
            relres,
            converged,
            solve_time: start.elapsed(),
        }
    }

    fn red_len(&self) -> usize {
        2 * self.spart.bandwidth() * self.spart.interfaces()
    }

    /// Resident workspace in elements across the warm apply path: both
    /// prepared batched solves plus the interface buffer.
    pub fn workspace_hwm_elems(&self) -> usize {
        let reduced = self
            .reduced
            .as_ref()
            .map_or(0, BlockSolve::workspace_hwm_elems);
        self.partitions.workspace_hwm_elems() + reduced + self.red_len()
    }
}

/// Map a geometry/extraction failure onto the factorization error
/// vocabulary the preconditioner setup contract speaks: a partition
/// too small for its coupling window reports the `2k` window order
/// against the partition size; an out-of-band nonzero reports its
/// position.
fn spike_to_factor_error(e: SpikeError) -> FactorError {
    match e {
        SpikeError::NotSquare { rows, cols } => FactorError::NotSquare { rows, cols },
        SpikeError::PartitionMismatch { covered, n } => FactorError::NotSquare {
            rows: covered,
            cols: n,
        },
        SpikeError::PartitionTooSmall {
            size, bandwidth, ..
        } => FactorError::TooLarge {
            n: 2 * bandwidth,
            max: size,
        },
        SpikeError::OutOfBand { row, col, .. } => FactorError::NonFinite { row, col },
    }
}

impl<T: Scalar> Preconditioner<T> for SpikeSolver<T> {
    /// One truncated SPIKE pass through the prepared batched solves
    /// and the stored dense spikes — no per-call dispatch rebuild and,
    /// on the CPU backends, no heap allocation.
    fn apply_inplace(&self, v: &mut [T]) {
        debug_assert_eq!(v.len(), self.spart.part().total());
        let _span = vbatch_rt::span!("spike.apply", v.len());
        let mut red = self.ws.lock().expect("spike workspace poisoned");
        let mut stats = self.apply_stats.lock().expect("apply stats poisoned");
        self.apply_pass(v, &mut red, &mut stats);
    }

    fn dim(&self) -> usize {
        self.spart.part().total()
    }

    fn label(&self) -> String {
        format!(
            "spike(p={}, k={}, trunc+ir)",
            self.spart.len(),
            self.spart.bandwidth()
        )
    }
}

impl<T: Scalar> BlockPreconditioner<T> for SpikeSolver<T> {
    /// Canonical options-driven setup: `part` is taken as the SPIKE
    /// partition and the half-bandwidth is detected from `a` (every
    /// partition must span at least twice the detected bandwidth).
    fn setup_opts(
        a: &CsrMatrix<T>,
        part: &BlockPartition,
        backend: Arc<dyn Backend<T>>,
        opts: PrecondOptions,
    ) -> Result<Self, FactorError> {
        let sp = SpikePartition::new(part.clone(), a.bandwidth()).map_err(spike_to_factor_error)?;
        SpikeSolver::setup(a, &sp, backend, opts)
    }

    fn partition(&self) -> &BlockPartition {
        self.spart.part()
    }

    /// Per-partition factorization status: which kernel factorized
    /// each partition, or which error degraded it to a sanitized
    /// fallback.
    fn statuses(&self) -> &[BlockStatus] {
        self.partitions.statuses()
    }

    fn setup_report(&self) -> SetupReport {
        SetupReport {
            setup_time: self.setup_time,
            fallback_blocks: self.fallback_blocks,
            stats: self.stats.clone(),
            backend_name: self.partitions.backend().name(),
        }
    }

    fn apply_stats(&self) -> ExecStats {
        self.apply_stats
            .lock()
            .expect("apply stats poisoned")
            .clone()
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod tests {
    use super::*;
    use vbatch_core::solve_system;
    use vbatch_exec::CpuSequential;
    use vbatch_sparse::CooMatrix;

    fn banded(n: usize, bw: usize, dominance: f64, seed: u64) -> CsrMatrix<f64> {
        let mut coo = CooMatrix::new(n, n);
        for (i, j, v) in vbatch_rt::testgen::banded_system_triplets(n, bw, dominance, seed) {
            coo.push(i, j, v);
        }
        coo.to_csr()
    }

    fn rhs(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| ((i * 7 + 3) % 11) as f64 / 11.0 - 0.4)
            .collect()
    }

    #[test]
    fn truncated_pass_plus_refinement_hits_machine_residual() {
        let n = 96;
        let a = banded(n, 2, 2.0, 9);
        let sp = SpikePartition::detect(&a, 4).unwrap();
        let m = SpikeSolver::setup(&a, &sp, Arc::new(CpuSequential), PrecondOptions::default())
            .unwrap();
        let b = rhs(n);
        let out = m.solve_with(&b, 1e-12, 60);
        assert!(
            out.converged,
            "relres {} after {}",
            out.relres, out.refinements
        );
        assert!(out.relres <= 1e-12);
        // and against the dense reference
        let xref = solve_system(&a.to_dense(), &b).unwrap();
        for i in 0..n {
            assert!((out.x[i] - xref[i]).abs() < 1e-8 * xref[i].abs().max(1.0));
        }
    }

    #[test]
    fn single_partition_needs_no_reduced_system() {
        let n = 24;
        let a = banded(n, 1, 2.0, 4);
        let sp = SpikePartition::detect(&a, 1).unwrap();
        let m = SpikeSolver::setup(&a, &sp, Arc::new(CpuSequential), PrecondOptions::default())
            .unwrap();
        assert!(m.reduced.is_none());
        let out = m.solve(&rhs(n));
        assert!(out.converged);
    }

    #[test]
    fn setup_opts_detects_bandwidth_and_rejects_small_partitions() {
        let a = banded(24, 3, 2.0, 1);
        // 24 rows, bandwidth 3: 6 partitions of size 4 < 2k = 6
        let part = BlockPartition::uniform(24, 4);
        let res = SpikeSolver::setup_opts(
            &a,
            &part,
            Arc::new(CpuSequential),
            PrecondOptions::default(),
        );
        let Err(err) = res else {
            panic!("undersized partition must be rejected")
        };
        assert_eq!(err, FactorError::TooLarge { n: 6, max: 4 });
    }
}
