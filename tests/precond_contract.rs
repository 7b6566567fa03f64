//! Frozen preconditioner contract: block-Jacobi, block-ILU(0) and the
//! SPIKE split under every layout × precision policy × health policy
//! (plus one fault-injected setup each), the reusable IDR handle over
//! the first two, and the serve engine's flush, folded into FNV-1a
//! digests that are pinned as constants.
//!
//! The workspace suites prove each holder right against a dense oracle;
//! this file is the tier-1 proof that they still do *what they did*:
//! one moved status field, one fault assigned to a different block, one
//! apply bit, one kernel or layout count changes a digest. The
//! constants were recorded by running this file against the sources of
//! the commit before the three preconditioners and the serve handle
//! moved onto `BlockSolve` (PR 16) and must stay equal. `mul_add` is
//! fused on every target and everything below runs on one thread, so
//! they are host-, profile- and lane-width-independent.

use std::sync::Arc;
use vbatch_core::BatchLayout;
use vbatch_exec::{FaultClass, FaultPlan, HealthPolicy, PrecisionPolicy, SizeClassHandle};
use vbatch_lu::prelude::*;
use vbatch_precond::{BlockIlu0, BlockPreconditioner};
use vbatch_solver::{IdrSolver, SpikeSolver};
use vbatch_sparse::by_name;
use vbatch_sparse::gen::fem::{fem_variable_block_matrix, mixed_dofs, MeshGraph};

/// `(what, digest)`; see the functions of the same names.
const FROZEN: [(&str, u64); 5] = [
    ("bj", 0x4c609981d4941ce7),
    ("bilu", 0xf7d8f1d0ddf7cf72),
    ("spike", 0x838bf4bfcd0ef506),
    ("idr_handle", 0x45f3ae88162e2055),
    ("serve_flush", 0xc5e711582efb1ecd),
];

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        s.bytes().for_each(|b| self.word(b as u64));
    }

    fn values(&mut self, v: &[f64]) {
        v.iter().for_each(|x| self.word(x.to_bits()));
    }

    fn statuses(&mut self, statuses: &[BlockStatus]) {
        self.word(statuses.len() as u64);
        for s in statuses {
            self.text(s.kernel.label());
            self.text(s.health.label());
            self.word(s.condest.map_or(u64::MAX, f64::to_bits));
            self.text(&s.error.as_ref().map_or(String::new(), |e| e.to_string()));
            self.word(s.recovery.len() as u64);
            s.recovery.iter().for_each(|r| self.text(r.label()));
            self.text(s.precision.label());
            self.word(s.promoted as u64);
        }
    }
}

fn seq() -> Arc<dyn Backend<f64>> {
    Arc::new(CpuSequential)
}

/// One setup of `M` and two chained applies, folded into `h`:
/// statuses, the injected fault map (the plan's assignment over the
/// partition; nothing without a plan), the setup histograms, the
/// fallback count and the bits of `M⁻¹v` and `M⁻¹(M⁻¹v)` (the second
/// apply runs on the scratch the first one left behind).
fn fold_setup<M: BlockPreconditioner<f64>>(
    h: &mut Fnv,
    a: &CsrMatrix<f64>,
    part: &BlockPartition,
    opts: PrecondOptions,
) -> M {
    let fault = opts.fault.clone();
    let m = M::setup_opts(a, part, seq(), opts).expect("contract problems set up");
    h.statuses(m.statuses());
    let fault_map = fault.map_or_else(Vec::new, |plan| plan.assign(m.partition().len()));
    for f in fault_map {
        h.text(f.map_or("-", FaultClass::label));
    }
    let report = m.setup_report();
    for hist in [
        report.stats.kernel_histogram(),
        report.stats.layout_histogram(),
    ] {
        h.word(hist.len() as u64);
        for (label, count) in hist {
            h.text(label);
            h.word(*count);
        }
    }
    h.word(report.fallback_blocks as u64);
    let v: Vec<f64> = (0..a.nrows())
        .map(|i| ((i * 7 + 3) % 13) as f64 / 4.0 - 1.5)
        .collect();
    let w = m.apply(&v);
    h.values(&w);
    h.values(&m.apply(&w));
    m
}

/// Every layout × precision × health combination of `M` on `(a, part)`,
/// then one guarded setup with 10 % of the blocks corrupted (half an
/// exactly singular row, half a NaN entry). `extra` folds whatever the
/// family has beyond the shared surface.
fn family_digest<M: BlockPreconditioner<f64>>(
    a: &CsrMatrix<f64>,
    part: &BlockPartition,
    extra: fn(&mut Fnv, &M),
) -> u64 {
    let mut h = Fnv::new();
    let interleaved = BatchLayout::Interleaved { class_capacity: 2 };
    for layout in [BatchLayout::Blocked, interleaved] {
        for precision in [PrecisionPolicy::FullDp, PrecisionPolicy::MixedPromote] {
            for health in [HealthPolicy::Off, HealthPolicy::guarded::<f64>()] {
                let opts = PrecondOptions::default()
                    .with_layout(layout)
                    .with_precision(precision)
                    .with_health(health);
                let m: M = fold_setup(&mut h, a, part, opts);
                extra(&mut h, &m);
            }
        }
    }
    let faults = FaultPlan::new(17)
        .with(FaultClass::ZeroRow, 0.05)
        .with(FaultClass::NanEntry, 0.05);
    let opts = PrecondOptions::guarded::<f64>()
        .with_layout(interleaved)
        .with_fault(faults);
    let m: M = fold_setup(&mut h, a, part, opts);
    assert!(m.setup_report().fallback_blocks > 0, "faults must land");
    extra(&mut h, &m);
    h.0
}

/// A FEM matrix whose nodes carry 2, 3 or 5 unknowns, under
/// supervariable blocking at bound 24: eleven blocks of orders 12..=24,
/// so Gauss-Huard and the small-size LU both run, and the capacity-2
/// layout interleaves the order-23 and order-24 classes and leaves
/// three blocks on the blocked path.
fn fem_problem() -> (CsrMatrix<f64>, BlockPartition) {
    let mesh = MeshGraph::grid2d(9, 8);
    let dofs = mixed_dofs(mesh.nodes, &[2, 3, 5], 5);
    let a = fem_variable_block_matrix::<f64>(&mesh, &dofs, 0.35, 5);
    let part = supervariable_blocking(&a, 24);
    (a, part)
}

fn bj() -> u64 {
    let (a, part) = fem_problem();
    family_digest::<BlockJacobi<f64>>(&a, &part, |_, _| {})
}

fn bilu() -> u64 {
    let (a, part) = fem_problem();
    family_digest::<BlockIlu0<f64>>(&a, &part, |h, m| {
        h.word(m.sweep_fallback_pivots as u64);
        h.word(m.sanitized_offdiag_blocks as u64);
    })
}

/// Banded, half-bandwidth 2, 20 partitions of order 12: partition batch
/// and reduced 4 × 4 batch both interleave. Beyond the shared surface
/// the direct solve's refinement count and solution bits are folded in.
fn spike() -> u64 {
    let n = 240;
    let mut coo = CooMatrix::new(n, n);
    for (i, j, v) in vbatch_rt::testgen::banded_system_triplets(n, 2, 2.0, 29) {
        coo.push(i, j, v);
    }
    let a = coo.to_csr();
    let part = BlockPartition::uniform(n, 12);
    family_digest::<SpikeSolver<f64>>(&a, &part, |h, m| {
        let b: Vec<f64> = (0..m.dim()).map(|i| ((i * 5) % 11) as f64 - 5.0).collect();
        let out = m.solve_with(&b, 1e-10, 40);
        h.word(out.refinements as u64);
        h.word(out.converged as u64);
        h.values(&out.x);
    })
}

/// The reusable IDR(4) handle over block-Jacobi and block-ILU(0) on one
/// suite problem: iterations and solution bits of two solves each.
fn idr_handle() -> u64 {
    fn fold<M: BlockPreconditioner<f64>>(h: &mut Fnv, a: &CsrMatrix<f64>) {
        let part = supervariable_blocking(a, 16);
        let mut handle = IdrSolver::<f64, M>::setup_opts(
            a,
            4,
            &part,
            seq(),
            PrecondOptions::default(),
            &SolveParams::default(),
        )
        .expect("suite problem sets up");
        let b = vec![1.0; a.nrows()];
        for _ in 0..2 {
            let r = handle.solve(a, &b);
            assert!(r.converged(), "{:?}", r.reason);
            h.word(r.iterations as u64);
            h.values(&r.x);
        }
    }
    let a = by_name("dw1024").expect("suite problem").build();
    let mut h = Fnv::new();
    fold::<BlockJacobi<f64>>(&mut h, &a);
    fold::<BlockIlu0<f64>>(&mut h, &a);
    h.0
}

/// One guarded serve-engine flush of order-6 systems holding a singular
/// and a NaN member: statuses and solution bits of the co-batched
/// flush, and the healthy members again solo — which must be the same
/// bits (the isolation contract `uniform_at_capacity` exists for).
fn serve_flush() -> u64 {
    let n = 6;
    let block = |salt: usize| -> Vec<f64> {
        (0..n * n)
            .map(|e| {
                let (i, j) = (e % n, e / n);
                let h = (i * 131 + j * 37 + salt * 17 + 3) % 1024;
                h as f64 / 512.0 - 1.0 + if i == j { (n + 2) as f64 } else { 0.0 }
            })
            .collect()
    };
    let mut blocks: Vec<Vec<f64>> = (0..5).map(block).collect();
    for j in 0..n {
        blocks[1][j * n + 2] = 0.0; // a zero row
    }
    blocks[3][1] = f64::NAN;
    let rhs0: Vec<Vec<f64>> = (0..5)
        .map(|s| (0..n).map(|i| 1.0 + ((s + i) % 4) as f64).collect())
        .collect();
    let handle = || {
        SizeClassHandle::new(
            n,
            8,
            seq(),
            HealthPolicy::guarded::<f64>(),
            BatchLayout::Interleaved { class_capacity: 2 },
            PrecisionPolicy::FullDp,
        )
    };

    let mut h = Fnv::new();
    let mut co = rhs0.clone();
    let status = {
        let block_refs: Vec<&[f64]> = blocks.iter().map(Vec::as_slice).collect();
        let mut rhs_refs: Vec<&mut [f64]> = co.iter_mut().map(Vec::as_mut_slice).collect();
        handle().solve_batch(&block_refs, &mut rhs_refs)
    };
    h.statuses(&status);
    co.iter().for_each(|x| h.values(x));
    for i in [0, 2, 4] {
        let mut solo = rhs0[i].clone();
        let st = handle().solve_batch(&[blocks[i].as_slice()], &mut [solo.as_mut_slice()]);
        h.statuses(&st);
        assert_eq!(solo, co[i], "member {i}: solo and co-batched bits differ");
    }
    h.0
}

#[test]
fn preconditioner_paths_are_frozen() {
    let runs: [fn() -> u64; 5] = [bj, bilu, spike, idr_handle, serve_flush];
    let got: Vec<(&str, u64)> = FROZEN
        .iter()
        .zip(runs)
        .map(|(&(what, _), run)| (what, run()))
        .collect();
    let table: String = got
        .iter()
        .map(|(w, d)| format!("    (\"{w}\", {d:#018x}),\n"))
        .collect();
    assert_eq!(
        got, FROZEN,
        "preconditioner digests moved — statuses, fault maps, apply bits or \
         setup histograms changed; re-record only if that is the PR's \
         purpose:\n{table}"
    );
}
