//! Frozen Krylov contract: every solver × every preconditioner family
//! on two small suite problems, in both precisions, folded into FNV-1a
//! digests that are pinned as constants.
//!
//! The solver unit tests prove each method solves its system; this file
//! proves the methods still take *the same path* as before: one swapped
//! check in the shared stopping protocol, one flipped sign in a
//! recurrence, one reordered reduction changes an iteration count, a
//! stop reason, a history entry or a solution bit, and with it a
//! digest. The constants were recorded by running this file against the
//! sources of the commit before the four copies of the stopping
//! protocol were collapsed into one (PR 15) and must stay equal.
//! `mul_add` is fused on every target and no reduction is ever split
//! across threads (an SpMV's rows are, each still reduced by one
//! thread; `pooled_paths_equal_the_serial_ones_bitwise` holds the pool
//! to that), so they are host- and profile-independent.
//!
//! Hashed per solve: `iterations`, the stop reason, the recorded
//! residual history, and the bits of `final_relres` and `x`.

use std::sync::Arc;
use vbatch_lu::prelude::*;
use vbatch_precond::{BlockIlu0, BlockPreconditioner};
use vbatch_solver::IdrSolver;
use vbatch_sparse::{by_name, spmv};

/// `(problem, SPD?, f64 digest, f32 digest)`. `dw1024` is the
/// nonsymmetric waveguide band, `bcsstk38` an SPD stiffness matrix (the
/// only one CG runs on).
const FROZEN: [(&str, bool, u64, u64); 2] = [
    ("dw1024", false, 0x8179901714b24aa5, 0x6fa72ff9bfda56d7),
    ("bcsstk38", true, 0xa50ca9f8cc72bfdf, 0xeee0752a687c5fd9),
];

/// Budget per solve: enough for every f64 run to converge, small
/// enough that GMRES(30) in f32 ends on the cap — both endings, and the
/// f32 runs whose recurrence residual converges while the true one has
/// not, are part of the contract.
const MAX_ITERS: usize = 250;

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

    /// Every `f32` is exactly an `f64`, so hashing the widened bits
    /// loses nothing for either scalar.
    fn values<T: Scalar>(&mut self, v: &[T]) {
        for x in v {
            self.word(x.to_f64().to_bits());
        }
    }

    fn result<T: Scalar>(&mut self, r: &SolveResult<T>) {
        self.word(r.iterations as u64);
        self.word(match r.reason {
            StopReason::Converged => 1,
            StopReason::MaxIterations => 2,
            StopReason::Breakdown => 3,
            StopReason::NonFinite => 4,
            StopReason::Stagnated => 5,
        });
        self.word(r.history.len() as u64);
        self.values(&r.history);
        self.word(r.final_relres.to_bits());
        self.values(&r.x);
    }
}

fn cast<T: Scalar>(a: &CsrMatrix<f64>) -> CsrMatrix<T> {
    CsrMatrix::from_raw(
        a.nrows(),
        a.ncols(),
        a.row_ptr().to_vec(),
        a.col_idx().to_vec(),
        a.values().iter().map(|&v| T::from_f64(v)).collect(),
    )
}

fn params() -> SolveParams {
    SolveParams::default()
        .with_max_iters(MAX_ITERS)
        .with_history()
}

/// Every method on one `(A, M)` pair, folded into `h`.
fn fold<T: Scalar, M: Preconditioner<T>>(h: &mut Fnv, a: &CsrMatrix<T>, m: &M, spd: bool) {
    let b = vec![T::ONE; a.nrows()];
    let p = params();
    h.result(&idr(a, &b, 4, m, &p));
    h.result(&idr_smoothed(a, &b, 4, m, &p));
    h.result(&bicgstab(a, &b, m, &p));
    if spd {
        h.result(&cg(a, &b, m, &p));
    }
    h.result(&gmres(a, &b, 30, m, &p));
}

fn digest<T: Scalar>(problem: &str, spd: bool) -> u64 {
    let a = cast::<T>(&by_name(problem).expect("suite problem").build());
    let part = BlockPartition::uniform(a.nrows(), 8);
    let backend = || Arc::new(CpuSequential) as Arc<dyn Backend<T>>;
    let mut h = Fnv::new();
    fold(&mut h, &a, &Identity::new(a.nrows()), spd);
    let bj = BlockJacobi::setup_opts(&a, &part, backend(), PrecondOptions::default()).unwrap();
    fold(&mut h, &a, &bj, spd);
    let bilu = BlockIlu0::setup_opts(&a, &part, backend(), PrecondOptions::default()).unwrap();
    fold(&mut h, &a, &bilu, spd);
    h.0
}

#[test]
fn krylov_paths_are_frozen() {
    let mut moved = Vec::new();
    for (problem, spd, want64, want32) in FROZEN {
        let got = (digest::<f64>(problem, spd), digest::<f32>(problem, spd));
        if got != (want64, want32) {
            moved.push(format!(
                "(\"{problem}\", {spd}, {:#018x}, {:#018x}),",
                got.0, got.1
            ));
        }
    }
    assert!(
        moved.is_empty(),
        "Krylov digests moved — iterations, reasons, histories or solution \
         bits changed; re-record only if that is the PR's purpose:\n{}",
        moved.join("\n")
    );
}

/// The reusable handle draws every vector from recycled, dirty
/// workspace buffers on its second solve; nothing of that may show.
#[test]
fn idr_solver_second_solve_equals_first_and_one_shot() {
    let a = by_name("dw1024").expect("suite problem").build();
    let b = vec![1.0; a.nrows()];
    let part = BlockPartition::uniform(a.nrows(), 8);
    let mut handle = IdrSolver::<f64, BlockJacobi<f64>>::setup_opts(
        &a,
        4,
        &part,
        Arc::new(CpuSequential),
        PrecondOptions::default(),
        &params(),
    )
    .unwrap();
    let one_shot = idr(&a, &b, 4, handle.precond(), &params());
    let mut want = Fnv::new();
    want.result(&one_shot);
    for pass in ["first", "second"] {
        let mut got = Fnv::new();
        got.result(&handle.solve(&a, &b));
        assert_eq!(got.0, want.0, "{pass} handle solve differs from one-shot");
    }
}

/// The robust path end to end, in single precision: on the indefinite
/// shifted Laplacian `L − 2I` IDR(4) stagnates, the one restart
/// stagnates too and GMRES(30) spends its 2 000 iterations; a NaN
/// right-hand side is never restarted and every attempt stops at once.
/// Pinned: restarts, GMRES use, accumulated iterations, the final stop
/// reason and the bits of the relative residual and the solution.
#[test]
fn robust_path_is_frozen() {
    let shifted = {
        let mut a = vbatch_sparse::gen::laplace::laplace_2d::<f32>(10, 10);
        for row in 0..a.nrows() {
            for k in a.row_ptr()[row]..a.row_ptr()[row + 1] {
                if a.col_idx()[k] == row {
                    a.values_mut()[k] -= 2.0;
                }
            }
        }
        a
    };
    let mut stagnating = SolveParams::default()
        .with_tol(1e-12)
        .with_stagnation_window(15)
        .with_max_iters(2000);
    stagnating.stagnation_rtol = 1e-2;
    let mut nan_rhs = vec![1.0f32; 36];
    nan_rhs[0] = f32::NAN;
    let cases = [
        (shifted, vec![1.0f32; 100], stagnating),
        (
            vbatch_sparse::gen::laplace::laplace_2d::<f32>(6, 6),
            nan_rhs,
            SolveParams::default(),
        ),
    ];
    let got: Vec<_> = cases
        .iter()
        .map(|(a, b, params)| {
            let part = BlockPartition::uniform(a.nrows(), 4);
            let opts = PrecondOptions::default().with_method(PlanMethod::Lu);
            let backend = Arc::new(CpuSequential);
            let mut solver =
                IdrSolver::<f32, BlockJacobi<f32>>::setup_opts(a, 4, &part, backend, opts, params)
                    .unwrap();
            let r = solver.solve_robust(a, b);
            let mut x = Fnv::new();
            x.values(&r.result.x);
            let relres = r.result.final_relres.to_bits();
            (
                r.restarts,
                r.used_gmres,
                r.result.iterations,
                r.result.reason,
                relres,
                x.0,
            )
        })
        .collect();
    assert_eq!(
        got,
        [
            (
                1,
                true,
                2194,
                StopReason::MaxIterations,
                0x3e90be2580000000,
                0x5793f0ead9831a93
            ),
            (
                0,
                true,
                0,
                StopReason::NonFinite,
                0x7ff8000000000000,
                0x66e368127e9e89a5
            ),
        ]
    );
}

/// Order of the protocol's checks: a solve that reaches the tolerance
/// on the very iteration its stagnation window would close has
/// converged — the guard is never shown a converged residual. With
/// `stagnation_rtol = 1` no residual counts as an improvement, so the
/// window closes after exactly `stagnation_window` observed residuals.
#[test]
fn converged_outranks_stagnated_on_the_closing_iteration() {
    let a = by_name("bcsstk38").expect("suite problem").build();
    let b = vec![1.0; a.nrows()];
    let part = BlockPartition::uniform(a.nrows(), 8);
    let m = BlockJacobi::setup_opts(
        &a,
        &part,
        Arc::new(CpuSequential) as Arc<dyn Backend<f64>>,
        PrecondOptions::default(),
    )
    .unwrap();
    type Solve<'a> = &'a dyn Fn(&SolveParams) -> SolveResult<f64>;
    let runs: [(&str, Solve); 3] = [
        ("idr", &|p| idr(&a, &b, 4, &m, p)),
        ("bicgstab", &|p| bicgstab(&a, &b, &m, p)),
        ("cg", &|p| cg(&a, &b, &m, p)),
    ];
    for (name, solve) in runs {
        let free = solve(&SolveParams::default().with_history());
        assert!(free.converged(), "{name}: {:?}", free.reason);
        // the initial residual is recorded, not observed
        let observed = free.history.len() - 1;
        let mut p = SolveParams::default().with_stagnation_window(observed);
        p.stagnation_rtol = 1.0;
        let closing = solve(&p);
        assert_eq!(closing.reason, StopReason::Converged, "{name}");
        assert_eq!(closing.x, free.x, "{name}");
        p.stagnation_window = observed - 1;
        let early = solve(&p);
        assert_eq!(early.reason, StopReason::Stagnated, "{name}");
        assert!(early.iterations < free.iterations, "{name}");
    }
}

/// Nothing the pool does shows in a bit. On systems above its work
/// gates — 4 096 stored entries per thread for the SpMV, 8 192 factor
/// elements per thread for the prepared apply and 8 192 stored block
/// elements per thread for a level of the block-ILU(0) sweep — the
/// split SpMV equals a serial loop, and `CpuSimd`'s preconditioner
/// apply and IDR(4) run equal `CpuSequential`'s, also from four threads
/// at once, of which one gets the pool and the rest run their shares
/// themselves.
#[test]
fn pooled_paths_equal_the_serial_ones_bitwise() {
    let a = by_name("dw8192").expect("suite problem").build();
    let n = a.nrows();
    let part = BlockPartition::uniform(n, 32);
    assert!(a.nnz() > 60_000 && 32 * n > 100_000, "above both gates");
    let x = probe(n);
    let mut serial = vec![0.0; n];
    for r in 0..n {
        for (c, v) in a.row_cols(r).iter().zip(a.row_vals(r)) {
            serial[r] = v.mul_add(x[*c], serial[r]);
        }
    }
    let mut y = vec![f64::NAN; n];
    spmv(&a, &x, &mut y);
    assert_eq!(bits(&y), bits(&serial), "split SpMV");
    let bj = BlockJacobi::setup_opts(&a, &part, sequential(), PrecondOptions::default()).unwrap();
    assert!(
        pooled_equals_serial(&a, &bj) > 20,
        "a loop long enough to keep the workers polling"
    );

    // A circuit matrix's power-law rows put several heavy block rows in
    // one level of each triangle: the level sweep splits there.
    let a = by_name("matrix-new_3").expect("suite problem").build();
    let part = supervariable_blocking(&a, 8);
    let bilu = BlockIlu0::setup_opts(&a, &part, sequential(), PrecondOptions::default()).unwrap();
    let (lower, upper) = bilu.schedules();
    let crossing = [(bilu.lower(), lower), (bilu.upper_tilde(), upper)]
        .iter()
        .flat_map(|&(tri, sched)| (0..sched.num_levels()).map(move |l| (tri, sched.level(l))))
        .filter(|(tri, rows)| {
            let work: usize = rows
                .iter()
                .flat_map(|&i| tri.row_entries(i))
                .map(|e| tri.block_data(e).len())
                .sum();
            rows.len() >= 2 && work >= 2 * 8 * 1024
        })
        .count();
    assert!(crossing > 0, "no level of the sweep crosses its work gate");
    pooled_equals_serial(&a, &bilu);
}

fn sequential() -> Arc<dyn Backend<f64>> {
    Arc::new(CpuSequential)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn probe(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i * 7) % 23) as f64 / 5.0 - 2.0).collect()
}

/// `reference`, set up on `CpuSequential`, against the same setup on
/// `CpuSimd`: one apply's bits, then IDR(4)'s iterations and solution
/// bits, once alone and four times at once. Returns the iterations.
fn pooled_equals_serial<M: BlockPreconditioner<f64>>(a: &CsrMatrix<f64>, reference: &M) -> usize {
    let pooled = || {
        let backend = Arc::new(CpuSimd);
        M::setup_opts(a, reference.partition(), backend, PrecondOptions::default()).unwrap()
    };
    let b = vec![1.0; a.nrows()];
    let params = SolveParams::default().with_max_iters(60);
    let solve = |m: &M| {
        let r = idr(a, &b, 4, m, &params);
        (r.iterations, bits(&r.x))
    };
    let apply = |m: &M| bits(&m.apply(&probe(a.nrows())));
    let (want_apply, want) = (apply(reference), solve(reference));
    let label = reference.label();
    let m = pooled();
    assert_eq!(apply(&m), want_apply, "{label}: pooled apply");
    assert_eq!(solve(&m), want, "{label}: pooled IDR(4)");
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| assert_eq!(solve(&pooled()), want, "{label}: 4 at once"));
        }
    });
    want.0
}
