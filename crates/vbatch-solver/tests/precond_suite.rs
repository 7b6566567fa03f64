//! Acceptance comparison on seeded suite matrices: block-ILU(0) driven
//! through the generic [`BlockPreconditioner`] trait must converge on
//! the SPD / diagonally-dominant problems and must not need more IDR(4)
//! iterations than block-Jacobi on at least half of them — keeping the
//! extra coupling it retains is allowed to be a wash on weakly-coupled
//! problems, but must never be a systematic regression.

use std::sync::Arc;
use vbatch_exec::{Backend, CpuSimd, PlanMethod};
use vbatch_precond::{BlockIlu0, BlockJacobi, PrecondOptions};
use vbatch_solver::{IdrSolver, SolveParams};
use vbatch_sparse::{by_name, supervariable_blocking};

#[test]
fn bilu_converges_and_matches_or_beats_bj_on_half_the_suite() {
    // small SPD / diagonally-dominant members of the Table-I suite
    let names = ["bcsstk38", "Kuu", "nasa2910", "nd3k"];
    let backend: Arc<dyn Backend<f64>> = Arc::new(CpuSimd);
    let opts = PrecondOptions::default().with_method(PlanMethod::Lu);
    let params = SolveParams::default();
    let mut no_worse = 0usize;
    for name in names {
        let p = by_name(name).expect("suite problem");
        let a = p.build();
        let part = supervariable_blocking(&a, 16);
        let b = vec![1.0; a.nrows()];
        let bj = IdrSolver::<f64, BlockJacobi<f64>>::setup_opts(
            &a,
            4,
            &part,
            backend.clone(),
            opts.clone(),
            &params,
        )
        .unwrap()
        .solve(&a, &b);
        let bilu = IdrSolver::<f64, BlockIlu0<f64>>::setup_opts(
            &a,
            4,
            &part,
            backend.clone(),
            opts.clone(),
            &params,
        )
        .unwrap()
        .solve(&a, &b);
        assert!(
            bilu.converged(),
            "{name}: block-ILU(0) failed to converge ({:?})",
            bilu.reason
        );
        assert!(
            bj.converged(),
            "{name}: block-Jacobi failed to converge ({:?})",
            bj.reason
        );
        if bilu.iterations <= bj.iterations {
            no_worse += 1;
        }
    }
    assert!(
        2 * no_worse >= names.len(),
        "block-ILU(0) beat or matched block-Jacobi on only {no_worse}/{} problems",
        names.len()
    );
}
