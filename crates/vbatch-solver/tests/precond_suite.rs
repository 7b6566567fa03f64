//! Acceptance comparison on seeded suite matrices: block-ILU(0) driven
//! through the generic [`BlockPreconditioner`] trait must converge on
//! the SPD / diagonally-dominant problems and must not need more IDR(4)
//! iterations than block-Jacobi on at least half of them — keeping the
//! extra coupling it retains is allowed to be a wash on weakly-coupled
//! problems, but must never be a systematic regression.

use std::sync::Arc;
use vbatch_exec::{Backend, CpuSimd};
use vbatch_precond::{BjMethod, BlockIlu0, BlockJacobi, PrecondOptions};
use vbatch_solver::{idr_precond, SolveParams};
use vbatch_sparse::{by_name, supervariable_blocking};

#[test]
fn bilu_converges_and_matches_or_beats_bj_on_half_the_suite() {
    // small SPD / diagonally-dominant members of the Table-I suite
    let names = ["bcsstk38", "Kuu", "nasa2910", "nd3k"];
    let backend: Arc<dyn Backend<f64>> = Arc::new(CpuSimd);
    let opts = PrecondOptions::default().with_method(BjMethod::SmallLu);
    let params = SolveParams::default();
    let mut no_worse = 0usize;
    for name in names {
        let p = by_name(name).expect("suite problem");
        let a = p.build();
        let part = supervariable_blocking(&a, 16);
        let b = vec![1.0; a.nrows()];
        let bj = idr_precond::<f64, BlockJacobi<f64>>(
            &a,
            &b,
            4,
            &part,
            backend.clone(),
            opts.clone(),
            &params,
        )
        .unwrap();
        let bilu = idr_precond::<f64, BlockIlu0<f64>>(
            &a,
            &b,
            4,
            &part,
            backend.clone(),
            opts.clone(),
            &params,
        )
        .unwrap();
        assert!(
            bilu.result.converged(),
            "{name}: block-ILU(0) failed to converge ({:?})",
            bilu.result.reason
        );
        assert!(
            bj.result.converged(),
            "{name}: block-Jacobi failed to converge ({:?})",
            bj.result.reason
        );
        if bilu.result.iterations <= bj.result.iterations {
            no_worse += 1;
        }
    }
    assert!(
        2 * no_worse >= names.len(),
        "block-ILU(0) beat or matched block-Jacobi on only {no_worse}/{} problems",
        names.len()
    );
}
