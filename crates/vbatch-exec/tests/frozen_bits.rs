//! Frozen-bits guard: one seeded sweep over every factor form the CPU
//! backends can produce, folded into FNV-1a digests that are pinned as
//! constants.
//!
//! The golden suite proves the combinations agree *with each other*;
//! this file proves they agree with *the past*: a refactor of the
//! factor store, the solve kernels or the apply path that changes one
//! pivot, one status field or one solution bit changes a digest. The
//! constants were first recorded by running this file against the
//! sources of the commit before the factor store was collapsed; when the
//! backend list lost a third host backend (a second name for `CpuSimd`)
//! they were re-recorded against sources that still had it. They must
//! stay equal. `mul_add` is fused on every target and nothing below
//! depends on lane width or thread count, so they are host-independent.
//!
//! Hashed per block: the pivot sequence, the `BlockStatus` (health,
//! recovery chain, storage precision, promoted flag) and the bits of
//! `solve`, `solve_prepared` and a 5-column
//! `solve_block_multi_inplace_with`.

use vbatch_core::{make_spd, BatchLayout, DenseMat, MatrixBatch, Scalar, VectorBatch};
use vbatch_exec::{
    Backend, BatchPlan, BlockHealth, CpuSequential, CpuSimd, ExecStats, HealthPolicy, PlanMethod,
    PrecisionPolicy, RecoveryStep,
};
use vbatch_rt::{testgen, SmallRng};

/// Digest per method, `(label, f64 sweep, f32 sweep)`.
const FROZEN: [(&str, u64, u64); 6] = [
    ("auto", 0x31d23255fe51c485, 0x31f3a5587ac47a7d),
    ("small-lu", 0xeeddbf500a28ce75, 0x9e146a96c04b337d),
    ("gauss-huard", 0x2762888fb45b6265, 0x63149c378673839d),
    ("gauss-huard-t", 0x2762888fb45b6265, 0x63149c378673839d),
    ("gje-invert", 0x63608a0b632de5c5, 0x0d0dca38c844e87d),
    ("cholesky", 0xdfc7a0cfcab502fd, 0x12103b2520483eb5),
];

const METHODS: [PlanMethod; 6] = [
    PlanMethod::Auto,
    PlanMethod::SmallLu,
    PlanMethod::GaussHuard,
    PlanMethod::GaussHuardT,
    PlanMethod::GjeInvert,
    PlanMethod::Cholesky,
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

    /// Every `f32` is exactly an `f64`, so hashing the widened bits
    /// loses nothing for either scalar.
    fn values<T: Scalar>(&mut self, v: &[T]) {
        for x in v {
            self.word(x.to_f64().to_bits());
        }
    }
}

/// Packed (3×3), Gauss-Huard (12), a populous small-LU class (24×3), a
/// lone member (30), blocked LU (40) and a ragged tail.
const SIZES: [usize; 12] = [3, 3, 3, 12, 24, 24, 24, 30, 40, 1, 7, 7];
/// Order-24 block made singular: falls back to scalar Jacobi.
const SINGULAR: usize = 5;
/// Order-30 block with entries scaled 12 decades apart: the guarded
/// triage recovers it, the mixed policy promotes it.
const SCALED: usize = 7;

fn batch_for<T: Scalar>(spd: bool) -> MatrixBatch<T> {
    let mut rng = SmallRng::seed_from_u64(0x0F20_7E4B_0000_0175);
    let raw = testgen::dd_batch_of(&mut rng, &SIZES);
    let mut batch = MatrixBatch::<f64>::zeros(&SIZES);
    for (i, &n) in SIZES.iter().enumerate() {
        if spd {
            let b = DenseMat::from_col_major(n, n, &raw.blocks[i]);
            batch.block_mut(i).copy_from_slice(make_spd(&b).as_slice());
        } else {
            batch.block_mut(i).copy_from_slice(&raw.blocks[i]);
        }
    }
    if spd {
        // a zero diagonal entry: symmetric, not positive definite
        batch.block_mut(SINGULAR)[24 + 1] = 0.0;
        // symmetric scaling D A D with d_0 = 1e3, d_29 = 1e-3
        let b = batch.block_mut(SCALED);
        for k in 0..30 {
            b[k * 30] *= 1e3;
            b[k] *= 1e3;
            b[k * 30 + 29] *= 1e-3;
            b[29 * 30 + k] *= 1e-3;
        }
    } else {
        // two equal rows
        let b = batch.block_mut(SINGULAR);
        for c in 0..24 {
            b[c * 24 + 1] = b[c * 24];
        }
        // rows scaled 12 decades apart
        let b = batch.block_mut(SCALED);
        for c in 0..30 {
            b[c * 30] *= 1e6;
            b[c * 30 + 29] *= 1e-6;
        }
    }
    let mut out = MatrixBatch::<T>::zeros(&SIZES);
    for (o, &v) in out.as_mut_slice().iter_mut().zip(batch.as_slice()) {
        *o = T::from_f64(v);
    }
    out
}

fn health_code(h: BlockHealth) -> u64 {
    match h {
        BlockHealth::Healthy => 1,
        BlockHealth::IllConditioned => 2,
        BlockHealth::Singular => 3,
        BlockHealth::NonFinite => 4,
    }
}

fn recovery_code(s: RecoveryStep) -> u64 {
    match s {
        RecoveryStep::Equilibrated => 1,
        RecoveryStep::HouseholderQr => 2,
        RecoveryStep::ScalarJacobi => 3,
        RecoveryStep::Identity => 4,
    }
}

fn sweep_digest<T: Scalar>(method: PlanMethod) -> u64 {
    let batch = batch_for::<T>(method == PlanMethod::Cholesky);
    let total: usize = SIZES.iter().sum();
    let mut rng = SmallRng::seed_from_u64(0xB175_0FF2_07E4_0001);
    let flat: Vec<T> = (0..total)
        .map(|_| T::from_f64(rng.gen_range(-4.0..4.0)))
        .collect();
    let multi: Vec<T> = (0..5 * SIZES.iter().max().unwrap())
        .map(|_| T::from_f64(rng.gen_range(-2.0..2.0)))
        .collect();

    let mut h = Fnv::new();
    let backends: [&dyn Backend<T>; 2] = [&CpuSequential, &CpuSimd];
    for backend in backends {
        for layout in [
            BatchLayout::Blocked,
            BatchLayout::Interleaved { class_capacity: 2 },
        ] {
            for precision in [
                PrecisionPolicy::FullDp,
                PrecisionPolicy::MixedPromote,
                PrecisionPolicy::ForceSp,
            ] {
                for health in [HealthPolicy::Off, HealthPolicy::guarded::<T>()] {
                    let plan = BatchPlan::for_method_with_layout::<T>(&SIZES, method, layout)
                        .with_health(health)
                        .with_precision(precision);
                    let mut stats = ExecStats::new();
                    let f = backend.factorize(batch.clone(), &plan, &mut stats);
                    for (i, &n) in SIZES.iter().enumerate() {
                        match f.row_of_step(i) {
                            Some(piv) => piv.iter().for_each(|&p| h.word(p as u64)),
                            None => h.word(u64::MAX),
                        }
                        let s = &f.status[i];
                        h.word(health_code(s.health));
                        h.word(s.recovery.len() as u64);
                        s.recovery.iter().for_each(|&r| h.word(recovery_code(r)));
                        h.word(s.precision as u64);
                        h.word(s.promoted as u64);

                        let mut cols = multi[..5 * n].to_vec();
                        let mut scratch = vec![T::ZERO; f.solve_multi_scratch_elems(i, 5)];
                        f.solve_block_multi_inplace_with(i, &mut cols, &mut scratch);
                        h.values(&cols);
                    }
                    let mut x = VectorBatch::from_flat(&SIZES, &flat);
                    backend.solve(&f, &mut x, &mut stats);
                    h.values(x.as_slice());
                    let prep = backend.prepare_apply(&f);
                    let mut v = flat.clone();
                    backend.solve_prepared(&f, &prep, &mut v, &mut stats);
                    h.values(&v);
                }
            }
        }
    }
    h.0
}

#[test]
fn digests_equal_the_recorded_constants() {
    let got: Vec<(&str, u64, u64)> = METHODS
        .iter()
        .zip(FROZEN)
        .map(|(&m, (label, ..))| (label, sweep_digest::<f64>(m), sweep_digest::<f32>(m)))
        .collect();
    let table: String = got
        .iter()
        .map(|(l, d, s)| format!("    (\"{l}\", {d:#018x}, {s:#018x}),\n"))
        .collect();
    assert_eq!(got, FROZEN, "digests moved; this sweep now gives\n{table}");
}
