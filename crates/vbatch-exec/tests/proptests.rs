//! Property-based tests of the execution layer: the two backends
//! (`CpuSequential`, `CpuSimd`) must produce bitwise-identical
//! solutions on random variable-size batches under every plan method,
//! and the planner must honor the host family rule (`auto` plans LU at
//! every order) and the host layout rule (populous LU classes
//! interleave, at every order).

use vbatch_core::{BatchLayout, DenseMat, MatrixBatch, Scalar, StoragePrecision, VectorBatch};
use vbatch_exec::{
    Backend, BatchPlan, BlockFactor, BlockTriangular, ClassLayout, CpuSequential, CpuSimd,
    ExecStats, FactorizedBatch, HealthPolicy, KernelChoice, PlanMethod, PrecisionPolicy,
};
use vbatch_rt::{run_cases, testgen, SmallRng};

fn random_batch(rng: &mut SmallRng, max_n: usize) -> (Vec<usize>, MatrixBatch<f64>) {
    let sizes = testgen::ragged_sizes(rng, max_n, 9);
    let seed = rng.next_u64();
    let mats: Vec<DenseMat<f64>> = sizes
        .iter()
        .enumerate()
        .map(|(s, &n)| {
            DenseMat::from_col_major(n, n, &testgen::hashed_dense(n, seed.wrapping_add(s as u64)))
        })
        .collect();
    (sizes, MatrixBatch::from_matrices(&mats))
}

fn rhs_for(sizes: &[usize]) -> VectorBatch<f64> {
    let mut rhs = VectorBatch::zeros(sizes);
    for (i, x) in rhs.as_mut_slice().iter_mut().enumerate() {
        *x = (i % 13) as f64 / 3.0 - 2.0;
    }
    rhs
}

fn solve_on(
    backend: &dyn Backend<f64>,
    batch: &MatrixBatch<f64>,
    plan: &BatchPlan,
    rhs: &VectorBatch<f64>,
) -> (Vec<f64>, usize) {
    let mut stats = ExecStats::new();
    let f = backend.factorize(batch.clone(), plan, &mut stats);
    let mut x = rhs.clone();
    backend.solve(&f, &mut x, &mut stats);
    (x.as_slice().to_vec(), f.fallback_count())
}

#[test]
fn backends_agree_on_random_variable_size_batches() {
    run_cases(
        "backends_agree_on_random_variable_size_batches",
        32,
        |rng, _case| {
            // up to order 40 so the blocked-LU path is exercised too
            let (sizes, batch) = random_batch(rng, 40);
            let rhs = rhs_for(&sizes);
            let plan = BatchPlan::auto::<f64>(&sizes);
            let backends: [&dyn Backend<f64>; 2] = [&CpuSequential, &CpuSimd];
            let results: Vec<(Vec<f64>, usize)> = backends
                .iter()
                .map(|b| solve_on(*b, &batch, &plan, &rhs))
                .collect();
            for (b, r) in backends.iter().zip(&results).skip(1) {
                assert_eq!(r.1, results[0].1, "{} fallback count", b.name());
                assert_eq!(r.0, results[0].0, "{} (sizes {sizes:?})", b.name());
            }
        },
    );
}

#[test]
fn backends_agree_under_every_plan_method() {
    run_cases(
        "backends_agree_under_every_plan_method",
        24,
        |rng, _case| {
            let (sizes, batch) = random_batch(rng, 32);
            let rhs = rhs_for(&sizes);
            for method in [
                PlanMethod::Auto,
                PlanMethod::Lu,
                PlanMethod::GaussHuard,
                PlanMethod::GaussHuardT,
                PlanMethod::GjeInvert,
            ] {
                let plan = BatchPlan::for_method::<f64>(&sizes, method);
                let (seq, _) = solve_on(&CpuSequential, &batch, &plan, &rhs);
                let (par, _) = solve_on(&CpuSimd, &batch, &plan, &rhs);
                // the two backends run the same scalar code
                assert_eq!(seq, par, "{method:?}");
            }
        },
    );
}

/// The host family rule and the layout rule, at every order 1..=80: in
/// f32 and f64, `auto`, `auto_with_layout` and `uniform_at_capacity`
/// plan LU whatever the count, and a class interleaves exactly when its
/// population (for `uniform_at_capacity`: the capacity) reaches the
/// requested `class_capacity`. A forced Gauss-Huard keeps its family up
/// to order 32; inversion, Cholesky and a blocked policy never
/// interleave.
#[test]
fn auto_plans_lu_at_every_order_and_layout_follows_capacity() {
    fn check<T: Scalar>(rng: &mut SmallRng, n: usize) {
        let count = rng.gen_range(1usize..60);
        let cap = rng.gen_range(1usize..40);
        let layout = BatchLayout::Interleaved {
            class_capacity: cap,
        };
        let expected = |count: usize| {
            if count >= cap {
                ClassLayout::Interleaved
            } else {
                ClassLayout::Blocked
            }
        };
        // a second class, of another order, mostly below capacity
        let other = (n + rng.gen_range(1usize..79)) % 80 + 1;
        let others = rng.gen_range(1usize..cap.max(2));
        let mut sizes = vec![n; count];
        sizes.extend(std::iter::repeat_n(other, others));
        let default_layout = BatchPlan::auto::<T>(&sizes);
        let plan = BatchPlan::auto_with_layout::<T>(&sizes, layout);
        let orders: Vec<usize> = plan.classes.iter().map(|c| c.n).collect();
        let ascending = [n.min(other), n.max(other)];
        assert_eq!(orders, ascending, "classes ascending, one per order");
        assert_eq!(plan.len(), count + others);
        let what = format!("{} n={n} count={count} cap={cap}", T::PRECISION);
        for c in plan.classes.iter().chain(&default_layout.classes) {
            assert_eq!(c.kernel, KernelChoice::Lu, "{what}");
        }
        assert_eq!(plan.class(n).layout, expected(count), "{what}");
        assert_eq!(plan.class(other).layout, expected(others));
        // the layout histogram covers every block exactly once
        let mut want = std::collections::BTreeMap::new();
        *want.entry(expected(count)).or_insert(0) += count;
        *want.entry(expected(others)).or_insert(0) += others;
        let want: Vec<(ClassLayout, usize)> = want.into_iter().collect();
        assert_eq!(plan.layout_histogram(), want);
        let compact: Vec<String> = want
            .iter()
            .map(|(l, k)| format!("{}={k}", l.label()))
            .collect();
        assert_eq!(plan.layout_compact(), compact.join(";"));
        // a service flush of any membership is planned as its full class
        let capacity = rng.gen_range(1usize..60);
        let members = rng.gen_range(1..capacity + 1);
        let flush = BatchPlan::uniform_at_capacity::<T>(n, members, capacity, layout);
        assert_eq!(flush.class(n).count, members);
        assert_eq!(flush.class(n).kernel, KernelChoice::Lu);
        assert_eq!(flush.class(n).layout, expected(capacity));
        // forced families
        let sizes = vec![n; count];
        let gh = BatchPlan::for_method_with_layout::<T>(&sizes, PlanMethod::GaussHuard, layout);
        let (gh_family, gh_layout) = if n <= 32 {
            (KernelChoice::GaussHuard, ClassLayout::Blocked)
        } else {
            (KernelChoice::Lu, expected(count))
        };
        assert_eq!(gh.class(n).kernel, gh_family, "forced GH n={n}");
        assert_eq!(gh.class(n).layout, gh_layout);
        for method in [PlanMethod::GjeInvert, PlanMethod::Cholesky] {
            let plan = BatchPlan::for_method_with_layout::<T>(&sizes, method, layout);
            assert_eq!(plan.layout_histogram(), [(ClassLayout::Blocked, count)]);
        }
        let blocked = BatchPlan::auto_with_layout::<T>(&sizes, BatchLayout::Blocked);
        assert_eq!(blocked.layout_histogram(), [(ClassLayout::Blocked, count)]);
    }
    run_cases("auto_plans_lu_at_every_order", 80, |rng, case| {
        check::<f32>(rng, case + 1);
        check::<f64>(rng, case + 1);
    });
}

/// `family/storage/refinement` of block `i` — one label per form the
/// factor store can hold.
fn factor_kind(f: &FactorizedBatch<f64>, i: usize) -> String {
    let family = match f.factor(i) {
        None => "interleaved_lu",
        Some(BlockFactor::Lu { .. } | BlockFactor::Equilibrated { .. }) => "lu",
        Some(BlockFactor::Gh(_)) => "gh",
        Some(BlockFactor::Inv { .. }) => "inv",
        Some(BlockFactor::Chol(_)) => "chol",
        Some(BlockFactor::Qr(_)) => "qr",
        Some(BlockFactor::ScalarJacobi { .. }) => "scalar_jacobi",
    };
    let storage = f.storage(i);
    let refinement = match f.factor(i) {
        Some(BlockFactor::Equilibrated { .. }) => "equilibrated",
        _ if storage == StoragePrecision::Lower => "refine_retained",
        _ => "bare",
    };
    format!("{family}/{}/{refinement}", storage.label())
}

/// The block-ILU(0) normalisation solves a whole block row per call;
/// each column must come out bitwise as the per-column
/// `solve_block_inplace_with` returns it — for the read-once fast path
/// (bare native LU, own storage or interleaved slot) and for every form
/// that falls back to the column loop. Swept over everything
/// `PrecondOptions` can select: method × layout × precision × health,
/// with a singular block that degrades to scalar Jacobi, a badly scaled
/// one the guarded triage equilibrates, and one whose equilibration
/// underflows a whole column to zero so triage escalates to QR. Every
/// kernel family × storage × wrapper form the library can produce must
/// show up.
#[test]
fn multi_rhs_normalisation_is_bitwise_the_column_solves() {
    let mut seen = std::collections::BTreeSet::new();
    run_cases(
        "multi_rhs_normalisation_is_bitwise_the_column_solves",
        6,
        |rng, _case| {
            // classes: a populous small class (3×3), a lone order-12
            // block, a populous class (24×3) and a lone member (30), LU
            // past the warp width (40), a lone order-2 block, plus a
            // ragged tail; forced Gauss-Huard takes every order ≤ 32
            let mut sizes = vec![3, 3, 3, 12, 24, 24, 24, 30, 40, 1, 7, 2];
            sizes.extend(testgen::ragged_sizes(rng, 33, 4));
            let raw = testgen::dd_batch_of(rng, &sizes);
            let mut batch = MatrixBatch::zeros(&sizes);
            for i in 0..batch.len() {
                batch.block_mut(i).copy_from_slice(&raw.blocks[i]);
            }
            // block 5 (order 24): a zero row — an exactly zero pivot for
            // every kernel family -> scalar-Jacobi fallback
            {
                let b = batch.block_mut(5);
                for c in 0..24 {
                    b[c * 24 + 1] = 0.0;
                }
            }
            // block 7 (order 30): rows scaled 12 decades apart
            {
                let b = batch.block_mut(7);
                for c in 0..30 {
                    b[c * 30] *= 1e6;
                    b[c * 30 + 29] *= 1e-6;
                }
            }
            // block 11 (order 2): factorizes, but the row scalings
            // 1e-150 take its second column (1e-180) below the smallest
            // subnormal — rank-deficient after scaling, so equilibration
            // gives up and the QR tier takes over
            batch
                .block_mut(11)
                .copy_from_slice(&[1e150, 1e150, 1e-180, 2e-180]);
            let backends: [&dyn Backend<f64>; 2] = [&CpuSequential, &CpuSimd];
            for backend in backends {
                for method in [
                    PlanMethod::Auto,
                    PlanMethod::GaussHuard,
                    PlanMethod::GjeInvert,
                    PlanMethod::Cholesky,
                ] {
                    for layout in [
                        BatchLayout::Blocked,
                        BatchLayout::Interleaved { class_capacity: 2 },
                    ] {
                        for precision in [
                            PrecisionPolicy::FullDp,
                            PrecisionPolicy::MixedPromote,
                            PrecisionPolicy::ForceSp,
                        ] {
                            for health in [HealthPolicy::Off, HealthPolicy::guarded::<f64>()] {
                                let plan = BatchPlan::for_method_with_layout::<f64>(
                                    &sizes, method, layout,
                                )
                                .with_health(health)
                                .with_precision(precision);
                                let mut stats = ExecStats::new();
                                let f = backend.factorize(batch.clone(), &plan, &mut stats);
                                assert!(f.fallback_count() >= 1);
                                for (i, &n) in sizes.iter().enumerate() {
                                    seen.insert(factor_kind(&f, i));
                                    for nrhs in [1usize, 5, 37] {
                                        let rhs: Vec<f64> = (0..n * nrhs)
                                            .map(|_| rng.gen_range(-2.0..2.0))
                                            .collect();
                                        let mut expect = rhs.clone();
                                        let mut scratch = vec![0.0; f.solve_scratch_elems(i)];
                                        for col in expect.chunks_exact_mut(n) {
                                            f.solve_block_inplace_with(i, col, &mut scratch);
                                        }
                                        let mut got = rhs;
                                        let mut scratch =
                                            vec![0.0; f.solve_multi_scratch_elems(i, nrhs)];
                                        f.solve_block_multi_inplace_with(i, &mut got, &mut scratch);
                                        let bits = |v: &[f64]| {
                                            v.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
                                        };
                                        assert_eq!(
                                            bits(&got),
                                            bits(&expect),
                                            "{} {method:?} {} {} {health:?} block {i} ({}) nrhs {nrhs}",
                                            backend.name(),
                                            layout.label(),
                                            precision.label(),
                                            factor_kind(&f, i),
                                        );
                                    }
                                }
                            }
                        }
                    }
                }
            }
        },
    );
    for kind in [
        "lu/native/bare",
        "lu/native/equilibrated",
        "lu/lower/refine_retained",
        "interleaved_lu/native/bare",
        "interleaved_lu/lower/refine_retained",
        "gh/native/bare",
        "gh/lower/refine_retained",
        "inv/native/bare",
        "chol/native/bare",
        "qr/native/bare",
        "scalar_jacobi/native/bare",
    ] {
        assert!(
            seen.contains(kind),
            "sweep never produced a {kind} factor: {seen:?}"
        );
    }
    assert_eq!(
        seen.len(),
        11,
        "a form the required set does not name: {seen:?}"
    );
}

/// `BlockTriangular::extract` scatters through the pattern's row→block
/// table and a per-row entry stamp; the oracle places every nonzero
/// with `BlockPartition::block_of` into a dense copy. Ragged partitions
/// with size-1 blocks, no forced diagonal (so some block rows have no
/// off-diagonal entries), both triangles.
#[test]
fn triangular_extract_matches_block_of_per_entry_oracle() {
    use vbatch_sparse::{BlockPartition, BlockPattern, CooMatrix, TriKind};
    run_cases(
        "triangular_extract_matches_block_of_per_entry_oracle",
        96,
        |rng, _case| {
            let (n, entries) = testgen::coo_entries(rng);
            let mut coo = CooMatrix::new(n, n);
            for &(i, j, v) in &entries {
                coo.push(i, j, v);
            }
            let a = coo.to_csr();
            let part = BlockPartition::from_ptr(testgen::ragged_partition_ptr(rng, n));
            let nb = part.len();
            let pattern = BlockPattern::build(&a, &part);
            for kind in [TriKind::Lower, TriKind::Upper] {
                let keep = |i: usize, j: usize| match kind {
                    TriKind::Lower => j < i,
                    TriKind::Upper => j > i,
                };
                // oracle: dense strict block triangle, one block_of per entry
                let mut dense = vec![0.0f64; n * n];
                let mut present = vec![false; nb * nb];
                for r in 0..n {
                    for (&c, &v) in a.row_cols(r).iter().zip(a.row_vals(r)) {
                        let (i, j) = (part.block_of(r), part.block_of(c));
                        if keep(i, j) {
                            dense[r * n + c] = v;
                            present[i * nb + j] = true;
                        }
                    }
                }
                let tri = BlockTriangular::extract(kind, &a, &part, &pattern);
                assert_eq!(tri.nnz_blocks(), present.iter().filter(|&&p| p).count());
                for i in 0..nb {
                    let cols: Vec<usize> = tri.row_entries(i).map(|e| tri.col_of(e)).collect();
                    let want: Vec<usize> = (0..nb).filter(|&j| present[i * nb + j]).collect();
                    assert_eq!(cols, want, "block row {i}: sorted, duplicate-free columns");
                    let m = part.size(i);
                    for e in tri.row_entries(i) {
                        let j = tri.col_of(e);
                        let block = tri.block_data(e);
                        assert_eq!(block.len(), m * part.size(j));
                        for (lc, c) in part.range(j).enumerate() {
                            for (lr, r) in part.range(i).enumerate() {
                                assert_eq!(
                                    block[lc * m + lr].to_bits(),
                                    dense[r * n + c].to_bits(),
                                    "({r},{c})"
                                );
                            }
                        }
                    }
                }
            }
        },
    );
}
