//! The class-wide kernels of the interleaved (SoA) layout: one system
//! per vector lane.
//!
//! Implicit-pivot GETRF and permuted eager TRSV over a size class
//! stored as in [`crate::interleaved`]. The slots are taken in `W`-wide
//! [`vbatch_rt::simd::Chunk`] groups, and each group runs through the
//! *entire* factorization before the next one starts:
//!
//! ```text
//! slots 0..4: steps 0 1 ... n-1   <- chunk (W = 4)
//! slots 4..8: steps 0 1 ... n-1   <- chunk
//! ... remainder slots at W = 1
//! ```
//!
//! * **The masked kernel is the oracle.** Slots never interact, every
//!   lane op is the exact scalar IEEE op (true divide, single-rounding
//!   `mul_add`, compare-and-blend selects), and per slot the operation
//!   sequence is that of the masked formulation
//!   ([`crate::lu::implicit::getrf_implicit_resume_scratch`] from step
//!   0 behind the finite pre-scan) and of the eager
//!   [`crate::LuView::solve_inplace`]. So a slot's factors, pivot
//!   sequence, [`FactorError`] and solution are bitwise those of the
//!   per-block kernels on the same block, at *every* width including
//!   the W = 1 remainder path. The suites compare against the masked
//!   form rather than [`crate::lu::implicit::getrf_implicit_inplace`]
//!   because that kernel runs the same in-order sweep as this one
//!   while the diagonal wins, so it would share any fault of the
//!   sweep's. The one difference is what a failed
//!   slot leaves behind: the per-block kernel returns `Err` with the
//!   block half-eliminated, the class kernel reports the same error in
//!   its per-slot map and sanitizes the slot to identity factors and an
//!   identity pivot lane, so class-wide sweeps stay finite no-ops there
//!   and the slot's lane mates are untouched.
//! * **One wide formulation.** The GETRF is wide only while every lane
//!   of a group elects the diagonal row, which is what the batches this
//!   layout is planned for do (diagonally dominant blocks never leave
//!   it). A group that stops — a lane prefers another row, a pivot is
//!   zero or non-finite, the input held a NaN — is finished slot by
//!   slot by the per-block kernel itself, from the step it stopped at
//!   (the per-block kernel sweeps the same way at one lane and leaves
//!   at its own first off-diagonal step; both resume in the one masked
//!   formulation).
//! * **Locality.** One chunk's working set is `(n+1)*n*W` elements:
//!   17 KiB at n = 16, W = 8, f64, so the whole elimination runs out of
//!   L1 there; 66 KiB at n = 32, past a 48 KiB L1d, where it runs out
//!   of L2.
#![deny(clippy::disallowed_methods, clippy::disallowed_macros)]

use crate::error::FactorError;
use crate::lu::implicit::{getrf_implicit_inplace_scratch, getrf_implicit_resume_scratch};
use crate::scalar::Scalar;
use vbatch_rt::simd::{lane_width, Chunk, MAX_LANE_WIDTH};

/// Widths the dispatcher instantiates; 1 is the scalar remainder path.
pub const SUPPORTED_WIDTHS: [usize; 4] = [1, 2, 4, 8];

#[inline]
fn assert_width(width: usize) {
    assert!(
        SUPPORTED_WIDTHS.contains(&width),
        "unsupported lane width {width} (supported: {SUPPORTED_WIDTHS:?})"
    );
}

/// The lane GETRF's working storage, owned by the caller so one set
/// serves every class a thread factorizes: the packed chunk workspace
/// (`(n+1)·n·W` elements — 66 KiB at n = 32, W = 8, f64), one block and
/// the per-block kernel's two scratch vectors for the slots of a group
/// that leaves the wide sweep, and the per-slot error map. It grows to
/// the largest class asked of it; a lane group initialises what it
/// reads, so nothing carries over from one class to the next.
#[derive(Debug)]
pub struct LaneGetrfScratch<T> {
    ws: Vec<T>,
    blk: Vec<T>,
    step_of_row: Vec<usize>,
    col: Vec<T>,
    failed: Vec<Option<FactorError>>,
}

impl<T: Scalar> LaneGetrfScratch<T> {
    /// Empty scratch; the first class sizes it.
    // setup-time: the factorization side may allocate
    #[allow(clippy::disallowed_methods)]
    pub fn new() -> Self {
        LaneGetrfScratch {
            ws: Vec::new(),
            blk: Vec::new(),
            step_of_row: Vec::new(),
            col: Vec::new(),
            failed: Vec::new(),
        }
    }

    /// Make room for a class of `count` slots of order `n` at width `w`
    /// and clear the error map.
    fn reserve(&mut self, n: usize, w: usize, count: usize) {
        fn grow<X: Copy>(v: &mut Vec<X>, len: usize, fill: X) {
            if v.len() < len {
                v.resize(len, fill);
            }
        }
        grow(&mut self.ws, (n + 1) * n * w, T::ZERO);
        grow(&mut self.blk, n * n, T::ZERO);
        grow(&mut self.step_of_row, n, 0);
        grow(&mut self.col, n, T::ZERO);
        self.failed.clear();
        self.failed.resize(count, None);
    }
}

impl<T: Scalar> Default for LaneGetrfScratch<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// [`getrf_interleaved_class_simd_width`] at the host-selected lane
/// width (see [`vbatch_rt::simd::lane_width`]).
pub fn getrf_interleaved_class_simd<T: Scalar>(
    n: usize,
    count: usize,
    data: &mut [T],
    row_of_step: &mut [usize],
) -> Vec<Option<FactorError>> {
    getrf_interleaved_class_simd_width(lane_width(T::BYTES), n, count, data, row_of_step)
}

/// [`getrf_interleaved_class_simd`] with caller-owned scratch: the same
/// kernel at the host-selected lane width, allocating nothing once
/// `scratch` has seen a class this large. The error map is borrowed
/// from `scratch`.
pub fn getrf_interleaved_class_simd_scratch<'s, T: Scalar>(
    n: usize,
    count: usize,
    data: &mut [T],
    row_of_step: &mut [usize],
    scratch: &'s mut LaneGetrfScratch<T>,
) -> &'s [Option<FactorError>] {
    getrf_class(lane_width(T::BYTES), n, count, data, row_of_step, scratch)
}

/// Lane-wide implicit-pivot GETRF over an interleaved class at an
/// explicit lane width (1, 2, 4 or 8) — the entry point through which
/// the suites run every width of [`SUPPORTED_WIDTHS`] on any host.
///
/// * `data` — interleaved class values (`n*n*count`), overwritten with
///   the combined `L\U` factors *in pivot order* per slot;
/// * `row_of_step` — `n*count` pivot lanes, filled with
///   `row_of_step[k*count + slot]` = original row chosen at step `k`.
///
/// Contract: per slot, at every width, `data` and `row_of_step` are
/// bitwise what [`crate::lu::implicit::getrf_implicit_inplace`] leaves
/// for that block. Never aborts on a bad slot: where the per-block
/// kernel returns `Err(e)` the returned vector holds `Some(e)` at the
/// slot, whose factors are sanitized to the identity and whose pivot
/// lane to the identity permutation. Slots beyond the last full
/// `width`-chunk run through the same code at W = 1 (the remainder
/// path).
// Setup-time path: scratch allocation is fine here (the zero-alloc
// contract covers the solve below, not factorization).
#[allow(clippy::disallowed_methods)]
pub fn getrf_interleaved_class_simd_width<T: Scalar>(
    width: usize,
    n: usize,
    count: usize,
    data: &mut [T],
    row_of_step: &mut [usize],
) -> Vec<Option<FactorError>> {
    let mut scratch = LaneGetrfScratch::new();
    getrf_class(width, n, count, data, row_of_step, &mut scratch).to_vec()
}

/// The class sweep behind the three entry points above.
fn getrf_class<'s, T: Scalar>(
    width: usize,
    n: usize,
    count: usize,
    data: &mut [T],
    row_of_step: &mut [usize],
    scratch: &'s mut LaneGetrfScratch<T>,
) -> &'s [Option<FactorError>] {
    assert_width(width);
    assert_eq!(data.len(), n * n * count);
    assert_eq!(row_of_step.len(), n * count);
    let w = width.min(MAX_LANE_WIDTH);
    scratch.reserve(n, w, count);

    let full = count / w * w;
    let mut s0 = 0;
    macro_rules! run_full {
        ($w:literal) => {
            while s0 < full {
                getrf_chunk::<T, $w>(n, count, s0, data, row_of_step, scratch);
                s0 += $w;
            }
        };
    }
    match w {
        8 => run_full!(8),
        4 => run_full!(4),
        2 => run_full!(2),
        _ => {}
    }
    // scalar remainder path (the whole class when width == 1)
    while s0 < count {
        getrf_chunk::<T, 1>(n, count, s0, data, row_of_step, scratch);
        s0 += 1;
    }
    &scratch.failed
}

/// Factorize the `W` slots `[s0, s0+W)` of the class in place.
///
/// While every lane elects the diagonal row, a step is one wide compare
/// down column `k` and SCAL/GER over the rows below it — per lane the
/// per-block kernel's own operations, since nothing has to move. The
/// first step that is anything else ends the wide sweep for the group:
/// each lane is gathered into one block, finished by the per-block
/// kernel from that step ([`getrf_implicit_resume_scratch`]) and
/// scattered back, so its factors, pivots and [`FactorError`] are that
/// kernel's by construction; a lane that fails there is reported in
/// `failed` and sanitized, and its mates, finished the same way, never
/// see it.
///
/// The elimination runs on `ws`, a packed contiguous copy of the chunk
/// (`n*n*W` elements): in the class slab the chunk's lane groups sit
/// `count` elements apart, and for large batches that stride folds the
/// whole working set onto a few L1 cache sets — every GER re-sweep then
/// thrashes. The packed copy is dense (17 KiB at n = 16, W = 8, f64:
/// L1-resident; 66 KiB at n = 32: L2) and unit-stride for the inner
/// loops; pack and unpack are element-exact copies, so the slab bits
/// are identical to factorizing in place.
fn getrf_chunk<T: Scalar, const W: usize>(
    n: usize,
    count: usize,
    s0: usize,
    data: &mut [T],
    row_of_step: &mut [usize],
    scratch: &mut LaneGetrfScratch<T>,
) {
    // columns are padded by one extra lane group: at n = 16, W = 8, f64
    // an unpadded column stride is exactly 1 KiB, so updated columns
    // alias the multiplier column mod 4 KiB and every GER load falsely
    // depends on the preceding store (4K aliasing); the pad breaks the
    // power-of-two stride
    let npad = n + 1;
    let ws = &mut scratch.ws[..npad * n * W];
    let blk = &mut scratch.blk[..n * n];
    let step_of_row = &mut scratch.step_of_row[..n];
    let col = &mut scratch.col[..n];
    let failed = &mut scratch.failed[s0..s0 + W];

    // --- pack the chunk into the contiguous workspace -------------------
    // while packing, early-touch the NEXT chunk's lane group for each
    // element position: the slab stride between positions is
    // `count * 8` bytes (tens of KiB), one cache line per position, a
    // pattern the hardware prefetcher cannot track. Touching the next
    // group now lets its DRAM misses overlap with this chunk's whole
    // factorization instead of stalling the next pack. black_box keeps
    // the optimizer from deleting the load; the value is never used.
    let touch_next = s0 + W < count;
    // the finite pre-scan rides the pack loads: x - x is +0.0 for every
    // finite x and NaN for Inf/NaN, and NaN poisons the running sum. A
    // group that flags is handed to the per-block kernel whole, whose
    // own `check_finite` names the entry, so the probe's accumulation
    // order does not matter.
    let mut probe = Chunk::<T, W>::zero();
    for j in 0..n {
        for i in 0..n {
            let base = (j * n + i) * count + s0;
            let wbase = (j * npad + i) * W;
            let v = Chunk::<T, W>::load(&data[base..base + W]);
            v.store(&mut ws[wbase..wbase + W]);
            probe = probe.add(v.sub(v));
            if touch_next {
                std::hint::black_box(data[base + W]);
            }
        }
    }

    // --- the wide sweep: steps 0..done, every pivot on the diagonal -----
    let steps = if probe.ne_zero().any() { 0 } else { n };
    let mut done = 0;
    while done < steps {
        let k = done;
        // The scalar rule adopts the first unpivoted row (here the
        // diagonal one) unconditionally and lets a later row win only
        // on a strict IEEE `>`, false on NaN: the diagonal is elected
        // exactly when the running maximum never moves off it. `x - x`
        // is nonzero (NaN) exactly for non-finite x, so the second
        // check also catches an infinite or NaN maximum.
        let rows = &ws[(k * npad + k) * W..(k * npad + n) * W];
        let dv = Chunk::<T, W>::load(&rows[..W]);
        let diag = dv.abs();
        let mut best = diag;
        for c in rows[W..].chunks_exact(W) {
            let av = Chunk::<T, W>::load(c).abs();
            best = Chunk::select(av.gt(best), av, best);
        }
        if best.sub(diag).ne_zero().any() || diag.eq_zero().any() {
            break;
        }

        // SCAL: the unpivoted rows are the contiguous tail k+1..n, so
        // both sweeps run over plain subslices
        for c in ws[(k * npad + k + 1) * W..(k * npad + n) * W].chunks_exact_mut(W) {
            Chunk::<T, W>::load(c).div(dv).store(c);
        }
        // GER. Split the slab after column k: the multiplier rows
        // k+1..n of column k end the low half, the updated columns
        // k+1..n are the high half
        let (lo, hi) = ws.split_at_mut((k + 1) * npad * W);
        let mults = &lo[(k * npad + k + 1) * W..(k * npad + n) * W];
        for colj in hi.chunks_exact_mut(npad * W) {
            let pvv = Chunk::<T, W>::load(&colj[k * W..k * W + W]);
            let pz = pvv.eq_zero();
            let upd = &mut colj[(k + 1) * W..n * W];
            if !pz.any() {
                for (m, u) in mults.chunks_exact(W).zip(upd.chunks_exact_mut(W)) {
                    let mult = Chunk::<T, W>::load(m);
                    let old = Chunk::<T, W>::load(u);
                    mult.neg().mul_add(pvv, old).store(u);
                }
            } else {
                // a lane's pivot value is exactly 0: that lane must
                // keep its old bits (the scalar zero-column skip —
                // 0*mult+old is NOT bit-exact for -0.0/Inf lanes)
                for (m, u) in mults.chunks_exact(W).zip(upd.chunks_exact_mut(W)) {
                    let mult = Chunk::<T, W>::load(m);
                    let old = Chunk::<T, W>::load(u);
                    let new = mult.neg().mul_add(pvv, old);
                    Chunk::select(pz, old, new).store(u);
                }
            }
        }
        done += 1;
    }

    // --- pivot lanes: the identity, unless a lane below says otherwise --
    for k in 0..n {
        row_of_step[k * count + s0..k * count + s0 + W].fill(k);
    }

    // --- a group that left the sweep finishes in the per-block kernel ---
    if done < n {
        for w in 0..W {
            for j in 0..n {
                for i in 0..n {
                    blk[j * n + i] = ws[(j * npad + i) * W + w];
                }
            }
            // from step 0 the checking form runs, so a non-finite entry
            // is reported as the per-block kernel reports it
            let finished = if done == 0 {
                getrf_implicit_inplace_scratch(n, blk, step_of_row, col)
            } else {
                getrf_implicit_resume_scratch(n, blk, done, step_of_row, col)
            };
            match finished {
                Ok(()) => {
                    for (r, &k) in step_of_row.iter().enumerate() {
                        row_of_step[k * count + s0 + w] = r;
                    }
                }
                Err(e) => {
                    failed[w] = Some(e);
                    for (at, v) in blk.iter_mut().enumerate() {
                        *v = if at % (n + 1) == 0 { T::ONE } else { T::ZERO };
                    }
                }
            }
            for j in 0..n {
                for i in 0..n {
                    ws[(j * npad + i) * W + w] = blk[j * n + i];
                }
            }
        }
    }

    // --- unpack the workspace back into the class slab -----------------
    for j in 0..n {
        for i in 0..n {
            let base = (j * n + i) * count + s0;
            let wbase = (j * npad + i) * W;
            data[base..base + W].copy_from_slice(&ws[wbase..wbase + W]);
        }
    }
}

/// [`lu_solve_interleaved_class_scratch_simd_width`] at the
/// host-selected lane width.
pub fn lu_solve_interleaved_class_scratch_simd<T: Scalar>(
    n: usize,
    count: usize,
    data: &[T],
    row_of_step: &[usize],
    x: &mut [T],
    scratch: &mut [T],
) {
    lu_solve_interleaved_class_scratch_simd_width(
        lane_width(T::BYTES),
        n,
        count,
        data,
        row_of_step,
        x,
        scratch,
    );
}

/// Lane-wide permuted eager TRSV over a factorized interleaved class at
/// an explicit width (every width of [`SUPPORTED_WIDTHS`] is tested
/// through it), with caller-provided scratch
/// (`scratch.len() >= n * count`) so the warm apply stays allocation
/// free, in place on right-hand-side lanes `x[i*count + slot]`.
///
/// Per slot this performs exactly the eager
/// [`crate::LuView::solve_inplace`] — permute `b := P b`, unit-lower
/// sweep, upper sweep — so the solution bits are those of the blocked
/// solve.
pub fn lu_solve_interleaved_class_scratch_simd_width<T: Scalar>(
    width: usize,
    n: usize,
    count: usize,
    data: &[T],
    row_of_step: &[usize],
    x: &mut [T],
    scratch: &mut [T],
) {
    assert_width(width);
    assert_eq!(data.len(), n * n * count);
    assert_eq!(row_of_step.len(), n * count);
    assert_eq!(x.len(), n * count);
    assert!(scratch.len() >= n * count);
    if count == 0 {
        return;
    }
    let w = width.min(MAX_LANE_WIDTH);
    let full = count / w * w;
    let mut s0 = 0;
    macro_rules! run_full {
        ($w:literal) => {
            while s0 < full {
                solve_chunk::<T, $w>(n, count, s0, data, row_of_step, x, &mut scratch[..n * $w]);
                s0 += $w;
            }
        };
    }
    match w {
        8 => run_full!(8),
        4 => run_full!(4),
        2 => run_full!(2),
        _ => {}
    }
    while s0 < count {
        solve_chunk::<T, 1>(n, count, s0, data, row_of_step, x, &mut scratch[..n]);
        s0 += 1;
    }
}

/// Permute + two eager triangular sweeps for the `W` slots `[s0, s0+W)`.
fn solve_chunk<T: Scalar, const W: usize>(
    n: usize,
    count: usize,
    s0: usize,
    data: &[T],
    row_of_step: &[usize],
    x: &mut [T],
    perm: &mut [T],
) {
    debug_assert_eq!(perm.len(), n * W);
    // b := P b (gather through the pivot lanes, then write back)
    for k in 0..n {
        for w in 0..W {
            perm[k * W + w] = x[row_of_step[k * count + s0 + w] * count + s0 + w];
        }
    }
    for k in 0..n {
        let base = k * count + s0;
        x[base..base + W].copy_from_slice(&perm[k * W..k * W + W]);
    }

    // unit-lower eager sweep: b(k+1..n) -= L(k+1..n, k) * b(k)
    for k in 0..n.saturating_sub(1) {
        let bk = {
            let base = k * count + s0;
            Chunk::<T, W>::load(&x[base..base + W])
        };
        for i in k + 1..n {
            let lbase = (k * n + i) * count + s0;
            let l = Chunk::<T, W>::load(&data[lbase..lbase + W]);
            let base = i * count + s0;
            let xi = Chunk::<T, W>::load(&x[base..base + W]);
            l.neg().mul_add(bk, xi).store(&mut x[base..base + W]);
        }
    }

    // upper eager sweep: b(k) /= U(k,k); b(0..k) -= U(0..k, k) * b(k)
    for k in (0..n).rev() {
        let dbase = (k * n + k) * count + s0;
        let diag = Chunk::<T, W>::load(&data[dbase..dbase + W]);
        let base = k * count + s0;
        let bk = Chunk::<T, W>::load(&x[base..base + W]).div(diag);
        bk.store(&mut x[base..base + W]);
        for i in 0..k {
            let ubase = (k * n + i) * count + s0;
            let u = Chunk::<T, W>::load(&data[ubase..ubase + W]);
            let xb = i * count + s0;
            let xi = Chunk::<T, W>::load(&x[xb..xb + W]);
            u.neg().mul_add(bk, xi).store(&mut x[xb..xb + W]);
        }
    }
}

#[cfg(test)]
// test scaffolding allocates freely; the tripwire guards the kernels
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
pub(crate) mod tests {
    use super::*;
    use crate::error::check_finite;
    use crate::trsv::LuView;

    /// The masked per-block formulation from step 0 behind the finite
    /// pre-scan — the oracle both in-order sweeps (this kernel's and the
    /// per-block kernel's) are held against: the row-of-step pivot
    /// sequence, or the error.
    fn masked_getrf<T: Scalar>(n: usize, blk: &mut [T]) -> Result<Vec<usize>, FactorError> {
        let (mut steps, mut col) = (vec![0usize; n], vec![T::ZERO; n]);
        check_finite(n, blk)?;
        getrf_implicit_resume_scratch(n, blk, 0, &mut steps, &mut col)?;
        let mut rows = vec![0usize; n];
        for (r, &k) in steps.iter().enumerate() {
            rows[k] = r;
        }
        Ok(rows)
    }

    /// Deterministic class data `data[(j*n+i)*count + s]`: entries in
    /// `[-0.5, 0.5)`, diagonal shifted by `shift` — `n + 2` keeps every
    /// pivot on the diagonal (the group never leaves the wide sweep),
    /// `0` leaves each slot its own pivot order (it leaves at step 0).
    /// With `staggered`, slot `s` keeps the shift on its first
    /// `1 + s % (n - 1)` diagonal entries only: those columns stay
    /// dominant through the elimination, so a group leaves *mid-sweep*,
    /// at the smallest count among its lanes, with every lane resuming
    /// ahead of where its own block would have left.
    fn class_data<T: Scalar>(
        n: usize,
        count: usize,
        seed: u64,
        shift: f64,
        staggered: bool,
    ) -> Vec<T> {
        let mut data = vec![T::ZERO; n * n * count];
        for s in 0..count {
            let lead = if staggered { 1 + s % (n - 1).max(1) } else { n };
            for j in 0..n {
                for i in 0..n {
                    let h = (i as u64 * 131 + j as u64 * 37 + s as u64 * 17 + seed)
                        .wrapping_mul(0x9e37_79b9)
                        % 1024;
                    let on_lead = i == j && j < lead;
                    let v = h as f64 / 1024.0 - 0.5 + if on_lead { shift } else { 0.0 };
                    data[(j * n + i) * count + s] = T::from_f64(v);
                }
            }
        }
        data
    }

    /// Factorize and solve the class at `width` and hold every slot
    /// against the masked per-block kernel ([`masked_getrf`]) and the
    /// per-block solve on the same block: factors, pivot
    /// sequence and solution bitwise where the block factorizes; the
    /// same `FactorError`, identity factors, an identity pivot lane and
    /// an untouched right-hand side where it does not. Returns the
    /// error map.
    pub(crate) fn assert_class_matches_per_block<T: Scalar>(
        width: usize,
        n: usize,
        count: usize,
        base: &[T],
    ) -> Vec<Option<FactorError>> {
        let ctx = format!("n={n} count={count} w={width}");
        let x0: Vec<T> = (0..n * count)
            .map(|i| T::from_f64(1.0 + (i % 7) as f64 * 0.5))
            .collect();
        let mut d = base.to_vec();
        let mut piv = vec![0usize; n * count];
        let errs = getrf_interleaved_class_simd_width(width, n, count, &mut d, &mut piv);
        let mut x = x0.clone();
        let mut scratch = vec![T::ZERO; n * count];
        lu_solve_interleaved_class_scratch_simd_width(
            width,
            n,
            count,
            &d,
            &piv,
            &mut x,
            &mut scratch,
        );

        let bits = |v: T| v.to_f64().to_bits();
        for s in 0..count {
            let slot_of =
                |v: &[T], len: usize| -> Vec<T> { (0..len).map(|e| v[e * count + s]).collect() };
            let lane: Vec<usize> = (0..n).map(|k| piv[k * count + s]).collect();
            let mut blk = slot_of(base, n * n);
            let mut want_x = slot_of(&x0, n);
            match masked_getrf(n, &mut blk) {
                Ok(rows) => {
                    assert_eq!(errs[s], None, "slot {s} {ctx}");
                    assert_eq!(lane, rows, "slot {s} pivots {ctx}");
                    LuView::new(&blk, &rows).solve_inplace(&mut want_x, &mut scratch);
                }
                Err(e) => {
                    assert_eq!(errs[s], Some(e), "slot {s} {ctx}");
                    assert_eq!(lane, (0..n).collect::<Vec<_>>(), "slot {s} {ctx}");
                    for (e, v) in blk.iter_mut().enumerate() {
                        *v = if e % (n + 1) == 0 { T::ONE } else { T::ZERO };
                    }
                }
            }
            for (e, (a, b)) in slot_of(&d, n * n).into_iter().zip(blk).enumerate() {
                assert_eq!(bits(a), bits(b), "slot {s} factor elem {e} {ctx}");
            }
            for (i, (a, b)) in slot_of(&x, n).into_iter().zip(want_x).enumerate() {
                assert_eq!(bits(a), bits(b), "slot {s} solve row {i} {ctx}");
            }
        }
        errs
    }

    #[test]
    fn class_kernels_match_per_block_kernels_bitwise_at_every_width() {
        for (n, count) in [(1, 1), (4, 7), (8, 16), (16, 13), (6, 33)] {
            let dominant = n as f64 + 2.0;
            for (shift, staggered) in [(dominant, false), (0.0, false), (dominant, true)] {
                let f64s = class_data::<f64>(n, count, 3, shift, staggered);
                let f32s = class_data::<f32>(n, count, 7, shift, staggered);
                for width in SUPPORTED_WIDTHS {
                    assert_class_matches_per_block(width, n, count, &f64s);
                    assert_class_matches_per_block(width, n, count, &f32s);
                }
            }
        }
    }

    #[test]
    fn corrupt_slots_fail_like_the_blocked_kernel_and_mates_are_untouched() {
        let n = 6;
        let count = 19; // 2 full AVX-512 chunks + remainder 3
        let dominant = n as f64 + 2.0;
        for (shift, staggered) in [(dominant, false), (0.0, false), (dominant, true)] {
            let mut base = class_data::<f64>(n, count, 11, shift, staggered);
            // poison three slots inside the same prospective lane group
            // and one in the remainder: NaN, Inf, exact singularity
            // (zero column), NaN
            base[(2 * n + 3) * count + 4] = f64::NAN;
            base[(5 * n + 1) * count + 5] = f64::INFINITY;
            for i in 0..n {
                base[(3 * n + i) * count + 6] = 0.0;
            }
            base[count - 1] = f64::NAN;
            for width in SUPPORTED_WIDTHS {
                let errs = assert_class_matches_per_block(width, n, count, &base);
                assert_eq!(errs[4], Some(FactorError::NonFinite { row: 3, col: 2 }));
                assert_eq!(errs[5], Some(FactorError::NonFinite { row: 1, col: 5 }));
                assert!(matches!(errs[6], Some(FactorError::SingularPivot { .. })));
                assert_eq!(errs[18], Some(FactorError::NonFinite { row: 0, col: 0 }));
                assert_eq!(errs.iter().filter(|e| e.is_some()).count(), 4);
            }
        }
    }
}
