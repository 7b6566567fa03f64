//! The class-wide kernels of the interleaved (SoA) layout: one system
//! per vector lane.
//!
//! Branchless implicit-pivot GETRF and permuted eager TRSV over a size
//! class stored as in [`crate::interleaved`]. The slots are taken in
//! `W`-wide [`vbatch_rt::simd::Chunk`] groups, and each group runs
//! through the *entire* factorization before the next one starts:
//!
//! ```text
//! slots 0..4: steps 0 1 ... n-1   <- chunk (W = 4)
//! slots 4..8: steps 0 1 ... n-1   <- chunk
//! ... remainder slots at W = 1
//! ```
//!
//! * **The blocked kernel is the oracle.** Slots never interact, every
//!   lane op is the exact scalar IEEE op (true divide, single-rounding
//!   `mul_add`, compare-and-blend selects), and per slot the operation
//!   sequence is that of [`crate::lu::implicit::getrf_implicit_inplace`]
//!   and of [`crate::trsv::lu_solve_inplace_scratch`] with
//!   [`crate::trsv::TrsvVariant::Eager`]. So a slot's factors, pivot
//!   sequence, [`FactorError`] and solution are bitwise those of the
//!   per-block kernels on the same block, at *every* width including
//!   the W = 1 remainder path. The one difference is what a failed
//!   slot leaves behind: the per-block kernel returns `Err` with the
//!   block half-eliminated, the class kernel reports the same error in
//!   its per-slot map and sanitizes the slot to identity factors and an
//!   identity pivot lane, so class-wide sweeps stay finite no-ops there
//!   and the slot's lane mates are untouched.
//! * **Locality.** One chunk's working set is `(n+1)*n*W` elements:
//!   17 KiB at n = 16, W = 8, f64, so the whole elimination runs out of
//!   L1 there; 66 KiB at n = 32, past a 48 KiB L1d, where it runs out
//!   of L2.
//!
//! The row-pivoted flags are kept as `0.0`/`1.0` lanes of `T` beside
//! the `usize` step lanes, so the hot selects compile to vector
//! compare+blend instead of scalar control flow.
#![deny(clippy::disallowed_methods, clippy::disallowed_macros)]

use crate::error::FactorError;
use crate::scalar::Scalar;
use vbatch_rt::simd::{lane_width, Chunk, MAX_LANE_WIDTH};

const UNPIVOTED: usize = usize::MAX;

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
/// (`(n+1)·n·W` elements — 66 KiB at n = 32, W = 8, f64), the step
/// lanes, the pivoted flags (as `T` so selects vectorize), the row-swap
/// column buffer, the shared unpivoted-row list driving the
/// uniform-pivot fast path, and the per-slot error map. It grows to the
/// largest class asked of it; a lane group initialises what it reads, so
/// nothing carries over from one class to the next.
#[derive(Debug)]
pub struct LaneGetrfScratch<T> {
    step: Vec<usize>,
    pflag: Vec<T>,
    colbuf: Vec<T>,
    unpiv: Vec<usize>,
    ws: Vec<T>,
    failed: Vec<Option<FactorError>>,
}

impl<T: Scalar> LaneGetrfScratch<T> {
    /// Empty scratch; the first class sizes it.
    // setup-time: the factorization side may allocate
    #[allow(clippy::disallowed_methods)]
    pub fn new() -> Self {
        LaneGetrfScratch {
            step: Vec::new(),
            pflag: Vec::new(),
            colbuf: Vec::new(),
            unpiv: Vec::new(),
            ws: Vec::new(),
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
        grow(&mut self.step, n * w, UNPIVOTED);
        grow(&mut self.pflag, n * w, T::ZERO);
        grow(&mut self.colbuf, n * w, T::ZERO);
        grow(&mut self.unpiv, n, 0);
        grow(&mut self.ws, (n + 1) * n * w, T::ZERO);
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
/// explicit lane width (1, 2, 4 or 8).
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
    // packed chunk workspace `ws`: the class slab strides lane groups
    // `count` elements apart, which degenerates to a handful of L1
    // sets for large batches; the elimination runs on a contiguous
    // n*n*W copy instead (pack/unpack is an element-exact copy, so
    // bitwise parity is unaffected)
    let LaneGetrfScratch {
        step,
        pflag,
        colbuf,
        unpiv,
        ws,
        failed,
    } = scratch;
    let unpiv = &mut unpiv[..n];

    let full = count / w * w;
    let mut s0 = 0;
    macro_rules! run_full {
        ($w:literal) => {
            while s0 < full {
                getrf_chunk::<T, $w>(
                    n,
                    count,
                    s0,
                    data,
                    row_of_step,
                    &mut step[..n * $w],
                    &mut pflag[..n * $w],
                    &mut colbuf[..n * $w],
                    unpiv,
                    &mut ws[..(n + 1) * n * $w],
                    &mut failed[s0..s0 + $w],
                );
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
        getrf_chunk::<T, 1>(
            n,
            count,
            s0,
            data,
            row_of_step,
            &mut step[..n],
            &mut pflag[..n],
            &mut colbuf[..n],
            unpiv,
            &mut ws[..(n + 1) * n],
            &mut failed[s0..s0 + 1],
        );
        s0 += 1;
    }
    failed
}

/// Factorize the `W` slots `[s0, s0+W)` of the class in place.
///
/// Per slot this performs exactly the blocked implicit kernel's
/// operation sequence (finite pre-scan, n steps of pivot-select / SCAL /
/// GER, combined row swap), then fills the pivot lanes and sanitizes
/// failed slots.
///
/// Two formulations of each step coexist, chosen at runtime:
///
/// * **uniform fast path** — while every live lane keeps electing the
///   *same* pivot row (always true for diagonally-dominant batches),
///   the chunk shares one unpivoted-row list: pivot selection is a
///   `W`-wide compare sweep, and SCAL/GER simply *skip* the pivoted
///   rows instead of computing-then-blending them. Skipping a row is
///   bit-identical to a blend that keeps its old value, so this is not
///   an approximation — it removes the ~1.5x wasted lane arithmetic
///   and the per-element flag loads of the blended form.
/// * **blended fallback** — on the first step where live lanes
///   disagree (or a lane has a non-diagonal pivot history), the chunk
///   permanently falls back to per-lane bookkeeping with
///   compare-and-blend selects, which handles any divergence.
///
/// Both forms execute the exact scalar IEEE op sequence per lane, so
/// factors/pivots/errors stay bitwise identical to the blocked kernel
/// whichever path runs. Lanes dead from a fault may see garbage
/// arithmetic in the fast path (the blended form freezes them with
/// `x/1` no-ops instead); their bits are rewritten by the final
/// identity sanitation either way, so outputs agree.
///
/// The elimination itself runs on `ws`, a packed contiguous copy of
/// the chunk (`n*n*W` elements): in the class slab the chunk's lane
/// groups sit `count` elements apart, and for large batches that
/// stride folds the whole working set onto a few L1 cache sets —
/// every GER re-sweep then thrashes. The packed copy is dense
/// (17 KiB at n = 16, W = 8, f64: L1-resident; 66 KiB at n = 32: L2)
/// and unit-stride for the inner loops; pack and unpack are
/// element-exact copies, so the slab bits are identical to factorizing
/// in place.
#[allow(clippy::too_many_arguments)]
fn getrf_chunk<T: Scalar, const W: usize>(
    n: usize,
    count: usize,
    s0: usize,
    data: &mut [T],
    row_of_step: &mut [usize],
    step: &mut [usize],
    pflag: &mut [T],
    colbuf: &mut [T],
    unpiv: &mut [usize],
    ws: &mut [T],
    failed: &mut [Option<FactorError>],
) {
    debug_assert_eq!(step.len(), n * W);
    debug_assert_eq!(pflag.len(), n * W);
    debug_assert_eq!(unpiv.len(), n);
    debug_assert_eq!(ws.len(), (n + 1) * n * W);
    debug_assert_eq!(failed.len(), W);
    step.fill(UNPIVOTED);
    pflag.fill(T::ZERO);
    let mut alive = [true; W];

    // --- pack the chunk into the contiguous workspace -------------------
    // columns are padded by one extra lane group: at n = 16, W = 8, f64
    // an unpadded column stride is exactly 1 KiB, so updated columns
    // alias the multiplier column mod 4 KiB and every GER load falsely
    // depends on the preceding store (4K aliasing); the pad breaks the
    // power-of-two stride
    let npad = n + 1;
    // while packing, early-touch the NEXT chunk's lane group for each
    // element position: the slab stride between positions is
    // `count * 8` bytes (tens of KiB), one cache line per position, a
    // pattern the hardware prefetcher cannot track. Touching the next
    // group now lets its DRAM misses overlap with this chunk's whole
    // factorization instead of stalling the next pack. black_box keeps
    // the dead load alive; the value itself is never used.
    let touch_next = s0 + W < count;
    // the finite pre-scan rides the pack loads: x - x is +0.0 for every
    // finite x and NaN for Inf/NaN, and NaN poisons the running sum;
    // the scalar per-element diagnosis (same column-major-first order
    // as the blocked kernel's `check_finite`) reruns only when a lane
    // actually flags, so the probe's own accumulation order does not
    // matter.
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
    if probe.ne_zero().any() {
        for col in 0..n {
            for row in 0..n {
                let lane = &ws[(col * npad + row) * W..(col * npad + row + 1) * W];
                for w in 0..W {
                    if alive[w] && !lane[w].is_finite() {
                        failed[w] = Some(FactorError::NonFinite { row, col });
                        alive[w] = false;
                    }
                }
            }
        }
    }

    // shared unpivoted-row list for the uniform fast path, ascending so
    // the W-wide sweep visits candidates in the scalar kernel's order
    for (r, u) in unpiv.iter_mut().enumerate() {
        *u = r;
    }
    let mut nun = n;
    let mut uniform = true;
    // true while every pivot so far was the diagonal row (rpiv == k);
    // then the unpivoted set is the contiguous tail k..n and the hot
    // loops can run over plain subslices with no index indirection
    let mut inorder = true;

    for k in 0..n {
        if !alive.contains(&true) {
            // every lane dead: each slot's blocked factorization has
            // already returned its error, and sanitation rewrites them
            break;
        }

        // --- implicit pivot selection per lane over unpivoted rows ----
        let mut ipiv = [UNPIVOTED; W];
        let mut best = [T::ZERO; W];
        let mut rpiv = UNPIVOTED; // the shared pivot row, if uniform
        if uniform {
            // Every live lane shares the same unpivoted set, so select
            // all W pivots with wide compares over the shared list.
            // This reproduces the scalar rule exactly: the first
            // unpivoted row is adopted unconditionally (even a NaN
            // |value|), later rows only win a strict IEEE `>` — and
            // `gt` is false on NaN, like the scalar compare.
            let mut bestv;
            let mut rowv;
            if inorder {
                // candidates are the contiguous rows k..n of column k
                let col = &ws[(k * npad + k) * W..(k * npad + n) * W];
                let mut it = col.chunks_exact(W);
                bestv = Chunk::<T, W>::load(it.next().unwrap()).abs();
                rowv = Chunk::<T, W>::splat(T::from_f64(k as f64));
                let onev = Chunk::<T, W>::splat(T::ONE);
                let mut rcand = rowv;
                for c in it {
                    rcand = rcand.add(onev);
                    let av = Chunk::<T, W>::load(c).abs();
                    let take = av.gt(bestv);
                    bestv = Chunk::select(take, av, bestv);
                    rowv = Chunk::select(take, rcand, rowv);
                }
            } else {
                let r0 = unpiv[0];
                let base0 = (k * npad + r0) * W;
                bestv = Chunk::<T, W>::load(&ws[base0..base0 + W]).abs();
                rowv = Chunk::<T, W>::splat(T::from_f64(r0 as f64));
                for &r in &unpiv[1..nun] {
                    let base = (k * npad + r) * W;
                    let av = Chunk::<T, W>::load(&ws[base..base + W]).abs();
                    let take = av.gt(bestv);
                    bestv = Chunk::select(take, av, bestv);
                    rowv = Chunk::select(take, Chunk::splat(T::from_f64(r as f64)), rowv);
                }
            }
            // happy path: one lane-0 extract plus three wide checks
            // replace the per-lane scalar unpacking of rowv/bestv. The
            // checks are exact: row indices are small exact integers so
            // sub/ne_zero detects any disagreement, and x - x is
            // nonzero (NaN) exactly for non-finite x. Any anomaly --
            // a dead lane, disagreeing pivots, a zero or non-finite
            // best -- falls through to the per-lane code below, which
            // is the authoritative scalar-order logic.
            let r0 = rowv.0[0].to_f64() as usize;
            let happy = alive == [true; W]
                && !rowv.sub(Chunk::splat(rowv.0[0])).ne_zero().any()
                && !bestv.eq_zero().any()
                && !bestv.sub(bestv).ne_zero().any();
            if happy {
                rpiv = r0;
                for w in 0..W {
                    ipiv[w] = r0;
                    step[r0 * W + w] = k;
                    pflag[r0 * W + w] = T::ONE;
                }
            } else {
                for w in 0..W {
                    if !alive[w] {
                        continue;
                    }
                    ipiv[w] = rowv.0[w].to_f64() as usize;
                    best[w] = bestv.0[w];
                    if rpiv == UNPIVOTED {
                        rpiv = ipiv[w];
                    } else if ipiv[w] != rpiv {
                        uniform = false; // lanes disagree: blended now on
                    }
                }
                for w in 0..W {
                    if !alive[w] {
                        continue;
                    }
                    if ipiv[w] == UNPIVOTED || best[w] == T::ZERO || !best[w].is_finite() {
                        failed[w] = Some(FactorError::SingularPivot { step: k });
                        alive[w] = false;
                    } else {
                        step[ipiv[w] * W + w] = k;
                        pflag[ipiv[w] * W + w] = T::ONE;
                    }
                }
            }
        } else {
            for r in 0..n {
                let base = (k * npad + r) * W;
                let lane = &ws[base..base + W];
                let steps = &step[r * W..r * W + W];
                for w in 0..W {
                    if !alive[w] || steps[w] != UNPIVOTED {
                        continue;
                    }
                    let av = lane[w].abs();
                    if ipiv[w] == UNPIVOTED || av > best[w] {
                        best[w] = av;
                        ipiv[w] = r;
                    }
                }
            }
            for w in 0..W {
                if !alive[w] {
                    continue;
                }
                if ipiv[w] == UNPIVOTED || best[w] == T::ZERO || !best[w].is_finite() {
                    failed[w] = Some(FactorError::SingularPivot { step: k });
                    alive[w] = false;
                } else {
                    step[ipiv[w] * W + w] = k;
                    pflag[ipiv[w] * W + w] = T::ONE;
                }
            }
        }

        if uniform {
            if inorder {
                // the list is implicitly the contiguous tail k..n; it
                // only needs materializing when the pivot first leaves
                // the diagonal
                if rpiv != k && rpiv != UNPIVOTED {
                    nun = 0;
                    for r in k..n {
                        if r != rpiv {
                            unpiv[nun] = r;
                            nun += 1;
                        }
                    }
                    inorder = false;
                }
            } else {
                // retire the shared pivot row (keeps the list ascending)
                if let Some(pos) = unpiv[..nun].iter().position(|&r| r == rpiv) {
                    unpiv.copy_within(pos + 1..nun, pos);
                    nun -= 1;
                }
            }
            if !alive.contains(&true) {
                continue;
            }

            if inorder {
                // --- SCAL/GER, in-order fast path ---------------------
                // the unpivoted rows are the contiguous tail k+1..n, so
                // both sweeps run over plain subslices: no row-index
                // indirection and bounds checks the optimizer can hoist
                let dbase = (k * npad + k) * W;
                let dv = Chunk::<T, W>::load(&ws[dbase..dbase + W]);
                for c in ws[(k * npad + k + 1) * W..(k * npad + n) * W].chunks_exact_mut(W) {
                    Chunk::<T, W>::load(c).div(dv).store(c);
                }

                // split the slab after column k: the multiplier rows
                // k+1..n of column k end the low half, the updated
                // columns k+1..n are the high half
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
                        // a lane's pivot value is exactly 0: that lane
                        // must keep its old bits (the scalar zero-column
                        // skip — 0*mult+old is NOT bit-exact for
                        // -0.0/Inf lanes)
                        for (m, u) in mults.chunks_exact(W).zip(upd.chunks_exact_mut(W)) {
                            let mult = Chunk::<T, W>::load(m);
                            let old = Chunk::<T, W>::load(u);
                            let new = mult.neg().mul_add(pvv, old);
                            Chunk::select(pz, old, new).store(u);
                        }
                    }
                }
                continue;
            }

            // --- SCAL, fast path: divide only the unpivoted rows ------
            // (skipping a pivoted row == the blend that keeps its old
            // bits; dead lanes divide by garbage instead of the blended
            // form's 1, and are rewritten by the final sanitation)
            let dbase = (k * npad + rpiv) * W;
            let dv = Chunk::<T, W>::load(&ws[dbase..dbase + W]);
            for &r in &unpiv[..nun] {
                let base = (k * npad + r) * W;
                let old = Chunk::<T, W>::load(&ws[base..base + W]);
                old.div(dv).store(&mut ws[base..base + W]);
            }

            // --- GER, fast path: update only the unpivoted rows -------
            for j in k + 1..n {
                let pbase = (j * npad + rpiv) * W;
                let pvv = Chunk::<T, W>::load(&ws[pbase..pbase + W]);
                let pz = pvv.eq_zero();
                if !pz.any() {
                    for &r in &unpiv[..nun] {
                        let mbase = (k * npad + r) * W;
                        let mult = Chunk::<T, W>::load(&ws[mbase..mbase + W]);
                        let base = (j * npad + r) * W;
                        let old = Chunk::<T, W>::load(&ws[base..base + W]);
                        mult.neg().mul_add(pvv, old).store(&mut ws[base..base + W]);
                    }
                } else {
                    // a lane's pivot value is exactly 0: that lane must
                    // keep its old bits (the scalar zero-column skip —
                    // 0*mult+old is NOT bit-exact for -0.0/Inf lanes)
                    for &r in &unpiv[..nun] {
                        let mbase = (k * npad + r) * W;
                        let mult = Chunk::<T, W>::load(&ws[mbase..mbase + W]);
                        let base = (j * npad + r) * W;
                        let old = Chunk::<T, W>::load(&ws[base..base + W]);
                        let new = mult.neg().mul_add(pvv, old);
                        Chunk::select(pz, old, new).store(&mut ws[base..base + W]);
                    }
                }
            }
            continue;
        }

        // --- SCAL, blended fallback: column k of the unpivoted rows ---
        // failed lanes keep d = 1 (x/1 is bit-exact); the select keeps
        // already-pivoted rows' old bits
        let mut d = [T::ONE; W];
        for w in 0..W {
            if alive[w] {
                d[w] = ws[(k * npad + ipiv[w]) * W + w];
            }
        }
        let dv = Chunk::<T, W>::from(d);
        for r in 0..n {
            let base = (k * npad + r) * W;
            let old = Chunk::<T, W>::load(&ws[base..base + W]);
            let scaled = old.div(dv);
            let pivoted = Chunk::<T, W>::load(&pflag[r * W..r * W + W]).ne_zero();
            Chunk::select(pivoted, old, scaled).store(&mut ws[base..base + W]);
        }

        // --- GER, blended fallback: trailing update -------------------
        for j in k + 1..n {
            let mut pv = [T::ZERO; W];
            for w in 0..W {
                if alive[w] {
                    pv[w] = ws[(j * npad + ipiv[w]) * W + w];
                }
            }
            let pvv = Chunk::<T, W>::from(pv);
            let pv_zero = pvv.eq_zero();
            for r in 0..n {
                let mult = {
                    let base = (k * npad + r) * W;
                    Chunk::<T, W>::load(&ws[base..base + W])
                };
                let base = (j * npad + r) * W;
                let old = Chunk::<T, W>::load(&ws[base..base + W]);
                let new = mult.neg().mul_add(pvv, old);
                let skip = pv_zero.or(Chunk::<T, W>::load(&pflag[r * W..r * W + W]).ne_zero());
                Chunk::select(skip, old, new).store(&mut ws[base..base + W]);
            }
        }
    }

    // --- combined row swap: row r moves to position step[r] per lane --
    // (skipped outright when every surviving lane carries the identity
    // permutation — the common diagonally-dominant case)
    let identity = (0..n).all(|r| (0..W).all(|w| failed[w].is_some() || step[r * W + w] == r));
    if !identity {
        for j in 0..n {
            let col = &mut ws[j * npad * W..(j * npad + n) * W];
            colbuf.copy_from_slice(col);
            for r in 0..n {
                for w in 0..W {
                    if failed[w].is_none() {
                        col[step[r * W + w] * W + w] = colbuf[r * W + w];
                    }
                }
            }
        }
    }

    // --- pivot lanes ---------------------------------------------------
    for k in 0..n {
        for w in 0..W {
            row_of_step[k * count + s0 + w] = k; // identity default
        }
    }
    for r in 0..n {
        for w in 0..W {
            if failed[w].is_none() {
                row_of_step[step[r * W + w] * count + s0 + w] = r;
            }
        }
    }

    // --- sanitize failed lanes to the identity -------------------------
    for w in 0..W {
        if failed[w].is_some() {
            for j in 0..n {
                for i in 0..n {
                    ws[(j * npad + i) * W + w] = if i == j { T::ONE } else { T::ZERO };
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
/// an explicit width, with caller-provided scratch
/// (`scratch.len() >= n * count`) so the warm apply stays allocation
/// free, in place on right-hand-side lanes `x[i*count + slot]`.
///
/// Per slot this performs exactly
/// [`crate::trsv::lu_solve_inplace_scratch`] with
/// [`crate::trsv::TrsvVariant::Eager`] — permute `b := P b`, unit-lower
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
    use crate::lu::implicit::getrf_implicit_inplace;
    use crate::trsv::{lu_solve_inplace_scratch, TrsvVariant};

    /// Deterministic class data `data[(j*n+i)*count + s]`: entries in
    /// `[-0.5, 0.5)`, diagonal shifted by `shift` — `n + 2` keeps every
    /// pivot on the diagonal (uniform fast path), `0` leaves each slot
    /// its own pivot order (blended fallback).
    fn class_data<T: Scalar>(n: usize, count: usize, seed: u64, shift: f64) -> Vec<T> {
        let mut data = vec![T::ZERO; n * n * count];
        for s in 0..count {
            for j in 0..n {
                for i in 0..n {
                    let h = (i as u64 * 131 + j as u64 * 37 + s as u64 * 17 + seed)
                        .wrapping_mul(0x9e37_79b9)
                        % 1024;
                    let v = h as f64 / 1024.0 - 0.5 + if i == j { shift } else { 0.0 };
                    data[(j * n + i) * count + s] = T::from_f64(v);
                }
            }
        }
        data
    }

    /// Factorize and solve the class at `width` and hold every slot
    /// against the per-block kernels on the same block: factors, pivot
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
            match getrf_implicit_inplace(n, &mut blk) {
                Ok(perm) => {
                    assert_eq!(errs[s], None, "slot {s} {ctx}");
                    assert_eq!(lane, perm.as_slice(), "slot {s} pivots {ctx}");
                    lu_solve_inplace_scratch(
                        TrsvVariant::Eager,
                        n,
                        &blk,
                        perm.as_slice(),
                        &mut want_x,
                        &mut scratch,
                    );
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
            for shift in [n as f64 + 2.0, 0.0] {
                let f64s = class_data::<f64>(n, count, 3, shift);
                let f32s = class_data::<f32>(n, count, 7, shift);
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
        for shift in [n as f64 + 2.0, 0.0] {
            let mut base = class_data::<f64>(n, count, 11, shift);
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
