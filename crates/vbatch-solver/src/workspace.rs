//! Reusable iteration-vector workspace for the Krylov solvers.
//!
//! Every solver in this crate checks its iteration vectors (residual,
//! search directions, Krylov basis, shadow-space projections, the exit
//! residual) out of a [`KrylovWorkspace`] — one per call, or the
//! caller's through [`crate::idr_with_workspace`] — and,
//! crucially, *never* allocates inside the iteration loop: all
//! per-iteration temporaries are checked out once before the loop and
//! reused in place. Combined with the prepared preconditioner apply of
//! `vbatch-exec`, a warm block-Jacobi + IDR(4) iteration performs zero
//! heap allocations (proven by the counting-allocator test in
//! `tests/zero_alloc.rs`).
//!
//! The workspace is a free-list of buffers: [`KrylovWorkspace::take`]
//! returns a zero-filled vector of the requested length, reusing a
//! recycled buffer when one with sufficient capacity exists. Reuse is
//! numerically invisible — a recycled buffer is re-zeroed on checkout,
//! so solves through a shared workspace are bitwise identical to
//! solves through fresh allocations (locked down by the root
//! `tests/krylov_contract.rs`: an `IdrSolver`'s second solve equals its
//! first and the one-shot [`crate::idr()`]).

use vbatch_core::Scalar;

/// A free-list pool of iteration vectors for repeated Krylov solves.
#[derive(Debug, Default)]
pub struct KrylovWorkspace<T> {
    free: Vec<Vec<T>>,
    outstanding: usize,
    high_water: usize,
}

impl<T: Scalar> KrylovWorkspace<T> {
    /// Empty workspace; buffers are created on first checkout.
    pub fn new() -> Self {
        KrylovWorkspace {
            free: Vec::new(),
            outstanding: 0,
            high_water: 0,
        }
    }

    /// Workspace pre-seeded for IDR(s) on an order-`n` system: the
    /// shadow space, the `G`/`U` direction blocks, the iteration
    /// temporaries, and the two cycle-local small vectors.
    pub fn for_idr(n: usize, s: usize) -> Self {
        let mut ws = Self::new();
        // x, r, v, uk, gk, t + smoother pair + p, g, u blocks
        ws.seed(n, 8 + 3 * s);
        // f and c cycle vectors + the flat s*s projection matrix
        ws.seed(s, 2);
        ws.seed(s * s, 1);
        ws
    }

    fn seed(&mut self, len: usize, count: usize) {
        // Workspace construction is also when the Krylov hot loop's
        // trace ring is pre-sized, so iteration spans never allocate
        // once the loop is running.
        vbatch_rt::trace::reserve_thread_ring(0);
        for _ in 0..count {
            self.free.push(vec![T::ZERO; len]);
        }
    }

    /// Check out a zero-filled buffer of exactly `len` elements,
    /// reusing a recycled buffer when one with enough capacity exists
    /// (allocation happens only during warm-up).
    pub fn take(&mut self, len: usize) -> Vec<T> {
        self.outstanding += 1;
        if self.outstanding > self.high_water {
            self.high_water = self.outstanding;
        }
        let pos = self.free.iter().position(|b| b.capacity() >= len);
        let mut buf = match pos {
            Some(i) => self.free.swap_remove(i),
            None => match self.free.pop() {
                Some(b) => b, // will grow below; keeps the pool bounded
                None => Vec::with_capacity(len),
            },
        };
        buf.clear();
        buf.resize(len, T::ZERO);
        buf
    }

    /// Return a buffer to the pool for later reuse.
    pub fn recycle(&mut self, buf: Vec<T>) {
        self.outstanding = self.outstanding.saturating_sub(1);
        self.free.push(buf);
    }

    /// Return a block of buffers (e.g. a Krylov basis) to the pool.
    pub fn recycle_all<I: IntoIterator<Item = Vec<T>>>(&mut self, bufs: I) {
        for b in bufs {
            self.recycle(b);
        }
    }

    /// Most buffers ever checked out simultaneously.
    pub fn high_water(&self) -> usize {
        self.high_water
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_is_zero_filled_even_after_dirty_recycle() {
        let mut ws: KrylovWorkspace<f64> = KrylovWorkspace::new();
        let mut v = ws.take(5);
        v.fill(3.5);
        ws.recycle(v);
        let v2 = ws.take(5);
        assert!(v2.iter().all(|&x| x == 0.0));
        assert_eq!(v2.len(), 5);
    }

    #[test]
    fn recycled_capacity_is_reused() {
        let mut ws: KrylovWorkspace<f64> = KrylovWorkspace::new();
        let v = ws.take(16);
        let p = v.as_ptr();
        ws.recycle(v);
        let v2 = ws.take(8); // smaller fits in the same buffer
        assert_eq!(v2.as_ptr(), p);
        ws.recycle(v2);
        assert_eq!(ws.free.len(), 1);
    }

    #[test]
    fn preseeded_idr_workspace_covers_checkouts() {
        let (n, s) = (50, 4);
        let mut ws: KrylovWorkspace<f64> = KrylovWorkspace::for_idr(n, s);
        let before = ws.free.len();
        assert!(before >= 8 + 3 * s + 3);
        let a = ws.take(n);
        let b = ws.take(s);
        let c = ws.take(s * s);
        assert_eq!(ws.high_water(), 3);
        ws.recycle_all([a, b, c]);
        assert_eq!(ws.free.len(), before);
    }
}
