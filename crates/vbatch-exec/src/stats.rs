//! Execution statistics threaded through every backend call.
//!
//! [`ExecStats`] keeps what a backend ran and measured: the kernel and
//! layout histograms, nominal flops, per-phase wall-clock, and the apply
//! count and workspace high-water mark. What
//! happened to each block — health, recovery chain, storage precision,
//! promotion, fallback — lives in its [`BlockStatus`] and nowhere else.
//!
//! The stats also *forward* to the global `vbatch_rt::trace` metrics
//! registry: `record_statuses` books every fact of a factorization's
//! statuses there as labeled counters, and [`ExecStats::add_phase`]
//! books phase durations as latency histograms. With the `trace`
//! feature off the forwarding calls are inert inline stubs.
//!
//! The histograms are filled at setup. What an *apply* touches — phase
//! times, apply count, workspace high-water mark, flops — is plain
//! fields and one array indexed by [`Phase`], so no apply can allocate
//! a map node. Per-level sweep counts and per-preconditioner apply
//! counts are not kept: both follow from `applies` and the holder's
//! `LevelSchedule`.

use crate::factors::BlockStatus;
use crate::plan::{ClassLayout, KernelChoice};
use std::collections::BTreeMap;
use std::time::Duration;

/// Phases a backend reports timings for.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Diagonal-block extraction from the sparse matrix.
    Extract,
    /// Batched factorization.
    Factorize,
    /// Batched triangular / replay solves.
    Solve,
    /// Batched explicit inversion.
    Invert,
    /// Batched GEMV application.
    Gemv,
    /// Preconditioner application through a prepared workspace
    /// ([`crate::PreparedApply`]): the per-iteration solve traffic of
    /// the Krylov hot loop.
    Apply,
    /// Global block triangular sweep ([`crate::BlockTriangular`]): the
    /// off-diagonal traffic of block-ILU(0) applies.
    Sweep,
    /// Reduced coupling-system work of a SPIKE split: spike-tip
    /// formation plus assembly and factorization of the interface
    /// system.
    Reduce,
}

impl Phase {
    /// Number of phases: the length of the per-phase time table.
    const COUNT: usize = Phase::Reduce as usize + 1;

    /// Stable label.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Extract => "extract",
            Phase::Factorize => "factorize",
            Phase::Solve => "solve",
            Phase::Invert => "invert",
            Phase::Gemv => "gemv",
            Phase::Apply => "apply",
            Phase::Sweep => "sweep",
            Phase::Reduce => "reduce",
        }
    }
}

/// Counters a backend fills in while executing a plan: which kernels
/// ran on how many blocks, in which layouts, nominal flops, wall-clock
/// per phase, and the prepared applies with their workspace footprint.
#[derive(Clone, Debug, Default)]
pub struct ExecStats {
    kernels: BTreeMap<&'static str, u64>,
    layouts: BTreeMap<&'static str, u64>,
    /// Nominal floating-point operations of the executed batched calls.
    pub flops: f64,
    phase_times: [Duration; Phase::COUNT],
    /// Largest apply-workspace footprint observed, in scalar elements
    /// (the high-water mark of the prepared apply's scratch buffers).
    pub workspace_hwm_elems: usize,
    /// Prepared-apply invocations folded into these stats.
    pub applies: u64,
}

/// Add the counts of `from` into `into`.
fn merge_counts(into: &mut BTreeMap<&'static str, u64>, from: &BTreeMap<&'static str, u64>) {
    for (k, c) in from {
        *into.entry(k).or_insert(0) += c;
    }
}

/// A histogram as a compact `label=count;label=count` string for CSV,
/// in label order — the one format of every histogram column.
pub fn compact(map: &BTreeMap<&'static str, u64>) -> String {
    map.iter()
        .map(|(k, c)| format!("{k}={c}"))
        .collect::<Vec<_>>()
        .join(";")
}

impl ExecStats {
    /// Fresh, empty statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `blocks` blocks executed with kernel `k`.
    fn record_kernel(&mut self, k: KernelChoice, blocks: u64) {
        if blocks > 0 {
            *self.kernels.entry(k.label()).or_insert(0) += blocks;
            vbatch_rt::trace::labeled_add("exec.kernel", k.label(), blocks);
        }
    }

    /// Book one factorization's per-block outcomes: every block that
    /// kept its kernel's factors counts toward that kernel, so a
    /// fallback block stays out of the histogram and
    /// `FactorizedBatch::fallback_count` is its complement. Every fact
    /// of every status — fallback, health, recovery steps, storage
    /// precision, promotion — is forwarded to the trace registry.
    pub(crate) fn record_statuses(&mut self, status: &[BlockStatus]) {
        for s in status {
            if s.is_fallback() {
                vbatch_rt::counter!("exec.failures", 1);
            } else {
                self.record_kernel(s.kernel, 1);
            }
            vbatch_rt::trace::labeled_add("exec.health", s.health.label(), 1);
            for step in &s.recovery {
                vbatch_rt::trace::labeled_add("exec.recovery", step.label(), 1);
            }
            vbatch_rt::trace::labeled_add("exec.precision", s.precision.label(), 1);
            if s.promoted {
                vbatch_rt::counter!("exec.promotions", 1);
            }
        }
    }

    /// Record `blocks` blocks executed in layout `l`.
    pub fn record_layout(&mut self, l: ClassLayout, blocks: u64) {
        if blocks > 0 {
            *self.layouts.entry(l.label()).or_insert(0) += blocks;
            vbatch_rt::trace::labeled_add("exec.layout", l.label(), blocks);
        }
    }

    /// Accumulate nominal flops.
    pub fn add_flops(&mut self, f: f64) {
        self.flops += f;
    }

    /// Accumulate wall-clock time for a phase.
    pub fn add_phase(&mut self, phase: Phase, d: Duration) {
        self.phase_times[phase as usize] += d;
        let ns = d.as_nanos().min(u64::MAX as u128) as u64;
        // one static site per phase so the registry keeps separate
        // latency histograms without runtime string formatting
        match phase {
            Phase::Extract => vbatch_rt::duration!("phase.extract", ns),
            Phase::Factorize => vbatch_rt::duration!("phase.factorize", ns),
            Phase::Solve => vbatch_rt::duration!("phase.solve", ns),
            Phase::Invert => vbatch_rt::duration!("phase.invert", ns),
            Phase::Gemv => vbatch_rt::duration!("phase.gemv", ns),
            Phase::Apply => vbatch_rt::duration!("phase.apply", ns),
            Phase::Sweep => vbatch_rt::duration!("phase.sweep", ns),
            Phase::Reduce => vbatch_rt::duration!("phase.reduce", ns),
        }
    }

    /// Record one prepared-apply invocation whose workspace footprint
    /// was `hwm_elems` scalar elements (folded in as a max).
    pub fn record_apply(&mut self, hwm_elems: usize) {
        self.applies += 1;
        if hwm_elems > self.workspace_hwm_elems {
            self.workspace_hwm_elems = hwm_elems;
        }
        vbatch_rt::counter!("exec.applies", 1);
    }

    /// Total recorded time for a phase.
    pub fn phase_time(&self, phase: Phase) -> Duration {
        self.phase_times[phase as usize]
    }

    /// Total recorded time over all phases. A stage wrapping calls that
    /// book phases of their own reads this before and after and books
    /// only its elapsed time minus the difference: each instant once.
    pub fn phase_total(&self) -> Duration {
        self.phase_times.iter().sum()
    }

    /// Kernel-choice histogram (label → block count).
    pub fn kernel_histogram(&self) -> &BTreeMap<&'static str, u64> {
        &self.kernels
    }

    /// Histogram as a compact `label=count;label=count` string for CSV.
    pub fn histogram_compact(&self) -> String {
        compact(&self.kernels)
    }

    /// Layout histogram (label → block count).
    pub fn layout_histogram(&self) -> &BTreeMap<&'static str, u64> {
        &self.layouts
    }

    /// Layout histogram as a compact `label=count;...` string for CSV.
    pub fn layout_compact(&self) -> String {
        compact(&self.layouts)
    }

    /// Fold another stats object into this one.
    pub fn merge(&mut self, other: &ExecStats) {
        merge_counts(&mut self.kernels, &other.kernels);
        merge_counts(&mut self.layouts, &other.layouts);
        self.flops += other.flops;
        for (mine, theirs) in self.phase_times.iter_mut().zip(other.phase_times) {
            *mine += theirs;
        }
        self.applies += other.applies;
        if other.workspace_hwm_elems > self.workspace_hwm_elems {
            self.workspace_hwm_elems = other.workspace_hwm_elems;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_and_merge() {
        let mut a = ExecStats::new();
        a.record_kernel(KernelChoice::Lu, 3);
        a.record_kernel(KernelChoice::GaussHuard, 2);
        a.add_flops(100.0);
        a.add_phase(Phase::Factorize, Duration::from_millis(5));

        let mut b = ExecStats::new();
        b.record_kernel(KernelChoice::Lu, 1);
        b.add_phase(Phase::Factorize, Duration::from_millis(3));
        b.add_phase(Phase::Solve, Duration::from_millis(2));

        a.record_layout(ClassLayout::Interleaved, 3);
        b.record_layout(ClassLayout::Interleaved, 2);
        b.record_layout(ClassLayout::Blocked, 1);
        a.merge(&b);
        assert_eq!(a.layout_histogram()["interleaved"], 5);
        assert_eq!(a.layout_compact(), "blocked=1;interleaved=5");
        assert_eq!(a.kernel_histogram()["lu"], 4);
        assert_eq!(a.kernel_histogram()["gauss-huard"], 2);
        assert_eq!(a.phase_time(Phase::Factorize), Duration::from_millis(8));
        assert_eq!(a.phase_time(Phase::Solve), Duration::from_millis(2));
        assert_eq!(a.phase_time(Phase::Reduce), Duration::ZERO);
        assert_eq!(a.phase_total(), Duration::from_millis(10));
        // BTreeMap ordering: alphabetical by label
        assert_eq!(a.histogram_compact(), "gauss-huard=2;lu=4");
    }

    #[test]
    fn zero_counts_are_not_recorded() {
        let mut s = ExecStats::new();
        s.record_kernel(KernelChoice::Lu, 0);
        assert!(s.kernel_histogram().is_empty());
        assert_eq!(s.histogram_compact(), "");
    }
}
