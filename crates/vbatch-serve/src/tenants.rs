//! Per-tenant quarantine: tenants whose systems triage as
//! [`BlockHealth::Singular`] or [`BlockHealth::NonFinite`] are marked
//! and from then on flushed in *solo* batches until they produce a
//! streak of clean solves.
//!
//! The blocked layout already guarantees a neighbour can never perturb
//! another member's bits, so quarantine is not a numerical-correctness
//! mechanism — it is a *latency and blast-radius* one: a tenant whose
//! blocks keep walking the triage/recovery escalation chain pays that
//! cost alone instead of inflating the tail latency of every healthy
//! member co-batched with it.

use std::collections::HashMap;
use std::sync::Mutex;
use vbatch_exec::BlockHealth;

use crate::request::TenantId;

/// Clean solves needed to leave quarantine.
const RELEASE_STREAK: u32 = 3;

#[derive(Default)]
struct TenantState {
    quarantined: bool,
    clean_streak: u32,
}

/// Shared registry of tenant health standing. One per service; all
/// shards consult it. The lock is taken once per flushed member — far
/// off the per-element hot path.
#[derive(Default)]
pub struct TenantRegistry {
    states: Mutex<HashMap<u64, TenantState>>,
}

impl TenantRegistry {
    /// An empty registry: every tenant starts in good standing.
    pub fn new() -> Self {
        Self::default()
    }

    /// `true` when `tenant` must be flushed solo.
    pub fn is_quarantined(&self, tenant: TenantId) -> bool {
        self.states
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&tenant.0)
            .is_some_and(|s| s.quarantined)
    }

    /// Record the triaged health of one solved member. Singular or
    /// non-finite systems quarantine the tenant immediately; a streak
    /// of clean solves releases it.
    pub fn record(&self, tenant: TenantId, health: BlockHealth) {
        let mut states = self.states.lock().unwrap_or_else(|e| e.into_inner());
        let state = states.entry(tenant.0).or_default();
        match health {
            BlockHealth::Singular | BlockHealth::NonFinite => {
                state.quarantined = true;
                state.clean_streak = 0;
            }
            BlockHealth::Healthy => {
                if state.quarantined {
                    state.clean_streak += 1;
                    if state.clean_streak >= RELEASE_STREAK {
                        state.quarantined = false;
                        state.clean_streak = 0;
                    }
                }
            }
            // Ill-conditioned systems are recovered by the service's
            // guarded triage (equilibrated, refactorized and refined;
            // Householder QR if that fails): they neither quarantine
            // nor count toward a release streak.
            BlockHealth::IllConditioned => {}
        }
    }

    /// Number of tenants currently quarantined.
    pub fn quarantined_count(&self) -> usize {
        self.states
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .values()
            .filter(|s| s.quarantined)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toxic_health_quarantines_immediately() {
        let reg = TenantRegistry::new();
        let t = TenantId(7);
        assert!(!reg.is_quarantined(t));
        reg.record(t, BlockHealth::Singular);
        assert!(reg.is_quarantined(t));
        assert_eq!(reg.quarantined_count(), 1);
    }

    #[test]
    fn clean_streak_releases() {
        let reg = TenantRegistry::new();
        let t = TenantId(1);
        reg.record(t, BlockHealth::NonFinite);
        for _ in 0..RELEASE_STREAK - 1 {
            reg.record(t, BlockHealth::Healthy);
            assert!(reg.is_quarantined(t), "released too early");
        }
        reg.record(t, BlockHealth::Healthy);
        assert!(!reg.is_quarantined(t));
    }

    #[test]
    fn relapse_resets_the_streak() {
        let reg = TenantRegistry::new();
        let t = TenantId(2);
        reg.record(t, BlockHealth::Singular);
        reg.record(t, BlockHealth::Healthy);
        reg.record(t, BlockHealth::Singular);
        for _ in 0..RELEASE_STREAK - 1 {
            reg.record(t, BlockHealth::Healthy);
        }
        assert!(reg.is_quarantined(t), "relapse must restart the streak");
    }

    #[test]
    fn ill_conditioned_is_neutral() {
        let reg = TenantRegistry::new();
        let t = TenantId(3);
        reg.record(t, BlockHealth::IllConditioned);
        assert!(!reg.is_quarantined(t));
        reg.record(t, BlockHealth::Singular);
        reg.record(t, BlockHealth::IllConditioned);
        assert!(reg.is_quarantined(t), "ill-conditioned must not release");
    }
}
