//! Service configuration with construction-time validation: a
//! [`ServeConfig`] that passes [`ServeConfig::validate`] can never make
//! the runtime divide by zero, spin, or admit unbounded queues.

use std::fmt;
use std::time::Duration;

/// Tuning knobs for [`crate::Service`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker shards; each owns one admission queue and one set of
    /// per-size-class workspaces. Tenants are hashed onto shards.
    pub shards: usize,
    /// Bounded depth of each shard's admission queue — the memory
    /// ceiling. Submissions beyond it are shed with
    /// [`crate::RejectReason::QueueFull`].
    pub queue_capacity: usize,
    /// Largest block order accepted; larger requests are rejected as
    /// [`crate::RejectReason::Oversized`].
    pub max_order: usize,
    /// Members per size-class batch: a class flushes as soon as it
    /// holds this many requests. Partial classes flush whenever the
    /// shard's admission queue runs dry, so a class fills only while
    /// requests arrive faster than the worker drains them.
    pub class_capacity: usize,
    /// Deadline watermark: a class also flushes when its oldest
    /// member's remaining deadline budget drops below this, checked at
    /// every admission — the trigger that matters under a backlog,
    /// where the queue never runs dry.
    pub flush_watermark: Duration,
    /// How long an idle worker parks before it looks at its queue
    /// again, and the unit of the shed backoff hint
    /// ([`crate::RejectReason::QueueFull`]'s `retry_after`). It delays
    /// no request: nothing is pending while the worker parks.
    pub idle_tick: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 2,
            queue_capacity: 256,
            max_order: 64,
            class_capacity: 32,
            flush_watermark: Duration::from_millis(2),
            idle_tick: Duration::from_millis(1),
        }
    }
}

/// A [`ServeConfig`] field that would break a runtime invariant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// `shards == 0`: no worker could ever run.
    ZeroShards,
    /// `queue_capacity == 0`: every submission would be shed.
    ZeroQueueCapacity,
    /// `max_order == 0`: every request would be oversized.
    ZeroMaxOrder,
    /// `class_capacity == 0`: no batch could ever fill.
    ZeroClassCapacity,
    /// `idle_tick` is zero: the batcher would spin instead of parking.
    ZeroIdleTick,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroShards => write!(f, "shards must be at least 1"),
            ConfigError::ZeroQueueCapacity => write!(f, "queue_capacity must be at least 1"),
            ConfigError::ZeroMaxOrder => write!(f, "max_order must be at least 1"),
            ConfigError::ZeroClassCapacity => write!(f, "class_capacity must be at least 1"),
            ConfigError::ZeroIdleTick => {
                write!(
                    f,
                    "idle_tick must be non-zero (the batcher would busy-spin)"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl ServeConfig {
    /// Check every invariant the runtime depends on.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.shards == 0 {
            return Err(ConfigError::ZeroShards);
        }
        if self.queue_capacity == 0 {
            return Err(ConfigError::ZeroQueueCapacity);
        }
        if self.max_order == 0 {
            return Err(ConfigError::ZeroMaxOrder);
        }
        if self.class_capacity == 0 {
            return Err(ConfigError::ZeroClassCapacity);
        }
        if self.idle_tick.is_zero() {
            return Err(ConfigError::ZeroIdleTick);
        }
        Ok(())
    }

    /// Backoff hint for a shed request: proportional to how full the
    /// queue was, floored at one idle tick — an empty-ish queue says
    /// "retry almost immediately", a saturated one says "stay away for
    /// a few batch periods".
    pub(crate) fn retry_after(&self, depth: usize) -> Duration {
        let ticks = 1 + (4 * depth) / self.queue_capacity.max(1);
        self.idle_tick.saturating_mul(ticks as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert_eq!(ServeConfig::default().validate(), Ok(()));
    }

    #[test]
    fn each_zero_field_is_its_own_error() {
        let base = ServeConfig::default();
        let cases = [
            (
                ServeConfig {
                    shards: 0,
                    ..base.clone()
                },
                ConfigError::ZeroShards,
            ),
            (
                ServeConfig {
                    queue_capacity: 0,
                    ..base.clone()
                },
                ConfigError::ZeroQueueCapacity,
            ),
            (
                ServeConfig {
                    max_order: 0,
                    ..base.clone()
                },
                ConfigError::ZeroMaxOrder,
            ),
            (
                ServeConfig {
                    class_capacity: 0,
                    ..base.clone()
                },
                ConfigError::ZeroClassCapacity,
            ),
            (
                ServeConfig {
                    idle_tick: Duration::ZERO,
                    ..base.clone()
                },
                ConfigError::ZeroIdleTick,
            ),
        ];
        for (cfg, want) in cases {
            assert_eq!(cfg.validate(), Err(want));
        }
    }

    #[test]
    fn retry_after_scales_with_depth() {
        let cfg = ServeConfig {
            queue_capacity: 100,
            idle_tick: Duration::from_millis(1),
            ..ServeConfig::default()
        };
        let empty = cfg.retry_after(0);
        let full = cfg.retry_after(100);
        assert_eq!(empty, Duration::from_millis(1));
        assert!(full > empty, "{full:?} vs {empty:?}");
    }
}
