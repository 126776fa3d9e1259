//! Execution configuration for [`World::run`](crate::World::run).
//!
//! Callers describe *how* to execute ([`ExecutorConfig`]: the plain
//! sequential loop, or the same loop with a windowed shard analysis over
//! `n` topology regions), resolve it against a topology into an
//! [`ExecPlan`], and get back a [`RunStats`]. The choice never changes
//! *what* the run produces — traces, reports, oracle verdicts and
//! observability artifacts are byte-identical either way; a sharded plan
//! only adds the realized window schedule ([`ShardRunStats`]) and its
//! achievable parallel speedup.

use crate::world::{ShardPlan, ShardRunStats};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A validating description of how to execute a run.
///
/// Build with [`ExecutorConfig::sequential`] or [`ExecutorConfig::sharded`],
/// then resolve against a topology with [`plan`](ExecutorConfig::plan) (or
/// check standalone with [`validate`](ExecutorConfig::validate)).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecutorConfig {
    /// Number of topology shards to analyse; `None` = plain sequential loop.
    shards: Option<usize>,
}

impl ExecutorConfig {
    /// The plain sequential event loop.
    pub fn sequential() -> ExecutorConfig {
        ExecutorConfig { shards: None }
    }

    /// The sequential loop with a conservative-window schedule analysis
    /// over `shards` topology regions.
    pub fn sharded(shards: usize) -> ExecutorConfig {
        ExecutorConfig {
            shards: Some(shards),
        }
    }

    /// Check the configuration without resolving a topology.
    pub fn validate(&self) -> Result<(), ExecError> {
        match self.shards {
            Some(0) => Err(ExecError::ZeroShards),
            _ => Ok(()),
        }
    }

    /// Validate and resolve into an [`ExecPlan`], building the topology
    /// shard map through `make_plan` (called with the shard count only for
    /// sharded configs).
    pub fn plan(&self, make_plan: impl FnOnce(usize) -> ShardPlan) -> Result<ExecPlan, ExecError> {
        self.validate()?;
        Ok(match self.shards {
            None => ExecPlan::Sequential,
            Some(shards) => ExecPlan::Sharded(make_plan(shards)),
        })
    }
}

/// A resolved execution plan: the executor config bound to a topology.
#[derive(Clone, Debug)]
pub enum ExecPlan {
    /// Plain sequential event loop.
    Sequential,
    /// The same loop, feeding the conservative-window schedule analysis.
    Sharded(ShardPlan),
}

impl ExecPlan {
    pub fn sequential() -> ExecPlan {
        ExecPlan::Sequential
    }

    pub fn sharded(plan: ShardPlan) -> ExecPlan {
        ExecPlan::Sharded(plan)
    }
}

/// What one [`World::run`](crate::World::run) did.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct RunStats {
    /// Events dispatched by this run (delta, not the world lifetime total).
    pub events_executed: u64,
    /// Present when the run carried a sharded plan.
    pub sharded: Option<ShardRunStats>,
}

/// An invalid [`ExecutorConfig`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecError {
    ZeroShards,
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::ZeroShards => write!(f, "sharded executor needs at least one shard"),
        }
    }
}

impl std::error::Error for ExecError {}

#[cfg(test)]
mod tests {
    use super::*;
    use mobicast_sim::SimDuration;

    #[test]
    fn sequential_is_default_and_valid() {
        assert_eq!(ExecutorConfig::default(), ExecutorConfig::sequential());
        assert!(ExecutorConfig::sequential().validate().is_ok());
        assert!(matches!(
            ExecutorConfig::sequential().plan(|_| unreachable!()),
            Ok(ExecPlan::Sequential)
        ));
    }

    #[test]
    fn rejects_zero_shards() {
        assert_eq!(
            ExecutorConfig::sharded(0).validate(),
            Err(ExecError::ZeroShards)
        );
        assert!(!ExecError::ZeroShards.to_string().is_empty());
    }

    #[test]
    fn resolves_sharded_plan() {
        let plan = ExecutorConfig::sharded(2).plan(|s| {
            assert_eq!(s, 2);
            ShardPlan::new(vec![0, 1], SimDuration::from_micros(10))
        });
        match plan {
            Ok(ExecPlan::Sharded(plan)) => assert_eq!(plan.n_shards(), 2),
            other => panic!("unexpected: {other:?}"),
        }
    }
}
