//! `MOBICAST_WORKERS` sizes the sweep worker pool and nothing else: a
//! sharded stress run must neither reject a worker count above its shard
//! count nor change a byte of its report. Kept in its own test binary
//! because it sets a process-wide environment variable that would race
//! with any other test reading it.

use mobicast_core::stress::{run_stress_with, specs, StressRunOptions};
use mobicast_sim::Tracer;

#[test]
fn workers_env_does_not_touch_a_sharded_run() {
    std::env::set_var("MOBICAST_WORKERS", "64");
    let spec = &specs(true)[0];
    let (sequential, _) = run_stress_with(spec, &StressRunOptions::default(), Tracer::null());
    let (sharded, stats) = run_stress_with(spec, &StressRunOptions::sharded(2), Tracer::null());
    assert_eq!(
        serde_json::to_string(&sharded).expect("report serializes"),
        serde_json::to_string(&sequential).expect("report serializes"),
        "{}: sharded(2) under MOBICAST_WORKERS=64 diverged from sequential",
        spec.name
    );
    let stats = stats.expect("sharded run reports stats");
    assert_eq!(stats.events_per_shard.len(), 2);
}
