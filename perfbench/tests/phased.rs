//! Checks of the benchmark's own machinery. The stress runs are large:
//! run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use mobicast_core::stress::run_stress;
use mobicast_perfbench::campaign::{plan_campaign, run_scenario};
use mobicast_perfbench::check::{guarded, Checked, Ledger};
use mobicast_perfbench::phased::{metro_flood_spec, roam_tunnel_spec, run_phased};
use mobicast_perfbench::{per_layer, DEFAULT_SEED, END_TO_END};

#[test]
fn phased_stress_report_is_byte_identical_to_run_stress() {
    for make in [metro_flood_spec, roam_tunnel_spec] {
        let reference = serde_json::to_string(&run_stress(&make(DEFAULT_SEED))).unwrap();
        let phased = run_phased(make, DEFAULT_SEED, false);
        assert_eq!(phased.json, reference);
        assert_eq!(phased.report.oracle_violations, 0);
    }
    // Profiling, the timed probe and the frame sample change nothing.
    let traced = run_phased(roam_tunnel_spec, DEFAULT_SEED, true);
    let reference = serde_json::to_string(&run_stress(&roam_tunnel_spec(DEFAULT_SEED))).unwrap();
    assert_eq!(traced.json, reference);
}

#[test]
fn wrong_expected_digest_panic_and_violation_are_failures() {
    let planned = &plan_campaign(DEFAULT_SEED)[0];
    let run = run_scenario(planned, false);
    let checked = Checked {
        digest: run.digest,
        violations: run.violations,
    };

    let mut ledger = Ledger::default();
    ledger.expect(&planned.key, run.digest ^ 1);
    assert!(!ledger.record(&planned.key, Ok(checked)));
    assert_eq!((ledger.attempted, ledger.failed), (1, 1));

    let mut ledger = Ledger::default();
    assert!(ledger.record(&planned.key, Ok(checked)));
    assert!(ledger.record(&planned.key, Ok(checked)));
    let panicked = guarded(|| -> Checked { panic!("injected") });
    assert!(!ledger.record(&planned.key, panicked));
    let violating = Checked {
        violations: 1,
        ..checked
    };
    assert!(!ledger.record(&planned.key, Ok(violating)));
    assert_eq!((ledger.attempted, ledger.failed), (4, 2));
    assert_eq!(ledger.failed_ratio(), 0.5);
}

/// The metric lists in BENCHMARK.json are the ones the binary prints.
#[test]
fn benchmark_json_lists_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
    let listed = |key: &str| -> Vec<(String, String)> {
        doc[key]
            .as_array()
            .unwrap()
            .iter()
            .map(|m| {
                let field = |f: &str| m[f].as_str().unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let printed: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(listed("end_to_end"), printed);
    let printed: Vec<(String, String)> = per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(listed("per_layer"), printed);
}
