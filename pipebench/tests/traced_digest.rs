//! Tracing must not change what the program computes: on every workload
//! (at a few-second size), a traced episode yields the same run digest as
//! an untraced one, every output check passes, and the traced split adds
//! up.

use pipebench::episode;
use pipebench::report;
use pipebench::workload::{Spec, Workload};

#[test]
fn traced_run_matches_untraced_on_every_workload() {
    for w in Workload::ALL {
        let spec = Spec::small(w);
        let untraced = episode::run(&spec, 7, 0, false);
        let traced = episode::run(&spec, 7, 0, true);
        for c in untraced.checks.iter().chain(&traced.checks) {
            assert!(c.ok, "{}: check {} failed ({})", w.name(), c.name, c.detail);
        }
        assert_eq!(
            untraced.digest,
            traced.digest,
            "{}: tracing changed the run digest",
            w.name()
        );
        assert_eq!(
            untraced.answers,
            traced.answers,
            "{}: tracing changed the query answers",
            w.name()
        );
        assert!(
            traced
                .checks
                .iter()
                .any(|c| c.name == "twin_matches_daemon"),
            "{}: traced episode did not compare its twin",
            w.name()
        );
        let layers = report::per_layer(&untraced, &traced, (0.0, 0.0));
        let get = |name: &str| {
            layers
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("missing {name}"))
                .value
        };
        // daemon.self_ms is defined so that the split accounts for the tick.
        let split = get("cluster.run_until_ms") + get("daemon.self_ms");
        assert!((split - get("daemon.tick_ms")).abs() < 1e-6, "{}", w.name());
        assert!(get("cluster.records") > 0.0, "{}", w.name());
        assert_eq!(
            get("store.records") + get("store.rejected_late"),
            get("cluster.records"),
            "{}",
            w.name()
        );
    }
}

#[test]
fn same_seed_same_digest_other_seed_other_digest() {
    let spec = Spec::small(Workload::FleetIngest);
    let a = episode::run(&spec, 11, 0, false);
    let again = episode::run(&spec, 11, 0, false);
    assert_eq!((a.digest, a.answers), (again.digest, again.answers));
    // Another query set changes the queries, not what was collected.
    let other_set = episode::run(&spec, 11, 1, false);
    assert_eq!(a.digest, other_set.digest);
    assert_ne!(a.answers, other_set.answers);
    assert_ne!(a.digest, episode::run(&spec, 12, 0, false).digest);
}

#[test]
fn every_workload_name_round_trips() {
    for w in Workload::ALL {
        assert_eq!(Workload::parse(w.name()), Some(w));
    }
    assert_eq!(Workload::parse("nope"), None);
}
