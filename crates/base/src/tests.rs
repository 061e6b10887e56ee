//! Unit tests of the fault registry ([`crate::faults`]).

use crate::faults::*;

#[test]
fn parses_all_three_kinds() {
    assert_eq!(
        FaultSpec::parse("serve.read:error:1").unwrap(),
        FaultSpec {
            site: "serve.read".into(),
            kind: FaultKind::Error,
            nth: 1
        }
    );
    assert_eq!(
        FaultSpec::parse("a.b:delay250:3").unwrap().kind,
        FaultKind::DelayMs(250)
    );
    assert_eq!(
        FaultSpec::parse("x:panic:2").unwrap().kind,
        FaultKind::Panic
    );
}

#[test]
fn rejects_malformed_specs() {
    for bad in [
        "",
        "site",
        "site:error",
        "site:error:0",
        "site:error:x",
        ":error:1",
        "site:nonsense:1",
        "site:delayxx:1",
        "a:error:1:extra",
    ] {
        assert!(FaultSpec::parse(bad).is_err(), "accepted {bad:?}");
    }
    assert!(FaultSpec::parse_list("a:error:1,bad").is_err());
}

#[test]
fn parse_list_handles_whitespace_and_empties() {
    let specs = FaultSpec::parse_list(" a:error:1 , b:panic:2 ,").unwrap();
    assert_eq!(specs.len(), 2);
    assert!(FaultSpec::parse_list("").unwrap().is_empty());
}

#[test]
fn error_fires_on_exactly_the_nth_hit() {
    let _armed = arm(vec![FaultSpec {
        site: "t.err".into(),
        kind: FaultKind::Error,
        nth: 3,
    }]);
    assert!(point("t.err").is_ok());
    assert!(point("t.err").is_ok());
    let e = point("t.err").unwrap_err();
    assert_eq!(e.site, "t.err");
    // Consumed: later hits pass again.
    assert!(point("t.err").is_ok());
    assert_eq!(hits("t.err"), 4);
    assert_eq!(fired("t.err"), 1);
}

#[test]
fn sites_count_independently() {
    let _armed = arm(vec![
        FaultSpec::parse("a:error:1").unwrap(),
        FaultSpec::parse("b:error:2").unwrap(),
    ]);
    assert!(point("b").is_ok()); // b hit 1: passes
    assert!(point("a").is_err()); // a hit 1: fires
    assert!(point("b").is_err()); // b hit 2: fires
    assert_eq!(total_fired(), 2);
    assert_eq!(snapshot(), vec![("a".into(), 1, 1), ("b".into(), 2, 1)]);
}

#[test]
fn panic_kind_panics_and_registry_recovers() {
    let _armed = arm(vec![FaultSpec::parse("t.panic:panic:1").unwrap()]);
    let r = std::panic::catch_unwind(|| point("t.panic"));
    assert!(r.is_err(), "panic kind must panic");
    // The runtime stays usable after the unwind.
    assert!(point("t.panic").is_ok());
    assert_eq!(fired("t.panic"), 1);
}

#[test]
fn delay_kind_blocks_then_proceeds() {
    let _armed = arm(vec![FaultSpec::parse("t.slow:delay30:1").unwrap()]);
    let t0 = std::time::Instant::now();
    assert!(point("t.slow").is_ok());
    assert!(t0.elapsed() >= std::time::Duration::from_millis(30));
    // Second hit is undelayed (spec consumed).
    let t1 = std::time::Instant::now();
    assert!(point("t.slow").is_ok());
    assert!(t1.elapsed() < std::time::Duration::from_millis(30));
}

/// The only test here that arms the process default. Every other test
/// (and every thread one spawns) arms its own thread, which shadows
/// that default, so none of them can see it.
#[test]
fn unarmed_points_are_silent_and_the_env_arms_the_process() {
    std::env::remove_var("SSDREC_FAULTS");
    assert!(arm_from_env().unwrap().is_none());
    for _ in 0..100 {
        point("nowhere").unwrap();
    }
    assert_eq!(hits("nowhere"), 0);
    assert_eq!(total_fired(), 0);

    std::env::set_var("SSDREC_FAULTS", "e.x:error:1,e.y:delay10:2");
    let (armed, n) = arm_from_env().unwrap().expect("armed");
    assert_eq!(n, 2);
    // A thread with no plan of its own fires from the process default.
    std::thread::spawn(|| assert!(point("e.x").is_err()))
        .join()
        .unwrap();
    assert_eq!(fired("e.x"), 1);
    std::env::set_var("SSDREC_FAULTS", "broken-spec");
    assert!(arm_from_env().is_err());
    std::env::remove_var("SSDREC_FAULTS");
    drop(armed);
    assert!(point("e.x").is_ok());
    assert_eq!(hits("e.x"), 0);
}

#[test]
fn a_thread_plan_is_invisible_to_other_threads() {
    let _armed = arm(vec![FaultSpec::parse("x:error:1").unwrap()]);
    // No plan of its own: the sibling fires from the process default
    // (which the env test may arm, so its counters are not read).
    let sibling = std::thread::spawn(|| (0..10).all(|_| point("x").is_ok()));
    assert!(sibling.join().unwrap(), "the sibling's ten hits all pass");
    assert!(point("x").is_err(), "the arming thread's first hit fires");
    assert_eq!((hits("x"), fired("x")), (1, 1));
}

#[test]
fn dropping_a_guard_restores_the_plan_it_replaced() {
    let _outer = arm(vec![FaultSpec::parse("r:error:2").unwrap()]);
    assert!(point("r").is_ok());
    {
        let _inner = arm(vec![FaultSpec::parse("r:error:3").unwrap()]);
        assert!(point("r").is_ok());
        assert_eq!(hits("r"), 1, "the inner plan counts afresh");
    }
    assert!(point("r").is_err(), "the outer plan resumes at hit 2");
    assert_eq!(hits("r"), 2);
}

#[test]
fn injected_converts_to_io_error() {
    let e: std::io::Error = Injected { site: "s".into() }.into();
    assert!(e.to_string().contains("injected fault at s"));
}
