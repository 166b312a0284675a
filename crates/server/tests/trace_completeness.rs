//! Trace completeness: every core reassignment, cache flush and subqueue
//! enqueue a `ServerSim` performs must appear in its trace. The run's own
//! counters are the reference, so a new transition path that forgets to
//! trace leaves the event count short and fails here.
//!
//! Tracing is process-global, so this file is its own test binary and
//! holds a single test.

use hh_server::{ServerConfig, ServerSim, SystemSpec};
use hh_trace::{FlushScope, ReassignKind, TraceEvent};

#[test]
fn every_transition_flush_and_enqueue_is_traced() {
    hh_trace::set_enabled(true);
    let _ = hh_trace::take_sessions();

    let mut kinds = Vec::new();
    let mut scopes = Vec::new();
    for system in [
        SystemSpec::harvest_term(),
        SystemSpec::harvest_block(),
        SystemSpec::hardharvest_term(),
        SystemSpec::hardharvest_block(),
    ] {
        let name = system.name;
        let metrics = ServerSim::new(ServerConfig::small(system)).run();
        let mut sessions = hh_trace::take_sessions();
        assert_eq!(sessions.len(), 1, "{name}: one session per run");
        let s = sessions.remove(0);
        assert_eq!(s.dropped, 0, "{name}: the ring must hold the whole run");

        // `ReturnToBuffer` is traced but is not a reassignment the run counts.
        let mut reassigns = 0;
        let mut flushes = 0;
        let mut enqueues = 0;
        for ev in &s.events {
            match ev {
                TraceEvent::Reassign { kind, .. } => {
                    if *kind != ReassignKind::ReturnToBuffer {
                        reassigns += 1;
                    }
                    kinds.push(*kind);
                }
                TraceEvent::FlushSpan { scope, .. } => {
                    flushes += 1;
                    scopes.push(*scope);
                }
                TraceEvent::Enqueue { .. } => enqueues += 1,
                _ => {}
            }
        }
        let counter = |n| s.registry.counter(n);
        assert_eq!(reassigns, metrics.reassignments, "{name}: reassignments");
        assert_eq!(
            flushes,
            counter("mem.flushes_full") + counter("mem.flushes_region"),
            "{name}: flushes (FlushStats full + region)"
        );
        assert_eq!(
            enqueues,
            counter("hwqueue.enqueued"),
            "{name}: subqueue enqueues"
        );
    }
    hh_trace::set_enabled(false);

    // The runs must exercise every transition the checks above cover.
    for kind in [
        ReassignKind::Lend,
        ReassignKind::Reclaim,
        ReassignKind::BufferAttach,
        ReassignKind::ReturnToBuffer,
    ] {
        assert!(kinds.contains(&kind), "no {kind:?} transition ran");
    }
    for scope in [FlushScope::HarvestRegion, FlushScope::Full] {
        assert!(scopes.contains(&scope), "no {scope:?} flush ran");
    }
}
