//! Adversarial event-order handling in `IncrementalAnalysis`: the
//! `try_append_*` entry points must reject deliver-before-send, duplicate
//! delivery, and out-of-range processes with a typed [`AppendError`] —
//! and a rejected append must leave the engine byte-identical, so a
//! hostile tenant stream cannot corrupt the analysis it shares a daemon
//! with.

use rdt_causality::ProcessId;
use rdt_json::JsonWriter;
use rdt_rgraph::{AppendError, IncrementalAnalysis};

/// The engine's snapshot text, as the daemon persists it.
fn snapshot_text(engine: &IncrementalAnalysis) -> String {
    let mut out = Vec::new();
    engine.write_snapshot(&mut JsonWriter::new(&mut out));
    String::from_utf8(out).expect("snapshot text is UTF-8")
}

#[test]
fn deliver_before_send_is_rejected() {
    let mut engine = IncrementalAnalysis::new(2);
    assert_eq!(
        engine.try_append_deliver(0),
        Err(AppendError::UnknownMessage { mid: 0 })
    );
    assert_eq!(
        engine.try_append_deliver(u32::MAX),
        Err(AppendError::UnknownMessage { mid: u32::MAX })
    );
}

#[test]
fn duplicate_delivery_is_rejected() {
    let mut engine = IncrementalAnalysis::new(2);
    let m = engine
        .try_append_send(ProcessId::new(0), ProcessId::new(1))
        .expect("valid send");
    engine.try_append_deliver(m).expect("first delivery");
    assert_eq!(
        engine.try_append_deliver(m),
        Err(AppendError::AlreadyDelivered { mid: m })
    );
}

#[test]
fn out_of_range_processes_are_rejected() {
    let mut engine = IncrementalAnalysis::new(3);
    assert_eq!(
        engine.try_append_checkpoint(ProcessId::new(3)),
        Err(AppendError::ProcessOutOfRange { process: 3, n: 3 })
    );
    assert_eq!(
        engine.try_append_send(ProcessId::new(7), ProcessId::new(0)),
        Err(AppendError::ProcessOutOfRange { process: 7, n: 3 })
    );
    assert_eq!(
        engine.try_append_send(ProcessId::new(0), ProcessId::new(7)),
        Err(AppendError::ProcessOutOfRange { process: 7, n: 3 })
    );
}

/// A rejected append is a no-op: the engine's full serialized state is
/// unchanged, not just its visible counters.
#[test]
fn rejected_appends_leave_state_untouched() {
    let mut engine = IncrementalAnalysis::new(2);
    let p0 = ProcessId::new(0);
    let p1 = ProcessId::new(1);
    engine.append_checkpoint(p0);
    let m = engine.append_send(p0, p1);
    engine.append_deliver(m);
    let before = snapshot_text(&engine);

    assert!(engine.try_append_deliver(m).is_err());
    assert!(engine.try_append_deliver(99).is_err());
    assert!(engine.try_append_checkpoint(ProcessId::new(5)).is_err());
    assert!(engine.try_append_send(ProcessId::new(5), p0).is_err());

    assert_eq!(snapshot_text(&engine), before);

    // And the engine still works after the rejections.
    engine.append_checkpoint(p1);
    assert!(engine.checkpoint_exists(rdt_causality::CheckpointId::new(p1, 1)));
}
