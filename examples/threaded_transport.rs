//! Embedding the protocol in a *real* concurrent transport: OS threads
//! and mpsc channels instead of the discrete-event simulator.
//!
//! The protocols are pure state machines, so wiring them into any
//! transport is three calls: `before_send` when a message goes out (attach
//! the piggyback), `on_message_arrival` when one comes in (take the forced
//! checkpoint if told to), `take_basic_checkpoint` whenever the
//! application feels like it. At the end, the collected trace is converted
//! to a pattern and the run is *verified* RDT — timing is real and
//! nondeterministic here, so this exercises schedules no seeded simulation
//! would produce.
//!
//! ```text
//! cargo run --example threaded_transport
//! ```

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread;

use rdt::protocols::{BhmrPiggyback, CicProtocol};
use rdt::{Bhmr, CheckpointId, PatternAnalysis, PatternBuilder, ProcessId};

/// What travels on the wire: payload tag + the protocol's control data.
struct WireMessage {
    from: ProcessId,
    seq: u64,
    piggyback: BhmrPiggyback,
}

/// A recorded event, appended under a global lock so the shared log is a
/// linear extension of the real execution (each send happens-before its
/// delivery by construction of the channels).
enum LogEvent {
    Send {
        from: ProcessId,
        to: ProcessId,
        seq: u64,
    },
    Deliver {
        to: ProcessId,
        from: ProcessId,
        seq: u64,
    },
    Checkpoint {
        id: CheckpointId,
    },
}

fn main() {
    let n = 4;
    let rounds = 50u64;

    // One mpsc channel per process; everyone can send to everyone.
    let mut senders: Vec<Sender<WireMessage>> = Vec::new();
    let mut receivers: Vec<Option<Receiver<WireMessage>>> = Vec::new();
    for _ in 0..n {
        let (tx, rx) = channel();
        senders.push(tx);
        receivers.push(Some(rx));
    }
    let log = Arc::new(Mutex::new(Vec::<LogEvent>::new()));

    let mut handles = Vec::new();
    for (i, slot) in receivers.iter_mut().enumerate() {
        let me = ProcessId::new(i);
        let rx = slot.take().expect("each receiver moves into its thread");
        let txs = senders.clone();
        let log = Arc::clone(&log);
        handles.push(thread::spawn(move || {
            let mut protocol = Bhmr::new(n, me);
            let mut sent = 0u64;
            let mut delivered = 0u64;
            // Everyone pushes `rounds` messages around the ring and
            // occasionally checkpoints; interleaving is up to the OS.
            while sent < rounds || delivered < rounds {
                if sent < rounds {
                    let dest = ProcessId::new((i + 1) % n);
                    let outcome = protocol.before_send(dest);
                    let seq = sent;
                    log.lock().unwrap().push(LogEvent::Send {
                        from: me,
                        to: dest,
                        seq,
                    });
                    txs[dest.index()]
                        .send(WireMessage {
                            from: me,
                            seq,
                            piggyback: outcome.piggyback,
                        })
                        .expect("receiver alive");
                    sent += 1;
                    if sent.is_multiple_of(10) {
                        let record = protocol.take_basic_checkpoint();
                        log.lock()
                            .unwrap()
                            .push(LogEvent::Checkpoint { id: record.id });
                    }
                }
                while let Ok(message) = rx.try_recv() {
                    let outcome = protocol.on_message_arrival(message.from, &message.piggyback);
                    let mut log = log.lock().unwrap();
                    if let Some(record) = outcome.forced {
                        log.push(LogEvent::Checkpoint { id: record.id });
                    }
                    log.push(LogEvent::Deliver {
                        to: me,
                        from: message.from,
                        seq: message.seq,
                    });
                    delivered += 1;
                }
            }
            // Drain stragglers so every message is delivered.
            while delivered < rounds {
                let message = rx.recv().expect("sender alive");
                let outcome = protocol.on_message_arrival(message.from, &message.piggyback);
                let mut log = log.lock().unwrap();
                if let Some(record) = outcome.forced {
                    log.push(LogEvent::Checkpoint { id: record.id });
                }
                log.push(LogEvent::Deliver {
                    to: me,
                    from: message.from,
                    seq: message.seq,
                });
                delivered += 1;
            }
            *protocol.stats()
        }));
    }

    let stats: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("no panics"))
        .collect();
    let total_forced: u64 = stats.iter().map(|s| s.forced_checkpoints).sum();
    let total_basic: u64 = stats.iter().map(|s| s.basic_checkpoints).sum();
    println!(
        "threaded run: {} messages, {total_basic} basic + {total_forced} forced checkpoints",
        n as u64 * rounds
    );

    // Rebuild the pattern from the shared log and verify RDT offline.
    let log = Arc::try_unwrap(log)
        .ok()
        .expect("threads joined")
        .into_inner()
        .expect("lock unpoisoned");
    let mut builder = PatternBuilder::new(n);
    let mut tokens = std::collections::HashMap::new();
    for event in &log {
        match *event {
            LogEvent::Send { from, to, seq } => {
                tokens.insert((from, seq), (builder.send(from, to), to));
            }
            LogEvent::Deliver { to, from, seq } => {
                let (token, dest) = tokens[&(from, seq)];
                assert_eq!(dest, to, "messages arrive where they were sent");
                builder.deliver(token).expect("single delivery");
            }
            LogEvent::Checkpoint { id } => {
                let built = builder.checkpoint(id.process);
                assert_eq!(built, id, "log order preserves per-process indices");
            }
        }
    }
    let pattern = builder.close().build().expect("well-formed log");
    let report = PatternAnalysis::new(&pattern).rdt_report();
    println!(
        "offline verification over the real concurrent schedule: RDT {}",
        if report.holds() {
            "holds"
        } else {
            "VIOLATED (bug!)"
        }
    );
    assert!(report.holds());
}
