//! `rdt-serve` — the multi-tenant streaming RDT daemon.
//!
//! The daemon accepts newline-delimited JSON frames over a TCP or
//! Unix-domain socket. Each tenant opens an independent *stream* (a
//! named checkpoint-and-communication pattern over `n` processes) and
//! feeds it `send` / `deliver` / `checkpoint` / `crash` events; behind
//! the scenes every stream owns one incremental R-graph engine
//! ([`rdt_rgraph::IncrementalAnalysis`], the core instantiation: no chain
//! closures, no undo journal), so live queries — the running
//! count of reachable-but-untrackable checkpoint pairs, the recovery
//! line, and the minimum/maximum consistent global checkpoint containing
//! a target set — answer in time proportional to the touched state, not
//! the stream's history.
//!
//! # Architecture
//!
//! ```text
//!  connections (1 thread each)            stripes (--workers locks)
//!  ┌──────────────────────────┐  lock   ┌────────────────────────────────┐
//!  │ read frames, run each    │ ──────► │ stripe = fnv1a(stream) % W     │
//!  │ request, write replies   │ ◄────── │ Mutex<HashMap<name, engine>>   │
//!  └──────────────────────────┘ unlock  └────────────────────────────────┘
//! ```
//!
//! A request runs on its connection's thread under the lock of its
//! stream's stripe, so a stream's requests are serialised in arrival
//! order, which makes per-stream replies deterministic for **any**
//! worker count. The stripe is FNV-1a's, the same in every run; inside
//! it the map hashes with a key of its own (std's `RandomState`), so
//! client-chosen names cannot be picked to collide, and nothing depends on
//! the map's iteration order. Replies are written once per drained read
//! buffer, so clients may pipeline. Snapshot restore reads the file's bytes in place
//! ([`PoolHandle::restore_text`]) and fans the per-stream validation and
//! engine builds out over the deterministic work-stealing pool from
//! `rdt-sim`; like a persist, it builds no `Json` tree.
//!
//! No reply becomes a tree: every line the daemon writes is a typed
//! [`Reply`] rendered straight into the connection's output buffer
//! ([`PoolHandle::answer_frame`]). Nor do the four ops of a stream's life:
//! a canonical `open`, `event`, `query` or `close` frame is scanned in
//! place ([`scan_request`]), its stream found by the name's bytes where
//! they lie in the frame. Every other frame — other ops, other spellings, everything
//! malformed — takes the tree parser ([`parse_request`]), which is also
//! what the scanner is held to.
//!
//! # Robustness contract
//!
//! Every byte sequence a client can send — malformed JSON, truncated
//! escapes, events out of order, duplicate deliveries, unknown streams,
//! oversized lines — produces a structured error reply from the taxonomy
//! in [`ErrorKind`], never a panic and never cross-tenant corruption.
//! The repo's panic-reachability lint checks this statically from the
//! [`parse_request`] / [`handle_request`] entry points and the stripe door
//! every stream-scoped op runs through.

pub mod engine;
pub mod protocol;
pub mod server;
pub mod shard;

pub use engine::{StreamEngine, StreamTables, STREAM_SNAPSHOT_FORMAT};
pub use protocol::{
    parse_request, scan_request, DaemonOp, ErrorKind, EventKind, HotRequest, QueryKind, Reply,
    Request, ServeError, MAX_LINE_BYTES, MAX_NAME_BYTES, MAX_PROCESSES, MAX_STREAMS,
};
pub use server::{Endpoint, Server, ServerConfig};
pub use shard::{
    handle_request, EnginePool, PoolHandle, Rendered, Restored, PERSIST_CHUNK,
    POOL_SNAPSHOT_FORMAT, POOL_SNAPSHOT_VERSION,
};
