//! What the snapshot tests share: the engine's text, and **version 2's
//! text rebuilt from it**.
//!
//! Version 3 dropped three kinds of table from the document because the
//! others determine them. The pinned bytes of version 2 — two goldens and
//! 54 digests, written by code that no longer exists — stay in force through
//! [`v2_text`], which puts those tables back by their definition (the
//! transpose bit by bit, the send index by a scan of `msgs`) and must
//! reproduce the pinned bytes exactly. It is deliberately naive: it is the
//! reference the engine's block transpose and index rebuild are held to,
//! and the source of the version 2 documents the cross-version
//! differentials restore.
//!
//! One thing the document does not determine: the order in which deliveries
//! *inside one interval* arrived, which version 2 wrote and no reader ever
//! used. [`Arrivals`] records it from the test's own op stream.

#![allow(dead_code)]

use rdt_json::{Json, JsonWriter};
use rdt_rgraph::{ChainLayer, IncrementalAnalysis, Journal};

/// The engine's snapshot text, straight from the writer.
pub fn text<C: ChainLayer, J: Journal>(engine: &IncrementalAnalysis<C, J>) -> String {
    let mut out = Vec::new();
    engine.write_snapshot(&mut JsonWriter::new(&mut out));
    String::from_utf8(out).expect("snapshot text is UTF-8")
}

/// Per process, the `(interval, message)` of every delivery in arrival
/// order: version 2's `deliver_events`.
#[derive(Clone, Debug)]
pub struct Arrivals(pub Vec<Vec<(u32, u32)>>);

impl Arrivals {
    pub fn new(n: usize) -> Arrivals {
        Arrivals(vec![Vec::new(); n])
    }

    /// Call after `engine` accepted the delivery of `mid`.
    pub fn record<C: ChainLayer, J: Journal>(
        &mut self,
        engine: &IncrementalAnalysis<C, J>,
        mid: u32,
    ) {
        let route = engine.message_route(mid);
        let interval = route.deliver_interval.expect("delivered");
        self.0[route.to.index()].push((interval, mid));
    }
}

fn u64s(value: &Json) -> Vec<u64> {
    let items = value.as_array().expect("an array");
    items
        .iter()
        .map(|v| v.as_u64().expect("a number"))
        .collect()
}

fn pairs(events: &[Vec<(u32, u32)>]) -> Json {
    let pair =
        |&(iv, mid): &(u32, u32)| Json::Arr(vec![Json::U64(iv.into()), Json::U64(mid.into())]);
    let row = |row: &Vec<(u32, u32)>| Json::Arr(row.iter().map(pair).collect());
    Json::Arr(events.iter().map(row).collect())
}

/// A version 3 matrix with its `bwd` slab: bit `u` of row `v` for every bit
/// `v` of row `u`.
fn with_bwd(matrix: &Json) -> Json {
    let Json::Obj(fields) = matrix else {
        panic!("a matrix is an object");
    };
    let get = |key: &str| {
        matrix
            .get(key)
            .unwrap_or_else(|| panic!("matrix has `{key}`"))
    };
    let width = get("width").as_u64().expect("width") as usize;
    let fwd = u64s(get("fwd"));
    let mut bwd = vec![0u64; fwd.len()];
    for (u, row) in fwd.chunks_exact(width).enumerate() {
        for (w, &word) in row.iter().enumerate() {
            for bit in (0..64).filter(|bit| word >> bit & 1 == 1) {
                bwd[(w * 64 + bit) * width + u / 64] |= 1 << (u % 64);
            }
        }
    }
    let mut fields = fields.clone();
    fields.push((
        "bwd".into(),
        Json::Arr(bwd.into_iter().map(Json::U64).collect()),
    ));
    Json::Obj(fields)
}

/// The version 2 document of the engine whose version 3 text is `v3` and
/// whose deliveries arrived as `arrivals` says.
pub fn v2_text(v3: &str, arrivals: &Arrivals) -> String {
    let doc = Json::parse_bytes(v3.as_bytes()).expect("snapshot text parses");
    let Json::Obj(fields) = &doc else {
        panic!("a snapshot is an object");
    };
    let n = arrivals.0.len();
    let mut send_events = vec![Vec::new(); n];
    let msgs = doc.get("msgs").and_then(Json::as_array).expect("msgs");
    for (mid, row) in msgs.iter().enumerate() {
        let row = u64s(row);
        send_events[row[0] as usize].push((row[2] as u32, mid as u32));
    }
    let mut out = Vec::new();
    for (key, value) in fields {
        let value = match (key.as_str(), value) {
            ("version", _) => Json::U64(2),
            ("rmat", matrix) => with_bwd(matrix),
            ("chains", Json::Obj(chains)) => Json::Obj(
                chains
                    .iter()
                    .map(|(key, value)| match key.as_str() {
                        "zmat" | "cmat" => (key.clone(), with_bwd(value)),
                        _ => (key.clone(), value.clone()),
                    })
                    .collect(),
            ),
            (_, value) => value.clone(),
        };
        out.push((key.clone(), value));
        if key == "cp_nodes" {
            out.push(("send_events".into(), pairs(&send_events)));
            out.push(("deliver_events".into(), pairs(&arrivals.0)));
        }
    }
    Json::Obj(out).to_string()
}
