//! What the snapshot tests share: the engine's text, and **the texts of
//! versions 3 and 2 rebuilt from it**.
//!
//! Versions 3 and 4 each dropped tables from the document because the
//! others determine them. The pinned bytes of versions 3 and 2 — four
//! goldens and 54 digests, written by code that no longer exists — stay in
//! force through [`v3_text`], which puts back what version 4 replaced by
//! `reach` (the closure bit by bit from the reach prefixes, `cp_nodes` by a
//! scan of `r_meta`, `drop_reach` by its definition), and [`v2_text`], which
//! puts back what version 3 dropped (the transpose bit by bit, the send
//! index by a scan of `msgs`); each must reproduce the pinned bytes exactly.
//! They are deliberately naive: they are the reference the engine's restore
//! paths are held to, and the source of the older documents the
//! cross-version differentials restore.
//!
//! One thing the document does not determine: the order in which deliveries
//! *inside one interval* arrived, which version 2 wrote and no reader ever
//! used. [`Arrivals`] records it from the test's own op stream.

#![allow(dead_code)]

use rdt_json::{Json, JsonWriter};
use rdt_rgraph::{ChainLayer, IncrementalAnalysis, Journal};

/// The engine's snapshot text, straight from the writer.
pub fn text(engine: &IncrementalAnalysis) -> String {
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

/// The version 3 document of the engine whose version 4 text is `v4`.
///
/// A retained `x = C_{p,i}` reaches `y` iff `i < reach[y][p]` (Rule 1 makes
/// the checkpoints of `p` reaching `y` a prefix); `cp_nodes[p]` lists the
/// nodes of `p` in node order; `drop_reach[y][p]` is the greatest
/// compacted-away index below `reach[y][p]` (`u32::MAX` = none), and the
/// table is empty before the first compaction. The matrix is as wide as the
/// engine keeps it: the least power of two of words that holds every node.
pub fn v3_text(v4: &str) -> String {
    let doc = Json::parse_bytes(v4.as_bytes()).expect("snapshot text parses");
    let Json::Obj(fields) = &doc else {
        panic!("a snapshot is an object");
    };
    let get = |key: &str| {
        doc.get(key)
            .unwrap_or_else(|| panic!("snapshot has `{key}`"))
    };
    let n = get("n").as_u64().expect("n") as usize;
    let reach = u64s(get("reach"));
    let r_meta: Vec<Vec<u64>> = get("r_meta")
        .as_array()
        .expect("r_meta")
        .iter()
        .map(u64s)
        .collect();
    let cp_base = u64s(get("cp_base"));
    let nodes = r_meta.len();
    let width = nodes.div_ceil(64).max(1).next_power_of_two();
    let mut fwd = vec![0u64; nodes * width];
    for (x, meta) in r_meta.iter().enumerate() {
        let (p, i) = (meta[0] as usize, meta[1]);
        for y in 0..nodes {
            if i < reach[y * n + p] {
                fwd[x * width + y / 64] |= 1 << (y % 64);
            }
        }
    }
    let rmat = Json::obj([
        ("nodes", Json::U64(nodes as u64)),
        ("width", Json::U64(width as u64)),
        ("fwd", Json::Arr(fwd.into_iter().map(Json::U64).collect())),
    ]);
    let cp_nodes = (0..n).map(|p| {
        let own = (0..nodes).filter(|&x| r_meta[x][0] as usize == p);
        Json::Arr(own.map(|x| Json::U64(x as u64)).collect())
    });
    let cp_nodes = Json::Arr(cp_nodes.collect());
    let mut drop_reach = Vec::new();
    if get("epoch").as_u64() != Some(0) {
        for (k, &reach) in reach.iter().enumerate() {
            let dropped = reach.min(cp_base[k % n]).checked_sub(1);
            drop_reach.push(Json::U64(dropped.unwrap_or(u64::from(u32::MAX))));
        }
    }
    let mut out = Vec::new();
    for (key, value) in fields {
        match key.as_str() {
            "version" => out.push((key.clone(), Json::U64(3))),
            "reach" => out.push(("rmat".into(), rmat.clone())),
            _ => out.push((key.clone(), value.clone())),
        }
        match key.as_str() {
            "r_meta" => out.push(("cp_nodes".into(), cp_nodes.clone())),
            "cp_base" => out.push(("drop_reach".into(), Json::Arr(drop_reach.clone()))),
            _ => {}
        }
    }
    Json::Obj(out).to_string()
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
