//! Engine snapshot/restore for [`IncrementalAnalysis`].
//!
//! A snapshot captures everything the engine needs to keep answering
//! queries and accepting appends: counters, per-process tables, message
//! records, the three closure matrices, and the compaction state. The
//! undo **journal is deliberately excluded** — appends and queries never
//! read it, so a restored engine produces byte-identical answers to the
//! uninterrupted original; only rewinds to pre-snapshot marks become
//! defined [`RewindError`]s, mirroring the compaction-boundary rule.
//!
//! The format is a single versioned [`Json`] object so the daemon can
//! persist it with the workspace's own writer and reload it with the
//! total [`Json::parse_bytes`]. Restore validates every cross-table
//! invariant the append/query paths rely on for in-bounds indexing, so a
//! corrupted or hand-edited snapshot is a [`SnapshotError`], never a
//! panic later on.

use rdt_json::Json;

use super::{bits, ClosureMatrix, EdgeScratch, IncrementalAnalysis, MsgRec, NONE_U32, WORD_BITS};

/// Identifies the snapshot format inside the JSON document.
pub const SNAPSHOT_FORMAT: &str = "rdt-rgraph-snapshot";

/// Current snapshot format version.
pub const SNAPSHOT_VERSION: u64 = 1;

/// Why a snapshot could not be restored. The input is rejected wholesale;
/// no partially-restored engine is ever returned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotError {
    /// What was wrong with the snapshot document.
    pub message: String,
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid engine snapshot: {}", self.message)
    }
}

impl std::error::Error for SnapshotError {}

fn bad(message: impl Into<String>) -> SnapshotError {
    SnapshotError {
        message: message.into(),
    }
}

// ----------------------------------------------------------- reading ----

fn field<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, SnapshotError> {
    obj.get(key).ok_or_else(|| bad(format!("missing `{key}`")))
}

fn read_u64(value: &Json, key: &str) -> Result<u64, SnapshotError> {
    match *value {
        Json::U64(v) => Ok(v),
        _ => Err(bad(format!("`{key}` is not an unsigned integer"))),
    }
}

fn get_u64(obj: &Json, key: &str) -> Result<u64, SnapshotError> {
    read_u64(field(obj, key)?, key)
}

fn get_usize(obj: &Json, key: &str) -> Result<usize, SnapshotError> {
    usize::try_from(get_u64(obj, key)?).map_err(|_| bad(format!("`{key}` out of range")))
}

fn to_u32(value: &Json, key: &str) -> Result<u32, SnapshotError> {
    u32::try_from(read_u64(value, key)?).map_err(|_| bad(format!("`{key}` entry out of range")))
}

fn get_arr<'a>(obj: &'a Json, key: &str) -> Result<&'a [Json], SnapshotError> {
    field(obj, key)?
        .as_array()
        .ok_or_else(|| bad(format!("`{key}` is not an array")))
}

fn get_u32_vec(obj: &Json, key: &str) -> Result<Vec<u32>, SnapshotError> {
    get_arr(obj, key)?.iter().map(|v| to_u32(v, key)).collect()
}

fn get_u64_vec(obj: &Json, key: &str) -> Result<Vec<u64>, SnapshotError> {
    get_arr(obj, key)?
        .iter()
        .map(|v| read_u64(v, key))
        .collect()
}

fn get_bool_vec(obj: &Json, key: &str) -> Result<Vec<bool>, SnapshotError> {
    get_arr(obj, key)?
        .iter()
        .map(|v| {
            v.as_bool()
                .ok_or_else(|| bad(format!("`{key}` entry is not a boolean")))
        })
        .collect()
}

fn get_nested_u32(obj: &Json, key: &str) -> Result<Vec<Vec<u32>>, SnapshotError> {
    get_arr(obj, key)?
        .iter()
        .map(|row| {
            row.as_array()
                .ok_or_else(|| bad(format!("`{key}` row is not an array")))?
                .iter()
                .map(|v| to_u32(v, key))
                .collect()
        })
        .collect()
}

fn read_pair(value: &Json, key: &str) -> Result<(u32, u32), SnapshotError> {
    let pair = value
        .as_array()
        .ok_or_else(|| bad(format!("`{key}` entry is not a pair")))?;
    if pair.len() != 2 {
        return Err(bad(format!("`{key}` entry is not a pair")));
    }
    Ok((to_u32(&pair[0], key)?, to_u32(&pair[1], key)?))
}

fn get_pairs(obj: &Json, key: &str) -> Result<Vec<(u32, u32)>, SnapshotError> {
    get_arr(obj, key)?
        .iter()
        .map(|v| read_pair(v, key))
        .collect()
}

fn get_nested_pairs(obj: &Json, key: &str) -> Result<Vec<Vec<(u32, u32)>>, SnapshotError> {
    get_arr(obj, key)?
        .iter()
        .map(|row| {
            row.as_array()
                .ok_or_else(|| bad(format!("`{key}` row is not an array")))?
                .iter()
                .map(|v| read_pair(v, key))
                .collect()
        })
        .collect()
}

// ----------------------------------------------------------- writing ----

fn u32s(values: &[u32]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::U64(u64::from(v))).collect())
}

fn u64s(values: &[u64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::U64(v)).collect())
}

fn nested_u32s(rows: &[Vec<u32>]) -> Json {
    Json::Arr(rows.iter().map(|row| u32s(row)).collect())
}

fn pairs(values: &[(u32, u32)]) -> Json {
    Json::Arr(
        values
            .iter()
            .map(|&(a, b)| Json::Arr(vec![Json::U64(u64::from(a)), Json::U64(u64::from(b))]))
            .collect(),
    )
}

fn nested_pairs(rows: &[Vec<(u32, u32)>]) -> Json {
    Json::Arr(rows.iter().map(|row| pairs(row)).collect())
}

fn matrix_json(mat: &ClosureMatrix) -> Json {
    Json::obj([
        ("nodes", Json::U64(mat.nodes as u64)),
        ("width", Json::U64(mat.width as u64)),
        ("fwd", u64s(&mat.fwd)),
        ("bwd", u64s(&mat.bwd)),
    ])
}

fn matrix_from_json(value: &Json, key: &str) -> Result<ClosureMatrix, SnapshotError> {
    let nodes = get_usize(value, "nodes")?;
    let width = get_usize(value, "width")?;
    let fwd = get_u64_vec(value, "fwd")?;
    let bwd = get_u64_vec(value, "bwd")?;
    if width == 0 {
        return Err(bad(format!("`{key}` has zero width")));
    }
    if nodes > width * WORD_BITS {
        return Err(bad(format!("`{key}` node count exceeds its width")));
    }
    if fwd.len() != nodes * width || bwd.len() != nodes * width {
        return Err(bad(format!("`{key}` slab sizes disagree with nodes×width")));
    }
    // Edge insertion iterates the set bits of a row as node indices and
    // takes every row to hold its own node: a bit at or beyond `nodes` would
    // index past the slab, a missing diagonal bit would lose the edge's own
    // endpoints. Only the words from the one holding column `nodes` onwards
    // can carry a padding bit.
    let mut padding = vec![0u64; width];
    for col in nodes..width * WORD_BITS {
        bits::set(&mut padding, col);
    }
    let tail = nodes / WORD_BITS;
    for (name, slab) in [("fwd", &fwd), ("bwd", &bwd)] {
        for (node, row) in slab.chunks_exact(width).enumerate() {
            if bits::intersects(&row[tail..], &padding[tail..]) {
                return Err(bad(format!(
                    "`{key}.{name}` row {node} has a bit beyond its node count"
                )));
            }
            if !bits::test(row, node) {
                return Err(bad(format!(
                    "`{key}.{name}` row {node} lacks its diagonal bit"
                )));
            }
        }
    }
    Ok(ClosureMatrix {
        nodes,
        width,
        fwd,
        bwd,
    })
}

/// Node-index bound check: `NONE_U32` is allowed when `none_ok`.
fn check_node(value: u32, nodes: usize, none_ok: bool, what: &str) -> Result<(), SnapshotError> {
    if value == NONE_U32 {
        if none_ok {
            return Ok(());
        }
        return Err(bad(format!("`{what}` has an unexpected NONE entry")));
    }
    if (value as usize) < nodes {
        Ok(())
    } else {
        Err(bad(format!("`{what}` entry {value} out of node range")))
    }
}

impl IncrementalAnalysis {
    /// Serializes the engine into a versioned JSON document.
    ///
    /// Everything appends and queries read is captured — counters,
    /// per-process tables, message records, the three closure matrices,
    /// and compaction state — except the undo journal: restored engines
    /// answer every query and accept every append byte-identically, but
    /// marks taken before the snapshot cannot be rewound to afterwards
    /// (they fail with a defined [`RewindError`], like marks across a
    /// compaction).
    pub fn snapshot_json(&self) -> Json {
        Json::obj([
            ("format", Json::Str(SNAPSHOT_FORMAT.to_string())),
            ("version", Json::U64(SNAPSHOT_VERSION)),
            ("n", Json::U64(self.n as u64)),
            ("events", Json::U64(self.events as u64)),
            ("untrackable", Json::U64(self.untrackable)),
            ("cp_count", u32s(&self.cp_count)),
            (
                "line_open",
                Json::Arr(self.line_open.iter().map(|&b| Json::Bool(b)).collect()),
            ),
            (
                "msgs",
                Json::Arr(
                    self.msgs
                        .iter()
                        .map(|m| {
                            u32s(&[
                                m.from,
                                m.to,
                                m.send_iv,
                                m.deliver_iv,
                                m.znode,
                                m.cnode,
                                m.spine,
                                m.tdv_row,
                            ])
                        })
                        .collect(),
                ),
            ),
            ("cur_tdv", u32s(&self.cur_tdv)),
            ("msg_tdv", u32s(&self.msg_tdv)),
            ("cp_tdv", u32s(&self.cp_tdv)),
            ("rmat", matrix_json(&self.rmat)),
            ("zmat", matrix_json(&self.zmat)),
            ("cmat", matrix_json(&self.cmat)),
            ("r_meta", pairs(&self.r_meta)),
            ("cp_nodes", nested_u32s(&self.cp_nodes)),
            ("z_slots", nested_u32s(&self.z_slots)),
            ("c_spine", nested_u32s(&self.c_spine)),
            ("c_delivs", nested_u32s(&self.c_delivs)),
            ("c_linked", u32s(&self.c_linked)),
            ("send_events", nested_pairs(&self.send_events)),
            ("deliver_events", nested_pairs(&self.deliver_events)),
            ("epoch", Json::U64(self.epoch)),
            ("watermark", u32s(&self.watermark)),
            ("cp_base", u32s(&self.cp_base)),
            ("slot_base", u32s(&self.slot_base)),
            ("chain_floor", u32s(&self.chain_floor)),
            ("drop_reach", u32s(&self.drop_reach)),
            ("compactions", Json::U64(self.compactions)),
            ("reclaimed_rows", Json::U64(self.reclaimed_rows)),
        ])
    }

    /// Restores an engine from a [`snapshot_json`]
    /// (IncrementalAnalysis::snapshot_json) document.
    ///
    /// The restore is **total and validating**: unknown formats, missing
    /// fields, wrong types, and — crucially — cross-table inconsistencies
    /// that would let a later append or query index out of bounds are all
    /// reported as [`SnapshotError`]s. The restored engine starts with an
    /// empty undo journal at the snapshot's compaction epoch.
    pub fn from_snapshot_json(doc: &Json) -> Result<IncrementalAnalysis, SnapshotError> {
        match field(doc, "format")?.as_str() {
            Some(SNAPSHOT_FORMAT) => {}
            _ => return Err(bad("not an rdt-rgraph snapshot")),
        }
        let version = get_u64(doc, "version")?;
        if version != SNAPSHOT_VERSION {
            return Err(bad(format!("unsupported snapshot version {version}")));
        }

        let n = get_usize(doc, "n")?;
        if n == 0 {
            return Err(bad("`n` must be at least 1"));
        }
        let events = get_usize(doc, "events")?;
        let untrackable = get_u64(doc, "untrackable")?;
        let cp_count = get_u32_vec(doc, "cp_count")?;
        let line_open = get_bool_vec(doc, "line_open")?;
        let msgs_json = get_arr(doc, "msgs")?;
        let cur_tdv = get_u32_vec(doc, "cur_tdv")?;
        let msg_tdv = get_u32_vec(doc, "msg_tdv")?;
        let cp_tdv = get_u32_vec(doc, "cp_tdv")?;
        let rmat = matrix_from_json(field(doc, "rmat")?, "rmat")?;
        let zmat = matrix_from_json(field(doc, "zmat")?, "zmat")?;
        let cmat = matrix_from_json(field(doc, "cmat")?, "cmat")?;
        let r_meta = get_pairs(doc, "r_meta")?;
        let cp_nodes = get_nested_u32(doc, "cp_nodes")?;
        let z_slots = get_nested_u32(doc, "z_slots")?;
        let c_spine = get_nested_u32(doc, "c_spine")?;
        let c_delivs = get_nested_u32(doc, "c_delivs")?;
        let c_linked = get_u32_vec(doc, "c_linked")?;
        let send_events = get_nested_pairs(doc, "send_events")?;
        let deliver_events = get_nested_pairs(doc, "deliver_events")?;
        let epoch = get_u64(doc, "epoch")?;
        let watermark = get_u32_vec(doc, "watermark")?;
        let cp_base = get_u32_vec(doc, "cp_base")?;
        let slot_base = get_u32_vec(doc, "slot_base")?;
        let chain_floor = get_u32_vec(doc, "chain_floor")?;
        let drop_reach = get_u32_vec(doc, "drop_reach")?;
        let compactions = get_u64(doc, "compactions")?;
        let reclaimed_rows = get_u64(doc, "reclaimed_rows")?;

        // ---- per-process table shapes -------------------------------
        for (name, len) in [
            ("cp_count", cp_count.len()),
            ("line_open", line_open.len()),
            ("cp_nodes", cp_nodes.len()),
            ("z_slots", z_slots.len()),
            ("c_spine", c_spine.len()),
            ("c_delivs", c_delivs.len()),
            ("c_linked", c_linked.len()),
            ("send_events", send_events.len()),
            ("deliver_events", deliver_events.len()),
            ("watermark", watermark.len()),
            ("cp_base", cp_base.len()),
            ("slot_base", slot_base.len()),
            ("chain_floor", chain_floor.len()),
        ] {
            if len != n {
                return Err(bad(format!("`{name}` length {len} != n = {n}")));
            }
        }
        if cur_tdv.len() != n * n {
            return Err(bad("`cur_tdv` is not n×n"));
        }
        if msg_tdv.len() % n != 0 {
            return Err(bad("`msg_tdv` is not a whole number of rows"));
        }
        let tdv_rows = msg_tdv.len() / n;

        // ---- R-layer invariants -------------------------------------
        if r_meta.len() != rmat.nodes {
            return Err(bad("`r_meta` length disagrees with `rmat` nodes"));
        }
        if cp_tdv.len() != rmat.nodes * n {
            return Err(bad("`cp_tdv` length disagrees with `rmat` nodes"));
        }
        if !drop_reach.is_empty() && drop_reach.len() != rmat.nodes * n {
            return Err(bad("`drop_reach` length disagrees with `rmat` nodes"));
        }
        for (p, meta) in r_meta.iter().enumerate() {
            if meta.0 as usize >= n {
                return Err(bad(format!("`r_meta` node {p} names an unknown process")));
            }
        }
        for p in 0..n {
            let have = cp_nodes[p].len() as u64;
            let want = u64::from(cp_count[p]) + 1 - u64::from(cp_base[p].min(cp_count[p] + 1));
            if cp_base[p] > cp_count[p] || have != want {
                return Err(bad(format!(
                    "`cp_nodes[{p}]` does not span cp_base..=cp_count"
                )));
            }
            for &node in &cp_nodes[p] {
                check_node(node, rmat.nodes, false, "cp_nodes")?;
            }
            for &slot in &z_slots[p] {
                check_node(slot, zmat.nodes, false, "z_slots")?;
            }
            for &node in &c_spine[p] {
                check_node(node, cmat.nodes, false, "c_spine")?;
            }
            for &node in &c_delivs[p] {
                check_node(node, cmat.nodes, false, "c_delivs")?;
            }
            if c_linked[p] as usize > c_delivs[p].len() {
                return Err(bad(format!("`c_linked[{p}]` exceeds its delivery count")));
            }
        }

        // ---- message records ----------------------------------------
        let mut msgs = Vec::with_capacity(msgs_json.len());
        for rec in msgs_json {
            let cols = rec
                .as_array()
                .ok_or_else(|| bad("`msgs` entry is not an array"))?;
            if cols.len() != 8 {
                return Err(bad("`msgs` entry does not have 8 columns"));
            }
            let mut vals = [0u32; 8];
            for (slot, col) in vals.iter_mut().zip(cols) {
                *slot = to_u32(col, "msgs")?;
            }
            let m = MsgRec {
                from: vals[0],
                to: vals[1],
                send_iv: vals[2],
                deliver_iv: vals[3],
                znode: vals[4],
                cnode: vals[5],
                spine: vals[6],
                tdv_row: vals[7],
            };
            if m.from as usize >= n || m.to as usize >= n {
                return Err(bad("`msgs` entry names an unknown process"));
            }
            check_node(m.znode, zmat.nodes, true, "msgs.znode")?;
            check_node(m.cnode, cmat.nodes, true, "msgs.cnode")?;
            check_node(m.spine, cmat.nodes, true, "msgs.spine")?;
            if m.tdv_row != NONE_U32 && m.tdv_row as usize >= tdv_rows {
                return Err(bad("`msgs` entry points past the piggyback table"));
            }
            msgs.push(m);
        }
        for (name, events) in [
            ("send_events", &send_events),
            ("deliver_events", &deliver_events),
        ] {
            for row in events.iter() {
                for &(_, mid) in row {
                    if mid as usize >= msgs.len() {
                        return Err(bad(format!("`{name}` names an unknown message")));
                    }
                }
            }
        }

        Ok(IncrementalAnalysis {
            n,
            journal: Vec::new(),
            events,
            untrackable,
            cp_count,
            line_open,
            msgs,
            cur_tdv,
            msg_tdv,
            cp_tdv,
            rmat,
            r_meta,
            cp_nodes,
            zmat,
            z_slots,
            cmat,
            c_spine,
            c_delivs,
            c_linked,
            send_events,
            deliver_events,
            scratch: EdgeScratch::default(),
            epoch,
            watermark,
            cp_base,
            slot_base,
            chain_floor,
            drop_reach,
            compactions,
            reclaimed_rows,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdt_causality::ProcessId;

    /// `doc[mat][slab][word]`, mutably.
    fn slab_word<'a>(doc: &'a mut Json, mat: &str, slab: &str, word: usize) -> &'a mut u64 {
        fn entry<'a>(obj: &'a mut Json, key: &str) -> &'a mut Json {
            match obj {
                Json::Obj(fields) => &mut fields.iter_mut().find(|(k, _)| k == key).unwrap().1,
                _ => panic!("not an object"),
            }
        }
        match entry(entry(doc, mat), slab) {
            Json::Arr(words) => match &mut words[word] {
                Json::U64(w) => w,
                _ => panic!("not a word"),
            },
            _ => panic!("not a slab"),
        }
    }

    /// A closure row with a bit at a column `≥ nodes` would index past the
    /// slab on the next append; a row without its diagonal bit breaks the
    /// reflexivity edge insertion builds on. Both are rejected, in all
    /// three matrices and both slabs.
    #[test]
    fn padding_bits_and_missing_diagonals_are_rejected() {
        let (p0, p1) = (ProcessId::new(0), ProcessId::new(1));
        let mut incr = IncrementalAnalysis::new(2);
        incr.append_checkpoint(p0);
        let m = incr.append_send(p0, p1);
        incr.append_deliver(m);
        let good = incr.snapshot_json();
        assert!(IncrementalAnalysis::from_snapshot_json(&good).is_ok());

        for mat in ["rmat", "zmat", "cmat"] {
            for slab in ["fwd", "bwd"] {
                // Every matrix is one word wide here, so word 1 is row 1.
                let mut doc = good.clone();
                *slab_word(&mut doc, mat, slab, 1) |= 1 << 40;
                let err = IncrementalAnalysis::from_snapshot_json(&doc).unwrap_err();
                assert!(err.message.contains("beyond its node count"), "{err}");

                let mut doc = good.clone();
                *slab_word(&mut doc, mat, slab, 1) &= !(1 << 1);
                let err = IncrementalAnalysis::from_snapshot_json(&doc).unwrap_err();
                assert!(err.message.contains("diagonal"), "{err}");
            }
        }
    }

    /// The reported reproduction: were this document restored, the next
    /// checkpoint of `p0` would panic with an index out of bounds.
    #[test]
    fn padding_bit_in_rmat_bwd_no_longer_panics_the_next_append() {
        let mut incr = IncrementalAnalysis::new(2);
        incr.append_checkpoint(ProcessId::new(0));
        let mut doc = incr.snapshot_json();
        *slab_word(&mut doc, "rmat", "bwd", 2) |= 1 << 40;
        assert!(IncrementalAnalysis::from_snapshot_json(&doc).is_err());
    }
}
