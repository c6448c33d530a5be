//! Engine snapshot/restore for [`IncrementalAnalysis`].
//!
//! A snapshot captures everything the engine needs to keep answering
//! queries and accepting appends: counters, per-process tables, message
//! records, the R-graph closure, the compaction state, and — under one
//! `chains` key, on an instantiation that carries the chain layer — the
//! chain closures. The undo **journal is deliberately excluded**: appends
//! and queries never read it, so a restored engine produces byte-identical
//! answers to the uninterrupted original; only rewinds to pre-snapshot
//! marks become defined [`RewindError`]s, mirroring the compaction-boundary
//! rule.
//!
//! The format is a single versioned JSON object, reloaded with the total
//! [`Json::parse_bytes`]. Restore validates every cross-table invariant the
//! append/query paths rely on for in-bounds indexing, so a corrupted or
//! hand-edited snapshot is a [`SnapshotError`], never a panic later on.
//!
//! # One description of the written form
//!
//! The written form has one description, and it is a writer:
//! [`write_snapshot`](IncrementalAnalysis::write_snapshot) lists the tables
//! once, in document order, and renders them straight from the engine's
//! vectors into the caller's byte buffer through [`JsonWriter`] — no [`Json`]
//! tree, no allocation per row or per number. A tree of a few hundred
//! thousand nodes cost the daemon four times what the 1.7 MB of text it
//! stood for cost to write, so nothing on the persistence path builds one.
//! [`snapshot_json`](IncrementalAnalysis::snapshot_json) is the *parsed form
//! of that text*, kept for the callers that edit a document field by field
//! (tests that corrupt one, the benchmark's ladder); the writer emits the
//! canonical compact form, so the two agree exactly
//! (`tests/snapshot_bytes.rs` holds the bytes to a golden and to digests
//! captured from the tree builder this writer replaced).
//!
//! One table of the engine is not in the document as it stands: `reach`,
//! the backward closure as one vector per node. Its retained half is what
//! the `rmat.bwd` rows say and its compacted-away half is the `drop_reach`
//! table the format has always had, so the writer derives `drop_reach` from
//! it (`write_drop_reach`) and restore joins the two back together
//! (`rebuild_reach`, one pass over `rmat.bwd`) — the bytes are those of the
//! engine that kept `drop_reach` itself. Restore also bounds every counter
//! an append increments or the reach fold offsets by one (`cp_count`, the
//! three `TDV` tables, `drop_reach`, the `r_meta` indices) by what the
//! pattern can hold, so a document cannot hand the engine a value its next
//! append overflows.
//!
//! # Versions
//!
//! * **2** (written): the core tables; `msgs` rows are
//!   `[from, to, send_iv, deliver_iv, tdv_row]`.
//! * **1** (read): the format of the engine that always carried the chain
//!   layer — `msgs` rows eight columns wide (`znode`, `cnode`, `spine`
//!   before `tdv_row`), eight chain tables and a `compactions` counter
//!   (always equal to `epoch`) at the top level. The core tables are
//!   validated exactly as in a version 2 document, the five core columns of
//!   each `msgs` row are kept and the rest is not read. `reclaimed_rows` is
//!   carried as stored: a monotone counter that in a version 1 document
//!   also counted chain rows.
//!
//! Any other version is [`SnapshotErrorKind::UnsupportedVersion`].

use rdt_json::{Json, JsonWriter};

use super::*;

/// Identifies the snapshot format inside the JSON document.
pub const SNAPSHOT_FORMAT: &str = "rdt-rgraph-snapshot";

/// Snapshot format version written by [`IncrementalAnalysis::write_snapshot`].
pub const SNAPSHOT_VERSION: u64 = 2;

/// What kind of rejection a [`SnapshotError`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotErrorKind {
    /// The document is not an rdt-rgraph snapshot at all.
    Format,
    /// A snapshot of a version this build neither writes nor upgrades.
    UnsupportedVersion {
        /// The version the document declares.
        found: u64,
    },
    /// A snapshot of a supported version with a missing, mistyped or
    /// inconsistent table.
    Invalid,
}

/// Why a snapshot could not be restored. The input is rejected wholesale;
/// no partially-restored engine is ever returned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotError {
    /// The kind of rejection.
    pub kind: SnapshotErrorKind,
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
        kind: SnapshotErrorKind::Invalid,
        message: message.into(),
    }
}

// ----------------------------------------------------------- reading ----

type Read<T> = fn(&Json, &str) -> Result<T, SnapshotError>;

fn field<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, SnapshotError> {
    obj.get(key).ok_or_else(|| bad(format!("missing `{key}`")))
}

fn read_u64(value: &Json, key: &str) -> Result<u64, SnapshotError> {
    match *value {
        Json::U64(v) => Ok(v),
        _ => Err(bad(format!("`{key}` is not an unsigned integer"))),
    }
}

fn read_u32(value: &Json, key: &str) -> Result<u32, SnapshotError> {
    u32::try_from(read_u64(value, key)?).map_err(|_| bad(format!("`{key}` entry out of range")))
}

fn read_bool(value: &Json, key: &str) -> Result<bool, SnapshotError> {
    value
        .as_bool()
        .ok_or_else(|| bad(format!("`{key}` entry is not a boolean")))
}

fn read_pair(value: &Json, key: &str) -> Result<(u32, u32), SnapshotError> {
    match value.as_array() {
        Some([a, b]) => Ok((read_u32(a, key)?, read_u32(b, key)?)),
        _ => Err(bad(format!("`{key}` entry is not a pair"))),
    }
}

fn read_vec<T>(value: &Json, key: &str, read: Read<T>) -> Result<Vec<T>, SnapshotError> {
    let items = value
        .as_array()
        .ok_or_else(|| bad(format!("`{key}` is not an array")))?;
    items.iter().map(|v| read(v, key)).collect()
}

fn get_u64(obj: &Json, key: &str) -> Result<u64, SnapshotError> {
    read_u64(field(obj, key)?, key)
}

fn get_usize(obj: &Json, key: &str) -> Result<usize, SnapshotError> {
    usize::try_from(get_u64(obj, key)?).map_err(|_| bad(format!("`{key}` out of range")))
}

fn get_vec<T>(obj: &Json, key: &str, read: Read<T>) -> Result<Vec<T>, SnapshotError> {
    read_vec(field(obj, key)?, key, read)
}

/// One row per process (or per message): an array of arrays.
fn get_rows<T>(obj: &Json, key: &str, read: Read<T>) -> Result<Vec<Vec<T>>, SnapshotError> {
    let rows = field(obj, key)?.as_array();
    let rows = rows.ok_or_else(|| bad(format!("`{key}` is not an array")))?;
    rows.iter().map(|row| read_vec(row, key, read)).collect()
}

// ----------------------------------------------------------- writing ----

fn write_rows(w: &mut JsonWriter<'_>, rows: &[Vec<u32>]) {
    w.array(rows, |w, row| w.u32s(row));
}

fn write_tuples(w: &mut JsonWriter<'_>, values: &[(u32, u32)]) {
    w.array(values, |w, &(a, b)| w.u32s(&[a, b]));
}

fn write_matrix(w: &mut JsonWriter<'_>, mat: &ClosureMatrix) {
    w.begin_object();
    w.key("nodes").u64(mat.nodes as u64);
    w.key("width").u64(mat.width as u64);
    w.key("fwd").u64s(&mat.fwd);
    w.key("bwd").u64s(&mat.bwd);
    w.end_object();
}

fn matrix_from_json(obj: &Json, key: &str) -> Result<ClosureMatrix, SnapshotError> {
    let value = field(obj, key)?;
    let nodes = get_usize(value, "nodes")?;
    let width = get_usize(value, "width")?;
    let fwd = get_vec(value, "fwd", read_u64)?;
    let bwd = get_vec(value, "bwd", read_u64)?;
    if width == 0 {
        return Err(bad(format!("`{key}` has zero width")));
    }
    if nodes > width.saturating_mul(WORD_BITS) || nodes > MAX_CLOSURE_NODES {
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
    Ok(ClosureMatrix::from_slabs(nodes, width, fwd, bwd))
}

/// Node-index bound check: `NONE_U32` is allowed when `none_ok`.
fn check_node(value: u32, nodes: usize, none_ok: bool, what: &str) -> Result<(), SnapshotError> {
    match value {
        NONE_U32 if none_ok => Ok(()),
        NONE_U32 => Err(bad(format!("`{what}` has an unexpected NONE entry"))),
        value if (value as usize) < nodes => Ok(()),
        value => Err(bad(format!("`{what}` entry {value} out of node range"))),
    }
}

/// A table with exactly one entry per process.
fn per_process<T>(table: Vec<T>, n: usize, key: &str) -> Result<Vec<T>, SnapshotError> {
    match table.len() {
        len if len == n => Ok(table),
        len => Err(bad(format!("`{key}` length {len} != n = {n}"))),
    }
}

// -------------------------------------------------------- chain layer ----

/// Writes the chain layer's tables as the document's `chains` member.
pub(super) fn write_chains(w: &mut JsonWriter<'_>, chains: &Chains) {
    w.key("chains").begin_object();
    w.key("recs").array(&chains.recs, |w, rec| w.u32s(rec));
    write_matrix(w.key("zmat"), &chains.zmat);
    write_matrix(w.key("cmat"), &chains.cmat);
    write_rows(w.key("z_slots"), &chains.z_slots);
    write_rows(w.key("c_spine"), &chains.c_spine);
    write_rows(w.key("c_delivs"), &chains.c_delivs);
    w.key("c_linked").u32s(&chains.c_linked);
    w.key("slot_base").u32s(&chains.slot_base);
    w.end_object();
}

/// Reads and validates the `chains` key of `doc` for an engine of `n`
/// processes and `msgs` messages.
pub(super) fn chains_from_json(doc: &Json, n: usize, msgs: usize) -> Result<Chains, SnapshotError> {
    let obj = field(doc, "chains")?;
    let zmat = matrix_from_json(obj, "zmat")?;
    let cmat = matrix_from_json(obj, "cmat")?;
    let z_slots = per_process(get_rows(obj, "z_slots", read_u32)?, n, "z_slots")?;
    let c_spine = per_process(get_rows(obj, "c_spine", read_u32)?, n, "c_spine")?;
    let c_delivs = per_process(get_rows(obj, "c_delivs", read_u32)?, n, "c_delivs")?;
    let c_linked = per_process(get_vec(obj, "c_linked", read_u32)?, n, "c_linked")?;
    let slot_base = per_process(get_vec(obj, "slot_base", read_u32)?, n, "slot_base")?;
    for p in 0..n {
        for &slot in &z_slots[p] {
            check_node(slot, zmat.nodes, false, "z_slots")?;
        }
        for &node in c_spine[p].iter().chain(&c_delivs[p]) {
            check_node(node, cmat.nodes, false, "c_spine/c_delivs")?;
        }
        if c_linked[p] as usize > c_delivs[p].len() {
            return Err(bad(format!("`c_linked[{p}]` exceeds its delivery count")));
        }
    }
    let mut recs = Vec::with_capacity(msgs);
    for row in get_rows(obj, "recs", read_u32)? {
        let Ok(rec @ [znode, cnode, spine]) = <[u32; 3]>::try_from(row) else {
            return Err(bad("`recs` entry does not have 3 columns"));
        };
        check_node(znode, zmat.nodes, true, "recs.znode")?;
        check_node(cnode, cmat.nodes, true, "recs.cnode")?;
        check_node(spine, cmat.nodes, true, "recs.spine")?;
        recs.push(rec);
    }
    if recs.len() != msgs {
        return Err(bad("`recs` length disagrees with `msgs`"));
    }
    Ok(Chains {
        zmat,
        z_slots,
        slot_base,
        cmat,
        c_spine,
        c_delivs,
        c_linked,
        recs,
    })
}

// --------------------------------------------------------------- core ----

impl<C: ChainLayer, J: Journal> IncrementalAnalysis<C, J> {
    /// Writes the engine as one versioned JSON document (one value of `w`):
    /// everything appends and queries read (the chain layer's tables, where
    /// there is one, under `chains`) and not the undo journal. Restored
    /// engines answer every query and accept every append byte-identically,
    /// but marks taken before the snapshot cannot be rewound to afterwards
    /// (a defined [`RewindError`], like marks across a compaction).
    ///
    /// This is the description of the written form: the tables and their
    /// order are listed here and nowhere else.
    pub fn write_snapshot(&self, w: &mut JsonWriter<'_>) {
        w.begin_object();
        w.key("format").str(SNAPSHOT_FORMAT);
        w.key("version").u64(SNAPSHOT_VERSION);
        w.key("n").u64(self.n as u64);
        w.key("events").u64(self.events as u64);
        w.key("untrackable").u64(self.untrackable);
        w.key("cp_count").u32s(&self.cp_count);
        w.key("line_open")
            .array(&self.line_open, |w, &open| w.bool(open));
        w.key("msgs").array(&self.msgs, |w, m| {
            w.u32s(&[m.from, m.to, m.send_iv, m.deliver_iv, m.tdv_row])
        });
        w.key("cur_tdv").u32s(&self.cur_tdv);
        w.key("msg_tdv").u32s(&self.msg_tdv);
        w.key("cp_tdv").u32s(&self.cp_tdv);
        write_matrix(w.key("rmat"), &self.rmat);
        write_tuples(w.key("r_meta"), &self.r_meta);
        write_rows(w.key("cp_nodes"), &self.cp_nodes);
        w.key("send_events")
            .array(&self.send_events, |w, row| write_tuples(w, row));
        w.key("deliver_events")
            .array(&self.deliver_events, |w, row| write_tuples(w, row));
        w.key("epoch").u64(self.epoch);
        w.key("watermark").u32s(&self.watermark);
        w.key("cp_base").u32s(&self.cp_base);
        self.write_drop_reach(w.key("drop_reach"));
        w.key("reclaimed_rows").u64(self.reclaimed_rows);
        self.chains.write_snapshot(w);
        w.end_object();
    }

    /// The document's `drop_reach` table, derived from `reach`: per R-node
    /// and process the greatest index of a *compacted-away* checkpoint with
    /// an R-path to the node ([`NONE_U32`] = none), empty before the first
    /// state-discarding compaction. The reaching checkpoints of a process
    /// are a prefix, so the dropped ones among them are the prefix cut at
    /// `cp_base`; the retained part of `reach` is what `rmat.bwd` says and
    /// is not written twice.
    fn write_drop_reach(&self, w: &mut JsonWriter<'_>) {
        w.begin_array();
        if self.epoch > 0 {
            for row in self.reach.chunks_exact(self.n) {
                for (&reach, &base) in row.iter().zip(&self.cp_base) {
                    let dropped = reach.min(base).checked_sub(1);
                    w.u64(u64::from(dropped.unwrap_or(NONE_U32)));
                }
            }
        }
        w.end_array();
    }

    /// The snapshot as a [`Json`] tree: the parsed form of what
    /// [`write_snapshot`](IncrementalAnalysis::write_snapshot) writes, for
    /// callers that take a document apart. Nothing that persists an engine
    /// goes through it.
    pub fn snapshot_json(&self) -> Json {
        let mut text = Vec::new();
        self.write_snapshot(&mut JsonWriter::new(&mut text));
        Json::parse_bytes(&text).expect("the writer emits well-formed JSON")
    }

    /// Restores an engine of this instantiation from the parsed form of a
    /// [`write_snapshot`](IncrementalAnalysis::write_snapshot) document.
    ///
    /// The restore is **total and validating**: unknown formats, missing
    /// fields, wrong types, and — crucially — cross-table inconsistencies
    /// that would let a later append or query index out of bounds are all
    /// [`SnapshotError`]s. Version 1 documents are upgraded (see the module
    /// documentation); a chain-free engine ignores chain tables, a
    /// chain-bearing one requires the `chains` key. The restored engine
    /// starts with an empty undo journal at the snapshot's compaction epoch.
    pub fn layered_from_snapshot(doc: &Json) -> Result<Self, SnapshotError> {
        if doc.get("format").and_then(Json::as_str) != Some(SNAPSHOT_FORMAT) {
            return Err(SnapshotError {
                kind: SnapshotErrorKind::Format,
                message: "not an rdt-rgraph snapshot".into(),
            });
        }
        // Width of a `msgs` row and the column of `tdv_row` in it.
        let (msg_cols, tdv_col) = match get_u64(doc, "version")? {
            SNAPSHOT_VERSION => (5, 4),
            1 => (8, 7),
            found => {
                return Err(SnapshotError {
                    kind: SnapshotErrorKind::UnsupportedVersion { found },
                    message: format!("unsupported snapshot version {found}"),
                })
            }
        };

        let n = get_usize(doc, "n")?;
        if n == 0 {
            return Err(bad("`n` must be at least 1"));
        }
        let vec32 = |key| per_process(get_vec(doc, key, read_u32)?, n, key);
        let cp_count = vec32("cp_count")?;
        let msg_tdv = get_vec(doc, "msg_tdv", read_u32)?;
        if msg_tdv.len() % n != 0 {
            return Err(bad("`msg_tdv` is not a whole number of rows"));
        }

        // ---- message records ----------------------------------------
        // Intervals are 1-based and at most one past the last checkpoint
        // (the consistency descents step to `deliver_iv - 1`).
        let placed = |iv: u32, p: u32| (1..=cp_count[p as usize].saturating_add(1)).contains(&iv);
        let mut msgs = Vec::new();
        for row in get_rows(doc, "msgs", read_u32)? {
            if row.len() != msg_cols {
                return Err(bad(format!(
                    "`msgs` entry does not have {msg_cols} columns"
                )));
            }
            let m = MsgRec {
                from: row[0],
                to: row[1],
                send_iv: row[2],
                deliver_iv: row[3],
                tdv_row: row[tdv_col],
            };
            if m.from as usize >= n || m.to as usize >= n {
                return Err(bad("`msgs` entry names an unknown process"));
            }
            if !placed(m.send_iv, m.from)
                || !(m.deliver_iv == NONE_U32 || placed(m.deliver_iv, m.to))
            {
                return Err(bad(
                    "`msgs` entry sits in an interval its process does not have",
                ));
            }
            if m.tdv_row != NONE_U32 && m.tdv_row as usize >= msg_tdv.len() / n {
                return Err(bad("`msgs` entry points past the piggyback table"));
            }
            msgs.push(m);
        }

        let drop_reach = get_vec(doc, "drop_reach", read_u32)?;
        let mut engine = IncrementalAnalysis {
            n,
            chains: C::restore(doc, n, msgs.len())?,
            journal: J::default(),
            events: get_usize(doc, "events")?,
            untrackable: get_u64(doc, "untrackable")?,
            line_open: per_process(get_vec(doc, "line_open", read_bool)?, n, "line_open")?,
            msgs,
            cur_tdv: get_vec(doc, "cur_tdv", read_u32)?,
            msg_tdv,
            cp_tdv: get_vec(doc, "cp_tdv", read_u32)?,
            reach: Vec::new(),
            rmat: matrix_from_json(doc, "rmat")?,
            r_meta: get_vec(doc, "r_meta", read_pair)?,
            cp_nodes: per_process(get_rows(doc, "cp_nodes", read_u32)?, n, "cp_nodes")?,
            send_events: per_process(get_rows(doc, "send_events", read_pair)?, n, "send_events")?,
            deliver_events: per_process(
                get_rows(doc, "deliver_events", read_pair)?,
                n,
                "deliver_events",
            )?,
            epoch: get_u64(doc, "epoch")?,
            watermark: vec32("watermark")?,
            cp_base: vec32("cp_base")?,
            cp_count,
            reclaimed_rows: get_u64(doc, "reclaimed_rows")?,
            // Not in the document: the first compaction after a restore
            // walks the table once and finds the cursor again.
            settled: 0,
        };
        engine.check_core_tables(&drop_reach)?;
        engine.rebuild_reach(&drop_reach);
        Ok(engine)
    }

    /// `reach` of a restored engine, from the two halves the document
    /// holds it in (both validated): `drop_reach` for the compacted-away
    /// checkpoints and the `rmat.bwd` rows for the retained ones. Of each
    /// process the retained checkpoints reaching a node are a prefix of
    /// `cp_nodes[q]`, and along a process's own checkpoints that prefix only
    /// grows (Rule 1: what reaches one reaches the next), so the join walks
    /// each process's nodes oldest first with one cursor per lane: about two
    /// bit tests per entry instead of a walk over every set bit.
    fn rebuild_reach(&mut self, drop_reach: &[u32]) {
        let n = self.n;
        // `NONE_U32` wraps to 0: the table is stored one up.
        self.reach = drop_reach.iter().map(|d| d.wrapping_add(1)).collect();
        self.reach.resize(self.rmat.nodes * n, 0);
        let mut ends = vec![0usize; n];
        for own in &self.cp_nodes {
            ends.fill(0);
            for &y in own {
                let preds = self.rmat.row(true, y as usize);
                let row = self.reach[y as usize * n..][..n].iter_mut();
                let lanes = row.zip(&mut ends).zip(&self.cp_nodes).zip(&self.cp_base);
                for (((lane, end), nodes), &base) in lanes {
                    while (nodes.get(*end)).is_some_and(|&x| bits::test(preds, x as usize)) {
                        *end += 1;
                    }
                    // A retained checkpoint is above every dropped one.
                    if *end > 0 {
                        *lane = base + *end as u32;
                    }
                }
            }
        }
    }

    /// The cross-table invariants of the core that appends and queries
    /// index through, and the bounds on every counter an append increments
    /// or the reach fold offsets by one.
    fn check_core_tables(&self, drop_reach: &[u32]) -> Result<(), SnapshotError> {
        let (n, nodes) = (self.n, self.rmat.nodes);
        if self.cur_tdv.len() != n * n {
            return Err(bad("`cur_tdv` is not n×n"));
        }
        if self.r_meta.len() != nodes {
            return Err(bad("`r_meta` length disagrees with `rmat` nodes"));
        }
        if self.cp_tdv.len() != nodes * n {
            return Err(bad("`cp_tdv` length disagrees with `rmat` nodes"));
        }
        if !drop_reach.is_empty() && drop_reach.len() != nodes * n {
            return Err(bad("`drop_reach` length disagrees with `rmat` nodes"));
        }
        // The next checkpoint of `p` takes `cp_count[p] + 1` as its index
        // and leaves `cp_count[p] + 2` in `reach` and in `p`'s own `TDV`
        // entry, which the fold offsets by one wherever it is seen.
        if let Some(p) = self.cp_count.iter().position(|&c| c > NONE_U32 - 3) {
            return Err(bad(format!(
                "`cp_count[{p}]` leaves no room for another checkpoint"
            )));
        }
        // A `TDV` entry names an interval of its process: at most the open
        // one, `cp_count + 1`.
        for (key, table) in [
            ("cur_tdv", &self.cur_tdv),
            ("msg_tdv", &self.msg_tdv),
            ("cp_tdv", &self.cp_tdv),
        ] {
            let beyond = |row: &[u32]| row.iter().zip(&self.cp_count).any(|(&iv, &c)| iv > c + 1);
            if table.chunks_exact(n).any(beyond) {
                return Err(bad(format!(
                    "`{key}` entry names an interval its process does not have"
                )));
            }
        }
        let retained = |row: &[u32]| {
            let kept = |(&d, &base): (&u32, &u32)| d != NONE_U32 && d >= base;
            row.iter().zip(&self.cp_base).any(kept)
        };
        if drop_reach.chunks_exact(n).any(retained) {
            return Err(bad(
                "`drop_reach` entry names a checkpoint that was not dropped",
            ));
        }
        for (node, &(p, index)) in self.r_meta.iter().enumerate() {
            let Some(&count) = self.cp_count.get(p as usize) else {
                return Err(bad(format!(
                    "`r_meta` node {node} names an unknown process"
                )));
            };
            if !(self.cp_base[p as usize]..=count).contains(&index) {
                return Err(bad(format!(
                    "`r_meta` node {node} is not a retained checkpoint of its process"
                )));
            }
        }
        for p in 0..n {
            let (base, count) = (self.cp_base[p], self.cp_count[p]);
            if base > count || self.cp_nodes[p].len() as u64 != u64::from(count - base) + 1 {
                return Err(bad(format!(
                    "`cp_nodes[{p}]` does not span cp_base..=cp_count"
                )));
            }
            for &node in &self.cp_nodes[p] {
                check_node(node, nodes, false, "cp_nodes")?;
            }
        }
        for (name, events) in [
            ("send_events", &self.send_events),
            ("deliver_events", &self.deliver_events),
        ] {
            let unknown = |&(_, mid): &(u32, u32)| mid as usize >= self.msgs.len();
            if events.iter().flatten().any(unknown) {
                return Err(bad(format!("`{name}` names an unknown message")));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdt_causality::ProcessId;

    /// `doc[mat][slab][word]`, mutably (`mat` may be a `/`-separated path).
    fn slab_word<'a>(doc: &'a mut Json, mat: &str, slab: &str, word: usize) -> &'a mut u64 {
        fn entry<'a>(obj: &'a mut Json, key: &str) -> &'a mut Json {
            match obj {
                Json::Obj(fields) => &mut fields.iter_mut().find(|(k, _)| k == key).unwrap().1,
                _ => panic!("not an object"),
            }
        }
        match entry(mat.split('/').fold(doc, entry), slab) {
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
        let mut incr = FullAnalysis::layered(2);
        incr.append_checkpoint(p0);
        let m = incr.append_send(p0, p1);
        incr.append_deliver(m);
        let good = incr.snapshot_json();
        assert!(FullAnalysis::layered_from_snapshot(&good).is_ok());

        for mat in ["rmat", "chains/zmat", "chains/cmat"] {
            for slab in ["fwd", "bwd"] {
                // Every matrix is one word wide here, so word 1 is row 1.
                let mut doc = good.clone();
                *slab_word(&mut doc, mat, slab, 1) |= 1 << 40;
                let err = FullAnalysis::layered_from_snapshot(&doc).unwrap_err();
                assert!(err.message.contains("beyond its node count"), "{err}");

                let mut doc = good.clone();
                *slab_word(&mut doc, mat, slab, 1) &= !(1 << 1);
                let err = FullAnalysis::layered_from_snapshot(&doc).unwrap_err();
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
