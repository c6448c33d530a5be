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
//! The format is a single versioned JSON object, and neither direction
//! builds a [`Json`](rdt_json::Json) tree of it: a tree of a few hundred
//! thousand nodes cost the daemon four times what the text it stood for cost
//! to write, and three times what it costs to read.
//!
//! # One description of the written form
//!
//! One private renderer lists the tables once, in document order, and renders
//! them straight from the engine's vectors into the caller's byte buffer
//! through [`JsonWriter`];
//! [`write_snapshot`](IncrementalAnalysis::write_snapshot) and
//! [`write_snapshot_cached`](IncrementalAnalysis::write_snapshot_cached) are
//! its two entries.
//! [`snapshot_json`](IncrementalAnalysis::snapshot_json) is the *parsed form
//! of that text*, kept for the callers that edit a document field by field
//! (tests that corrupt one, the benchmark's ladder); the writer emits the
//! canonical compact form, so the two agree exactly
//! (`tests/snapshot_bytes.rs` holds the bytes to goldens).
//!
//! # What a render costs: the cache
//!
//! Four tables only grow within a compaction epoch, and a row once written
//! is never revised: the `TDV` a message piggybacks (`msg_tdv`), the `TDV` a
//! checkpoint records (`cp_tdv`, Corollary 4.5's vector), the checkpoint an
//! R-node stands for (`r_meta`), and every `msgs` row of a delivered message
//! (its delivery interval is set once). A [`SnapshotCache`] keeps, per table,
//! the comma-joined text of the rows already rendered and how many rows that
//! is, plus the `epoch` it was rendered at.
//! [`write_snapshot_cached`](IncrementalAnalysis::write_snapshot_cached)
//! renders only the rows the cache does not cover, adds to it those that can
//! no longer change, and copies the rest from it; between two persists of a
//! long stream that is what was appended in between, plus the `msgs` rows
//! from the first message still in transit on. The invariant: **the text of
//! a cache is the text of the first `rows` rows of its table, at its
//! `epoch`**. It holds because within an epoch those rows are never written
//! again, and a compaction — which renumbers `tdv_row`s and lets the per-node
//! tables close ranks — bumps `epoch`, which empties the cache. A cache that
//! claims more rows than its table holds (it was handed another engine's
//! state) starts over rather than slicing.
//!
//! The cached entry exists only on `IncrementalAnalysis<C, NoJournal>`. A
//! rewind truncates tables and un-delivers messages without touching
//! `epoch`, and can regrow a table to the same length with other rows, which
//! no row count could tell from the rows it rendered; an engine without a
//! journal cannot rewind, so there the invariant holds by construction.
//! [`write_snapshot`](IncrementalAnalysis::write_snapshot), on every
//! instantiation, is the same renderer with a fresh cache.
//!
//! # One way back
//!
//! Every version restores through one path:
//! [`read_snapshot`](IncrementalAnalysis::read_snapshot) pulls the text
//! through a [`JsonReader`] into [`SnapshotTables`] — typed vectors, one per
//! table, the keys in any order, a key the engine does not know skipped with
//! nothing kept, a key it knows **rejected if it comes twice** — and
//! [`from_snapshot_tables`](IncrementalAnalysis::from_snapshot_tables)
//! validates the tables against each other and builds the engine. The two
//! steps are separate so that a caller with many documents in one file (the
//! daemon) can read them in sequence and build them in parallel. Restore
//! validates every cross-table invariant the append/query paths rely on for
//! in-bounds indexing, so a corrupted or hand-edited snapshot is a
//! [`SnapshotError`], never a panic later on. It also bounds every counter
//! an append increments or the reach fold offsets by one (`cp_count`, the
//! three `TDV` tables, `drop_reach`, the `r_meta` indices) by what the
//! pattern can hold, so a document cannot hand the engine a value its next
//! append overflows.
//!
//! Three tables of the engine are not in the document, because the others
//! determine them:
//!
//! * the transposes of the closure matrices. A matrix is written as `nodes`,
//!   `width` and its forward slab; restore checks that slab (no bit beyond
//!   `nodes`, every diagonal bit set — which is all its transpose needs to be
//!   in bounds and reflexive too) and transposes it, 64×64 bits at a time.
//! * `send_events` / `deliver_events`, the per-process indices into the
//!   message table. `send_events[p]` is the messages from `p` in handle
//!   order (a process's send intervals only grow, and restore rejects a table
//!   in which they do not); `deliver_events[p]` is the messages delivered at
//!   `p` by `(deliver_iv, handle)`. The engine appends deliveries in arrival
//!   order, which inside one interval need not be handle order, but every
//!   reader of the table — the Rule 2 edges of the checkpoint that closes the
//!   interval, the chain layer's per-interval masks — reads an interval's
//!   entries as a set, so the order inside it is not state.
//! * `reach`, the backward closure as one vector per node. Its retained half
//!   is what the transposed rows say and its compacted-away half is the
//!   `drop_reach` table the format has always had, so the writer derives
//!   `drop_reach` from it (`write_drop_reach`) and restore joins the two back
//!   together (`rebuild_reach`).
//!
//! # Versions
//!
//! * **3** (written): the core tables; `msgs` rows are
//!   `[from, to, send_iv, deliver_iv, tdv_row]`; matrices are
//!   `{nodes, width, fwd}`.
//! * **2** (read): version 3 plus the tables version 3 derives — `bwd` in
//!   every matrix, `send_events` and `deliver_events`. They are skipped like
//!   any unknown key, **not trusted**: a version 2 document restores to the
//!   engine its other tables describe.
//! * **1** (read): the format of the engine that always carried the chain
//!   layer — version 2 with `msgs` rows eight columns wide (`znode`, `cnode`,
//!   `spine` before `tdv_row`), eight chain tables and a `compactions`
//!   counter (always equal to `epoch`) at the top level. The five core
//!   columns of each `msgs` row are kept and the rest is not read.
//!   `reclaimed_rows` is carried as stored: a monotone counter that in a
//!   version 1 document also counted chain rows.
//!
//! Any other version is [`SnapshotErrorKind::UnsupportedVersion`]. Whatever
//! is read, version 3 is what is written next.

use rdt_json::{Json, JsonError, JsonReader, JsonWriter};

use super::*;

/// Identifies the snapshot format inside the JSON document.
pub const SNAPSHOT_FORMAT: &str = "rdt-rgraph-snapshot";

/// Snapshot format version written by [`IncrementalAnalysis::write_snapshot`].
pub const SNAPSHOT_VERSION: u64 = 3;

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
    /// A snapshot of a supported version that is malformed text or has a
    /// missing, repeated, mistyped or inconsistent table.
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

impl From<JsonError> for SnapshotError {
    fn from(e: JsonError) -> Self {
        bad(e.to_string())
    }
}

fn bad(message: impl Into<String>) -> SnapshotError {
    SnapshotError {
        kind: SnapshotErrorKind::Invalid,
        message: message.into(),
    }
}

// ----------------------------------------------------------- reading ----

/// An array of equally long arrays of numbers, flattened.
#[derive(Debug, Default)]
struct Rows {
    rows: usize,
    /// Length of every row (of the first, until the others are checked).
    cols: usize,
    flat: Vec<u32>,
}

/// A closure matrix as the document holds it.
#[derive(Debug, Default)]
struct MatrixTables {
    nodes: Option<u64>,
    width: Option<u64>,
    fwd: Option<Vec<u64>>,
}

/// The chain layer's tables as the document holds them.
#[doc(hidden)]
#[derive(Debug, Default)]
pub struct ChainTables {
    recs: Option<Rows>,
    zmat: Option<MatrixTables>,
    cmat: Option<MatrixTables>,
    z_slots: Option<Vec<Vec<u32>>>,
    c_spine: Option<Vec<Vec<u32>>>,
    c_delivs: Option<Vec<Vec<u32>>>,
    c_linked: Option<Vec<u32>>,
    slot_base: Option<Vec<u32>>,
}

/// The tables of one snapshot document of a supported version, read and
/// typed but not yet held against each other: what
/// [`read_snapshot`](IncrementalAnalysis::read_snapshot) returns and
/// [`from_snapshot_tables`](IncrementalAnalysis::from_snapshot_tables) takes.
#[derive(Debug, Default)]
pub struct SnapshotTables {
    version: Option<u64>,
    n: Option<u64>,
    events: Option<u64>,
    untrackable: Option<u64>,
    epoch: Option<u64>,
    reclaimed_rows: Option<u64>,
    cp_count: Option<Vec<u32>>,
    line_open: Option<Vec<bool>>,
    msgs: Option<Rows>,
    cur_tdv: Option<Vec<u32>>,
    msg_tdv: Option<Vec<u32>>,
    cp_tdv: Option<Vec<u32>>,
    rmat: Option<MatrixTables>,
    r_meta: Option<Rows>,
    cp_nodes: Option<Vec<Vec<u32>>>,
    watermark: Option<Vec<u32>>,
    cp_base: Option<Vec<u32>>,
    drop_reach: Option<Vec<u32>>,
    chains: Option<ChainTables>,
}

/// Keeps the value read for `key`. A key the engine reads may come once:
/// which of two tables would have been validated is not something a
/// restore should have to define.
fn keep<T>(slot: &mut Option<T>, key: &str, value: T) -> Result<(), SnapshotError> {
    match slot.replace(value) {
        None => Ok(()),
        Some(_) => Err(bad(format!("`{key}` appears twice"))),
    }
}

fn need<T>(slot: Option<T>, key: &str) -> Result<T, SnapshotError> {
    slot.ok_or_else(|| bad(format!("missing `{key}`")))
}

fn need_usize(slot: Option<u64>, key: &str) -> Result<usize, SnapshotError> {
    usize::try_from(need(slot, key)?).map_err(|_| bad(format!("`{key}` out of range")))
}

fn read_u32s(r: &mut JsonReader<'_>) -> Result<Vec<u32>, JsonError> {
    let mut values = Vec::new();
    r.u32s_into(&mut values)?;
    Ok(values)
}

fn read_u64s(r: &mut JsonReader<'_>) -> Result<Vec<u64>, JsonError> {
    let mut values = Vec::new();
    r.u64s_into(&mut values)?;
    Ok(values)
}

fn read_bools(r: &mut JsonReader<'_>) -> Result<Vec<bool>, JsonError> {
    let mut values = Vec::new();
    r.begin_array()?;
    while r.next_item()? {
        values.push(r.bool()?);
    }
    Ok(values)
}

/// One row per process: an array of arrays of any lengths.
fn read_ragged(r: &mut JsonReader<'_>) -> Result<Vec<Vec<u32>>, JsonError> {
    let mut rows = Vec::new();
    r.begin_array()?;
    while r.next_item()? {
        rows.push(read_u32s(r)?);
    }
    Ok(rows)
}

/// One row per message or node: an array of arrays of one length.
fn read_rows(r: &mut JsonReader<'_>, key: &str) -> Result<Rows, SnapshotError> {
    let mut table = Rows::default();
    r.begin_array()?;
    while r.next_item()? {
        let before = table.flat.len();
        r.u32s_into(&mut table.flat)?;
        let cols = table.flat.len() - before;
        if table.rows == 0 {
            table.cols = cols;
        } else if cols != table.cols {
            return Err(bad(format!("`{key}` entries differ in length")));
        }
        table.rows += 1;
    }
    Ok(table)
}

/// A table whose rows have `cols` entries each, as its rows.
fn rows_of<'a>(
    table: &'a Rows,
    cols: usize,
    key: &str,
) -> Result<std::slice::ChunksExact<'a, u32>, SnapshotError> {
    if table.rows > 0 && table.cols != cols {
        return Err(bad(format!("`{key}` entry does not have {cols} columns")));
    }
    Ok(table.flat.chunks_exact(cols))
}

fn read_matrix(r: &mut JsonReader<'_>) -> Result<MatrixTables, SnapshotError> {
    let mut t = MatrixTables::default();
    r.begin_object()?;
    while let Some(key) = r.next_key()? {
        match key.as_str() {
            "nodes" => keep(&mut t.nodes, &key, r.u64()?)?,
            "width" => keep(&mut t.width, &key, r.u64()?)?,
            "fwd" => keep(&mut t.fwd, &key, read_u64s(r)?)?,
            // `bwd` of a version 1 or 2 document among them.
            _ => r.skip_value()?,
        }
    }
    Ok(t)
}

// ----------------------------------------------------------- writing ----

fn write_rows(w: &mut JsonWriter<'_>, rows: &[Vec<u32>]) {
    w.array(rows, |w, row| w.u32s(row));
}

fn write_matrix(w: &mut JsonWriter<'_>, mat: &ClosureMatrix) {
    w.begin_object();
    w.key("nodes").u64(mat.nodes as u64);
    w.key("width").u64(mat.width as u64);
    w.key("fwd").u64s(&mat.fwd);
    w.end_object();
}

/// The text of an engine's write-once tables, kept between snapshot
/// renders of that one engine: what
/// [`write_snapshot_cached`](IncrementalAnalysis::write_snapshot_cached)
/// copies instead of rendering again (the module documentation of
/// `snapshot.rs` gives its invariant). A fresh cache is empty and fits any
/// engine; afterwards it belongs to the engine it was rendered from.
///
/// ```rust
/// use rdt_json::JsonWriter;
/// use rdt_rgraph::{IncrementalAnalysis, SnapshotCache};
///
/// let engine = IncrementalAnalysis::new(2);
/// let mut cache = SnapshotCache::default();
/// let (mut cached, mut cold) = (Vec::new(), Vec::new());
/// engine.write_snapshot_cached(&mut cache, &mut JsonWriter::new(&mut cached));
/// engine.write_snapshot(&mut JsonWriter::new(&mut cold));
/// assert_eq!(cached, cold);
/// ```
///
/// A rewindable engine has no cached entry: a rewind can shrink a table and
/// regrow it to the same length with other rows.
///
/// ```compile_fail
/// use rdt_json::JsonWriter;
/// use rdt_rgraph::{RewindableAnalysis, SnapshotCache};
///
/// let engine = RewindableAnalysis::layered(2);
/// let mut cache = SnapshotCache::default();
/// let mut text = Vec::new();
/// engine.write_snapshot_cached(&mut cache, &mut JsonWriter::new(&mut text));
/// ```
#[derive(Debug, Default)]
pub struct SnapshotCache {
    /// The compaction epoch the text below was rendered at.
    epoch: u64,
    /// `None` until the first render: an engine that is never persisted
    /// pays one pointer for its cache (the daemon holds thousands of
    /// engines inline in its stripes' maps).
    tables: Option<Box<CachedTables>>,
}

/// The write-once tables of a [`SnapshotCache`].
#[derive(Debug, Default)]
struct CachedTables {
    msgs: RenderedRows,
    msg_tdv: RenderedRows,
    cp_tdv: RenderedRows,
    r_meta: RenderedRows,
}

/// The leading rows of one table, rendered.
#[derive(Debug, Default)]
struct RenderedRows {
    /// The rows' items, comma-joined: the table's array text for those rows,
    /// without the brackets.
    text: Vec<u8>,
    /// Rows the text covers.
    rows: usize,
}

impl RenderedRows {
    /// Writes `items` — rows of `width` items each — as one array. The
    /// leading rows whose every item is `settled` (cannot change again in
    /// this epoch) and that the text does not cover yet are rendered into it
    /// once; the covered rows are copied from it, and the rows from the first
    /// unsettled item on are rendered straight into `w`.
    fn write<T>(
        &mut self,
        w: &mut JsonWriter<'_>,
        items: &[T],
        width: usize,
        settled: impl Fn(&T) -> bool,
        each: impl Fn(&mut JsonWriter<'_>, &T),
    ) {
        if self.rows * width > items.len() {
            *self = RenderedRows::default();
        }
        let covered = self.rows * width;
        let fresh = &items[covered..];
        let settled_rows = fresh.iter().position(|item| !settled(item));
        let settled_rows = settled_rows.unwrap_or(fresh.len()) / width;
        if settled_rows > 0 {
            if !self.text.is_empty() {
                self.text.push(b',');
            }
            let mut into = JsonWriter::new(&mut self.text);
            for item in &fresh[..settled_rows * width] {
                each(&mut into, item);
            }
            self.rows += settled_rows;
        }
        let rest = &items[self.rows * width..];
        #[cfg(test)]
        work::ROWS_RENDERED
            .set(work::ROWS_RENDERED.get() + (settled_rows + rest.len() / width) as u64);
        w.begin_array();
        // The covered items, already comma-joined, go in as one raw value:
        // the writer puts the comma between them and the rest.
        if !self.text.is_empty() {
            w.raw(&self.text);
        }
        for item in rest {
            each(w, item);
        }
        w.end_array();
    }
}

fn write_u32(w: &mut JsonWriter<'_>, &value: &u32) {
    w.u64(u64::from(value));
}

// ---------------------------------------------------------- matrices ----

/// Transposes a 64×64 bit block in place: bit `c` of word `r` trades places
/// with bit `r` of word `c`. Six rounds of masked swaps between words `j`
/// apart, `j` = 32, 16, … 1 (Hacker's Delight, figure 7-3, with bit 0 as
/// column 0).
fn transpose_block(block: &mut [u64; 64]) {
    let (mut j, mut mask) = (32, 0x0000_0000_ffff_ffffu64);
    while j != 0 {
        let mut k = 0;
        while k < 64 {
            let swap = (block[k] >> j ^ block[k + j]) & mask;
            block[k] ^= swap << j;
            block[k + j] ^= swap;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        mask ^= mask << j;
    }
}

/// The transpose of a validated slab (`nodes` rows of `width` words, no
/// bit at or beyond column `nodes`), block by block: a block is loaded from
/// 64 rows' words of one column, transposed, and stored as one column's
/// word of 64 rows. All-zero blocks, most of a young closure, are skipped.
fn transpose(slab: &[u64], nodes: usize, width: usize) -> Vec<u64> {
    let mut out = vec![0u64; slab.len()];
    let mut block = [0u64; 64];
    for (band, rows) in slab.chunks(WORD_BITS * width).enumerate() {
        for col in 0..bits::words_for(nodes) {
            block.fill(0);
            for (word, row) in block.iter_mut().zip(rows.chunks_exact(width)) {
                *word = row[col];
            }
            if block.iter().all(|&word| word == 0) {
                continue;
            }
            transpose_block(&mut block);
            let into = out[col * WORD_BITS * width..].chunks_exact_mut(width);
            for (&word, row) in block.iter().zip(into) {
                row[band] = word;
            }
        }
    }
    out
}

fn matrix_from_tables(t: Option<MatrixTables>, key: &str) -> Result<ClosureMatrix, SnapshotError> {
    let t = need(t, key)?;
    let nodes = need_usize(t.nodes, "nodes")?;
    let width = need_usize(t.width, "width")?;
    let fwd = need(t.fwd, "fwd")?;
    if width == 0 {
        return Err(bad(format!("`{key}` has zero width")));
    }
    if nodes > width.saturating_mul(WORD_BITS) || nodes > MAX_CLOSURE_NODES {
        return Err(bad(format!("`{key}` node count exceeds its width")));
    }
    if fwd.len() != nodes * width {
        return Err(bad(format!("`{key}` slab size disagrees with nodes×width")));
    }
    // Edge insertion iterates the set bits of a row as node indices and
    // takes every row to hold its own node: a bit at or beyond `nodes` would
    // index past the slab (and, transposed, name a row that does not exist),
    // a missing diagonal bit would lose the edge's own endpoints. Only the
    // words from the one holding column `nodes` onwards can carry a padding
    // bit. The transpose of a slab that passes is in bounds and reflexive
    // as well: its padding columns are the rows there are none of, its
    // diagonal is this one.
    let mut padding = vec![0u64; width];
    for col in nodes..width * WORD_BITS {
        bits::set(&mut padding, col);
    }
    let tail = nodes / WORD_BITS;
    for (node, row) in fwd.chunks_exact(width).enumerate() {
        if bits::intersects(&row[tail..], &padding[tail..]) {
            return Err(bad(format!(
                "`{key}.fwd` row {node} has a bit beyond its node count"
            )));
        }
        if !bits::test(row, node) {
            return Err(bad(format!(
                "`{key}.fwd` row {node} lacks its diagonal bit"
            )));
        }
    }
    let bwd = transpose(&fwd, nodes, width);
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
fn per_process<T>(table: Option<Vec<T>>, n: usize, key: &str) -> Result<Vec<T>, SnapshotError> {
    let table = need(table, key)?;
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

/// Reads the value of the document's `chains` key.
pub(super) fn read_chains(r: &mut JsonReader<'_>) -> Result<ChainTables, SnapshotError> {
    let mut t = ChainTables::default();
    r.begin_object()?;
    while let Some(key) = r.next_key()? {
        match key.as_str() {
            "recs" => keep(&mut t.recs, &key, read_rows(r, &key)?)?,
            "zmat" => keep(&mut t.zmat, &key, read_matrix(r)?)?,
            "cmat" => keep(&mut t.cmat, &key, read_matrix(r)?)?,
            "z_slots" => keep(&mut t.z_slots, &key, read_ragged(r)?)?,
            "c_spine" => keep(&mut t.c_spine, &key, read_ragged(r)?)?,
            "c_delivs" => keep(&mut t.c_delivs, &key, read_ragged(r)?)?,
            "c_linked" => keep(&mut t.c_linked, &key, read_u32s(r)?)?,
            "slot_base" => keep(&mut t.slot_base, &key, read_u32s(r)?)?,
            _ => r.skip_value()?,
        }
    }
    Ok(t)
}

/// Validates the chain tables of a document for an engine of `n` processes
/// and `msgs` messages.
pub(super) fn chains_from_tables(
    t: Option<ChainTables>,
    n: usize,
    msgs: usize,
) -> Result<Chains, SnapshotError> {
    let t = need(t, "chains")?;
    let zmat = matrix_from_tables(t.zmat, "zmat")?;
    let cmat = matrix_from_tables(t.cmat, "cmat")?;
    let z_slots = per_process(t.z_slots, n, "z_slots")?;
    let c_spine = per_process(t.c_spine, n, "c_spine")?;
    let c_delivs = per_process(t.c_delivs, n, "c_delivs")?;
    let c_linked = per_process(t.c_linked, n, "c_linked")?;
    let slot_base = per_process(t.slot_base, n, "slot_base")?;
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
    let table = need(t.recs, "recs")?;
    let mut recs = Vec::with_capacity(table.rows);
    for row in rows_of(&table, 3, "recs")? {
        let rec @ [znode, cnode, spine] = [row[0], row[1], row[2]];
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
    /// everything appends and queries read that the rest of the document
    /// does not determine (the chain layer's tables, where there is one,
    /// under `chains`) and not the undo journal. Restored engines answer
    /// every query and accept every append byte-identically, but marks taken
    /// before the snapshot cannot be rewound to afterwards (a defined
    /// [`RewindError`], like marks across a compaction).
    ///
    /// Every render, cached or not, is this one; a long-lived engine without
    /// a journal renders through a cache it keeps
    /// ([`write_snapshot_cached`](IncrementalAnalysis::write_snapshot_cached)).
    pub fn write_snapshot(&self, w: &mut JsonWriter<'_>) {
        self.render_snapshot(&mut SnapshotCache::default(), w);
    }

    /// The description of the written form: the tables and their order are
    /// listed here and nowhere else. The write-once tables go through
    /// `cache` (see the module documentation).
    fn render_snapshot(&self, cache: &mut SnapshotCache, w: &mut JsonWriter<'_>) {
        if cache.epoch != self.epoch {
            *cache = SnapshotCache {
                epoch: self.epoch,
                tables: None,
            };
        }
        let cache = cache.tables.get_or_insert_with(Box::default);
        let n = self.n;
        w.begin_object();
        w.key("format").str(SNAPSHOT_FORMAT);
        w.key("version").u64(SNAPSHOT_VERSION);
        w.key("n").u64(n as u64);
        w.key("events").u64(self.events as u64);
        w.key("untrackable").u64(self.untrackable);
        w.key("cp_count").u32s(&self.cp_count);
        w.key("line_open")
            .array(&self.line_open, |w, &open| w.bool(open));
        let delivered = |m: &MsgRec| m.deliver_iv != NONE_U32;
        cache
            .msgs
            .write(w.key("msgs"), &self.msgs, 1, delivered, |w, m| {
                w.u32s(&[m.from, m.to, m.send_iv, m.deliver_iv, m.tdv_row])
            });
        w.key("cur_tdv").u32s(&self.cur_tdv);
        cache
            .msg_tdv
            .write(w.key("msg_tdv"), &self.msg_tdv, n, |_| true, write_u32);
        cache
            .cp_tdv
            .write(w.key("cp_tdv"), &self.cp_tdv, n, |_| true, write_u32);
        write_matrix(w.key("rmat"), &self.rmat);
        let r_meta = |w: &mut JsonWriter<'_>, &(p, index): &(u32, u32)| w.u32s(&[p, index]);
        cache
            .r_meta
            .write(w.key("r_meta"), &self.r_meta, 1, |_| true, r_meta);
        write_rows(w.key("cp_nodes"), &self.cp_nodes);
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
    /// `cp_base`; the retained part of `reach` is what the closure says and
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

    /// Restores an engine of this instantiation from the text of a snapshot
    /// document of any supported version:
    /// [`read_snapshot`](IncrementalAnalysis::read_snapshot), nothing but
    /// whitespace after it, then
    /// [`from_snapshot_tables`](IncrementalAnalysis::from_snapshot_tables).
    pub fn from_snapshot_text(text: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = JsonReader::new(text);
        let tables = Self::read_snapshot(&mut r)?;
        r.end()?;
        Self::from_snapshot_tables(tables)
    }

    /// Reads one snapshot document — the next value of `r` — into its typed
    /// tables. Total: text that is not JSON, not an object, not this format
    /// ([`SnapshotErrorKind::Format`]), of a version this build does not
    /// read ([`SnapshotErrorKind::UnsupportedVersion`]) or with a table of
    /// the wrong type is a [`SnapshotError`]. Keys come in any order; an
    /// unknown key's value is checked to be JSON and skipped, so the chain
    /// tables of a version 1 document and the derived tables of a version 2
    /// document are never kept, and a chain-free engine skips `chains` too.
    pub fn read_snapshot(r: &mut JsonReader<'_>) -> Result<SnapshotTables, SnapshotError> {
        let not_ours = || SnapshotError {
            kind: SnapshotErrorKind::Format,
            message: "not an rdt-rgraph snapshot".into(),
        };
        if r.peek()? != b'{' {
            return Err(not_ours());
        }
        let mut t = SnapshotTables::default();
        let mut format = None;
        r.begin_object()?;
        while let Some(key) = r.next_key()? {
            match key.as_str() {
                "format" => match r.peek()? {
                    b'"' => keep(&mut format, &key, r.str()?)?,
                    _ => return Err(not_ours()),
                },
                "version" => keep(&mut t.version, &key, r.u64()?)?,
                "n" => keep(&mut t.n, &key, r.u64()?)?,
                "events" => keep(&mut t.events, &key, r.u64()?)?,
                "untrackable" => keep(&mut t.untrackable, &key, r.u64()?)?,
                "epoch" => keep(&mut t.epoch, &key, r.u64()?)?,
                "reclaimed_rows" => keep(&mut t.reclaimed_rows, &key, r.u64()?)?,
                "cp_count" => keep(&mut t.cp_count, &key, read_u32s(r)?)?,
                "line_open" => keep(&mut t.line_open, &key, read_bools(r)?)?,
                "msgs" => keep(&mut t.msgs, &key, read_rows(r, &key)?)?,
                "cur_tdv" => keep(&mut t.cur_tdv, &key, read_u32s(r)?)?,
                "msg_tdv" => keep(&mut t.msg_tdv, &key, read_u32s(r)?)?,
                "cp_tdv" => keep(&mut t.cp_tdv, &key, read_u32s(r)?)?,
                "rmat" => keep(&mut t.rmat, &key, read_matrix(r)?)?,
                "r_meta" => keep(&mut t.r_meta, &key, read_rows(r, &key)?)?,
                "cp_nodes" => keep(&mut t.cp_nodes, &key, read_ragged(r)?)?,
                "watermark" => keep(&mut t.watermark, &key, read_u32s(r)?)?,
                "cp_base" => keep(&mut t.cp_base, &key, read_u32s(r)?)?,
                "drop_reach" => keep(&mut t.drop_reach, &key, read_u32s(r)?)?,
                "chains" => {
                    if let Some(chains) = C::read_snapshot(r)? {
                        keep(&mut t.chains, &key, chains)?;
                    }
                }
                _ => r.skip_value()?,
            }
            // As soon as they are known: a document of another format or
            // version need not have tables of this one's types.
            if format.as_deref().is_some_and(|f| f != SNAPSHOT_FORMAT) {
                return Err(not_ours());
            }
            if let Some(found) = t.version.filter(|v| !(1..=SNAPSHOT_VERSION).contains(v)) {
                return Err(SnapshotError {
                    kind: SnapshotErrorKind::UnsupportedVersion { found },
                    message: format!("unsupported snapshot version {found}"),
                });
            }
        }
        match format {
            Some(_) => Ok(t),
            None => Err(not_ours()),
        }
    }

    /// Builds the engine a document's tables describe.
    ///
    /// The restore is **total and validating**: missing tables and —
    /// crucially — cross-table inconsistencies that would let a later
    /// append or query index out of bounds are all [`SnapshotError`]s. A
    /// chain-bearing engine requires the `chains` key (no version 1 document
    /// has one). The restored engine starts with an empty undo journal at
    /// the snapshot's compaction epoch.
    pub fn from_snapshot_tables(t: SnapshotTables) -> Result<Self, SnapshotError> {
        // Width of a `msgs` row and the column of `tdv_row` in it.
        let (msg_cols, tdv_col) = match need(t.version, "version")? {
            1 => (8, 7),
            _ => (5, 4),
        };
        let n = need_usize(t.n, "n")?;
        if n == 0 {
            return Err(bad("`n` must be at least 1"));
        }
        let cp_count = per_process(t.cp_count, n, "cp_count")?;
        let msg_tdv = need(t.msg_tdv, "msg_tdv")?;
        if msg_tdv.len() % n != 0 {
            return Err(bad("`msg_tdv` is not a whole number of rows"));
        }

        // ---- message records, and the two indices into them ----------
        // Intervals are 1-based and at most one past the last checkpoint
        // (the consistency descents step to `deliver_iv - 1`).
        let placed = |iv: u32, p: u32| (1..=cp_count[p as usize].saturating_add(1)).contains(&iv);
        let table = need(t.msgs, "msgs")?;
        if table.rows >= NONE_U32 as usize {
            return Err(bad("`msgs` has more entries than message handles"));
        }
        let mut msgs = Vec::with_capacity(table.rows);
        let mut send_events = vec![Vec::new(); n];
        let mut deliver_events = vec![Vec::new(); n];
        for (mid, row) in rows_of(&table, msg_cols, "msgs")?.enumerate() {
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
            // Handles are given out in send order, so along them a
            // process's send intervals only grow; the fixpoints and the
            // Rule 2 scans search `send_events` by interval.
            let sends: &mut Vec<(u32, u32)> = &mut send_events[m.from as usize];
            if sends.last().is_some_and(|&(iv, _)| iv > m.send_iv) {
                return Err(bad("`msgs` entry is sent before its predecessor"));
            }
            sends.push((m.send_iv, mid as u32));
            if m.deliver_iv != NONE_U32 {
                deliver_events[m.to as usize].push((m.deliver_iv, mid as u32));
            }
            msgs.push(m);
        }
        for delivered in &mut deliver_events {
            delivered.sort_unstable();
        }

        let r_meta = need(t.r_meta, "r_meta")?;
        let r_meta = rows_of(&r_meta, 2, "r_meta")?;
        let drop_reach = need(t.drop_reach, "drop_reach")?;
        let mut engine = IncrementalAnalysis {
            n,
            chains: C::restore(t.chains, n, msgs.len())?,
            journal: J::default(),
            events: need_usize(t.events, "events")?,
            untrackable: need(t.untrackable, "untrackable")?,
            line_open: per_process(t.line_open, n, "line_open")?,
            msgs,
            cur_tdv: need(t.cur_tdv, "cur_tdv")?,
            msg_tdv,
            cp_tdv: need(t.cp_tdv, "cp_tdv")?,
            reach: Vec::new(),
            rmat: matrix_from_tables(t.rmat, "rmat")?,
            r_meta: r_meta.map(|pair| (pair[0], pair[1])).collect(),
            cp_nodes: per_process(t.cp_nodes, n, "cp_nodes")?,
            send_events,
            deliver_events,
            epoch: need(t.epoch, "epoch")?,
            watermark: per_process(t.watermark, n, "watermark")?,
            cp_base: per_process(t.cp_base, n, "cp_base")?,
            cp_count,
            reclaimed_rows: need(t.reclaimed_rows, "reclaimed_rows")?,
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
    /// checkpoints and the transposed closure rows for the retained ones. Of each
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
        // A checkpoint index is at most `NONE_U32 - 2`, where the append
        // path stops (`CheckpointIndexExhausted`): the index plus one sits
        // in `reach` and in the process's own `TDV` entry, which the fold
        // offsets by one more wherever it is seen.
        if let Some(p) = self.cp_count.iter().position(|&c| c > NONE_U32 - 2) {
            return Err(bad(format!(
                "`cp_count[{p}]` is beyond the last checkpoint index"
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
        Ok(())
    }
}

impl<C: ChainLayer> IncrementalAnalysis<C, NoJournal> {
    /// [`write_snapshot`](IncrementalAnalysis::write_snapshot) through a
    /// cache this engine keeps between renders: the same bytes, with the
    /// rows of the write-once tables that `cache` already holds copied
    /// rather than rendered, and those that can no longer change added to
    /// it. Only on an engine without a journal, which cannot rewind (the
    /// module documentation of `snapshot.rs` says why that matters).
    pub fn write_snapshot_cached(&self, cache: &mut SnapshotCache, w: &mut JsonWriter<'_>) {
        self.render_snapshot(cache, w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdt_causality::ProcessId;

    /// `doc[mat]`, mutably (`mat` may be a `/`-separated path).
    fn matrix<'a>(doc: &'a mut Json, mat: &str) -> &'a mut Vec<(String, Json)> {
        fn entry<'a>(obj: &'a mut Json, key: &str) -> &'a mut Json {
            match obj {
                Json::Obj(fields) => &mut fields.iter_mut().find(|(k, _)| k == key).unwrap().1,
                _ => panic!("not an object"),
            }
        }
        match mat.split('/').fold(doc, entry) {
            Json::Obj(fields) => fields,
            _ => panic!("not a matrix"),
        }
    }

    /// `doc[mat].fwd[word]`, mutably.
    fn fwd_word<'a>(doc: &'a mut Json, mat: &str, word: usize) -> &'a mut u64 {
        match &mut matrix(doc, mat)
            .iter_mut()
            .find(|(k, _)| k == "fwd")
            .unwrap()
            .1
        {
            Json::Arr(words) => match &mut words[word] {
                Json::U64(w) => w,
                _ => panic!("not a word"),
            },
            _ => panic!("not a slab"),
        }
    }

    fn restore<C: ChainLayer, J: Journal>(
        doc: &Json,
    ) -> Result<IncrementalAnalysis<C, J>, SnapshotError> {
        IncrementalAnalysis::from_snapshot_text(doc.to_string().as_bytes())
    }

    /// A closure row with a bit at a column `≥ nodes` would index past the
    /// slab on the next append — and name a row that does not exist when the
    /// slab is transposed; a row without its diagonal bit breaks the
    /// reflexivity edge insertion builds on, in the transpose as well. Both
    /// are rejected, in all three matrices.
    #[test]
    fn padding_bits_and_missing_diagonals_are_rejected() {
        let (p0, p1) = (ProcessId::new(0), ProcessId::new(1));
        let mut incr = FullAnalysis::layered(2);
        incr.append_checkpoint(p0);
        let m = incr.append_send(p0, p1);
        incr.append_deliver(m);
        let good = incr.snapshot_json();
        assert!(restore::<Chains, UndoJournal>(&good).is_ok());

        for mat in ["rmat", "chains/zmat", "chains/cmat"] {
            // Every matrix is one word wide here, so word 1 is row 1.
            let mut doc = good.clone();
            *fwd_word(&mut doc, mat, 1) |= 1 << 40;
            let err = restore::<Chains, UndoJournal>(&doc).unwrap_err();
            assert!(err.message.contains("beyond its node count"), "{err}");

            let mut doc = good.clone();
            *fwd_word(&mut doc, mat, 1) &= !(1 << 1);
            let err = restore::<Chains, UndoJournal>(&doc).unwrap_err();
            assert!(err.message.contains("diagonal"), "{err}");
        }
    }

    /// The reported reproduction, as version 2 wrote it: restored with the
    /// `bwd` slab it carried, this document made the next checkpoint of
    /// `p0` index out of bounds. The slab is no longer read — a matrix's
    /// transpose is computed from its checked `fwd` — so whatever a document
    /// of any version says under `bwd` is ignored, and the engine it
    /// restores to is the one the rest of it describes.
    #[test]
    fn padding_bit_in_rmat_bwd_no_longer_panics_the_next_append() {
        let mut incr = IncrementalAnalysis::new(2);
        incr.append_checkpoint(ProcessId::new(0));
        let good = incr.snapshot_json();
        incr.append_checkpoint(ProcessId::new(0));
        for junk in [
            Json::Arr(vec![Json::U64(1), Json::U64(3), Json::U64(4 | 1 << 40)]),
            Json::Str("not a slab".into()),
        ] {
            let mut doc = good.clone();
            matrix(&mut doc, "rmat").push(("bwd".into(), junk));
            let mut restored: IncrementalAnalysis = restore(&doc).expect("`bwd` is not read");
            let mut text = Vec::new();
            restored.write_snapshot(&mut JsonWriter::new(&mut text));
            assert_eq!(text, good.to_string().into_bytes());
            restored.append_checkpoint(ProcessId::new(0));
            assert_eq!(restored.snapshot_json(), incr.snapshot_json());
        }
    }

    /// The block transpose against the definition, over every shape of the
    /// edges: one word and several, a last band of fewer than 64 rows, a
    /// width wider than the nodes need, empty and full blocks.
    #[test]
    fn block_transpose_is_the_transpose() {
        let mut state = 0x5eed_0021u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for (nodes, width) in [
            (0, 1),
            (1, 1),
            (63, 1),
            (64, 1),
            (65, 2),
            (100, 4),
            (128, 2),
            (130, 4),
            (200, 4),
        ] {
            for density in [0, 1, 4, 64] {
                let mut fwd = vec![0u64; nodes * width];
                for row in fwd.chunks_exact_mut(width) {
                    for col in 0..nodes {
                        if density == 64 || next() % 64 < density {
                            bits::set(row, col);
                        }
                    }
                }
                let mut expected = vec![0u64; nodes * width];
                for (u, row) in fwd.chunks_exact(width).enumerate() {
                    for v in bits::ones(row) {
                        bits::set(&mut expected[v * width..][..width], u);
                    }
                }
                let what = format!("{nodes} nodes, width {width}, density {density}/64");
                assert_eq!(transpose(&fwd, nodes, width), expected, "{what}");
            }
        }
    }
}
