//! Engine snapshot/restore for the chain-free [`IncrementalAnalysis`].
//!
//! A snapshot captures everything the R-graph core needs to keep answering
//! queries and accepting appends: counters, per-process tables, message
//! records, the R-graph's backward closure and the compaction state. Only
//! the bare core persists: every entry point sits on
//! `IncrementalAnalysis<NoChains, NoJournal>`, because the one engine that is
//! ever written to disk is the daemon's, and the chain closures and the undo
//! journal the certifier rewinds live in memory only. Appends and queries
//! never read a journal, so a restored engine produces byte-identical
//! answers to the uninterrupted original.
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
//! through [`JsonWriter`] (`tests/snapshot_bytes.rs` holds the bytes to
//! goldens). It writes a document **whole** or as a **delta** against what
//! [`SnapshotMarks`] say a file already holds:
//! [`write_snapshot`](IncrementalAnalysis::write_snapshot) is the whole
//! render, [`write_snapshot_since`](IncrementalAnalysis::write_snapshot_since)
//! the marked one. An engine restored from a file that holds it whole takes
//! that file as its latest marked render
//! ([`mark_written`](IncrementalAnalysis::mark_written)), so a process that
//! restarts on its file appends to it what changes from there on.
//!
//! # What a delta holds
//!
//! Five tables grow by rows within a compaction epoch: the `TDV` a message
//! piggybacks (`msg_tdv`), the `TDV` a checkpoint records (`cp_tdv`,
//! Corollary 4.5's vector), the checkpoint an R-node stands for (`r_meta`),
//! the message records (`msgs`: a row is final once its message is
//! delivered) and the backward closure (`reach`). Of the first four a row once
//! written is never revised. A `reach` row changes whenever an R-edge makes its
//! node newly reachable, but only the rows of its dirty successors change, and
//! `insert_r_edge` keeps their least index as the engine's *reach floor*: the
//! rows below it are as the last marked render wrote them.
//!
//! So a delta writes each growing table as `{"from":k,"rows":[…]}` — its rows
//! from `k` on, which replace the table's rows from `k` — and every small
//! table in full. `k` is the mark's row count (for `msgs`, the rows below the
//! first message then in transit; for `reach`, the least of the floor and the
//! rows then written). Marks that are not the latest marked render's (the
//! floor counts from that render alone), that are another epoch's (a
//! compaction renumbers the node tables and frees piggyback rows) or that
//! claim more rows than a table holds (another engine's) describe nothing,
//! and the render is whole. [`SnapshotTables::fold`] lays a delta's tables over the tables
//! it was written against.
//!
//! The marked render relies on the engine having no journal: a rewind could
//! regrow a table to the same length with other rows, and restore `reach`
//! rows without lowering the floor, which no row count could tell from the
//! rows written.
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
//! daemon) can read them in sequence, fold its deltas in, and build them in
//! parallel. Restore validates every cross-table invariant the append/query
//! paths rely on for in-bounds indexing, so a corrupted or hand-edited
//! snapshot is a [`SnapshotError`], never a panic later on. It also bounds
//! every counter an append increments or the reach fold offsets by one
//! (`cp_count`, the three `TDV` tables, `reach` or `drop_reach`, the
//! `r_meta` indices) by what the pattern can hold, so a document cannot hand
//! the engine a value its next append overflows.
//!
//! Three tables of the engine are not in a version 4 document, because the
//! others determine them:
//!
//! * `cp_nodes`, the R-node of each retained checkpoint: `r_meta` lists the
//!   nodes in append order, and restore requires each process's retained
//!   checkpoints `cp_base..=cp_count` in it in that order.
//! * the chains that thread the message table: each record's
//!   `prev_send` and `prev_delivery`, and the engine's `2n` chain heads. A
//!   process's sends are threaded in handle order (its send intervals only
//!   grow along the handles, and restore rejects a table in which they do
//!   not); the deliveries at `p` by `(deliver_iv, handle)`. The engine
//!   threads deliveries in arrival order, which inside one interval need
//!   not be handle order, but every reader of a delivery chain — the Rule 2
//!   edges of the checkpoint that closes the interval, the chain queries'
//!   per-interval masks — reads an interval's entries as a set, so the
//!   order inside it is not state.
//! * `drop_reach`, what versions 1–3 wrote of `reach`: the part a compaction
//!   dropped the nodes of. Its retained half was the columns of the closure
//!   bits, so a version 1–3 restore joins the two back together
//!   (`join_reach`) and takes the version 4 path from there.
//!
//! That path checks every `reach` entry: at most `cp_count + 1`, at least
//! `i + 1` on the node's own lane (every node reaches itself), and never
//! below the Rule 1 predecessor's — the bounds the reach fold and the
//! dirty-successor searches rely on. The engine keeps no closure but
//! `reach`, so nothing is built from it. The closure bits a version 1–3
//! document holds, `rmat`, are only checked: a retained `x = C_{p,i}`
//! reaches `y` iff `i < reach[y][p]`, and the document is refused unless
//! `rmat.fwd` has bit `y` of row `x` exactly there.
//!
//! # Versions
//!
//! * **4** (written): the core tables, `reach` in place of `rmat`,
//!   `cp_nodes` and `drop_reach`; `msgs` rows are
//!   `[from, to, send_iv, deliver_iv, tdv_row]`. A delta is a version 4
//!   document whose growing tables may start at a row `from`.
//! * **3** (read): the closure as `rmat: {nodes, width, fwd}`, `cp_nodes`
//!   (which must be the list `r_meta` gives) and `drop_reach` instead of
//!   `reach`.
//! * **2** (read): version 3 plus the tables version 3 derives — `bwd` in
//!   every matrix and the two per-process message indices older engines
//!   kept beside the message table. They are skipped like
//!   any unknown key, **not trusted**: a version 2 document restores to the
//!   engine its other tables describe. So is the `chains` member a
//!   chain-bearing engine once wrote (version 2 or 3).
//! * **1** (read): the format of the engine that always carried the chain
//!   layer — version 2 with `msgs` rows eight columns wide (`znode`, `cnode`,
//!   `spine` before `tdv_row`), eight chain tables and a `compactions`
//!   counter (always equal to `epoch`) at the top level. The five core
//!   columns of each `msgs` row are kept and the rest is not read.
//!   `reclaimed_rows` is carried as stored: a monotone counter that in a
//!   version 1 document also counted chain rows.
//!
//! Any other version is [`SnapshotErrorKind::UnsupportedVersion`]. Whatever
//! is read, version 4 is what is written next.

use rdt_json::{JsonError, JsonReader, JsonWriter};

use super::*;

/// Identifies the snapshot format inside the JSON document.
pub const SNAPSHOT_FORMAT: &str = "rdt-rgraph-snapshot";

/// Snapshot format version written by [`IncrementalAnalysis::write_snapshot`].
pub const SNAPSHOT_VERSION: u64 = 4;

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
#[derive(Debug, Default, Clone)]
struct Rows {
    rows: usize,
    /// Length of every row (of the first, until the others are checked).
    cols: usize,
    flat: Vec<u32>,
}

/// A table that grows by rows: the rows from `from` on (all of them when
/// `from` is 0; a delta's otherwise).
#[derive(Debug, Default, Clone)]
struct Grown<T> {
    from: usize,
    rows: T,
}

/// A closure matrix as a version 1–3 document holds it.
#[derive(Debug, Default, Clone)]
struct MatrixTables {
    nodes: Option<u64>,
    width: Option<u64>,
    fwd: Option<Vec<u64>>,
}

/// The tables of one snapshot document of a supported version, read and
/// typed but not yet held against each other: what
/// [`read_snapshot`](IncrementalAnalysis::read_snapshot) returns,
/// [`fold`](SnapshotTables::fold) lays a delta over and
/// [`from_snapshot_tables`](IncrementalAnalysis::from_snapshot_tables) takes.
#[derive(Debug, Default, Clone)]
pub struct SnapshotTables {
    version: Option<u64>,
    n: Option<u64>,
    events: Option<u64>,
    untrackable: Option<u64>,
    epoch: Option<u64>,
    reclaimed_rows: Option<u64>,
    cp_count: Option<Vec<u32>>,
    line_open: Option<Vec<bool>>,
    msgs: Option<Grown<Rows>>,
    cur_tdv: Option<Vec<u32>>,
    msg_tdv: Option<Grown<Vec<u32>>>,
    cp_tdv: Option<Grown<Vec<u32>>>,
    reach: Option<Grown<Vec<u32>>>,
    rmat: Option<MatrixTables>,
    r_meta: Option<Grown<Rows>>,
    cp_nodes: Option<Vec<Vec<u32>>>,
    watermark: Option<Vec<u32>>,
    cp_base: Option<Vec<u32>>,
    drop_reach: Option<Vec<u32>>,
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

fn read_u32s(r: &mut JsonReader<'_>) -> Result<Vec<u32>, SnapshotError> {
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
fn read_ragged(r: &mut JsonReader<'_>) -> Result<Vec<Vec<u32>>, SnapshotError> {
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

/// A growing table: its array, or a delta's `{"from": k, "rows": [...]}`.
fn read_grown<T>(
    r: &mut JsonReader<'_>,
    key: &str,
    read: impl Fn(&mut JsonReader<'_>) -> Result<T, SnapshotError>,
) -> Result<Grown<T>, SnapshotError> {
    if r.peek()? != b'{' {
        return Ok(Grown {
            from: 0,
            rows: read(r)?,
        });
    }
    let (mut from, mut rows) = (None, None);
    r.begin_object()?;
    while let Some(inner) = r.next_key()? {
        match inner.as_str() {
            "from" => keep(&mut from, &inner, r.u64()?)?,
            "rows" => keep(&mut rows, &inner, read(r)?)?,
            _ => r.skip_value()?,
        }
    }
    Ok(Grown {
        from: need_usize(from, &format!("{key}.from"))?,
        rows: need(rows, &format!("{key}.rows"))?,
    })
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

// ------------------------------------------------------------ deltas ----

/// A table a delta can extend from a row on.
trait Extend: Sized {
    /// Replaces the rows from `from` (rows of `width` entries) with `rows`;
    /// `false` when the table has fewer than `from` rows.
    fn splice(&mut self, from: usize, width: usize, rows: Self) -> bool;
}

impl Extend for Vec<u32> {
    fn splice(&mut self, from: usize, width: usize, rows: Self) -> bool {
        if from.saturating_mul(width) > self.len() {
            return false;
        }
        self.truncate(from * width);
        self.extend(rows);
        true
    }
}

impl Extend for Rows {
    fn splice(&mut self, from: usize, _: usize, rows: Self) -> bool {
        if from > self.rows || (from > 0 && rows.rows > 0 && rows.cols != self.cols) {
            return false;
        }
        self.flat.truncate(from * self.cols);
        self.flat.extend(rows.flat);
        self.rows = from + rows.rows;
        if from == 0 {
            self.cols = rows.cols;
        }
        true
    }
}

/// `slot` with the rows of `delta` laid over it from the row it starts at.
fn grow<T: Extend>(
    slot: &mut Option<Grown<T>>,
    delta: Option<Grown<T>>,
    width: usize,
    key: &str,
) -> Result<(), SnapshotError> {
    let Some(delta) = delta else {
        return Ok(());
    };
    if delta.from == 0 {
        *slot = Some(delta);
        return Ok(());
    }
    let from = delta.from;
    match slot
        .as_mut()
        .map(|base| base.rows.splice(from, width, delta.rows))
    {
        Some(true) => Ok(()),
        _ => Err(bad(format!(
            "`{key}` delta starts at row {from}, past the table's end"
        ))),
    }
}

fn replace<T>(slot: &mut Option<T>, value: Option<T>) {
    if value.is_some() {
        *slot = value;
    }
}

impl SnapshotTables {
    /// Whether these are the tables of a document of the version this build
    /// writes, [`SNAPSHOT_VERSION`]: the only kind a delta is laid over.
    pub fn is_current(&self) -> bool {
        self.version == Some(SNAPSHOT_VERSION)
    }

    /// Whether these are a delta's tables: a growing table that starts past
    /// its first row. A delta restores nothing by itself; it is
    /// [`fold`](SnapshotTables::fold)ed over the tables it was written
    /// against.
    pub fn is_delta(&self) -> bool {
        self.delta_key().is_some()
    }

    fn delta_key(&self) -> Option<&'static str> {
        [
            ("msgs", self.msgs.as_ref().map(|t| t.from)),
            ("msg_tdv", self.msg_tdv.as_ref().map(|t| t.from)),
            ("cp_tdv", self.cp_tdv.as_ref().map(|t| t.from)),
            ("reach", self.reach.as_ref().map(|t| t.from)),
            ("r_meta", self.r_meta.as_ref().map(|t| t.from)),
        ]
        .into_iter()
        .find(|&(_, from)| from.is_some_and(|from| from > 0))
        .map(|(key, _)| key)
    }

    /// Lays the tables of `delta` — a version 4 delta document written
    /// against these tables — over them: every table the delta holds in
    /// full replaces this one's, and a growing table it holds from a row on
    /// replaces this one's rows from there. The result is what the whole
    /// document would have read as; nothing is validated here but that the
    /// two are version 4 documents of one process count and that no delta
    /// starts past the end of the table it extends
    /// ([`from_snapshot_tables`](IncrementalAnalysis::from_snapshot_tables)
    /// validates the result).
    pub fn fold(&mut self, delta: SnapshotTables) -> Result<(), SnapshotError> {
        if !self.is_current() || !delta.is_current() {
            return Err(bad(format!(
                "a delta applies to a version {SNAPSHOT_VERSION} document only"
            )));
        }
        if delta.n != self.n {
            return Err(bad("a delta names another process count"));
        }
        let n = need_usize(self.n, "n")?;
        replace(&mut self.events, delta.events);
        replace(&mut self.untrackable, delta.untrackable);
        replace(&mut self.epoch, delta.epoch);
        replace(&mut self.reclaimed_rows, delta.reclaimed_rows);
        replace(&mut self.cp_count, delta.cp_count);
        replace(&mut self.line_open, delta.line_open);
        replace(&mut self.cur_tdv, delta.cur_tdv);
        replace(&mut self.watermark, delta.watermark);
        replace(&mut self.cp_base, delta.cp_base);
        grow(&mut self.msgs, delta.msgs, 1, "msgs")?;
        grow(&mut self.msg_tdv, delta.msg_tdv, n, "msg_tdv")?;
        grow(&mut self.cp_tdv, delta.cp_tdv, n, "cp_tdv")?;
        grow(&mut self.reach, delta.reach, n, "reach")?;
        grow(&mut self.r_meta, delta.r_meta, 1, "r_meta")
    }
}

// ----------------------------------------------------------- writing ----

/// What of one engine's snapshot a file already holds, as of the render
/// that returned it: the compaction epoch and event count it was written
/// at, and the rows of each growing table it wrote — of `msgs`, those below
/// the first message then in transit; of `msg_tdv`, one per message then in
/// flight or not yet compacted; of `cp_tdv`, `r_meta` and `reach`, one per
/// R-node. A render against these
/// ([`write_snapshot_since`](IncrementalAnalysis::write_snapshot_since))
/// writes what changed since; the module documentation of `snapshot.rs`
/// says what that is and why it is exact. Only the marks of the engine's
/// latest marked render describe a file it can write a delta against:
/// against older ones it writes whole.
///
/// ```rust
/// use rdt_causality::ProcessId;
/// use rdt_json::JsonWriter;
/// use rdt_rgraph::IncrementalAnalysis;
///
/// let mut engine = IncrementalAnalysis::new(2);
/// let mut whole = Vec::new();
/// let marks = engine.write_snapshot_since(None, &mut JsonWriter::new(&mut whole));
/// engine.append_checkpoint(ProcessId::new(0));
/// let mut delta = Vec::new();
/// engine.write_snapshot_since(Some(&marks), &mut JsonWriter::new(&mut delta));
/// assert!(String::from_utf8(delta).unwrap().contains(r#""r_meta":{"from":2,"rows":[[0,1]]}"#));
///
/// // `marks` are no longer the latest: against them the engine writes whole.
/// let mut again = Vec::new();
/// engine.write_snapshot_since(Some(&marks), &mut JsonWriter::new(&mut again));
/// assert!(!String::from_utf8(again).unwrap().contains(r#""from""#));
/// ```
///
/// A rewindable engine has no marked render: a rewind can shrink a table
/// and regrow it to the same length with other rows.
///
/// ```compile_fail
/// use rdt_json::JsonWriter;
/// use rdt_rgraph::{IncrementalAnalysis, NoChains, UndoJournal};
///
/// let mut engine = IncrementalAnalysis::<NoChains, UndoJournal>::layered(2);
/// let mut text = Vec::new();
/// engine.write_snapshot_since(None, &mut JsonWriter::new(&mut text));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotMarks {
    epoch: u64,
    events: usize,
    msgs: usize,
    msg_tdv: usize,
    nodes: usize,
}

/// A growing table, rows of `width` items: all of `items` as one array, or
/// from row `from` on as `{"from": from, "rows": [...]}`. Returns the rows
/// written.
fn write_grown<T>(
    w: &mut JsonWriter<'_>,
    from: usize,
    width: usize,
    items: &[T],
    each: impl FnMut(&mut JsonWriter<'_>, &T),
) -> usize {
    if from == 0 {
        w.array(items, each);
    } else {
        w.begin_object();
        w.key("from").u64(from as u64);
        w.key("rows").array(&items[from * width..], each);
        w.end_object();
    }
    items.len() / width - from
}

/// Counts the rows a render wrote, for the work-bound tests.
#[cfg_attr(not(test), allow(unused_variables))]
fn count_rendered(rows: usize, reach_rows: usize) {
    #[cfg(test)]
    {
        work::ROWS_RENDERED.set(work::ROWS_RENDERED.get() + rows as u64);
        work::REACH_ROWS_RENDERED.set(work::REACH_ROWS_RENDERED.get() + reach_rows as u64);
    }
}

fn write_u32(w: &mut JsonWriter<'_>, &value: &u32) {
    w.u64(u64::from(value));
}

// ---------------------------------------------------------- matrices ----

/// The forward closure slab of a version 1–3 document, as the document
/// holds it: its shape checked and every row free of padding bits and
/// holding its diagonal bit.
fn matrix_from_tables(t: Option<MatrixTables>, key: &str) -> Result<BitSlab, SnapshotError> {
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
    // The join into `reach` takes the set bits of a row as node indices,
    // and every node reaches itself: a bit at or beyond `nodes` would index
    // past the tables, a missing diagonal bit names a node that does not
    // reach itself. Only the words from the one holding column `nodes`
    // onwards can carry a padding bit.
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
    Ok(BitSlab {
        nodes,
        width,
        words: fwd,
    })
}

/// A table with exactly one entry per process.
fn per_process<T>(table: Option<Vec<T>>, n: usize, key: &str) -> Result<Vec<T>, SnapshotError> {
    let table = need(table, key)?;
    match table.len() {
        len if len == n => Ok(table),
        len => Err(bad(format!("`{key}` length {len} != n = {n}"))),
    }
}

// --------------------------------------------------------------- core ----

impl IncrementalAnalysis<NoChains, NoJournal> {
    /// Writes the engine as one versioned JSON document (one value of `w`):
    /// everything appends and queries read that the rest of the document
    /// does not determine. Restored engines answer every query and accept
    /// every append byte-identically.
    ///
    /// Every render, whole or a delta, is this one; a long-lived engine can
    /// be written as what changed since a render
    /// ([`write_snapshot_since`](IncrementalAnalysis::write_snapshot_since)).
    ///
    /// Only the bare core persists: an engine with the chain layer has no
    /// snapshot.
    ///
    /// ```compile_fail
    /// use rdt_json::JsonWriter;
    /// use rdt_rgraph::FullAnalysis;
    ///
    /// let engine = FullAnalysis::layered(2);
    /// let mut text = Vec::new();
    /// engine.write_snapshot(&mut JsonWriter::new(&mut text));
    /// ```
    pub fn write_snapshot(&self, w: &mut JsonWriter<'_>) {
        self.render_snapshot(None, w);
    }

    /// The description of the written form: the tables and their order are
    /// listed here and nowhere else. Against `since` the growing tables are
    /// written from the rows it does not cover (see the module
    /// documentation); returns the marks of what was written.
    fn render_snapshot(
        &self,
        since: Option<&SnapshotMarks>,
        w: &mut JsonWriter<'_>,
    ) -> SnapshotMarks {
        let (n, nodes) = (self.n, self.r_meta.len());
        let since = since.filter(|m| {
            m.epoch == self.epoch
                && m.events == self.marked_events
                && m.msgs <= self.msgs.len()
                && m.msg_tdv * n <= self.msg_tdv.len()
                && m.nodes <= nodes
        });
        let from = |rows: fn(&SnapshotMarks) -> usize| since.map_or(0, rows);
        let (msgs_from, nodes_from) = (from(|m| m.msgs), from(|m| m.nodes));
        let reach_from = nodes_from.min(self.reach_floor);

        let mut rendered = 0;
        w.begin_object();
        w.key("format").str(SNAPSHOT_FORMAT);
        w.key("version").u64(SNAPSHOT_VERSION);
        w.key("n").u64(n as u64);
        w.key("events").u64(self.events as u64);
        w.key("untrackable").u64(self.untrackable);
        w.key("cp_count").u32s(&self.cp_count);
        w.key("line_open")
            .array(&self.line_open, |w, &open| w.bool(open));
        rendered += write_grown(w.key("msgs"), msgs_from, 1, &self.msgs, |w, m| {
            w.u32s(&[m.from, m.to, m.send_iv, m.deliver_iv, m.tdv_row])
        });
        w.key("cur_tdv").u32s(&self.cur_tdv);
        let msg_tdv_from = from(|m| m.msg_tdv);
        rendered += write_grown(w.key("msg_tdv"), msg_tdv_from, n, &self.msg_tdv, write_u32);
        rendered += write_grown(w.key("cp_tdv"), nodes_from, n, &self.cp_tdv, write_u32);
        let reach_rows = write_grown(w.key("reach"), reach_from, n, &self.reach, write_u32);
        let r_meta = |w: &mut JsonWriter<'_>, &(p, index): &(u32, u32)| w.u32s(&[p, index]);
        rendered += write_grown(w.key("r_meta"), nodes_from, 1, &self.r_meta, r_meta);
        w.key("epoch").u64(self.epoch);
        w.key("watermark").u32s(&self.watermark);
        w.key("cp_base").u32s(&self.cp_base);
        w.key("reclaimed_rows").u64(self.reclaimed_rows);
        w.end_object();
        count_rendered(rendered, reach_rows);
        self.marks(msgs_from)
    }

    /// The marks of a render of the engine as it is, whose `msgs` rows below
    /// `msgs_from` are all delivered: the first message in transit is
    /// looked for from there on.
    fn marks(&self, msgs_from: usize) -> SnapshotMarks {
        let in_transit = self.msgs[msgs_from..]
            .iter()
            .position(|m| m.deliver_iv == NONE_U32);
        SnapshotMarks {
            epoch: self.epoch,
            events: self.events,
            msgs: msgs_from + in_transit.unwrap_or(self.msgs.len() - msgs_from),
            msg_tdv: self.msg_tdv.len() / self.n,
            nodes: self.r_meta.len(),
        }
    }

    /// Restores an engine from the text of a snapshot document of any
    /// supported version:
    /// [`read_snapshot`](IncrementalAnalysis::read_snapshot), nothing but
    /// whitespace after it, then
    /// [`from_snapshot_tables`](IncrementalAnalysis::from_snapshot_tables).
    /// Like the writer, only on the bare core: neither the chain layer nor
    /// an undo journal is restored.
    ///
    /// ```compile_fail
    /// use rdt_rgraph::FullAnalysis;
    ///
    /// let text = b"{\"format\":\"rdt-rgraph-snapshot\"}";
    /// let _ = FullAnalysis::from_snapshot_text(text);
    /// ```
    ///
    /// ```compile_fail
    /// use rdt_rgraph::{IncrementalAnalysis, NoChains, UndoJournal};
    ///
    /// let text = b"{\"format\":\"rdt-rgraph-snapshot\"}";
    /// let _ = IncrementalAnalysis::<NoChains, UndoJournal>::from_snapshot_text(text);
    /// ```
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
    /// tables of a version 1 document, the derived tables of a version 2
    /// document and a `chains` member are never kept.
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
            let rows = |r: &mut JsonReader<'_>| read_rows(r, &key);
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
                "msgs" => keep(&mut t.msgs, &key, read_grown(r, &key, rows)?)?,
                "cur_tdv" => keep(&mut t.cur_tdv, &key, read_u32s(r)?)?,
                "msg_tdv" => keep(&mut t.msg_tdv, &key, read_grown(r, &key, read_u32s)?)?,
                "cp_tdv" => keep(&mut t.cp_tdv, &key, read_grown(r, &key, read_u32s)?)?,
                "reach" => keep(&mut t.reach, &key, read_grown(r, &key, read_u32s)?)?,
                "rmat" => keep(&mut t.rmat, &key, read_matrix(r)?)?,
                "r_meta" => keep(&mut t.r_meta, &key, read_grown(r, &key, rows)?)?,
                "cp_nodes" => keep(&mut t.cp_nodes, &key, read_ragged(r)?)?,
                "watermark" => keep(&mut t.watermark, &key, read_u32s(r)?)?,
                "cp_base" => keep(&mut t.cp_base, &key, read_u32s(r)?)?,
                "drop_reach" => keep(&mut t.drop_reach, &key, read_u32s(r)?)?,
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
    /// The restore is **total and validating**: missing tables, a delta's
    /// tables (which describe nothing without the tables they were written
    /// against) and — crucially — cross-table inconsistencies that would let
    /// a later append or query index out of bounds are all
    /// [`SnapshotError`]s. The restored engine is at the snapshot's
    /// compaction epoch.
    pub fn from_snapshot_tables(t: SnapshotTables) -> Result<Self, SnapshotError> {
        if let Some(key) = t.delta_key() {
            return Err(bad(format!(
                "`{key}` starts past its first row: a delta with no base"
            )));
        }
        // Width of a `msgs` row and the column of `tdv_row` in it.
        let version = need(t.version, "version")?;
        let (msg_cols, tdv_col) = match version {
            1 => (8, 7),
            _ => (5, 4),
        };
        let n = need_usize(t.n, "n")?;
        if n == 0 {
            return Err(bad("`n` must be at least 1"));
        }
        let cp_count = per_process(t.cp_count, n, "cp_count")?;
        let msg_tdv = need(t.msg_tdv, "msg_tdv")?.rows;
        if msg_tdv.len() % n != 0 {
            return Err(bad("`msg_tdv` is not a whole number of rows"));
        }

        // ---- message records, threaded into their chains -------------
        // Intervals are 1-based and at most one past the last checkpoint
        // (the consistency descents step to `deliver_iv - 1`).
        let placed = |iv: u32, p: u32| (1..=cp_count[p as usize].saturating_add(1)).contains(&iv);
        let table = need(t.msgs, "msgs")?.rows;
        if table.rows >= NONE_U32 as usize {
            return Err(bad("`msgs` has more entries than message handles"));
        }
        let mut msgs: Vec<MsgRec> = Vec::with_capacity(table.rows);
        let mut heads = vec![NONE_U32; 2 * n];
        let mut arrivals = vec![Vec::new(); n];
        for (mid, row) in rows_of(&table, msg_cols, "msgs")?.enumerate() {
            let mut m = MsgRec {
                from: row[0],
                to: row[1],
                send_iv: row[2],
                deliver_iv: row[3],
                tdv_row: row[tdv_col],
                prev_send: NONE_U32,
                prev_delivery: NONE_U32,
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
            // Rule 2 scans walk a send chain by interval.
            let head = &mut heads[m.from as usize];
            if msgs
                .get(*head as usize)
                .is_some_and(|prev| prev.send_iv > m.send_iv)
            {
                return Err(bad("`msgs` entry is sent before its predecessor"));
            }
            m.prev_send = std::mem::replace(head, mid as u32);
            if m.deliver_iv != NONE_U32 {
                arrivals[m.to as usize].push((m.deliver_iv, mid as u32));
            }
            msgs.push(m);
        }
        // The deliveries at a process are threaded by interval, and inside
        // one by handle.
        for (head, arrivals) in heads[n..].iter_mut().zip(&mut arrivals) {
            arrivals.sort_unstable();
            for &(_, mid) in &*arrivals {
                msgs[mid as usize].prev_delivery = std::mem::replace(head, mid);
            }
        }

        let r_meta = need(t.r_meta, "r_meta")?.rows;
        let r_meta = rows_of(&r_meta, 2, "r_meta")?;
        let mut engine = IncrementalAnalysis {
            n,
            chains: NoChains,
            journal: NoJournal,
            events: need_usize(t.events, "events")?,
            untrackable: need(t.untrackable, "untrackable")?,
            line_open: per_process(t.line_open, n, "line_open")?,
            msgs,
            cur_tdv: need(t.cur_tdv, "cur_tdv")?,
            msg_tdv,
            cp_tdv: need(t.cp_tdv, "cp_tdv")?.rows,
            reach: Vec::new(),
            reach_floor: 0,
            marked_events: usize::MAX,
            r_meta: r_meta.map(|pair| (pair[0], pair[1])).collect(),
            cp_nodes: Vec::new(),
            heads,
            // Not in the document either: the first fit question walks.
            tails: Vec::new(),
            epoch: need(t.epoch, "epoch")?,
            watermark: per_process(t.watermark, n, "watermark")?,
            cp_base: per_process(t.cp_base, n, "cp_base")?,
            cp_count,
            reclaimed_rows: need(t.reclaimed_rows, "reclaimed_rows")?,
            // Not in the document: the first compaction after a restore
            // walks the table once and finds the cursor again.
            settled: 0,
        };
        // Versions 1–3 hold the closure as bits, `reach` joined from them.
        let mut fwd = None;
        if version < 4 {
            let bits = matrix_from_tables(t.rmat, "rmat")?;
            if engine.r_meta.len() != bits.nodes {
                return Err(bad("`r_meta` length disagrees with `rmat` nodes"));
            }
            engine.check_core_tables()?;
            engine.index_checkpoints()?;
            if per_process(t.cp_nodes, n, "cp_nodes")? != engine.cp_nodes {
                return Err(bad(
                    "`cp_nodes` is not the list of retained checkpoints `r_meta` holds",
                ));
            }
            engine.reach = engine.join_reach(&bits, need(t.drop_reach, "drop_reach")?)?;
            fwd = Some(bits);
        } else {
            engine.reach = need(t.reach, "reach")?.rows;
            engine.check_core_tables()?;
            engine.index_checkpoints()?;
        }
        engine.check_reach()?;
        // Version 1–3 bits in which the checkpoints of a process reaching a
        // node are no prefix would have `reaches` answer otherwise than
        // they did: they must be the closure `reach` describes, bit by bit.
        let describes = |fwd: &BitSlab| {
            let nodes = 0..fwd.nodes;
            let bit_is_reach = |x| {
                nodes
                    .clone()
                    .all(|y| fwd.bit(x, y) == engine.node_reaches(x, y))
            };
            nodes.clone().all(bit_is_reach)
        };
        if fwd.as_ref().is_some_and(|fwd| !describes(fwd)) {
            return Err(bad("`rmat.fwd` is not the closure its `reach` describes"));
        }
        Ok(engine)
    }

    /// `reach` of a version 1–3 document, from the two halves it holds it
    /// in: the columns of the closure bits for the retained checkpoints, and
    /// `drop_reach` — one entry per (node, process), or none before the
    /// first compaction — for the compacted-away ones, which only count
    /// where no retained checkpoint of the process reaches the node.
    fn join_reach(&self, fwd: &BitSlab, drop_reach: Vec<u32>) -> Result<Vec<u32>, SnapshotError> {
        let n = self.n;
        if !drop_reach.is_empty() && drop_reach.len() != fwd.nodes * n {
            return Err(bad("`drop_reach` length disagrees with `rmat` nodes"));
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
        // `NONE_U32` wraps to 0: the table is stored one up.
        let mut reach: Vec<u32> = drop_reach.iter().map(|d| d.wrapping_add(1)).collect();
        reach.resize(fwd.nodes * n, 0);
        for (q, (own, &base)) in self.cp_nodes.iter().zip(&self.cp_base).enumerate() {
            for (index, &x) in (base + 1..).zip(own) {
                for y in bits::ones(fwd.row(x as usize)) {
                    reach[y * n + q] = index;
                }
            }
        }
        Ok(reach)
    }

    /// The cross-table invariants of the core that appends and queries
    /// index through, and the bounds on every counter an append increments
    /// or the reach fold offsets by one, that every version shares.
    fn check_core_tables(&self) -> Result<(), SnapshotError> {
        let (n, nodes) = (self.n, self.r_meta.len());
        if nodes > MAX_CLOSURE_NODES {
            return Err(bad("`r_meta` holds more nodes than a closure can"));
        }
        if self.cur_tdv.len() != n * n {
            return Err(bad("`cur_tdv` is not n×n"));
        }
        if self.cp_tdv.len() != nodes * n {
            return Err(bad("`cp_tdv` length disagrees with the `r_meta` nodes"));
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
        Ok(())
    }

    /// `cp_nodes`, from `r_meta` (`nodes_by_process`), which must list each
    /// process's retained checkpoints `cp_base..=cp_count` in order.
    fn index_checkpoints(&mut self) -> Result<(), SnapshotError> {
        self.cp_nodes = nodes_by_process(&self.r_meta, self.n);
        for (p, own) in self.cp_nodes.iter().enumerate() {
            let (base, count) = (self.cp_base[p], self.cp_count[p]);
            let indices = own.iter().map(|&node| self.r_meta[node as usize].1);
            if base > count || indices.ne(base..=count) {
                return Err(bad(format!(
                    "`r_meta` does not hold process {p}'s checkpoints cp_base..=cp_count in order"
                )));
            }
        }
        Ok(())
    }

    /// The bounds the reach fold and `first_reached` rely on: a row
    /// per node, every entry at most one past its process's last
    /// checkpoint, the node's own lane past its index (it reaches itself),
    /// and no lane below the Rule 1 predecessor's.
    fn check_reach(&self) -> Result<(), SnapshotError> {
        let n = self.n;
        if self.reach.len() != self.r_meta.len() * n {
            return Err(bad("`reach` length disagrees with the `r_meta` nodes"));
        }
        let rows = self.reach.chunks_exact(n).zip(&self.r_meta).enumerate();
        for (y, (row, &(p, index))) in rows {
            if row
                .iter()
                .zip(&self.cp_count)
                .any(|(&reach, &c)| reach > c + 1)
            {
                return Err(bad(format!(
                    "`reach` row {y} names a checkpoint its process does not have"
                )));
            }
            if row[p as usize] <= index {
                return Err(bad(format!("`reach` row {y} does not reach its own node")));
            }
        }
        for own in &self.cp_nodes {
            for pair in own.windows(2) {
                let [x, y] = [pair[0], pair[1]].map(|node| &self.reach[node as usize * n..][..n]);
                if x.iter().zip(y).any(|(x, y)| x > y) {
                    return Err(bad(format!(
                        "`reach` row {} is below its Rule 1 predecessor's",
                        pair[1]
                    )));
                }
            }
        }
        Ok(())
    }

    /// Writes the engine whole (`on_disk` is `None`) or as a delta against
    /// what `on_disk` — the marks the latest call returned — says a file
    /// holds, and returns the marks of what it wrote. Against the marks of
    /// any earlier call (the reach floor counts from the latest one), of
    /// another epoch, or past a table's end, it writes whole.
    pub fn write_snapshot_since(
        &mut self,
        on_disk: Option<&SnapshotMarks>,
        w: &mut JsonWriter<'_>,
    ) -> SnapshotMarks {
        let marks = self.render_snapshot(on_disk, w);
        // Every `reach` row is as that text has it.
        self.reach_floor = usize::MAX;
        self.marked_events = self.events;
        marks
    }

    /// Takes the engine as written: a file holds it whole as it is now —
    /// the file it was just restored from, say, with nothing changed since.
    /// Sets the reach floor and the marked event count as a render does and
    /// returns the marks a render of the engine would return at this moment,
    /// so that [`write_snapshot_since`](IncrementalAnalysis::write_snapshot_since)
    /// against them writes what changes from here on, a delta to lay over
    /// that file. Renders nothing.
    ///
    /// ```rust
    /// use rdt_causality::ProcessId;
    /// use rdt_json::{JsonReader, JsonWriter};
    /// use rdt_rgraph::IncrementalAnalysis;
    ///
    /// let mut engine = IncrementalAnalysis::new(2);
    /// engine.append_checkpoint(ProcessId::new(1));
    /// let mut file = Vec::new();
    /// engine.write_snapshot(&mut JsonWriter::new(&mut file));
    ///
    /// let mut restored: IncrementalAnalysis = IncrementalAnalysis::from_snapshot_text(&file).unwrap();
    /// let marks = restored.mark_written();
    /// restored.append_checkpoint(ProcessId::new(0));
    /// let mut delta = Vec::new();
    /// restored.write_snapshot_since(Some(&marks), &mut JsonWriter::new(&mut delta));
    /// assert!(String::from_utf8(delta.clone()).unwrap().contains(r#""r_meta":{"from":3,"#));
    ///
    /// // The file with the delta laid over it is the engine, whole.
    /// let read = |text: &[u8]| <IncrementalAnalysis>::read_snapshot(&mut JsonReader::new(text));
    /// let mut tables = read(&file).unwrap();
    /// tables.fold(read(&delta).unwrap()).unwrap();
    /// let mut folded = Vec::new();
    /// let resumed = <IncrementalAnalysis>::from_snapshot_tables(tables).unwrap();
    /// resumed.write_snapshot(&mut JsonWriter::new(&mut folded));
    /// let mut whole = Vec::new();
    /// restored.write_snapshot(&mut JsonWriter::new(&mut whole));
    /// assert_eq!(folded, whole);
    /// ```
    pub fn mark_written(&mut self) -> SnapshotMarks {
        self.reach_floor = usize::MAX;
        self.marked_events = self.events;
        self.marks(0)
    }

    /// Whether anything of the engine changed since the render that returned
    /// `on_disk`: an append, or a compaction that discarded state.
    pub fn changed_since(&self, on_disk: &SnapshotMarks) -> bool {
        self.events != on_disk.events || self.epoch != on_disk.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdt_causality::ProcessId;
    use rdt_json::Json;

    /// The engine's version 3 document, parsed: the version 4 one with
    /// `reach` replaced by the tables version 3 held, as that writer wrote
    /// them, for the tests of what a version 1–3 restore checks.
    fn doc(engine: &IncrementalAnalysis) -> Json {
        let mut text = Vec::new();
        engine.write_snapshot(&mut JsonWriter::new(&mut text));
        let Json::Obj(fields) = Json::parse_bytes(&text).expect("well-formed JSON") else {
            panic!("not an object");
        };
        let u32s =
            |values: &[u32]| Json::Arr(values.iter().map(|&v| Json::U64(v.into())).collect());
        let mut v3 = Vec::new();
        for (key, value) in fields {
            match key.as_str() {
                "version" => v3.push((key, Json::U64(3))),
                "reach" => {
                    let mut mat = BitSlab::new(engine.r_meta.len());
                    for (x, row) in mat.words.chunks_exact_mut(mat.width).enumerate() {
                        for y in (0..mat.nodes).filter(|&y| engine.node_reaches(x, y)) {
                            bits::set(row, y);
                        }
                    }
                    v3.push((
                        "rmat".into(),
                        Json::obj([
                            ("nodes", Json::U64(mat.nodes as u64)),
                            ("width", Json::U64(mat.width as u64)),
                            (
                                "fwd",
                                Json::Arr(mat.words.iter().map(|&w| Json::U64(w)).collect()),
                            ),
                        ]),
                    ));
                }
                "r_meta" => {
                    v3.push((key, value));
                    let nodes = engine.cp_nodes.iter().map(|own| u32s(own));
                    v3.push(("cp_nodes".into(), Json::Arr(nodes.collect())));
                }
                "cp_base" => {
                    v3.push((key, value));
                    v3.push(("drop_reach".into(), Json::Arr(Vec::new())));
                }
                _ => v3.push((key, value)),
            }
        }
        Json::Obj(v3)
    }

    /// `doc["rmat"]`, mutably.
    fn rmat(doc: &mut Json) -> &mut Vec<(String, Json)> {
        let Json::Obj(fields) = doc else {
            panic!("not an object");
        };
        match &mut fields.iter_mut().find(|(k, _)| k == "rmat").unwrap().1 {
            Json::Obj(fields) => fields,
            _ => panic!("not a matrix"),
        }
    }

    /// `doc["rmat"].fwd[word]`, mutably.
    fn fwd_word(doc: &mut Json, word: usize) -> &mut u64 {
        match &mut rmat(doc).iter_mut().find(|(k, _)| k == "fwd").unwrap().1 {
            Json::Arr(words) => match &mut words[word] {
                Json::U64(w) => w,
                _ => panic!("not a word"),
            },
            _ => panic!("not a slab"),
        }
    }

    fn restore(doc: &Json) -> Result<IncrementalAnalysis, SnapshotError> {
        IncrementalAnalysis::from_snapshot_text(doc.to_string().as_bytes())
    }

    /// A closure row with a bit at a column `≥ nodes` would index past the
    /// tables `reach` is joined from; a row without its diagonal bit names a
    /// node that does not reach itself. Both are rejected, and so is a
    /// column that is no prefix of a process's checkpoints, which would have
    /// `reaches` answer otherwise than `reach` counts.
    #[test]
    fn padding_bits_and_missing_diagonals_are_rejected() {
        let (p0, p1) = (ProcessId::new(0), ProcessId::new(1));
        let mut incr = IncrementalAnalysis::new(2);
        incr.append_checkpoint(p0);
        let m = incr.append_send(p0, p1);
        incr.append_deliver(m);
        incr.append_checkpoint(p1);
        let good = doc(&incr);
        assert!(restore(&good).is_ok());

        // The matrix is one word wide here, so word 1 is row 1.
        let mut bad = good.clone();
        *fwd_word(&mut bad, 1) |= 1 << 40;
        let err = restore(&bad).unwrap_err();
        assert!(err.message.contains("beyond its node count"), "{err}");

        let mut bad = good.clone();
        *fwd_word(&mut bad, 1) &= !(1 << 1);
        let err = restore(&bad).unwrap_err();
        assert!(err.message.contains("diagonal"), "{err}");

        // Nodes 0 and 2 are `C_{0,0}` and `C_{0,1}`, node 3 is `C_{1,1}`:
        // the later checkpoint of process 0 reaching it, the earlier not.
        let mut bad = good.clone();
        *fwd_word(&mut bad, 2) |= 1 << 3;
        let err = restore(&bad).unwrap_err();
        assert!(err.message.contains("rmat"), "{err}");
    }

    /// The reported reproduction, as version 2 wrote it: restored with the
    /// `bwd` slab it carried, this document made the next checkpoint of
    /// `p0` index out of bounds. The slab is no longer read — the closure is
    /// built from the `reach` joined from the checked `fwd` — so whatever a
    /// document of any version says under `bwd` is ignored, and the engine it
    /// restores to is the one the rest of it describes.
    #[test]
    fn padding_bit_in_rmat_bwd_no_longer_panics_the_next_append() {
        let mut incr = IncrementalAnalysis::new(2);
        incr.append_checkpoint(ProcessId::new(0));
        let good = doc(&incr);
        incr.append_checkpoint(ProcessId::new(0));
        for junk in [
            Json::Arr(vec![Json::U64(1), Json::U64(3), Json::U64(4 | 1 << 40)]),
            Json::Str("not a slab".into()),
        ] {
            let mut bad = good.clone();
            rmat(&mut bad).push(("bwd".into(), junk));
            let mut restored = restore(&bad).expect("`bwd` is not read");
            assert_eq!(doc(&restored), good);
            restored.append_checkpoint(ProcessId::new(0));
            assert_eq!(doc(&restored), doc(&incr));
        }
    }
}
