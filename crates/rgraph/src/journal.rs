//! The journal layer of [`IncrementalAnalysis`]: an undo log of every
//! mutation and the `mark` / `rewind` / `with_closed` API that replays it
//! backwards. Backtracking state belongs to the reader that backtracks:
//! [`NoJournal::record`](Journal::record) is empty and inlines away, so a
//! journal-free engine's closure kernel has no push in its inner loop.
//!
//! [`rewind`](IncrementalAnalysis::rewind) restores the marked state bit
//! for bit, which is what makes prefix-sharing replay cheap: a verifier
//! keeps one engine per protocol, rewinds to the longest common prefix with
//! the next schedule and appends only the suffix.

use super::*;

/// Matrix selectors of journaled closure words: a word's selector is
/// `mat * 2 + direction` (direction 1 = the transpose slab).
pub(super) const MAT_R: u8 = 0;
pub(super) const MAT_Z: u8 = 1;
pub(super) const MAT_C: u8 = 2;

/// Bits of an [`Undo::Word`] address holding the row; the selector sits
/// above.
const ROW_BITS: u32 = 29;

/// Row bound of a closure matrix, asserted by `push_node`: a journaled
/// row must leave the three selector bits free (and a closure of 2²⁹ rows
/// could not be held in memory anyway).
pub(super) const MAX_CLOSURE_NODES: usize = 1 << ROW_BITS;

/// One reversible mutation; the journal is replayed backwards on rewind.
/// An append records its own entry (`Checkpoint`, `Send`, `Deliver`, with
/// whether the process line was `open` before) first, so the closure words
/// and chain entries it causes are undone before the tables it pushed are
/// popped. `Word` is a changed closure-matrix word: selector and row in one
/// `u32` (see [`Undo::word`]), the little-endian index of the word within
/// the row, its old value. `Reach` is a raised lane of the reach table;
/// `ZSlot` (an interval slot of `p` was pushed) and `CLinked` (deliveries at
/// `p` were linked to a send spine) are the chain layer's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Undo {
    Word(u32, [u8; 3], u64),
    Checkpoint { p: u32, open: bool },
    Send { from: u32, open: bool },
    Deliver { mid: u32, open: bool },
    Untrackable { old: u64 },
    CurTdv { slot: u32, old: u32 },
    Reach { slot: u32, old: u32 },
    ZSlot { p: u32 },
    CLinked { p: u32, old: u32 },
}

const _: () = assert!(std::mem::size_of::<Undo>() == 16);

impl Undo {
    /// The matrix (`MAT_*`) a journaled word address belongs to.
    pub(super) fn mat_of(at: u32) -> u8 {
        (at >> (ROW_BITS + 1)) as u8
    }

    /// The entry for word `word` of row `row` in the slab `sel` selects.
    #[inline]
    pub(super) fn word(sel: u8, row: usize, word: usize, old: u64) -> Undo {
        let [b0, b1, b2, _] = (word as u32).to_le_bytes();
        Undo::Word(u32::from(sel) << ROW_BITS | row as u32, [b0, b1, b2], old)
    }
}

/// The journal layer: what the engine does with each reversible mutation.
pub trait Journal: Default + std::fmt::Debug {
    /// Records one mutation, before it is applied.
    #[doc(hidden)]
    fn record(&mut self, undo: Undo);
    /// A state-discarding compaction made everything recorded so far
    /// unreplayable.
    #[doc(hidden)]
    fn discard(&mut self) {}
}

/// The absent journal: nothing is recorded, nothing can be rewound.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoJournal;

impl Journal for NoJournal {
    #[inline(always)]
    fn record(&mut self, _: Undo) {}
}

/// The undo journal behind [`mark`](IncrementalAnalysis::mark) and
/// [`rewind`](IncrementalAnalysis::rewind).
#[derive(Debug, Default)]
pub struct UndoJournal {
    pub(super) entries: Vec<Undo>,
}

impl Journal for UndoJournal {
    #[inline]
    fn record(&mut self, undo: Undo) {
        self.entries.push(undo);
    }

    /// Releases the storage too: `clear()` would pin the high-water mark
    /// of the busiest epoch for the life of the stream.
    fn discard(&mut self) {
        self.entries = Vec::new();
    }
}

/// A position in the undo journal, as returned by
/// [`IncrementalAnalysis::mark`]. Rewinding to a mark restores the engine
/// to exactly the state it had when the mark was taken.
///
/// Marks are tagged with the engine's *compaction epoch*: a mark taken
/// before a [`compact_to`](IncrementalAnalysis::compact_to) cannot be
/// rewound to afterwards — the journal below the compaction point is gone
/// — and [`try_rewind`](IncrementalAnalysis::try_rewind) reports that as
/// [`RewindError::CompactionBoundary`] instead of corrupting state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Mark {
    epoch: u64,
    pos: usize,
}

/// Why a [`try_rewind`](IncrementalAnalysis::try_rewind) was refused. The
/// engine state is untouched when a rewind fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RewindError {
    /// The mark predates a compaction: the journal below the compaction
    /// point was discarded, so the marked state no longer exists.
    CompactionBoundary {
        /// Epoch the mark was taken in.
        mark_epoch: u64,
        /// The engine's current compaction epoch.
        engine_epoch: u64,
    },
    /// The mark is ahead of the journal — it was taken on a state that
    /// has itself been rewound away.
    AheadOfJournal,
}

impl std::fmt::Display for RewindError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RewindError::CompactionBoundary {
                mark_epoch,
                engine_epoch,
            } => write!(
                f,
                "mark from compaction epoch {mark_epoch} cannot be rewound to \
                 in epoch {engine_epoch}: the journal below the compaction \
                 point was discarded"
            ),
            RewindError::AheadOfJournal => {
                write!(f, "mark is ahead of the journal")
            }
        }
    }
}

impl std::error::Error for RewindError {}

impl ClosureMatrix {
    /// Removes the most recently pushed node (rewind path). Closure bits
    /// referring to it in surviving rows have already been undone through
    /// [`Undo::Word`] entries, which are newer than the node's push.
    pub(super) fn pop_node(&mut self) {
        self.nodes -= 1;
        self.fwd.truncate(self.nodes * self.width);
        self.bwd.truncate(self.nodes * self.width);
    }

    /// Puts back the word a journaled [`Undo::Word`] overwrote.
    pub(super) fn undo_word(&mut self, at: u32, word: [u8; 3], old: u64) {
        let slab = if at >> ROW_BITS & 1 == 0 {
            &mut self.fwd
        } else {
            &mut self.bwd
        };
        let row = (at as usize) & (MAX_CLOSURE_NODES - 1);
        let word = u32::from_le_bytes([word[0], word[1], word[2], 0]) as usize;
        slab[row * self.width + word] = old;
    }
}

impl<C: ChainLayer> IncrementalAnalysis<C, UndoJournal> {
    /// Captures the current state; pass to
    /// [`rewind`](IncrementalAnalysis::rewind) to restore it.
    pub fn mark(&self) -> Mark {
        Mark {
            epoch: self.epoch,
            pos: self.journal.entries.len(),
        }
    }

    /// Rewinds to a previously taken [`Mark`] by replaying the undo
    /// journal backwards. Cost is proportional to the state touched since
    /// the mark, not to the total pattern size.
    ///
    /// # Panics
    /// If the mark is ahead of the journal (taken on a state that has itself
    /// been rewound away) or predates a compaction — either is recoverable
    /// through [`try_rewind`](IncrementalAnalysis::try_rewind).
    pub fn rewind(&mut self, mark: Mark) {
        if let Err(err) = self.try_rewind(mark) {
            panic!("{err}");
        }
    }

    /// Fallible form of [`rewind`](IncrementalAnalysis::rewind): refuses
    /// (leaving the engine untouched) when the mark predates a compaction
    /// or is ahead of the journal. Rewinding *across a compaction point
    /// is a defined error, never a wrong answer* — the journal below the
    /// compaction was discarded, and the epoch tag on the mark detects
    /// exactly that case.
    pub fn try_rewind(&mut self, mark: Mark) -> Result<(), RewindError> {
        if mark.epoch != self.epoch {
            return Err(RewindError::CompactionBoundary {
                mark_epoch: mark.epoch,
                engine_epoch: self.epoch,
            });
        }
        if mark.pos > self.journal.entries.len() {
            return Err(RewindError::AheadOfJournal);
        }
        while self.journal.entries.len() > mark.pos {
            let entry = self.journal.entries.pop().expect("journal length checked");
            match entry {
                Undo::Word(at, word, old) if Undo::mat_of(at) == MAT_R => {
                    self.rmat.undo_word(at, word, old);
                }
                Undo::Checkpoint { p, open } => {
                    let p = p as usize;
                    self.cp_count[p] -= 1;
                    self.line_open[p] = open;
                    self.cur_tdv[p * self.n + p] -= 1;
                    self.rmat.pop_node();
                    self.r_meta.pop();
                    self.cp_nodes[p].pop();
                    self.cp_tdv.truncate(self.cp_tdv.len() - self.n);
                    self.reach.truncate(self.reach.len() - self.n);
                }
                Undo::Send { from, open } => {
                    self.line_open[from as usize] = open;
                    self.msgs.pop();
                    self.send_events[from as usize].pop();
                    self.msg_tdv.truncate(self.msg_tdv.len() - self.n);
                    self.chains.undo(entry, &self.msgs);
                }
                Undo::Deliver { mid, open } => {
                    let to = self.msgs[mid as usize].to as usize;
                    self.line_open[to] = open;
                    self.msgs[mid as usize].deliver_iv = NONE_U32;
                    self.deliver_events[to].pop();
                    self.chains.undo(entry, &self.msgs);
                }
                Undo::Untrackable { old } => self.untrackable = old,
                Undo::CurTdv { slot, old } => self.cur_tdv[slot as usize] = old,
                Undo::Reach { slot, old } => self.reach[slot as usize] = old,
                chain_entry => self.chains.undo(chain_entry, &self.msgs),
            }
        }
        Ok(())
    }

    /// Runs `f` on the **closed** extension of the current pattern — the
    /// state [`Pattern::to_closed`](crate::Pattern::to_closed) would
    /// produce (a final checkpoint appended to every non-empty line not
    /// already ending in one) — then rewinds the closing checkpoints.
    pub fn with_closed<R>(&mut self, f: impl FnOnce(&Self) -> R) -> R {
        let mark = self.mark();
        for i in 0..self.n {
            if self.line_open[i] {
                self.append_checkpoint(ProcessId::new(i));
            }
        }
        let out = f(self);
        self.rewind(mark);
        out
    }
}
