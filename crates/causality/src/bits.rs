//! How booleans are packed into `u64` words — the one module that knows.
//!
//! **Format.** Bit `i` of a row lives in word `i / 64` at bit position
//! `i % 64`, least-significant bit first. Row `r` of a slab with `w` words
//! per row is `words[r·w .. (r+1)·w]`. Padding bits (positions at or beyond
//! the row's logical length) are always zero, so popcounts and the
//! [`ones`] iterator never need a length filter.
//!
//! Two layers are provided:
//!
//! * slice kernels over `&[u64]` / `&mut [u64]` ([`test()`], [`set`],
//!   [`clear`], [`ones`], [`intersects`], [`or_into`], [`count_ones`],
//!   [`words_for`]) for code that owns its own slab layout — the round
//!   executor's arena in `rdt-core` and the incremental closure matrices in
//!   `rdt-rgraph` — and
//! * the owned shapes [`BitRow`] and [`BitMatrix`] built on them, used for
//!   the protocol state of Figure 6 (`sent_to`, `simple`, the `n × n`
//!   `causal`) and for the R-graph / zigzag closures.
//!
//! **Bounds policy.** Single-bit accessors of the owned shapes hard-`assert!`
//! their index in every build profile: an out-of-range column must never
//! flip a padding bit or a bit of the next row. Whole-row operations only
//! `debug_assert!` that the widths agree. The slice kernels index the slice
//! they are given and rely on the caller's row view for the bound.

/// Bits per packed word.
pub const WORD_BITS: usize = 64;

/// Words needed to hold `len` bits.
#[inline]
pub const fn words_for(len: usize) -> usize {
    len.div_ceil(WORD_BITS)
}

/// Reads bit `i` of `words`.
#[inline]
pub fn test(words: &[u64], i: usize) -> bool {
    (words[i / WORD_BITS] >> (i % WORD_BITS)) & 1 == 1
}

/// Sets bit `i` of `words`.
#[inline]
pub fn set(words: &mut [u64], i: usize) {
    words[i / WORD_BITS] |= 1u64 << (i % WORD_BITS);
}

/// Clears bit `i` of `words`.
#[inline]
pub fn clear(words: &mut [u64], i: usize) {
    words[i / WORD_BITS] &= !(1u64 << (i % WORD_BITS));
}

/// Iterates over the positions of the set bits of `words`, ascending.
///
/// Written with `successors` rather than a `from_fn` closure mutating a
/// captured word: the latter made compaction's row rebuild a quarter slower.
#[inline]
pub fn ones(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(wi, &word)| {
        std::iter::successors((word != 0).then_some(word), |&rest| {
            let next = rest & (rest - 1);
            (next != 0).then_some(next)
        })
        .map(move |rest| wi * WORD_BITS + rest.trailing_zeros() as usize)
    })
}

/// Whether `a ∩ b` is non-empty, without materializing it.
#[inline]
pub fn intersects(a: &[u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).any(|(&x, &y)| x & y != 0)
}

/// `dst |= src`; returns `true` if any bit of `dst` changed.
#[inline]
pub fn or_into(dst: &mut [u64], src: &[u64]) -> bool {
    debug_assert_eq!(dst.len(), src.len());
    let mut fresh = 0u64;
    for (d, &s) in dst.iter_mut().zip(src) {
        fresh |= s & !*d;
        *d |= s;
    }
    fresh != 0
}

/// Number of set bits in `words`.
#[inline]
pub fn count_ones(words: &[u64]) -> usize {
    words.iter().map(|w| w.count_ones() as usize).sum()
}

/// A fixed-length bitset.
///
/// Serves as the protocol's `sent_to_i` / `simple_i` vectors (indexed by
/// [`ProcessId`](crate::ProcessId)) and as the visited sets and interval
/// masks of the graph kernels (indexed by `usize`); the single-bit
/// accessors take either.
///
/// # Example
///
/// ```rust
/// use rdt_causality::{BitRow, ProcessId};
///
/// let mut sent_to = BitRow::new(128);
/// sent_to.set(ProcessId::new(100));
/// assert!(sent_to.get(100usize));
/// assert_eq!(sent_to.count_ones(), 1);
/// sent_to.fill(false);
/// assert!(!sent_to.any());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitRow {
    len: usize,
    words: Vec<u64>,
}

impl BitRow {
    /// An all-zero row of `len` bits.
    pub fn new(len: usize) -> Self {
        BitRow {
            len,
            words: vec![0; words_for(len)],
        }
    }

    /// Number of bits (set or not).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the row has zero bits of capacity.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn check(&self, i: impl Into<usize>) -> usize {
        let i = i.into();
        assert!(i < self.len, "bit {i} out of range for length {}", self.len);
        i
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn get(&self, i: impl Into<usize>) -> bool {
        test(&self.words, self.check(i))
    }

    /// Sets bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn set(&mut self, i: impl Into<usize>) {
        let i = self.check(i);
        set(&mut self.words, i);
    }

    /// Clears bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn clear(&mut self, i: impl Into<usize>) {
        let i = self.check(i);
        clear(&mut self.words, i);
    }

    /// Writes `value` to bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn set_to(&mut self, i: impl Into<usize>, value: bool) {
        if value {
            self.set(i);
        } else {
            self.clear(i);
        }
    }

    /// Writes `value` to every bit (padding stays zero).
    pub fn fill(&mut self, value: bool) {
        self.words.fill(if value { u64::MAX } else { 0 });
        let tail = self.len % WORD_BITS;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// `self |= other`; returns `true` if any bit changed.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the lengths differ.
    pub fn union_with(&mut self, other: &BitRow) -> bool {
        debug_assert_eq!(self.len, other.len);
        or_into(&mut self.words, &other.words)
    }

    /// `self &= other`.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the lengths differ.
    pub fn and_assign(&mut self, other: &BitRow) {
        debug_assert_eq!(self.len, other.len);
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// Whether at least one bit is set.
    pub fn any(&self) -> bool {
        self.words.iter().any(|&w| w != 0)
    }

    /// Iterates over the indices of the set bits, ascending.
    pub fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        ones(&self.words)
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        count_ones(&self.words)
    }

    /// The backing words, for the slice kernels.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Size in bytes when piggybacked on a message (`⌈len/8⌉`).
    pub fn piggyback_bytes(&self) -> usize {
        self.len.div_ceil(8)
    }
}

/// A dense boolean matrix stored as a row slab: all rows live in one
/// contiguous `Vec<u64>`, each padded to a whole number of words.
///
/// Square, it is the protocol's `causal_i` matrix: entry `(k, l)` means *to
/// the knowledge of `P_i`, there is an on-line trackable R-path from
/// `C_{k,TDV_i[k]}` to `C_{l,TDV_i[l]}`* (paper §4.1), and the delivery
/// rules translate to [`copy_row_from`](BitMatrix::copy_row_from) (new
/// dependency on `P_k`), [`or_row_from`](BitMatrix::or_row_from) (known
/// dependency) and [`or_column_into`](BitMatrix::or_column_into)
/// (transitive closure through the sender). Rectangular, it is the storage
/// of the R-graph and zigzag closures: row `r` holds the set of columns
/// reachable from node `r`, and row unions run 64 bits per instruction.
///
/// # Example
///
/// ```rust
/// use rdt_causality::{bits, BitMatrix, ProcessId};
///
/// let (k, j) = (ProcessId::new(0), ProcessId::new(1));
/// let mut causal = BitMatrix::identity(2);
/// assert!(causal.get(k, k) && !causal.get(k, j));
/// causal.set(k, j);
/// assert_eq!(bits::ones(causal.row(0)).collect::<Vec<_>>(), vec![0, 1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitMatrix {
    rows: usize,
    cols: usize,
    /// Words per row.
    width: usize,
    words: Vec<u64>,
}

impl BitMatrix {
    /// An all-zero matrix of `rows × cols` bits.
    pub fn new(rows: usize, cols: usize) -> Self {
        let width = words_for(cols);
        BitMatrix {
            rows,
            cols,
            width,
            words: vec![0; rows * width],
        }
    }

    /// The `n × n` matrix with the diagonal set (the protocol's initial
    /// `causal_i`).
    pub fn identity(n: usize) -> Self {
        let mut m = BitMatrix::new(n, n);
        for i in 0..n {
            m.set(i, i);
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The words of row `r`, for the slice kernels.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    #[inline]
    pub fn row(&self, r: usize) -> &[u64] {
        assert!(r < self.rows, "row {r} out of range for {} rows", self.rows);
        &self.words[r * self.width..(r + 1) * self.width]
    }

    /// Private: a caller holding these words could set padding bits.
    #[inline]
    fn row_mut(&mut self, r: usize) -> &mut [u64] {
        assert!(r < self.rows, "row {r} out of range for {} rows", self.rows);
        &mut self.words[r * self.width..(r + 1) * self.width]
    }

    #[inline]
    fn check_col(&self, c: impl Into<usize>) -> usize {
        let c = c.into();
        assert!(
            c < self.cols,
            "column {c} out of range for {} columns",
            self.cols
        );
        c
    }

    /// Reads bit `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[inline]
    pub fn get(&self, r: impl Into<usize>, c: impl Into<usize>) -> bool {
        test(self.row(r.into()), self.check_col(c))
    }

    /// Sets bit `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[inline]
    pub fn set(&mut self, r: impl Into<usize>, c: impl Into<usize>) {
        self.set_to(r, c, true);
    }

    /// Writes `value` to bit `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[inline]
    pub fn set_to(&mut self, r: impl Into<usize>, c: impl Into<usize>, value: bool) {
        let c = self.check_col(c);
        let row = self.row_mut(r.into());
        if value {
            set(row, c);
        } else {
            clear(row, c);
        }
    }

    /// Clears every bit of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn clear_row(&mut self, r: impl Into<usize>) {
        self.row_mut(r.into()).fill(0);
    }

    /// `row[dst] |= row[src]` in one word-parallel pass; returns `true`
    /// if any bit changed. A no-op when `dst == src`.
    ///
    /// # Panics
    ///
    /// Panics if either row is out of range.
    pub fn union_rows(&mut self, dst: usize, src: usize) -> bool {
        assert!(dst < self.rows && src < self.rows, "row out of range");
        if dst == src {
            return false;
        }
        let w = self.width;
        let (dst_words, src_words) = if dst < src {
            let (lo, hi) = self.words.split_at_mut(src * w);
            (&mut lo[dst * w..(dst + 1) * w], &hi[..w])
        } else {
            let (lo, hi) = self.words.split_at_mut(dst * w);
            (&mut hi[..w], &lo[src * w..(src + 1) * w])
        };
        or_into(dst_words, src_words)
    }

    /// `row[dst] := other.row[src]` — in the protocol, the message brings a
    /// *new* dependency on `dst`'s process.
    ///
    /// # Panics
    ///
    /// Panics if a row is out of range, and (debug) if the column counts
    /// differ.
    pub fn copy_row_from(
        &mut self,
        dst: impl Into<usize>,
        other: &BitMatrix,
        src: impl Into<usize>,
    ) {
        debug_assert_eq!(self.cols, other.cols);
        self.row_mut(dst.into())
            .copy_from_slice(other.row(src.into()));
    }

    /// `row[dst] |= other.row[src]` — in the protocol, the dependency is
    /// already known and knowledge accumulates.
    ///
    /// # Panics
    ///
    /// Panics if a row is out of range, and (debug) if the column counts
    /// differ.
    pub fn or_row_from(&mut self, dst: impl Into<usize>, other: &BitMatrix, src: impl Into<usize>) {
        debug_assert_eq!(self.cols, other.cols);
        or_into(self.row_mut(dst.into()), other.row(src.into()));
    }

    /// `∀l: self[l][dst] |= self[l][src]` — the transitive-closure step run
    /// when `P_dst` delivers a message sent by `P_src`.
    ///
    /// # Panics
    ///
    /// Panics if either column is out of range.
    pub fn or_column_into(&mut self, src: impl Into<usize>, dst: impl Into<usize>) {
        let (s, d) = (self.check_col(src), self.check_col(dst));
        for row in self.words.chunks_exact_mut(self.width) {
            if test(row, s) {
                set(row, d);
            }
        }
    }

    /// Number of set bits over the whole matrix.
    pub fn count_ones(&self) -> usize {
        count_ones(&self.words)
    }

    /// Drops every row at index `n` and beyond, releasing their storage.
    ///
    /// The closure kernels compute rows for auxiliary graph nodes (interval
    /// slots) that callers do not query; truncating sheds that memory.
    pub fn truncate_rows(&mut self, n: usize) {
        if n < self.rows {
            self.rows = n;
            self.words.truncate(n * self.width);
            self.words.shrink_to_fit();
        }
    }

    /// Size in bytes when piggybacked on a message (`⌈rows·cols/8⌉`).
    pub fn piggyback_bytes(&self) -> usize {
        (self.rows * self.cols).div_ceil(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProcessId;

    fn row_with(len: usize, set_bits: &[usize]) -> BitRow {
        let mut row = BitRow::new(len);
        for &i in set_bits {
            row.set(i);
        }
        row
    }

    #[test]
    fn kernels_agree_on_the_format() {
        assert_eq!(words_for(0), 0);
        assert_eq!(words_for(64), 1);
        assert_eq!(words_for(65), 2);
        let mut words = [0u64; 3];
        set(&mut words, 0);
        set(&mut words, 64);
        set(&mut words, 191);
        assert_eq!(words, [1, 1, 1 << 63], "LSB first, word i / 64");
        assert!(test(&words, 191) && !test(&words, 190));
        assert_eq!(ones(&words).collect::<Vec<_>>(), vec![0, 64, 191]);
        assert_eq!(count_ones(&words), 3);
        clear(&mut words, 64);
        assert_eq!(words[1], 0);
        assert!(intersects(&words, &[1, 0, 0]));
        assert!(!intersects(&words, &[2, u64::MAX, 0]));
    }

    #[test]
    fn or_into_reports_changes_in_any_word() {
        let mut dst = [0b01u64, 0];
        assert!(
            or_into(&mut dst, &[0, 1 << 40]),
            "only a later word changes"
        );
        assert!(!or_into(&mut dst, &[0b01, 1 << 40]), "already a superset");
        assert!(!or_into(&mut dst, &[0, 0]));
        assert_eq!(dst, [0b01, 1 << 40]);
    }

    #[test]
    fn row_set_get_clear_across_word_boundaries() {
        let mut v = row_with(130, &[0, 63, 64, 129]);
        assert!(v.get(0usize) && v.get(63usize) && v.get(64usize) && v.get(129usize));
        assert!(!v.get(1usize));
        assert_eq!(v.count_ones(), 4);
        v.set_to(ProcessId::new(64), false);
        assert!(!v.get(ProcessId::new(64)));
        v.set_to(1usize, true);
        v.clear(129usize);
        assert_eq!(v.ones().collect::<Vec<_>>(), vec![0, 1, 63]);
        assert_eq!(v.len(), 130);
    }

    #[test]
    fn row_fill_keeps_padding_zero() {
        for len in [1usize, 63, 64, 65, 70, 130] {
            let mut v = BitRow::new(len);
            assert!(!v.any());
            v.fill(true);
            assert_eq!(v.count_ones(), len);
            assert_eq!(v.ones().count(), len);
            assert_eq!(v.ones().last(), Some(len - 1));
            v.fill(false);
            assert!(!v.any());
        }
    }

    #[test]
    fn row_ones_on_ragged_and_full_final_words() {
        // 65 bits: the second word is a single ragged bit.
        let a = row_with(65, &[63, 64]);
        assert_eq!(a.count_ones(), 2);
        assert_eq!(a.ones().collect::<Vec<_>>(), vec![63, 64]);
        let b = row_with(64, &[0, 63]);
        assert_eq!(b.ones().collect::<Vec<_>>(), vec![0, 63]);
    }

    #[test]
    fn empty_row_is_harmless() {
        let a = BitRow::new(0);
        assert!(a.is_empty() && !a.any());
        assert_eq!(a.count_ones(), 0);
        assert_eq!(a.ones().count(), 0);
        assert!(a.words().is_empty());
    }

    #[test]
    fn piggyback_bytes_count_logical_bits() {
        assert_eq!(BitRow::new(8).piggyback_bytes(), 1);
        assert_eq!(BitRow::new(9).piggyback_bytes(), 2);
        assert_eq!(BitMatrix::new(4, 4).piggyback_bytes(), 2); // 16 bits
        assert_eq!(BitMatrix::new(9, 9).piggyback_bytes(), 11); // 81 bits
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn row_get_out_of_range_panics() {
        let _ = BitRow::new(4).get(4usize);
    }

    // Bits 65..127 share the last word with valid ones: in a release build a
    // `debug_assert!` would let this flip a padding bit.
    #[test]
    #[should_panic(expected = "out of range")]
    fn row_set_into_padding_panics() {
        BitRow::new(65).set(100usize);
    }

    #[test]
    fn identity_has_diagonal_only() {
        let m = BitMatrix::identity(4);
        assert_eq!(m.count_ones(), 4);
        for r in 0usize..4 {
            for c in 0usize..4 {
                assert_eq!(m.get(r, c), r == c);
            }
        }
        assert_eq!(BitMatrix::new(5, 5).count_ones(), 0);
    }

    #[test]
    fn matrix_set_get_roundtrip_square_and_rectangular() {
        let mut m = BitMatrix::new(3, 130);
        m.set(0usize, 0usize);
        m.set(1usize, 64usize);
        m.set(2usize, 129usize);
        assert!(m.get(0usize, 0usize) && m.get(1usize, 64usize) && m.get(2usize, 129usize));
        assert!(!m.get(0usize, 129usize) && !m.get(2usize, 0usize));
        assert_eq!((m.rows(), m.cols()), (3, 130));
        assert_eq!(m.count_ones(), 3);
        m.set_to(1usize, 64usize, false);
        m.set_to(1usize, 65usize, true);
        assert_eq!(ones(m.row(1)).collect::<Vec<_>>(), vec![65]);

        let mut sq = BitMatrix::new(130, 130);
        sq.set(ProcessId::new(129), ProcessId::new(129));
        sq.set(ProcessId::new(0), ProcessId::new(64));
        assert!(sq.get(129usize, 129usize) && sq.get(0usize, 64usize));
        assert!(!sq.get(64usize, 0usize));
        assert_eq!(sq.count_ones(), 2);
    }

    #[test]
    fn clear_row_only_touches_that_row() {
        let mut m = BitMatrix::identity(3);
        m.set(1usize, 2usize);
        m.clear_row(1usize);
        assert_eq!(count_ones(m.row(1)), 0);
        assert!(m.get(0usize, 0usize) && m.get(2usize, 2usize));
    }

    #[test]
    fn copy_and_or_row_from_another_matrix() {
        let mut src = BitMatrix::new(2, 70);
        src.set(0usize, 3usize);
        src.set(0usize, 69usize);
        let mut copied = BitMatrix::new(4, 70);
        copied.set(3usize, 5usize);
        let mut ored = copied.clone();
        copied.copy_row_from(3usize, &src, 0usize);
        assert_eq!(ones(copied.row(3)).collect::<Vec<_>>(), vec![3, 69]);
        ored.or_row_from(3usize, &src, 0usize);
        assert_eq!(ones(ored.row(3)).collect::<Vec<_>>(), vec![3, 5, 69]);
        assert_eq!(count_ones(ored.row(2)), 0, "other rows untouched");
        let mask = row_with(70, &[69]);
        assert!(intersects(ored.row(3), mask.words()));
        assert!(!intersects(ored.row(0), mask.words()));
    }

    #[test]
    fn truncate_rows_drops_their_bits() {
        let mut m = BitMatrix::new(4, 65);
        m.set(0usize, 64usize);
        m.set(3usize, 1usize);
        m.truncate_rows(2);
        assert_eq!(m.rows(), 2);
        assert!(m.get(0usize, 64usize));
        assert_eq!(m.count_ones(), 1);
    }

    // The silent row bleed: with 65 columns each row is two words, and
    // column 130 of row 0 is bit 2 of row 1's first word.
    #[test]
    #[should_panic(expected = "column 130 out of range")]
    fn matrix_set_past_the_last_column_panics() {
        BitMatrix::new(2, 65).set(0usize, 130usize);
    }

    #[test]
    #[should_panic(expected = "column 64 out of range")]
    fn matrix_get_in_the_padding_panics() {
        let _ = BitMatrix::new(2, 3).get(0usize, 64usize);
    }

    #[test]
    #[should_panic(expected = "row 2 out of range")]
    fn matrix_row_out_of_range_panics() {
        let _ = BitMatrix::new(2, 2).get(2usize, 0usize);
    }
}
