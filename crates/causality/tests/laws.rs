//! Algebraic laws of the causality primitives, property-tested.

use proptest::prelude::*;

use rdt_causality::{
    bits, BitMatrix, BitRow, ClockOrdering, DependencyVector, ProcessId, VectorClock,
};

fn clock_strategy(n: usize) -> impl Strategy<Value = VectorClock> {
    proptest::collection::vec(0u64..50, n).prop_map(VectorClock::from_entries)
}

fn dv_strategy(n: usize) -> impl Strategy<Value = DependencyVector> {
    (0..n, proptest::collection::vec(0u32..50, n))
        .prop_map(|(owner, entries)| DependencyVector::from_entries(ProcessId::new(owner), entries))
}

fn row_of(bools: &[bool]) -> BitRow {
    let mut row = BitRow::new(bools.len());
    for (i, &b) in bools.iter().enumerate() {
        row.set_to(i, b);
    }
    row
}

fn bools(n: usize) -> impl Strategy<Value = BitRow> {
    proptest::collection::vec(any::<bool>(), n).prop_map(|v| row_of(&v))
}

/// Row-major bits, `cols` per row.
fn matrix_of(cols: usize, bools: &[bool]) -> BitMatrix {
    let mut m = BitMatrix::new(bools.len() / cols, cols);
    for (idx, &b) in bools.iter().enumerate() {
        m.set_to(idx / cols, idx % cols, b);
    }
    m
}

/// One step of a random operation sequence: opcode, two indices, a value.
fn op_strategy() -> impl Strategy<Value = (u8, usize, usize, bool)> {
    (0u8..8, 0usize..1000, 0usize..1000, any::<bool>())
}

const PADDING_LENS: [usize; 5] = [1, 63, 64, 65, 130];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // ---- vector clocks ----------------------------------------------

    fn merge_max_is_commutative(a in clock_strategy(5), b in clock_strategy(5)) {
        let mut ab = a.clone();
        ab.merge_max(&b);
        let mut ba = b.clone();
        ba.merge_max(&a);
        prop_assert_eq!(ab, ba);
    }

    fn merge_max_is_associative(
        a in clock_strategy(4), b in clock_strategy(4), c in clock_strategy(4),
    ) {
        let mut left = a.clone();
        left.merge_max(&b);
        left.merge_max(&c);
        let mut bc = b.clone();
        bc.merge_max(&c);
        let mut right = a.clone();
        right.merge_max(&bc);
        prop_assert_eq!(left, right);
    }

    fn merge_max_is_idempotent_and_dominating(a in clock_strategy(5), b in clock_strategy(5)) {
        let mut aa = a.clone();
        aa.merge_max(&a);
        prop_assert_eq!(&aa, &a);
        let mut ab = a.clone();
        ab.merge_max(&b);
        // The merge dominates both inputs.
        prop_assert!(matches!(a.compare(&ab), ClockOrdering::Before | ClockOrdering::Equal));
        prop_assert!(matches!(b.compare(&ab), ClockOrdering::Before | ClockOrdering::Equal));
    }

    fn compare_is_antisymmetric(a in clock_strategy(5), b in clock_strategy(5)) {
        match a.compare(&b) {
            ClockOrdering::Before => prop_assert_eq!(b.compare(&a), ClockOrdering::After),
            ClockOrdering::After => prop_assert_eq!(b.compare(&a), ClockOrdering::Before),
            ClockOrdering::Equal => prop_assert_eq!(b.compare(&a), ClockOrdering::Equal),
            ClockOrdering::Concurrent => {
                prop_assert_eq!(b.compare(&a), ClockOrdering::Concurrent)
            }
        }
    }

    fn happened_before_is_transitive(
        a in clock_strategy(4), b in clock_strategy(4), c in clock_strategy(4),
    ) {
        if a.happened_before(&b) && b.happened_before(&c) {
            prop_assert!(a.happened_before(&c));
        }
    }

    // ---- dependency vectors -----------------------------------------

    fn dv_merge_never_decreases(a in dv_strategy(5), b in dv_strategy(5)) {
        let mut merged = a.clone();
        merged.merge_max(&b);
        for (p, v) in a.iter() {
            prop_assert!(merged.get(p) >= v);
        }
        for (p, v) in b.iter() {
            prop_assert!(merged.get(p) >= v);
        }
        // Owner survives the merge.
        prop_assert_eq!(merged.owner(), a.owner());
    }

    fn dv_new_dependencies_disappear_after_merge(a in dv_strategy(5), b in dv_strategy(5)) {
        let mut merged = a.clone();
        merged.merge_max(&b);
        prop_assert!(!merged.has_new_dependency(&b));
        prop_assert!(!merged.has_new_dependency(&a));
    }

    fn dv_new_dependencies_are_exactly_strict_gains(a in dv_strategy(5), b in dv_strategy(5)) {
        let fresh: Vec<ProcessId> = a.new_dependencies(&b).collect();
        for p in ProcessId::all(5) {
            prop_assert_eq!(fresh.contains(&p), b.get(p) > a.get(p));
        }
    }

    // ---- bit rows and matrices ---------------------------------------

    fn bitrow_ops_are_pointwise(a in bools(70), b in bools(70)) {
        let mut anded = a.clone();
        anded.and_assign(&b);
        let mut ored = a.clone();
        let changed = ored.union_with(&b);
        for i in 0usize..70 {
            prop_assert_eq!(anded.get(i), a.get(i) && b.get(i));
            prop_assert_eq!(ored.get(i), a.get(i) || b.get(i));
        }
        prop_assert_eq!(changed, ored != a);
        prop_assert_eq!(ored.count_ones(), (0usize..70).filter(|&i| a.get(i) || b.get(i)).count());
        prop_assert_eq!(
            bits::intersects(a.words(), b.words()),
            (0usize..70).any(|i| a.get(i) && b.get(i))
        );
    }

    fn bitrow_and_or_are_idempotent_and_de_morgan_dual(a in bools(70), b in bools(70)) {
        let mut aa = a.clone();
        aa.and_assign(&a);
        prop_assert_eq!(&aa, &a);
        prop_assert!(!aa.union_with(&a), "a ∨ a changes nothing");
        // ¬(a ∨ b) = ¬a ∧ ¬b, with ¬x built bit by bit.
        let not = |x: &BitRow| {
            let mut n = BitRow::new(x.len());
            n.fill(true);
            for i in x.ones() {
                n.clear(i);
            }
            n
        };
        let mut ored = a.clone();
        ored.union_with(&b);
        let mut nand = not(&a);
        nand.and_assign(&not(&b));
        prop_assert_eq!(not(&ored), nand);
    }

    fn bitrow_ones_roundtrip(a in bools(100)) {
        let mut rebuilt = BitRow::new(100);
        for i in a.ones() {
            rebuilt.set(i);
        }
        prop_assert_eq!(rebuilt, a);
    }

    fn matrix_row_ops_match_vector_ops(
        rows_a in proptest::collection::vec(any::<bool>(), 4 * 70),
        rows_b in proptest::collection::vec(any::<bool>(), 4 * 70),
        row in 0usize..4,
        src in 0usize..4,
    ) {
        // 70 columns: every row spans two words.
        let a = matrix_of(70, &rows_a);
        let b = matrix_of(70, &rows_b);
        // The protocol addresses rows by process.
        let target = ProcessId::new(row);

        let mut ored = a.clone();
        ored.or_row_from(target, &b, src);
        let mut copied = a.clone();
        copied.copy_row_from(target, &b, src);
        let mut unioned = a.clone();
        let changed = unioned.union_rows(row, src);
        for col in 0usize..70 {
            prop_assert_eq!(ored.get(target, col), a.get(target, col) || b.get(src, col));
            prop_assert_eq!(copied.get(target, col), b.get(src, col));
            prop_assert_eq!(unioned.get(target, col), a.get(target, col) || a.get(src, col));
        }
        prop_assert_eq!(changed, unioned != a);
        // Other rows untouched.
        for r in (0usize..4).filter(|&r| r != row) {
            prop_assert_eq!(ored.row(r), a.row(r));
            prop_assert_eq!(copied.row(r), a.row(r));
            prop_assert_eq!(unioned.row(r), a.row(r));
        }
    }

    fn matrix_column_or_is_pointwise(
        bools in proptest::collection::vec(any::<bool>(), 70 * 70),
        src in 0usize..70,
        dst in 0usize..70,
    ) {
        let mut m = matrix_of(70, &bools);
        let before = m.clone();
        m.or_column_into(ProcessId::new(src), ProcessId::new(dst));
        for l in 0usize..70 {
            prop_assert_eq!(m.get(l, dst), before.get(l, dst) || before.get(l, src));
            // Every other column untouched.
            for col in (0usize..70).filter(|&c| c != dst) {
                prop_assert_eq!(m.get(l, col), before.get(l, col));
            }
        }
    }

    // ---- the padding invariant ---------------------------------------

    fn bitrow_padding_stays_zero_under_any_operation_sequence(
        which in 0usize..5,
        other in proptest::collection::vec(any::<bool>(), 130),
        ops in proptest::collection::vec(op_strategy(), 0..40),
    ) {
        let len = PADDING_LENS[which];
        let other = row_of(&other[..len]);
        let mut row = BitRow::new(len);
        for (op, a, _, value) in ops {
            match op {
                0 => row.set(a % len),
                1 => row.clear(a % len),
                2 => row.set_to(a % len, value),
                3 => row.fill(value),
                4 => { row.union_with(&other); }
                5 => row.and_assign(&other),
                6 => { row.fill(true); row.and_assign(&other); }
                _ => { row.fill(true); row.clear(a % len); }
            }
            prop_assert_eq!(row.words().len(), bits::words_for(len));
            prop_assert_eq!(row.count_ones(), row.ones().count());
            prop_assert!(row.ones().all(|i| i < len), "a padding bit is set");
            prop_assert_eq!(row.count_ones(), (0..len).filter(|&i| row.get(i)).count());
            prop_assert_eq!(row.any(), row.count_ones() > 0);
        }
    }

    fn bitmatrix_padding_stays_zero_under_any_operation_sequence(
        which in 0usize..5,
        other in proptest::collection::vec(any::<bool>(), 3 * 130),
        ops in proptest::collection::vec(op_strategy(), 0..40),
    ) {
        let cols = PADDING_LENS[which];
        let source = matrix_of(cols, &other[..3 * cols]);
        let mut m = BitMatrix::new(3, cols);
        for (op, a, b, value) in ops {
            let rows = m.rows();
            match op {
                0 => m.set(a % rows, b % cols),
                1 => m.set_to(a % rows, b % cols, value),
                2 => m.clear_row(a % rows),
                3 => { m.union_rows(a % rows, b % rows); }
                4 => m.copy_row_from(a % rows, &source, b % 3),
                5 => m.or_row_from(a % rows, &source, b % 3),
                6 => m.or_column_into(a % cols, b % cols),
                _ => m.truncate_rows(2),
            }
            let mut by_get = 0;
            for r in 0..m.rows() {
                prop_assert_eq!(m.row(r).len(), bits::words_for(cols));
                prop_assert!(bits::ones(m.row(r)).all(|c| c < cols), "a padding bit is set");
                by_get += (0..cols).filter(|&c| m.get(r, c)).count();
            }
            prop_assert_eq!(m.count_ones(), by_get);
        }
    }
}
