//! Order statistics and span self-time arithmetic.

/// The `q`-quantile (`0.0..=1.0`) by nearest rank on a sorted slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median with the two middle values averaged, as
/// `statistics.median` does; used for medians over repetitions.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// One timed call into a public function of a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub frame: u32,
    /// Index (in the span buffer) of the span this call sits under in
    /// the ladder, or `u32::MAX` for a top rung.
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub const NO_PARENT: u32 = u32::MAX;

impl Span {
    pub fn duration_ns(&self) -> i64 {
        self.end_ns as i64 - self.start_ns as i64
    }
}

/// Self time of every span: its duration minus its children's.
///
/// The ladder's twins run one after another, not nested in time, so a
/// parent's interval does not contain its children's; what is subtracted
/// is their durations. A twin that happened to run slower than the rung
/// above it yields a negative self time; it is kept signed so that the
/// self times of a frame always sum to its top rung.
pub fn self_times(spans: &[Span]) -> Vec<i64> {
    let mut own: Vec<i64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if span.parent != NO_PARENT {
            own[span.parent as usize] -= span.duration_ns();
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn median_of_repetitions() {
        assert_eq!(median(&[5.0, 1.0, 9.0, 3.0, 7.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn self_time_subtracts_children_and_telescopes() {
        let span = |name, parent, start_ns, end_ns| Span {
            name,
            frame: 0,
            parent,
            start_ns,
            end_ns,
        };
        let spans = [
            span("r0", NO_PARENT, 0, 100),
            span("r1.parse", 0, 100, 110),
            span("r1.request", 0, 110, 150),
            span("r2.handle", 2, 150, 175),
            // A twin slower than its parent rung: negative self time above.
            span("r3.engine", 3, 175, 205),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![50, 10, 15, -5, 30]);
        assert_eq!(own.iter().sum::<i64>(), 100);
    }
}
