//! Known-bad: batch analysis constructor inside per-event code.
pub fn on_event(pattern: &Pattern) -> bool {
    let analysis = PatternAnalysis::new(pattern);
    analysis.rdt_report().holds()
}
