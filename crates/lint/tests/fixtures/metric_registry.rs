//! Fixture: a test assertion reads a counter name that is not in
//! `hlisa_sim::METRIC_REGISTRY` (a typo of the registered
//! `loss.dropped`), so it passes whatever the channel dropped.
#[cfg(test)]
mod tests {
    #[test]
    fn a_pristine_channel_drops_nothing() {
        let counters = pristine_channel().counters();
        assert_eq!(counters.get("loss.droped"), None);
    }
}
