use rdns_data::{ColumnarSeries, DeltaSeries};

pub fn total(series: &DeltaSeries) -> u64 {
    series.total_responses()
}

pub fn stream(series: &DeltaSeries) -> usize {
    let mut days = 0;
    series.for_each_day(|_| days += 1);
    days
}

// A second provider's dataset is an independently owned copy by design.
pub fn second_provider(series: &ColumnarSeries) -> ColumnarSeries {
    // lint:allow(snapshot-clone) -- the second provider owns its dataset
    series.clone()
}
