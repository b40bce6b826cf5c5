use rdns_data::{ColumnarSeries, DailySnapshot, DeltaSeries, Snapshotter};

pub fn relay(series: &DeltaSeries) -> DeltaSeries {
    series.clone()
}

pub fn fork(day: Date) -> (DailySnapshot, DailySnapshot) {
    let snapper = Snapshotter::new(store());
    let snap = snapper.take(day);
    (snap.clone(), snap)
}

pub fn keep_both(window: &DeltaSeries) -> (ColumnarSeries, ColumnarSeries) {
    let view: ColumnarSeries = window.to_columnar();
    (view.clone(), view)
}
