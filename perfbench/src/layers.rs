//! The per-layer metrics of the traced run, named `<module>.<quantity>` after
//! the workspace crates they measure.

use crate::util::Metric;
use std::collections::BTreeMap;

/// Every per-layer metric with its unit, in report order.
pub const NAMES: [(&str, &str); 40] = [
    ("linalg.whiten_s", "s"),
    ("tcca.tensor_build_s", "s"),
    ("tcca.tensor_build_gflops", "GFLOP"),
    ("tcca.tensor_bytes", "bytes"),
    ("tcca.backmap_s", "s"),
    ("tensor.als_s", "s"),
    ("tensor.als_sweeps", "count"),
    ("tensor.als_s_per_sweep", "s"),
    ("tensor.als_rel_error", "1"),
    ("tensor.als_converged", "bool"),
    ("mvcore.fit_overhead_s", "s"),
    ("mvcore.transform_us", "us"),
    ("learners.rls_s", "s"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("wire.request_bytes", "bytes"),
    ("wire.reply_bytes", "bytes"),
    ("batch.wait_ms_p50", "ms"),
    ("batch.wait_ms_p99", "ms"),
    ("batch.requests_per_batch", "count"),
    ("batch.coalesced_frac", "fraction"),
    ("batch.singleton_frac", "fraction"),
    ("batch.shed", "count"),
    ("server.overhead_us", "us"),
    ("server.wakeups_per_req", "count"),
    ("server.events_per_wakeup", "count"),
    ("store.open_s", "s"),
    ("store.get_us", "us"),
    ("store.rescan_ms", "ms"),
    ("stream.accumulate_s", "s"),
    ("stream.solve_s", "s"),
    ("stream.solve_sweeps", "count"),
    ("trainer.refit_s", "s"),
    ("trainer.swap_ms", "ms"),
    ("trainer.refits", "count"),
    ("trainer.errors", "count"),
    ("linalg.matrix_clones_per_req", "count"),
    ("linalg.input_stitches_per_req", "count"),
    ("linalg.shared_pack_hits", "count"),
    ("trace.overhead_frac", "fraction"),
];

/// Layer values collected by a workload; [`Layers::metrics`] turns them into
/// the reported list, leaving any value a workload forgot as NaN so the run
/// reports it missing instead of inventing a zero.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            NAMES.iter().any(|(n, _)| *n == name),
            "unknown layer metric {name}"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(f64::NAN)
    }

    pub fn metrics(&self) -> Vec<Metric> {
        NAMES
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                value: self.get(name),
                unit,
            })
            .collect()
    }
}
