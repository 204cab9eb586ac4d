//! Offline stand-in for `criterion::Criterion`.
//!
//! `crates/bench/src/lib.rs` holds the repository's deterministic
//! workload builders (`employee_record`, `sharing_prelude`, …) next to
//! one criterion-typed helper, `quick()`. The serving benchmark compiles
//! that file as a module to reuse the builders, and the real criterion
//! crate cannot be resolved without a registry. This crate supplies just
//! the builder methods `quick()` calls so the file type-checks; the
//! benchmark never calls `quick()`.

use std::time::Duration;

#[derive(Default)]
pub struct Criterion {
    _settings: (),
}

impl Criterion {
    pub fn warm_up_time(self, _: Duration) -> Self {
        self
    }

    pub fn measurement_time(self, _: Duration) -> Self {
        self
    }

    pub fn sample_size(self, _: usize) -> Self {
        self
    }

    pub fn configure_from_args(self) -> Self {
        self
    }
}
