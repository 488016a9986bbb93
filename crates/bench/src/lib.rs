//! Benches live in `benches/`; this library hosts what they share: the
//! figure workloads ([`workloads`]) and the sampler the CI-gated benches
//! time with ([`sample`]).

pub mod sample;
pub mod workloads;
