//! The socket-to-segment benchmark of the `saq` stack. See `README.md`.

pub mod compare;
pub mod counting;
pub mod gen;
pub mod json;
pub mod layers;
pub mod lifecycle;
pub mod oracle;
pub mod run;
pub mod serve;
pub mod spans;
pub mod stats;
pub mod workload;
