//! The repo benchmark: four enforcement workloads measured end to end
//! (laps of a closed loop, one client, one CPU) and layer by layer (a
//! traced pass, the layers' own counters, direct probes), every
//! verdict checked against the root-PAP reference engine. Everything
//! is measured from outside, through the `dacs` facade's public API.
//! See `README.md` for the metric → layer → workload table.

#![warn(missing_docs)]

pub mod affinity;
pub mod clock;
pub mod probes;
pub mod run;
pub mod stats;
pub mod trace;
pub mod world;
