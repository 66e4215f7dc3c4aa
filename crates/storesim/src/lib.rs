//! # cos-storesim
//!
//! A discrete-event simulator of an event-driven, two-tier cloud object
//! storage system — the substitute for the paper's OpenStack Swift testbed
//! (§V-A). See `DESIGN.md` §2 for the substitution argument: the analytic
//! model's claims are about queueing mechanics (FCFS operation interleaving,
//! batched `accept()`, disk blocking, chunked reads), all of which the
//! simulator reproduces mechanistically.
//!
//! * [`config`] — cluster configuration with paper-scenario presets;
//! * [`cache`] — Bernoulli and capacity-bounded LRU backend caches;
//! * [`sim`] — the event loop;
//! * [`fleet`] — deterministic tenant-tagged telemetry streams at fleet
//!   scale, feeding `cos-serve`'s per-tenant estimator shards;
//! * [`chaos`] — seed-deterministic fault injection (slow disks,
//!   stragglers, device loss, arrival bursts) for control-loop tests;
//! * [`metrics`] — SLA accounting per rate window plus the online metrics of
//!   §IV-B (arrival rates, miss ratios, disk service sums, WTA samples);
//! * [`telemetry`] — the live per-event export stream an online prediction
//!   service (`cos-serve`) ingests;
//! * [`calibration`] — the benchmarking rigs of §IV-A (disk and parse).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod calibration;
pub mod chaos;
pub mod config;
pub mod fleet;
pub mod metrics;
pub mod sim;
pub mod telemetry;

pub use cache::{BernoulliCache, Cache, Lookup, LruCache};
pub use calibration::{benchmark_disk, benchmark_parse, DiskBenchmark, ParseBenchmark};
pub use chaos::{ChaosSchedule, Fault};
pub use config::{
    AcceptMode, CacheConfig, ClusterConfig, CodingConfig, DeviceOverride, DiskOpKind, DiskProfile,
    RedundancyPolicy, TimeoutRetry,
};
pub use fleet::{FleetConfig, FleetScenario};
pub use metrics::{CompletedRequest, DeviceCounters, Metrics, MetricsConfig, OpSample};
pub use sim::{run_simulation, Simulation, PARTITIONS, REPLICAS};
pub use telemetry::{SimTelemetry, TelemetrySink};
