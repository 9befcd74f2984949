//! `thirstyflops_loadgen` — a deterministic load-test harness for the
//! serving layer (`thirstyflops loadgen`, see `docs/SERVING.md`).
//!
//! The harness replays a recorded *request mix* — a JSON spec of
//! weighted endpoint templates ([`mix::MixSpec`]) — against either an
//! in-process server or a remote `--addr`, over N keep-alive
//! connections (or one connection per request in `--one-shot` mode),
//! optionally paced to a target request rate. It is a *correctness*
//! harness first and a throughput meter second:
//!
//! * every template's expected response is computed up front by calling
//!   the server's own pure handler (`serve::handlers::handle`) in
//!   process, and **every** replayed response body is compared against
//!   those bytes — a single mismatch fails the run. This is the
//!   determinism contract of `docs/CONCURRENCY.md` measured on the
//!   wire: byte-identical bodies at any `--workers` / `--connections`
//!   combination, keep-alive or one-shot, cached or not;
//! * per-endpoint latency is recorded client-side into the same
//!   log-bucket [`LatencyHistogram`](thirstyflops_obs::LatencyHistogram)
//!   the server uses, so client p50/p90/p99 and the server's
//!   `thirstyflops_http_request_duration_micros` buckets in
//!   `/v1/metrics` share edges.
//!
//! The request *plan* (which template each of the N requests uses, and
//! which connection carries it) is derived from the mix's seed with the
//! workspace's bit-stable `StdRng`, so two runs of the same mix replay
//! the identical request sequence.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod mix;
pub mod report;
pub mod run;

pub use mix::{MixSpec, Template};
pub use report::{chaos_table, human_table};
pub use run::{
    run, run_with_stats, ChaosStats, EndpointLoad, FaultSiteCount, LoadReport, RunConfig,
};

/// Errors from parsing a mix spec or executing a load run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadError {
    /// The mix spec is malformed (bad JSON, unknown key, bad value).
    Mix(String),
    /// The target could not be reached / a connection failed hard.
    Io(String),
    /// The target answered with bytes that do not parse as HTTP.
    Protocol(String),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Mix(msg) => write!(f, "mix spec: {msg}"),
            LoadError::Io(msg) => write!(f, "io: {msg}"),
            LoadError::Protocol(msg) => write!(f, "protocol: {msg}"),
        }
    }
}

impl std::error::Error for LoadError {}
