//! Server configuration.

use shadow_cache::EvictionPolicy;
use shadow_proto::HostName;

/// How the server controls the flow of file updates (§5.2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum FlowControl {
    /// **Request driven** (the baseline the paper argues against): the
    /// client pushes every file in full with each submission; the server
    /// never requests updates and keeps no useful cache state.
    RequestDriven,
    /// Demand driven, eager: the server pulls an update as soon as it is
    /// notified of a new version (enables the paper's background-transfer
    /// concurrency, §5.1).
    #[default]
    DemandEager,
    /// Demand driven, lazy: the server pulls updates only when a submitted
    /// job actually needs the file ("it may postpone such a retrieval
    /// until the changes are actually needed").
    DemandLazy,
    /// Demand driven, adaptive: eager while the job queue is short and the
    /// cache has headroom, lazy under pressure — §5.2: "by monitoring the
    /// load average, cache size to disk space ratio, number of incoming
    /// jobs, network delays, etc., the remote host can decide when is the
    /// best time to retrieve the needed files".
    DemandAdaptive {
        /// Queue length at which the server stops eager pulls.
        eager_queue_limit: usize,
        /// Cache utilisation (0.0–1.0) above which eager pulls stop.
        cache_pressure_limit: f64,
    },
}

impl FlowControl {
    /// Whether this mode ever issues `UpdateRequest`s.
    pub fn is_demand_driven(self) -> bool {
        !matches!(self, FlowControl::RequestDriven)
    }
}

/// The simulated supercomputer's execution cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecProfile {
    /// Bytes of input a job command processes per simulated second.
    pub cpu_byte_rate: u64,
    /// Fixed scheduling/startup overhead per job, milliseconds.
    pub job_overhead_ms: u64,
}

impl Default for ExecProfile {
    fn default() -> Self {
        // A late-1980s supercomputer front end: fast relative to the
        // long-haul links that dominate the experiments.
        ExecProfile {
            cpu_byte_rate: 2_000_000,
            job_overhead_ms: 500,
        }
    }
}

/// Configuration of a [`ServerNode`](crate::ServerNode).
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    /// The server host's name.
    pub host: HostName,
    /// Shadow cache byte budget (§5.1: the remote host decides "how much
    /// disk space should be used for caching").
    pub cache_budget: usize,
    /// Shadow cache eviction policy.
    pub eviction: EvictionPolicy,
    /// Update flow-control policy.
    pub flow: FlowControl,
    /// Batch slots that may run concurrently.
    pub max_running: usize,
    /// Execution cost model.
    pub exec: ExecProfile,
    /// Bytes of job output retained for reverse shadow processing.
    pub output_shadow_budget: usize,
}

impl ServerConfig {
    /// A server with generous defaults: 64 MiB cache, LRU, eager demand-
    /// driven flow, one batch slot.
    pub fn new(host: impl Into<String>) -> Self {
        ServerConfig {
            host: HostName::new(host.into()),
            cache_budget: 64 << 20,
            eviction: EvictionPolicy::Lru,
            flow: FlowControl::default(),
            max_running: 1,
            exec: ExecProfile::default(),
            output_shadow_budget: 16 << 20,
        }
    }

    /// Sets the cache budget.
    #[must_use]
    pub fn with_cache_budget(mut self, bytes: usize) -> Self {
        self.cache_budget = bytes;
        self
    }

    /// Sets the eviction policy.
    #[must_use]
    pub fn with_eviction(mut self, policy: EvictionPolicy) -> Self {
        self.eviction = policy;
        self
    }

    /// Sets the flow-control policy.
    #[must_use]
    pub fn with_flow(mut self, flow: FlowControl) -> Self {
        self.flow = flow;
        self
    }

    /// Sets the number of concurrent batch slots.
    #[must_use]
    pub fn with_max_running(mut self, slots: usize) -> Self {
        assert!(slots >= 1, "at least one batch slot is required");
        self.max_running = slots;
        self
    }

    /// Sets the execution cost model.
    #[must_use]
    pub fn with_exec(mut self, exec: ExecProfile) -> Self {
        self.exec = exec;
        self
    }

    /// Starts a validated fluent builder; invariants (non-empty host,
    /// at least one batch slot, sane adaptive thresholds) are checked
    /// once at [`build()`](ServerConfigBuilder::build).
    pub fn builder(host: impl Into<String>) -> ServerConfigBuilder {
        ServerConfigBuilder {
            config: ServerConfig::new(host),
        }
    }
}

/// A configuration value rejected by the builder's `build()`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(pub String);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid configuration: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

/// Fluent builder for [`ServerConfig`], created by
/// [`ServerConfig::builder`]. Unlike the `with_*` conveniences, every
/// invariant is deferred to [`build()`](Self::build) and reported as a
/// [`ConfigError`] instead of a panic.
#[derive(Debug, Clone)]
pub struct ServerConfigBuilder {
    config: ServerConfig,
}

impl ServerConfigBuilder {
    /// Sets the shadow-cache byte budget.
    #[must_use]
    pub fn cache_budget(mut self, bytes: usize) -> Self {
        self.config.cache_budget = bytes;
        self
    }

    /// Sets the cache eviction policy.
    #[must_use]
    pub fn eviction(mut self, policy: EvictionPolicy) -> Self {
        self.config.eviction = policy;
        self
    }

    /// Sets the update flow-control policy.
    #[must_use]
    pub fn flow(mut self, flow: FlowControl) -> Self {
        self.config.flow = flow;
        self
    }

    /// Sets the number of concurrent batch slots.
    #[must_use]
    pub fn max_running(mut self, slots: usize) -> Self {
        self.config.max_running = slots;
        self
    }

    /// Sets the execution cost model.
    #[must_use]
    pub fn exec(mut self, exec: ExecProfile) -> Self {
        self.config.exec = exec;
        self
    }

    /// Sets the byte budget for reverse-shadow output caching.
    #[must_use]
    pub fn output_shadow_budget(mut self, bytes: usize) -> Self {
        self.config.output_shadow_budget = bytes;
        self
    }

    /// Validates and produces the configuration.
    pub fn build(self) -> Result<ServerConfig, ConfigError> {
        let c = self.config;
        if c.host.as_str().is_empty() {
            return Err(ConfigError("host name must not be empty".into()));
        }
        if c.max_running < 1 {
            return Err(ConfigError("at least one batch slot is required".into()));
        }
        if c.cache_budget == 0 {
            return Err(ConfigError(
                "a zero cache budget cannot hold any shadow; use a small \
                 budget to model a starved cache"
                    .into(),
            ));
        }
        if let FlowControl::DemandAdaptive {
            cache_pressure_limit,
            ..
        } = c.flow
        {
            if !(0.0..=1.0).contains(&cache_pressure_limit) {
                return Err(ConfigError(
                    "adaptive cache pressure limit must lie in 0.0..=1.0".into(),
                ));
            }
        }
        Ok(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_demand_driven() {
        let c = ServerConfig::new("s");
        assert_eq!(c.flow, FlowControl::DemandEager);
        assert!(c.flow.is_demand_driven());
        assert!(!FlowControl::RequestDriven.is_demand_driven());
    }

    #[test]
    fn builders_apply() {
        let c = ServerConfig::new("s")
            .with_cache_budget(1000)
            .with_eviction(EvictionPolicy::Fifo)
            .with_flow(FlowControl::DemandLazy)
            .with_max_running(4);
        assert_eq!(c.cache_budget, 1000);
        assert_eq!(c.eviction, EvictionPolicy::Fifo);
        assert_eq!(c.flow, FlowControl::DemandLazy);
        assert_eq!(c.max_running, 4);
    }

    #[test]
    #[should_panic(expected = "batch slot")]
    fn zero_slots_rejected() {
        let _ = ServerConfig::new("s").with_max_running(0);
    }

    #[test]
    fn builder_builds_and_validates() {
        let c = ServerConfig::builder("s")
            .cache_budget(1000)
            .eviction(EvictionPolicy::Fifo)
            .flow(FlowControl::DemandLazy)
            .max_running(4)
            .output_shadow_budget(500)
            .build()
            .unwrap();
        assert_eq!(c.cache_budget, 1000);
        assert_eq!(c.eviction, EvictionPolicy::Fifo);
        assert_eq!(c.flow, FlowControl::DemandLazy);
        assert_eq!(c.max_running, 4);
        assert_eq!(c.output_shadow_budget, 500);
        // Builder defaults equal the plain constructor.
        assert_eq!(
            ServerConfig::builder("s").build().unwrap(),
            ServerConfig::new("s")
        );
    }

    #[test]
    fn builder_rejects_bad_values() {
        assert!(ServerConfig::builder("s").max_running(0).build().is_err());
        assert!(ServerConfig::builder("s").cache_budget(0).build().is_err());
        assert!(ServerConfig::builder("").build().is_err());
        let bad_flow = FlowControl::DemandAdaptive {
            eager_queue_limit: 2,
            cache_pressure_limit: 1.5,
        };
        assert!(ServerConfig::builder("s").flow(bad_flow).build().is_err());
    }
}
