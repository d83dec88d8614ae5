//! Client configuration and the shadow environment (§6.3.1).

use shadow_proto::{DomainId, HostName, TransferEncoding};

/// How the client moves file content to servers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TransferMode {
    /// Shadow processing: notify on edit, answer demand-driven pulls with
    /// deltas against the server's cached base.
    #[default]
    Shadow,
    /// The conventional batch baseline the paper measures against: push
    /// every file in full with each submission ("the client must transfer
    /// all the files needed for remote processing over the network every
    /// time he submits a job").
    Conventional,
}

/// When to prefer a delta over a full transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DeltaPolicy {
    /// Send the smaller of {delta, full} — adaptive, the default (§3's
    /// adaptability goal: heavily edited files ship whole).
    #[default]
    Adaptive,
    /// Always send a delta when a base is available (the naive prototype
    /// behaviour; the ablation bench quantifies the difference).
    Always,
}

/// The per-user customization database (§6.3.1: "the shadow environment is
/// a database that contains … customization information for each user.
/// Though the environment is set up automatically, a user has an option to
/// customize it").
#[derive(Debug, Clone, PartialEq)]
pub struct ShadowEnv {
    /// Older versions retained per file (§6.3.2 customization).
    pub version_retention: usize,
    /// Transfer encoding for update payloads.
    pub encoding: TransferEncoding,
    /// Delta-versus-full decision policy.
    pub delta_policy: DeltaPolicy,
}

impl Default for ShadowEnv {
    fn default() -> Self {
        ShadowEnv {
            version_retention: 4,
            encoding: TransferEncoding::Identity,
            delta_policy: DeltaPolicy::default(),
        }
    }
}

/// Configuration of a [`ClientNode`](crate::ClientNode).
#[derive(Debug, Clone, PartialEq)]
pub struct ClientConfig {
    /// This workstation's host name.
    pub host: HostName,
    /// The naming domain this client resolves names within.
    pub domain: DomainId,
    /// Transfer mode (shadow vs. conventional baseline).
    pub mode: TransferMode,
    /// The user's shadow environment.
    pub env: ShadowEnv,
    /// Completed job outputs retained per connection as reverse-shadow
    /// bases.
    pub output_retention: usize,
}

impl ClientConfig {
    /// A client with the default shadow environment.
    pub fn new(host: impl Into<String>, domain: u64) -> Self {
        ClientConfig {
            host: HostName::new(host.into()),
            domain: DomainId::new(domain),
            mode: TransferMode::default(),
            env: ShadowEnv::default(),
            output_retention: 4,
        }
    }

    /// Starts a validated fluent builder; invariants (non-empty host,
    /// retention limits ≥ 1) are checked once at
    /// [`build()`](ClientConfigBuilder::build).
    pub fn builder(host: impl Into<String>, domain: u64) -> ClientConfigBuilder {
        ClientConfigBuilder {
            config: ClientConfig::new(host, domain),
        }
    }

    /// Switches to the conventional (full-transfer) baseline mode.
    #[must_use]
    pub fn conventional(mut self) -> Self {
        self.mode = TransferMode::Conventional;
        self
    }

    /// Sets the shadow environment.
    #[must_use]
    pub fn with_env(mut self, env: ShadowEnv) -> Self {
        self.env = env;
        self
    }
}

/// A configuration value rejected by a builder's `build()`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(pub String);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid configuration: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

/// Fluent builder for [`ClientConfig`], created by
/// [`ClientConfig::builder`]. Unlike the `with_*` conveniences on the
/// config itself, every invariant is deferred to [`build()`](Self::build)
/// and reported as a [`ConfigError`] instead of a panic.
#[derive(Debug, Clone)]
pub struct ClientConfigBuilder {
    config: ClientConfig,
}

impl ClientConfigBuilder {
    /// Switches to the conventional (full-transfer) baseline mode.
    #[must_use]
    pub fn conventional(mut self) -> Self {
        self.config.mode = TransferMode::Conventional;
        self
    }

    /// Replaces the whole shadow environment.
    #[must_use]
    pub fn env(mut self, env: ShadowEnv) -> Self {
        self.config.env = env;
        self
    }

    /// Sets how many older versions are retained per file.
    #[must_use]
    pub fn version_retention(mut self, versions: usize) -> Self {
        self.config.env.version_retention = versions;
        self
    }

    /// Sets the transfer encoding for update payloads.
    #[must_use]
    pub fn encoding(mut self, encoding: TransferEncoding) -> Self {
        self.config.env.encoding = encoding;
        self
    }

    /// Sets the delta-versus-full decision policy.
    #[must_use]
    pub fn delta_policy(mut self, policy: DeltaPolicy) -> Self {
        self.config.env.delta_policy = policy;
        self
    }

    /// Sets how many completed job outputs are retained per connection
    /// as reverse-shadow bases.
    #[must_use]
    pub fn output_retention(mut self, outputs: usize) -> Self {
        self.config.output_retention = outputs;
        self
    }

    /// Validates and produces the configuration.
    pub fn build(self) -> Result<ClientConfig, ConfigError> {
        let c = self.config;
        if c.host.as_str().is_empty() {
            return Err(ConfigError("host name must not be empty".into()));
        }
        if c.env.version_retention < 1 {
            return Err(ConfigError(
                "version retention must be >= 1: the client must always \
                 keep its own latest version"
                    .into(),
            ));
        }
        if c.output_retention < 1 {
            return Err(ConfigError(
                "output retention must be >= 1 for reverse shadow bases".into(),
            ));
        }
        Ok(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let c = ClientConfig::new("ws", 3);
        assert_eq!(c.mode, TransferMode::Shadow);
        assert_eq!(c.env.version_retention, 4);
        assert_eq!(c.env.delta_policy, DeltaPolicy::Adaptive);
        assert_eq!(c.domain, DomainId::new(3));
    }

    #[test]
    fn conventional_builder() {
        let c = ClientConfig::new("ws", 1).conventional();
        assert_eq!(c.mode, TransferMode::Conventional);
    }

    #[test]
    fn builder_builds_and_validates() {
        let c = ClientConfig::builder("ws", 2)
            .version_retention(9)
            .encoding(TransferEncoding::Lzss)
            .delta_policy(DeltaPolicy::Always)
            .output_retention(2)
            .build()
            .unwrap();
        assert_eq!(c.env.version_retention, 9);
        assert_eq!(c.env.encoding, TransferEncoding::Lzss);
        assert_eq!(c.env.delta_policy, DeltaPolicy::Always);
        assert_eq!(c.output_retention, 2);
        // Builder defaults equal the plain constructor.
        assert_eq!(ClientConfig::builder("ws", 1).build().unwrap(), ClientConfig::new("ws", 1));
    }

    #[test]
    fn builder_rejects_bad_values() {
        let e = ClientConfig::builder("ws", 1).version_retention(0).build();
        assert!(e.unwrap_err().to_string().contains("retention"));
        let e = ClientConfig::builder("ws", 1).output_retention(0).build();
        assert!(e.is_err());
        let e = ClientConfig::builder("", 1).build();
        assert!(e.unwrap_err().to_string().contains("host"));
    }

    #[test]
    fn env_customization() {
        let env = ShadowEnv {
            version_retention: 9,
            encoding: TransferEncoding::Lzss,
            ..ShadowEnv::default()
        };
        let c = ClientConfig::new("ws", 1).with_env(env.clone());
        assert_eq!(c.env, env);
    }
}
