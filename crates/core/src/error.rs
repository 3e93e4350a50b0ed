//! Error type for the täkō programming interface.

use std::error::Error;
use std::fmt;

use tako_mem::addr::AddrRange;
use tako_sim::checkpoint::SnapError;
use tako_sim::config::ConfigError;

/// Errors returned by Morph registration and management (Sec 4.1).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TakoError {
    /// `registerReal`/`registerPhantom` on a range that already has a
    /// Morph — täkō allows only one Morph per address at a time.
    RangeOverlap {
        /// The range the caller tried to register.
        requested: AddrRange,
        /// The existing registration it collides with.
        existing: AddrRange,
    },
    /// The handle does not name a currently registered Morph.
    NotRegistered,
    /// The Morph's callbacks need more static instructions than the
    /// engine fabric can hold (Table 2: 25 PEs × 16 instructions).
    FabricCapacity {
        /// Instructions the Morph requires.
        required: u32,
        /// Instructions the fabric provides.
        available: u32,
    },
    /// A zero-sized range was requested.
    EmptyRange,
    /// A Morph's callback faulted (illegal action, budget overrun, or
    /// fabric exhaustion) and the hierarchy quarantined it, degrading
    /// its range to baseline SRRIP hardware behavior.
    CallbackQuarantined {
        /// Registry id of the quarantined Morph.
        morph: usize,
        /// Why it was quarantined.
        reason: String,
    },
    /// The forward-progress watchdog saw an access exceed its stall
    /// bound and dumped a diagnostic snapshot.
    WatchdogStall {
        /// Observed end-to-end latency of the flagged access.
        latency: u64,
        /// The configured stall bound it exceeded.
        bound: u64,
    },
    /// The system configuration failed validation.
    InvalidConfig(ConfigError),
    /// A checkpoint could not be restored (corrupt envelope, version
    /// skew, or state that contradicts the rebuilt configuration).
    BadSnapshot(SnapError),
}

impl fmt::Display for TakoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TakoError::RangeOverlap {
                requested,
                existing,
            } => write!(
                f,
                "range {:#x}+{} overlaps a registered Morph at {:#x}+{}",
                requested.base, requested.size, existing.base, existing.size
            ),
            TakoError::NotRegistered => {
                write!(f, "no Morph registered under this handle")
            }
            TakoError::FabricCapacity {
                required,
                available,
            } => write!(
                f,
                "Morph needs {required} fabric instructions but only \
                 {available} are available"
            ),
            TakoError::EmptyRange => write!(f, "requested range is empty"),
            TakoError::CallbackQuarantined { morph, reason } => write!(
                f,
                "Morph {morph} quarantined ({reason}); its range degraded \
                 to baseline replacement"
            ),
            TakoError::WatchdogStall { latency, bound } => write!(
                f,
                "watchdog: access took {latency} cycles \
                 (stall bound {bound})"
            ),
            TakoError::InvalidConfig(e) => {
                write!(f, "invalid configuration: {e}")
            }
            TakoError::BadSnapshot(e) => {
                write!(f, "cannot restore snapshot: {e}")
            }
        }
    }
}

impl Error for TakoError {}

impl From<ConfigError> for TakoError {
    fn from(e: ConfigError) -> Self {
        TakoError::InvalidConfig(e)
    }
}

impl From<SnapError> for TakoError {
    fn from(e: SnapError) -> Self {
        TakoError::BadSnapshot(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = TakoError::RangeOverlap {
            requested: AddrRange::new(0x100, 64),
            existing: AddrRange::new(0x80, 256),
        };
        let msg = e.to_string();
        assert!(msg.contains("overlaps"));
        assert!(TakoError::NotRegistered.to_string().contains("no Morph"));
        assert!(TakoError::FabricCapacity {
            required: 500,
            available: 400
        }
        .to_string()
        .contains("500"));
        assert!(TakoError::EmptyRange.to_string().contains("empty"));
        assert!(TakoError::CallbackQuarantined {
            morph: 3,
            reason: "budget overrun".into()
        }
        .to_string()
        .contains("quarantined"));
        assert!(TakoError::WatchdogStall {
            latency: 500_000,
            bound: 200_000
        }
        .to_string()
        .contains("watchdog"));
        let e: TakoError = ConfigError::NoDramControllers.into();
        assert!(e.to_string().contains("invalid configuration"));
        let e: TakoError = SnapError::BadMagic.into();
        assert!(e.to_string().contains("cannot restore snapshot"));
    }

    #[test]
    fn implements_error_trait() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<TakoError>();
    }
}
