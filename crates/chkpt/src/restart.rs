//! Restart strategies — the paper's explicit future work.
//!
//! The paper's restart component is deliberately simple ("our current
//! restart mechanism is simplistic and our future plans will consider
//! its in-depth analysis and possible optimizations") and notes that
//! NVM *read* speeds are DRAM-class, making restart a promising
//! optimization target. This module implements three strategies:
//!
//! * [`RestartStrategy::Eager`] — the paper's baseline: verify and
//!   restore every committed chunk serially before returning control.
//! * [`RestartStrategy::Parallel`] — restore with several concurrent
//!   read streams; wall time shrinks toward `total / streams`, bounded
//!   by the contended per-stream bandwidth.
//! * [`RestartStrategy::Lazy`] — return control immediately; each
//!   chunk is verified and restored on *first access* (the same idea
//!   as the shadow-buffer read path: "the application can directly
//!   access write protected NVM, and an attempt to modify the data
//!   would move the data back to DRAM"). Applications that touch only
//!   part of their state after a failure never pay for the rest.
//!
//! [`RestartStrategy::restore_time`] is the one restore-cost policy:
//! every restart source (surviving NVM, a durable store, buddy images)
//! charges its restores through it.

use nvm_emu::{MemoryDevice, SimDuration};
use serde::{Deserialize, Serialize};

/// How a restarted process repopulates its DRAM working copies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum RestartStrategy {
    /// Verify + restore everything before returning (the baseline).
    #[default]
    Eager,
    /// Verify + restore everything with `streams` concurrent readers.
    Parallel {
        /// Concurrent restore streams.
        streams: usize,
    },
    /// Defer each chunk's verify + restore to its first access.
    Lazy,
}

impl RestartStrategy {
    /// Short lowercase name, used to label trace events.
    pub fn name(self) -> &'static str {
        match self {
            RestartStrategy::Eager => "eager",
            RestartStrategy::Parallel { .. } => "parallel",
            RestartStrategy::Lazy => "lazy",
        }
    }

    /// Virtual time a restart spends restoring `chunks` chunks whose
    /// serial restore cost is `serial`. `Parallel` streams overlap,
    /// bounded by the contended per-stream bandwidth of `nvm`; every
    /// other strategy pays `serial` (a lazy restart's deferred chunks
    /// are not in it — each pays its own restore on first access).
    pub(crate) fn restore_time(
        self,
        serial: SimDuration,
        chunks: usize,
        nvm: &MemoryDevice,
    ) -> SimDuration {
        match self {
            RestartStrategy::Parallel { streams } if streams > 1 => {
                let n = streams.min(chunks.max(1));
                let solo = nvm.per_core_bandwidth(1, 32 << 20);
                let shared = nvm.per_core_bandwidth(n, 32 << 20);
                let slowdown = (solo / shared).max(1.0);
                SimDuration::from_secs_f64(serial.as_secs_f64() * slowdown / n as f64)
            }
            _ => serial,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_eager() {
        assert_eq!(RestartStrategy::default(), RestartStrategy::Eager);
    }
}
