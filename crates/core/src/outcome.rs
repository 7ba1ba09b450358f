//! Provenance for synopsis *construction*, mirroring
//! [`crate::AnswerSource`] on the answering side.
//!
//! When a build runs under a [`crate::Budget`] and falls down the anytime
//! quality ladder (OPT-A → OPT-A-ROUNDED → SAP0/A0 → greedy), the synopsis
//! that comes back is still *valid* — it is simply a weaker tier than
//! requested. A [`BuildOutcome`] travels with the synopsis so that serving
//! layers, sweeps, and the CLI can observe which tier actually answered
//! and why the stronger tiers were abandoned. A degraded build **never
//! lies silently**.

use std::fmt;

/// One abandoned rung of the fallback ladder: which method was attempted
/// and the error that stopped it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildAttempt {
    /// Method name of the abandoned attempt (e.g. `"OPT-A"`).
    pub method: String,
    /// The error that aborted it, rendered as text (stable across
    /// `Display` of [`crate::SynopticError`]).
    pub error: String,
    /// Wall-clock milliseconds spent in this attempt.
    pub elapsed_ms: u64,
    /// DP cells (work units) this attempt charged before aborting.
    pub cells: u64,
}

/// Provenance of a completed build: which method actually produced the
/// synopsis, how far down the ladder the build fell, and what it cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildOutcome {
    /// Method originally requested (e.g. `"OPT-A"`).
    pub requested: String,
    /// Method that actually completed and produced the returned synopsis.
    pub used: String,
    /// How many ladder rungs were abandoned before `used` completed
    /// (0 = the requested method itself completed).
    pub tier: usize,
    /// The abandoned attempts, in ladder order.
    pub attempts: Vec<BuildAttempt>,
    /// Total wall-clock milliseconds across all attempts.
    pub elapsed_ms: u64,
    /// Total DP cells charged across all attempts (including the
    /// successful one).
    pub cells: u64,
}

impl BuildOutcome {
    /// An outcome for a build that completed the requested method directly
    /// (no ladder descent).
    pub fn direct(method: impl Into<String>, elapsed_ms: u64, cells: u64) -> Self {
        let method = method.into();
        Self {
            requested: method.clone(),
            used: method,
            tier: 0,
            attempts: Vec::new(),
            elapsed_ms,
            cells,
        }
    }

    /// `true` unless the requested method itself completed.
    pub fn is_degraded(&self) -> bool {
        self.tier != 0
    }
}

impl fmt::Display for BuildOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_degraded() {
            write!(
                f,
                "degraded:{} (requested {}, fell {} tier{}, {} ms, {} cells)",
                self.used,
                self.requested,
                self.tier,
                if self.tier == 1 { "" } else { "s" },
                self.elapsed_ms,
                self.cells
            )
        } else {
            write!(
                f,
                "direct:{} ({} ms, {} cells)",
                self.used, self.elapsed_ms, self.cells
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_outcome_is_not_degraded() {
        let o = BuildOutcome::direct("SAP0", 12, 3456);
        assert!(!o.is_degraded());
        assert_eq!(o.requested, "SAP0");
        assert_eq!(o.used, "SAP0");
        assert_eq!(o.to_string(), "direct:SAP0 (12 ms, 3456 cells)");
    }

    #[test]
    fn degraded_outcome_reports_ladder_descent() {
        let o = BuildOutcome {
            requested: "OPT-A".into(),
            used: "SAP0".into(),
            tier: 2,
            attempts: vec![
                BuildAttempt {
                    method: "OPT-A".into(),
                    error: "deadline".into(),
                    elapsed_ms: 5,
                    cells: 100,
                },
                BuildAttempt {
                    method: "OPT-A-ROUNDED".into(),
                    error: "deadline".into(),
                    elapsed_ms: 3,
                    cells: 50,
                },
            ],
            elapsed_ms: 9,
            cells: 180,
        };
        assert!(o.is_degraded());
        let s = o.to_string();
        assert!(s.contains("degraded:SAP0"), "{s}");
        assert!(s.contains("requested OPT-A"), "{s}");
        assert!(s.contains("2 tiers"), "{s}");
    }
}
