//! The workspace-wide typed error, [`XProError`].
//!
//! Every fallible public entry point of `xpro-core` (and the crates layered
//! on top of it — `xpro-runtime`, the CLIs, the bench harness) returns
//! `Result<_, XProError>` instead of `Box<dyn Error>` or panicking. The
//! variants partition the failure surface the way the architecture does:
//! training the classifier, searching for a partition, checking its cut
//! certificate, configuration validation, and I/O.
//!
//! The enum is `#[non_exhaustive]`: downstream matches must carry a
//! wildcard arm so new failure classes can be added without a breaking
//! release.

use std::fmt;

/// Unified error type for the XPro workspace.
#[derive(Debug)]
#[non_exhaustive]
pub enum XProError {
    /// Training the random-subspace ensemble (or a base SVM) failed.
    Train(xpro_ml::subspace::TrainEnsembleError),
    /// No partition satisfies the requested constraints (e.g. a delay
    /// limit tighter than every feasible candidate).
    Partition(String),
    /// An I/O operation failed (report emission, dataset loading).
    Io(std::io::Error),
    /// A configuration value was out of range or inconsistent.
    Config(String),
    /// A generated partition failed its cut-certificate check: the
    /// max-flow/min-cut witness or the static delay re-derivation violated
    /// an invariant.
    Certificate(crate::certificate::CertificateViolation),
}

impl XProError {
    /// Convenience constructor for [`XProError::Config`].
    pub fn config(msg: impl Into<String>) -> Self {
        XProError::Config(msg.into())
    }

    /// Convenience constructor for [`XProError::Partition`].
    pub fn partition(msg: impl Into<String>) -> Self {
        XProError::Partition(msg.into())
    }
}

impl fmt::Display for XProError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XProError::Train(e) => write!(f, "training failed: {e}"),
            XProError::Partition(msg) => write!(f, "partitioning failed: {msg}"),
            XProError::Io(e) => write!(f, "i/o error: {e}"),
            XProError::Config(msg) => write!(f, "invalid configuration: {msg}"),
            XProError::Certificate(v) => write!(f, "certificate check failed: {v}"),
        }
    }
}

impl std::error::Error for XProError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            XProError::Train(e) => Some(e),
            XProError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<xpro_ml::subspace::TrainEnsembleError> for XProError {
    fn from(e: xpro_ml::subspace::TrainEnsembleError) -> Self {
        XProError::Train(e)
    }
}

impl From<std::io::Error> for XProError {
    fn from(e: std::io::Error) -> Self {
        XProError::Io(e)
    }
}

impl From<crate::certificate::CertificateViolation> for XProError {
    fn from(v: crate::certificate::CertificateViolation) -> Self {
        XProError::Certificate(v)
    }
}

impl From<xpro_analyze::AnalyzeError> for XProError {
    fn from(e: xpro_analyze::AnalyzeError) -> Self {
        XProError::Config(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_prefixes_identify_the_variant() {
        assert!(XProError::config("bad rate")
            .to_string()
            .contains("invalid configuration"));
        assert!(XProError::partition("infeasible")
            .to_string()
            .contains("partitioning"));
    }

    #[test]
    fn io_and_train_expose_sources() {
        use std::error::Error;
        let io = XProError::from(std::io::Error::other("disk"));
        assert!(io.source().is_some());
        let train = XProError::from(xpro_ml::subspace::TrainEnsembleError::NoViableCandidate);
        assert!(train.source().is_some());
        assert!(XProError::config("x").source().is_none());
    }
}
