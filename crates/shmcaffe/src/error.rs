use std::fmt;

use shmcaffe_smb::SmbError;

/// Errors surfaced by the platform layer.
#[derive(Debug, Clone, PartialEq)]
pub enum PlatformError {
    /// A Soft-Memory-Box failure.
    Smb(SmbError),
    /// Invalid platform configuration.
    BadConfig(String),
    /// A worker process failed; carries the propagated message.
    WorkerFailed(String),
    /// A peer or background thread stopped responding within a timeout.
    Timeout(String),
}

impl fmt::Display for PlatformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlatformError::Smb(e) => write!(f, "smb error: {e}"),
            PlatformError::BadConfig(msg) => write!(f, "bad configuration: {msg}"),
            PlatformError::WorkerFailed(msg) => write!(f, "worker failed: {msg}"),
            PlatformError::Timeout(msg) => write!(f, "timed out: {msg}"),
        }
    }
}

impl std::error::Error for PlatformError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PlatformError::Smb(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SmbError> for PlatformError {
    fn from(e: SmbError) -> Self {
        PlatformError::Smb(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        use std::error::Error;
        let e = PlatformError::BadConfig("x".into());
        assert!(e.source().is_none());
        assert!(e.to_string().contains('x'));
        let e = PlatformError::Smb(SmbError::NoMemoryServer);
        assert!(e.source().is_some());
    }
}
