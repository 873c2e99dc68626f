//! Store-level errors.

use std::fmt;

use wsi_core::AbortReason;
use wsi_wal::WalError;

/// Convenient alias for store results.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors returned by the embedded store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The transaction aborted at commit time (a conflict or a client
    /// request). The transaction's writes were rolled back; the caller may
    /// retry with a fresh transaction.
    Aborted(AbortReason),
    /// An operation was attempted on a transaction that already committed or
    /// rolled back.
    TransactionFinished,
    /// The write-ahead log could not persist the commit; the transaction was
    /// rolled back rather than acknowledged without durability.
    Wal(WalError),
    /// A WAL record or checkpoint failed to decode during recovery.
    Corrupt(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Aborted(reason) => write!(f, "transaction aborted: {reason}"),
            Error::TransactionFinished => write!(f, "transaction already finished"),
            Error::Wal(e) => write!(f, "write-ahead log failure: {e}"),
            Error::Corrupt(msg) => write!(f, "corrupt log: {msg}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Wal(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WalError> for Error {
    fn from(e: WalError) -> Self {
        Error::Wal(e)
    }
}

impl Error {
    /// Returns the abort reason if this error is a conflict abort.
    pub fn abort_reason(&self) -> Option<AbortReason> {
        match self {
            Error::Aborted(r) => Some(*r),
            _ => None,
        }
    }

    /// Returns `true` if retrying the transaction could succeed (aborts and
    /// WAL failures are transient; finished/corrupt are not).
    pub fn is_retryable(&self) -> bool {
        matches!(self, Error::Aborted(_) | Error::Wal(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsi_core::Timestamp;

    #[test]
    fn retryability() {
        assert!(Error::Aborted(AbortReason::ClientRequested).is_retryable());
        assert!(!Error::TransactionFinished.is_retryable());
        assert!(!Error::Corrupt("x".into()).is_retryable());
    }

    #[test]
    fn abort_reason_accessor() {
        let e = Error::Aborted(AbortReason::TmaxExceeded {
            start_ts: Timestamp(1),
            t_max: Timestamp(2),
        });
        assert!(e.abort_reason().is_some());
        assert!(Error::TransactionFinished.abort_reason().is_none());
    }

    #[test]
    fn wal_error_converts() {
        let e: Error = WalError::QuorumLost {
            acks: 1,
            required: 2,
        }
        .into();
        assert!(matches!(e, Error::Wal(_)));
        assert!(std::error::Error::source(&e).is_some());
    }
}
