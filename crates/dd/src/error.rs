//! Typed resource-governor errors and the cooperative cancellation token.
//!
//! DD sizes are exponential in the worst case (see the survey *Decision
//! Diagrams for Quantum Computing*); without limits a state-DD explosion
//! ends in OOM. The governor makes the failure *typed* instead: the
//! multiplication/apply recursions charge an amortized counter (see
//! `DdManager::charge`) and unwind with a [`DdError`] once a configured
//! budget, the wall-clock deadline, or a cancellation request trips.
//! Unwinding never corrupts the manager — partially built nodes are
//! unreferenced and reclaimed by the next garbage collection, and every
//! compute-table entry written by an aborted recursion is a complete,
//! valid result.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// The budgeted resource that was exhausted.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Resource {
    /// Live (allocated, not freed) nodes across both arenas
    /// ([`DdConfig::max_live_nodes`](crate::DdConfig::max_live_nodes)).
    LiveNodes,
    /// Bytes held by the arenas, unique tables, and compute tables
    /// ([`DdConfig::max_table_bytes`](crate::DdConfig::max_table_bytes)).
    TableBytes,
}

impl Resource {
    /// Stable lowercase label for CLI output.
    pub fn label(self) -> &'static str {
        match self {
            Resource::LiveNodes => "live-nodes",
            Resource::TableBytes => "table-bytes",
        }
    }
}

impl std::fmt::Display for Resource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Details of a tripped budget, recorded on the manager
/// ([`DdManager::last_breach`](crate::DdManager::last_breach)) rather than
/// carried inside [`DdError`]. The governed recursions return
/// `Result<Edge, DdError>` at every level; any payload here would push the
/// `Result` past two registers and tax the *success* path of every
/// multiply, so the error itself stays a bare one-byte discriminant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BudgetBreach {
    /// Which budget tripped.
    pub resource: Resource,
    /// The configured limit.
    pub limit: u64,
    /// The observed consumption at the check point.
    pub observed: u64,
}

/// A typed failure raised by the resource governor inside a DD operation.
///
/// The operation's partial work is abandoned; the manager stays consistent
/// and garbage-collectable, so callers may recover (run GC, relax the
/// budget, retry) or propagate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DdError {
    /// A configured resource budget was exceeded. Which budget, its limit,
    /// and the observed consumption are available from
    /// [`DdManager::last_breach`](crate::DdManager::last_breach).
    BudgetExceeded,
    /// The wall-clock deadline set via
    /// [`DdManager::set_deadline`](crate::DdManager::set_deadline) passed.
    DeadlineExceeded,
    /// The [`CancelToken`] registered via
    /// [`DdManager::set_cancel_token`](crate::DdManager::set_cancel_token)
    /// was triggered.
    Cancelled,
}

impl std::fmt::Display for DdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DdError::BudgetExceeded => f.write_str("resource budget exceeded"),
            DdError::DeadlineExceeded => f.write_str("wall-clock deadline exceeded"),
            DdError::Cancelled => f.write_str("cancelled by cooperative token"),
        }
    }
}

impl std::error::Error for DdError {}

/// A cooperative cancellation flag, cloneable across threads.
///
/// Cancelling is a one-way latch: once [`cancel`](Self::cancel) is called
/// every clone observes it and in-flight DD operations unwind with
/// [`DdError::Cancelled`] at their next governor check.
///
/// # Examples
///
/// ```
/// use ddsim_dd::CancelToken;
///
/// let token = CancelToken::new();
/// let watcher = token.clone();
/// assert!(!watcher.is_cancelled());
/// token.cancel();
/// assert!(watcher.is_cancelled());
/// ```
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Latches this token; every clone observes the cancellation.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether this token has been cancelled.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_token_latches_across_clones() {
        let t = CancelToken::new();
        let c = t.clone();
        assert!(!t.is_cancelled() && !c.is_cancelled());
        c.cancel();
        assert!(t.is_cancelled() && c.is_cancelled());
    }

    #[test]
    fn error_display_names_the_resource() {
        let s = DdError::BudgetExceeded.to_string();
        assert!(s.contains("budget"), "{s}");
        assert!(DdError::DeadlineExceeded.to_string().contains("deadline"));
        assert!(DdError::Cancelled.to_string().contains("cancelled"));
    }
}
