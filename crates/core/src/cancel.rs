//! Deadline cancellation for long-running compiles.
//!
//! A [`CancelToken`] is an optional deadline, copied from the party that
//! owns a compile's time budget (a serving layer, a CLI timeout) into the
//! router doing the work. Routers poll [`CancelToken::check`] at stage
//! boundaries — once per emitted schedule stage, Pauli string, or QAOA
//! round — and abort with [`RouteError::Cancelled`] once the deadline has
//! passed. The poll is one `Instant::now()` call when a deadline is armed
//! and a branch otherwise, cheap enough for the innermost routing loops.
//!
//! Cancellation is strictly cooperative: a token never interrupts a
//! stage in flight, it only stops the *next* stage from starting. That
//! keeps every abort at a clean schedule boundary, so a cancelled
//! compile leaves no partially-emitted state behind.

use std::time::Instant;

use crate::error::RouteError;

/// An optional compile deadline, checked by routers at stage boundaries.
/// The default token has no deadline and never fires. See the [module
/// docs](self) for the polling contract.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CancelToken {
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that fires once `deadline` has passed.
    pub fn with_deadline(deadline: Instant) -> CancelToken {
        CancelToken {
            deadline: Some(deadline),
        }
    }

    /// Stage-boundary poll: `Ok(())` before the deadline, the
    /// wire-stable [`RouteError::Cancelled`] from then on.
    ///
    /// # Errors
    ///
    /// Returns [`RouteError::Cancelled`] once the deadline has passed.
    pub fn check(&self) -> Result<(), RouteError> {
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            Err(RouteError::Cancelled)
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn fresh_token_is_live() {
        assert!(CancelToken::default().check().is_ok());
    }

    #[test]
    fn past_deadline_reports_deadline() {
        let token = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert_eq!(token.check(), Err(RouteError::Cancelled));
        assert_eq!(
            RouteError::Cancelled.to_string(),
            "compile cancelled: deadline exceeded"
        );
    }

    #[test]
    fn future_deadline_is_live_until_it_passes() {
        let token = CancelToken::with_deadline(Instant::now() + Duration::from_secs(3600));
        assert!(token.check().is_ok());
    }
}
