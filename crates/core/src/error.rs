//! Routing errors.

use std::error::Error;
use std::fmt;

/// Errors returned by the routers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteError {
    /// The circuit/problem uses more qubits than the FPQA holds.
    TooManyQubits {
        /// Qubits required.
        required: u32,
        /// Data qubits available on the configured SLM array.
        available: u32,
    },
    /// A gate survived decomposition that the FPQA cannot execute natively.
    UnsupportedGate {
        /// Rendered gate.
        gate: String,
    },
    /// The AOD grid has too few rows/columns for the required ancillas.
    AodTooSmall {
        /// Lines required.
        required: usize,
        /// Lines available (min of rows and columns).
        available: usize,
    },
    /// A QAOA edge was malformed (self loop, duplicate, or out of range).
    InvalidEdge {
        /// First endpoint.
        a: u32,
        /// Second endpoint.
        b: u32,
    },
    /// The compile's deadline passed; its
    /// [`CancelToken`](crate::cancel::CancelToken) stopped it at a stage
    /// boundary.
    Cancelled,
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::TooManyQubits {
                required,
                available,
            } => {
                write!(f, "problem needs {required} qubits, FPQA holds {available}")
            }
            RouteError::UnsupportedGate { gate } => {
                write!(f, "gate {gate} is not FPQA-native after decomposition")
            }
            RouteError::AodTooSmall {
                required,
                available,
            } => {
                write!(f, "stage needs {required} AOD lines, grid has {available}")
            }
            RouteError::InvalidEdge { a, b } => {
                write!(f, "invalid interaction edge ({a}, {b})")
            }
            RouteError::Cancelled => write!(f, "compile cancelled: deadline exceeded"),
        }
    }
}

impl Error for RouteError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = RouteError::TooManyQubits {
            required: 10,
            available: 9,
        };
        assert_eq!(e.to_string(), "problem needs 10 qubits, FPQA holds 9");
    }
}
