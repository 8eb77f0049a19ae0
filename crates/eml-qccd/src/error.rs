//! Error types for the hardware model and compilers.

use std::error::Error;
use std::fmt;

use ion_circuit::QubitId;

/// Errors produced while constructing devices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeviceError {
    /// The configuration is internally inconsistent.
    InvalidConfig(String),
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceError::InvalidConfig(msg) => write!(f, "invalid device configuration: {msg}"),
        }
    }
}

impl Error for DeviceError {}

/// Errors produced by compilers targeting these devices.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// The circuit needs more qubits than the device can hold.
    DeviceTooSmall {
        /// Qubits required by the circuit.
        required: usize,
        /// Total capacity of the device.
        capacity: usize,
    },
    /// The circuit failed validation before compilation.
    InvalidCircuit(String),
    /// The device configuration is unusable for this compiler.
    InvalidDevice(String),
    /// The compiler's options are outside their documented range.
    InvalidOptions(String),
    /// The scheduler could not find a placement for a qubit (indicates an
    /// internal inconsistency; surfaced rather than panicking so callers can
    /// report which qubit and gate were involved).
    PlacementFailed {
        /// The qubit that could not be placed.
        qubit: QubitId,
        /// Human-readable context.
        context: String,
    },
    /// The compiler violated one of its own invariants (a caught panic or
    /// equivalent). Inputs never produce this legitimately; seeing it means
    /// a compiler bug, surfaced as an error so one bad compile cannot take
    /// down a batch or a serving process.
    Internal(String),
    /// A post-compile schedule check (the `crates/verify` translation
    /// validator) rejected the emitted op stream. Like
    /// [`CompileError::Internal`], this indicates a compiler bug — a
    /// physically invalid or source-divergent schedule — caught before the
    /// program reaches a caller.
    VerificationFailed(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::DeviceTooSmall { required, capacity } => write!(
                f,
                "circuit needs {required} qubits but the device only holds {capacity}"
            ),
            CompileError::InvalidCircuit(msg) => write!(f, "invalid circuit: {msg}"),
            CompileError::InvalidDevice(msg) => write!(f, "invalid device: {msg}"),
            CompileError::InvalidOptions(msg) => write!(f, "invalid options: {msg}"),
            CompileError::PlacementFailed { qubit, context } => {
                write!(f, "could not place {qubit}: {context}")
            }
            CompileError::Internal(msg) => {
                write!(f, "internal compiler error: {msg}")
            }
            CompileError::VerificationFailed(msg) => {
                write!(f, "schedule verification failed: {msg}")
            }
        }
    }
}

impl Error for CompileError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_useful_messages() {
        let e = CompileError::DeviceTooSmall {
            required: 40,
            capacity: 32,
        };
        assert!(e.to_string().contains("40"));
        assert!(e.to_string().contains("32"));
        let d = DeviceError::InvalidConfig("no modules".into());
        assert!(d.to_string().contains("no modules"));
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DeviceError>();
        assert_send_sync::<CompileError>();
    }
}
