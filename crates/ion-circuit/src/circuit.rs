//! Ordered gate sequences with validation and statistics.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::{CircuitError, Gate, QubitId};

/// A quantum circuit: a named register of `num_qubits` logical qubits and an
/// ordered list of [`Gate`]s.
///
/// The circuit is the unit of work handed to every compiler in the workspace.
/// Construction is incremental (builder-style helpers such as [`Circuit::h`]
/// and [`Circuit::cx`] return `&mut Self` so calls can be chained); a circuit
/// can be [validated](Circuit::validate) to guarantee that every gate operand
/// is inside the register and that no two-qubit gate addresses the same qubit
/// twice.
///
/// ```
/// use ion_circuit::Circuit;
///
/// let mut c = Circuit::new(3);
/// c.h(0).cx(0, 1).cx(1, 2).measure_all();
/// assert_eq!(c.two_qubit_gate_count(), 2);
/// assert!(c.validate().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Circuit {
    name: String,
    num_qubits: usize,
    gates: Vec<Gate>,
}

impl Circuit {
    /// Creates an empty circuit over `num_qubits` qubits.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits` is zero; use [`Circuit::try_new`] for a fallible
    /// variant.
    pub fn new(num_qubits: usize) -> Self {
        Self::try_new("circuit", num_qubits).expect("circuit must have at least one qubit")
    }

    /// Creates an empty named circuit, returning an error for an empty register.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::EmptyRegister`] if `num_qubits == 0`.
    pub fn try_new(name: impl Into<String>, num_qubits: usize) -> Result<Self, CircuitError> {
        if num_qubits == 0 {
            return Err(CircuitError::EmptyRegister);
        }
        Ok(Circuit {
            name: name.into(),
            num_qubits,
            gates: Vec::new(),
        })
    }

    /// Creates an empty named circuit.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits` is zero.
    pub fn with_name(name: impl Into<String>, num_qubits: usize) -> Self {
        Self::try_new(name, num_qubits).expect("circuit must have at least one qubit")
    }

    /// Wraps an already-built gate list without copying it (the QASM
    /// front-end's result). The caller guarantees `num_qubits > 0`.
    pub(crate) fn from_gates(name: &str, num_qubits: usize, gates: Vec<Gate>) -> Self {
        Circuit {
            name: name.to_string(),
            num_qubits,
            gates,
        }
    }

    /// The circuit's human-readable name (e.g. `"Adder_32"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the circuit.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Number of logical qubits in the register.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The ordered list of gates.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Total number of gates (including measurements and barriers).
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// `true` if the circuit contains no gates.
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// Appends an arbitrary gate.
    pub fn push(&mut self, gate: Gate) -> &mut Self {
        self.gates.push(gate);
        self
    }

    /// Appends all gates from an iterator.
    pub fn extend<I: IntoIterator<Item = Gate>>(&mut self, gates: I) -> &mut Self {
        self.gates.extend(gates);
        self
    }

    /// Appends a Hadamard gate on qubit `q`.
    pub fn h(&mut self, q: usize) -> &mut Self {
        self.push(Gate::H(QubitId::new(q)))
    }

    /// Appends a Pauli-X gate on qubit `q`.
    pub fn x(&mut self, q: usize) -> &mut Self {
        self.push(Gate::X(QubitId::new(q)))
    }

    /// Appends a T gate on qubit `q`.
    pub fn t(&mut self, q: usize) -> &mut Self {
        self.push(Gate::T(QubitId::new(q)))
    }

    /// Appends a T† gate on qubit `q`.
    pub fn tdg(&mut self, q: usize) -> &mut Self {
        self.push(Gate::Tdg(QubitId::new(q)))
    }

    /// Appends an Rz rotation on qubit `q`.
    pub fn rz(&mut self, q: usize, theta: f64) -> &mut Self {
        self.push(Gate::Rz {
            qubit: QubitId::new(q),
            theta,
        })
    }

    /// Appends an Rx rotation on qubit `q`.
    pub fn rx(&mut self, q: usize, theta: f64) -> &mut Self {
        self.push(Gate::Rx {
            qubit: QubitId::new(q),
            theta,
        })
    }

    /// Appends a CX gate.
    pub fn cx(&mut self, control: usize, target: usize) -> &mut Self {
        self.push(Gate::Cx(QubitId::new(control), QubitId::new(target)))
    }

    /// Appends a CZ gate.
    pub fn cz(&mut self, a: usize, b: usize) -> &mut Self {
        self.push(Gate::Cz(QubitId::new(a), QubitId::new(b)))
    }

    /// Appends a native MS gate.
    pub fn ms(&mut self, a: usize, b: usize) -> &mut Self {
        self.push(Gate::Ms(QubitId::new(a), QubitId::new(b)))
    }

    /// Appends a controlled-phase gate.
    pub fn cp(&mut self, control: usize, target: usize, theta: f64) -> &mut Self {
        self.push(Gate::Cp {
            control: QubitId::new(control),
            target: QubitId::new(target),
            theta,
        })
    }

    /// Appends an Ising ZZ interaction.
    pub fn rzz(&mut self, a: usize, b: usize, theta: f64) -> &mut Self {
        self.push(Gate::Rzz {
            a: QubitId::new(a),
            b: QubitId::new(b),
            theta,
        })
    }

    /// Appends a logical SWAP gate.
    pub fn swap(&mut self, a: usize, b: usize) -> &mut Self {
        self.push(Gate::Swap(QubitId::new(a), QubitId::new(b)))
    }

    /// Appends a Toffoli (CCX) gate decomposed into the standard six-CX network.
    ///
    /// Trapped-ion hardware has no native three-qubit gate, and the benchmark
    /// suite (Adder, SQRT) relies heavily on Toffolis, so the decomposition is
    /// provided as a first-class builder.
    pub fn ccx(&mut self, a: usize, b: usize, c: usize) -> &mut Self {
        self.h(c)
            .cx(b, c)
            .tdg(c)
            .cx(a, c)
            .t(c)
            .cx(b, c)
            .tdg(c)
            .cx(a, c)
            .t(b)
            .t(c)
            .h(c)
            .cx(a, b)
            .t(a)
            .tdg(b)
            .cx(a, b)
    }

    /// Appends a measurement on qubit `q`.
    pub fn measure(&mut self, q: usize) -> &mut Self {
        self.push(Gate::Measure(QubitId::new(q)))
    }

    /// Appends a measurement on every qubit in the register.
    pub fn measure_all(&mut self) -> &mut Self {
        for q in 0..self.num_qubits {
            self.measure(q);
        }
        self
    }

    /// Appends a barrier over every qubit.
    pub fn barrier_all(&mut self) -> &mut Self {
        let qs = (0..self.num_qubits).map(QubitId::new).collect();
        self.push(Gate::Barrier(qs))
    }

    /// Number of two-qubit (entangling) gates.
    pub fn two_qubit_gate_count(&self) -> usize {
        self.gates.iter().filter(|g| g.is_two_qubit()).count()
    }

    /// Number of single-qubit gates.
    pub fn single_qubit_gate_count(&self) -> usize {
        self.gates.iter().filter(|g| g.is_single_qubit()).count()
    }

    /// Number of measurement operations.
    pub fn measurement_count(&self) -> usize {
        self.gates.iter().filter(|g| g.is_measurement()).count()
    }

    /// Circuit depth counting every gate (layered by qubit availability).
    pub fn depth(&self) -> usize {
        self.depth_impl(false)
    }

    /// Circuit depth counting only two-qubit gates, which is the depth measure
    /// relevant to shuttle scheduling.
    pub fn two_qubit_depth(&self) -> usize {
        self.depth_impl(true)
    }

    fn depth_impl(&self, two_qubit_only: bool) -> usize {
        let mut level: HashMap<QubitId, usize> = HashMap::new();
        let mut max_depth = 0;
        for gate in &self.gates {
            if gate.is_barrier() {
                continue;
            }
            if two_qubit_only && !gate.is_two_qubit() {
                continue;
            }
            let qs = gate.qubits();
            let start = qs
                .iter()
                .map(|q| level.get(q).copied().unwrap_or(0))
                .max()
                .unwrap_or(0);
            let end = start + 1;
            for q in qs {
                level.insert(q, end);
            }
            max_depth = max_depth.max(end);
        }
        max_depth
    }

    /// Validates that the register is non-empty, every gate operand is in
    /// range and two-qubit gates have distinct operands.
    ///
    /// The non-empty-register check matters for circuits that bypassed the
    /// constructors (e.g. deserialized ones): every compiler in the
    /// workspace assumes `num_qubits >= 1` once validation passes.
    ///
    /// # Errors
    ///
    /// Returns the first [`CircuitError`] encountered, scanning gates in order.
    pub fn validate(&self) -> Result<(), CircuitError> {
        if self.num_qubits == 0 {
            return Err(CircuitError::EmptyRegister);
        }
        for gate in &self.gates {
            let qs = gate.qubits();
            for q in &qs {
                if q.index() >= self.num_qubits {
                    return Err(CircuitError::QubitOutOfRange {
                        qubit: *q,
                        num_qubits: self.num_qubits,
                    });
                }
            }
            if let Some((a, b)) = gate.two_qubit_pair() {
                if a == b {
                    return Err(CircuitError::DuplicateOperand { qubit: a });
                }
            }
        }
        Ok(())
    }

    /// [`validate`](Circuit::validate) plus a width check against a compile
    /// target with `capacity` qubit slots — the validation boundary every
    /// untrusted circuit crosses before entering a compiler.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::WiderThanTarget`] when the circuit declares
    /// more qubits than `capacity`, or any error [`validate`](Circuit::validate)
    /// reports.
    pub fn validate_for(&self, capacity: usize) -> Result<(), CircuitError> {
        self.validate()?;
        if self.num_qubits > capacity {
            return Err(CircuitError::WiderThanTarget {
                num_qubits: self.num_qubits,
                capacity,
            });
        }
        Ok(())
    }

    /// Returns summary statistics for the circuit.
    pub fn stats(&self) -> CircuitStats {
        CircuitStats {
            num_qubits: self.num_qubits,
            total_gates: self.len(),
            single_qubit_gates: self.single_qubit_gate_count(),
            two_qubit_gates: self.two_qubit_gate_count(),
            measurements: self.measurement_count(),
            depth: self.depth(),
            two_qubit_depth: self.two_qubit_depth(),
        }
    }

    /// Returns a circuit containing the same gates in reverse order.
    ///
    /// Reversal is used by the SABRE-style bidirectional initial-mapping pass
    /// (Section 3.4 of the paper): the reversed circuit is scheduled with the
    /// forward pass's final mapping to obtain a better starting placement.
    pub fn reversed(&self) -> Circuit {
        Circuit {
            name: format!("{}_reversed", self.name),
            num_qubits: self.num_qubits,
            gates: self.gates.iter().rev().cloned().collect(),
        }
    }

    /// Returns only the two-qubit gates, preserving order.
    pub fn two_qubit_gates(&self) -> impl Iterator<Item = &Gate> {
        self.gates.iter().filter(|g| g.is_two_qubit())
    }
}

/// Summary statistics of a [`Circuit`], as reported by [`Circuit::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CircuitStats {
    /// Register size.
    pub num_qubits: usize,
    /// Total gate count, including measurements and barriers.
    pub total_gates: usize,
    /// Single-qubit gate count.
    pub single_qubit_gates: usize,
    /// Two-qubit (entangling) gate count.
    pub two_qubit_gates: usize,
    /// Measurement count.
    pub measurements: usize,
    /// Depth counting all gates.
    pub depth: usize,
    /// Depth counting only two-qubit gates.
    pub two_qubit_depth: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_helpers_append_gates_in_order() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).measure_all();
        assert_eq!(c.len(), 4);
        assert_eq!(c.gates()[0], Gate::H(QubitId::new(0)));
        assert_eq!(c.gates()[1], Gate::cx(0, 1));
        assert!(c.gates()[2].is_measurement());
    }

    #[test]
    fn validate_rejects_out_of_range_qubits() {
        let mut c = Circuit::new(2);
        c.cx(0, 5);
        assert!(matches!(
            c.validate(),
            Err(CircuitError::QubitOutOfRange { .. })
        ));
    }

    #[test]
    fn validate_rejects_duplicate_operands() {
        let mut c = Circuit::new(3);
        c.push(Gate::Ms(QubitId::new(1), QubitId::new(1)));
        assert_eq!(
            c.validate(),
            Err(CircuitError::DuplicateOperand {
                qubit: QubitId::new(1)
            })
        );
    }

    #[test]
    fn empty_register_is_rejected() {
        assert_eq!(
            Circuit::try_new("empty", 0).unwrap_err(),
            CircuitError::EmptyRegister
        );
    }

    #[test]
    fn depth_counts_layers() {
        let mut c = Circuit::new(3);
        // Layer 1: cx(0,1). Layer 2: cx(1,2). cx(0,1) and cx(1,2) conflict on q1.
        c.cx(0, 1).cx(1, 2);
        assert_eq!(c.depth(), 2);
        assert_eq!(c.two_qubit_depth(), 2);

        let mut parallel = Circuit::new(4);
        parallel.cx(0, 1).cx(2, 3);
        assert_eq!(parallel.depth(), 1);
    }

    #[test]
    fn ccx_decomposition_has_six_cx() {
        let mut c = Circuit::new(3);
        c.ccx(0, 1, 2);
        assert_eq!(c.two_qubit_gate_count(), 6);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn stats_are_consistent() {
        let mut c = Circuit::with_name("demo", 3);
        c.h(0).cx(0, 1).cx(1, 2).measure_all();
        let s = c.stats();
        assert_eq!(s.num_qubits, 3);
        assert_eq!(s.two_qubit_gates, 2);
        assert_eq!(s.single_qubit_gates, 1);
        assert_eq!(s.measurements, 3);
        assert_eq!(s.total_gates, c.len());
    }

    #[test]
    fn reversed_reverses_gate_order() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let r = c.reversed();
        assert_eq!(r.gates()[0], Gate::cx(0, 1));
        assert_eq!(r.gates()[1], Gate::H(QubitId::new(0)));
        assert_eq!(r.num_qubits(), 2);
    }

    #[test]
    fn depth_ignores_barriers() {
        let mut c = Circuit::new(2);
        c.h(0).barrier_all().h(1);
        assert_eq!(c.depth(), 1);
    }
}
