//! The moved-qubit log shared by the placement states of every compiler.

// lint: hot-path

use ion_circuit::QubitId;

/// The set of qubits whose zone changed since the last
/// [`drain`](MovedQubits::drain), in first-move order.
///
/// Placement states record every placement change here (initial placement,
/// shuttles, logical swaps) so a scheduling loop can re-examine only the
/// front gates whose operands moved: a gate's executability reads nothing
/// but its two operands' zones. Each qubit is recorded at most once between
/// drains, so the log never holds more entries than there are qubits, even
/// for a placement nobody drains. Both buffers are pooled: recording and
/// draining allocate nothing once the per-qubit flags cover the register.
#[derive(Debug, Clone, Default)]
pub struct MovedQubits {
    /// Moved qubits in first-move order (no duplicates).
    order: Vec<QubitId>,
    /// `logged[q]` is `true` while `q` sits in `order`.
    logged: Vec<bool>,
}

impl MovedQubits {
    /// Records that `qubit` changed zone (a no-op if it already is logged).
    pub fn record(&mut self, qubit: QubitId) {
        if qubit.index() >= self.logged.len() {
            self.logged.resize(qubit.index() + 1, false);
        }
        if !self.logged[qubit.index()] {
            self.logged[qubit.index()] = true;
            self.order.push(qubit);
        }
    }

    /// Hands every logged qubit to `f` in first-move order and empties the
    /// log.
    pub fn drain(&mut self, mut f: impl FnMut(QubitId)) {
        for &qubit in &self.order {
            self.logged[qubit.index()] = false;
            f(qubit);
        }
        self.order.clear();
    }

    /// Empties the log without reporting its contents.
    pub fn clear(&mut self) {
        self.drain(|_| {});
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(i: usize) -> QubitId {
        QubitId::new(i)
    }

    fn drained(log: &mut MovedQubits) -> Vec<QubitId> {
        let mut seen = Vec::new();
        log.drain(|qubit| seen.push(qubit));
        seen
    }

    #[test]
    fn records_each_qubit_once_in_first_move_order() {
        let mut log = MovedQubits::default();
        for i in [3, 1, 3, 7, 1] {
            log.record(q(i));
        }
        assert_eq!(drained(&mut log), [q(3), q(1), q(7)]);
        assert!(drained(&mut log).is_empty());
    }

    #[test]
    fn a_drained_or_cleared_qubit_is_recorded_again() {
        let mut log = MovedQubits::default();
        log.record(q(2));
        log.clear();
        assert!(drained(&mut log).is_empty());
        log.record(q(2));
        assert_eq!(drained(&mut log), [q(2)]);
    }
}
