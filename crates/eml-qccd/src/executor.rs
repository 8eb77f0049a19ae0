//! The schedule executor: turns an operation sequence into metrics.

// lint: hot-path

use crate::{ExecutionMetrics, FidelityModel, ScheduledOp, TimingModel};

/// Folds timing, heat and fidelity models over a sequence of
/// [`ScheduledOp`]s.
///
/// Every compiler in the workspace (MUSS-TI and the baselines) runs its output
/// through the same executor, so the reported metrics are directly
/// comparable:
///
/// * **Execution time** is a makespan computed with per-qubit and per-zone
///   clocks: an operation starts when all of its qubits *and* all of its
///   zones are free, and operations on disjoint resources overlap.
/// * **Heat** accumulates per zone: each shuttle or chain rearrangement adds
///   its motional quanta to the destination zone, degrading the background
///   fidelity of every later gate executed there (Section 4).
/// * **Fidelity** is the product of per-operation fidelities, accumulated in
///   log space.
///
/// ```
/// use eml_qccd::{ScheduleExecutor, ScheduledOp};
/// use ion_circuit::QubitId;
///
/// let ops = vec![
///     ScheduledOp::Shuttle { qubit: QubitId::new(0), from_zone: 2, to_zone: 0, distance_um: 100.0 },
///     ScheduledOp::TwoQubitGate { a: QubitId::new(0), b: QubitId::new(1), zone: 0, ions_in_zone: 2 },
/// ];
/// let metrics = ScheduleExecutor::paper_defaults().execute(&ops);
/// assert_eq!(metrics.shuttle_count, 1);
/// assert_eq!(metrics.two_qubit_gates, 1);
/// assert!(metrics.fidelity() < 1.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ScheduleExecutor {
    timing: TimingModel,
    fidelity: FidelityModel,
}

/// Reusable clock/heat arrays for [`ScheduleExecutor::execute_in`]: the
/// executor's only allocations, pooled in a compile context so repeated
/// evaluations in a held compile context or batch worker are allocation-free
/// after warmup.
#[derive(Debug, Clone, Default)]
pub struct ExecutorScratch {
    qubit_clock: Vec<f64>,
    zone_clock: Vec<f64>,
    zone_heat: Vec<f64>,
}

impl ExecutorScratch {
    /// Empty scratch; arrays grow to the working-set size on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Zeroes the arrays at the requested sizes, reusing capacity.
    fn prepare(&mut self, num_qubits: usize, num_zones: usize) {
        self.qubit_clock.clear();
        self.zone_clock.clear();
        self.zone_heat.clear();
        self.qubit_clock.resize(num_qubits, 0.0);
        self.zone_clock.resize(num_zones, 0.0);
        self.zone_heat.resize(num_zones, 0.0);
    }
}

impl ScheduleExecutor {
    /// Builds an executor from explicit timing and fidelity models.
    pub fn new(timing: TimingModel, fidelity: FidelityModel) -> Self {
        ScheduleExecutor { timing, fidelity }
    }

    /// Executor using the paper's Table 1 parameters.
    pub fn paper_defaults() -> Self {
        Self::new(
            TimingModel::paper_defaults(),
            FidelityModel::paper_defaults(),
        )
    }

    /// The timing model in use.
    pub fn timing(&self) -> &TimingModel {
        &self.timing
    }

    /// The fidelity model in use.
    pub fn fidelity_model(&self) -> &FidelityModel {
        &self.fidelity
    }

    /// Executes an operation sequence and returns the aggregated metrics.
    ///
    /// Resource state lives in flat `Vec<f64>` clock/heat arrays indexed by
    /// qubit and zone id (both are dense indices), pre-sized with one linear
    /// scan over the ops — no hashing and no per-op allocation.
    pub fn execute(&self, ops: &[ScheduledOp]) -> ExecutionMetrics {
        let (mut max_qubit, mut max_zone) = (0usize, 0usize);
        for op in ops {
            let (qa, qb) = op.qubit_pair();
            for q in [qa, qb].into_iter().flatten() {
                max_qubit = max_qubit.max(q.index() + 1);
            }
            let (za, zb) = op.zone_pair();
            max_zone = max_zone.max(za + 1);
            if let Some(z) = zb {
                max_zone = max_zone.max(z + 1);
            }
        }
        self.execute_sized(ops, max_qubit, max_zone)
    }

    /// [`ScheduleExecutor::execute`] with the clock/heat arrays sized from a
    /// known topology (`num_qubits` logical qubits, `num_zones` zones/traps),
    /// skipping the sizing pre-scan. Ops referencing indices beyond the given
    /// dimensions grow the arrays transparently.
    pub fn execute_sized(
        &self,
        ops: &[ScheduledOp],
        num_qubits: usize,
        num_zones: usize,
    ) -> ExecutionMetrics {
        self.execute_in(&mut ExecutorScratch::new(), ops, num_qubits, num_zones)
    }

    /// [`ScheduleExecutor::execute_sized`] with caller-pooled scratch arrays:
    /// the pipeline's evaluation path, allocation-free once the scratch has
    /// grown to the device's dimensions.
    pub fn execute_in(
        &self,
        scratch: &mut ExecutorScratch,
        ops: &[ScheduledOp],
        num_qubits: usize,
        num_zones: usize,
    ) -> ExecutionMetrics {
        /// Reads `v[i]`, treating out-of-range slots as the 0.0 default.
        fn read(v: &[f64], i: usize) -> f64 {
            v.get(i).copied().unwrap_or(0.0)
        }
        /// Mutable access to `v[i]`, growing the array on demand.
        fn slot(v: &mut Vec<f64>, i: usize) -> &mut f64 {
            if i >= v.len() {
                v.resize(i + 1, 0.0);
            }
            &mut v[i]
        }

        let mut metrics = ExecutionMetrics::default();
        scratch.prepare(num_qubits, num_zones);
        let ExecutorScratch {
            qubit_clock,
            zone_clock,
            zone_heat,
        } = scratch;
        let mut makespan = 0.0f64;

        for op in ops {
            let duration = self.timing.duration_us(op);

            // --- Fidelity and counters -------------------------------------
            let op_fidelity = match op {
                ScheduledOp::SingleQubitGate { .. } => {
                    metrics.single_qubit_gates += 1;
                    self.fidelity.single_qubit_fidelity()
                }
                ScheduledOp::TwoQubitGate {
                    zone, ions_in_zone, ..
                } => {
                    metrics.two_qubit_gates += 1;
                    let heat = read(zone_heat, *zone);
                    self.fidelity.two_qubit_fidelity(*ions_in_zone, heat)
                }
                ScheduledOp::SwapGate {
                    zone, ions_in_zone, ..
                } => {
                    metrics.swap_gates += 1;
                    let heat = read(zone_heat, *zone);
                    self.fidelity.swap_gate_fidelity(*ions_in_zone, heat)
                }
                ScheduledOp::FiberGate { zone_a, zone_b, .. } => {
                    metrics.fiber_gates += 1;
                    let ha = read(zone_heat, *zone_a);
                    let hb = read(zone_heat, *zone_b);
                    self.fidelity.fiber_fidelity(ha, hb)
                }
                ScheduledOp::Shuttle { to_zone, .. } => {
                    metrics.shuttle_count += 1;
                    let heat = self.fidelity.shuttle_heat();
                    *slot(zone_heat, *to_zone) += heat;
                    self.fidelity.transport_fidelity(duration, heat)
                }
                ScheduledOp::ChainRearrange { zone } => {
                    metrics.chain_rearrangements += 1;
                    let heat = self.fidelity.chain_rearrange_heat();
                    *slot(zone_heat, *zone) += heat;
                    self.fidelity.transport_fidelity(duration, heat)
                }
                ScheduledOp::Measurement { .. } => {
                    metrics.measurements += 1;
                    self.fidelity.measurement_fidelity()
                }
            };
            metrics.log_fidelity *= op_fidelity;

            // --- Timing (resource clocks) -----------------------------------
            let (qa, qb) = op.qubit_pair();
            let (za, zb) = op.zone_pair();
            let mut start = 0.0f64;
            for q in [qa, qb].into_iter().flatten() {
                start = start.max(read(qubit_clock, q.index()));
            }
            start = start.max(read(zone_clock, za));
            if let Some(z) = zb {
                start = start.max(read(zone_clock, z));
            }
            let end = start + duration;
            for q in [qa, qb].into_iter().flatten() {
                *slot(qubit_clock, q.index()) = end;
            }
            *slot(zone_clock, za) = end;
            if let Some(z) = zb {
                *slot(zone_clock, z) = end;
            }
            makespan = makespan.max(end);
        }

        metrics.execution_time_us = makespan;
        metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LogFidelity;
    use ion_circuit::QubitId;

    fn q(i: usize) -> QubitId {
        QubitId::new(i)
    }

    #[test]
    fn empty_schedule_is_free_and_perfect() {
        let m = ScheduleExecutor::paper_defaults().execute(&[]);
        assert_eq!(m.execution_time_us, 0.0);
        assert_eq!(m.fidelity(), 1.0);
        assert_eq!(m.shuttle_count, 0);
    }

    #[test]
    fn independent_gates_overlap_in_time() {
        let exec = ScheduleExecutor::paper_defaults();
        let ops = vec![
            ScheduledOp::TwoQubitGate {
                a: q(0),
                b: q(1),
                zone: 0,
                ions_in_zone: 2,
            },
            ScheduledOp::TwoQubitGate {
                a: q(2),
                b: q(3),
                zone: 1,
                ions_in_zone: 2,
            },
        ];
        let m = exec.execute(&ops);
        assert_eq!(
            m.execution_time_us, 40.0,
            "disjoint resources run in parallel"
        );
    }

    #[test]
    fn dependent_gates_serialise_on_shared_qubit() {
        let exec = ScheduleExecutor::paper_defaults();
        let ops = vec![
            ScheduledOp::TwoQubitGate {
                a: q(0),
                b: q(1),
                zone: 0,
                ions_in_zone: 2,
            },
            ScheduledOp::TwoQubitGate {
                a: q(1),
                b: q(2),
                zone: 1,
                ions_in_zone: 2,
            },
        ];
        let m = exec.execute(&ops);
        assert_eq!(m.execution_time_us, 80.0);
    }

    #[test]
    fn gates_serialise_on_shared_zone() {
        let exec = ScheduleExecutor::paper_defaults();
        let ops = vec![
            ScheduledOp::TwoQubitGate {
                a: q(0),
                b: q(1),
                zone: 7,
                ions_in_zone: 4,
            },
            ScheduledOp::TwoQubitGate {
                a: q(2),
                b: q(3),
                zone: 7,
                ions_in_zone: 4,
            },
        ];
        assert_eq!(exec.execute(&ops).execution_time_us, 80.0);
    }

    #[test]
    fn shuttle_heat_degrades_later_gates_in_that_zone() {
        let exec = ScheduleExecutor::paper_defaults();
        let gate_only = vec![ScheduledOp::TwoQubitGate {
            a: q(0),
            b: q(1),
            zone: 0,
            ions_in_zone: 2,
        }];
        let with_shuttle = vec![
            ScheduledOp::Shuttle {
                qubit: q(0),
                from_zone: 3,
                to_zone: 0,
                distance_um: 100.0,
            },
            ScheduledOp::TwoQubitGate {
                a: q(0),
                b: q(1),
                zone: 0,
                ions_in_zone: 2,
            },
        ];
        let clean = exec.execute(&gate_only);
        let heated = exec.execute(&with_shuttle);
        // Isolate the gate fidelity by dividing out the shuttle's own fidelity.
        let shuttle_only = exec.execute(&with_shuttle[..1]);
        let heated_gate_ln = heated.log_fidelity.ln() - shuttle_only.log_fidelity.ln();
        assert!(
            heated_gate_ln < clean.log_fidelity.ln(),
            "gate executed in a heated zone must have lower fidelity"
        );
    }

    #[test]
    fn heat_does_not_leak_between_zones() {
        let exec = ScheduleExecutor::paper_defaults();
        let ops = vec![
            ScheduledOp::Shuttle {
                qubit: q(5),
                from_zone: 1,
                to_zone: 2,
                distance_um: 100.0,
            },
            ScheduledOp::TwoQubitGate {
                a: q(0),
                b: q(1),
                zone: 0,
                ions_in_zone: 2,
            },
        ];
        let m = exec.execute(&ops);
        let clean_gate = exec.execute(&[ScheduledOp::TwoQubitGate {
            a: q(0),
            b: q(1),
            zone: 0,
            ions_in_zone: 2,
        }]);
        let shuttle_only = exec.execute(&ops[..1]);
        let gate_ln = m.log_fidelity.ln() - shuttle_only.log_fidelity.ln();
        assert!((gate_ln - clean_gate.log_fidelity.ln()).abs() < 1e-12);
    }

    #[test]
    fn perfect_shuttle_removes_heat_penalty() {
        let ideal = ScheduleExecutor::new(TimingModel::default(), FidelityModel::perfect_shuttle());
        let ops = vec![
            ScheduledOp::Shuttle {
                qubit: q(0),
                from_zone: 3,
                to_zone: 0,
                distance_um: 100.0,
            },
            ScheduledOp::TwoQubitGate {
                a: q(0),
                b: q(1),
                zone: 0,
                ions_in_zone: 2,
            },
        ];
        let m = ideal.execute(&ops);
        let real = ScheduleExecutor::paper_defaults().execute(&ops);
        assert!(m.log_fidelity.ln() > real.log_fidelity.ln());
    }

    #[test]
    fn fidelity_matches_hand_computation_for_single_gate() {
        let exec = ScheduleExecutor::paper_defaults();
        let ops = vec![ScheduledOp::TwoQubitGate {
            a: q(0),
            b: q(1),
            zone: 0,
            ions_in_zone: 4,
        }];
        let expected = LogFidelity::from_fidelity(1.0 - 16.0 / 25_600.0);
        let m = exec.execute(&ops);
        assert!((m.log_fidelity.ln() - expected.ln()).abs() < 1e-12);
    }

    #[test]
    fn execute_sized_matches_execute_even_when_undersized() {
        let exec = ScheduleExecutor::paper_defaults();
        let ops = vec![
            ScheduledOp::Shuttle {
                qubit: q(9),
                from_zone: 3,
                to_zone: 0,
                distance_um: 100.0,
            },
            ScheduledOp::TwoQubitGate {
                a: q(9),
                b: q(1),
                zone: 0,
                ions_in_zone: 2,
            },
            ScheduledOp::FiberGate {
                a: q(1),
                b: q(4),
                zone_a: 0,
                zone_b: 7,
            },
        ];
        let auto = exec.execute(&ops);
        let sized = exec.execute_sized(&ops, 10, 8);
        let undersized = exec.execute_sized(&ops, 0, 0);
        for m in [&sized, &undersized] {
            assert_eq!(m.execution_time_us, auto.execution_time_us);
            assert_eq!(m.log_fidelity.ln(), auto.log_fidelity.ln());
            assert_eq!(m.shuttle_count, auto.shuttle_count);
        }
    }

    #[test]
    fn counts_every_operation_kind() {
        let exec = ScheduleExecutor::paper_defaults();
        let ops = vec![
            ScheduledOp::SingleQubitGate {
                qubit: q(0),
                zone: 0,
            },
            ScheduledOp::TwoQubitGate {
                a: q(0),
                b: q(1),
                zone: 0,
                ions_in_zone: 2,
            },
            ScheduledOp::SwapGate {
                a: q(0),
                b: q(1),
                zone: 0,
                ions_in_zone: 2,
            },
            ScheduledOp::FiberGate {
                a: q(0),
                b: q(2),
                zone_a: 0,
                zone_b: 4,
            },
            ScheduledOp::Shuttle {
                qubit: q(1),
                from_zone: 0,
                to_zone: 1,
                distance_um: 100.0,
            },
            ScheduledOp::ChainRearrange { zone: 1 },
            ScheduledOp::Measurement {
                qubit: q(0),
                zone: 0,
            },
        ];
        let m = exec.execute(&ops);
        assert_eq!(m.single_qubit_gates, 1);
        assert_eq!(m.two_qubit_gates, 1);
        assert_eq!(m.swap_gates, 1);
        assert_eq!(m.fiber_gates, 1);
        assert_eq!(m.shuttle_count, 1);
        assert_eq!(m.chain_rearrangements, 1);
        assert_eq!(m.measurements, 1);
    }
}
