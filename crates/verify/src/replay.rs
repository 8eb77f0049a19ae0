//! The replay engine: an abstract device machine stepped op by op.

// lint: no-panic

use eml_qccd::{CompileError, CompiledProgram, ResourceId, ScheduledOp};
use ion_circuit::{Circuit, DagNodeId, DependencyDag, QubitId};

use crate::model::DeviceModel;
use crate::violation::{MachineSnapshot, VerifyReport, Violation, ViolationKind};

/// Tolerance for comparing an op's claimed shuttle distance against the
/// topology's (distances are exact table reads on both sides, so this only
/// absorbs formatting round-trips).
const DISTANCE_EPS_UM: f64 = 1e-6;

/// The analyzer: a [`DeviceModel`] plus the replay machinery.
///
/// One verifier is reusable across any number of programs and circuits
/// compiled for the same device; `verify` takes `&self` and is `Sync`-safe.
#[derive(Debug, Clone)]
pub struct ScheduleVerifier {
    model: DeviceModel,
}

impl ScheduleVerifier {
    /// Builds a verifier for one device model.
    pub fn new(model: DeviceModel) -> Self {
        ScheduleVerifier { model }
    }

    /// The device model the verifier replays against.
    pub fn model(&self) -> &DeviceModel {
        &self.model
    }

    /// Verifies `program` against its source `circuit`: replays the op
    /// stream through the abstract machine (physical validity) and through
    /// the circuit's dependency DAG (logical coverage).
    ///
    /// When the program carries an
    /// [`initial_placement`](CompiledProgram::initial_placement) the machine
    /// runs in **strict** mode — exact occupancy, `ions_in_zone` and
    /// capacity checks. Without one it falls back to **inference** mode:
    /// each qubit's start zone is taken from its first mention and the
    /// occupancy-dependent checks are skipped.
    pub fn verify(&self, circuit: &Circuit, program: &CompiledProgram) -> VerifyReport {
        self.verify_ops(circuit, program.initial_placement(), program.ops())
    }

    /// [`ScheduleVerifier::verify`] over a raw op stream with an explicit
    /// (optional) initial placement — the entry point for mutation tests
    /// that corrupt streams by hand.
    pub fn verify_ops(
        &self,
        circuit: &Circuit,
        placement: Option<&[(QubitId, ResourceId)]>,
        ops: &[ScheduledOp],
    ) -> VerifyReport {
        let mut dag = DependencyDag::from_circuit(circuit);
        let mut newly_ready: Vec<DagNodeId> = Vec::new();
        let mut machine = Machine::new(&self.model, circuit.num_qubits(), placement);

        let mut i = 0;
        while i < ops.len() {
            i += machine.step(&mut dag, &mut newly_ready, ops, i);
        }

        if !dag.all_executed() {
            machine.report(
                None,
                ViolationKind::MissingGates {
                    remaining: dag.remaining(),
                },
                &[],
                &[],
            );
        }
        machine.check_counts(circuit);

        VerifyReport {
            violations: machine.violations,
            ops_checked: ops.len(),
        }
    }

    /// Adapts the verifier into a pipeline
    /// [`ScheduleCheck`](eml_qccd::ScheduleCheck): a closure that verifies
    /// each compiled program and vetoes dirty ones with
    /// [`CompileError::VerificationFailed`]. Borrow the returned closure
    /// (`&check`) to pass it to the `*_checked` pipeline entry points.
    pub fn as_check(
        &self,
    ) -> impl Fn(&Circuit, &CompiledProgram) -> Result<(), CompileError> + Sync + '_ {
        move |circuit, program| {
            let report = self.verify(circuit, program);
            if report.is_clean() {
                Ok(())
            } else {
                Err(CompileError::VerificationFailed(report.summary()))
            }
        }
    }
}

/// Which op variant is claiming to cover a source gate.
#[derive(Clone, Copy, PartialEq, Eq)]
enum CoverKind {
    /// `TwoQubitGate` — must cover a non-SWAP source gate.
    Plain,
    /// `SwapGate` — must cover a source `Gate::Swap`.
    Swap,
    /// `FiberGate` — may cover either (a remote gate or a remote SWAP).
    Fiber,
}

/// The abstract device machine: per-qubit zone tracking, optional per-zone /
/// per-module occupancy (strict mode), measurement flags and single-qubit /
/// measurement counters.
struct Machine<'a> {
    model: &'a DeviceModel,
    qubit_zone: Vec<Option<ResourceId>>,
    /// Per-zone occupancy; `None` in inference mode.
    occupancy: Option<Vec<usize>>,
    /// Per-module occupancy; `None` in inference mode.
    module_occ: Option<Vec<usize>>,
    measured: Vec<bool>,
    singles: Vec<usize>,
    measures: Vec<usize>,
    violations: Vec<Violation>,
}

impl<'a> Machine<'a> {
    fn new(
        model: &'a DeviceModel,
        num_qubits: usize,
        placement: Option<&[(QubitId, ResourceId)]>,
    ) -> Self {
        let mut machine = Machine {
            model,
            qubit_zone: vec![None; num_qubits],
            occupancy: None,
            module_occ: None,
            measured: vec![false; num_qubits],
            singles: vec![0; num_qubits],
            measures: vec![0; num_qubits],
            violations: Vec::new(),
        };
        if let Some(placement) = placement {
            machine.occupancy = Some(vec![0; model.num_zones()]);
            machine.module_occ = Some(vec![0; model.num_modules()]);
            for &(q, z) in placement {
                if q.index() >= num_qubits {
                    machine.report(None, ViolationKind::UnknownQubit { qubit: q }, &[], &[]);
                    continue;
                }
                if z >= model.num_zones() {
                    machine.report(None, ViolationKind::UnknownZone { zone: z }, &[], &[]);
                    continue;
                }
                machine.qubit_zone[q.index()] = Some(z);
                machine.add_ion(z);
            }
        }
        machine
    }

    // -- bookkeeping ------------------------------------------------------

    fn add_ion(&mut self, zone: ResourceId) {
        if let Some(occ) = &mut self.occupancy {
            occ[zone] += 1;
        }
        if let Some(module) = self.model.zone_module(zone) {
            if let Some(mocc) = &mut self.module_occ {
                mocc[module] += 1;
            }
        }
    }

    fn remove_ion(&mut self, zone: ResourceId) {
        if let Some(occ) = &mut self.occupancy {
            occ[zone] = occ[zone].saturating_sub(1);
        }
        if let Some(module) = self.model.zone_module(zone) {
            if let Some(mocc) = &mut self.module_occ {
                mocc[module] = mocc[module].saturating_sub(1);
            }
        }
    }

    fn snapshot(&self, qubits: &[QubitId], zones: &[ResourceId]) -> MachineSnapshot {
        MachineSnapshot {
            qubits: qubits
                .iter()
                .map(|&q| (q, self.qubit_zone.get(q.index()).copied().flatten()))
                .collect(),
            zones: zones
                .iter()
                .map(|&z| {
                    (
                        z,
                        self.occupancy.as_ref().and_then(|occ| occ.get(z).copied()),
                    )
                })
                .collect(),
        }
    }

    fn report(
        &mut self,
        op_index: Option<usize>,
        kind: ViolationKind,
        qubits: &[QubitId],
        zones: &[ResourceId],
    ) {
        let snapshot = self.snapshot(qubits, zones);
        self.violations.push(Violation {
            op_index,
            kind,
            snapshot,
        });
    }

    // -- shared checks ----------------------------------------------------

    /// Range-checks a zone id; out-of-range zones are reported once and the
    /// op is otherwise skipped (no tracking against a zone that does not
    /// exist).
    fn zone_ok(&mut self, i: usize, zone: ResourceId) -> bool {
        if zone >= self.model.num_zones() {
            self.report(Some(i), ViolationKind::UnknownZone { zone }, &[], &[]);
            false
        } else {
            true
        }
    }

    /// Range-checks a qubit id against the source circuit.
    fn qubit_ok(&mut self, i: usize, qubit: QubitId) -> bool {
        if qubit.index() >= self.qubit_zone.len() {
            self.report(Some(i), ViolationKind::UnknownQubit { qubit }, &[], &[]);
            false
        } else {
            true
        }
    }

    /// Checks that `qubit` is tracked in `claimed`; an unseen qubit
    /// (inference mode, or a placement hole) is seeded there instead.
    fn expect_at(&mut self, i: usize, qubit: QubitId, claimed: ResourceId) {
        match self.qubit_zone[qubit.index()] {
            None => {
                self.qubit_zone[qubit.index()] = Some(claimed);
                self.add_ion(claimed);
            }
            Some(tracked) if tracked == claimed => {}
            Some(tracked) => self.report(
                Some(i),
                ViolationKind::QubitZoneMismatch {
                    qubit,
                    stated: claimed,
                    tracked,
                },
                &[qubit],
                &[claimed, tracked],
            ),
        }
    }

    /// Flags gates executing on an already-measured qubit (shuttles and
    /// repeated measurements are not gates and pass).
    fn no_gate_after_measure(&mut self, i: usize, qubit: QubitId) {
        if self.measured[qubit.index()] {
            self.report(
                Some(i),
                ViolationKind::GateAfterMeasurement { qubit },
                &[qubit],
                &[],
            );
        }
    }

    /// Strict-mode `ions_in_zone` check against tracked occupancy.
    fn check_ions(&mut self, i: usize, zone: ResourceId, stated: usize) {
        let Some(occ) = &self.occupancy else {
            return;
        };
        let tracked = occ[zone];
        if stated != tracked {
            self.report(
                Some(i),
                ViolationKind::IonsInZoneMismatch {
                    zone,
                    stated,
                    tracked,
                },
                &[],
                &[zone],
            );
        }
    }

    /// Logical-coverage step: consume the ready source gate on `(a, b)`.
    /// Returns `false` if no ready gate exists on the pair (for `Fiber`
    /// callers that then try the inserted-swap interpretation).
    fn cover(
        &mut self,
        dag: &mut DependencyDag,
        newly_ready: &mut Vec<DagNodeId>,
        i: usize,
        a: QubitId,
        b: QubitId,
        kind: CoverKind,
    ) -> bool {
        let Some(node) = dag.ready_node_on(a, b) else {
            return false;
        };
        let (x, y) = dag.operands(node);
        if (x, y) != (a, b) {
            self.report(
                Some(i),
                ViolationKind::OperandOrderMismatch { a, b },
                &[a, b],
                &[],
            );
        }
        let src_is_swap = dag.gate(node).is_swap();
        let kind_ok = match kind {
            CoverKind::Plain => !src_is_swap,
            CoverKind::Swap => src_is_swap,
            CoverKind::Fiber => true,
        };
        if !kind_ok {
            self.report(Some(i), ViolationKind::WrongGateKind { a, b }, &[a, b], &[]);
        }
        dag.mark_executed_into(node, newly_ready);
        true
    }

    // -- the stepper ------------------------------------------------------

    /// Replays `ops[i]` (or an inserted-swap triple starting there) and
    /// returns how many ops were consumed.
    fn step(
        &mut self,
        dag: &mut DependencyDag,
        newly_ready: &mut Vec<DagNodeId>,
        ops: &[ScheduledOp],
        i: usize,
    ) -> usize {
        match &ops[i] {
            ScheduledOp::SingleQubitGate { qubit, zone } => {
                if !self.zone_ok(i, *zone) || !self.qubit_ok(i, *qubit) {
                    return 1;
                }
                self.expect_at(i, *qubit, *zone);
                self.no_gate_after_measure(i, *qubit);
                self.singles[qubit.index()] += 1;
                1
            }
            ScheduledOp::TwoQubitGate {
                a,
                b,
                zone,
                ions_in_zone,
            }
            | ScheduledOp::SwapGate {
                a,
                b,
                zone,
                ions_in_zone,
            } => {
                let kind = if matches!(&ops[i], ScheduledOp::SwapGate { .. }) {
                    CoverKind::Swap
                } else {
                    CoverKind::Plain
                };
                if !self.zone_ok(i, *zone) || !self.qubit_ok(i, *a) || !self.qubit_ok(i, *b) {
                    return 1;
                }
                self.expect_at(i, *a, *zone);
                self.expect_at(i, *b, *zone);
                if !self.model.supports_gates(*zone) {
                    self.report(
                        Some(i),
                        ViolationKind::ZoneCannotGate { zone: *zone },
                        &[*a, *b],
                        &[*zone],
                    );
                }
                self.check_ions(i, *zone, *ions_in_zone);
                self.no_gate_after_measure(i, *a);
                self.no_gate_after_measure(i, *b);
                if !self.cover(dag, newly_ready, i, *a, *b, kind) {
                    self.report(
                        Some(i),
                        ViolationKind::GateNotReady { a: *a, b: *b },
                        &[*a, *b],
                        &[*zone],
                    );
                }
                1
            }
            op @ ScheduledOp::FiberGate {
                a,
                b,
                zone_a,
                zone_b,
            } => {
                if !self.zone_ok(i, *zone_a)
                    || !self.zone_ok(i, *zone_b)
                    || !self.qubit_ok(i, *a)
                    || !self.qubit_ok(i, *b)
                {
                    return 1;
                }
                self.expect_at(i, *a, *zone_a);
                self.expect_at(i, *b, *zone_b);
                for zone in [*zone_a, *zone_b] {
                    if !self.model.supports_fiber(zone) {
                        self.report(
                            Some(i),
                            ViolationKind::FiberZoneNotOptical { zone },
                            &[*a, *b],
                            &[zone],
                        );
                    }
                }
                let (Some(module_a), Some(module_b)) = (
                    self.model.zone_module(*zone_a),
                    self.model.zone_module(*zone_b),
                ) else {
                    // zone_ok above already reported the range violation.
                    return 1;
                };
                if module_a == module_b {
                    self.report(
                        Some(i),
                        ViolationKind::FiberSameModule { module: module_a },
                        &[*a, *b],
                        &[*zone_a, *zone_b],
                    );
                } else if !self.model.fiber_linked(module_a, module_b) {
                    self.report(
                        Some(i),
                        ViolationKind::FiberNotLinked { module_a, module_b },
                        &[*a, *b],
                        &[*zone_a, *zone_b],
                    );
                }
                self.no_gate_after_measure(i, *a);
                self.no_gate_after_measure(i, *b);
                // A compiler-inserted cross-module swap is emitted as exactly
                // three consecutive identical fiber gates (three MS
                // interactions = one SWAP), and this pattern test guesses
                // which triples are swaps. The triple pattern must win over
                // gate coverage: an inserted swap often routes *for* a ready
                // source gate on the very same pair, and covering that gate
                // here would mis-execute the DAG and cascade. The guess has a
                // known false positive: identical consecutive source gates
                // retire one after another with no op in between, so three
                // of them form a triple of genuine fiber gates. SQRT_117's
                // gates 1529, 1532 and 1533 (all `cx q[75],q[114]`) come out
                // as ops #4548-4550; the replay then swaps the two qubits and
                // reports a cascade of violations. Open item 1 of ROADMAP.md
                // removes the guess by emitting inserted swaps as their own
                // op.
                if ops.get(i + 1) == Some(op) && ops.get(i + 2) == Some(op) {
                    let za = self.qubit_zone[a.index()];
                    self.qubit_zone[a.index()] = self.qubit_zone[b.index()];
                    self.qubit_zone[b.index()] = za;
                    // One ion moves each way: occupancies are unchanged.
                    return 3;
                }
                if self.cover(dag, newly_ready, i, *a, *b, CoverKind::Fiber) {
                    return 1;
                }
                self.report(
                    Some(i),
                    ViolationKind::MalformedInsertedSwap { a: *a, b: *b },
                    &[*a, *b],
                    &[*zone_a, *zone_b],
                );
                1
            }
            ScheduledOp::Shuttle {
                qubit,
                from_zone,
                to_zone,
                distance_um,
            } => {
                if !self.zone_ok(i, *from_zone)
                    || !self.zone_ok(i, *to_zone)
                    || !self.qubit_ok(i, *qubit)
                {
                    return 1;
                }
                let origin = match self.qubit_zone[qubit.index()] {
                    None => {
                        // First mention: seed at the claimed origin.
                        self.qubit_zone[qubit.index()] = Some(*from_zone);
                        self.add_ion(*from_zone);
                        *from_zone
                    }
                    Some(tracked) => {
                        if tracked != *from_zone {
                            self.report(
                                Some(i),
                                ViolationKind::ShuttleFromWrongZone {
                                    qubit: *qubit,
                                    stated: *from_zone,
                                    tracked,
                                },
                                &[*qubit],
                                &[*from_zone, tracked],
                            );
                        }
                        tracked
                    }
                };
                match self.model.shuttle_distance_um(*from_zone, *to_zone) {
                    None => self.report(
                        Some(i),
                        ViolationKind::ShuttleNotAllowed {
                            from: *from_zone,
                            to: *to_zone,
                        },
                        &[*qubit],
                        &[*from_zone, *to_zone],
                    ),
                    Some(expected_um) => {
                        if (distance_um - expected_um).abs() > DISTANCE_EPS_UM {
                            self.report(
                                Some(i),
                                ViolationKind::ShuttleDistanceMismatch {
                                    from: *from_zone,
                                    to: *to_zone,
                                    stated_um: *distance_um,
                                    expected_um,
                                },
                                &[*qubit],
                                &[*from_zone, *to_zone],
                            );
                        }
                    }
                }
                // Move the ion (from its *tracked* zone, so the machine
                // stays self-consistent even after a reported mismatch).
                self.remove_ion(origin);
                self.qubit_zone[qubit.index()] = Some(*to_zone);
                self.add_ion(*to_zone);
                // Capacity is enforced only once the ion comes to rest:
                // grid transport passes through intermediate traps with one
                // shuttle per hop, and a pass-through hop may transiently
                // enter a full trap.
                let still_moving = matches!(
                    ops.get(i + 1),
                    Some(ScheduledOp::Shuttle {
                        qubit: next_q,
                        from_zone: next_from,
                        ..
                    }) if next_q == qubit && next_from == to_zone
                );
                if !still_moving {
                    self.check_capacity_at_rest(i, *to_zone);
                }
                1
            }
            ScheduledOp::ChainRearrange { zone } => {
                self.zone_ok(i, *zone);
                1
            }
            ScheduledOp::Measurement { qubit, zone } => {
                if !self.zone_ok(i, *zone) || !self.qubit_ok(i, *qubit) {
                    return 1;
                }
                self.expect_at(i, *qubit, *zone);
                self.measures[qubit.index()] += 1;
                self.measured[qubit.index()] = true;
                1
            }
        }
    }

    /// Strict-mode zone/module capacity checks at a shuttle's rest point.
    fn check_capacity_at_rest(&mut self, i: usize, zone: ResourceId) {
        let Some(occ) = &self.occupancy else {
            return;
        };
        let occupancy = occ[zone];
        let capacity = self.model.zone_capacity(zone);
        if occupancy > capacity {
            self.report(
                Some(i),
                ViolationKind::ZoneOverCapacity {
                    zone,
                    occupancy,
                    capacity,
                },
                &[],
                &[zone],
            );
        }
        if let (Some(mocc), Some(module)) = (&self.module_occ, self.model.zone_module(zone)) {
            let occupancy = mocc[module];
            let capacity = self.model.module_capacity(module);
            if occupancy > capacity {
                self.report(
                    Some(i),
                    ViolationKind::ModuleOverCapacity {
                        module,
                        occupancy,
                        capacity,
                    },
                    &[],
                    &[zone],
                );
            }
        }
    }

    /// End-of-stream count checks: per qubit, the scheduled single-qubit op
    /// and measurement counts must match the source circuit's (barriers are
    /// scheduling pseudo-ops and are ignored).
    fn check_counts(&mut self, circuit: &Circuit) {
        let n = self.qubit_zone.len();
        let mut expected_singles = vec![0usize; n];
        let mut expected_measures = vec![0usize; n];
        for gate in circuit.gates() {
            if let Some(q) = gate.single_qubit_target() {
                if gate.is_measurement() {
                    expected_measures[q.index()] += 1;
                } else {
                    expected_singles[q.index()] += 1;
                }
            }
        }
        for q in 0..n {
            let qubit = QubitId::new(q);
            if self.singles[q] != expected_singles[q] {
                self.report(
                    None,
                    ViolationKind::SingleQubitCountMismatch {
                        qubit,
                        scheduled: self.singles[q],
                        expected: expected_singles[q],
                    },
                    &[qubit],
                    &[],
                );
            }
            if self.measures[q] != expected_measures[q] {
                self.report(
                    None,
                    ViolationKind::MeasurementCountMismatch {
                        qubit,
                        scheduled: self.measures[q],
                        expected: expected_measures[q],
                    },
                    &[qubit],
                    &[],
                );
            }
        }
    }
}
