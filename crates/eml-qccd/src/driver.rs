//! The event-driven scheduling loop shared by every compiler: take the DAG
//! front layer, execute every executable gate, otherwise route the oldest
//! gate and execute it. A compiler supplies its executability rule, gate
//! emission and routing policy as a [`SchedulePass`]; [`ScheduleDriver`] is
//! generic over it, so each compiler's loop is monomorphised.
//!
//! A step evaluates only the gates whose verdict can have changed since the
//! previous step: those that became ready
//! ([`DependencyDag::mark_executed_into`]) and the ready gate of every qubit
//! that moved ([`DependencyDag::ready_on`]). That is exact because every gate
//! found executable is executed before the next step and a verdict reads
//! only the operands' locations. Debug builds check every step against a
//! full front scan.

// lint: hot-path

use ion_circuit::{DagNodeId, DependencyDag, QubitId};

use crate::CompileError;

/// One scheduling pass as [`ScheduleDriver::run`] drives it. Executability
/// may read only the operands' locations (and state fixed for the pass),
/// and [`drain_moved`](SchedulePass::drain_moved) must report every
/// location change.
pub trait SchedulePass {
    /// The DAG the pass retires gates from.
    fn dag(&self) -> &DependencyDag;

    /// Hands each qubit that moved since the previous call to `f`, with the
    /// DAG, and empties the moved-qubit log.
    fn drain_moved(&mut self, f: impl FnMut(&DependencyDag, QubitId));

    /// Whether the ready gate `node` can execute where its operands sit.
    fn is_executable(&self, node: DagNodeId) -> bool;

    /// Emits the executable gate `node` and retires it into `newly_ready`
    /// with [`DependencyDag::mark_executed_into`].
    ///
    /// # Errors
    ///
    /// Whatever the compiler's emission reports.
    fn execute_gate(
        &mut self,
        node: DagNodeId,
        newly_ready: &mut Vec<DagNodeId>,
    ) -> Result<(), CompileError>;

    /// Moves the operands of the ready gate `node` until it is executable.
    ///
    /// # Errors
    ///
    /// Whatever the compiler's routing reports.
    fn route_for_gate(&mut self, node: DagNodeId) -> Result<(), CompileError>;
}

/// The scheduling loop and its pooled buffers, recycled across passes so the
/// loop allocates nothing in steady state.
#[derive(Debug, Clone, Default)]
pub struct ScheduleDriver {
    /// The executable front gates of one step, in program order (executing
    /// them mutates the DAG, so the list is fixed first).
    executable: Vec<DagNodeId>,
    /// Gates that became ready, plus the ready gate of every moved qubit.
    candidates: Vec<DagNodeId>,
}

impl ScheduleDriver {
    /// Schedules every gate of `pass`'s DAG and returns the number of
    /// executability verdicts evaluated. The pass's placement must have
    /// logged every placed qubit as moved, so the first step sees the whole
    /// front.
    ///
    /// # Errors
    ///
    /// The first error of the pass's emission or routing.
    pub fn run<P: SchedulePass>(&mut self, pass: &mut P) -> Result<u64, CompileError> {
        self.candidates.clear();
        let mut exec_checks = 0;
        while !pass.dag().all_executed() {
            exec_checks += self.collect_executable(pass);
            if !self.executable.is_empty() {
                for &node in &self.executable {
                    pass.execute_gate(node, &mut self.candidates)?;
                }
                continue;
            }
            let node = pass
                .dag()
                .front_gate()
                .expect("a non-empty DAG always has a ready gate");
            pass.route_for_gate(node)?;
            debug_assert!(
                pass.is_executable(node),
                "routing must make the gate executable"
            );
            pass.execute_gate(node, &mut self.candidates)?;
        }
        Ok(exec_checks)
    }

    /// Fills `executable` from the candidates, sorted back into program
    /// order (node ids are program order), and returns how many verdicts
    /// that took.
    fn collect_executable<P: SchedulePass>(&mut self, pass: &mut P) -> u64 {
        let candidates = &mut self.candidates;
        pass.drain_moved(|dag, qubit| {
            if let Some(node) = dag.ready_on(qubit) {
                candidates.push(node);
            }
        });
        candidates.sort_unstable();
        candidates.dedup();
        self.executable.clear();
        self.executable.extend(
            candidates
                .iter()
                .copied()
                .filter(|&node| pass.is_executable(node)),
        );
        let checks = candidates.len() as u64;
        candidates.clear();
        debug_assert!(
            pass.dag()
                .is_filtered_front(&self.executable, |node| pass.is_executable(node)),
            "candidate-derived executable set diverged from a full front scan"
        );
        checks
    }
}
