//! The MUSS-TI compile-context arena: every reusable per-compile allocation
//! in one place.

use eml_qccd::{EmlQccdDevice, ExecutorScratch};

use crate::scheduler::SchedulerScratch;

/// MUSS-TI's compile context (its `Compiler::Context`): the scheduler's placement
/// state, op buffer, front-layer buffers and Section 3.3 partner-module
/// buffer, plus the executor's clock/heat arrays — allocated once and
/// recycled by every scheduling pass (including the SABRE
/// forward/backward/probe dry passes, which run in this arena back to back
/// instead of three cold starts).
///
/// No pooled buffer carries meaning from one pass to the next: SWAP
/// insertion answers its weights on demand from the pass's DAG and
/// placement, so a recycled arena cannot replay a previous circuit's state.
///
/// Reuse is behaviour-neutral: compiling in a warm context yields op streams
/// bit-identical to a cold compile (pinned by `tests/op_fingerprints.rs` and
/// the context-reuse proptest suite `tests/session_reuse.rs`).
#[derive(Debug)]
pub struct MussTiContext {
    pub(crate) sched: SchedulerScratch,
    pub(crate) exec: ExecutorScratch,
}

impl MussTiContext {
    /// Allocates a context sized for `device`.
    pub fn new(device: &EmlQccdDevice) -> Self {
        MussTiContext {
            sched: SchedulerScratch::new(device),
            exec: ExecutorScratch::new(),
        }
    }
}
