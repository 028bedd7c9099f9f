//! Typed errors for constructor and API boundaries across the
//! simulator stack.
//!
//! The simulator distinguishes two failure families:
//!
//! * [`ConfigError`] — a [`crate::MachineConfig`] that describes a
//!   machine the SPP-1000 could not be (bad hypernode count, non-
//!   power-of-two geometry). Returned by
//!   [`crate::MachineConfig::validate`] and [`crate::Machine::try_new`].
//! * [`SimError`] — a bad request made *to* a valid machine: an
//!   unmapped address, an impossible team placement, a malformed PVM
//!   task set, or a fault-injection retry budget exhausted at runtime.
//!
//! Every layer keeps its historical panicking entry points (`alloc`,
//! `Team::place`, `Pvm::send`, ...) as thin wrappers that format the
//! typed error into the panic message, so existing callers and
//! `#[should_panic]` expectations are unchanged; the `try_*` variants
//! return these errors for callers that want to degrade gracefully.
//! Internal protocol invariants stay `debug_assert!`s — they indicate
//! simulator bugs, not user errors.

use std::fmt;

/// A [`crate::MachineConfig`] that cannot describe an SPP-1000.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// Hypernode count outside the simulator's
    /// 1..=[`crate::config::MAX_HYPERNODES`] range.
    Hypernodes {
        /// The rejected count.
        got: usize,
    },
    /// A geometry field that must be a power of two is not.
    NotPowerOfTwo {
        /// Which field.
        field: &'static str,
        /// The rejected value.
        got: usize,
    },
    /// A field that must be nonzero is zero.
    Zero {
        /// Which field.
        field: &'static str,
    },
    /// The cache line does not fit in a virtual-memory page.
    LineExceedsPage {
        /// Configured line size in bytes.
        line: usize,
        /// Configured page size in bytes.
        page: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Hypernodes { got } => {
                write!(
                    f,
                    "the simulator supports 1..=128 hypernodes (SPP-1000 hardware: 16), got {got}"
                )
            }
            ConfigError::NotPowerOfTwo { field, got } => {
                write!(f, "{field} must be a power of two, got {got}")
            }
            ConfigError::Zero { field } => write!(f, "{field} must be nonzero"),
            ConfigError::LineExceedsPage { line, page } => {
                write!(f, "line size {line} B exceeds the {page} B page")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// A bad request made to a valid simulated machine, runtime, or PVM
/// session — or a fault-injection retry budget exhausted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The machine configuration itself was invalid.
    Config(ConfigError),
    /// An allocation of zero bytes.
    ZeroLengthAlloc,
    /// A block-shared allocation whose block is not a whole number of
    /// pages.
    BadBlockSize {
        /// Page size in bytes.
        page: u64,
        /// The rejected block size.
        got: usize,
    },
    /// An address outside every simulated region.
    UnmappedAddress {
        /// The offending address.
        addr: u64,
    },
    /// A team of zero threads.
    EmptyTeam,
    /// More threads than the machine has CPUs.
    TeamTooLarge {
        /// Requested thread count.
        threads: usize,
        /// CPUs available.
        cpus: usize,
    },
    /// Uniform placement ran out of CPU slots on a hypernode.
    PlacementOverflow {
        /// Requested thread count.
        threads: usize,
        /// The node that overflowed.
        node: usize,
    },
    /// An explicit placement list of the wrong length.
    PlacementLengthMismatch {
        /// Team size requested.
        threads: usize,
        /// Length of the CPU list supplied.
        cpus: usize,
    },
    /// A placement named a CPU the machine does not have.
    CpuOutOfRange {
        /// The offending CPU id.
        cpu: u16,
        /// CPUs available.
        cpus: usize,
    },
    /// A placement named the same CPU twice.
    CpuReused {
        /// The repeated CPU id.
        cpu: u16,
    },
    /// A PVM session with no tasks.
    NoTasks,
    /// A PVM task index outside the session.
    TaskOutOfRange {
        /// The offending task index.
        task: usize,
        /// Tasks in the session.
        tasks: usize,
    },
    /// A PVM task sending a message to itself.
    SelfSend {
        /// The offending task.
        task: usize,
    },
    /// A butterfly collective over a non-power-of-two task count.
    NotPowerOfTwoTasks {
        /// Tasks in the session.
        tasks: usize,
    },
    /// A message send exhausted its retry budget under fault injection.
    MessageTimeout {
        /// Sending task.
        from: usize,
        /// Receiving task.
        to: usize,
        /// Message tag.
        tag: u32,
        /// Send attempts made (including the first).
        attempts: u32,
    },
    /// A thread spawn exhausted its retry budget under fault injection.
    SpawnFailed {
        /// The CPU the spawn targeted.
        cpu: u16,
        /// Spawn attempts made (including the first).
        attempts: u32,
    },
    /// A checkpoint byte stream that is malformed or truncated.
    SnapshotCorrupt {
        /// What was wrong with the stream.
        detail: String,
    },
    /// A checkpoint restored against a machine configuration or fault
    /// plan that does not match the one it was captured under.
    SnapshotMismatch {
        /// What disagreed.
        detail: String,
    },
    /// A barrier simulated with no participants at all.
    EmptyBarrier,
    /// A barrier simulated with a participant count different from
    /// the team size it was built for.
    BarrierParticipants {
        /// The team size the barrier expects.
        expected: usize,
        /// Participants actually supplied.
        got: usize,
    },
    /// A thread entered a critical section it already holds (gates do
    /// not nest on themselves; on real hardware this deadlocks).
    GateReentered {
        /// Gate semaphore address (identity of the critical section).
        gate: u64,
        /// The re-entering thread.
        tid: usize,
    },
    /// A transient coherence fault persisted through the machine's
    /// entire scrub-and-retry budget. The access never returns wrong
    /// data — the caller escalates (checkpoint rollback-and-replay,
    /// or abort).
    RecoveryExhausted {
        /// The CPU whose access hit the unrecoverable transient.
        cpu: u16,
        /// The corrupted cache line index.
        line: u64,
        /// Scrub attempts spent before giving up.
        attempts: u32,
    },
    /// A fault plan scheduling more hard faults than the machine can
    /// track (one bit each in a 64-bit fired mask).
    TooManyHardFaults {
        /// Hard faults the plan would hold.
        got: usize,
        /// The limit, [`crate::FaultPlan::MAX_HARD_FAULTS`].
        max: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Config(e) => e.fmt(f),
            SimError::ZeroLengthAlloc => write!(f, "zero-length allocation"),
            SimError::BadBlockSize { page, got } => write!(
                f,
                "block size must be a positive multiple of the {page} B page, got {got}"
            ),
            SimError::UnmappedAddress { addr } => {
                write!(f, "address {addr:#x} not in any simulated region")
            }
            SimError::EmptyTeam => write!(f, "a team needs at least one thread"),
            SimError::TeamTooLarge { threads, cpus } => {
                write!(f, "team of {threads} exceeds {cpus} CPUs")
            }
            SimError::PlacementOverflow { threads, node } => write!(
                f,
                "uniform placement of {threads} threads overflows node {node}"
            ),
            SimError::PlacementLengthMismatch { threads, cpus } => write!(
                f,
                "explicit placement length mismatch: {cpus} CPUs for a team of {threads}"
            ),
            SimError::CpuOutOfRange { cpu, cpus } => {
                write!(f, "cpu {cpu} out of range (machine has {cpus} CPUs)")
            }
            SimError::CpuReused { cpu } => write!(f, "cpu {cpu} used twice"),
            SimError::NoTasks => write!(f, "PVM needs at least one task"),
            SimError::TaskOutOfRange { task, tasks } => {
                write!(f, "task {task} out of range (session has {tasks} tasks)")
            }
            SimError::SelfSend { task } => write!(f, "task {task} sending to itself"),
            SimError::NotPowerOfTwoTasks { tasks } => {
                write!(f, "butterfly needs a power-of-two task count, got {tasks}")
            }
            SimError::MessageTimeout {
                from,
                to,
                tag,
                attempts,
            } => write!(
                f,
                "message from task {from} to task {to} (tag {tag}) timed out after {attempts} attempts"
            ),
            SimError::SpawnFailed { cpu, attempts } => {
                write!(f, "thread spawn on cpu {cpu} failed after {attempts} attempts")
            }
            SimError::SnapshotCorrupt { detail } => write!(f, "snapshot corrupt: {detail}"),
            SimError::SnapshotMismatch { detail } => write!(f, "snapshot mismatch: {detail}"),
            SimError::EmptyBarrier => write!(f, "barrier with no participants"),
            SimError::BarrierParticipants { expected, got } => write!(
                f,
                "barrier expects {expected} participants (the team size), got {got}"
            ),
            SimError::GateReentered { gate, tid } => {
                write!(f, "gate {gate:#x} re-entered by thread {tid} (self-deadlock)")
            }
            SimError::RecoveryExhausted {
                cpu,
                line,
                attempts,
            } => write!(
                f,
                "transient coherence fault on line {line:#x} (cpu {cpu}) persisted \
                 through {attempts} scrub attempts; escalate to checkpoint rollback"
            ),
            SimError::TooManyHardFaults { got, max } => {
                write!(f, "a fault plan holds at most {max} hard faults, got {got}")
            }
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Config(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> Self {
        SimError::Config(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_preserves_historical_panic_substrings() {
        // The `try_*` wrappers panic with these Displays; the repo's
        // `#[should_panic(expected = ...)]` tests match substrings of
        // the original assert messages, which must therefore survive.
        assert!(ConfigError::Hypernodes { got: 129 }
            .to_string()
            .contains("1..=128"));
        assert!(SimError::EmptyTeam
            .to_string()
            .contains("a team needs at least one thread"));
        assert!(SimError::TeamTooLarge {
            threads: 17,
            cpus: 16
        }
        .to_string()
        .contains("exceeds"));
        assert!(SimError::CpuReused { cpu: 3 }
            .to_string()
            .contains("used twice"));
        assert!(SimError::SelfSend { task: 0 }
            .to_string()
            .contains("sending to itself"));
        assert!(SimError::NotPowerOfTwoTasks { tasks: 3 }
            .to_string()
            .contains("power-of-two"));
        assert!(SimError::ZeroLengthAlloc
            .to_string()
            .contains("zero-length allocation"));
        assert!(SimError::BadBlockSize {
            page: 4096,
            got: 100
        }
        .to_string()
        .contains("multiple of"));
        assert!(SimError::UnmappedAddress { addr: 0x10 }
            .to_string()
            .contains("not in any simulated region"));
        assert!(SimError::NoTasks
            .to_string()
            .contains("PVM needs at least one task"));
        // The barrier's historical `assert!` message, verbatim.
        assert_eq!(
            SimError::EmptyBarrier.to_string(),
            "barrier with no participants"
        );
        assert!(SimError::BarrierParticipants {
            expected: 8,
            got: 3
        }
        .to_string()
        .contains("expects 8 participants"));
        assert!(SimError::GateReentered { gate: 0x40, tid: 2 }
            .to_string()
            .contains("re-entered"));
        let s = SimError::RecoveryExhausted {
            cpu: 3,
            line: 0x40,
            attempts: 8,
        }
        .to_string();
        assert!(
            s.contains("persisted") && s.contains("8 scrub attempts"),
            "{s}"
        );
    }

    #[test]
    fn config_error_converts_into_sim_error() {
        let e: SimError = ConfigError::Zero {
            field: "line_bytes",
        }
        .into();
        assert_eq!(
            e,
            SimError::Config(ConfigError::Zero {
                field: "line_bytes"
            })
        );
        use std::error::Error;
        assert!(e.source().is_some());
    }
}
