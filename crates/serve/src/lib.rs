//! # spp-serve — a crash-recoverable, admission-controlled simulation service
//!
//! The scenario engine runs a fleet and exits; this crate keeps the
//! simulator **up**, turning one-shot fleet runs into a long-running
//! job service with the reliability properties a service needs:
//!
//! * **Durability** ([`journal`]): every job transition is appended
//!   to a write-ahead journal (fsync per record) *before* the server
//!   acts on it, with periodic atomic `state.json` snapshots. A
//!   `kill -9` at any instant loses nothing: restart replays the
//!   journal, re-enqueues interrupted jobs, and checkpointable cells
//!   resume from their latest SPPSNAP1 snapshot — bit-identically.
//! * **Backpressure** ([`queue`]): a bounded three-lane admission
//!   queue (high/normal/low) with per-lane and total caps. Overload
//!   is answered with a **typed rejection** (`queue-full`,
//!   `overloaded`, `draining`), never a hang or a panic. Per-job
//!   deadlines shed work that waited too long.
//! * **Preemption** ([`server`]): a high-priority submission with all
//!   workers busy evicts the lowest-priority running checkpointable
//!   job at its next cancellation poll; the victim requeues at its
//!   lane front and later resumes from its checkpoint, with a final
//!   result byte-identical to an uninterrupted run.
//! * **Memoization** ([`cache`]): results are cached under
//!   (canonical scenario digest × code version). The canonical TOML
//!   names the simulation — not its formatting — and the simulator is
//!   deterministic, so duplicate submissions are answered from the
//!   cache without re-simulating, byte-for-byte.
//! * **Liveness**: each running job's [`spp_core::CancelToken`]
//!   progress clock distinguishes slow-but-progressing jobs from
//!   stalled ones (`stalled` in `status`/`health`).
//!
//! The wire protocol ([`client`]) is dependency-light std-net TCP:
//! one JSON line request, one JSON line reply, connection per
//! exchange. Commands: `submit`, `status`, `result`, `cancel`,
//! `health`, `drain`, `shutdown`. The `spp` binary (in `spp-bench`,
//! which owns the experiment registry) hands those verbs to
//! [`cli::serve_main`].

#![warn(missing_docs)]

pub mod cache;
pub mod cli;
pub mod client;
pub mod journal;
pub mod json;
pub mod queue;
pub mod server;

pub use cache::{code_version, ResultCache};
pub use cli::serve_main;
pub use client::{endpoint_of, request};
pub use journal::{Journal, Record, Replay};
pub use json::{parse, Json};
pub use queue::{AdmissionError, AdmissionQueue, Priority};
pub use server::{JobState, ServeConfig, Server};
