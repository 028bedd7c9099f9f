//! Property: scenario specs survive parse → serialize → parse.
//!
//! For every valid [`ScenarioSpec`] the canonical serializer and the
//! parser are exact inverses: `from_toml_str(to_toml_string(s)) == s`,
//! and the canonical form is a fixpoint (serializing the reparsed
//! spec yields byte-identical TOML). Specs are generated across every
//! kind, app, placement, schedule, fault-event variant, golden field
//! subset, and float-valued knob.

use proptest::prelude::*;
use proptest::TestRng;
use spp_core::FaultEvent;
use spp_scenario::{
    BuiltinOp, Expectation, PlacementPolicy, ScenarioKind, ScenarioSpec, SchedulePolicySpec,
    WorkloadApp,
};

/// Draw a valid spec from the rng — every field randomized within the
/// rules `validate()` enforces.
fn arbitrary_spec(rng: &mut TestRng) -> ScenarioSpec {
    let name: String = (0..1 + rng.below(12))
        .map(|_| {
            let charset = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-";
            charset[rng.below(charset.len() as u64) as usize] as char
        })
        .collect();

    let mut spec = match rng.below(3) {
        0 => {
            let op = match rng.below(3) {
                0 => BuiltinOp::Noop,
                1 => BuiltinOp::Hang,
                _ => BuiltinOp::Panic {
                    message: format!("boom {}", rng.below(1000)),
                },
            };
            ScenarioSpec::builtin(&name, op)
        }
        1 => {
            let ids = ["latency", "fig2", "table1", "race", "chaos"];
            let mut s = ScenarioSpec::experiment(&name, ids[rng.below(5) as usize]);
            if let ScenarioKind::Experiment(ref mut e) = s.kind {
                e.opts.full = rng.below(2) == 1;
                e.opts.steps = 1 + rng.below(10) as usize;
            }
            s
        }
        _ => {
            let app = match rng.below(6) {
                0 => WorkloadApp::Pic {
                    mesh: (
                        1 + rng.below(16) as usize,
                        1 + rng.below(16) as usize,
                        1 + rng.below(8) as usize,
                    ),
                },
                1 => WorkloadApp::Nbody {
                    bodies: 1 + rng.below(512) as usize,
                },
                2 => WorkloadApp::Fem {
                    nx: 1 + rng.below(32) as usize,
                    ny: 1 + rng.below(32) as usize,
                },
                3 => WorkloadApp::Ppm,
                4 => WorkloadApp::PicPvm {
                    mesh: (
                        1 + rng.below(16) as usize,
                        1 + rng.below(16) as usize,
                        1 + rng.below(8) as usize,
                    ),
                },
                _ => WorkloadApp::KernelStream {
                    elems: 1 + rng.below(8192) as usize,
                },
            };
            let is_kernel = matches!(app, WorkloadApp::KernelStream { .. });
            let mut s = ScenarioSpec::workload(&name, app);
            if let ScenarioKind::Workload(ref mut w) = s.kind {
                w.steps = 1 + rng.below(8) as usize;
                w.hypernodes = 1 + rng.below(128) as usize;
                w.threads = 1 + rng.below(32) as usize;
                w.protocol = match rng.below(3) {
                    0 => spp_core::ProtocolKind::DashSci,
                    1 => spp_core::ProtocolKind::Mesi,
                    _ => spp_core::ProtocolKind::Dragon,
                };
                w.placement = if rng.below(2) == 0 {
                    PlacementPolicy::Uniform
                } else {
                    PlacementPolicy::HighLocality
                };
                w.schedule = match rng.below(3) {
                    0 => SchedulePolicySpec::Identity,
                    1 => SchedulePolicySpec::Reversed,
                    _ => SchedulePolicySpec::Shuffled {
                        seed: rng.next_u64(),
                    },
                };
                w.fault_seed = rng.next_u64();
                for _ in 0..rng.below(4) {
                    w.faults.push(match rng.below(6) {
                        0 => FaultEvent::RingStalls {
                            prob: rng.unit_f64(),
                            stall: rng.below(10_000),
                        },
                        1 => FaultEvent::MsgFaults {
                            drop: rng.unit_f64(),
                            dup: rng.unit_f64(),
                        },
                        2 => FaultEvent::SpawnFail {
                            prob: rng.unit_f64(),
                        },
                        3 => FaultEvent::CpuFail {
                            cpu: rng.below(128) as u16,
                            at_cycle: rng.next_u64() >> 20,
                        },
                        4 => FaultEvent::LinkFail {
                            ring: rng.below(5) as u8,
                            at_cycle: rng.next_u64() >> 20,
                            reroute_cycles: rng.below(5_000),
                        },
                        _ => FaultEvent::GcbDegrade {
                            node: rng.below(16) as u8,
                            at_cycle: rng.next_u64() >> 20,
                        },
                    });
                }
                w.trace = rng.below(2) == 1;
                if w.trace {
                    // Capacity is only serialized (and only meaningful)
                    // when tracing is enabled.
                    w.trace_capacity = 1 << (8 + rng.below(12)) as usize;
                }
                if is_kernel && rng.below(2) == 1 {
                    w.checkpoint_every = 1 + rng.below(4) as usize;
                }
            }
            // Golden gates only attach to workload cells.
            let mut set = |slot: &mut Option<u64>| {
                if rng.below(2) == 1 {
                    *slot = Some(rng.next_u64() >> 16);
                }
            };
            set(&mut s.golden.cycles);
            set(&mut s.golden.reads);
            set(&mut s.golden.writes);
            set(&mut s.golden.hits);
            set(&mut s.golden.sci_fetches);
            set(&mut s.golden.ring_stalls);
            set(&mut s.golden.uncached_ops);
            s
        }
    };

    // Whole and fractional timeouts both hit the float writer.
    spec.timeout_secs = match rng.below(3) {
        0 => (1 + rng.below(600)) as f64,
        1 => (1 + rng.below(600)) as f64 + 0.5,
        _ => (1 + rng.below(600_000)) as f64 / 1000.0,
    };
    spec.retries = rng.below(5) as u32;
    spec.backoff_ms = rng.below(5_000);
    spec.expect = match rng.below(4) {
        0 => Expectation::Pass,
        1 => Expectation::Fail,
        2 => Expectation::Timeout,
        _ if matches!(spec.kind, ScenarioKind::Workload(_)) => Expectation::GoldenMismatch,
        _ => Expectation::Pass,
    };
    spec
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn parse_serialize_parse_is_identity(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::new(seed);
        let spec = arbitrary_spec(&mut rng);
        spec.validate().expect("generated spec must be valid");

        let toml = spec.to_toml_string();
        let reparsed = ScenarioSpec::from_toml_str(&toml)
            .unwrap_or_else(|e| panic!("canonical TOML failed to reparse: {e}\n{toml}"));
        prop_assert_eq!(&reparsed, &spec);

        // Canonical form is a fixpoint.
        let again = reparsed.to_toml_string();
        prop_assert_eq!(again, toml);
    }
}
