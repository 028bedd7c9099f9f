//! A CXpa-style profiler.
//!
//! §6 of the paper: "an excellent tool, CXpa provided good average
//! behavior profiling that exposes at least coarse grained imbalances
//! in execution across the parallel resources. With these means of
//! observing system behaviour, code modifications were made rapidly
//! and to good effect." This module gives the simulated applications
//! the same view: named parallel regions accumulate elapsed time,
//! per-thread busy times, flops and load balance.

use crate::fork::RegionReport;
use spp_core::Cycles;

/// Accumulated statistics for one named region. With hierarchical
/// profiling (see [`Profile::enter`]) the name is a `/`-joined path,
/// e.g. `"pic/deposit"`.
#[derive(Debug, Clone, Default)]
pub struct RegionStat {
    /// Region name (possibly a `/`-joined hierarchical path).
    pub name: String,
    /// Invocations.
    pub calls: u64,
    /// Total elapsed cycles (fork to join) — *simulated* time.
    pub elapsed: Cycles,
    /// Sum of per-thread busy cycles.
    pub busy_total: Cycles,
    /// Sum over calls of the max per-thread busy time.
    pub busy_max: Cycles,
    /// FLOPs executed.
    pub flops: u64,
    /// Host wall-clock nanoseconds attributed by
    /// [`Profile::enter`]/[`Profile::exit`] bracketing — *host* time,
    /// never part of the deterministic trace stream.
    pub wall_ns: u64,
}

impl RegionStat {
    /// Load balance in (0, 1]: mean busy time over max busy time.
    /// 1.0 = perfectly balanced; low values expose the imbalances
    /// CXpa was prized for revealing. A region that never ran
    /// (`busy_max == 0`) or a non-positive thread hint reports 1.0
    /// rather than dividing by zero.
    pub fn balance(&self, threads_hint: f64) -> f64 {
        if self.busy_max == 0 || threads_hint <= 0.0 {
            1.0
        } else {
            (self.busy_total as f64 / threads_hint) / self.busy_max as f64
        }
    }

    /// Nesting depth of the region's path (`"a/b/c"` → 2).
    pub fn depth(&self) -> usize {
        self.name.matches('/').count()
    }
}

/// The profiler: feed it every region's [`RegionReport`], optionally
/// nesting records under hierarchical spans opened with
/// [`Profile::enter`].
#[derive(Debug, Clone, Default)]
pub struct Profile {
    regions: Vec<RegionStat>,
    threads: f64,
    /// Open hierarchical span names, innermost last.
    path: Vec<String>,
    /// Host wall-clock marks parallel to `path`.
    marks: Vec<std::time::Instant>,
}

impl Profile {
    /// Fresh profiler.
    pub fn new() -> Self {
        Profile::default()
    }

    /// Open a hierarchical span: until the matching [`Profile::exit`],
    /// every [`Profile::record`] is filed under `name/…`. Spans nest.
    pub fn enter(&mut self, name: &str) {
        self.path.push(name.to_string());
        self.marks.push(std::time::Instant::now());
    }

    /// Close the innermost span, attributing the host wall-clock time
    /// since its [`Profile::enter`] to the span's own region (sim
    /// cycles accrue through the records filed inside it).
    ///
    /// # Panics
    /// If no span is open (unbalanced nesting).
    pub fn exit(&mut self) {
        let mark = self.marks.pop().expect("Profile::exit without enter");
        let wall = mark.elapsed().as_nanos() as u64;
        let name = self.path.join("/");
        self.path.pop();
        let stat = self.stat_mut(&name);
        stat.wall_ns += wall;
    }

    /// True when every [`Profile::enter`] has a matching
    /// [`Profile::exit`] — the span-nesting invariant `spp repro trace`
    /// asserts.
    pub fn balanced(&self) -> bool {
        self.path.is_empty()
    }

    /// The currently open span path (`""` at top level).
    pub fn current_path(&self) -> String {
        self.path.join("/")
    }

    /// Forget all recorded regions and open spans.
    pub fn reset(&mut self) {
        self.regions.clear();
        self.path.clear();
        self.marks.clear();
        self.threads = 0.0;
    }

    fn stat_mut(&mut self, name: &str) -> &mut RegionStat {
        match self.regions.iter().position(|r| r.name == name) {
            Some(i) => &mut self.regions[i],
            None => {
                self.regions.push(RegionStat {
                    name: name.to_string(),
                    ..Default::default()
                });
                self.regions.last_mut().unwrap()
            }
        }
    }

    /// Record one parallel region under `name` (qualified by the open
    /// span path, if any). Repeated names merge into one
    /// [`RegionStat`].
    pub fn record(&mut self, name: &str, rep: &RegionReport) {
        self.threads = rep.busy.len() as f64;
        let qualified = if self.path.is_empty() {
            name.to_string()
        } else {
            format!("{}/{}", self.path.join("/"), name)
        };
        let stat = self.stat_mut(&qualified);
        stat.calls += 1;
        stat.elapsed += rep.elapsed;
        stat.busy_total += rep.busy.iter().sum::<u64>();
        stat.busy_max += rep.busy.iter().copied().max().unwrap_or(0);
        stat.flops += rep.flops;
    }

    /// All region stats, in first-seen order.
    pub fn regions(&self) -> &[RegionStat] {
        &self.regions
    }

    /// Total elapsed cycles across regions.
    pub fn total_elapsed(&self) -> Cycles {
        self.regions.iter().map(|r| r.elapsed).sum()
    }

    /// Render the CXpa-like table: per region, share of time, load
    /// balance and sustained rate.
    pub fn report(&self) -> String {
        let total = self.total_elapsed().max(1);
        let mut out = String::from(
            "region                calls      time(ms)   %time  balance   MF/s  wall(ms)\n\
             ---------------------------------------------------------------------------\n",
        );
        for r in &self.regions {
            let ms = r.elapsed as f64 * 1e-5;
            let pct = 100.0 * r.elapsed as f64 / total as f64;
            let mf = if r.elapsed > 0 {
                r.flops as f64 / (r.elapsed as f64 * 1e-8) / 1e6
            } else {
                0.0
            };
            // Indent nested paths so the hierarchy reads at a glance.
            let label = format!("{}{}", "  ".repeat(r.depth()), r.name);
            out.push_str(&format!(
                "{:<20} {:>6} {:>12.3} {:>7.1} {:>8.2} {:>6.1} {:>9.3}\n",
                label,
                r.calls,
                ms,
                pct,
                r.balance(self.threads),
                mf,
                r.wall_ns as f64 * 1e-6
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fork::Runtime;
    use crate::team::Placement;

    #[test]
    fn records_and_reports() {
        let mut rt = Runtime::spp1000(1);
        let mut prof = Profile::new();
        for _ in 0..3 {
            let r = rt.fork_join(4, &Placement::HighLocality, |ctx| ctx.flops(1000));
            prof.record("compute", &r);
        }
        let r = rt.fork_join(4, &Placement::HighLocality, |_| {});
        prof.record("sync", &r);

        assert_eq!(prof.regions().len(), 2);
        assert_eq!(prof.regions()[0].calls, 3);
        assert_eq!(prof.regions()[0].flops, 3 * 4000);
        let rep = prof.report();
        assert!(rep.contains("compute"));
        assert!(rep.contains("sync"));
    }

    #[test]
    fn balance_exposes_imbalance() {
        let mut rt = Runtime::spp1000(1);
        let mut prof = Profile::new();
        // Thread 0 does 4x the work of the others.
        let r = rt.fork_join(4, &Placement::HighLocality, |ctx| {
            ctx.flops(if ctx.tid == 0 { 40_000 } else { 10_000 });
        });
        prof.record("skewed", &r);
        let b = prof.regions()[0].balance(4.0);
        assert!((0.3..=0.6).contains(&b), "balance = {b}");

        let r = rt.fork_join(4, &Placement::HighLocality, |ctx| {
            ctx.flops(10_000);
        });
        prof.record("even", &r);
        let b = prof.regions()[1].balance(4.0);
        assert!(b > 0.95, "balance = {b}");
    }

    #[test]
    fn empty_profile_is_harmless() {
        let prof = Profile::new();
        assert_eq!(prof.total_elapsed(), 0);
        assert!(prof.report().contains("region"));
    }

    #[test]
    fn balance_with_zero_threads_hint_is_one() {
        let mut rt = Runtime::spp1000(1);
        let mut prof = Profile::new();
        let r = rt.fork_join(4, &Placement::HighLocality, |ctx| ctx.flops(1_000));
        prof.record("z", &r);
        let s = &prof.regions()[0];
        assert!(s.busy_max > 0);
        assert_eq!(s.balance(0.0), 1.0, "zero hint must not divide by zero");
        assert_eq!(s.balance(-3.0), 1.0);
        assert!(s.balance(4.0).is_finite());
    }

    #[test]
    fn balance_of_a_single_call_single_thread_is_one() {
        let mut rt = Runtime::spp1000(1);
        let mut prof = Profile::new();
        let r = rt.fork_join(1, &Placement::HighLocality, |ctx| ctx.flops(500));
        prof.record("solo", &r);
        let b = prof.regions()[0].balance(1.0);
        assert!(
            (b - 1.0).abs() < 1e-9,
            "one thread is perfectly balanced: {b}"
        );
    }

    #[test]
    fn recorded_then_reset_profile_is_empty_and_reusable() {
        let mut rt = Runtime::spp1000(1);
        let mut prof = Profile::new();
        let r = rt.fork_join(4, &Placement::HighLocality, |ctx| ctx.flops(1_000));
        prof.record("before", &r);
        prof.enter("open");
        prof.reset();
        assert!(prof.regions().is_empty());
        assert!(prof.balanced(), "reset closes dangling spans");
        assert_eq!(prof.total_elapsed(), 0);
        // An untouched RegionStat after reset reports neutral balance.
        assert_eq!(RegionStat::default().balance(4.0), 1.0);
        prof.record("after", &r);
        assert_eq!(prof.regions().len(), 1);
        assert_eq!(prof.regions()[0].name, "after");
    }

    #[test]
    fn repeated_names_merge_into_one_region_stat() {
        let mut rt = Runtime::spp1000(1);
        let mut prof = Profile::new();
        let r1 = rt.fork_join(4, &Placement::HighLocality, |ctx| ctx.flops(1_000));
        let r2 = rt.fork_join(4, &Placement::HighLocality, |ctx| ctx.flops(3_000));
        prof.record("phase", &r1);
        prof.record("phase", &r2);
        assert_eq!(prof.regions().len(), 1);
        let s = &prof.regions()[0];
        assert_eq!(s.calls, 2);
        assert_eq!(s.flops, 4 * 1_000 + 4 * 3_000);
        assert_eq!(s.elapsed, r1.elapsed + r2.elapsed);
        assert!(s.busy_total >= r1.busy.iter().sum::<u64>());
    }

    #[test]
    fn hierarchical_spans_qualify_and_attribute_wall_time() {
        let mut rt = Runtime::spp1000(1);
        let mut prof = Profile::new();
        prof.enter("app");
        assert_eq!(prof.current_path(), "app");
        prof.enter("step");
        let r = rt.fork_join(2, &Placement::HighLocality, |ctx| ctx.flops(100));
        prof.record("kernel", &r);
        prof.exit();
        prof.exit();
        assert!(prof.balanced());
        let names: Vec<&str> = prof.regions().iter().map(|r| r.name.as_str()).collect();
        assert!(names.contains(&"app/step/kernel"), "{names:?}");
        assert!(names.contains(&"app/step"));
        assert!(names.contains(&"app"));
        let kernel = prof
            .regions()
            .iter()
            .find(|r| r.name == "app/step/kernel")
            .unwrap();
        assert_eq!(kernel.depth(), 2);
        assert_eq!(kernel.calls, 1);
        let app = prof.regions().iter().find(|r| r.name == "app").unwrap();
        assert!(app.wall_ns > 0, "enter/exit bracketing measures wall time");
        assert!(prof.report().contains("app/step/kernel"));
    }

    #[test]
    #[should_panic(expected = "exit without enter")]
    fn unbalanced_exit_panics() {
        Profile::new().exit();
    }
}
