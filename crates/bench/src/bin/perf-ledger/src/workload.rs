//! The four fixed-size workloads, their generated inputs, and the checks
//! that a job's output is correct.
//!
//! Input sizes are constants: the unit of work is one job over a fixed
//! input, never an input scaled by the time available (see README.md).

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

use slash_core::{QueryPlan, RunConfig, RunReport, SinkResult};
use slash_exec::{results_fingerprint, JobSpec, Scheduler, SimBackend, ThreadBackend};
use slash_obs::Obs;
use slash_workloads::workloads::{NB7_WINDOW_MS, YSB_WINDOW_MS};
use slash_workloads::{nb11, nb7, ysb, ysb_hot, GenConfig};

/// Which scheduler runs a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// `ThreadBackend`: one OS thread per node, SPSC delta links.
    Threads,
    /// `SimBackend`: one OS thread, simulated RDMA fabric.
    Sim,
}

/// The aggregate an independent fold of the input must reproduce.
#[derive(Debug, Clone, Copy)]
enum Oracle {
    /// YSB: count of "view" events (type field 0) per (window, campaign).
    CountViews,
    /// NB7: maximum bid price per (window, auction).
    MaxPrice,
}

pub struct Workload {
    pub name: &'static str,
    /// One line for BENCHMARK.json: why this workload is in the set.
    pub why: &'static str,
    gen: fn(&GenConfig) -> slash_workloads::Workload,
    pub backend: Backend,
    pub nodes: usize,
    pub workers_per_node: usize,
    pub records_per_partition: u64,
    pub epoch_bytes: u64,
    /// `None` for the join, whose output is checked against the simulator
    /// reference only.
    oracle: Option<Oracle>,
}

pub static WORKLOADS: [Workload; 4] = [
    Workload {
        name: "hot_thr2",
        why: "ysb_hot, ~100 keys, 2 threads: hotpath and combiner do the work; transport, index and trigger changes must not move it",
        gen: ysb_hot,
        backend: Backend::Threads,
        nodes: 2,
        workers_per_node: 1,
        records_per_partition: 1_000_000,
        epoch_bytes: 1 << 20,
        oracle: Some(Oracle::CountViews),
    },
    Workload {
        name: "wide_thr2",
        why: "ysb, uniform 10 M-key domain, 2 threads: cold index probe, LSS RMW, delta encode, SPSC, leader merge and a 200 k-result window drain",
        gen: ysb,
        backend: Backend::Threads,
        nodes: 2,
        workers_per_node: 1,
        records_per_partition: 300_000,
        epoch_bytes: 1 << 20,
        oracle: Some(Oracle::CountViews),
    },
    Workload {
        name: "join_thr2",
        why: "nb11 session join, 2 threads: append_batch and element lists instead of in-place RMW, session windows, heaviest wire volume",
        gen: nb11,
        backend: Backend::Threads,
        nodes: 2,
        workers_per_node: 1,
        records_per_partition: 250_000,
        epoch_bytes: 1 << 20,
        oracle: None,
    },
    Workload {
        name: "skew_sim4x2",
        why: "nb7 Pareto heavy hitters on the simulator, 4 nodes x 2 workers, 16 KiB epochs: desim dispatch, rdma verbs and the RDMA channel on one thread",
        gen: nb7,
        backend: Backend::Sim,
        nodes: 4,
        workers_per_node: 2,
        records_per_partition: 125_000,
        epoch_bytes: 16 << 10,
        oracle: Some(Oracle::MaxPrice),
    },
];

/// What every job of a workload must reproduce, taken from the reference
/// job on the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    pub records: u64,
    pub emitted: u64,
    pub total_pairs: u64,
    pub state_digests: Vec<u64>,
}

impl Expected {
    pub fn of(report: &RunReport) -> Self {
        Expected {
            records: report.records,
            emitted: report.emitted,
            total_pairs: report.total_pairs,
            state_digests: report.state_digests.clone(),
        }
    }
}

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The same workload over a small input, for unit tests.
    #[cfg(test)]
    pub fn small(&self) -> Workload {
        Workload {
            records_per_partition: 4_000,
            epoch_bytes: 8 << 10,
            ..*self
        }
    }

    pub fn partitions(&self) -> usize {
        self.nodes * self.workers_per_node
    }

    pub fn total_records(&self) -> u64 {
        self.partitions() as u64 * self.records_per_partition
    }

    /// The inputs, a function of the seed alone.
    pub fn generate(&self, seed: u64) -> Vec<Vec<u8>> {
        self.generate_sized(seed, self.partitions(), self.records_per_partition)
    }

    /// Inputs of another size from the same generator (probes only).
    pub fn generate_sized(&self, seed: u64, partitions: usize, records: u64) -> Vec<Vec<u8>> {
        let mut gc = GenConfig::new(partitions, records);
        gc.seed = seed;
        (self.gen)(&gc)
            .partitions
            .into_iter()
            .map(|p| Rc::try_unwrap(p).unwrap_or_else(|p| (*p).clone()))
            .collect()
    }

    /// The query. Generators return the plan with the data; one record is
    /// the cheapest way to ask for the plan alone.
    pub fn plan(&self) -> QueryPlan {
        (self.gen)(&GenConfig::new(1, 1)).plan
    }

    pub fn cfg(&self) -> RunConfig {
        self.cfg_for(self.nodes, self.workers_per_node)
    }

    pub fn cfg_for(&self, nodes: usize, workers_per_node: usize) -> RunConfig {
        let mut cfg = RunConfig::new(nodes, workers_per_node);
        cfg.epoch_bytes = self.epoch_bytes;
        cfg
    }

    /// Run one job; `None` if it panicked (the panic message goes to
    /// stderr through the default hook).
    pub fn run(
        &self,
        backend: Backend,
        partitions: Vec<Vec<u8>>,
        cfg: RunConfig,
        obs: Obs,
    ) -> Option<RunReport> {
        let gen = self.gen;
        let spec = JobSpec::new(move || gen(&GenConfig::new(1, 1)).plan, partitions, cfg);
        catch_unwind(AssertUnwindSafe(|| match backend {
            Backend::Threads => ThreadBackend::new().run_with_obs(spec, obs),
            Backend::Sim => SimBackend.run_with_obs(spec, obs),
        }))
        .ok()
    }

    /// The untimed output check, once per run: collected results equal
    /// across the simulator and the workload's backend, and equal to an
    /// independent fold of the input. Returns what disagreed, and the
    /// results (for the replay to compare against).
    pub fn check_results(&self, partitions: &[Vec<u8>]) -> (Vec<String>, Vec<SinkResult>) {
        let mut cfg = self.cfg();
        cfg.collect_results = true;
        let mut problems = Vec::new();
        let Some(sim) = self.run(Backend::Sim, partitions.to_vec(), cfg, Obs::disabled()) else {
            return (
                vec!["simulator job with collected results panicked".into()],
                Vec::new(),
            );
        };
        if self.backend != Backend::Sim {
            match self.run(self.backend, partitions.to_vec(), cfg, Obs::disabled()) {
                None => problems.push("threaded job with collected results panicked".into()),
                Some(thr) => {
                    if results_fingerprint(&thr.results) != results_fingerprint(&sim.results) {
                        problems.push("results_fingerprint differs between backends".into());
                    }
                }
            }
        }
        if let Some(oracle) = self.oracle {
            if let Err(e) = compare_with_fold(&sim.results, &naive_fold(oracle, partitions)) {
                problems.push(format!("naive fold of the input disagrees: {e}"));
            }
        } else if sim.total_pairs == 0 {
            problems.push("join emitted no pairs".into());
        }
        (problems, sim.results)
    }
}

fn field(rec: &[u8], off: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&rec[off..off + 8]);
    u64::from_le_bytes(b)
}

/// The query computed the slow, obvious way: one ordered map keyed by
/// (window, key), no engine code. Record layouts are the generators'
/// (ts at 0, key at 8, event type or price at 16).
fn naive_fold(oracle: Oracle, partitions: &[Vec<u8>]) -> BTreeMap<(u64, u64), u64> {
    let mut out = BTreeMap::new();
    for part in partitions {
        match oracle {
            Oracle::CountViews => {
                for rec in part.chunks_exact(78) {
                    if field(rec, 16) == 0 {
                        *out.entry((field(rec, 0) / YSB_WINDOW_MS, field(rec, 8)))
                            .or_insert(0) += 1;
                    }
                }
            }
            Oracle::MaxPrice => {
                for rec in part.chunks_exact(32) {
                    let slot = out
                        .entry((field(rec, 0) / NB7_WINDOW_MS, field(rec, 8)))
                        .or_insert(0);
                    *slot = (*slot).max(field(rec, 16));
                }
            }
        }
    }
    out
}

fn compare_with_fold(
    results: &[SinkResult],
    fold: &BTreeMap<(u64, u64), u64>,
) -> Result<(), String> {
    if results.len() != fold.len() {
        return Err(format!(
            "{} results, fold has {} groups",
            results.len(),
            fold.len()
        ));
    }
    let mut seen = BTreeMap::new();
    for r in results {
        let SinkResult::Agg {
            window_id,
            key,
            value,
        } = r
        else {
            return Err("join result from an aggregation".into());
        };
        if seen.insert((*window_id, *key), ()).is_some() {
            return Err(format!("window {window_id} key {key} emitted twice"));
        }
        match fold.get(&(*window_id, *key)) {
            Some(&want) if want as f64 == *value => {}
            Some(&want) => {
                return Err(format!(
                    "window {window_id} key {key}: engine {value}, fold {want}"
                ))
            }
            None => return Err(format!("window {window_id} key {key} not in the fold")),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_plain_and_unique() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), WORKLOADS.len());
        for w in &WORKLOADS {
            assert!(crate::catalog::is_plain_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(Workload::by_name(w.name).is_some());
        }
    }

    #[test]
    fn the_seed_alone_decides_the_input() {
        let w = Workload::by_name("skew_sim4x2").expect("workload");
        let a = w.generate_sized(7, 2, 500);
        assert_eq!(a, w.generate_sized(7, 2, 500));
        assert_ne!(a, w.generate_sized(8, 2, 500));
        assert_eq!(a.len(), 2);
        assert_eq!(a[0].len(), 500 * 32);
    }

    /// A small job of every workload passes its own output check — and
    /// the check is not vacuous: a corrupted result is caught.
    #[test]
    fn small_jobs_agree_with_the_fold_and_a_wrong_result_is_caught() {
        for w in &WORKLOADS {
            let small = w.small();
            let parts = small.generate(3);
            let (problems, results) = small.check_results(&parts);
            assert!(problems.is_empty(), "{}: {problems:?}", w.name);
            assert!(!results.is_empty(), "{}", w.name);
            if let Some(oracle) = small.oracle {
                let fold = naive_fold(oracle, &parts);
                let mut wrong = results.clone();
                if let SinkResult::Agg { value, .. } = &mut wrong[0] {
                    *value += 1.0;
                }
                assert!(compare_with_fold(&wrong, &fold).is_err(), "{}", w.name);
                assert!(
                    compare_with_fold(&results[1..], &fold).is_err(),
                    "{}",
                    w.name
                );
            }
        }
    }
}
