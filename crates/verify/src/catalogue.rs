//! The fault matrix: one catalogue of named cases, run on the driver that
//! ships.
//!
//! A [`Case`] is pure data — cluster shape, input size, the faults and
//! scripted migration of the run, and the repair they must produce. Every
//! consumer reads the same rows: the table-driven test (`tests/chaos.rs`),
//! `slash-race` (random sweep and `--exhaustive`) and the recovery bench
//! (`repro -- recovery`). Each run goes through
//! [`SlashCluster::builder`]`(..).chaos(..).elastic(..).run_on(sim)`, so the
//! checkpoint director, the promotion machine and the handoff machine
//! under test are the production ones. The exactness matrix
//! (`tests/exactness/mod.rs`) builds its simulator cells as `Case` values too and
//! runs them through [`Case::run_with`], the same one builder chain.
//!
//! **One verdict.** A run is compared against the sequential fold of its
//! input ([`crate::oracle`]): every `(window, key)` exactly once with the
//! oracle's value, `records` = input — plus "every scheduled fault
//! produced its expected repair", judged against a classification taken
//! from the run *without* the swept fault (below).
//!
//! **Two exploration dimensions.** Virtual-time physics orders almost every
//! event of a driver run (a 2-node run has a handful of binary tie points),
//! so tie-breaks alone supply few distinct runs. The dimension that does is
//! the **instant** of one fault or migration per case — the *swept* one. It
//! is taken from the event instants of the case's own swept-free run
//! ([`Sim::take_event_instants`]): a fault scheduled between two events
//! behaves like one scheduled at the later event, so those instants, each
//! under both orders of the resulting tie, are all there is. The second
//! dimension is the same-instant **tie schedule** ([`Sim::with_schedule`] /
//! [`TieBreak`]). The 2-node `*-small` cases enumerate every tie schedule at
//! every instant, literally; full-size cases stride both.
//!
//! **Honest accounting.** The instant window is clipped to the swept-free
//! run's completion, and every instant is classified from that run's
//! trace: a crash before its victims' `finished` instants *must* promote
//! (each node traces the instant it declares completion), a flap whose
//! first half overlaps a delta write touching the node *must* reset
//! channels, a migration ordered a detection timeout before its partition
//! finishes *must* commit. A run whose fault was required
//! to produce a repair and did not is a violation; instants where no repair
//! is needed are counted separately, never towards a floor.

use std::collections::{BTreeSet, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};

use slash_core::chaos::{ChaosConfig, FaultPlan, FtConfig};
use slash_core::source::RateCurve;
use slash_core::{
    ElasticConfig, MigrationCmd, Outcome as RunOutcome, Plant, RecoveryAction, RunConfig,
    ScriptedDirector, SlashCluster, SplitRunConfig,
};
use slash_desim::{Sim, SimTime, TieBreak};
use slash_obs::Obs;
use slash_workloads::{nb11, ysb, ysb_hot, GenConfig, Workload};

use crate::explorer::{explore_exhaustive, Budget, Coverage, ExhaustiveReport, ScheduleRun};
use crate::oracle::{self, Groups};
use crate::race::{policies, Exploration, Invariant, Outcome, Violation};

/// Faults placed at a fixed fraction of the fault-free completion time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fixed {
    /// Nothing but the swept fault.
    None,
    /// Crash port `.1` at `.0` thousandths of the span.
    Crashes(&'static [(u64, usize)]),
    /// [`FaultPlan::seeded`]: three non-crash faults within the span.
    Seeded(u64),
}

/// The fault or migration whose instant is explored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Swept {
    /// Crash these ports together.
    Crash(&'static [usize]),
    /// Flap this node's link for a sixteenth of the span.
    Flap(usize),
    /// Degrade this node's link by 2 µs per message for an eighth of the span.
    Degrade(usize),
    /// Delay this node's completions by 2 µs for an eighth of the span.
    Delay(usize),
    /// [`FaultPlan::seeded`] with the instant as its horizon: three
    /// non-crash faults that all move with it.
    Seeded(u64),
    /// The case's scripted migration is ordered at the instant.
    Migration,
}

/// Which instants of the swept-free run the swept fault visits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Window {
    /// The whole run, start to completion.
    Run,
    /// While the first fixed crash's promotion is in flight (detected →
    /// committed). A restart must be seen in both promotion phases,
    /// `Restore` and `Reconnect`.
    Recovery,
    /// While the fixed migration is in flight (ordered → committed). An
    /// abort or fallback must be seen in every handoff phase.
    Handoff,
}

/// How much input a case runs and how fast virtual time passes over it.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Records per input partition.
    pub records: u64,
    /// Epoch size in state-update bytes.
    pub epoch_bytes: u64,
    /// Records per scheduling batch.
    pub batch_records: usize,
    /// Multiplier on the per-record CPU costs: a slower core stretches a
    /// small input over several driver slices, so checkpoints ship and
    /// land *during* ingest at the host cost of the small input. (Source
    /// pacing would do the same, but it makes batch — and with them epoch
    /// — boundaries depend on timing, and recovery from an *older* copy
    /// relies on re-created epochs matching the merged ones: DESIGN §15.3.)
    pub cpu_slowdown: f64,
    /// Stall-detection timeout.
    pub detect_timeout: SimTime,
}

/// One row of the fault matrix.
#[derive(Debug, Clone, Copy)]
pub struct Case {
    /// Row name (CLI, reports, DESIGN §15.4).
    pub name: &'static str,
    /// Logical partitions = provisioned ports.
    pub nodes: usize,
    /// Workers (input partitions) per node.
    pub workers_per_node: usize,
    /// Durable checkpoint copies per node.
    pub ckpt_copies: usize,
    /// Input size and pace.
    pub size: Size,
    /// Input generator.
    pub workload: fn(&GenConfig) -> Workload,
    /// Elastic runs: partitions start packed onto this many hosts.
    pub hosts: Option<usize>,
    /// Keys hot-split before the first record.
    pub pre_split: &'static [u64],
    /// Faults at fixed fractions of the span.
    pub fixed: Fixed,
    /// The scripted migration, ordered a quarter into the span unless it
    /// is the swept event.
    pub migrate: Option<MigrationCmd>,
    /// The explored fault or migration.
    pub swept: Swept,
    /// Where its instant ranges.
    pub window: Window,
    /// Partitions the run's crashes must promote — exactly these when the
    /// swept fault lands where a repair is required, never any other.
    pub promotes: &'static [usize],
    /// Enumerate every tie schedule at every instant (the `*-small` rows).
    pub literal: bool,
    /// Write combining on.
    pub combine: bool,
}

/// What a run sets beyond its row and its faults: the axes of the
/// exactness matrix (`tests/exactness/mod.rs`) that the fault rows leave at
/// their defaults.
#[derive(Debug, Clone, Default)]
pub struct Knobs {
    /// Online detection and record forwarding; the row's pre-splits join
    /// it (`None`: the pre-splits alone, if any).
    pub split: Option<SplitRunConfig>,
    /// Paced sources.
    pub pacing: Option<RateCurve>,
}

const US: u64 = 1_000;

/// 3 nodes × 1 worker × 2,500 YSB records over ~625 µs, node 1 crashes.
const FULL: Case = Case {
    name: "node-crash",
    nodes: 3,
    workers_per_node: 1,
    ckpt_copies: 2,
    size: Size {
        records: 2_500,
        epoch_bytes: 4 * 1024,
        batch_records: 64,
        cpu_slowdown: 16.0,
        detect_timeout: SimTime::from_nanos(300 * US),
    },
    workload: ysb,
    hosts: None,
    pre_split: &[],
    fixed: Fixed::None,
    migrate: None,
    swept: Swept::Crash(&[1]),
    window: Window::Run,
    promotes: &[1],
    literal: false,
    combine: true,
};

/// 2 nodes × 400 records over ~400 µs with 1 KiB epochs: small enough to
/// enumerate.
const SMALL: Case = Case {
    name: "recovery-small",
    nodes: 2,
    size: Size { records: 400, epoch_bytes: 1024, batch_records: 32, cpu_slowdown: 64.0, ..FULL.size },
    literal: true,
    ..FULL
};

/// Four partitions packed onto two of four hosts; partition 2 (on host 0,
/// next to partition 0) migrates to parked host 2.
const ELASTIC: Case = Case {
    name: "planned-handoff",
    nodes: 4,
    hosts: Some(2),
    migrate: Some(MigrationCmd { partition: 2, to_host: 2 }),
    swept: Swept::Migration,
    promotes: &[],
    ..FULL
};

/// Seeds of the multi-fault plans; fixed so every run is reproducible.
const SEEDS: [(u64, &str, &str); 3] = [
    (11, "seeded-11", "seeded-11+crash"),
    (23, "seeded-23", "seeded-23+crash"),
    (47, "seeded-47", "seeded-47+crash"),
];

/// Every named case, defined here and nowhere else.
pub fn catalogue() -> Vec<Case> {
    let quiet = Case { promotes: &[], ..FULL };
    let mut rows = vec![
        FULL,
        Case { name: "link-flap", swept: Swept::Flap(1), ..quiet },
        Case { name: "link-degrade", swept: Swept::Degrade(1), ..quiet },
        Case { name: "delayed-completions", swept: Swept::Delay(1), ..quiet },
    ];
    for (seed, plain, with_crash) in SEEDS {
        rows.push(Case { name: plain, swept: Swept::Seeded(seed), ..quiet });
        rows.push(Case { name: with_crash, fixed: Fixed::Seeded(seed), ..FULL });
    }
    rows.extend([
        // Two ports die on the same nanosecond; each promotion installs
        // retaining endpoints toward the other dead peer.
        Case {
            name: "concurrent-crash",
            nodes: 4,
            swept: Swept::Crash(&[1, 2]),
            promotes: &[1, 2],
            ..FULL
        },
        // Node 1's only checkpoint copy lives on its ring buddy, which dies
        // first: the shipper must re-select a buddy before the owner dies.
        Case {
            name: "buddy-dead",
            ckpt_copies: 1,
            fixed: Fixed::Crashes(&[(200, 2)]),
            promotes: &[1, 2],
            ..FULL
        },
        // The promotion's host dies under it, in every phase.
        Case {
            name: "crash-during-recovery",
            fixed: Fixed::Crashes(&[(400, 1)]),
            swept: Swept::Crash(&[2]),
            window: Window::Recovery,
            promotes: &[1, 2],
            ..FULL
        },
        Case { name: "multi-worker-crash", workers_per_node: 2, ..FULL },
        // A rack loses power, then a third node follows.
        Case {
            name: "cascade-x3",
            nodes: 5,
            fixed: Fixed::Crashes(&[(285, 1), (285, 2)]),
            swept: Swept::Crash(&[3]),
            promotes: &[1, 2, 3],
            ..FULL
        },
        // Partition 1 is promoted onto port 2, which then dies as well:
        // the second restore starts from the first one's checkpoints.
        Case {
            name: "reentrant",
            nodes: 4,
            fixed: Fixed::Crashes(&[(285, 1)]),
            swept: Swept::Crash(&[2]),
            promotes: &[1, 2],
            ..FULL
        },
        ELASTIC,
        Case {
            name: "target-crash-mid-handoff",
            swept: Swept::Crash(&[2]),
            window: Window::Handoff,
            ..ELASTIC
        },
        // Host 0 dies with both its tenants; §15 promotion takes over.
        Case {
            name: "source-crash-mid-handoff",
            swept: Swept::Crash(&[0]),
            window: Window::Handoff,
            promotes: &[0, 2],
            ..ELASTIC
        },
        // A bystander host (partitions 1 and 3) dies around the handoff.
        Case {
            name: "handoff-vs-crash",
            swept: Swept::Crash(&[1]),
            promotes: &[1, 3],
            ..ELASTIC
        },
        Case { name: "hot-split-recovery", workload: ysb_hot, pre_split: &[1, 3], ..FULL },
        Case { name: "hot-split-handoff", workload: ysb_hot, pre_split: &[1, 3], ..ELASTIC },
        // Holistic state through checkpoint, restore, rejoin and replay:
        // the restored primary's runs and the replayed helper runs must
        // leave every group's pair count whole.
        Case { name: "join-crash", workload: nb11, ..FULL },
        SMALL,
        Case {
            name: "rescale-small",
            hosts: Some(1),
            migrate: Some(MigrationCmd { partition: 1, to_host: 1 }),
            swept: Swept::Migration,
            promotes: &[],
            ..SMALL
        },
        Case { name: "hot-split-small", workload: ysb_hot, pre_split: &[1], ..SMALL },
    ]);
    rows
}

/// Look a case up by name.
pub fn case(name: &str) -> Option<Case> {
    catalogue().into_iter().find(|c| c.name == name)
}

/// The faults of one run: the armed plan and the migration script.
#[derive(Debug, Clone, Default)]
pub struct Faults {
    /// Armed against the fabric.
    pub plan: FaultPlan,
    /// Replayed by a [`ScriptedDirector`] (elastic cases only).
    pub script: Vec<(SimTime, MigrationCmd)>,
}

fn frac(span: SimTime, permille: u64) -> SimTime {
    SimTime::from_nanos(span.as_nanos() * permille / 1000)
}

impl Case {
    /// How long a swept flap keeps the link down.
    fn flap_for(span: SimTime) -> SimTime {
        SimTime::from_nanos((span.as_nanos() / 16).max(10 * US))
    }

    /// Generate the case's input (one partition per worker).
    pub fn input(&self) -> Workload {
        (self.workload)(&GenConfig::new(self.nodes * self.workers_per_node, self.size.records))
    }

    /// The faults of a run whose fault-free completion time is `span`,
    /// with the swept event at `at` (`None` = the swept-free run).
    pub fn faults(&self, span: SimTime, at: Option<SimTime>) -> Faults {
        let mut plan = match self.fixed {
            Fixed::None => FaultPlan::new(),
            Fixed::Crashes(cs) => cs
                .iter()
                .fold(FaultPlan::new(), |p, &(pm, node)| p.crash(frac(span, pm), node)),
            Fixed::Seeded(seed) => FaultPlan::seeded(seed, self.nodes, 3, span),
        };
        let mut migrate_at = (self.swept != Swept::Migration).then(|| frac(span, 250));
        if let Some(at) = at {
            let slow = SimTime::from_nanos((span.as_nanos() / 8).max(20 * US));
            let extra = SimTime::from_nanos(2 * US);
            plan = match self.swept {
                Swept::Crash(nodes) => plan.concurrent(at, nodes),
                Swept::Flap(node) => plan.link_flap(at, node, Self::flap_for(span)),
                Swept::Degrade(node) => plan.degrade(at, node, extra, slow),
                Swept::Delay(node) => plan.delay_completions(at, node, extra, slow),
                // (The generator needs a horizon it can divide.)
                Swept::Seeded(seed) => {
                    FaultPlan::seeded(seed, self.nodes, 3, at.max(SimTime::from_nanos(US)))
                }
                Swept::Migration => {
                    migrate_at = Some(at);
                    plan
                }
            };
        }
        let script = self.migrate.zip(migrate_at).map(|(cmd, t)| (t, cmd));
        Faults { plan, script: script.into_iter().collect() }
    }

    /// The row's run configuration, whichever engine runs it.
    pub fn config(&self, knobs: &Knobs) -> RunConfig {
        let mut cfg = RunConfig::new(self.nodes, self.workers_per_node);
        cfg.collect_results = true;
        cfg.combine = self.combine;
        cfg.pacing = knobs.pacing;
        cfg.epoch_bytes = self.size.epoch_bytes;
        cfg.batch_records = self.size.batch_records;
        cfg.cost.record_pipeline_ns *= self.size.cpu_slowdown;
        cfg.cost.rmw_base_ns *= self.size.cpu_slowdown;
        cfg.cost.source_per_byte_ns *= self.size.cpu_slowdown;
        // A repair that never happens must fail fast, not simulate an
        // hour: 5 ms plus over ten times the ingest time.
        let ingest_ns = self.size.records as f64 * self.size.cpu_slowdown * 250.0;
        cfg.max_virtual_time = SimTime::from_nanos(5_000 * US + ingest_ns as u64);
        cfg
    }

    /// A fault row's run: `input` under `faults` on `sim`.
    pub fn run(
        &self,
        input: &Workload,
        faults: &Faults,
        plant: Option<Plant>,
        obs: Obs,
        sim: Sim,
    ) -> (RunOutcome, Sim) {
        self.run_with(input, Some(faults), &Knobs::default(), plant, obs, sim)
    }

    /// The one place a case becomes a cluster on the simulator: run
    /// `input` through the production builder, fault tolerant under
    /// `faults` (`None`: the plain engine, no checkpoints), with `knobs`.
    pub fn run_with(
        &self,
        input: &Workload,
        faults: Option<&Faults>,
        knobs: &Knobs,
        plant: Option<Plant>,
        obs: Obs,
        sim: Sim,
    ) -> (RunOutcome, Sim) {
        let chaos = faults.map(|f| ChaosConfig {
            plan: f.plan.clone(),
            ft: FtConfig {
                detect_timeout: self.size.detect_timeout,
                ckpt_max_chunk: 16 * 1024,
                ckpt_copies: self.ckpt_copies,
            },
        });
        let split = (knobs.split.is_some() || !self.pre_split.is_empty()).then(|| {
            let pre_only = SplitRunConfig { auto: None, ..SplitRunConfig::default() };
            let mut split = knobs.split.clone().unwrap_or(pre_only);
            split.pre_split.extend_from_slice(self.pre_split);
            split
        });
        let ecfg = self.hosts.map(|h| ElasticConfig::packed(self.nodes, h));
        let script = faults.map_or_else(Vec::new, |f| f.script.clone());
        let mut director = ScriptedDirector::new(script);
        let cfg = self.config(knobs);
        let mut b =
            SlashCluster::builder(input.plan.clone(), input.partitions.clone(), cfg).obs(obs);
        if let Some(chaos) = &chaos {
            b = b.chaos(chaos);
        }
        if let Some(split) = &split {
            b = b.split(split);
        }
        if let Some(ecfg) = &ecfg {
            b = b.elastic(ecfg, &mut director);
        }
        if let Some(plant) = plant {
            b = b.fault_plant(plant);
        }
        b.run_on(sim)
    }

    /// Run the case without its swept event and record everything the
    /// sweep needs from that run.
    pub fn probe(&self) -> Probe {
        let input = self.input();
        let expected = oracle::oracle(&input.plan, &input.partitions);
        // Fixed faults sit at fractions of the fault-free span.
        let free = self.run(&input, &Faults::default(), None, Obs::disabled(), Sim::new()).0;
        let span = free.run.completion_time;
        // The swept-free run is traced — its epoch installs and delta
        // writes classify every instant — and explored, for its instants.
        let obs = Obs::enabled(RING);
        let explored = Sim::with_schedule(&[]);
        let (base, mut sim) = self.run(&input, &self.faults(span, None), None, obs.clone(), explored);
        assert!(obs.event_count() <= RING as u64, "{}: probe trace overflowed", self.name);
        let mut unfinished_until = vec![SimTime::ZERO; self.nodes];
        let mut writes = Vec::new();
        let mut batches = Vec::new();
        let mut closes = BTreeSet::new();
        for e in obs.events() {
            match e.name {
                "finished" => unfinished_until[e.pid as usize] = e.ts,
                "batch" => batches.push((e.ts + SimTime::from_nanos(e.dur), e.pid as usize)),
                "write" => writes.push((e.ts, e.pid as usize, e.tid as usize)),
                // One proposal per remote partition, all at the close.
                "epoch-propose" => drop(closes.insert((e.ts, e.pid as usize))),
                _ => {}
            }
        }
        // (lo, hi]: a fault at `lo` itself fires before the driver tick
        // that opens the window.
        let (lo, hi) = match self.window {
            Window::Run => (None, base.run.completion_time),
            Window::Recovery => base
                .recovery
                .events
                .iter()
                .find(|e| matches!(e.action, RecoveryAction::Promoted { .. }))
                .map_or((None, SimTime::ZERO), |e| (Some(e.detected_at), e.recovered_at)),
            Window::Handoff => base
                .rescale
                .migrations
                .first()
                .map_or((None, SimTime::ZERO), |m| (Some(m.planned_at), m.committed_at)),
        };
        let instants = sim
            .take_event_instants()
            .into_iter()
            .filter(|&t| lo.is_none_or(|lo| t > lo) && t <= hi && t < base.run.completion_time)
            .collect();
        Probe { input, expected, span, unfinished_until, instants, writes, batches, closes, base }
    }

    /// Whether the swept event at `at` must produce its repair.
    fn required(&self, probe: &Probe, at: SimTime) -> bool {
        match self.swept {
            // Handoff-window crashes must abort the plan even when they
            // kill nothing that hosts a partition.
            Swept::Crash(_) => {
                self.window == Window::Handoff
                    || self.promotes.iter().all(|&p| at < probe.unfinished_until[p])
            }
            // A delta write posted in the first half of the outage is
            // still on the wire when it would have been delivered.
            Swept::Flap(node) => {
                let half = SimTime::from_nanos(Self::flap_for(probe.span).as_nanos() / 2);
                probe
                    .writes
                    .iter()
                    .any(|&(ts, a, b)| (a == node || b == node) && at <= ts && ts < at + half)
            }
            // Ordered at the first driver tick after `at` (a slice is at
            // most a detection timeout) and halted one tick later.
            Swept::Migration => self.migrate.is_some_and(|cmd| {
                at + self.size.detect_timeout < probe.unfinished_until[cmd.partition]
            }),
            Swept::Degrade(_) | Swept::Delay(_) | Swept::Seeded(_) => false,
        }
    }

    /// The one verdict: `out` against the sequential fold of the input,
    /// plus — when the swept fault landed at `repair_due`, an instant that
    /// requires it — that fault's expected repair.
    fn verdict(&self, probe: &Probe, repair_due: Option<SimTime>, out: &RunOutcome) -> Vec<String> {
        let mut bad = Vec::new();
        if out.run.records != probe.input.records {
            let (got, want) = (out.run.records, probe.input.records);
            bad.push(format!("{got} records processed, input has {want}"));
        }
        if let Err(e) = oracle::check(&probe.expected, &out.run.results) {
            bad.push(format!("results differ from the sequential fold: {e}"));
        }
        if out.run.state_digests != probe.base.run.state_digests {
            bad.push("final state differs from the swept-free run".to_string());
        }
        let mut promoted = BTreeSet::new();
        let mut reset = false;
        for e in &out.recovery.events {
            match e.action {
                RecoveryAction::Promoted { .. } => drop(promoted.insert(e.node)),
                RecoveryAction::ChannelsReset { .. } => reset = true,
            }
        }
        let wanted: BTreeSet<usize> = self.promotes.iter().copied().collect();
        if !promoted.is_subset(&wanted) {
            bad.push(format!("promoted {promoted:?}, only {wanted:?} may ever be"));
        }
        let migrations = &out.rescale.migrations;
        let Some(at) = repair_due else {
            return bad;
        };
        let missing = match (self.swept, self.window) {
            (Swept::Crash(_), Window::Handoff) if !migrations.iter().any(|m| m.aborted) => {
                Some("the in-flight handoff was not aborted")
            }
            (Swept::Crash(_), _) if promoted != wanted => Some("a crashed partition was not promoted"),
            (Swept::Flap(_), _) if !reset => Some("no channel was reset"),
            (Swept::Migration, _) if !migrations.iter().any(|m| !m.aborted) => {
                Some("the migration did not commit")
            }
            _ => None,
        };
        if let Some(what) = missing {
            bad.push(format!(
                "fault at {} ns required a repair and produced none: {what} \
                 (events {:?}, migrations {migrations:?})",
                at.as_nanos(),
                out.recovery.events
            ));
        }
        bad
    }

    /// One run with the swept event at `at`, judged. A driver panic (a
    /// repair that never came trips the virtual-time budget) is a
    /// violation, not an abort.
    fn run_at(
        &self,
        probe: &Probe,
        at: SimTime,
        plant: Option<Plant>,
        new_sim: &dyn Fn() -> Sim,
    ) -> (Run, Sim) {
        // Phase coverage is read off the trace; everything else runs dark.
        let obs = match self.window {
            Window::Run => Obs::disabled(),
            _ => Obs::enabled(RING),
        };
        let faults = self.faults(probe.span, Some(at));
        let required = self.required(probe, at);
        let ran = catch_unwind(AssertUnwindSafe(|| {
            self.run(&probe.input, &faults, plant, obs.clone(), new_sim())
        }));
        let (bad, fingerprint, sim) = match ran {
            Ok((out, sim)) => {
                let bad = self.verdict(probe, required.then_some(at), &out);
                (bad, sim.schedule_fingerprint(), sim)
            }
            Err(_) => (vec!["the driver panicked (see stderr)".to_string()], 0, Sim::new()),
        };
        assert!(obs.event_count() <= RING as u64, "{}: run trace overflowed", self.name);
        let phases = obs
            .events()
            .iter()
            .filter(|e| matches!(e.name, "promotion-restart" | "handoff-abort" | "handoff-fallback"))
            .filter_map(|e| e.args().iter().find(|(k, _)| *k == "phase").map(|&(_, v)| v))
            .fold(0u8, |seen, phase| seen | 1 << phase);
        let mut dumps = Vec::new();
        if !bad.is_empty() {
            // Replay the failing run traced, for the flight recorder.
            let obs = Obs::enabled(4096);
            let _ = catch_unwind(AssertUnwindSafe(|| {
                self.run(&probe.input, &faults, plant, obs.clone(), new_sim())
            }));
            for why in &bad {
                obs.record_failure(
                    &format!("[{}] {} at {} ns: {why}", Invariant::RecoveryConvergence.name(), self.name, at.as_nanos()),
                    &format!("schedule fingerprint={fingerprint:#018x} plan={:?}", faults.plan.events()),
                );
            }
            dumps = obs.take_failures().iter().map(|d| d.render()).collect();
        }
        let outcome = Outcome {
            fingerprint,
            violations: bad
                .into_iter()
                .map(|why| (Invariant::RecoveryConvergence, format!("at {} ns: {why}", at.as_nanos())))
                .collect(),
            dumps,
        };
        (Run { outcome, required, phases }, sim)
    }

    /// Violations of the swept-free run itself plus, once a sweep is over,
    /// of its coverage: an empty window, or a phase never interrupted.
    fn sweep_verdict(&self, probe: &Probe, tally: &Tally, plant: Option<Plant>) -> Vec<String> {
        let mut bad = Vec::new();
        if plant.is_none() {
            bad = self.verdict(probe, None, &probe.base);
            // Bit sets of the `phase` trace argument: both promotion
            // phases, all three handoff phases.
            let wanted = match self.window {
                Window::Run => 0,
                Window::Recovery => 0b0011,
                Window::Handoff => 0b1110,
            };
            let missed = wanted & !tally.phases;
            if missed != 0 {
                bad.push(format!("no fault landed in phase set {missed:#06b}"));
            }
        }
        if probe.instants.is_empty() {
            bad.push("the swept-free run offers no instant inside the window".to_string());
        }
        bad
    }

    /// Random sweep: `n` runs, run *i* at the *i*-th of `n` evenly strided
    /// instants under the *i*-th tie-break policy of [`policies`].
    pub fn sweep(&self, probe: &Probe, n: u64, plant: Option<Plant>) -> (Exploration, Tally) {
        let mut tally = Tally::default();
        let mut pairs = HashSet::new();
        let mut violations = Vec::new();
        let mut dumps = Vec::new();
        let ps = policies(n);
        for (i, &policy) in ps.iter().enumerate() {
            let Some(&at) = probe.instants.get(i * probe.instants.len() / ps.len()) else {
                break;
            };
            let (run, _) = self.run_at(probe, at, plant, &|| Sim::with_tie_break(policy));
            tally.note(at, &run);
            pairs.insert((at, run.outcome.fingerprint));
            violations.extend(run.outcome.violations.into_iter().map(|(invariant, detail)| {
                Violation { invariant, policy, detail }
            }));
            dumps.extend(run.outcome.dumps);
        }
        for detail in self.sweep_verdict(probe, &tally, plant) {
            let (invariant, policy) = (Invariant::RecoveryConvergence, TieBreak::Fifo);
            violations.push(Violation { invariant, policy, detail });
        }
        let exploration = Exploration {
            scenario: self.name,
            schedules_run: ps.len(),
            distinct_schedules: pairs.len(),
            violations,
            dumps,
        };
        (exploration, tally)
    }

    /// Enumerate tie schedules at the case's instants: every schedule at
    /// every instant for a literal case, else up to `budget.max_schedules`
    /// schedules at each of [`STRIDED_INSTANTS`] strided instants. With a
    /// planted bug the walk stops at the first (earliest) exposing instant.
    pub fn exhaustive(
        &self,
        probe: &Probe,
        budget: Budget,
        minimize: bool,
        plant: Option<Plant>,
    ) -> (ExhaustiveReport, Tally) {
        let stride = match self.literal {
            true => 1,
            false => probe.instants.len().div_ceil(STRIDED_INSTANTS).max(1),
        };
        let mut tally = Tally::default();
        let mut coverage = Coverage::default();
        let mut counterexamples = Vec::new();
        for &at in probe.instants.iter().step_by(stride) {
            let rep = explore_exhaustive(self.name, budget, minimize, |choices| {
                let (run, mut sim) = self.run_at(probe, at, plant, &|| Sim::with_schedule(choices));
                tally.note(at, &run);
                ScheduleRun { outcome: run.outcome, trace: sim.take_choice_trace() }
            });
            coverage.absorb(&rep.coverage);
            counterexamples.extend(rep.counterexamples);
            if plant.is_some() && !counterexamples.is_empty() {
                tally.exposed_at = Some(at);
                break;
            }
        }
        // Sweep-level findings have no schedule to replay.
        for detail in self.sweep_verdict(probe, &tally, plant) {
            counterexamples.push(crate::explorer::CounterExample {
                invariant: Invariant::RecoveryConvergence,
                detail,
                first_schedule: Vec::new(),
                minimized: Vec::new(),
                dumps: Vec::new(),
            });
        }
        (ExhaustiveReport { scenario: self.name, coverage, counterexamples }, tally)
    }

    /// Replay one `(instant, choice schedule)` pair — a counterexample.
    pub fn replay(&self, probe: &Probe, at: SimTime, choices: &[u32], plant: Option<Plant>) -> Outcome {
        self.run_at(probe, at, plant, &|| Sim::with_schedule(choices)).0.outcome
    }
}

/// Trace-ring capacity of traced catalogue runs; a run that records more
/// fails loudly instead of silently losing its early events.
const RING: usize = 1 << 17;

/// Instants a non-literal case visits under `--exhaustive`.
pub const STRIDED_INSTANTS: usize = 48;

/// What a case's swept-free run tells the sweep.
pub struct Probe {
    input: Workload,
    expected: Groups,
    /// Fault-free completion time (fixed faults sit at fractions of it).
    pub span: SimTime,
    /// Per partition, the instant it finished in the swept-free run (its
    /// `finished` trace instant): a crash before it must promote.
    unfinished_until: Vec<SimTime>,
    /// The swept-free run's distinct event instants inside the window.
    pub instants: Vec<SimTime>,
    /// Delta-channel writes `(at, node, peer)` of the swept-free run.
    writes: Vec<(SimTime, usize, usize)>,
    /// Batch ends `(at, node)` of the swept-free run.
    batches: Vec<(SimTime, usize)>,
    /// Epoch closes `(at, node)` of the swept-free run.
    closes: BTreeSet<(SimTime, usize)>,
    /// The swept-free run itself.
    pub base: RunOutcome,
}

impl Probe {
    /// Batches `node` had finished at `at` since its last epoch close: two
    /// or more, and its write combiners hold partials folded in an earlier
    /// batch — state a crash at `at` takes down with the node.
    pub fn batches_in_open_epoch(&self, node: usize, at: SimTime) -> usize {
        let closed = self.closes.iter().rev().find(|&&(t, n)| n == node && t <= at);
        let since = closed.map_or(SimTime::ZERO, |&(t, _)| t);
        let open = |&&(end, n): &&(SimTime, usize)| n == node && since < end && end <= at;
        self.batches.iter().filter(open).count()
    }
}

/// One judged run.
struct Run {
    outcome: Outcome,
    required: bool,
    phases: u8,
}

/// Sweep accounting beyond schedules and fingerprints.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Distinct instants visited.
    pub instants: BTreeSet<SimTime>,
    /// Of which the swept fault was required to produce its repair.
    pub required: BTreeSet<SimTime>,
    /// Distinct runs by schedule fingerprint alone (a migration's instant
    /// quantizes to the driver slice, so many instants share a run).
    pub runs: HashSet<u64>,
    /// Phases seen interrupted (bit set of the `phase` trace argument).
    pub phases: u8,
    /// Under a planted bug: the earliest instant that exposed it.
    pub exposed_at: Option<SimTime>,
}

impl std::fmt::Display for Tally {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (instants, required, runs) = (self.instants.len(), self.required.len(), self.runs.len());
        write!(f, "{instants} instants ({required} requiring a repair), {runs} distinct runs")
    }
}

impl Tally {
    fn note(&mut self, at: SimTime, run: &Run) {
        self.instants.insert(at);
        if run.required {
            self.required.insert(at);
        }
        self.runs.insert(run.outcome.fingerprint);
        self.phases |= run.phases;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_case_is_defined_exactly_once() {
        let names: BTreeSet<&str> = catalogue().iter().map(|c| c.name).collect();
        assert_eq!(names.len(), catalogue().len(), "a case is defined twice");
    }

    /// The successor of `unreached_crash_tick_trips_the_executed_check`: a
    /// scheduled fault that never lands (here: a crash aimed at a port the
    /// cluster does not have) where a promotion was required must fail the
    /// run, not pass it vacuously.
    #[test]
    fn a_required_repair_that_does_not_happen_is_a_violation() {
        let unreached = Case { swept: Swept::Crash(&[7]), ..SMALL };
        let probe = unreached.probe();
        let early = probe.instants[probe.instants.len() / 4];
        assert!(unreached.required(&probe, early));
        let out = unreached.replay(&probe, early, &[], None);
        assert!(
            out.violations.iter().any(|(inv, d)| *inv == Invariant::RecoveryConvergence
                && d.contains("required a repair and produced none")),
            "{:?}",
            out.violations
        );
        assert!(!out.dumps.is_empty(), "violations dump the flight recorder");
    }

    /// The window is honest: nothing is swept past completion, and the
    /// drain tail after the victim's last install is classified as needing
    /// no repair instead of being counted as coverage.
    #[test]
    fn instants_are_clipped_and_classified_from_the_swept_free_run() {
        let probe = SMALL.probe();
        assert!(probe.instants.windows(2).all(|w| w[0] < w[1]));
        assert!(probe.instants.iter().all(|&t| t < probe.base.run.completion_time));
        let required = probe.instants.iter().filter(|&&t| SMALL.required(&probe, t)).count();
        assert!(required * 2 > probe.instants.len(), "most of the window needs the repair");
        assert!(required < probe.instants.len(), "the drain tail does not");
    }
}
