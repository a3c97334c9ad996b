//! Exactness, stated once (property P2, paper §5.1): every supported cell
//! of engine × combiner × split × rescale × fault × pacing emits exactly
//! what the sequential fold of its input emits.
//!
//! A row is one workload on one cluster shape. Per input seed it has one
//! input, one oracle (`slash_verify::oracle`) and one reference cell: the
//! simulator, combiner on, no split, static placement, no fault, unpaced.
//! Every cell is judged against the input — `records` = input and
//! `oracle::check` — and a Slash cell must also end in the reference
//! cell's final state digests (no sub-key residue, no partials left
//! behind). Each cell keeps the counter checks of the features it turns
//! on. The director-less cells run a second input seed.
//!
//! [`supported`] is the one list of the combinations that are excluded,
//! each with its reason. [`slice`] cuts a row's cells into four parts, and
//! each part of each row runs in exactly one test: `tests/equivalence.rs`
//! runs the other engines, `tests/combiner_equivalence.rs` the simulator
//! with the combiner on and off (and `ysb_hot`'s plain crash cells), and
//! `tests/matrix.rs` the rest. Every test runs and judges the reference
//! cell its other cells are compared with.

use std::collections::BTreeSet;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

use slash::baselines::flinksim::flink_config;
use slash::baselines::partitioned::run_partitioned;
use slash::baselines::uppar::uppar_config;
use slash::core::source::RateCurve;
use slash::core::{
    HeatPolicy, MigrationCmd, Outcome, QueryPlan, RecoveryAction, RunReport, SinkResult,
    SplitRunConfig,
};
use slash::desim::{Sim, SimTime};
use slash::obs::Obs;
use slash::state::SUB_KEY_TAG;
use slash::workloads::{self as w, GenConfig, Workload};
use slash_exec::{JobSpec, Scheduler, ThreadBackend};
use slash_verify::catalogue::{Case, Fixed, Knobs, Size, Swept, Window};
use slash_verify::oracle::{self, Groups};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Engine {
    Sim,
    Threads,
    UpPar,
    Flink,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Split {
    None,
    /// [`PRE_SPLIT`] split before the first record.
    Pre,
    /// Online detection with record forwarding.
    Forward,
}

/// One configuration of one row.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    row: Case,
    engine: Engine,
    combine: bool,
    split: Split,
    /// One scripted migration (fault tolerance on).
    migrate: bool,
    /// One node crash (fault tolerance on).
    crash: bool,
    paced: bool,
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let on = |b: bool, yes: &'static str, no: &'static str| if b { yes } else { no };
        write!(
            f,
            "{}/{:?}/combine-{}/split-{:?}/{}/{}/{}",
            self.row.name,
            self.engine,
            on(self.combine, "on", "off"),
            self.split,
            on(self.migrate, "migrate", "static"),
            on(self.crash, "crash", "no-fault"),
            on(self.paced, "paced", "unpaced"),
        )
    }
}

impl Cell {
    fn reference(row: Case) -> Cell {
        Cell {
            row,
            engine: Engine::Sim,
            combine: true,
            split: Split::None,
            migrate: false,
            crash: false,
            paced: false,
        }
    }

    fn directors(&self) -> bool {
        self.split != Split::None || self.migrate || self.crash
    }

    fn is_reference(&self) -> bool {
        self.engine == Engine::Sim && self.combine && !self.directors() && !self.paced
    }

    /// The whole product for `row`, supported or not.
    pub fn product(row: Case) -> Vec<Cell> {
        let mut cells = Vec::new();
        for engine in [Engine::Sim, Engine::Threads, Engine::UpPar, Engine::Flink] {
            for split in [Split::None, Split::Pre, Split::Forward] {
                // The four on/off axes, one bit each.
                for bits in 0..16u8 {
                    let bit = |i: u8| bits & (1 << i) != 0;
                    cells.push(Cell {
                        combine: bit(0),
                        migrate: bit(1),
                        crash: bit(2),
                        paced: bit(3),
                        engine,
                        split,
                        ..Cell::reference(row)
                    });
                }
            }
        }
        cells
    }
}

/// Whether `plan`'s state may be regrouped — folded by the write
/// combiner, or split into sub-keys — the engine's one gate for both.
fn regroupable(plan: &QueryPlan) -> bool {
    let desc = plan.descriptor();
    desc.combinable && !desc.is_appended()
}

/// Every excluded combination and why — the one place they are listed.
pub fn supported(c: &Cell) -> Result<(), &'static str> {
    let plan = (c.row.workload)(&GenConfig::new(1, 1)).plan;
    let baseline = matches!(c.engine, Engine::UpPar | Engine::Flink);
    if c.engine != Engine::Sim && c.directors() {
        Err("threads and baselines have no directors")
    } else if baseline && (c.combine || c.paced) {
        Err("the baselines have no write combiner and no paced source")
    } else if c.split != Split::None
        && !(regroupable(&plan) && plan.window().slices_per_window() == 1)
    {
        Err("split needs a combinable tumbling aggregation")
    } else if c.split == Split::Forward && (c.row.workers_per_node != 1 || c.crash || c.migrate) {
        Err("forwarding needs one worker per node and no fault tolerance")
    } else if c.crash && c.paced {
        Err(
            "pacing x crash: a paced batch holds whatever the curve released, so epochs \
             re-created from an older checkpoint copy differ (DESIGN §15.3, ROADMAP item 1)",
        )
    } else if c.crash && c.migrate && c.row.workers_per_node > 1 {
        Err(
            "crash of a packed multi-worker host: its copies die with it, and the epochs \
             its workers re-create from the seed copy differ (DESIGN §15.3, ROADMAP item 1)",
        )
    } else {
        Ok(())
    }
}

/// A part of a row's cells; every cell is in exactly one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slice {
    /// No directors, on the simulator: the combiner on and off, paced or not.
    Combiner,
    /// No directors, on the threaded backend or a baseline.
    Engines,
    /// A crash on static placement, nothing split.
    Crash,
    /// Every other cell with a director: splits, migrations, and crashes
    /// combined with them.
    Directors,
}

/// The part of its row `c` is in.
fn slice(c: &Cell) -> Slice {
    if !c.directors() {
        if c.engine == Engine::Sim {
            Slice::Combiner
        } else {
            Slice::Engines
        }
    } else if c.crash && !c.migrate && c.split == Split::None {
        Slice::Crash
    } else {
        Slice::Directors
    }
}

/// Keys the pre-split cells split (key 0 is the zipf row's hottest).
const PRE_SPLIT: &[u64] = &[0, 1];
/// The director-less cells' second seed.
const SEEDS: [u64; 2] = [0x5145, 0xBEEF];

/// 2 nodes × 2 workers × 2,000 records per worker: checkpoints ship
/// during ingest (slowed 64x), joins match, `ysb_hot` combines.
const ROW: Case = Case {
    name: "ysb",
    nodes: 2,
    workers_per_node: 2,
    ckpt_copies: 2,
    size: Size {
        records: 2_000,
        epoch_bytes: 4 * 1024,
        batch_records: 64,
        cpu_slowdown: 64.0,
        detect_timeout: SimTime::from_micros(300),
    },
    workload: w::ysb,
    hosts: None,
    pre_split: &[],
    fixed: Fixed::None,
    migrate: None,
    swept: Swept::Crash(&[]),
    window: Window::Run,
    promotes: &[],
    literal: false,
    combine: true,
};

fn zipf(cfg: &GenConfig) -> Workload {
    w::ysb_zipf_keyed(cfg, 1.1)
}

const fn row(name: &'static str, workload: fn(&GenConfig) -> Workload) -> Case {
    Case {
        name,
        workload,
        ..ROW
    }
}

/// Every row of the matrix. Keyed ingress has one stream per node, so the
/// zipf row — the forwarding row — runs 4 nodes × 1 worker.
pub const ROWS: [Case; 7] = [
    ROW,
    row("ysb_hot", w::ysb_hot),
    row("cm", w::cm),
    row("nb7", w::nb7),
    row("nb8", w::nb8),
    row("nb11", w::nb11),
    Case {
        nodes: 4,
        workers_per_node: 1,
        ..row("ysb_zipf_keyed", zipf)
    },
];

/// The paced cells' sources: slow for the first half millisecond, then
/// four times faster.
fn curve() -> RateCurve {
    RateCurve::new(&[
        (SimTime::ZERO, 1_000_000),
        (SimTime::from_micros(500), 4_000_000),
    ])
}

/// Run `cell` on `input`. The crash and the migration sit at fractions of
/// `span`, the reference cell's ingest time.
fn run(cell: &Cell, input: &Workload, span: SimTime) -> Outcome {
    let last = cell.row.nodes - 1;
    let case = Case {
        combine: cell.combine,
        pre_split: if cell.split == Split::Pre {
            PRE_SPLIT
        } else {
            &[]
        },
        // The last partition starts packed next to partition 0's host
        // and moves to the parked last host a quarter into the run.
        hosts: cell.migrate.then_some(last),
        migrate: cell.migrate.then_some(MigrationCmd {
            partition: last,
            to_host: last,
        }),
        // Port 0 dies seven tenths into the ingest: after the migration
        // committed, before any partition finished.
        fixed: if cell.crash {
            Fixed::Crashes(&[(700, 0)])
        } else {
            Fixed::None
        },
        ..cell.row
    };
    let knobs = Knobs {
        split: (cell.split == Split::Forward).then(|| SplitRunConfig {
            auto: Some(HeatPolicy {
                hot_ppm: 40_000,
                min_total: 500,
                max_splits: 8,
            }),
            sample_every: SimTime::from_micros(20),
            forward: true,
            ..SplitRunConfig::default()
        }),
        pacing: cell.paced.then(curve),
    };
    match cell.engine {
        Engine::Sim => {
            let faults = (cell.crash || cell.migrate).then(|| case.faults(span, None));
            case.run_with(
                input,
                faults.as_ref(),
                &knobs,
                None,
                Obs::disabled(),
                Sim::new(),
            )
            .0
        }
        Engine::Threads => {
            // Every node thread builds its own copy of the plan.
            let gen = cell.row.workload;
            let plan = move || gen(&GenConfig::new(1, 1)).plan;
            let parts = input.partitions.iter().map(|p| p.to_vec()).collect();
            let spec = JobSpec::new(plan, parts, case.config(&knobs));
            Outcome {
                run: ThreadBackend::new().run(spec),
                ..Outcome::default()
            }
        }
        Engine::UpPar | Engine::Flink => {
            // Half of a node's threads partition, half keep state: one
            // sender per Slash worker.
            let (nodes, threads) = (case.nodes, 2 * case.workers_per_node);
            let mut cfg = match cell.engine {
                Engine::UpPar => uppar_config(nodes, threads),
                _ => flink_config(nodes, threads),
            };
            cfg.collect_results = true;
            let r = run_partitioned(input.plan.clone(), input.partitions.clone(), cfg);
            let run = RunReport {
                records: r.records,
                emitted: r.emitted,
                total_pairs: r.total_pairs,
                results: r.results,
                ..RunReport::default()
            };
            Outcome {
                run,
                ..Outcome::default()
            }
        }
    }
}

/// [`run`], with a driver panic (a repair that never came trips the
/// virtual-time budget) turned into the cell's failure.
fn try_run(cell: &Cell, input: &Workload, span: SimTime) -> Result<Outcome, String> {
    catch_unwind(AssertUnwindSafe(|| run(cell, input, span)))
        .map_err(|_| "the run panicked (see stderr)".to_string())
}

/// The two checks against the input, the reference cell's final state,
/// and the counter checks of every feature `cell` turns on.
fn judge(
    cell: &Cell,
    out: &Outcome,
    input: &Workload,
    expected: &Groups,
    state: &[u64],
) -> Vec<String> {
    let mut bad = Vec::new();
    let mut expect = |ok: bool, why: String| {
        if !ok {
            bad.push(why);
        }
    };
    let (run, m) = (&out.run, &out.run.metrics);
    expect(
        run.records == input.records,
        format!("{} records, input has {}", run.records, input.records),
    );
    let verdict = oracle::check(expected, &run.results);
    expect(
        verdict.is_ok(),
        format!("the sequential fold disagrees: {verdict:?}"),
    );
    // The counters agree with what was emitted.
    let pairs = |r: &SinkResult| match *r {
        SinkResult::Agg { .. } => 0,
        SinkResult::Join { pairs, .. } => pairs,
    };
    let emitted = (
        run.results.len() as u64,
        run.results.iter().map(pairs).sum(),
    );
    expect(
        (run.emitted, run.total_pairs) == emitted,
        format!(
            "emitted / pairs {:?}, results {emitted:?}",
            (run.emitted, run.total_pairs)
        ),
    );
    let sub_key = |r: &SinkResult| match *r {
        SinkResult::Agg { key, .. } | SinkResult::Join { key, .. } => key & SUB_KEY_TAG != 0,
    };
    expect(
        !run.results.iter().any(sub_key),
        "an emitted key carries SUB_KEY_TAG".into(),
    );
    if matches!(cell.engine, Engine::UpPar | Engine::Flink) {
        return bad;
    }
    expect(
        run.state_digests == state,
        "final state differs from the reference cell's".into(),
    );
    if !cell.combine || !regroupable(&input.plan) {
        expect(
            m.combiner_folds == 0,
            format!("{} combiner folds", m.combiner_folds),
        );
    } else if cell.row.name == "ysb_hot" {
        let engaged = m.combiner_folds > 0 && m.combiner_flushes < m.combiner_folds;
        expect(
            engaged,
            format!(
                "combiner folds {} flushes {}",
                m.combiner_folds, m.combiner_flushes
            ),
        );
    }
    expect(
        run.net_tx_bytes > 0,
        "no delta crossed between nodes".into(),
    );
    let splits = &out.split.splits;
    match cell.split {
        Split::None => {}
        Split::Pre => {
            let active = splits.len() == PRE_SPLIT.len();
            expect(active, format!("pre-splits active: {splits:?}"));
            expect(
                out.split.forwarded_records == 0,
                "records forwarded with forwarding off".into(),
            );
        }
        Split::Forward => {
            let online = splits.iter().any(|&(_, at)| at > SimTime::ZERO);
            expect(online, format!("no split activated online: {splits:?}"));
            expect(
                out.split.forwarded_records > 0,
                "no record was forwarded".into(),
            );
        }
    }
    let rec = &out.recovery;
    if cell.crash || cell.migrate {
        expect(
            rec.checkpoints_durable > 0,
            "no checkpoint became durable".into(),
        );
    }
    let promoted: BTreeSet<usize> = rec
        .events
        .iter()
        .filter(|e| e.fault == "node-crash" && matches!(e.action, RecoveryAction::Promoted { .. }))
        .map(|e| e.node)
        .collect();
    if cell.crash {
        expect(
            promoted == BTreeSet::from([0]),
            format!("repairs {:?}", rec.events),
        );
        let ttr = rec.max_time_to_recover();
        expect(
            ttr.is_some_and(|t| t > SimTime::ZERO),
            format!("time to recover {ttr:?}"),
        );
    } else {
        expect(
            rec.events.is_empty(),
            format!("repairs without a fault: {:?}", rec.events),
        );
    }
    let rescale = &out.rescale;
    if cell.migrate {
        let nodes = cell.row.nodes;
        let committed = rescale.migrations.iter().filter(|m| !m.aborted).count();
        expect(
            committed == 1,
            format!("migrations {:?}", rescale.migrations),
        );
        expect(
            rescale.peak_hosts == nodes,
            format!("peak hosts {}", rescale.peak_hosts),
        );
        let final_hosts = nodes - usize::from(cell.crash);
        expect(
            rescale.final_hosts == final_hosts,
            format!("final hosts {}", rescale.final_hosts),
        );
        for m in &rescale.migrations {
            let stalled = m.stall() > SimTime::ZERO && m.halted_at >= m.planned_at;
            expect(stalled, format!("a cutover without a stall: {m:?}"));
        }
    }
    bad
}

/// Run every supported cell of row `name` in `slices` at every seed it
/// runs; fail with the list of cells that broke.
pub fn matrix(name: &str, slices: &[Slice]) {
    let row = ROWS
        .into_iter()
        .find(|r| r.name == name)
        .expect("a matrix row");
    let cells: Vec<Cell> = Cell::product(row)
        .into_iter()
        .filter(|c| supported(c).is_ok() && slices.contains(&slice(c)))
        .collect();
    assert!(!cells.is_empty(), "{name}: no supported cell in {slices:?}");
    let mut failures = Vec::new();
    for (i, seed) in SEEDS.into_iter().enumerate() {
        // Every test runs and judges the reference cell itself.
        let at_seed: Vec<&Cell> = cells
            .iter()
            .filter(|c| (i == 0 || !c.directors()) && !c.is_reference())
            .collect();
        if at_seed.is_empty() {
            continue;
        }
        let mut gen = GenConfig::new(row.nodes * row.workers_per_node, row.size.records);
        gen.seed = seed;
        let input = (row.workload)(&gen);
        let expected = oracle::oracle(&input.plan, &input.partitions);
        assert!(
            !expected.is_empty(),
            "{}: the input must produce results",
            row.name
        );
        let reference = Cell::reference(row);
        let base = match try_run(&reference, &input, SimTime::ZERO) {
            Ok(base) => base,
            Err(why) => {
                failures.push(format!("{reference} (seed {seed:#x}): {why}"));
                continue;
            }
        };
        let span = base.run.processing_time;
        let state = &base.run.state_digests;
        let mut verdicts = vec![(
            reference,
            judge(&reference, &base, &input, &expected, state),
        )];
        for &cell in at_seed {
            let bad = match try_run(&cell, &input, span) {
                Ok(out) => judge(&cell, &out, &input, &expected, state),
                Err(why) => vec![why],
            };
            verdicts.push((cell, bad));
        }
        for (cell, bad) in verdicts {
            failures.extend(
                bad.into_iter()
                    .map(|why| format!("{cell} (seed {seed:#x}): {why}")),
            );
        }
    }
    assert!(
        failures.is_empty(),
        "{} {slices:?} failed:\n{}",
        row.name,
        failures.join("\n")
    );
}
