//! Property P2 (paper §5.1): a distributed computation over a stream must
//! produce the same output a sequential computation would — end to end,
//! for every engine and every workload family.
//!
//! The oracle is `slash_verify::oracle`: a plain sequential fold over the
//! same generated partitions; engines must match it exactly (aggregations)
//! or in pair counts (joins).

use slash::baselines::partitioned::{run_partitioned, PartitionedConfig, Transport};
use slash::core::{RunConfig, SinkResult, SlashCluster};
use slash::workloads::{cm, nb11, nb7, nb8, ysb, GenConfig, Workload};
use slash_exec::{JobSpec, Scheduler, ThreadBackend};
use slash_verify::oracle::{check, oracle, Groups};

fn assert_equal(expected: &Groups, got: &[SinkResult], sut: &str) {
    check(expected, got).unwrap_or_else(|e| panic!("{sut}: {e}"));
}

fn slash_results(w: Workload, nodes: usize, workers: usize) -> Vec<SinkResult> {
    assert_eq!(w.partitions.len(), nodes * workers);
    let mut cfg = RunConfig::new(nodes, workers);
    cfg.collect_results = true;
    cfg.epoch_bytes = 64 * 1024; // frequent epochs stress the protocol
    SlashCluster::run(w.plan, w.partitions, cfg).results
}

fn partitioned_results(
    w: Workload,
    nodes: usize,
    workers: usize,
    transport: Transport,
    rf: f64,
) -> Vec<SinkResult> {
    let mut cfg = PartitionedConfig::new(nodes, workers, transport);
    cfg.runtime_factor = rf;
    cfg.collect_results = true;
    run_partitioned(w.plan, w.partitions, cfg).results
}

#[test]
fn ysb_all_engines_match_the_sequential_oracle() {
    // Same partitions for everyone: 4 source streams.
    let w = ysb(&GenConfig::new(4, 5_000));
    let expected = oracle(&w.plan, &w.partitions);
    assert!(!expected.is_empty());

    let slash = slash_results(ysb(&GenConfig::new(4, 5_000)), 2, 2);
    assert_equal(&expected, &slash, "slash");

    // UpPar with 2 nodes × 4 workers has 2 senders/node = 4 sources.
    let uppar = partitioned_results(
        ysb(&GenConfig::new(4, 5_000)),
        2,
        4,
        Transport::Rdma,
        1.0,
    );
    assert_equal(&expected, &uppar, "uppar");

    let flink = partitioned_results(
        ysb(&GenConfig::new(4, 5_000)),
        2,
        4,
        Transport::Socket,
        3.5,
    );
    assert_equal(&expected, &flink, "flink");
}

#[test]
fn nb7_max_aggregation_matches_oracle_under_pareto_skew() {
    let w = nb7(&GenConfig::new(4, 4_000));
    let expected = oracle(&w.plan, &w.partitions);
    let slash = slash_results(nb7(&GenConfig::new(4, 4_000)), 2, 2);
    assert_equal(&expected, &slash, "slash");
    let uppar = partitioned_results(
        nb7(&GenConfig::new(4, 4_000)),
        2,
        4,
        Transport::Rdma,
        1.0,
    );
    assert_equal(&expected, &uppar, "uppar");
}

#[test]
fn cm_mean_aggregation_matches_oracle() {
    let w = cm(&GenConfig::new(6, 3_000));
    let expected = oracle(&w.plan, &w.partitions);
    let slash = slash_results(cm(&GenConfig::new(6, 3_000)), 3, 2);
    assert_equal(&expected, &slash, "slash");
}

/// Join pair counts per (window, key) must agree with the sequential
/// oracle on both engines, and on both Slash backends: the simulator and
/// the threaded runtime (OS threads, SPSC delta links).
fn join_pairs_match_the_oracle(name: &str, gen: fn(&GenConfig) -> Workload, records: u64) {
    let w = gen(&GenConfig::new(4, records));
    let expected = oracle(&w.plan, &w.partitions);
    assert!(!expected.is_empty(), "{name}: the join must produce matches");
    let expected_total = expected.values().sum::<f64>() as u64;

    let mut cfg = RunConfig::new(2, 2);
    cfg.collect_results = true;
    let inputs: Vec<Vec<u8>> = w.partitions.iter().map(|p| p.to_vec()).collect();
    let slash = SlashCluster::run(w.plan, w.partitions, cfg);
    assert_eq!(slash.total_pairs, expected_total, "{name}: slash pair total");
    assert_equal(&expected, &slash.results, &format!("{name}/slash"));

    // Every node thread builds its own copy of the plan.
    let spec = JobSpec::new(move || gen(&GenConfig::new(1, 1)).plan, inputs, cfg);
    let threaded = ThreadBackend::new().run(spec);
    assert_eq!(threaded.total_pairs, expected_total, "{name}: threaded pair total");
    assert_equal(&expected, &threaded.results, &format!("{name}/slash-threaded"));

    let w = gen(&GenConfig::new(4, records));
    let mut cfg = PartitionedConfig::new(2, 4, Transport::Rdma);
    cfg.collect_results = true;
    let uppar = run_partitioned(w.plan, w.partitions, cfg);
    assert_eq!(uppar.total_pairs, expected_total, "{name}: uppar pair total");
    assert_equal(&expected, &uppar.results, &format!("{name}/uppar"));
}

#[test]
fn nb8_join_pairs_match_between_engines_and_oracle() {
    join_pairs_match_the_oracle("nb8", nb8, 2_500);
}

/// NB11's session join: a tumbling bucket `gap` wide, paired whole.
#[test]
fn nb11_session_join_matches_between_engines_and_oracle() {
    join_pairs_match_the_oracle("nb11", nb11, 2_000);
}
