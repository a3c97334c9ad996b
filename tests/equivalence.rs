//! Property P2 (paper §5.1) across engines: the threaded backend and the
//! UpPar and Flink baselines emit exactly what the sequential fold of the
//! same input emits — aggregations to the value, joins in pair counts per
//! (window, key) and in pair totals — and a threaded run ends in the
//! simulator's final state. These are the director-less cells of the
//! exactness matrix (`exactness/mod.rs`) off the simulator.

mod exactness;

use exactness::{matrix, Slice};

#[test]
fn ysb_all_engines_match_the_sequential_oracle() {
    matrix("ysb", &[Slice::Engines]);
}

#[test]
fn nb7_max_aggregation_matches_oracle_under_pareto_skew() {
    matrix("nb7", &[Slice::Engines]);
}

#[test]
fn cm_mean_aggregation_matches_oracle() {
    matrix("cm", &[Slice::Engines]);
}

#[test]
fn nb8_join_pairs_match_between_engines_and_oracle() {
    matrix("nb8", &[Slice::Engines]);
}

/// NB11's session join: a tumbling bucket `gap` wide, paired whole.
#[test]
fn nb11_session_join_matches_between_engines_and_oracle() {
    matrix("nb11", &[Slice::Engines]);
}
