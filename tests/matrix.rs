//! The exactness matrix's cells with a director — splits, migrations and
//! crashes — and every cell of the rows that `tests/equivalence.rs` and
//! `tests/combiner_equivalence.rs` have no test for. The rows, the
//! exclusions and the judge are in `exactness/mod.rs`.

mod exactness;

use std::collections::BTreeSet;

use exactness::{matrix, supported, Cell, Slice, ROWS};

#[test]
fn ysb() {
    matrix("ysb", &[Slice::Crash, Slice::Directors]);
}

/// `combiner_equivalence.rs` runs this row's crash cells.
#[test]
fn ysb_hot() {
    matrix("ysb_hot", &[Slice::Engines, Slice::Directors]);
}

#[test]
fn cm() {
    matrix("cm", &[Slice::Crash, Slice::Directors]);
}

#[test]
fn nb7() {
    matrix("nb7", &[Slice::Crash, Slice::Directors]);
}

#[test]
fn nb8() {
    matrix("nb8", &[Slice::Crash, Slice::Directors]);
}

#[test]
fn nb11() {
    matrix("nb11", &[Slice::Crash, Slice::Directors]);
}

#[test]
fn ysb_zipf_keyed() {
    matrix(
        "ysb_zipf_keyed",
        &[
            Slice::Combiner,
            Slice::Engines,
            Slice::Crash,
            Slice::Directors,
        ],
    );
}

/// An axis that silently loses cells fails here, as does an exclusion
/// nothing reaches.
#[test]
fn every_supported_cell_is_counted() {
    let all: Vec<Cell> = ROWS.into_iter().flat_map(Cell::product).collect();
    let supported_cells = all.iter().filter(|c| supported(c).is_ok()).count();
    let reasons: BTreeSet<&str> = all.iter().filter_map(|c| supported(c).err()).collect();
    assert_eq!((supported_cells, reasons.len()), (160, 6), "{reasons:#?}");
}
