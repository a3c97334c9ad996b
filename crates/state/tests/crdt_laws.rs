//! Property tests of the CRDT algebraic laws (paper §5.1).
//!
//! The epoch protocol's convergence proof rests on each state's merge
//! being a commutative, associative operation with the init value as
//! identity. These tests check the laws for every shipped CRDT over
//! arbitrary update sequences, driven by seeded `DetRng` loops so the
//! suite runs fully offline and every failure reproduces from its seed.
//! How two states compare follows from the descriptor's class.

use slash_desim::DetRng;
use slash_state::descriptor::StateDescriptor;
use slash_state::{CounterCrdt, HllCrdt, MaxCrdt, MeanCrdt, MinCrdt, ValueKind};

fn zeroed(d: &StateDescriptor) -> Vec<u8> {
    let mut v = vec![0u8; d.fixed_size()];
    (d.init)(&mut v);
    v
}

/// Equality as `d`'s class promises it: bit for bit, except an `Inexact`
/// state's leading f64 sum, which association may round.
fn eq(d: &StateDescriptor, x: &[u8], y: &[u8]) -> bool {
    match d.kind {
        ValueKind::Inexact { .. } => {
            let fx = f64::from_le_bytes(x[..8].try_into().unwrap());
            let fy = f64::from_le_bytes(y[..8].try_into().unwrap());
            (fx - fy).abs() <= 1e-9 * fx.abs().max(fy.abs()).max(1.0) && x[8..] == y[8..]
        }
        ValueKind::Exact { .. } | ValueKind::Appended => x == y,
    }
}

/// Check merge laws for a descriptor given three states folded from init.
fn check_laws(d: &StateDescriptor, a: &[u8], b: &[u8], c: &[u8]) {
    // Commutativity: a ⊔ b == b ⊔ a.
    let mut ab = a.to_vec();
    (d.merge)(&mut ab, b);
    let mut ba = b.to_vec();
    (d.merge)(&mut ba, a);
    assert!(eq(d, &ab, &ba), "merge not commutative: {ab:?} vs {ba:?}");

    // Associativity: (a ⊔ b) ⊔ c == a ⊔ (b ⊔ c).
    let mut ab_c = ab.clone();
    (d.merge)(&mut ab_c, c);
    let mut bc = b.to_vec();
    (d.merge)(&mut bc, c);
    let mut a_bc = a.to_vec();
    (d.merge)(&mut a_bc, &bc);
    assert!(eq(d, &ab_c, &a_bc), "merge not associative");

    // Right identity: a ⊔ 0 == a.
    let mut a0 = a.to_vec();
    (d.merge)(&mut a0, &zeroed(d));
    assert!(eq(d, &a0, a), "init is not the merge identity");

    // Left identity, bit for bit in every class: 0 ⊔ a == a. A partial
    // that meets absent state is copied in instead of merged into init
    // (`StateDescriptor::merge_partial`); the two must not differ.
    let mut zero_a = zeroed(d);
    (d.merge)(&mut zero_a, a);
    assert_eq!(zero_a, a, "merging into init is not a copy");
}

/// Uniform f64 in `[lo, hi)`.
fn f64_in(rng: &mut DetRng, lo: f64, hi: f64) -> f64 {
    lo + rng.next_f64() * (hi - lo)
}

const CASES: u64 = 256;

/// The laws over `CASES` seeded triples of states, each folded from init
/// by up to seven `update`s (none: init itself).
fn laws(d: StateDescriptor, salt: u64, update: impl Fn(&mut DetRng, &mut [u8])) {
    for seed in 0..CASES {
        let mut rng = DetRng::new(salt ^ seed.wrapping_mul(0x9E3779B9));
        let mut mk = || {
            let mut v = zeroed(&d);
            for _ in 0..rng.next_below(8) {
                update(&mut rng, &mut v);
            }
            v
        };
        let (a, b, c) = (mk(), mk(), mk());
        check_laws(&d, &a, &b, &c);
    }
}

#[test]
fn counter_laws() {
    laws(CounterCrdt::descriptor(), 0x11, |rng, v| {
        CounterCrdt::add(v, rng.next_below(1 << 40))
    });
}

#[test]
fn max_laws() {
    laws(MaxCrdt::descriptor(), 0x33, |rng, v| {
        MaxCrdt::update(v, rng.next_u64())
    });
}

#[test]
fn min_laws() {
    laws(MinCrdt::descriptor(), 0x44, |rng, v| {
        MinCrdt::update(v, rng.next_u64())
    });
}

#[test]
fn hll_laws() {
    laws(HllCrdt::descriptor(), 0x77, |rng, v| {
        HllCrdt::observe(v, rng.next_u64())
    });
}

/// Observations include `-0.0` and values cancelled to zero: a sum folded
/// from `+0.0` stays off `-0.0` under IEEE 754 round-to-nearest, which is
/// what makes the left identity bitwise for the float class too.
#[test]
fn mean_laws() {
    laws(MeanCrdt::descriptor(), 0x55, |rng, v| {
        match rng.next_below(4) {
            0 => MeanCrdt::observe(v, -0.0),
            1 => {
                let x = f64_in(rng, -1e6, 1e6);
                MeanCrdt::observe(v, x);
                MeanCrdt::observe(v, -x);
            }
            _ => MeanCrdt::observe(v, f64_in(rng, -1e6, 1e6)),
        }
    });
}

/// Merging k partial counters in any grouping equals a sequential fold —
/// the late-merge correctness statement (property P2) at the CRDT level.
#[test]
fn partials_merge_to_sequential_total() {
    let d = CounterCrdt::descriptor();
    for seed in 0..CASES {
        let mut rng = DetRng::new(0x66 ^ seed.wrapping_mul(0x9E3779B9));
        let n_updates = 1 + rng.next_below(99) as usize;
        let mut partials: Vec<Vec<u8>> = (0..4).map(|_| zeroed(&d)).collect();
        let mut sequential: u64 = 0;
        for _ in 0..n_updates {
            let who = rng.next_below(4) as usize;
            let x = 1 + rng.next_below(999);
            CounterCrdt::add(&mut partials[who], x);
            sequential += x;
        }
        let mut acc = zeroed(&d);
        for p in &partials {
            (d.merge)(&mut acc, p);
        }
        assert_eq!(CounterCrdt::get(&acc), sequential, "seed {seed}");
    }
}
