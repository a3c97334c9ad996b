//! Property tests of the CRDT algebraic laws (paper §5.1).
//!
//! The epoch protocol's convergence proof rests on each state's merge
//! being a commutative, associative operation with the init value as
//! identity. These tests check the laws for every shipped CRDT over
//! arbitrary update sequences, driven by seeded `DetRng` loops so the
//! suite runs fully offline and every failure reproduces from its seed.

use slash_desim::DetRng;
use slash_state::descriptor::StateDescriptor;
use slash_state::{CounterCrdt, MaxCrdt, MeanCrdt, MinCrdt};

fn zeroed(d: &StateDescriptor) -> Vec<u8> {
    let mut v = vec![0u8; d.fixed_size()];
    (d.init)(&mut v);
    v
}

/// Check merge laws for a descriptor given three arbitrary states.
fn check_laws(d: &StateDescriptor, a: &[u8], b: &[u8], c: &[u8], approx: bool) {
    let eq = |x: &[u8], y: &[u8]| {
        if approx {
            // f64 payloads: compare numerically to tolerate association
            // rounding.
            let fx = f64::from_le_bytes(x[..8].try_into().unwrap());
            let fy = f64::from_le_bytes(y[..8].try_into().unwrap());
            (fx - fy).abs() <= 1e-9 * fx.abs().max(fy.abs()).max(1.0) && x[8..] == y[8..]
        } else {
            x == y
        }
    };

    // Commutativity: a ⊔ b == b ⊔ a.
    let mut ab = a.to_vec();
    (d.merge)(&mut ab, b);
    let mut ba = b.to_vec();
    (d.merge)(&mut ba, a);
    assert!(eq(&ab, &ba), "merge not commutative: {ab:?} vs {ba:?}");

    // Associativity: (a ⊔ b) ⊔ c == a ⊔ (b ⊔ c).
    let mut ab_c = ab.clone();
    (d.merge)(&mut ab_c, c);
    let mut bc = b.to_vec();
    (d.merge)(&mut bc, c);
    let mut a_bc = a.to_vec();
    (d.merge)(&mut a_bc, &bc);
    assert!(eq(&ab_c, &a_bc), "merge not associative");

    // Identity: a ⊔ 0 == a.
    let mut a0 = a.to_vec();
    (d.merge)(&mut a0, &zeroed(d));
    assert!(eq(&a0, a), "init is not the merge identity");
}

/// Uniform f64 in `[lo, hi)`.
fn f64_in(rng: &mut DetRng, lo: f64, hi: f64) -> f64 {
    lo + rng.next_f64() * (hi - lo)
}

const CASES: u64 = 256;

#[test]
fn counter_laws() {
    let d = CounterCrdt::descriptor();
    for seed in 0..CASES {
        let mut rng = DetRng::new(0x11 ^ seed.wrapping_mul(0x9E3779B9));
        let mk = |rng: &mut DetRng| {
            let mut v = zeroed(&d);
            CounterCrdt::add(&mut v, rng.next_below(1 << 40));
            v
        };
        let (a, b, c) = (mk(&mut rng), mk(&mut rng), mk(&mut rng));
        check_laws(&d, &a, &b, &c, false);
    }
}

#[test]
fn max_laws() {
    let d = MaxCrdt::descriptor();
    for seed in 0..CASES {
        let mut rng = DetRng::new(0x33 ^ seed.wrapping_mul(0x9E3779B9));
        let mk = |rng: &mut DetRng| {
            let mut v = zeroed(&d);
            MaxCrdt::update(&mut v, rng.next_u64());
            v
        };
        let (a, b, c) = (mk(&mut rng), mk(&mut rng), mk(&mut rng));
        check_laws(&d, &a, &b, &c, false);
    }
}

#[test]
fn min_laws() {
    let d = MinCrdt::descriptor();
    for seed in 0..CASES {
        let mut rng = DetRng::new(0x44 ^ seed.wrapping_mul(0x9E3779B9));
        let mk = |rng: &mut DetRng| {
            let mut v = zeroed(&d);
            MinCrdt::update(&mut v, rng.next_u64());
            v
        };
        let (a, b, c) = (mk(&mut rng), mk(&mut rng), mk(&mut rng));
        check_laws(&d, &a, &b, &c, false);
    }
}

#[test]
fn mean_laws() {
    let d = MeanCrdt::descriptor();
    for seed in 0..CASES {
        let mut rng = DetRng::new(0x55 ^ seed.wrapping_mul(0x9E3779B9));
        let mk = |rng: &mut DetRng| {
            let mut v = zeroed(&d);
            let n_obs = rng.next_below(8);
            for _ in 0..n_obs {
                MeanCrdt::observe(&mut v, f64_in(rng, -1e6, 1e6));
            }
            v
        };
        let (a, b, c) = (mk(&mut rng), mk(&mut rng), mk(&mut rng));
        check_laws(&d, &a, &b, &c, true);
    }
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
