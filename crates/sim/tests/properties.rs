//! Property-based tests of the simulation substrate.

use cr_sim::check::{check, Config};
use cr_sim::{Cycle, Ring, Rng, SimRng};
use std::collections::VecDeque;

/// Operations for the ring model test.
#[derive(Debug, Clone, Copy)]
enum Op {
    Push(u32),
    Pop,
    Clear,
    RetainEven,
}

/// A [`Ring`] over its segment behaves exactly like a capacity-checked
/// `VecDeque` under arbitrary operation sequences, wraparound included.
#[test]
fn ring_matches_vecdeque_model() {
    check("ring_matches_vecdeque_model", Config::default(), |src| {
        let capacity = src.usize_in(1..16);
        let ops = src.vec_with(0..200, |s| match s.weighted(&[4, 3, 1, 1]) {
            0 => Op::Push(s.u64_any() as u32),
            1 => Op::Pop,
            2 => Op::Clear,
            _ => Op::RetainEven,
        });
        let mut seg = vec![0u32; capacity];
        let mut ring = Ring::default();
        let mut model: VecDeque<u32> = VecDeque::new();
        for op in ops {
            match op {
                Op::Push(v) => {
                    let expect_ok = model.len() < capacity;
                    let got = ring.push(&mut seg, v);
                    assert_eq!(got.is_ok(), expect_ok);
                    if expect_ok {
                        model.push_back(v);
                    } else {
                        assert_eq!(got, Err(v), "rejected item returned");
                    }
                }
                Op::Pop => {
                    assert_eq!(ring.pop(&seg), model.pop_front());
                }
                Op::Clear => {
                    let n = ring.retain(&mut seg, |_| false);
                    assert_eq!(n, model.len());
                    model.clear();
                }
                Op::RetainEven => {
                    let removed = ring.retain(&mut seg, |x| x % 2 == 0);
                    let before = model.len();
                    model.retain(|x| x % 2 == 0);
                    assert_eq!(removed, before - model.len());
                }
            }
            assert_eq!(ring.len(), model.len());
            assert_eq!(ring.is_empty(), model.is_empty());
            assert_eq!(ring.front(&seg).copied(), model.front().copied());
            let a: Vec<u32> = ring.iter(&seg).copied().collect();
            let b: Vec<u32> = model.iter().copied().collect();
            assert_eq!(a, b);
        }
    });
}

/// Split streams never collide with the parent or each other for
/// reasonable stream counts, and are reproducible.
#[test]
fn rng_splits_are_stable_and_distinct() {
    check("rng_splits_are_stable_and_distinct", Config::default(), |src| {
        let seed = src.u64_any();
        let root = SimRng::from_seed(seed);
        let mut firsts = std::collections::HashSet::new();
        for stream in 0..128u64 {
            let mut a = root.split(stream);
            let mut b = root.split(stream);
            let va = a.next_u64();
            assert_eq!(va, b.next_u64(), "split not reproducible");
            assert!(firsts.insert(va), "stream collision at {stream}");
        }
    });
}

/// `chance(p)` over many trials lands near `p` for any seed.
#[test]
fn chance_is_calibrated() {
    check("chance_is_calibrated", Config::default(), |src| {
        let seed = src.u64_any();
        let p = f64::from(src.u32_in(0..1001)) / 1000.0;
        let mut rng = SimRng::from_seed(seed);
        let n = 4000;
        let hits = (0..n).filter(|_| rng.chance(p)).count();
        let frac = hits as f64 / n as f64;
        assert!((frac - p).abs() < 0.05, "p={p} frac={frac}");
    });
}

/// Cycle arithmetic is consistent: `(a + d) - a == d` and saturating
/// subtraction never underflows.
#[test]
fn cycle_arithmetic_laws() {
    check("cycle_arithmetic_laws", Config::default(), |src| {
        let a = src.u64_in(0..u64::MAX / 2);
        let d = src.u64_in(0..1_000_000);
        let t = Cycle::new(a);
        let later = t + d;
        assert_eq!(later - t, d);
        assert_eq!(later.saturating_since(t), d);
        assert_eq!(t.saturating_since(later), 0);
        let mut u = t;
        u.tick();
        assert_eq!(u - t, 1);
    });
}

/// `pick` always returns an element of the slice; `pick_index` stays
/// in range.
#[test]
fn pick_stays_in_bounds() {
    check("pick_stays_in_bounds", Config::default(), |src| {
        let seed = src.u64_any();
        let len = src.usize_in(1..64);
        let mut rng = SimRng::from_seed(seed);
        let items: Vec<usize> = (0..len).collect();
        for _ in 0..32 {
            let v = *rng.pick(&items).unwrap();
            assert!(v < len);
            let i = rng.pick_index(len).unwrap();
            assert!(i < len);
        }
    });
}
