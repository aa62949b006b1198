//! Property-based tests of the exact arithmetic layer: rational field
//! axioms, matrix algebra identities and integer-kernel invariants.
//!
//! Inputs are sampled with the crate's own deterministic [`SplitMix64`]
//! generator (the build is fully offline, so no `proptest`); every case
//! is reproducible from the fixed seeds below.

use polyject_arith::{integer_kernel_basis, Matrix, Rat, SplitMix64};

fn arb_rat(g: &mut SplitMix64) -> Rat {
    Rat::new(g.range_i128(-40, 40), g.range_i128(1, 12))
}

fn mul_vec(m: &Matrix, v: &[Rat]) -> Vec<Rat> {
    let dot = |row: &[Rat]| {
        row.iter()
            .zip(v)
            .fold(Rat::ZERO, |acc, (&a, &b)| acc + a * b)
    };
    (0..m.rows()).map(|i| dot(m.row(i))).collect()
}

fn arb_int_matrix(g: &mut SplitMix64, rows: usize, cols: usize) -> Vec<Vec<i128>> {
    (0..rows).map(|_| g.vec_i128(cols, -6, 7)).collect()
}

#[test]
fn rational_field_axioms() {
    let mut g = SplitMix64::new(0xA11);
    for _ in 0..128 {
        let (a, b, c) = (arb_rat(&mut g), arb_rat(&mut g), arb_rat(&mut g));
        assert_eq!(a + b, b + a);
        assert_eq!(a * b, b * a);
        assert_eq!((a + b) + c, a + (b + c));
        assert_eq!((a * b) * c, a * (b * c));
        assert_eq!(a * (b + c), a * b + a * c);
        assert_eq!(a + Rat::ZERO, a);
        assert_eq!(a * Rat::ONE, a);
        assert_eq!(a - a, Rat::ZERO);
        if !a.is_zero() {
            assert_eq!(a * a.recip(), Rat::ONE);
        }
    }
}

#[test]
fn rational_order_compatible() {
    let mut g = SplitMix64::new(0xB22);
    for _ in 0..128 {
        let (a, b, c) = (arb_rat(&mut g), arb_rat(&mut g), arb_rat(&mut g));
        if a <= b {
            assert!(a + c <= b + c);
            if c.is_positive() {
                assert!(a * c <= b * c);
            }
        }
    }
}

#[test]
fn floor_ceil_consistency() {
    let mut g = SplitMix64::new(0xC33);
    for _ in 0..128 {
        let a = arb_rat(&mut g);
        let f = a.floor();
        let c = a.ceil();
        assert!(Rat::int(f) <= a && a < Rat::int(f + 1));
        assert!(Rat::int(c - 1) < a && a <= Rat::int(c));
        assert!(c - f <= 1);
    }
}

#[test]
fn kernel_basis_annihilates() {
    let mut g = SplitMix64::new(0xE55);
    for _ in 0..128 {
        let m = arb_int_matrix(&mut g, 2, 4);
        let mat = Matrix::from_rows(&m);
        for v in integer_kernel_basis(&m) {
            let rv: Vec<Rat> = v.iter().map(|&x| Rat::int(x)).collect();
            assert!(mul_vec(&mat, &rv).iter().all(Rat::is_zero));
            assert!(v.iter().any(|&x| x != 0), "basis vectors are nonzero");
        }
        // Rank-nullity.
        assert_eq!(mat.rank() + integer_kernel_basis(&m).len(), 4);
    }
}

#[test]
fn solve_produces_solutions() {
    let mut g = SplitMix64::new(0x177);
    for _ in 0..128 {
        let m = arb_int_matrix(&mut g, 3, 3);
        let x = g.vec_i128(3, -5, 6);
        // Construct b = m·x so the system is consistent, then solve.
        let mat = Matrix::from_rows(&m);
        let xr: Vec<Rat> = x.iter().map(|&v| Rat::int(v)).collect();
        let b = mul_vec(&mat, &xr);
        let sol = mat.solve(&b).expect("consistent by construction");
        assert_eq!(mul_vec(&mat, &sol), b);
    }
}
