//! Property-based tests for `rational` against `i128` oracles and
//! algebraic laws that hold at any magnitude.

#![expect(clippy::float_cmp, reason = "f64 round trips are bit-exact")]

use proptest::prelude::*;
use rational::{BigInt, Ratio};

fn big(v: i128) -> BigInt {
    BigInt::from(v)
}

proptest! {
    #[test]
    fn add_matches_i128(a in any::<i64>(), b in any::<i64>()) {
        prop_assert_eq!(big(a as i128) + big(b as i128), big(a as i128 + b as i128));
    }

    #[test]
    fn sub_matches_i128(a in any::<i64>(), b in any::<i64>()) {
        prop_assert_eq!(big(a as i128) - big(b as i128), big(a as i128 - b as i128));
    }

    #[test]
    fn mul_matches_i128(a in any::<i64>(), b in any::<i64>()) {
        prop_assert_eq!(big(a as i128) * big(b as i128), big(a as i128 * b as i128));
    }

    #[test]
    fn divrem_matches_i128(a in any::<i64>(), b in any::<i64>().prop_filter("nonzero", |b| *b != 0)) {
        let (q, r) = big(a as i128).div_rem(&big(b as i128));
        prop_assert_eq!(q, big(a as i128 / b as i128));
        prop_assert_eq!(r, big(a as i128 % b as i128));
    }

    #[test]
    fn divrem_reconstructs_large(a in proptest::collection::vec(any::<u32>(), 1..12),
                                 b in proptest::collection::vec(any::<u32>(), 1..6),
                                 neg_a in any::<bool>(), neg_b in any::<bool>()) {
        // Build operands limb-by-limb via shifts to reach multi-limb sizes.
        let build = |limbs: &[u32], neg: bool| {
            let mut x = BigInt::zero();
            for &l in limbs.iter().rev() {
                x = x.shl_bits(32) + BigInt::from(l);
            }
            if neg { -x } else { x }
        };
        let a = build(&a, neg_a);
        let b = build(&b, neg_b);
        prop_assume!(!b.is_zero());
        let (q, r) = a.div_rem(&b);
        prop_assert_eq!(&q * &b + &r, a.clone());
        prop_assert!(r.abs() < b.abs());
        // Remainder takes the dividend's sign (or is zero).
        if !r.is_zero() {
            prop_assert_eq!(r.is_negative(), a.is_negative());
        }
    }

    #[test]
    fn string_round_trip(a in proptest::collection::vec(any::<u32>(), 0..10), neg in any::<bool>()) {
        let mut x = BigInt::zero();
        for &l in &a {
            x = x.shl_bits(32) + BigInt::from(l);
        }
        if neg { x = -x; }
        let s = x.to_string();
        let back: BigInt = s.parse().unwrap();
        prop_assert_eq!(back, x);
    }

    #[test]
    fn gcd_divides_both(a in any::<i64>(), b in any::<i64>()) {
        let g = big(a as i128).gcd(&big(b as i128));
        if !g.is_zero() {
            prop_assert!((big(a as i128) % &g).is_zero());
            prop_assert!((big(b as i128) % &g).is_zero());
            prop_assert!(!g.is_negative());
        } else {
            prop_assert_eq!(a, 0);
            prop_assert_eq!(b, 0);
        }
    }

    #[test]
    fn shifts_invert(a in any::<u64>(), bits in 0u64..200) {
        let x = BigInt::from(a);
        prop_assert_eq!(x.shl_bits(bits).shr_bits(bits), x);
    }

    #[test]
    fn ratio_field_laws(an in -1000i64..1000, ad in 1i64..50,
                        bn in -1000i64..1000, bd in 1i64..50,
                        cn in -1000i64..1000, cd in 1i64..50) {
        let a = Ratio::from_fraction(an, ad);
        let b = Ratio::from_fraction(bn, bd);
        let c = Ratio::from_fraction(cn, cd);
        // commutativity, associativity, distributivity
        prop_assert_eq!(&a + &b, &b + &a);
        prop_assert_eq!(&a * &b, &b * &a);
        prop_assert_eq!((&a + &b) + &c, &a + (&b + &c));
        prop_assert_eq!((&a * &b) * &c, &a * (&b * &c));
        prop_assert_eq!(&a * (&b + &c), &(&a * &b) + &(&a * &c));
        // additive inverse
        prop_assert_eq!(&a + &(-&a), Ratio::zero());
        // multiplicative inverse
        if !b.is_zero() {
            prop_assert_eq!(&(&a / &b) * &b, a.clone());
        }
    }

    #[test]
    fn ratio_order_agrees_with_f64(an in -10_000i64..10_000, ad in 1i64..1000,
                                   bn in -10_000i64..10_000, bd in 1i64..1000) {
        let a = Ratio::from_fraction(an, ad);
        let b = Ratio::from_fraction(bn, bd);
        let fa = an as f64 / ad as f64;
        let fb = bn as f64 / bd as f64;
        if (fa - fb).abs() > 1e-9 {
            prop_assert_eq!(a < b, fa < fb);
        }
    }

    #[test]
    fn ratio_from_f64_is_exact(v in -1.0e12f64..1.0e12) {
        let q = Ratio::from_f64(v).unwrap();
        prop_assert_eq!(q.to_f64(), v);
    }

    #[test]
    fn floor_ceil_bracket(an in -10_000i64..10_000, ad in 1i64..100) {
        let a = Ratio::from_fraction(an, ad);
        let f = Ratio::from(a.floor());
        let c = Ratio::from(a.ceil());
        prop_assert!(f <= a && a <= c);
        prop_assert!(&c - &f <= Ratio::one());
        if a.is_integer() {
            prop_assert_eq!(f, c);
        }
    }

    #[test]
    fn pow_is_repeated_mul(an in -20i64..20, ad in 1i64..10, e in 0i32..6) {
        let a = Ratio::from_fraction(an, ad);
        let mut expect = Ratio::one();
        for _ in 0..e {
            expect = &expect * &a;
        }
        prop_assert_eq!(a.pow(e), expect);
    }
}
