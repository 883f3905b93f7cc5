//! Property-based tests for the NTT library: transform laws that must
//! hold for arbitrary inputs and ring sizes.

use proptest::prelude::*;
use rpu_ntt::testutil::{cached_prime, plan128, schoolbook_negacyclic};
use rpu_ntt::{apply_automorphism, evaluation_map, Ntt128Plan, Ntt64Plan};

/// A random ring degree 2^k for k in 1..=9 and a seed.
fn arb_ring() -> impl Strategy<Value = (usize, u64)> {
    ((1u32..=9), any::<u64>()).prop_map(|(k, seed)| (1usize << k, seed))
}

fn random_residues(n: usize, q: u128, seed: u64) -> Vec<u128> {
    rpu_ntt::testutil::test_vector(n, q, seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn plan128_round_trip((n, seed) in arb_ring()) {
        let p = plan128(n);
        let orig = random_residues(n, p.modulus().value(), seed);
        let mut x = orig.clone();
        p.forward(&mut x);
        p.inverse(&mut x);
        prop_assert_eq!(x, orig);
    }

    #[test]
    fn ntt_is_linear((n, seed) in arb_ring(), c in any::<u128>()) {
        let p = plan128(n);
        let q = p.modulus();
        let c = q.reduce(c);
        let a = random_residues(n, q.value(), seed);
        let scaled: Vec<u128> = a.iter().map(|&v| q.mul(v, c)).collect();
        let mut fa = a.clone();
        let mut fs = scaled.clone();
        p.forward(&mut fa);
        p.forward(&mut fs);
        for i in 0..n {
            prop_assert_eq!(fs[i], q.mul(fa[i], c));
        }
    }

    #[test]
    fn convolution_theorem((seed_a, seed_b) in (any::<u64>(), any::<u64>())) {
        let n = 32usize;
        let p = plan128(n);
        let q = p.modulus();
        let a = random_residues(n, q.value(), seed_a);
        let b = random_residues(n, q.value(), seed_b);
        prop_assert_eq!(
            p.negacyclic_mul(&a, &b),
            schoolbook_negacyclic(q, &a, &b)
        );
    }

    #[test]
    fn plan64_and_plan128_agree(seed in any::<u64>()) {
        let n = 128usize;
        let q = cached_prime(59, 2 * n as u128) as u64;
        let p64 = Ntt64Plan::new(n, q).expect("valid parameters");
        let p128 = Ntt128Plan::new(n, q as u128).expect("valid parameters");
        let a: Vec<u64> = random_residues(n, q as u128, seed)
            .into_iter().map(|v| v as u64).collect();
        let mut x64 = a.clone();
        let mut x128: Vec<u128> = a.iter().map(|&v| v as u128).collect();
        p64.forward(&mut x64);
        p128.forward(&mut x128);
        let widened: Vec<u128> = x64.iter().map(|&v| v as u128).collect();
        prop_assert_eq!(widened, x128);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// `σ_g` on coefficients, transformed, is the evaluation routing of
    /// `σ_g` applied to the transform — at every degree 2 … 4096, under a
    /// 59-bit and a 126-bit modulus, for `g` ∈ {1, 3, 5, 5^k, 2n − 1}.
    #[test]
    fn automorphism_is_a_permutation_of_evaluations(seed in any::<u64>(), k in any::<usize>()) {
        for n in (1..=12).map(|b| 1usize << b) {
            let g_k = rpu_ntt::galois_element(n, k % n);
            for q in [cached_prime(59, 2 * n as u128), cached_prime(126, 2 * n as u128)] {
                let plan = Ntt128Plan::new(n, q).unwrap();
                let forward = |mut x: Vec<u128>| {
                    plan.forward(&mut x);
                    x
                };
                let x = random_residues(n, q, seed);
                let fx = forward(x.clone());
                for g in [1, 3, 5, g_k, 2 * n - 1] {
                    let want = forward(apply_automorphism(&x, g, q).unwrap());
                    let map = evaluation_map(n, g).unwrap();
                    let got: Vec<u128> = map.iter().map(|&p| fx[p]).collect();
                    prop_assert_eq!(got, want, "n={} g={} q={}", n, g, q);
                }
            }
        }
    }
}
