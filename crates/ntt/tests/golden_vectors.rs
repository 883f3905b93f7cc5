//! Golden-vector tests: the fast transform (the iterative plan, at 64
//! and at 128 bits) is checked element-for-element against the naive
//! `O(n²)` reference in `rpu_ntt::baseline`, for small rings in both
//! directions; and one fixed seed's scheme output is pinned as literals.

use rpu_arith::{bit_reverse, Modulus128};
use rpu_ntt::baseline::{naive_forward, naive_inverse};
use rpu_ntt::leveled::LeveledContext;
use rpu_ntt::rlwe::{RlweContext, RlweParams, Splitmix};
use rpu_ntt::{Ntt128Plan, Ntt64Plan, Polynomial};

const SIZES: [usize; 3] = [8, 16, 64];

/// A deterministic non-trivial input polynomial.
fn input(n: usize, q: u128) -> Vec<u128> {
    (0..n as u128)
        .map(|i| (i * i * 2654435761 + 40503 * i + 17) % q)
        .collect()
}

#[test]
fn naive_reference_round_trips() {
    for n in SIZES {
        let q = rpu_arith::find_ntt_prime_u128(40, 2 * n as u128).expect("prime exists");
        let m = Modulus128::new(q).unwrap();
        let plan = Ntt128Plan::new(n, q).unwrap();
        let x = input(n, q);
        assert_eq!(
            naive_inverse(m, plan.psi(), &naive_forward(m, plan.psi(), &x)),
            x,
            "n={n}"
        );
    }
}

#[test]
fn plan128_forward_matches_naive() {
    for n in SIZES {
        let q = rpu_arith::find_ntt_prime_u128(126, 2 * n as u128).expect("prime exists");
        let plan = Ntt128Plan::new(n, q).unwrap();
        let m = plan.modulus();
        let x = input(n, q);
        let golden = naive_forward(m, plan.psi(), &x);
        let mut fast = x.clone();
        plan.forward(&mut fast);
        // plan output is bit-reversed: fast[bitrev(i)] = X_i
        for i in 0..n {
            assert_eq!(
                fast[bit_reverse(i, plan.log_degree())],
                golden[i],
                "n={n} i={i}"
            );
        }
    }
}

#[test]
fn plan128_inverse_matches_naive() {
    for n in SIZES {
        let q = rpu_arith::find_ntt_prime_u128(126, 2 * n as u128).expect("prime exists");
        let plan = Ntt128Plan::new(n, q).unwrap();
        let m = plan.modulus();
        // An arbitrary "spectrum", laid out in the plan's bit-reversed order.
        let spectrum = input(n, q);
        let mut fast = vec![0u128; n];
        for i in 0..n {
            fast[bit_reverse(i, plan.log_degree())] = spectrum[i];
        }
        plan.inverse(&mut fast);
        assert_eq!(fast, naive_inverse(m, plan.psi(), &spectrum), "n={n}");
    }
}

#[test]
fn plan64_forward_matches_naive() {
    for n in SIZES {
        let q = rpu_arith::find_ntt_prime_u64(59, 2 * n as u64).expect("prime exists");
        let plan = Ntt64Plan::new(n, q).unwrap();
        let m = Modulus128::new(q as u128).unwrap();
        let x64: Vec<u64> = input(n, q as u128).iter().map(|&v| v as u64).collect();
        let x: Vec<u128> = x64.iter().map(|&v| v as u128).collect();
        let golden = naive_forward(m, plan.psi() as u128, &x);
        let mut fast = x64.clone();
        plan.forward(&mut fast);
        for i in 0..n {
            assert_eq!(
                fast[bit_reverse(i, plan.log_degree())] as u128,
                golden[i],
                "n={n} i={i}"
            );
        }
    }
}

#[test]
fn plan64_inverse_matches_naive() {
    for n in SIZES {
        let q = rpu_arith::find_ntt_prime_u64(59, 2 * n as u64).expect("prime exists");
        let plan = Ntt64Plan::new(n, q).unwrap();
        let m = Modulus128::new(q as u128).unwrap();
        let spectrum64: Vec<u64> = input(n, q as u128).iter().map(|&v| v as u64).collect();
        let spectrum: Vec<u128> = spectrum64.iter().map(|&v| v as u128).collect();
        let mut fast = vec![0u64; n];
        for i in 0..n {
            fast[bit_reverse(i, plan.log_degree())] = spectrum64[i];
        }
        plan.inverse(&mut fast);
        let widened: Vec<u128> = fast.iter().map(|&v| v as u128).collect();
        assert_eq!(
            widened,
            naive_inverse(m, plan.psi() as u128, &spectrum),
            "n={n}"
        );
    }
}

/// The first two words of `p` (evaluation form, as stored).
fn head(p: &Polynomial) -> [u128; 2] {
    [p.values()[0], p.values()[1]]
}

#[test]
fn scheme_vector_of_a_fixed_seed() {
    // Host and device sample through one copy of each draw, so no
    // differential suite notices a reordered draw: this pins the stream,
    // the secret key and a ciphertext of one seed as literals, on one
    // 126-bit single-modulus context and a two-tower 59-bit chain.
    const N: usize = 64;
    const T: u128 = 257;
    const SEED: u64 = 0x601D_5EED;
    let message: Vec<u128> = (0..N as u128).map(|i| (i * 5 + 3) % T).collect();

    let mut rng = Splitmix::new(SEED);
    let draws = [rng.next_u64(), rng.next_u64(), rng.next_u64()];
    assert_eq!(
        draws,
        [
            2577022850582050420,
            9112579856464184963,
            4643397193641111637
        ]
    );

    let q = rpu_arith::find_ntt_prime_u128(126, 2 * N as u128).expect("prime exists");
    assert_eq!(q, 85070591730234615865843651857942040321);
    let ctx = RlweContext::new(RlweParams { n: N, q, t: T }).expect("valid parameters");
    let mut rng = Splitmix::new(SEED);
    let sk = ctx.keygen(&mut rng);
    let mut s = Polynomial::from_coeffs(ctx.plan(0), sk.s_coeffs(0)).expect("length matches");
    s.to_evaluation();
    let ct = ctx.encrypt(&sk, &message, &mut rng);
    assert_eq!(
        head(&s),
        [
            84512650758308859834705225146793662930,
            84837771519957842348929190519772203919
        ],
        "secret key"
    );
    assert_eq!(
        head(ct.a()),
        [
            78820043334569714335402809446350594783,
            34440576345582269721268252140769887630
        ],
        "mask"
    );
    assert_eq!(
        head(ct.b()),
        [
            60919365250776941842686705458060094437,
            64148541985058954216291430431591129947
        ],
        "payload"
    );

    let lv = LeveledContext::generate(N, T, 59, 2).expect("two 59-bit primes exist");
    assert_eq!(
        lv.chain().primes(),
        [576460752303421441, 576460752301941121]
    );
    let mut rng = Splitmix::new(SEED);
    let sk = lv.keygen(&mut rng);
    let ct = lv.encrypt(&sk, &message, &mut rng);
    let towers = |k: usize| {
        [
            head(&sk.towers()[k]),
            head(&ct.a_towers()[k]),
            head(&ct.b_towers()[k]),
        ]
    };
    assert_eq!(
        towers(0),
        [
            [552181817879492879, 93472707574273254],
            [520523745382162715, 327926330845836000],
            [230967169135133682, 268558866087112485]
        ],
        "tower 0: secret key, mask, payload"
    );
    assert_eq!(
        towers(1),
        [
            [220398836559562696, 209419794682502544],
            [328471555392376185, 83511772444935642],
            [13805917012177733, 437029821382573636]
        ],
        "tower 1: secret key, mask, payload"
    );
}
