//! Criterion micro-benchmarks for the modular-arithmetic substrate:
//! the software cost of the operations a single LAW engine lane performs.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rpu_arith::{Engine, Modulus128, Modulus64, U256};

fn bench_mod64(c: &mut Criterion) {
    let q = rpu_arith::find_ntt_prime_u64(60, 1 << 17).expect("prime exists");
    let m = Modulus64::new(q).expect("in range");
    let a = q / 3;
    let b = q / 7;
    let w = q / 11;
    let ws = m.shoup(w);

    let mut g = c.benchmark_group("mod64");
    g.bench_function("mul_barrett", |bench| {
        bench.iter(|| m.mul(black_box(a), black_box(b)))
    });
    g.bench_function("mul_shoup", |bench| {
        bench.iter(|| m.mul_shoup(black_box(a), w, ws))
    });
    g.bench_function("add", |bench| {
        bench.iter(|| m.add(black_box(a), black_box(b)))
    });
    g.bench_function("pow", |bench| bench.iter(|| m.pow(black_box(a), 65537)));
    g.finish();
}

fn bench_mod128(c: &mut Criterion) {
    let q = rpu_arith::find_ntt_prime_u128(126, 1 << 17).expect("prime exists");
    let m = Modulus128::new(q).expect("in range");
    let a = q / 3;
    let b = q / 7;
    let am = m.to_mont(a);
    let bm = m.to_mont(b);

    let mut g = c.benchmark_group("mod128");
    g.bench_function("mul_double_montgomery", |bench| {
        bench.iter(|| m.mul(black_box(a), black_box(b)))
    });
    g.bench_function("mont_mul_raw", |bench| {
        bench.iter(|| m.mont_mul_raw(black_box(am), black_box(bm)))
    });
    g.bench_function("mul_wide_then_divide", |bench| {
        bench.iter(|| U256::mul_wide(black_box(a), black_box(b)).rem_u128(q))
    });
    g.bench_function("add", |bench| {
        bench.iter(|| m.add(black_box(a), black_box(b)))
    });
    g.finish();
}

/// One row per strategy: the per-lane cost of a `vmulmod` as each one
/// services it. The wide rows reproduce the 126-bit arithmetic floor
/// (`montgomery128` = the plain multiply, one Barrett pass; `_resident` =
/// one Montgomery reduction, what a multiply against a Montgomery-form
/// factor pays); the ≤63-bit rows
/// are what the fast path's native-u64 tier pays per lane — `barrett64`
/// is the bare `Modulus64` multiply, `native_u64_lane` the same through
/// [`Engine`] with the u128↔u64 lane conversions the simulator's
/// register file forces, `shoup64` the precomputed-companion form
/// codegen bakes into SDM images.
fn bench_engines(c: &mut Criterion) {
    let q_wide = rpu_arith::find_ntt_prime_u128(126, 1 << 17).expect("prime exists");
    let q_small = rpu_arith::find_ntt_prime_u64(59, 1 << 17).expect("prime exists");
    let m128 = Modulus128::new(q_wide).expect("in range");
    let m64 = Modulus64::new(q_small).expect("in range");
    let mont = Engine::new(q_wide).expect("in range");
    let native = Engine::new(q_small as u128).expect("in range");

    let a_wide = q_wide / 3;
    let b_wide = q_wide / 7;
    let am = m128.to_mont(a_wide);
    let bm = m128.to_mont(b_wide);
    let a_small = (q_small / 3) as u128;
    let b_small = (q_small / 7) as u128;
    let w = q_small / 11;
    let ws = m64.shoup(w);

    let mut g = c.benchmark_group("engines");
    g.bench_function("montgomery128", |bench| {
        bench.iter(|| mont.mul(black_box(a_wide), black_box(b_wide)))
    });
    g.bench_function("montgomery128_resident", |bench| {
        bench.iter(|| m128.mont_mul_raw(black_box(am), black_box(bm)))
    });
    g.bench_function("barrett64", |bench| {
        bench.iter(|| m64.mul(black_box(a_small as u64), black_box(b_small as u64)))
    });
    g.bench_function("shoup64", |bench| {
        bench.iter(|| m64.mul_shoup(black_box(a_small as u64), w, ws))
    });
    g.bench_function("native_u64_lane", |bench| {
        bench.iter(|| native.mul(black_box(a_small), black_box(b_small)))
    });

    // Full 512-lane vmulmod bodies, the way the fast path executes them
    // (independent lanes in a tight loop, so the per-lane cost reflects
    // pipelining rather than a single op's dependency chain). Divide the
    // reported time by 512 for the per-lane figure.
    let xs_w: Vec<u128> = (0..512u128).map(|i| (i * 7 + 3) % q_wide).collect();
    let ys_w: Vec<u128> = (0..512u128).map(|i| (i * 13 + 5) % q_wide).collect();
    let xs_s: Vec<u128> = (0..512u128)
        .map(|i| (i * 7 + 3) % q_small as u128)
        .collect();
    let ys_s: Vec<u128> = (0..512u128)
        .map(|i| (i * 13 + 5) % q_small as u128)
        .collect();
    let mut out = vec![0u128; 512];
    g.bench_function("vmulmod_512_montgomery128", |bench| {
        bench.iter(|| {
            for i in 0..512 {
                out[i] = m128.mul(black_box(xs_w[i]), ys_w[i]);
            }
            black_box(out[511])
        })
    });
    g.bench_function("vmulmod_512_native_u64", |bench| {
        bench.iter(|| {
            for i in 0..512 {
                out[i] = native.mul(black_box(xs_s[i]), ys_s[i]);
            }
            black_box(out[511])
        })
    });
    g.finish();
}

fn bench_primes(c: &mut Criterion) {
    let mut g = c.benchmark_group("primes");
    g.sample_size(20);
    g.bench_function("miller_rabin_u128_126bit", |bench| {
        let q = rpu_arith::find_ntt_prime_u128(126, 1 << 17).expect("prime exists");
        bench.iter(|| rpu_arith::is_prime_u128(black_box(q)))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_mod64,
    bench_mod128,
    bench_engines,
    bench_primes
);
criterion_main!(benches);
