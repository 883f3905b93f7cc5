//! Heap-exhaustion sweep: the one behaviour every front end's temp
//! hygiene exists for. For `RlweEvaluator::{mul, rotate}`,
//! `LeveledEvaluator::mul_rescale` and a served `Mul` + `Rotate`, the
//! per-lane device heap is stepped from "inputs + keys just fit" up to
//! "the op fits"; at every size the op either succeeds bit-exactly
//! against the host oracle or fails with the typed
//! `BufferError::OutOfMemory`, and every lane is back to its pre-op
//! live-buffer count. The sweep body is shared; the front end is its
//! input. One allocation gets a case of its own below the sweeps: the
//! `d̂` temp `recipes::ksw_digit` takes after its digit upload.
//!
//! The key material gets sweeps of its own, from an empty heap up to
//! "every key fits": `keygen`, `relin_keygen` (and `rotation_keygen` on
//! the single-modulus face) on both evaluators, and `register_tenant`
//! on `rpu-serve`. Every call fits or fails typed and leaves every lane
//! as it found it; a failed `keygen` leaves the evaluator keyless, and a
//! failed second `relin_keygen` leaves the first key multiplying
//! bit-exactly.

use rpu::arith::gadget_levels;
use rpu::ntt::rlwe::{RlweContext, RlweParams, Splitmix};
use rpu::{
    BufferError, CodegenStyle, LeveledContext, LeveledEvaluator, PrimeTable, RlweEvaluator, Rpu,
    RpuCluster, RpuError,
};
use rpu_serve::{serve, JobOutput, JobRequest, ServeConfig, ServeError, TenantSpec};

const N: usize = 1024;
const T: u128 = 65537;
const SEED: u64 = 0x5EED_4EA9;

fn message(seed: u128) -> Vec<u128> {
    (0..N as u128).map(|i| (i * 29 + seed) % 251).collect()
}

/// What one front end did at one heap size.
#[derive(Debug, PartialEq)]
enum Outcome {
    /// Keys or inputs did not fit — below the sweep's floor.
    SetupOom,
    /// Set-up fit; some op ran out of heap, typed.
    OpOom,
    /// Every op succeeded, bit-exactly.
    Fit,
}

struct Probe {
    outcome: Outcome,
    /// Per-lane live buffers before and after the ops.
    live: [Vec<usize>; 2],
}

const BELOW_FLOOR: Probe = Probe {
    outcome: Outcome::SetupOom,
    live: [Vec::new(), Vec::new()],
};

/// `Some` on success, `None` on the typed heap-exhaustion error; any
/// other failure is a bug.
fn unless_oom<T>(r: Result<T, RpuError>) -> Option<T> {
    match r {
        Ok(v) => Some(v),
        Err(RpuError::Buffer(BufferError::OutOfMemory { .. })) => None,
        Err(e) => panic!("only heap exhaustion may fail here, got {e}"),
    }
}

/// The shared sweep: steps the per-lane heap up from `floor` one ring
/// element at a time until the front end's ops have fit three times
/// running, checking the no-leak invariant at every size.
fn sweep(name: &str, lanes: usize, floor: usize, front_end: impl Fn(&Rpu) -> Probe) {
    let (mut ooms, mut fits) = (0, 0);
    for heap in (floor..floor + 40 * N).step_by(N) {
        let rpu = Rpu::builder()
            .lanes(lanes)
            .device_heap_elements(heap)
            .build()
            .unwrap();
        let probe = front_end(&rpu);
        assert_eq!(
            probe.live[0], probe.live[1],
            "{name} @ heap {heap}: {:?} left buffers behind",
            probe.outcome
        );
        match probe.outcome {
            Outcome::SetupOom => assert_eq!(fits, 0, "{name} @ heap {heap}"),
            Outcome::OpOom => ooms += 1,
            Outcome::Fit => fits += 1,
        }
        if fits == 3 {
            break;
        }
    }
    assert!(ooms > 0, "{name}: the sweep never hit exhaustion mid-op");
    assert_eq!(fits, 3, "{name}: the ops never fit");
}

#[test]
fn rlwe_evaluator_mul_and_rotate() {
    let q = PrimeTable::new().ntt_prime(N).unwrap();
    let p = RlweParams { n: N, q, t: T };
    // Per component lane: key + two input components + relin and
    // rotation key shares.
    let levels = gadget_levels(q, 16);
    let floor = (3 + 4 * levels) * N;
    sweep("RlweEvaluator", 2, floor, |rpu| {
        let mut eval = RlweEvaluator::new(rpu, p, CodegenStyle::Optimized).unwrap();
        let host = RlweContext::new(p).unwrap();
        let (mut rng, mut host_rng) = (Splitmix::new(SEED), Splitmix::new(SEED));
        let base_log = eval.key_base_log();
        let (m1, m2) = (message(1), message(2));
        let setup = (|| {
            unless_oom(eval.keygen(&mut rng))?;
            unless_oom(eval.relin_keygen(&mut rng))?;
            let g = unless_oom(eval.rotation_keygen(1, &mut rng))?;
            let x = unless_oom(eval.encrypt(&m1, &mut rng))?;
            Some((g, x, unless_oom(eval.encrypt(&m2, &mut rng))?))
        })();
        let Some((g, x, y)) = setup else {
            return BELOW_FLOOR;
        };
        let sk = host.keygen(&mut host_rng);
        let rk = host.relin_keygen(&sk, &mut host_rng, base_log);
        let gk = host.galois_keygen(&sk, g, &mut host_rng, base_log).unwrap();
        let hx = host.encrypt(&sk, &m1, &mut host_rng);
        let hy = host.encrypt(&sk, &m2, &mut host_rng);

        let live = |e: &mut RlweEvaluator<'_>| live(e.cluster_mut());
        let before: Vec<usize> = live(&mut eval);
        let mut outcome = Outcome::Fit;
        let ops = [
            (unless_oom(eval.mul(&x, &y)), host.mul(&rk, &hx, &hy)),
            (
                unless_oom(eval.rotate(&x, 1)),
                host.apply_galois(&gk, &hx).unwrap(),
            ),
        ];
        for (dev, want) in ops {
            let Some(dev) = dev else {
                outcome = Outcome::OpOom;
                continue;
            };
            let got = eval.download_ciphertext(&dev).unwrap();
            assert_eq!(got.a().values(), want.a().values());
            assert_eq!(got.b().values(), want.b().values());
            eval.free_ciphertext(dev).unwrap();
        }
        Probe {
            outcome,
            live: [before, live(&mut eval)],
        }
    });
}

#[test]
fn leveled_evaluator_mul_rescale() {
    const BASE_LOG: u32 = 32;
    let chain = || LeveledContext::generate(N, T, 59, 4).unwrap();
    // Two towers per lane: key + two input components + the tower's
    // share of all four source towers' two-digit relin keys.
    let floor = 2 * (5 + 2 * 4 * 2) * N;
    sweep("LeveledEvaluator", 2, floor, |rpu| {
        let host = chain();
        let mut eval = LeveledEvaluator::new(rpu, chain(), CodegenStyle::Optimized).unwrap();
        eval.set_key_base_log(BASE_LOG).unwrap();
        let (mut rng, mut host_rng) = (Splitmix::new(SEED), Splitmix::new(SEED));
        let (m1, m2) = (message(3), message(4));
        let setup = (|| {
            unless_oom(eval.keygen(&mut rng))?;
            unless_oom(eval.relin_keygen(&mut rng))?;
            let x = unless_oom(eval.encrypt(&m1, &mut rng))?;
            Some((x, unless_oom(eval.encrypt(&m2, &mut rng))?))
        })();
        let Some((x, y)) = setup else {
            return BELOW_FLOOR;
        };
        let sk = host.keygen(&mut host_rng);
        let rk = host.relin_keygen(&sk, &mut host_rng, BASE_LOG);
        let hx = host.encrypt(&sk, &m1, &mut host_rng);
        let hy = host.encrypt(&sk, &m2, &mut host_rng);

        let live = |e: &mut LeveledEvaluator<'_>| live(e.cluster_mut());
        let before: Vec<usize> = live(&mut eval);
        let outcome = match unless_oom(eval.mul_rescale(&x, &y)) {
            None => Outcome::OpOom,
            Some(dev) => {
                let want = host.rescale(&host.mul(&rk, &hx, &hy)).unwrap();
                let got = eval.download_ciphertext(&dev).unwrap();
                for l in 0..=want.level() {
                    assert_eq!(got.a_towers()[l].values(), want.a_towers()[l].values());
                    assert_eq!(got.b_towers()[l].values(), want.b_towers()[l].values());
                }
                eval.free_ciphertext(dev).unwrap();
                Outcome::Fit
            }
        };
        Probe {
            outcome,
            live: [before, live(&mut eval)],
        }
    });
}

#[test]
fn served_mul_and_rotate() {
    let q = PrimeTable::new().ntt_prime(N).unwrap();
    let p = RlweParams { n: N, q, t: T };
    let config = ServeConfig::new(p);
    // One home lane: key + two ciphertexts + relin and rotation keys.
    let floor = (5 + 4 * gadget_levels(q, config.ksk_base_log)) * N;
    let oom = |e: &ServeError| matches!(e, ServeError::Rpu(m) if m.contains("heap exhausted"));
    sweep("rpu-serve", 1, floor, |rpu| {
        // The host mirror replays the tenant's stream: keys, then masks.
        let host = RlweContext::new(p).unwrap();
        let mut host_rng = Splitmix::new(SEED);
        let sk = host.keygen(&mut host_rng);
        let rk = host.relin_keygen(&sk, &mut host_rng, config.ksk_base_log);
        let g = host.galois_element(1);
        let gk = host
            .galois_keygen(&sk, g, &mut host_rng, config.ksk_base_log)
            .unwrap();
        let (m1, m2) = (message(5), message(6));
        let hx = host.encrypt(&sk, &m1, &mut host_rng);
        let hy = host.encrypt(&sk, &m2, &mut host_rng);
        let wants = [
            host.decrypt(&sk, &host.mul(&rk, &hx, &hy)),
            host.decrypt(&sk, &host.apply_galois(&gk, &hx).unwrap()),
        ];

        let (outcome, report) = serve(rpu, config, |server| {
            let spec = TenantSpec::new(SEED).rotations(vec![1]);
            let tenant = match server.register_tenant(spec) {
                Ok(tenant) => tenant,
                Err(e) => {
                    assert!(oom(&e), "typed exhaustion, got {e}");
                    return Outcome::SetupOom;
                }
            };
            let run = |req| server.submit(tenant, req).unwrap().wait();
            let mut cts = Vec::new();
            for message in [m1.clone(), m2.clone()] {
                match run(JobRequest::Encrypt { message }) {
                    Ok(JobOutput::Ciphertext(ct)) => cts.push(ct),
                    Ok(other) => panic!("unexpected {other:?}"),
                    Err(e) => assert!(oom(&e), "typed exhaustion, got {e}"),
                }
            }
            let mut outcome = Outcome::SetupOom;
            if let [x, y] = cts[..] {
                outcome = Outcome::Fit;
                let jobs = [
                    JobRequest::Mul { x, y },
                    JobRequest::Rotate { ct: x, steps: 1 },
                ];
                for (job, want) in jobs.into_iter().zip(&wants) {
                    // Every ticket resolves: a value or the typed error.
                    match run(job) {
                        Ok(JobOutput::Ciphertext(ct)) => {
                            let plain = run(JobRequest::Decrypt { ct }).unwrap();
                            assert_eq!(plain, JobOutput::Plaintext(want.clone()));
                        }
                        Ok(other) => panic!("unexpected {other:?}"),
                        Err(e) => {
                            assert!(oom(&e), "typed exhaustion, got {e}");
                            outcome = Outcome::OpOom;
                        }
                    }
                }
            }
            server.teardown(tenant).unwrap();
            outcome
        })
        .unwrap();
        Probe {
            outcome,
            live: [vec![0], report.resident_buffers],
        }
    });
}

/// The allocation inside a key-switch digit step: with exactly one ring
/// element of heap left the digit uploads, its transform `d̂` does not
/// fit, and the uploaded digit must go back with the typed error.
#[test]
fn ksw_digit_releases_the_digit_when_its_transform_does_not_fit() {
    use rpu::recipes::{self, LaneKernels};

    let heap = 8 * N;
    let rpu = Rpu::builder().device_heap_elements(heap).build().unwrap();
    let mut cluster = rpu.cluster();
    let q = cluster.primes_for(N).unwrap();
    let k = LaneKernels::compile(cluster.lane_session(0), N, q, CodegenStyle::Optimized).unwrap();
    let filler = cluster.lane_session(0).alloc(heap - N).unwrap();
    let live = cluster.lane_session(0).live_buffers();
    let uploaded = |c: &rpu::RpuCluster<'_>| c.stats()[0].transfer.host_to_device;
    let before = uploaded(&cluster);

    // No dispatch is reached, so any handle stands in for key and
    // accumulators.
    let target = (&k, (filler, filler), (filler, filler));
    let run = recipes::ksw_digit(cluster.lane_session(0), &message(7), [target]);
    assert!(unless_oom(run).is_none(), "d̂ cannot fit");
    assert_eq!(uploaded(&cluster), before + N, "the digit itself did fit");
    assert_eq!(cluster.stats()[0].dispatches, 0);
    assert_eq!(
        cluster.lane_session(0).live_buffers(),
        live,
        "the digit was released"
    );
    cluster
        .lane_session(0)
        .alloc(N)
        .expect("its ring element is free again");
}

/// How far one key-material probe got at one heap size.
#[derive(Debug, PartialEq, PartialOrd)]
enum KeyStage {
    /// `keygen` ran out of heap; the evaluator was left keyless.
    Keyless,
    /// Some key after the secret key ran out of heap.
    Partial,
    /// The second relinearization key ran out of heap and the first
    /// still multiplied bit-exactly.
    OldKeyWorked,
    /// Every key fit.
    AllFit,
}

/// Every lane's live-buffer count.
fn live(cluster: &mut RpuCluster<'_>) -> Vec<usize> {
    (0..cluster.lane_count())
        .map(|l| cluster.lane_session(l).live_buffers())
        .collect()
}

/// Runs one key call: `Some` if it fit, `None` on typed heap exhaustion
/// — after which every lane must be back to its pre-call live-buffer
/// count, as `lanes_live` reads it.
fn key_call<E, T>(
    eval: &mut E,
    lanes_live: impl Fn(&mut E) -> Vec<usize>,
    call: impl FnOnce(&mut E) -> Result<T, RpuError>,
) -> Option<T> {
    let before = lanes_live(eval);
    let out = unless_oom(call(eval));
    if out.is_none() {
        assert_eq!(lanes_live(eval), before, "a failed key call left buffers");
    }
    out
}

/// Steps the per-lane heap up from empty one ring element at a time
/// until `probe` sees every key fit; every stage must be reached on the
/// way, in order.
fn sweep_keys(name: &str, lanes: usize, probe: impl Fn(&Rpu) -> KeyStage) {
    let mut seen = Vec::new();
    for heap in (0..200 * N).step_by(N) {
        let rpu = Rpu::builder()
            .lanes(lanes)
            .device_heap_elements(heap)
            .build()
            .unwrap();
        let stage = probe(&rpu);
        if seen.last() != Some(&stage) {
            seen.push(stage);
        }
        if seen.last() == Some(&KeyStage::AllFit) {
            break;
        }
    }
    assert!(seen.windows(2).all(|w| w[0] < w[1]), "{name}: {seen:?}");
    let every = [
        KeyStage::Keyless,
        KeyStage::Partial,
        KeyStage::OldKeyWorked,
        KeyStage::AllFit,
    ];
    assert_eq!(seen, every, "{name}: stages reached");
}

#[test]
fn rlwe_evaluator_key_material() {
    let q = PrimeTable::new().ntt_prime(N).unwrap();
    let p = RlweParams { n: N, q, t: T };
    sweep_keys("RlweEvaluator", 2, |rpu| {
        let mut eval = RlweEvaluator::new(rpu, p, CodegenStyle::Optimized).unwrap();
        let host = RlweContext::new(p).unwrap();
        let (mut rng, mut host_rng) = (Splitmix::new(SEED), Splitmix::new(SEED));
        let base_log = eval.key_base_log();
        let lanes_live = |e: &mut RlweEvaluator<'_>| live(e.cluster_mut());
        if key_call(&mut eval, lanes_live, |e| e.keygen(&mut rng)).is_none() {
            let keyless = eval.encrypt(&message(1), &mut rng);
            assert!(matches!(keyless, Err(RpuError::Config(_))), "keyless");
            return KeyStage::Keyless;
        }
        let keys = (|| {
            key_call(&mut eval, lanes_live, |e| e.relin_keygen(&mut rng))?;
            key_call(&mut eval, lanes_live, |e| e.rotation_keygen(1, &mut rng))
        })();
        let Some(g) = keys else {
            return KeyStage::Partial;
        };
        let (m1, m2) = (message(1), message(2));
        let (Some(x), Some(y)) = (
            unless_oom(eval.encrypt(&m1, &mut rng)),
            unless_oom(eval.encrypt(&m2, &mut rng)),
        ) else {
            return KeyStage::Partial;
        };
        if key_call(&mut eval, lanes_live, |e| e.relin_keygen(&mut rng)).is_some() {
            return KeyStage::AllFit;
        }
        let Some(product) = unless_oom(eval.mul(&x, &y)) else {
            return KeyStage::Partial;
        };
        let sk = host.keygen(&mut host_rng);
        let rk = host.relin_keygen(&sk, &mut host_rng, base_log);
        host.galois_keygen(&sk, g, &mut host_rng, base_log).unwrap();
        let hx = host.encrypt(&sk, &m1, &mut host_rng);
        let want = host.mul(&rk, &hx, &host.encrypt(&sk, &m2, &mut host_rng));
        let got = eval.download_ciphertext(&product).unwrap();
        assert_eq!(got.a().values(), want.a().values());
        assert_eq!(got.b().values(), want.b().values());
        KeyStage::OldKeyWorked
    });
}

#[test]
fn leveled_evaluator_key_material() {
    const BASE_LOG: u32 = 32;
    let chain = || LeveledContext::generate(N, T, 59, 2).unwrap();
    sweep_keys("LeveledEvaluator", 2, |rpu| {
        let host = chain();
        let mut eval = LeveledEvaluator::new(rpu, chain(), CodegenStyle::Optimized).unwrap();
        eval.set_key_base_log(BASE_LOG).unwrap();
        let (mut rng, mut host_rng) = (Splitmix::new(SEED), Splitmix::new(SEED));
        let lanes_live = |e: &mut LeveledEvaluator<'_>| live(e.cluster_mut());
        if key_call(&mut eval, lanes_live, |e| e.keygen(&mut rng)).is_none() {
            let keyless = eval.encrypt(&message(3), &mut rng);
            assert!(matches!(keyless, Err(RpuError::Config(_))), "keyless");
            return KeyStage::Keyless;
        }
        if key_call(&mut eval, lanes_live, |e| e.relin_keygen(&mut rng)).is_none() {
            return KeyStage::Partial;
        }
        let (m1, m2) = (message(3), message(4));
        let (Some(x), Some(y)) = (
            unless_oom(eval.encrypt(&m1, &mut rng)),
            unless_oom(eval.encrypt(&m2, &mut rng)),
        ) else {
            return KeyStage::Partial;
        };
        if key_call(&mut eval, lanes_live, |e| e.relin_keygen(&mut rng)).is_some() {
            return KeyStage::AllFit;
        }
        let Some(product) = unless_oom(eval.mul(&x, &y)) else {
            return KeyStage::Partial;
        };
        let sk = host.keygen(&mut host_rng);
        let rk = host.relin_keygen(&sk, &mut host_rng, BASE_LOG);
        let hx = host.encrypt(&sk, &m1, &mut host_rng);
        let want = host.mul(&rk, &hx, &host.encrypt(&sk, &m2, &mut host_rng));
        let got = eval.download_ciphertext(&product).unwrap();
        for l in 0..=want.level() {
            assert_eq!(got.a_towers()[l].values(), want.a_towers()[l].values());
            assert_eq!(got.b_towers()[l].values(), want.b_towers()[l].values());
        }
        KeyStage::OldKeyWorked
    });
}

#[test]
fn served_tenant_registration() {
    let q = PrimeTable::new().ntt_prime(N).unwrap();
    let config = ServeConfig::new(RlweParams { n: N, q, t: T });
    let oom = |e: &ServeError| matches!(e, ServeError::Rpu(m) if m.contains("heap exhausted"));
    let mut fit = false;
    for heap in (0..100 * N).step_by(N) {
        let rpu = Rpu::builder().device_heap_elements(heap).build().unwrap();
        let (registered, report) = serve(&rpu, config, |server| {
            let spec = TenantSpec::new(SEED).rotations(vec![1]);
            match server.register_tenant(spec) {
                Ok(tenant) => server.teardown(tenant).is_ok(),
                Err(e) => {
                    assert!(oom(&e), "typed exhaustion, got {e}");
                    false
                }
            }
        })
        .unwrap();
        assert_eq!(report.resident_buffers, [0], "heap {heap}: buffers left");
        if registered {
            fit = true;
            break;
        }
    }
    assert!(fit, "the tenant's keys never fit");
}
