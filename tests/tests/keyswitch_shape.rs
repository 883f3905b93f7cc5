//! The dispatch shape of a key switch, read off the structured trace:
//! every gadget digit is forward-transformed **once** per (digit,
//! target) by the lane's own NTT kernel, and both accumulations — `â_j`
//! then `b̂_j` — read that one `d̂`. Pinned on all three front ends that
//! share `recipes::ksw_digit`, because the saving lives in the counts:
//! one NTT per pair instead of two.
//!
//! The `RlweEvaluator` case honours `RPU_MAX_N`, so the wide-prime CI
//! leg runs it at n = 4096 — the smallest degree whose forward NTT
//! holds several twiddle vectors per stage.

use rpu::arith::gadget_levels;
use rpu::ntt::rlwe::{RlweContext, RlweParams, Splitmix};
use rpu::ntt::testutil::schoolbook_negacyclic;
use rpu::{
    CodegenStyle, Direction, DispatchEvent, KernelOp, LeveledContext, LeveledEvaluator, PrimeTable,
    RingTraceSink, RlweEvaluator, Rpu,
};
use rpu_serve::{serve, JobOutput, JobRequest, ServeConfig, TenantSpec};
use std::collections::HashMap;
use std::sync::Arc;

const T: u128 = 65537;

fn message(n: usize, seed: u128) -> Vec<u128> {
    (0..n as u128).map(|i| (i * 23 + seed) % 251).collect()
}

fn traced(lanes: usize) -> (Rpu, Arc<RingTraceSink>) {
    let sink = Arc::new(RingTraceSink::new(1 << 12));
    let rpu = Rpu::builder().lanes(lanes).trace(sink.clone()).build();
    (rpu.unwrap(), sink)
}

/// The events recorded since the last call.
fn drain(sink: &RingTraceSink) -> Vec<DispatchEvent> {
    let events = sink.events();
    sink.clear();
    events
}

/// Checks one op's trace: `pairs` (digit, target) steps, each one
/// forward NTT whose output is the first operand of exactly two
/// `KeySwitch` dispatches under the same modulus, on the same lane,
/// before that lane's next forward NTT — plus `other_fwd` forward NTTs
/// the op runs outside its key switch.
fn assert_digits_transformed_once(
    op: &str,
    events: &[DispatchEvent],
    pairs: usize,
    other_fwd: usize,
) {
    // Per lane: (output id, modulus, KeySwitch readers) of its latest
    // forward NTT.
    let mut latest: HashMap<usize, (u64, u128, usize)> = HashMap::new();
    let (mut shared, mut unread, mut ksw) = (0, 0, 0);
    let mut retire = |fwd: Option<(u64, u128, usize)>| match fwd {
        Some((_, _, 2)) => shared += 1,
        Some((_, _, 0)) => unread += 1,
        Some((id, _, readers)) => panic!("{op}: d̂ #{id} fed {readers} key-switch dispatches"),
        None => {}
    };
    for e in events {
        match (e.key.op, e.key.direction) {
            (KernelOp::Ntt, Direction::Forward) => {
                retire(latest.insert(e.lane, (e.outputs[0], e.key.q, 0)));
            }
            (KernelOp::KeySwitch, _) => {
                ksw += 1;
                let fwd = latest.get_mut(&e.lane);
                let fwd = fwd.unwrap_or_else(|| panic!("{op}: no NTT before key switch #{ksw}"));
                assert_eq!(
                    (e.inputs[0], e.key.q),
                    (fwd.0, fwd.1),
                    "{op}: key switch #{ksw} on lane {} does not read its lane's latest d̂",
                    e.lane
                );
                assert_eq!(e.outputs[0], e.inputs[2], "{op}: accumulates in place");
                fwd.2 += 1;
            }
            _ => {}
        }
    }
    latest.into_values().for_each(|fwd| retire(Some(fwd)));
    assert_eq!(
        (shared, unread, ksw),
        (pairs, other_fwd, 2 * pairs),
        "{op}: (shared d̂, other forward NTTs, key-switch dispatches)"
    );
}

#[test]
fn rlwe_mul_and_rotate_transform_each_digit_once() {
    let n = rpu::smoke_cap(4096);
    let q = PrimeTable::new().ntt_prime(n).unwrap();
    let p = RlweParams { n, q, t: T };
    let (rpu, sink) = traced(2);
    let mut eval = RlweEvaluator::new(&rpu, p, CodegenStyle::Optimized).unwrap();
    let mut rng = Splitmix::new(0x17);
    eval.keygen(&mut rng).unwrap();
    eval.relin_keygen(&mut rng).unwrap();
    let g = eval.rotation_keygen(1, &mut rng).unwrap();
    let levels = eval.relin_key().unwrap().levels();
    assert_eq!(levels, gadget_levels(q, eval.key_base_log()));
    let (m1, m2) = (message(n, 1), message(n, 2));
    let x = eval.encrypt(&m1, &mut rng).unwrap();
    let y = eval.encrypt(&m2, &mut rng).unwrap();

    drain(&sink);
    let prod = eval.mul(&x, &y).unwrap();
    assert_digits_transformed_once("mul", &drain(&sink), levels, 0);
    // A rotation permutes both components in evaluation form: no
    // forward NTT outside the key switch, and one inverse NTT — the
    // permuted mask's, whose coefficients the key switch decomposes.
    let rotated = eval.rotate(&x, 1).unwrap();
    let events = drain(&sink);
    assert_digits_transformed_once("rotate", &events, levels, 0);
    let count = |op, dir| {
        let of = |e: &&DispatchEvent| (e.key.op, e.key.direction) == (op, dir);
        events.iter().filter(of).count()
    };
    assert_eq!(
        count(KernelOp::Ntt, Direction::Inverse),
        1,
        "rotate: inverse NTTs"
    );
    assert_eq!(
        count(KernelOp::Automorphism, Direction::Forward),
        2,
        "rotate: σ_g dispatches"
    );

    // The composition is still the key switch the host computes.
    let t = rpu::arith::Modulus128::new(T).unwrap();
    let host = RlweContext::new(p).unwrap();
    assert_eq!(
        eval.decrypt(&prod).unwrap(),
        schoolbook_negacyclic(t, &m1, &m2)
    );
    assert_eq!(
        eval.decrypt(&rotated).unwrap(),
        host.rotate_plaintext(&m1, g).unwrap()
    );
}

#[test]
fn leveled_mul_transforms_each_digit_once_per_live_tower() {
    let n = 1024usize;
    for lanes in [1usize, 2] {
        let (rpu, sink) = traced(lanes);
        let ctx = LeveledContext::generate(n, T, 59, 4).unwrap();
        let mut eval = LeveledEvaluator::new(&rpu, ctx, CodegenStyle::Optimized).unwrap();
        eval.set_key_base_log(32).unwrap();
        let mut rng = Splitmix::new(0x18);
        eval.keygen(&mut rng).unwrap();
        eval.relin_keygen(&mut rng).unwrap();
        let x = eval.encrypt(&message(n, 3), &mut rng).unwrap();
        let y = eval.encrypt(&message(n, 4), &mut rng).unwrap();
        assert_eq!(x.level(), 3);
        // Every digit of every source tower, into each of 4 live towers.
        let pairs = eval.relin_key().unwrap().parts_at_level(3) * 4;
        assert_eq!(pairs, 4 * 2 * 4);

        drain(&sink);
        eval.mul(&x, &y).unwrap();
        let events = drain(&sink);
        assert_digits_transformed_once(&format!("{lanes}-lane leveled mul"), &events, pairs, 0);
        // Each tower's digits are transformed under its own modulus, on
        // its own lane: 8 per tower.
        for l in 0..4 {
            let q = eval.chain().modulus(l).value();
            let fwd = (KernelOp::Ntt, Direction::Forward, q, eval.tower_lane(l));
            let on_lane = |e: &&DispatchEvent| (e.key.op, e.key.direction, e.key.q, e.lane) == fwd;
            assert_eq!(events.iter().filter(on_lane).count(), 8, "tower {l}");
        }
    }
}

#[test]
fn served_mul_transforms_each_digit_once() {
    let n = 1024usize;
    let (rpu, sink) = traced(1);
    let q = rpu.session().primes_for(n).unwrap();
    let config = ServeConfig::new(RlweParams { n, q, t: T });
    let levels = gadget_levels(q, config.ksk_base_log);
    let (events, _) = serve(&rpu, config, |server| {
        let tenant = server.register_tenant(TenantSpec::new(0x19)).unwrap();
        let run = |req| match server.submit(tenant, req).unwrap().wait().unwrap() {
            JobOutput::Ciphertext(ct) => ct,
            other => panic!("expected a ciphertext, got {other:?}"),
        };
        let x = run(JobRequest::Encrypt {
            message: message(n, 5),
        });
        drain(&sink);
        run(JobRequest::Mul { x, y: x });
        drain(&sink)
    })
    .unwrap();
    assert_digits_transformed_once("served Mul", &events, levels, 0);
}
