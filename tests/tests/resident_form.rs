//! Resident material crosses the host link once, in evaluation form.
//!
//! A lane's NTT kernels write the host's evaluation order (Pease order
//! is the bit-reversed order of `Ntt128Plan::forward`), so key shares
//! and secret-key towers are uploaded as the host's evaluations and a
//! ciphertext is downloaded as the device's, with no NTT on either side.
//! Every resident word must still equal, word for word, what the
//! coefficient path made: upload the coefficients, then dispatch the
//! lane's forward NTT (`recipes::upload_eval`). That is checked for all
//! three placements — `Component` (a 2-lane RLWE evaluator, ~120-bit),
//! `Tower` (a 2-lane leveled evaluator, 59-bit towers) and `Single` (a
//! served tenant's key upload) — along with the dispatch counts: key
//! upload and `download_ciphertext` dispatch nothing.

use rpu::evaluator::Ops;
use rpu::ntt::rlwe::{KeySwitchKey, RlweContext, RlweParams, SecretKey, Splitmix};
use rpu::ntt::{Domain, Polynomial};
use rpu::recipes::{self, LaneKernels};
use rpu::{
    AutomorphismSpec, CodegenStyle, DeviceBuffer, LeveledContext, LeveledEvaluator, PrimeTable,
    RlweEvaluator, Rpu, RpuCluster, RpuSession,
};
use rpu_serve::{serve, ServeConfig, TenantSpec};

const N: usize = 1024;
const T: u128 = 65537;
const STYLE: CodegenStyle = CodegenStyle::Optimized;

fn message(seed: u128) -> Vec<u128> {
    (0..N as u128).map(|i| (i * 13 + seed) % 64).collect()
}

/// The coefficient path: `p`'s coefficients uploaded, then transformed
/// by the lane's forward NTT kernel.
fn coefficient_path(w: &mut RpuSession<'_>, k: &LaneKernels, p: &Polynomial) -> Vec<u128> {
    let hat = recipes::upload_eval(w, k, &p.coeffs()).unwrap();
    let words = w.download(&hat).unwrap();
    w.free(hat).unwrap();
    words
}

/// Every live buffer's words on a session, sorted. Restoring the
/// session's own snapshot changes nothing and hands back its live
/// handles.
fn resident(w: &mut RpuSession<'_>) -> Vec<Vec<u128>> {
    let bytes = w.snapshot();
    let live = w.restore(&bytes).unwrap();
    let mut words: Vec<_> = live.iter().map(|b| w.download(b).unwrap()).collect();
    words.sort();
    words
}

/// What the coefficient path makes of `polys` on `w`, sorted.
fn expected<'p>(
    w: &mut RpuSession<'_>,
    q: u128,
    polys: impl IntoIterator<Item = &'p Polynomial>,
) -> Vec<Vec<u128>> {
    let k = LaneKernels::compile(w, N, q, STYLE).unwrap();
    let mut words: Vec<_> = polys
        .into_iter()
        .map(|p| coefficient_path(w, &k, p))
        .collect();
    words.sort();
    words
}

/// Tower `k`'s share of every source tower and digit of `ksk`.
fn shares(ksk: &KeySwitchKey, k: usize) -> impl Iterator<Item = &Polynomial> {
    let pairs = ksk.parts().iter().flatten();
    pairs.flat_map(move |(a, b)| [&a[k], &b[k]])
}

fn dispatches(cluster: &RpuCluster<'_>) -> Vec<u64> {
    cluster.stats().iter().map(|s| s.dispatches).collect()
}

/// Generates the secret, relinearization and 1-step rotation keys on the
/// evaluator and replays the same stream on its host context; returns
/// the host keys. Key generation must dispatch nothing.
fn keys<Ct: rpu::evaluator::Resident>(
    eval: &mut rpu::Evaluator<'_, Ct>,
    rng: &mut Splitmix,
) -> (SecretKey, KeySwitchKey, KeySwitchKey) {
    let before = dispatches(eval.cluster());
    let sk = eval.keygen(rng).unwrap();
    let base_log = eval.key_base_log();
    let mut host_rng = rng.clone();
    let rk = eval.context().relin_keygen(&sk, &mut host_rng, base_log);
    eval.relin_keygen(rng).unwrap();
    let g = eval.context().galois_element(1);
    let gk = eval
        .context()
        .galois_keygen(&sk, g, &mut host_rng, base_log);
    eval.rotation_keygen(1, rng).unwrap();
    assert_eq!(dispatches(eval.cluster()), before, "key upload dispatched");
    (sk, rk, gk.unwrap().key_switch_key().clone())
}

/// `download_ciphertext` dispatches nothing and equals the ciphertext
/// the coefficient path rebuilt: each buffer inverse-transformed on its
/// lane (`recipes::download_coeffs`), downloaded and lifted back on the
/// host.
fn download_matches_coefficient_path<Ct: rpu::evaluator::Resident>(
    eval: &mut rpu::Evaluator<'_, Ct>,
    ct: &Ct,
    buffers: [&[DeviceBuffer]; 2],
) {
    let before = dispatches(eval.cluster());
    let got = eval.download_ciphertext(ct).unwrap();
    assert_eq!(dispatches(eval.cluster()), before, "download dispatched");
    let got_towers = [got.a_towers(), got.b_towers()];
    for (c, towers) in buffers.into_iter().enumerate() {
        assert_eq!(got_towers[c].len(), towers.len());
        for (l, hat) in towers.iter().enumerate() {
            let lane = eval.cluster().locate(hat).unwrap();
            let plan = eval.context().plan(l).clone();
            let q = plan.modulus().value();
            let w = eval.cluster_mut().lane_session(lane);
            let k = LaneKernels::compile(w, N, q, STYLE).unwrap();
            let coeffs = recipes::download_coeffs(w, &k, *hat).unwrap();
            let mut old = Polynomial::from_coeffs(&plan, coeffs).unwrap();
            old.to_evaluation();
            assert_eq!(
                got_towers[c][l].values(),
                old.values(),
                "component {c} tower {l}"
            );
        }
    }
}

#[test]
fn component_keys_and_downloads_match_the_coefficient_path() {
    let q = PrimeTable::with_bits(120).ntt_prime(N).unwrap();
    let rpu = Rpu::builder().lanes(2).build().unwrap();
    let params = RlweParams { n: N, q, t: T };
    let mut eval = RlweEvaluator::new(&rpu, params, STYLE).unwrap();
    let mut rng = Splitmix::new(0x5EED);
    let (sk, rk, gk) = keys(&mut eval, &mut rng);
    // The key is replicated on both lanes: the secret key tower and
    // every share of both key-switch keys.
    for lane in 0..2 {
        let w = eval.cluster_mut().lane_session(lane);
        let got = resident(w);
        let polys = [&sk.towers()[0]].into_iter().chain(shares(&rk, 0));
        let want = expected(w, q, polys.chain(shares(&gk, 0)));
        assert_eq!(got.len(), 1 + 4 * rk.levels(), "lane {lane}");
        assert_eq!(got, want, "lane {lane}");
    }
    let x = eval.encrypt(&message(1), &mut rng).unwrap();
    let y = eval.encrypt(&message(2), &mut rng).unwrap();
    let product = eval.mul(&x, &y).unwrap();
    let rotated = eval.rotate(&product, 1).unwrap();
    for ct in [x, product, rotated] {
        download_matches_coefficient_path(&mut eval, &ct, [&[ct.a], &[ct.b]]);
    }
}

#[test]
fn tower_keys_and_downloads_match_the_coefficient_path() {
    let ctx = LeveledContext::generate(N, T, 59, 3).unwrap();
    let primes = ctx.chain().primes().to_vec();
    let rpu = Rpu::builder().lanes(2).build().unwrap();
    let mut eval = LeveledEvaluator::new(&rpu, ctx, STYLE).unwrap();
    let mut rng = Splitmix::new(0x7043);
    let (sk, rk, gk) = keys(&mut eval, &mut rng);
    // Tower l (secret key tower and its share of every source tower's
    // digits) lives on lane l % 2.
    for lane in 0..2 {
        let towers: Vec<_> = (0..primes.len()).filter(|l| l % 2 == lane).collect();
        let w = eval.cluster_mut().lane_session(lane);
        let got = resident(w);
        let mut want = Vec::new();
        for &l in &towers {
            let polys = [&sk.towers()[l]].into_iter().chain(shares(&rk, l));
            want.extend(expected(w, primes[l], polys.chain(shares(&gk, l))));
        }
        want.sort();
        assert_eq!(
            got.len(),
            towers.len() * (1 + 4 * rk.levels()),
            "lane {lane}"
        );
        assert_eq!(got, want, "lane {lane}");
    }
    let x = eval.encrypt(&message(3), &mut rng).unwrap();
    let product = eval.mul_rescale(&x, &x).unwrap();
    let rotated = eval.rotate(&product, 1).unwrap();
    for ct in [x, product, rotated] {
        let buffers = [ct.a_towers(), ct.b_towers()];
        download_matches_coefficient_path(&mut eval, &ct, buffers);
    }
}

/// A served tenant's keys go up through `Ops::single`, as `rpu-serve`'s
/// key registration runs it: the secret key through `Ops::upload` and
/// both key-switch keys through `Ops::upload_key` / `Ops::galois_key`.
#[test]
fn single_lane_key_upload_matches_the_coefficient_path() {
    let rpu = Rpu::builder().build().unwrap();
    let mut w = rpu.session();
    let q = w.primes_for(N).unwrap();
    let ctx = RlweContext::new(RlweParams { n: N, q, t: T }).unwrap();
    let mut rng = Splitmix::new(0x51);
    let sk = ctx.keygen(&mut rng);
    let rk = ctx.relin_keygen(&sk, &mut rng, recipes::DEFAULT_KSK_BASE_LOG);
    let g = ctx.galois_element(1);
    let gk = ctx.galois_keygen(&sk, g, &mut rng, recipes::DEFAULT_KSK_BASE_LOG);
    let gk = gk.unwrap();
    let k = LaneKernels::compile(&mut w, N, q, STYLE).unwrap();
    let before = w.stats().dispatches;
    let mut ops = Ops::single(&mut w, &k);
    ops.upload(&[sk.towers()[0].values()], Domain::Evaluation)
        .unwrap();
    ops.upload_key(&rk).unwrap();
    let spec = AutomorphismSpec::new(N, q, g, STYLE);
    ops.galois_key(&[spec], gk.key_switch_key()).unwrap();
    assert_eq!(w.stats().dispatches, before, "key upload dispatched");
    let got = resident(&mut w);
    let polys = [&sk.towers()[0]].into_iter().chain(shares(&rk, 0));
    let want = expected(&mut w, q, polys.chain(shares(gk.key_switch_key(), 0)));
    assert_eq!(got, want);
}

/// Registering a tenant (secret, relinearization and rotation keys
/// generated and uploaded on its home lane) dispatches nothing.
#[test]
fn served_key_registration_dispatches_nothing() {
    let rpu = Rpu::builder().lanes(2).build().unwrap();
    let q = rpu.session().primes_for(N).unwrap();
    let config = ServeConfig::new(RlweParams { n: N, q, t: T });
    let ((), report) = serve(&rpu, config, |server| {
        for seed in 0..2 {
            let spec = TenantSpec::new(seed).rotations(vec![1]);
            server.register_tenant(spec).unwrap();
        }
    })
    .unwrap();
    let per_lane: Vec<_> = report
        .cluster
        .per_lane
        .iter()
        .map(|s| s.dispatches)
        .collect();
    assert_eq!(per_lane, [0, 0], "registration dispatched");
    assert!(
        report.resident_buffers.iter().all(|&b| b > 0),
        "keys resident"
    );
}
