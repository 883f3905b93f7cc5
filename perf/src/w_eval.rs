//! The two evaluator workloads: a depth-3 leveled multiply chain
//! (`leveled_d3_narrow_1k`) and multiply-then-rotate on the
//! single-modulus evaluator (`rlwe_mulrot_wide_2k`). Both start each op
//! from a resident ciphertext and keep the op's result resident (freeing
//! the one it replaces), so what is checked afterwards is what the timed
//! ops produced.

use crate::metrics::{self, Values};
use crate::span;
use crate::spans::{Recorder, StampSink};
use crate::workload::{
    build_rpu, random_poly, time_ms, timed_loop, Instance, LayerCtx, Segment, Teardown, Verdict,
    Workload,
};
use rpu::ntt::rlwe::{RlweContext, RlweParams, Splitmix};
use rpu::{
    CodegenStyle, DeviceCiphertext, DeviceLeveledCiphertext, KernelSpec, KeySwitchSpec, LaneStats,
    LeveledContext, LeveledEvaluator, PrimeTable, RlweEvaluator, Rpu, RpuBuilder, RpuError,
    TransferStats,
};
use std::sync::Arc;

const T: u128 = 65537;
/// Resident input ciphertexts the ops cycle over.
const SLOTS: usize = 2;

/// `message`, with its first slot changed when `corrupt` is set.
fn flipped(message: &[u128], corrupt: bool) -> Vec<u128> {
    let mut m = message.to_vec();
    m[0] ^= u128::from(corrupt);
    m
}

fn total_transfer(stats: &[LaneStats]) -> TransferStats {
    let mut sum = TransferStats::default();
    for lane in stats {
        sum.absorb(&lane.transfer);
    }
    sum
}

fn transfer_since(now: &[LaneStats], before: &TransferStats) -> TransferStats {
    let now = total_transfer(now);
    TransferStats {
        host_to_device: now.host_to_device - before.host_to_device,
        device_to_host: now.device_to_host - before.device_to_host,
        device_copies: now.device_copies - before.device_copies,
        image_elements: now.image_elements - before.image_elements,
        image_reused: now.image_reused,
    }
}

// ---------------------------------------------------------------------
// leveled_d3_narrow_1k
// ---------------------------------------------------------------------

const LV_N: usize = 1024;
const LV_BITS: u32 = 59;
const LV_LEVELS: usize = 4;
const LV_BASE_LOG: u32 = 32;
const LV_DEPTH: usize = 3;

pub struct LeveledD3 {
    seed: u64,
    messages: Vec<Vec<u128>>,
}

impl LeveledD3 {
    pub fn new(seed: u64) -> Self {
        let mut rng = Splitmix::new(seed);
        LeveledD3 {
            seed,
            messages: (0..SLOTS).map(|_| random_poly(&mut rng, LV_N, 4)).collect(),
        }
    }

    fn context() -> LeveledContext {
        LeveledContext::generate(LV_N, T, LV_BITS, LV_LEVELS).expect("chain exists")
    }

    /// The stream keys and encryption masks are drawn from — the device
    /// and the host oracle each start one, and draw in the same order.
    fn key_stream(&self) -> Splitmix {
        Splitmix::new(self.seed ^ 0x1E7E_1ED0_0000_0001)
    }
}

impl Workload for LeveledD3 {
    fn name(&self) -> &'static str {
        metrics::LEVELED
    }

    fn builder(&self) -> RpuBuilder {
        Rpu::builder().lanes(2)
    }

    fn lanes(&self) -> usize {
        2
    }

    fn primary_spec(&self) -> Box<dyn KernelSpec> {
        let top = Self::context().chain().prime(LV_LEVELS - 1);
        Box::new(KeySwitchSpec::new(LV_N, top, CodegenStyle::Optimized))
    }

    fn run(
        &self,
        sink: Option<Arc<StampSink>>,
        body: &mut dyn FnMut(&mut dyn Instance),
    ) -> Teardown {
        let rpu = build_rpu(self.builder(), sink);
        let mut eval = LeveledEvaluator::new(&rpu, Self::context(), CodegenStyle::Optimized)
            .expect("evaluator builds");
        eval.set_key_base_log(LV_BASE_LOG).expect("valid base");
        let mut rng = self.key_stream();
        eval.keygen(&mut rng).expect("keygen");
        eval.relin_keygen(&mut rng).expect("relin keygen");
        let inputs: Vec<DeviceLeveledCiphertext> = self
            .messages
            .iter()
            .map(|m| eval.encrypt(m, &mut rng).expect("encrypt"))
            .collect();
        let mut inst = LeveledInstance {
            workload: self,
            eval,
            inputs,
            outputs: vec![None; SLOTS],
        };
        inst.warm_up();
        body(&mut inst);
        // Keys stay resident for the evaluator's lifetime; everything
        // the benchmark itself created must be gone.
        let key_buffers = inst.resident_key_elems() / LV_N;
        let LeveledInstance {
            mut eval,
            inputs,
            outputs,
            ..
        } = inst;
        for ct in inputs.into_iter().chain(outputs.into_iter().flatten()) {
            eval.free_ciphertext(ct).expect("live ciphertext");
        }
        let live = cluster_live_buffers(&eval.snapshot()).expect("SNAP_V1 cluster snapshot");
        Teardown {
            live_buffers: live.saturating_sub(key_buffers),
            ..Teardown::default()
        }
    }
}

/// Live device buffers of a cluster, read from the `OWNR` section of its
/// `SNAP_V1` snapshot (docs/snapshot-format.md) — `LeveledEvaluator`
/// exposes its cluster read-only, and live counts sit behind `&mut`.
fn cluster_live_buffers(snapshot: &[u8]) -> Option<usize> {
    let mut at = 12; // header
    while at + 12 <= snapshot.len() {
        let len = u64::from_le_bytes(snapshot[at + 4..at + 12].try_into().ok()?) as usize;
        if &snapshot[at..at + 4] == b"OWNR" {
            let count = snapshot.get(at + 12..at + 20)?;
            return Some(u64::from_le_bytes(count.try_into().ok()?) as usize);
        }
        at += 12 + len;
    }
    None
}

struct LeveledInstance<'a> {
    workload: &'a LeveledD3,
    eval: LeveledEvaluator<'a>,
    inputs: Vec<DeviceLeveledCiphertext>,
    outputs: Vec<Option<DeviceLeveledCiphertext>>,
}

impl LeveledInstance<'_> {
    /// One op per slot: every kernel compiled (rescale kernels compile
    /// on first use), and every later op has an output to replace.
    fn warm_up(&mut self) {
        let mut off = Recorder::new(std::time::Instant::now(), false);
        for slot in 0..SLOTS {
            self.op(slot, &mut off).expect("warm-up op");
        }
    }

    fn op(&mut self, i: usize, rec: &mut Recorder) -> Result<(), RpuError> {
        let slot = i % SLOTS;
        let e = &mut self.eval;
        let mut acc = self.inputs[slot].clone();
        for depth in 0..LV_DEPTH {
            let product = span!(rec, "mul", e.mul(&acc, &acc))?;
            let next = span!(rec, "rescale", e.rescale(&product))?;
            span!(rec, "free", {
                e.free_ciphertext(product)?;
                if depth > 0 {
                    e.free_ciphertext(acc)?;
                }
            });
            acc = next;
        }
        if let Some(old) = self.outputs[slot].replace(acc) {
            span!(rec, "free", e.free_ciphertext(old))?;
        }
        Ok(())
    }

    /// Elements of resident key material: the relinearization key plus
    /// one secret-key tower per level.
    fn resident_key_elems(&self) -> usize {
        self.eval.relin_key().map_or(0, |k| k.resident_elements()) + LV_LEVELS * LV_N
    }

    fn resident_elems(&self) -> usize {
        let cts = self.inputs.iter().chain(self.outputs.iter().flatten());
        let towers: usize = cts
            .flat_map(|ct| ct.a_towers().iter().chain(ct.b_towers()))
            .map(|buf| buf.len())
            .sum();
        self.resident_key_elems() + towers
    }
}

impl Instance for LeveledInstance<'_> {
    fn segment(&mut self, seconds: f64, rec: &mut Recorder) -> Segment {
        let before = total_transfer(&self.eval.cluster().stats());
        let mut seg = timed_loop(seconds, SLOTS, rec, |i, rec| self.op(i, rec));
        seg.transfer = Some(transfer_since(&self.eval.cluster().stats(), &before));
        seg.resident_elems = Some(self.resident_elems());
        seg
    }

    fn verify(&mut self, corrupt: bool) -> Verdict {
        let w = self.workload;
        let mut verdict = Verdict::default();
        let (oracle, mut oracle_ms) = time_ms(|| {
            let host = LeveledD3::context();
            let mut rng = w.key_stream();
            let sk = host.keygen(&mut rng);
            let rk = host.relin_keygen(&sk, &mut rng, LV_BASE_LOG);
            let cts: Vec<_> = w
                .messages
                .iter()
                .map(|m| host.encrypt(&sk, &flipped(m, corrupt), &mut rng))
                .collect();
            (host, sk, rk, cts)
        });
        let (host, sk, rk, cts) = oracle;
        for (input, out) in cts.iter().zip(self.outputs.clone()) {
            let Some(out) = out else {
                continue;
            };
            let (expect, ms) = time_ms(|| {
                let mut acc = input.clone();
                for _ in 0..LV_DEPTH {
                    acc = host
                        .rescale(&host.mul(&rk, &acc, &acc))
                        .expect("above level 0");
                }
                acc
            });
            oracle_ms += ms;
            let same = (|| -> Result<bool, RpuError> {
                let got = self.eval.download_ciphertext(&out)?;
                let towers_match = got.level() == expect.level()
                    && (0..=expect.level()).all(|l| {
                        got.a_towers()[l].values() == expect.a_towers()[l].values()
                            && got.b_towers()[l].values() == expect.b_towers()[l].values()
                    });
                Ok(towers_match && self.eval.decrypt(&out)? == host.decrypt(&sk, &expect))
            })();
            verdict.checked += 1;
            verdict.mismatched += u64::from(!matches!(same, Ok(true)));
        }
        verdict.oracle_ms_per_check = oracle_ms / verdict.checked.max(1) as f64;
        verdict
    }

    fn layer_metrics(&mut self, ctx: &LayerCtx, out: &mut Values) {
        let op_ms = ctx.op_ms;
        if let Some(ct) = self.outputs.iter().flatten().next() {
            out.set("leveled.noise_bits_end", ct.noise().bits());
        }

        // Host half of `rescale`: the rounding correction δ for both
        // components at each of the three levels an op drops.
        let ctx = self.eval.context();
        let mut rng = Splitmix::new(7);
        let mut correction_ms = 0.0;
        for level in (1..LV_LEVELS).rev() {
            let dropped = random_poly(&mut rng, LV_N, ctx.chain().prime(level));
            let reps = 8;
            let ((), ms) = time_ms(|| {
                for _ in 0..reps {
                    std::hint::black_box(ctx.rescale_correction(level, &dropped));
                }
            });
            correction_ms += 2.0 * ms / f64::from(reps);
        }
        out.set("ntt.rescale_correction_share", correction_ms / op_ms);

        // Snapshot and restore between ops (a quiescent device): the
        // restored cluster must still hold every handle the benchmark
        // kept, which the next op and the verification then rely on.
        let reps = 3;
        let mut bytes = 0;
        let ((), ms) = time_ms(|| {
            for _ in 0..reps {
                let snap = self.eval.snapshot();
                bytes = snap.len();
                self.eval.restore(&snap).expect("own snapshot restores");
            }
        });
        out.set("snapshot.bytes", bytes as f64);
        out.set("snapshot.roundtrip_x_op", ms / f64::from(reps) / op_ms);
    }
}

// ---------------------------------------------------------------------
// rlwe_mulrot_wide_2k
// ---------------------------------------------------------------------

const RL_N: usize = 2048;
const RL_BITS: u32 = 120;
/// The evaluator's default gadget base, named so the host oracle
/// derives the same key material.
const RL_BASE_LOG: u32 = 16;

pub struct RlweMulRot {
    seed: u64,
    params: RlweParams,
    messages: Vec<Vec<u128>>,
}

impl RlweMulRot {
    pub fn new(seed: u64) -> Self {
        let q = PrimeTable::with_bits(RL_BITS)
            .ntt_prime(RL_N)
            .expect("prime exists");
        let mut rng = Splitmix::new(seed);
        RlweMulRot {
            seed,
            params: RlweParams { n: RL_N, q, t: T },
            messages: (0..SLOTS).map(|_| random_poly(&mut rng, RL_N, T)).collect(),
        }
    }

    fn key_stream(&self) -> Splitmix {
        Splitmix::new(self.seed ^ 0xB512_0000_0000_0002)
    }
}

impl Workload for RlweMulRot {
    fn name(&self) -> &'static str {
        metrics::RLWE
    }

    fn builder(&self) -> RpuBuilder {
        Rpu::builder().lanes(2).prime_bits(RL_BITS)
    }

    fn lanes(&self) -> usize {
        2
    }

    fn primary_spec(&self) -> Box<dyn KernelSpec> {
        Box::new(KeySwitchSpec::new(
            RL_N,
            self.params.q,
            CodegenStyle::Optimized,
        ))
    }

    fn run(
        &self,
        sink: Option<Arc<StampSink>>,
        body: &mut dyn FnMut(&mut dyn Instance),
    ) -> Teardown {
        let rpu = build_rpu(self.builder(), sink);
        let q = rpu.session().primes_for(RL_N).expect("prime exists");
        assert_eq!(
            q, self.params.q,
            "messages were sized for the session's prime"
        );
        let mut eval = RlweEvaluator::new(&rpu, self.params, CodegenStyle::Optimized)
            .expect("evaluator builds");
        assert_eq!(eval.key_base_log(), RL_BASE_LOG);
        let mut rng = self.key_stream();
        eval.keygen(&mut rng).expect("keygen");
        eval.relin_keygen(&mut rng).expect("relin keygen");
        eval.rotation_keygen(1, &mut rng).expect("rotation keygen");
        let inputs: Vec<DeviceCiphertext> = self
            .messages
            .iter()
            .map(|m| eval.encrypt(m, &mut rng).expect("encrypt"))
            .collect();
        let mut inst = RlweInstance {
            workload: self,
            eval,
            inputs,
            outputs: vec![None; SLOTS],
        };
        inst.warm_up();
        let with_keys_only = inst.live_buffers() - 4 * SLOTS;
        body(&mut inst);
        let RlweInstance {
            mut eval,
            inputs,
            outputs,
            ..
        } = inst;
        for ct in inputs.into_iter().chain(outputs.into_iter().flatten()) {
            eval.free_ciphertext(ct).expect("live ciphertext");
        }
        let lanes = eval.cluster().lane_count();
        let live: usize = (0..lanes)
            .map(|l| eval.cluster_mut().lane_session(l).live_buffers())
            .sum();
        Teardown {
            live_buffers: live - with_keys_only,
            ..Teardown::default()
        }
    }
}

struct RlweInstance<'a> {
    workload: &'a RlweMulRot,
    eval: RlweEvaluator<'a>,
    inputs: Vec<DeviceCiphertext>,
    outputs: Vec<Option<DeviceCiphertext>>,
}

impl RlweInstance<'_> {
    /// One op per slot, so every later op has an output to replace.
    fn warm_up(&mut self) {
        let mut off = Recorder::new(std::time::Instant::now(), false);
        for slot in 0..SLOTS {
            self.op(slot, &mut off).expect("warm-up op");
        }
    }

    fn op(&mut self, i: usize, rec: &mut Recorder) -> Result<(), RpuError> {
        let slot = i % SLOTS;
        let e = &mut self.eval;
        let x = self.inputs[slot];
        let product = span!(rec, "mul", e.mul(&x, &x))?;
        let rotated = span!(rec, "rotate", e.rotate(&product, 1))?;
        span!(rec, "free", e.free_ciphertext(product))?;
        if let Some(old) = self.outputs[slot].replace(rotated) {
            span!(rec, "free", e.free_ciphertext(old))?;
        }
        Ok(())
    }

    fn live_buffers(&mut self) -> usize {
        let lanes = self.eval.cluster().lane_count();
        (0..lanes)
            .map(|l| self.eval.cluster_mut().lane_session(l).live_buffers())
            .sum()
    }
}

impl Instance for RlweInstance<'_> {
    fn segment(&mut self, seconds: f64, rec: &mut Recorder) -> Segment {
        let before = total_transfer(&self.eval.cluster().stats());
        let mut seg = timed_loop(seconds, SLOTS, rec, |i, rec| self.op(i, rec));
        seg.transfer = Some(transfer_since(&self.eval.cluster().stats(), &before));
        let lanes = self.eval.cluster().lane_count();
        seg.resident_elems = Some(
            (0..lanes)
                .map(|l| self.eval.cluster_mut().lane_session(l).device_mem_in_use())
                .sum(),
        );
        seg
    }

    fn verify(&mut self, corrupt: bool) -> Verdict {
        let w = self.workload;
        let mut verdict = Verdict::default();
        let (oracle, mut oracle_ms) = time_ms(|| {
            let host = RlweContext::new(w.params).expect("valid parameters");
            let mut rng = w.key_stream();
            let sk = host.keygen(&mut rng);
            let rk = host.relin_keygen(&sk, &mut rng, RL_BASE_LOG);
            let gk = host
                .galois_keygen(&sk, host.galois_element(1), &mut rng, RL_BASE_LOG)
                .expect("odd galois element");
            let cts: Vec<_> = w
                .messages
                .iter()
                .map(|m| host.encrypt(&sk, &flipped(m, corrupt), &mut rng))
                .collect();
            (host, rk, gk, cts)
        });
        let (host, rk, gk, cts) = oracle;
        for (input, out) in cts.iter().zip(self.outputs.clone()) {
            let Some(out) = out else {
                continue;
            };
            let (expect, ms) = time_ms(|| {
                host.apply_galois(&gk, &host.mul(&rk, input, input))
                    .expect("key matches")
            });
            oracle_ms += ms;
            let same = self.eval.download_ciphertext(&out).map(|got| {
                got.a().values() == expect.a().values() && got.b().values() == expect.b().values()
            });
            verdict.checked += 1;
            verdict.mismatched += u64::from(!matches!(same, Ok(true)));
        }
        verdict.oracle_ms_per_check = oracle_ms / verdict.checked.max(1) as f64;
        verdict
    }
}
