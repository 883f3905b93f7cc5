//! The two workloads that drive `RpuSession` directly: one large wide
//! dispatch (`ntt64k_wide`) and many small narrow ones
//! (`chain_narrow_1k`).

use crate::metrics;
use crate::span;
use crate::spans::{Recorder, StampSink};
use crate::workload::{
    build_rpu, random_poly, time_ms, timed_loop, Instance, Segment, Teardown, Verdict, Workload,
};
use rpu::arith::Engine;
use rpu::ntt::rlwe::Splitmix;
use rpu::{
    CodegenStyle, DeviceBuffer, Direction, ElementwiseOp, ElementwiseSpec, Kernel, KernelSpec,
    Ntt128Plan, NttSpec, PeaseSchedule, PrimeTable, Rpu, RpuBuilder, RpuSession, TransferStats,
};
use std::sync::Arc;

fn compile_verified(session: &mut RpuSession<'_>, spec: &dyn KernelSpec) -> Arc<Kernel> {
    let kernel = session.compile(spec).expect("kernel compiles");
    assert_eq!(
        kernel.verification(),
        Some(true),
        "kernel {:?} failed its golden model",
        kernel.key()
    );
    kernel
}

// ---------------------------------------------------------------------
// ntt64k_wide
// ---------------------------------------------------------------------

const NTT_N: usize = 65536;
/// Resident input/output pairs the ops cycle over; every output is
/// checked after the segment.
const NTT_SLOTS: usize = 4;

pub struct Ntt64k {
    q: u128,
    inputs: Vec<Vec<u128>>,
}

impl Ntt64k {
    pub fn new(seed: u64) -> Self {
        let q = PrimeTable::new().ntt_prime(NTT_N).expect("prime exists");
        let mut rng = Splitmix::new(seed);
        Ntt64k {
            q,
            inputs: (0..NTT_SLOTS)
                .map(|_| random_poly(&mut rng, NTT_N, q))
                .collect(),
        }
    }
}

impl Workload for Ntt64k {
    fn name(&self) -> &'static str {
        metrics::NTT64K
    }

    fn builder(&self) -> RpuBuilder {
        Rpu::builder()
            .geometry(128, 128)
            .device_heap_elements(2 * NTT_SLOTS * NTT_N)
    }

    fn lanes(&self) -> usize {
        1
    }

    fn primary_spec(&self) -> Box<dyn KernelSpec> {
        Box::new(NttSpec::new(
            NTT_N,
            self.q,
            Direction::Forward,
            CodegenStyle::Optimized,
        ))
    }

    fn run(
        &self,
        sink: Option<Arc<StampSink>>,
        body: &mut dyn FnMut(&mut dyn Instance),
    ) -> Teardown {
        let rpu = build_rpu(self.builder(), sink);
        let mut session = rpu.session();
        let q = session.primes_for(NTT_N).expect("prime exists");
        assert_eq!(q, self.q, "inputs were reduced for the session's prime");
        let kernel = compile_verified(&mut session, &*self.primary_spec());
        let xs: Vec<DeviceBuffer> = self
            .inputs
            .iter()
            .map(|x| session.upload(x).expect("heap holds the inputs"))
            .collect();
        let ys: Vec<DeviceBuffer> = (0..NTT_SLOTS)
            .map(|_| session.alloc(NTT_N).expect("heap holds the outputs"))
            .collect();
        session
            .dispatch(&kernel, &[xs[0]], &[ys[0]])
            .expect("warm-up dispatch");
        let mut inst = NttInstance {
            workload: self,
            session,
            kernel,
            xs,
            ys,
            written: [false; NTT_SLOTS],
        };
        body(&mut inst);
        let NttInstance {
            mut session,
            xs,
            ys,
            ..
        } = inst;
        for buf in xs.into_iter().chain(ys) {
            session.free(buf).expect("live handle");
        }
        Teardown {
            live_buffers: session.live_buffers(),
            ..Teardown::default()
        }
    }
}

struct NttInstance<'a> {
    workload: &'a Ntt64k,
    session: RpuSession<'a>,
    kernel: Arc<Kernel>,
    xs: Vec<DeviceBuffer>,
    ys: Vec<DeviceBuffer>,
    written: [bool; NTT_SLOTS],
}

impl Instance for NttInstance<'_> {
    fn segment(&mut self, seconds: f64, rec: &mut Recorder) -> Segment {
        let mut transfer = TransferStats::default();
        let mut seg = timed_loop(seconds, NTT_SLOTS, rec, |i, rec| {
            let s = i % NTT_SLOTS;
            let report = span!(
                rec,
                "dispatch",
                self.session
                    .dispatch(&self.kernel, &[self.xs[s]], &[self.ys[s]])
            )?;
            transfer.absorb(&report.transfer);
            self.written[s] = true;
            Ok(())
        });
        seg.transfer = Some(transfer);
        seg.resident_elems = Some(self.session.device_mem_in_use());
        seg
    }

    fn verify(&mut self, corrupt: bool) -> Verdict {
        // Independent of the kernel's own golden model: the standard
        // in-place plan, permuted into the kernel's Pease output order.
        let mut verdict = Verdict::default();
        let mut oracle_ms = 0.0;
        let perm = PeaseSchedule::new(NTT_N, self.workload.q)
            .expect("schedule exists")
            .to_standard_permutation();
        let plan = Ntt128Plan::new(NTT_N, self.workload.q).expect("plan exists");
        for s in (0..NTT_SLOTS).filter(|&s| self.written[s]) {
            let got = self.session.download(&self.ys[s]).expect("live output");
            let (expect, ms) = time_ms(|| {
                let mut std_order = self.workload.inputs[s].clone();
                std_order[0] ^= u128::from(corrupt);
                plan.forward(&mut std_order);
                perm.iter().map(|&p| std_order[p]).collect::<Vec<u128>>()
            });
            oracle_ms += ms;
            verdict.checked += 1;
            verdict.mismatched += u64::from(got != expect);
        }
        verdict.oracle_ms_per_check = oracle_ms / verdict.checked.max(1) as f64;
        verdict
    }
}

// ---------------------------------------------------------------------
// chain_narrow_1k
// ---------------------------------------------------------------------

const CHAIN_N: usize = 1024;
const CHAIN_BITS: u32 = 59;
/// Dispatches per op, cycling MulMod → AddMod → SubMod so consecutive
/// dispatches never share a kernel image.
const CHAIN_LEN: usize = 64;
/// Operand pairs the ops cycle over; the last result of each is checked.
const CHAIN_POOL: usize = 16;
const CHAIN_OPS: [ElementwiseOp; 3] = [
    ElementwiseOp::MulMod,
    ElementwiseOp::AddMod,
    ElementwiseOp::SubMod,
];

pub struct ChainNarrow {
    q: u128,
    pairs: Vec<(Vec<u128>, Vec<u128>)>,
}

impl ChainNarrow {
    pub fn new(seed: u64) -> Self {
        let q = PrimeTable::with_bits(CHAIN_BITS)
            .ntt_prime(CHAIN_N)
            .expect("prime exists");
        let mut rng = Splitmix::new(seed);
        ChainNarrow {
            q,
            pairs: (0..CHAIN_POOL)
                .map(|_| {
                    (
                        random_poly(&mut rng, CHAIN_N, q),
                        random_poly(&mut rng, CHAIN_N, q),
                    )
                })
                .collect(),
        }
    }

    fn spec(&self, op: ElementwiseOp) -> ElementwiseSpec {
        ElementwiseSpec::new(op, CHAIN_N, self.q, CodegenStyle::Optimized)
    }
}

impl Workload for ChainNarrow {
    fn name(&self) -> &'static str {
        metrics::CHAIN
    }

    fn builder(&self) -> RpuBuilder {
        Rpu::builder().prime_bits(CHAIN_BITS)
    }

    fn lanes(&self) -> usize {
        1
    }

    fn primary_spec(&self) -> Box<dyn KernelSpec> {
        Box::new(self.spec(ElementwiseOp::MulMod))
    }

    fn run(
        &self,
        sink: Option<Arc<StampSink>>,
        body: &mut dyn FnMut(&mut dyn Instance),
    ) -> Teardown {
        let rpu = build_rpu(self.builder(), sink);
        let mut session = rpu.session();
        let q = session.primes_for(CHAIN_N).expect("prime exists");
        assert_eq!(q, self.q, "inputs were reduced for the session's prime");
        let kernels = CHAIN_OPS.map(|op| compile_verified(&mut session, &self.spec(op)));
        let mut inst = ChainInstance {
            workload: self,
            session,
            kernels,
            results: vec![None; CHAIN_POOL],
            transfer: TransferStats::default(),
        };
        inst.op(0, &mut Recorder::new(std::time::Instant::now(), false))
            .expect("warm-up op");
        body(&mut inst);
        Teardown {
            live_buffers: inst.session.live_buffers(),
            ..Teardown::default()
        }
    }
}

struct ChainInstance<'a> {
    workload: &'a ChainNarrow,
    session: RpuSession<'a>,
    kernels: [Arc<Kernel>; 3],
    results: Vec<Option<Vec<u128>>>,
    transfer: TransferStats,
}

impl ChainInstance<'_> {
    fn op(&mut self, i: usize, rec: &mut Recorder) -> Result<(), rpu::RpuError> {
        let slot = i % CHAIN_POOL;
        let (a, b) = &self.workload.pairs[slot];
        let s = &mut self.session;
        let da = span!(rec, "upload", s.upload(a))?;
        let db = span!(rec, "upload", s.upload(b))?;
        let dc = span!(rec, "alloc", s.alloc(CHAIN_N))?;
        let (mut cur, mut next) = (da, dc);
        for j in 0..CHAIN_LEN {
            let report = span!(
                rec,
                "dispatch",
                s.dispatch(&self.kernels[j % 3], &[cur, db], &[next])
            )?;
            self.transfer.absorb(&report.transfer);
            std::mem::swap(&mut cur, &mut next);
        }
        let out = span!(rec, "download", s.download(&cur))?;
        span!(rec, "free", {
            s.free(da)?;
            s.free(db)?;
            s.free(dc)?;
        });
        self.transfer.host_to_device += 2 * CHAIN_N;
        self.transfer.device_to_host += CHAIN_N;
        self.results[slot] = Some(out);
        Ok(())
    }
}

impl Instance for ChainInstance<'_> {
    fn segment(&mut self, seconds: f64, rec: &mut Recorder) -> Segment {
        self.transfer = TransferStats::default();
        self.results.fill(None);
        let mut seg = timed_loop(seconds, CHAIN_POOL, rec, |i, rec| self.op(i, rec));
        seg.transfer = Some(self.transfer);
        seg.resident_elems = Some(self.session.device_mem_in_use());
        seg
    }

    fn verify(&mut self, corrupt: bool) -> Verdict {
        let engine = Engine::new(self.workload.q).expect("valid modulus");
        let mut verdict = Verdict::default();
        let mut oracle_ms = 0.0;
        for (slot, got) in self.results.iter().enumerate() {
            let Some(got) = got else { continue };
            let (a, b) = &self.workload.pairs[slot];
            let (expect, ms) = time_ms(|| {
                let mut v = a.clone();
                v[0] ^= u128::from(corrupt);
                for j in 0..CHAIN_LEN {
                    for (x, &y) in v.iter_mut().zip(b) {
                        *x = match CHAIN_OPS[j % 3] {
                            ElementwiseOp::MulMod => engine.mul(*x, y),
                            ElementwiseOp::AddMod => engine.add(*x, y),
                            ElementwiseOp::SubMod => engine.sub(*x, y),
                        };
                    }
                }
                v
            });
            oracle_ms += ms;
            verdict.checked += 1;
            verdict.mismatched += u64::from(*got != expect);
        }
        verdict.oracle_ms_per_check = oracle_ms / verdict.checked.max(1) as f64;
        verdict
    }
}
