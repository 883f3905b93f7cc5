//! Layer probes: each layer measured from outside through its public
//! functions, on the workload's own kernels, in the same process and
//! the same run as the traced segment.

use crate::metrics::Values;
use crate::stats::{median, quantile};
use crate::workload::{random_poly, time_ms, Workload};
use rpu::arith::{gadget_decompose, gadget_levels, Engine, EngineKind};
use rpu::codegen::spec_for_key;
use rpu::isa::{PipeClass, PredecodedProgram};
use rpu::ntt::rlwe::Splitmix;
use rpu::{CycleSim, FunctionalSim, Kernel, KernelKey, Ntt128Plan, PrimeTable, Rpu, SimStats};
use std::hint::black_box;
use std::time::Instant;

const LANES_PER_VECTOR: usize = 512;

/// ns per lane of `f` applied lane-wise over one 512-lane vector.
fn ns_per_lane(q: u128, f: impl Fn(Engine, u128, u128) -> u128) -> f64 {
    let engine = Engine::new(q).expect("valid modulus");
    let mut rng = Splitmix::new(q as u64);
    let a = random_poly(&mut rng, LANES_PER_VECTOR, q);
    let b = random_poly(&mut rng, LANES_PER_VECTOR, q);
    let mut out = vec![0u128; LANES_PER_VECTOR];
    let reps = 2000;
    // Median of a few batches, so one preemption does not set the figure.
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..reps / 5 {
                for ((o, &x), &y) in out.iter_mut().zip(&a).zip(&b) {
                    *o = f(engine, x, y);
                }
                black_box(&mut out);
            }
            t.elapsed().as_nanos() as f64 / (reps / 5 * LANES_PER_VECTOR) as f64
        })
        .collect();
    median(&batches)
}

/// The measured cost of one lane-level multiply and add on each engine
/// width, plus gadget decomposition — `rpu-arith` in isolation.
pub struct ArithCosts {
    pub wide_mul_ns: f64,
    pub wide_add_ns: f64,
    pub narrow_mul_ns: f64,
    pub narrow_add_ns: f64,
}

pub fn arith(out: &mut Values) -> ArithCosts {
    let wide = PrimeTable::new().ntt_prime(1024).expect("prime exists");
    let narrow = PrimeTable::with_bits(59)
        .ntt_prime(1024)
        .expect("prime exists");
    assert_eq!(EngineKind::for_modulus(wide), EngineKind::Montgomery128);
    assert_eq!(EngineKind::for_modulus(narrow), EngineKind::NativeU64);
    let costs = ArithCosts {
        wide_mul_ns: ns_per_lane(wide, Engine::mul),
        wide_add_ns: ns_per_lane(wide, Engine::add),
        narrow_mul_ns: ns_per_lane(narrow, Engine::mul),
        narrow_add_ns: ns_per_lane(narrow, Engine::add),
    };
    out.set("arith.mont128_mul_ns_per_lane", costs.wide_mul_ns);
    out.set("arith.mont128_add_ns_per_lane", costs.wide_add_ns);
    out.set("arith.native64_mul_ns_per_lane", costs.narrow_mul_ns);
    out.set("arith.native64_add_ns_per_lane", costs.narrow_add_ns);

    let n = 2048;
    let coeffs = random_poly(&mut Splitmix::new(3), n, wide);
    let levels = gadget_levels(wide, 16);
    let reps = 40;
    let ((), ms) = time_ms(|| {
        for _ in 0..reps {
            black_box(gadget_decompose(black_box(&coeffs), 16, levels));
        }
    });
    out.set(
        "arith.gadget_decompose_ns_per_coeff",
        ms * 1e6 / (reps * n) as f64,
    );
    costs
}

/// Codegen, ISA, cycle model and the two executors on the workload's
/// primary kernel; returns the kernel for the session probes.
pub fn primary_kernel(w: &dyn Workload, rpu: &Rpu, arith: &ArithCosts, out: &mut Values) -> Kernel {
    let spec = w.primary_spec();
    let (kernel, generate_ms) = time_ms(|| spec.generate().expect("primary kernel generates"));
    let (verified, verify_ms) = time_ms(|| kernel.verify().expect("primary kernel runs"));
    assert!(verified, "primary kernel failed its golden model");
    out.set("codegen.generate_ms", generate_ms);
    out.set("codegen.verify_ms", verify_ms);
    out.set("codegen.image_elems", kernel.total_elements() as f64);

    let program = kernel.program().clone();
    let (predecoded, predecode_ms) = time_ms(|| PredecodedProgram::new(program));
    out.set("isa.predecode_ms", predecode_ms);
    out.set("isa.program_instrs", predecoded.len() as f64);

    let cycle_sim = CycleSim::new(*rpu.config()).expect("valid configuration");
    let (stats, cycle_model_ms) = time_ms(|| cycle_sim.simulate(kernel.program()));
    out.set("sim.cycle_model_ms", cycle_model_ms);
    out.set("sim.cycles_per_dispatch", stats.cycles as f64);
    out.set("sim.ipc", stats.instructions() as f64 / stats.cycles as f64);
    out.set("sim.stall_hazard_cycles", stats.stall_hazard as f64);
    out.set("sim.stall_queue_full_cycles", stats.stall_queue_full as f64);
    out.set(
        "sim.pipe_util.compute",
        stats.utilization(PipeClass::Compute),
    );
    out.set(
        "sim.pipe_util.load_store",
        stats.utilization(PipeClass::LoadStore),
    );
    out.set(
        "sim.pipe_util.shuffle",
        stats.utilization(PipeClass::Shuffle),
    );

    let direct = DirectRun::new(rpu, &kernel);
    let (fast_us, overhead_us) = dispatch_vs_direct(rpu, &kernel, direct, 200_000.0);
    out.set("sim.fastpath_us_per_dispatch", fast_us);
    out.set("session.overhead_us_per_dispatch", overhead_us);

    // What the fast path would cost if it were nothing but its lane
    // arithmetic, at this process's measured per-lane costs.
    let (mul_ns, add_ns) = match kernel.engine() {
        EngineKind::Montgomery128 => (arith.wide_mul_ns, arith.wide_add_ns),
        _ => (arith.narrow_mul_ns, arith.narrow_add_ns),
    };
    let floor_us = (stats.mult_ops as f64 * mul_ns + stats.add_ops as f64 * add_ns) / 1e3;
    out.set("sim.floor_ratio", fast_us / floor_us);

    let mut interp = DirectRun::new(rpu, &kernel);
    let interp_us: Vec<f64> = (0..2).map(|_| interp.run(true)).collect();
    out.set("sim.interp_us_per_dispatch", median(&interp_us));

    let q = kernel.modulus();
    let n = kernel.degree();
    let plan = Ntt128Plan::new(n, q).expect("workload moduli are NTT primes");
    let mut x = random_poly(&mut Splitmix::new(5), n, q);
    let reps = (65536 / n).clamp(1, 16);
    let ((), ms) = time_ms(|| {
        for _ in 0..reps {
            plan.forward(black_box(&mut x));
        }
    });
    out.set("ntt.host_ntt_ms", ms / reps as f64);
    kernel
}

/// The kernel outside any session, under a session's conditions: a
/// simulator sized by `FunctionalSim::for_config`, the constant image
/// loaded once via `Kernel::load_into`, canonical (reduced) operands
/// re-bound before every run.
struct DirectRun<'k> {
    sim: FunctionalSim,
    kernel: &'k Kernel,
    operands: Vec<Vec<u128>>,
}

impl<'k> DirectRun<'k> {
    fn new(rpu: &Rpu, kernel: &'k Kernel) -> Self {
        let mut sim = FunctionalSim::for_config(rpu.config());
        sim.ensure_vdm(kernel.total_elements());
        sim.ensure_sdm(kernel.sdm_elements().max(16));
        kernel.load_into(&mut sim).expect("image fits");
        DirectRun {
            sim,
            kernel,
            operands: kernel.synthetic_operands(),
        }
    }

    /// One run, in µs; operand binding is outside the timed part.
    fn run(&mut self, interpreter: bool) -> f64 {
        for (data, &(offset, _)) in self.operands.iter().zip(self.kernel.input_ranges()) {
            self.sim.write_vdm(offset, data).expect("operand fits");
        }
        self.sim.set_arf(rpu::isa::AReg::at(0), 0);
        let t = Instant::now();
        if interpreter {
            self.sim.run(self.kernel.program())
        } else {
            self.sim.run_predecoded(self.kernel.predecoded())
        }
        .expect("kernel runs");
        t.elapsed().as_nanos() as f64 / 1e3
    }
}

/// The quiet-machine time of a repeated measurement: this box only ever
/// adds time (see the README), so the low decile is the steady figure.
fn quiet(samples_us: &[f64]) -> f64 {
    quantile(samples_us, 0.1)
}

/// `RpuSession::dispatch` and the bare fast path on the same kernel and
/// operands, alternating call by call, so machine drift hits both alike.
/// Returns `(fast path µs, dispatch − fast path µs)`; the difference is
/// what the session adds when the image is already loaded. A session
/// cannot be faster than the executor it calls, so a negative difference
/// is a disturbed measurement: it is taken again, and a third failure
/// is a bug worth stopping for.
fn dispatch_vs_direct(
    rpu: &Rpu,
    kernel: &Kernel,
    mut direct: DirectRun<'_>,
    budget_us: f64,
) -> (f64, f64) {
    let key = kernel.key();
    let mut session = rpu.session();
    let spec = spec_for_key(&key).expect("canonical key");
    let compiled = session.compile(&*spec).expect("kernel compiles");
    let inputs: Vec<_> = kernel
        .synthetic_operands()
        .iter()
        .map(|x| session.upload(x).expect("heap holds the operands"))
        .collect();
    let output = session
        .alloc(kernel.output_range().1)
        .expect("heap holds the output");
    session
        .dispatch(&compiled, &inputs, &[output])
        .expect("warm-up dispatch");
    let pairs = (budget_us / estimate_us(&mut direct)).clamp(8.0, 400.0) as usize;
    for attempt in 1..=3 {
        let (mut dispatch_us, mut fast_us) = (Vec::new(), Vec::new());
        for _ in 0..pairs * attempt {
            let t = Instant::now();
            session
                .dispatch(&compiled, &inputs, &[output])
                .expect("dispatch");
            dispatch_us.push(t.elapsed().as_nanos() as f64 / 1e3);
            fast_us.push(direct.run(false));
        }
        let (fast, overhead) = (quiet(&fast_us), quiet(&dispatch_us) - quiet(&fast_us));
        if overhead >= 0.0 {
            return (fast, overhead);
        }
        eprintln!("dispatch read {overhead:.2} us faster than its own executor; measuring again");
    }
    panic!("RpuSession::dispatch measured faster than run_predecoded three times over");
}

fn estimate_us(direct: &mut DirectRun<'_>) -> f64 {
    direct.run(false);
    direct.run(false).max(1.0)
}

/// `RpuSession` bookkeeping in isolation, at the primary kernel's size.
pub fn session(w: &dyn Workload, rpu: &Rpu, kernel: &Kernel, out: &mut Values) {
    let spec = w.primary_spec();
    let mut s = rpu.session();
    let ((), cold_ms) = time_ms(|| {
        s.compile(&*spec).expect("kernel compiles");
    });
    let warm: Vec<f64> = (0..50)
        .map(|_| {
            let t = Instant::now();
            black_box(s.compile(&*spec).expect("cached"));
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    out.set("session.compile_cold_ms", cold_ms);
    out.set("session.compile_warm_us", median(&warm));

    let n = kernel.degree();
    let data = random_poly(&mut Splitmix::new(9), n, kernel.modulus());
    let reps = (1 << 20) / n;
    let (mut up, mut down, mut alloc_free) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..reps.clamp(8, 256) {
        let t = Instant::now();
        let buf = s.upload(&data).expect("heap has room");
        up.push(t.elapsed().as_nanos() as f64 / n as f64);
        let t = Instant::now();
        black_box(s.download(&buf).expect("live buffer"));
        down.push(t.elapsed().as_nanos() as f64 / n as f64);
        s.free(buf).expect("live buffer");
        let t = Instant::now();
        let buf = s.alloc(n).expect("heap has room");
        s.free(buf).expect("live buffer");
        alloc_free.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    out.set("session.upload_ns_per_elem", median(&up));
    out.set("session.download_ns_per_elem", median(&down));
    out.set("session.alloc_free_us", median(&alloc_free));
}

/// One distinct kernel of the traced segment: how often it ran, what
/// the models say about it, and what its bare fast path costs here.
pub struct KernelRow {
    /// Index into the key list the table was built from.
    pub id: usize,
    pub key: KernelKey,
    pub dispatches: u64,
    pub stats: SimStats,
    pub energy_uj: f64,
    /// The bare fast path, image loaded, operands bound.
    pub fastpath_us: f64,
    /// What `dispatch` adds to the bare fast path while the kernel's
    /// image stays loaded (paired, alternating measurement).
    pub overhead_us: f64,
    /// What loading the kernel's constant image costs — paid by every
    /// dispatch that follows a different kernel on its lane.
    pub image_load_us: f64,
}

/// Regenerates every kernel the segment dispatched from its key (the
/// evaluators and the server compile theirs internally) and measures it.
pub fn kernel_table(rpu: &Rpu, keys: &[KernelKey], dispatches: &[u64]) -> Vec<KernelRow> {
    let cycle_sim = CycleSim::new(*rpu.config()).expect("valid configuration");
    let mut used: Vec<(usize, &KernelKey, u64)> = keys
        .iter()
        .zip(dispatches)
        .enumerate()
        .filter(|(_, (_, &count))| count > 0)
        .map(|(id, (key, &count))| (id, key, count))
        .collect();
    used.sort_by_key(|(_, key, _)| key.to_bytes());
    used.into_iter()
        .map(|(id, key, count)| {
            let kernel = spec_for_key(key)
                .expect("dispatched kernels have canonical keys")
                .generate()
                .expect("dispatched kernels regenerate");
            let stats = cycle_sim.simulate(kernel.program());
            let mut direct = DirectRun::new(rpu, &kernel);
            let loads: Vec<f64> = (0..12)
                .map(|_| {
                    let t = Instant::now();
                    kernel.load_into(&mut direct.sim).expect("image fits");
                    t.elapsed().as_nanos() as f64 / 1e3
                })
                .collect();
            let (fastpath_us, overhead_us) = dispatch_vs_direct(rpu, &kernel, direct, 60_000.0);
            KernelRow {
                id,
                key: *key,
                dispatches: count,
                energy_uj: rpu.energy_model().breakdown(&stats).total_uj(),
                fastpath_us,
                overhead_us,
                image_load_us: quiet(&loads),
                stats,
            }
        })
        .collect()
}
