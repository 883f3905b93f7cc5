//! The kernel table: one row per kernel the generators are asked for —
//! every NTT at n ∈ {1024, 2048, 4096, 65536} in each style and
//! direction, each other generator at the same degrees and styles, and
//! a few specs a generator must reject — with the fingerprints of what
//! it produced.
//!
//! Each accepted row carries the kernel's key, its instruction count,
//! the FNV-1a of its encoded words, the FNV-1a of its data image
//! (`total_elements`, the constant spans and their table values, the SDM
//! image, the input ranges and the output range), the golden-model
//! verdict, every `SimStats` field on the (128, 128) design point and
//! the energy total. A rejected spec's row carries its typed error.
//!
//! The output is committed as `docs/kernels.tsv`; CI regenerates and
//! diffs it, so a change that moves one instruction, table value, SDM
//! slot or operand window of any generated kernel shows there.
//!
//! Run with: `cargo run --release -p rpu-bench --bin kernel_table`

use rpu::{
    AutomorphismSpec, CodegenStyle, ConvolutionSpec, CycleSim, Direction, ElementwiseOp,
    ElementwiseSpec, EnergyModel, Kernel, KernelKey, KernelSpec, KeySwitchSpec, NttSpec,
    RescaleSpec, RpuConfig, SimStats,
};

/// FNV-1a, fed byte by byte.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn usize(&mut self, v: usize) {
        self.bytes(&(v as u64).to_le_bytes());
    }

    fn u128s(&mut self, values: &[u128]) {
        for v in values {
            self.bytes(&v.to_le_bytes());
        }
    }
}

fn key_cell(k: &KernelKey) -> String {
    format!(
        "{}/{}/{}/{}/q={:#x}/param={}",
        k.op, k.n, k.direction, k.style, k.q, k.param
    )
}

/// The FNV-1a of the kernel's data image, in the order the module
/// header lists.
fn data_fingerprint(kernel: &Kernel) -> u64 {
    let mut h = Fnv::new();
    h.usize(kernel.total_elements());
    let zeros: Vec<Vec<u128>> = (kernel.input_ranges().iter())
        .map(|&(_, len)| vec![0; len])
        .collect();
    let operands: Vec<&[u128]> = zeros.iter().map(Vec::as_slice).collect();
    let image = kernel.vdm_image(&operands);
    for &(off, len) in kernel.constant_spans() {
        h.usize(off);
        h.usize(len);
        h.u128s(&image[off..off + len]);
    }
    h.u128s(&kernel.sdm_image());
    for &(off, len) in kernel.input_ranges() {
        h.usize(off);
        h.usize(len);
    }
    let (off, len) = kernel.output_range();
    h.usize(off);
    h.usize(len);
    h.0
}

const STAT_COLUMNS: &str = "cycles\tcount_load_store\tcount_compute\tcount_shuffle\t\
    busy_load_store\tbusy_compute\tbusy_shuffle\tstall_hazard\tstall_queue_full\t\
    max_hazard_wait\tmax_shuffle_hazard_wait\tvdm_elem_reads\tvdm_elem_writes\t\
    vrf_elem_reads\tvrf_elem_writes\tmult_ops\tadd_ops\tvbar_elems\tsbar_elems\t\
    im_fetches\tsdm_elem_accesses";

/// Every `SimStats` field, in [`STAT_COLUMNS`] order. The destructuring
/// is exhaustive, so a new field fails to compile here until it has a
/// column.
fn stat_cells(s: &SimStats) -> String {
    let SimStats {
        cycles,
        count_load_store,
        count_compute,
        count_shuffle,
        busy_load_store,
        busy_compute,
        busy_shuffle,
        stall_hazard,
        stall_queue_full,
        max_hazard_wait,
        max_shuffle_hazard_wait,
        vdm_elem_reads,
        vdm_elem_writes,
        vrf_elem_reads,
        vrf_elem_writes,
        mult_ops,
        add_ops,
        vbar_elems,
        sbar_elems,
        im_fetches,
        sdm_elem_accesses,
    } = *s;
    [
        cycles,
        count_load_store,
        count_compute,
        count_shuffle,
        busy_load_store,
        busy_compute,
        busy_shuffle,
        stall_hazard,
        stall_queue_full,
        max_hazard_wait,
        max_shuffle_hazard_wait,
        vdm_elem_reads,
        vdm_elem_writes,
        vrf_elem_reads,
        vrf_elem_writes,
        mult_ops,
        add_ops,
        vbar_elems,
        sbar_elems,
        im_fetches,
        sdm_elem_accesses,
    ]
    .map(|v| v.to_string())
    .join("\t")
}

/// One row: the kernel's fingerprints, or the generator's typed error.
fn row(spec: &dyn KernelSpec, sim: &CycleSim) -> Result<String, Box<dyn std::error::Error>> {
    let key = key_cell(&spec.key());
    let kernel = match spec.generate() {
        Ok(kernel) => kernel,
        Err(e) => {
            let blanks = vec!["-"; 5 + STAT_COLUMNS.split('\t').count()].join("\t");
            return Ok(format!("{key}\t{blanks}\t{e:?}"));
        }
    };
    let p = kernel.program();
    let mut words = Fnv::new();
    for w in p.to_words() {
        words.bytes(&w.to_le_bytes());
    }
    let stats = sim.simulate(p);
    let energy = EnergyModel::default().breakdown(&stats).total_uj();
    Ok(format!(
        "{key}\t{}\t{:#018x}\t{:#018x}\t{}\t{}\t{energy}\t-",
        p.len(),
        words.0,
        data_fingerprint(&kernel),
        kernel.verify()?,
        stat_cells(&stats),
    ))
}

/// The specs of the table, accepted ones first.
fn specs() -> Vec<Box<dyn KernelSpec>> {
    use CodegenStyle::{Optimized, StridedMemory, Unoptimized};
    use Direction::{Forward, Inverse};
    use ElementwiseOp::{AddMod, MulMod, SubMod};
    let mut specs: Vec<Box<dyn KernelSpec>> = Vec::new();
    for n in [1024usize, 2048, 4096, 65536] {
        let q = rpu::arith::find_ntt_prime_u128(126, 2 * n as u128).expect("prime exists");
        let p = rpu::arith::find_ntt_prime_u64(59, 2 * n as u64).expect("prime exists");
        for style in [Optimized, Unoptimized, StridedMemory] {
            for direction in [Forward, Inverse] {
                specs.push(Box::new(NttSpec::new(n, q, direction, style)));
            }
            for op in [MulMod, AddMod, SubMod] {
                specs.push(Box::new(ElementwiseSpec::new(op, n, q, style)));
            }
            specs.push(Box::new(ConvolutionSpec::new(n, q, style)));
            specs.push(Box::new(AutomorphismSpec::new(n, q, 5, style)));
            specs.push(Box::new(KeySwitchSpec::new(n, q, style)));
            specs.push(Box::new(RescaleSpec::new(n, q, u128::from(p), style)));
        }
    }
    // Rejected: a degree below one butterfly block, a prime with no
    // 2n-th root of unity, a working set past the address field, an
    // even Galois element, a dropped prime equal to the tower's, a
    // vector length that is not whole vectors, and no modulus at all.
    let n = 1024usize;
    let q = rpu::arith::find_ntt_prime_u128(126, 2 * n as u128).expect("prime exists");
    let big = 131_072usize;
    let q_big = rpu::arith::find_ntt_prime_u128(126, 2 * big as u128).expect("prime exists");
    specs.push(Box::new(NttSpec::new(512, q, Forward, Optimized)));
    let mersenne = (1u128 << 61) - 1;
    specs.push(Box::new(NttSpec::new(n, mersenne, Forward, Optimized)));
    specs.push(Box::new(ConvolutionSpec::new(big, q_big, Optimized)));
    specs.push(Box::new(AutomorphismSpec::new(n, q, 6, Optimized)));
    specs.push(Box::new(RescaleSpec::new(n, q, q, Optimized)));
    specs.push(Box::new(KeySwitchSpec::new(100, q, Optimized)));
    specs.push(Box::new(ElementwiseSpec::new(AddMod, n, 1, Optimized)));
    specs
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let sim = CycleSim::new(RpuConfig::pareto_128x128()).map_err(rpu::RpuError::Config)?;
    println!("# Generated by `cargo run --release -p rpu-bench --bin kernel_table`; do not edit.");
    println!("# One row per kernel spec; SimStats on the (128, 128) design point, energy in µJ.");
    println!("key\tinstructions\twords_fnv\tdata_fnv\tverified\t{STAT_COLUMNS}\tenergy_uj\terror");
    for spec in specs() {
        println!("{}", row(spec.as_ref(), &sim)?);
    }
    Ok(())
}
