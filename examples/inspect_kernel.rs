//! Inspect a generated B512 kernel: the Listing-1 view of this
//! reproduction. Prints the assembly head of the SPIRAL-style 1024-point
//! NTT kernel, its instruction mix, the binary encoding of the first few
//! words, a busyboard-stall comparison against the unoptimized
//! program, and the lane storage width a session running it holds.
//!
//! Run with: `cargo run --release --example inspect_kernel`

use rpu::{CodegenStyle, CycleSim, Direction, KernelSpec, NttSpec, PrimeTable, Rpu, RpuConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 1024usize;
    let q = PrimeTable::new().ntt_prime(n)?;

    let kernel = NttSpec::new(n, q, Direction::Forward, CodegenStyle::Optimized).generate()?;
    let program = kernel.program();

    println!(
        "// {} — SPIRAL-style generated radix-2 {n}-point NTT",
        program.name()
    );
    println!("// modulus q = {q:#034x}");
    let mix = program.mix();
    println!(
        "// {} instructions: {} LSI, {} CI, {} SI\n",
        mix.total(),
        mix.load_store,
        mix.compute,
        mix.shuffle
    );

    // The Listing 1 moment: the first instructions of the kernel.
    for line in program.to_asm().lines().take(16) {
        println!("{line}");
    }
    println!("...\n");

    // Binary encoding round-trip (Table I).
    println!("first four instruction words (Table I encoding):");
    for (i, word) in program.to_words().iter().take(4).enumerate() {
        let decoded = rpu::isa::decode(*word)?;
        println!("  {word:#018x}  {decoded}");
        assert_eq!(&decoded, &program.instructions()[i]);
    }

    // Busyboard behaviour: optimized vs unoptimized (the Fig. 6 story).
    let unopt = NttSpec::new(n, q, Direction::Forward, CodegenStyle::Unoptimized).generate()?;
    let sim = CycleSim::new(RpuConfig::pareto_128x128()).map_err(rpu::RpuError::Config)?;
    let so = sim.simulate(program);
    let su = sim.simulate(unopt.program());
    println!("\non (128, 128):");
    println!(
        "  optimized:   {:>6} cycles, {:>6} hazard-stall cycles",
        so.cycles, so.stall_hazard
    );
    println!(
        "  unoptimized: {:>6} cycles, {:>6} hazard-stall cycles  ({:.2}x slower)",
        su.cycles,
        su.stall_hazard,
        su.cycles as f64 / so.cycles as f64
    );

    // Elements are 128 bits architecturally; the simulator stores them
    // in 64-bit words for as long as every value fits.
    println!("\nlane storage width of a session running this NTT:");
    for bits in [126, 59] {
        let rpu = Rpu::builder().prime_bits(bits).build()?;
        let mut session = rpu.session();
        session.ntt(n, Direction::Forward, CodegenStyle::Optimized)?;
        println!("  {bits:>3}-bit prime: {}-bit lanes", session.lane_bits());
    }
    Ok(())
}
