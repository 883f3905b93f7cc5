//! End-to-end kernel validation: every generated B512 program, executed
//! on the functional simulator, must reproduce the scalar golden model
//! exactly — the reproduction of the paper's "all codes generated by
//! SPIRAL run through the functional simulator and match OpenFHE's
//! output".

use rpu_codegen::{CodegenError, CodegenStyle, Direction, Kernel, KernelSpec, NttSpec};
use rpu_isa::consts::VECTOR_LEN;
use rpu_ntt::testutil::{cached_prime, test_vector};
use rpu_sim::FunctionalSim;

fn ntt(n: usize, q: u128, direction: Direction, style: CodegenStyle) -> Kernel {
    NttSpec::new(n, q, direction, style)
        .generate()
        .expect("generation succeeds")
}

/// Runs a kernel on the functional simulator and returns its output.
fn run_kernel(kernel: &Kernel, input: &[u128]) -> Vec<u128> {
    let mut sim = FunctionalSim::new(kernel.total_elements(), 16);
    sim.write_vdm(0, &kernel.vdm_image(&[input])).unwrap();
    sim.write_sdm(0, &kernel.sdm_image()).unwrap();
    sim.run(kernel.program())
        .expect("kernel must execute cleanly");
    let (off, len) = kernel.output_range();
    sim.read_vdm(off, len).unwrap()
}

fn check(n: usize, direction: Direction, style: CodegenStyle) {
    let q = cached_prime(126, 2 * n as u128);
    let kernel = ntt(n, q, direction, style);
    let input = test_vector(n, q, n as u64 ^ 0xC0FFEE);
    let got = run_kernel(&kernel, &input);
    let expect = kernel.expected_output(&[&input]);
    assert_eq!(got, expect, "n={n} {direction:?} {style:?}");
}

#[test]
fn forward_optimized_1k() {
    check(1024, Direction::Forward, CodegenStyle::Optimized);
}

#[test]
fn forward_optimized_2k() {
    check(2048, Direction::Forward, CodegenStyle::Optimized);
}

#[test]
fn forward_optimized_4k() {
    check(4096, Direction::Forward, CodegenStyle::Optimized);
}

#[test]
fn forward_optimized_16k() {
    check(16384, Direction::Forward, CodegenStyle::Optimized);
}

#[test]
fn forward_unoptimized_1k() {
    check(1024, Direction::Forward, CodegenStyle::Unoptimized);
}

#[test]
fn forward_unoptimized_4k() {
    check(4096, Direction::Forward, CodegenStyle::Unoptimized);
}

#[test]
fn inverse_optimized_1k() {
    check(1024, Direction::Inverse, CodegenStyle::Optimized);
}

#[test]
fn inverse_optimized_4k() {
    check(4096, Direction::Inverse, CodegenStyle::Optimized);
}

#[test]
fn inverse_unoptimized_1k() {
    check(1024, Direction::Inverse, CodegenStyle::Unoptimized);
}

#[test]
fn forward_then_inverse_round_trip_on_hardware() {
    // Run BOTH kernels through the functional simulator: the RPU must be
    // able to complete a full forward+inverse round trip by itself.
    let n = 2048usize;
    let q = cached_prime(126, 2 * n as u128);
    let fwd = ntt(n, q, Direction::Forward, CodegenStyle::Optimized);
    let inv = ntt(n, q, Direction::Inverse, CodegenStyle::Optimized);
    let input = test_vector(n, q, 42);
    let transformed = run_kernel(&fwd, &input);
    let back = run_kernel(&inv, &transformed);
    assert_eq!(back, input);
}

#[test]
fn optimized_and_unoptimized_agree() {
    let n = 1024usize;
    let q = cached_prime(126, 2 * n as u128);
    let input = test_vector(n, q, 7);
    let opt = ntt(n, q, Direction::Forward, CodegenStyle::Optimized);
    let unopt = ntt(n, q, Direction::Forward, CodegenStyle::Unoptimized);
    assert_eq!(run_kernel(&opt, &input), run_kernel(&unopt, &input));
}

#[test]
fn instruction_counts_match_paper_formula() {
    // The paper quotes 1024 CIs for the 64K NTT: (n/1024)·log2(n).
    for (n, log_n) in [(1024usize, 10u32), (4096, 12), (65536, 16)] {
        let q = cached_prime(126, 2 * n as u128);
        let k = ntt(n, q, Direction::Forward, CodegenStyle::Optimized);
        let mix = k.program().mix();
        let expect_ci = (n / 1024) * log_n as usize;
        assert_eq!(mix.compute, expect_ci, "n={n}");
        // two shuffles per butterfly block
        assert_eq!(mix.shuffle, 2 * expect_ci, "n={n}");
        assert!(k.program().fits_instruction_memory());
    }
}

#[test]
fn kernel_64k_validates() {
    // the headline workload, full functional check
    check(65536, Direction::Forward, CodegenStyle::Optimized);
}

#[test]
fn rejects_small_or_odd_degrees() {
    let q = cached_prime(126, 2048);
    let generate = |n| NttSpec::new(n, q, Direction::Forward, CodegenStyle::Optimized).generate();
    assert!(matches!(
        generate(512),
        Err(CodegenError::UnsupportedDegree(512))
    ));
    assert!(matches!(
        generate(1000),
        Err(CodegenError::UnsupportedDegree(1000))
    ));
}

#[test]
fn vdm_image_places_twiddles() {
    let n = 1024usize;
    let q = cached_prime(126, 2 * n as u128);
    let k = ntt(n, q, Direction::Forward, CodegenStyle::Optimized);
    let image = k.vdm_image(&[&vec![0u128; n]]);
    // one twiddle table after the two ping-pong buffers, stage 0 first
    let [(base, _)] = k.constant_spans() else {
        panic!("one table: {:?}", k.constant_spans())
    };
    assert_eq!(*base, 2 * n);
    // stage-0 twiddle is psi^{n/2}; its square is -1
    let m = rpu_arith::Modulus128::new(q).unwrap();
    let t0 = image[*base];
    assert_eq!(m.mul(t0, t0), q - 1);
    // all VECTOR_LEN entries of the stage-0 vector are equal
    assert!(image[*base..*base + VECTOR_LEN].iter().all(|&v| v == t0));
}

#[test]
fn strided_memory_forward_1k() {
    check(1024, Direction::Forward, CodegenStyle::StridedMemory);
}

#[test]
fn strided_memory_forward_4k() {
    check(4096, Direction::Forward, CodegenStyle::StridedMemory);
}

#[test]
fn strided_memory_inverse_2k() {
    check(2048, Direction::Inverse, CodegenStyle::StridedMemory);
}

#[test]
fn strided_memory_has_no_shuffles() {
    let n = 4096usize;
    let q = cached_prime(126, 2 * n as u128);
    let k = ntt(n, q, Direction::Forward, CodegenStyle::StridedMemory);
    assert_eq!(k.program().mix().shuffle, 0, "shuffle-free by construction");
    // same butterfly count as the shuffle version
    let opt = ntt(n, q, Direction::Forward, CodegenStyle::Optimized);
    assert_eq!(k.program().mix().compute, opt.program().mix().compute);
}
