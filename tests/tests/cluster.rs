//! Multi-lane cluster semantics: lane isolation (a buffer belongs to
//! exactly one lane), the `on_lanes` primitive and the work-conserving
//! `run_jobs` on top of it, aggregated reports, and the negative paths
//! that keep handle misuse an error instead of heap corruption.

use rpu::arith::find_ntt_prime_chain;
use rpu::ntt::Ntt128Plan;
use rpu::recipes::LaneKernels;
use rpu::{
    BufferError, CodegenStyle, ConvolutionSpec, Direction, ElementwiseOp, ElementwiseSpec,
    KernelSpec, LaneJob, NttSpec, Rpu, RpuError, RpuSession,
};
use std::sync::{mpsc, Barrier, Mutex};
use std::time::Duration;

fn mul_spec(n: usize, q: u128) -> ElementwiseSpec {
    ElementwiseSpec::new(ElementwiseOp::MulMod, n, q, CodegenStyle::Optimized)
}

#[test]
fn builder_lane_count_flows_into_cluster() {
    let rpu = Rpu::builder().lanes(4).build().unwrap();
    assert_eq!(rpu.lanes(), 4);
    assert_eq!(rpu.cluster().lane_count(), 4);
    assert_eq!(rpu.cluster_with(2).unwrap().lane_count(), 2);
    // default stays single-lane
    assert_eq!(Rpu::builder().build().unwrap().cluster().lane_count(), 1);
    // out-of-range counts are rejected at build
    assert!(matches!(
        Rpu::builder().lanes(0).build(),
        Err(RpuError::Config(_))
    ));
    assert!(matches!(
        Rpu::builder().lanes(65).build(),
        Err(RpuError::Config(_))
    ));
}

#[test]
fn an_explicit_lane_count_out_of_range_is_an_error_not_a_panic() {
    let rpu = Rpu::builder().build().unwrap();
    for k in [0, 65] {
        assert!(
            matches!(rpu.cluster_with(k), Err(RpuError::Config(_))),
            "cluster_with({k})"
        );
    }
    assert_eq!(rpu.cluster_with(64).unwrap().lane_count(), 64);
}

#[test]
fn cross_lane_handles_error_not_corrupt() {
    // Lanes are separate devices and buffer ids are global and never
    // reused, so a lane's session has never held another lane's handle:
    // its heap refuses it before the dispatch touches any device state
    // or counter.
    let n = 1024usize;
    let rpu = Rpu::builder().lanes(2).build().unwrap();
    let mut c = rpu.cluster();
    let q = c.primes_for(n).unwrap();
    let kernel = c.lane_session(1).compile(&mul_spec(n, q)).unwrap();

    let x0 = c.lane_session(0).upload(&vec![3u128; n]).unwrap();
    let y0 = c.lane_session(0).alloc(n).unwrap();
    let x1 = c.lane_session(1).upload(&vec![5u128; n]).unwrap();
    let y1 = c.lane_session(1).upload(&vec![7u128; n]).unwrap();
    let lane0 = c.lane_session(0).snapshot();
    let stats1 = c.stats()[1];

    // A lane-0 input, then a lane-0 output, on a lane-1 dispatch.
    let foreign_input = c.lane_session(1).dispatch(&kernel, &[x0, x1], &[y1]);
    let foreign_output = c.lane_session(1).dispatch(&kernel, &[x1, x1], &[y0]);
    for (err, id) in [(foreign_input, x0.id()), (foreign_output, y0.id())] {
        assert!(
            matches!(err, Err(RpuError::Buffer(BufferError::StaleHandle { id: got })) if got == id),
            "got {err:?}"
        );
    }
    // Lane 1's counters and data, and lane 0's state, are untouched.
    assert_eq!(c.stats()[1], stats1);
    assert_eq!(c.lane_session(1).download(&x1).unwrap(), vec![5u128; n]);
    assert_eq!(c.lane_session(1).download(&y1).unwrap(), vec![7u128; n]);
    assert_eq!(c.lane_session(0).snapshot(), lane0);
    assert_eq!(c.download(&x0).unwrap(), vec![3u128; n]);

    // The same kernel over lane 1's own handles still runs.
    let report = c
        .lane_session(1)
        .dispatch(&kernel, &[x1, x1], &[y1])
        .unwrap();
    assert!(report.verified);
    assert_eq!(c.download(&y1).unwrap(), vec![25u128; n]);
}

#[test]
fn a_buffer_freed_by_a_pool_job_is_gone_from_the_placement_map() {
    // The lane heaps are the only record of placement: a buffer made
    // through the cluster API and freed on a lane thread (whose worker
    // never saw a placement map) must not be located, blamed on its old
    // lane, or written into a snapshot.
    let n = 1024usize;
    let data = vec![3u128; n];
    let rpu = Rpu::builder().lanes(2).build().unwrap();
    let mut c = rpu.cluster();
    let q = c.primes_for(n).unwrap();
    let kernel = c.lane_session(1).compile(&mul_spec(n, q)).unwrap();
    let buf = c.lane_session(0).upload(&data).unwrap();
    assert_eq!(c.locate(&buf), Some(0));
    c.on_lanes(
        |w| {
            if w.lane_index() == 0 {
                w.free(buf).expect("live on lane 0");
            }
        },
        || (),
    );
    assert_eq!(c.lane_session(0).live_buffers(), 0);
    assert_eq!(c.locate(&buf), None);

    // Identical device state, identical bytes: a second cluster that
    // made and freed the same buffer through the cluster API alone.
    let mut fresh = rpu.cluster();
    fresh.lane_session(1).compile(&mul_spec(n, q)).unwrap();
    let twin = fresh.lane_session(0).upload(&data).unwrap();
    fresh.free(twin).unwrap();
    assert_eq!(c.snapshot_all(), fresh.snapshot_all());

    let other = c.lane_session(1).upload(&data).unwrap();
    let out = c.lane_session(1).alloc(n).unwrap();
    let err = c
        .lane_session(1)
        .dispatch(&kernel, &[other, buf], &[out])
        .unwrap_err();
    assert!(
        matches!(err, RpuError::Buffer(BufferError::StaleHandle { id }) if id == buf.id()),
        "got {err}"
    );
}

#[test]
fn on_lanes_runs_the_host_while_the_lanes_run() {
    // Lane 0 speaks first and cannot return before the host answers; the
    // host cannot return before lane 0's second message. A host run
    // before the lanes start, or after they are joined, never completes
    // the exchange (the timeouts turn that hang into a failure).
    let rpu = Rpu::builder().lanes(2).build().unwrap();
    let mut c = rpu.cluster();
    let wait = Duration::from_secs(60);
    let (to_lane, from_host) = mpsc::channel::<u32>();
    let (to_host, from_lane) = mpsc::channel::<u32>();
    let from_host = Mutex::new(from_host); // a `Receiver` is not `Sync`
    let (got, report) = c.on_lanes(
        |w| {
            if w.lane_index() == 0 {
                to_host.send(1).unwrap();
                let reply = from_host.lock().unwrap().recv_timeout(wait).unwrap();
                to_host.send(reply + 1).unwrap();
            }
        },
        || {
            let hello = from_lane.recv_timeout(wait).unwrap();
            to_lane.send(hello + 10).unwrap();
            from_lane.recv_timeout(wait).unwrap()
        },
    );
    assert_eq!(got, 12);
    assert_eq!((report.lanes, report.towers, report.queue_peak), (2, 2, 0));
    assert_eq!(report.panicked, None);
}

#[test]
fn traffic_through_a_lane_session_is_that_lanes_traffic() {
    // A lane is its session: whatever the caller drives through
    // `lane_session(l)` — one-shot round trips included — shows in
    // `lane_stats(l)`, and an `on_lanes` report is the delta of the
    // same counters, so it holds only what happened inside the run.
    let n = 1024usize;
    let rpu = Rpu::builder().lanes(2).build().unwrap();
    let mut c = rpu.cluster();
    let q = c.primes_for(n).unwrap();
    let spec = mul_spec(n, q);
    let kernel = c.lane_session(1).compile(&spec).unwrap();
    assert_eq!(c.lane_session(1).lane_index(), 1);

    let s = c.lane_session(1);
    let x = s.upload(&vec![3u128; n]).unwrap();
    let y = s.alloc(n).unwrap();
    let direct = s.dispatch(&kernel, &[x, x], &[y]).unwrap();
    assert_eq!(s.download(&y).unwrap(), vec![9u128; n]);
    let (_, one_shot) = s
        .run_with(&spec, &[&vec![2u128; n], &vec![5u128; n]])
        .unwrap();
    let outside = c.stats()[1];
    assert_eq!(outside, c.lane_session(1).stats());
    assert_eq!(outside.lane, 1);
    assert_eq!(outside.dispatches, 2);
    assert_eq!(outside.cycles, direct.stats.cycles + one_shot.stats.cycles);
    assert_eq!(outside.transfer.host_to_device, 3 * n);
    assert_eq!(outside.transfer.device_to_host, 2 * n);
    assert_eq!(c.stats()[0].dispatches, 0);
    assert_eq!(c.stats()[0].transfer.host_elements(), 0);
    assert_eq!(c.total_dispatches(), 2);

    // Inside a run: lane 1 dispatches once more over the resident
    // buffers and downloads; lane 0 stays idle.
    let ((), report) = c.on_lanes(
        |w| {
            if w.lane_index() == 1 {
                w.dispatch(&kernel, &[y, x], &[y]).unwrap();
                assert_eq!(w.download(&y).unwrap(), vec![27u128; n]);
            }
        },
        || (),
    );
    let inside = report.per_lane[1];
    assert_eq!(inside.dispatches, 1);
    assert_eq!(inside.cycles, direct.stats.cycles);
    assert_eq!(inside.transfer.host_to_device, 0);
    assert_eq!(inside.transfer.device_to_host, n);
    assert_eq!(report.per_lane[0].dispatches, 0);
    assert_eq!(report.transfer.host_elements(), n);
    let total = c.stats()[1];
    assert_eq!(total.dispatches, outside.dispatches + inside.dispatches);
    assert_eq!(total.transfer.device_to_host, 3 * n);
}

#[test]
fn a_panicking_lane_is_contained_and_reported() {
    // Lane 1 dies at once; lane 0's work still lands in the report, the
    // report names the dead lane, and the cluster serves the next run.
    // (The deliberate panic prints a banner to stderr — expected.)
    let n = 1024usize;
    let rpu = Rpu::builder().lanes(2).build().unwrap();
    let mut c = rpu.cluster();
    let q = c.primes_for(n).unwrap();
    let kernel = c.lane_session(0).compile(&mul_spec(n, q)).unwrap();
    let ((), report) = c.on_lanes(
        |w| {
            if w.lane_index() == 1 {
                panic!("deliberate lane failure");
            }
            let x = w.upload(&vec![3u128; n]).unwrap();
            let y = w.alloc(n).unwrap();
            w.dispatch(&kernel, &[x, x], &[y]).unwrap();
            assert_eq!(w.download(&y).unwrap(), vec![9u128; n]);
            w.free(x).unwrap();
            w.free(y).unwrap();
        },
        || (),
    );
    assert_eq!(report.per_lane[0].dispatches, 1);
    assert_eq!(report.per_lane[1].dispatches, 0);
    assert_eq!(
        report.panicked,
        Some((1, "deliberate lane failure".to_string()))
    );
    let jobs: Vec<LaneJob<'_, usize>> = (0..4usize)
        .map(|i| Box::new(move |_w: &mut RpuSession<'_>| Ok(i)) as LaneJob<'_, usize>)
        .collect();
    let (got, report) = c.run_jobs(jobs).unwrap();
    assert_eq!(got, vec![0, 1, 2, 3]);
    assert_eq!(report.panicked, None);
}

#[test]
fn an_empty_batch_is_an_empty_success() {
    let rpu = Rpu::builder().lanes(2).build().unwrap();
    let (got, report) = rpu
        .cluster()
        .run_jobs(Vec::<LaneJob<'_, ()>>::new())
        .unwrap();
    assert!(got.is_empty());
    assert_eq!((report.towers, report.queue_peak), (0, 0));
}

#[test]
fn failed_migrate_leaks_nothing() {
    // Regression (negative path): when the destination lane's heap
    // cannot take the buffer, `migrate` must leave the source live,
    // downloadable, and still tracked in the placement map — no leaked
    // source, no stranded placement entry, no phantom destination
    // allocation.
    let rpu = Rpu::builder()
        .device_heap_elements(4096)
        .lanes(2)
        .build()
        .unwrap();
    let mut c = rpu.cluster();
    let data: Vec<u128> = (0..1024).collect();
    let src = c.lane_session(0).upload(&data).unwrap();
    // Exhaust lane 1 completely.
    let hog = c.lane_session(1).upload(&vec![7u128; 4096]).unwrap();
    let err = c.migrate(src, 1).unwrap_err();
    assert!(
        matches!(err, RpuError::Buffer(BufferError::OutOfMemory { .. })),
        "got {err}"
    );
    // Source untouched: still on lane 0, still downloadable, still live.
    assert_eq!(c.locate(&src), Some(0));
    assert_eq!(c.download(&src).unwrap(), data);
    assert_eq!(c.lane_session(0).device_mem_in_use(), 1024);
    assert_eq!(c.lane_session(0).live_buffers(), 1);
    // Destination unchanged: the failed move allocated nothing lasting.
    assert_eq!(c.lane_session(1).device_mem_in_use(), 4096);
    assert_eq!(c.lane_session(1).live_buffers(), 1);
    // Freeing space on the destination lets the same migrate succeed.
    c.free(hog).unwrap();
    let moved = c.migrate(src, 1).unwrap();
    assert_eq!(c.locate(&moved), Some(1));
    assert_eq!(c.download(&moved).unwrap(), data);
    assert_eq!(c.lane_session(0).device_mem_in_use(), 0);
}

#[test]
fn panicking_job_surfaces_as_error_not_hang() {
    // Regression: a lane worker panicking mid-job must not poison the
    // queue state or wedge the remaining lanes — the run returns
    // RpuError::LanePanic, later jobs are abandoned, and the cluster
    // stays usable for the next run.
    let rpu = Rpu::builder().lanes(2).build().unwrap();
    let mut c = rpu.cluster();
    // NOTE: the deliberate panic below prints a short backtrace banner
    // to stderr — expected. (Deliberately NOT swapping the process-wide
    // panic hook: tests run in parallel and a no-op hook would swallow
    // an unrelated concurrent failure's diagnostics.)
    let jobs: Vec<LaneJob<'_, u64>> = (0..8)
        .map(|i| {
            Box::new(move |w: &mut RpuSession<'_>| {
                if i == 3 {
                    panic!("deliberate mid-job failure");
                }
                Ok(w.lane_index() as u64)
            }) as LaneJob<'_, u64>
        })
        .collect();
    let err = c.run_jobs(jobs).unwrap_err();
    match err {
        RpuError::LanePanic { message, .. } => {
            assert!(
                message.contains("deliberate"),
                "payload survives: {message}"
            )
        }
        other => panic!("expected LanePanic, got {other}"),
    }
    // The cluster is not wedged: a healthy follow-up run completes.
    let jobs: Vec<LaneJob<'_, u64>> = (0..4)
        .map(|i| Box::new(move |_w: &mut RpuSession<'_>| Ok(i as u64)) as LaneJob<'_, u64>)
        .collect();
    let (got, report) = c.run_jobs(jobs).unwrap();
    assert_eq!(got, vec![0, 1, 2, 3]);
    assert_eq!(report.towers, 4);
}

#[test]
fn failing_job_error_short_circuits_cleanly() {
    // An Err (not panic) from a job behaves the same: first error wins,
    // no hang, no partial silent result.
    let rpu = Rpu::builder().lanes(3).build().unwrap();
    let mut c = rpu.cluster();
    let jobs: Vec<LaneJob<'_, ()>> = (0..6)
        .map(|i| {
            Box::new(move |_w: &mut RpuSession<'_>| {
                if i % 2 == 1 {
                    Err(RpuError::Config(format!("job {i} refused")))
                } else {
                    Ok(())
                }
            }) as LaneJob<'_, ()>
        })
        .collect();
    assert!(matches!(c.run_jobs(jobs), Err(RpuError::Config(_))));
}

#[test]
fn work_stealing_keeps_every_lane_busy() {
    // 7 towers over 3 lanes: the steal queue must hand 3/2/2 (in some
    // order) to the lanes — never 7/0/0 — and an idle-prone static
    // partition cannot happen because lanes pull work themselves.
    let n = 1024usize;
    let towers = 7usize;
    let primes = find_ntt_prime_chain(60, 2 * n as u128, towers);
    let a: Vec<Vec<u128>> = primes
        .iter()
        .map(|&q| (0..n as u128).map(|i| (i * 3 + 1) % q).collect())
        .collect();
    let rpu = Rpu::builder().lanes(3).build().unwrap();
    let mut exec = rpu.cluster();
    // The split depends on thread timing; retry on a pathologically
    // starved run (warm caches make repeats of that negligible). The
    // work-conserving invariants hold on every attempt: all towers
    // execute exactly once, and the aggregates add up.
    let mut spread = None;
    for _ in 0..3 {
        let (_, report) = exec.negacyclic_mul_towers(n, &primes, &a, &a).unwrap();
        assert_eq!(report.lanes, 3);
        let loads: Vec<u64> = report.per_lane.iter().map(|l| l.dispatches).collect();
        assert_eq!(loads.iter().sum::<u64>(), towers as u64);
        if report.lanes_used() >= 2 && *loads.iter().max().unwrap() <= 5 {
            spread = Some(report);
            break;
        }
    }
    let report = spread.expect("stealing must spread 7 towers over >=2 lanes within 3 runs");
    // aggregate identities
    assert_eq!(
        report.total_cycles,
        report.per_lane.iter().map(|l| l.cycles).sum::<u64>()
    );
    assert!(
        (report.sequential_us - report.per_lane.iter().map(|l| l.busy_us).sum::<f64>()).abs()
            < 1e-9
    );
    let max_busy = report
        .per_lane
        .iter()
        .map(|l| l.busy_us)
        .fold(0.0, f64::max);
    assert!((report.makespan_us - max_busy).abs() < 1e-9);
}

#[test]
fn executor_failure_surfaces_not_hangs() {
    // Tower 1's operand length is valid at the shape check but its
    // modulus admits no degree-n NTT: kernel generation fails on a
    // worker thread and the error must surface to the caller.
    let n = 1024usize;
    let good = find_ntt_prime_chain(60, 2 * n as u128, 1)[0];
    let bad = 97u128; // 97 ≢ 1 (mod 2048): no negacyclic NTT
    let a = vec![vec![1u128; n], vec![1u128; n]];
    let rpu = Rpu::builder().lanes(2).build().unwrap();
    let mut exec = rpu.cluster();
    let err = exec
        .negacyclic_mul_towers(n, &[good, bad], &a, &a)
        .unwrap_err();
    assert!(matches!(err, RpuError::Codegen(_)), "got {err}");
}

#[test]
fn a_convolution_over_split_operands_is_refused() {
    // A fused negacyclic product over operands on different lanes is
    // refused by the dispatching lane rather than silently migrated or
    // computed over a foreign heap; co-resident operands work on either
    // lane.
    let n = 1024usize;
    let rpu = Rpu::builder().lanes(2).build().unwrap();
    let mut c = rpu.cluster();
    let q = c.primes_for(n).unwrap();
    let spec = ConvolutionSpec::new(n, q, CodegenStyle::Optimized);
    let a: Vec<u128> = (0..n as u128).map(|i| (i * 31 + 7) % q).collect();
    let b: Vec<u128> = (0..n as u128).map(|i| (i * 17 + 3) % q).collect();
    let want = Ntt128Plan::new(n, q).unwrap().negacyclic_mul(&a, &b);
    let da = c.lane_session(0).upload(&a).unwrap();
    let db = c.lane_session(1).upload(&b).unwrap();
    let conv = c.lane_session(0).compile(&spec).unwrap();
    let out = c.lane_session(0).alloc(n).unwrap();
    assert!(matches!(
        c.lane_session(0).dispatch(&conv, &[da, db], &[out]),
        Err(RpuError::Buffer(BufferError::StaleHandle { id })) if id == db.id()
    ));
    for lane in [0, 1] {
        let w = c.lane_session(lane);
        let conv = w.compile(&spec).unwrap();
        let (x, y, z) = (
            w.upload(&a).unwrap(),
            w.upload(&b).unwrap(),
            w.alloc(n).unwrap(),
        );
        w.dispatch(&conv, &[x, y], &[z]).unwrap();
        assert_eq!(w.download(&z).unwrap(), want, "lane {lane}");
    }
}

#[test]
fn multi_lane_evaluator_matches_host_rlwe() {
    // The whole RLWE pipeline on a two-lane evaluator (mask ops on lane
    // 0, payload ops on lane 1) equals the host reference exactly —
    // sharding the ciphertext components must be invisible.
    use rpu::ntt::rlwe::{RlweContext, RlweParams, Splitmix};
    let n = 1024usize;
    let rpu = Rpu::builder().lanes(2).build().unwrap();
    let q = rpu.session().primes_for(n).unwrap();
    let p = RlweParams { n, q, t: 65537 };
    let mut eval = rpu::RlweEvaluator::new(&rpu, p, CodegenStyle::Optimized).unwrap();
    assert_eq!(eval.component_lanes(), (0, 1));
    let host = RlweContext::new(p).unwrap();

    let mut dev_rng = Splitmix::new(77);
    let mut host_rng = Splitmix::new(77);
    let host_sk = host.keygen(&mut host_rng);
    eval.keygen(&mut dev_rng).unwrap();

    let msg: Vec<u128> = (0..n as u128).map(|i| (i * 13 + 7) % 1000).collect();
    let ct = eval.encrypt(&msg, &mut dev_rng).unwrap();
    let host_ct = host.encrypt(&host_sk, &msg, &mut host_rng);
    let downloaded = eval.download_ciphertext(&ct).unwrap();
    assert_eq!(downloaded.a().values(), host_ct.a().values());
    assert_eq!(downloaded.b().values(), host_ct.b().values());

    let sum = eval.add(&ct, &ct).unwrap();
    assert_eq!(
        eval.decrypt(&sum).unwrap(),
        host.decrypt(&host_sk, &host.add(&host_ct, &host_ct))
    );
    assert_eq!(eval.decrypt(&ct).unwrap(), msg);

    // both lanes actually carried dispatches
    let cluster = eval.cluster();
    let [s0, s1] = [0, 1].map(|l| cluster.stats()[l]);
    assert!(s0.dispatches > 0 && s1.dispatches > 0);
    // overlap: the busiest lane is strictly cheaper than the sum
    assert!(cluster.makespan_us() < cluster.total_busy_us());
}

/// Builds `LaneKernels` for `(n, q)` on every lane of a fresh 4-lane
/// `Rpu`, sequentially through `lane_session` or all lanes at once
/// through `on_lanes`, and checks that its store generated and verified
/// each of the six keys once while every lane still counts six misses.
fn compile_everywhere(concurrently: bool) {
    let n = 4096;
    let rpu = Rpu::builder().lanes(4).build().unwrap();
    let mut c = rpu.cluster();
    let q = c.primes_for(n).unwrap();
    if concurrently {
        // Every lane asks for the first key at the same moment.
        let start = Barrier::new(4);
        let ((), report) = c.on_lanes(
            |w| {
                start.wait();
                LaneKernels::compile(w, n, q, CodegenStyle::Optimized).expect("compiles");
            },
            || (),
        );
        assert_eq!(report.panicked, None);
    } else {
        for lane in 0..4 {
            LaneKernels::compile(c.lane_session(lane), n, q, CodegenStyle::Optimized).unwrap();
        }
    }
    let store = rpu.kernel_store();
    assert_eq!((store.generated(), store.verified()), (6, 6));
    for lane in 0..4 {
        let st = c.lane_session(lane).cache_stats();
        assert_eq!((st.misses, st.hits, st.entries), (6, 0, 6), "lane {lane}");
    }
}

#[test]
fn lanes_compiling_one_after_another_build_each_key_once() {
    compile_everywhere(false);
}

#[test]
fn lanes_compiling_at_once_build_each_key_once() {
    compile_everywhere(true);
}

#[test]
fn a_key_that_cannot_build_fails_every_lane_and_stores_nothing() {
    let (done, finished) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let rpu = Rpu::builder().lanes(2).build().unwrap();
        let mut c = rpu.cluster();
        // 97 ≢ 1 (mod 2048): no degree-1024 NTT, so no kernel.
        let bad = NttSpec::new(1024, 97, Direction::Forward, CodegenStyle::Optimized);
        let start = Barrier::new(2);
        let errors = Mutex::new(Vec::new());
        c.on_lanes(
            |w| {
                start.wait();
                let err = w.compile(&bad).expect_err("no kernel for this modulus");
                errors.lock().unwrap().push(err);
            },
            || (),
        );
        let store = rpu.kernel_store();
        let held = (store.contains(&bad.key()), store.generated());
        done.send((errors.into_inner().unwrap(), held)).unwrap();
    });
    let (errors, held) = finished
        .recv_timeout(Duration::from_secs(120))
        .expect("a lane hung on the failed key");
    worker.join().unwrap();
    assert_eq!(errors.len(), 2);
    assert!(
        errors.iter().all(|e| matches!(e, RpuError::Codegen(_))),
        "{errors:?}"
    );
    assert_eq!(held, (false, 0));
}

#[test]
fn a_restore_on_the_same_rpu_builds_nothing() {
    let n = 1024;
    let rpu = Rpu::builder().lanes(2).build().unwrap();
    let mut c = rpu.cluster();
    let q = c.primes_for(n).unwrap();
    for lane in 0..2 {
        LaneKernels::compile(c.lane_session(lane), n, q, CodegenStyle::Optimized).unwrap();
    }
    let snap = c.snapshot_all();
    let mut twin = rpu.cluster();
    twin.restore_all(&snap).unwrap();
    assert_eq!(rpu.kernel_store().generated(), 6);
    assert_eq!(twin.snapshot_all(), snap);
    assert_eq!(
        (
            twin.lane_session(1).cache_stats().misses,
            twin.lane_session(1).cache_stats().entries
        ),
        (0, 6)
    );
}
