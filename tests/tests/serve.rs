//! Serving-layer integration tests: multi-tenant differential
//! correctness against the host RLWE reference, weighted-fair
//! scheduling bounds read off the structured dispatch trace, typed
//! backpressure, tenant isolation, and the rekey/teardown buffer
//! lifecycle.

use proptest::prelude::*;
use rpu::ntt::rlwe::{Ciphertext, RlweContext, RlweParams, Splitmix};
use rpu::{DispatchEvent, RingTraceSink, Rpu};
use rpu_serve::{
    serve, CtHandle, JobOutput, JobRequest, ServeConfig, ServeError, ServerHandle, TenantId,
    TenantSpec,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const N: usize = 1024;
const T: u128 = 65537;

fn params(rpu: &Rpu) -> RlweParams {
    let q = rpu.session().primes_for(N).expect("prime exists");
    RlweParams { n: N, q, t: T }
}

fn message(seed: u128) -> Vec<u128> {
    (0..N as u128).map(|i| (i * 17 + seed) % 97).collect()
}

fn ct_of(out: JobOutput) -> CtHandle {
    match out {
        JobOutput::Ciphertext(ct) => ct,
        other => panic!("expected ciphertext, got {other:?}"),
    }
}

fn plain_of(out: JobOutput) -> Vec<u128> {
    match out {
        JobOutput::Plaintext(p) => p,
        other => panic!("expected plaintext, got {other:?}"),
    }
}

fn submit_wait(server: &ServerHandle, tenant: TenantId, req: JobRequest) -> JobOutput {
    server
        .submit(tenant, req)
        .expect("submission accepted")
        .wait()
        .expect("job succeeds")
}

/// Three tenants on two lanes, each driven from its own client thread:
/// encrypt, multiply, rotate, dot-product, decrypt. Every decrypted
/// vector must be bit-identical to a host-side [`RlweContext`] mirror
/// replaying the same per-tenant randomness stream — concurrency and
/// batching must not perturb any tenant's results.
#[test]
fn concurrent_tenants_match_host_mirror() {
    let rpu = Rpu::builder().lanes(2).build().unwrap();
    let p = params(&rpu);
    let seeds: [u64; 3] = [0xA11CE, 0xB0B5, 0xC4A7];

    let (got, report) = serve(&rpu, ServeConfig::new(p), |server| {
        std::thread::scope(|scope| {
            let handles: Vec<_> = seeds
                .iter()
                .enumerate()
                .map(|(i, &seed)| {
                    let server = server.clone();
                    scope.spawn(move || {
                        let tenant = server
                            .register_tenant(TenantSpec::new(seed).rotations(vec![1]))
                            .unwrap();
                        let m1 = message(i as u128 + 1);
                        let m2 = message(i as u128 + 100);
                        let e1 = ct_of(submit_wait(
                            &server,
                            tenant,
                            JobRequest::Encrypt { message: m1 },
                        ));
                        let e2 = ct_of(submit_wait(
                            &server,
                            tenant,
                            JobRequest::Encrypt { message: m2 },
                        ));
                        let prod = ct_of(submit_wait(
                            &server,
                            tenant,
                            JobRequest::Mul { x: e1, y: e2 },
                        ));
                        let rot = ct_of(submit_wait(
                            &server,
                            tenant,
                            JobRequest::Rotate { ct: prod, steps: 1 },
                        ));
                        let dot = ct_of(submit_wait(
                            &server,
                            tenant,
                            JobRequest::Dot {
                                x: e1,
                                y: e2,
                                len: 3,
                            },
                        ));
                        [prod, rot, dot].map(|ct| {
                            plain_of(submit_wait(&server, tenant, JobRequest::Decrypt { ct }))
                        })
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread succeeds"))
                .collect::<Vec<_>>()
        })
    })
    .unwrap();
    assert_eq!(report.completed, 3 * 8);
    assert_eq!(report.rejected, 0);

    // Host mirror: same per-tenant stream, same draw order (keys at
    // registration, then encrypt randomness in submission order), same
    // operation dataflow.
    let ctx = RlweContext::new(p).unwrap();
    for (i, &seed) in seeds.iter().enumerate() {
        let mut rng = Splitmix::new(seed);
        let sk = ctx.keygen(&mut rng);
        let rk = ctx.relin_keygen(&sk, &mut rng, 16);
        let gk = ctx
            .galois_keygen(&sk, ctx.galois_element(1), &mut rng, 16)
            .unwrap();
        let c1 = ctx.encrypt(&sk, &message(i as u128 + 1), &mut rng);
        let c2 = ctx.encrypt(&sk, &message(i as u128 + 100), &mut rng);
        let prod = ctx.mul(&rk, &c1, &c2);
        let rot = ctx.apply_galois(&gk, &prod).unwrap();
        let dot = {
            let first = ctx.mul(&rk, &c1, &c2);
            let mut acc = first.clone();
            let mut cur = first;
            for _ in 1..3 {
                cur = ctx.apply_galois(&gk, &cur).unwrap();
                acc = ctx.add(&acc, &cur);
            }
            acc
        };
        let expect = |ct: &Ciphertext| -> Vec<u128> { ctx.decrypt(&sk, ct) };
        assert_eq!(got[i][0], expect(&prod), "tenant {i} product");
        assert_eq!(got[i][1], expect(&rot), "tenant {i} rotation");
        assert_eq!(got[i][2], expect(&dot), "tenant {i} dot product");
    }
}

/// Converts the raw per-dispatch trace into job units for two tenants
/// submitting same-kind jobs: every `Encrypt` job issues the same
/// fixed number of device dispatches, so a tenant's job count is its
/// tenant-tagged event count divided by that per-job cost. Admin
/// dispatches (keygen at registration) carry no tenant tag and drop
/// out of the filter. Returns `(gate_jobs_seen, other_jobs_before)`:
/// the gate tenant's total completed jobs and how many of the other
/// tenant's jobs were dispatched before the gate's backlog drained.
fn jobs_before_gate_drains(
    events: &[DispatchEvent],
    gate: TenantId,
    gate_jobs: usize,
    other: TenantId,
) -> (usize, usize) {
    let gate_tag = Some(gate.index() as u32);
    let other_tag = Some(other.index() as u32);
    // Every traced dispatch must name the engine its kernel's modulus
    // width selects — serving batches must not perturb engine choice.
    for event in events {
        assert_eq!(
            event.engine,
            rpu::EngineKind::for_modulus(event.key.q),
            "dispatch {} of kernel {:?} reported the wrong engine",
            event.seq,
            event.key.op
        );
    }
    let gate_total = events.iter().filter(|e| e.tenant == gate_tag).count();
    assert!(
        gate_jobs > 0 && gate_total >= gate_jobs && gate_total % gate_jobs == 0,
        "gate tenant recorded {gate_total} dispatches, not a multiple of {gate_jobs} jobs"
    );
    let per_job = gate_total / gate_jobs;
    let mut gate_events = 0usize;
    let mut other_events = 0usize;
    for event in events {
        if event.tenant == gate_tag {
            gate_events += 1;
        } else if event.tenant == other_tag && gate_events < gate_total {
            other_events += 1;
        }
    }
    (gate_events / per_job, other_events / per_job)
}

/// Runs a two-tenant single-lane flood with the queues prefilled under
/// `pause`, then reads the dispatch trace back: returns how many heavy
/// jobs were dispatched before the light tenant's backlog finished.
fn heavy_jobs_before_light_done(
    heavy_weight: u32,
    light_weight: u32,
    heavy_jobs: usize,
    light_jobs: usize,
) -> (usize, usize) {
    let sink = Arc::new(RingTraceSink::new(1 << 16));
    let rpu = Rpu::builder().lanes(1).trace(sink.clone()).build().unwrap();
    let p = params(&rpu);
    let (counts, _report) = serve(&rpu, ServeConfig::new(p), |server| {
        let heavy = server
            .register_tenant(TenantSpec::new(1).weight(heavy_weight))
            .unwrap();
        let light = server
            .register_tenant(TenantSpec::new(2).weight(light_weight))
            .unwrap();
        server.pause();
        let mut tickets = Vec::new();
        for _ in 0..heavy_jobs {
            tickets.push(
                server
                    .submit(
                        heavy,
                        JobRequest::Encrypt {
                            message: message(1),
                        },
                    )
                    .unwrap(),
            );
        }
        for _ in 0..light_jobs {
            tickets.push(
                server
                    .submit(
                        light,
                        JobRequest::Encrypt {
                            message: message(2),
                        },
                    )
                    .unwrap(),
            );
        }
        server.resume();
        for t in tickets {
            t.wait().unwrap();
        }
        server.wait_all();
        let (light_seen, heavy_before) =
            jobs_before_gate_drains(&sink.events(), light, light_jobs, heavy);
        (heavy_before, light_seen)
    })
    .unwrap();
    counts
}

/// Equal weights: a tenant flooding 40 jobs gets no more than its fair
/// share (plus batching slack) before a light 8-job tenant drains.
#[test]
fn saturating_tenant_cannot_starve_equal_weight_tenant() {
    let (heavy_before, light_seen) = heavy_jobs_before_light_done(1, 1, 40, 8);
    assert_eq!(light_seen, 8);
    // Fair share for equal weights is parity; allow two batch quanta
    // of slack for in-flight granularity.
    assert!(
        heavy_before <= 8 + 2 * 4,
        "heavy got {heavy_before} jobs before light finished"
    );
}

/// A weight-3 tenant should get roughly 3× the service of a weight-1
/// tenant while both are backlogged.
#[test]
fn weighted_shares_are_respected() {
    let sink = Arc::new(RingTraceSink::new(1 << 16));
    let rpu = Rpu::builder().lanes(1).trace(sink.clone()).build().unwrap();
    let p = params(&rpu);
    let ((a_total, b_when_a_done), _report) = serve(&rpu, ServeConfig::new(p), |server| {
        let a = server
            .register_tenant(TenantSpec::new(1).weight(3))
            .unwrap();
        let b = server
            .register_tenant(TenantSpec::new(2).weight(1))
            .unwrap();
        server.pause();
        let mut tickets = Vec::new();
        for _ in 0..24 {
            tickets.push(
                server
                    .submit(
                        a,
                        JobRequest::Encrypt {
                            message: message(1),
                        },
                    )
                    .unwrap(),
            );
            tickets.push(
                server
                    .submit(
                        b,
                        JobRequest::Encrypt {
                            message: message(2),
                        },
                    )
                    .unwrap(),
            );
        }
        server.resume();
        for t in tickets {
            t.wait().unwrap();
        }
        server.wait_all();
        jobs_before_gate_drains(&sink.events(), a, 24, b)
    })
    .unwrap();
    assert_eq!(a_total, 24);
    // WFQ with weights 3:1 serves B about 24/3 = 8 jobs while A's
    // backlog drains; allow a batch quantum of slack either way.
    assert!(
        (4..=16).contains(&b_when_a_done),
        "weight-1 tenant got {b_when_a_done} jobs while weight-3 drained 24"
    );
}

/// Backpressure: the capacity'th+1 submission is rejected with the
/// typed error instead of queueing, and capacity frees up as tickets
/// drain.
#[test]
fn queue_full_surfaces_instead_of_unbounded_growth() {
    let rpu = Rpu::builder().lanes(1).build().unwrap();
    let p = params(&rpu);
    let mut config = ServeConfig::new(p);
    config.capacity = 4;
    serve(&rpu, config, |server| {
        let tenant = server.register_tenant(TenantSpec::new(9)).unwrap();
        server.pause();
        let tickets: Vec<_> = (0..4)
            .map(|_| {
                server
                    .submit(
                        tenant,
                        JobRequest::Encrypt {
                            message: message(3),
                        },
                    )
                    .expect("within capacity")
            })
            .collect();
        let err = server
            .submit(
                tenant,
                JobRequest::Encrypt {
                    message: message(3),
                },
            )
            .expect_err("over capacity");
        assert_eq!(
            err,
            ServeError::QueueFull {
                tenant,
                capacity: 4
            }
        );
        server.resume();
        for t in tickets {
            t.wait().unwrap();
        }
        // Draining restored capacity.
        submit_wait(
            server,
            tenant,
            JobRequest::Encrypt {
                message: message(3),
            },
        );
        let stats = server.tenant_stats(tenant).unwrap();
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.completed, 5);
    })
    .unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Property: whatever the capacity, a client that floods one extra
    /// submission gets `QueueFull` with the configured bound echoed
    /// back, and the tenant's outstanding count never exceeds it.
    #[test]
    fn prop_backpressure_bounds_outstanding(capacity in 1usize..6) {
        let rpu = Rpu::builder().lanes(1).build().unwrap();
        let p = params(&rpu);
        let mut config = ServeConfig::new(p);
        config.capacity = capacity;
        serve(&rpu, config, |server| {
            let tenant = server.register_tenant(TenantSpec::new(77)).unwrap();
            server.pause();
            let tickets: Vec<_> = (0..capacity)
                .map(|_| server.submit(tenant, JobRequest::Encrypt { message: message(4) }).unwrap())
                .collect();
            prop_assert_eq!(server.outstanding(tenant).unwrap(), capacity);
            let err = server
                .submit(tenant, JobRequest::Encrypt { message: message(4) })
                .expect_err("over capacity");
            prop_assert_eq!(err, ServeError::QueueFull { tenant, capacity });
            server.resume();
            for t in tickets {
                t.wait().unwrap();
            }
            prop_assert_eq!(server.outstanding(tenant).unwrap(), 0);
        })
        .unwrap();
    }

    /// Property: across weight ratios, a flooding tenant's service
    /// before a light tenant's backlog drains stays within its
    /// weighted share plus batching slack.
    #[test]
    fn prop_no_starvation_beyond_weight(heavy_w in 1u32..4, light_w in 1u32..4) {
        let light_jobs = 8usize;
        let (heavy_before, light_seen) =
            heavy_jobs_before_light_done(heavy_w, light_w, 24, light_jobs);
        prop_assert_eq!(light_seen, light_jobs);
        let share = (light_jobs * heavy_w as usize).div_ceil(light_w as usize);
        let bound = share + 2 * 4; // two batch quanta of slack
        prop_assert!(
            heavy_before <= bound,
            "heavy ({heavy_w}) got {heavy_before} jobs before light ({light_w}) drained; bound {bound}"
        );
    }
}

/// Cross-tenant handles, missing rotation keys, malformed messages, and
/// freed handles all surface as their typed errors.
#[test]
fn tenant_isolation_and_typed_errors() {
    let rpu = Rpu::builder().lanes(2).build().unwrap();
    let p = params(&rpu);
    serve(&rpu, ServeConfig::new(p), |server| {
        let a = server
            .register_tenant(TenantSpec::new(1).rotations(vec![1]))
            .unwrap();
        let b = server.register_tenant(TenantSpec::new(2)).unwrap();
        let ct_a = ct_of(submit_wait(
            server,
            a,
            JobRequest::Encrypt {
                message: message(5),
            },
        ));

        // Tenant B cannot touch A's ciphertexts.
        let err = server
            .submit(b, JobRequest::Mul { x: ct_a, y: ct_a })
            .expect_err("foreign handle rejected");
        assert_eq!(
            err,
            ServeError::ForeignCiphertext {
                tenant: b,
                ct: ct_a
            }
        );

        // No rotation key for 2 steps (only 1 was prepared).
        let err = server
            .submit(a, JobRequest::Rotate { ct: ct_a, steps: 2 })
            .expect_err("missing rotation key");
        assert_eq!(
            err,
            ServeError::NoRotationKey {
                tenant: a,
                steps: 2
            }
        );

        // Malformed requests are typed BadRequest at submission.
        assert!(matches!(
            server.submit(
                a,
                JobRequest::Encrypt {
                    message: vec![1; 3]
                }
            ),
            Err(ServeError::BadRequest(_))
        ));
        assert!(matches!(
            server.submit(
                a,
                JobRequest::Dot {
                    x: ct_a,
                    y: ct_a,
                    len: 0
                }
            ),
            Err(ServeError::BadRequest(_))
        ));

        // Freeing consumes the handle; later use fails through the ticket.
        assert_eq!(
            submit_wait(server, a, JobRequest::Free { ct: ct_a }),
            JobOutput::Freed
        );
        let err = server
            .submit(a, JobRequest::Decrypt { ct: ct_a })
            .unwrap()
            .wait()
            .expect_err("freed handle is gone");
        assert_eq!(err, ServeError::UnknownCiphertext(ct_a));
    })
    .unwrap();
}

/// Rekeying invalidates old-key ciphertexts but keeps the tenant
/// serviceable; teardown deactivates it and releases every device
/// buffer it held — after all tenants are gone the lanes hold zero
/// live buffers.
#[test]
fn rekey_and_teardown_release_device_buffers() {
    let rpu = Rpu::builder().lanes(2).build().unwrap();
    let p = params(&rpu);
    let (_, report) = serve(&rpu, ServeConfig::new(p), |server| {
        let a = server
            .register_tenant(TenantSpec::new(1).rotations(vec![1]))
            .unwrap();
        let b = server.register_tenant(TenantSpec::new(2)).unwrap();

        let msg = message(6);
        let ct = ct_of(submit_wait(
            server,
            a,
            JobRequest::Encrypt {
                message: msg.clone(),
            },
        ));
        assert_eq!(
            plain_of(submit_wait(server, a, JobRequest::Decrypt { ct })),
            msg.iter().map(|m| m % T).collect::<Vec<_>>()
        );

        // Rekey: the old handle is invalidated, fresh traffic works.
        server.wait_all();
        server.rekey(a).unwrap();
        let err = server
            .submit(a, JobRequest::Decrypt { ct })
            .unwrap()
            .wait()
            .expect_err("old-key ciphertext invalidated");
        assert_eq!(err, ServeError::UnknownCiphertext(ct));
        let ct2 = ct_of(submit_wait(
            server,
            a,
            JobRequest::Encrypt {
                message: msg.clone(),
            },
        ));
        assert_eq!(
            plain_of(submit_wait(server, a, JobRequest::Decrypt { ct: ct2 })),
            msg
        );

        // Teardown deactivates the tenant...
        server.teardown(a).unwrap();
        assert!(matches!(
            server.submit(
                a,
                JobRequest::Encrypt {
                    message: msg.clone()
                }
            ),
            Err(ServeError::UnknownTenant(_))
        ));
        assert_eq!(server.tenant_stats(a).unwrap().resident_cts, 0);
        // ...while other tenants keep working, and registration still
        // functions after a teardown.
        submit_wait(
            server,
            b,
            JobRequest::Encrypt {
                message: msg.clone(),
            },
        );
        server.teardown(b).unwrap();
        let c = server.register_tenant(TenantSpec::new(3)).unwrap();
        submit_wait(server, c, JobRequest::Encrypt { message: msg });
        server.teardown(c).unwrap();
    })
    .unwrap();
    assert_eq!(
        report.resident_buffers,
        vec![0; 2],
        "teardown must return every lane to an empty device heap"
    );
}

/// Same recipe, shown: on one lane, an [`RlweEvaluator`] and a 1-tenant
/// server driven through encrypt → mul → rotate → decrypt emit, op for
/// op, the same sequence of kernel dispatches — the two front ends
/// differ in placement only, and on one lane there is none.
#[test]
fn evaluator_and_server_dispatch_the_same_kernels_op_for_op() {
    use rpu::{CodegenStyle, KernelKey, RlweEvaluator};

    let traced = || {
        let sink = Arc::new(RingTraceSink::new(1 << 12));
        let rpu = Rpu::builder().trace(sink.clone()).build().unwrap();
        (rpu, sink)
    };
    // The kernel keys dispatched since the last call.
    let drain = |sink: &RingTraceSink| -> Vec<KernelKey> {
        let keys = sink.events().iter().map(|e| e.key).collect();
        sink.clear();
        keys
    };
    let msg = message(9);

    let (rpu, sink) = traced();
    let mut eval = RlweEvaluator::new(&rpu, params(&rpu), CodegenStyle::Optimized).unwrap();
    let mut rng = Splitmix::new(0x5A4E);
    eval.keygen(&mut rng).unwrap();
    eval.relin_keygen(&mut rng).unwrap();
    eval.rotation_keygen(1, &mut rng).unwrap();
    drain(&sink);
    let mut direct = Vec::new();
    let x = eval.encrypt(&msg, &mut rng).unwrap();
    direct.push(drain(&sink));
    let prod = eval.mul(&x, &x).unwrap();
    direct.push(drain(&sink));
    let rot = eval.rotate(&prod, 1).unwrap();
    direct.push(drain(&sink));
    let plain = eval.decrypt(&rot).unwrap();
    direct.push(drain(&sink));

    let (rpu, sink) = traced();
    let (served, _) = serve(&rpu, ServeConfig::new(params(&rpu)), |server| {
        let spec = TenantSpec::new(0x5A4E).rotations(vec![1]);
        let tenant = server.register_tenant(spec).unwrap();
        drain(&sink);
        let mut served = Vec::new();
        let message = msg.clone();
        let x = ct_of(submit_wait(server, tenant, JobRequest::Encrypt { message }));
        served.push(drain(&sink));
        let prod = ct_of(submit_wait(server, tenant, JobRequest::Mul { x, y: x }));
        served.push(drain(&sink));
        let rotate = JobRequest::Rotate { ct: prod, steps: 1 };
        let rot = ct_of(submit_wait(server, tenant, rotate));
        served.push(drain(&sink));
        let decrypt = JobRequest::Decrypt { ct: rot };
        assert_eq!(plain_of(submit_wait(server, tenant, decrypt)), plain);
        served.push(drain(&sink));
        served
    })
    .unwrap();

    for (op, (direct, served)) in ["encrypt", "mul", "rotate", "decrypt"]
        .iter()
        .zip(direct.iter().zip(&served))
    {
        assert!(!direct.is_empty(), "{op}: the trace recorded nothing");
        assert_eq!(direct, served, "{op}: kernel sequences diverge");
    }
}

/// `ServeConfig::ksk_base_log` is validated at [`serve`] entry: an
/// out-of-range base must come back as a typed error, not panic inside
/// a keygen job under the state lock.
#[test]
fn out_of_range_gadget_base_is_rejected_at_entry() {
    let rpu = Rpu::builder().build().unwrap();
    for base_log in [0, 65] {
        let mut config = ServeConfig::new(params(&rpu));
        config.ksk_base_log = base_log;
        let refused = serve(&rpu, config, |_| ()).map(|_| ());
        assert!(
            matches!(&refused, Err(ServeError::Rpu(msg)) if msg.contains("base_log")),
            "base_log {base_log}: got {refused:?}"
        );
    }
}

/// The client-facing handles must be shareable across threads.
#[test]
fn handles_are_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ServerHandle>();
    assert_send_sync::<rpu_serve::JobTicket>();
    assert_send_sync::<CtHandle>();
    assert_send_sync::<ServeError>();
}

/// The traffic harness drains: every job of every client completes and
/// is counted once, with a latency sample behind the percentiles.
#[test]
fn traffic_run_completes_and_counts_every_job() {
    use rpu_serve::{run_traffic, OpMix, ServeConfig, TenantLoad, TrafficSpec};

    let jobs = 12usize;
    let rpu = Rpu::builder()
        .lanes(2)
        .device_heap_elements(1 << 20)
        .build()
        .unwrap();
    let spec = TrafficSpec::new(
        11,
        OpMix::transport(),
        vec![TenantLoad::new(jobs), TenantLoad::new(jobs)],
    );
    let (report, served) = serve(&rpu, ServeConfig::new(params(&rpu)), |server| {
        run_traffic(server, &spec)
    })
    .unwrap();
    let report = report.unwrap();
    assert_eq!(report.ops, 2 * jobs as u64);
    assert_eq!(served.completed, report.ops);
    assert!(report.p50_us > 0 && report.p99_us >= report.p50_us);
    assert!(report.ops_per_sec > 0.0);
}

/// Runs `body` on its own thread and fails — instead of hanging the
/// suite — if it has not finished within two minutes. For the tests
/// below, whose failure mode at the parent commit is a server that
/// never returns.
fn within_two_minutes<T: Send + 'static>(body: impl FnOnce() -> T + Send + 'static) -> T {
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || done.send(body()));
    finished
        .recv_timeout(std::time::Duration::from_secs(120))
        .expect("the server wedged (or the body panicked)")
}

/// `Dot::len` is outside input: a length past the ring degree names
/// slots that do not exist and is refused at submission, however large
/// (its cost used to overflow under the state lock). The refusal
/// consumes nothing: the tenant's next job still resolves.
#[test]
fn dot_longer_than_the_ring_is_refused_at_submission() {
    within_two_minutes(|| {
        let rpu = Rpu::builder().lanes(1).build().unwrap();
        serve(&rpu, ServeConfig::new(params(&rpu)), |server| {
            let spec = TenantSpec::new(4).rotations(vec![1]);
            let tenant = server.register_tenant(spec).unwrap();
            let message = message(7);
            let ct = ct_of(submit_wait(server, tenant, JobRequest::Encrypt { message }));
            for len in [usize::MAX, N + 1] {
                let refused = server.submit(tenant, JobRequest::Dot { x: ct, y: ct, len });
                assert!(
                    matches!(refused, Err(ServeError::BadRequest(_))),
                    "len {len}: got {refused:?}"
                );
            }
            assert_eq!(server.outstanding(tenant).unwrap(), 0);
            let in_range = JobRequest::Dot {
                x: ct,
                y: ct,
                len: 2,
            };
            ct_of(submit_wait(server, tenant, in_range));
        })
        .unwrap();
    });
}

/// Shutdown implies resume: returning from the `serve` closure with the
/// server paused and jobs queued still drains them.
#[test]
fn returning_while_paused_still_drains_every_ticket() {
    let (resolved, completed) = within_two_minutes(|| {
        let rpu = Rpu::builder().lanes(1).build().unwrap();
        let (tickets, report) = serve(&rpu, ServeConfig::new(params(&rpu)), |server| {
            let tenant = server.register_tenant(TenantSpec::new(5)).unwrap();
            server.pause();
            [1, 2].map(|seed| {
                let message = message(seed);
                server
                    .submit(tenant, JobRequest::Encrypt { message })
                    .unwrap()
            })
        })
        .unwrap();
        (tickets.map(|t| t.poll()), report.completed)
    });
    for ticket in resolved {
        assert!(matches!(ticket, Some(Ok(JobOutput::Ciphertext(_)))));
    }
    assert_eq!(completed, 2);
}

/// A trace sink that panics inside the first dispatch it sees for a
/// tagged tenant once armed — a fault injected on the lane thread, in
/// the middle of a served batch.
#[derive(Debug, Default)]
struct PanickingSink {
    armed: AtomicBool,
}

impl rpu::TraceSink for PanickingSink {
    fn record(&self, event: DispatchEvent) {
        if event.tenant.is_some() && self.armed.swap(false, Ordering::SeqCst) {
            panic!("injected fault: the sink panics mid-batch");
        }
    }
}

/// A panic inside a batch costs that batch, not the lane: every ticket
/// of the batch resolves to an error, the tenant's backpressure slots
/// come back, and the same lane goes on serving — the same tenant
/// included.
#[test]
fn a_panicking_batch_costs_the_batch_not_the_lane() {
    within_two_minutes(|| {
        let sink = Arc::new(PanickingSink::default());
        let rpu = Rpu::builder().lanes(1).trace(sink.clone()).build().unwrap();
        let encrypt = || JobRequest::Encrypt {
            message: message(8),
        };
        let (_, report) = serve(&rpu, ServeConfig::new(params(&rpu)), |server| {
            let tenant = server.register_tenant(TenantSpec::new(6)).unwrap();
            let bystander = server.register_tenant(TenantSpec::new(7)).unwrap();
            server.pause();
            // Three same-kind jobs: one batch under the default quantum.
            let batch = [(); 3].map(|()| server.submit(tenant, encrypt()).unwrap());
            let spared = server.submit(bystander, encrypt()).unwrap();
            sink.armed.store(true, Ordering::SeqCst);
            server.resume();
            let lost: Vec<_> = batch.iter().map(|t| t.wait()).collect();
            spared.wait().expect("another tenant's batch is untouched");
            server.wait_all();
            // Equal virtual times break toward the lower id, so the
            // armed sink met `tenant`'s batch; it was lost whole.
            assert!(lost.iter().all(|r| r.is_err()), "{lost:?}");
            assert_eq!(server.outstanding(tenant).unwrap(), 0);
            ct_of(submit_wait(server, tenant, encrypt()));
        })
        .unwrap();
        assert_eq!(report.rejected, 0);
    });
}
