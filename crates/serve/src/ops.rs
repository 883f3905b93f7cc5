//! Home-lane placement of the shared ciphertext recipes.
//!
//! Every tenant's ciphertexts, key material, and kernels live on the
//! tenant's *home lane*, so — unlike [`rpu::RlweEvaluator`], which
//! shards ciphertext components across lanes and work-steals key-switch
//! digits — the serving layer runs each operation as one chain on ONE
//! lane, driven through the [`RpuSession`] its lane thread is handed.
//! Batches for different tenants on different lanes overlap lane
//! against lane instead.
//!
//! The chains' building blocks (kernel set, key upload, encrypt, phase,
//! tensor cross terms, gadget digit, Galois permute, temp hygiene) are
//! [`rpu::recipes`] — the same code the evaluators run, which is why a
//! host-side [`rpu::ntt::rlwe::RlweContext`] replaying the tenant's
//! randomness stream produces bit-identical ciphertexts (pinned in
//! `tests/tests/serve.rs`). This module owns only what one home lane
//! adds: the in-order digit loop, and the `mul` / `apply_galois` / `dot`
//! compositions over a single [`RpuSession`].

use rpu::arith::gadget_decompose;
use rpu::ntt::rlwe::KeySwitchKey;
use rpu::recipes::{self, LaneKernels, LaneKsk, Temps};
use rpu::{DeviceBuffer, DeviceCiphertext, Kernel, RpuError, RpuSession};
use std::sync::Arc;

/// Ends an operation's temp scope, keeping the result's components.
fn settle(
    w: &mut RpuSession<'_>,
    temps: Temps,
    ct: Result<DeviceCiphertext, RpuError>,
) -> Result<DeviceCiphertext, RpuError> {
    temps.settle(ct, |ct| [ct.a, ct.b], |buf| w.free(buf))
}

/// Uploads a host key-switch key to the home lane, holding its handles
/// in the caller's scope `t`.
pub(crate) fn upload_ksk(
    w: &mut RpuSession<'_>,
    k: &LaneKernels,
    t: &mut Temps,
    ksk: &KeySwitchKey,
) -> Result<LaneKsk, RpuError> {
    let dev = recipes::upload_ksk(w, k, ksk.base_log(), ksk.share(0, 0))?;
    for buf in dev.handles() {
        t.hold(buf);
    }
    Ok(dev)
}

/// The gadget key-switch inner product, entirely on one lane:
/// `src_coeffs` decomposes into `ℓ` digits, folded into the two
/// accumulators in digit order (the order the host reference uses, so
/// sums match bit-exactly). Returns `(Σ d̂_j·â_j, Σ d̂_j·b̂_j)`.
fn key_switch(
    w: &mut RpuSession<'_>,
    k: &LaneKernels,
    src_coeffs: &[u128],
    ksk: &LaneKsk,
) -> Result<(DeviceBuffer, DeviceBuffer), RpuError> {
    let digits = gadget_decompose(src_coeffs, ksk.base_log(), ksk.levels());
    let mut t = Temps::default();
    let acc = (|| {
        let acc = recipes::accumulators(w, src_coeffs.len())?;
        t.hold(acc.0);
        t.hold(acc.1);
        for (j, digit) in digits.iter().enumerate() {
            recipes::ksw_digit(w, digit, [(k, ksk.part(j), acc)])?;
        }
        Ok(acc)
    })();
    t.settle(acc, |&(a, b)| [a, b], |buf| w.free(buf))
}

/// Ciphertext×ciphertext multiplication with relinearization, one lane:
/// tensor the degree-2 ciphertext as pointwise dispatches, then key-
/// switch the `c2` digits back to degree 1 against the tenant's relin
/// key.
pub(crate) fn mul(
    w: &mut RpuSession<'_>,
    k: &LaneKernels,
    relin: &LaneKsk,
    x: DeviceCiphertext,
    y: DeviceCiphertext,
) -> Result<DeviceCiphertext, RpuError> {
    let mut t = Temps::default();
    let ct = (|| {
        let c2 = t.hold(recipes::pointwise(w, &k.pwmul, x.a, y.a)?);
        let c0 = t.hold(recipes::pointwise(w, &k.pwmul, x.b, y.b)?);
        let c1 = t.hold(recipes::cross_terms(w, k, (x.a, x.b), (y.a, y.b))?);
        let c2_coeffs = recipes::download_coeffs(w, k, c2)?;
        let acc = key_switch(w, k, &c2_coeffs, relin)?;
        t.hold(acc.0);
        t.hold(acc.1);
        let (a, b) = recipes::pointwise_pair(w, &k.pwadd, (c1, c0), acc)?;
        Ok(DeviceCiphertext { a, b })
    })();
    settle(w, t, ct)
}

/// Applies the Galois automorphism `x → x^g` on one lane: each
/// component to coefficient form, permuted by the compiled `σ_g`
/// kernel; the permuted payload re-transforms while the permuted mask's
/// coefficients feed the gadget key switch that brings the result back
/// under the tenant's key.
pub(crate) fn apply_galois(
    w: &mut RpuSession<'_>,
    k: &LaneKernels,
    autom: &Arc<Kernel>,
    gk: &LaneKsk,
    ct: DeviceCiphertext,
) -> Result<DeviceCiphertext, RpuError> {
    let mut t = Temps::default();
    let out = (|| {
        let a_perm = t.hold(recipes::galois_permute(w, k, autom, ct.a)?);
        let sigma_a = w.download(&a_perm)?;
        let b_perm = t.hold(recipes::galois_permute(w, k, autom, ct.b)?);
        let sigma_b = t.hold(w.alloc(b_perm.len())?);
        w.dispatch(&k.fwd, &[b_perm], &[sigma_b])?;
        let (ka, kb) = key_switch(w, k, &sigma_a, gk)?;
        t.hold(ka);
        t.hold(kb);
        let b = recipes::pointwise(w, &k.pwadd, sigma_b, kb)?;
        Ok(DeviceCiphertext { a: ka, b })
    })();
    settle(w, t, out)
}

/// Homomorphic addition: one pointwise dispatch per component.
fn add(
    w: &mut RpuSession<'_>,
    k: &LaneKernels,
    x: DeviceCiphertext,
    y: DeviceCiphertext,
) -> Result<DeviceCiphertext, RpuError> {
    let (a, b) = recipes::pointwise_pair(w, &k.pwadd, (x.a, x.b), (y.a, y.b))?;
    Ok(DeviceCiphertext { a, b })
}

/// Encrypted dot product over the first `len` slots: multiply the
/// operands (with relinearization), then — given the 1-step rotation's
/// `(σ₁ kernel, key)`, which `len > 1` requires — rotate the running
/// rotation by one slot and fold it into the accumulator `len − 1`
/// times. Slot 0 of the result holds the sum. The host mirror replays
/// the identical chain: `p = mul(x, y); acc = p; cur = p;` then
/// repeatedly `cur = σ₁(cur); acc = acc + cur`.
pub(crate) fn dot(
    w: &mut RpuSession<'_>,
    k: &LaneKernels,
    relin: &LaneKsk,
    rot: Option<&(Arc<Kernel>, LaneKsk)>,
    x: DeviceCiphertext,
    y: DeviceCiphertext,
    len: usize,
) -> Result<DeviceCiphertext, RpuError> {
    let p = mul(w, k, relin, x, y)?;
    let Some((autom, gk)) = rot else { return Ok(p) };
    let mut t = Temps::default();
    let mut hold = |ct: DeviceCiphertext| DeviceCiphertext {
        a: t.hold(ct.a),
        b: t.hold(ct.b),
    };
    let acc = (|| {
        let (mut cur, mut acc) = (hold(p), p);
        for _ in 1..len {
            cur = hold(apply_galois(w, k, autom, gk, cur)?);
            acc = hold(add(w, k, acc, cur)?);
        }
        Ok(acc)
    })();
    settle(w, t, acc)
}

/// Frees both components of a resident ciphertext.
pub(crate) fn free_ct(w: &mut RpuSession<'_>, ct: DeviceCiphertext) -> Result<(), RpuError> {
    w.free(ct.a)?;
    w.free(ct.b)
}
