//! The one composition the serving layer adds over the device core.
//!
//! Every tenant's ciphertexts, key material, and kernels live on the
//! tenant's *home lane*, so each operation runs as one chain on ONE
//! lane, driven through the [`rpu::RpuSession`] its lane thread is
//! handed: the core's ops under `Placement::Single`
//! ([`Ops::single`]). Batches for different tenants on different lanes
//! overlap lane against lane instead.
//!
//! Encrypt, `mul`, `apply_galois`, decrypt, free and key upload are the
//! core's ([`rpu::evaluator`]) — the same bodies the evaluators run,
//! which is why a host-side [`rpu::ntt::rlwe::RlweContext`] replaying
//! the tenant's randomness stream produces bit-identical ciphertexts
//! (pinned in `tests/tests/serve.rs`). This module owns only `dot`.

use rpu::evaluator::{GaloisKey, Ops, Towers};
use rpu::recipes::Temps;
use rpu::{DeviceKeySwitchKey, RpuError};

/// Encrypted dot product over the first `len` slots: multiply the
/// operands (with relinearization), then — given the 1-step rotation's
/// Galois key, which `len > 1` requires — rotate the running rotation by
/// one slot and fold it into the accumulator `len − 1` times. Slot 0 of
/// the result holds the sum. The host mirror replays the identical
/// chain: `p = mul(x, y); acc = p; cur = p;` then repeatedly
/// `cur = σ₁(cur); acc = acc + cur`.
pub(crate) fn dot(
    mut ops: Ops<'_, '_>,
    relin: &DeviceKeySwitchKey,
    rot: Option<&GaloisKey>,
    x: &Towers,
    y: &Towers,
    len: usize,
) -> Result<Towers, RpuError> {
    let p = ops.mul(relin, x, y)?;
    let Some(gk) = rot else { return Ok(p) };
    let mut t = Temps::default();
    let mut hold = |ct: Towers| {
        t.hold_all(ct.concat());
        ct
    };
    let acc = (|| {
        let (mut cur, mut acc) = (hold(p.clone()), p);
        for _ in 1..len {
            cur = hold(ops.apply_galois(gk, &cur)?);
            acc = hold(ops.pointwise_ct(|k| &k.pwadd, &acc, &cur)?);
        }
        Ok(acc)
    })();
    ops.settle(t, acc)
}
