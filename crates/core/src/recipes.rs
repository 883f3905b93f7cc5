//! Lane-local ciphertext recipes — the one copy of the dispatch chains
//! every RLWE front end runs.
//!
//! The paper's case for an ISA is that each ciphertext operation is the
//! same few B512 kernels chained in software (Fig. 1). This module is
//! that chain, written once against [`RpuSession`] — a lane *is* its
//! session, whether a lane thread ([`crate::RpuCluster::on_lanes`]), the
//! calling thread ([`crate::RpuCluster::lane_session`]) or the serving
//! layer drives it, and the session counts what each step moves. What
//! the front ends add on top is *placement* only:
//!
//! | front end | placement | who drives the lane's session |
//! |---|---|---|
//! | [`crate::RlweEvaluator`] | mask / payload component lanes, work-stolen key-switch digits, fold | caller thread; digits on lane threads (`run_jobs`) |
//! | [`crate::LeveledEvaluator`] | tower `l` → lane `l % k`, cross-tower digit loop, rescale | caller thread |
//! | `rpu-serve` | everything on the tenant's home lane | the lane's thread, for the service's life (`on_lanes`) |
//!
//! The key switch is the one chain with something to share: a gadget
//! digit meets two key components (`â_j`, `b̂_j`) per target modulus, so
//! [`ksw_digit`] transforms it once with the lane's `fwd` kernel and
//! runs the multiply–accumulate kernel `ksw` twice on the shared `d̂`
//! (the hoisting of Halevi & Shoup, CRYPTO 2018) instead of paying for
//! an NTT inside each accumulation.
//!
//! Not part of the supported API: the module is public only so
//! `rpu-serve` can reach it.

use crate::buffer::DeviceBuffer;
use crate::session::RpuSession;
use crate::RpuError;
use rpu_codegen::{
    CodegenStyle, Direction, ElementwiseOp, ElementwiseSpec, Kernel, KeySwitchSpec, NttSpec,
};
use std::sync::Arc;

/// Default gadget digit base (`B = 2^16`) for relinearization and Galois
/// keys: 8 digits at the default ~126-bit primes, keeping per-digit
/// noise ≪ q while the key material stays a few ring elements per lane.
pub const DEFAULT_KSK_BASE_LOG: u32 = 16;

/// The one gadget-base check: `gadget_decompose` asserts `[1, 64]`, so
/// every entry point that accepts a base validates it here first.
///
/// # Errors
///
/// Returns [`RpuError::Config`] outside `[1, 64]`.
pub fn check_ksk_base_log(base_log: u32) -> Result<u32, RpuError> {
    if (1..=64).contains(&base_log) {
        Ok(base_log)
    } else {
        Err(RpuError::Config(format!(
            "key-switch base_log must be in [1, 64], got {base_log}"
        )))
    }
}

/// The six compiled kernel shapes of one modulus on one lane.
#[derive(Debug, Clone)]
pub struct LaneKernels {
    /// Forward NTT.
    pub fwd: Arc<Kernel>,
    /// Inverse NTT.
    pub inv: Arc<Kernel>,
    /// Pointwise multiply.
    pub pwmul: Arc<Kernel>,
    /// Pointwise add.
    pub pwadd: Arc<Kernel>,
    /// Pointwise subtract.
    pub pwsub: Arc<Kernel>,
    /// The key-switch digit multiply–accumulate `acc' = d̂ ⊙ k̂ ⊕ acc`
    /// (evaluation domain; [`ksw_digit`] runs `fwd` first).
    pub ksw: Arc<Kernel>,
}

impl LaneKernels {
    /// Compiles (or recalls from the lane's cache) all six shapes.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError`] if generation fails or verification faults.
    pub fn compile(
        w: &mut RpuSession<'_>,
        n: usize,
        q: u128,
        style: CodegenStyle,
    ) -> Result<Self, RpuError> {
        let pw = |op| ElementwiseSpec::new(op, n, q, style);
        Ok(LaneKernels {
            fwd: w.compile(&NttSpec::new(n, q, Direction::Forward, style))?,
            inv: w.compile(&NttSpec::new(n, q, Direction::Inverse, style))?,
            pwmul: w.compile(&pw(ElementwiseOp::MulMod))?,
            pwadd: w.compile(&pw(ElementwiseOp::AddMod))?,
            pwsub: w.compile(&pw(ElementwiseOp::SubMod))?,
            ksw: w.compile(&KeySwitchSpec::new(n, q, style))?,
        })
    }
}

/// A key-switch key resident on one lane: per gadget digit `j`, the
/// evaluation-form pair `(â_j, b̂_j)`.
#[derive(Debug, Clone)]
pub struct LaneKsk {
    base_log: u32,
    parts: Vec<(DeviceBuffer, DeviceBuffer)>,
}

impl LaneKsk {
    /// The digit base exponent `log2(B)`.
    pub fn base_log(&self) -> u32 {
        self.base_log
    }

    /// Number of gadget digits `ℓ`.
    pub fn levels(&self) -> usize {
        self.parts.len()
    }

    /// Digit `j`'s `(â_j, b̂_j)`.
    pub fn part(&self, j: usize) -> (DeviceBuffer, DeviceBuffer) {
        self.parts[j]
    }

    /// Every handle of the key, for bulk release and footprint sums.
    pub fn handles(&self) -> impl Iterator<Item = DeviceBuffer> + '_ {
        self.parts.iter().flat_map(|&(a, b)| [a, b])
    }
}

/// The buffers an operation holds while it runs — the one temp-release
/// mechanism. `hold` what you create; [`settle`](Temps::settle) frees
/// everything on error and everything but the declared outputs on
/// success, so a multi-dispatch chain never leaks heap space when a
/// later step fails.
#[derive(Debug, Default)]
pub struct Temps(Vec<DeviceBuffer>);

impl Temps {
    /// Tracks `buf` until the scope settles.
    pub fn hold(&mut self, buf: DeviceBuffer) -> DeviceBuffer {
        self.0.push(buf);
        buf
    }

    /// Ends the scope, forwarding `result`. Free errors are ignored: a
    /// held buffer that was already freed or migrated away mid-scope is
    /// merely stale by now (buffer ids are never reused).
    pub fn settle<T, K: AsRef<[DeviceBuffer]>>(
        self,
        result: Result<T, RpuError>,
        outputs: impl FnOnce(&T) -> K,
        mut free: impl FnMut(DeviceBuffer) -> Result<(), RpuError>,
    ) -> Result<T, RpuError> {
        let keep = result.as_ref().ok().map(outputs);
        let keep = keep.as_ref().map_or(&[][..], AsRef::as_ref);
        for buf in self.0 {
            if !keep.contains(&buf) {
                let _ = free(buf);
            }
        }
        result
    }
}

/// Uploads coefficients and forward-transforms them on the lane,
/// returning the evaluation-form resident buffer.
///
/// # Errors
///
/// Returns [`RpuError`] on heap exhaustion or a dispatch fault.
pub fn upload_eval(
    w: &mut RpuSession<'_>,
    k: &LaneKernels,
    coeffs: &[u128],
) -> Result<DeviceBuffer, RpuError> {
    let mut t = Temps::default();
    let hat = (|| {
        let raw = t.hold(w.upload(coeffs)?);
        let hat = t.hold(w.alloc(coeffs.len())?);
        w.dispatch(&k.fwd, &[raw], &[hat])?;
        Ok(hat)
    })();
    t.settle(hat, |hat| [*hat], |buf| w.free(buf))
}

/// Inverse-transforms a resident evaluation-form buffer and downloads
/// the natural-order coefficients.
///
/// # Errors
///
/// Returns [`RpuError`] on stale handles, heap exhaustion, or a
/// dispatch fault.
pub fn download_coeffs(
    w: &mut RpuSession<'_>,
    k: &LaneKernels,
    hat: DeviceBuffer,
) -> Result<Vec<u128>, RpuError> {
    let tmp = w.alloc(hat.len())?;
    let coeffs = w
        .dispatch(&k.inv, &[hat], &[tmp])
        .and_then(|_| w.download(&tmp));
    let _ = w.free(tmp);
    coeffs
}

/// One pointwise dispatch `out = op(x, y)` into a fresh buffer.
///
/// # Errors
///
/// Returns [`RpuError`] on stale handles, heap exhaustion, or a
/// dispatch fault.
pub fn pointwise(
    w: &mut RpuSession<'_>,
    kernel: &Arc<Kernel>,
    x: DeviceBuffer,
    y: DeviceBuffer,
) -> Result<DeviceBuffer, RpuError> {
    let out = w.alloc(x.len())?;
    if let Err(e) = w.dispatch(kernel, &[x, y], &[out]) {
        let _ = w.free(out);
        return Err(e);
    }
    Ok(out)
}

/// `(op(x.0, y.0), op(x.1, y.1))` — one pointwise dispatch per
/// ciphertext component, mask first.
///
/// # Errors
///
/// Returns [`RpuError`] as [`pointwise`] does.
pub fn pointwise_pair(
    w: &mut RpuSession<'_>,
    kernel: &Arc<Kernel>,
    x: (DeviceBuffer, DeviceBuffer),
    y: (DeviceBuffer, DeviceBuffer),
) -> Result<(DeviceBuffer, DeviceBuffer), RpuError> {
    let a = pointwise(w, kernel, x.0, y.0)?;
    let b = pointwise(w, kernel, x.1, y.1);
    Ok((a, b.inspect_err(|_| drop(w.free(a)))?))
}

/// The encrypt chain over host-sampled randomness: uploads the mask and
/// the noisy payload, then `b̂ = â ⊙ ŝ ⊕ p̂`. Returns `(â, b̂)`.
///
/// # Errors
///
/// Returns [`RpuError`] on heap exhaustion or a dispatch fault.
pub fn encrypt(
    w: &mut RpuSession<'_>,
    k: &LaneKernels,
    sk_hat: DeviceBuffer,
    mask: &[u128],
    payload: &[u128],
) -> Result<(DeviceBuffer, DeviceBuffer), RpuError> {
    let mut t = Temps::default();
    let ct = (|| {
        let a_hat = t.hold(upload_eval(w, k, mask)?);
        let p_hat = t.hold(upload_eval(w, k, payload)?);
        let b_hat = t.hold(pointwise(w, &k.pwmul, a_hat, sk_hat)?); // â ⊙ ŝ
        w.dispatch(&k.pwadd, &[b_hat, p_hat], &[b_hat])?; // ⊕ p̂
        Ok((a_hat, b_hat))
    })();
    t.settle(ct, |&(a, b)| [a, b], |buf| w.free(buf))
}

/// The phase chain `b̂ ⊖ â ⊙ ŝ → iNTT → download` — the on-device front
/// half of decryption; decoding the noisy coefficients is the host's.
///
/// # Errors
///
/// Returns [`RpuError`] on stale handles, heap exhaustion, or a
/// dispatch fault.
pub fn phase(
    w: &mut RpuSession<'_>,
    k: &LaneKernels,
    sk_hat: DeviceBuffer,
    a_hat: DeviceBuffer,
    b_hat: DeviceBuffer,
) -> Result<Vec<u128>, RpuError> {
    let t = pointwise(w, &k.pwmul, a_hat, sk_hat)?; // â ⊙ ŝ
    phase_tail(w, k, b_hat, t)
}

/// The back half of [`phase`], for callers that computed `t = â ⊙ ŝ` on
/// another lane: `b̂ ⊖ t` in place, iNTT, download. Consumes `t`.
///
/// # Errors
///
/// Returns [`RpuError`] as [`phase`] does.
pub fn phase_tail(
    w: &mut RpuSession<'_>,
    k: &LaneKernels,
    b_hat: DeviceBuffer,
    t: DeviceBuffer,
) -> Result<Vec<u128>, RpuError> {
    let noisy = w
        .dispatch(&k.pwsub, &[b_hat, t], &[t])
        .and_then(|_| download_coeffs(w, k, t));
    let _ = w.free(t);
    noisy
}

/// The degree-2 tensor's cross terms `c1 = â_x ⊙ b̂_y ⊕ â_y ⊙ b̂_x`.
///
/// # Errors
///
/// Returns [`RpuError`] on stale handles, heap exhaustion, or a
/// dispatch fault.
pub fn cross_terms(
    w: &mut RpuSession<'_>,
    k: &LaneKernels,
    x: (DeviceBuffer, DeviceBuffer),
    y: (DeviceBuffer, DeviceBuffer),
) -> Result<DeviceBuffer, RpuError> {
    let mut t = Temps::default();
    let c1 = (|| {
        let t1 = t.hold(pointwise(w, &k.pwmul, x.0, y.1)?);
        let t2 = t.hold(pointwise(w, &k.pwmul, y.0, x.1)?);
        pointwise(w, &k.pwadd, t1, t2)
    })();
    t.settle(c1, |_| [], |buf| w.free(buf))
}

/// Uploads one lane's share of a host key-switch key: per digit, the
/// `(a_j, b_j)` coefficient pair is uploaded and forward-transformed,
/// and stays resident.
///
/// # Errors
///
/// Returns [`RpuError`] on heap exhaustion or a dispatch fault; a
/// half-uploaded key is released first.
pub fn upload_ksk(
    w: &mut RpuSession<'_>,
    k: &LaneKernels,
    base_log: u32,
    digits: impl IntoIterator<Item = (Vec<u128>, Vec<u128>)>,
) -> Result<LaneKsk, RpuError> {
    let mut t = Temps::default();
    let parts = digits
        .into_iter()
        .map(|(a_j, b_j)| {
            let a = t.hold(upload_eval(w, k, &a_j)?);
            let b = t.hold(upload_eval(w, k, &b_j)?);
            Ok((a, b))
        })
        .collect::<Result<Vec<_>, RpuError>>();
    let key = parts.map(|parts| LaneKsk { base_log, parts });
    t.settle(
        key,
        |key| key.handles().collect::<Vec<_>>(),
        |buf| w.free(buf),
    )
}

/// A zeroed `(Σ·â, Σ·b̂)` accumulator pair for a key switch.
///
/// # Errors
///
/// Returns [`RpuError::Buffer`] when the lane's heap is exhausted.
pub fn accumulators(
    w: &mut RpuSession<'_>,
    n: usize,
) -> Result<(DeviceBuffer, DeviceBuffer), RpuError> {
    let zeros = vec![0u128; n];
    let acc_a = w.upload(&zeros)?;
    match w.upload(&zeros) {
        Ok(acc_b) => Ok((acc_a, acc_b)),
        Err(e) => {
            let _ = w.free(acc_a);
            Err(e)
        }
    }
}

/// One gadget digit on one lane: upload the digit once, then per target
/// transform it once under that target's modulus and fold the shared
/// `d̂` into both accumulators (`â_j` then `b̂_j`) — three dispatches,
/// one NTT. A target is `(lane kernels, (â_j, b̂_j), (acc_a, acc_b))`;
/// the single-modulus front ends pass one, the leveled one passes every
/// live tower on the lane (a digit is `< B`, valid in every tower), and
/// each tower's NTT overwrites the one `d̂` temp.
///
/// # Errors
///
/// Returns [`RpuError`] on heap exhaustion or a dispatch fault; the
/// digit and `d̂` are released either way.
pub fn ksw_digit<'k>(
    w: &mut RpuSession<'_>,
    digit: &[u128],
    targets: impl IntoIterator<
        Item = (
            &'k LaneKernels,
            (DeviceBuffer, DeviceBuffer),
            (DeviceBuffer, DeviceBuffer),
        ),
    >,
) -> Result<(), RpuError> {
    let mut t = Temps::default();
    let run = (|| {
        let d = t.hold(w.upload(digit)?);
        let d_hat = t.hold(w.alloc(digit.len())?);
        targets.into_iter().try_for_each(|(k, key, acc)| {
            w.dispatch(&k.fwd, &[d], &[d_hat])?;
            w.dispatch(&k.ksw, &[d_hat, key.0, acc.0], &[acc.0])?;
            w.dispatch(&k.ksw, &[d_hat, key.1, acc.1], &[acc.1])?;
            Ok(())
        })
    })();
    t.settle(run, |_| [], |buf| w.free(buf))
}

/// The Galois automorphism `σ_g` on one component: iNTT, then the
/// compiled `vgather` coefficient permutation. Returns the permuted
/// *coefficient-form* buffer (the mask side downloads it for the gadget
/// decomposition, the payload side re-transforms it).
///
/// # Errors
///
/// Returns [`RpuError`] on stale handles, heap exhaustion, or a
/// dispatch fault.
pub fn galois_permute(
    w: &mut RpuSession<'_>,
    k: &LaneKernels,
    autom: &Arc<Kernel>,
    hat: DeviceBuffer,
) -> Result<DeviceBuffer, RpuError> {
    let mut t = Temps::default();
    let perm = (|| {
        let coef = t.hold(w.alloc(hat.len())?);
        w.dispatch(&k.inv, &[hat], &[coef])?;
        let perm = t.hold(w.alloc(hat.len())?);
        w.dispatch(autom, &[coef], &[perm])?;
        Ok(perm)
    })();
    t.settle(perm, |perm| [*perm], |buf| w.free(buf))
}
