//! Lane-local steps of the ciphertext ops: a modulus' kernel set, the
//! temp scope, one dispatch into a fresh buffer, the transforms in and
//! out of evaluation form, and the key-switch digit.
//!
//! The paper's case for an ISA is that each ciphertext operation is the
//! same few B512 kernels chained in software (Fig. 1). The chains are
//! the device evaluator's ([`crate::evaluator`], which also decides
//! which lane runs each step); these are their links, written once
//! against [`RpuSession`] — a lane *is* its session, whether a lane
//! thread ([`crate::RpuCluster::on_lanes`]), the calling thread
//! ([`crate::RpuCluster::lane_session`]) or the serving layer drives it,
//! and the session counts what each step moves.
//!
//! The key switch is the one chain with something to share: a gadget
//! digit meets two key components (`â_j`, `b̂_j`) per target modulus, so
//! [`ksw_digit`] transforms it once with the lane's `fwd` kernel and
//! runs the multiply–accumulate kernel `ksw` twice on the shared `d̂`
//! (the hoisting of Halevi & Shoup, CRYPTO 2018) instead of paying for
//! an NTT inside each accumulation.
//!
//! Evaluations need no transform to cross the host link: a lane's `fwd`
//! kernel is verified word for word against
//! [`rpu_ntt::Ntt128Plan::forward`], so it writes a
//! [`rpu_ntt::Domain::Evaluation`] polynomial's values in their order.
//! So key material and the secret key are uploaded as the host's
//! evaluations and a ciphertext is downloaded as the device's, with no
//! NTT on either side and no dispatch; [`upload_eval`] and
//! [`download_coeffs`] are for coefficients.
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
    /// Fetches all six shapes for the lane from the `Rpu`'s kernel
    /// store, which builds each key once for every lane.
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

    /// Tracks every buffer of `bufs` until the scope settles.
    pub fn hold_all(&mut self, bufs: impl IntoIterator<Item = DeviceBuffer>) {
        self.0.extend(bufs);
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

/// One dispatch of `kernel` over `inputs` into a fresh buffer as long
/// as the first input — a pointwise op, a transform, a permutation. The
/// buffer goes back if the dispatch fails.
///
/// # Errors
///
/// Returns [`RpuError`] on stale handles, heap exhaustion, or a
/// dispatch fault.
pub fn apply(
    w: &mut RpuSession<'_>,
    kernel: &Arc<Kernel>,
    inputs: &[DeviceBuffer],
) -> Result<DeviceBuffer, RpuError> {
    let out = w.alloc(inputs[0].len())?;
    let run = w.dispatch(kernel, inputs, &[out]);
    run.map(|_| out).inspect_err(|_| drop(w.free(out)))
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
    let raw = w.upload(coeffs)?;
    let hat = apply(w, &k.fwd, &[raw]);
    let _ = w.free(raw);
    hat
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
    let tmp = apply(w, &k.inv, &[hat])?;
    let coeffs = w.download(&tmp);
    let _ = w.free(tmp);
    coeffs
}

/// One gadget digit on one lane: upload the digit once, then per target
/// transform it once under that target's modulus and fold the shared
/// `d̂` into both accumulators (`â_j` then `b̂_j`) — three dispatches,
/// one NTT. A target is `(lane kernels, (â_j, b̂_j), (acc_a, acc_b))`,
/// one per live tower whose accumulators live on the lane (a digit is
/// `< B`, valid in every tower); each tower's NTT overwrites the one
/// `d̂` temp.
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
