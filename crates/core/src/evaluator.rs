//! The device evaluator, written once over RNS towers: every ciphertext
//! operation [`crate::RlweEvaluator`], [`crate::LeveledEvaluator`] and
//! `rpu-serve` run, as chains of the lane-local [`crate::recipes`].
//!
//! A ciphertext here is [`Towers`] — its mask and payload buffers, one
//! per live tower — and the three front ends differ only in *which lane*
//! holds each buffer and runs each job. That is a [`Placement`] value,
//! so each op body exists once:
//!
//! * [`Ops`] — the bodies (encrypt, add/sub, tensor + relinearize `mul`,
//!   the key switch, phase, free, `apply_galois` over every live tower,
//!   upload, key upload) over a device, its kernel sets and a
//!   placement. The device is an [`RpuCluster`] for the evaluators and
//!   the one [`RpuSession`] a serving lane thread holds
//!   ([`Ops::single`]).
//! * [`Evaluator`] — the one evaluator type, generic only over the
//!   face's resident ciphertext type ([`Resident`]): the cluster, one
//!   kernel set per (lane, tower) slot, the host context (one
//!   [`LeveledContext`]; a single-modulus one is a one-prime chain), and
//!   the key state (resident secret key, the host copy key-switch keys
//!   derive from, the gadget base, the relinearization and Galois keys),
//!   retired together on re-key. Every public op — keygen, encrypt,
//!   add/sub, `mul`, `mul_plain`, key generation, rotation, decrypt,
//!   download, free, snapshot/restore, rescale, mod-drop and the noise
//!   queries — is written once in its one `impl`.
//!   [`crate::RlweEvaluator`] and [`crate::LeveledEvaluator`] are its
//!   instances over [`crate::DeviceCiphertext`] and
//!   [`crate::DeviceLeveledCiphertext`]; each face adds only its
//!   constructor and a placement accessor.
//!
//! The key switch is written once too: each live source tower is
//! gadget-decomposed once, every (source, digit) job runs
//! [`recipes::ksw_digit`] into the partial accumulators of the lane that
//! runs it, and a partial is folded onto its component's home lane only
//! if it is not already there. Modular addition is associative and
//! commutative, so the result is bit-exact whatever lane runs a job.
//!
//! Not part of the supported API: the module is public only so
//! `rpu-serve` can reach it.

use crate::buffer::DeviceBuffer;
use crate::lanes::{LaneJob, RpuCluster};
use crate::recipes::{self, LaneKernels, Temps};
use crate::run::Rpu;
use crate::session::RpuSession;
use crate::RpuError;
use rpu_arith::gadget_decompose;
use rpu_codegen::{AutomorphismSpec, CodegenStyle, Kernel, RescaleSpec};
use rpu_ntt::leveled::{LeveledContext, LeveledError, NoiseBudget};
use rpu_ntt::rlwe::{Ciphertext, KeySwitchKey, SecretKey, Splitmix};
use rpu_ntt::{Domain, Polynomial};
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::Arc;

/// A resident ciphertext by component, `[masks, payloads]`: one
/// evaluation-form buffer per live tower, each on the lane its
/// [`Placement`] gives it.
pub type Towers = [Vec<DeviceBuffer>; 2];

/// Picks one pointwise kernel out of a lane's set.
pub type Pick = fn(&LaneKernels) -> &Arc<Kernel>;

/// Which lane holds each tower's mask and payload, which lanes hold its
/// kernels and key share, and so which lane runs each job of an op.
///
/// | placement | tower `l`'s mask / payload | kernels and key share of tower `l` | key-switch digits |
/// |---|---|---|---|
/// | `Component` ([`crate::RlweEvaluator`], one tower) | lane 0 / lane `1 % lanes` | every lane | work-stolen over every lane ([`RpuCluster::run_jobs`]), each lane's partial sums folded onto the home lanes |
/// | `Tower` ([`crate::LeveledEvaluator`]) | lane `l % lanes`, both | the tower's lane | lane by lane on the calling thread |
/// | `Single` (`rpu-serve`'s lane threads) | lane 0, both | lane 0 | in order on the one lane |
///
/// With two component lanes the two dispatches of a per-component step
/// land on different devices and overlap; encryption then moves `â` to
/// the mask lane, the tensor's cross terms need the payloads replicated
/// onto it, and decryption moves `â ⊙ ŝ` to the payload lane — the
/// placement's only cross-lane traffic besides the key switch's fold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Mask on lane 0, payload on lane `1 % lanes`; key material
    /// replicated on every lane so any lane can take any digit job.
    Component,
    /// Tower `l` on lane `l % lanes`.
    Tower,
    /// Everything on one lane.
    Single,
}

impl Placement {
    /// Slot `s`'s `(lane, tower)`. A slot holds a kernel set and a key
    /// share: there is one per lane under `Component`, one per tower
    /// otherwise.
    fn place(self, s: usize, lanes: usize) -> (usize, usize) {
        match self {
            Placement::Component => (s, 0),
            Placement::Tower => (s % lanes, s),
            Placement::Single => (0, s),
        }
    }

    /// The slot of tower `l` on `lane`.
    fn slot(self, lane: usize, l: usize) -> usize {
        if self == Placement::Component {
            lane
        } else {
            l
        }
    }

    /// The `[mask, payload]` lanes of tower `l`.
    pub(crate) fn homes(self, l: usize, lanes: usize) -> [usize; 2] {
        match self {
            Placement::Component => [0, 1 % lanes],
            Placement::Tower => [l % lanes; 2],
            Placement::Single => [0; 2],
        }
    }
}

/// What the op bodies run over: a cluster's lanes, or the one session a
/// lane thread is handed (a one-lane device).
#[derive(Debug)]
enum Device<'r, 'a> {
    Cluster(&'r mut RpuCluster<'a>),
    Session(&'r mut RpuSession<'a>),
}

impl<'a> Device<'_, 'a> {
    fn count(&self) -> usize {
        match self {
            Device::Cluster(c) => c.lane_count(),
            Device::Session(_) => 1,
        }
    }

    fn lane(&mut self, lane: usize) -> &mut RpuSession<'a> {
        match self {
            Device::Cluster(c) => c.lane_session(lane),
            Device::Session(w) => w,
        }
    }

    /// Frees `buf` on whichever lane holds it.
    fn free(&mut self, buf: DeviceBuffer) -> Result<(), RpuError> {
        match self {
            Device::Cluster(c) => c.free(buf),
            Device::Session(w) => w.free(buf),
        }
    }
}

/// One lane's share of a key-switch key: per gadget digit `j`, the
/// evaluation-form pair `(â_j, b̂_j)`.
type Share = Vec<(DeviceBuffer, DeviceBuffer)>;

/// A key-switch key resident on a device: for each source tower `i`,
/// one share per slot of the [`Placement`] — the digit-indexed
/// `(â_{ij}, b̂_{ij})` pairs of the slot's tower, on the slot's lane. So
/// under `Component` the whole key is replicated on every lane, and
/// under `Tower` tower `k`'s share of every source sits on tower `k`'s
/// lane. Mod-dropping the key is implicit — a key switch at `level`
/// simply never touches towers above it. Created by the evaluators'
/// `relin_keygen` / `galois_keygen` and by `rpu-serve`'s key
/// registration.
#[derive(Debug, Clone)]
pub struct DeviceKeySwitchKey {
    base_log: u32,
    /// `shares[i][s]`: source tower `i`'s digits, slot `s`'s tower.
    shares: Vec<Vec<Share>>,
}

impl DeviceKeySwitchKey {
    /// The digit base exponent `log2(B)`.
    pub fn base_log(&self) -> u32 {
        self.base_log
    }

    /// Total gadget digits `Σ_i ℓ_i` (`ℓ` for a single-modulus key).
    pub fn levels(&self) -> usize {
        self.parts_at_level(self.shares.len() - 1)
    }

    /// Total digit products `Σ_{i ≤ level} ℓ_i` a key switch at `level`
    /// performs — the `parts` factor of the noise model.
    pub fn parts_at_level(&self, level: usize) -> usize {
        self.shares[..=level].iter().map(|s| s[0].len()).sum()
    }

    /// Total resident elements this key occupies across all lanes
    /// (`2 · ℓ · n` per share — under `Component`, times the lane count:
    /// the key-material footprint the README's size table quotes).
    pub fn resident_elements(&self) -> usize {
        self.handles().map(|buf| buf.len()).sum()
    }

    /// Every resident handle of the key.
    #[doc(hidden)]
    pub fn handles(&self) -> impl Iterator<Item = DeviceBuffer> + '_ {
        let shares = self.shares.iter().flatten().flatten();
        shares.flat_map(|&(a, b)| [a, b])
    }
}

/// A resident Galois key: per tower, the `σ_g` evaluation-permutation
/// kernels of its `[mask, payload]` lanes, and the key-switch key that
/// brings a permuted ciphertext back under the original secret.
#[derive(Debug, Clone)]
pub struct GaloisKey {
    autom: Vec<[Arc<Kernel>; 2]>,
    /// The key-switch key.
    pub key: DeviceKeySwitchKey,
}

/// The "call X first" error of every evaluator.
fn no_key(what: &str, call: &str) -> RpuError {
    RpuError::Config(format!("no {what}: call {call} first"))
}

/// The op bodies over a device, one kernel set per slot, and a
/// placement.
#[derive(Debug)]
pub struct Ops<'r, 'a> {
    dev: Device<'r, 'a>,
    kernels: &'r [LaneKernels],
    placement: Placement,
}

impl<'r, 'a> Ops<'r, 'a> {
    /// Everything on the one session a lane thread holds, with its
    /// kernel set.
    pub fn single(w: &'r mut RpuSession<'a>, k: &'r LaneKernels) -> Self {
        Ops {
            dev: Device::Session(w),
            kernels: std::slice::from_ref(k),
            placement: Placement::Single,
        }
    }

    /// The `[mask, payload]` lanes of tower `l`.
    fn homes(&self, l: usize) -> [usize; 2] {
        self.placement.homes(l, self.dev.count())
    }

    /// `lane`'s session and the kernel set of tower `l` there.
    fn at(&mut self, lane: usize, l: usize) -> (&mut RpuSession<'a>, &'r LaneKernels) {
        let kernels: &'r [LaneKernels] = self.kernels;
        (self.dev.lane(lane), &kernels[self.placement.slot(lane, l)])
    }

    fn pointwise(
        &mut self,
        lane: usize,
        l: usize,
        pick: Pick,
        x: DeviceBuffer,
        y: DeviceBuffer,
    ) -> Result<DeviceBuffer, RpuError> {
        let (w, k) = self.at(lane, l);
        recipes::apply(w, pick(k), &[x, y])
    }

    /// Copies `x` from lane `from` to lane `to` over the host link
    /// (lanes share no memory).
    fn carry(&mut self, x: DeviceBuffer, from: usize, to: usize) -> Result<DeviceBuffer, RpuError> {
        let data = self.dev.lane(from).download(&x)?;
        self.dev.lane(to).upload(&data)
    }

    /// Ends an op's temp scope, keeping the result's buffers.
    pub fn settle(&mut self, t: Temps, ct: Result<Towers, RpuError>) -> Result<Towers, RpuError> {
        t.settle(ct, |ct| ct.concat(), |buf| self.dev.free(buf))
    }

    /// Builds a ciphertext tower by tower from `tower(self, temps, l) →
    /// [mask, payload]`, in one temp scope: a failure frees everything
    /// held, success everything held but the result.
    fn per_tower(
        &mut self,
        towers: usize,
        mut tower: impl FnMut(&mut Self, &mut Temps, usize) -> Result<[DeviceBuffer; 2], RpuError>,
    ) -> Result<Towers, RpuError> {
        let mut t = Temps::default();
        let mut ct = Towers::default();
        let built = (0..towers).try_for_each(|l| {
            let [a, b] = tower(self, &mut t, l)?;
            ct[0].push(a);
            ct[1].push(b);
            Ok(())
        });
        self.settle(t, built.map(|()| ct))
    }

    /// Best-effort release of buffers known to be live (a handle listed
    /// twice is freed once).
    fn release(&mut self, bufs: impl IntoIterator<Item = DeviceBuffer>) {
        for buf in bufs {
            let _ = self.dev.free(buf);
        }
    }

    /// Frees every buffer of a resident ciphertext, masks first.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Buffer`] for stale handles.
    pub fn free(&mut self, ct: Towers) -> Result<(), RpuError> {
        let bufs = ct.concat();
        bufs.into_iter().try_for_each(|buf| self.dev.free(buf))
    }

    /// Uploads one host vector per tower, in domain `from`, as an
    /// evaluation-form buffer on each of the tower's component lanes —
    /// one shared handle when both are one lane. Coefficients are
    /// forward-transformed there ([`recipes::upload_eval`]); evaluations
    /// are already in the lane's order and run nothing.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError`] on heap exhaustion or a dispatch fault.
    pub fn upload(&mut self, towers: &[&[u128]], from: Domain) -> Result<Towers, RpuError> {
        self.per_tower(towers.len(), |ops, t, l| {
            let [la, lb] = ops.homes(l);
            let mut up = |lane| -> Result<_, RpuError> {
                let (w, k) = ops.at(lane, l);
                let hat = match from {
                    Domain::Coefficient => recipes::upload_eval(w, k, towers[l]),
                    Domain::Evaluation => w.upload(towers[l]),
                };
                Ok(t.hold(hat?))
            };
            let a = up(la)?;
            Ok([a, if lb == la { a } else { up(lb)? }])
        })
    }

    /// Encrypts host-sampled randomness per tower under the resident
    /// secret key `sk`: `b̂ = â ⊙ ŝ ⊕ payload̂` runs entirely on the
    /// tower's payload lane. When the mask lane is another, the payload
    /// lane's `â` crosses to it over the host link ([`carry`](Ops::carry):
    /// the mask is transformed once) and the payload lane's working copy
    /// goes back with the op's temps.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError`] on heap exhaustion or a dispatch fault.
    pub fn encrypt(
        &mut self,
        sk: &Towers,
        masks: &[Vec<u128>],
        payloads: &[Vec<u128>],
    ) -> Result<Towers, RpuError> {
        self.per_tower(masks.len(), |ops, t, l| {
            let [la, lb] = ops.homes(l);
            let (w, k) = ops.at(lb, l);
            let mut a = t.hold(recipes::upload_eval(w, k, &masks[l])?);
            let p = t.hold(recipes::upload_eval(w, k, &payloads[l])?);
            let b = t.hold(recipes::apply(w, &k.pwmul, &[a, sk[1][l]])?); // â ⊙ ŝ
            w.dispatch(&k.pwadd, &[b, p], &[b])?; // ⊕ p̂
            if la != lb {
                a = t.hold(ops.carry(a, lb, la)?);
            }
            Ok([a, b])
        })
    }

    /// `op(x, y)` per tower and component, on that component's lane;
    /// towers above the lower operand's level are left out.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError`] on stale handles, heap exhaustion, or a
    /// dispatch fault.
    pub fn pointwise_ct(&mut self, pick: Pick, x: &Towers, y: &Towers) -> Result<Towers, RpuError> {
        self.per_tower(x[0].len().min(y[0].len()), |ops, t, l| {
            let [la, lb] = ops.homes(l);
            let a = t.hold(ops.pointwise(la, l, pick, x[0][l], y[0][l])?);
            Ok([a, t.hold(ops.pointwise(lb, l, pick, x[1][l], y[1][l])?)])
        })
    }

    /// Per-tower phase `b̂ ⊖ â ⊙ ŝ`, downloaded in natural order: `â ⊙ ŝ`
    /// runs on the tower's mask lane and crosses to its payload lane over
    /// the host link when that is another lane; the subtraction and the
    /// inverse NTT run there. Decoding is the host's.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError`] on stale handles, heap exhaustion, or a
    /// dispatch fault.
    pub fn phase(&mut self, sk: &Towers, ct: &Towers) -> Result<Vec<Vec<u128>>, RpuError> {
        let towers = (0..ct[0].len()).map(|l| {
            let [la, lb] = self.homes(l);
            let mut s = self.pointwise(la, l, |k| &k.pwmul, ct[0][l], sk[0][l])?; // â ⊙ ŝ
            if lb != la {
                let moved = self.carry(s, la, lb);
                let _ = self.dev.free(s);
                s = moved?;
            }
            let (w, k) = self.at(lb, l);
            let noisy = (w.dispatch(&k.pwsub, &[ct[1][l], s], &[s]))
                .and_then(|_| recipes::download_coeffs(w, k, s));
            let _ = w.free(s);
            noisy
        });
        towers.collect()
    }

    /// Ciphertext×ciphertext multiplication at the operands' common
    /// level. Per tower, the degree-2 tensor: `c2 = â_x ⊙ â_y` on the
    /// mask lane, `c0 = b̂_x ⊙ b̂_y` on the payload lane, the cross terms
    /// `c1 = â_x ⊙ b̂_y ⊕ â_y ⊙ b̂_x` on the mask lane (the payloads are
    /// replicated over unless they share it), then `c2` back to
    /// coefficients. Then [`key_switch`](Ops::key_switch) relinearizes
    /// the `c2` towers against `relin` and adds the result into
    /// `(c1, c0)`.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError`] on heap exhaustion or a dispatch fault.
    pub fn mul(
        &mut self,
        relin: &DeviceKeySwitchKey,
        x: &Towers,
        y: &Towers,
    ) -> Result<Towers, RpuError> {
        let mut c2s = Vec::new();
        let mut t = Temps::default();
        let c10 = self.per_tower(x[0].len().min(y[0].len()), |ops, tt, l| {
            let [la, lb] = ops.homes(l);
            let c2 = tt.hold(ops.pointwise(la, l, |k| &k.pwmul, x[0][l], y[0][l])?);
            let c0 = tt.hold(ops.pointwise(lb, l, |k| &k.pwmul, x[1][l], y[1][l])?);
            let (xb, yb) = if lb == la {
                (x[1][l], y[1][l])
            } else {
                let xb = tt.hold(ops.carry(x[1][l], lb, la)?);
                (xb, tt.hold(ops.carry(y[1][l], lb, la)?))
            };
            let (w, k) = ops.at(la, l);
            let t1 = tt.hold(recipes::apply(w, &k.pwmul, &[x[0][l], yb])?);
            let t2 = tt.hold(recipes::apply(w, &k.pwmul, &[y[0][l], xb])?);
            let c1 = tt.hold(recipes::apply(w, &k.pwadd, &[t1, t2])?);
            c2s.push(recipes::download_coeffs(w, k, c2)?);
            for tmp in [c2, t1, t2] {
                w.free(tmp)?;
            }
            Ok([c1, c0])
        });
        let ct = (|| {
            let c10 = c10?;
            t.hold_all(c10.concat());
            let switched = self.key_switch(&c2s, relin)?;
            t.hold_all(switched.concat());
            self.pointwise_ct(|k| &k.pwadd, &c10, &switched)
        })();
        self.settle(t, ct)
    }

    /// The gadget key switch of the coefficient-form source towers `src`
    /// (one per live tower) against `key`. Returns, per live tower, the
    /// accumulated `Σ d̂·â` on its mask lane and `Σ d̂·b̂` on its payload
    /// lane.
    ///
    /// Each source tower is decomposed once. Under `Component` every
    /// (source, digit) pair is one work-stealing job over every lane,
    /// into the partial accumulators of the lane that takes it; otherwise
    /// each lane runs every pair, lane by lane, into the accumulators of
    /// its own towers. A partial is folded onto its component's home
    /// lane only if it is not already there.
    fn key_switch(
        &mut self,
        src: &[Vec<u128>],
        key: &DeviceKeySwitchKey,
    ) -> Result<Towers, RpuError> {
        let (lanes, placement, kernels) = (self.dev.count(), self.placement, self.kernels);
        let digits: Vec<_> = (src.iter().zip(&key.shares))
            .map(|(src, shares)| gadget_decompose(src, key.base_log, shares[0].len()))
            .collect();
        // The `(lane, tower)` of every slot holding a live tower: a prefix.
        let live: Vec<_> = (0..kernels.len())
            .map(|s| placement.place(s, lanes))
            .take_while(|&(_, l)| l < src.len())
            .collect();
        let mut t = Temps::default();
        let out = (|| {
            let zeros = vec![0u128; src[0].len()];
            let mut accs = Vec::with_capacity(live.len());
            for &(lane, _) in &live {
                let w = self.dev.lane(lane);
                accs.push((t.hold(w.upload(&zeros)?), t.hold(w.upload(&zeros)?)));
            }
            let (digits, live, accs) = (&digits, &live, &accs);
            let step = move |w: &mut RpuSession<'_>, lane: usize, (i, j): (usize, usize)| {
                let targets = (0..live.len()).filter(|&s| live[s].0 == lane);
                let targets = targets.map(|s| (&kernels[s], key.shares[i][s][j], accs[s]));
                recipes::ksw_digit(w, &digits[i][j], targets)
            };
            let pairs = digits.iter().enumerate();
            let pairs = pairs.flat_map(|(i, d)| (0..d.len()).map(move |j| (i, j)));
            match (&mut self.dev, placement) {
                (Device::Cluster(cluster), Placement::Component) => {
                    let jobs = pairs.map(|ij| {
                        Box::new(move |w: &mut RpuSession<'_>| {
                            let lane = w.lane_index();
                            step(w, lane, ij)
                        }) as LaneJob<'_, ()>
                    });
                    cluster.run_jobs(jobs.collect())?;
                }
                (dev, _) => {
                    for lane in (0..lanes).filter(|&lane| live.iter().any(|p| p.0 == lane)) {
                        for ij in pairs.clone() {
                            step(dev.lane(lane), lane, ij)?;
                        }
                    }
                }
            }
            // Fold every partial that is not on its component's home lane.
            let total = |l: usize, c: usize| {
                let home = placement.homes(l, lanes)[c];
                let (a, b) = accs[placement.slot(home, l)];
                (home, [a, b][c])
            };
            for (s, &(lane, l)) in live.iter().enumerate() {
                for (c, partial) in [accs[s].0, accs[s].1].into_iter().enumerate() {
                    let (home, total) = total(l, c);
                    if lane != home {
                        let moved = t.hold(self.carry(partial, lane, home)?);
                        self.dev.free(partial)?;
                        let (w, k) = self.at(home, l);
                        w.dispatch(&k.pwadd, &[total, moved], &[total])?;
                        w.free(moved)?;
                    }
                }
            }
            Ok([0, 1].map(|c| (0..src.len()).map(|l| total(l, c).1).collect()))
        })();
        self.settle(t, out)
    }

    /// Applies the Galois automorphism `x → x^g` to a ciphertext in
    /// evaluation form, on every live tower: each component tower is
    /// permuted on its lane by that tower's `σ_g` kernel (a `vgather`
    /// program over Pease-order evaluation points, exact on residues).
    /// The permuted payload towers are the result's payload base as they
    /// stand; only the permuted mask towers are inverse-transformed, for
    /// their coefficients to feed the one key switch that brings the
    /// result back under the original key (the switched mask is rebuilt
    /// entirely from key material).
    ///
    /// # Errors
    ///
    /// Returns [`RpuError`] on heap exhaustion or a dispatch fault.
    pub fn apply_galois(&mut self, gk: &GaloisKey, ct: &Towers) -> Result<Towers, RpuError> {
        let mut t = Temps::default();
        let out = (|| {
            let (mut sigma_a, mut perm_b) = (Vec::new(), Vec::new());
            for (l, autom) in gk.autom.iter().enumerate().take(ct[0].len()) {
                let [la, lb] = self.homes(l);
                let a = t.hold(recipes::apply(self.dev.lane(la), &autom[0], &[ct[0][l]])?);
                perm_b.push(t.hold(recipes::apply(self.dev.lane(lb), &autom[1], &[ct[1][l]])?));
                let (w, k) = self.at(la, l);
                sigma_a.push(recipes::download_coeffs(w, k, a)?);
            }
            let [ka, kb] = self.key_switch(&sigma_a, &gk.key)?;
            t.hold_all(ka.iter().chain(&kb).copied());
            let mut b = Vec::with_capacity(kb.len());
            for (l, (&perm, &switched)) in perm_b.iter().zip(&kb).enumerate() {
                let sum = self.pointwise(self.homes(l)[1], l, |k| &k.pwadd, perm, switched);
                b.push(t.hold(sum?));
            }
            Ok([ka, b])
        })();
        self.settle(t, out)
    }

    /// Uploads a host key-switch key: every source tower's share of each
    /// slot's tower, on the slot's lane, as the host's evaluations —
    /// already the lane's evaluation order, so no transform on either
    /// side and no dispatch.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError`] on heap exhaustion; the shares uploaded so
    /// far are released first.
    pub fn upload_key(&mut self, ksk: &KeySwitchKey) -> Result<DeviceKeySwitchKey, RpuError> {
        let (lanes, slots, placement) = (self.dev.count(), self.kernels.len(), self.placement);
        let mut t = Temps::default();
        let mut upload = |i: usize, s: usize| {
            let (lane, l) = placement.place(s, lanes);
            let w = self.dev.lane(lane);
            let mut up = |v: &[u128]| w.upload(v).map(|hat| t.hold(hat));
            let share = ksk.share(i, l).map(|(a, b)| Ok((up(a)?, up(b)?)));
            share.collect::<Result<Share, RpuError>>()
        };
        let shares = (0..ksk.parts().len())
            .map(|i| (0..slots).map(|s| upload(i, s)).collect())
            .collect::<Result<_, _>>();
        let base_log = ksk.base_log();
        let key = shares.map(|shares| DeviceKeySwitchKey { base_log, shares });
        let handles = |key: &DeviceKeySwitchKey| key.handles().collect::<Vec<_>>();
        t.settle(key, handles, |buf| self.dev.free(buf))
    }

    /// Compiles `σ_g` on every tower's component lanes (`specs[l]` for
    /// tower `l`) and uploads its key-switch key.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError`] if compilation or the upload fails.
    pub fn galois_key(
        &mut self,
        specs: &[AutomorphismSpec],
        ksk: &KeySwitchKey,
    ) -> Result<GaloisKey, RpuError> {
        let autom = (specs.iter().enumerate())
            .map(|(l, spec)| {
                let [la, lb] = self.homes(l);
                let a = self.dev.lane(la).compile(spec)?;
                let b = (lb != la).then(|| self.dev.lane(lb).compile(spec));
                Ok([Arc::clone(&a), b.transpose()?.unwrap_or(a)])
            })
            .collect::<Result<_, RpuError>>()?;
        let key = self.upload_key(ksk)?;
        Ok(GaloisKey { autom, key })
    }
}

/// A face's resident ciphertext: the [`Towers`] it holds and its
/// tracked noise bound. [`Evaluator`]'s ops are written once over it.
pub trait Resident: Sized {
    /// The resident `[masks, payloads]` and the noise bound.
    fn parts(&self) -> (Towers, NoiseBudget);

    /// Wraps an op's result.
    fn wrap(towers: Towers, noise: NoiseBudget) -> Self;
}

/// The one device evaluator, generic over its face's resident
/// ciphertext type `Ct`: the cluster, one kernel set per slot of its
/// [`Placement`], the host context it is bit-exact against, and the key
/// state — the resident secret key, the host copy key-switch keys derive
/// from, the gadget base, and the resident relinearization and Galois
/// keys, retired together on re-key. [`crate::RlweEvaluator`] and
/// [`crate::LeveledEvaluator`] are its two instances; every op is
/// written here once, for both.
#[derive(Debug)]
pub struct Evaluator<'a, Ct> {
    cluster: RpuCluster<'a>,
    ctx: LeveledContext,
    style: CodegenStyle,
    placement: Placement,
    kernels: Vec<LaneKernels>,
    sk: Option<(Towers, SecretKey)>,
    base_log: u32,
    relin: Option<DeviceKeySwitchKey>,
    galois: HashMap<usize, GaloisKey>,
    ct: PhantomData<fn() -> Ct>,
}

impl<'a, Ct: Resident> Evaluator<'a, Ct> {
    /// Opens a cluster with the configured lane count and compiles and
    /// golden-verifies the six recipe kernel shapes of every slot, tower
    /// `l` under chain prime `q_l`; after that every operation is pure
    /// dispatch traffic.
    pub(crate) fn open(
        rpu: &'a Rpu,
        placement: Placement,
        ctx: LeveledContext,
        style: CodegenStyle,
    ) -> Result<Self, RpuError> {
        let mut cluster = rpu.cluster();
        let (lanes, primes) = (cluster.lane_count(), ctx.chain().primes());
        let component = placement == Placement::Component;
        let slots = if component { lanes } else { primes.len() };
        let kernels = (0..slots)
            .map(|s| {
                let (lane, l) = placement.place(s, lanes);
                LaneKernels::compile(cluster.lane_session(lane), ctx.n(), primes[l], style)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Evaluator {
            cluster,
            ctx,
            style,
            placement,
            kernels,
            sk: None,
            base_log: recipes::DEFAULT_KSK_BASE_LOG,
            relin: None,
            galois: HashMap::new(),
            ct: PhantomData,
        })
    }

    /// The op bodies over this evaluator's cluster, beside the host
    /// context (borrowed apart).
    fn ops(&mut self) -> (Ops<'_, 'a>, &LeveledContext) {
        let ops = Ops {
            dev: Device::Cluster(&mut self.cluster),
            kernels: &self.kernels,
            placement: self.placement,
        };
        (ops, &self.ctx)
    }

    /// The host-side reference context (same chain, same parameters).
    pub fn context(&self) -> &LeveledContext {
        &self.ctx
    }

    /// The modulus chain the evaluator runs over (one prime for an
    /// [`crate::RlweEvaluator`]).
    pub fn chain(&self) -> &rpu_arith::ModulusChain {
        self.ctx.chain()
    }

    /// The cluster the evaluator shards over.
    pub fn cluster(&self) -> &RpuCluster<'a> {
        &self.cluster
    }

    /// Mutable access to the cluster (lane sessions, buffer migration).
    pub fn cluster_mut(&mut self) -> &mut RpuCluster<'a> {
        &mut self.cluster
    }

    /// The gadget digit base exponent key-switch keys are generated
    /// with (`log2(B)`, default 16).
    pub fn key_base_log(&self) -> u32 {
        self.base_log
    }

    /// Overrides the gadget digit base for *future* key generations.
    /// Smaller bases mean more digits (more dispatches, less noise per
    /// digit); the default 16 is comfortable for every supported prime.
    /// A host oracle must be given the same base for bit-exact
    /// cross-checks.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Config`] outside `[1, 64]`.
    pub fn set_key_base_log(&mut self, base_log: u32) -> Result<(), RpuError> {
        self.base_log = recipes::check_ksk_base_log(base_log)?;
        Ok(())
    }

    /// The resident relinearization key, if generated.
    pub fn relin_key(&self) -> Option<&DeviceKeySwitchKey> {
        self.relin.as_ref()
    }

    /// The resident Galois key for element `g`, if generated.
    pub fn galois_key(&self, g: usize) -> Option<&DeviceKeySwitchKey> {
        self.galois.get(&g).map(|gk| &gk.key)
    }

    /// The resident secret key beside the host copy key-switch keys
    /// derive from, or the "call `keygen`" error.
    fn key(&self) -> Result<&(Towers, SecretKey), RpuError> {
        let sk = self.sk.as_ref();
        sk.ok_or_else(|| no_key("secret key", "keygen"))
    }

    /// Samples a secret key on the host (the stream
    /// [`LeveledContext::keygen`] draws) and uploads each tower's
    /// evaluations to its component lanes — already the lane's
    /// evaluation order, so no transform on either side and no dispatch
    /// — where the key stays resident for every later `encrypt` /
    /// `decrypt`. Returns the host-form key for cross-checking against
    /// the oracle.
    ///
    /// Re-keying retires the whole previous key state first — host copy,
    /// resident copies, and every key-switch key derived from it — so a
    /// failed upload leaves the evaluator keyless rather than half
    /// re-keyed.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError`] on heap exhaustion or a dispatch fault.
    pub fn keygen(&mut self, rng: &mut Splitmix) -> Result<SecretKey, RpuError> {
        let sk = self.ctx.keygen(rng);
        let old = self.sk.take().into_iter().flat_map(|(sk, _)| sk.concat());
        let keys = self.relin.take().into_iter();
        let keys = keys.chain(self.galois.drain().map(|(_, gk)| gk.key));
        let stale = old.chain(keys.flat_map(|key| key.handles().collect::<Vec<_>>()));
        let stale: Vec<_> = stale.collect();
        self.ops().0.release(stale);
        let towers: Vec<_> = sk.towers().iter().map(Polynomial::values).collect();
        let resident = self.ops().0.upload(&towers, Domain::Evaluation)?;
        self.sk = Some((resident, sk.clone()));
        Ok(sk)
    }

    /// Encrypts a plaintext vector (coefficients mod `t`) at the top
    /// level: randomness is sampled on the host (the stream
    /// [`LeveledContext::encrypt`] draws, only once the key is known to
    /// exist), then per tower `b̂ = â ⊙ ŝ ⊕ payload̂` runs entirely on the
    /// tower's payload lane (see [`Ops::encrypt`]).
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Config`] without a prior
    /// [`keygen`](Self::keygen), or [`RpuError`] on heap exhaustion /
    /// dispatch failure.
    ///
    /// # Panics
    ///
    /// Panics if `message.len() != n`.
    pub fn encrypt(&mut self, message: &[u128], rng: &mut Splitmix) -> Result<Ct, RpuError> {
        let sk = self.key()?.0.clone();
        let (masks, payloads) = self.ctx.sample_mask_and_payload(message, rng);
        let towers = self.ops().0.encrypt(&sk, &masks, &payloads)?;
        Ok(Ct::wrap(towers, NoiseBudget::fresh(self.chain().t())))
    }

    /// Homomorphic addition with automatic level alignment: one
    /// pointwise dispatch per live tower and component, on that
    /// component's lane (overlapping when the components' lanes differ).
    ///
    /// # Errors
    ///
    /// Returns [`RpuError`] on stale handles, heap exhaustion, or a
    /// dispatch fault.
    pub fn add(&mut self, x: &Ct, y: &Ct) -> Result<Ct, RpuError> {
        self.add_sub(|k| &k.pwadd, x, y)
    }

    /// Homomorphic subtraction with automatic level alignment.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError`] on stale handles, heap exhaustion, or a
    /// dispatch fault.
    pub fn sub(&mut self, x: &Ct, y: &Ct) -> Result<Ct, RpuError> {
        self.add_sub(|k| &k.pwsub, x, y)
    }

    fn add_sub(&mut self, pick: Pick, x: &Ct, y: &Ct) -> Result<Ct, RpuError> {
        let ((x, x_noise), (y, y_noise)) = (x.parts(), y.parts());
        let towers = self.ops().0.pointwise_ct(pick, &x, &y)?;
        Ok(Ct::wrap(towers, x_noise.after_add(y_noise)))
    }

    /// Multiplication by a plaintext polynomial with small non-negative
    /// coefficients: the plaintext is uploaded and forward-transformed
    /// once per live tower and component lane, then each component tower
    /// is multiplied on its own lane.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError`] on heap exhaustion or a dispatch fault.
    ///
    /// # Panics
    ///
    /// Panics if `plain.len() != n`.
    pub fn mul_plain(&mut self, x: &Ct, plain: &[u128]) -> Result<Ct, RpuError> {
        let n = self.ctx.n();
        assert_eq!(plain.len(), n, "plaintext length must equal n");
        let (x, noise) = x.parts();
        let (mut ops, _) = self.ops();
        let p = ops.upload(&vec![plain; x[0].len()], Domain::Coefficient)?;
        let ct = ops.pointwise_ct(|k| &k.pwmul, &x, &p);
        ops.release(p.concat());
        let max = plain.iter().copied().max().unwrap_or(0);
        Ok(Ct::wrap(ct?, noise.after_mul_plain(n, max)))
    }

    /// Ciphertext×ciphertext multiplication at the operands' common
    /// level ([`Ops::mul`]): the per-tower degree-2 tensor, then the `c2`
    /// towers are inverse-transformed, gadget-decomposed on the host, and
    /// every digit is multiply-accumulated against the resident
    /// relinearization key ([`relin_keygen`](Self::relin_keygen)). The
    /// result stays at the same level; follow with
    /// [`rescale`](Self::rescale) (or use
    /// [`mul_rescale`](Self::mul_rescale)) to shed the noise growth.
    ///
    /// Bit-exactly equal to the host [`LeveledContext::mul`] on any lane
    /// count.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Config`] without a relinearization key, or
    /// [`RpuError`] on heap exhaustion / dispatch failure.
    pub fn mul(&mut self, x: &Ct, y: &Ct) -> Result<Ct, RpuError> {
        let relin = self.relin.clone();
        let relin = relin.ok_or_else(|| no_key("relinearization key", "relin_keygen"))?;
        let ((x, x_noise), (y, y_noise)) = (x.parts(), y.parts());
        let parts = relin.parts_at_level(x[0].len().min(y[0].len()) - 1);
        let (n, t) = (self.ctx.n(), self.chain().t());
        let noise = x_noise.after_mul(y_noise, n, t, parts, relin.base_log());
        let towers = self.ops().0.mul(&relin, &x, &y)?;
        Ok(Ct::wrap(towers, noise))
    }

    /// Fused level-aware multiply: [`mul`](Self::mul) followed by
    /// [`rescale`](Self::rescale), freeing the intermediate product.
    /// The result lives one level below the operands' common level.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError`] as `mul` and `rescale` do (including
    /// [`RpuError::Leveled`] when the operands are already at level 0).
    pub fn mul_rescale(&mut self, x: &Ct, y: &Ct) -> Result<Ct, RpuError> {
        let product = self.mul(x, y)?;
        let rescaled = self.rescale(&product);
        self.free_ciphertext(product)?;
        rescaled
    }

    /// Generates a relinearization key — host-side gadget encryptions of
    /// `s²` drawn from `rng` (the stream [`LeveledContext::relin_keygen`]
    /// uses, so host and device key material match bit-exactly) — and
    /// uploads every slot's share to its lane, replacing any previous
    /// key (a failed upload keeps the previous one).
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Config`] without a prior
    /// [`keygen`](Self::keygen), or [`RpuError`] on heap exhaustion /
    /// dispatch failure during upload.
    pub fn relin_keygen(&mut self, rng: &mut Splitmix) -> Result<(), RpuError> {
        let rk = self.ctx.relin_keygen(&self.key()?.1, rng, self.base_log);
        let key = self.ops().0.upload_key(&rk)?;
        let old = self.relin.replace(key);
        self.ops()
            .0
            .release(old.iter().flat_map(|old| old.handles()));
        Ok(())
    }

    /// Generates and uploads the Galois key for the automorphism
    /// `x → x^g` (the stream [`LeveledContext::galois_keygen`] draws),
    /// and compiles the `σ_g` kernel — a permutation of Pease-order
    /// evaluation points — of every tower on its component lanes.
    /// Replaces any key for `g`; returns the (normalized) Galois element.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Config`] without a prior keygen,
    /// [`RpuError::Ring`] for an even `g`, or [`RpuError`] on upload
    /// failure.
    pub fn galois_keygen(&mut self, g: usize, rng: &mut Splitmix) -> Result<usize, RpuError> {
        let sk = &self.key()?.1;
        let gk = self.ctx.galois_keygen(sk, g, rng, self.base_log)?;
        let (g, n, style) = (gk.galois_element(), self.ctx.n(), self.style);
        let spec = |&q: &u128| AutomorphismSpec::new(n, q, g, style);
        let specs: Vec<_> = self.chain().primes().iter().map(spec).collect();
        let key = self.ops().0.galois_key(&specs, gk.key_switch_key())?;
        let old = self.galois.insert(g, key);
        self.ops()
            .0
            .release(old.iter().flat_map(|old| old.key.handles()));
        Ok(g)
    }

    /// Generates the rotation key for `steps` positions
    /// (`g = 5^steps mod 2n`); see
    /// [`galois_keygen`](Self::galois_keygen).
    ///
    /// # Errors
    ///
    /// Returns [`RpuError`] as `galois_keygen` does.
    pub fn rotation_keygen(&mut self, steps: usize, rng: &mut Splitmix) -> Result<usize, RpuError> {
        let g = self.ctx.galois_element(steps);
        self.galois_keygen(g, rng)
    }

    /// Homomorphic rotation by `steps` positions: applies the Galois
    /// automorphism `x → x^{5^steps mod 2n}` via
    /// [`apply_galois`](Self::apply_galois). Requires the matching
    /// [`rotation_keygen`](Self::rotation_keygen).
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Config`] without the rotation key, or
    /// [`RpuError`] on dispatch failure.
    pub fn rotate(&mut self, ct: &Ct, steps: usize) -> Result<Ct, RpuError> {
        let g = self.ctx.galois_element(steps);
        self.apply_galois(ct, g)
    }

    /// Applies the Galois automorphism `x → x^g` to a resident
    /// ciphertext at any level without leaving evaluation form
    /// ([`Ops::apply_galois`]): each live tower is permuted on its lanes
    /// by the `σ_g` kernels compiled at
    /// [`galois_keygen`](Self::galois_keygen), and one key switch over
    /// the permuted mask towers brings the result back under the
    /// original key. Decrypts to `σ_g(m) mod t`, bit-exactly equal to
    /// [`LeveledContext::apply_galois`] — which permutes coefficients, an
    /// independent routing — on any lane count.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Config`] if no Galois key for `g` is
    /// resident, or [`RpuError`] on dispatch failure.
    pub fn apply_galois(&mut self, ct: &Ct, g: usize) -> Result<Ct, RpuError> {
        let g = g % (2 * self.ctx.n());
        let gk = self.galois.get(&g).cloned();
        let gk = gk.ok_or_else(|| no_key(&format!("Galois key for g = {g}"), "galois_keygen"))?;
        let (towers, noise) = ct.parts();
        let (n, t, key) = (self.ctx.n(), self.chain().t(), &gk.key);
        let parts = key.parts_at_level(towers[0].len() - 1);
        let noise = noise.after_key_switch(n, t, parts, key.base_log());
        Ok(Ct::wrap(self.ops().0.apply_galois(&gk, &towers)?, noise))
    }

    /// Per-tower phase coefficients under the resident secret key.
    fn phase(&mut self, ct: &Ct) -> Result<Vec<Vec<u128>>, RpuError> {
        let sk = self.key()?.0.clone();
        self.ops().0.phase(&sk, &ct.parts().0)
    }

    /// Decrypts a resident ciphertext with the resident secret key: the
    /// per-tower phase on-device ([`Ops::phase`]; only the noisy
    /// coefficient vectors are downloaded), the decoding to plaintext
    /// on the host ([`LeveledContext::decode_phase_towers`]).
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Config`] without a prior
    /// [`keygen`](Self::keygen), or [`RpuError`] on dispatch failure.
    pub fn decrypt(&mut self, ct: &Ct) -> Result<Vec<u128>, RpuError> {
        let towers = self.phase(ct)?;
        Ok(self.ctx.decode_phase_towers(&towers))
    }

    /// Measures the actual noise of a resident ciphertext (floor-`log2`
    /// of the largest centered phase magnitude, in bits) — the debug
    /// path that validates the [`NoiseBudget`] tracker; measured never
    /// exceeds the tracked bound.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError`] as [`decrypt`](Self::decrypt) does.
    pub fn measure_noise(&mut self, ct: &Ct) -> Result<f64, RpuError> {
        let towers = self.phase(ct)?;
        Ok(self.ctx.phase_noise_bits(&towers))
    }

    /// Estimated noise budget left for `ct` in bits (tracker bound
    /// against the ciphertext's current live modulus). Negative means
    /// the tracker predicts decryption failure.
    pub fn remaining_bits(&self, ct: &Ct) -> f64 {
        let (towers, noise) = ct.parts();
        noise.remaining(self.chain().log2_q(towers[0].len() - 1))
    }

    /// Downloads a resident ciphertext into host form, e.g. to
    /// cross-check ring elements against the [`LeveledContext`] oracle:
    /// each buffer's evaluations cross as they are — the lane's order is
    /// the host's — so no transform runs on either side and nothing is
    /// dispatched.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError`] on stale handles.
    pub fn download_ciphertext(&mut self, ct: &Ct) -> Result<Ciphertext, RpuError> {
        let (towers, noise) = ct.parts();
        let mut down = |c: &[DeviceBuffer]| -> Result<Vec<_>, RpuError> {
            c.iter().map(|buf| self.cluster.download(buf)).collect()
        };
        let (a, b) = (down(&towers[0])?, down(&towers[1])?);
        Ok(Ciphertext::from_eval_towers(&self.ctx, a, b, noise)?)
    }

    /// Frees every buffer of a resident ciphertext.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Buffer`] for stale handles.
    pub fn free_ciphertext(&mut self, ct: Ct) -> Result<(), RpuError> {
        self.ops().0.free(ct.parts().0)
    }

    /// Explicit mod-drop to a lower level: consumes the ciphertext,
    /// frees the towers above `level`, and returns the truncated rest.
    /// Exact while the phase magnitude stays below `Q_level / 2`.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Leveled`] if `level` exceeds the ciphertext's
    /// (the ciphertext is freed in full in that case — the handles would
    /// otherwise leak).
    pub fn mod_drop(&mut self, ct: Ct, level: usize) -> Result<Ct, RpuError> {
        let (mut towers, noise) = ct.parts();
        let max = towers[0].len() - 1;
        if level > max {
            self.ops().0.free(towers)?;
            let requested = level;
            return Err(LeveledError::LevelTooHigh { requested, max }.into());
        }
        let dropped = towers.each_mut().map(|c| c.split_off(level + 1));
        self.ops().0.free(dropped)?;
        Ok(Ct::wrap(towers, noise))
    }

    /// Rescales: divides (with rounding) by the last live prime,
    /// dropping one tower. Per component, the dropped tower is
    /// inverse-transformed and downloaded, the host derives the exact
    /// rounding correction `δ` ([`LeveledContext::rescale_correction`]),
    /// and every surviving tower runs one fused `(ĉ − NTT(δ))·p⁻¹`
    /// dispatch ([`RescaleSpec`]) on its lane. The input ciphertext is
    /// untouched; the result is freshly allocated at `level − 1`.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Leveled`] at level 0 (so always for an
    /// [`crate::RlweEvaluator`]) or when the dropped prime is
    /// `≢ 1 (mod t)` ([`LeveledContext::check_rescale`]), or
    /// [`RpuError`] on heap exhaustion / dispatch failure.
    pub fn rescale(&mut self, ct: &Ct) -> Result<Ct, RpuError> {
        let (towers, noise) = ct.parts();
        let level = towers[0].len() - 1;
        self.ctx.check_rescale(level)?;
        let (style, (mut ops, ctx)) = (self.style, self.ops());
        let (n, chain) = (ctx.n(), ctx.chain());
        let noise = noise.after_rescale(chain.prime(level), n, chain.t());
        let mut t = Temps::default();
        let scaled = (|| {
            let mut scaled = Towers::default();
            for (c, (towers, out)) in towers.iter().zip(&mut scaled).enumerate() {
                let (w, k) = ops.at(ops.homes(level)[c], level);
                let dropped = recipes::download_coeffs(w, k, towers[level])?;
                for (i, delta_i) in ctx.rescale_correction(level, &dropped).iter().enumerate() {
                    let (w, _) = ops.at(ops.homes(i)[c], i);
                    // Compiled on first use: the dropped prime is part of
                    // the kernel's identity, so the store holds one per
                    // (dropped level, surviving tower).
                    let spec = RescaleSpec::new(n, chain.prime(i), chain.prime(level), style);
                    let kernel = w.compile(&spec)?;
                    let d = t.hold(w.upload(delta_i)?);
                    out.push(t.hold(recipes::apply(w, &kernel, &[d, towers[i]])?));
                    w.free(d)?;
                }
            }
            Ok(scaled)
        })();
        Ok(Ct::wrap(ops.settle(t, scaled)?, noise))
    }

    /// Serializes the underlying cluster's full device state — key
    /// material, resident ciphertext towers, each lane's kernel keys — as
    /// one `SNAP_V1` cluster snapshot
    /// ([`RpuCluster::snapshot_all`](crate::RpuCluster::snapshot_all)).
    ///
    /// Every evaluator operation after key generation and encryption is
    /// deterministic (no fresh host randomness), so a mid-pipeline
    /// snapshot restored later and driven through the same remaining
    /// operations reproduces bit-identical ciphertexts.
    pub fn snapshot(&self) -> Vec<u8> {
        self.cluster.snapshot_all()
    }

    /// Restores the underlying cluster to a snapshotted state
    /// ([`RpuCluster::restore_all`](crate::RpuCluster::restore_all)):
    /// ciphertext and key handles captured at snapshot time become valid
    /// again, and buffers created after the snapshot become stale on
    /// their lane. Host-side state (contexts, keys, noise trackers,
    /// handle structs) is the caller's to keep from snapshot time.
    ///
    /// # Errors
    ///
    /// [`RpuError::Snapshot`] for corrupt bytes or a cluster mismatch;
    /// the evaluator is unchanged on error.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), RpuError> {
        self.cluster.restore_all(bytes)
    }
}
