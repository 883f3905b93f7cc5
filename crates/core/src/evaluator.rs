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
//!   the key switch, phase, download, free, the one-tower
//!   `apply_galois`, key upload) over a device, its kernel sets and a
//!   placement. The device is an [`RpuCluster`] for the evaluators and
//!   the one [`RpuSession`] a serving lane thread holds
//!   ([`Ops::single`]).
//! * [`Evaluator`] — the one evaluator type: the cluster, one kernel set
//!   per (lane, tower) slot, the host context, and the key state
//!   (resident secret key, the host copy key-switch keys derive from,
//!   the gadget base, the relinearization and Galois keys), retired
//!   together on re-key. [`crate::RlweEvaluator`] and
//!   [`crate::LeveledEvaluator`] are its instances over the two host
//!   contexts; each adds only its own methods.
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
use rpu_codegen::{AutomorphismSpec, CodegenStyle, Kernel};
use rpu_ntt::rlwe::KeySwitchKey;
use std::collections::HashMap;
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
/// land on different devices and overlap; the tensor's cross terms then
/// need the payloads replicated onto the mask lane, and decryption moves
/// `â ⊙ ŝ` to the payload lane — the placement's only cross-lane traffic
/// besides the key switch's fold.
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

/// A resident Galois key: the `σ_g` evaluation-permutation kernels of
/// tower 0's `[mask, payload]` lanes, and the key-switch key that brings
/// a permuted ciphertext back under the original secret.
#[derive(Debug, Clone)]
pub struct GaloisKey {
    autom: [Arc<Kernel>; 2],
    /// The key-switch key.
    pub key: DeviceKeySwitchKey,
}

/// The "call X first" error of every evaluator.
pub(crate) fn no_key(what: &str, call: &str) -> RpuError {
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
    pub(crate) fn homes(&self, l: usize) -> [usize; 2] {
        self.placement.homes(l, self.dev.count())
    }

    /// `lane`'s session and the kernel set of tower `l` there.
    pub(crate) fn at(&mut self, lane: usize, l: usize) -> (&mut RpuSession<'a>, &'r LaneKernels) {
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

    /// Copies `buf` from lane `from` to lane `to` over the host link
    /// (lanes share no memory).
    fn carry(
        &mut self,
        buf: DeviceBuffer,
        from: usize,
        to: usize,
    ) -> Result<DeviceBuffer, RpuError> {
        let data = self.dev.lane(from).download(&buf)?;
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
    pub(crate) fn release(&mut self, bufs: impl IntoIterator<Item = DeviceBuffer>) {
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
        ct.concat()
            .into_iter()
            .try_for_each(|buf| self.dev.free(buf))
    }

    /// Uploads one coefficient vector per tower and forward-transforms it
    /// on each of the tower's component lanes — one shared handle when
    /// both are one lane.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError`] on heap exhaustion or a dispatch fault.
    pub fn upload_eval<C: AsRef<[u128]>>(&mut self, towers: &[C]) -> Result<Towers, RpuError> {
        self.per_tower(towers.len(), |ops, t, l| {
            let [la, lb] = ops.homes(l);
            let mut up = |lane| -> Result<_, RpuError> {
                let (w, k) = ops.at(lane, l);
                Ok(t.hold(recipes::upload_eval(w, k, towers[l].as_ref())?))
            };
            let a = up(la)?;
            Ok([a, if lb == la { a } else { up(lb)? }])
        })
    }

    /// Encrypts host-sampled randomness per tower under the resident
    /// secret key `sk`: `b̂ = â ⊙ ŝ ⊕ payload̂` runs entirely on the
    /// tower's payload lane. When the mask lane is another, the mask is
    /// uploaded there too (replicating host-known coefficients is cheaper
    /// than a cross-lane move) and the payload lane's working copy goes
    /// back with the op's temps.
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
                let (w, k) = ops.at(la, l);
                a = t.hold(recipes::upload_eval(w, k, &masks[l])?);
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

    /// Downloads every tower of both components in coefficient form (an
    /// inverse NTT on its lane first), `[masks, payloads]`.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError`] on stale handles or dispatch failure.
    pub(crate) fn download(&mut self, ct: &Towers) -> Result<[Vec<Vec<u128>>; 2], RpuError> {
        let mut out = [Vec::new(), Vec::new()];
        for (l, (&a, &b)) in ct[0].iter().zip(&ct[1]).enumerate() {
            for (c, hat) in [a, b].into_iter().enumerate() {
                let (w, k) = self.at(self.homes(l)[c], l);
                out[c].push(recipes::download_coeffs(w, k, hat)?);
            }
        }
        Ok(out)
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

    /// Applies the Galois automorphism `x → x^g` to a one-tower
    /// ciphertext in evaluation form: each component is permuted on its
    /// lane by the `σ_g` kernel (a `vgather` program over Pease-order
    /// evaluation points, exact on residues). The permuted payload is the
    /// result's payload base as it stands; only the permuted mask is
    /// inverse-transformed, for its coefficients to feed the key switch
    /// that brings the result back under the original key (the switched
    /// mask is rebuilt entirely from key material).
    ///
    /// # Errors
    ///
    /// Returns [`RpuError`] on heap exhaustion or a dispatch fault.
    pub fn apply_galois(&mut self, gk: &GaloisKey, ct: &Towers) -> Result<Towers, RpuError> {
        let [la, lb] = self.homes(0);
        let mut t = Temps::default();
        let out = (|| {
            let mut perm = [ct[0][0], ct[1][0]];
            for (c, lane) in [la, lb].into_iter().enumerate() {
                let w = self.dev.lane(lane);
                perm[c] = t.hold(recipes::apply(w, &gk.autom[c], &[perm[c]])?);
            }
            let (w, k) = self.at(la, 0);
            let sigma_a = recipes::download_coeffs(w, k, perm[0])?;
            let [ka, kb] = self.key_switch(&[sigma_a], &gk.key)?;
            t.hold_all([ka[0], kb[0]]);
            let b = self.pointwise(lb, 0, |k| &k.pwadd, perm[1], kb[0])?;
            Ok([ka, vec![b]])
        })();
        self.settle(t, out)
    }

    /// Uploads a host key-switch key: every source tower's share of each
    /// slot's tower, on the slot's lane.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError`] on heap exhaustion or a dispatch fault; the
    /// shares uploaded so far are released first.
    pub fn upload_key(&mut self, ksk: &KeySwitchKey) -> Result<DeviceKeySwitchKey, RpuError> {
        let (lanes, kernels, placement) = (self.dev.count(), self.kernels, self.placement);
        let mut t = Temps::default();
        let mut upload = |i: usize, s: usize| {
            let (lane, l) = placement.place(s, lanes);
            let (w, k) = (self.dev.lane(lane), &kernels[s]);
            let share = ksk.share(i, l).map(|(a_j, b_j)| {
                let a = t.hold(recipes::upload_eval(w, k, &a_j)?);
                Ok((a, t.hold(recipes::upload_eval(w, k, &b_j)?)))
            });
            share.collect::<Result<Share, RpuError>>()
        };
        let shares = (0..ksk.parts().len())
            .map(|i| (0..kernels.len()).map(|s| upload(i, s)).collect())
            .collect::<Result<_, _>>();
        let base_log = ksk.base_log();
        let key = shares.map(|shares| DeviceKeySwitchKey { base_log, shares });
        t.settle(
            key,
            |key| key.handles().collect::<Vec<_>>(),
            |buf| self.dev.free(buf),
        )
    }

    /// Compiles `σ_g` on tower 0's component lanes and uploads its
    /// key-switch key.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError`] if compilation or the upload fails.
    pub fn galois_key(
        &mut self,
        spec: &AutomorphismSpec,
        ksk: &KeySwitchKey,
    ) -> Result<GaloisKey, RpuError> {
        let [la, lb] = self.homes(0);
        let a = self.dev.lane(la).compile(spec)?;
        let b = if lb == la {
            Arc::clone(&a)
        } else {
            self.dev.lane(lb).compile(spec)?
        };
        let key = self.upload_key(ksk)?;
        Ok(GaloisKey { autom: [a, b], key })
    }
}

/// The one device evaluator, over the host context `C` it is bit-exact
/// against and that context's secret-key type `S`: the cluster, one
/// kernel set per slot of its [`Placement`], and the key state — the
/// resident secret key, the host copy key-switch keys derive from, the
/// gadget base, and the resident relinearization and Galois keys,
/// retired together on re-key. [`crate::RlweEvaluator`] and
/// [`crate::LeveledEvaluator`] are its two instances; the methods here
/// are the ones they share.
#[derive(Debug)]
pub struct Evaluator<'a, C, S> {
    pub(crate) cluster: RpuCluster<'a>,
    pub(crate) ctx: C,
    pub(crate) style: CodegenStyle,
    placement: Placement,
    kernels: Vec<LaneKernels>,
    sk: Option<Towers>,
    host_sk: Option<S>,
    base_log: u32,
    relin: Option<DeviceKeySwitchKey>,
    pub(crate) galois: HashMap<usize, GaloisKey>,
}

impl<'a, C, S: Clone> Evaluator<'a, C, S> {
    /// Opens a cluster with the configured lane count and compiles and
    /// golden-verifies the six recipe kernel shapes of every slot, tower
    /// `l` under `primes[l]`; after that every operation is pure
    /// dispatch traffic.
    pub(crate) fn open(
        rpu: &'a Rpu,
        placement: Placement,
        n: usize,
        primes: &[u128],
        ctx: C,
        style: CodegenStyle,
    ) -> Result<Self, RpuError> {
        let mut cluster = rpu.cluster();
        let lanes = cluster.lane_count();
        let slots = match placement {
            Placement::Component => lanes,
            _ => primes.len(),
        };
        let kernels = (0..slots)
            .map(|s| {
                let (lane, l) = placement.place(s, lanes);
                LaneKernels::compile(cluster.lane_session(lane), n, primes[l], style)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Evaluator {
            cluster,
            ctx,
            style,
            placement,
            kernels,
            sk: None,
            host_sk: None,
            base_log: recipes::DEFAULT_KSK_BASE_LOG,
            relin: None,
            galois: HashMap::new(),
        })
    }

    /// The op bodies over this evaluator's cluster.
    pub(crate) fn ops(&mut self) -> Ops<'_, 'a> {
        self.ops_and_context().0
    }

    /// The op bodies beside the host context, borrowed apart.
    pub(crate) fn ops_and_context(&mut self) -> (Ops<'_, 'a>, &C) {
        let ops = Ops {
            dev: Device::Cluster(&mut self.cluster),
            kernels: &self.kernels,
            placement: self.placement,
        };
        (ops, &self.ctx)
    }

    /// The host-side reference context (same parameters, same chain).
    pub fn context(&self) -> &C {
        &self.ctx
    }

    /// The cluster the evaluator shards over.
    pub fn cluster(&self) -> &RpuCluster<'a> {
        &self.cluster
    }

    /// Kernels dispatched so far, across every lane.
    pub fn dispatch_count(&self) -> u64 {
        self.cluster.total_dispatches()
    }

    /// Total simulated on-RPU time of every dispatch so far, in
    /// microseconds — the *sequential-equivalent* cost. Dispatches on
    /// different lanes overlap; [`makespan_us`](Evaluator::makespan_us)
    /// is the overlapped completion time.
    pub fn simulated_us(&self) -> f64 {
        self.cluster.total_busy_us()
    }

    /// The busiest lane's simulated time, in microseconds — what the
    /// multi-lane deployment actually takes.
    pub fn makespan_us(&self) -> f64 {
        self.cluster.makespan_us()
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

    /// The resident relinearization key, or the "call `relin_keygen`"
    /// error.
    pub(crate) fn relin(&self) -> Result<&DeviceKeySwitchKey, RpuError> {
        let relin = self.relin.as_ref();
        relin.ok_or_else(|| no_key("relinearization key", "relin_keygen"))
    }

    /// The resident secret key, or the "call `keygen`" error.
    fn secret_key(&self) -> Result<Towers, RpuError> {
        let sk = self.sk.clone();
        sk.ok_or_else(|| no_key("resident secret key", "keygen"))
    }

    /// The host secret key key-switch keys derive from.
    pub(crate) fn host_key(&self) -> Result<&S, RpuError> {
        let sk = self.host_sk.as_ref();
        sk.ok_or_else(|| no_key("secret key", "keygen"))
    }

    /// Installs a freshly sampled secret key. The whole key state is
    /// retired first — host copy, resident copies, and every key-switch
    /// key derived from it — so a failed upload leaves the evaluator
    /// keyless rather than half re-keyed; then each tower's coefficients
    /// go to its component lanes in evaluation form.
    pub(crate) fn install_key(&mut self, host: &S, towers: &[Vec<u128>]) -> Result<(), RpuError> {
        self.host_sk = None;
        let keys = self.relin.take().into_iter();
        let keys = keys.chain(self.galois.drain().map(|(_, gk)| gk.key));
        let stale: Vec<_> = keys
            .flat_map(|key| key.handles().collect::<Vec<_>>())
            .collect();
        let sk = self.sk.take().map(|sk| sk.concat());
        self.ops().release(sk.into_iter().flatten().chain(stale));
        self.sk = Some(self.ops().upload_eval(towers)?);
        self.host_sk = Some(host.clone());
        Ok(())
    }

    /// Uploads a relinearization key, releasing the one it replaces (a
    /// failed upload keeps the previous key).
    pub(crate) fn set_relin(&mut self, ksk: &KeySwitchKey) -> Result<(), RpuError> {
        let key = self.ops().upload_key(ksk)?;
        if let Some(old) = self.relin.replace(key) {
            self.ops().release(old.handles());
        }
        Ok(())
    }

    /// Compiles `σ_g` and uploads its key, replacing any key for `g`.
    pub(crate) fn set_galois(
        &mut self,
        g: usize,
        spec: &AutomorphismSpec,
        ksk: &KeySwitchKey,
    ) -> Result<(), RpuError> {
        let key = self.ops().galois_key(spec, ksk)?;
        if let Some(old) = self.galois.insert(g, key) {
            self.ops().release(old.key.handles());
        }
        Ok(())
    }

    /// Encrypts under the resident secret key; `sample` draws the
    /// per-tower `(masks, payloads)` from the host stream only once the
    /// key is known to exist.
    pub(crate) fn encrypt_towers(
        &mut self,
        sample: impl FnOnce(&C) -> (Vec<Vec<u128>>, Vec<Vec<u128>>),
    ) -> Result<Towers, RpuError> {
        let sk = self.secret_key()?;
        let (masks, payloads) = sample(&self.ctx);
        self.ops().encrypt(&sk, &masks, &payloads)
    }

    /// Per-tower phase coefficients under the resident secret key.
    pub(crate) fn phase_towers(&mut self, ct: &Towers) -> Result<Vec<Vec<u128>>, RpuError> {
        let sk = self.secret_key()?;
        self.ops().phase(&sk, ct)
    }

    /// Multiplies and relinearizes against the resident relinearization
    /// key.
    pub(crate) fn mul_towers(&mut self, x: &Towers, y: &Towers) -> Result<Towers, RpuError> {
        let relin = self.relin()?.clone();
        self.ops().mul(&relin, x, y)
    }
}
