//! # rpu-serve — a multi-tenant serving layer over the RPU cluster
//!
//! The paper positions the RPU as a *datacenter* accelerator for
//! encrypted workloads, which is only credible if the software stack
//! can accept concurrent encrypt/eval/decrypt traffic from many tenants
//! and keep warm kernels busy. This crate turns the one-shot
//! [`rpu::RpuCluster`] into that persistent service:
//!
//! * **Ticketed submission** — clients submit typed jobs
//!   ([`JobRequest::Encrypt`], [`JobRequest::Mul`] /
//!   [`JobRequest::Rotate`] / [`JobRequest::Dot`],
//!   [`JobRequest::Decrypt`], [`JobRequest::Free`]) and get a
//!   [`JobTicket`] back immediately; [`JobTicket::poll`] and
//!   [`JobTicket::wait`] resolve to the typed [`JobOutput`] once the
//!   tenant's lane has run the job — or to a typed [`ServeError`]:
//!   every ticket resolves, even if its batch panicked. Many client threads may submit
//!   concurrently ([`ServerHandle`] is `Sync` and cheap to clone).
//! * **Weighted-fair scheduling with batching** — every tenant has a
//!   home lane, and each lane pulls its own work: between batches it
//!   takes the backlogged tenant homed there with the least virtual
//!   time (cost ÷ weight) and up to a configurable quantum of its
//!   *same-kind* jobs, so one tenant's streak rides a loaded kernel image
//!   without starving its neighbors beyond their weight.
//! * **Bounded queues, typed backpressure** — each tenant may have at
//!   most [`ServeConfig::capacity`] jobs outstanding; submission beyond
//!   that returns [`ServeError::QueueFull`] instead of growing memory
//!   without bound.
//! * **Per-tenant key isolation** — every tenant owns its own secret
//!   key, relinearization key, and rotation keys, resident only on its
//!   home lane; [`ServerHandle::rekey`] rotates them and
//!   [`ServerHandle::teardown`] releases every device buffer the tenant
//!   holds.
//!
//! The engine underneath is [`rpu::RpuCluster::on_lanes`]: one thread
//! per lane, each compiling its kernel set and then running that lane's
//! service loop for the lifetime of the service, while the calling
//! thread runs the client closure. There is no scheduler thread and no second queue between a tenant's
//! queue and its lane.
//!
//! ```
//! use rpu::ntt::rlwe::RlweParams;
//! use rpu::Rpu;
//! use rpu_serve::{serve, JobOutput, JobRequest, ServeConfig, TenantSpec};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let rpu = Rpu::builder().lanes(2).build()?;
//! let q = rpu.session().primes_for(1024)?;
//! let params = RlweParams { n: 1024, q, t: 65537 };
//! let (sum, _report) = serve(&rpu, ServeConfig::new(params), |server| {
//!     let tenant = server.register_tenant(TenantSpec::new(7)).unwrap();
//!     let msg = vec![3u128; 1024];
//!     let t1 = server
//!         .submit(tenant, JobRequest::Encrypt { message: msg.clone() })
//!         .unwrap();
//!     let ct = match t1.wait().unwrap() {
//!         JobOutput::Ciphertext(ct) => ct,
//!         other => panic!("unexpected {other:?}"),
//!     };
//!     let t2 = server.submit(tenant, JobRequest::Decrypt { ct }).unwrap();
//!     match t2.wait().unwrap() {
//!         JobOutput::Plaintext(p) => p[0],
//!         other => panic!("unexpected {other:?}"),
//!     }
//! })?;
//! assert_eq!(sum, 3);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod ops;
mod server;
mod traffic;

pub use server::{
    serve, CtHandle, JobKind, JobOutput, JobRequest, JobTicket, ServeConfig, ServeReport,
    ServerHandle, TenantId, TenantSpec, TenantSummary,
};
pub use traffic::{run_traffic, OpMix, TenantLoad, TrafficReport, TrafficSpec};

/// Errors surfaced by the serving layer — at submission time (typed
/// backpressure, unknown tenants) or through a [`JobTicket`] (execution
/// failures). `Clone` so a resolved ticket can be polled repeatedly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The tenant's bounded queue is at capacity: the job was rejected
    /// instead of growing server memory without bound. Resubmit after
    /// draining a ticket.
    QueueFull {
        /// The rejecting tenant.
        tenant: server::TenantId,
        /// The configured outstanding-job bound.
        capacity: usize,
    },
    /// No such tenant is registered (or it has been torn down).
    UnknownTenant(server::TenantId),
    /// The referenced ciphertext does not exist for this tenant (never
    /// created, already freed, or invalidated by a re-key).
    UnknownCiphertext(server::CtHandle),
    /// A ciphertext handle owned by another tenant was used — tenants
    /// are isolated; cross-tenant operands are rejected at submission.
    ForeignCiphertext {
        /// The submitting tenant.
        tenant: server::TenantId,
        /// The foreign handle.
        ct: server::CtHandle,
    },
    /// The tenant has no rotation key for this step count
    /// ([`TenantSpec::rotations`] lists the steps prepared at
    /// registration).
    NoRotationKey {
        /// The submitting tenant.
        tenant: server::TenantId,
        /// The unprepared rotation amount.
        steps: usize,
    },
    /// The request is malformed (empty message, wrong length, zero-slot
    /// dot product, …).
    BadRequest(String),
    /// The server is shutting down and no longer accepts work.
    ShuttingDown,
    /// The underlying RPU runtime failed (rendered, since
    /// [`rpu::RpuError`] is not `Clone`).
    Rpu(String),
}

impl core::fmt::Display for ServeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ServeError::QueueFull { tenant, capacity } => {
                write!(f, "tenant {tenant:?} queue full (capacity {capacity})")
            }
            ServeError::UnknownTenant(t) => write!(f, "unknown tenant {t:?}"),
            ServeError::UnknownCiphertext(ct) => write!(f, "unknown ciphertext {ct:?}"),
            ServeError::ForeignCiphertext { tenant, ct } => {
                write!(f, "tenant {tenant:?} used foreign ciphertext {ct:?}")
            }
            ServeError::NoRotationKey { tenant, steps } => {
                write!(f, "tenant {tenant:?} has no rotation key for {steps} steps")
            }
            ServeError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::Rpu(msg) => write!(f, "RPU runtime error: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<rpu::RpuError> for ServeError {
    fn from(e: rpu::RpuError) -> Self {
        ServeError::Rpu(e.to_string())
    }
}
