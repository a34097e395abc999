//! Core CPR abstractions shared by the transactional database
//! (`cpr-memdb`) and the FASTER key-value store (`cpr-faster`).
//!
//! *Concurrent Prefix Recovery* (CPR) is a group-commit durability model:
//! instead of acknowledging individual operations, the system periodically
//! tells each client session `i` a *commit point* `t_i` in the session's
//! local operation timeline such that **all** operations before `t_i` are
//! durable and **none** after are (paper, Definition 1). A CPR commit is
//! coordinated by a global state machine whose transitions are realized
//! lazily by worker threads through the epoch framework (`cpr-epoch`).
//!
//! This crate provides the pieces both systems share:
//! * [`Phase`] — the commit state machine phases;
//! * [`SystemState`] — (phase, version) packed into one atomic word;
//! * [`SessionRegistry`] — per-session published state used both for the
//!   "all sessions have entered phase P" trigger conditions and for
//!   recording per-session CPR points;
//! * [`SessionCore`] — the session side of the protocol: local view,
//!   refresh, CPR-point crossing ([`crossed_cpr_point`]), durable serial,
//!   and the operation entry protocol against the watchdog;
//! * [`manifest`] — durable checkpoint metadata;
//! * [`commit`] — the commit driver both engines run: [`CommitCore`]
//!   holds the shared commit state, [`CommitEngine`] is what an engine
//!   supplies, and a shared watchdog unwedges commits held back by
//!   straggling sessions.

pub mod commit;
pub mod liveness;
pub mod manifest;
mod phase;
pub mod resume;
mod session;
mod sessions;
mod state;
pub mod sync;
pub mod value;
mod version;
mod watchdog;

pub use commit::{CommitCallback, CommitCore, CommitEngine};
pub use liveness::{
    BusyState, Clock, CommitOutcome, LivenessConfig, SessionStatus, SystemClock, VirtualClock,
};
pub use manifest::{CheckpointKind, CheckpointManifest, SessionCpr};
pub use phase::Phase;
pub use resume::{CommitPoint, DetachedSessions};
pub use session::{crossed_cpr_point, Ownership, SessionCore};
pub use sessions::{SessionId, SessionInfo, SessionRegistry, SessionSlot};
pub use state::SystemState;
pub use sync::NoWaitLock;
pub use value::{pod_read, pod_size, pod_write, Pod};
pub use version::CheckpointVersion;

/// One-stop imports for applications using either engine:
///
/// ```
/// use cpr_core::prelude::*;
///
/// let cfg = LivenessConfig::system();
/// assert_eq!(Phase::Rest.name(), "rest");
/// assert_eq!(CheckpointVersion::NONE, 0);
/// let _ = (cfg, CommitOutcome::default());
/// ```
pub mod prelude {
    pub use crate::liveness::{CommitOutcome, LivenessConfig, SessionStatus};
    pub use crate::manifest::{CheckpointKind, CheckpointManifest};
    pub use crate::{CheckpointVersion, CommitPoint, Phase, SessionId, SessionInfo};
}
