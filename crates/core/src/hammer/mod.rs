//! Hammering: the pluggable strategy layer the attack pipeline selects
//! between. [`HammerMode`] is the built-in [`HammerStrategy`], one table row
//! per mode. Every implicit (PThammer) mode arms its aggressors through
//! [`strategy::arm_implicit`]: one Algorithm 1 TLB eviction set and one
//! Algorithm 2 LLC eviction set per aggressor, kept as an
//! [`ArmedAggressor`] list on the [`ArmedPair`]. The explicit `clflush`
//! baseline it is compared against (Section II-B) is the
//! [`HammerMode::ExplicitDoubleSided`] schedule on an
//! [`ArmedPair::explicit`] pair, padded by [`RoundOp::Compute`] for Figure 5.
//! [`crate::trace::CompiledTrace`] runs every schedule and accumulates its
//! [`HammerStats`].

pub mod strategy;

pub use crate::trace::HammerStats;
pub use strategy::{
    ArmResult, ArmedAggressor, ArmedPair, HammerMode, HammerStrategy, RoundOp, RoundOutcome, Target,
};
