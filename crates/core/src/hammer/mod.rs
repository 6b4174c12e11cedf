//! Hammering primitives: the implicit (PThammer) primitive and the
//! pluggable strategy layer the attack pipeline selects between. The
//! explicit `clflush` baseline it is compared against (Section II-B) is the
//! [`ExplicitDoubleSided`](strategy::ExplicitDoubleSided) schedule on an
//! [`ArmedPair::explicit`] pair, padded by [`RoundOp::Compute`] for Figure 5.

pub mod implicit;
pub mod strategy;

pub use implicit::{HammerStats, ImplicitHammer};
pub use strategy::{
    ArmResult, ArmedPair, HammerMode, HammerStrategy, RoundOp, RoundOutcome, Target,
};
