//! # pthammer-patterns — many-sided pattern synthesis for the TRR era
//!
//! The paper's DDR3 machines carry no in-DRAM mitigation, but the DRAM
//! layer models a bounded Target Row Refresh sampler
//! ([`pthammer_dram::TrrConfig`]). This crate is the offensive counterpart:
//! the TRRespass/Blacksmith-style search for non-uniform, many-sided access
//! patterns that slip past such a sampler — rebuilt on PThammer's *implicit*
//! (PTE-walk) touch path, so the synthesized patterns hammer kernel
//! page-table rows the attacker never accesses directly.
//!
//! * [`HammerPattern`] — the typed pattern IR: aggressor offsets (in pair
//!   strides around a timing-verified base pair), phase/ordering, intensity.
//! * [`synth`] — the deterministic seeded synthesizer: mutate → score
//!   against the machine's actual TRR-enabled bank model (disturbance
//!   delivered past the sampler, `trr_fired` pressure) → keep elites. Fully
//!   reproducible from the seed.
//! * [`PatternHammer`] — a [`pthammer::HammerStrategy`] executing a pattern
//!   through the attack pipeline with the same `RoundOp`/event-bus
//!   telemetry as the built-in modes.
//! * [`PatternChoice`] — the campaign-harness axis value naming how a cell
//!   obtains its pattern.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::str::FromStr;

pub mod pattern;
pub mod strategy;
pub mod synth;

pub use pattern::{HammerPattern, MAX_OFFSET, MAX_SCHEDULE, MAX_SIDES};
pub use strategy::PatternHammer;
pub use synth::{
    evaluate, evaluate_incremental, synthesize, synthesize_with_telemetry, PatternScore,
    SchedulePrefixTrace, SynthTelemetry, SynthesisConfig, SynthesisResult,
};

/// How a campaign cell obtains its hammer pattern — the pattern axis of the
/// harness's `ScenarioMatrix`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PatternChoice {
    /// Run the deterministic synthesizer against the cell's machine (seeded
    /// from the cell seed) and hammer the best pattern found.
    Synthesized,
    /// Hammer a fixed uniform 4-sided rotation — the naive many-sided
    /// baseline TRRespass showed to be insufficient against orderly
    /// samplers, kept as a control for the synthesized patterns.
    UniformFourSided,
}

impl PatternChoice {
    /// Every pattern choice, in canonical axis order.
    pub fn all() -> Vec<PatternChoice> {
        vec![PatternChoice::Synthesized, PatternChoice::UniformFourSided]
    }

    /// Canonical kebab-case name (reports, store keys, CLI).
    pub fn name(&self) -> &'static str {
        match self {
            PatternChoice::Synthesized => "synthesized",
            PatternChoice::UniformFourSided => "uniform-4-sided",
        }
    }

    /// Resolves the choice to a concrete pattern for a synthesis
    /// configuration and seed (the synthesizer runs only for
    /// [`PatternChoice::Synthesized`]).
    pub fn resolve(&self, config: &SynthesisConfig, seed: u64) -> HammerPattern {
        match self {
            PatternChoice::Synthesized => synthesize(config, seed).best,
            PatternChoice::UniformFourSided => HammerPattern::uniform_n_sided(4),
        }
    }
}

impl fmt::Display for PatternChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for PatternChoice {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        PatternChoice::all()
            .into_iter()
            .find(|p| p.name() == s)
            .ok_or_else(|| format!("unknown pattern choice `{s}`"))
    }
}

serde::string_enum!(PatternChoice);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn choice_names_round_trip() {
        for choice in PatternChoice::all() {
            assert_eq!(choice.name().parse::<PatternChoice>().unwrap(), choice);
            assert_eq!(choice.to_string(), choice.name());
        }
        assert!("nine-sided".parse::<PatternChoice>().is_err());
        let json = serde_json::to_string(&PatternChoice::Synthesized).unwrap();
        assert_eq!(json, "\"synthesized\"");
        let decoded = serde_json::from_value(serde_json::from_str(&json).unwrap());
        assert_eq!(decoded.ok(), Some(PatternChoice::Synthesized));
    }

    #[test]
    fn uniform_choice_resolves_without_searching() {
        let config = SynthesisConfig {
            trr: pthammer_dram::TrrConfig::enabled(40, 4),
            timings: pthammer_dram::DramTimings::fast_test(),
            min_flip_threshold: 100,
            eval_op_budget: 1_024,
            background_rows_per_round: 2,
            spray_strides: 8,
            generations: 2,
            population: 4,
            elites: 1,
        };
        assert_eq!(
            PatternChoice::UniformFourSided.resolve(&config, 1),
            HammerPattern::uniform_n_sided(4)
        );
        assert_eq!(
            PatternChoice::Synthesized.resolve(&config, 1),
            synthesize(&config, 1).best
        );
    }
}
