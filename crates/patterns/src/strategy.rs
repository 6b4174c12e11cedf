//! [`PatternHammer`]: executing synthesized patterns through the attack
//! pipeline.
//!
//! The strategy implements the existing
//! [`HammerStrategy`] trait, so a synthesized
//! many-sided pattern runs on the same phase pipeline, through the same
//! implicit (PTE-walk) touch path, and emits the same
//! [`RoundOp`]/event-bus telemetry as the four built-in
//! modes. Arming mirrors the paper's double-sided methodology: the base pair
//! is timing-verified for a row-buffer conflict (same bank), then the
//! pattern's further aggressors are materialized at multiples of the pair
//! stride — which moves a target's Level-1 PTE two DRAM rows within the same
//! bank — and each receives its own TLB eviction set and Algorithm 2 LLC
//! eviction set.

use pthammer::pairs::verify_same_bank;
use pthammer::pipeline::PreparedAttack;
use pthammer::{AttackConfig, AttackError, HammerMode, HammerStrategy, ImplicitHammer, RoundOp};
use pthammer_kernel::{Pid, System};
use pthammer_types::VirtAddr;

use crate::pattern::HammerPattern;

/// A hammer strategy executing one fixed [`HammerPattern`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternHammer {
    pattern: HammerPattern,
    ops: Vec<RoundOp>,
}

impl PatternHammer {
    /// Creates the strategy for a validated pattern.
    ///
    /// # Errors
    ///
    /// Returns the pattern's validation error.
    pub fn new(pattern: HammerPattern) -> Result<Self, String> {
        pattern.validate()?;
        let ops = pattern.round_ops();
        Ok(Self { pattern, ops })
    }

    /// The pattern this strategy executes.
    pub fn pattern(&self) -> &HammerPattern {
        &self.pattern
    }

    /// The virtual address of aggressor `offset` for a base pair at `low`
    /// with the given stride, if it exists (offsets may be negative).
    fn aggressor_va(low: VirtAddr, stride: u64, offset: i32) -> Option<VirtAddr> {
        let delta = stride.checked_mul(offset.unsigned_abs() as u64)?;
        if offset >= 0 {
            Some(low + delta)
        } else if low.as_u64() >= delta {
            Some(VirtAddr::new(low.as_u64() - delta))
        } else {
            None
        }
    }

    /// Shifts a candidate base low by whole pair strides until the whole
    /// aggressor window (`min_offset..=max_offset` strides around it) fits
    /// the sprayed region; `None` when the spray is too small for the
    /// pattern at any position.
    ///
    /// The candidate generator draws uniform pair positions without knowing
    /// the strategy; an attacker hammering a wide pattern simply re-bases
    /// its window inside the region it sprayed. Stride-granular shifts
    /// preserve the candidate's Level-1 index and chunk phase, so shifted
    /// candidates remain as valid (and as random) as unshifted ones.
    fn fit_low(
        &self,
        low: VirtAddr,
        stride: u64,
        spray: &pthammer::SprayRegion,
    ) -> Option<VirtAddr> {
        let min_offset = *self.pattern.offsets.iter().min().expect("validated");
        let max_offset = *self.pattern.offsets.iter().max().expect("validated");
        // Lowest admissible low: `|min_offset|` strides above the base.
        let floor = spray.base.as_u64() + stride * u64::from(min_offset.unsigned_abs());
        // Exclusive ceiling: the `max_offset` aggressor must stay inside.
        let ceiling = spray
            .end()
            .as_u64()
            .checked_sub(stride * max_offset.unsigned_abs() as u64)?;
        if floor >= ceiling {
            return None;
        }
        let mut low = low.as_u64();
        while low < floor {
            low += stride;
        }
        while low >= ceiling {
            low = low.checked_sub(stride)?;
        }
        (low >= floor).then(|| VirtAddr::new(low))
    }
}

impl HammerStrategy for PatternHammer {
    /// Pattern strategies hammer through the implicit touch path of the
    /// paper's default mode; the pattern descriptor — not the mode — is what
    /// identifies them in reports.
    fn mode(&self) -> HammerMode {
        HammerMode::ImplicitDoubleSided
    }

    fn round_ops(&self) -> &[RoundOp] {
        &self.ops
    }

    fn arm(
        &self,
        sys: &mut System,
        pid: Pid,
        pair: pthammer::HammerPair,
        prepared: &PreparedAttack,
        config: &AttackConfig,
        conflict_threshold: u64,
    ) -> Result<pthammer::hammer::strategy::ArmResult, AttackError> {
        use pthammer::hammer::strategy::{ArmResult, ArmedPair};

        let stride = pair.high - pair.low;

        // Re-base the candidate so the whole aggressor window fits the
        // sprayed region; candidates are rejected only when the spray is too
        // small for the pattern at any position.
        let Some(low) = self.fit_low(pair.low, stride, &prepared.spray) else {
            return Ok(ArmResult {
                armed: None,
                tlb_selection_cycles: 0,
                llc_selection_cycles: 0,
                verification: None,
            });
        };
        let pair = pthammer::HammerPair {
            low,
            high: low + stride,
        };

        // Every aggressor must resolve to a sprayed address.
        let mut aggressors = Vec::with_capacity(self.pattern.sides());
        for &offset in &self.pattern.offsets {
            match Self::aggressor_va(pair.low, stride, offset) {
                Some(va) if prepared.spray.contains(va) => aggressors.push(va),
                _ => {
                    return Ok(ArmResult {
                        armed: None,
                        tlb_selection_cycles: 0,
                        llc_selection_cycles: 0,
                        verification: None,
                    })
                }
            }
        }

        // Draw the extra aggressors' TLB eviction sets (timed, like the
        // built-in strategies' selection bookkeeping); the base pair's sets
        // come from `ImplicitHammer::prepare` below. `extra_tlb_sets[i]`
        // belongs to `aggressors[i + 2]`.
        let tlb_start = sys.rdtsc();
        let extra_tlb_sets: Vec<_> = aggressors[2..]
            .iter()
            .map(|&va| prepared.tlb_pool.minimal_eviction_set_for(va))
            .collect();
        let tlb_selection_cycles = sys.rdtsc() - tlb_start;
        if extra_tlb_sets.iter().any(|s| s.is_empty()) {
            return Err(AttackError::EvictionSetUnavailable(
                "TLB eviction pool has no pages for an aggressor's sets".to_string(),
            ));
        }

        // The base pair is armed and gated exactly like the paper's
        // double-sided strategy: Algorithm 2 LLC selection plus the timed
        // row-buffer-conflict verification.
        let base = ImplicitHammer::prepare(
            sys,
            pid,
            pair,
            &prepared.tlb_pool,
            &prepared.llc_pool,
            config.llc_profile_trials,
        )?;
        let mut llc_selection_cycles = base.selection_cycles();
        let verification = verify_same_bank(
            sys,
            pid,
            pair,
            &base.tlb_low,
            &base.tlb_high,
            &base.llc_low,
            &base.llc_high,
            conflict_threshold,
            5,
        )?;
        if !verification.same_bank {
            return Ok(ArmResult {
                armed: None,
                tlb_selection_cycles,
                llc_selection_cycles,
                verification: Some(verification),
            });
        }

        // Arm the remaining aggressors: per-aggressor Algorithm 2 selection
        // plus the same row-buffer-conflict probe the base pair passed, run
        // against the base target. Stride arithmetic makes an aggressor's
        // L1PTE *likely* to share the bank, but the kernel's own mid-spray
        // page-table allocations can shift part of the window into another
        // bank — and a split aggressor set hands the TRR sampler two small
        // row groups it can track. Timing verification (all the attacker can
        // measure) rejects such windows; the pipeline then tries the next
        // candidate.
        let mut sets = vec![
            (base.tlb_low.clone(), base.llc_low.clone()),
            (base.tlb_high.clone(), base.llc_high.clone()),
        ];
        for (extra, &va) in aggressors.iter().skip(2).enumerate() {
            let tlb = &extra_tlb_sets[extra];
            let llc =
                prepared
                    .llc_pool
                    .select_for_l1pte(sys, pid, va, tlb, config.llc_profile_trials)?;
            llc_selection_cycles += llc.selection_cycles;
            let probe = pthammer::HammerPair {
                low: pair.low.min(va),
                high: pair.low.max(va),
            };
            let (tlb_a, llc_a, tlb_b, llc_b) = if probe.low == pair.low {
                (&base.tlb_low, &base.llc_low, tlb, &llc)
            } else {
                (tlb, &llc, &base.tlb_low, &base.llc_low)
            };
            let aggressor_verification = verify_same_bank(
                sys,
                pid,
                probe,
                tlb_a,
                tlb_b,
                llc_a,
                llc_b,
                conflict_threshold,
                5,
            )?;
            if !aggressor_verification.same_bank {
                // Report the probe that actually failed, so event-bus
                // consumers see why the candidate was rejected.
                return Ok(ArmResult {
                    armed: None,
                    tlb_selection_cycles,
                    llc_selection_cycles,
                    verification: Some(aggressor_verification),
                });
            }
            sets.push((tlb.clone(), llc));
        }

        Ok(ArmResult {
            armed: Some(ArmedPair::multi(pair, aggressors, sets)),
            tlb_selection_cycles,
            llc_selection_cycles,
            verification: Some(verification),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pthammer::pairs::{candidate_pairs, conflict_threshold};
    use pthammer::pipeline::prepare_attack;
    use pthammer::{CompiledTrace, Target};
    use pthammer_cache::{CacheHierarchyConfig, LlcConfig, ReplacementPolicy};
    use pthammer_dram::FlipModelProfile;
    use pthammer_machine::MachineConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_system(seed: u64) -> (System, Pid) {
        let mut cfg = MachineConfig::test_small(FlipModelProfile::invulnerable(), seed);
        cfg.cache = CacheHierarchyConfig {
            llc: LlcConfig {
                slices: 2,
                sets_per_slice: 256,
                ways: 8,
                latency: 18,
                replacement: ReplacementPolicy::Srrip,
                inclusive: true,
            },
            ..CacheHierarchyConfig::test_small(seed)
        };
        let mut sys = System::undefended(cfg);
        let pid = sys.spawn_process(1000).unwrap();
        (sys, pid)
    }

    fn tiny_config(seed: u64) -> AttackConfig {
        AttackConfig {
            spray_bytes: 640 << 20,
            llc_profile_trials: 6,
            ..AttackConfig::quick_test(seed, false)
        }
    }

    #[test]
    fn invalid_patterns_are_rejected_at_construction() {
        let mut bad = HammerPattern::double_sided();
        bad.schedule = vec![0, 0, 1];
        assert!(PatternHammer::new(bad).is_err());
    }

    #[test]
    fn aggressor_va_resolution_handles_negative_offsets() {
        let low = VirtAddr::new(0x4000_0000);
        let stride = 0x100_0000u64;
        assert_eq!(PatternHammer::aggressor_va(low, stride, 0), Some(low));
        assert_eq!(
            PatternHammer::aggressor_va(low, stride, 2),
            Some(low + 2 * stride)
        );
        assert_eq!(
            PatternHammer::aggressor_va(low, stride, -1),
            Some(VirtAddr::new(0x4000_0000 - 0x100_0000))
        );
        assert_eq!(
            PatternHammer::aggressor_va(VirtAddr::new(0x1000), stride, -1),
            None,
            "offsets below the address space are rejected"
        );
    }

    /// End to end against the simulated machine: a 4-sided pattern arms a
    /// verified base pair plus two negative-stride aggressors, all of its
    /// implicit touches reach DRAM, and the round op stream matches the
    /// schedule verbatim.
    #[test]
    fn pattern_rounds_execute_through_the_implicit_touch_path() {
        let config = tiny_config(47);
        let (mut sys, pid) = tiny_system(47);
        let prepared = prepare_attack(&mut sys, pid, &config).unwrap();
        let row_span = sys.machine().config().dram.geometry.row_span_bytes();
        let threshold = conflict_threshold(&sys);
        let pattern = HammerPattern {
            offsets: vec![0, 1, -1, -2],
            schedule: vec![2, 0, 3, 1],
        };
        let strategy = PatternHammer::new(pattern.clone()).unwrap();
        assert_eq!(strategy.implicit_touches_per_round(), 4);
        assert_eq!(strategy.round_ops(), pattern.round_ops().as_slice());

        let mut rng = StdRng::seed_from_u64(47);
        let mut armed = None;
        'search: for _ in 0..12 {
            for pair in candidate_pairs(&prepared.spray, row_span, 4, &mut rng) {
                let arm = strategy
                    .arm(&mut sys, pid, pair, &prepared, &config, threshold)
                    .unwrap();
                if let Some(a) = arm.armed {
                    assert!(arm.verification.unwrap().same_bank);
                    assert!(arm.llc_selection_cycles > 0);
                    armed = Some(a);
                    break 'search;
                }
            }
        }
        let armed = armed.expect("an armable 4-sided candidate");
        let round = CompiledTrace::compile(&armed, strategy.round_ops(), &sys)
            .unwrap()
            .replay(&mut sys, pid)
            .unwrap();
        assert_eq!(
            round.aggressor_dram_hits, 4,
            "every implicit touch of the pattern must reach DRAM: {round:?}"
        );
        assert!(!round.low_dram && !round.high_dram);
        assert!(round.cycles > 0);
        // Ops address only pattern aggressors, never the pair targets.
        assert!(strategy.round_ops().iter().all(|op| matches!(
            op,
            RoundOp::EvictTlb(Target::Aggressor(_))
                | RoundOp::EvictLlc(Target::Aggressor(_))
                | RoundOp::TouchImplicit(Target::Aggressor(_))
        )));
    }

    /// Candidates whose aggressors would fall outside the sprayed region are
    /// rejected (armed: None), not errored.
    #[test]
    fn out_of_spray_candidates_are_rejected() {
        let config = tiny_config(53);
        let (mut sys, pid) = tiny_system(53);
        let prepared = prepare_attack(&mut sys, pid, &config).unwrap();
        let row_span = sys.machine().config().dram.geometry.row_span_bytes();
        let threshold = conflict_threshold(&sys);
        // Six strides below the base cannot fit: the spray is five strides.
        let pattern = HammerPattern {
            offsets: vec![0, 1, -6],
            schedule: vec![2, 0, 1],
        };
        let strategy = PatternHammer::new(pattern).unwrap();
        let mut rng = StdRng::seed_from_u64(53);
        for pair in candidate_pairs(&prepared.spray, row_span, 8, &mut rng) {
            let arm = strategy
                .arm(&mut sys, pid, pair, &prepared, &config, threshold)
                .unwrap();
            assert!(arm.armed.is_none());
            assert!(arm.verification.is_none(), "rejected before verification");
        }
    }
}
