//! The implicit-hammer primitive's per-pair state (Section III-B of the
//! paper).
//!
//! One double-sided PThammer iteration evicts the TLB entries and the cached
//! Level-1 PTEs of both targets and then touches the two targets. The touch
//! triggers a page-table walk whose only uncached step is the Level-1 PTE
//! load — an access to kernel memory that the attacker never had permission
//! to perform, served directly from the DRAM row the attacker wants to
//! activate. [`ImplicitHammer`] holds the eviction sets that iteration
//! needs; the strategies declare the iteration as `RoundOp`s and
//! [`crate::trace::CompiledTrace`] runs it.

use serde::{Deserialize, Serialize};

use pthammer_kernel::{Pid, System};

use crate::error::AttackError;
use crate::eviction::llc::{LlcEvictionPool, SelectedEvictionSet};
use crate::eviction::tlb::{TlbEvictionPool, TlbEvictionSet};
use crate::pairs::HammerPair;

/// The eviction sets of a double-sided implicit hammer for one pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ImplicitHammer {
    /// The pair being hammered.
    pub pair: HammerPair,
    /// TLB eviction set for the low target.
    pub tlb_low: TlbEvictionSet,
    /// TLB eviction set for the high target.
    pub tlb_high: TlbEvictionSet,
    /// LLC eviction set selected (Algorithm 2) for the low target's L1PTE.
    pub llc_low: SelectedEvictionSet,
    /// LLC eviction set selected (Algorithm 2) for the high target's L1PTE.
    pub llc_high: SelectedEvictionSet,
}

/// Statistics of a hammering run, accumulated by
/// [`crate::trace::CompiledTrace::hammer`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HammerStats {
    /// Iterations performed.
    pub rounds: u64,
    /// Total simulated cycles spent hammering.
    pub total_cycles: u64,
    /// Fastest single iteration.
    pub min_round_cycles: u64,
    /// Slowest single iteration.
    pub max_round_cycles: u64,
    /// Iterations in which the low target's L1PTE was served from DRAM
    /// (instrumentation only; the real attacker cannot observe this).
    pub low_dram_hits: u64,
    /// Iterations in which the high target's L1PTE was served from DRAM.
    pub high_dram_hits: u64,
    /// DRAM-served implicit touches of indexed pattern aggressors
    /// (always 0 for the pair-addressed strategies).
    pub aggressor_dram_hits: u64,
}

impl HammerStats {
    /// Average cycles per iteration.
    pub fn avg_round_cycles(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.total_cycles as f64 / self.rounds as f64
        }
    }

    /// Fraction of iterations that actually activated the low aggressor row.
    pub fn low_dram_rate(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.low_dram_hits as f64 / self.rounds as f64
        }
    }

    /// Fraction of iterations that actually activated the high aggressor row.
    pub fn high_dram_rate(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.high_dram_hits as f64 / self.rounds as f64
        }
    }
}

impl ImplicitHammer {
    /// Prepares the hammer for a pair: draws TLB eviction sets from the pool
    /// and runs Algorithm 2 to select the LLC eviction sets for both L1PTEs.
    pub fn prepare(
        sys: &mut System,
        pid: Pid,
        pair: HammerPair,
        tlb_pool: &TlbEvictionPool,
        llc_pool: &LlcEvictionPool,
        selection_trials: usize,
    ) -> Result<Self, AttackError> {
        let tlb_low = tlb_pool.minimal_eviction_set_for(pair.low);
        let tlb_high = tlb_pool.minimal_eviction_set_for(pair.high);
        if tlb_low.is_empty() || tlb_high.is_empty() {
            return Err(AttackError::EvictionSetUnavailable(
                "TLB eviction pool has no pages for the target's sets".to_string(),
            ));
        }
        let llc_low = llc_pool.select_for_l1pte(sys, pid, pair.low, &tlb_low, selection_trials)?;
        let llc_high =
            llc_pool.select_for_l1pte(sys, pid, pair.high, &tlb_high, selection_trials)?;
        Ok(Self {
            pair,
            tlb_low,
            tlb_high,
            llc_low,
            llc_high,
        })
    }

    /// Total simulated cycles spent on Algorithm 2 selection for this pair.
    pub fn selection_cycles(&self) -> u64 {
        self.llc_low.selection_cycles + self.llc_high.selection_cycles
    }
}
