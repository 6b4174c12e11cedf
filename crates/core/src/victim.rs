//! The victim & exploitation layer: `profile → evaluate → attack`.
//!
//! The paper's Section V endgame — turning an exploitable bit flip into a
//! concrete compromise — is modelled as a first-class [`Victim`] with a
//! three-stage lifecycle:
//!
//! 1. **profile** — once per run, before hammering: the victim templates the
//!    machine for the flips it can use and returns a [`FlipProfile`]. The
//!    profile is a pure function of the machine configuration (never of
//!    simulated memory state), so equal machine configurations template
//!    identical profiles.
//! 2. **evaluate** — per flip finding, side-effect free: the victim decides
//!    whether the finding is usable against its profile, returning a
//!    [`VictimVerdict`]. Rejected findings are never attacked.
//! 3. **attack** — per usable finding: the victim performs the actual
//!    exploitation through the unprivileged system-call surface and returns
//!    a typed [`VictimOutcome`] (success/failure, escalated identity,
//!    time-to-exploit in hammer iterations).
//!
//! Three victims ship with the crate, selectable by [`VictimChoice`]:
//!
//! * [`PteTakeover`] — the paper's spray-PTE victim and the pipeline's
//!   default. A corrupted sprayed L1PTE captures a kernel frame: a captured
//!   page table yields the Figure 7 takeover (arbitrary physical
//!   read/write, then credential rewrite), a captured cred slab yields the
//!   Section IV-G3 direct corruption. This is exactly the historical
//!   `attempt_escalation` behavior, so default runs are byte-identical.
//! * [`CredCorruption`] — the CTA-bypass arm as a *peer* victim: it only
//!   accepts findings that captured a credential slab directly, rejecting
//!   page-table captures at `evaluate`. Sweeping it against `PteTakeover`
//!   isolates how much of a defense's strength comes from protecting page
//!   tables specifically.
//! * [`KeyRecovery`] — a FrodoKEM-style error-matrix key-recovery victim:
//!   `profile` templates the module's weak cells for flips landing in the
//!   low-order bits of 16-bit error-matrix limbs, `evaluate` accepts flips
//!   matching that template, and `attack` models the decryption-failure
//!   oracle queries that leak secret-key rows. Its [`FlipProfile`] lists the
//!   templated weak cells.

use std::fmt;
use std::str::FromStr;

use serde::Serialize;

use pthammer_dram::FlipModel;
use pthammer_kernel::{Pid, System};
use pthammer_machine::MachineConfig;

use crate::detect::{CapturedPageKind, FlipFinding};
use crate::error::AttackError;
use crate::eviction::tlb::TlbEvictionPool;
use crate::exploit::{
    build_phys_primitive, corrupt_cred_in_captured_page, corrupt_cred_via_primitive,
};
use crate::spray::{SprayRegion, SPRAY_PATTERN};

/// One templated weak cell a victim can use, in DRAM coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlipTarget {
    /// Flattened bank unit the cell lives in.
    pub bank_unit: u32,
    /// Row within the bank.
    pub row: u32,
    /// Byte offset of the cell within the row.
    pub byte_in_row: u32,
    /// Bit position within that byte (0–7).
    pub bit: u8,
}

/// The result of a victim's `profile` stage.
///
/// A flip profile is a pure function of the machine *configuration* (name,
/// DRAM seed, weak-cell model) — never of simulated memory state — so equal
/// coordinates always produce an identical profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlipProfile {
    /// Name of the victim that produced the profile.
    pub victim: String,
    /// Machine the profile was templated on.
    pub machine: String,
    /// The DRAM flip-model seed the template was derived from.
    pub dram_seed: u64,
    /// Templated usable weak cells (empty for victims that need none).
    pub targets: Vec<FlipTarget>,
}

impl FlipProfile {
    /// A profile with no templated targets, for victims whose exploitation
    /// does not depend on DRAM templating.
    pub fn untargeted(victim: &str, config: &MachineConfig) -> Self {
        Self {
            victim: victim.to_string(),
            machine: config.name.clone(),
            dram_seed: config.dram.flip_seed,
            targets: Vec::new(),
        }
    }

    /// Whether the profile templated any usable cells.
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }
}

/// The `evaluate` stage's decision about one flip finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VictimVerdict {
    /// The finding is usable; the pipeline proceeds to `attack`.
    Usable,
    /// The finding is not usable for this victim; it is never attacked.
    Rejected(&'static str),
}

impl VictimVerdict {
    /// Whether the verdict lets the finding proceed to `attack`.
    pub fn is_usable(&self) -> bool {
        matches!(self, VictimVerdict::Usable)
    }
}

/// The typed result of one `attack` stage invocation.
///
/// This replaces the closed `EscalationRoute` enum: victims are open-ended,
/// so the outcome identifies the victim and mechanism by canonical name
/// instead of enumerating every possible compromise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct VictimOutcome {
    /// Canonical name of the victim that ran.
    pub victim: &'static str,
    /// Mechanism label of the compromise (`"PageTableTakeover"`,
    /// `"CredCorruption"`, `"KeyRecovery"`, ...).
    pub mechanism: &'static str,
    /// Whether the exploitation succeeded.
    pub success: bool,
    /// Pid that ended up with root credentials, for escalation victims.
    pub escalated_pid: Option<Pid>,
    /// Secret-key bits recovered so far, for key-recovery victims.
    pub recovered_bits: u64,
    /// Hammer iterations performed when the exploit succeeded (stamped by
    /// the pipeline from its accounting).
    pub time_to_exploit_iterations: Option<u64>,
}

impl VictimOutcome {
    /// A failed attack attempt.
    pub fn failure(victim: &'static str, mechanism: &'static str) -> Self {
        Self {
            victim,
            mechanism,
            success: false,
            escalated_pid: None,
            recovered_bits: 0,
            time_to_exploit_iterations: None,
        }
    }

    /// A successful privilege escalation.
    pub fn escalation(victim: &'static str, mechanism: &'static str, pid: Pid) -> Self {
        Self {
            victim,
            mechanism,
            success: true,
            escalated_pid: Some(pid),
            recovered_bits: 0,
            time_to_exploit_iterations: None,
        }
    }

    /// The pid that ended up with root credentials, if escalation happened.
    pub fn escalated_pid(&self) -> Option<Pid> {
        self.escalated_pid
    }

    /// Canonical route label for reports.
    ///
    /// For escalation victims this reproduces the historical
    /// `EscalationRoute` debug strings byte-for-byte
    /// (`"PageTableTakeover { escalated_pid: 1 }"`), which the golden
    /// campaign snapshots pin.
    pub fn route_label(&self) -> String {
        match self.escalated_pid {
            Some(pid) => format!("{} {{ escalated_pid: {} }}", self.mechanism, pid),
            None => format!(
                "{} {{ recovered_bits: {} }}",
                self.mechanism, self.recovered_bits
            ),
        }
    }
}

/// The exploitation assets the pipeline hands a victim's `attack` stage.
#[derive(Debug)]
pub struct ExploitCtx<'a> {
    /// The attacker's TLB eviction pool (for the physical access primitive).
    pub tlb_pool: &'a TlbEvictionPool,
    /// The page-table spray region.
    pub spray: &'a SprayRegion,
    /// The attacker's uid before the attack.
    pub attacker_uid: u32,
    /// Hammer iterations performed so far (the time-to-exploit clock).
    pub hammer_iterations: u64,
}

/// A victim class: something worth compromising through a rowhammer flip.
///
/// The pipeline's `Exploit` phase dispatches exclusively through this trait
/// object: it calls `profile` once (during `Prepare`), `evaluate` for every
/// flip finding and `attack` for every usable one.
pub trait Victim: fmt::Debug {
    /// Canonical kebab-case victim name.
    fn name(&self) -> &'static str;

    /// Templates the machine for usable flips, once per run.
    ///
    /// Takes `&System` — profiling must not perform simulated memory
    /// operations, so attaching any victim leaves the hammer/detect phases
    /// byte-identical.
    fn profile(&mut self, sys: &System, pid: Pid) -> Result<FlipProfile, AttackError>;

    /// Decides, side-effect free, whether `finding` is usable.
    fn evaluate(&self, profile: &FlipProfile, finding: &FlipFinding) -> VictimVerdict;

    /// Exploits one usable finding.
    fn attack(
        &mut self,
        sys: &mut System,
        pid: Pid,
        exploit: &ExploitCtx<'_>,
        finding: &FlipFinding,
    ) -> Result<VictimOutcome, AttackError>;
}

// ---------------------------------------------------------------------------
// PteTakeover
// ---------------------------------------------------------------------------

/// The paper's spray-PTE victim (Section V) and the pipeline's default.
///
/// A corrupted sprayed L1PTE captures whatever kernel frame it now points
/// at: a captured Level-1 page table yields the Figure 7 takeover (the
/// attacker writes PTEs, builds an arbitrary physical read/write primitive
/// and zeroes its own `struct cred`), a captured cred slab yields the
/// Section IV-G3 direct corruption. Both arms are the verbatim internals of
/// the historical `attempt_escalation` free function, so attaching this
/// victim (which every default run does) is byte-identical to the
/// pre-redesign pipeline.
#[derive(Debug, Clone, Copy, Default)]
pub struct PteTakeover;

impl PteTakeover {
    /// Canonical victim name.
    pub const NAME: &'static str = "pte-takeover";
}

impl Victim for PteTakeover {
    fn name(&self) -> &'static str {
        Self::NAME
    }

    fn profile(&mut self, sys: &System, _pid: Pid) -> Result<FlipProfile, AttackError> {
        // The spray-PTE victim needs no DRAM templating: every sprayed L1PTE
        // is a potential target, so the profile records only the machine.
        Ok(FlipProfile::untargeted(Self::NAME, sys.machine().config()))
    }

    fn evaluate(&self, _profile: &FlipProfile, finding: &FlipFinding) -> VictimVerdict {
        if finding.is_exploitable() {
            VictimVerdict::Usable
        } else {
            VictimVerdict::Rejected("finding did not capture an exploitable kernel object")
        }
    }

    fn attack(
        &mut self,
        sys: &mut System,
        pid: Pid,
        exploit: &ExploitCtx<'_>,
        finding: &FlipFinding,
    ) -> Result<VictimOutcome, AttackError> {
        match finding.kind {
            CapturedPageKind::L1PageTable { pte_value } => {
                let mut primitive =
                    build_phys_primitive(sys, pid, exploit.spray, finding, pte_value)?;
                let total_frames = sys.machine().config().dram.geometry.capacity_bytes()
                    / pthammer_types::PAGE_SIZE;
                let escalated = corrupt_cred_via_primitive(
                    sys,
                    pid,
                    exploit.tlb_pool,
                    &mut primitive,
                    exploit.attacker_uid,
                    total_frames,
                    16_384,
                )?;
                match escalated {
                    Some(victim_pid) if sys.getuid(victim_pid)? == 0 => Ok(
                        VictimOutcome::escalation(Self::NAME, "PageTableTakeover", victim_pid),
                    ),
                    _ => Ok(VictimOutcome::failure(Self::NAME, "PageTableTakeover")),
                }
            }
            CapturedPageKind::CredPage => {
                let escalated =
                    corrupt_cred_in_captured_page(sys, pid, finding, exploit.attacker_uid)?;
                match escalated {
                    Some(victim_pid) if sys.getuid(victim_pid)? == 0 => Ok(
                        VictimOutcome::escalation(Self::NAME, "CredCorruption", victim_pid),
                    ),
                    _ => Ok(VictimOutcome::failure(Self::NAME, "CredCorruption")),
                }
            }
            CapturedPageKind::Unmapped | CapturedPageKind::Unknown => {
                Ok(VictimOutcome::failure(Self::NAME, "Unexploitable"))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// CredCorruption
// ---------------------------------------------------------------------------

/// The CTA-bypass arm as a peer victim: credential slabs only.
///
/// Unlike [`PteTakeover`], a captured page table is *rejected* at
/// `evaluate` — this victim models an attacker who can only recognise and
/// overwrite `struct cred` objects. Sweeping it against the default isolates
/// how much of a defense's strength comes from protecting page tables
/// specifically (the CATTmew observation).
#[derive(Debug, Clone, Copy, Default)]
pub struct CredCorruption;

impl CredCorruption {
    /// Canonical victim name.
    pub const NAME: &'static str = "cred-corruption";
}

impl Victim for CredCorruption {
    fn name(&self) -> &'static str {
        Self::NAME
    }

    fn profile(&mut self, sys: &System, _pid: Pid) -> Result<FlipProfile, AttackError> {
        Ok(FlipProfile::untargeted(Self::NAME, sys.machine().config()))
    }

    fn evaluate(&self, _profile: &FlipProfile, finding: &FlipFinding) -> VictimVerdict {
        match finding.kind {
            CapturedPageKind::CredPage => VictimVerdict::Usable,
            CapturedPageKind::L1PageTable { .. } => {
                VictimVerdict::Rejected("captured a page table, not a credential slab")
            }
            CapturedPageKind::Unmapped | CapturedPageKind::Unknown => {
                VictimVerdict::Rejected("finding did not capture a credential slab")
            }
        }
    }

    fn attack(
        &mut self,
        sys: &mut System,
        pid: Pid,
        exploit: &ExploitCtx<'_>,
        finding: &FlipFinding,
    ) -> Result<VictimOutcome, AttackError> {
        let escalated = corrupt_cred_in_captured_page(sys, pid, finding, exploit.attacker_uid)?;
        match escalated {
            Some(victim_pid) if sys.getuid(victim_pid)? == 0 => Ok(VictimOutcome::escalation(
                Self::NAME,
                "CredCorruption",
                victim_pid,
            )),
            _ => Ok(VictimOutcome::failure(Self::NAME, "CredCorruption")),
        }
    }
}

// ---------------------------------------------------------------------------
// KeyRecovery
// ---------------------------------------------------------------------------

/// Bit positions within a 16-bit error-matrix limb that carry a small error
/// coefficient; a flip there biases decryption failures detectably.
const ERROR_COEFF_BITS: u8 = 3;
/// Secret-key bits one usable error-matrix flip leaks (one 16-bit row).
const KEY_BITS_PER_FLIP: u64 = 16;
/// Key bits required before recovery of the secret is declared.
const DEFAULT_REQUIRED_KEY_BITS: u64 = 64;
/// Decryption-failure oracle queries issued per attacked finding.
const ORACLE_QUERIES: u64 = 8;
/// Bank units the `profile` template scans.
const TEMPLATE_BANKS: u32 = 4;
/// Rows per bank the `profile` template scans.
const TEMPLATE_ROWS: u32 = 512;
/// Upper bound on templated targets kept in a profile.
const MAX_TEMPLATE_TARGETS: usize = 4096;

/// A FrodoKEM-style error-matrix key-recovery victim.
///
/// Models the co-located KEM decapsulation victim of the error-matrix
/// rowhammer attacks: a flip in a low-order bit of a 16-bit error-matrix
/// limb biases the decryption-failure rate, and each biased coefficient
/// leaks one 16-bit row of the secret. `profile` templates the DRAM module's
/// weak cells for exactly those positions (a pure function of the machine
/// configuration); `evaluate` accepts flips whose bit position matches the
/// template; `attack` issues the failure-oracle queries and accumulates
/// recovered key bits across findings until the secret is recovered.
#[derive(Debug, Clone)]
pub struct KeyRecovery {
    recovered_bits: u64,
    required_bits: u64,
}

impl KeyRecovery {
    /// Canonical victim name.
    pub const NAME: &'static str = "key-recovery";

    /// Creates the victim with the default recovery threshold.
    pub fn new() -> Self {
        Self {
            recovered_bits: 0,
            required_bits: DEFAULT_REQUIRED_KEY_BITS,
        }
    }

    /// Templates the flip profile for `config`.
    ///
    /// Pure function of the machine configuration (the weak-cell model is
    /// seeded by `config.dram.flip_seed`), requiring no booted [`System`].
    pub fn template_profile(config: &MachineConfig) -> FlipProfile {
        let model = FlipModel::new(
            config.dram.flip_profile,
            config.dram.flip_seed,
            config.dram.geometry.row_bytes,
        );
        let banks = config.dram.geometry.total_banks().min(TEMPLATE_BANKS);
        let rows = config.dram.geometry.rows_per_bank.min(TEMPLATE_ROWS);
        let mut targets = Vec::new();
        'scan: for bank_unit in 0..banks {
            for row in 0..rows {
                for cell in model.weak_cells(bank_unit, row) {
                    if cell.byte_in_row % 2 == 0 && cell.bit < ERROR_COEFF_BITS {
                        targets.push(FlipTarget {
                            bank_unit,
                            row,
                            byte_in_row: cell.byte_in_row,
                            bit: cell.bit,
                        });
                        if targets.len() >= MAX_TEMPLATE_TARGETS {
                            break 'scan;
                        }
                    }
                }
            }
        }
        FlipProfile {
            victim: Self::NAME.to_string(),
            machine: config.name.clone(),
            dram_seed: config.dram.flip_seed,
            targets,
        }
    }

    /// Key bits recovered so far across all attacked findings.
    pub fn recovered_bits(&self) -> u64 {
        self.recovered_bits
    }

    /// Counts the bits of `flipped` that sit in a low-order error-coefficient
    /// position of a 16-bit limb.
    fn usable_flip_bits(flipped: u64) -> u64 {
        (0..64)
            .filter(|i| flipped & (1u64 << i) != 0)
            .filter(|i| (i / 8) % 2 == 0 && (i % 8) < u64::from(ERROR_COEFF_BITS))
            .count() as u64
    }
}

impl Default for KeyRecovery {
    fn default() -> Self {
        Self::new()
    }
}

impl Victim for KeyRecovery {
    fn name(&self) -> &'static str {
        Self::NAME
    }

    fn profile(&mut self, sys: &System, _pid: Pid) -> Result<FlipProfile, AttackError> {
        Ok(Self::template_profile(sys.machine().config()))
    }

    fn evaluate(&self, profile: &FlipProfile, finding: &FlipFinding) -> VictimVerdict {
        if profile.is_empty() {
            return VictimVerdict::Rejected(
                "flip profile is empty: no templatable error-matrix cells on this module",
            );
        }
        let flipped = finding.observed ^ SPRAY_PATTERN;
        if flipped == 0 {
            return VictimVerdict::Rejected("observed value carries no flipped bits");
        }
        if Self::usable_flip_bits(flipped) == 0 {
            return VictimVerdict::Rejected("flipped bits fall outside the error-matrix limbs");
        }
        VictimVerdict::Usable
    }

    fn attack(
        &mut self,
        sys: &mut System,
        pid: Pid,
        exploit: &ExploitCtx<'_>,
        finding: &FlipFinding,
    ) -> Result<VictimOutcome, AttackError> {
        // Decryption-failure oracle: repeated decapsulations observing the
        // biased failure rate, modelled as reads through the corrupted
        // mapping (each query re-reads the flipped limb).
        let base = finding.vaddr.page_base();
        let mut biased_queries = 0u64;
        for query in 0..ORACLE_QUERIES {
            let word = sys.read_u64(pid, base + (query % 64) * 8)?.value;
            biased_queries += u64::from(word != exploit.spray.pattern);
        }
        if biased_queries == 0 {
            return Ok(VictimOutcome::failure(Self::NAME, "KeyRecovery"));
        }
        let flipped = finding.observed ^ SPRAY_PATTERN;
        self.recovered_bits += Self::usable_flip_bits(flipped) * KEY_BITS_PER_FLIP;
        let success = self.recovered_bits >= self.required_bits;
        Ok(VictimOutcome {
            victim: Self::NAME,
            mechanism: "KeyRecovery",
            success,
            escalated_pid: None,
            recovered_bits: self.recovered_bits,
            time_to_exploit_iterations: None,
        })
    }
}

// ---------------------------------------------------------------------------
// VictimChoice
// ---------------------------------------------------------------------------

/// Selector for the shipped victims (the campaign's `victims` axis).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum VictimChoice {
    /// The paper's spray-PTE victim ([`PteTakeover`]) — the default.
    #[default]
    PteTakeover,
    /// Credential slabs only ([`CredCorruption`]).
    CredCorruption,
    /// FrodoKEM-style error-matrix key recovery ([`KeyRecovery`]).
    KeyRecovery,
}

impl VictimChoice {
    /// All shipped victims, in canonical sweep order.
    pub fn all() -> Vec<VictimChoice> {
        vec![
            VictimChoice::PteTakeover,
            VictimChoice::CredCorruption,
            VictimChoice::KeyRecovery,
        ]
    }

    /// Canonical kebab-case name (also the JSON serialization).
    pub fn name(&self) -> &'static str {
        match self {
            VictimChoice::PteTakeover => PteTakeover::NAME,
            VictimChoice::CredCorruption => CredCorruption::NAME,
            VictimChoice::KeyRecovery => KeyRecovery::NAME,
        }
    }

    /// Whether this is the pipeline's default victim.
    pub fn is_default(&self) -> bool {
        *self == VictimChoice::PteTakeover
    }

    /// Instantiates the victim.
    pub fn build(&self) -> Box<dyn Victim> {
        match self {
            VictimChoice::PteTakeover => Box::new(PteTakeover),
            VictimChoice::CredCorruption => Box::new(CredCorruption),
            VictimChoice::KeyRecovery => Box::new(KeyRecovery::new()),
        }
    }
}

impl fmt::Display for VictimChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for VictimChoice {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "pte-takeover" => Ok(VictimChoice::PteTakeover),
            "cred-corruption" => Ok(VictimChoice::CredCorruption),
            "key-recovery" => Ok(VictimChoice::KeyRecovery),
            other => Err(format!("unknown victim `{other}`")),
        }
    }
}

serde::string_enum!(VictimChoice);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::classify_captured_page;
    use crate::exploit::tests::{inject_l1pt_capture, sprayed_system};
    use pthammer_dram::FlipModelProfile;
    use pthammer_kernel::CRED_MAGIC;
    use pthammer_machine::MachineConfig;
    use pthammer_mmu::Pte;
    use pthammer_types::{PhysAddr, VirtAddr, HUGE_PAGE_SIZE, PAGE_SIZE};

    fn exploit_ctx<'a>(tlb_pool: &'a TlbEvictionPool, spray: &'a SprayRegion) -> ExploitCtx<'a> {
        ExploitCtx {
            tlb_pool,
            spray,
            attacker_uid: 1000,
            hammer_iterations: 0,
        }
    }

    #[test]
    fn pte_takeover_attack_success_escalates_to_root() {
        let (mut sys, pid, spray, tlb_pool) = sprayed_system();
        let finding = inject_l1pt_capture(&mut sys, pid, &spray);
        let mut victim = PteTakeover;
        let profile = victim.profile(&sys, pid).unwrap();
        assert!(profile.is_empty(), "spray-PTE victim needs no templating");
        assert!(victim.evaluate(&profile, &finding).is_usable());
        let outcome = victim
            .attack(&mut sys, pid, &exploit_ctx(&tlb_pool, &spray), &finding)
            .unwrap();
        assert!(outcome.success);
        assert_eq!(outcome.mechanism, "PageTableTakeover");
        let escalated = outcome.escalated_pid().unwrap();
        assert_eq!(sys.getuid(escalated).unwrap(), 0);
        assert_eq!(
            outcome.route_label(),
            format!("PageTableTakeover {{ escalated_pid: {escalated} }}")
        );
    }

    #[test]
    fn pte_takeover_evaluate_rejects_unexploitable_findings() {
        let (sys, pid, _spray, _tlb_pool) = sprayed_system();
        let mut victim = PteTakeover;
        let profile = victim.profile(&sys, pid).unwrap();
        let finding = FlipFinding {
            vaddr: VirtAddr::new(0x1000),
            observed: 0,
            kind: CapturedPageKind::Unmapped,
        };
        assert!(!victim.evaluate(&profile, &finding).is_usable());
    }

    #[test]
    fn cred_corruption_evaluate_rejects_page_tables() {
        let (mut sys, pid, spray, _tlb_pool) = sprayed_system();
        let finding = inject_l1pt_capture(&mut sys, pid, &spray);
        let mut victim = CredCorruption;
        let profile = victim.profile(&sys, pid).unwrap();
        assert_eq!(
            victim.evaluate(&profile, &finding),
            VictimVerdict::Rejected("captured a page table, not a credential slab")
        );
    }

    #[test]
    fn cred_corruption_attack_succeeds_on_captured_cred_page() {
        let (mut sys, pid, spray, tlb_pool) = sprayed_system();
        let victim_va = spray.base + 12 * HUGE_PAGE_SIZE + 3 * PAGE_SIZE;
        let cred_frame = sys.process(pid).unwrap().cred_paddr.frame_number();
        let victim_l1pte_pa = sys.oracle_l1pte_paddr(pid, victim_va).unwrap();
        let original = Pte::from_raw(sys.machine().phys_read_u64(victim_l1pte_pa));
        sys.machine_mut().phys_write_u64(
            victim_l1pte_pa,
            Pte::page(PhysAddr::from_frame(cred_frame, 0), original.flags()).raw(),
        );
        let finding = FlipFinding {
            vaddr: victim_va.page_base(),
            observed: CRED_MAGIC,
            kind: classify_captured_page(&mut sys, pid, victim_va).unwrap(),
        };
        let mut victim = CredCorruption;
        let profile = victim.profile(&sys, pid).unwrap();
        assert!(victim.evaluate(&profile, &finding).is_usable());
        let outcome = victim
            .attack(&mut sys, pid, &exploit_ctx(&tlb_pool, &spray), &finding)
            .unwrap();
        assert!(outcome.success);
        assert_eq!(sys.getuid(outcome.escalated_pid().unwrap()).unwrap(), 0);
    }

    #[test]
    fn key_recovery_profile_miss_on_invulnerable_module() {
        // Profile-miss branch: an invulnerable module templates no cells, so
        // every finding is rejected before `attack`.
        let config = MachineConfig::test_small(FlipModelProfile::invulnerable(), 5);
        let profile = KeyRecovery::template_profile(&config);
        assert!(profile.is_empty());
        let victim = KeyRecovery::new();
        let finding = FlipFinding {
            vaddr: VirtAddr::new(0x1000),
            observed: SPRAY_PATTERN ^ 1,
            kind: CapturedPageKind::Unknown,
        };
        assert_eq!(
            victim.evaluate(&profile, &finding),
            VictimVerdict::Rejected(
                "flip profile is empty: no templatable error-matrix cells on this module"
            )
        );
    }

    #[test]
    fn key_recovery_profile_is_deterministic_per_dram_seed() {
        let config = MachineConfig::test_small(FlipModelProfile::ci(), 23);
        let a = KeyRecovery::template_profile(&config);
        let b = KeyRecovery::template_profile(&config);
        assert_eq!(a, b);
        assert!(!a.is_empty(), "ci profile must template targets");
        let other =
            KeyRecovery::template_profile(&MachineConfig::test_small(FlipModelProfile::ci(), 24));
        assert_ne!(a, other, "profile must depend on the DRAM seed");
    }

    #[test]
    fn key_recovery_evaluate_rejects_out_of_template_flips() {
        let config = MachineConfig::test_small(FlipModelProfile::ci(), 23);
        let profile = KeyRecovery::template_profile(&config);
        let victim = KeyRecovery::new();
        // Bit 15 is the high bit of a limb — not an error-coefficient bit.
        let finding = FlipFinding {
            vaddr: VirtAddr::new(0x1000),
            observed: SPRAY_PATTERN ^ (1 << 15),
            kind: CapturedPageKind::Unknown,
        };
        assert_eq!(
            victim.evaluate(&profile, &finding),
            VictimVerdict::Rejected("flipped bits fall outside the error-matrix limbs")
        );
    }

    #[test]
    fn key_recovery_attack_accumulates_until_success() {
        let (mut sys, pid, spray, tlb_pool) = sprayed_system();
        // Corrupt one sprayed mapping so the failure oracle observes a bias.
        let finding = inject_l1pt_capture(&mut sys, pid, &spray);
        // Force a usable flip signature: low bits of several limbs.
        let finding = FlipFinding {
            observed: SPRAY_PATTERN ^ 0x0000_0000_0001_0001,
            ..finding
        };
        let mut victim = KeyRecovery::new();
        let ctx = exploit_ctx(&tlb_pool, &spray);
        let first = victim.attack(&mut sys, pid, &ctx, &finding).unwrap();
        assert!(!first.success, "one finding leaks 2 limbs: not yet enough");
        assert_eq!(first.recovered_bits, 32);
        let second = victim.attack(&mut sys, pid, &ctx, &finding).unwrap();
        assert!(second.success, "64 bits recovered crosses the threshold");
        assert_eq!(second.recovered_bits, 64);
        assert_eq!(second.escalated_pid(), None);
        assert_eq!(second.route_label(), "KeyRecovery { recovered_bits: 64 }");
    }

    #[test]
    fn victim_choice_round_trips_and_serializes_canonically() {
        assert_eq!(VictimChoice::default(), VictimChoice::PteTakeover);
        assert!(VictimChoice::PteTakeover.is_default());
        for choice in VictimChoice::all() {
            assert_eq!(choice.name().parse::<VictimChoice>().unwrap(), choice);
            assert_eq!(choice.to_string(), choice.name());
            assert_eq!(choice.build().name(), choice.name());
        }
        assert!("swage".parse::<VictimChoice>().is_err());
        let mut w = serde::ser::JsonWriter::new(false);
        VictimChoice::KeyRecovery.serialize(&mut w);
        assert_eq!(w.into_string(), "\"key-recovery\"");
    }
}
