//! The declarative scenario matrix: which cells a campaign runs.

use std::fmt;

use pthammer::{HammerMode, VictimChoice};
use pthammer_defenses::DefenseChoice;
use pthammer_dram::FlipModelProfile;
use pthammer_machine::MachineChoice;
use pthammer_patterns::PatternChoice;
use serde::{Deserialize, Serialize};

/// Named weak-cell profile, the third axis of the matrix.
///
/// [`FlipModelProfile`] itself is a bag of numbers; campaigns select one of
/// the named presets so reports stay self-describing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ProfileChoice {
    /// Paper-calibrated thresholds (minutes of simulated time to a flip).
    Paper,
    /// Fast profile for examples and scaled sweeps.
    Fast,
    /// CI profile: very weak cells, flips within a few hundred activations.
    Ci,
    /// Rowhammer-free DRAM (control group).
    Invulnerable,
}

impl ProfileChoice {
    /// All named profiles.
    pub fn all() -> Vec<ProfileChoice> {
        vec![
            ProfileChoice::Paper,
            ProfileChoice::Fast,
            ProfileChoice::Ci,
            ProfileChoice::Invulnerable,
        ]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            ProfileChoice::Paper => "paper",
            ProfileChoice::Fast => "fast",
            ProfileChoice::Ci => "ci",
            ProfileChoice::Invulnerable => "invulnerable",
        }
    }

    /// The concrete weak-cell profile.
    pub fn profile(&self) -> FlipModelProfile {
        match self {
            ProfileChoice::Paper => FlipModelProfile::paper(),
            ProfileChoice::Fast => FlipModelProfile::fast(),
            ProfileChoice::Ci => FlipModelProfile::ci(),
            ProfileChoice::Invulnerable => FlipModelProfile::invulnerable(),
        }
    }
}

/// Coordinates of one campaign cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct CellCoord {
    /// Machine model under attack.
    pub machine: MachineChoice,
    /// Active defense.
    pub defense: DefenseChoice,
    /// Weak-cell profile of the DRAM.
    pub profile: ProfileChoice,
    /// Hammer strategy the cell's attack pipeline runs.
    pub hammer_mode: HammerMode,
    /// Many-sided pattern source, if any: `Some` replaces the hammer
    /// strategy with a `PatternHammer` executing the chosen pattern
    /// (synthesized cells search from the cell seed).
    pub pattern: Option<PatternChoice>,
    /// Victim the cell's `Exploit` phase drives, if explicitly swept:
    /// `Some` injects the chosen victim and makes the cell report its
    /// exploit outcome; `None` runs the default PTE-takeover victim and
    /// serializes exactly as before the axis existed.
    pub victim: Option<VictimChoice>,
    /// Repetition index (varies only the seed).
    pub repetition: u32,
}

/// The value of an axis a campaign does not sweep: its default alone.
fn unswept<T: Default>() -> Vec<T> {
    vec![T::default()]
}

/// Whether `axis` is unswept — the case whose serialization (and golden
/// snapshot) predates the axis, so its key is left out.
fn is_unswept<T: Default + PartialEq>(axis: &[T]) -> bool {
    axis.len() == 1 && axis[0] == T::default()
}

/// Every coordinate, e.g. `machine=Test Small defense=undefended profile=ci
/// mode=implicit-double-sided pattern=none victim=key-recovery rep=1`.
impl fmt::Display for CellCoord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "machine={} defense={} profile={} mode={} pattern={} victim={} rep={}",
            self.machine.name(),
            self.defense.kind().name(),
            self.profile.name(),
            self.hammer_mode.name(),
            self.pattern.map_or("none", |p| p.name()),
            self.victim.map_or("none", |v| v.name()),
            self.repetition,
        )
    }
}

/// Declarative cross product of campaign axes.
///
/// The `hammer_modes`, `patterns` and `victims` keys are serialized only for
/// campaigns that sweep them, so a matrix without those axes serializes
/// exactly as it did before they existed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioMatrix {
    /// Machines axis.
    pub machines: Vec<MachineChoice>,
    /// Defenses axis.
    pub defenses: Vec<DefenseChoice>,
    /// Profiles axis.
    pub profiles: Vec<ProfileChoice>,
    /// Hammer-strategy axis (defaults to the paper's implicit double-sided
    /// mode only).
    #[serde(default = "unswept", skip_serializing_if = "is_unswept")]
    pub hammer_modes: Vec<HammerMode>,
    /// Pattern axis (defaults to `[None]`: no many-sided patterns). `Some`
    /// entries run a synthesized/preset pattern through `PatternHammer`
    /// instead of the cell's hammer mode.
    #[serde(default = "unswept", skip_serializing_if = "is_unswept")]
    pub patterns: Vec<Option<PatternChoice>>,
    /// Victim axis (defaults to `[None]`: the default PTE-takeover victim,
    /// serialized as before the axis existed). `Some` entries inject the
    /// chosen victim into the `Exploit` phase and make cells report
    /// `exploit_succeeded` / `time_to_exploit`.
    #[serde(default = "unswept", skip_serializing_if = "is_unswept")]
    pub victims: Vec<Option<VictimChoice>>,
    /// Seed repetitions per (machine, defense, profile, mode, pattern,
    /// victim) combination.
    pub repetitions: u32,
}

impl ScenarioMatrix {
    /// Builds a matrix from explicit axes, with the hammer-mode axis pinned
    /// to the paper's default mode.
    pub fn new(
        machines: Vec<MachineChoice>,
        defenses: Vec<DefenseChoice>,
        profiles: Vec<ProfileChoice>,
        repetitions: u32,
    ) -> Self {
        Self {
            machines,
            defenses,
            profiles,
            hammer_modes: unswept(),
            patterns: unswept(),
            victims: unswept(),
            repetitions,
        }
    }

    /// Replaces the hammer-mode axis (builder style).
    pub fn with_hammer_modes(mut self, hammer_modes: Vec<HammerMode>) -> Self {
        self.hammer_modes = hammer_modes;
        self
    }

    /// Replaces the pattern axis (builder style). `None` entries run the
    /// cell's hammer mode; `Some` entries run the chosen many-sided pattern.
    pub fn with_patterns(mut self, patterns: Vec<Option<PatternChoice>>) -> Self {
        self.patterns = patterns;
        self
    }

    /// Replaces the victim axis (builder style). `None` entries run the
    /// default PTE-takeover victim without exploit-outcome keys; `Some`
    /// entries inject the chosen victim and report its outcome.
    pub fn with_victims(mut self, victims: Vec<Option<VictimChoice>>) -> Self {
        self.victims = victims;
        self
    }

    /// The pinned victim-sweep regression matrix: the small test machine,
    /// undefended plus CTA, the `ci` and `invulnerable` profiles, every
    /// shipped victim — 1 × 2 × 2 × 3 × 2 = 24 cells showing per-victim
    /// exploit outcomes on the same flips.
    pub fn victim_sweep_ci() -> Self {
        Self::new(
            vec![MachineChoice::TestSmall],
            vec![DefenseChoice::None, DefenseChoice::Cta],
            vec![ProfileChoice::Ci, ProfileChoice::Invulnerable],
            2,
        )
        .with_victims(VictimChoice::all().into_iter().map(Some).collect())
    }

    /// The pinned TRR-era regression matrix: the plain CI machine and its
    /// TRR twin, undefended, the `ci` and `invulnerable` profiles, with the
    /// pattern axis sweeping none → synthesized → the uniform 4-sided
    /// control — 2 × 1 × 2 × 3 × 2 = 24 cells showing "double-sided dies
    /// under TRR, synthesized n-sided still flips".
    pub fn trr_pattern_ci() -> Self {
        Self::new(
            vec![MachineChoice::TestSmall, MachineChoice::TestSmallTrr],
            vec![DefenseChoice::None],
            vec![ProfileChoice::Ci, ProfileChoice::Invulnerable],
            2,
        )
        .with_patterns(vec![
            None,
            Some(PatternChoice::Synthesized),
            Some(PatternChoice::UniformFourSided),
        ])
    }

    /// The CI-scale regression matrix pinned by the golden snapshots: the
    /// small test machine, every defense, the `ci` and `invulnerable`
    /// profiles, three repetitions — 5 × 2 × 3 = 30 cells.
    pub fn ci_default() -> Self {
        Self::new(
            vec![MachineChoice::TestSmall],
            DefenseChoice::all(),
            vec![ProfileChoice::Ci, ProfileChoice::Invulnerable],
            3,
        )
    }

    /// Number of cells in the matrix.
    pub fn len(&self) -> usize {
        self.machines.len()
            * self.defenses.len()
            * self.profiles.len()
            * self.hammer_modes.len()
            * self.patterns.len()
            * self.victims.len()
            * self.repetitions as usize
    }

    /// Whether the matrix is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materializes the cells in canonical (machine-major) order. Cell order
    /// determines report row order — and nothing else; per-cell seeds hash
    /// coordinates, not positions.
    pub fn cells(&self) -> Vec<CellCoord> {
        let mut cells = Vec::with_capacity(self.len());
        for &machine in &self.machines {
            for &defense in &self.defenses {
                for &profile in &self.profiles {
                    for &hammer_mode in &self.hammer_modes {
                        for &pattern in &self.patterns {
                            for &victim in &self.victims {
                                for repetition in 0..self.repetitions {
                                    cells.push(CellCoord {
                                        machine,
                                        defense,
                                        profile,
                                        hammer_mode,
                                        pattern,
                                        victim,
                                        repetition,
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        cells
    }

    /// Validates the matrix.
    ///
    /// # Errors
    ///
    /// Returns a description of the problem if any axis is empty.
    pub fn validate(&self) -> Result<(), String> {
        if self.machines.is_empty() {
            return Err("matrix has no machines".to_string());
        }
        if self.defenses.is_empty() {
            return Err("matrix has no defenses".to_string());
        }
        if self.profiles.is_empty() {
            return Err("matrix has no profiles".to_string());
        }
        if self.hammer_modes.is_empty() {
            return Err("matrix has no hammer modes".to_string());
        }
        if self.patterns.is_empty() {
            return Err("matrix has no pattern-axis entries".to_string());
        }
        if self.victims.is_empty() {
            return Err("matrix has no victim-axis entries".to_string());
        }
        if self.repetitions == 0 {
            return Err("matrix has zero repetitions".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compact(matrix: &ScenarioMatrix) -> String {
        serde_json::to_string(matrix).unwrap()
    }

    #[test]
    fn swept_axes_round_trip_and_unswept_ones_decode_to_their_default() {
        for matrix in [
            ScenarioMatrix::ci_default(),
            ScenarioMatrix::ci_default().with_hammer_modes(HammerMode::all()),
            ScenarioMatrix::trr_pattern_ci(),
            ScenarioMatrix::victim_sweep_ci(),
        ] {
            let json = compact(&matrix);
            let decoded: ScenarioMatrix =
                serde_json::from_value(serde_json::from_str(&json).unwrap()).unwrap();
            assert_eq!(decoded, matrix);
        }
    }

    #[test]
    fn ci_default_has_at_least_24_cells() {
        let m = ScenarioMatrix::ci_default();
        assert!(m.len() >= 24, "CI matrix too small: {}", m.len());
        assert_eq!(m.cells().len(), m.len());
        assert!(m.validate().is_ok());
        assert!(is_unswept(&m.hammer_modes));
    }

    #[test]
    fn cells_are_in_canonical_order_and_unique() {
        let m = ScenarioMatrix::ci_default().with_hammer_modes(HammerMode::all());
        let cells = m.cells();
        assert_eq!(cells.len(), m.len());
        let mut seen = std::collections::HashSet::new();
        for c in &cells {
            assert!(seen.insert(format!("{c:?}")), "duplicate cell {c:?}");
        }
        // First block: first machine, first defense, first profile, first
        // mode.
        assert_eq!(cells[0].machine, m.machines[0]);
        assert_eq!(cells[0].defense, m.defenses[0]);
        assert_eq!(cells[0].hammer_mode, m.hammer_modes[0]);
        assert_eq!(cells[0].repetition, 0);
    }

    #[test]
    fn empty_axes_are_rejected() {
        let mut m = ScenarioMatrix::ci_default();
        m.defenses.clear();
        assert!(m.validate().is_err());
        assert!(m.is_empty());
        let mut m = ScenarioMatrix::ci_default();
        m.repetitions = 0;
        assert!(m.validate().is_err());
        let m = ScenarioMatrix::ci_default().with_hammer_modes(vec![]);
        assert!(m.validate().is_err());
    }

    #[test]
    fn profile_names_round_trip() {
        for p in ProfileChoice::all() {
            assert!(!p.name().is_empty());
            let _ = p.profile();
        }
        assert_eq!(ProfileChoice::Ci.name(), "ci");
    }

    #[test]
    fn pattern_axis_extends_the_cross_product() {
        let m = ScenarioMatrix::trr_pattern_ci();
        assert_eq!(m.len(), 24, "2 machines × 2 profiles × 3 patterns × 2");
        assert!(!is_unswept(&m.patterns));
        assert!(m.validate().is_ok());
        let cells = m.cells();
        assert_eq!(cells.len(), m.len());
        assert_eq!(cells[0].pattern, None);
        assert!(cells
            .iter()
            .any(|c| c.pattern == Some(PatternChoice::Synthesized)));
        let m = ScenarioMatrix::ci_default();
        assert!(is_unswept(&m.patterns));
        assert!(m.cells().iter().all(|c| c.pattern.is_none()));
        let m = ScenarioMatrix::ci_default().with_patterns(vec![]);
        assert!(m.validate().is_err());
    }

    #[test]
    fn victim_axis_extends_the_cross_product() {
        let m = ScenarioMatrix::victim_sweep_ci();
        assert_eq!(m.len(), 24, "2 defenses × 2 profiles × 3 victims × 2");
        assert!(!is_unswept(&m.victims));
        assert!(m.validate().is_ok());
        let cells = m.cells();
        assert_eq!(cells.len(), m.len());
        assert!(cells
            .iter()
            .any(|c| c.victim == Some(VictimChoice::KeyRecovery)));
        let m = ScenarioMatrix::ci_default();
        assert!(is_unswept(&m.victims));
        assert!(m.cells().iter().all(|c| c.victim.is_none()));
        let m = ScenarioMatrix::ci_default().with_victims(vec![]);
        assert!(m.validate().is_err());
    }

    #[test]
    fn victim_free_matrix_serializes_without_the_axis() {
        assert!(!compact(&ScenarioMatrix::ci_default()).contains("victims"));
        let json = compact(&ScenarioMatrix::victim_sweep_ci());
        assert!(
            json.contains("\"victims\":[\"pte-takeover\",\"cred-corruption\",\"key-recovery\"]"),
            "{json}"
        );
        // Key order: the axis sits between patterns (when present) /
        // profiles and repetitions.
        assert!(json.find("profiles").unwrap() < json.find("victims").unwrap());
        assert!(json.find("victims").unwrap() < json.find("repetitions").unwrap());
    }

    #[test]
    fn pattern_free_matrix_serializes_without_the_axis() {
        assert!(!compact(&ScenarioMatrix::ci_default()).contains("patterns"));
        let json = compact(&ScenarioMatrix::trr_pattern_ci());
        assert!(
            json.contains("\"patterns\":[null,\"synthesized\",\"uniform-4-sided\"]"),
            "{json}"
        );
        // Key order: the axis sits between hammer modes (when present) /
        // profiles and repetitions.
        assert!(json.find("profiles").unwrap() < json.find("patterns").unwrap());
        assert!(json.find("patterns").unwrap() < json.find("repetitions").unwrap());
    }

    #[test]
    fn default_mode_matrix_serializes_without_the_axis() {
        let json = compact(&ScenarioMatrix::ci_default());
        assert!(
            !json.contains("hammer_modes"),
            "default-mode matrix must serialize as before the axis existed: {json}"
        );

        let json = compact(&ScenarioMatrix::ci_default().with_hammer_modes(HammerMode::all()));
        // The axis uses the same canonical kebab-case spelling as cell rows
        // and the `--mode` CLI.
        assert!(json.contains("\"hammer_modes\":[\"implicit-double-sided\""));
        // Key order: the axis sits between profiles and repetitions.
        let modes_at = json.find("hammer_modes").unwrap();
        assert!(json.find("profiles").unwrap() < modes_at);
        assert!(modes_at < json.find("repetitions").unwrap());
    }
}
