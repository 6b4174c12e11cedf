//! The declarative scenario matrix: which cells a campaign runs, and the
//! one table of its axes.
//!
//! This is the only file that knows the axes. Each one is a field of
//! [`CellCoord`] and of [`ScenarioMatrix`] (and of [`SummaryGroup`] when
//! summaries split by it) plus one row of [`AXES`]. Every encoding of a
//! coordinate iterates that table: the report-row codec, the summary-group
//! codec, the `Display` label, the store key and the cell seed. So do the
//! cross product ([`ScenarioMatrix::cells`], [`ScenarioMatrix::groups`]),
//! [`ScenarioMatrix::len`] and [`ScenarioMatrix::validate`].

use std::fmt;

use pthammer::{HammerMode, VictimChoice};
use pthammer_defenses::DefenseChoice;
use pthammer_dram::FlipModelProfile;
use pthammer_machine::MachineChoice;
use pthammer_patterns::PatternChoice;
use serde::de::{self, Value};
use serde::ser::JsonWriter;
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
///
/// Report rows carry it flattened, spelled as the axis table says: names
/// rather than the matrix's variant identifiers (`"Test Small"`,
/// `"undefended"`, `"ci"`), and the keys of later axes only when they leave
/// their default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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
    /// exploit outcome; `None` runs the default PTE-takeover victim.
    pub victim: Option<VictimChoice>,
    /// Repetition index (varies only the seed).
    pub repetition: u32,
}

/// The coordinates one summary row aggregates over: [`CellCoord`] without
/// the machine and repetition axes, whose cells a summary pools.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SummaryGroup {
    /// Active defense.
    pub defense: DefenseChoice,
    /// Weak-cell profile of the DRAM.
    pub profile: ProfileChoice,
    /// Hammer strategy.
    pub hammer_mode: HammerMode,
    /// Many-sided pattern source, if any.
    pub pattern: Option<PatternChoice>,
    /// Explicitly swept victim, if any.
    pub victim: Option<VictimChoice>,
}

impl CellCoord {
    /// A cell on the default hammer mode, with no pattern and the default
    /// victim. Set the other axes with struct-update syntax:
    /// `CellCoord { pattern: Some(choice), ..CellCoord::new(machine,
    /// defense, profile, 0) }`.
    pub fn new(
        machine: MachineChoice,
        defense: DefenseChoice,
        profile: ProfileChoice,
        repetition: u32,
    ) -> Self {
        Self {
            machine,
            defense,
            profile,
            hammer_mode: HammerMode::default(),
            pattern: None,
            victim: None,
            repetition,
        }
    }

    /// A placeholder cell. Decoding and the cross product overwrite the
    /// axes they set; the others keep the defaults [`CellCoord::new`]
    /// gives, which [`Axis::holds_default`] compares against.
    fn base() -> Self {
        Self::new(
            MachineChoice::TestSmall,
            DefenseChoice::None,
            ProfileChoice::Ci,
            0,
        )
    }

    /// The summary group this cell belongs to.
    pub fn group(&self) -> SummaryGroup {
        SummaryGroup {
            defense: self.defense,
            profile: self.profile,
            hammer_mode: self.hammer_mode,
            pattern: self.pattern,
            victim: self.victim,
        }
    }

    /// The seeded axes' values joined by `|`, e.g. `Test Small|ci|0`: what
    /// [`cell_seed`](crate::cell_seed) hashes.
    pub(crate) fn seed_label(&self) -> String {
        let values: Vec<String> = AXES
            .iter()
            .filter(|axis| axis.seeded)
            .map(|axis| (axis.spell)(self).to_string())
            .collect();
        values.join("|")
    }

    /// The coordinate part of the cell's store key, e.g.
    /// `machine=Test Small|defense=undefended|profile=ci|mode=…|rep=0`,
    /// with `|pattern=synthesized` appended only for a cell that sets it.
    pub(crate) fn store_label(&self) -> String {
        self.labelled(DefaultIn::KeysAndLabels).join("|")
    }

    /// `key=value` for each axis of an encoding, in its order: first the
    /// axes it writes even at their default, in table order, then the
    /// others, each only when the cell moves it off its default. So a cell
    /// that leaves an axis at its default keeps the encoding it had before
    /// the axis existed.
    fn labelled(&self, encoding: DefaultIn) -> Vec<String> {
        let (always, when_set): (Vec<&Axis>, Vec<&Axis>) =
            AXES.iter().partition(|axis| axis.default_in >= encoding);
        always
            .into_iter()
            .chain(
                when_set
                    .into_iter()
                    .filter(|axis| !axis.holds_default(self)),
            )
            .map(|axis| format!("{}={}", axis.label_key, (axis.spell)(self)))
            .collect()
    }

    /// Writes `axes` as members of the object `w` has open, in table order,
    /// leaving out axes whose default rows do not write.
    fn write_row<'a>(&self, axes: impl Iterator<Item = &'a Axis>, w: &mut JsonWriter) {
        for axis in axes {
            if axis.default_in < DefaultIn::Everywhere && axis.holds_default(self) {
                continue;
            }
            w.key(axis.row_key);
            match (axis.spell)(self) {
                Spelling::Name(name) => w.string(name),
                Spelling::Index(index) => index.serialize(w),
            }
        }
    }

    /// Reads `axes` from a row object, the inverse of
    /// [`write_row`](Self::write_row). Names are looked up strictly: an
    /// unknown machine, defense or profile is an error naming its key.
    fn read_row<'a>(
        value: &Value,
        axes: impl Iterator<Item = &'a Axis>,
    ) -> Result<Self, de::Error> {
        let object = de::object(value, "CellCoord")?;
        let mut coord = Self::base();
        for axis in axes {
            match object.get(axis.row_key) {
                Some(v) => (axis.parse)(v, &mut coord)
                    .map_err(|e| de::Error::custom(format!("`{}`: {e}", axis.row_key)))?,
                None if axis.default_in == DefaultIn::Everywhere => {
                    return Err(de::Error::custom(format!(
                        "missing field `{}`",
                        axis.row_key
                    )))
                }
                None => {}
            }
        }
        Ok(coord)
    }
}

impl SummaryGroup {
    /// The same group on the undefended baseline, which
    /// `escalation_rate_delta_vs_undefended` compares against.
    pub(crate) fn baseline(&self) -> Self {
        Self {
            defense: DefenseChoice::None,
            ..*self
        }
    }

    /// Whether the group's cells report their victim's exploit outcome:
    /// exactly the groups that sweep an explicit victim.
    pub(crate) fn reports_exploits(&self) -> bool {
        self.victim.is_some()
    }

    /// A cell of this group, its other axes at their base values.
    fn cell(&self) -> CellCoord {
        CellCoord {
            defense: self.defense,
            profile: self.profile,
            hammer_mode: self.hammer_mode,
            pattern: self.pattern,
            victim: self.victim,
            ..CellCoord::base()
        }
    }
}

/// One axis value as rows, keys and labels spell it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Spelling {
    /// A named choice; rows write it as a JSON string.
    Name(&'static str),
    /// An index; rows write it as a JSON integer.
    Index(u32),
}

impl fmt::Display for Spelling {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Spelling::Name(name) => f.write_str(name),
            Spelling::Index(index) => write!(f, "{index}"),
        }
    }
}

/// Which encodings write an axis even when it holds its default value,
/// each level including the ones before it. An axis added after an encoding
/// was first pinned leaves its default out of that encoding, so rows,
/// summaries, store keys and labels of cells that never move it stay
/// byte-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum DefaultIn {
    /// `Display` labels only.
    Labels,
    /// Store keys and labels, not rows.
    KeysAndLabels,
    /// Every encoding; rows require the axis when decoding.
    Everywhere,
}

/// One axis of the campaign matrix: how a coordinate on it is spelled,
/// swept and seeded.
struct Axis {
    /// Key in report rows and summaries.
    row_key: &'static str,
    /// Key in store keys and `Display` labels.
    label_key: &'static str,
    /// Which encodings write its default value.
    default_in: DefaultIn,
    /// Whether it enters [`cell_seed`](crate::cell_seed). Cells that differ
    /// only on unseeded axes share their seed, so they attack the same DRAM
    /// weak-cell map with the same attacker randomness, and the deltas
    /// between them isolate the axis (Section IV-G's methodology).
    seeded: bool,
    /// Whether summaries split by it; the others are pooled.
    grouped: bool,
    /// How many values the matrix sweeps.
    len: fn(&ScenarioMatrix) -> usize,
    /// Sets the coordinate to the matrix's `i`-th value.
    pick: fn(&ScenarioMatrix, usize, &mut CellCoord),
    /// The coordinate's value.
    spell: fn(&CellCoord) -> Spelling,
    /// Sets the coordinate from its row value.
    parse: fn(&Value, &mut CellCoord) -> Result<(), de::Error>,
}

impl Axis {
    /// Whether `coord` holds this axis's default (the value
    /// [`CellCoord::new`] gives it).
    fn holds_default(&self, coord: &CellCoord) -> bool {
        (self.spell)(coord) == (self.spell)(&CellCoord::base())
    }
}

/// Decodes a named choice by looking its name up among `all`.
fn by_name<T: Copy>(
    value: &Value,
    all: &[T],
    name: fn(&T) -> &'static str,
) -> Result<T, de::Error> {
    let s = String::deserialize(value)?;
    all.iter()
        .copied()
        .find(|t| name(t) == s)
        .ok_or_else(|| de::Error::custom(format!("unknown name `{s}`")))
}

/// The axes, in the order cells, rows and labels list them.
const AXES: [Axis; 7] = [
    Axis {
        row_key: "machine",
        label_key: "machine",
        default_in: DefaultIn::Everywhere,
        seeded: true,
        grouped: false,
        len: |m| m.machines.len(),
        pick: |m, i, c| c.machine = m.machines[i],
        spell: |c| Spelling::Name(c.machine.name()),
        parse: |v, c| {
            by_name(v, &MachineChoice::every(), MachineChoice::name).map(|x| c.machine = x)
        },
    },
    Axis {
        row_key: "defense",
        label_key: "defense",
        default_in: DefaultIn::Everywhere,
        seeded: false,
        grouped: true,
        len: |m| m.defenses.len(),
        pick: |m, i, c| c.defense = m.defenses[i],
        spell: |c| Spelling::Name(c.defense.name()),
        parse: |v, c| by_name(v, &DefenseChoice::all(), DefenseChoice::name).map(|x| c.defense = x),
    },
    Axis {
        row_key: "profile",
        label_key: "profile",
        default_in: DefaultIn::Everywhere,
        seeded: true,
        grouped: true,
        len: |m| m.profiles.len(),
        pick: |m, i, c| c.profile = m.profiles[i],
        spell: |c| Spelling::Name(c.profile.name()),
        parse: |v, c| by_name(v, &ProfileChoice::all(), ProfileChoice::name).map(|x| c.profile = x),
    },
    Axis {
        row_key: "hammer_mode",
        label_key: "mode",
        default_in: DefaultIn::KeysAndLabels,
        seeded: false,
        grouped: true,
        len: |m| m.hammer_modes.len(),
        pick: |m, i, c| c.hammer_mode = m.hammer_modes[i],
        spell: |c| Spelling::Name(c.hammer_mode.name()),
        parse: |v, c| Deserialize::deserialize(v).map(|x| c.hammer_mode = x),
    },
    Axis {
        row_key: "pattern",
        label_key: "pattern",
        default_in: DefaultIn::Labels,
        seeded: false,
        grouped: true,
        len: |m| m.patterns.len(),
        pick: |m, i, c| c.pattern = m.patterns[i],
        spell: |c| Spelling::Name(c.pattern.map_or("none", |p| p.name())),
        parse: |v, c| Deserialize::deserialize(v).map(|x| c.pattern = x),
    },
    Axis {
        row_key: "victim",
        label_key: "victim",
        default_in: DefaultIn::Labels,
        seeded: false,
        grouped: true,
        len: |m| m.victims.len(),
        pick: |m, i, c| c.victim = m.victims[i],
        spell: |c| Spelling::Name(c.victim.map_or("none", |v| v.name())),
        parse: |v, c| Deserialize::deserialize(v).map(|x| c.victim = x),
    },
    Axis {
        row_key: "repetition",
        label_key: "rep",
        default_in: DefaultIn::Everywhere,
        seeded: true,
        grouped: false,
        len: |m| m.repetitions as usize,
        pick: |_, i, c| c.repetition = i as u32,
        spell: |c| Spelling::Index(c.repetition),
        parse: |v, c| Deserialize::deserialize(v).map(|x| c.repetition = x),
    },
];

/// The axes a summary row splits by.
fn grouped_axes() -> impl Iterator<Item = &'static Axis> {
    AXES.iter().filter(|axis| axis.grouped)
}

/// Every coordinate, e.g. `machine=Test Small defense=undefended profile=ci
/// mode=implicit-double-sided pattern=none victim=key-recovery rep=1`.
impl fmt::Display for CellCoord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.labelled(DefaultIn::Labels).join(" "))
    }
}

impl Serialize for CellCoord {
    fn serialize(&self, w: &mut JsonWriter) {
        w.begin_object();
        self.serialize_fields(w);
        w.end_object();
    }

    fn serialize_fields(&self, w: &mut JsonWriter) {
        self.write_row(AXES.iter(), w);
    }
}

impl Deserialize for CellCoord {
    fn deserialize(value: &Value) -> Result<Self, de::Error> {
        Self::read_row(value, AXES.iter())
    }
}

impl Serialize for SummaryGroup {
    fn serialize(&self, w: &mut JsonWriter) {
        w.begin_object();
        self.serialize_fields(w);
        w.end_object();
    }

    fn serialize_fields(&self, w: &mut JsonWriter) {
        self.cell().write_row(grouped_axes(), w);
    }
}

impl Deserialize for SummaryGroup {
    fn deserialize(value: &Value) -> Result<Self, de::Error> {
        CellCoord::read_row(value, grouped_axes()).map(|cell| cell.group())
    }
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

    /// Each axis with the number of values the matrix sweeps on it.
    fn extents(&self) -> impl Iterator<Item = (&'static Axis, usize)> + '_ {
        AXES.iter().map(move |axis| (axis, (axis.len)(self)))
    }

    /// Number of cells in the matrix.
    pub fn len(&self) -> usize {
        self.extents().map(|(_, len)| len).product()
    }

    /// Whether the matrix is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materializes the cells in canonical (machine-major) order. Cell order
    /// determines report row order — and nothing else; per-cell seeds hash
    /// coordinates, not positions.
    pub fn cells(&self) -> Vec<CellCoord> {
        self.product(|_| true)
    }

    /// The summary groups in matrix order: one per combination of the axes
    /// summaries split by.
    pub fn groups(&self) -> Vec<SummaryGroup> {
        self.product(|axis| axis.grouped)
            .iter()
            .map(CellCoord::group)
            .collect()
    }

    /// The cross product of the axes `swept` selects, in table order with
    /// the last axis varying fastest; the other axes hold their first value.
    fn product(&self, swept: impl Fn(&Axis) -> bool) -> Vec<CellCoord> {
        if self.is_empty() {
            return Vec::new();
        }
        let mut cells = vec![CellCoord::base()];
        for (axis, len) in self.extents() {
            let values = if swept(axis) { len } else { 1 };
            cells = cells
                .into_iter()
                .flat_map(|cell| {
                    (0..values).map(move |i| {
                        let mut cell = cell;
                        (axis.pick)(self, i, &mut cell);
                        cell
                    })
                })
                .collect();
        }
        cells
    }

    /// Validates the matrix.
    ///
    /// # Errors
    ///
    /// Returns a description of the problem if any axis is empty.
    pub fn validate(&self) -> Result<(), String> {
        match self.extents().find(|&(_, len)| len == 0) {
            Some((axis, _)) => Err(format!("matrix has no `{}` values", axis.row_key)),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn compact<T: Serialize>(value: &T) -> String {
        serde_json::to_string(value).unwrap()
    }

    fn decode<T: Deserialize>(body: &str) -> Result<T, String> {
        serde_json::from_str(body)
            .and_then(serde_json::from_value)
            .map_err(|e| e.to_string())
    }

    /// A matrix sweeping two values on every axis.
    fn every_axis_swept() -> ScenarioMatrix {
        let m = ScenarioMatrix::new(
            vec![MachineChoice::TestSmall, MachineChoice::TestSmallTrr],
            vec![DefenseChoice::None, DefenseChoice::Catt],
            vec![ProfileChoice::Ci, ProfileChoice::Invulnerable],
            2,
        )
        .with_hammer_modes(vec![
            HammerMode::ImplicitDoubleSided,
            HammerMode::ImplicitOneLocation,
        ])
        .with_patterns(vec![None, Some(PatternChoice::Synthesized)])
        .with_victims(vec![None, Some(VictimChoice::KeyRecovery)]);
        for (axis, len) in m.extents() {
            assert_eq!(len, 2, "sweep two `{}` values here", axis.row_key);
        }
        m
    }

    #[test]
    fn seeds_depend_on_exactly_the_seeded_axes() {
        let cells = every_axis_swept().cells();
        for a in &cells {
            for b in &cells {
                let same_seeded_values = AXES
                    .iter()
                    .filter(|axis| axis.seeded)
                    .all(|axis| (axis.spell)(a) == (axis.spell)(b));
                assert_eq!(
                    crate::cell_seed(1, a) == crate::cell_seed(1, b),
                    same_seeded_values,
                    "{a} / {b}"
                );
            }
            assert_ne!(crate::cell_seed(1, a), crate::cell_seed(2, a));
        }
    }

    #[test]
    fn store_keys_and_labels_tell_every_cell_apart() {
        let cells = every_axis_swept().cells();
        let keys: HashSet<_> = cells.iter().map(crate::cell_store_key).collect();
        let labels: HashSet<_> = cells.iter().map(ToString::to_string).collect();
        assert_eq!(keys.len(), cells.len());
        assert_eq!(labels.len(), cells.len());
    }

    #[test]
    fn rows_and_groups_round_trip_and_leave_defaults_out() {
        let m = every_axis_swept();
        for cell in m.cells() {
            assert_eq!(decode::<CellCoord>(&compact(&cell)), Ok(cell));
            let group = cell.group();
            assert_eq!(decode::<SummaryGroup>(&compact(&group)), Ok(group));
        }
        let plain = m.cells()[0];
        assert_eq!(
            compact(&plain),
            r#"{"machine":"Test Small","defense":"undefended","profile":"ci","repetition":0}"#
        );
        assert_eq!(
            compact(&plain.group()),
            r#"{"defense":"undefended","profile":"ci"}"#
        );
        let swept = CellCoord {
            hammer_mode: HammerMode::ImplicitOneLocation,
            pattern: Some(PatternChoice::Synthesized),
            victim: Some(VictimChoice::KeyRecovery),
            ..CellCoord::new(
                MachineChoice::TestSmallTrr,
                DefenseChoice::Catt,
                ProfileChoice::Invulnerable,
                1,
            )
        };
        assert_eq!(
            compact(&swept),
            r#"{"machine":"Test Small TRR","defense":"CATT","profile":"invulnerable","#.to_string()
                + r#""hammer_mode":"implicit-one-location","pattern":"synthesized","#
                + r#""victim":"key-recovery","repetition":1}"#
        );
    }

    #[test]
    fn groups_pool_machines_and_repetitions_in_matrix_order() {
        let m = every_axis_swept();
        let groups = m.groups();
        let pooled = AXES.iter().filter(|axis| !axis.grouped).count();
        assert_eq!(groups.len(), m.len() >> pooled);
        assert_eq!(groups.iter().collect::<HashSet<_>>().len(), groups.len());
        let mut seen: Vec<SummaryGroup> = m.cells().iter().map(CellCoord::group).collect();
        seen.dedup();
        assert_eq!(
            seen,
            groups.repeat(m.machines.len()),
            "each machine repeats the groups"
        );
    }

    #[test]
    fn presets_are_cross_products_in_canonical_order() {
        for (m, len) in [
            (ScenarioMatrix::ci_default(), 30),
            (
                ScenarioMatrix::ci_default().with_hammer_modes(HammerMode::all()),
                120,
            ),
            (ScenarioMatrix::trr_pattern_ci(), 24),
            (ScenarioMatrix::victim_sweep_ci(), 24),
            (every_axis_swept(), 1 << AXES.len()),
        ] {
            assert!(m.validate().is_ok());
            let cells = m.cells();
            assert_eq!((m.len(), cells.len()), (len, len));
            assert_eq!(cells.iter().collect::<HashSet<_>>().len(), len);
            // The first cell takes every axis's first value; repetitions
            // vary fastest.
            for axis in &AXES {
                let mut first = cells[0];
                (axis.pick)(&m, 0, &mut first);
                assert_eq!(first, cells[0], "{}", axis.row_key);
            }
            assert_eq!(
                cells[1],
                CellCoord {
                    repetition: 1,
                    ..cells[0]
                }
            );
        }
    }

    #[test]
    fn empty_axes_are_rejected() {
        let mut m = ScenarioMatrix::ci_default();
        m.defenses.clear();
        assert!(m.validate().is_err());
        assert!(m.is_empty());
        assert!(m.cells().is_empty());
        let mut m = ScenarioMatrix::ci_default();
        m.repetitions = 0;
        assert!(m.validate().is_err());
        for m in [
            ScenarioMatrix::ci_default().with_hammer_modes(vec![]),
            ScenarioMatrix::ci_default().with_patterns(vec![]),
            ScenarioMatrix::ci_default().with_victims(vec![]),
        ] {
            assert!(m.validate().is_err());
        }
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
    fn unswept_axes_serialize_as_before_they_existed() {
        let plain = compact(&ScenarioMatrix::ci_default());
        for (matrix, swept) in [
            (
                ScenarioMatrix::ci_default().with_hammer_modes(HammerMode::all()),
                r#""hammer_modes":["implicit-double-sided","#,
            ),
            (
                ScenarioMatrix::trr_pattern_ci(),
                r#""patterns":[null,"synthesized","uniform-4-sided"]"#,
            ),
            (
                ScenarioMatrix::victim_sweep_ci(),
                r#""victims":["pte-takeover","cred-corruption","key-recovery"]"#,
            ),
        ] {
            let key = &swept[..swept.find(':').unwrap()];
            assert!(!plain.contains(key), "{plain}");
            // The same kebab-case spelling as cell rows, between the
            // profiles and the repetitions; unswept axes decode to their
            // default.
            let json = compact(&matrix);
            assert_eq!(decode::<ScenarioMatrix>(&json), Ok(matrix));
            assert_eq!(
                decode::<ScenarioMatrix>(&plain),
                Ok(ScenarioMatrix::ci_default())
            );
            let at = json.find(swept).unwrap_or_else(|| panic!("{json}"));
            assert!(json.find("profiles").unwrap() < at);
            assert!(at < json.find("repetitions").unwrap());
        }
    }
}
