//! The derived codec of the persisted shapes against old data (the committed
//! goldens) and hostile input (truncated and byte-mutated bodies).

use std::collections::BTreeSet;

use proptest::prelude::*;
use pthammer_harness::{
    cell_seed, cell_store_key, store_manifest, CampaignConfig, CampaignReport, CellKey, CellLookup,
    CellReport, CellStore, DefenseChoice, HammerMode, MachineChoice, ProfileChoice, ScenarioMatrix,
    VictimChoice,
};
use pthammer_patterns::PatternChoice;
use serde::Deserialize;

const GOLDENS: [(&str, &str); 3] = [
    (
        "campaign_ci_matrix",
        include_str!("../../../tests/golden/campaign_ci_matrix.json"),
    ),
    (
        "campaign_trr_matrix",
        include_str!("../../../tests/golden/campaign_trr_matrix.json"),
    ),
    (
        "campaign_victim_matrix",
        include_str!("../../../tests/golden/campaign_victim_matrix.json"),
    ),
];

fn decode<T: Deserialize>(text: &str) -> Result<T, serde_json::Error> {
    serde_json::from_str(text).and_then(serde_json::from_value)
}

#[test]
fn golden_reports_decode_and_reencode_byte_identically() {
    let mut keys = BTreeSet::new();
    for (name, golden) in GOLDENS {
        let report: CampaignReport =
            decode(golden).unwrap_or_else(|e| panic!("{name} does not decode: {e}"));
        assert_eq!(report.to_canonical_json(), golden, "{name} re-encodes");

        // Row by row, as a store serves them.
        let value = serde_json::from_str(golden).unwrap();
        let rows = value.get("cells").and_then(|c| c.as_array()).unwrap();
        assert_eq!(rows.len(), report.cells.len());
        for (row, cell) in rows.iter().zip(&report.cells) {
            let decoded: CellReport = serde_json::from_value(row.clone()).unwrap();
            assert_eq!(&decoded, cell, "{name}");
            let body = serde_json::to_string(&decoded).unwrap();
            assert_eq!(decode::<CellReport>(&body).unwrap(), decoded);
            keys.extend(row.as_object().unwrap().iter().map(|(k, _)| k.clone()));
        }
    }
    // Together the goldens exercise every conditional row key but the
    // hammer mode (covered by the report unit tests).
    for key in [
        "pattern",
        "victim",
        "trr_refreshes",
        "exploit_succeeded",
        "time_to_exploit",
    ] {
        assert!(keys.contains(key), "no golden row carries `{key}`");
    }
}

/// The canonical body of one victim-sweep cell, as a store holds it.
fn canonical_row() -> String {
    let (_, victim_golden) = GOLDENS[2];
    let report: CampaignReport = decode(victim_golden).unwrap();
    serde_json::to_string(&report.cells[1]).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]
    // A truncated or byte-mutated row either fails to decode or decodes to
    // a value whose re-encoding decodes back to it.
    #[test]
    fn mutated_bodies_decode_or_fail_without_panicking(
        mode in 0u8..3,
        cut in 0usize..2048,
        pos in 0usize..2048,
        byte in any::<u8>(),
    ) {
        let mut bytes = canonical_row().into_bytes();
        if mode != 0 {
            let at = pos % bytes.len();
            bytes[at] = byte;
        }
        if mode != 1 {
            bytes.truncate(cut % bytes.len());
        }
        let text = String::from_utf8_lossy(&bytes);
        if let Ok(value) = decode::<CellReport>(&text) {
            let again = decode::<CellReport>(&serde_json::to_string(&value).unwrap());
            prop_assert!(
                again.as_ref().ok() == Some(&value),
                "{value:?} re-decodes as {again:?}"
            );
        }
    }
}

/// The encodings a cell's coordinates take outside the report: its store
/// key, its `Display` label and its seed. Stores, logs and goldens written
/// by any earlier build depend on these exact strings and numbers.
#[test]
fn cell_keys_labels_and_seeds_are_pinned() {
    let default_cell = ScenarioMatrix::ci_default().cells()[0];
    let swept_cell = ScenarioMatrix::new(
        vec![MachineChoice::TestSmall],
        vec![DefenseChoice::Catt],
        vec![ProfileChoice::Ci],
        2,
    )
    .with_hammer_modes(vec![HammerMode::ImplicitOneLocation])
    .with_patterns(vec![Some(PatternChoice::Synthesized)])
    .with_victims(vec![Some(VictimChoice::KeyRecovery)])
    .cells()[1];
    let pinned = [
        (
            default_cell,
            "pthammer-cell|s1|machine=Test Small|defense=undefended|profile=ci\
             |mode=implicit-double-sided|rep=0",
            "machine=Test Small defense=undefended profile=ci \
             mode=implicit-double-sided pattern=none victim=none rep=0",
            6_256_652_296_684_258_328,
        ),
        (
            swept_cell,
            "pthammer-cell|s1|machine=Test Small|defense=CATT|profile=ci\
             |mode=implicit-one-location|rep=1|pattern=synthesized|victim=key-recovery",
            "machine=Test Small defense=CATT profile=ci mode=implicit-one-location \
             pattern=synthesized victim=key-recovery rep=1",
            3_285_547_425_079_459_018,
        ),
    ];
    for (coord, key, label, seed) in pinned {
        assert_eq!(
            cell_store_key(&coord),
            CellKey::from_canonical(key),
            "{coord}"
        );
        assert_eq!(coord.to_string(), label);
        assert_eq!(cell_seed(2026, &coord), seed, "{coord}");
    }
}

/// A stored row naming a machine, defense or profile this build does not
/// know, or missing one, fails to decode, with the field in the error, and
/// the store serves it as corrupt, so a resumed campaign recomputes the
/// cell.
#[test]
fn unknown_coordinate_names_fail_to_decode_and_read_as_corrupt() {
    let row = canonical_row();
    let coord = decode::<CellReport>(&row).unwrap().coord;
    let root = std::env::temp_dir().join(format!("pthammer-codec-names-{}", std::process::id()));
    let _ = CellStore::wipe(&root);
    let store = CellStore::open(&root, &store_manifest(&CampaignConfig::ci(0))).unwrap();
    let key = cell_store_key(&coord);
    for (from, to, field) in [
        ("Test Small", "Test Tiny", "machine"),
        ("undefended", "unguarded", "defense"),
        ("\"ci\"", "\"weak\"", "profile"),
        ("\"profile\":\"ci\",", "", "profile"),
    ] {
        let bad = row.replacen(from, to, 1);
        assert_ne!(bad, row, "{from} not in {row}");
        let err = decode::<CellReport>(&bad).unwrap_err().to_string();
        assert!(err.contains(&format!("`{field}`")), "{err}");

        store.put(&key, &bad).unwrap();
        assert!(store.contains(&key), "the entry itself verifies");
        assert!(matches!(
            store.lookup::<CellReport>(&key),
            CellLookup::Corrupt
        ));
    }
    store.put(&key, &row).unwrap();
    assert!(matches!(store.lookup::<CellReport>(&key), CellLookup::Hit(r) if r.coord == coord));
    CellStore::wipe(&root).unwrap();
}
