//! Persisted envelopes are pinned byte for byte.
//!
//! `fixtures/envelopes/` holds the files `Store::save_to_dir` wrote for
//! [`fixture_store`]: one `{"crc32": N, "doc": {...}}` envelope per
//! document. Saving the same store must reproduce those bytes exactly
//! (same canonical document JSON, same CRC-32), and loading them must
//! give back the same documents with nothing quarantined.

use std::path::{Path, PathBuf};

use datastore::{Metadata, Store};
use serde_json::json;

/// Two documents covering every JSON kind the writer emits: integers of
/// both signs, shortest-round-trip floats (an `f32` widened to `f64`
/// among them), escapes, `null`, nested and empty containers, metadata
/// parameters and a parent link.
fn fixture_store() -> Store {
    let store = Store::in_memory();
    let measurement = store
        .insert(
            "measurements",
            Metadata::created_by("mms-prototype")
                .with_param("mixture", "N2/O2")
                .with_param("samples", 25),
            &json!({
                "mixture": "N2/O2",
                "intensities": [0.1, -2.5e-7, 1e300, 3.0],
                "counts": [3, -4, 0],
                "calibrated": true,
                "note": json!(null),
                "label": "tab\t\"quoted\" \\ \u{1}"
            }),
        )
        .expect("insert measurement");
    store
        .insert(
            "deployed_models",
            Metadata::created_by("tool-4-deploy")
                .with_param("model", "ms")
                .with_param("model_version", 1)
                .with_parent(measurement),
            &json!({
                "name": "ms",
                "weights": json!([[f64::from(0.1f32), f64::from(-1.5f32)], Vec::<f64>::new()]),
                "empty": json!({})
            }),
        )
        .expect("insert model");
    store
}

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/envelopes")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spectroai-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// `(file name, bytes)` of every `.json` file in `dir`, sorted by name.
fn json_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("read dir")
        .map(|entry| entry.expect("dir entry").path())
        .filter(|path| path.extension().is_some_and(|e| e == "json"))
        .map(|path| {
            let name = path.file_name().expect("file name").to_string_lossy().into_owned();
            (name, std::fs::read(&path).expect("read file"))
        })
        .collect();
    files.sort();
    files
}

#[test]
fn envelope_fixture_bytes_are_unchanged() {
    let dir = temp_dir("envelope-fixture-save");
    fixture_store().save_to_dir(&dir).expect("save");
    let saved = json_files(&dir);
    let pinned = json_files(&fixture_dir());
    assert_eq!(pinned.len(), 2, "fixture holds one file per document");
    for ((name, bytes), (pinned_name, pinned_bytes)) in saved.iter().zip(&pinned) {
        assert_eq!(name, pinned_name);
        assert!(
            bytes == pinned_bytes,
            "{name} differs from the fixture:\n{}\n{}",
            String::from_utf8_lossy(bytes),
            String::from_utf8_lossy(pinned_bytes)
        );
    }
    assert_eq!(saved.len(), pinned.len());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn envelope_fixture_loads_to_the_same_documents() {
    // Loading quarantines by moving files, so load a copy of the fixture.
    let dir = temp_dir("envelope-fixture-load");
    std::fs::create_dir_all(&dir).expect("create dir");
    for (name, bytes) in json_files(&fixture_dir()) {
        std::fs::write(dir.join(name), bytes).expect("copy fixture");
    }
    let report = Store::load_from_dir_report(&dir).expect("load");
    assert_eq!(report.loaded, 2);
    assert!(report.quarantined.is_empty(), "{:?}", report.quarantined);
    let expected = fixture_store();
    assert_eq!(report.store.collections(), expected.collections());
    for name in expected.collections() {
        assert_eq!(report.store.collection(&name), expected.collection(&name));
    }
    // Saving what was loaded reproduces the fixture.
    let resaved = temp_dir("envelope-fixture-resave");
    report.store.save_to_dir(&resaved).expect("save");
    assert_eq!(json_files(&resaved), json_files(&fixture_dir()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&resaved).ok();
}
