//! `Artifact::from_json` on damaged documents: byte substitutions,
//! truncations and deleted keys of the committed v1–v4 fixtures. Every
//! input must come back as a typed error or as an artefact that then
//! decides shapes of every routine; none may panic. A model float that
//! parses to infinity is refused at load.

use std::path::Path;

use adsala::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Value;

const FIXTURES: [&str; 4] =
    ["artifact_v1.json", "artifact_v2.json", "artifact_v3.json", "artifact_v4.json"];

fn fixture(index: usize) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(FIXTURES[index]);
    std::fs::read_to_string(path).expect("committed fixture")
}

/// Bytes a substitution writes: JSON's structure, number syntax and the
/// letters of its literals, so most damaged documents still parse.
const SUBSTITUTES: &[u8] = b"{}[],:\"-+.eE0123456789 ntfalsru";

/// `json` with the byte at a random position replaced (the fixtures are
/// ASCII, so the result is still a string).
fn substitute(json: &str, rng: &mut StdRng) -> String {
    let mut bytes = json.as_bytes().to_vec();
    let at = rng.gen_range(0..bytes.len());
    bytes[at] = SUBSTITUTES[rng.gen_range(0..SUBSTITUTES.len())];
    String::from_utf8(bytes).expect("ASCII fixtures stay ASCII")
}

/// `json` cut at a random position.
fn truncate(json: &str, rng: &mut StdRng) -> String {
    json[..rng.gen_range(0..json.len())].to_string()
}

/// Delete the key at `pick` (modulo its length) of the `target`-th object
/// of a tree, depth first, counting the objects passed in `seen`.
fn delete_in(value: &mut Value, target: usize, pick: usize, seen: &mut usize) {
    match value {
        Value::Map(entries) => {
            if *seen == target && !entries.is_empty() {
                entries.remove(pick % entries.len());
            }
            *seen += 1;
            entries.iter_mut().for_each(|(_, v)| delete_in(v, target, pick, seen));
        }
        Value::Seq(items) => items.iter_mut().for_each(|v| delete_in(v, target, pick, seen)),
        _ => {}
    }
}

/// `json` with one key of a random object deleted.
fn delete_key(json: &str, rng: &mut StdRng) -> String {
    let mut tree: Value = serde_json::from_str(json).expect("fixtures parse");
    let mut objects = 0;
    delete_in(&mut tree, usize::MAX, 0, &mut objects);
    let (target, pick) = (rng.gen_range(0..objects), rng.gen_range(0..usize::MAX));
    delete_in(&mut tree, target, pick, &mut 0);
    serde_json::to_string(&tree).expect("a tree renders")
}

/// Load a damaged document; an artefact that loads must serve.
fn load_and_decide(json: &str) -> Result<(), AdsalaError> {
    let service = Artifact::from_json(json)?.into_service();
    for shape in [
        OpShape::gemm(Precision::F32, 64, 64, 64),
        OpShape::gemm(Precision::F64, 3000, 200, 1),
        OpShape::gemm(Precision::F32, 1, 74_000, 1),
        OpShape::syrk(Precision::F32, 500, 30),
        OpShape::gemv(Precision::F64, 800, 1200),
    ] {
        let d = service.select_for_capped(shape, u32::MAX);
        assert!(d.threads() >= 1, "a decision names at least one thread");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn damaged_fixtures_load_or_fail_typed(
        which in 0usize..4,
        damage in 0usize..3,
        seed in 0u64..u64::MAX,
    ) {
        let json = fixture(which);
        let mut rng = StdRng::seed_from_u64(seed);
        let damaged = match damage {
            0 => substitute(&json, &mut rng),
            1 => truncate(&json, &mut rng),
            _ => delete_key(&json, &mut rng),
        };
        let outcome = std::panic::catch_unwind(|| load_and_decide(&damaged));
        prop_assert!(outcome.is_ok(), "{} (damage {damage}) panicked", FIXTURES[which]);
    }
}

#[test]
fn damaged_trees_fail_typed() {
    // Each was a panic, or a descent that never ends, once the document
    // loaded: a leaf turned into a split on a column past the row, and a
    // root that is its own left child.
    let json = fixture(3);
    let root = r#""trees":[[{"feature":2,"threshold":0.15638113599539438,"left":1,"#;
    assert!(json.contains(root));
    for damaged in [
        json.replacen(r#""feature":4294967295"#, r#""feature":4294967195"#, 1),
        json.replacen(root, &root.replace(r#""left":1"#, r#""left":0"#), 1),
    ] {
        match Artifact::from_json(&damaged) {
            Err(AdsalaError::Artifact(e)) => assert!(e.starts_with("model: "), "{e}"),
            other => panic!("expected a model error, got {:?}", other.map(|a| a.machine)),
        }
    }
}

#[test]
fn non_finite_model_floats_fail_typed() {
    // A float too large for `f64`, as a truncated or corrupted number can
    // be, parses to +∞: the load refuses it instead of serving decisions
    // from a model that predicts NaN.
    for (which, float) in
        [(2, r#""base_score":-2.37988641139787e-15"#), (3, r#""threshold":0.15638113599539438"#)]
    {
        let json = fixture(which);
        assert!(json.contains(float), "{} lost {float}", FIXTURES[which]);
        let key = &float[..float.find(':').expect("a key")];
        let damaged = json.replacen(float, &format!("{key}:1e999"), 1);
        match Artifact::from_json(&damaged) {
            Err(AdsalaError::Artifact(e)) => assert!(e.contains("non-finite"), "{e}"),
            other => panic!("expected a non-finite error, got {:?}", other.map(|a| a.machine)),
        }
    }
}
