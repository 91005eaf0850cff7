//! Round trips through the derives and serde's JSON: one per `#[serde]`
//! attribute the workspace uses, plus a generic struct and a nested one.
//! Each pins the compact and the pretty JSON text too, since the wire
//! format and the result files depend on them.

use serde::{Deserialize, Serialize};

/// Serialize compact and pretty, check both texts, and read each back.
fn round_trip<T>(value: &T, json: &str, pretty: &str)
where
    T: Serialize + Deserialize + PartialEq + std::fmt::Debug,
{
    let text = serde::to_string(value);
    assert_eq!(text, json);
    let indented = serde::to_string_pretty(value);
    assert_eq!(indented, pretty);
    for text in [text, indented] {
        let back: T = serde::from_str(&text).unwrap();
        assert_eq!(&back, value);
    }
}

fn three() -> u32 {
    3
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct FieldDefaults {
    name: String,
    #[serde(default)]
    count: u32,
    #[serde(default = "three")]
    retries: u32,
}

#[test]
fn field_default_fills_missing_fields() {
    let full = FieldDefaults {
        name: "a".into(),
        count: 7,
        retries: 9,
    };
    round_trip(
        &full,
        r#"{"name":"a","count":7,"retries":9}"#,
        "{\n  \"name\": \"a\",\n  \"count\": 7,\n  \"retries\": 9\n}",
    );
    let sparse: FieldDefaults = serde::from_str(r#"{"name":"b"}"#).unwrap();
    assert_eq!(
        sparse,
        FieldDefaults {
            name: "b".into(),
            count: 0,
            retries: 3,
        }
    );
    assert!(serde::from_str::<FieldDefaults>("{}").is_err());
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
#[serde(default)]
struct ContainerDefault {
    period_s: f64,
    depth: u32,
}

impl Default for ContainerDefault {
    fn default() -> Self {
        Self {
            period_s: 60.0,
            depth: 2,
        }
    }
}

#[test]
fn container_default_fills_from_the_default_value() {
    round_trip(
        &ContainerDefault {
            period_s: 1.5,
            depth: 4,
        },
        r#"{"period_s":1.5,"depth":4}"#,
        "{\n  \"period_s\": 1.5,\n  \"depth\": 4\n}",
    );
    let sparse: ContainerDefault = serde::from_str(r#"{"depth":9}"#).unwrap();
    assert_eq!(
        sparse,
        ContainerDefault {
            period_s: 60.0,
            depth: 9,
        }
    );
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Skips {
    id: u64,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    cap_w: Option<f64>,
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    tags: Vec<String>,
}

#[test]
fn skip_serializing_if_omits_empty_fields() {
    round_trip(
        &Skips {
            id: 1,
            cap_w: None,
            tags: Vec::new(),
        },
        r#"{"id":1}"#,
        "{\n  \"id\": 1\n}",
    );
    round_trip(
        &Skips {
            id: 2,
            cap_w: Some(95.0),
            tags: vec!["x".into()],
        },
        r#"{"id":2,"cap_w":95.0,"tags":["x"]}"#,
        "{\n  \"id\": 2,\n  \"cap_w\": 95.0,\n  \"tags\": [\n    \"x\"\n  ]\n}",
    );
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
enum Action {
    HoldSteady,
    SetMax(f64),
    Window { lo_ghz: f64, hi_ghz: f64 },
}

#[test]
fn rename_all_snake_case_renames_variants() {
    round_trip(&Action::HoldSteady, r#""hold_steady""#, r#""hold_steady""#);
    round_trip(
        &Action::SetMax(2.2),
        r#"{"set_max":2.2}"#,
        "{\n  \"set_max\": 2.2\n}",
    );
    round_trip(
        &Action::Window {
            lo_ghz: 0.8,
            hi_ghz: 2.2,
        },
        r#"{"window":{"lo_ghz":0.8,"hi_ghz":2.2}}"#,
        "{\n  \"window\": {\n    \"lo_ghz\": 0.8,\n    \"hi_ghz\": 2.2\n  }\n}",
    );
    assert!(serde::from_str::<Action>(r#""HoldSteady""#).is_err());
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
#[serde(tag = "type", rename_all = "snake_case")]
enum Governor {
    Stock,
    FixedUncore { ghz: f64 },
}

#[test]
fn tag_puts_the_variant_name_beside_the_fields() {
    round_trip(
        &Governor::Stock,
        r#"{"type":"stock"}"#,
        "{\n  \"type\": \"stock\"\n}",
    );
    round_trip(
        &Governor::FixedUncore { ghz: 1.2 },
        r#"{"type":"fixed_uncore","ghz":1.2}"#,
        "{\n  \"type\": \"fixed_uncore\",\n  \"ghz\": 1.2\n}",
    );
    let reordered: Governor = serde::from_str(r#"{"ghz":0.8,"type":"fixed_uncore"}"#).unwrap();
    assert_eq!(reordered, Governor::FixedUncore { ghz: 0.8 });
    assert!(serde::from_str::<Governor>(r#"{"ghz":0.8}"#).is_err());
    assert!(serde::from_str::<Governor>(r#"{"type":"turbo"}"#).is_err());
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
#[serde(untagged)]
enum Field {
    Bool(bool),
    U64(u64),
    I64(i64),
    F64(f64),
    Str(String),
}

#[test]
fn untagged_picks_the_first_variant_that_fits() {
    round_trip(&Field::Bool(true), "true", "true");
    round_trip(&Field::U64(3), "3", "3");
    round_trip(&Field::I64(-3), "-3", "-3");
    round_trip(&Field::F64(3.5), "3.5", "3.5");
    round_trip(&Field::Str("x".into()), r#""x""#, r#""x""#);
    assert!(serde::from_str::<Field>("null").is_err());
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Pair<T> {
    left: T,
    right: T,
}

#[test]
fn generic_struct_round_trips_for_each_parameter() {
    round_trip(
        &Pair {
            left: 1u32,
            right: 2,
        },
        r#"{"left":1,"right":2}"#,
        "{\n  \"left\": 1,\n  \"right\": 2\n}",
    );
    round_trip(
        &Pair {
            left: String::from("a"),
            right: String::from("b"),
        },
        r#"{"left":"a","right":"b"}"#,
        "{\n  \"left\": \"a\",\n  \"right\": \"b\"\n}",
    );
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Empty {}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Nested {
    empty: Empty,
    items: Vec<u32>,
    pairs: Vec<(u32, f64)>,
    governor: Governor,
    action: Action,
    field: Field,
    cap_w: Option<f64>,
    inner: Pair<Pair<u32>>,
}

#[test]
fn nesting_indents_every_level_and_writes_empty_containers_flat() {
    round_trip(&Empty {}, "{}", "{}");
    round_trip(&Vec::<u32>::new(), "[]", "[]");
    round_trip(
        &Nested {
            empty: Empty {},
            items: Vec::new(),
            pairs: vec![(1, 0.5)],
            governor: Governor::Stock,
            action: Action::SetMax(2.2),
            field: Field::Str("x".into()),
            cap_w: None,
            inner: Pair {
                left: Pair { left: 1, right: 2 },
                right: Pair { left: 3, right: 4 },
            },
        },
        concat!(
            r#"{"empty":{},"items":[],"pairs":[[1,0.5]],"governor":{"type":"stock"},"#,
            r#""action":{"set_max":2.2},"field":"x","cap_w":null,"#,
            r#""inner":{"left":{"left":1,"right":2},"right":{"left":3,"right":4}}}"#,
        ),
        r#"{
  "empty": {},
  "items": [],
  "pairs": [
    [
      1,
      0.5
    ]
  ],
  "governor": {
    "type": "stock"
  },
  "action": {
    "set_max": 2.2
  },
  "field": "x",
  "cap_w": null,
  "inner": {
    "left": {
      "left": 1,
      "right": 2
    },
    "right": {
      "left": 3,
      "right": 4
    }
  }
}"#,
    );
}

#[derive(Debug, PartialEq, Deserialize)]
struct FirstKeys {
    k0: u64,
    k1: u64,
    k2: u64,
}

#[test]
fn repeated_keys_keep_the_last_value() {
    for n in [3, 40] {
        let mut text = String::from("{");
        for i in 0..n {
            text.push_str(&format!("\"k{i}\":{i},"));
        }
        text.push_str(r#""k1":100,"k0":200,"k1":300}"#);
        let keys: FirstKeys = serde::from_str(&text).unwrap();
        assert_eq!(
            keys,
            FirstKeys {
                k0: 200,
                k1: 300,
                k2: 2
            },
            "{n} keys"
        );
        let map: std::collections::BTreeMap<String, u64> = serde::from_str(&text).unwrap();
        let mut want: std::collections::BTreeMap<String, u64> =
            (0..n).map(|i| (format!("k{i}"), i)).collect();
        want.insert("k0".into(), 200);
        want.insert("k1".into(), 300);
        assert_eq!(map, want, "{n} keys");
    }
}
