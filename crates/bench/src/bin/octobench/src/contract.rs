//! What `BENCHMARK.json` publishes — workloads, metric names, units and
//! bounds — read from the file itself, which is compiled in. There is no
//! second copy of the tables: every run checks the metrics it emits
//! against these, and `selfcheck` takes its bounds from here.

use std::sync::OnceLock;

const BENCHMARK_JSON: &str = include_str!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../../../../BENCHMARK.json"
));

pub struct EndToEnd {
    pub name: String,
    pub unit: String,
    /// Relative worsening of the median that counts as a regression.
    pub bound: f64,
}

pub struct Published {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<EndToEnd>,
    /// `(name, unit)` of every per-layer metric.
    pub per_layer: Vec<(String, String)>,
}

fn parse(text: &str) -> Option<Published> {
    let doc: serde_json::Value = serde_json::from_str(text).ok()?;
    let text_of = |v: &serde_json::Value, key: &str| Some(v[key].as_str()?.to_string());
    Some(Published {
        workloads: doc["workloads"]
            .as_array()?
            .iter()
            .map(|w| text_of(w, "name"))
            .collect::<Option<_>>()?,
        end_to_end: doc["end_to_end"]
            .as_array()?
            .iter()
            .map(|m| {
                Some(EndToEnd {
                    name: text_of(m, "name")?,
                    unit: text_of(m, "unit")?,
                    bound: m["bound"].as_f64()?,
                })
            })
            .collect::<Option<_>>()?,
        per_layer: doc["per_layer"]
            .as_array()?
            .iter()
            .map(|m| Some((text_of(m, "name")?, text_of(m, "unit")?)))
            .collect::<Option<_>>()?,
    })
}

pub fn published() -> &'static Published {
    static PUBLISHED: OnceLock<Published> = OnceLock::new();
    PUBLISHED.get_or_init(|| {
        parse(BENCHMARK_JSON).expect("BENCHMARK.json is compiled in and well-formed")
    })
}

/// Names and units a result must carry, for `--trace` 1 or 0.
pub fn expected(trace: bool) -> Vec<(&'static str, &'static str)> {
    let p = published();
    if trace {
        p.per_layer
            .iter()
            .map(|(name, unit)| (name.as_str(), unit.as_str()))
            .collect()
    } else {
        p.end_to_end
            .iter()
            .map(|m| (m.name.as_str(), m.unit.as_str()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    #[test]
    fn benchmark_json_names_the_workloads_this_binary_runs() {
        let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(published().workloads, ours);
    }

    #[test]
    fn names_units_and_bounds_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in expected(false).into_iter().chain(expected(true)) {
            assert!(seen.insert(name), "{name} used twice");
            assert!(
                name.len() <= 64
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
        let e2e = &published().end_to_end;
        assert!(e2e.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(e2e.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
    }
}
