//! Prometheus-style text exposition of a metrics document: [`flatten`]
//! takes every numeric leaf of a sorted-key JSON document, [`render`]
//! writes each as one unlabelled `name value` line, and a strict
//! line-by-line parser, which takes exactly such lines, lets tests and the
//! CI smoke step assert that every emitted line is well-formed.  The
//! exposition is the document, so the two cannot drift apart.

use serde_json::Value;

/// One parsed sample line.
#[derive(Clone, Debug, PartialEq)]
pub struct PromSample {
    pub name: String,
    pub value: f64,
}

/// Flatten a metrics document into dotted keys, in document order.  Only
/// numeric leaves are taken: booleans, strings and arrays (the slow log)
/// are presentation, not counters.
pub fn flatten(doc: &Value) -> Vec<(String, f64)> {
    fn walk(prefix: &str, v: &Value, out: &mut Vec<(String, f64)>) {
        match v {
            Value::Object(pairs) => {
                for (k, v) in pairs {
                    let key = if prefix.is_empty() {
                        k.clone()
                    } else {
                        format!("{prefix}.{k}")
                    };
                    walk(&key, v, out);
                }
            }
            Value::Number(n) => out.push((prefix.to_string(), *n)),
            _ => {}
        }
    }
    let mut out = Vec::new();
    walk("", doc, &mut out);
    out
}

/// The exposition of `doc`: one unlabelled sample per [`flatten`] leaf,
/// named `prefix` plus the leaf's path, `_`-joined
/// (`service.cache.served` → `lec_service_cache_served`).
pub fn render(prefix: &str, doc: &Value) -> String {
    let mut out = String::new();
    for (key, value) in flatten(doc) {
        out.push_str(prefix);
        out.push('_');
        out.push_str(&key.replace('.', "_"));
        // Prometheus floats: integral values print without a fraction.
        if value.fract() == 0.0 && value.abs() < 1e15 {
            out.push_str(&format!(" {}\n", value as i64));
        } else {
            out.push_str(&format!(" {value}\n"));
        }
    }
    out
}

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Parse a full exposition.  Every non-empty, non-comment line must be an
/// unlabelled sample, as [`render`] writes it (a valid metric name, one
/// space, a numeric value), or the whole parse fails with a line-numbered
/// error.
pub fn parse_prometheus(text: &str) -> Result<Vec<PromSample>, String> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        out.push(parse_line(line).map_err(|e| format!("line {}: {e}: {line:?}", lineno + 1))?);
    }
    Ok(out)
}

fn parse_line(line: &str) -> Result<PromSample, String> {
    let (name, value_str) = line.split_once(' ').ok_or("missing value")?;
    if !valid_name(name) {
        return Err(format!("invalid metric name {name:?}"));
    }
    let value_str = value_str.trim_start();
    let value: f64 = value_str
        .parse()
        .map_err(|_| format!("non-numeric value {value_str:?}"))?;
    Ok(PromSample {
        name: name.to_string(),
        value,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_writes_one_sample_per_numeric_leaf() {
        let doc = serde_json::json!({
            "a": {"count": 42.0, "mean": 1.5, "name": "skipped"},
            "log": [{"n": 1.0}],
            "z": 0.0,
        });
        assert_eq!(
            flatten(&doc),
            vec![
                ("a.count".to_string(), 42.0),
                ("a.mean".to_string(), 1.5),
                ("z".to_string(), 0.0),
            ]
        );
        let text = render("lec", &doc);
        assert_eq!(text, "lec_a_count 42\nlec_a_mean 1.5\nlec_z 0\n");
        let parsed = parse_prometheus(&text).expect("parses");
        assert_eq!(parsed.len(), 3);
        assert_eq!(parsed[1].value, 1.5);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_prometheus("9bad_name 1").is_err());
        assert!(parse_prometheus("name_only").is_err());
        assert!(parse_prometheus("name abc").is_err());
        assert!(parse_prometheus("name{k=v} 1").is_err());
        assert!(parse_prometheus("name{k=\"v\" 1").is_err());
        assert!(parse_prometheus("name{k=\"v\"} 1").is_err());
        assert!(parse_prometheus("# comment\n\nok_name 3").unwrap().len() == 1);
    }
}
