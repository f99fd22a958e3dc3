//! Prometheus-style text exposition of a metrics document: [`flatten`]
//! takes every numeric leaf of a sorted-key JSON document, [`render`]
//! writes each as one unlabelled `name value` line, and a strict
//! line-by-line parser lets tests and the CI smoke step assert that every
//! emitted line is well-formed.  The exposition is the document, so the
//! two cannot drift apart.

use serde_json::Value;

/// One parsed sample line.
#[derive(Clone, Debug, PartialEq)]
pub struct PromSample {
    pub name: String,
    pub labels: Vec<(String, String)>,
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

/// Parse a full exposition. Every non-empty, non-comment line must be a
/// well-formed sample (valid metric name, quoted label values, numeric
/// value) or the whole parse fails with a line-numbered error.
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
    let (head, value_str) = match line.find('}') {
        Some(close) => {
            let rest = line[close + 1..].trim_start();
            (&line[..close + 1], rest)
        }
        None => {
            let sp = line.find(' ').ok_or("missing value")?;
            (&line[..sp], line[sp + 1..].trim_start())
        }
    };
    let (name, labels) = match head.find('{') {
        Some(open) => {
            if !head.ends_with('}') {
                return Err("unterminated label set".into());
            }
            (
                &head[..open],
                parse_labels(&head[open + 1..head.len() - 1])?,
            )
        }
        None => (head, Vec::new()),
    };
    if !valid_name(name) {
        return Err(format!("invalid metric name {name:?}"));
    }
    if value_str.is_empty() {
        return Err("missing value".into());
    }
    let value: f64 = value_str
        .parse()
        .map_err(|_| format!("non-numeric value {value_str:?}"))?;
    Ok(PromSample {
        name: name.to_string(),
        labels,
        value,
    })
}

fn parse_labels(body: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut chars = body.char_indices().peekable();
    let mut key_start = 0usize;
    loop {
        // Find `key="` then scan the quoted value honoring escapes.
        let eq = loop {
            match chars.next() {
                Some((i, '=')) => break i,
                Some((_, _)) => {}
                None => {
                    if body[key_start..].trim().is_empty() && labels.is_empty() && key_start == 0 {
                        return if body.trim().is_empty() {
                            Ok(labels)
                        } else {
                            Err("malformed label".into())
                        };
                    }
                    if body[key_start..].trim().is_empty() {
                        return Ok(labels);
                    }
                    return Err("label without value".into());
                }
            }
        };
        let key = body[key_start..eq].trim();
        if !valid_name(key) {
            return Err(format!("invalid label name {key:?}"));
        }
        match chars.next() {
            Some((_, '"')) => {}
            _ => return Err("label value not quoted".into()),
        }
        let mut value = String::new();
        loop {
            match chars.next() {
                Some((_, '\\')) => match chars.next() {
                    Some((_, 'n')) => value.push('\n'),
                    Some((_, c)) => value.push(c),
                    None => return Err("dangling escape".into()),
                },
                Some((_, '"')) => break,
                Some((_, c)) => value.push(c),
                None => return Err("unterminated label value".into()),
            }
        }
        labels.push((key.to_string(), value));
        match chars.next() {
            Some((i, ',')) => key_start = i + 1,
            None => return Ok(labels),
            Some((_, c)) => return Err(format!("expected ',' between labels, got {c:?}")),
        }
    }
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
        assert!(parsed.iter().all(|s| s.labels.is_empty()));
        assert_eq!(parsed[1].value, 1.5);
    }

    #[test]
    fn escaped_label_values_parse() {
        let parsed = parse_prometheus("m{k=\"a\\\"b\\\\c\\nd\",q=\"0.5\"} 1").expect("parses");
        assert_eq!(parsed[0].labels[0].1, "a\"b\\c\nd");
        assert_eq!(parsed[0].labels[1], ("q".into(), "0.5".into()));
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_prometheus("9bad_name 1").is_err());
        assert!(parse_prometheus("name_only").is_err());
        assert!(parse_prometheus("name abc").is_err());
        assert!(parse_prometheus("name{k=v} 1").is_err());
        assert!(parse_prometheus("name{k=\"v\" 1").is_err());
        assert!(parse_prometheus("# comment\n\nok_name 3").unwrap().len() == 1);
    }
}
