//! Indented JSON for the files the harness writes (`predict
//! --example-config`, `--json PATH`). Documents are `cos_gate::json`
//! trees, read back with `cos_gate::json::parse`; only the two-space
//! layout lives here, as the gate writes compact JSON alone.

use cos_gate::json::{write_json_string, Value};

/// Builds an object value from `(key, value)` pairs.
pub fn object(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Number-or-null from an optional value.
pub fn opt_number(v: Option<f64>) -> Value {
    v.map_or(Value::Null, Value::Number)
}

/// Renders `value` with two-space indentation, one member or item per
/// line; scalars and empty containers are written as the gate writes them.
pub fn to_string_pretty(value: &Value) -> String {
    let mut out = String::new();
    write(&mut out, value, 0);
    out
}

fn write(out: &mut String, value: &Value, depth: usize) {
    match value {
        Value::Array(items) if !items.is_empty() => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                start_member(out, i, depth + 1);
                write(out, item, depth + 1);
            }
            newline(out, depth);
            out.push(']');
        }
        Value::Object(pairs) if !pairs.is_empty() => {
            out.push('{');
            for (i, (key, item)) in pairs.iter().enumerate() {
                start_member(out, i, depth + 1);
                write_json_string(out, key);
                out.push_str(": ");
                write(out, item, depth + 1);
            }
            newline(out, depth);
            out.push('}');
        }
        scalar => out.push_str(&scalar.encode()),
    }
}

/// Member `i` of a container opens its own line at `depth`, after a
/// separating comma unless it is the first.
fn start_member(out: &mut String, i: usize, depth: usize) {
    if i > 0 {
        out.push(',');
    }
    newline(out, depth);
}

fn newline(out: &mut String, depth: usize) {
    out.push('\n');
    for _ in 0..depth {
        out.push_str("  ");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cos_gate::json::parse;

    #[test]
    fn pretty_output_is_indented_and_round_trips() {
        let doc = object(vec![
            ("name", Value::String("S1 \"quoted\"\n".into())),
            (
                "slas",
                Value::Array(vec![Value::Number(0.01), Value::Number(150.0)]),
            ),
            (
                "nested",
                object(vec![("a", Value::Bool(true)), ("b", opt_number(None))]),
            ),
            ("empty", Value::Array(Vec::new())),
        ]);
        let text = to_string_pretty(&doc);
        assert!(text.starts_with("{\n  \"name\": "), "{text}");
        assert!(text.contains("\n    0.01,\n    150\n  ]"), "{text}");
        assert!(text.contains("\"empty\": []\n}"), "{text}");
        assert_eq!(parse(&text).unwrap(), doc);
    }
}
