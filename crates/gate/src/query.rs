//! Query-string parsing for the `/v1/*` endpoints: `a=b&c=d` pairs with
//! percent-decoding and `+`-as-space, plus typed parameter accessors whose
//! error strings name the offending parameter (they become the `400`
//! response body). The accessors check syntax only; the values are
//! judged by the [`cos_serve::Query`] they feed.

/// Decoded `key=value` pairs, in query order.
pub type Params = Vec<(String, String)>;

/// Parses a raw query string (the part after `?`). Empty segments are
/// ignored; a segment without `=` becomes a key with an empty value.
pub fn parse_query(raw: &str) -> Result<Params, String> {
    let mut out = Vec::new();
    for segment in raw.split('&') {
        if segment.is_empty() {
            continue;
        }
        let (k, v) = match segment.split_once('=') {
            Some((k, v)) => (k, v),
            None => (segment, ""),
        };
        out.push((percent_decode(k)?, percent_decode(v)?));
    }
    Ok(out)
}

/// Percent-decodes one query component (`+` means space).
pub fn percent_decode(raw: &str) -> Result<String, String> {
    let bytes = raw.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                let hex = bytes
                    .get(i + 1..i + 3)
                    .and_then(|h| std::str::from_utf8(h).ok())
                    .and_then(|h| u8::from_str_radix(h, 16).ok())
                    .ok_or_else(|| format!("malformed percent-escape in `{raw}`"))?;
                out.push(hex);
                i += 3;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).map_err(|_| format!("percent-escape is not UTF-8 in `{raw}`"))
}

/// The value of `name`, if present.
pub fn get<'a>(params: &'a Params, name: &str) -> Option<&'a str> {
    params
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

/// Optional number parameter (`None` when absent). Only the syntax is
/// checked: whether the value is finite, positive or in range is for the
/// question it feeds to judge.
pub fn optional_f64(params: &Params, name: &str) -> Result<Option<f64>, String> {
    match get(params, name) {
        None => Ok(None),
        Some(raw) => raw
            .parse::<f64>()
            .map(Some)
            .map_err(|_| format!("query parameter `{name}` must be a number")),
    }
}

/// Optional unsigned-integer parameter (`None` when absent).
pub fn optional_u32(params: &Params, name: &str) -> Result<Option<u32>, String> {
    match get(params, name) {
        None => Ok(None),
        Some(raw) => raw
            .parse::<u32>()
            .map(Some)
            .map_err(|_| format!("query parameter `{name}` must be a non-negative integer")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_and_decodes() {
        let p = parse_query("sla=0.05&name=a%20b+c&flag").unwrap();
        assert_eq!(get(&p, "sla"), Some("0.05"));
        assert_eq!(get(&p, "name"), Some("a b c"));
        assert_eq!(get(&p, "flag"), Some(""));
        assert_eq!(get(&p, "missing"), None);
    }

    #[test]
    fn empty_query_is_empty() {
        assert!(parse_query("").unwrap().is_empty());
        assert!(parse_query("&&").unwrap().is_empty());
    }

    #[test]
    fn bad_escapes_are_rejected() {
        assert!(parse_query("a=%zz").is_err());
        assert!(parse_query("a=%2").is_err());
        assert!(parse_query("a=%ff").is_err(), "lone 0xff is not UTF-8");
    }

    #[test]
    fn optional_f64_checks_syntax_only_and_names_the_parameter() {
        let p = parse_query("sla=0.05&neg=-1&inf=inf&bad=abc").unwrap();
        assert_eq!(optional_f64(&p, "sla").unwrap(), Some(0.05));
        assert_eq!(optional_f64(&p, "missing").unwrap(), None);
        // Values are the question's to judge, not the parser's.
        assert_eq!(optional_f64(&p, "neg").unwrap(), Some(-1.0));
        assert_eq!(optional_f64(&p, "inf").unwrap(), Some(f64::INFINITY));
        let e = optional_f64(&p, "bad").unwrap_err();
        assert!(e.contains("`bad`") && e.contains("number"), "{e}");
    }

    #[test]
    fn optional_u32_parses_integers_and_names_the_parameter() {
        let p = parse_query("n=6&k=4&neg=-1&frac=2.5").unwrap();
        assert_eq!(optional_u32(&p, "n").unwrap(), Some(6));
        assert_eq!(optional_u32(&p, "k").unwrap(), Some(4));
        assert_eq!(optional_u32(&p, "missing").unwrap(), None);
        assert!(optional_u32(&p, "neg").unwrap_err().contains("neg"));
        assert!(optional_u32(&p, "frac").unwrap_err().contains("integer"));
    }
}
