//! Minimal recursive JSON reader — the one parser behind every
//! hand-rolled document in the workspace: `PLAN.json` fault plans,
//! `DagSpec` workflows, and the structured-trace JSONL lines. The
//! workspace deliberately carries no serde dependency.
//!
//! Integers are exact: a literal with no fraction or exponent that
//! fits an `i64` stays one ([`Value::Int`]) instead of being rounded
//! through `f64`, so microsecond timestamps and counters above 2^53
//! survive a round trip.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer literal (no fraction, no exponent) that fits an
    /// `i64`, exactly.
    Int(i64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in declaration order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// The object's fields, or `None` for non-objects.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }
    /// The array's items, or `None` for non-arrays.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }
    /// The string's contents, or `None` for non-strings.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
    /// The boolean, or `None` for non-booleans.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
    /// The number, or `None` for non-numbers.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(n) => Some(*n as f64),
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }
    /// The number as an integer, `None` for fractions and for
    /// non-literal integers (`1e3`, `2.0`) beyond exact `f64` integer
    /// range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(n) => Some(*n),
            Value::Num(n) if n.fract() == 0.0 && n.abs() <= 9e15 => Some(*n as i64),
            _ => None,
        }
    }
    /// The number as a non-negative integer, or `None`.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_i64().and_then(|n| u64::try_from(n).ok())
    }
}

/// Look up `key` in an object's fields (first match wins).
pub fn get<'a>(obj: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Parse one complete JSON document (trailing data is an error).
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        chars: text.chars().peekable(),
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.chars.peek().is_some() {
        return Err("trailing data after JSON value".into());
    }
    Ok(v)
}

struct Parser<'a> {
    chars: std::iter::Peekable<std::str::Chars<'a>>,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.chars.peek().is_some_and(|c| c.is_whitespace()) {
            self.chars.next();
        }
    }

    fn expect(&mut self, want: char) -> Result<(), String> {
        match self.chars.next() {
            Some(c) if c == want => Ok(()),
            other => Err(format!("expected {want:?}, got {other:?}")),
        }
    }

    fn word(&mut self, word: &str) -> Result<(), String> {
        for want in word.chars() {
            self.expect(want)
                .map_err(|_| format!("expected {word:?}"))?;
        }
        Ok(())
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.chars.peek() {
            Some('{') => self.object(),
            Some('[') => self.array(),
            Some('"') => Ok(Value::Str(self.string()?)),
            Some('t') => self.word("true").map(|()| Value::Bool(true)),
            Some('f') => self.word("false").map(|()| Value::Bool(false)),
            Some('n') => self.word("null").map(|()| Value::Null),
            Some(c) if *c == '-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {other:?}")),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect('{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.chars.peek() == Some(&'}') {
            self.chars.next();
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(':')?;
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.chars.next() {
                Some(',') => {}
                Some('}') => return Ok(Value::Obj(fields)),
                other => return Err(format!("expected ',' or '}}', got {other:?}")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect('[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.chars.peek() == Some(&']') {
            self.chars.next();
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.chars.next() {
                Some(',') => {}
                Some(']') => return Ok(Value::Arr(items)),
                other => return Err(format!("expected ',' or ']', got {other:?}")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.chars.next() {
                None => return Err("unterminated string".into()),
                Some('"') => return Ok(out),
                Some('\\') => match self.chars.next() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('/') => out.push('/'),
                    Some('n') => out.push('\n'),
                    Some('r') => out.push('\r'),
                    Some('t') => out.push('\t'),
                    Some('u') => {
                        let hex: String = (0..4).filter_map(|_| self.chars.next()).collect();
                        let code = u32::from_str_radix(&hex, 16)
                            .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                        out.push(char::from_u32(code).ok_or("bad codepoint")?);
                    }
                    other => return Err(format!("bad escape {other:?}")),
                },
                Some(c) => out.push(c),
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let mut s = String::new();
        while self
            .chars
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E'))
        {
            s.push(self.chars.next().expect("peeked"));
        }
        if let Ok(n) = s.parse::<i64>() {
            return Ok(Value::Int(n));
        }
        s.parse::<f64>()
            .map(Value::Num)
            .map_err(|e| format!("bad number {s:?}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_literals_stay_exact() {
        let big = i64::MAX - 1;
        let v = parse(&format!("[{big}, -7, 2.0, 1e3, 0.5, 18446744073709551615]")).unwrap();
        let items = v.as_array().unwrap();
        assert_eq!(items[0], Value::Int(big));
        assert_eq!(items[0].as_u64(), Some(big as u64));
        assert_eq!(items[1].as_i64(), Some(-7));
        assert_eq!(items[1].as_u64(), None);
        // Not integer literals, but integral: still readable as such.
        assert_eq!(items[2].as_i64(), Some(2));
        assert_eq!(items[3].as_u64(), Some(1000));
        assert_eq!((items[4].as_i64(), items[4].as_f64()), (None, Some(0.5)));
        // Past `i64`: a float, and too large to be trusted as an integer.
        assert_eq!(items[5].as_i64(), None);
        assert_eq!(items[1].as_f64(), Some(-7.0));
    }

    #[test]
    fn nested_documents_and_errors() {
        let v = parse(r#" {"a": [true, null, "x\n\u0041"], "b": {"c": 1}} "#).unwrap();
        let obj = v.as_object().unwrap();
        let a = get(obj, "a").and_then(Value::as_array).unwrap();
        assert_eq!(a[0].as_bool(), Some(true));
        assert_eq!(a[1], Value::Null);
        assert_eq!(a[2].as_str(), Some("x\nA"));
        let b = get(obj, "b").and_then(Value::as_object).unwrap();
        assert_eq!(get(b, "c"), Some(&Value::Int(1)));
        assert!(get(obj, "z").is_none());
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "1 2", "\"open", "nul"] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }
}
