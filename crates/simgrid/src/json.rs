//! Minimal recursive JSON reader — the one parser behind every
//! hand-rolled document in the workspace: `PLAN.json` fault plans,
//! `DagSpec` workflows, the structured-trace JSONL lines and
//! `BENCH_budget.json`. The workspace deliberately carries no serde
//! dependency.
//!
//! Every reader looks its fields up through [`Fields`], so every
//! document follows one set of rules:
//!
//! * an absent field and a `null` one read alike ([`Fields::opt`]
//!   makes a field optional; a required one is missing either way);
//! * an integer field takes an integer literal (no fraction, no
//!   exponent) that fits the field's type: `2.0`, `1e3` and `-1` for
//!   an unsigned field are refused, never rounded or wrapped;
//! * every error names the field, and a list of objects names the
//!   item (`specs[2]: …`).
//!
//! Integers are exact: a literal that fits an `i64` stays one
//! ([`Value::Int`]) instead of being rounded through `f64`, so
//! microsecond timestamps and counters above 2^53 survive a round
//! trip.

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
}

/// An object's fields, read by name and type: the one lookup every
/// document reader in the workspace uses. Getters are required fields;
/// wrap one in [`Fields::opt`] for an optional field.
#[derive(Clone, Copy, Debug)]
pub struct Fields<'a>(&'a [(String, Value)]);

impl<'a> Fields<'a> {
    /// The fields of `v`, which must be an object.
    pub fn of(v: &'a Value) -> Result<Fields<'a>, String> {
        v.as_object()
            .map(Fields)
            .ok_or_else(|| "expected a JSON object".to_string())
    }

    /// The field's value (first match wins), `None` when it is absent
    /// or `null`.
    fn value(&self, key: &str) -> Option<&'a Value> {
        let v = self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        v.filter(|v| !matches!(v, Value::Null))
    }

    /// The field read by `read`, which answers `None` when the value
    /// is not `what`.
    fn read<T>(
        &self,
        key: &str,
        what: &str,
        read: impl FnOnce(&'a Value) -> Option<T>,
    ) -> Result<T, String> {
        let v = self
            .value(key)
            .ok_or_else(|| format!("missing field {key:?}"))?;
        read(v).ok_or_else(|| format!("field {key:?} is not {what}"))
    }

    /// `read(self, key)`, or `None` when the field is absent or `null`.
    pub fn opt<T>(
        &self,
        key: &str,
        read: impl FnOnce(&Self, &str) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        self.value(key).map(|_| read(self, key)).transpose()
    }

    /// A string field.
    pub fn text(&self, key: &str) -> Result<&'a str, String> {
        self.read(key, "a string", Value::as_str)
    }

    /// A boolean field.
    pub fn flag(&self, key: &str) -> Result<bool, String> {
        self.read(key, "a bool", Value::as_bool)
    }

    /// A number field, integer or not.
    pub fn num(&self, key: &str) -> Result<f64, String> {
        self.read(key, "a number", Value::as_f64)
    }

    /// An integer field as a `T` (`u64`, `u32`, `usize`, `i64`, …),
    /// refusing a value outside `T`'s range.
    pub fn int<T: TryFrom<i64>>(&self, key: &str) -> Result<T, String> {
        let n = self.read(key, "an integer", |v| match v {
            Value::Int(n) => Some(*n),
            _ => None,
        })?;
        T::try_from(n).map_err(|_| format!("field {key:?} is out of range: {n}"))
    }

    /// A list-of-strings field.
    pub fn texts(&self, key: &str) -> Result<Vec<String>, String> {
        let items = self.read(key, "an array", Value::as_array)?;
        let strs = items.iter().map(|v| v.as_str().map(str::to_string));
        strs.collect::<Option<_>>()
            .ok_or_else(|| format!("field {key:?} holds a non-string"))
    }

    /// A list-of-objects field, each item read by `read`; an item's
    /// error is prefixed with `key[i]: `.
    pub fn objects<T>(
        &self,
        key: &str,
        mut read: impl FnMut(Fields<'a>) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let items = self.read(key, "an array", Value::as_array)?;
        let each = items.iter().enumerate();
        each.map(|(i, v)| {
            Fields::of(v)
                .and_then(&mut read)
                .map_err(|e| format!("{key}[{i}]: {e}"))
        })
        .collect()
    }
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
        let doc = format!(
            r#"{{"big": {big}, "neg": -7, "two": 2.0, "k": 1e3, "half": 0.5, "huge": 18446744073709551615}}"#
        );
        let v = parse(&doc).unwrap();
        let f = Fields::of(&v).unwrap();
        assert_eq!(f.int::<i64>("big"), Ok(big));
        assert_eq!(f.int::<u64>("big"), Ok(big as u64));
        assert_eq!(f.int::<i64>("neg"), Ok(-7));
        assert_eq!(f.num("neg"), Ok(-7.0));
        let e = f.int::<u64>("neg").unwrap_err();
        assert!(e.contains("\"neg\"") && e.contains("out of range"), "{e}");
        // Integral, but not integer literals: one rule for every
        // document, so no reader rounds a float into a count.
        for key in ["two", "k", "half", "huge"] {
            let e = f.int::<i64>(key).unwrap_err();
            assert_eq!(e, format!("field {key:?} is not an integer"));
        }
        assert_eq!((f.num("k"), f.num("half")), (Ok(1000.0), Ok(0.5)));
        // Past `u32`: refused, never truncated.
        assert!(f.int::<u32>("big").unwrap_err().contains("\"big\""));
    }

    #[test]
    fn absent_and_null_fields_read_alike() {
        let v = parse(r#"{"a": null, "b": 3, "a": 4}"#).unwrap();
        let f = Fields::of(&v).unwrap();
        for key in ["a", "z"] {
            assert_eq!(f.int::<u64>(key), Err(format!("missing field {key:?}")));
            assert_eq!(f.opt(key, Fields::int::<u64>), Ok(None));
        }
        assert_eq!(f.opt("b", Fields::int::<u64>), Ok(Some(3)));
        assert!(f.opt("b", Fields::text).unwrap_err().contains("\"b\""));
    }

    #[test]
    fn nested_documents_and_errors() {
        let v =
            parse(r#" {"a": [true, null, "x\n\u0041"], "b": {"c": 1}, "l": ["p", "q"]} "#).unwrap();
        let f = Fields::of(&v).unwrap();
        let a = f.read("a", "an array", Value::as_array).unwrap();
        assert_eq!(a[0].as_bool(), Some(true));
        assert_eq!(a[1], Value::Null);
        assert_eq!(a[2].as_str(), Some("x\nA"));
        assert_eq!(f.texts("l"), Ok(vec!["p".to_string(), "q".to_string()]));
        assert_eq!(f.texts("a"), Err("field \"a\" holds a non-string".into()));
        let e = f.objects("b", |_| Ok(())).unwrap_err();
        assert_eq!(e, "field \"b\" is not an array");
        let e = f.objects("l", |_| Ok(())).unwrap_err();
        assert_eq!(e, "l[0]: expected a JSON object");
        assert!(Fields::of(&a[0]).is_err());
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "1 2", "\"open", "nul"] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }
}
