//! Interned immutable strings for the interpreter hot path.
//!
//! Word expansion is the allocation engine of a VM population: every
//! attempt re-expands the same literal argv words, captures the same
//! variable names, and logs the same program names. [`Istr`] makes all
//! of that reference counting instead of copying — an `Arc<str>` whose
//! clone is a refcount bump, shared freely between the AST, the
//! environment, command specs and the event log. A fully-literal word
//! expands to a clone of the `Istr` already sitting in the AST: zero
//! allocations per expansion, however many million times it runs.

use std::borrow::Borrow;
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// An immutable, cheaply-cloneable string (`Arc<str>` underneath).
///
/// Compares, hashes and orders exactly like the `str` it wraps, so it
/// can key a `HashMap` that is still queried with `&str`.
#[derive(Clone)]
pub struct Istr(Arc<str>);

impl Istr {
    /// The shared empty string (allocated once per process).
    pub fn empty() -> Istr {
        static EMPTY: OnceLock<Istr> = OnceLock::new();
        EMPTY.get_or_init(|| Istr(Arc::from(""))).clone()
    }

    /// View as `&str`.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Whether `self` and `other` are one allocation: clones of one
    /// `Istr`, not merely equal text.
    pub fn ptr_eq(&self, other: &Istr) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl Default for Istr {
    fn default() -> Istr {
        Istr::empty()
    }
}

impl Deref for Istr {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for Istr {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl AsRef<std::ffi::OsStr> for Istr {
    fn as_ref(&self) -> &std::ffi::OsStr {
        self.as_str().as_ref()
    }
}

impl AsRef<std::path::Path> for Istr {
    fn as_ref(&self) -> &std::path::Path {
        self.as_str().as_ref()
    }
}

impl Borrow<str> for Istr {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl From<&str> for Istr {
    fn from(s: &str) -> Istr {
        if s.is_empty() {
            Istr::empty()
        } else {
            Istr(Arc::from(s))
        }
    }
}

impl From<String> for Istr {
    fn from(s: String) -> Istr {
        Istr::from(s.as_str())
    }
}

impl From<&String> for Istr {
    fn from(s: &String) -> Istr {
        Istr::from(s.as_str())
    }
}

impl From<Istr> for String {
    fn from(s: Istr) -> String {
        s.as_str().to_string()
    }
}

impl PartialEq for Istr {
    fn eq(&self, other: &Istr) -> bool {
        // Pointer equality first: interned clones share one allocation.
        self.ptr_eq(other) || self.0 == other.0
    }
}
impl Eq for Istr {}

impl PartialEq<str> for Istr {
    fn eq(&self, other: &str) -> bool {
        &*self.0 == other
    }
}
impl PartialEq<&str> for Istr {
    fn eq(&self, other: &&str) -> bool {
        &*self.0 == *other
    }
}
impl PartialEq<Istr> for str {
    fn eq(&self, other: &Istr) -> bool {
        self == &*other.0
    }
}
impl PartialEq<Istr> for &str {
    fn eq(&self, other: &Istr) -> bool {
        *self == &*other.0
    }
}
impl PartialEq<String> for Istr {
    fn eq(&self, other: &String) -> bool {
        &*self.0 == other.as_str()
    }
}
impl PartialEq<Istr> for String {
    fn eq(&self, other: &Istr) -> bool {
        self.as_str() == &*other.0
    }
}

impl PartialOrd for Istr {
    fn partial_cmp(&self, other: &Istr) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Istr {
    fn cmp(&self, other: &Istr) -> std::cmp::Ordering {
        self.0.cmp(&other.0)
    }
}

impl std::hash::Hash for Istr {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Must agree with `str::hash` for the `Borrow<str>` contract.
        (*self.0).hash(state);
    }
}

impl fmt::Display for Istr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Debug for Istr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::collections::HashMap;
    use std::hash::{Hash, Hasher};

    #[test]
    fn clones_share_the_allocation() {
        let a = Istr::from("condor_submit");
        let b = a.clone();
        assert!(Arc::ptr_eq(&a.0, &b.0));
        assert_eq!(a, b);
    }

    #[test]
    fn compares_like_str() {
        let a = Istr::from("wget");
        assert_eq!(a, "wget");
        assert_eq!("wget", a);
        assert_eq!(a, "wget".to_string());
        assert_ne!(a, "curl");
        let (a, b) = (Istr::from("a"), Istr::from("b"));
        assert!(a < b);
    }

    #[test]
    fn hashes_like_str_and_keys_maps() {
        let hash = |x: &dyn Fn(&mut DefaultHasher)| {
            let mut h = DefaultHasher::new();
            x(&mut h);
            h.finish()
        };
        let i = Istr::from("n");
        assert_eq!(hash(&|h| i.hash(h)), hash(&|h| "n".hash(h)));
        let mut m: HashMap<Istr, u32> = HashMap::new();
        m.insert(Istr::from("n"), 7);
        // Borrow<str> lets a plain &str query the map.
        assert_eq!(m.get("n"), Some(&7));
    }

    #[test]
    fn empty_is_shared() {
        let a = Istr::empty();
        let b = Istr::from("");
        let c = Istr::from(String::new());
        assert!(Arc::ptr_eq(&a.0, &b.0));
        assert!(Arc::ptr_eq(&a.0, &c.0));
        assert_eq!(a.as_str(), "");
        assert_eq!(Istr::default(), a);
    }

    #[test]
    fn display_and_into_string() {
        let a = Istr::from("x y");
        assert_eq!(format!("{a}"), "x y");
        assert_eq!(String::from(a), "x y");
    }
}
