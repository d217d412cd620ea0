//! Program variables and the unprimed/primed naming convention.

use revterm_poly::{Poly, Var};
use std::fmt;

/// The table of program variables of a transition system.
///
/// The polynomial layer works with abstract [`Var`] indices; this table fixes
/// the convention used throughout the workspace:
///
/// * `Var(i)` for `i < n` is the **unprimed** program variable number `i`
///   (source-state value),
/// * `Var(n + i)` is its **primed** counterpart (target-state value),
/// * indices `>= 2n` are free for callers (e.g. template coefficients in the
///   invariant-generation layer).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct VarTable {
    names: Vec<String>,
}

impl VarTable {
    /// Creates a variable table from program variable names.
    ///
    /// # Panics
    ///
    /// Panics if names are duplicated.
    pub fn new(names: Vec<String>) -> VarTable {
        for (i, n) in names.iter().enumerate() {
            assert!(!names[..i].contains(n), "duplicate program variable name '{n}'");
        }
        VarTable { names }
    }

    /// Number of program variables.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Returns `true` iff there are no program variables.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The names of the program variables, in index order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Looks up the unprimed variable with the given name.
    pub fn lookup(&self, name: &str) -> Option<Var> {
        self.names.iter().position(|n| n == name).map(|i| Var(i as u32))
    }

    /// The unprimed variable with index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn unprimed(&self, i: usize) -> Var {
        assert!(i < self.len(), "variable index {i} out of range");
        Var(i as u32)
    }

    /// The primed variable with index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn primed(&self, i: usize) -> Var {
        assert!(i < self.len(), "variable index {i} out of range");
        Var((self.len() + i) as u32)
    }

    /// Returns `true` iff `v` denotes a primed program variable.
    pub fn is_primed(&self, v: Var) -> bool {
        let i = v.index();
        i >= self.len() && i < 2 * self.len()
    }

    /// Returns `true` iff `v` denotes an unprimed program variable.
    pub fn is_unprimed(&self, v: Var) -> bool {
        v.index() < self.len()
    }

    /// The program-variable index of `v` (whether primed or unprimed).
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a program variable of this table.
    pub fn base_index(&self, v: Var) -> usize {
        let i = v.index();
        if i < self.len() {
            i
        } else if i < 2 * self.len() {
            i - self.len()
        } else {
            panic!("variable {v:?} is not a program variable");
        }
    }

    /// Maps an unprimed variable to its primed counterpart and vice versa;
    /// other variables are unchanged.
    pub fn swap_primes(&self, v: Var) -> Var {
        let i = v.index();
        if i < self.len() {
            Var((i + self.len()) as u32)
        } else if i < 2 * self.len() {
            Var((i - self.len()) as u32)
        } else {
            v
        }
    }

    /// Maps an unprimed program variable to its primed counterpart; other
    /// variables are unchanged.
    pub fn prime(&self, v: Var) -> Var {
        if self.is_unprimed(v) {
            self.primed(v.index())
        } else {
            v
        }
    }

    /// Renames unprimed program variables to primed ones (other variables are
    /// unchanged).
    pub fn prime_poly(&self, p: &Poly) -> Poly {
        p.rename(&|v| self.prime(v))
    }

    /// Writes the name of a variable to `out`: `x` for an unprimed program
    /// variable, `x'` for a primed one, and `t{index}` for any other.
    pub fn write_name(&self, out: &mut dyn fmt::Write, v: Var) -> fmt::Result {
        let i = v.index();
        if i < self.len() {
            out.write_str(&self.names[i])
        } else if i < 2 * self.len() {
            write!(out, "{}'", self.names[i - self.len()])
        } else {
            write!(out, "t{i}")
        }
    }

    /// Human-readable name of a variable, as [`VarTable::write_name`]
    /// writes it.
    pub fn name(&self, v: Var) -> String {
        revterm_poly::render(|out| self.write_name(out, v))
    }
}

impl fmt::Display for VarTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}]", self.names.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revterm_num::rat;

    fn table() -> VarTable {
        VarTable::new(vec!["x".into(), "y".into()])
    }

    #[test]
    fn lookup_and_indices() {
        let t = table();
        assert_eq!(t.len(), 2);
        assert_eq!(t.lookup("x"), Some(Var(0)));
        assert_eq!(t.lookup("y"), Some(Var(1)));
        assert_eq!(t.lookup("z"), None);
        assert_eq!(t.primed(0), Var(2));
        assert_eq!(t.primed(1), Var(3));
        assert!(t.is_primed(Var(2)));
        assert!(!t.is_primed(Var(0)));
        assert!(!t.is_primed(Var(4)));
        assert_eq!(t.base_index(Var(3)), 1);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_names_panic() {
        let _ = VarTable::new(vec!["x".into(), "x".into()]);
    }

    #[test]
    fn swap_primes() {
        let t = table();
        assert_eq!(t.swap_primes(Var(0)), Var(2));
        assert_eq!(t.swap_primes(Var(2)), Var(0));
        assert_eq!(t.swap_primes(Var(7)), Var(7));
        // Swapping twice is the identity.
        for i in 0..8 {
            assert_eq!(t.swap_primes(t.swap_primes(Var(i))), Var(i));
        }
    }

    #[test]
    fn prime_poly() {
        let t = table();
        let p = Poly::var(Var(0)) + Poly::var(Var(1)).scale(&rat(2));
        let q = t.prime_poly(&p);
        assert_eq!(q.vars(), vec![Var(2), Var(3)]);
        // Primed and non-program variables are left alone.
        assert_eq!(t.prime(Var(1)), Var(3));
        assert_eq!([t.prime(Var(3)), t.prime(Var(7))], [Var(3), Var(7)]);
    }

    #[test]
    fn names() {
        let t = table();
        assert_eq!(t.name(Var(0)), "x");
        assert_eq!(t.name(Var(3)), "y'");
        assert_eq!(t.name(Var(9)), "t9");
        assert_eq!(t.to_string(), "[x, y]");
    }
}
