//! Resolution of non-determinism (Definition 5.1).

use crate::assertion::Assertion;
use crate::system::{TransitionKind, TransitionSystem};
use revterm_poly::Poly;
use std::collections::BTreeMap;
use std::fmt;

/// A resolution of non-determinism: a map assigning to every
/// non-deterministic-assignment transition a polynomial expression over the
/// (unprimed) program variables.
///
/// Restricting a transition system by a resolution (via
/// [`TransitionSystem::restrict`], i.e. the paper's `T_{R_NA}`) yields a
/// *proper* under-approximation: every configuration that has a successor in
/// `T` still has at least one successor in the restricted system, because the
/// polynomial assignment always produces exactly one successor.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Resolution {
    assignments: BTreeMap<usize, Poly>,
}

impl Resolution {
    /// The empty resolution (used for programs without non-deterministic
    /// assignments).
    pub fn empty() -> Resolution {
        Resolution::default()
    }

    /// Creates a resolution from `(transition id, polynomial)` pairs.
    pub fn from_pairs<I: IntoIterator<Item = (usize, Poly)>>(pairs: I) -> Resolution {
        Resolution { assignments: pairs.into_iter().collect() }
    }

    /// Sets the polynomial for a transition.
    pub fn set(&mut self, transition_id: usize, poly: Poly) {
        self.assignments.insert(transition_id, poly);
    }

    /// The polynomial assigned to a transition, if any.
    pub fn get(&self, transition_id: usize) -> Option<&Poly> {
        self.assignments.get(&transition_id)
    }

    /// Iterates over `(transition id, polynomial)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Poly)> + '_ {
        self.assignments.iter().map(|(k, v)| (*k, v))
    }

    /// Number of resolved transitions.
    pub fn len(&self) -> usize {
        self.assignments.len()
    }

    /// Returns `true` iff no transition is resolved.
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }

    /// Returns `true` iff this resolution covers every non-deterministic
    /// assignment of the given system.
    pub fn covers(&self, ts: &TransitionSystem) -> bool {
        ts.ndet_transitions().all(|t| self.assignments.contains_key(&t.id))
    }

    /// Writes the resolution to `out`: its entries joined by `; `, or
    /// `trivial resolution` when it has none. With the system, an entry is
    /// `t{id} (source -> target): x := p` in the system's names (see
    /// [`Resolution::display_with`]); without it, `t{id} := p` in raw
    /// variable names (`Display`).
    pub fn write_with(
        &self,
        out: &mut dyn fmt::Write,
        ts: Option<&TransitionSystem>,
    ) -> fmt::Result {
        if self.assignments.is_empty() {
            return out.write_str("trivial resolution");
        }
        for (i, (id, p)) in self.iter().enumerate() {
            if i > 0 {
                out.write_str("; ")?;
            }
            write!(out, "t{id}")?;
            let Some(ts) = ts else {
                out.write_str(" := ")?;
                p.write_with(out, &|out, v| write!(out, "{v}"))?;
                continue;
            };
            let (t, vars) = (ts.transition(id), ts.vars());
            write!(out, " ({} -> {}): ", ts.loc_name(t.source), ts.loc_name(t.target))?;
            match &t.kind {
                TransitionKind::NdetAssign { var } | TransitionKind::Assign { var, .. } => {
                    vars.write_name(out, vars.unprimed(*var))?;
                }
                _ => write!(out, "t{id}")?,
            }
            out.write_str(" := ")?;
            p.write_with(out, &|out, v| vars.write_name(out, v))?;
        }
        Ok(())
    }

    /// Renders the resolution using the system's variable names.
    pub fn display_with(&self, ts: &TransitionSystem) -> String {
        revterm_poly::render(|out| self.write_with(out, Some(ts)))
    }
}

impl fmt::Display for Resolution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_with(f, None)
    }
}

impl TransitionSystem {
    /// Builds the restricted transition system `T_{R_NA}` of Definition 5.1:
    /// every non-deterministic assignment `x := ndet()` covered by the
    /// resolution becomes the deterministic polynomial assignment
    /// `x := R_NA(τ)(vars)`, with all other variables unchanged.
    ///
    /// Transitions not covered by the resolution are left untouched, so a
    /// partial resolution yields a (still proper) partial restriction.
    ///
    /// # Panics
    ///
    /// Panics if the resolution maps a transition that is not a
    /// non-deterministic assignment, or if a right-hand side mentions primed
    /// variables.
    pub fn restrict(&self, resolution: &Resolution) -> TransitionSystem {
        let mut out = self.clone();
        for (id, rhs) in resolution.iter() {
            let t = self.transition(id);
            let var = match &t.kind {
                TransitionKind::NdetAssign { var } => *var,
                other => panic!("resolution applied to non-ndet transition t{id} ({other:?})"),
            };
            assert!(
                rhs.vars().iter().all(|v| self.vars().is_unprimed(*v)),
                "resolution polynomial must range over unprimed program variables"
            );
            // Relation: keep the guard part (atoms over unprimed variables
            // only), replace the update by var' = rhs /\ frame.
            let mut relation = Assertion::tautology();
            for atom in t.relation.atoms() {
                if atom.vars().iter().all(|v| self.vars().is_unprimed(*v)) {
                    relation.push(atom.clone());
                }
            }
            let primed = Poly::var(self.vars().primed(var));
            for p in Assertion::eq_zero(&primed - rhs).atoms() {
                relation.push(p.clone());
            }
            for i in 0..self.vars().len() {
                if i != var {
                    let eq = Assertion::eq_zero(
                        Poly::var(self.vars().primed(i)) - Poly::var(self.vars().unprimed(i)),
                    );
                    for p in eq.atoms() {
                        relation.push(p.clone());
                    }
                }
            }
            out = out.with_transition_relation(
                id,
                relation,
                TransitionKind::Assign { var, rhs: rhs.clone() },
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower;
    use revterm_lang::parse_program;
    use revterm_num::int;
    use revterm_poly::Var;

    const RUNNING: &str =
        "while x >= 9 do x := ndet(); y := 10 * x; while x <= y do x := x + 1; od od";

    #[test]
    fn resolution_basics() {
        let mut r = Resolution::empty();
        assert!(r.is_empty());
        r.set(3, Poly::constant_i64(9));
        assert_eq!(r.len(), 1);
        assert_eq!(r.get(3), Some(&Poly::constant_i64(9)));
        assert_eq!(r.get(4), None);
        assert_eq!(r.iter().count(), 1);
        assert!(r.to_string().contains("t3"));
    }

    #[test]
    fn restrict_running_example() {
        let ts = lower(&parse_program(RUNNING).unwrap()).unwrap();
        let ndet: Vec<usize> = ts.ndet_transitions().map(|t| t.id).collect();
        assert_eq!(ndet.len(), 1);
        // Resolve x := ndet() to the constant 9 (Example 5.2 / 5.4).
        let r = Resolution::from_pairs([(ndet[0], Poly::constant_i64(9))]);
        assert!(r.covers(&ts));
        let restricted = ts.restrict(&r);
        assert!(!restricted.has_nondeterminism());
        let t = restricted.transition(ndet[0]);
        // The restricted relation accepts (x=5, y=2) -> (x'=9, y'=2) ...
        let vars = restricted.vars();
        let assign = |xv: i64, yv: i64, xpv: i64, ypv: i64| {
            move |v: Var| {
                let vt = lower(&parse_program(RUNNING).unwrap()).unwrap();
                let _ = &vt;
                match v.0 {
                    0 => int(xv),
                    1 => int(yv),
                    2 => int(xpv),
                    _ => int(ypv),
                }
            }
        };
        assert!(t.relation.holds_int(&assign(5, 2, 9, 2)));
        // ... but rejects target values other than 9 or a modified y.
        assert!(!t.relation.holds_int(&assign(5, 2, 7, 2)));
        assert!(!t.relation.holds_int(&assign(5, 2, 9, 3)));
        let _ = vars;
        // The display mentions the resolved variable name.
        assert!(r.display_with(&ts).contains("x :="));
    }

    #[test]
    fn golden_renderings() {
        let ts = lower(&parse_program(RUNNING).unwrap()).unwrap();
        let ndet = ts.ndet_transitions().next().unwrap().id;
        let x_minus_2y = Poly::var(Var(0)) + Poly::var(Var(1)).scale(&revterm_num::rat(-2));
        let r = Resolution::from_pairs([(ndet, x_minus_2y)]);
        assert_eq!(r.display_with(&ts), "t2 (l1 -> l2): x := x - 2*y");
        assert_eq!(r.to_string(), "t2 := v0 - 2*v1");
        // t3 assigns `y`; t0 is a guard, which assigns nothing and is named
        // by its id.
        let r = Resolution::from_pairs([
            (0, Poly::constant_i64(9)),
            (ndet, Poly::zero()),
            (3, -Poly::var(Var(0))),
        ]);
        assert_eq!(
            r.display_with(&ts),
            "t0 (l0 -> l1): t0 := 9; t2 (l1 -> l2): x := 0; t3 (l2 -> l3): y := -x"
        );
        assert_eq!(r.to_string(), "t0 := 9; t2 := 0; t3 := -v0");
        assert_eq!(Resolution::empty().display_with(&ts), "trivial resolution");
        assert_eq!(Resolution::empty().to_string(), "trivial resolution");
    }

    #[test]
    #[should_panic(expected = "non-ndet transition")]
    fn restrict_rejects_non_ndet_targets() {
        let ts = lower(&parse_program(RUNNING).unwrap()).unwrap();
        // Transition 0 is not a non-deterministic assignment.
        let bad_id = ts.transitions().iter().find(|t| !t.is_ndet_assign()).unwrap().id;
        let r = Resolution::from_pairs([(bad_id, Poly::constant_i64(0))]);
        let _ = ts.restrict(&r);
    }

    #[test]
    #[should_panic(expected = "unprimed")]
    fn restrict_rejects_primed_rhs() {
        let ts = lower(&parse_program(RUNNING).unwrap()).unwrap();
        let ndet_id = ts.ndet_transitions().next().unwrap().id;
        let bad_rhs = Poly::var(ts.vars().primed(0));
        let r = Resolution::from_pairs([(ndet_id, bad_rhs)]);
        let _ = ts.restrict(&r);
    }
}
