//! Exact linear programming over the rationals (two-phase primal simplex).
//!
//! # Encoding
//!
//! An [`LpProblem`] is a list of constraints `expr REL 0` over free or
//! non-negative variables, plus an optional minimisation objective. It is
//! lowered to standard form the classic way: every free variable is split
//! into a difference of two non-negative columns, every inequality gains a
//! slack/surplus column, rows are sign-normalised so the right-hand side is
//! non-negative, and one artificial column per row provides the initial
//! basis for phase 1 (minimise the sum of artificials; feasible iff that
//! optimum is zero). Phase 2 then minimises the real objective with the
//! artificial columns banned. Bland's rule (lowest improving column index,
//! lowest basic variable on ties) guarantees termination.
//!
//! # One engine, one reference
//!
//! [`LpProblem::solve`] runs the revised simplex described below.
//! [`LpProblem::solve_dense`] is the dense reference tableau: it builds its
//! own dense rows from the constraints and re-eliminates the whole tableau
//! on each pivot. The two make the same Bland's-rule choices and
//! produce **bitwise-identical** results — exact arithmetic makes every
//! comparison representation-independent — which the tests here, the
//! entailment tests, the fuzz harness and the `num_profile` bench digests
//! all check.
//!
//! # Revised simplex: a fraction-free basis inverse
//!
//! The revised engine never updates a tableau. For the current basis `B` it
//! keeps three integer quantities:
//!
//! * `M = D·B⁻¹`, the signed adjugate of `B`, as a dense `m × m` matrix;
//! * `D = ±det B`, its sign chosen so that `D > 0`;
//! * `X = D·x_B`, the scaled basic solution.
//!
//! A pivot on row `r`, with entering image `w = M·a_q` (`D` times the
//! classic FTRAN image `B⁻¹a_q`), sets `M_i ← (w_r·M_i − w_i·M_r)/D` and
//! `X_i ← (w_r·X_i − w_i·X_r)/D` for every row `i ≠ r`, keeps row `r`, and
//! sets `D ← w_r` — Edmonds' fraction-free elimination, as in Bareiss. Every
//! division is exact: the new `M` is again a signed adjugate and `w_r` the
//! new basis's signed determinant, so no pivot takes a gcd. A negative `w_r`
//! (possible in the artificial drive-out and in a warm re-factorization,
//! never in a ratio-test pivot) negates `M`, `X` and `D` together.
//!
//! Pricing forms `Y = c_B·M` and lets column `j` enter iff
//! `c_j·D − Y·a_j < 0`, which is `D` times the reduced cost `c_j − y·a_j`.
//! In phase 1 a decision column enters iff `Y·a_j > 0` and artificial column
//! `k` iff `Y_k > D`. The ratio test compares `X_i/w_i` with `X_l/w_l` as
//! `X_i·w_l` against `X_l·w_i` over the rows with `w > 0`. Both decide
//! exactly what the dense tableau's reduced-cost row and ratio test decide,
//! so both engines pivot alike.
//!
//! # The column form: positive scalings keep every Bland choice
//!
//! The revised engine's input is a column-form standard form
//! (`ColumnForm`): `A·x = b`, `x ≥ 0`, `b ≥ 0`, stored column by column,
//! with the artificial identity appended by the solve. [`LpProblem`] lowers
//! into it one column at a time; the entailment oracle copies the integer
//! column runs of its premise set's skeleton, so a query converts no
//! coefficient. Phase 1, the artificial drive-out, warm starts and
//! extraction exist once, in `ColumnForm::solve`.
//!
//! The kernel computes with integers only. The form stores column `j` times
//! its scale `s_j`, the lcm of its denominators (1 for the Farkas/Handelman
//! columns of integer premises), and a solve multiplies `b` and the phase-2
//! cost by the lcm of theirs. These scalings are positive, so none of them
//! moves a pivot: scaling column `j` by `s_j` scales its reduced cost by
//! `s_j` and, on an entering column `q`, every ratio of the ratio test by
//! the same `1/s_q`; scaling `b` scales every ratio alike, and scaling the
//! cost every reduced cost alike. No sign and no ratio order changes, so an
//! LP takes the unscaled LP's Bland pivots, stores its basis, and returns
//! its values once unscaled (`x_j = s_j·X_i / (D·t)`, with `t` the scale of
//! `b`).
//!
//! # Two word tiers, one kernel
//!
//! The kernel is generic over its word type. It runs over `i64` words with
//! every product and sum taken in checked `i128`, and a value that leaves
//! `i64` (or a sum that leaves `i128`) aborts the run. That LP is then solved
//! again from scratch by the same code over [`revterm_num::Int`], which
//! never overflows; only the run that finishes commits its pivots and its
//! warm start, and [`LpStats::bignum_solves`] counts these re-solves. The
//! degree-1 LPs of the curated suite and of generated fuzz programs finish
//! on words; a few of the running example's larger degree-2 Handelman LPs
//! do not.
//!
//! # Warm starts
//!
//! Given a previously optimal basis for a *structurally identical* LP (same
//! columns, a few changed right-hand sides — exactly what a Houdini
//! entailment stream produces), `ColumnForm::solve` re-factorizes it from
//! `M = I`, `D = 1`, `X = b`: it pivots each stored column in at the lowest
//! still-unpivoted row where its image is nonzero, which yields `X` as well,
//! and — when every `X_i ≥ 0` — skips phase 1 outright, so pure feasibility
//! problems finish without a single pivot. A singular or infeasible warm
//! basis falls back to the cold Bland start, so warm starting can never
//! change a verdict. Stored bases live in a crate-private `BasisCache` keyed
//! by the caller: the one that exists is owned by the entailment memo
//! ([`crate::EntailmentCache`]), which hashes the product list and monomial
//! rows. Only artificial-free bases are stored, so a key collision is at
//! worst a wasted re-factorization, never an unsound resurrection of an
//! artificial column. [`LpStats`] counts solves, pivots, re-factorizations,
//! warm-start hits and re-solves over `Int` for the prover's statistics.
//!
//! ```
//! use revterm_num::rat;
//! use revterm_poly::{LinExpr, Var};
//! use revterm_solver::{LpProblem, Rel, VarKind};
//!
//! // minimise x + y subject to x + y >= 2, x - y = 1, x, y >= 0.
//! let mut lp = LpProblem::new();
//! lp.set_var_kind(Var(0), VarKind::NonNegative);
//! lp.set_var_kind(Var(1), VarKind::NonNegative);
//! lp.add_constraint(LinExpr::var(Var(0)) + LinExpr::var(Var(1)) - LinExpr::constant(rat(2)), Rel::Ge);
//! lp.add_constraint(LinExpr::var(Var(0)) - LinExpr::var(Var(1)) - LinExpr::constant(rat(1)), Rel::Eq);
//! lp.set_objective(LinExpr::var(Var(0)) + LinExpr::var(Var(1)));
//! let solution = lp.solve().solution().unwrap().clone();
//! assert_eq!(solution.objective().clone(), rat(2));
//! assert_eq!(lp.solve(), lp.solve_dense());
//! ```

use revterm_num::{Int, Rat};
use revterm_poly::{LinExpr, Var};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;

/// Relation of a linear constraint to zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rel {
    /// `expr = 0`
    Eq,
    /// `expr ≥ 0`
    Ge,
    /// `expr ≤ 0`
    Le,
}

/// Sign restriction of an LP variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VarKind {
    /// The variable ranges over all rationals.
    #[default]
    Free,
    /// The variable is restricted to be `≥ 0`.
    NonNegative,
}

/// A satisfying assignment returned by the solver.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LpSolution {
    values: BTreeMap<Var, Rat>,
    objective: Rat,
}

impl LpSolution {
    /// The value assigned to a variable (zero if the variable did not occur).
    pub fn value(&self, v: Var) -> Rat {
        self.values.get(&v).cloned().unwrap_or_else(Rat::zero)
    }

    /// The value of the minimised objective (zero for pure feasibility calls).
    pub fn objective(&self) -> &Rat {
        &self.objective
    }

    /// Iterates over `(variable, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&Var, &Rat)> + '_ {
        self.values.iter()
    }
}

/// Result of solving an [`LpProblem`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LpResult {
    /// The constraints are unsatisfiable.
    Infeasible,
    /// The objective is unbounded below on the feasible region.
    Unbounded,
    /// An optimal (or, without an objective, feasible) assignment.
    Optimal(LpSolution),
}

impl LpResult {
    /// Returns the solution if one was found.
    pub fn solution(&self) -> Option<&LpSolution> {
        match self {
            LpResult::Optimal(s) => Some(s),
            _ => None,
        }
    }

    /// Returns `true` iff the problem was found feasible.
    pub fn is_feasible(&self) -> bool {
        matches!(self, LpResult::Optimal(_))
    }
}

/// A linear program: constraints `expr REL 0`, optional minimisation
/// objective, per-variable sign restrictions.
///
/// ```
/// use revterm_poly::{LinExpr, Var};
/// use revterm_num::rat;
/// use revterm_solver::{LpProblem, Rel, VarKind};
///
/// // minimise x subject to x >= 3, x free.
/// let mut lp = LpProblem::new();
/// lp.set_var_kind(Var(0), VarKind::Free);
/// lp.add_constraint(LinExpr::var(Var(0)) - LinExpr::constant(rat(3)), Rel::Ge);
/// lp.set_objective(LinExpr::var(Var(0)));
/// let sol = lp.solve().solution().unwrap().clone();
/// assert_eq!(sol.value(Var(0)), rat(3));
/// ```
#[derive(Debug, Clone, Default)]
pub struct LpProblem {
    var_kinds: BTreeMap<Var, VarKind>,
    constraints: Vec<(LinExpr, Rel)>,
    objective: Option<LinExpr>,
}

impl fmt::Display for LpProblem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "lp with {} constraints", self.constraints.len())?;
        for (e, r) in &self.constraints {
            writeln!(
                f,
                "  {} {} 0",
                e,
                match r {
                    Rel::Eq => "=",
                    Rel::Ge => ">=",
                    Rel::Le => "<=",
                }
            )?;
        }
        Ok(())
    }
}

/// The user-variable → simplex-column mapping shared by the column and
/// dense lowerings: each free variable occupies an adjacent
/// (positive, negative) column pair, each non-negative variable one column.
struct ColumnMap {
    vars: Vec<Var>,
    col_of_pos: BTreeMap<Var, usize>,
    col_of_neg: BTreeMap<Var, usize>,
    structural_cols: usize,
}

impl ColumnMap {
    /// Reads a user-variable assignment back out of the column values.
    fn reconstruct(&self, col_values: &[Rat], objective: Rat) -> LpSolution {
        let mut values = BTreeMap::new();
        for &v in &self.vars {
            let pos = col_values[self.col_of_pos[&v]].clone();
            let val = match self.col_of_neg.get(&v) {
                Some(&neg) => &pos - &col_values[neg],
                None => pos,
            };
            values.insert(v, val);
        }
        LpSolution { values, objective }
    }
}

impl LpProblem {
    /// Creates an empty problem.
    pub fn new() -> LpProblem {
        LpProblem::default()
    }

    /// Declares the sign restriction of a variable (default: free).
    pub fn set_var_kind(&mut self, v: Var, kind: VarKind) {
        self.var_kinds.insert(v, kind);
    }

    /// Adds the constraint `expr REL 0`.
    pub fn add_constraint(&mut self, expr: LinExpr, rel: Rel) {
        self.constraints.push((expr, rel));
    }

    /// Sets the linear objective to minimise.
    pub fn set_objective(&mut self, objective: LinExpr) {
        self.objective = Some(objective);
    }

    /// Maps every user variable to one or two simplex columns.
    fn column_map(&self) -> ColumnMap {
        let mut vars: Vec<Var> = self
            .constraints
            .iter()
            .flat_map(|(e, _)| e.vars().collect::<Vec<_>>())
            .chain(self.objective.iter().flat_map(|e| e.vars().collect::<Vec<_>>()))
            .collect();
        vars.sort();
        vars.dedup();

        let mut col_of_pos: BTreeMap<Var, usize> = BTreeMap::new();
        let mut col_of_neg: BTreeMap<Var, usize> = BTreeMap::new();
        let mut num_cols = 0usize;
        for &v in &vars {
            let kind = self.var_kinds.get(&v).copied().unwrap_or_default();
            col_of_pos.insert(v, num_cols);
            num_cols += 1;
            if kind == VarKind::Free {
                col_of_neg.insert(v, num_cols);
                num_cols += 1;
            }
        }
        ColumnMap { vars, col_of_pos, col_of_neg, structural_cols: num_cols }
    }

    /// The dense phase-2 cost vector of the objective (if any).
    fn cost_vector(&self, map: &ColumnMap, total_cols: usize) -> Option<Vec<Rat>> {
        let obj = self.objective.as_ref()?;
        let mut cost = vec![Rat::zero(); total_cols];
        for (v, c) in obj.nonzeros() {
            cost[map.col_of_pos[&v]] += c;
            if let Some(&neg) = map.col_of_neg.get(&v) {
                cost[neg] -= c;
            }
        }
        Some(cost)
    }

    /// Solves the problem with the revised simplex (see the module docs),
    /// cold. The results are bitwise-identical to
    /// [`LpProblem::solve_dense`].
    pub fn solve(&self) -> LpResult {
        self.solve_with(None, &mut BasisCache::new())
    }

    /// Solves with the revised engine, warm-starting from (and afterwards
    /// updating) the basis stored under `warm_key` in `cache`. A warm start
    /// keeps the verdict and any optimal objective value of a cold solve,
    /// but may land on a different optimal vertex.
    fn solve_with(&self, warm_key: Option<u64>, cache: &mut BasisCache) -> LpResult {
        let map = self.column_map();
        let form = self.column_form(&map);
        let cost = self.cost_vector(&map, form.num_cols());
        match form.solve(cost.as_deref(), warm_key, cache) {
            ColumnOutcome::Infeasible => LpResult::Infeasible,
            ColumnOutcome::Unbounded => LpResult::Unbounded,
            ColumnOutcome::Optimal { values, cost } => {
                let objective = match &self.objective {
                    Some(objective) => &cost + objective.constant_part(),
                    None => Rat::zero(),
                };
                LpResult::Optimal(map.reconstruct(&values, objective))
            }
        }
    }

    /// Lowers the constraints into the revised engine's column form, column
    /// by column: the structural columns in [`ColumnMap`] order, then one
    /// slack/surplus column per inequality in constraint order. A row whose
    /// right-hand side `−constant` is negative is negated throughout.
    fn column_form(&self, map: &ColumnMap) -> ColumnForm {
        let negated: Vec<bool> =
            self.constraints.iter().map(|(e, _)| e.constant_part().is_positive()).collect();
        let signed = |i: usize, c: Rat| if negated[i] { -c } else { c };
        // The rows are visited in order, so every column's entries arrive
        // sorted by row.
        let mut columns: Vec<Vec<(u32, Rat)>> = vec![Vec::new(); map.structural_cols];
        for (i, (expr, _)) in self.constraints.iter().enumerate() {
            for (v, c) in expr.nonzeros() {
                columns[map.col_of_pos[&v]].push((i as u32, signed(i, c.clone())));
            }
        }
        // A free variable's negative part mirrors the column just before it.
        for &neg in map.col_of_neg.values() {
            columns[neg] = columns[neg - 1].iter().map(|(i, a)| (*i, -a)).collect();
        }
        let mut form = ColumnForm::new(
            self.constraints.iter().map(|(e, _)| e.constant_part().abs()).collect(),
        );
        for column in &columns {
            form.push_column(column);
        }
        for (i, (_, rel)) in self.constraints.iter().enumerate() {
            let slack = match rel {
                Rel::Eq => continue,
                Rel::Ge => -Rat::one(),
                Rel::Le => Rat::one(),
            };
            form.push_column(&[(i as u32, signed(i, slack))]);
        }
        form
    }

    /// Solves the problem with the dense reference tableau.
    ///
    /// This is the differential oracle for [`LpProblem::solve`]: it builds
    /// its own dense rows from the constraints and must produce
    /// **bitwise-identical** results (both engines make the same Bland's-rule
    /// pivot choices, and exact arithmetic makes every intermediate value
    /// representation-independent). The `num_profile` bench bin re-checks
    /// this equivalence on every run via FNV digests of the solutions.
    pub fn solve_dense(&self) -> LpResult {
        self.solve_dense_counted().0
    }

    /// [`LpProblem::solve_dense`], with the number of pivots it took
    /// (phase 1, the artificial drive-out and phase 2).
    fn solve_dense_counted(&self) -> (LpResult, u64) {
        let map = self.column_map();
        let m = self.constraints.len();

        // Build rows: a·x (cols) = b with b >= 0, adding slack/surplus columns.
        let mut rows: Vec<Vec<Rat>> = Vec::with_capacity(m);
        let mut rhs: Vec<Rat> = Vec::with_capacity(m);
        let mut slack_specs: Vec<(usize, Rat)> = Vec::new(); // (row, coefficient)
        for (i, (expr, rel)) in self.constraints.iter().enumerate() {
            let mut row = vec![Rat::zero(); map.structural_cols];
            for (v, c) in expr.coeffs() {
                row[map.col_of_pos[v]] += c;
                if let Some(&neg) = map.col_of_neg.get(v) {
                    row[neg] -= c;
                }
            }
            let b = -expr.constant_part().clone();
            let slack = match rel {
                Rel::Eq => None,
                Rel::Ge => Some(-Rat::one()),
                Rel::Le => Some(Rat::one()),
            };
            rows.push(row);
            rhs.push(b);
            if let Some(c) = slack {
                slack_specs.push((i, c));
            }
        }
        // Append slack columns.
        let num_slack = slack_specs.len();
        for row in rows.iter_mut() {
            row.extend(std::iter::repeat_n(Rat::zero(), num_slack));
        }
        for (k, (row_idx, coeff)) in slack_specs.iter().enumerate() {
            rows[*row_idx][map.structural_cols + k] = coeff.clone();
        }
        let total_decision_cols = map.structural_cols + num_slack;
        // Normalise signs so that rhs >= 0.
        for i in 0..m {
            if rhs[i].is_negative() {
                rhs[i] = -std::mem::take(&mut rhs[i]);
                for c in rows[i].iter_mut() {
                    if !c.is_zero() {
                        *c = -std::mem::take(c);
                    }
                }
            }
        }
        // Append artificial columns (one per row) to get an initial basis.
        for (i, row) in rows.iter_mut().enumerate() {
            row.extend(std::iter::repeat_n(Rat::zero(), m));
            row[total_decision_cols + i] = Rat::one();
        }
        let total_cols = total_decision_cols + m;
        let mut basis: Vec<usize> = (0..m).map(|i| total_decision_cols + i).collect();

        // Phase 1: minimise the sum of artificial variables.
        let phase1_cost: Vec<Rat> = (0..total_cols)
            .map(|j| if j >= total_decision_cols { Rat::one() } else { Rat::zero() })
            .collect();
        let banned: Vec<bool> = vec![false; total_cols];
        let mut pivots = 0;
        if !simplex_dense(&mut rows, &mut rhs, &mut basis, &phase1_cost, &banned, &mut pivots) {
            // Phase 1 objective is bounded below by 0, so this cannot happen.
            return (LpResult::Infeasible, pivots);
        }
        let phase1_value: Rat =
            basis.iter().enumerate().map(|(i, &b)| &phase1_cost[b] * &rhs[i]).sum();
        if phase1_value.is_positive() {
            return (LpResult::Infeasible, pivots);
        }
        // Drive artificial variables out of the basis where possible.
        for i in 0..m {
            if basis[i] >= total_decision_cols {
                if let Some(j) = (0..total_decision_cols).find(|&j| !rows[i][j].is_zero()) {
                    pivot_dense(&mut rows, &mut rhs, &mut basis, i, j);
                    pivots += 1;
                }
            }
        }
        // Ban artificial columns from ever entering again.
        let mut banned = vec![false; total_cols];
        banned[total_decision_cols..].fill(true);

        // Phase 2 (only if an objective is present).
        let objective_value;
        if let Some(cost) = self.cost_vector(&map, total_cols) {
            if !simplex_dense(&mut rows, &mut rhs, &mut basis, &cost, &banned, &mut pivots) {
                return (LpResult::Unbounded, pivots);
            }
            let basis_value: Rat = basis.iter().enumerate().map(|(i, &b)| &cost[b] * &rhs[i]).sum();
            objective_value = &basis_value
                + self.objective.as_ref().expect("cost implies objective").constant_part();
        } else {
            objective_value = Rat::zero();
        }

        // Extract the solution.
        let mut col_values = vec![Rat::zero(); total_cols];
        for (i, &b) in basis.iter().enumerate() {
            col_values[b] = rhs[i].clone();
        }
        (LpResult::Optimal(map.reconstruct(&col_values, objective_value)), pivots)
    }
}

/// Integer column entries `(row, value)`: machine words while every value
/// lies within `±i64::MAX` (so negating one stays a word), [`Int`]s from the
/// first value that does not. The choice is canonical, so two builders of
/// the same columns compare equal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Entries {
    Words(Vec<(u32, i64)>),
    Ints(Vec<(u32, Int)>),
}

impl Entries {
    fn len(&self) -> usize {
        match self {
            Entries::Words(words) => words.len(),
            Entries::Ints(ints) => ints.len(),
        }
    }

    /// Appends `(row, value)`.
    fn push(&mut self, row: u32, value: Int) {
        if let Entries::Words(words) = self {
            match value.to_i64().filter(|&v| v != i64::MIN) {
                Some(v) => return words.push((row, v)),
                None => {
                    *self = Entries::Ints(words.iter().map(|&(i, v)| (i, Int::from(v))).collect())
                }
            }
        }
        if let Entries::Ints(ints) = self {
            ints.push((row, value));
        }
    }

    /// Appends `(row, a·scale)`, which must be an integer.
    fn push_scaled(&mut self, row: u32, a: &Rat, scale: &Rat) {
        if let (Entries::Words(words), Some((num, 1)), true) =
            (&mut *self, a.packed_parts(), scale.is_one())
        {
            if num != i64::MIN {
                return words.push((row, num));
            }
        }
        self.push(row, scaled_integer(a, scale));
    }

    /// A copy in which the entry of row `at` lands in row `to(at).0`,
    /// negated where `to(at).1`, with room for `extra` more entries.
    fn relabel(&self, extra: usize, to: impl Fn(u32) -> (u32, bool)) -> Entries {
        match self {
            Entries::Words(words) => {
                let mut out = Vec::with_capacity(words.len() + extra);
                out.extend(words.iter().map(|&(at, a)| {
                    let (row, flip) = to(at);
                    (row, if flip { -a } else { a })
                }));
                Entries::Words(out)
            }
            Entries::Ints(ints) => {
                let mut out = Vec::with_capacity(ints.len() + extra);
                out.extend(ints.iter().map(|(at, a)| {
                    let (row, flip) = to(*at);
                    (row, if flip { -a } else { a.clone() })
                }));
                Entries::Ints(out)
            }
        }
    }

    /// Whether the runs `starts` delimits are contiguous, nonzero, below
    /// row `m` and strictly increasing by row.
    fn valid_runs(&self, starts: &[u32], m: usize) -> bool {
        fn check<T>(
            entries: &[(u32, T)],
            starts: &[u32],
            m: usize,
            zero: impl Fn(&T) -> bool,
        ) -> bool {
            starts.first() == Some(&0)
                && starts.last().is_some_and(|&end| end as usize == entries.len())
                && starts.windows(2).all(|w| {
                    let run = &entries[w[0] as usize..w[1] as usize];
                    run.windows(2).all(|p| p[0].0 < p[1].0)
                        && run.iter().all(|(i, a)| !zero(a) && (*i as usize) < m)
                })
        }
        match self {
            Entries::Words(words) => check(words, starts, m, |a| *a == 0),
            Entries::Ints(ints) => check(ints, starts, m, Int::is_zero),
        }
    }
}

/// `a·scale`, which must be an integer.
fn scaled_integer(a: &Rat, scale: &Rat) -> Int {
    if scale.is_one() {
        debug_assert!(a.is_integer(), "scaled value is not an integer");
        return a.numer();
    }
    let scaled = a * scale;
    debug_assert!(scaled.is_integer(), "scaled value is not an integer");
    scaled.numer()
}

/// The positive scale that makes `values` integral and coprime: the lcm of
/// their denominators over the gcd of the numerators that lcm gives (1 for
/// values that are all zero). Scaling a column, the right-hand side or the
/// cost by it keeps every pivot and keeps the kernel's words small.
fn primitive_scale<'a>(values: impl Iterator<Item = &'a Rat> + Clone) -> Rat {
    let mut lcm = Int::one();
    for v in values.clone().filter(|v| !v.is_integer()) {
        lcm = lcm.lcm(&v.denom());
    }
    let lcm = Rat::from(lcm);
    let mut content = Int::zero();
    for v in values {
        content = content.gcd(&scaled_integer(v, &lcm));
        if content.is_one() {
            return lcm;
        }
    }
    if content.is_zero() {
        lcm
    } else {
        &lcm / &Rat::from(content)
    }
}

/// The values times their [`primitive_scale`], and that scale.
fn integral(values: &[Rat]) -> (Vec<Int>, Rat) {
    let scale = primitive_scale(values.iter());
    (values.iter().map(|v| scaled_integer(v, &scale)).collect(), scale)
}

/// Columns as integer runs: column `j` holds its `(row, s_j·a_ij)`
/// nonzeros by strictly increasing row, where `s_j` is its
/// [`primitive_scale`], which keeps every pivot (see the module docs).
/// [`LpProblem`]'s lowering and the entailment oracle's skeletons build them
/// with [`IntColumns::push`], so both scale alike.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct IntColumns {
    entries: Entries,
    /// Column `j` is `entries[starts[j]..starts[j + 1]]`.
    starts: Vec<u32>,
    /// `(j, s_j)` for every column whose scale is not 1, by increasing `j`.
    scales: Vec<(u32, Rat)>,
}

impl IntColumns {
    /// No column yet.
    pub(crate) fn new() -> IntColumns {
        IntColumns { entries: Entries::Words(Vec::new()), starts: vec![0], scales: Vec::new() }
    }

    /// The number of columns.
    pub(crate) fn len(&self) -> usize {
        self.starts.len() - 1
    }

    /// Appends the next column, given its nonzeros in increasing row order.
    pub(crate) fn push<'a>(&mut self, nonzeros: impl Iterator<Item = (u32, &'a Rat)> + Clone) {
        let scale = primitive_scale(nonzeros.clone().map(|(_, a)| a));
        for (i, a) in nonzeros {
            self.entries.push_scaled(i, a, &scale);
        }
        if !scale.is_one() {
            self.scales.push((self.len() as u32, scale));
        }
        self.starts
            .push(u32::try_from(self.entries.len()).expect("column entries fit u32 offsets"));
    }

    /// A copy in which the entry of row `at` lands in row `to(at).0`,
    /// negated where `to(at).1`, with room for `extra` more one-entry
    /// columns.
    pub(crate) fn relabel(&self, extra: usize, to: impl Fn(u32) -> (u32, bool)) -> IntColumns {
        let mut starts = Vec::with_capacity(self.starts.len() + extra);
        starts.extend_from_slice(&self.starts);
        IntColumns { entries: self.entries.relabel(extra, to), starts, scales: self.scales.clone() }
    }

    /// The scale of column `j`, if it is not 1.
    fn scale(&self, j: usize) -> Option<&Rat> {
        let at = self.scales.binary_search_by_key(&(j as u32), |(c, _)| *c).ok()?;
        Some(&self.scales[at].1)
    }
}

/// The revised engine's input: a standard form `A·x = b`, `x ≥ 0` with
/// `b ≥ 0`, stored column by column as [`IntColumns`]. [`LpProblem`]'s
/// lowering and the entailment oracle's Farkas builder both produce it, so
/// phase 1, the artificial drive-out, warm starts and extraction live in one
/// core, [`ColumnForm::solve`], which appends the artificial identity block
/// after the decision columns.
#[cfg_attr(test, derive(Debug, PartialEq))]
pub(crate) struct ColumnForm {
    columns: IntColumns,
    rhs: Vec<Rat>,
}

/// The outcome of [`ColumnForm::solve`].
pub(crate) enum ColumnOutcome {
    Infeasible,
    Unbounded,
    /// An optimal basic solution: the value of every decision column, and
    /// its cost `c·x` (zero for a feasibility problem).
    Optimal {
        values: Vec<Rat>,
        cost: Rat,
    },
}

impl ColumnForm {
    /// A form over `rhs.len()` rows (every right-hand side `≥ 0`) that has
    /// no column yet.
    pub(crate) fn new(rhs: Vec<Rat>) -> ColumnForm {
        debug_assert!(rhs.iter().all(|b| !b.is_negative()), "negative right-hand side");
        ColumnForm { columns: IntColumns::new(), rhs }
    }

    /// A form over `rhs.len()` rows (every right-hand side `≥ 0`) with the
    /// given decision columns. Capacity reserved past them holds the
    /// artificial block [`ColumnForm::solve`] appends.
    pub(crate) fn from_columns(rhs: Vec<Rat>, columns: IntColumns) -> ColumnForm {
        debug_assert!(rhs.iter().all(|b| !b.is_negative()), "negative right-hand side");
        debug_assert!(
            columns.entries.valid_runs(&columns.starts, rhs.len()),
            "column runs must be contiguous, nonzero, in range and strictly increasing by row"
        );
        ColumnForm { columns, rhs }
    }

    /// Appends the next decision column, given its nonzeros in increasing
    /// row order.
    pub(crate) fn push_column(&mut self, nonzeros: &[(u32, Rat)]) {
        debug_assert!(
            nonzeros.windows(2).all(|w| w[0].0 < w[1].0)
                && nonzeros.iter().all(|(i, a)| !a.is_zero() && *i < self.rhs.len() as u32),
            "column entries must be nonzero, in range and strictly increasing by row"
        );
        self.columns.push(nonzeros.iter().map(|(i, a)| (*i, a)));
    }

    fn num_cols(&self) -> usize {
        self.columns.len()
    }

    /// Minimises `cost·x` over the form — or, without a cost, finds a
    /// feasible point — with the revised simplex, warm-starting from (and
    /// afterwards updating) the basis stored under `warm_key` in `cache`.
    /// `cost` has one entry per decision column.
    ///
    /// The kernel runs over `i64` words; if a number leaves them, the LP is
    /// solved again from scratch over [`Int`], and only that run's pivots
    /// and warm start count.
    pub(crate) fn solve(
        mut self,
        cost: Option<&[Rat]>,
        warm_key: Option<u64>,
        cache: &mut BasisCache,
    ) -> ColumnOutcome {
        let total_decision_cols = self.num_cols();
        let (rhs, rhs_scale, int_cost) = self.integral_inputs(cost);
        cache.stats.solves += 1;
        let stored = match warm_key {
            Some(key) => {
                cache.stats.warm_lookups += 1;
                cache.map.get(&key).map(Vec::as_slice)
            }
            None => None,
        };
        let run = match self.run::<i64>(&rhs, int_cost.as_deref(), stored) {
            Ok(run) => run,
            Err(Overflow) => {
                cache.stats.bignum_solves += 1;
                self.run::<Int>(&rhs, int_cost.as_deref(), stored)
                    .expect("Int words never overflow")
            }
        };
        cache.stats.pivots += run.pivots;
        if run.warmed {
            cache.stats.warm_hits += 1;
            cache.stats.refactorizations += 1;
        }
        match run.status {
            Status::Infeasible => return ColumnOutcome::Infeasible,
            Status::Unbounded => return ColumnOutcome::Unbounded,
            Status::Optimal => {}
        }

        // Remember the final basis for the next structurally identical
        // problem. Only artificial-free bases are stored: re-factorizing a
        // basis that contains an artificial column against a different
        // right-hand side could assign that artificial a positive value,
        // silently relaxing its constraint — rather than guard against that
        // in the warm path, such (rare, degenerate) bases are not cached.
        if let Some(key) = warm_key {
            if run.basis.iter().all(|&b| b < total_decision_cols) {
                cache.map.insert(key, run.basis.iter().map(|&b| b as u32).collect());
            }
        }

        // Extract the solution: basic column `b` in row `i` is
        // `s_b·X_i / (D·t)` in the unscaled problem.
        let mut values = vec![Rat::zero(); total_decision_cols];
        for (&b, x) in run.basis.iter().zip(&run.x) {
            if b < total_decision_cols && !x.is_zero() {
                let mut value = Rat::new(x.clone(), run.det.clone());
                if let Some(s) = self.columns.scale(b) {
                    value = &value * s;
                }
                if !rhs_scale.is_one() {
                    value = &value / &rhs_scale;
                }
                values[b] = value;
            }
        }
        let cost_value = match cost {
            Some(cost) => run
                .basis
                .iter()
                .filter(|&&b| b < total_decision_cols)
                .map(|&b| &cost[b] * &values[b])
                .sum(),
            None => Rat::zero(),
        };
        ColumnOutcome::Optimal { values, cost: cost_value }
    }

    /// Appends the artificial identity block and makes the inputs integral
    /// by positive scalings that change no pivot: the right-hand side times
    /// its [`primitive_scale`] `t`, returned for extraction, and the cost
    /// (one entry per decision column) times every column's scale and then
    /// its own primitive scale.
    fn integral_inputs(&mut self, cost: Option<&[Rat]>) -> (Vec<Int>, Rat, Option<Vec<Int>>) {
        for i in 0..self.rhs.len() {
            self.push_column(&[(i as u32, Rat::one())]);
        }
        let (rhs, rhs_scale) = integral(&self.rhs);
        let cost = cost.map(|cost| {
            let mut scaled = cost.to_vec();
            for (j, s) in &self.columns.scales {
                scaled[*j as usize] *= s;
            }
            integral(&scaled).0
        });
        (rhs, rhs_scale, cost)
    }

    /// One solve over word tier `T`: the warm start from `stored` if it is
    /// given and takes, else phase 1 and the drive-out; then phase 2 when
    /// there is a `cost` (integral, one entry per decision column).
    /// Takes the inputs of [`ColumnForm::integral_inputs`].
    fn run<T: Word>(
        &self,
        rhs: &[Int],
        cost: Option<&[Int]>,
        stored: Option<&[u32]>,
    ) -> Result<Run, Overflow> {
        let columns = T::columns(&self.columns.entries)?;
        let m = self.rhs.len();
        let n = self.num_cols() - m;
        let rhs = rhs.iter().map(T::of).collect::<Result<Vec<T>, _>>()?;
        let mut kernel = Kernel::new(&columns, &self.columns.starts, n, rhs);
        let warmed = match stored {
            Some(stored) => kernel.warm_start(stored)?,
            None => false,
        };
        let status = 'solve: {
            if !warmed {
                kernel.cold_start();
                // Phase 1: minimise the sum of artificial variables.
                let phase1_cost: Vec<T> =
                    (0..n + m).map(|j| if j < n { T::zero() } else { T::one() }).collect();
                if !kernel.simplex(&phase1_cost, n + m)? {
                    // Phase 1 objective is bounded below by 0, so this cannot happen.
                    break 'solve Status::Infeasible;
                }
                // The basic solution is feasible, so the phase-1 optimum is
                // positive iff some basic artificial is.
                let positive = kernel
                    .basis
                    .iter()
                    .zip(&kernel.x)
                    .any(|(&b, x)| b >= n && x.sign() == Ordering::Greater);
                if positive {
                    break 'solve Status::Infeasible;
                }
                kernel.drive_out_artificials()?;
            }
            // Phase 2 (only if an objective is present), artificial columns
            // banned from (re-)entering.
            if let Some(cost) = cost {
                let cost = cost
                    .iter()
                    .map(T::of)
                    .chain(std::iter::repeat_with(|| Ok(T::zero())).take(m))
                    .collect::<Result<Vec<T>, _>>()?;
                if !kernel.simplex(&cost, n)? {
                    break 'solve Status::Unbounded;
                }
            }
            Status::Optimal
        };
        Ok(Run {
            status,
            x: kernel.x.iter().map(Word::to_int).collect(),
            det: kernel.det.to_int(),
            basis: kernel.basis,
            pivots: kernel.pivots,
            warmed,
        })
    }
}

/// Counters kept by the revised simplex engine, surfaced through the
/// prover's per-run statistics.
///
/// All counters are monotone; callers snapshot and subtract
/// ([`LpStats::delta_since`]) to attribute work to one prove call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LpStats {
    /// Solves performed by the revised engine.
    pub solves: u64,
    /// Simplex pivots performed (phase 1, artificial drive-out and phase 2).
    pub pivots: u64,
    /// Basis re-factorizations (one per accepted warm start).
    pub refactorizations: u64,
    /// Warm-start lookups: solves given a key into the entailment memo's
    /// stored bases.
    pub warm_lookups: u64,
    /// Warm-start hits: a stored basis re-factorized successfully and its
    /// basic solution was feasible, so phase 1 was skipped.
    pub warm_hits: u64,
    /// Solves whose numbers left `i64` and that were solved again over
    /// [`revterm_num::Int`]. Each is one solve in [`LpStats::solves`], and
    /// only the re-solve's pivots count.
    pub bignum_solves: u64,
    /// Entailment queries answered by the abstract-interpretation interval
    /// fast path without building an LP at all (see `revterm_absint`).
    pub absint_fast_paths: u64,
}

impl LpStats {
    /// Adds `other`'s counters into `self`.
    pub fn accumulate(&mut self, other: &LpStats) {
        self.solves += other.solves;
        self.pivots += other.pivots;
        self.refactorizations += other.refactorizations;
        self.warm_lookups += other.warm_lookups;
        self.warm_hits += other.warm_hits;
        self.bignum_solves += other.bignum_solves;
        self.absint_fast_paths += other.absint_fast_paths;
    }

    /// The counter increments since an `earlier` snapshot of the same
    /// (monotone) counters.
    pub fn delta_since(&self, earlier: &LpStats) -> LpStats {
        LpStats {
            solves: self.solves - earlier.solves,
            pivots: self.pivots - earlier.pivots,
            refactorizations: self.refactorizations - earlier.refactorizations,
            warm_lookups: self.warm_lookups - earlier.warm_lookups,
            warm_hits: self.warm_hits - earlier.warm_hits,
            bignum_solves: self.bignum_solves - earlier.bignum_solves,
            absint_fast_paths: self.absint_fast_paths - earlier.absint_fast_paths,
        }
    }
}

/// A cache of optimal simplex bases keyed by LP *structure*, plus the
/// [`LpStats`] counters of every solve routed through it. Crate-private:
/// [`crate::EntailmentCache`] owns the one the prover uses.
///
/// The key is chosen by the caller as a hash of whatever determines the
/// constraint matrix — the entailment oracle hashes its premise-product list
/// and monomial row set, under which consecutive Houdini-stream LPs share
/// columns and differ only in right-hand sides. Keys may collide across
/// genuinely different problems: the revised engine validates the stored
/// basis (dimensions, non-singularity, feasibility) before using it, so a
/// collision costs at most a wasted re-factorization.
#[derive(Debug, Clone, Default)]
pub(crate) struct BasisCache {
    /// Stored optimal bases (decision-column indices, one per row).
    map: std::collections::HashMap<u64, Vec<u32>>,
    /// Counters across every solve routed through this cache.
    pub(crate) stats: LpStats,
}

impl BasisCache {
    /// Creates an empty cache.
    pub(crate) fn new() -> BasisCache {
        BasisCache::default()
    }
}

/// A word-tier run met a number its words cannot hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Overflow;

/// The exact integers the kernel computes with: `i64`, whose products and
/// sums are taken in `i128` and report [`Overflow`] when a result leaves
/// its type, or [`Int`], which never overflows.
trait Word: Clone + Eq + fmt::Debug {
    /// A product of two words, or a sum of such products.
    type Wide: Clone + Ord;
    fn of(value: &Int) -> Result<Self, Overflow>;
    fn to_int(&self) -> Int;
    fn zero() -> Self;
    fn one() -> Self;
    fn sign(&self) -> Ordering;
    fn negated(&self) -> Result<Self, Overflow>;
    /// The form's columns over this word type.
    fn columns(entries: &Entries) -> Result<Cow<'_, [(u32, Self)]>, Overflow>;
    fn wide_zero() -> Self::Wide;
    fn mul(a: &Self, b: &Self) -> Self::Wide;
    /// `acc += a·b`.
    fn add_mul(acc: &mut Self::Wide, a: &Self, b: &Self) -> Result<(), Overflow>;
    /// `acc −= a·b`.
    fn sub_mul(acc: &mut Self::Wide, a: &Self, b: &Self) -> Result<(), Overflow>;
    fn narrow(wide: Self::Wide) -> Result<Self, Overflow>;
    /// `(a·b − c·d) / e` for `e > 0`, a division that leaves no remainder.
    fn cross_div(a: &Self, b: &Self, c: &Self, d: &Self, e: &Self) -> Result<Self, Overflow>;

    fn is_zero(&self) -> bool {
        self.sign() == Ordering::Equal
    }
}

impl Word for i64 {
    type Wide = i128;

    fn of(value: &Int) -> Result<i64, Overflow> {
        value.to_i64().ok_or(Overflow)
    }

    fn to_int(&self) -> Int {
        Int::from(*self)
    }

    fn zero() -> i64 {
        0
    }

    fn one() -> i64 {
        1
    }

    fn sign(&self) -> Ordering {
        self.cmp(&0)
    }

    fn negated(&self) -> Result<i64, Overflow> {
        self.checked_neg().ok_or(Overflow)
    }

    fn columns(entries: &Entries) -> Result<Cow<'_, [(u32, i64)]>, Overflow> {
        match entries {
            Entries::Words(words) => Ok(Cow::Borrowed(words)),
            Entries::Ints(_) => Err(Overflow),
        }
    }

    fn wide_zero() -> i128 {
        0
    }

    fn mul(a: &i64, b: &i64) -> i128 {
        i128::from(*a) * i128::from(*b)
    }

    fn add_mul(acc: &mut i128, a: &i64, b: &i64) -> Result<(), Overflow> {
        *acc = acc.checked_add(Self::mul(a, b)).ok_or(Overflow)?;
        Ok(())
    }

    fn sub_mul(acc: &mut i128, a: &i64, b: &i64) -> Result<(), Overflow> {
        *acc = acc.checked_sub(Self::mul(a, b)).ok_or(Overflow)?;
        Ok(())
    }

    fn narrow(wide: i128) -> Result<i64, Overflow> {
        i64::try_from(wide).map_err(|_| Overflow)
    }

    fn cross_div(a: &i64, b: &i64, c: &i64, d: &i64, e: &i64) -> Result<i64, Overflow> {
        let num = Self::mul(a, b).checked_sub(Self::mul(c, d)).ok_or(Overflow)?;
        // A numerator that fits a word divides on words, which is cheaper.
        if let Ok(num) = i64::try_from(num) {
            debug_assert_eq!(num % e, 0, "inexact fraction-free division");
            return Ok(num / e);
        }
        let e = i128::from(*e);
        debug_assert_eq!(num % e, 0, "inexact fraction-free division");
        Self::narrow(num / e)
    }
}

impl Word for Int {
    type Wide = Int;

    fn of(value: &Int) -> Result<Int, Overflow> {
        Ok(value.clone())
    }

    fn to_int(&self) -> Int {
        self.clone()
    }

    fn zero() -> Int {
        Int::zero()
    }

    fn one() -> Int {
        Int::one()
    }

    fn sign(&self) -> Ordering {
        self.cmp(&Int::zero())
    }

    fn negated(&self) -> Result<Int, Overflow> {
        Ok(-self)
    }

    fn columns(entries: &Entries) -> Result<Cow<'_, [(u32, Int)]>, Overflow> {
        Ok(match entries {
            Entries::Words(words) => {
                Cow::Owned(words.iter().map(|&(i, a)| (i, Int::from(a))).collect())
            }
            Entries::Ints(ints) => Cow::Borrowed(ints),
        })
    }

    fn wide_zero() -> Int {
        Int::zero()
    }

    fn mul(a: &Int, b: &Int) -> Int {
        a * b
    }

    fn add_mul(acc: &mut Int, a: &Int, b: &Int) -> Result<(), Overflow> {
        *acc += &(a * b);
        Ok(())
    }

    fn sub_mul(acc: &mut Int, a: &Int, b: &Int) -> Result<(), Overflow> {
        *acc -= &(a * b);
        Ok(())
    }

    fn narrow(wide: Int) -> Result<Int, Overflow> {
        Ok(wide)
    }

    fn cross_div(a: &Int, b: &Int, c: &Int, d: &Int, e: &Int) -> Result<Int, Overflow> {
        let num = &(a * b) - &(c * d);
        if e.is_one() {
            return Ok(num);
        }
        let (quotient, remainder) = num.div_rem(e);
        debug_assert!(remainder.is_zero(), "inexact fraction-free division");
        Ok(quotient)
    }
}

/// Where a run ended.
#[cfg_attr(test, derive(Debug))]
#[derive(Clone, Copy, PartialEq, Eq)]
enum Status {
    Infeasible,
    Unbounded,
    Optimal,
}

/// What one run of the kernel leaves, in [`Int`]s whatever its word tier.
#[cfg_attr(test, derive(Debug, PartialEq))]
struct Run {
    status: Status,
    /// The final basis, one column per row.
    basis: Vec<usize>,
    /// `X = D·x_B` and `D` at the end.
    x: Vec<Int>,
    det: Int,
    pivots: u64,
    /// Whether a stored basis was installed, skipping phase 1.
    warmed: bool,
}

/// Working state of the fraction-free revised simplex over word tier `T`:
/// the integer columns, the current basis, its adjugate, determinant and
/// scaled basic solution (see the module docs).
struct Kernel<'a, T: Word> {
    /// The decision columns, then the artificial identity.
    columns: &'a [(u32, T)],
    starts: &'a [u32],
    /// Number of decision columns.
    n: usize,
    m: usize,
    rhs: Vec<T>,
    basis: Vec<usize>,
    in_basis: Vec<bool>,
    /// `M = D·B⁻¹`, row after row.
    adj: Vec<T>,
    /// `D = ±det B`, positive.
    det: T,
    /// `X = D·x_B`.
    x: Vec<T>,
    pivots: u64,
}

impl<'a, T: Word> Kernel<'a, T> {
    fn new(columns: &'a [(u32, T)], starts: &'a [u32], n: usize, rhs: Vec<T>) -> Kernel<'a, T> {
        Kernel {
            columns,
            starts,
            n,
            m: rhs.len(),
            rhs,
            basis: Vec::new(),
            in_basis: Vec::new(),
            adj: Vec::new(),
            det: T::one(),
            x: Vec::new(),
            pivots: 0,
        }
    }

    fn column(&self, j: usize) -> &'a [(u32, T)] {
        &self.columns[self.starts[j] as usize..self.starts[j + 1] as usize]
    }

    fn row(&self, i: usize) -> &[T] {
        &self.adj[i * self.m..(i + 1) * self.m]
    }

    /// Installs the all-artificial starting basis (`M = I`, `D = 1`,
    /// `X = b`).
    fn cold_start(&mut self) {
        let m = self.m;
        self.adj = vec![T::zero(); m * m];
        for i in 0..m {
            self.adj[i * m + i] = T::one();
        }
        self.det = T::one();
        self.x = self.rhs.clone();
        self.basis = (self.n..self.n + m).collect();
        self.in_basis = vec![false; self.n + m];
        self.in_basis[self.n..].fill(true);
    }

    /// `w = M·a_j`: `D` times column `j`'s image under `B⁻¹`.
    fn image(&self, j: usize) -> Result<Vec<T>, Overflow> {
        let column = self.column(j);
        (0..self.m)
            .map(|i| {
                let row = self.row(i);
                let mut acc = T::wide_zero();
                for (k, a) in column {
                    T::add_mul(&mut acc, &row[*k as usize], a)?;
                }
                T::narrow(acc)
            })
            .collect()
    }

    /// Bland pricing: the lowest-index non-basic column below
    /// `entering_below` whose reduced cost `c_j − y·a_j` is negative,
    /// decided as `c_j·D − Y·a_j < 0` with `Y = c_B·M`. These signs are the
    /// dense tableau's reduced-cost row's, so both engines pick the same
    /// entering column.
    fn price(&self, cost: &[T], entering_below: usize) -> Result<Option<usize>, Overflow> {
        let mut dual = vec![T::wide_zero(); self.m];
        for (i, &b) in self.basis.iter().enumerate() {
            let c = &cost[b];
            if c.is_zero() {
                continue;
            }
            for (y, a) in dual.iter_mut().zip(self.row(i)) {
                T::add_mul(y, c, a)?;
            }
        }
        let dual = dual.into_iter().map(T::narrow).collect::<Result<Vec<T>, _>>()?;
        let zero = T::wide_zero();
        for (j, c) in cost.iter().enumerate().take(entering_below) {
            if self.in_basis[j] {
                continue;
            }
            let mut reduced = if c.is_zero() { zero.clone() } else { T::mul(&self.det, c) };
            for (k, a) in self.column(j) {
                T::sub_mul(&mut reduced, &dual[*k as usize], a)?;
            }
            if reduced < zero {
                return Ok(Some(j));
            }
        }
        Ok(None)
    }

    /// The dense tableau's ratio test on `w`: lowest ratio `X_i / w_i` over
    /// `w_i > 0` (compared as `X_i·w_l < X_l·w_i`), ties broken towards the
    /// lowest basic variable index.
    fn ratio_test(&self, w: &[T]) -> Option<usize> {
        let mut leaving: Option<usize> = None;
        for (i, wi) in w.iter().enumerate() {
            if wi.sign() != Ordering::Greater {
                continue;
            }
            let better = match leaving {
                None => true,
                Some(l) => match T::mul(&self.x[i], &w[l]).cmp(&T::mul(&self.x[l], wi)) {
                    Ordering::Less => true,
                    Ordering::Equal => self.basis[i] < self.basis[l],
                    Ordering::Greater => false,
                },
            };
            if better {
                leaving = Some(i);
            }
        }
        leaving
    }

    /// Updates `M`, `X` and `D` for the basis change at row `r` whose
    /// entering column has image `w` (`w_r ≠ 0`): every other row `i` becomes
    /// `(w_r·M_i − w_i·M_r)/D`, and `D` becomes `w_r`, all three negated if
    /// that is negative.
    fn eliminate(&mut self, r: usize, w: &[T]) -> Result<(), Overflow> {
        let m = self.m;
        let wr = &w[r];
        debug_assert!(!wr.is_zero(), "pivot on zero element");
        let pivot_row = self.row(r).to_vec();
        for (i, wi) in w.iter().enumerate() {
            // A row the entering column misses only rescales by `w_r/D`.
            if i == r || (wi.is_zero() && *wr == self.det) {
                continue;
            }
            for (v, p) in self.adj[i * m..(i + 1) * m].iter_mut().zip(&pivot_row) {
                if !(v.is_zero() && p.is_zero()) {
                    *v = T::cross_div(wr, v, wi, p, &self.det)?;
                }
            }
            self.x[i] = T::cross_div(wr, &self.x[i], wi, &self.x[r], &self.det)?;
        }
        self.det = wr.clone();
        if self.det.sign() == Ordering::Less {
            for v in self.adj.iter_mut().chain(self.x.iter_mut()) {
                *v = v.negated()?;
            }
            self.det = self.det.negated()?;
        }
        Ok(())
    }

    /// Replaces the basic variable at row `r` by `entering`, whose image is
    /// `w`.
    fn pivot(&mut self, r: usize, entering: usize, w: &[T]) -> Result<(), Overflow> {
        self.eliminate(r, w)?;
        self.in_basis[self.basis[r]] = false;
        self.in_basis[entering] = true;
        self.basis[r] = entering;
        self.pivots += 1;
        Ok(())
    }

    /// Runs Bland's-rule simplex to optimality from the current (feasible)
    /// basis, letting only columns below `entering_below` enter. Returns
    /// `false` iff the objective is unbounded below.
    fn simplex(&mut self, cost: &[T], entering_below: usize) -> Result<bool, Overflow> {
        loop {
            let Some(entering) = self.price(cost, entering_below)? else { return Ok(true) };
            let w = self.image(entering)?;
            let Some(r) = self.ratio_test(&w) else { return Ok(false) };
            self.pivot(r, entering, &w)?;
        }
    }

    /// Pivots remaining artificial basic variables out wherever some
    /// decision column has a nonzero in their tableau row `M_slot·A` — the
    /// same lowest-column choice as the dense tableau's drive-out (basic
    /// decision columns are unit vectors there, with a zero in every other
    /// row, so skipping them here changes nothing). The pivot element may be
    /// negative.
    fn drive_out_artificials(&mut self) -> Result<(), Overflow> {
        let zero = T::wide_zero();
        for slot in 0..self.m {
            if self.basis[slot] < self.n {
                continue;
            }
            let mut entering = None;
            for j in (0..self.n).filter(|&j| !self.in_basis[j]) {
                let mut entry = zero.clone();
                for (k, a) in self.column(j) {
                    T::add_mul(&mut entry, &self.row(slot)[*k as usize], a)?;
                }
                if entry != zero {
                    entering = Some(j);
                    break;
                }
            }
            if let Some(j) = entering {
                let w = self.image(j)?;
                debug_assert!(!w[slot].is_zero(), "drive-out pivot on zero element");
                self.pivot(slot, j, &w)?;
            }
        }
        Ok(())
    }

    /// Attempts to install `stored` (decision-column indices of a previously
    /// optimal basis) by re-factorizing it against this problem's columns.
    /// Returns `false` — leaving the kernel to a cold start — when the
    /// stored basis does not fit this problem, is singular, or its basic
    /// solution is infeasible for this right-hand side.
    fn warm_start(&mut self, stored: &[u32]) -> Result<bool, Overflow> {
        if stored.len() != self.m {
            return Ok(false);
        }
        // Validate shape first: decision columns only, no duplicates. Keys
        // can collide across different problems, so a stored basis is
        // checked, never trusted.
        let mut seen = vec![false; self.n];
        for &c in stored {
            let c = c as usize;
            if c >= self.n || seen[c] {
                return Ok(false);
            }
            seen[c] = true;
        }
        // Fraction-free Gaussian elimination from `M = I`: pivot each
        // stored column in at the lowest still-unpivoted row where its
        // image is nonzero. `X` follows along.
        self.cold_start();
        let mut pivoted = vec![false; self.m];
        for &c in stored {
            let w = self.image(c as usize)?;
            let Some(slot) = (0..self.m).find(|&i| !pivoted[i] && !w[i].is_zero()) else {
                return Ok(false); // singular basis
            };
            self.eliminate(slot, &w)?;
            pivoted[slot] = true;
            self.basis[slot] = c as usize;
        }
        self.in_basis = vec![false; self.n + self.m];
        for &b in &self.basis {
            self.in_basis[b] = true;
        }
        // Infeasible for this right-hand side unless every `X_i ≥ 0`.
        Ok(self.x.iter().all(|v| v.sign() != Ordering::Less))
    }
}

/// Runs the dense reference simplex on a tableau that already contains a
/// feasible basis, adding its pivots to `pivots`. Returns `false` if the
/// objective is unbounded below.
fn simplex_dense(
    rows: &mut [Vec<Rat>],
    rhs: &mut [Rat],
    basis: &mut [usize],
    cost: &[Rat],
    banned: &[bool],
    pivots: &mut u64,
) -> bool {
    let m = rows.len();
    let n = cost.len();
    let mut in_basis = vec![false; n];
    for &b in basis.iter() {
        in_basis[b] = true;
    }
    loop {
        // Rows whose basic variable has zero cost contribute nothing to any
        // reduced cost; skipping them up front makes the phase-1 scan (where
        // most basic variables are zero-cost after a few pivots) cheap.
        let active_rows: Vec<usize> = (0..m).filter(|&i| !cost[basis[i]].is_zero()).collect();
        // Reduced cost of column j: c_j - Σ_i c_{basis[i]} * rows[i][j].
        let mut entering = None;
        for j in 0..n {
            if banned[j] || in_basis[j] {
                continue;
            }
            let mut reduced = cost[j].clone();
            for &i in &active_rows {
                if !rows[i][j].is_zero() {
                    reduced -= &(&cost[basis[i]] * &rows[i][j]);
                }
            }
            if reduced.is_negative() {
                entering = Some(j); // Bland's rule: first (lowest-index) improving column.
                break;
            }
        }
        let entering = match entering {
            Some(j) => j,
            None => return true, // optimal
        };
        // Ratio test.
        let mut leaving: Option<usize> = None;
        let mut best_ratio: Option<Rat> = None;
        for i in 0..m {
            if rows[i][entering].is_positive() {
                let ratio = &rhs[i] / &rows[i][entering];
                let better = match &best_ratio {
                    None => true,
                    Some(b) => {
                        ratio < *b
                            || (ratio == *b
                                && basis[i] < basis[leaving.expect("leaving set with best_ratio")])
                    }
                };
                if better {
                    best_ratio = Some(ratio);
                    leaving = Some(i);
                }
            }
        }
        let leaving = match leaving {
            Some(i) => i,
            None => return false, // unbounded
        };
        in_basis[basis[leaving]] = false;
        in_basis[entering] = true;
        pivot_dense(rows, rhs, basis, leaving, entering);
        *pivots += 1;
    }
}

/// Pivots the dense tableau so that column `col` becomes basic in row `row`.
///
/// Clone-free: the pivot row is scaled in place, and every elimination walks
/// only the non-zero entries of the pivot row (the tableau rows produced by
/// the Farkas/Handelman encodings are sparse, so this skips most columns).
fn pivot_dense(
    rows: &mut [Vec<Rat>],
    rhs: &mut [Rat],
    basis: &mut [usize],
    row: usize,
    col: usize,
) {
    let m = rows.len();
    debug_assert!(!rows[row][col].is_zero(), "pivot on zero element");
    let inv = rows[row][col].recip();
    if !inv.is_one() {
        for c in rows[row].iter_mut() {
            if !c.is_zero() {
                *c *= &inv;
            }
        }
        rhs[row] *= &inv;
    }
    for i in 0..m {
        if i == row {
            continue;
        }
        // Taking the factor zeroes rows[i][col], which is exactly the value
        // elimination assigns to it (rows[row][col] == 1 after scaling).
        let factor = std::mem::take(&mut rows[i][col]);
        if factor.is_zero() {
            continue;
        }
        let (pivot_row, target_row) = if i < row {
            let (lo, hi) = rows.split_at_mut(row);
            (&hi[0], &mut lo[i])
        } else {
            let (lo, hi) = rows.split_at_mut(i);
            (&lo[row], &mut hi[0])
        };
        for (j, p) in pivot_row.iter().enumerate() {
            if j == col || p.is_zero() {
                continue;
            }
            target_row[j] -= &(&factor * p);
        }
        let delta = &factor * &rhs[row];
        rhs[i] -= &delta;
    }
    basis[row] = col;
}

#[cfg(test)]
mod tests {
    use super::*;
    use revterm_num::SplitMix64;
    use revterm_num::{rat, ratio, Int, Rat};

    fn e(c: i64) -> LinExpr {
        LinExpr::constant(rat(c))
    }
    fn v(i: u32) -> LinExpr {
        LinExpr::var(Var(i))
    }

    #[test]
    fn trivial_feasible_and_infeasible() {
        let mut lp = LpProblem::new();
        lp.add_constraint(e(1), Rel::Ge); // 1 >= 0
        assert!(lp.solve().is_feasible());

        let mut lp = LpProblem::new();
        lp.add_constraint(e(-1), Rel::Ge); // -1 >= 0
        assert_eq!(lp.solve(), LpResult::Infeasible);
    }

    #[test]
    fn feasibility_with_free_variables() {
        // x >= 3 and x <= -2 is infeasible; x >= 3 and x <= 10 is feasible.
        let mut lp = LpProblem::new();
        lp.add_constraint(v(0) - e(3), Rel::Ge);
        lp.add_constraint(v(0) + e(2), Rel::Le);
        assert_eq!(lp.solve(), LpResult::Infeasible);

        let mut lp = LpProblem::new();
        lp.add_constraint(v(0) - e(3), Rel::Ge);
        lp.add_constraint(v(0) - e(10), Rel::Le);
        let sol = lp.solve().solution().unwrap().clone();
        let x = sol.value(Var(0));
        assert!(x >= rat(3) && x <= rat(10));
    }

    #[test]
    fn negative_solutions_require_free_variables() {
        // x <= -5 with x free is feasible, with x >= 0 it is not.
        let mut lp = LpProblem::new();
        lp.set_var_kind(Var(0), VarKind::Free);
        lp.add_constraint(v(0) + e(5), Rel::Le);
        let sol = lp.solve().solution().unwrap().clone();
        assert!(sol.value(Var(0)) <= rat(-5));

        let mut lp = LpProblem::new();
        lp.set_var_kind(Var(0), VarKind::NonNegative);
        lp.add_constraint(v(0) + e(5), Rel::Le);
        assert_eq!(lp.solve(), LpResult::Infeasible);
    }

    #[test]
    fn optimisation_simple() {
        // minimise x + y subject to x >= 1, y >= 2.
        let mut lp = LpProblem::new();
        lp.set_var_kind(Var(0), VarKind::NonNegative);
        lp.set_var_kind(Var(1), VarKind::NonNegative);
        lp.add_constraint(v(0) - e(1), Rel::Ge);
        lp.add_constraint(v(1) - e(2), Rel::Ge);
        lp.set_objective(v(0) + v(1));
        let sol = lp.solve().solution().unwrap().clone();
        assert_eq!(sol.objective().clone(), rat(3));
        assert_eq!(sol.value(Var(0)), rat(1));
        assert_eq!(sol.value(Var(1)), rat(2));
    }

    #[test]
    fn optimisation_with_equalities_and_fractions() {
        // minimise 2x + 3y subject to x + y = 10, x - y <= 2, x, y >= 0.
        let mut lp = LpProblem::new();
        lp.set_var_kind(Var(0), VarKind::NonNegative);
        lp.set_var_kind(Var(1), VarKind::NonNegative);
        lp.add_constraint(v(0) + v(1) - e(10), Rel::Eq);
        lp.add_constraint(v(0) - v(1) - e(2), Rel::Le);
        lp.set_objective(v(0).scale(&rat(2)) + v(1).scale(&rat(3)));
        let sol = lp.solve().solution().unwrap().clone();
        // Optimal at x = 6, y = 4: objective 24.
        assert_eq!(sol.objective().clone(), rat(24));
        assert_eq!(sol.value(Var(0)), rat(6));
        assert_eq!(sol.value(Var(1)), rat(4));
        // Solution satisfies the constraints exactly.
        assert_eq!(&sol.value(Var(0)) + &sol.value(Var(1)), rat(10));
    }

    #[test]
    fn fractional_optimum() {
        // minimise y subject to 2y >= 1  =>  y = 1/2.
        let mut lp = LpProblem::new();
        lp.set_var_kind(Var(1), VarKind::NonNegative);
        lp.add_constraint(v(1).scale(&rat(2)) - e(1), Rel::Ge);
        lp.set_objective(v(1));
        let sol = lp.solve().solution().unwrap().clone();
        assert_eq!(sol.value(Var(1)), ratio(1, 2));
        assert_eq!(sol.objective().clone(), ratio(1, 2));
    }

    #[test]
    fn unbounded_objective() {
        // minimise -x subject to x >= 0 (x can grow forever).
        let mut lp = LpProblem::new();
        lp.set_var_kind(Var(0), VarKind::NonNegative);
        lp.add_constraint(v(0), Rel::Ge);
        lp.set_objective(-v(0));
        assert_eq!(lp.solve(), LpResult::Unbounded);
        assert_eq!(lp.solve_dense(), LpResult::Unbounded);
    }

    #[test]
    fn equality_system_solved_exactly() {
        // x + 2y = 7, 3x - y = 0  =>  x = 1, y = 3.
        let mut lp = LpProblem::new();
        lp.set_var_kind(Var(0), VarKind::Free);
        lp.set_var_kind(Var(1), VarKind::Free);
        lp.add_constraint(v(0) + v(1).scale(&rat(2)) - e(7), Rel::Eq);
        lp.add_constraint(v(0).scale(&rat(3)) - v(1), Rel::Eq);
        let sol = lp.solve().solution().unwrap().clone();
        assert_eq!(sol.value(Var(0)), rat(1));
        assert_eq!(sol.value(Var(1)), rat(3));
    }

    #[test]
    fn degenerate_and_redundant_constraints() {
        // Redundant copies of the same constraint must not confuse the solver.
        let mut lp = LpProblem::new();
        lp.set_var_kind(Var(0), VarKind::NonNegative);
        for _ in 0..4 {
            lp.add_constraint(v(0) - e(2), Rel::Ge);
        }
        lp.add_constraint(v(0) - e(2), Rel::Eq);
        lp.set_objective(v(0));
        let sol = lp.solve().solution().unwrap().clone();
        assert_eq!(sol.value(Var(0)), rat(2));
    }

    #[test]
    fn farkas_style_feasibility() {
        // Multipliers l1, l2 >= 0 with  l1 - l2 = 0  and  l1 + l2 = 2  =>  l1 = l2 = 1.
        let mut lp = LpProblem::new();
        lp.set_var_kind(Var(0), VarKind::NonNegative);
        lp.set_var_kind(Var(1), VarKind::NonNegative);
        lp.add_constraint(v(0) - v(1), Rel::Eq);
        lp.add_constraint(v(0) + v(1) - e(2), Rel::Eq);
        let sol = lp.solve().solution().unwrap().clone();
        assert_eq!(sol.value(Var(0)), rat(1));
        assert_eq!(sol.value(Var(1)), rat(1));
    }

    #[test]
    fn moderately_sized_random_like_system_is_handled() {
        // A chain x1 <= x2 <= ... <= x8, x8 <= 5, minimise -x1 - note the
        // optimum is x1 = ... = x8 = 5.
        let mut lp = LpProblem::new();
        for i in 0..8 {
            lp.set_var_kind(Var(i), VarKind::Free);
        }
        for i in 0..7 {
            lp.add_constraint(v(i + 1) - v(i), Rel::Ge);
        }
        lp.add_constraint(v(7) - e(5), Rel::Le);
        lp.set_objective(-v(0));
        let sol = lp.solve().solution().unwrap().clone();
        assert_eq!(sol.value(Var(0)), rat(5));
        assert_eq!(sol.objective().clone(), rat(-5));
    }

    // -----------------------------------------------------------------------
    // Revised vs dense differential testing.
    // -----------------------------------------------------------------------

    /// A value for the large-magnitude rounds: small integers, integers
    /// within 1000 of `±i64::MAX`, integers past the `i64` range, and small
    /// fractions over pairwise coprime denominators near `2^40`, any two of
    /// which have an lcm past `i64`.
    fn large_value(rng: &mut SplitMix64) -> Rat {
        let sign = if rng.next_below(2) == 0 { 1 } else { -1 };
        match rng.next_below(4) {
            0 => rat(sign * rng.next_in_range(1, 5)),
            1 => rat(sign * (i64::MAX - rng.next_in_range(0, 1000))),
            2 => Rat::from(Int::from(sign) * Int::from(u64::MAX - rng.next_below(1000))),
            _ => Rat::packed(sign * rng.next_in_range(1, 7), (1 << 40) + rng.next_in_range(1, 3)),
        }
    }

    /// Builds a random Farkas-flavoured system: equality/inequality rows of
    /// 1–3 nonzeros over a mix of free and non-negative variables, half the
    /// time with an objective. Coefficients, right-hand sides and costs are
    /// fractions over small denominators, and some rows repeat an earlier
    /// row scaled by a small factor, redundant or degenerate. With `large`,
    /// every coefficient, right-hand side and cost is a [`large_value`].
    fn random_lp(rng: &mut SplitMix64, with_objective: bool, large: bool) -> LpProblem {
        let small = |rng: &mut SplitMix64, lo: i64, hi: i64| {
            Rat::packed(rng.next_in_range(lo, hi), rng.next_in_range(1, 3))
        };
        let n_vars = 2 + rng.next_below(5) as usize;
        let n_rows = 2 + rng.next_below(7) as usize;
        let mut lp = LpProblem::new();
        for v in 0..n_vars {
            let kind = if rng.next_below(3) == 0 { VarKind::Free } else { VarKind::NonNegative };
            lp.set_var_kind(Var(v as u32), kind);
        }
        let mut rows: Vec<LinExpr> = Vec::new();
        for _ in 0..n_rows {
            let expr = match rows.len() {
                k if k > 0 && rng.next_below(5) == 0 => {
                    let earlier = rows[rng.next_below(k as u64) as usize].clone();
                    earlier.scale(&small(rng, -2, 2))
                }
                _ => {
                    let mut expr =
                        LinExpr::constant(if large { large_value(rng) } else { small(rng, -8, 8) });
                    for _ in 0..(1 + rng.next_below(3)) {
                        let var = rng.next_below(n_vars as u64) as u32;
                        let c = if large { large_value(rng) } else { small(rng, -5, 5) };
                        if !c.is_zero() {
                            expr.add_coeff(Var(var), c);
                        }
                    }
                    expr
                }
            };
            rows.push(expr);
        }
        for expr in rows {
            let rel = match rng.next_below(3) {
                0 => Rel::Eq,
                1 => Rel::Ge,
                _ => Rel::Le,
            };
            lp.add_constraint(expr, rel);
        }
        if with_objective {
            let mut obj = LinExpr::zero();
            for v in 0..n_vars {
                let c = if large { large_value(rng) } else { small(rng, 0, 3) };
                obj.add_coeff(Var(v as u32), c);
            }
            lp.set_objective(obj);
        }
        lp
    }

    /// The revised engine's answer and its counters on one cold solve.
    fn solve_counted(lp: &LpProblem) -> (LpResult, LpStats) {
        let mut cache = BasisCache::new();
        let result = lp.solve_with(None, &mut cache);
        (result, cache.stats)
    }

    #[test]
    fn prop_revised_and_dense_engines_agree_on_random_systems() {
        // The revised engine, on its column-form lowering, must be
        // indistinguishable from the dense reference on feasible, infeasible
        // and unbounded instances — not just the verdict but the exact
        // solution values and the number of pivots (both engines make the
        // same Bland's-rule choices). The mix of free and non-negative
        // variables, `Ge`/`Le`/`Eq` rows, right-hand sides of both signs and
        // repeated rows checks the column lowering's column pairs, slacks and
        // negated rows against the dense lowering, and the fractions check
        // the column, right-hand side and cost scalings. The small-magnitude
        // rounds run on the kernel's `i64` words; the large-magnitude rounds
        // push columns, right-hand sides and costs out of them (big-tier
        // entries, lcms past `i64`), onto the `Int` words.
        let mut rng = SplitMix64::new(0xD1FF_5EED);
        for large in [false, true] {
            let (mut feasible, mut infeasible, mut bignum) = (0, 0, 0);
            for round in 0..120 {
                let lp = random_lp(&mut rng, round % 2 == 0, large);
                let (revised, stats) = solve_counted(&lp);
                let (dense, dense_pivots) = lp.solve_dense_counted();
                assert_eq!(revised, dense, "revised vs dense diverged on:\n{lp}");
                assert_eq!(stats.pivots, dense_pivots, "pivot counts diverged on:\n{lp}");
                assert_eq!(stats.solves, 1);
                bignum += stats.bignum_solves;
                match revised {
                    LpResult::Optimal(_) => feasible += 1,
                    LpResult::Infeasible => infeasible += 1,
                    LpResult::Unbounded => {}
                }
            }
            // The generator must actually exercise both exits, and the
            // large rounds the `Int` words.
            assert!(feasible > 10, "too few feasible systems (large: {large})");
            assert!(infeasible > 10, "too few infeasible systems (large: {large})");
            assert_eq!(bignum > 10, large, "{bignum} re-solves over Int (large: {large})");
        }
        // Phase 2 of this one prices x3 at `0 − Σ_i (i64::MAX − i)²`, past
        // `i128`; its columns and cost are coprime, so no scaling shrinks
        // them back into words.
        let big = rat(i64::MAX);
        let near = |i: u32| rat(i64::MAX - i64::from(i));
        let mut lp = LpProblem::new();
        for i in 0..4 {
            lp.set_var_kind(Var(i), VarKind::NonNegative);
        }
        for i in 0..3 {
            lp.add_constraint(v(i) + v(3).scale(&near(i)) - e(1), Rel::Eq);
        }
        lp.set_objective((0..3).map(|i| v(i).scale(&near(i))).fold(LinExpr::zero(), |s, x| s + x));
        let (revised, stats) = solve_counted(&lp);
        assert_eq!((revised.clone(), stats.pivots), lp.solve_dense_counted());
        assert_eq!(revised.solution().map(|s| s.value(Var(3))), Some(big.recip()));
        assert_eq!(stats.bignum_solves, 1);
    }

    /// The run of `lp`'s column form over word tier `T`, cold.
    fn run_over<T: Word>(lp: &LpProblem) -> Result<Run, Overflow> {
        let map = lp.column_map();
        let mut form = lp.column_form(&map);
        let cost = lp.cost_vector(&map, form.num_cols());
        let (rhs, _, cost) = form.integral_inputs(cost.as_deref());
        form.run::<T>(&rhs, cost.as_deref(), None)
    }

    #[test]
    fn prop_word_tiers_take_the_same_path() {
        // One kernel, two word types: wherever the `i64` run finishes, the
        // `Int` run ends the same way, with the same basis, the same `X` and
        // `D`, and the same pivots; where it overflows, only the `Int` run
        // finishes.
        let mut rng = SplitMix64::new(0x0057_0D1E5);
        let (mut compared, mut overflowed) = (0, 0);
        for round in 0..240 {
            let lp = random_lp(&mut rng, round % 2 == 0, round % 3 == 0);
            let wide = run_over::<Int>(&lp).expect("Int words never overflow");
            match run_over::<i64>(&lp) {
                Ok(words) => {
                    assert_eq!(words, wide, "word tiers diverged on:\n{lp}");
                    compared += 1;
                }
                Err(Overflow) => overflowed += 1,
            }
        }
        assert!(compared > 150 && overflowed > 10, "{compared} compared, {overflowed} overflowed");
    }

    #[test]
    fn numbers_that_leave_i64_partway_are_re_solved_over_int() {
        // v0 + A·v1 = 1 and B·v1 + v2 = 2^62 over non-negative variables,
        // with A and B just past 2^62. Every input is a word. Phase 1 pivots
        // v0 in at row 0 (an identity step on words), then v1 in at row 0,
        // whose update writes `X_1 = A·2^62 − B`, past `i64`.
        let (a, b) = ((1i64 << 62) + 1, (1i64 << 62) + 3);
        let mut lp = LpProblem::new();
        for i in 0..3 {
            lp.set_var_kind(Var(i), VarKind::NonNegative);
        }
        lp.add_constraint(v(0) + v(1).scale(&rat(a)) - e(1), Rel::Eq);
        lp.add_constraint(v(1).scale(&rat(b)) + v(2) - e(1 << 62), Rel::Eq);

        let map = lp.column_map();
        let mut form = lp.column_form(&map);
        let (rhs, _, _) = form.integral_inputs(None);
        let columns = i64::columns(&form.columns.entries).expect("every entry is a word");
        let rhs = rhs.iter().map(i64::of).collect::<Result<Vec<_>, _>>().expect("words");
        let mut kernel = Kernel::new(&columns, &form.columns.starts, 3, rhs);
        kernel.cold_start();
        let phase1_cost = [0, 0, 0, 1, 1];
        assert_eq!(kernel.simplex(&phase1_cost, 5), Err(Overflow));
        assert_eq!(kernel.pivots, 1, "the words overflow on the second pivot");

        // The solve re-runs over Int: one solve, and only its pivots.
        let (revised, stats) = solve_counted(&lp);
        let (dense, dense_pivots) = lp.solve_dense_counted();
        assert_eq!(revised, dense);
        assert!(revised.is_feasible());
        assert_eq!(
            stats,
            LpStats { solves: 1, pivots: dense_pivots, bignum_solves: 1, ..LpStats::default() }
        );
        assert_eq!(dense_pivots, 3);

        // Random systems with entries near ±2^62: most overflow partway,
        // and each re-solve adds no solve and no pivot of its own.
        let mut rng = SplitMix64::new(0x2_6200);
        let mut bignum = 0;
        for round in 0..60 {
            let n_vars = 2 + rng.next_below(3) as u32;
            let mut lp = LpProblem::new();
            for i in 0..n_vars {
                lp.set_var_kind(Var(i), VarKind::NonNegative);
            }
            let near = |rng: &mut SplitMix64| {
                let sign = if rng.next_below(2) == 0 { 1 } else { -1 };
                match rng.next_below(3) {
                    0 => rat(sign * rng.next_in_range(1, 3)),
                    _ => rat(sign * ((1i64 << 62) + rng.next_in_range(0, 100))),
                }
            };
            for _ in 0..2 + rng.next_below(3) {
                let mut expr = LinExpr::constant(near(&mut rng));
                for i in 0..n_vars {
                    if rng.next_below(3) != 0 {
                        expr.add_coeff(Var(i), near(&mut rng));
                    }
                }
                lp.add_constraint(expr, if rng.next_below(2) == 0 { Rel::Eq } else { Rel::Le });
            }
            if round % 2 == 0 {
                lp.set_objective((0..n_vars).map(v).fold(LinExpr::zero(), |s, x| s + x));
            }
            let (revised, stats) = solve_counted(&lp);
            let (dense, dense_pivots) = lp.solve_dense_counted();
            assert_eq!(revised, dense, "on:\n{lp}");
            assert_eq!((stats.solves, stats.pivots), (1, dense_pivots), "on:\n{lp}");
            bignum += stats.bignum_solves;
        }
        assert!(bignum > 20, "only {bignum} of 60 systems left i64");
    }

    #[test]
    fn integer_pricing_declines_what_does_not_fit() {
        // The `i64` words report every result that leaves them — a value
        // past `i64`, a sum past `i128`, a negated `i64::MIN` — where the
        // `Int` words compute it exactly.
        let max = i64::MAX;
        assert_eq!(i64::of(&Int::from(u64::MAX)), Err(Overflow));
        assert_eq!(i64::narrow(i128::from(max) + 1), Err(Overflow));
        assert_eq!(i64::MIN.negated(), Err(Overflow));
        let mut acc = i64::mul(&max, &max);
        assert_eq!(i64::add_mul(&mut acc, &max, &max), Ok(()));
        assert_eq!(i64::add_mul(&mut acc, &max, &max), Err(Overflow));
        let mut acc = i64::wide_zero();
        assert_eq!(i64::sub_mul(&mut acc, &max, &max), Ok(()));
        assert_eq!(i64::sub_mul(&mut acc, &max, &max), Ok(()));
        assert_eq!(i64::sub_mul(&mut acc, &max, &max), Err(Overflow));
        // `(a·b − c·d)/e`, exact on words, through `i128` and past it.
        assert_eq!(i64::cross_div(&6, &4, &2, &3, &3), Ok(6));
        assert_eq!(i64::cross_div(&max, &4, &max, &2, &2), Ok(max));
        assert_eq!(i64::cross_div(&max, &max, &1, &1, &1), Err(Overflow));
        let wide = Int::cross_div(&max.into(), &max.into(), &1.into(), &1.into(), &1.into());
        assert_eq!(wide, Ok(&(&Int::from(max) * &Int::from(max)) - &Int::one()));
        // Column entries switch to `Int`s at the first value past
        // `±i64::MAX`, `i64::MIN` included, and only the `Int` tier reads
        // them then.
        let mut entries = Entries::Words(Vec::new());
        entries.push_scaled(0, &ratio(5, 2), &rat(4));
        assert_eq!(entries, Entries::Words(vec![(0, 10)]));
        assert_eq!(i64::columns(&entries).map(|c| c.into_owned()), Ok(vec![(0, 10)]));
        entries.push(1, Int::from(i64::MIN));
        assert_eq!(entries, Entries::Ints(vec![(0, Int::from(10)), (1, Int::from(i64::MIN))]));
        assert_eq!(i64::columns(&entries).map(|c| c.into_owned()), Err(Overflow));
        assert!(Int::columns(&entries).is_ok());
        // The primitive scale makes values integral and coprime.
        let scale = |values: &[Rat]| primitive_scale(values.iter());
        assert_eq!(scale(&[ratio(1, 2), ratio(-1, 3), rat(4)]), rat(6));
        assert_eq!(scale(&[ratio(3, 2), ratio(-9, 4)]), ratio(4, 3));
        let big = &rat(i64::MAX) * &rat(3);
        assert_eq!(scale(&[-big.clone(), rat(0)]), big.recip());
        assert_eq!(scale(&[rat(0), rat(0)]), rat(1));
        assert_eq!(
            integral(&[rat(6), rat(-4), rat(0)]),
            (vec![3.into(), (-2).into(), 0.into()], ratio(1, 2))
        );
    }

    // -----------------------------------------------------------------------
    // Revised engine: warm starts and the basis cache.
    // -----------------------------------------------------------------------

    /// A Farkas-shaped feasibility problem: non-negative multipliers on
    /// equality rows, no objective — the shape the warm-start path is built
    /// for. `rhs` perturbs the right-hand sides without changing structure.
    fn farkas_like_lp(rhs: [i64; 2]) -> LpProblem {
        let mut lp = LpProblem::new();
        lp.set_var_kind(Var(0), VarKind::NonNegative);
        lp.set_var_kind(Var(1), VarKind::NonNegative);
        lp.add_constraint(v(0) - v(1) - e(rhs[0]), Rel::Eq);
        lp.add_constraint(v(0) + v(1) - e(rhs[1]), Rel::Eq);
        lp
    }

    #[test]
    fn warm_start_skips_phase_one_on_a_repeated_problem() {
        let mut cache = BasisCache::new();
        let lp = farkas_like_lp([0, 2]);
        let cold = lp.solve_with(Some(42), &mut cache);
        assert_eq!(cold, lp.solve_dense());
        assert_eq!(cache.stats.warm_lookups, 1);
        assert_eq!(cache.stats.warm_hits, 0);
        assert_eq!(cache.map.len(), 1);
        let pivots_after_cold = cache.stats.pivots;
        assert!(pivots_after_cold > 0, "cold solve must pivot");

        // Same problem again: the stored basis re-factorizes, its solution
        // is feasible, and not a single pivot is spent.
        let warm = lp.solve_with(Some(42), &mut cache);
        assert_eq!(warm, cold);
        assert_eq!(cache.stats.warm_hits, 1);
        assert_eq!(cache.stats.refactorizations, 1);
        assert_eq!(cache.stats.pivots, pivots_after_cold);
        assert_eq!(cache.stats.solves, 2);
    }

    #[test]
    fn warm_start_tracks_right_hand_side_changes() {
        // Same structure, shifted right-hand sides — the Houdini-stream
        // shape. Every warm answer must equal the dense oracle's verdict.
        let mut cache = BasisCache::new();
        for rhs in [[0i64, 2], [1, 3], [-1, 5], [2, 2], [3, 1]] {
            let lp = farkas_like_lp(rhs);
            let warm = lp.solve_with(Some(7), &mut cache);
            let oracle = lp.solve_dense();
            assert_eq!(warm.is_feasible(), oracle.is_feasible(), "rhs {rhs:?}");
            // A feasible warm vertex still satisfies the constraints: both
            // equality rows hold exactly.
            if let Some(sol) = warm.solution() {
                let (x, y) = (sol.value(Var(0)), sol.value(Var(1)));
                assert_eq!(&x - &y, rat(rhs[0]), "rhs {rhs:?}");
                assert_eq!(&x + &y, rat(rhs[1]), "rhs {rhs:?}");
                assert!(!x.is_negative() && !y.is_negative(), "rhs {rhs:?}");
            }
        }
        assert!(cache.stats.warm_hits >= 3, "expected mostly warm hits");
    }

    #[test]
    fn infeasible_warm_basis_falls_back_to_cold() {
        // x - y = 1 over non-negative x, y. The basis {y} factorizes fine
        // but implies y = -1 < 0, so the warm start must be rejected and the
        // cold path must still find the answer.
        let mut lp = LpProblem::new();
        lp.set_var_kind(Var(0), VarKind::NonNegative);
        lp.set_var_kind(Var(1), VarKind::NonNegative);
        lp.add_constraint(v(0) - v(1) - e(1), Rel::Eq);
        let mut cache = BasisCache::new();
        cache.map.insert(9, vec![1]); // column of y
        let result = lp.solve_with(Some(9), &mut cache);
        assert_eq!(result, lp.solve_dense());
        assert!(result.is_feasible());
        assert_eq!(cache.stats.warm_lookups, 1);
        assert_eq!(cache.stats.warm_hits, 0);
        assert_eq!(cache.stats.refactorizations, 0);
        // The cold solve stored its (artificial-free) final basis in place
        // of the rejected one, so the next call warm-starts.
        let again = lp.solve_with(Some(9), &mut cache);
        assert_eq!(again, result);
        assert_eq!(cache.stats.warm_hits, 1);
    }

    #[test]
    fn singular_warm_basis_falls_back_to_cold() {
        // Columns 0 and 1 are linearly dependent (the second row is twice
        // the first), so the stored basis {0, 1} cannot be factorized.
        let mut lp = LpProblem::new();
        lp.set_var_kind(Var(0), VarKind::NonNegative);
        lp.set_var_kind(Var(1), VarKind::NonNegative);
        lp.add_constraint(v(0) + v(1) - e(2), Rel::Eq);
        lp.add_constraint(v(0).scale(&rat(2)) + v(1).scale(&rat(2)) - e(4), Rel::Eq);
        let mut cache = BasisCache::new();
        cache.map.insert(3, vec![0, 1]);
        let result = lp.solve_with(Some(3), &mut cache);
        assert_eq!(result, lp.solve_dense());
        assert!(result.is_feasible());
        assert_eq!(cache.stats.warm_hits, 0);
        assert_eq!(cache.stats.refactorizations, 0);
    }

    #[test]
    fn warm_start_whose_refactorization_leaves_i64_is_re_solved_over_int() {
        // a·x + y = a + 1 and x + a·y = a + 1 with a just past 2^62: the
        // stored basis {x, y} is the unique solution (1, 1), but its
        // re-factorization writes `X_1 = a·(a + 1) − (a + 1)`, past `i64`.
        // The `Int` re-solve installs it and takes no pivot.
        let a = rat((1i64 << 62) + 1);
        let mut lp = LpProblem::new();
        lp.set_var_kind(Var(0), VarKind::NonNegative);
        lp.set_var_kind(Var(1), VarKind::NonNegative);
        let rhs = &a + &Rat::one();
        lp.add_constraint(v(0).scale(&a) + v(1) - LinExpr::constant(rhs.clone()), Rel::Eq);
        lp.add_constraint(v(0) + v(1).scale(&a) - LinExpr::constant(rhs), Rel::Eq);
        let mut cache = BasisCache::new();
        cache.map.insert(4, vec![0, 1]);
        let result = lp.solve_with(Some(4), &mut cache);
        assert_eq!(result, lp.solve_dense());
        assert_eq!(
            result.solution().map(|s| (s.value(Var(0)), s.value(Var(1)))),
            Some((rat(1), rat(1)))
        );
        assert_eq!(
            cache.stats,
            LpStats {
                solves: 1,
                refactorizations: 1,
                warm_lookups: 1,
                warm_hits: 1,
                bignum_solves: 1,
                ..LpStats::default()
            }
        );
    }

    #[test]
    fn mismatched_warm_basis_from_a_key_collision_is_rejected() {
        // A stored basis from a structurally different problem (wrong
        // length, out-of-range columns, duplicates) must be rejected by
        // validation, not trusted.
        let lp = farkas_like_lp([0, 2]);
        for bogus in [vec![], vec![0], vec![0, 57], vec![1, 1], vec![0, 1, 2]] {
            let mut cache = BasisCache::new();
            cache.map.insert(1, bogus.clone());
            let result = lp.solve_with(Some(1), &mut cache);
            assert_eq!(result, lp.solve_dense(), "stored basis {bogus:?}");
            assert_eq!(cache.stats.warm_hits, 0, "stored basis {bogus:?}");
        }
    }

    #[test]
    fn warm_start_resumes_phase_two_after_an_objective_change() {
        // minimise c·(x, y) subject to x + y = 10, x - y <= 2. The optimum
        // moves between vertices as the cost flips, so a warm start from the
        // previous optimal basis must re-run phase 2 (a genuine "resume"
        // with a handful of pivots) and land on the cold optimum.
        let build = |cost: (i64, i64)| {
            let mut lp = LpProblem::new();
            lp.set_var_kind(Var(0), VarKind::NonNegative);
            lp.set_var_kind(Var(1), VarKind::NonNegative);
            lp.add_constraint(v(0) + v(1) - e(10), Rel::Eq);
            lp.add_constraint(v(0) - v(1) - e(2), Rel::Le);
            lp.set_objective(v(0).scale(&rat(cost.0)) + v(1).scale(&rat(cost.1)));
            lp
        };
        let mut cache = BasisCache::new();
        for cost in [(2, 3), (3, 2), (2, 3), (5, 1)] {
            let lp = build(cost);
            let warm = lp.solve_with(Some(11), &mut cache);
            let oracle = lp.solve_dense();
            let (warm_sol, oracle_sol) =
                (warm.solution().expect("feasible"), oracle.solution().expect("feasible"));
            assert_eq!(warm_sol.objective(), oracle_sol.objective(), "cost {cost:?}");
        }
        assert!(cache.stats.warm_hits >= 2);
        // Re-optimisation after a cost flip really pivots from the warm
        // basis (the two optima are distinct vertices).
        assert!(cache.stats.pivots > 0);
    }

    #[test]
    fn degenerate_pivots_agree_across_engines_and_warm_starts() {
        // Redundant constraints force degenerate (zero-ratio) pivots; the
        // engines must still agree, and warm starting over the degenerate
        // problem must keep the verdict.
        let mut lp = LpProblem::new();
        lp.set_var_kind(Var(0), VarKind::NonNegative);
        for _ in 0..4 {
            lp.add_constraint(v(0) - e(2), Rel::Ge);
        }
        lp.add_constraint(v(0) - e(2), Rel::Eq);
        lp.set_objective(v(0));
        let oracle = lp.solve_dense();
        assert_eq!(lp.solve(), oracle);
        let mut cache = BasisCache::new();
        let first = lp.solve_with(Some(5), &mut cache);
        assert_eq!(first, oracle);
        let second = lp.solve_with(Some(5), &mut cache);
        assert_eq!(second.solution().map(|s| s.objective().clone()), Some(rat(2)));
        // Whether the degenerate optimum's basis was cacheable (artificial-
        // free) or not, the second run must reproduce the cold answer: a
        // warm hit resumes from the optimal basis and pivots zero times.
        assert_eq!(second, oracle);
    }

    #[test]
    fn lp_stats_accumulate_and_delta() {
        let mut a = LpStats {
            solves: 3,
            pivots: 10,
            refactorizations: 1,
            warm_lookups: 2,
            warm_hits: 1,
            bignum_solves: 0,
            absint_fast_paths: 0,
        };
        let before = a;
        a.accumulate(&LpStats {
            solves: 1,
            pivots: 4,
            refactorizations: 1,
            warm_lookups: 1,
            warm_hits: 1,
            bignum_solves: 1,
            absint_fast_paths: 2,
        });
        assert_eq!(
            a.delta_since(&before),
            LpStats {
                solves: 1,
                pivots: 4,
                refactorizations: 1,
                warm_lookups: 1,
                warm_hits: 1,
                bignum_solves: 1,
                absint_fast_paths: 2,
            }
        );
        assert_eq!(a.solves, 4);
        assert_eq!(a.pivots, 14);
    }

    #[test]
    fn prop_warm_started_verdicts_match_cold_on_random_streams() {
        // Random feasibility systems grouped into structural families: all
        // members of a family share a key, so later members warm-start from
        // earlier optima. Verdicts must match the dense oracle
        // exactly, hits or fallbacks alike.
        let mut rng = SplitMix64::new(0x000B_A515_CAFE);
        let mut cache = BasisCache::new();
        for family in 0..20u64 {
            let n_vars = 2 + rng.next_below(3) as usize;
            let n_rows = 2 + rng.next_below(3) as usize;
            // One structure per family, several right-hand sides.
            let coeffs: Vec<Vec<i64>> = (0..n_rows)
                .map(|_| (0..n_vars).map(|_| rng.next_in_range(-3, 3)).collect())
                .collect();
            for _ in 0..4 {
                let mut lp = LpProblem::new();
                for v in 0..n_vars {
                    lp.set_var_kind(Var(v as u32), VarKind::NonNegative);
                }
                for row in &coeffs {
                    let mut expr = LinExpr::constant(rat(rng.next_in_range(-4, 4)));
                    for (v, &c) in row.iter().enumerate() {
                        if c != 0 {
                            expr.add_coeff(Var(v as u32), rat(c));
                        }
                    }
                    lp.add_constraint(expr, Rel::Eq);
                }
                let warm = lp.solve_with(Some(family), &mut cache);
                let oracle = lp.solve_dense();
                assert_eq!(
                    warm.is_feasible(),
                    oracle.is_feasible(),
                    "family {family} diverged on:\n{lp}"
                );
            }
        }
        assert!(cache.stats.warm_lookups == 80);
        assert!(cache.stats.warm_hits > 0, "streams produced no warm hits at all");
    }
}
