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
//! # Revised simplex: the eta-file basis factorization
//!
//! The revised engine never updates a tableau at all. It keeps the inverse
//! of the current basis `B` in **product form**: a list of *etas* —
//! matrices that differ from the identity in one column — with
//! `B⁻¹ = η_k ⋯ η_2 η_1`. A pivot appends one eta (built from the entering
//! column's FTRAN image) instead of re-eliminating every row, and the two
//! linear systems simplex needs per iteration are solved by sweeps over the
//! eta file that walk stored nonzeros only:
//!
//! * **FTRAN** (`B d = a_q`): apply the etas in creation order; an eta whose
//!   slot entry is zero in the running vector is skipped entirely.
//! * **BTRAN** (`Bᵀ y = c_B`): apply the etas in reverse order; each
//!   replaces one entry of the running vector by a dot product with its
//!   stored column.
//!
//! A cold solve prices with the exact reduced costs `c_j − y·a_j`, which
//! equal the dense tableau's reduced-cost row entry for entry, so both
//! engines pivot alike.
//!
//! # The column form and exact integer pricing
//!
//! The revised engine's input is a column-form standard form
//! (`ColumnForm`): `A·x = b`, `x ≥ 0`, `b ≥ 0`, stored column by column,
//! with the artificial identity appended by the solve. [`LpProblem`] lowers
//! into it one column at a time; the entailment oracle copies it from the
//! column runs of its premise set's skeleton. Phase 1, the artificial
//! drive-out, warm starts and extraction exist once, in `ColumnForm::solve`.
//!
//! Pricing is where a cold solve spends its time: every Bland step computes
//! `c_j − y·a_j` for each column until one is negative, and the columns of
//! the Farkas/Handelman encodings are almost always integers. Each solve
//! therefore keeps an `i64` image of every column whose entries are packed
//! integers. At each pricing step `y` is written as `Y/d`, with `d > 0` the
//! lcm of its denominators, and `c_j − y·a_j < 0` is decided as
//! `c_j·d − Y·a_j < 0` in checked `i128` arithmetic — the same sign, since
//! `d > 0`. A column, cost or `y` without an integer image, or a sum that
//! leaves `i128`, takes the exact `Rat` computation instead, so the entering
//! column is always the one exact pricing picks.
//!
//! # Warm starts
//!
//! The factorization is what makes warm starting cheap: given a previously
//! optimal basis for a *structurally identical* LP (same columns, a few
//! changed right-hand sides — exactly what a Houdini entailment stream
//! produces), `ColumnForm::solve` re-factorizes the stored basis into a
//! fresh eta file, recomputes `x_B = B⁻¹b`, and — when that solution is
//! feasible — skips phase 1 outright, so pure feasibility problems finish
//! without a single pivot. A singular or infeasible warm basis falls back to
//! the cold Bland start, so warm starting can never change a verdict.
//! Stored bases live in a crate-private `BasisCache` keyed by the caller:
//! the one that exists is owned by the entailment memo
//! ([`crate::EntailmentCache`]), which hashes the product list and monomial
//! rows. Only artificial-free bases are stored, so a key collision is at
//! worst a wasted re-factorization, never an unsound resurrection of an
//! artificial column. [`LpStats`] counts solves, pivots, re-factorizations
//! and warm-start hits for the prover's statistics.
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

use revterm_num::Rat;
use revterm_poly::{LinExpr, Var};
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

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
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
        match form.solve(cost, warm_key, cache) {
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
        for column in columns {
            form.push_column(column);
        }
        for (i, (_, rel)) in self.constraints.iter().enumerate() {
            let slack = match rel {
                Rel::Eq => continue,
                Rel::Ge => -Rat::one(),
                Rel::Le => Rat::one(),
            };
            form.push_column([(i as u32, signed(i, slack))]);
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
        if !simplex_dense(&mut rows, &mut rhs, &mut basis, &phase1_cost, &banned) {
            // Phase 1 objective is bounded below by 0, so this cannot happen.
            return LpResult::Infeasible;
        }
        let phase1_value: Rat =
            basis.iter().enumerate().map(|(i, &b)| &phase1_cost[b] * &rhs[i]).sum();
        if phase1_value.is_positive() {
            return LpResult::Infeasible;
        }
        // Drive artificial variables out of the basis where possible.
        for i in 0..m {
            if basis[i] >= total_decision_cols {
                if let Some(j) = (0..total_decision_cols).find(|&j| !rows[i][j].is_zero()) {
                    pivot_dense(&mut rows, &mut rhs, &mut basis, i, j);
                }
            }
        }
        // Ban artificial columns from ever entering again.
        let mut banned = vec![false; total_cols];
        banned[total_decision_cols..].fill(true);

        // Phase 2 (only if an objective is present).
        let objective_value;
        if let Some(cost) = self.cost_vector(&map, total_cols) {
            if !simplex_dense(&mut rows, &mut rhs, &mut basis, &cost, &banned) {
                return LpResult::Unbounded;
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
        LpResult::Optimal(map.reconstruct(&col_values, objective_value))
    }
}

/// The revised engine's input: a standard form `A·x = b`, `x ≥ 0` with
/// `b ≥ 0`, stored column by column. [`LpProblem`]'s lowering and the
/// entailment oracle's Farkas builder both produce it, so phase 1, the
/// artificial drive-out, warm starts and extraction live in one core,
/// [`ColumnForm::solve`], which appends the artificial identity block after
/// the decision columns.
#[cfg_attr(test, derive(Debug, PartialEq))]
pub(crate) struct ColumnForm {
    /// Every column's `(row, coefficient)` nonzeros, column after column;
    /// each run is sorted by strictly increasing row and holds no zero.
    entries: Vec<(u32, Rat)>,
    /// Column `j` is `entries[starts[j]..starts[j + 1]]`.
    starts: Vec<u32>,
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
        ColumnForm { entries: Vec::new(), starts: vec![0], rhs }
    }

    /// A form over `rhs.len()` rows (every right-hand side `≥ 0`) whose
    /// decision columns come as runs: column `j` is
    /// `entries[starts[j]..starts[j + 1]]`, each run as
    /// [`ColumnForm::push_column`] takes it. Capacity reserved past the runs
    /// holds the artificial block [`ColumnForm::solve`] appends.
    pub(crate) fn from_runs(
        rhs: Vec<Rat>,
        entries: Vec<(u32, Rat)>,
        starts: Vec<u32>,
    ) -> ColumnForm {
        debug_assert!(rhs.iter().all(|b| !b.is_negative()), "negative right-hand side");
        debug_assert!(
            starts.first() == Some(&0)
                && starts.last().is_some_and(|&end| end as usize == entries.len())
                && starts.windows(2).all(|w| {
                    let run = &entries[w[0] as usize..w[1] as usize];
                    run.windows(2).all(|p| p[0].0 < p[1].0)
                        && run.iter().all(|(i, a)| !a.is_zero() && (*i as usize) < rhs.len())
                }),
            "column runs must be contiguous, nonzero, in range and strictly increasing by row"
        );
        ColumnForm { entries, starts, rhs }
    }

    /// Appends the next decision column, given its nonzeros in increasing
    /// row order.
    pub(crate) fn push_column(&mut self, nonzeros: impl IntoIterator<Item = (u32, Rat)>) {
        let start = self.entries.len();
        self.entries.extend(nonzeros);
        debug_assert!(
            self.entries[start..].windows(2).all(|w| w[0].0 < w[1].0)
                && self.entries[start..]
                    .iter()
                    .all(|(i, a)| !a.is_zero() && *i < self.rhs.len() as u32),
            "column entries must be nonzero, in range and strictly increasing by row"
        );
        self.starts
            .push(u32::try_from(self.entries.len()).expect("column entries fit u32 offsets"));
    }

    fn num_cols(&self) -> usize {
        self.starts.len() - 1
    }

    fn column(&self, j: usize) -> &[(u32, Rat)] {
        &self.entries[self.starts[j] as usize..self.starts[j + 1] as usize]
    }

    /// Minimises `cost·x` over the form — or, without a cost, finds a
    /// feasible point — with the revised simplex, warm-starting from (and
    /// afterwards updating) the basis stored under `warm_key` in `cache`.
    /// `cost` has one entry per decision column.
    pub(crate) fn solve(
        mut self,
        cost: Option<Vec<Rat>>,
        warm_key: Option<u64>,
        cache: &mut BasisCache,
    ) -> ColumnOutcome {
        let total_decision_cols = self.num_cols();
        let m = self.rhs.len();
        for i in 0..m {
            self.push_column([(i as u32, Rat::one())]);
        }
        let total_cols = total_decision_cols + m;

        cache.stats.solves += 1;
        let mut engine = RevisedSimplex::new(&self, total_decision_cols);

        let mut warmed = false;
        if let Some(key) = warm_key {
            cache.stats.warm_lookups += 1;
            if let Some(stored) = cache.map.get(&key) {
                if engine.warm_start(stored) {
                    cache.stats.warm_hits += 1;
                    cache.stats.refactorizations += 1;
                    warmed = true;
                }
            }
        }
        if !warmed {
            engine.cold_start();
            // Phase 1: minimise the sum of artificial variables.
            let phase1_cost: Vec<Rat> = (0..total_cols)
                .map(|j| if j >= total_decision_cols { Rat::one() } else { Rat::zero() })
                .collect();
            let banned = vec![false; total_cols];
            if !engine.simplex(&phase1_cost, &banned, &mut cache.stats) {
                // Phase 1 objective is bounded below by 0, so this cannot happen.
                return ColumnOutcome::Infeasible;
            }
            let phase1_value: Rat = engine
                .basis
                .iter()
                .enumerate()
                .map(|(i, &b)| &phase1_cost[b] * &engine.x_b[i])
                .sum();
            if phase1_value.is_positive() {
                return ColumnOutcome::Infeasible;
            }
            engine.drive_out_artificials(&mut cache.stats);
        }
        // Ban artificial columns from (re-)entering.
        let mut banned = vec![false; total_cols];
        banned[total_decision_cols..].fill(true);

        // Phase 2 (only if an objective is present).
        let mut cost_value = Rat::zero();
        if let Some(mut cost) = cost {
            cost.resize(total_cols, Rat::zero());
            if !engine.simplex(&cost, &banned, &mut cache.stats) {
                return ColumnOutcome::Unbounded;
            }
            cost_value =
                engine.basis.iter().enumerate().map(|(i, &b)| &cost[b] * &engine.x_b[i]).sum();
        }

        // Remember the final basis for the next structurally identical
        // problem. Only artificial-free bases are stored: re-factorizing a
        // basis that contains an artificial column against a different
        // right-hand side could assign that artificial a positive value,
        // silently relaxing its constraint — rather than guard against that
        // in the warm path, such (rare, degenerate) bases are not cached.
        if let Some(key) = warm_key {
            if engine.basis.iter().all(|&b| b < total_decision_cols) {
                cache.map.insert(key, engine.basis.iter().map(|&b| b as u32).collect());
            }
        }

        // Extract the solution.
        let mut values = vec![Rat::zero(); total_decision_cols];
        for (&b, x) in engine.basis.iter().zip(engine.x_b) {
            if b < total_decision_cols {
                values[b] = x;
            }
        }
        ColumnOutcome::Optimal { values, cost: cost_value }
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

/// One factor of the product-form basis inverse: a matrix equal to the
/// identity except in column `slot`, which holds the stored nonzeros.
/// Appending the eta built from `w = B⁻¹·a_q` (pivoting at `slot`) updates
/// `B⁻¹` for the basis change `basis[slot] ← q`.
#[derive(Debug, Clone)]
struct Eta {
    slot: u32,
    /// Sorted `(row, value)` nonzeros of the replaced column, including the
    /// diagonal entry `(slot, 1 / w[slot])`.
    entries: Vec<(u32, Rat)>,
}

/// Working state of the revised simplex: the original columns, the current
/// basis, the eta-file factorization of its inverse, and the basic solution.
struct RevisedSimplex<'a> {
    form: &'a ColumnForm,
    /// The `i64` image of `form.entries`, index for index; only the runs of
    /// the columns flagged in `int_cols` are meaningful.
    int_entries: Vec<(u32, i64)>,
    /// Whether every entry of column `j` is a packed integer.
    int_cols: Vec<bool>,
    total_decision_cols: usize,
    m: usize,
    basis: Vec<usize>,
    in_basis: Vec<bool>,
    etas: Vec<Eta>,
    x_b: Vec<Rat>,
}

/// Dot product of a dense vector with a sparse column, skipping zero
/// entries on both sides.
fn sparse_dot(dense: &[Rat], col: &[(u32, Rat)]) -> Rat {
    let mut acc = Rat::zero();
    for (i, a) in col {
        let d = &dense[*i as usize];
        if !d.is_zero() {
            acc += &(d * a);
        }
    }
    acc
}

/// A dual vector `y` written as `Y/d` over machine words: `d > 0` is the lcm
/// of the denominators of `y`'s entries and `Y = d·y` is integral.
struct IntDual {
    scaled: Vec<i64>,
    d: i64,
}

impl IntDual {
    /// The integer image of `y`, or `None` if an entry is outside the packed
    /// tier or `d` or an entry of `Y` does not fit an `i64`.
    fn of(y: &[Rat]) -> Option<IntDual> {
        let mut d: i64 = 1;
        for v in y {
            let (_, den) = v.packed_parts()?;
            d = (d / gcd(d, den)).checked_mul(den)?;
        }
        let scaled = y
            .iter()
            .map(|v| v.packed_parts().and_then(|(num, den)| num.checked_mul(d / den)))
            .collect::<Option<Vec<i64>>>()?;
        Some(IntDual { scaled, d })
    }

    /// The sign of `c·d − Y·a` for an integer cost `c` and an integer
    /// column `a`, which is the sign of `c − y·a`; `None` if a partial sum
    /// leaves `i128` (each product of two `i64`s fits).
    fn reduced_sign(&self, c: i64, column: &[(u32, i64)]) -> Option<Ordering> {
        let mut acc = i128::from(c) * i128::from(self.d);
        for &(i, a) in column {
            acc = acc.checked_sub(i128::from(self.scaled[i as usize]) * i128::from(a))?;
        }
        Some(acc.cmp(&0))
    }
}

/// Greatest common divisor of two positive machine words.
fn gcd(mut a: i64, mut b: i64) -> i64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// The integer value of `c`, if it is a packed integer.
fn packed_integer(c: &Rat) -> Option<i64> {
    c.packed_parts().filter(|&(_, den)| den == 1).map(|(num, _)| num)
}

impl<'a> RevisedSimplex<'a> {
    fn new(form: &'a ColumnForm, total_decision_cols: usize) -> RevisedSimplex<'a> {
        let int_entries: Vec<(u32, i64)> =
            form.entries.iter().map(|(i, a)| (*i, packed_integer(a).unwrap_or(0))).collect();
        let int_cols = (0..form.num_cols())
            .map(|j| form.column(j).iter().all(|(_, a)| packed_integer(a).is_some()))
            .collect();
        RevisedSimplex {
            form,
            int_entries,
            int_cols,
            total_decision_cols,
            m: form.rhs.len(),
            basis: Vec::new(),
            in_basis: vec![false; form.num_cols()],
            etas: Vec::new(),
            x_b: Vec::new(),
        }
    }

    /// Installs the all-artificial starting basis (`B = I`, `x_B = b`).
    fn cold_start(&mut self) {
        self.etas.clear();
        self.basis = (0..self.m).map(|i| self.total_decision_cols + i).collect();
        self.in_basis = vec![false; self.form.num_cols()];
        for &b in &self.basis {
            self.in_basis[b] = true;
        }
        self.x_b = self.form.rhs.clone();
    }

    /// FTRAN: applies `B⁻¹` to a dense vector in place. Etas apply in
    /// creation order; an eta whose slot entry is currently zero is skipped.
    fn ftran(&self, v: &mut [Rat]) {
        for eta in &self.etas {
            let slot = eta.slot as usize;
            let vs = std::mem::take(&mut v[slot]);
            if vs.is_zero() {
                continue;
            }
            for (i, e) in &eta.entries {
                let i = *i as usize;
                if i == slot {
                    v[i] = e * &vs;
                } else {
                    v[i] += &(e * &vs);
                }
            }
        }
    }

    /// BTRAN: applies `B⁻ᵀ` to a dense vector in place. Etas apply in
    /// reverse order; each replaces its slot entry by a dot product with its
    /// stored column.
    fn btran(&self, y: &mut [Rat]) {
        for eta in self.etas.iter().rev() {
            let mut acc = Rat::zero();
            for (i, e) in &eta.entries {
                let yi = &y[*i as usize];
                if !yi.is_zero() {
                    acc += &(e * yi);
                }
            }
            y[eta.slot as usize] = acc;
        }
    }

    /// `B⁻¹ · column j` as a dense vector.
    fn ftran_col(&self, j: usize) -> Vec<Rat> {
        let mut v = vec![Rat::zero(); self.m];
        for (i, a) in self.form.column(j) {
            v[*i as usize] = a.clone();
        }
        self.ftran(&mut v);
        v
    }

    /// Appends the inverse eta that pivots `w = B⁻¹·a_entering` at `slot`
    /// (requires `w[slot] != 0`).
    fn push_eta(&mut self, slot: usize, w: &[Rat]) {
        debug_assert!(!w[slot].is_zero(), "eta pivot element is zero");
        let inv = w[slot].recip();
        let mut entries = Vec::with_capacity(w.iter().filter(|v| !v.is_zero()).count());
        for (i, wi) in w.iter().enumerate() {
            if i == slot {
                entries.push((i as u32, inv.clone()));
            } else if !wi.is_zero() {
                entries.push((i as u32, -(wi * &inv)));
            }
        }
        debug_assert!(
            entries.windows(2).all(|e| e[0].0 < e[1].0),
            "eta entries not strictly increasing by row"
        );
        self.etas.push(Eta { slot: slot as u32, entries });
    }

    /// The sign of the reduced cost `c − y·a_j`. When `c`, column `j` and
    /// `y` (as `dual`) all have integer images, the exact integer kernel
    /// decides it; if one of them has none, or a sum leaves `i128`, the
    /// exact `Rat` computation does. Both give the same sign.
    fn reduced_sign(
        &self,
        j: usize,
        c: &Rat,
        c_int: Option<i64>,
        y: &[Rat],
        dual: Option<&IntDual>,
    ) -> Ordering {
        if let (Some(c), Some(dual), true) = (c_int, dual, self.int_cols[j]) {
            let run = self.form.starts[j] as usize..self.form.starts[j + 1] as usize;
            if let Some(sign) = dual.reduced_sign(c, &self.int_entries[run]) {
                return sign;
            }
        }
        (c - &sparse_dot(y, self.form.column(j))).cmp(&Rat::zero())
    }

    /// Bland pricing: the lowest-index improving non-basic column, priced
    /// with exact reduced costs `c_j − y·a_j` where `y = B⁻ᵀ c_B` comes from
    /// one BTRAN sweep. These equal the dense tableau's reduced-cost row, so
    /// both engines pick the same entering column.
    fn price(&self, cost: &[Rat], cost_int: &[Option<i64>], banned: &[bool]) -> Option<usize> {
        let mut y: Vec<Rat> = self.basis.iter().map(|&b| cost[b].clone()).collect();
        self.btran(&mut y);
        let dual = IntDual::of(&y);
        (0..cost.len()).find(|&j| {
            !banned[j]
                && !self.in_basis[j]
                && self.reduced_sign(j, &cost[j], cost_int[j], &y, dual.as_ref()) == Ordering::Less
        })
    }

    /// The dense tableau's ratio test on `w = B⁻¹·a_entering`: lowest ratio
    /// `x_B[i] / w[i]` over `w[i] > 0`, ties broken towards the lowest basic
    /// variable index.
    fn ratio_test(&self, w: &[Rat]) -> Option<usize> {
        let mut leaving: Option<usize> = None;
        let mut best_ratio: Option<Rat> = None;
        for (i, wi) in w.iter().enumerate() {
            if !wi.is_positive() {
                continue;
            }
            let ratio = &self.x_b[i] / wi;
            let better = match &best_ratio {
                None => true,
                Some(b) => {
                    ratio < *b
                        || (ratio == *b
                            && self.basis[i]
                                < self.basis[leaving.expect("leaving set with best_ratio")])
                }
            };
            if better {
                best_ratio = Some(ratio);
                leaving = Some(i);
            }
        }
        leaving
    }

    /// Replaces the basic variable at `slot` by `entering`: updates the
    /// basic solution, appends the pivot's eta, and fixes the bookkeeping.
    fn pivot(&mut self, slot: usize, entering: usize, w: &[Rat], stats: &mut LpStats) {
        let theta = &self.x_b[slot] / &w[slot];
        for (i, wi) in w.iter().enumerate() {
            if i != slot && !wi.is_zero() {
                self.x_b[i] -= &(&theta * wi);
            }
        }
        self.x_b[slot] = theta;
        self.push_eta(slot, w);
        self.in_basis[self.basis[slot]] = false;
        self.in_basis[entering] = true;
        self.basis[slot] = entering;
        stats.pivots += 1;
    }

    /// Runs Bland's-rule simplex to optimality from the current (feasible)
    /// basis. Returns `false` iff the objective is unbounded below.
    fn simplex(&mut self, cost: &[Rat], banned: &[bool], stats: &mut LpStats) -> bool {
        let cost_int: Vec<Option<i64>> = cost.iter().map(packed_integer).collect();
        loop {
            let Some(entering) = self.price(cost, &cost_int, banned) else { return true };
            let w = self.ftran_col(entering);
            let Some(slot) = self.ratio_test(&w) else { return false };
            self.pivot(slot, entering, &w, stats);
        }
    }

    /// Pivots remaining artificial basic variables out wherever some
    /// decision column has a nonzero in their tableau row — the same
    /// lowest-column choice as the dense tableau's drive-out (basic
    /// decision columns are unit vectors there, with a zero in every other
    /// row, so skipping them here changes nothing).
    fn drive_out_artificials(&mut self, stats: &mut LpStats) {
        for slot in 0..self.m {
            if self.basis[slot] < self.total_decision_cols {
                continue;
            }
            // Row `slot` of the current tableau is `ρ·A` with `ρ` the
            // corresponding row of `B⁻¹`, i.e. BTRAN of a unit vector; its
            // entry in column `j` is the reduced cost of `j` at cost zero,
            // negated.
            let mut rho = vec![Rat::zero(); self.m];
            rho[slot] = Rat::one();
            self.btran(&mut rho);
            let dual = IntDual::of(&rho);
            let entering = (0..self.total_decision_cols).find(|&j| {
                !self.in_basis[j]
                    && self.reduced_sign(j, &Rat::zero(), Some(0), &rho, dual.as_ref())
                        != Ordering::Equal
            });
            if let Some(j) = entering {
                let w = self.ftran_col(j);
                debug_assert!(!w[slot].is_zero(), "drive-out pivot on zero element");
                self.pivot(slot, j, &w, stats);
            }
        }
    }

    /// Attempts to install `stored` (decision-column indices of a previously
    /// optimal basis) by re-factorizing it against this problem's columns.
    /// Returns `false` — leaving the engine ready for a cold start — when
    /// the stored basis does not fit this problem, is singular, or its basic
    /// solution is infeasible for this right-hand side.
    fn warm_start(&mut self, stored: &[u32]) -> bool {
        if stored.len() != self.m {
            return false;
        }
        // Validate shape first: decision columns only, no duplicates. Keys
        // can collide across different problems, so a stored basis is
        // checked, never trusted.
        let mut seen = vec![false; self.total_decision_cols];
        for &c in stored {
            let c = c as usize;
            if c >= self.total_decision_cols || seen[c] {
                return false;
            }
            seen[c] = true;
        }
        // Product-form Gaussian elimination: FTRAN each stored column
        // through the partial eta file and pivot it at the lowest
        // still-unpivoted slot with a nonzero entry.
        self.etas.clear();
        let mut pivoted = vec![false; self.m];
        let mut slot_of = vec![0usize; self.m];
        for (k, &c) in stored.iter().enumerate() {
            let w = self.ftran_col(c as usize);
            let Some(slot) = (0..self.m).find(|&i| !pivoted[i] && !w[i].is_zero()) else {
                self.etas.clear();
                return false; // singular basis
            };
            self.push_eta(slot, &w);
            pivoted[slot] = true;
            slot_of[k] = slot;
        }
        // The factorization assigned each stored column a slot; install the
        // basis accordingly and recompute the basic solution.
        self.basis = vec![0; self.m];
        for (k, &c) in stored.iter().enumerate() {
            self.basis[slot_of[k]] = c as usize;
        }
        self.in_basis = vec![false; self.form.num_cols()];
        for &b in &self.basis {
            self.in_basis[b] = true;
        }
        let mut x_b = self.form.rhs.clone();
        self.ftran(&mut x_b);
        if x_b.iter().any(|v| v.is_negative()) {
            self.etas.clear();
            return false; // warm basis infeasible for this right-hand side
        }
        self.x_b = x_b;
        true
    }
}

/// Runs the dense reference simplex on a tableau that already contains a
/// feasible basis. Returns `false` if the objective is unbounded below.
fn simplex_dense(
    rows: &mut [Vec<Rat>],
    rhs: &mut [Rat],
    basis: &mut [usize],
    cost: &[Rat],
    banned: &[bool],
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
    use crate::rng::SplitMix64;
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
    /// time with an objective. With `large`, every coefficient, right-hand
    /// side and cost is a [`large_value`].
    fn random_lp(rng: &mut SplitMix64, with_objective: bool, large: bool) -> LpProblem {
        let n_vars = 2 + rng.next_below(5) as usize;
        let n_rows = 2 + rng.next_below(7) as usize;
        let mut lp = LpProblem::new();
        for v in 0..n_vars {
            let kind = if rng.next_below(3) == 0 { VarKind::Free } else { VarKind::NonNegative };
            lp.set_var_kind(Var(v as u32), kind);
        }
        for _ in 0..n_rows {
            let mut expr = LinExpr::constant(if large {
                large_value(rng)
            } else {
                Rat::packed(rng.next_in_range(-8, 8), rng.next_in_range(1, 4))
            });
            for _ in 0..(1 + rng.next_below(3)) {
                let var = rng.next_below(n_vars as u64) as u32;
                let c = if large { large_value(rng) } else { rat(rng.next_in_range(-5, 5)) };
                if !c.is_zero() {
                    expr.add_coeff(Var(var), c);
                }
            }
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
                let c = if large { large_value(rng) } else { rat(rng.next_in_range(0, 3)) };
                obj.add_coeff(Var(v as u32), c);
            }
            lp.set_objective(obj);
        }
        lp
    }

    #[test]
    fn prop_revised_and_dense_engines_agree_on_random_systems() {
        // The revised engine, on its column-form lowering, must be
        // indistinguishable from the dense reference on feasible, infeasible
        // and unbounded instances — not just the verdict but the exact
        // solution values (both engines make the same Bland's-rule choices).
        // The mix of free and non-negative variables, `Ge`/`Le`/`Eq` rows
        // and right-hand sides of both signs checks the column lowering's
        // column pairs, slacks and negated rows against the dense lowering.
        // The small-magnitude rounds price on the revised engine's integer
        // kernel; the large-magnitude rounds push columns, costs and duals
        // out of it (big-tier entries, lcms and scaled duals past `i64`,
        // dot products past `i128`), onto the exact `Rat` fallback.
        let mut rng = SplitMix64::new(0xD1FF_5EED);
        for large in [false, true] {
            let (mut feasible, mut infeasible) = (0, 0);
            for round in 0..120 {
                let lp = random_lp(&mut rng, round % 2 == 0, large);
                let revised = lp.solve();
                assert_eq!(revised, lp.solve_dense(), "revised vs dense diverged on:\n{lp}");
                match revised {
                    LpResult::Optimal(_) => feasible += 1,
                    LpResult::Infeasible => infeasible += 1,
                    LpResult::Unbounded => {}
                }
            }
            // The generator must actually exercise both exits.
            assert!(feasible > 10, "too few feasible systems (large: {large})");
            assert!(infeasible > 10, "too few infeasible systems (large: {large})");
        }
        // Phase 2 of this one prices x3 at `0 − 3·i64::MAX²`, past `i128`.
        let big = rat(i64::MAX);
        let mut lp = LpProblem::new();
        for i in 0..4 {
            lp.set_var_kind(Var(i), VarKind::NonNegative);
        }
        for i in 0..3 {
            lp.add_constraint(v(i) + v(3).scale(&big) - e(1), Rel::Eq);
        }
        lp.set_objective((v(0) + v(1) + v(2)).scale(&big));
        let revised = lp.solve();
        assert_eq!(revised, lp.solve_dense());
        assert_eq!(revised.solution().map(|s| s.value(Var(3))), Some(big.recip()));
    }

    #[test]
    fn integer_pricing_declines_what_does_not_fit() {
        // y = (1/2, −1/3) is (3, −2)/6; with c = 1 and a = (2, 3) the
        // reduced cost is 1 − 1 + 1 > 0, decided as 6 − 6 + 6 > 0.
        let dual = IntDual::of(&[ratio(1, 2), ratio(-1, 3)]).expect("fits");
        assert_eq!((dual.scaled.as_slice(), dual.d), (&[3, -2][..], 6));
        assert_eq!(dual.reduced_sign(1, &[(0, 2), (1, 3)]), Some(Ordering::Greater));
        assert_eq!(dual.reduced_sign(0, &[]), Some(Ordering::Equal));
        // A big-tier entry, an lcm past i64, a scaled entry past i64.
        assert!(IntDual::of(&[Rat::from(Int::from(u64::MAX))]).is_none());
        let (p, q) = ((1i64 << 40) + 1, (1i64 << 40) + 3);
        assert!(IntDual::of(&[Rat::packed(1, p), Rat::packed(1, q)]).is_none());
        assert!(IntDual::of(&[rat(i64::MAX), ratio(1, 2)]).is_none());
        // A dot product past i128.
        let dual = IntDual::of(&[rat(i64::MAX), rat(i64::MAX), rat(i64::MAX)]).expect("fits");
        let column = [(0, i64::MAX), (1, i64::MAX), (2, i64::MAX)];
        assert_eq!(dual.reduced_sign(0, &column), None);
        assert_eq!(dual.reduced_sign(0, &column[..1]), Some(Ordering::Less));
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
            absint_fast_paths: 0,
        };
        let before = a;
        a.accumulate(&LpStats {
            solves: 1,
            pivots: 4,
            refactorizations: 1,
            warm_lookups: 1,
            warm_hits: 1,
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
