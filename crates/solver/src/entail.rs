//! The polynomial entailment oracle (Farkas / Handelman style).
//!
//! Given premise inequalities `g_1 ≥ 0, …, g_k ≥ 0` and a conclusion
//! `p ≥ 0`, the oracle searches for non-negative rational multipliers
//! `λ_0, λ_1, …` such that
//!
//! ```text
//! p  =  λ_0 · 1  +  Σ_j λ_j · π_j
//! ```
//!
//! where the `π_j` range over products of premises of bounded multiset size
//! and bounded total degree.  Such a representation certifies the entailment
//! over the reals and hence over the integers.  For linear premises and a
//! linear conclusion with product size 1 this is exactly Farkas' lemma (and is
//! complete whenever the premise polyhedron is non-empty); larger products
//! give a Handelman-style relaxation for polynomial arithmetic.
//!
//! The search for multipliers is a pure rational LP feasibility problem: one
//! equality row per monomial and one non-negative multiplier column per
//! premise product, each row mentioning only the products that contain its
//! monomial.
//!
//! # One skeleton per premise set
//!
//! Everything of that LP except the right-hand side is fixed by the premises
//! and the product budget, so it is built once per premise set and option
//! set, as a *skeleton*: the product list with the premise indices each
//! product multiplies, the sorted monomials of the products, each product's
//! terms as a run of `(monomial position, coefficient)` entries — scaled to
//! coprime integers and held in the `i64` words the simplex kernel reads
//! whenever they fit — and the warm-start
//! key's hasher after the product list. A query merges the
//! conclusion's monomials into those rows (usually none is new; a new one
//! shifts the positions after it), writes the right-hand side, and copies
//! the runs once, negating the rows whose right-hand side is negative. That
//! is the standard form [`crate::LpProblem`]'s lowering would produce, with
//! no rows, variable map or solution map built first. The dense reference
//! ([`LpEngine::Dense`]) still receives the LP as [`crate::LpProblem`] rows
//! over the same products and lowers them itself, so every engine-agreement
//! check also compares the skeleton's columns with the lowering they stand
//! in for. The free functions build a one-off skeleton per call.
//!
//! # Warm starts across the query stream
//!
//! Consecutive queries in a Houdini fixpoint share their premise set: the
//! loop checks every candidate conclusion atom against the same premises
//! before it drops anything, then asks the same set for a refutation. The
//! memo ([`EntailmentCache`]) keeps the skeletons of the premise set it is
//! currently asked about, so such a batch, its unsat fallbacks and its
//! `implies_false` veto build the LP skeleton once. Their LPs share the
//! constraint *matrix* (columns = premise products, rows = monomials) and
//! differ only in right-hand sides (the conclusion's coefficients), so the
//! oracle keys each LP by a hash of `(products, monomials)` — finished per
//! LP from the skeleton's hasher with one pass over the rows — and lets the
//! revised simplex warm-start from the last optimal basis stored under that
//! key, typically skipping phase 1 outright. The stored bases and the
//! [`crate::LpStats`] counters belong to the memo: its misses are the only
//! solves that warm-start, and callers see warm starts only as counters
//! ([`EntailmentCache::lp_stats`]). The free functions solve cold. Engine
//! choice ([`LpEngine`]) and warm starts never change a verdict or witness;
//! the dense tableau is kept as the differential oracle.
//!
//! # Witnesses
//!
//! Every "yes" comes with a [`Combination`]: the sparse nonzero multipliers,
//! each naming the premises its product multiplies. It is self-describing,
//! so [`Combination::certifies`] re-checks it against the premises with
//! `Poly`/`Rat` arithmetic alone — no LP, no product list. An entailment
//! that holds only because the premises are unsatisfiable carries the
//! combination summing to `−1`, which certifies any conclusion.
//!
//! ```
//! use revterm_poly::{Poly, Var};
//! use revterm_solver::{entails, entails_with_witness, EntailmentOptions};
//!
//! let x = Poly::var(Var(0));
//! let premises = vec![&x - &Poly::constant_i64(2)]; // x - 2 >= 0
//! let conclusion = &x.scale(&revterm_num::rat(3)) - &Poly::constant_i64(6);
//!
//! // x >= 2 entails 3x - 6 >= 0: three times premise 0.
//! let opts = EntailmentOptions::linear();
//! assert!(entails(&premises, &conclusion, &opts));
//! let witness = entails_with_witness(&premises, &conclusion, &opts).unwrap();
//! let three = revterm_num::rat(3);
//! assert_eq!(witness.terms().collect::<Vec<_>>(), vec![(&[0u32][..], &three)]);
//! assert!(witness.certifies(&premises, &conclusion));
//!
//! // x >= 2 and -x >= 0 contradict each other, so they entail y >= 7, a
//! // fact about a variable neither mentions, through the refutation
//! // ½·(x - 2) + ½·(-x) = -1.
//! let contradictory = vec![premises[0].clone(), -x.clone()];
//! let seven = &Poly::var(Var(1)) - &Poly::constant_i64(7);
//! let refutation = entails_with_witness(&contradictory, &seven, &opts).unwrap();
//! assert!(refutation.certifies(&contradictory, &Poly::constant_i64(-1)));
//! assert!(refutation.certifies(&contradictory, &seven));
//! ```

use crate::lp::{
    BasisCache, ColumnForm, ColumnOutcome, IntColumns, LpProblem, LpStats, Rel, VarKind,
};
use revterm_num::{Fnv64, Rat};
use revterm_poly::{Combination, LinExpr, Monomial, Poly, Var};
use std::borrow::Cow;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Which simplex engine discharges the multiplier LPs.
///
/// Both engines return bitwise-identical verdicts and witnesses on cold
/// solves (same Bland's-rule pivot sequence over exact rationals); the dense
/// tableau exists as the differential oracle for the default, and the
/// `num_profile` bench bin re-proves the agreement on every run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LpEngine {
    /// The fraction-free revised simplex over integer words (the engine
    /// behind [`LpProblem::solve`]), fed the column-form LP — the only
    /// engine with warm starts, and the default.
    #[default]
    Revised,
    /// The dense reference tableau ([`LpProblem::solve_dense`]), fed the LP
    /// as [`LpProblem`] rows: the differential oracle.
    Dense,
}

/// Options controlling the entailment search.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EntailmentOptions {
    /// Maximal number of premises multiplied together in one product
    /// (1 = plain Farkas; 2 is enough for the quadratic certificates that
    /// appear in this project's benchmarks).
    pub max_product_size: usize,
    /// Maximal total degree of a product that is kept.
    pub max_product_degree: u32,
    /// Which simplex engine discharges the multiplier LPs. Verdicts and
    /// witnesses do not depend on the choice; only [`LpEngine::Revised`]
    /// warm-starts from the bases an [`EntailmentCache`] stores.
    pub lp_engine: LpEngine,
    /// Allow callers to answer all-linear entailment queries by interval
    /// closure of the premises (the `revterm_absint` fast path) instead of
    /// building an LP — Houdini, Check 1's blocked-transition test and
    /// certificate evidence generation, behind
    /// [`EntailmentOptions::closure_fast_path`] — and let the prover skip
    /// the probe batches the pre-analysis proves futile.  Both halves are
    /// sound pruning only: the fast path claims only entailments that carry
    /// an explicit Farkas certificate, so answers are bitwise identical
    /// either way; the flag exists as the differential knob for the
    /// `absint` on/off determinism gate. [`EntailmentCache`] keys on it with
    /// the other options, so an off query is never answered from on work.
    pub interval_fast_path: bool,
}

impl Default for EntailmentOptions {
    fn default() -> Self {
        EntailmentOptions {
            max_product_size: 2,
            max_product_degree: 4,
            lp_engine: LpEngine::Revised,
            interval_fast_path: true,
        }
    }
}

impl EntailmentOptions {
    /// Options for purely linear reasoning (plain Farkas lemma).
    pub fn linear() -> Self {
        EntailmentOptions { max_product_size: 1, max_product_degree: 1, ..Default::default() }
    }

    /// Options with a given product size / degree budget.
    pub fn with_budget(max_product_size: usize, max_product_degree: u32) -> Self {
        EntailmentOptions { max_product_size, max_product_degree, ..Default::default() }
    }

    /// Whether an interval closure of the premises may answer for the
    /// multiplier LP under these options: the fast path is on, and the
    /// product budget offers the columns a closure's combination uses — the
    /// constant `1` and every single linear premise (size and degree at
    /// least 1). Under this gate a closure "yes" is always an LP "yes", so
    /// Houdini, Check 1's blocked-transition test and evidence generation
    /// all take the closure's answer first.
    pub fn closure_fast_path(&self) -> bool {
        self.interval_fast_path && self.max_product_size >= 1 && self.max_product_degree >= 1
    }

    /// A copy of these options restricted to the plain-Farkas budget
    /// (product size and degree 1), preserving every non-budget field —
    /// use this instead of [`EntailmentOptions::linear`] when downgrading a
    /// configured options value for a linear obligation.
    pub fn linearized(&self) -> Self {
        EntailmentOptions { max_product_size: 1, max_product_degree: 1, ..self.clone() }
    }
}

/// The candidate products of the premises: the LP's columns, each with the
/// premise indices it multiplies.
#[derive(Debug, Clone)]
struct Products {
    /// The products, in column order.
    polys: Vec<Poly>,
    /// `links[k] = (parent, i)`: product `k` of the list as built (before
    /// deduplication) is product `parent` times premise `i`. Entry `0`, the
    /// constant `1`, has no factors.
    links: Vec<(u32, u32)>,
    /// The as-built position of each column.
    columns: Vec<u32>,
}

impl Products {
    /// The premise indices column `column` multiplies, in product order.
    fn factors_of(&self, column: usize, out: &mut Vec<u32>) {
        out.clear();
        let mut k = self.columns[column] as usize;
        while k != 0 {
            let (parent, i) = self.links[k];
            out.push(i);
            k = parent as usize;
        }
        out.reverse();
    }

    /// The sparse combination of the nonzero multipliers among `values`
    /// (one per column). It is built in a fresh buffer: nothing of the
    /// product list stays reachable from it.
    fn combination(&self, values: &[Rat]) -> Combination {
        let mut comb = Combination::new();
        let mut factors = Vec::new();
        for (column, lambda) in values.iter().enumerate() {
            if lambda.is_zero() {
                continue;
            }
            self.factors_of(column, &mut factors);
            comb.push(&factors, lambda.clone());
        }
        comb.shrink_to_fit();
        comb
    }
}

/// Builds the list of candidate products of the premises.
fn products(premises: &[Poly], opts: &EntailmentOptions) -> Products {
    // Levels are built in place: level `s` occupies `polys[level_start..]`
    // and seeds level `s + 1`, so products are stored once instead of being
    // cloned from a scratch level vector (the list and its order are
    // exactly what the two-vector construction produced).
    let mut polys: Vec<Poly> = vec![Poly::one()];
    let mut links: Vec<(u32, u32)> = vec![(0, 0)];
    let mut level_start = 0;
    for _ in 0..opts.max_product_size {
        let level_end = polys.len();
        for base_idx in level_start..level_end {
            for (i, g) in premises.iter().enumerate() {
                let prod = &polys[base_idx] * g;
                if prod.total_degree() <= opts.max_product_degree && !prod.is_zero() {
                    polys.push(prod);
                    links.push((base_idx as u32, i as u32));
                }
            }
        }
        level_start = level_end;
        if polys.len() == level_end {
            break;
        }
    }
    // `Vec::dedup` keeps a product iff it differs from its predecessor;
    // record which ones survive so their factors stay recoverable.
    let columns: Vec<u32> = (0..polys.len())
        .filter(|&k| k == 0 || polys[k] != polys[k - 1])
        .map(|k| k as u32)
        .collect();
    polys.dedup();
    Products { polys, links, columns }
}

/// The refutation `(−1/c) · g_i = −1` of a premise that is a negative
/// constant `c`, if there is one.
fn negative_premise(premises: &[Poly]) -> Option<Combination> {
    premises.iter().enumerate().find_map(|(i, p)| {
        let c = p.as_constant().filter(Rat::is_negative)?;
        let mut comb = Combination::new();
        comb.push(&[i as u32], -c.recip());
        Some(comb)
    })
}

/// One premise set's multiplier LP under one product budget, minus the
/// right-hand side: everything of the LP that the conclusion does not
/// change, built once and shared by every query over the premise set.
///
/// The LP has one row per monomial occurring in a product or the
/// conclusion, and one non-negative multiplier column per product; a row's
/// nonzeros are exactly the products containing that monomial. The
/// conclusion contributes only right-hand sides, plus a row for each of its
/// monomials no product has.
#[derive(Debug, Clone)]
struct Skeleton {
    /// The products (the columns), with the premise indices each multiplies.
    products: Products,
    /// The sorted monomials of the products: the rows of every LP whose
    /// conclusion brings no monomial of its own.
    universe: Vec<Monomial>,
    /// Every product's terms as an integer column over the positions in
    /// `universe`, in the words the simplex kernel reads.
    runs: IntColumns,
    /// The warm-start key's hasher after the product list.
    hashed: Fnv64,
}

/// One query's row set: the skeleton's universe merged with the monomials of
/// the conclusion.
struct Rows<'a> {
    /// The sorted, duplicate-free monomials.
    monomials: Cow<'a, [Monomial]>,
    /// The row of each universe position, when the conclusion added rows
    /// (otherwise position and row coincide).
    moved: Option<Vec<u32>>,
}

impl Skeleton {
    /// The skeleton of `premises` under the product budget of `opts`.
    fn build(premises: &[Poly], opts: &EntailmentOptions) -> Skeleton {
        let products = products(premises, opts);
        // Monomials are Copy keys, so collecting the row set copies words.
        let mut universe: Vec<Monomial> =
            products.polys.iter().flat_map(|p| p.terms().map(|(m, _)| *m)).collect();
        universe.sort_unstable();
        universe.dedup();
        let mut runs = IntColumns::new();
        // A product's terms are sorted by monomial, so its positions arrive
        // sorted.
        for p in &products.polys {
            runs.push(p.flat_terms().iter().map(|(m, c)| (row_of(&universe, m) as u32, c)));
        }
        // The key material is a flat word stream — packed monomial keys and
        // small-tier rationals — so FNV's byte-fold loop beats SipHash's
        // block permutation here, and the workspace digests already
        // standardize on it.
        let mut hashed = Fnv64::new();
        products.polys.hash(&mut hashed);
        Skeleton { products, universe, runs, hashed }
    }

    /// The row set of an LP whose target is `target`.
    fn rows(&self, target: &Poly) -> Rows<'_> {
        // The target's terms are sorted, so the monomials it adds are too.
        let mut added = target
            .terms()
            .map(|(m, _)| *m)
            .filter(|m| self.universe.binary_search(m).is_err())
            .peekable();
        if added.peek().is_none() {
            return Rows { monomials: Cow::Borrowed(&self.universe), moved: None };
        }
        let mut monomials = Vec::with_capacity(self.universe.len() + target.num_terms());
        let mut moved = Vec::with_capacity(self.universe.len());
        for &m in &self.universe {
            while let Some(a) = added.next_if(|a| *a < m) {
                monomials.push(a);
            }
            moved.push(monomials.len() as u32);
            monomials.push(m);
        }
        monomials.extend(added);
        Rows { monomials: Cow::Owned(monomials), moved: Some(moved) }
    }

    /// The LP's revised-engine column form, exactly as [`LpProblem`]'s
    /// lowering would produce it from [`farkas_rows`]: one column per
    /// product with its terms in their monomials' rows, every row whose
    /// right-hand side (the target's coefficient) is negative negated, and
    /// no slack column (every row is an equality).
    fn columns(&self, rows: &Rows<'_>, target: &Poly) -> ColumnForm {
        let m = rows.monomials.len();
        let mut rhs = vec![Rat::zero(); m];
        for (mono, c) in target.flat_terms() {
            rhs[row_of(&rows.monomials, mono)] = c.clone();
        }
        let negated: Vec<bool> = rhs.iter().map(Rat::is_negative).collect();
        for (b, &flip) in rhs.iter_mut().zip(&negated) {
            if flip {
                *b = -std::mem::take(b);
            }
        }
        // The moves are monotone, so every run stays sorted by row. The
        // copy keeps room for the artificial block the solve appends.
        let runs = self.runs.relabel(m, |at| {
            let row = rows.moved.as_ref().map_or(at, |moved| moved[at as usize]);
            (row, negated[row as usize])
        });
        ColumnForm::from_columns(rhs, runs)
    }

    /// The warm-start key of the LP over `rows`: the hash of
    /// `(products, rows)`.
    ///
    /// The constraint *matrix* is a pure function of the product list (one
    /// column per product) and the row set — the conclusion only contributes
    /// right-hand sides. The key therefore groups exactly the LPs that share
    /// columns and differ in few rows, which is what makes a stored basis
    /// worth re-factorizing: inside one Houdini fixpoint iteration, every
    /// conclusion atom checked against the same premise set lands on the
    /// same key.
    fn key(&self, rows: &[Monomial]) -> u64 {
        let mut hasher = self.hashed;
        rows.hash(&mut hasher);
        hasher.finish()
    }

    /// Searches for a non-negative combination of the products equal to
    /// `target` and returns its nonzero multipliers.
    ///
    /// The revised engine receives the LP column by column
    /// ([`Skeleton::columns`]); the dense oracle receives it as
    /// [`LpProblem`] rows ([`farkas_rows`]), so it checks the skeleton's
    /// columns against the lowering they stand in for. With stored bases the
    /// revised engine keys the LP by [`Skeleton::key`] and warm-starts it
    /// from the last optimal basis of its structural family.
    fn witness(
        &self,
        target: &Poly,
        engine: LpEngine,
        bases: Option<&mut BasisCache>,
    ) -> Option<Combination> {
        let rows = self.rows(target);
        let values = match engine {
            LpEngine::Revised => {
                let form = self.columns(&rows, target);
                let outcome = match bases {
                    Some(cache) => form.solve(None, Some(self.key(&rows.monomials)), cache),
                    None => form.solve(None, None, &mut BasisCache::new()),
                };
                match outcome {
                    ColumnOutcome::Optimal { values, .. } => values,
                    ColumnOutcome::Infeasible | ColumnOutcome::Unbounded => return None,
                }
            }
            LpEngine::Dense => {
                let product_list = &self.products.polys;
                let result = farkas_rows(product_list, &rows.monomials, target).solve_dense();
                let solution = result.solution()?;
                (0..product_list.len()).map(|j| solution.value(Var(j as u32))).collect()
            }
        };
        Some(self.products.combination(&values))
    }

    /// [`entails_with_witness`] over the products of `premises`, for a
    /// conclusion that is not a non-negative constant.
    fn entailment(
        &self,
        premises: &[Poly],
        conclusion: &Poly,
        engine: LpEngine,
        mut bases: Option<&mut BasisCache>,
    ) -> Option<Combination> {
        // Unsat fallback: premises that are unsatisfiable over the reals
        // entail any conclusion.
        self.witness(conclusion, engine, bases.as_deref_mut())
            .or_else(|| negative_premise(premises))
            .or_else(|| self.refutation(engine, bases))
    }

    /// A combination of the products summing to `−1`.
    fn refutation(&self, engine: LpEngine, bases: Option<&mut BasisCache>) -> Option<Combination> {
        self.witness(&Poly::constant_i64(-1), engine, bases)
    }
}

/// The row of `m` in the sorted monomial row set.
fn row_of(monomials: &[Monomial], m: &Monomial) -> usize {
    monomials.binary_search(m).expect("row set covers every monomial")
}

/// The one-term combination of a conclusion that is a non-negative
/// constant, which every premise set entails without an LP.
fn constant_conclusion(conclusion: &Poly) -> Option<Combination> {
    conclusion.as_constant().filter(|c| !c.is_negative()).map(Combination::constant)
}

/// The multiplier LP as [`LpProblem`] rows, for the dense oracle:
/// multiplier `λ_j` is the non-negative variable `Var(j)`, and row `i`
/// states `Σ_j λ_j · coeff(π_j, m_i) − coeff(target, m_i) = 0`.
fn farkas_rows(product_list: &[Poly], monomials: &[Monomial], target: &Poly) -> LpProblem {
    let mut lp = LpProblem::new();
    for j in 0..product_list.len() {
        lp.set_var_kind(Var(j as u32), VarKind::NonNegative);
    }
    // Scatter each product's flat term run into its monomial's row; column
    // indices arrive in increasing order, so every `add_coeff` is an append.
    let mut rows: Vec<LinExpr> =
        monomials.iter().map(|m| LinExpr::constant(-target.coefficient(m))).collect();
    for (j, p) in product_list.iter().enumerate() {
        for (m, c) in p.flat_terms() {
            rows[row_of(monomials, m)].add_coeff(Var(j as u32), c.clone());
        }
    }
    for expr in rows {
        lp.add_constraint(expr, Rel::Eq);
    }
    lp
}

/// Checks whether the premises entail the conclusion (`∀x. ⋀ g_i ≥ 0 ⟹ p ≥ 0`)
/// and returns the certifying [`Combination`] if so.
///
/// Every `Some` certifies its claim ([`Combination::certifies`]): its sum is
/// the conclusion, or — when only the unsat fallback succeeded — `−1`.
///
/// It builds a one-off skeleton of the premises and solves cold: certificate
/// validation relies on that to stay independent of session state.
pub fn entails_with_witness(
    premises: &[Poly],
    conclusion: &Poly,
    opts: &EntailmentOptions,
) -> Option<Combination> {
    constant_conclusion(conclusion).or_else(|| {
        Skeleton::build(premises, opts).entailment(premises, conclusion, opts.lp_engine, None)
    })
}

/// Checks whether the premises entail the conclusion.
///
/// Sound and incomplete: `true` is always trustworthy, `false` means "no
/// certificate of the bounded shape was found".
pub fn entails(premises: &[Poly], conclusion: &Poly, opts: &EntailmentOptions) -> bool {
    entails_with_witness(premises, conclusion, opts).is_some()
}

/// Checks whether the premises are unsatisfiable over the reals, by deriving
/// the contradiction `-1 ≥ 0` as a non-negative combination of premise
/// products.
pub fn implies_false(premises: &[Poly], opts: &EntailmentOptions) -> bool {
    implies_false_with_witness(premises, opts).is_some()
}

/// [`implies_false`], returning the refuting [`Combination`] (its sum is
/// `−1`) if one is found.
/// Like [`entails_with_witness`], it builds a one-off skeleton and solves
/// cold.
pub fn implies_false_with_witness(
    premises: &[Poly],
    opts: &EntailmentOptions,
) -> Option<Combination> {
    negative_premise(premises)
        .or_else(|| Skeleton::build(premises, opts).refutation(opts.lp_engine, None))
}

/// A memo table for the entailment oracle, reusable across many queries on
/// the same (or overlapping) premise sets.
///
/// The oracle is a pure function of `(premises, conclusion, options)`, so
/// memoizing its boolean outcome is sound and — crucially for configuration
/// sweeps, where the same consecution obligations are re-discharged for every
/// template size and strategy — turns the vast majority of repeated LP
/// constructions into hash-map lookups.  A [`crate::entails`] call that goes
/// through the cache returns *bitwise-identical* answers to the uncached
/// oracle.
///
/// Premises are passed as `Arc<[Poly]>` slices: callers (the Houdini loop)
/// build one shared premise vector per transition and query many conclusion
/// atoms against it, so a cache insertion stores a reference-counted pointer
/// instead of cloning the whole premise vector per entry.
///
/// The cache keeps the LP skeletons of the premise set it is currently
/// asked about, one per option set, recognised by `Arc::ptr_eq` against a
/// clone of that set's `Arc`, together with the set's share of the lookup
/// hash. A run of queries on one allocation — a Houdini batch, its unsat
/// fallbacks and its `implies_false` veto — hashes the premises once and
/// builds each skeleton once; a query on any other allocation, equal or
/// not, replaces them. [`EntailmentCache::release_skeletons`] drops them
/// and the `Arc` clone; the prover calls it at the end of every prove, so
/// no skeleton outlives the prove that built it.
///
/// The cache also keeps hit/lookup counters so callers (the session-centric
/// prover API) can report cache effectiveness. Misses solve their LPs
/// through bases the cache stores itself, so the underlying LPs warm-start
/// across the query stream; [`EntailmentCache::lp_stats`] reports the LP
/// work, and [`EntailmentCache::record_fast_path`] counts the queries a
/// caller answered by interval closure instead of asking.
#[derive(Debug, Clone, Default)]
pub struct EntailmentCache {
    /// Buckets keyed by the hash of the *borrowed* query, so that cache hits
    /// — the common case on a warm configuration sweep — never clone the
    /// premises or conclusion; owned keys are built on insertion only (and
    /// even then the premises are an `Arc` bump, not a deep clone).
    map: std::collections::HashMap<u64, Vec<(EntailmentKey, bool)>>,
    /// The optimal bases the misses' LPs warm-start from, and the LP
    /// counters of every miss.
    bases: BasisCache,
    /// The premise set of the latest query, until the next query on another
    /// allocation or [`EntailmentCache::release_skeletons`].
    current: Option<PremiseSet>,
    /// Number of queries answered from the memo table.
    pub hits: u64,
    /// Total number of queries routed through the cache.
    pub lookups: u64,
}

/// Memo key: the premises in call order, the conclusion (`None` encodes an
/// [`implies_false`] query), and the options.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct EntailmentKey {
    premises: Arc<[Poly]>,
    conclusion: Option<Poly>,
    opts: EntailmentOptions,
}

impl EntailmentKey {
    fn matches(
        &self,
        premises: &Arc<[Poly]>,
        conclusion: Option<&Poly>,
        opts: &EntailmentOptions,
    ) -> bool {
        (Arc::ptr_eq(&self.premises, premises) || self.premises == *premises)
            && self.conclusion.as_ref() == conclusion
            && self.opts == *opts
    }
}

/// The premise set an [`EntailmentCache`] is currently asked about.
#[derive(Debug, Clone)]
struct PremiseSet {
    /// A clone of the caller's allocation, which queries are matched
    /// against by pointer; holding it keeps the address from being reused.
    premises: Arc<[Poly]>,
    /// The lookup hasher after the premises. A query finishes it with its
    /// conclusion and options. The bucket hash need not agree with the
    /// derived `Hash` of [`EntailmentKey`]: it only selects a bucket, and
    /// the owned keys inside are compared structurally.
    hashed: Fnv64,
    /// The skeletons of `premises`, one per option set, each built by the
    /// first miss that needs an LP under those options.
    skeletons: Vec<(EntailmentOptions, Skeleton)>,
}

impl PremiseSet {
    fn new(premises: &Arc<[Poly]>) -> PremiseSet {
        // Hashing walks each polynomial's flat term slice and folds
        // `(packed monomial word, small rational)` runs — no tree traversal,
        // no clones, no allocation on the packed tiers.
        let mut hashed = Fnv64::new();
        premises.hash(&mut hashed);
        PremiseSet { premises: Arc::clone(premises), hashed, skeletons: Vec::new() }
    }

    /// The bucket hash of a query on these premises.
    fn query_hash(&self, conclusion: Option<&Poly>, opts: &EntailmentOptions) -> u64 {
        let mut hasher = self.hashed;
        conclusion.hash(&mut hasher);
        opts.hash(&mut hasher);
        hasher.finish()
    }

    /// The skeleton under `opts`, built on first use.
    fn skeleton(&mut self, opts: &EntailmentOptions) -> &Skeleton {
        let at = match self.skeletons.iter().position(|(built_for, _)| built_for == opts) {
            Some(at) => at,
            None => {
                self.skeletons.push((opts.clone(), Skeleton::build(&self.premises, opts)));
                self.skeletons.len() - 1
            }
        };
        &self.skeletons[at].1
    }
}

impl EntailmentCache {
    /// Creates an empty cache.
    pub fn new() -> EntailmentCache {
        EntailmentCache::default()
    }

    fn lookup_or(
        &mut self,
        premises: &Arc<[Poly]>,
        conclusion: Option<&Poly>,
        opts: &EntailmentOptions,
        compute: impl FnOnce(&mut PremiseSet, &mut BasisCache) -> bool,
    ) -> bool {
        let EntailmentCache { map, bases, current, hits, lookups } = self;
        *lookups += 1;
        let set = match current {
            Some(set) if Arc::ptr_eq(&set.premises, premises) => set,
            _ => current.insert(PremiseSet::new(premises)),
        };
        let bucket = map.entry(set.query_hash(conclusion, opts)).or_default();
        if let Some((_, answer)) =
            bucket.iter().find(|(k, _)| k.matches(premises, conclusion, opts))
        {
            *hits += 1;
            return *answer;
        }
        let answer = compute(set, bases);
        bucket.push((
            EntailmentKey {
                premises: Arc::clone(premises),
                conclusion: conclusion.cloned(),
                opts: opts.clone(),
            },
            answer,
        ));
        answer
    }

    /// Memoized [`entails`]; misses warm-start their multiplier LPs from the
    /// bases earlier misses stored.
    pub fn entails(
        &mut self,
        premises: &Arc<[Poly]>,
        conclusion: &Poly,
        opts: &EntailmentOptions,
    ) -> bool {
        self.lookup_or(premises, Some(conclusion), opts, |set, bases| {
            constant_conclusion(conclusion).is_some()
                || set
                    .skeleton(opts)
                    .entailment(premises, conclusion, opts.lp_engine, Some(bases))
                    .is_some()
        })
    }

    /// Memoized [`implies_false`]; misses warm-start like
    /// [`EntailmentCache::entails`]. The `-1 ≥ 0` query shares its
    /// warm-start key with the entailment queries over the same premise
    /// products whose conclusions add no row (the conclusion only shifts
    /// right-hand sides), so it warm-starts from their bases and vice versa.
    pub fn implies_false(&mut self, premises: &Arc<[Poly]>, opts: &EntailmentOptions) -> bool {
        self.lookup_or(premises, None, opts, |set, bases| {
            negative_premise(premises).is_some()
                || set.skeleton(opts).refutation(opts.lp_engine, Some(bases)).is_some()
        })
    }

    /// Drops the skeletons of the premise set the cache was last asked
    /// about, and its clone of that set's `Arc`. Memo entries, bases and
    /// counters stay; the next query rebuilds what it needs, with the same
    /// answers and LP work.
    pub fn release_skeletons(&mut self) {
        self.current = None;
    }

    /// Counts one query a caller answered by interval closure of its
    /// premises (the `revterm_absint` fast path) without asking the memo.
    pub fn record_fast_path(&mut self) {
        self.bases.stats.absint_fast_paths += 1;
    }

    /// The LP counters of every miss so far, plus the fast paths recorded
    /// with [`EntailmentCache::record_fast_path`]. Monotone: snapshot and
    /// subtract ([`LpStats::delta_since`]) to attribute work to one call.
    pub fn lp_stats(&self) -> LpStats {
        self.bases.stats
    }

    /// Number of memoized entries.
    pub fn len(&self) -> usize {
        self.map.values().map(|bucket| bucket.len()).sum()
    }

    /// Returns `true` iff nothing has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revterm_num::{rat, Rat};

    fn x() -> Poly {
        Poly::var(Var(100))
    }
    fn y() -> Poly {
        Poly::var(Var(101))
    }
    fn c(v: i64) -> Poly {
        Poly::constant_i64(v)
    }

    #[test]
    fn trivial_conclusions() {
        let opts = EntailmentOptions::default();
        assert!(entails(&[], &c(0), &opts));
        assert!(entails(&[], &c(5), &opts));
        assert!(!entails(&[], &c(-1), &opts));
        assert!(!entails(&[], &(x() - c(1)), &opts));
    }

    #[test]
    fn linear_farkas_entailments() {
        let opts = EntailmentOptions::linear();
        // x >= 3 ⟹ x >= 1
        assert!(entails(&[&x() - &c(3)], &(&x() - &c(1)), &opts));
        // x >= 3 ⟹ 2x - 5 >= 0
        assert!(entails(&[&x() - &c(3)], &(x().scale(&rat(2)) - c(5)), &opts));
        // x >= 1 does NOT imply x >= 3
        assert!(!entails(&[&x() - &c(1)], &(&x() - &c(3)), &opts));
        // x >= 0 and y >= 0 ⟹ x + y >= 0
        assert!(entails(&[x(), y()], &(&x() + &y()), &opts));
        // x >= 0 and y >= 0 do NOT imply x - y >= 0
        assert!(!entails(&[x(), y()], &(&x() - &y()), &opts));
    }

    #[test]
    fn entailment_with_equalities() {
        let opts = EntailmentOptions::linear();
        // x = 7 (as two inequalities) ⟹ x >= 5 and 10 - x >= 0.
        let premises = [&x() - &c(7), &c(7) - &x()];
        assert!(entails(&premises, &(&x() - &c(5)), &opts));
        assert!(entails(&premises, &(&c(10) - &x()), &opts));
        assert!(!entails(&premises, &(&x() - &c(8)), &opts));
    }

    #[test]
    fn unsat_premises_entail_everything() {
        let opts = EntailmentOptions::default();
        let premises = [&x() - &c(3), -x()]; // x >= 3 and x <= 0
        assert!(implies_false(&premises, &opts));
        assert!(entails(&premises, &(&x() - &c(1000)), &opts));
        assert!(entails(&premises, &c(-5), &opts));
        // Satisfiable premises are not reported unsat.
        assert!(!implies_false(&[&x() - &c(3)], &opts));
        assert!(!implies_false(&[], &opts));
        // A syntactically false premise is detected immediately.
        assert!(implies_false(&[c(-2)], &opts));
    }

    #[test]
    fn quadratic_handelman_entailments() {
        let opts = EntailmentOptions::default();
        // x >= 3 ⟹ x^2 >= 9   (needs the product (x-3)^2).
        assert!(entails(&[&x() - &c(3)], &(&x() * &x() - c(9)), &opts));
        // x >= 0 ∧ y >= 2 ⟹ x*y + x >= 0.
        assert!(entails(&[x(), &y() - &c(2)], &(&(&x() * &y()) + &x()), &opts));
        // x >= 0 does NOT imply x^2 >= 1.
        assert!(!entails(&[x()], &(&x() * &x() - c(1)), &opts));
    }

    #[test]
    fn witness_multipliers_reconstruct_conclusion() {
        // Re-build each combination by hand from the premises it names.
        let rebuild = |witness: &Combination, premises: &[Poly]| {
            let mut sum = Poly::zero();
            for (factors, lambda) in witness.terms() {
                assert!(lambda.is_positive(), "multipliers must be positive");
                let product =
                    factors.iter().fold(Poly::one(), |acc, &i| &acc * &premises[i as usize]);
                sum = &sum + &product.scale(lambda);
            }
            sum
        };
        let opts = EntailmentOptions::linear();
        let premises = vec![&x() - &c(3), y()];
        let conclusion = &(&x() + &y()) - &c(1);
        let witness = entails_with_witness(&premises, &conclusion, &opts).unwrap();
        assert_eq!(rebuild(&witness, &premises), conclusion);
        assert!(witness.certifies(&premises, &conclusion));

        // Products of premises name every factor: x >= 3 ⟹ x^2 >= 9.
        let square = &(&x() * &x()) - &c(9);
        let quadratic = vec![&x() - &c(3)];
        let witness =
            entails_with_witness(&quadratic, &square, &EntailmentOptions::default()).unwrap();
        assert!(witness.terms().any(|(factors, _)| factors == [0, 0]));
        assert_eq!(rebuild(&witness, &quadratic), square);

        // When only the unsat fallback succeeds (no combination of premises
        // over x yields y), the witness is the refutation: it sums to -1,
        // not to the conclusion.
        let contradictory = vec![&x() - &c(3), -x()];
        let far = &y() - &c(1000);
        let witness = entails_with_witness(&contradictory, &far, &opts).unwrap();
        assert_eq!(rebuild(&witness, &contradictory), c(-1));
        assert!(witness.certifies(&contradictory, &far));
        assert_eq!(implies_false_with_witness(&contradictory, &opts), Some(witness));
        // A negative constant premise refutes itself without an LP.
        let refutation = implies_false_with_witness(&[x(), c(-4)], &opts).unwrap();
        let quarter = Rat::packed(1, 4);
        assert_eq!(refutation.terms().collect::<Vec<_>>(), vec![(&[1u32][..], &quarter)]);
    }

    #[test]
    fn running_example_invariant_step() {
        // The inductiveness condition of Example 5.4 at the inner loop:
        //   x >= 9  ∧  x <= y  ∧  x' = x + 1  ∧  y' = y   ⟹   x' >= 9.
        let opts = EntailmentOptions::linear();
        let xp = Poly::var(Var(102));
        let yp = Poly::var(Var(103));
        let premises = vec![
            &x() - &c(9),
            &y() - &x(),
            &xp - &(&x() + &c(1)),
            &(&x() + &c(1)) - &xp,
            &yp - &y(),
            &y() - &yp,
        ];
        assert!(entails(&premises, &(&xp - &c(9)), &opts));
        // ... and it does not entail x' >= y' (which is false when x < y).
        assert!(!entails(&premises, &(&xp - &yp), &opts));
    }

    #[test]
    fn entailment_cache_matches_uncached_oracle_and_counts_hits() {
        let opts = EntailmentOptions::linear();
        let mut cache = EntailmentCache::new();
        let queries: Vec<(Arc<[Poly]>, Poly)> = vec![
            (vec![&x() - &c(3)].into(), &x() - &c(1)),
            (vec![&x() - &c(1)].into(), &x() - &c(3)),
            (vec![x(), y()].into(), &x() + &y()),
        ];
        for (premises, conclusion) in &queries {
            let fresh = entails(premises, conclusion, &opts);
            assert_eq!(cache.entails(premises, conclusion, &opts), fresh);
            // Second query is a hit and must agree.
            let hits_before = cache.hits;
            assert_eq!(cache.entails(premises, conclusion, &opts), fresh);
            assert_eq!(cache.hits, hits_before + 1);
        }
        // implies_false queries are keyed separately from entails queries.
        let contradiction: Arc<[Poly]> = vec![&x() - &c(3), -x()].into();
        assert!(cache.implies_false(&contradiction, &opts));
        assert!(cache.implies_false(&contradiction, &opts));
        assert!(!cache.is_empty());
        assert_eq!(cache.len(), 4);
        assert!(cache.lookups > cache.hits);
        // The LP layer saw only the misses, and counted them.
        assert_eq!(cache.lookups - cache.hits, cache.len() as u64);
        assert!(cache.lp_stats().solves > 0);
        cache.record_fast_path();
        assert_eq!(cache.lp_stats().absint_fast_paths, 1);
    }

    #[test]
    fn prop_engine_choice_does_not_change_farkas_certificates() {
        // The engine knob must not change a single verdict or witness:
        // random feasible/infeasible entailment chains produce bitwise-equal
        // certificates through both simplex engines. The revised engine gets
        // the LP from the column builder, the dense engine from the
        // `LpProblem` lowering, so this also checks the builder against the
        // lowering. The rounds cover plain Farkas, Handelman products of two
        // premises, and coefficients near and past `i64::MAX`.
        use revterm_num::SplitMix64;
        let mut rng = SplitMix64::new(0x0FA1_2CA5);
        for (budget, large) in [(1, false), (2, false), (1, true), (2, true)] {
            let with_engine = |lp_engine| EntailmentOptions {
                lp_engine,
                ..EntailmentOptions::with_budget(budget, budget as u32)
            };
            let revised_opts = with_engine(LpEngine::Revised);
            assert_eq!(revised_opts.lp_engine, EntailmentOptions::default().lp_engine);
            let dense_opts = with_engine(LpEngine::Dense);
            let (mut entailed, mut refuted) = (0, 0);
            for round in 0..40 {
                let n = 3 + rng.next_below(4) as usize;
                let mut premises = Vec::new();
                let mut total = rat(0);
                for i in 0..n {
                    let step = Rat::packed(rng.next_in_range(1, 6), rng.next_in_range(1, 4));
                    // Large rounds scale a premise `x_{i+1} − x_i − step ≥ 0`
                    // by a factor near i64::MAX, or past it.
                    let scale = if large {
                        let near_max = rat(i64::MAX - rng.next_in_range(0, 1000));
                        if rng.next_below(2) == 0 {
                            near_max
                        } else {
                            &near_max * &rat(3)
                        }
                    } else {
                        rat(1)
                    };
                    let step_poly = Poly::constant(step.clone());
                    let premise =
                        &Poly::var(Var(i as u32 + 1)) - &Poly::var(Var(i as u32)) - step_poly;
                    premises.push(premise.scale(&scale));
                    total = &total + &step;
                }
                // Entailed on even rounds (slack below the chain sum), refuted
                // on odd rounds (conclusion overshoots the sum).
                let slack = if round % 2 == 0 { rat(1) } else { rat(-1) };
                let bound = &total - &slack;
                let conclusion =
                    &Poly::var(Var(n as u32)) - &Poly::var(Var(0)) - Poly::constant(bound);
                let via_revised = entails_with_witness(&premises, &conclusion, &revised_opts);
                let via_dense = entails_with_witness(&premises, &conclusion, &dense_opts);
                let case = format!("budget {budget}, large {large}, round {round}");
                assert_eq!(via_revised, via_dense, "revised engine diverged ({case})");
                for witness in [&via_revised, &via_dense].into_iter().flatten() {
                    assert!(
                        witness.certifies(&premises, &conclusion),
                        "an engine's combination does not certify its target ({case})"
                    );
                }
                match via_dense {
                    Some(_) => entailed += 1,
                    None => refuted += 1,
                }
            }
            assert_eq!((entailed, refuted), (20, 20), "budget {budget}, large {large}");
        }
    }

    #[test]
    fn prop_warm_started_streams_match_the_cold_oracle() {
        // A Houdini-shaped stream: one premise set, many conclusion atoms —
        // every miss after the first warm-starts from the basis the memo
        // stored. Verdicts must match the cold dense oracle on every atom.
        use revterm_num::SplitMix64;
        let opts = EntailmentOptions::linear();
        let oracle_opts = EntailmentOptions { lp_engine: LpEngine::Dense, ..opts };
        let mut rng = SplitMix64::new(0x57A6_57A6);
        let mut cache = EntailmentCache::new();
        for _ in 0..12 {
            let n = 2 + rng.next_below(3) as usize;
            let mut premises: Vec<Poly> = Vec::new();
            for i in 0..n {
                // x_i >= b_i with random bounds.
                let b = rng.next_in_range(-3, 3);
                premises.push(&Poly::var(Var(i as u32)) - &Poly::constant_i64(b));
            }
            let premises: Arc<[Poly]> = premises.into();
            for atom in 0..6u32 {
                let i = rng.next_below(n as u64) as u32;
                let b = rng.next_in_range(-4, 4);
                let conclusion = &Poly::var(Var(i)) - &Poly::constant_i64(b);
                let warm = cache.entails(&premises, &conclusion, &opts);
                let cold = entails(&premises, &conclusion, &oracle_opts);
                assert_eq!(warm, cold, "atom {atom} diverged");
            }
        }
        let stats = cache.lp_stats();
        assert!(stats.warm_hits > 0, "the stream produced no LP warm starts");
        assert_eq!(stats.warm_lookups, stats.solves);
    }

    #[test]
    fn product_generation_respects_budgets() {
        let premises = vec![x(), y()];
        let small = products(&premises, &EntailmentOptions::with_budget(1, 1)).polys;
        // 1, x, y.
        assert_eq!(small.len(), 3);
        let bigger = products(&premises, &EntailmentOptions::with_budget(2, 2));
        // 1, x, y, x^2, xy, yx, y^2 (dedup keeps distinct polynomials).
        assert!(bigger.polys.len() >= 6);
        assert!(bigger.polys.iter().any(|p| p.total_degree() == 2));
        assert!(bigger.polys.iter().all(|p| p.total_degree() <= 2));
    }

    #[test]
    fn product_columns_name_their_factors() {
        // Equal consecutive premises leave equal consecutive products, which
        // dedup drops; every surviving column still names factors whose
        // product is exactly that column.
        let premises = vec![x(), x(), &y() - &c(1)];
        let list = products(&premises, &EntailmentOptions::with_budget(2, 2));
        assert!(list.columns.len() < list.links.len(), "the premises repeat, so dedup fires");
        let mut factors = Vec::new();
        for (column, poly) in list.polys.iter().enumerate() {
            list.factors_of(column, &mut factors);
            let rebuilt = factors.iter().fold(Poly::one(), |acc, &i| &acc * &premises[i as usize]);
            assert_eq!(&rebuilt, poly, "column {column} with factors {factors:?}");
        }
    }

    #[test]
    fn tampered_combinations_do_not_certify() {
        let opts = EntailmentOptions::linear();
        let premises = vec![&x() - &c(3), y()];
        let conclusion = &(&x() + &y()) - &c(1);
        let good = entails_with_witness(&premises, &conclusion, &opts).unwrap();
        // Rebuilds `good` with its first term's factors and multiplier
        // replaced.
        let with_first = |factors: &[u32], lambda: Rat| {
            let mut comb = Combination::new();
            comb.push(factors, lambda);
            for (f, l) in good.terms().skip(1) {
                comb.push(f, l.clone());
            }
            comb
        };
        let (factors, lambda) = good.terms().next().unwrap();
        assert!(with_first(factors, lambda.clone()).certifies(&premises, &conclusion));
        assert!(!with_first(factors, -lambda.clone()).certifies(&premises, &conclusion));
        assert!(!with_first(factors, rat(0)).certifies(&premises, &conclusion));
        let nudged = lambda + &Rat::packed(1, 7);
        assert!(!with_first(factors, nudged).certifies(&premises, &conclusion));
        let out_of_range = [premises.len() as u32];
        assert!(!with_first(&out_of_range, lambda.clone()).certifies(&premises, &conclusion));
        // A combination certifies its own conclusion, not another one.
        assert!(!good.certifies(&premises, &(&x() - &c(1))));
    }

    /// The per-query LP builder the skeleton replaced — the product list,
    /// row set, columns and warm-start key rebuilt for every query — and the
    /// memo's full-premise lookup hash: the reference the property tests hold
    /// the skeleton and the cached hash prefix to.
    mod reference {
        use crate::entail::{
            farkas_rows, negative_premise, products, row_of, Combination, EntailmentOptions,
            LpEngine, Products,
        };
        use crate::lp::{BasisCache, ColumnForm, ColumnOutcome};
        use revterm_num::{Fnv64, Rat};
        use revterm_poly::{Monomial, Poly, Var};
        use std::hash::{Hash, Hasher};

        /// The row set: every monomial of the target or a product, sorted.
        pub(super) fn row_set(product_list: &[Poly], target: &Poly) -> Vec<Monomial> {
            let mut monomials: Vec<Monomial> = target.terms().map(|(m, _)| *m).collect();
            for p in product_list {
                monomials.extend(p.terms().map(|(m, _)| *m));
            }
            monomials.sort_unstable();
            monomials.dedup();
            monomials
        }

        pub(super) fn structural_key(product_list: &[Poly], monomials: &[Monomial]) -> u64 {
            let mut hasher = Fnv64::new();
            product_list.hash(&mut hasher);
            monomials.hash(&mut hasher);
            hasher.finish()
        }

        pub(super) fn farkas_columns(
            product_list: &[Poly],
            monomials: &[Monomial],
            target: &Poly,
        ) -> ColumnForm {
            let mut rhs = vec![Rat::zero(); monomials.len()];
            for (m, c) in target.flat_terms() {
                rhs[row_of(monomials, m)] = c.clone();
            }
            let negated: Vec<bool> = rhs.iter().map(Rat::is_negative).collect();
            for (b, &flip) in rhs.iter_mut().zip(&negated) {
                if flip {
                    *b = -std::mem::take(b);
                }
            }
            let mut form = ColumnForm::new(rhs);
            for p in product_list {
                let column: Vec<(u32, Rat)> = p
                    .flat_terms()
                    .iter()
                    .map(|(m, c)| {
                        let i = row_of(monomials, m);
                        (i as u32, if negated[i] { -c } else { c.clone() })
                    })
                    .collect();
                form.push_column(&column);
            }
            form
        }

        fn combination_witness(
            products: &Products,
            target: &Poly,
            opts: &EntailmentOptions,
        ) -> Option<Combination> {
            let product_list = &products.polys;
            let monomials = row_set(product_list, target);
            let values = match opts.lp_engine {
                LpEngine::Revised => {
                    let form = farkas_columns(product_list, &monomials, target);
                    match form.solve(None, None, &mut BasisCache::new()) {
                        ColumnOutcome::Optimal { values, .. } => values,
                        ColumnOutcome::Infeasible | ColumnOutcome::Unbounded => return None,
                    }
                }
                LpEngine::Dense => {
                    let result = farkas_rows(product_list, &monomials, target).solve_dense();
                    let solution = result.solution()?;
                    (0..product_list.len()).map(|j| solution.value(Var(j as u32))).collect()
                }
            };
            Some(products.combination(&values))
        }

        pub(super) fn entails_with_witness(
            premises: &[Poly],
            conclusion: &Poly,
            opts: &EntailmentOptions,
        ) -> Option<Combination> {
            if let Some(c) = conclusion.as_constant() {
                if !c.is_negative() {
                    return Some(Combination::constant(c));
                }
            }
            let products = products(premises, opts);
            if let Some(witness) = combination_witness(&products, conclusion, opts) {
                return Some(witness);
            }
            negative_premise(premises)
                .or_else(|| combination_witness(&products, &Poly::constant_i64(-1), opts))
        }

        pub(super) fn implies_false_with_witness(
            premises: &[Poly],
            opts: &EntailmentOptions,
        ) -> Option<Combination> {
            negative_premise(premises).or_else(|| {
                combination_witness(&products(premises, opts), &Poly::constant_i64(-1), opts)
            })
        }

        pub(super) fn query_hash(
            premises: &[Poly],
            conclusion: Option<&Poly>,
            opts: &EntailmentOptions,
        ) -> u64 {
            let mut hasher = Fnv64::new();
            premises.hash(&mut hasher);
            conclusion.hash(&mut hasher);
            opts.hash(&mut hasher);
            hasher.finish()
        }
    }

    /// A random polynomial over `Var(0..nvars)` of degree at most `degree`:
    /// a constant plus up to three further terms, each coefficient in
    /// `[-3, 3]`.
    fn random_poly(rng: &mut revterm_num::SplitMix64, nvars: u32, degree: u32) -> Poly {
        let mut p = Poly::constant_i64(rng.next_in_range(-3, 3));
        for _ in 0..1 + rng.next_below(3) {
            let mut term = Poly::constant_i64(rng.next_in_range(-3, 3));
            for _ in 0..1 + rng.next_below(u64::from(degree)) {
                term = &term * &Poly::var(Var(rng.next_below(u64::from(nvars)) as u32));
            }
            p = &p + &term;
        }
        p
    }

    #[test]
    fn prop_skeleton_lp_matches_the_per_query_builder() {
        // Linear and quadratic premise sets under product budgets 1 and 2,
        // some with a repeated premise (so dedup drops equal consecutive
        // products), against conclusions inside and outside the products'
        // monomials, with negative coefficients and the constant -1. The
        // skeleton must give the reference builder's rows, columns,
        // right-hand side and warm-start key, and the same witnesses on
        // both engines; the memo's cached premise hash must finish to the
        // full-query hash.
        use revterm_num::SplitMix64;
        let mut rng = SplitMix64::new(0x5CE1_E705);
        let (mut added_rows, mut negated_rows, mut entailed, mut refuted) = (0, 0, 0, 0);
        for (premise_degree, budget) in [(1, 1), (1, 2), (2, 1), (2, 2)] {
            for round in 0..12 {
                let mut premises: Vec<Poly> = (0..2 + rng.next_below(3))
                    .map(|_| random_poly(&mut rng, 3, premise_degree))
                    .filter(|p| !p.is_zero())
                    .collect();
                if round % 3 == 0 {
                    if let Some(first) = premises.first().cloned() {
                        premises.insert(1, first);
                    }
                }
                let opts = EntailmentOptions::with_budget(budget, 2 * budget as u32);
                let skeleton = Skeleton::build(&premises, &opts);
                let product_list = &skeleton.products.polys;
                // Conclusions over one more variable than the premises use,
                // up to degree 2, and the refutation target.
                let mut conclusions: Vec<Poly> =
                    (0..6).map(|_| random_poly(&mut rng, 4, 2)).collect();
                conclusions.push(Poly::constant_i64(-1));
                conclusions.push(-&premises[0]);
                for conclusion in &conclusions {
                    let case = format!("degree {premise_degree}, budget {budget}, round {round}");
                    let monomials = reference::row_set(product_list, conclusion);
                    let rows = skeleton.rows(conclusion);
                    assert_eq!(&*rows.monomials, &monomials[..], "rows ({case})");
                    added_rows += usize::from(rows.moved.is_some());
                    negated_rows +=
                        conclusion.flat_terms().iter().filter(|(_, c)| c.is_negative()).count();
                    assert_eq!(
                        skeleton.columns(&rows, conclusion),
                        reference::farkas_columns(product_list, &monomials, conclusion),
                        "columns and right-hand side ({case})"
                    );
                    assert_eq!(
                        skeleton.key(&rows.monomials),
                        reference::structural_key(product_list, &monomials),
                        "warm-start key ({case})"
                    );
                    let shared: Arc<[Poly]> = premises.clone().into();
                    assert_eq!(
                        PremiseSet::new(&shared).query_hash(Some(conclusion), &opts),
                        reference::query_hash(&premises, Some(conclusion), &opts),
                        "memo bucket hash ({case})"
                    );
                    for lp_engine in [LpEngine::Revised, LpEngine::Dense] {
                        let opts = EntailmentOptions { lp_engine, ..opts.clone() };
                        let witness = entails_with_witness(&premises, conclusion, &opts);
                        assert_eq!(
                            witness,
                            reference::entails_with_witness(&premises, conclusion, &opts),
                            "entailment witness on {lp_engine:?} ({case})"
                        );
                        match witness {
                            Some(_) => entailed += 1,
                            None => refuted += 1,
                        }
                    }
                }
                let shared: Arc<[Poly]> = premises.clone().into();
                assert_eq!(
                    PremiseSet::new(&shared).query_hash(None, &opts),
                    reference::query_hash(&premises, None, &opts)
                );
                for lp_engine in [LpEngine::Revised, LpEngine::Dense] {
                    let opts = EntailmentOptions { lp_engine, ..opts.clone() };
                    assert_eq!(
                        implies_false_with_witness(&premises, &opts),
                        reference::implies_false_with_witness(&premises, &opts),
                        "refutation on {lp_engine:?}"
                    );
                }
            }
        }
        // The rounds reached every branch the skeleton's query path has.
        assert!(added_rows > 0 && negated_rows > 0, "{added_rows} added, {negated_rows} negated");
        assert!(entailed > 0 && refuted > 0, "{entailed} entailed, {refuted} refuted");
    }

    #[test]
    fn skeletons_are_never_stale_and_released_ones_leave_no_trace() {
        // Premise sets A, B, A under linear and default options, the second
        // A once as the same allocation and once as an equal fresh one. A
        // cache that keeps its skeletons must answer and count exactly like
        // one released before every query.
        let a = || vec![&x() - &c(3), &y() - &x(), &c(9) - &y()];
        let b = || vec![x(), &c(2) - &x(), &(&x() * &y()) - &c(1)];
        let conclusions = [
            &x() - &c(1),
            &y() - &c(4),
            &c(5) - &x(),
            &(&x() * &x()) - &c(9),
            &(&x() * &y()) - &c(2),
            &y() - &x() - &c(7),
        ];
        let (a1, b1): (Arc<[Poly]>, Arc<[Poly]>) = (a().into(), b().into());
        let a2: Arc<[Poly]> = a().into();
        let count_a2 = Arc::strong_count(&a2);
        let (mut kept, mut released) = (EntailmentCache::new(), EntailmentCache::new());
        for (pass, premises) in [&a1, &b1, &a1, &b1, &a2].into_iter().enumerate() {
            for opts in [EntailmentOptions::linear(), EntailmentOptions::default()] {
                // The last pass asks the earlier conclusions again (hits)
                // and one more each (a miss).
                let asked = if pass == 4 { &conclusions[..] } else { &conclusions[..5] };
                for conclusion in asked.iter().map(Some).chain([None]) {
                    released.release_skeletons();
                    let answers = match conclusion {
                        Some(conclusion) => (
                            kept.entails(premises, conclusion, &opts),
                            released.entails(premises, conclusion, &opts),
                        ),
                        None => (
                            kept.implies_false(premises, &opts),
                            released.implies_false(premises, &opts),
                        ),
                    };
                    let case = format!("pass {pass}, {opts:?}, {conclusion:?}");
                    assert_eq!(answers.0, answers.1, "answer ({case})");
                    assert_eq!((kept.hits, kept.lookups), (released.hits, released.lookups));
                    assert_eq!(kept.lp_stats(), released.lp_stats(), "LP work ({case})");
                }
            }
        }
        assert!(kept.hits > 0 && kept.lp_stats().solves > 0);
        // While A's fresh allocation is current, the cache holds a clone of
        // it and one skeleton per option set.
        let current = kept.current.as_ref().expect("the last query's premise set");
        assert!(Arc::ptr_eq(&current.premises, &a2));
        assert_eq!(current.skeletons.len(), 2);
        kept.release_skeletons();
        released.release_skeletons();
        assert!(kept.current.is_none() && released.current.is_none());
        // Past the release, only the memo entries of the two caches hold
        // the premise sets.
        let keys_holding = |premises: &Arc<[Poly]>| {
            [&kept, &released]
                .iter()
                .flat_map(|cache| cache.map.values().flatten())
                .filter(|(k, _)| Arc::ptr_eq(&k.premises, premises))
                .count()
        };
        assert_eq!(Arc::strong_count(&a2), count_a2 + keys_holding(&a2));
        for premises in [&a1, &b1, &a2] {
            assert_eq!(Arc::strong_count(premises), 1 + keys_holding(premises));
        }
    }
}
