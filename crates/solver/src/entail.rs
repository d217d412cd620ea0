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
//! monomial. For the default revised engine the LP is built column by column
//! straight from the product list — each product's terms scattered into
//! their monomials' rows, rows with a negative right-hand side negated — in
//! exactly the standard form [`crate::LpProblem`]'s lowering would produce,
//! without building rows, a variable map or a solution map first. The dense
//! reference ([`LpEngine::Dense`]) still receives the LP as
//! [`crate::LpProblem`] rows and lowers them itself, so every
//! engine-agreement check also compares the column builder with the lowering
//! it stands in for.
//!
//! # Warm starts across the query stream
//!
//! Consecutive queries in a Houdini fixpoint share their premise set: the
//! loop checks every candidate conclusion atom against the same premises
//! before it drops anything. The multiplier LPs of such a family share their
//! entire constraint *matrix* (columns = premise products, rows = monomials)
//! and differ only in right-hand sides (the conclusion's coefficients), so
//! the oracle keys each LP by a hash of `(products, monomials)` and lets the
//! revised simplex warm-start from the last optimal basis stored under that
//! key — typically skipping phase 1 outright. The stored bases and the
//! [`crate::LpStats`] counters belong to the memo ([`EntailmentCache`]):
//! its misses are the only solves that warm-start, and callers see warm
//! starts only as counters ([`EntailmentCache::lp_stats`]). The free
//! functions solve cold. Engine choice ([`LpEngine`]) and warm starts never
//! change a verdict or witness; the dense tableau is kept as the
//! differential oracle.
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

use crate::lp::{BasisCache, ColumnForm, ColumnOutcome, LpProblem, LpStats, Rel, VarKind};
use revterm_num::Rat;
use revterm_poly::{LinExpr, Monomial, Poly, Var};
use std::sync::Arc;

/// Which simplex engine discharges the multiplier LPs.
///
/// Both engines return bitwise-identical verdicts and witnesses on cold
/// solves (same Bland's-rule pivot sequence over exact rationals); the dense
/// tableau exists as the differential oracle for the default, and the
/// `num_profile` bench bin re-proves the agreement on every run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LpEngine {
    /// The revised simplex with the eta-file basis factorization and exact
    /// integer pricing (the engine behind [`LpProblem::solve`]), fed the
    /// column-form LP — the only engine with warm starts, and the default.
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
    /// building an LP, and let the prover skip the probe batches the
    /// pre-analysis proves futile.  Both halves are sound pruning only: the
    /// fast path claims only entailments that carry an explicit Farkas
    /// certificate, so answers are bitwise identical either way; the flag
    /// exists as the differential knob for the `absint` on/off determinism
    /// gate. [`EntailmentCache`] keys on it with the other options, so an
    /// off query is never answered from on work.
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

    /// A copy of these options restricted to the plain-Farkas budget
    /// (product size and degree 1), preserving every non-budget field —
    /// use this instead of [`EntailmentOptions::linear`] when downgrading a
    /// configured options value for a linear obligation.
    pub fn linearized(&self) -> Self {
        EntailmentOptions { max_product_size: 1, max_product_degree: 1, ..self.clone() }
    }
}

/// A nonnegative combination of premise products,
///
/// ```text
/// Σ_j λ_j · Π_{i ∈ F_j} g_i        with every λ_j > 0,
/// ```
///
/// where each `F_j` is a multiset of premise indices (the empty multiset is
/// the constant product `1`). A combination whose sum is the conclusion
/// certifies an entailment; one whose sum is `−1` certifies that the
/// premises are unsatisfiable, and so entail anything. It names premises,
/// not columns of the oracle's product list, so it is checked without
/// rebuilding that list ([`Combination::certifies`]).
///
/// The factor runs of all terms share one buffer, so a term costs its
/// multiplier plus a few index words and no allocation of its own.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Combination {
    /// The premise indices of every term's product, concatenated.
    factors: Vec<u32>,
    /// Per term: the end of its run in `factors`, and its multiplier.
    terms: Vec<(u32, Rat)>,
}

impl Combination {
    /// The empty combination (its sum is `0`).
    pub fn new() -> Combination {
        Combination::default()
    }

    /// Appends the term `lambda · Π_{i ∈ factors} g_i`.
    pub fn push(&mut self, factors: &[u32], lambda: Rat) {
        self.factors.extend_from_slice(factors);
        let end = u32::try_from(self.factors.len()).expect("factor buffer fits u32 offsets");
        self.terms.push((end, lambda));
    }

    /// The terms as `(premise indices, λ)` pairs, in insertion order.
    pub fn terms(&self) -> impl Iterator<Item = (&[u32], &Rat)> + '_ {
        let mut start = 0;
        self.terms.iter().map(move |(end, lambda)| {
            let factors = &self.factors[start..*end as usize];
            start = *end as usize;
            (factors, lambda)
        })
    }

    /// The sum `Σ_j λ_j · Π_{i ∈ F_j} premises[i]`, or `None` if a factor
    /// index is out of range or some `λ_j` is not strictly positive (such a
    /// sum is not known to be nonnegative on the premise set).
    fn sum(&self, premises: &[Poly]) -> Option<Poly> {
        let mut terms = Vec::new();
        for (factors, lambda) in self.terms() {
            if !lambda.is_positive() {
                return None;
            }
            let Some((&first, rest)) = factors.split_first() else {
                terms.push((Monomial::one(), lambda.clone()));
                continue;
            };
            // Single premises — every term of a Farkas combination — are
            // scaled straight into the sum; only real products are built.
            let first = premises.get(first as usize)?;
            let product;
            let poly = if rest.is_empty() {
                first
            } else {
                let mut p = first.clone();
                for &i in rest {
                    p = &p * premises.get(i as usize)?;
                }
                product = p;
                &product
            };
            terms.extend(poly.flat_terms().iter().map(|(m, c)| (*m, c * lambda)));
        }
        Some(Poly::from_terms(terms))
    }

    /// Checks, with `Poly`/`Rat` arithmetic only, that this combination
    /// proves `⋀ premises ≥ 0 ⟹ conclusion ≥ 0`: every multiplier is
    /// positive, every index names a premise, and the sum equals the
    /// conclusion coefficient by coefficient — or equals `−1`, refuting the
    /// premises. Pass `−1` as the conclusion to accept only a refutation.
    pub fn certifies(&self, premises: &[Poly], conclusion: &Poly) -> bool {
        self.sum(premises).is_some_and(|sum| {
            sum == *conclusion || sum.as_constant().is_some_and(|c| c == Rat::from(-1))
        })
    }

    /// The one-term combination `c · 1` of a constant conclusion `c ≥ 0`
    /// (no term at all for `c = 0`).
    fn constant(c: Rat) -> Combination {
        let mut comb = Combination::new();
        if c.is_positive() {
            comb.push(&[], c);
        }
        comb
    }

    fn shrink_to_fit(&mut self) {
        self.factors.shrink_to_fit();
        self.terms.shrink_to_fit();
    }
}

/// The candidate products of the premises: the LP's columns, each with the
/// premise indices it multiplies.
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

/// Structural key of a multiplier LP for warm-start purposes.
///
/// The constraint *matrix* of the LP built by [`combination_witness`] is a
/// pure function of the product list (one column per product) and the
/// monomial row set — the conclusion only contributes the constant parts,
/// i.e. the right-hand sides. Hashing `(products, monomials)` therefore
/// groups exactly the LPs that share columns and differ in few rows, which
/// is what makes a stored basis worth re-factorizing: inside one Houdini
/// fixpoint iteration, every conclusion atom checked against the same
/// premise set lands on the same key.
fn structural_key(product_list: &[Poly], monomials: &[Monomial]) -> u64 {
    use std::hash::{Hash, Hasher};
    // The key material is a flat word stream — packed monomial keys and
    // small-tier rationals — so FNV's byte-fold loop beats SipHash's block
    // permutation here, and the workspace digests already standardize on it.
    let mut hasher = revterm_num::Fnv64::new();
    product_list.hash(&mut hasher);
    monomials.hash(&mut hasher);
    hasher.finish()
}

/// Searches for a non-negative combination of `products` equal to `target`
/// and returns its nonzero multipliers.
///
/// The LP has one row per monomial occurring anywhere and one non-negative
/// multiplier column per product; a row's nonzeros are exactly the products
/// containing that monomial. The revised engine receives it column by
/// column ([`farkas_columns`]); the dense oracle receives the same LP as
/// [`LpProblem`] rows ([`farkas_rows`]), so it checks the column builder
/// against the lowering it stands in for. With stored bases the revised
/// engine keys the LP by [`structural_key`] and warm-starts it from the last
/// optimal basis of its structural family.
fn combination_witness(
    products: &Products,
    target: &Poly,
    opts: &EntailmentOptions,
    lp_cache: Option<&mut BasisCache>,
) -> Option<Combination> {
    let product_list = &products.polys;
    // For every monomial occurring anywhere, the coefficients must match.
    // Monomials are Copy keys, so collecting the row set copies words.
    let mut monomials: Vec<Monomial> = target.terms().map(|(m, _)| *m).collect();
    for p in product_list {
        monomials.extend(p.terms().map(|(m, _)| *m));
    }
    monomials.sort_unstable();
    monomials.dedup();
    let values = match opts.lp_engine {
        LpEngine::Revised => {
            let form = farkas_columns(product_list, &monomials, target);
            let outcome = match lp_cache {
                Some(cache) => {
                    form.solve(None, Some(structural_key(product_list, &monomials)), cache)
                }
                None => form.solve(None, None, &mut BasisCache::new()),
            };
            match outcome {
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

/// The row of `m` in the sorted monomial row set.
fn row_of(monomials: &[Monomial], m: &Monomial) -> usize {
    monomials.binary_search(m).expect("row set covers every monomial")
}

/// The multiplier LP in the revised engine's column form, exactly as
/// [`LpProblem`]'s lowering would produce it from [`farkas_rows`]: one
/// column per product with its terms scattered into their monomials' rows,
/// every row whose right-hand side (the target's coefficient) is negative
/// negated, and no slack column (every row is an equality).
fn farkas_columns(product_list: &[Poly], monomials: &[Monomial], target: &Poly) -> ColumnForm {
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
    // A product's terms are sorted by monomial, so its rows arrive sorted.
    for p in product_list {
        form.push_column(p.flat_terms().iter().map(|(m, c)| {
            let i = row_of(monomials, m);
            (i as u32, if negated[i] { -c } else { c.clone() })
        }));
    }
    form
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
pub fn entails_with_witness(
    premises: &[Poly],
    conclusion: &Poly,
    opts: &EntailmentOptions,
) -> Option<Combination> {
    entails_with_witness_impl(premises, conclusion, opts, None)
}

/// [`entails_with_witness`] with optional stored bases for LP warm starts
/// (those of an [`EntailmentCache`]; certificate validation sticks to the
/// cache-free entry points so it stays independent of session state).
fn entails_with_witness_impl(
    premises: &[Poly],
    conclusion: &Poly,
    opts: &EntailmentOptions,
    mut lp_cache: Option<&mut BasisCache>,
) -> Option<Combination> {
    // Trivial case: the conclusion is a non-negative constant.
    if let Some(c) = conclusion.as_constant() {
        if !c.is_negative() {
            return Some(Combination::constant(c));
        }
    }
    let products = products(premises, opts);
    if let Some(witness) = combination_witness(&products, conclusion, opts, lp_cache.as_deref_mut())
    {
        return Some(witness);
    }
    // Unsat fallback: premises that are unsatisfiable over the reals entail
    // any conclusion. The refutation LP runs over the product list just built.
    negative_premise(premises)
        .or_else(|| combination_witness(&products, &Poly::constant_i64(-1), opts, lp_cache))
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
pub fn implies_false_with_witness(
    premises: &[Poly],
    opts: &EntailmentOptions,
) -> Option<Combination> {
    implies_false_impl(premises, opts, None)
}

/// [`implies_false_with_witness`] with optional stored bases for LP warm
/// starts. The `-1 ≥ 0` query shares its structural key with the
/// entailment queries over the same premise products (the conclusion only
/// shifts right-hand sides), so it warm-starts from their bases and vice
/// versa.
fn implies_false_impl(
    premises: &[Poly],
    opts: &EntailmentOptions,
    lp_cache: Option<&mut BasisCache>,
) -> Option<Combination> {
    negative_premise(premises).or_else(|| {
        combination_witness(&products(premises, opts), &Poly::constant_i64(-1), opts, lp_cache)
    })
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

/// Hashes the borrowed form of a query; agreement with the derived `Hash` of
/// [`EntailmentKey`] is not required (the hash only selects a bucket, the
/// owned keys inside are compared structurally).
fn query_hash(premises: &[Poly], conclusion: Option<&Poly>, opts: &EntailmentOptions) -> u64 {
    use std::hash::{Hash, Hasher};
    // Hashing a query walks each polynomial's flat term slice and folds
    // `(packed monomial word, small rational)` runs — no tree traversal, no
    // clones, no allocation on the packed tiers.
    let mut hasher = revterm_num::Fnv64::new();
    premises.hash(&mut hasher);
    conclusion.hash(&mut hasher);
    opts.hash(&mut hasher);
    hasher.finish()
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
        compute: impl FnOnce(&mut BasisCache) -> bool,
    ) -> bool {
        let EntailmentCache { map, bases, hits, lookups } = self;
        *lookups += 1;
        let bucket = map.entry(query_hash(premises, conclusion, opts)).or_default();
        if let Some((_, answer)) =
            bucket.iter().find(|(k, _)| k.matches(premises, conclusion, opts))
        {
            *hits += 1;
            return *answer;
        }
        let answer = compute(bases);
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
        self.lookup_or(premises, Some(conclusion), opts, |bases| {
            entails_with_witness_impl(premises, conclusion, opts, Some(bases)).is_some()
        })
    }

    /// Memoized [`implies_false`]; misses warm-start like
    /// [`EntailmentCache::entails`].
    pub fn implies_false(&mut self, premises: &Arc<[Poly]>, opts: &EntailmentOptions) -> bool {
        self.lookup_or(premises, None, opts, |bases| {
            implies_false_impl(premises, opts, Some(bases)).is_some()
        })
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
        use crate::SplitMix64;
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
        use crate::SplitMix64;
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
}
