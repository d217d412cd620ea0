//! Candidate atom pools for invariant templates.

use revterm_num::{Int, Rat};
use revterm_poly::{Poly, Var};
use revterm_ts::interp::Valuation;
use revterm_ts::{Loc, TransitionSystem};
use std::collections::BTreeMap;

/// Template parameters of the paper's Algorithm 1: the type `(c, d)` of the
/// propositional predicate maps and the maximal polynomial degree `D`.
///
/// In this reproduction the parameters bound the *richness of the candidate
/// atom pool* that the guess-and-check synthesis explores:
///
/// * `c = 1` — interval atoms (`±x − k ≥ 0`);
/// * `c ≥ 2` — adds octagon atoms (`±x ± y − k ≥ 0`);
/// * `c ≥ 3` — adds guard-derived atoms (the atoms of the transition guards
///   and their negation boundaries);
/// * `degree ≥ 2` — adds simple quadratic atoms (`±x² − k ≥ 0`, `x·y − k ≥ 0`).
///
/// `d` is the paper's bound on disjuncts per predicate. Synthesis here is
/// conjunctive: Houdini returns one conjunction per location whatever `d`
/// says, so `d` shapes no pool and no result. It names the configuration
/// (its label) and is what a sweep report filters on
/// (`SweepReport::proved_within` in the core crate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TemplateParams {
    /// Maximal number of conjuncts per disjunct (richness of the atom pool).
    pub c: usize,
    /// The paper's maximal number of disjuncts; synthesis never reads it
    /// (see the type docs).
    pub d: usize,
    /// Maximal polynomial degree of a template atom.
    pub degree: u32,
}

impl Default for TemplateParams {
    fn default() -> Self {
        TemplateParams { c: 2, d: 1, degree: 1 }
    }
}

impl TemplateParams {
    /// Creates template parameters.
    pub fn new(c: usize, d: usize, degree: u32) -> TemplateParams {
        TemplateParams { c, d, degree }
    }
}

/// Sample valuations per location, used to pre-filter candidate atoms: any
/// valuation known (by concrete execution) to be contained in the set the
/// invariant must over-approximate immediately falsifies candidate atoms it
/// violates.
#[derive(Debug, Clone, Default)]
pub struct SampleSet {
    samples: BTreeMap<Loc, Vec<Valuation>>,
}

impl SampleSet {
    /// Creates an empty sample set.
    pub fn new() -> SampleSet {
        SampleSet::default()
    }

    /// Adds a sample valuation at a location.
    pub fn add(&mut self, loc: Loc, vals: Valuation) {
        self.samples.entry(loc).or_default().push(vals);
    }

    /// The samples recorded at a location.
    pub fn at(&self, loc: Loc) -> &[Valuation] {
        self.samples.get(&loc).map_or(&[], |v| v.as_slice())
    }

    /// Total number of samples.
    pub fn len(&self) -> usize {
        self.samples.values().map(|v| v.len()).sum()
    }

    /// Returns `true` iff no samples are recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Locations with at least one sample.
    pub fn locations(&self) -> impl Iterator<Item = Loc> + '_ {
        self.samples.keys().copied()
    }
}

/// Collects the integer constants appearing in the transition relations and
/// the initial assertion of a system (absolute constant terms of the atoms),
/// always including `-1`, `0` and `1`, each also offset by `±1`.
///
/// These are the thresholds the candidate atoms compare against — the same
/// role the template-coefficient search space plays in the paper's encoding.
pub fn collect_constants(ts: &TransitionSystem) -> Vec<Int> {
    let mut constants: Vec<Int> = vec![Int::from(-1_i64), Int::zero(), Int::one()];
    let mut push_poly = |p: &Poly| {
        let c = p.constant_term();
        if c.is_integer() {
            constants.push(c.to_int().expect("integral constant"));
        }
        // Also use the negated constant (guards are usually written as
        // x - k >= 0, so the interesting threshold is k = -constant term).
        let neg = -c;
        if neg.is_integer() {
            constants.push(neg.to_int().expect("integral constant"));
        }
    };
    for t in ts.transitions() {
        for atom in t.relation.atoms() {
            push_poly(atom);
        }
    }
    for atom in ts.init_assertion().atoms() {
        push_poly(atom);
    }
    let mut with_offsets = Vec::new();
    for c in &constants {
        with_offsets.push(c.clone());
        with_offsets.push(c + Int::one());
        with_offsets.push(c - Int::one());
    }
    with_offsets.sort();
    with_offsets.dedup();
    with_offsets
}

/// The polynomial "shapes" (left-hand sides without thresholds) explored for
/// the given parameters, over the unprimed program variables.
fn shapes(ts: &TransitionSystem, params: &TemplateParams) -> Vec<Poly> {
    let n = ts.vars().len();
    let mut shapes = Vec::new();
    for i in 0..n {
        let x = Poly::var(ts.vars().unprimed(i));
        shapes.push(x.clone());
        shapes.push(-x.clone());
        if params.degree >= 2 {
            shapes.push(&x * &x);
            shapes.push(-(&x * &x));
        }
    }
    if params.c >= 2 {
        for i in 0..n {
            for j in (i + 1)..n {
                let x = Poly::var(ts.vars().unprimed(i));
                let y = Poly::var(ts.vars().unprimed(j));
                shapes.push(&x + &y);
                shapes.push(&x - &y);
                shapes.push(&y - &x);
                shapes.push(-(&x + &y));
                if params.degree >= 2 {
                    shapes.push(&x * &y);
                    shapes.push(-(&x * &y));
                }
            }
        }
    }
    if params.c >= 4 && params.degree >= 2 {
        // A few richer quadratic shapes: x^2 - y, y - x^2.
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                let x = Poly::var(ts.vars().unprimed(i));
                let y = Poly::var(ts.vars().unprimed(j));
                shapes.push(&(&x * &x) - &y);
                shapes.push(&y - &(&x * &x));
            }
        }
    }
    shapes
}

/// Guard-derived atoms: every atom of every transition relation that ranges
/// over unprimed variables only (these capture the "loop condition" facts
/// that the paper's templates routinely rediscover).
fn guard_atoms(ts: &TransitionSystem) -> Vec<Poly> {
    let mut out = Vec::new();
    for t in ts.transitions() {
        for atom in t.relation.atoms() {
            if atom.vars().iter().all(|v| ts.vars().is_unprimed(*v)) && !atom.is_constant() {
                out.push(atom.clone());
            }
        }
    }
    out.sort_by(|a, b| a.flat_terms().cmp(b.flat_terms()));
    out.dedup();
    out
}

/// Memoized per-system template artifacts: the program constants, the
/// guard-derived atoms and the shape lists per template parameters.
///
/// These three ingredients of [`candidate_atoms`] depend only on the
/// transition system (and, for shapes, on the template parameters) — not on
/// the sample sets — so one cache serves every location and every synthesis
/// call on its system.  A `PoolCache` is valid for exactly **one**
/// transition system; the session-centric prover API keeps one per cached
/// restricted/reversed system.
#[derive(Debug, Clone, Default)]
pub struct PoolCache {
    /// The program constants as thresholds, sorted and deduplicated.
    constants: Option<Vec<Rat>>,
    guard_atoms: Option<Vec<Poly>>,
    /// Shape lists keyed by the `(c, degree)` components that determine them.
    shapes: Vec<((usize, u32), Vec<Poly>)>,
    /// Number of `prepare` calls answered entirely from the cache.
    pub hits: u64,
    /// Total number of `prepare` calls.
    pub lookups: u64,
}

impl PoolCache {
    /// Creates an empty cache.
    pub fn new() -> PoolCache {
        PoolCache::default()
    }

    /// Ensures constants, guard atoms and the shape list for `params` are
    /// computed, counting a hit when everything was already present.
    fn prepare(&mut self, ts: &TransitionSystem, params: &TemplateParams) {
        self.lookups += 1;
        let shape_key = (params.c, params.degree);
        let have_shapes = self.shapes.iter().any(|(k, _)| *k == shape_key);
        if self.constants.is_some() && self.guard_atoms.is_some() && have_shapes {
            self.hits += 1;
            return;
        }
        if self.constants.is_none() {
            self.constants = Some(collect_constants(ts).into_iter().map(Rat::from).collect());
        }
        if self.guard_atoms.is_none() {
            self.guard_atoms = Some(guard_atoms(ts));
        }
        if !have_shapes {
            self.shapes.push((shape_key, shapes(ts, params)));
        }
    }

    fn shapes_for(&self, params: &TemplateParams) -> &[Poly] {
        let shape_key = (params.c, params.degree);
        self.shapes
            .iter()
            .find(|(k, _)| *k == shape_key)
            .map(|(_, s)| s.as_slice())
            .expect("prepare fills the shape list")
    }
}

/// A location's samples as one row of `i64` words per sample, built only
/// when every value of every sample is inline.
struct SampleWords {
    width: usize,
    words: Vec<i64>,
}

impl SampleWords {
    fn new(samples: &[Valuation]) -> Option<SampleWords> {
        let width = samples.first()?.len();
        if width == 0 {
            return None;
        }
        let mut words = Vec::with_capacity(width * samples.len());
        for v in samples {
            if v.len() != width {
                return None;
            }
            for x in &v.0 {
                words.push(x.to_i64()?);
            }
        }
        Some(SampleWords { width, words })
    }

    /// The minimum of `poly` over the rows, summed in checked `i128`.
    /// `None` unless `poly` is linear with inline integer coefficients over
    /// variables the rows cover and no sum overflows.
    fn min_of(&self, poly: &Poly) -> Option<Rat> {
        let mut constant = 0_i64;
        let mut terms: Vec<(usize, i64)> = Vec::with_capacity(poly.num_terms());
        for (m, c) in poly.flat_terms() {
            let (num, 1) = c.packed_parts()? else { return None };
            if m.is_one() {
                constant = num;
                continue;
            }
            let mut factors = m.iter();
            let (v, e) = factors.next()?;
            if e != 1 || factors.next().is_some() || v.index() >= self.width {
                return None;
            }
            terms.push((v.index(), num));
        }
        let mut min: Option<i128> = None;
        for row in self.words.chunks_exact(self.width) {
            let mut sum = i128::from(constant);
            for &(j, a) in &terms {
                // |a·x| ≤ 2^126, so only the additions can overflow.
                sum = sum.checked_add(i128::from(a) * i128::from(row[j]))?;
            }
            min = Some(min.map_or(sum, |m| m.min(sum)));
        }
        min.map(|m| Rat::from(Int::from(m)))
    }
}

/// The minimum of `poly` over `samples` (`None` when there are none): in
/// machine words when `words` can take it, else exactly in `Rat`.
fn sample_min(poly: &Poly, samples: &[Valuation], words: Option<&SampleWords>) -> Option<Rat> {
    if let Some(m) = words.and_then(|w| w.min_of(poly)) {
        return Some(m);
    }
    samples.iter().map(|v| poly.eval_at_int_point(&|var: Var| v.get(var.index()).clone())).min()
}

/// Generates the candidate atom pool for a location, with the per-system
/// artifacts served from a [`PoolCache`] (which must belong to `ts`, see its
/// docs; a fresh one gives the same pool).
///
/// Every returned polynomial `p` is a candidate conjunct `p ≥ 0` that is
/// consistent with all sample valuations recorded for the location.  The pool
/// size is bounded by the template parameters; with no samples at a location
/// the thresholds come from the program constants alone.  Every candidate is
/// non-constant and ranges over unprimed variables only.
///
/// Each shape's threshold is its minimum over the location's samples.  When
/// every sample value fits an `i64`, the samples become one word matrix per
/// call and a linear integer-coefficient shape takes its minimum in checked
/// `i128` sums; any other shape, sample or overflowing sum is evaluated
/// exactly with [`Poly::eval_at_int_point`].  Both give the same `Rat`.
pub fn candidate_atoms(
    ts: &TransitionSystem,
    loc: Loc,
    samples: &SampleSet,
    params: &TemplateParams,
    cache: &mut PoolCache,
) -> Vec<Poly> {
    cache.prepare(ts, params);
    let constants = cache.constants.as_deref().expect("prepare fills constants");
    let locals = samples.at(loc);
    let words = SampleWords::new(locals);
    let mut pool = Vec::new();
    for shape in cache.shapes_for(params) {
        // Tightest threshold consistent with the samples: k = min over samples
        // of shape(sample); candidate atom is shape - k >= 0.  The consistent
        // thresholds are the constants below that minimum and the minimum
        // itself, capped at a dozen per shape (tightest first) to bound the
        // pool size on constant-heavy programs.
        const MAX_THRESHOLDS_PER_SHAPE: usize = 12;
        let min = sample_min(shape, locals, words.as_ref());
        let below = match &min {
            Some(m) => &constants[..constants.partition_point(|k| k < m)],
            None => constants,
        };
        let count = below.len() + usize::from(min.is_some());
        let skip = count.saturating_sub(MAX_THRESHOLDS_PER_SHAPE);
        for k in below.iter().chain(&min).skip(skip) {
            pool.push(shape - &Poly::constant(k.clone()));
        }
    }
    if params.c >= 3 {
        for atom in cache.guard_atoms.as_deref().expect("prepare fills guard atoms") {
            if sample_min(atom, locals, words.as_ref()).is_none_or(|m| !m.is_negative()) {
                pool.push(atom.clone());
            }
        }
    }
    // Deterministic order on the flat term slices: comparing packed monomial
    // words and coefficients directly, instead of rendering every polynomial
    // to a string, keeps the pool canonical without any allocation.
    pool.sort_by(|a, b| a.flat_terms().cmp(b.flat_terms()));
    pool.dedup();
    pool
}

#[cfg(test)]
mod tests {
    use super::*;
    use revterm_lang::parse_program;
    use revterm_num::int;
    use revterm_solver::SplitMix64;
    use revterm_ts::lower;

    const RUNNING: &str =
        "while x >= 9 do x := ndet(); y := 10 * x; while x <= y do x := x + 1; od od";

    fn running_ts() -> TransitionSystem {
        lower(&parse_program(RUNNING).unwrap()).unwrap()
    }

    /// [`candidate_atoms`] on a fresh cache.
    fn fresh_pool(
        ts: &TransitionSystem,
        loc: Loc,
        samples: &SampleSet,
        params: &TemplateParams,
    ) -> Vec<Poly> {
        candidate_atoms(ts, loc, samples, params, &mut PoolCache::new())
    }

    #[test]
    fn constants_include_guard_thresholds() {
        let ts = running_ts();
        let cs = collect_constants(&ts);
        // The guard x >= 9 contributes 9 (and 8, 10 via offsets).
        assert!(cs.contains(&int(9)));
        assert!(cs.contains(&int(8)));
        assert!(cs.contains(&int(10)));
        assert!(cs.contains(&int(0)));
        // Sorted and deduplicated.
        let mut sorted = cs.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(cs, sorted);
    }

    #[test]
    fn sample_sets() {
        let mut s = SampleSet::new();
        assert!(s.is_empty());
        s.add(Loc(1), Valuation::from_i64s(&[9, 0]));
        s.add(Loc(1), Valuation::from_i64s(&[10, 90]));
        s.add(Loc(2), Valuation::from_i64s(&[3, 3]));
        assert_eq!(s.len(), 3);
        assert_eq!(s.at(Loc(1)).len(), 2);
        assert_eq!(s.at(Loc(5)).len(), 0);
        assert_eq!(s.locations().count(), 2);
    }

    #[test]
    fn candidate_atoms_respect_samples() {
        let ts = running_ts();
        let mut samples = SampleSet::new();
        samples.add(ts.init_loc(), Valuation::from_i64s(&[9, 0]));
        samples.add(ts.init_loc(), Valuation::from_i64s(&[12, 120]));
        let pool = fresh_pool(&ts, ts.init_loc(), &samples, &TemplateParams::new(2, 1, 1));
        assert!(!pool.is_empty());
        // Every candidate atom is satisfied by every sample.
        for atom in &pool {
            for v in samples.at(ts.init_loc()) {
                assert!(
                    !atom.eval(&|var: Var| Rat::from(v.get(var.index()).clone())).is_negative(),
                    "atom {atom} violated by sample {v}"
                );
            }
        }
        // The pool contains the key fact x >= 9 (i.e. the atom x - 9).
        let x_minus_9 = Poly::var(ts.vars().unprimed(0)) - Poly::constant_i64(9);
        assert!(pool.contains(&x_minus_9));
        // But not x >= 10, which the sample x = 9 falsifies.
        let x_minus_10 = Poly::var(ts.vars().unprimed(0)) - Poly::constant_i64(10);
        assert!(!pool.contains(&x_minus_10));
    }

    #[test]
    fn cached_pools_match_uncached_pools() {
        let ts = running_ts();
        let mut samples = SampleSet::new();
        samples.add(ts.init_loc(), Valuation::from_i64s(&[9, 0]));
        let mut cache = PoolCache::new();
        for params in [TemplateParams::new(1, 1, 1), TemplateParams::new(3, 2, 2)] {
            for loc in ts.locations() {
                let fresh = fresh_pool(&ts, loc, &samples, &params);
                let cached = candidate_atoms(&ts, loc, &samples, &params, &mut cache);
                assert_eq!(fresh, cached, "pool mismatch at {loc:?} with {params:?}");
            }
        }
        // Every location after the first (per params) is served from the cache.
        assert!(cache.hits >= cache.lookups - 2, "hits {} lookups {}", cache.hits, cache.lookups);
    }

    /// The pool generator as it was before sample minima moved to machine
    /// words: every shape evaluated at every sample in exact `Rat`.
    fn exact_pool(
        ts: &TransitionSystem,
        loc: Loc,
        samples: &SampleSet,
        params: &TemplateParams,
    ) -> Vec<Poly> {
        let constants = collect_constants(ts);
        let locals = samples.at(loc);
        let eval =
            |p: &Poly, v: &Valuation| p.eval_at_int_point(&|var: Var| v.get(var.index()).clone());
        let mut pool = Vec::new();
        for shape in shapes(ts, params) {
            let sample_min: Option<Rat> = locals.iter().map(|v| eval(&shape, v)).min();
            let mut thresholds: Vec<Rat> = constants.iter().map(|c| Rat::from(c.clone())).collect();
            if let Some(m) = &sample_min {
                thresholds.push(m.clone());
            }
            thresholds.sort();
            thresholds.dedup();
            let consistent: Vec<Rat> = thresholds
                .into_iter()
                .filter(|k| sample_min.as_ref().is_none_or(|m| k <= m))
                .collect();
            let start = consistent.len().saturating_sub(12);
            for k in &consistent[start..] {
                pool.push(&shape - &Poly::constant(k.clone()));
            }
        }
        if params.c >= 3 {
            for atom in guard_atoms(ts) {
                if locals.iter().all(|v| !eval(&atom, v).is_negative()) {
                    pool.push(atom);
                }
            }
        }
        pool.sort_by(|a, b| a.flat_terms().cmp(b.flat_terms()));
        pool.dedup();
        pool
    }

    #[test]
    fn word_minima_reproduce_exact_pools() {
        // Values at and past both ends of `i64`: sums of two of them leave
        // `i64` (the `i128` path must carry them), and a value past the end is
        // a non-inline `Int` (the whole location falls back to `Rat`).
        let extremes: Vec<Int> = vec![
            Int::from(i64::MAX),
            Int::from(-i64::MAX),
            Int::from(i64::MIN),
            Int::from(i128::from(i64::MAX) + 1),
            Int::from(i128::from(i64::MIN) - 7),
        ];
        let sources = [
            RUNNING,
            "while x + y >= 3 and z <= 40 do \
               if x <= y then x := x + 2 * z; else y := y - x; z := z + 1; fi \
             od",
        ];
        let mut rng = SplitMix64::new(0x5a3c_11e5);
        let (mut wide_sums, mut fallbacks, mut locations) = (0, 0, 0);
        for source in sources {
            let ts = lower(&parse_program(source).unwrap()).unwrap();
            let n = ts.vars().len();
            for _ in 0..150 {
                let mut samples = SampleSet::new();
                for loc in ts.locations() {
                    for _ in 0..rng.next_below(5) {
                        let vals = (0..n)
                            .map(|_| match rng.next_below(3) {
                                0 => {
                                    extremes[rng.next_below(extremes.len() as u64) as usize].clone()
                                }
                                _ => Int::from(rng.next_in_range(-30, 30)),
                            })
                            .collect();
                        samples.add(loc, Valuation(vals));
                    }
                }
                let c = 1 + rng.next_below(4) as usize;
                let params = TemplateParams::new(c, 1, 1 + rng.next_below(2) as u32);
                let mut cache = PoolCache::new();
                for loc in ts.locations() {
                    let locals = samples.at(loc);
                    match SampleWords::new(locals) {
                        Some(w) => {
                            let wide = |row: &[i64]| {
                                i64::try_from(i128::from(row[0]) + i128::from(row[1])).is_err()
                            };
                            if w.words.chunks_exact(w.width).any(wide) {
                                wide_sums += 1;
                            }
                        }
                        None if !locals.is_empty() => fallbacks += 1,
                        None => {}
                    }
                    locations += 1;
                    assert_eq!(
                        candidate_atoms(&ts, loc, &samples, &params, &mut cache),
                        exact_pool(&ts, loc, &samples, &params),
                        "pool mismatch at {loc:?} with {params:?} and samples {locals:?}"
                    );
                }
            }
        }
        assert!(
            wide_sums > 0 && fallbacks > 0,
            "{wide_sums} wide-sum and {fallbacks} fallback locations of {locations}"
        );
    }

    #[test]
    fn richer_parameters_grow_the_pool() {
        let ts = running_ts();
        let samples = SampleSet::new();
        let small = fresh_pool(&ts, ts.init_loc(), &samples, &TemplateParams::new(1, 1, 1));
        let medium = fresh_pool(&ts, ts.init_loc(), &samples, &TemplateParams::new(2, 1, 1));
        let large = fresh_pool(&ts, ts.init_loc(), &samples, &TemplateParams::new(3, 2, 2));
        assert!(small.len() < medium.len());
        assert!(medium.len() < large.len());
        // c = 1 only produces single-variable atoms.
        assert!(small.iter().all(|p| p.vars().len() <= 1));
        // c >= 2 produces two-variable (octagon) atoms.
        assert!(medium.iter().any(|p| p.vars().len() == 2));
        // degree 2 produces quadratic atoms.
        assert!(large.iter().any(|p| p.total_degree() == 2));
        assert!(medium.iter().all(|p| p.total_degree() <= 1));
    }
}
