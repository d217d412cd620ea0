//! Seeded random program generation with known-by-construction labels.
//!
//! # Generator grammar
//!
//! Programs are drawn from three families, chosen by [`GenConfig::family_weights`]:
//!
//! * **Terminating by construction** — every loop is *counter-ranked*: a
//!   dedicated fresh counter `kN` is initialised to a non-negative constant
//!   before the loop, the guard requires `kN >= 0` (optionally strengthened
//!   with an extra conjunct, never weakened), and the body decrements the
//!   counter by a positive constant exactly once.  Filler statements write
//!   only the pool variables `v0..`, never a counter, and nested loops rank
//!   their own fresh counters — so the counter is a syntactic ranking
//!   function and the whole program terminates on every input.  The family
//!   contains no `assume` (irrelevant for the label; it keeps the family
//!   reusable as the never-blocking prefix/filler of the next one).
//! * **Non-terminating by construction** — a lasso: a prefix of ranked
//!   statements (surely terminating, never blocking), then one of three
//!   *pump* shapes over dedicated fresh variables that filler never writes:
//!   `pump-monotone` (`w := c; while w >= c - d do w := w + i; … od` with
//!   `d, i >= 0` — the guard value never decreases), `pump-equality`
//!   (`w := c; while w == c do … od` — `w` is frozen), and `pump-aperiodic`
//!   (the paper's Fig. 3 shape `while w >= 1 do y := m*w; while w <= y do
//!   w := w + 1; od od` with `m >= 2` — every diverging run is aperiodic,
//!   which defeats periodic-lasso searches).  Pump bodies terminate and
//!   never block, so the divergent run exists.
//! * **Unknown** — unrestricted statements (including `assume` and loops
//!   with arbitrary guards); no label is claimed.
//!
//! Shape knobs ([`GenConfig`]): variable-pool size, nesting depth, block
//! width, non-determinism bias, guard degree, constant range.
//!
//! Generation is deterministic: the same `(seed, config)` produces the same
//! [`GeneratedProgram`] on every machine (the only entropy source is
//! [`SplitMix64`]).  Generated programs are *canonical*: a maximal leading
//! run of assignments sits in the [`Program::preamble`] exactly as the
//! parser would place it, and negated constants are folded (`Const(-3)`,
//! never `Neg(Const(3))`) — therefore `parse_program(pretty_print(p)) == p` holds
//! structurally, which the round-trip property test relies on.

use revterm_lang::{BinOp, BoolExpr, CmpOp, Expr, Program, Stmt};
use revterm_num::SplitMix64;
use std::fmt;

/// The by-construction label attached to a generated program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KnownLabel {
    /// Every run terminates (all loops are counter-ranked).
    Terminating,
    /// At least one infinite run exists (lasso-shaped divergence).
    NonTerminating,
    /// Nothing is claimed.
    Unknown,
}

impl fmt::Display for KnownLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KnownLabel::Terminating => write!(f, "terminating"),
            KnownLabel::NonTerminating => write!(f, "non-terminating"),
            KnownLabel::Unknown => write!(f, "unknown"),
        }
    }
}

impl KnownLabel {
    /// Parses the textual form produced by `Display` (used by repro files).
    pub fn parse(s: &str) -> Option<KnownLabel> {
        match s {
            "terminating" => Some(KnownLabel::Terminating),
            "non-terminating" => Some(KnownLabel::NonTerminating),
            "unknown" => Some(KnownLabel::Unknown),
            _ => None,
        }
    }
}

/// Shape knobs for the generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenConfig {
    /// Size of the filler variable pool (`v0..v{n-1}`).
    pub num_vars: usize,
    /// Maximal loop/branch nesting depth.
    pub max_depth: usize,
    /// Maximal number of statements per generated block (branching width).
    pub max_block_stmts: usize,
    /// Percentage (0–100) of filler assignments that are non-deterministic.
    pub ndet_percent: u32,
    /// Maximal polynomial degree of generated guards (1 = linear).
    pub guard_degree: u32,
    /// Constants are drawn from `[-max_const, max_const]`.
    pub max_const: i64,
    /// Relative weights of the (terminating, non-terminating, unknown)
    /// families; must not all be zero.
    pub family_weights: (u32, u32, u32),
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            num_vars: 3,
            max_depth: 2,
            max_block_stmts: 3,
            ndet_percent: 25,
            guard_degree: 1,
            max_const: 8,
            family_weights: (2, 2, 1),
        }
    }
}

/// A generated program together with its provenance and label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeneratedProgram {
    /// The seed that produced the program (with the config, full provenance).
    pub seed: u64,
    /// The by-construction label.
    pub label: KnownLabel,
    /// The family / pump shape, e.g. `"ranked"` or `"pump-aperiodic"`.
    pub family: &'static str,
    /// The program in canonical form (see module docs).
    pub program: Program,
    /// `pretty_print(&program)` — what a repro file stores.
    pub source: String,
}

/// Generates one program from a seed.
pub fn generate(seed: u64, cfg: &GenConfig) -> GeneratedProgram {
    let mut gen = Gen { rng: SplitMix64::new(seed), cfg, next_counter: 0, next_pump: 0 };
    let (wt, wn, wu) = cfg.family_weights;
    let total = wt + wn + wu;
    assert!(total > 0, "family weights must not all be zero");
    let roll = gen.rng.next_below(u64::from(total)) as u32;
    // Initialise every pool variable with a constant first.  The parser
    // hoists the maximal leading assignment run into the preamble, and the
    // lowering rejects preambles with forward references — seeding all pool
    // variables up front keeps any hoisted prefix dependency-clean.
    let mut init: Vec<Stmt> = (0..cfg.num_vars)
        .map(|i| {
            let c = gen.constant();
            Stmt::Assign(format!("v{i}"), c)
        })
        .collect();
    let (label, family, body) = if roll < wt {
        let width = gen.top_width();
        let body = gen.ranked_block(0, width);
        (KnownLabel::Terminating, "ranked", body)
    } else if roll < wt + wn {
        let (family, body) = gen.nonterminating_body();
        (KnownLabel::NonTerminating, family, body)
    } else {
        let width = gen.top_width();
        let body = gen.any_block(0, width);
        (KnownLabel::Unknown, "free", body)
    };
    init.extend(body);
    let program = canonicalize(Program::new(init));
    let source = revterm_lang::pretty_print(&program);
    GeneratedProgram { seed, label, family, program, source }
}

/// Generates a batch of programs with per-index seeds drawn from a master
/// seed (so one u64 names the whole stream).
pub fn generate_batch(master_seed: u64, count: usize, cfg: &GenConfig) -> Vec<GeneratedProgram> {
    let mut master = SplitMix64::new(master_seed);
    (0..count).map(|_| generate(master.next_u64(), cfg)).collect()
}

/// Puts a program into the parser's canonical form: a maximal leading run of
/// deterministic assignments moves from the body into the preamble (exactly
/// the split [`revterm_lang::parse_program`] performs).
pub fn canonicalize(mut program: Program) -> Program {
    let body = std::mem::take(&mut program.body);
    let mut rest = Vec::with_capacity(body.len());
    let mut in_prefix = true;
    for stmt in body {
        match stmt {
            Stmt::Assign(x, e) if in_prefix => program.preamble.push((x, e)),
            other => {
                in_prefix = false;
                rest.push(other);
            }
        }
    }
    program.body = rest;
    program
}

struct Gen<'a> {
    rng: SplitMix64,
    cfg: &'a GenConfig,
    /// Fresh ranked-loop counters `k0, k1, …` (disjoint from the filler pool).
    next_counter: usize,
    /// Fresh pump variables `w0, y0, w1, …` (disjoint from everything else).
    next_pump: usize,
}

impl Gen<'_> {
    fn top_width(&mut self) -> usize {
        1 + self.rng.next_below(self.cfg.max_block_stmts.max(1) as u64) as usize
    }

    fn pool_var(&mut self) -> Expr {
        let i = self.rng.next_below(self.cfg.num_vars.max(1) as u64);
        Expr::var(&format!("v{i}"))
    }

    fn pool_name(&mut self) -> String {
        let i = self.rng.next_below(self.cfg.num_vars.max(1) as u64);
        format!("v{i}")
    }

    fn constant(&mut self) -> Expr {
        Expr::int(self.rng.next_in_range(-self.cfg.max_const, self.cfg.max_const))
    }

    fn percent(&mut self, p: u32) -> bool {
        self.rng.next_below(100) < u64::from(p)
    }

    // expressions -----------------------------------------------------------

    fn leaf(&mut self) -> Expr {
        if self.rng.next_below(2) == 0 {
            self.pool_var()
        } else {
            self.constant()
        }
    }

    /// A random arithmetic expression over the filler pool.  `fuel` bounds
    /// the size, `degree` the polynomial degree.  Negated constants are
    /// folded so the result round-trips through the printer.
    fn expr(&mut self, fuel: u32, degree: u32) -> Expr {
        if fuel == 0 {
            return self.leaf();
        }
        match self.rng.next_below(8) {
            0..=2 => self.leaf(),
            3 | 4 => Expr::Bin(
                BinOp::Add,
                Box::new(self.expr(fuel - 1, degree)),
                Box::new(self.expr(fuel - 1, degree)),
            ),
            5 => Expr::Bin(
                BinOp::Sub,
                Box::new(self.expr(fuel - 1, degree)),
                Box::new(self.expr(fuel - 1, degree)),
            ),
            6 => {
                if degree >= 2 && self.rng.next_below(2) == 0 {
                    Expr::Bin(
                        BinOp::Mul,
                        Box::new(self.pool_var()),
                        Box::new(self.expr(fuel - 1, degree - 1)),
                    )
                } else {
                    // A constant factor keeps the degree unchanged.
                    let c = self.rng.next_in_range(1, self.cfg.max_const.max(1));
                    Expr::Bin(BinOp::Mul, Box::new(Expr::int(c)), Box::new(self.pool_var()))
                }
            }
            _ => match self.expr(fuel - 1, degree) {
                // Fold `-c` so printing and re-parsing is the identity.
                Expr::Const(v) => Expr::Const(-v),
                inner => Expr::Neg(Box::new(inner)),
            },
        }
    }

    /// A random comparison atom over the filler pool.
    fn cmp_atom(&mut self) -> BoolExpr {
        let ops = [CmpOp::Le, CmpOp::Lt, CmpOp::Ge, CmpOp::Gt, CmpOp::Eq, CmpOp::Ne];
        let op = ops[self.rng.next_below(ops.len() as u64) as usize];
        let lhs = self.expr(1, self.cfg.guard_degree);
        let rhs = if self.rng.next_below(2) == 0 { self.constant() } else { self.expr(1, 1) };
        BoolExpr::cmp(op, lhs, rhs)
    }

    /// A random guard (no `*`; that is only legal as an entire `if` guard).
    fn guard(&mut self, fuel: u32) -> BoolExpr {
        if fuel == 0 {
            return self.cmp_atom();
        }
        match self.rng.next_below(8) {
            0..=3 => self.cmp_atom(),
            4 => BoolExpr::And(Box::new(self.guard(fuel - 1)), Box::new(self.guard(fuel - 1))),
            5 => BoolExpr::Or(Box::new(self.guard(fuel - 1)), Box::new(self.guard(fuel - 1))),
            6 => BoolExpr::Not(Box::new(self.guard(fuel - 1))),
            _ => {
                if self.rng.next_below(8) == 0 {
                    BoolExpr::True
                } else {
                    self.cmp_atom()
                }
            }
        }
    }

    // terminating-by-construction statements --------------------------------

    /// A block of ranked statements (always terminates, never blocks).
    fn ranked_block(&mut self, depth: usize, width: usize) -> Vec<Stmt> {
        let mut out = Vec::new();
        for _ in 0..width.max(1) {
            self.push_ranked_stmt(depth, &mut out);
        }
        if out.is_empty() {
            out.push(Stmt::Skip);
        }
        out
    }

    fn push_ranked_stmt(&mut self, depth: usize, out: &mut Vec<Stmt>) {
        let can_loop = depth < self.cfg.max_depth;
        match self.rng.next_below(10) {
            0..=3 => {
                if self.percent(self.cfg.ndet_percent) {
                    out.push(Stmt::NdetAssign(self.pool_name()));
                } else {
                    let x = self.pool_name();
                    let e = self.expr(2, 1);
                    out.push(Stmt::Assign(x, e));
                }
            }
            4 => out.push(Stmt::Skip),
            5 | 6 => {
                // Branch: `*` or a guard; both arms ranked.
                let cond = if self.percent(self.cfg.ndet_percent) {
                    BoolExpr::Nondet
                } else {
                    self.guard(1)
                };
                let then_w = 1 + self.rng.next_below(2) as usize;
                let else_w = self.rng.next_below(2) as usize;
                let then_b = self.ranked_block(depth + 1, then_w);
                let else_b =
                    if else_w == 0 { Vec::new() } else { self.ranked_block(depth + 1, else_w) };
                out.push(Stmt::If(cond, then_b, else_b));
            }
            _ if can_loop => self.push_ranked_loop(depth, out),
            _ => {
                let x = self.pool_name();
                let e = self.expr(1, 1);
                out.push(Stmt::Assign(x, e));
            }
        }
    }

    /// Emits `k := start; while k >= 0 [and extra] do … k := k - dec; … od`
    /// with a fresh counter `k` that nothing else writes.
    fn push_ranked_loop(&mut self, depth: usize, out: &mut Vec<Stmt>) {
        let k = format!("k{}", self.next_counter);
        self.next_counter += 1;
        let start = self.rng.next_in_range(0, self.cfg.max_const.max(1));
        let dec = self.rng.next_in_range(1, 3);
        out.push(Stmt::Assign(k.clone(), Expr::int(start)));
        let width = 1 + self.rng.next_below(self.cfg.max_block_stmts.max(1) as u64) as usize;
        let mut body = self.ranked_block(depth + 1, width);
        let pos = self.rng.next_below(body.len() as u64 + 1) as usize;
        body.insert(
            pos,
            Stmt::Assign(
                k.clone(),
                Expr::Bin(BinOp::Sub, Box::new(Expr::var(&k)), Box::new(Expr::int(dec))),
            ),
        );
        let mut guard = BoolExpr::cmp(CmpOp::Ge, Expr::var(&k), Expr::int(0));
        if self.rng.next_below(3) == 0 {
            // Strengthening only: a conjunct can cut iterations short, never
            // extend them, so the ranking argument is untouched.
            guard = BoolExpr::And(Box::new(guard), Box::new(self.cmp_atom()));
        }
        out.push(Stmt::While(guard, body));
    }

    // non-terminating-by-construction bodies ---------------------------------

    fn nonterminating_body(&mut self) -> (&'static str, Vec<Stmt>) {
        let mut body = Vec::new();
        // A surely-reached prefix: ranked statements terminate and never
        // block, so control always arrives at the pump.
        let prefix = self.rng.next_below(3) as usize;
        for _ in 0..prefix {
            self.push_ranked_stmt(0, &mut body);
        }
        let w = format!("w{}", self.next_pump);
        let family = match self.rng.next_below(3) {
            0 => {
                // `w := c; while w >= c - d do w := w + i; … od`, d, i >= 0:
                // the guard holds initially and w never decreases.
                let c = self.rng.next_in_range(-self.cfg.max_const, self.cfg.max_const);
                let drop = self.rng.next_in_range(0, 3);
                let inc = self.rng.next_in_range(0, 3);
                body.push(Stmt::Assign(w.clone(), Expr::int(c)));
                let mut pump = self.pump_filler();
                let pos = self.rng.next_below(pump.len() as u64 + 1) as usize;
                pump.insert(
                    pos,
                    Stmt::Assign(
                        w.clone(),
                        Expr::Bin(BinOp::Add, Box::new(Expr::var(&w)), Box::new(Expr::int(inc))),
                    ),
                );
                body.push(Stmt::While(
                    BoolExpr::cmp(CmpOp::Ge, Expr::var(&w), Expr::int(c - drop)),
                    pump,
                ));
                "pump-monotone"
            }
            1 => {
                // `w := c; while w == c do … od` with w frozen in the body.
                let c = self.rng.next_in_range(-self.cfg.max_const, self.cfg.max_const);
                body.push(Stmt::Assign(w.clone(), Expr::int(c)));
                let pump = self.pump_filler();
                body.push(Stmt::While(BoolExpr::cmp(CmpOp::Eq, Expr::var(&w), Expr::int(c)), pump));
                "pump-equality"
            }
            _ => {
                // Fig. 3 shape: every diverging run is aperiodic.
                let y = format!("y{}", self.next_pump);
                let m = self.rng.next_in_range(2, 4);
                let start = self.rng.next_in_range(1, self.cfg.max_const.max(1));
                body.push(Stmt::Assign(w.clone(), Expr::int(start)));
                let inner = Stmt::While(
                    BoolExpr::cmp(CmpOp::Le, Expr::var(&w), Expr::var(&y)),
                    vec![Stmt::Assign(
                        w.clone(),
                        Expr::Bin(BinOp::Add, Box::new(Expr::var(&w)), Box::new(Expr::int(1))),
                    )],
                );
                body.push(Stmt::While(
                    BoolExpr::cmp(CmpOp::Ge, Expr::var(&w), Expr::int(1)),
                    vec![
                        Stmt::Assign(
                            y,
                            Expr::Bin(BinOp::Mul, Box::new(Expr::int(m)), Box::new(Expr::var(&w))),
                        ),
                        inner,
                    ],
                ));
                "pump-aperiodic"
            }
        };
        self.next_pump += 1;
        (family, body)
    }

    /// Filler for pump-loop bodies: ranked statements over the pool only —
    /// they terminate, never block, and never write a pump variable.
    fn pump_filler(&mut self) -> Vec<Stmt> {
        let width = 1 + self.rng.next_below(2) as usize;
        self.ranked_block(1, width)
    }

    // unlabelled statements ---------------------------------------------------

    fn any_block(&mut self, depth: usize, width: usize) -> Vec<Stmt> {
        let mut out = Vec::new();
        for _ in 0..width.max(1) {
            out.push(self.any_stmt(depth));
        }
        out
    }

    fn any_stmt(&mut self, depth: usize) -> Stmt {
        let can_nest = depth < self.cfg.max_depth;
        match self.rng.next_below(12) {
            0..=3 => {
                if self.percent(self.cfg.ndet_percent) {
                    Stmt::NdetAssign(self.pool_name())
                } else {
                    let x = self.pool_name();
                    let e = self.expr(2, self.cfg.guard_degree);
                    Stmt::Assign(x, e)
                }
            }
            4 => Stmt::Skip,
            5 => Stmt::Assume(self.guard(1)),
            6 | 7 if can_nest => {
                let cond = if self.percent(self.cfg.ndet_percent) {
                    BoolExpr::Nondet
                } else {
                    self.guard(1)
                };
                let then_width = 1 + self.rng.next_below(2) as usize;
                let then_b = self.any_block(depth + 1, then_width);
                let else_b = if self.rng.next_below(2) == 0 {
                    Vec::new()
                } else {
                    self.any_block(depth + 1, 1)
                };
                Stmt::If(cond, then_b, else_b)
            }
            8 | 9 if can_nest => {
                let guard = self.guard(1);
                let body_width = 1 + self.rng.next_below(2) as usize;
                let body = self.any_block(depth + 1, body_width);
                Stmt::While(guard, body)
            }
            _ => {
                let x = self.pool_name();
                let e = self.expr(1, 1);
                Stmt::Assign(x, e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revterm_lang::{analyze, parse_program, pretty_print};

    #[test]
    fn generation_is_deterministic() {
        let cfg = GenConfig::default();
        for seed in [0u64, 1, 42, 0xDEAD_BEEF] {
            assert_eq!(generate(seed, &cfg), generate(seed, &cfg));
        }
        let batch = generate_batch(7, 10, &cfg);
        assert_eq!(batch, generate_batch(7, 10, &cfg));
    }

    #[test]
    fn all_generated_programs_analyze_and_lower() {
        let cfg = GenConfig::default();
        for g in generate_batch(11, 300, &cfg) {
            analyze(&g.program).unwrap_or_else(|e| panic!("seed {}: {e}", g.seed));
            revterm_ts::lower(&g.program).unwrap_or_else(|e| panic!("seed {}: {e}", g.seed));
        }
    }

    #[test]
    fn both_known_label_families_are_represented() {
        let cfg = GenConfig::default();
        let batch = generate_batch(3, 200, &cfg);
        let terminating = batch.iter().filter(|g| g.label == KnownLabel::Terminating).count();
        let nonterminating = batch.iter().filter(|g| g.label == KnownLabel::NonTerminating).count();
        assert!(terminating > 0, "no terminating programs in 200 draws");
        assert!(nonterminating > 0, "no non-terminating programs in 200 draws");
        let aperiodic = batch.iter().filter(|g| g.family == "pump-aperiodic").count();
        assert!(aperiodic > 0, "no aperiodic pumps in 200 draws");
    }

    #[test]
    fn pretty_print_reparse_round_trip_holds_on_generated_programs() {
        // The satellite property test: printing and re-parsing any generated
        // program is the structural identity (this is what makes repro files
        // faithful).  Runs over a wider knob grid than the defaults.
        let configs = [
            GenConfig::default(),
            GenConfig { num_vars: 1, max_depth: 3, guard_degree: 2, ..GenConfig::default() },
            GenConfig { max_block_stmts: 5, ndet_percent: 60, ..GenConfig::default() },
            GenConfig { max_const: 40, family_weights: (1, 1, 3), ..GenConfig::default() },
        ];
        for (i, cfg) in configs.iter().enumerate() {
            for g in generate_batch(1000 + i as u64, 250, cfg) {
                let reparsed = parse_program(&g.source)
                    .unwrap_or_else(|e| panic!("seed {}: {e}\n{}", g.seed, g.source));
                assert_eq!(
                    g.program, reparsed,
                    "print/parse round-trip mismatch for seed {}:\n{}",
                    g.seed, g.source
                );
                // Printing is a fixpoint on canonical programs.
                assert_eq!(g.source, pretty_print(&reparsed));
            }
        }
    }

    #[test]
    fn terminating_family_loops_are_counter_ranked() {
        // Structural spot-check of the label argument: in the terminating
        // family every while guard mentions a counter variable `kN`.
        fn check(stmts: &[Stmt]) {
            for s in stmts {
                match s {
                    Stmt::While(guard, body) => {
                        assert!(
                            guard.variables().iter().any(|v| v.starts_with('k')),
                            "unranked loop guard {guard:?}"
                        );
                        check(body);
                    }
                    Stmt::If(_, t, e) => {
                        check(t);
                        check(e);
                    }
                    _ => {}
                }
            }
        }
        let cfg = GenConfig::default();
        for g in generate_batch(99, 200, &cfg) {
            if g.label == KnownLabel::Terminating {
                check(&g.program.body);
            }
        }
    }
}
