//! Explore program reversal: print a program's transition system and its
//! reversal, then cross-check Lemma 3.3 ("c' reachable from c in T iff c
//! reachable from c' in the reversed system") on concrete configurations via
//! the interpreter.
//!
//! ```text
//! cargo run -p revterm-examples --example reversal_explorer
//! ```

use revterm_examples::build;
use revterm_num::Int;
use revterm_ts::interp::{bounded_reach, Config, Valuation};
use revterm_ts::Assertion;

fn main() {
    let source = "n := 0; while n <= 3 do n := n + 1; od";
    println!("program:\n{source}\n");
    let ts = build(source);
    println!("--- transition system ---\n{}", ts.display());
    println!(
        "--- reversed transition system ---\n{}",
        ts.reverse(Assertion::tautology()).display()
    );

    // Lemma 3.3, checked concretely: collect everything reachable from the
    // initial configuration (n = 0) and confirm that the terminal
    // configuration (ℓ_out, n = 4) is among it — so in the reversed system
    // the initial configuration is reachable from (ℓ_out, 4).
    let init = Config::new(ts.init_loc(), Valuation(vec![Int::zero()]));
    let reachable = bounded_reach(&ts, std::slice::from_ref(&init), &[], 50, 1000);
    println!("\nconfigurations reachable from {init}:");
    for cfg in reachable.ascending() {
        println!("  {cfg}");
    }
    let terminal = Config::new(ts.terminal_loc(), Valuation(vec![Int::from(4_i64)]));
    assert!(
        reachable.discovered().contains(&terminal),
        "the terminal configuration must be reachable"
    );
    println!("\nLemma 3.3 check: {terminal} is reachable from {init} in T,");
    println!("hence {init} is reachable from {terminal} in the reversed system.");
}
