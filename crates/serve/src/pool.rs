//! The LRU session pool.
//!
//! Sessions are keyed by [`revterm::program_hash`] of the *lowered* system,
//! so textually different sources that denote the same program share one
//! warm session.  The pool hands sessions out by value
//! ([`SessionPool::checkout`] / [`SessionPool::checkin`]): the server holds
//! the pool mutex only for the O(capacity) bookkeeping, never while a source
//! is parsed and lowered (checkout takes the lowered system) or a prove
//! runs, so one large or slow request cannot serialize the whole daemon.
//!
//! A checked-out session that is never checked back in (worker panic,
//! dropped connection mid-prove) is simply forgotten — the next request for
//! that program pays a cold start.  Nothing is ever half-mutated inside the
//! pool, because budget cuts happen only between memoized computations (see
//! the core crate's session documentation).

use revterm::api::json::Json;
use revterm::{lower_source, program_hash, Error, ProverSession, TransitionSystem};
use std::sync::Mutex;

/// Running counters of pool behaviour, exposed by the `stats` and `metrics`
/// wire operations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Checkouts served by a pooled (warm) session.
    pub hits: u64,
    /// Checkouts that had to build a fresh session.
    pub misses: u64,
    /// Sessions dropped to make room (LRU order).
    pub evictions: u64,
}

impl PoolStats {
    /// The counters next to the pool's `occupancy`, as the `stats`
    /// operation answers them and the `metrics` operation nests them under
    /// `pool`: `{occupancy, hits, misses, evictions}`.
    pub(crate) fn to_json(self, occupancy: usize) -> Json {
        Json::obj(vec![
            ("occupancy", Json::from(occupancy as u64)),
            ("hits", Json::from(self.hits)),
            ("misses", Json::from(self.misses)),
            ("evictions", Json::from(self.evictions)),
        ])
    }
}

struct PoolEntry {
    key: u64,
    session: ProverSession,
    /// Logical timestamp of the last checkout/checkin (monotone counter —
    /// no wall clock involved, so pool behaviour is deterministic under a
    /// deterministic request order).
    last_used: u64,
}

/// An LRU pool of prover sessions keyed by program hash.
pub struct SessionPool {
    capacity: usize,
    tick: u64,
    entries: Vec<PoolEntry>,
    stats: PoolStats,
}

impl SessionPool {
    /// Creates a pool that retains at most `capacity` idle sessions
    /// (`capacity` 0 disables pooling: every checkout is a miss).
    pub fn new(capacity: usize) -> SessionPool {
        SessionPool { capacity, tick: 0, entries: Vec::new(), stats: PoolStats::default() }
    }

    /// Number of idle sessions currently held.
    pub fn occupancy(&self) -> usize {
        self.entries.len()
    }

    /// The pool counters so far.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Returns `(session, pool_hit)` for the lowered program `ts`, whose
    /// [`revterm::program_hash`] is `key`: the pooled session for the
    /// program if one is idle, a fresh one over `ts` otherwise.  The caller
    /// lowers the source before taking the pool lock, so no parse runs under
    /// it; it runs its request against the session and returns it with
    /// [`SessionPool::checkin`].
    pub fn checkout(&mut self, key: u64, ts: TransitionSystem) -> (ProverSession, bool) {
        self.tick += 1;
        if let Some(i) = self.entries.iter().position(|e| e.key == key) {
            let entry = self.entries.swap_remove(i);
            self.stats.hits += 1;
            return (entry.session, true);
        }
        self.stats.misses += 1;
        (ProverSession::new(ts), false)
    }

    /// Returns a session to the pool, evicting the least-recently-used
    /// entry if the pool is over capacity.
    pub fn checkin(&mut self, key: u64, session: ProverSession) {
        self.tick += 1;
        // A concurrent checkout/checkin of the same program can race a
        // duplicate in; keep the newest.
        if let Some(i) = self.entries.iter().position(|e| e.key == key) {
            self.entries.swap_remove(i);
            self.stats.evictions += 1;
        }
        self.entries.push(PoolEntry { key, session, last_used: self.tick });
        while self.entries.len() > self.capacity {
            let oldest = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
                .expect("pool over capacity implies at least one entry");
            self.entries.swap_remove(oldest);
            self.stats.evictions += 1;
        }
    }
}

/// Lowers `source`, then checks the program's session out of `pool`,
/// returning `(key, session, pool_hit)`. The parse and the lowering run
/// before the lock is taken, so a large program never stalls another
/// connection's checkout or checkin.
///
/// # Errors
///
/// [`Error::Parse`] / [`Error::Analysis`] from lowering the source; the
/// pool is not touched in that case.
pub(crate) fn checkout_source(
    pool: &Mutex<SessionPool>,
    source: &str,
) -> Result<(u64, ProverSession, bool), Error> {
    let ts = lower_source(source)?;
    let key = program_hash(&ts);
    let (session, hit) = pool.lock().expect("pool poisoned").checkout(key, ts);
    Ok((key, session, hit))
}

#[cfg(test)]
mod tests {
    use super::*;
    use revterm::ProverConfig;

    const A: &str = "while x >= 0 do x := x + 1; od";
    const B: &str = "while y >= 1 do y := 2 * y; od";
    const C: &str = "while true do skip; od";

    fn pool_of(capacity: usize) -> Mutex<SessionPool> {
        Mutex::new(SessionPool::new(capacity))
    }

    fn checkout(pool: &Mutex<SessionPool>, source: &str) -> (u64, ProverSession, bool) {
        checkout_source(pool, source).unwrap()
    }

    fn checkin(pool: &Mutex<SessionPool>, key: u64, session: ProverSession) {
        pool.lock().unwrap().checkin(key, session);
    }

    fn stats(pool: &Mutex<SessionPool>) -> PoolStats {
        pool.lock().unwrap().stats()
    }

    fn occupancy(pool: &Mutex<SessionPool>) -> usize {
        pool.lock().unwrap().occupancy()
    }

    #[test]
    fn checkout_checkin_hits_on_the_second_request() {
        let pool = pool_of(4);
        let (key, session, hit) = checkout(&pool, A);
        assert!(!hit);
        // A miss opens the session on the system lowered outside the lock.
        assert_eq!(session.ts(), &lower_source(A).unwrap());
        assert_eq!(program_hash(session.ts()), key);
        checkin(&pool, key, session);
        assert_eq!(occupancy(&pool), 1);
        let (key2, session2, hit2) = checkout(&pool, A);
        assert_eq!(key, key2);
        assert!(hit2);
        assert_eq!(occupancy(&pool), 0, "checkout removes the entry");
        checkin(&pool, key2, session2);
        assert_eq!(stats(&pool), PoolStats { hits: 1, misses: 1, evictions: 0 });
    }

    #[test]
    fn pooled_sessions_keep_their_warm_caches() {
        let pool = pool_of(2);
        let (key, mut session, _) = checkout(&pool, A);
        let cold = session.prove(&ProverConfig::default());
        assert!(cold.is_non_terminating());
        checkin(&pool, key, session);
        let (key, mut session, hit) = checkout(&pool, A);
        assert!(hit);
        let warm = session.prove(&ProverConfig::default());
        assert!(warm.is_non_terminating());
        assert!(
            warm.stats.total_cache_hits() > cold.stats.total_cache_hits(),
            "warm: {:?}, cold: {:?}",
            warm.stats,
            cold.stats
        );
        checkin(&pool, key, session);
    }

    #[test]
    fn lru_eviction_drops_the_least_recently_used_entry() {
        let pool = pool_of(2);
        for src in [A, B] {
            let (k, s, _) = checkout(&pool, src);
            checkin(&pool, k, s);
        }
        // Touch A so B is the LRU entry, then admit C.
        let (k, s, hit) = checkout(&pool, A);
        assert!(hit);
        checkin(&pool, k, s);
        let (k, s, _) = checkout(&pool, C);
        checkin(&pool, k, s);
        assert_eq!(occupancy(&pool), 2);
        assert_eq!(stats(&pool).evictions, 1);
        assert!(checkout(&pool, A).2, "A must have survived");
        assert!(!checkout(&pool, B).2, "B must have been evicted");
    }

    #[test]
    fn equivalent_sources_share_a_session_and_bad_sources_leave_the_pool_alone() {
        let pool = pool_of(2);
        let (k, s, _) = checkout(&pool, "while x >= 0 do x := x + 1; od");
        checkin(&pool, k, s);
        // Whitespace-different source lowers to the same system.
        let (_, session, hit) = checkout(&pool, "while x >= 0 do  x := x + 1;  od");
        assert!(hit);
        assert_eq!(program_hash(session.ts()), k);
        assert!(matches!(checkout_source(&pool, "while x >="), Err(Error::Parse(_))));
        assert_eq!(stats(&pool), PoolStats { hits: 1, misses: 1, evictions: 0 });
    }

    #[test]
    fn zero_capacity_disables_pooling() {
        let pool = pool_of(0);
        let (k, s, _) = checkout(&pool, A);
        checkin(&pool, k, s);
        assert_eq!(occupancy(&pool), 0);
        assert!(!checkout(&pool, A).2);
    }
}
