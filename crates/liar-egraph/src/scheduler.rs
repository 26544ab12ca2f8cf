//! Rule scheduling: bounding how many matches each rule may contribute per
//! iteration.
//!
//! The LIAR intro rules (`a → fst (tuple a b)` and friends) match huge
//! numbers of classes; the paper runs them under a wall-clock budget, and
//! practical engines (egg) additionally rate-limit individual rules. The
//! [`BackoffScheduler`] reproduces egg's exponential-backoff policy.

/// Decides, per iteration and per rule, how many substitutions a rule may
/// produce (`None` = the rule is banned this iteration), and observes how
/// many it did produce.
///
/// Budgets are enforced *outside* the matcher: the engine hands each
/// e-matching VM invocation the rule's remaining budget and truncates the
/// (deduplicated) per-class substitution list, so a scheduler observes the
/// same match counts whether rules run on the compiled VM, the legacy
/// oracle matcher, or a custom searcher. Ban decisions therefore fire at
/// identical `(iteration, rule)` points across all matchers.
pub trait Scheduler {
    /// Maximum number of substitutions rule `rule_idx` may produce during
    /// `iteration`, or `None` when banned.
    fn match_limit(&mut self, iteration: usize, rule_idx: usize, rule_name: &str) -> Option<usize>;

    /// Record that the rule produced `n_matches` substitutions.
    fn record(&mut self, iteration: usize, rule_idx: usize, n_matches: usize);
}

/// No limits: every rule applies every match, every iteration.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimpleScheduler;

impl Scheduler for SimpleScheduler {
    fn match_limit(
        &mut self,
        _iteration: usize,
        _rule_idx: usize,
        _rule_name: &str,
    ) -> Option<usize> {
        Some(usize::MAX)
    }

    fn record(&mut self, _iteration: usize, _rule_idx: usize, _n_matches: usize) {}
}

#[derive(Debug, Clone)]
struct RuleStats {
    match_limit: usize,
    ban_length: usize,
    times_banned: usize,
    banned_until: usize,
}

/// Exponential-backoff scheduler in the style of egg.
///
/// Each rule starts with a per-iteration match budget; a rule that exceeds
/// it is banned for `ban_length` iterations, and each subsequent ban doubles
/// both the budget and the ban length. This keeps explosive rules (the
/// intro rules) from starving the rest of the rule set while still letting
/// them run.
#[derive(Debug, Clone)]
pub struct BackoffScheduler {
    default_limit: usize,
    default_ban: usize,
    stats: Vec<RuleStats>,
    overrides: Vec<(String, usize)>,
}

impl Default for BackoffScheduler {
    fn default() -> Self {
        BackoffScheduler::new(1000, 2)
    }
}

impl BackoffScheduler {
    /// A scheduler with the given initial per-rule match budget and ban
    /// length (in iterations).
    pub fn new(default_limit: usize, default_ban: usize) -> Self {
        BackoffScheduler {
            default_limit,
            default_ban,
            stats: Vec::new(),
            overrides: Vec::new(),
        }
    }

    /// Override the initial match budget for a specific rule name.
    pub fn with_rule_limit(mut self, name: impl Into<String>, limit: usize) -> Self {
        self.overrides.push((name.into(), limit));
        self
    }

    fn stats_for(&mut self, rule_idx: usize, rule_name: &str) -> &mut RuleStats {
        while self.stats.len() <= rule_idx {
            self.stats.push(RuleStats {
                match_limit: self.default_limit,
                ban_length: self.default_ban,
                times_banned: 0,
                banned_until: 0,
            });
        }
        if let Some((_, limit)) = self
            .overrides
            .iter()
            .find(|(n, _)| n == rule_name)
            .cloned()
        {
            // Apply the override once (while untouched).
            if self.stats[rule_idx].times_banned == 0 {
                self.stats[rule_idx].match_limit =
                    limit << self.stats[rule_idx].times_banned;
            }
        }
        &mut self.stats[rule_idx]
    }
}

impl Scheduler for BackoffScheduler {
    fn match_limit(&mut self, iteration: usize, rule_idx: usize, rule_name: &str) -> Option<usize> {
        let stats = self.stats_for(rule_idx, rule_name);
        if iteration < stats.banned_until {
            None
        } else {
            Some(stats.match_limit << stats.times_banned)
        }
    }

    fn record(&mut self, iteration: usize, rule_idx: usize, n_matches: usize) {
        let stats = &mut self.stats[rule_idx];
        let threshold = stats.match_limit << stats.times_banned;
        if n_matches >= threshold {
            let ban = stats.ban_length << stats.times_banned;
            stats.times_banned += 1;
            stats.banned_until = iteration + 1 + ban;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_never_bans() {
        let mut s = SimpleScheduler;
        assert_eq!(s.match_limit(0, 0, "r"), Some(usize::MAX));
        s.record(0, 0, 1_000_000);
        assert_eq!(s.match_limit(1, 0, "r"), Some(usize::MAX));
    }

    #[test]
    fn backoff_bans_and_doubles() {
        let mut s = BackoffScheduler::new(10, 2);
        assert_eq!(s.match_limit(0, 0, "r"), Some(10));
        s.record(0, 0, 10); // hits the limit -> ban for 2 iterations
        assert_eq!(s.match_limit(1, 0, "r"), None);
        assert_eq!(s.match_limit(2, 0, "r"), None);
        // Back with a doubled budget.
        assert_eq!(s.match_limit(3, 0, "r"), Some(20));
        s.record(3, 0, 20); // ban doubles too (4 iterations)
        assert_eq!(s.match_limit(4, 0, "r"), None);
        assert_eq!(s.match_limit(7, 0, "r"), None);
        assert_eq!(s.match_limit(8, 0, "r"), Some(40));
    }

    #[test]
    fn under_limit_never_bans() {
        let mut s = BackoffScheduler::new(10, 2);
        for it in 0..50 {
            assert!(s.match_limit(it, 0, "r").is_some());
            s.record(it, 0, 3);
        }
    }

    #[test]
    fn per_rule_override() {
        let mut s = BackoffScheduler::new(1000, 2).with_rule_limit("explosive", 5);
        assert_eq!(s.match_limit(0, 0, "explosive"), Some(5));
        assert_eq!(s.match_limit(0, 1, "tame"), Some(1000));
    }
}
