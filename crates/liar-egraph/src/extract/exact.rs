//! Exact DAG-cost extraction by branch-and-bound over e-class node
//! selection.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use super::dag::DagExtractor;
use super::{marginal, CostFunction, Extract, ExtractionStats};
use crate::{Analysis, EGraph, Id, Language, RecExpr};

/// Search budget of an [`ExactExtractor`]. When exceeded, the solver
/// returns the greedy [`DagExtractor`] answer (or the best improvement
/// found so far) and reports [`ExactOutcome::Budget`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExactBudget {
    /// Skip the search entirely (greedy fallback) when more classes than
    /// this are reachable from the root along finite-cost candidates.
    pub max_classes: usize,
    /// Abort after this many branch-and-bound steps (one step ≈ one
    /// decision-stack operation).
    pub max_steps: u64,
    /// Abort after this much wall-clock time (checked every 1024 steps).
    pub time_limit: Option<Duration>,
}

impl Default for ExactBudget {
    fn default() -> Self {
        ExactBudget {
            max_classes: 2048,
            max_steps: 500_000,
            time_limit: None,
        }
    }
}

/// Which answer an [`ExactReport`] carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExactOutcome {
    /// The search ran to completion: the reported selection is a true
    /// optimum of the DAG objective (assuming non-negative marginals; see
    /// [`ExactExtractor`]).
    Optimal,
    /// The [`ExactBudget`] was exhausted first: the report carries the
    /// best selection seen — at worst the greedy [`DagExtractor`] answer,
    /// never worse.
    Budget,
}

impl ExactOutcome {
    /// Stable lower-case name, for reports and bench JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            ExactOutcome::Optimal => "optimal",
            ExactOutcome::Budget => "budget",
        }
    }
}

impl std::fmt::Display for ExactOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The result of one [`ExactExtractor::solve`] call.
#[derive(Debug, Clone)]
pub struct ExactReport<L> {
    /// DAG cost of the reported selection.
    pub cost: f64,
    /// The extracted term (node-sharing, like [`DagExtractor`]'s).
    pub expr: RecExpr<L>,
    /// Whether this is a proven optimum or a budget fallback.
    pub outcome: ExactOutcome,
    /// Branch-and-bound steps spent (0 when the class-count gate fell back
    /// to greedy without searching).
    pub steps: u64,
    /// Classes reachable from the root along finite-cost candidates — the
    /// search space the class-count gate measures.
    pub reachable_classes: usize,
}

/// One selectable e-node of a class, precomputed for the search.
struct Cand<L> {
    node: L,
    marginal: f64,
    /// Distinct canonical child classes, as positions (sorted).
    children: Vec<u32>,
}

/// An operation on the decision stack: decide a class (choose one of its
/// nodes), or close a decided class once everything below it is decided.
#[derive(Clone, Copy)]
enum Op {
    Decide(u32),
    Close(u32),
}

#[derive(Clone, Copy, PartialEq)]
enum State {
    Undecided,
    /// Decided, but its selection closure is not yet complete: candidate
    /// nodes referencing an open class are rejected, which is exactly the
    /// acyclicity constraint (an open class always lies on the current
    /// decision chain, so an edge back into it would close a cycle).
    Open,
    /// Decided with a complete, acyclic closure: safe to share.
    Done,
}

/// Exact DAG-cost extraction: solves the same objective as
/// [`DagExtractor`] — pick one node per needed class, minimizing the sum
/// of marginals of the *distinct* selected classes — but exactly, by
/// depth-first branch-and-bound instead of a greedy fixpoint.
///
/// # The search
///
/// The decision stack holds classes whose node is still to be chosen.
/// Deciding a class tries its finite-marginal candidates cheapest-first;
/// choosing a node demands its children (pushing the undecided ones), and
/// the class stays *open* — rejected as a child of any candidate — until
/// its whole closure is decided, which makes every explored selection
/// acyclic by construction and never prunes an acyclic optimum. The greedy
/// [`DagExtractor`] answer seeds the incumbent, and a partial selection is
/// pruned when its accumulated cost plus a lower bound on what is still
/// demanded (the sum of the cheapest marginals of demanded-but-undecided
/// classes) cannot beat the incumbent.
///
/// The bound is admissible for cost models with **non-negative marginals**
/// (AST size and LIAR's target models — every node adds cost on top of
/// its children). For models outside that contract the search still
/// terminates and returns a sound, acyclic selection, but
/// [`ExactOutcome::Optimal`] is no longer a proof of optimality.
///
/// # Budget
///
/// Exact extraction is exponential in the worst case. [`ExactBudget`]
/// bounds the search three ways (reachable-class gate, step count, wall
/// clock); on exhaustion the solver falls back to the best answer seen —
/// at worst the greedy answer, never worse — and the report says so.
pub struct ExactExtractor<'a, L: Language, A: Analysis<L>, C> {
    dag: DagExtractor<'a, L, A, C>,
    budget: ExactBudget,
    position: HashMap<Id, usize>,
    cands: Vec<Vec<Cand<L>>>,
    /// Cheapest finite marginal per class (`INFINITY` when unextractable).
    min_marg: Vec<f64>,
}

impl<'a, L: Language, A: Analysis<L>, C: CostFunction<L, A>> ExactExtractor<'a, L, A, C> {
    /// Run greedy extraction (the incumbent) and precompute the candidate
    /// tables; the search itself runs per root in
    /// [`ExactExtractor::solve`].
    pub fn new(egraph: &'a EGraph<L, A>, cost_fn: C) -> Self {
        let dag = DagExtractor::new(egraph, cost_fn);
        let classes = egraph.classes_sorted();
        let position: HashMap<Id, usize> = classes
            .iter()
            .enumerate()
            .map(|(i, class)| (class.id, i))
            .collect();
        let tree = dag.tree_extractor();
        let mut cands: Vec<Vec<Cand<L>>> = Vec::with_capacity(classes.len());
        let mut min_marg: Vec<f64> = Vec::with_capacity(classes.len());
        for class in &classes {
            let mut list: Vec<Cand<L>> = class
                .iter()
                .filter_map(|node| {
                    let m = marginal(tree, node);
                    if !m.is_finite() {
                        return None;
                    }
                    let mut children: Vec<u32> = node
                        .children()
                        .iter()
                        .map(|&c| position[&egraph.find(c)] as u32)
                        .collect();
                    children.sort_unstable();
                    children.dedup();
                    Some(Cand {
                        node: node.clone(),
                        marginal: m,
                        children,
                    })
                })
                .collect();
            list.sort_by(|a, b| a.marginal.total_cmp(&b.marginal));
            min_marg.push(list.first().map_or(f64::INFINITY, |c| c.marginal));
            cands.push(list);
        }
        ExactExtractor {
            dag,
            budget: ExactBudget::default(),
            position,
            cands,
            min_marg,
        }
    }

    /// The greedy extractor seeding the incumbent (gives access to greedy
    /// DAG costs, tree costs and [`ExtractionStats`] without re-running
    /// anything).
    pub fn dag(&self) -> &DagExtractor<'a, L, A, C> {
        &self.dag
    }

    /// Fixpoint statistics of the inner greedy extraction.
    pub fn stats(&self) -> ExtractionStats {
        self.dag.stats()
    }

    /// Solve for the best DAG-cost selection of `id` exactly, within the
    /// budget. `None` when the class has no extractable term at all.
    pub fn solve(&self, id: Id) -> Option<ExactReport<L>> {
        let egraph = self.dag.tree_extractor().egraph();
        let root = self.position[&egraph.find(id)];
        // The greedy answer: the incumbent, and the fallback of every
        // budget path.
        let (greedy_cost, greedy_expr) = self.dag.extract(id)?;
        // Class-count gate: how big is the search space?
        let reachable = self.reachable_from(root);
        if reachable > self.budget.max_classes {
            return Some(ExactReport {
                cost: greedy_cost,
                expr: greedy_expr,
                outcome: ExactOutcome::Budget,
                steps: 0,
                reachable_classes: reachable,
            });
        }
        let n = self.cands.len();
        let mut search = Search {
            min_marg: &self.min_marg,
            budget: self.budget,
            started: Instant::now(),
            steps: 0,
            aborted: false,
            state: vec![State::Undecided; n],
            demanded: vec![0u32; n],
            assign: vec![usize::MAX; n],
            ops: vec![Op::Decide(root as u32)],
            pending: self.min_marg[root],
            best: greedy_cost,
            best_assign: None,
        };
        search.demanded[root] = 1;
        search.run(&self.cands, 0.0);
        let outcome = if search.aborted {
            ExactOutcome::Budget
        } else {
            ExactOutcome::Optimal
        };
        let (cost, expr) = match search.best_assign {
            // The search found a selection strictly cheaper than greedy.
            Some(assign) => (search.best, self.rebuild(&assign, root)),
            // No improvement (or none before the budget ran out): the
            // greedy incumbent *is* the answer.
            None => (greedy_cost, greedy_expr),
        };
        Some(ExactReport {
            cost,
            expr,
            outcome,
            steps: search.steps,
            reachable_classes: reachable,
        })
    }

    /// Extract the best term for a class within the budget.
    ///
    /// # Panics
    ///
    /// Panics if the class has no extractable term. Use
    /// [`Extract::try_find_best`] when extractability is not guaranteed.
    pub fn find_best(&self, id: Id) -> (f64, RecExpr<L>) {
        Extract::find_best(self, id)
    }

    /// Classes reachable from `root` along finite-marginal candidates.
    fn reachable_from(&self, root: usize) -> usize {
        let mut seen = vec![false; self.cands.len()];
        seen[root] = true;
        let mut queue = vec![root];
        let mut count = 1;
        while let Some(x) = queue.pop() {
            for cand in &self.cands[x] {
                for &c in &cand.children {
                    let c = c as usize;
                    if !seen[c] {
                        seen[c] = true;
                        count += 1;
                        queue.push(c);
                    }
                }
            }
        }
        count
    }

    /// Reconstruct the node-sharing term of a finished assignment.
    fn rebuild(&self, assign: &[usize], root: usize) -> RecExpr<L> {
        let egraph = self.dag.tree_extractor().egraph();
        let mut expr = RecExpr::default();
        let mut memo: HashMap<usize, Id> = HashMap::new();
        self.build(egraph, assign, root, &mut expr, &mut memo);
        expr
    }

    fn build(
        &self,
        egraph: &EGraph<L, A>,
        assign: &[usize],
        x: usize,
        expr: &mut RecExpr<L>,
        memo: &mut HashMap<usize, Id>,
    ) -> Id {
        if let Some(&done) = memo.get(&x) {
            return done;
        }
        let node = self.cands[x][assign[x]].node.clone().map_children(|c| {
            let c = self.position[&egraph.find(c)];
            self.build(egraph, assign, c, expr, memo)
        });
        let index = expr.add(node);
        memo.insert(x, index);
        index
    }
}

/// Mutable search state, split from the extractor so the candidate tables
/// can be borrowed across the recursion.
struct Search<'s> {
    min_marg: &'s [f64],
    budget: ExactBudget,
    started: Instant,
    steps: u64,
    aborted: bool,
    state: Vec<State>,
    /// How many live choices demand each class (for the pending bound).
    demanded: Vec<u32>,
    /// Chosen candidate index per class (`usize::MAX` = none).
    assign: Vec<usize>,
    /// The decision stack, processed top-down; truncated on backtrack.
    ops: Vec<Op>,
    /// Lower bound on the cost still to pay: the sum of cheapest marginals
    /// of demanded-but-undecided classes.
    pending: f64,
    best: f64,
    best_assign: Option<Vec<usize>>,
}

impl Search<'_> {
    fn out_of_budget(&mut self) -> bool {
        if self.aborted {
            return true;
        }
        self.steps += 1;
        if self.steps > self.budget.max_steps {
            self.aborted = true;
            return true;
        }
        if self.steps & 1023 == 0 {
            if let Some(limit) = self.budget.time_limit {
                if self.started.elapsed() >= limit {
                    self.aborted = true;
                    return true;
                }
            }
        }
        false
    }

    /// Process the top of the decision stack and recurse. Every mutation
    /// is undone before returning, so the caller's stack frame can try its
    /// next candidate.
    fn run<L: Language>(&mut self, cands: &[Vec<Cand<L>>], acc: f64) {
        if self.out_of_budget() {
            return;
        }
        if acc + self.pending >= self.best {
            return; // even the optimistic completion cannot beat the incumbent
        }
        let Some(&op) = self.ops.last() else {
            // Stack empty: every demanded class is decided and closed.
            self.best = acc;
            self.best_assign = Some(self.assign.clone());
            return;
        };
        match op {
            Op::Close(x) => {
                self.ops.pop();
                self.state[x as usize] = State::Done;
                self.run(cands, acc);
                self.state[x as usize] = State::Open;
                self.ops.push(op);
            }
            Op::Decide(x) => {
                let x = x as usize;
                if self.state[x] != State::Undecided {
                    // Already decided via another demand above this entry.
                    self.ops.pop();
                    self.run(cands, acc);
                    self.ops.push(op);
                    return;
                }
                self.ops.pop();
                self.state[x] = State::Open;
                self.pending -= self.min_marg[x];
                for (ci, cand) in cands[x].iter().enumerate() {
                    if cand
                        .children
                        .iter()
                        .any(|&c| self.state[c as usize] == State::Open)
                    {
                        continue; // would close a cycle through the decision chain
                    }
                    // Candidates are sorted by marginal: once even this
                    // one cannot beat the incumbent, none can.
                    if acc + cand.marginal + self.pending >= self.best {
                        break;
                    }
                    let ops_mark = self.ops.len();
                    self.ops.push(Op::Close(x as u32));
                    for &c in &cand.children {
                        let c = c as usize;
                        self.demanded[c] += 1;
                        if self.state[c] == State::Undecided {
                            if self.demanded[c] == 1 {
                                self.pending += self.min_marg[c];
                            }
                            self.ops.push(Op::Decide(c as u32));
                        }
                    }
                    self.assign[x] = ci;
                    self.run(cands, acc + cand.marginal);
                    for &c in &cand.children {
                        let c = c as usize;
                        self.demanded[c] -= 1;
                        if self.state[c] == State::Undecided && self.demanded[c] == 0 {
                            self.pending -= self.min_marg[c];
                        }
                    }
                    self.ops.truncate(ops_mark);
                    if self.aborted {
                        break;
                    }
                }
                self.assign[x] = usize::MAX;
                self.state[x] = State::Undecided;
                self.pending += self.min_marg[x];
                self.ops.push(Op::Decide(x as u32));
            }
        }
    }
}

impl<L: Language, A: Analysis<L>, C: CostFunction<L, A>> Extract<L>
    for ExactExtractor<'_, L, A, C>
{
    fn best_cost(&self, id: Id) -> Option<f64> {
        self.solve(id).map(|r| r.cost)
    }

    fn extract(&self, id: Id) -> Option<(f64, RecExpr<L>)> {
        self.solve(id).map(|r| (r.cost, r.expr))
    }
}
