//! The e-matching virtual machine: patterns compiled once into linear
//! instruction programs, executed over a register file.
//!
//! The interpreted matcher ([`Pattern::match_class_oracle`]) re-walks the
//! pattern tree for every candidate e-node and clones a heap-allocated
//! substitution at every branch point. This module replaces it on the hot
//! path with the abstract-machine design used by egg and Z3 (de Moura &
//! Bjørner, *Efficient E-Matching for SMT Solvers*, CADE 2007): each
//! [`Pattern`] is compiled **once** (at construction) into a [`Program`] —
//! a flat sequence of [`Instr`]uctions — and matching an e-class executes
//! that program with simple backtracking over a register file of e-class
//! ids plus a small bank of expression slots for shift-pattern bindings.
//! No substitutions are allocated until a full match is found.
//!
//! # Instruction set
//!
//! | instruction | effect |
//! |---|---|
//! | [`Instr::Scan`] | iterate the e-nodes of the *focus* class (register 0) whose operator matches the pattern root, writing each node's (canonicalized) children into fresh registers |
//! | [`Instr::Bind`] | the same, over the class held in an already-written register — one per inner `ENode` of the pattern |
//! | [`Instr::Compare`] | require two registers to hold the same e-class (non-linear patterns such as `(f ?x ?x)`) |
//! | [`Instr::CompareExpr`] | require an expression slot to be hash-consed to the class in a register (a variable first bound through a shift pattern, re-used as a plain variable) |
//! | [`Instr::Downshift`] | bind a shift pattern `(sh<k> ?x)`: ask the [`Analysis`] for a member of the focus class downshifted by `k`, failing the branch when none exists |
//! | [`Instr::DownshiftCompare`] / [`Instr::DownshiftCompareClass`] | the non-linear variants of `Downshift`, comparing against an earlier expression or class binding |
//!
//! Instructions are emitted in pre-order over the pattern, so backtracking
//! (earlier instructions vary slowest) enumerates matches in **exactly**
//! the order of the recursive oracle matcher — a property the differential
//! test suite relies on.
//!
//! # Compilation
//!
//! [`Program::compile`] walks the pattern once, allocating one class
//! register per `ENode` child position and one expression slot per
//! shift-bound variable. The first occurrence of a variable claims a
//! [`Slot`]; later occurrences compile to the appropriate comparison
//! instruction. Because `(sh0 ?x)` is normalized to a plain `?x` when the
//! pattern is built, a variable's binding kind (class vs. expression) is
//! static per pattern.
//!
//! The compiled program also records the pattern root's
//! [operator key](Language::op_key) when the root is a concrete node;
//! searchers use it to restrict the search to the e-graph's
//! [operator index](crate::EGraph::classes_with_op) instead of scanning
//! every e-class.

use std::sync::Arc;

use crate::pattern::{Binding, Pattern, PatternNode, Subst, Var};
use crate::{Analysis, EGraph, FxHashSet, Id, Language, RecExpr};

/// Expression-slot bank: one optional downshifted term per shift-bound
/// variable.
type ExprSlots<L> = Vec<Option<Arc<RecExpr<L>>>>;

/// Where a pattern variable's binding lives during execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// An e-class register (plain `?x` bindings).
    Reg(usize),
    /// An expression slot (`(sh<k> ?x)` bindings, `k > 0`).
    Expr(usize),
}

/// One instruction of a compiled pattern program (see the module docs for
/// the instruction-set table).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Instr<L> {
    /// Iterate the matching e-nodes of the focus class (register 0),
    /// writing children into registers `out..`.
    Scan {
        /// Pattern node providing the operator to match (children are
        /// pattern positions and are ignored at run time).
        node: L,
        /// First of `arity` consecutive output registers.
        out: usize,
    },
    /// Iterate the matching e-nodes of the class in register `src`.
    Bind {
        /// Pattern node providing the operator to match.
        node: L,
        /// Register holding the class to scan.
        src: usize,
        /// First of `arity` consecutive output registers.
        out: usize,
    },
    /// Require registers `a` and `b` to hold the same e-class.
    Compare {
        /// Earlier binding.
        a: usize,
        /// Current position.
        b: usize,
    },
    /// Require the expression in slot `expr` to be hash-consed to the
    /// class in register `reg`.
    CompareExpr {
        /// Expression slot of the earlier shift binding.
        expr: usize,
        /// Register holding the class at the current position.
        reg: usize,
    },
    /// First occurrence of `(sh<k> ?x)`: downshift the class in `src` by
    /// `k` into expression slot `out`, failing when no member permits it.
    Downshift {
        /// Register holding the focus class.
        src: usize,
        /// Shift amount (`> 0`).
        k: u32,
        /// Expression slot receiving the downshifted term.
        out: usize,
    },
    /// Repeated `(sh<k> ?x)` where `?x` is already expression-bound:
    /// downshift and compare (syntactically, then semantically through the
    /// hash-cons) against slot `expr`.
    DownshiftCompare {
        /// Register holding the focus class.
        src: usize,
        /// Shift amount (`> 0`).
        k: u32,
        /// Expression slot of the earlier binding.
        expr: usize,
    },
    /// `(sh<k> ?x)` where `?x` is already class-bound: downshift and
    /// require the result to be hash-consed to the class in `reg`.
    DownshiftCompareClass {
        /// Register holding the focus class.
        src: usize,
        /// Shift amount (`> 0`).
        k: u32,
        /// Register of the earlier class binding.
        reg: usize,
    },
}

/// A compiled pattern: the unit the e-matching VM executes.
///
/// Built once per [`Pattern`] (see [`Pattern::compiled`]); cheap to share
/// (`Arc`) and to execute repeatedly.
#[derive(Debug)]
pub struct Program<L> {
    instrs: Vec<Instr<L>>,
    n_regs: usize,
    n_exprs: usize,
    /// `(variable, slot)` in first-occurrence order — the recipe for
    /// materializing a [`Subst`] from the register file.
    outputs: Vec<(Var, Slot)>,
    /// The root node's [`Language::op_key`] when the root is an `ENode`.
    root_op_key: Option<u64>,
}

impl<L: Language> Program<L> {
    /// Compile a pattern node table (see [`Pattern::nodes`]) rooted at
    /// `root`.
    pub fn compile(nodes: &[PatternNode<L>], root: Id) -> Self {
        let mut compiler = Compiler {
            nodes,
            instrs: Vec::new(),
            n_regs: 1, // register 0 = the focus class
            n_exprs: 0,
            bound: Vec::new(),
            outputs: Vec::new(),
        };
        compiler.go(root, 0);
        let root_op_key = match &nodes[root.index()] {
            PatternNode::ENode(n) => Some(n.op_key()),
            _ => None,
        };
        Program {
            instrs: compiler.instrs,
            n_regs: compiler.n_regs,
            n_exprs: compiler.n_exprs,
            outputs: compiler.outputs,
            root_op_key,
        }
    }

    /// The instruction sequence, in execution order.
    pub fn instructions(&self) -> &[Instr<L>] {
        &self.instrs
    }

    /// The variables the program binds, with their slots, in
    /// first-occurrence order.
    pub fn outputs(&self) -> &[(Var, Slot)] {
        &self.outputs
    }

    /// The [operator key](Language::op_key) of the pattern root when it is
    /// a concrete node — the key searchers feed to
    /// [`EGraph::classes_with_op`](crate::EGraph::classes_with_op).
    pub fn root_op_key(&self) -> Option<u64> {
        self.root_op_key
    }

    /// Execute the program against one e-class, returning every
    /// substitution (deduplicated on canonicalized bindings, first
    /// occurrence kept — the same list the oracle matcher produces).
    pub fn run<A: Analysis<L>>(&self, egraph: &EGraph<L, A>, class: Id) -> Vec<Subst<L>> {
        let mut regs = vec![Id::from_index(0); self.n_regs];
        let mut exprs: ExprSlots<L> = vec![None; self.n_exprs];
        regs[0] = egraph.find(class);
        let mut seen: FxHashSet<Vec<CanonBinding<L>>> = FxHashSet::default();
        let mut out: Vec<Subst<L>> = Vec::new();
        self.exec(egraph, &mut regs, &mut exprs, 0, &mut |regs, exprs| {
            let key: Vec<CanonBinding<L>> = self
                .outputs
                .iter()
                .map(|&(_, slot)| match slot {
                    Slot::Reg(r) => CanonBinding::Class(egraph.find(regs[r])),
                    Slot::Expr(s) => {
                        CanonBinding::Expr(Arc::clone(exprs[s].as_ref().expect("slot written")))
                    }
                })
                .collect();
            if seen.insert(key) {
                let mut subst = Subst::default();
                for &(v, slot) in &self.outputs {
                    match slot {
                        Slot::Reg(r) => subst.insert(v, Binding::Class(regs[r])),
                        Slot::Expr(s) => subst.insert(
                            v,
                            Binding::Expr(Arc::clone(exprs[s].as_ref().expect("slot written"))),
                        ),
                    }
                }
                out.push(subst);
            }
        });
        out
    }

    /// Recursive backtracking interpreter: instruction `pc` enumerates its
    /// choices and runs the rest of the program for each.
    fn exec<A: Analysis<L>>(
        &self,
        egraph: &EGraph<L, A>,
        regs: &mut Vec<Id>,
        exprs: &mut ExprSlots<L>,
        pc: usize,
        found: &mut dyn FnMut(&[Id], &ExprSlots<L>),
    ) {
        let Some(instr) = self.instrs.get(pc) else {
            found(regs, exprs);
            return;
        };
        match instr {
            Instr::Scan { node, out } | Instr::Bind { node, out, .. } => {
                let src = match instr {
                    Instr::Bind { src, .. } => *src,
                    _ => 0,
                };
                let class = egraph.find(regs[src]);
                for enode in egraph[class].iter() {
                    if !node.matches(enode) {
                        continue;
                    }
                    debug_assert_eq!(node.children().len(), enode.children().len());
                    for (i, &c) in enode.children().iter().enumerate() {
                        regs[out + i] = egraph.find(c);
                    }
                    self.exec(egraph, regs, exprs, pc + 1, found);
                }
            }
            Instr::Compare { a, b } => {
                if egraph.find(regs[*a]) == egraph.find(regs[*b]) {
                    self.exec(egraph, regs, exprs, pc + 1, found);
                }
            }
            Instr::CompareExpr { expr, reg } => {
                let e = exprs[*expr].as_ref().expect("slot written");
                if egraph.lookup_expr(e) == Some(egraph.find(regs[*reg])) {
                    self.exec(egraph, regs, exprs, pc + 1, found);
                }
            }
            Instr::Downshift { src, k, out } => {
                let Some(down) = A::downshift(egraph, regs[*src], *k) else {
                    return;
                };
                exprs[*out] = Some(down);
                self.exec(egraph, regs, exprs, pc + 1, found);
            }
            Instr::DownshiftCompare { src, k, expr } => {
                let Some(down) = A::downshift(egraph, regs[*src], *k) else {
                    return;
                };
                let e = exprs[*expr].as_ref().expect("slot written");
                let matched = *e == down || {
                    // Equal classes may yield different representatives;
                    // fall back to a semantic check through the e-graph
                    // (identical to the oracle matcher).
                    let (a, b) = (egraph.lookup_expr(e), egraph.lookup_expr(&down));
                    a.is_some() && a == b
                };
                if matched {
                    self.exec(egraph, regs, exprs, pc + 1, found);
                }
            }
            Instr::DownshiftCompareClass { src, k, reg } => {
                let Some(down) = A::downshift(egraph, regs[*src], *k) else {
                    return;
                };
                if egraph.lookup_expr(&down) == Some(egraph.find(regs[*reg])) {
                    self.exec(egraph, regs, exprs, pc + 1, found);
                }
            }
        }
    }
}

/// Dedup key: one entry per bound variable, in the program's output order
/// (the variable identities are implied by the position).
#[derive(Debug, PartialEq, Eq, Hash)]
enum CanonBinding<L> {
    Class(Id),
    Expr(Arc<RecExpr<L>>),
}

struct Compiler<'a, L> {
    nodes: &'a [PatternNode<L>],
    instrs: Vec<Instr<L>>,
    n_regs: usize,
    n_exprs: usize,
    /// Variables bound so far (small; linear scan).
    bound: Vec<(Var, Slot)>,
    outputs: Vec<(Var, Slot)>,
}

impl<L: Language> Compiler<'_, L> {
    fn slot_of(&self, v: Var) -> Option<Slot> {
        self.bound.iter().find(|(b, _)| *b == v).map(|&(_, s)| s)
    }

    fn bind(&mut self, v: Var, slot: Slot) {
        self.bound.push((v, slot));
        self.outputs.push((v, slot));
    }

    /// Emit instructions for the pattern position `pid`, whose e-class is
    /// held in register `reg`.
    fn go(&mut self, pid: Id, reg: usize) {
        match &self.nodes[pid.index()] {
            // Zero shifts are normalized away at pattern construction;
            // compile stragglers exactly like plain variables.
            PatternNode::Var(v) | PatternNode::Shifted(v, 0) => match self.slot_of(*v) {
                None => self.bind(*v, Slot::Reg(reg)),
                Some(Slot::Reg(r)) => self.instrs.push(Instr::Compare { a: r, b: reg }),
                Some(Slot::Expr(s)) => self.instrs.push(Instr::CompareExpr { expr: s, reg }),
            },
            PatternNode::Shifted(v, k) => match self.slot_of(*v) {
                None => {
                    let out = self.n_exprs;
                    self.n_exprs += 1;
                    self.instrs.push(Instr::Downshift { src: reg, k: *k, out });
                    self.bind(*v, Slot::Expr(out));
                }
                Some(Slot::Expr(s)) => {
                    self.instrs
                        .push(Instr::DownshiftCompare { src: reg, k: *k, expr: s });
                }
                Some(Slot::Reg(r)) => {
                    self.instrs
                        .push(Instr::DownshiftCompareClass { src: reg, k: *k, reg: r });
                }
            },
            PatternNode::ENode(node) => {
                let out = self.n_regs;
                self.n_regs += node.children().len();
                if reg == 0 && self.instrs.is_empty() {
                    self.instrs.push(Instr::Scan { node: node.clone(), out });
                } else {
                    self.instrs
                        .push(Instr::Bind { node: node.clone(), src: reg, out });
                }
                for (i, &c) in node.children().iter().enumerate() {
                    self.go(c, out + i);
                }
            }
        }
    }
}

/// The legacy recursive matcher packaged as a [`Searcher`] — the **oracle**
/// the differential tests and the e-matching bench compare the VM against.
///
/// Never uses the operator index ([`candidate_class_ids`] returns `None`),
/// so [`Rewrite::search`] asks it about every e-class, the way the pre-VM
/// engine scanned.
///
/// [`Searcher`]: crate::Searcher
/// [`candidate_class_ids`]: crate::Searcher::candidate_class_ids
/// [`Rewrite::search`]: crate::Rewrite::search
#[derive(Debug, Clone)]
pub struct OraclePattern<L>(Pattern<L>);

impl<L: Language> OraclePattern<L> {
    /// Wrap a pattern.
    pub fn new(pattern: Pattern<L>) -> Self {
        OraclePattern(pattern)
    }

    /// The wrapped pattern.
    pub fn pattern(&self) -> &Pattern<L> {
        &self.0
    }
}

impl<L: Language, A: Analysis<L>> crate::Searcher<L, A> for OraclePattern<L> {
    fn search_class(&self, egraph: &EGraph<L, A>, class: Id, _limit: usize) -> Vec<Subst<L>> {
        self.0.match_class_oracle(egraph, class)
    }

    fn bound_vars(&self) -> Vec<Var> {
        self.0.vars()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Pattern, SymbolLang};

    type EG = EGraph<SymbolLang, ()>;

    fn p(s: &str) -> Pattern<SymbolLang> {
        s.parse().unwrap()
    }

    #[test]
    fn compiles_to_expected_shape() {
        let pat = p("(f (g ?x) ?y)");
        let prog = pat.compiled();
        // Scan f, Bind g; ?x and ?y are first occurrences (no instrs).
        assert!(matches!(prog.instructions()[0], Instr::Scan { .. }));
        assert!(matches!(prog.instructions()[1], Instr::Bind { .. }));
        assert_eq!(prog.instructions().len(), 2);
        assert_eq!(prog.outputs().len(), 2);
        assert!(prog.root_op_key().is_some());
    }

    #[test]
    fn nonlinear_compiles_compare() {
        let pat = p("(f ?x ?x)");
        let prog = pat.compiled();
        assert!(matches!(prog.instructions()[1], Instr::Compare { .. }));
    }

    #[test]
    fn var_root_has_no_instructions() {
        let pat = p("?x");
        let prog = pat.compiled();
        assert!(prog.instructions().is_empty());
        assert!(prog.root_op_key().is_none());
        let mut eg = EG::default();
        let id = eg.add(SymbolLang::leaf("a"));
        assert_eq!(prog.run(&eg, id).len(), 1);
    }

    #[test]
    fn vm_enumeration_order_matches_oracle() {
        let mut eg = EG::default();
        let fa = eg.add_expr(&"(f a c)".parse().unwrap());
        let fb = eg.add_expr(&"(f b d)".parse().unwrap());
        eg.union(fa, fb);
        eg.rebuild();
        let pat = p("(f ?x ?y)");
        let vm = pat.match_class(&eg, fa);
        let oracle = pat.match_class_oracle(&eg, fa);
        assert_eq!(vm.len(), oracle.len());
        for (a, b) in vm.iter().zip(&oracle) {
            let pairs = |s: &Subst<SymbolLang>| {
                s.iter()
                    .map(|(v, b)| match b {
                        Binding::Class(id) => (*v, eg.find(*id)),
                        Binding::Expr(_) => unreachable!("no shift patterns here"),
                    })
                    .collect::<Vec<_>>()
            };
            assert_eq!(pairs(a), pairs(b));
        }
    }
}
