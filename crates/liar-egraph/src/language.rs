//! The [`Language`] trait and the flat term representation [`RecExpr`].

use std::fmt;
use std::str::FromStr;

use crate::Id;

/// A node type that can live inside an e-graph.
///
/// A `Language` value is an *operator plus child slots*: two nodes `match`
/// when they have the same operator and payload, irrespective of what their
/// children point at. Children are [`Id`]s — e-class ids inside an
/// [`EGraph`](crate::EGraph), or node indices inside a [`RecExpr`].
pub trait Language: fmt::Debug + Clone + Eq + Ord + std::hash::Hash {
    /// The children of this node.
    fn children(&self) -> &[Id];

    /// Mutable access to the children of this node.
    fn children_mut(&mut self) -> &mut [Id];

    /// True when `self` and `other` have the same operator and payload
    /// (children are ignored).
    fn matches(&self, other: &Self) -> bool;

    /// Printable operator name (used by [`RecExpr`]'s `Display`, pattern
    /// diagnostics and Graphviz export).
    fn display_op(&self) -> String;

    /// A hashable discriminant of this node's *operator* (payload plus
    /// arity, children ignored), used by the e-graph's operator index
    /// ([`EGraph::classes_with_op`](crate::EGraph::classes_with_op)) and by
    /// compiled patterns to skip e-classes that cannot possibly match.
    ///
    /// **Contract:** `a.matches(b)` must imply `a.op_key() == b.op_key()`.
    /// (The converse need not hold — a hash collision merely costs a few
    /// extra candidate visits, which `matches` then filters out.)
    ///
    /// The default hashes [`display_op`](Language::display_op) and the
    /// arity, which satisfies the contract for any language whose
    /// `matches` implies equal operator text and arity; implementors can
    /// override it with a cheaper, allocation-free hash.
    fn op_key(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.display_op().hash(&mut h);
        self.children().len().hash(&mut h);
        h.finish()
    }

    /// Parse an operator token with already-parsed children.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when `op` is unknown or `children`
    /// has the wrong arity. The default implementation always errors; only
    /// languages with a textual syntax need to override it.
    fn from_op(op: &str, children: Vec<Id>) -> Result<Self, String> {
        let _ = children;
        Err(format!("language has no textual syntax (op: {op})"))
    }

    /// Apply `f` to each child.
    fn for_each<F: FnMut(Id)>(&self, f: F) {
        self.children().iter().copied().for_each(f)
    }

    /// Rebuild this node with every child mapped through `f`.
    fn map_children<F: FnMut(Id) -> Id>(mut self, mut f: F) -> Self {
        for c in self.children_mut() {
            *c = f(*c);
        }
        self
    }

    /// True for nodes with no children.
    fn is_leaf(&self) -> bool {
        self.children().is_empty()
    }

    /// Fold over the children.
    fn fold<T, F: FnMut(T, Id) -> T>(&self, init: T, f: F) -> T {
        self.children().iter().copied().fold(init, f)
    }

    /// True if all children satisfy `f`.
    fn all<F: FnMut(Id) -> bool>(&self, f: F) -> bool {
        self.children().iter().copied().all(f)
    }
}

/// A term stored as a flat post-order node table.
///
/// `nodes[i]`'s children are indices `< i`; the last node is the root. This
/// is the on-the-side representation used for inserting terms into e-graphs,
/// for extraction results, and for the shift/substitution operators that the
/// LIAR rules apply to class representatives.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RecExpr<L> {
    nodes: Vec<L>,
}

impl<L> Default for RecExpr<L> {
    fn default() -> Self {
        RecExpr { nodes: Vec::new() }
    }
}

impl<L: Language> RecExpr<L> {
    /// Append a node whose children must already be in the table; returns
    /// its index as an [`Id`].
    pub fn add(&mut self, node: L) -> Id {
        debug_assert!(
            node.children().iter().all(|c| c.index() < self.nodes.len()),
            "node {node:?} has out-of-bounds children"
        );
        self.nodes.push(node);
        Id::from_index(self.nodes.len() - 1)
    }

    /// The node table, in post order.
    pub fn nodes(&self) -> &[L] {
        &self.nodes
    }

    /// Number of nodes in the term (its AST size).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the expression has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Index of the root node.
    ///
    /// # Panics
    ///
    /// Panics if the expression is empty.
    pub fn root(&self) -> Id {
        assert!(!self.nodes.is_empty(), "empty RecExpr has no root");
        Id::from_index(self.nodes.len() - 1)
    }

    /// The node at index `id`.
    pub fn node(&self, id: Id) -> &L {
        &self.nodes[id.index()]
    }

    /// Copy the subtree rooted at `id` in `other` into `self`, returning the
    /// new root id.
    pub fn append_subtree(&mut self, other: &RecExpr<L>, id: Id) -> Id {
        let node = other.node(id).clone();
        let node = node.map_children(|c| self.append_subtree(other, c));
        self.add(node)
    }

    fn fmt_node(&self, f: &mut fmt::Formatter<'_>, id: Id) -> fmt::Result {
        let node = self.node(id);
        if node.is_leaf() {
            write!(f, "{}", node.display_op())
        } else {
            write!(f, "({}", node.display_op())?;
            for c in node.children() {
                write!(f, " ")?;
                self.fmt_node(f, *c)?;
            }
            write!(f, ")")
        }
    }
}

impl<L: Language> fmt::Display for RecExpr<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.nodes.is_empty() {
            write!(f, "()")
        } else {
            self.fmt_node(f, self.root())
        }
    }
}

/// Error produced when parsing a [`RecExpr`] from an s-expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecExprParseError(pub String);

impl fmt::Display for RecExprParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error: {}", self.0)
    }
}

impl std::error::Error for RecExprParseError {}

/// Node-construction callback for [`parse_sexp`]: `(operator, children)`
/// to a node id, or an error message.
pub(crate) type MakeNode<'a> = &'a mut dyn FnMut(&str, Vec<Id>) -> Result<Id, String>;

/// Tokenize an s-expression into parens and atoms.
pub(crate) fn tokenize(s: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut cur = String::new();
    for ch in s.chars() {
        match ch {
            '(' | ')' => {
                if !cur.is_empty() {
                    tokens.push(std::mem::take(&mut cur));
                }
                tokens.push(ch.to_string());
            }
            c if c.is_whitespace() => {
                if !cur.is_empty() {
                    tokens.push(std::mem::take(&mut cur));
                }
            }
            c => cur.push(c),
        }
    }
    if !cur.is_empty() {
        tokens.push(cur);
    }
    tokens
}

/// The deepest list nesting [`parse_sexp`] accepts. The parser recurses
/// once per level, so without a cap a deeply nested request would overflow
/// the parsing thread's stack and abort the process. The deepest kernel
/// program nests 55 levels.
const MAX_DEPTH: usize = 1_000;

/// A generic s-expression parser driven by a node-construction callback.
///
/// `make(op, children)` is called for every atom/list head with the ids of
/// already-parsed children. Input nested deeper than [`MAX_DEPTH`] lists
/// is an error.
pub(crate) fn parse_sexp(s: &str, make: MakeNode<'_>) -> Result<Id, RecExprParseError> {
    let tokens = tokenize(s);
    let mut pos = 0;
    let root = parse_tokens(&tokens, &mut pos, 0, make).map_err(RecExprParseError)?;
    if pos != tokens.len() {
        return Err(RecExprParseError(format!(
            "trailing tokens after expression: {:?}",
            &tokens[pos..]
        )));
    }
    Ok(root)
}

/// Parse one expression starting at `tokens[*pos]`, inside `depth`
/// enclosing lists.
fn parse_tokens(
    tokens: &[String],
    pos: &mut usize,
    depth: usize,
    make: MakeNode<'_>,
) -> Result<Id, String> {
    let tok = tokens
        .get(*pos)
        .ok_or_else(|| "unexpected end of input".to_string())?;
    *pos += 1;
    match tok.as_str() {
        "(" if depth == MAX_DEPTH => Err(format!("nesting deeper than {MAX_DEPTH} levels")),
        "(" => {
            let op = tokens
                .get(*pos)
                .ok_or_else(|| "missing operator after '('".to_string())?
                .clone();
            if op == "(" || op == ")" {
                return Err(format!("expected operator, found {op:?}"));
            }
            *pos += 1;
            let mut children = Vec::new();
            loop {
                let next = tokens
                    .get(*pos)
                    .ok_or_else(|| "missing ')'".to_string())?;
                if next == ")" {
                    *pos += 1;
                    break;
                }
                children.push(parse_tokens(tokens, pos, depth + 1, make)?);
            }
            make(&op, children)
        }
        ")" => Err("unexpected ')'".to_string()),
        atom => make(atom, Vec::new()),
    }
}

impl<L: Language> FromStr for RecExpr<L> {
    type Err = RecExprParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut expr = RecExpr::default();
        parse_sexp(s, &mut |op, children| {
            L::from_op(op, children).map(|node| expr.add(node))
        })?;
        Ok(expr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SymbolLang;

    #[test]
    fn parse_and_display_roundtrip() {
        for s in ["a", "(f a b)", "(+ (* a 2) (g b))"] {
            let e: RecExpr<SymbolLang> = s.parse().unwrap();
            assert_eq!(e.to_string(), s);
        }
    }

    #[test]
    fn parse_errors() {
        assert!("(f a".parse::<RecExpr<SymbolLang>>().is_err());
        assert!(")".parse::<RecExpr<SymbolLang>>().is_err());
        assert!("(f a) b".parse::<RecExpr<SymbolLang>>().is_err());
        assert!("".parse::<RecExpr<SymbolLang>>().is_err());
        assert!("(())".parse::<RecExpr<SymbolLang>>().is_err());
    }

    #[test]
    fn nesting_is_capped_at_the_depth_limit() {
        let nested = |depth: usize| format!("{}a{}", "(f ".repeat(depth), ")".repeat(depth));
        let at_limit: RecExpr<SymbolLang> = nested(MAX_DEPTH).parse().expect("limit parses");
        assert_eq!(at_limit.len(), MAX_DEPTH + 1);
        let err = nested(MAX_DEPTH + 1)
            .parse::<RecExpr<SymbolLang>>()
            .expect_err("one level past the limit");
        assert_eq!(
            err.to_string(),
            "parse error: nesting deeper than 1000 levels"
        );
    }

    #[test]
    fn append_subtree_copies() {
        let a: RecExpr<SymbolLang> = "(f a b)".parse().unwrap();
        let mut b: RecExpr<SymbolLang> = "c".parse().unwrap();
        let id = b.append_subtree(&a, a.root());
        assert_eq!(id, b.root());
        assert_eq!(b.to_string(), "(f a b)");
    }

    #[test]
    fn len_counts_nodes() {
        let e: RecExpr<SymbolLang> = "(+ (* a 2) b)".parse().unwrap();
        assert_eq!(e.len(), 5);
    }
}
